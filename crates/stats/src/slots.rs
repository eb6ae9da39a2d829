//! Typed counter slots: allocation-free counting on the simulator's hot
//! paths.
//!
//! A [`Counters`] bag keys its values by `String`, which is what reports,
//! exporters and golden files want, but it costs a map lookup (and, for a
//! new key, an allocation) per increment. A hot layer instead declares its
//! counters once with [`counter_slots!`](crate::counter_slots): a fieldless
//! enum whose variants index a fixed `[u64; N]`, plus one `const` table of
//! names. Counting is an array add; names only appear when the set is
//! turned into a [`Counters`] ([`Slots::to_counters`]), iterated
//! ([`Slots::iter`]) or saved.
//!
//! A slot set is observably the same as a [`Counters`] bag fed the same
//! increments under the slot names: [`Slots::iter`] yields the nonzero
//! slots in name order, and [`Slots::save`] writes the bytes
//! [`Counters::save`] would. The name table must therefore be in strictly
//! ascending byte order, which the macro checks at compile time.
//!
//! # Example
//!
//! ```
//! vksim_stats::counter_slots! {
//!     /// Demo counters.
//!     pub enum Demo => DemoCounters {
//!         /// Cache hits.
//!         Hit = "hit",
//!         /// Cache misses.
//!         Miss = "miss",
//!     }
//! }
//! let mut c = DemoCounters::new();
//! c.inc(Demo::Miss);
//! c.add(Demo::Miss, 2);
//! assert_eq!(c.get(Demo::Miss), 3);
//! assert_eq!(c.iter().collect::<Vec<_>>(), vec![("miss", 3)]);
//! assert_eq!(c.to_counters().get("miss"), 3);
//! ```

use crate::Counters;
use std::fmt;
use std::marker::PhantomData;

/// A fieldless enum naming one layer's counters. Implemented by
/// [`counter_slots!`](crate::counter_slots); `index` is the variant's
/// position in `NAMES`.
pub trait CounterSlot: Copy + 'static {
    /// Slot names in strictly ascending byte order, indexed by
    /// [`CounterSlot::index`].
    const NAMES: &'static [&'static str];

    /// The slot's position in [`CounterSlot::NAMES`].
    fn index(self) -> usize;

    /// The slot's reported name.
    fn name(self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

/// `true` when `names` is in strictly ascending byte order (the order a
/// `BTreeMap<String, _>` iterates in). Used by [`counter_slots!`]'s
/// compile-time check.
///
/// [`counter_slots!`]: crate::counter_slots
#[doc(hidden)]
pub const fn strictly_ascending(names: &[&str]) -> bool {
    let mut i = 1;
    while i < names.len() {
        if !str_lt(names[i - 1], names[i]) {
            return false;
        }
        i += 1;
    }
    true
}

const fn str_lt(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

/// One `u64` per slot of `K`; `N` is `K::NAMES.len()`. Declare a set with
/// [`counter_slots!`](crate::counter_slots), which also defines the
/// matching type alias.
#[derive(Clone, PartialEq, Eq)]
pub struct Slots<K: CounterSlot, const N: usize> {
    values: [u64; N],
    _slot: PhantomData<K>,
}

impl<K: CounterSlot, const N: usize> Default for Slots<K, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: CounterSlot, const N: usize> Slots<K, N> {
    /// An all-zero set.
    pub fn new() -> Self {
        const { assert!(K::NAMES.len() == N, "slot count must match the name table") };
        Slots {
            values: [0; N],
            _slot: PhantomData,
        }
    }

    /// Adds `n` to slot `k`.
    #[inline]
    pub fn add(&mut self, k: K, n: u64) {
        self.values[k.index()] += n;
    }

    /// Adds one to slot `k`.
    #[inline]
    pub fn inc(&mut self, k: K) {
        self.add(k, 1);
    }

    /// Current value of slot `k`.
    #[inline]
    pub fn get(&self, k: K) -> u64 {
        self.values[k.index()]
    }

    /// `(name, value)` of every nonzero slot, in name order — exactly what
    /// [`Counters::iter`] yields for a bag fed the same increments.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        K::NAMES
            .iter()
            .zip(&self.values)
            .filter(|(_, &v)| v != 0)
            .map(|(&name, &v)| (name, v))
    }

    /// The nonzero slots as a named [`Counters`] bag.
    pub fn to_counters(&self) -> Counters {
        let mut c = Counters::new();
        c.extend(self.iter());
        c
    }

    /// Serializes the set exactly as [`Counters::save`] serializes the
    /// equivalent bag: the nonzero count, then `(name, value)` pairs in
    /// name order.
    pub fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.seq(self.iter().count());
        for (name, v) in self.iter() {
            e.str(name);
            e.u64(v);
        }
    }

    /// Restores a set written by [`Slots::save`] (or by
    /// [`Counters::save`] over slot names).
    ///
    /// # Errors
    ///
    /// A name that is not one of `K`'s slots is
    /// [`vksim_snapshot::SnapError::Malformed`]: dropping it silently would
    /// lose a count. Decoder errors propagate.
    pub fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        let mut set = Self::new();
        for _ in 0..d.seq()? {
            let name = d.str()?;
            let v = d.u64()?;
            let idx = K::NAMES.binary_search(&name.as_str()).map_err(|_| {
                vksim_snapshot::SnapError::Malformed(format!("unknown counter {name:?}"))
            })?;
            set.values[idx] = v;
        }
        Ok(set)
    }
}

impl<K: CounterSlot, const N: usize> fmt::Debug for Slots<K, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Declares a layer's counter slots: a fieldless enum, its name table and
/// a [`Slots`] type alias sized to it.
///
/// ```
/// vksim_stats::counter_slots! {
///     /// Row-buffer outcomes.
///     pub enum Row => RowCounters {
///         /// Row hits.
///         Hit = "row_hit",
///         /// Row misses.
///         Miss = "row_miss",
///     }
/// }
/// let mut c = RowCounters::new();
/// c.inc(Row::Hit);
/// assert_eq!(c.get(Row::Hit), 1);
/// ```
///
/// Variants must be listed in ascending order of their names (byte order,
/// as a `BTreeMap<String, _>` sorts them); an out-of-order or duplicate
/// name is a compile error. Adding a counter is adding one line at its
/// sorted position.
///
/// ```compile_fail
/// vksim_stats::counter_slots! {
///     enum Unsorted => UnsortedCounters {
///         B = "row_miss",
///         A = "row_hit",
///     }
/// }
/// ```
#[macro_export]
macro_rules! counter_slots {
    (
        $(#[$meta:meta])*
        $vis:vis enum $slot:ident => $set:ident {
            $($(#[$vmeta:meta])* $variant:ident = $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        $vis enum $slot {
            $($(#[$vmeta])* $variant,)+
        }

        impl $crate::CounterSlot for $slot {
            const NAMES: &'static [&'static str] = &[$($name),+];

            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }

        const _: () = assert!(
            $crate::slots::strictly_ascending(<$slot as $crate::CounterSlot>::NAMES),
            concat!(stringify!($slot), " slot names must be in strictly ascending order"),
        );

        #[doc = concat!("Counter set indexed by [`", stringify!($slot), "`].")]
        $vis type $set = $crate::Slots<$slot, { <$slot as $crate::CounterSlot>::NAMES.len() }>;
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_testkit::prop::{check, u32_in, u64_in, vec_of};
    use vksim_testkit::{prop_assert, prop_assert_eq};

    crate::counter_slots! {
        /// Test slots, including names that sort across case and prefixes.
        enum T => TSet {
            Alu = "inst.Alu",
            Mem = "inst.Mem",
            Hit = "l1.hit",
            Miss = "l1.miss",
            MissPending = "l1.miss_pending",
            Req = "req",
            RowHit = "row_hit",
        }
    }

    const ALL: [T; 7] = [
        T::Alu,
        T::Mem,
        T::Hit,
        T::Miss,
        T::MissPending,
        T::Req,
        T::RowHit,
    ];

    fn save_bytes(f: impl FnOnce(&mut vksim_snapshot::Enc)) -> Vec<u8> {
        let mut e = vksim_snapshot::Enc::new();
        f(&mut e);
        e.into_bytes()
    }

    #[test]
    fn name_order_check() {
        assert!(strictly_ascending(&["a", "ab", "b"]));
        assert!(strictly_ascending(&["Z", "a"]));
        assert!(!strictly_ascending(&["b", "a"]));
        assert!(!strictly_ascending(&["a", "a"]));
        assert!(strictly_ascending(&[]));
        for (i, k) in ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn empty_set_saves_like_empty_counters() {
        let s = TSet::new();
        assert_eq!(s.iter().count(), 0);
        assert_eq!(
            save_bytes(|e| s.save(e)),
            save_bytes(|e| Counters::new().save(e))
        );
    }

    /// Random increment sequences applied to a slot set and to a named
    /// bag agree on iteration (names, order, nonzero-only), on the saved
    /// bytes, and on a save/load round trip.
    #[test]
    fn slots_match_named_counters() {
        let ops = vec_of((u32_in(0, ALL.len() as u32), u64_in(0, 4)), 0, 40);
        check(&ops, |ops| {
            let mut slots = TSet::new();
            let mut named = Counters::new();
            for &(k, n) in ops {
                let k = ALL[k as usize];
                slots.add(k, n);
                named.add(T::NAMES[k.index()], n);
            }
            let a: Vec<(&str, u64)> = slots.iter().collect();
            let b: Vec<(&str, u64)> = named.iter().collect();
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(slots.to_counters(), named.clone());
            let bytes = save_bytes(|e| slots.save(e));
            prop_assert_eq!(&bytes, &save_bytes(|e| named.save(e)));
            let back = TSet::load(&mut vksim_snapshot::Dec::new(&bytes));
            prop_assert!(back.as_ref().is_ok_and(|b| *b == slots), "round trip");
            Ok(())
        });
    }

    /// A snapshot naming a counter the set does not have is malformed,
    /// wherever the unknown name sorts.
    #[test]
    fn load_rejects_unknown_names() {
        for stray in ["aaa", "inst.Rt", "l1.hit.x", "zzz"] {
            let mut named = Counters::new();
            named.add("l1.hit", 2);
            named.add(stray, 1);
            let bytes = save_bytes(|e| named.save(e));
            match TSet::load(&mut vksim_snapshot::Dec::new(&bytes)) {
                Err(vksim_snapshot::SnapError::Malformed(msg)) => assert!(msg.contains(stray)),
                other => panic!("{stray}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn debug_lists_nonzero_slots() {
        let mut s = TSet::new();
        s.inc(T::Req);
        assert_eq!(format!("{s:?}"), r#"{"req": 1}"#);
    }
}
