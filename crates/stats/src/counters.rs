//! Named event counters.

use std::collections::BTreeMap;
use std::fmt;

/// A bag of named `u64` event counters.
///
/// Counters are created lazily on first increment and iterate in name order,
/// which keeps simulator reports deterministic.
///
/// # Example
///
/// ```
/// use vksim_stats::Counters;
/// let mut c = Counters::new();
/// c.add("l1d_hit", 3);
/// c.inc("l1d_hit");
/// assert_eq!(c.get("l1d_hit"), 4);
/// assert_eq!(c.get("never_touched"), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    values: BTreeMap<String, u64>,
}

impl Counters {
    /// Creates an empty counter bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `name`, creating it if needed. Only creating a
    /// counter allocates its name; incrementing an existing one does not.
    pub fn add(&mut self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        match self.values.get_mut(name) {
            Some(v) => *v += n,
            None => {
                self.values.insert(name.to_owned(), n);
            }
        }
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (0 if never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Iterates `(name, value)` pairs whose name starts with `prefix`, in
    /// name order, without allocating. The `BTreeMap` range starts at the
    /// prefix itself (borrowed, via the `Borrow<str>` bound) and stops at
    /// the first non-matching key.
    pub fn iter_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.values
            .range::<str, _>((
                std::ops::Bound::Included(prefix),
                std::ops::Bound::Unbounded,
            ))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.iter_prefix(prefix).map(|(_, v)| v).sum()
    }

    /// Merges another counter bag into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in &other.values {
            *self.values.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no counter was ever incremented.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Serializes the bag for a machine-state snapshot: entry count, then
    /// `(name, value)` pairs in name order (the map is a `BTreeMap`, so
    /// the encoding is deterministic by construction).
    pub fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.seq(self.values.len());
        for (k, v) in &self.values {
            e.str(k);
            e.u64(*v);
        }
    }

    /// Restores a bag written by [`Counters::save`].
    ///
    /// # Errors
    ///
    /// Propagates decoder errors on truncated or malformed payloads.
    pub fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        let n = d.seq()?;
        let mut values = BTreeMap::new();
        for _ in 0..n {
            let k = d.str()?;
            let v = d.u64()?;
            values.insert(k, v);
        }
        Ok(Counters { values })
    }

    /// Ratio `num / (num + den)` as a fraction in `[0, 1]`; returns 0 when
    /// both are zero. Convenient for hit rates.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let n = self.get(num) as f64;
        let d = self.get(den) as f64;
        if n + d == 0.0 {
            0.0
        } else {
            n / (n + d)
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.values.is_empty() {
            return writeln!(f, "(no counters)");
        }
        for (k, v) in &self.values {
            writeln!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

impl<'a> Extend<(&'a str, u64)> for Counters {
    fn extend<T: IntoIterator<Item = (&'a str, u64)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.add(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut c = Counters::new();
        c.add("a", 2);
        c.add("a", 3);
        c.inc("b");
        assert_eq!(c.get("a"), 5);
        assert_eq!(c.get("b"), 1);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_add_does_not_create_counter() {
        let mut c = Counters::new();
        c.add("z", 0);
        assert!(c.is_empty());
    }

    #[test]
    fn prefix_sum() {
        let mut c = Counters::new();
        c.add("l1.hit", 4);
        c.add("l1.miss", 6);
        c.add("l2.hit", 10);
        assert_eq!(c.sum_prefix("l1."), 10);
        assert_eq!(c.sum_prefix("l2."), 10);
        assert_eq!(c.sum_prefix("l3."), 0);
    }

    #[test]
    fn prefix_iteration_is_ordered_and_exact() {
        let mut c = Counters::new();
        c.add("l1.hit", 4);
        c.add("l1.miss", 6);
        c.add("l10.hit", 9); // shares the "l1" prefix but not "l1."
        c.add("l2.hit", 10);
        let got: Vec<(&str, u64)> = c.iter_prefix("l1.").collect();
        assert_eq!(got, vec![("l1.hit", 4), ("l1.miss", 6)]);
        assert_eq!(c.iter_prefix("l1").count(), 3);
        assert_eq!(c.iter_prefix("zz").count(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Counters::new();
        a.add("x", 1);
        let mut b = Counters::new();
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
    }

    #[test]
    fn ratio_handles_zero() {
        let mut c = Counters::new();
        assert_eq!(c.ratio("hit", "miss"), 0.0);
        c.add("hit", 3);
        c.add("miss", 1);
        assert!((c.ratio("hit", "miss") - 0.75).abs() < 1e-12);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut c = Counters::new();
        c.inc("zeta");
        c.inc("alpha");
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn display_lists_counters() {
        let mut c = Counters::new();
        c.add("cycles", 42);
        assert!(c.to_string().contains("cycles = 42"));
        assert!(!Counters::new().to_string().is_empty());
    }

    #[test]
    fn snapshot_round_trip_is_exact_and_deterministic() {
        let mut c = Counters::new();
        c.add("l1.hit", 4);
        c.add("gpu.cycles", u64::MAX);
        let mut e = vksim_snapshot::Enc::new();
        c.save(&mut e);
        let bytes = e.into_bytes();
        let back = Counters::load(&mut vksim_snapshot::Dec::new(&bytes)).unwrap();
        assert_eq!(back, c);
        let mut e2 = vksim_snapshot::Enc::new();
        back.save(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
    }

    #[test]
    fn extend_from_pairs() {
        let mut c = Counters::new();
        c.extend([("a", 1u64), ("b", 2u64)]);
        assert_eq!(c.get("b"), 2);
    }
}
