//! A fixed-seed, FxHash-style hasher for the simulator's integer-keyed maps.
//!
//! `std`'s default `RandomState` seeds every map from the OS, so the
//! iteration order of a `HashMap` — and with it the exact points at which
//! the table grows and reallocates — differs from run to run. The simulator
//! never lets iteration order decide a modelled outcome, but a random seed
//! still makes host-side work (allocation counts) jitter between identical
//! runs. [`FxBuildHasher`] has no seed at all, so two runs of the same
//! workload hash, probe and grow identically.
//!
//! The mixing step is the multiply-rotate scheme of the Firefox/rustc
//! hasher (add the word, multiply by an odd constant; rotate on finish so
//! the well-mixed high product bits land in the bucket-index bits). It is
//! fast on the small integer keys used here (line addresses, request ids,
//! thread ids) and offers no protection against adversarial keys, which a
//! simulator does not face.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the 64-bit rustc-hash constant).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The hasher state. See the [module documentation](self).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        // Length terminator, so "ab" + "c" and "a" + "bc" differ.
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Seedless [`std::hash::BuildHasher`] producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` with the fixed-seed hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` with the fixed-seed hasher.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_seedless_and_repeatable() {
        assert_eq!(hash_of(0x1234_u64), hash_of(0x1234_u64));
        assert_eq!(
            FxBuildHasher::default().hash_one((3u8, 77u64)),
            FxBuildHasher::default().hash_one((3u8, 77u64))
        );
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of("ab"), hash_of("abc"));
    }

    #[test]
    fn line_aligned_keys_spread_over_low_bits() {
        // 32 B-aligned addresses have five zero low bits; the finishing
        // rotation must still spread them over the bucket-index bits.
        let buckets: FxHashSet<u64> = (0..1024u64).map(|i| hash_of(i * 32) & 0xff).collect();
        assert!(buckets.len() > 200, "{} of 256 buckets used", buckets.len());
    }

    #[test]
    fn iteration_order_repeats_across_maps() {
        let fill = || {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for i in 0..500u64 {
                m.insert(i.wrapping_mul(0x9e37_79b9), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill());
    }
}
