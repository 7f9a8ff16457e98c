//! A small deterministic hasher for integer keys.
//!
//! The simulator's hot maps are keyed by dense integer ids (files,
//! nodes). `std`'s default SipHash is keyed per process and built to
//! resist adversarial keys, neither of which a simulation needs; it
//! costs tens of cycles per probe. [`IntHasher`] mixes each integer
//! with one rotate, xor and multiply (the Fx scheme), so a probe is a
//! few cycles and the same keys hash the same way in every run.
//!
//! Determinism of a run never rests on this: callers must not let a
//! decision depend on a map's iteration order (sort, or pick by a
//! unique key). The fixed hash only keeps memory use and timing
//! reproducible too.
//!
//! Unlike SipHash, it offers no defence against keys chosen to collide,
//! so use it only for ids the program assigns itself or receives from a
//! trusted peer (a prototype node takes file ids from its server alone).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the Fx hash (64-bit golden-ratio derived).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Hasher for integer keys: one rotate-xor-multiply per word written.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`IntHasher`].
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` over [`IntHasher`]; build one with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildIntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: T) -> u64 {
        BuildIntHasher::default().hash_one(t)
    }

    #[test]
    fn hashes_are_fixed_across_runs() {
        assert_eq!(hash_of(0u32), 0);
        assert_eq!(hash_of(1u32), K);
        assert_eq!(hash_of(1u32), hash_of(1u64));
        assert_ne!(hash_of(1u32), hash_of(2u32));
    }

    #[test]
    fn dense_ids_spread_over_low_bits() {
        // The low bits pick the bucket: an odd multiplier is a bijection
        // on them, so 1024 dense ids fill 1024 buckets exactly.
        let mut seen = vec![false; 1024];
        for id in 0u32..1024 {
            seen[(hash_of(id) & 1023) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn int_map_round_trips() {
        let mut m: IntMap<u32, u64> = IntMap::default();
        for i in 0..1000u32 {
            m.insert(i.wrapping_mul(7919), u64::from(i));
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&i.wrapping_mul(7919)), Some(&u64::from(i)));
        }
        assert_eq!(m.len(), 1000);
    }
}
