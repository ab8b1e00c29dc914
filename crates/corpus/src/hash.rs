//! A fast, non-cryptographic hasher for integer-keyed hot maps.
//!
//! The phrase-mining and index-building passes hash billions of small integer
//! keys; SipHash (the `std` default) is a measurable bottleneck there. This
//! is the FxHash multiply-rotate scheme used by rustc, implemented locally so
//! the workspace does not need an extra dependency (only the crates
//! vendored under `shims/` are available — see `shims/README.md`).
//!
//! Do **not** use this for attacker-controlled keys; it has no HashDoS
//! resistance. All uses in this workspace hash internally-assigned dense IDs.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from FxHash (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher: `state = (state.rotate_left(5) ^ word) * SEED`.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8-byte chunks, then the tail. This path is only taken for
        // non-integer keys (rare in this workspace).
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_word(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// `HashMap` with the fast [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the fast [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Creates an empty [`FxHashMap`] with at least `cap` capacity.
pub fn fx_map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, BuildHasherDefault::default())
}

/// Creates an empty [`FxHashSet`] with at least `cap` capacity.
pub fn fx_set_with_capacity<T>(cap: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(cap, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash_of<T: std::hash::Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&12345u64), hash_of(&12345u64));
        assert_eq!(hash_of(&"phrase"), hash_of(&"phrase"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a statistical test, just a sanity check that consecutive keys
        // do not collide (they are the common access pattern for dense IDs).
        let hashes: Vec<u64> = (0u64..1000).map(|i| hash_of(&i)).collect();
        let distinct: std::collections::HashSet<_> = hashes.iter().collect();
        assert_eq!(distinct.len(), hashes.len());
    }

    #[test]
    fn byte_stream_tail_handling() {
        // write() must not ignore trailing bytes shorter than a word.
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
        assert_ne!(
            hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9][..]),
            hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 10][..])
        );
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u64, u32> = fx_map_with_capacity(16);
        m.insert(7, 1);
        m.insert(7, 2);
        assert_eq!(m.get(&7), Some(&2));
        assert!(m.capacity() >= 16);

        let mut s: FxHashSet<u32> = fx_set_with_capacity(4);
        assert!(s.insert(3));
        assert!(!s.insert(3));
    }
}
