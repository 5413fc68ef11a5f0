//! A small multiplicative ("Fx"-style) hasher for the simulator's hot
//! maps.
//!
//! The interpreter looks up a handful of maps on every executed
//! statement — the calling-context intern table, the scale parameters of
//! every cost expression, the PMU and sample accumulators. Their keys are
//! small integers and short parameter names produced by the program
//! itself, never by outside input, so SipHash's collision resistance buys
//! nothing there and its per-lookup cost dominates the step. This hasher
//! folds each word in with one rotate, xor and multiply, and rotates the
//! result on `finish` so the well-mixed high bits also reach the bucket
//! index.
//!
//! No result may depend on the iteration order of a map using it: every
//! consumer that iterates folds in sorted or rank order (the default
//! `RandomState` already varies that order between map instances).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Builds [`FxHasher`]s; stateless, so every map hashes alike.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiplicative word-at-a-time hasher (not DoS-resistant).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        // Tail in 4/2/1-byte words, so a zero byte still adds a word.
        let mut rest = chunks.remainder();
        if rest.len() >= 4 {
            self.add(u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as u64);
            rest = &rest[4..];
        }
        if rest.len() >= 2 {
            self.add(u16::from_le_bytes(rest[..2].try_into().expect("2 bytes")) as u64);
            rest = &rest[2..];
        }
        if let Some(&b) = rest.first() {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_across_builders() {
        assert_eq!(hash_of(&(3u32, 7u32)), hash_of(&(3u32, 7u32)));
        assert_eq!(hash_of(&"class_scale"), hash_of(&"class_scale"));
        assert_ne!(hash_of(&(3u32, 7u32)), hash_of(&(7u32, 3u32)));
    }

    #[test]
    fn string_tails_and_lengths_are_distinguished() {
        // Same 8-byte prefix, different tails; and a zero-padded tail
        // must not collide with a shorter string.
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
    }

    #[test]
    fn map_behaves_like_a_map() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for i in 0..10_000u32 {
            *m.entry((i % 97, i % 13)).or_insert(0) += 1;
        }
        assert_eq!(m.len(), 97 * 13);
        assert_eq!(m.values().sum::<u64>(), 10_000);
        assert_eq!(m[&(0, 0)], 8);
    }
}
