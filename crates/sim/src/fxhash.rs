//! A fast, non-cryptographic hasher for the simulator's hot-path maps.
//!
//! The standard library's default SipHash is DoS-resistant but costs tens of
//! cycles per key — far too slow for structures the simulator consults every
//! emulated cycle (the sparse-memory page map, the superblock map). This module
//! provides the FxHash multiply-rotate mix (the hasher rustc itself uses for
//! interned keys): a couple of cycles per word, perfectly adequate for keys
//! the guest cannot choose adversarially against the *host*.

use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio-derived odd multiplier (same constant as `rustc-hash`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: one 64-bit accumulator mixed per input word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline(always)]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline(always)]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for word in words {
            self.add(u64::from_le_bytes(*word));
        }
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline(always)]
    fn write_u8(&mut self, value: u8) {
        self.add(u64::from(value));
    }

    #[inline(always)]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    #[inline(always)]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline(always)]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn distinct_keys_rarely_collide() {
        let build = FxBuildHasher::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..4096 {
            seen.insert(build.hash_one((7u8, i, i.wrapping_mul(0x9E37_79B9))));
        }
        // A 64-bit hash over 4096 structured keys should be collision-free.
        assert_eq!(seen.len(), 4096);
    }

    #[test]
    fn byte_stream_matches_itself_across_chunking() {
        // `write` must be deterministic for a given byte string regardless of
        // how the caller composed it.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }
}
