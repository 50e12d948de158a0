//! A fast, deterministic hasher for the engine's internal tables.
//!
//! The RIB hot path is dominated by hash-map operations keyed on small
//! fixed-size values (`Prefix`, `PeerId`, attribute-set pointers).
//! SipHash's DoS resistance buys nothing there — the keys come from
//! benchmark workloads, not attackers — so the engine uses the
//! multiply-rotate scheme popularized by rustc's `FxHasher` instead.
//! The function is deterministic across runs and platforms of the same
//! pointer width, which the repeatability-sensitive benchmarks rely on.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiply constant (derived from the golden ratio, as in
/// rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The multiply-rotate hasher. Not cryptographic and not DoS-hardened;
/// use only for trusted keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            #[expect(
                clippy::unwrap_used,
                reason = "chunks_exact(8) guarantees every chunk is exactly 8 bytes"
            )]
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let remainder = chunks.remainder();
        if !remainder.is_empty() {
            let mut word = [0u8; 8];
            word[..remainder.len()].copy_from_slice(remainder);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add_to_hash(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.add_to_hash(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add_to_hash(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add_to_hash(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add_to_hash(value as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "the one place rib names the std map: with FxHasher, which the ban exists to enforce"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(f: impl Fn(&mut FxHasher)) -> u64 {
        let mut hasher = FxHasher::default();
        f(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        let a = hash_of(|h| h.write_u32(0x0A00_0001));
        let b = hash_of(|h| h.write_u32(0x0A00_0001));
        assert_eq!(a, b);
        assert_ne!(a, hash_of(|h| h.write_u32(0x0A00_0002)));
    }

    #[test]
    fn byte_slices_cover_chunks_and_remainders() {
        let long = hash_of(|h| h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]));
        let short = hash_of(|h| h.write(&[1, 2, 3]));
        assert_ne!(long, short);
        // Byte order matters within the zero-padded remainder word.
        // (Trailing zeros alone are invisible to the padding — std's
        // `Hash` impls hash a length prefix for variable-length keys,
        // which is what disambiguates those.)
        assert_ne!(hash_of(|h| h.write(&[0, 1])), hash_of(|h| h.write(&[1, 0])));
    }

    #[test]
    fn maps_work_with_composite_keys() {
        let mut map: FxHashMap<(u32, u8), &str> = FxHashMap::default();
        map.insert((167_772_160, 8), "10.0.0.0/8");
        map.insert((184_549_376, 8), "11.0.0.0/8");
        assert_eq!(map.get(&(167_772_160, 8)), Some(&"10.0.0.0/8"));
        assert_eq!(map.len(), 2);
    }
}
