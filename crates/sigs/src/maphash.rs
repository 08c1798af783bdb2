//! The hasher for DRAM maps keyed by values that are already hashes —
//! key signatures and table ids.
//!
//! SipHash, std's default, spends rounds making its output unpredictable
//! from the input. A signature already is a well-mixed hash, so one seeded
//! folded multiply, the construction foldhash and ahash build on, spreads
//! it over both the bucket index (low bits) and the control byte (high
//! bits): `(x ^ seed) as u128 * K`, then the two halves XORed. Each map
//! draws its seed from std's [`RandomState`], so bucket positions still
//! cannot be predicted from the keys.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

/// Odd 64-bit multiplier (the fractional bits of π, as foldhash uses).
const K: u64 = 0x243f_6a88_85a3_08d3;

#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = x as u128 * y as u128;
    (full as u64) ^ ((full >> 64) as u64)
}

/// A `HashMap` keyed by signatures or table ids.
pub type SigMap<K, V> = HashMap<K, V, SigBuildHasher>;

/// Builds [`SigMapHasher`]s sharing one per-map random seed.
#[derive(Clone, Debug)]
pub struct SigBuildHasher {
    seed: u64,
}

impl Default for SigBuildHasher {
    fn default() -> Self {
        SigBuildHasher { seed: RandomState::new().hash_one(K) }
    }
}

impl BuildHasher for SigBuildHasher {
    type Hasher = SigMapHasher;

    #[inline]
    fn build_hasher(&self) -> SigMapHasher {
        SigMapHasher { state: self.seed }
    }
}

/// One folded multiply per 64-bit word written.
#[derive(Clone, Debug)]
pub struct SigMapHasher {
    state: u64,
}

impl Hasher for SigMapHasher {
    /// Keys other than integers fold in eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = folded_multiply(x ^ self.state, K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal_and_seeds_differ_per_map() {
        let a = SigBuildHasher::default();
        assert_eq!(a.hash_one(42u64), a.hash_one(42u64));
        assert_ne!(a.hash_one(42u64), a.hash_one(43u64));
        let b = SigBuildHasher::default();
        assert_ne!(a.hash_one(42u64), b.hash_one(42u64), "each map draws its own seed");
    }

    #[test]
    fn consecutive_ids_spread_over_buckets_and_control_bytes() {
        // Table ids are small consecutive integers: both the low bits
        // (bucket) and the top 7 bits (control byte) must vary.
        let h = SigBuildHasher::default();
        let low: std::collections::HashSet<u64> =
            (0..256u64).map(|i| h.hash_one(i) & 255).collect();
        let top: std::collections::HashSet<u64> =
            (0..256u64).map(|i| h.hash_one(i) >> 57).collect();
        assert!(low.len() > 128, "low bits cluster: {} of 256", low.len());
        assert!(top.len() > 64, "top bits cluster: {} of 128", top.len());
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: SigMap<u64, u32> = SigMap::default();
        for i in 0..1000u64 {
            m.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)), Some(&7));
        let mut bytes: SigMap<&[u8], u8> = SigMap::default();
        bytes.insert(b"twelve bytes", 1);
        assert_eq!(bytes.get(&b"twelve bytes"[..]), Some(&1));
        assert_eq!(bytes.get(&b"twelve byte"[..]), None);
    }
}
