//! A small multiplicative hasher for live-well lookups.
//!
//! The live well performs several hash operations per trace instruction, so
//! the default SipHash is a measurable cost on multi-million-instruction
//! traces. This Fx-style multiplicative hash is entirely adequate for the
//! key distribution here (word addresses and small register indices) and
//! keeps the crates dependency-free. The trace interner keys its maps with
//! it too; the analyzer imports it from here.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxStyleHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxStyleHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiplicative hasher in the style of rustc's FxHash.
#[derive(Debug, Default, Clone)]
pub struct FxStyleHasher {
    hash: u64,
}

impl FxStyleHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxStyleHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_inserts_and_retrieves() {
        let mut map: FastMap<u64, u32> = FastMap::default();
        for i in 0..10_000u64 {
            map.insert(i * 8, i as u32);
        }
        for i in 0..10_000u64 {
            assert_eq!(map.get(&(i * 8)), Some(&(i as u32)));
        }
        assert_eq!(map.get(&7), None);
    }

    #[test]
    fn hasher_differentiates_nearby_word_addresses() {
        let hash = |v: u64| {
            let mut h = FxStyleHasher::default();
            h.write_u64(v);
            h.finish()
        };
        let mut seen = std::collections::HashSet::new();
        for addr in 0..4096u64 {
            seen.insert(hash(addr));
        }
        assert_eq!(seen.len(), 4096);
    }
}
