//! A fast, deterministic, non-cryptographic hasher for internal tables.
//!
//! The word-at-a-time multiply-rotate hash used by `rustc` (FxHash): one
//! rotate, xor and multiply per machine word, against SipHash's dozens of
//! rounds. It gives up SipHash's resistance to adversarial collisions,
//! which only matters when keys come from an attacker; the tables it
//! serves are keyed by dense engine ids and abstract states the engine
//! itself computed. Because the hasher is unseeded, a table built by the
//! same sequence of insertions iterates in the same order on every run.
//!
//! [`fnv1a`] sits beside it: a byte-at-a-time hash with a fixed, published
//! definition, for values that must hash the same in every build (the
//! fault plane's seeded draws, the golden files' witness digests).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiply constant of `rustc`'s FxHash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash [`Hasher`]. Use through [`FxBuildHasher`].
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
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
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
        self.hash
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`HashMap`] hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Hashes one value with [`FxHasher`].
pub fn fx_hash<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// FNV-1a over bytes: a deterministic, dependency-free byte hash (the
/// std `RandomState` hasher is seeded per process, so its values differ
/// from run to run).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
    }

    #[test]
    fn deterministic_and_sensitive_to_each_word() {
        assert_eq!(fx_hash(&(1u32, 2u32)), fx_hash(&(1u32, 2u32)));
        assert_ne!(fx_hash(&(1u32, 2u32)), fx_hash(&(2u32, 1u32)));
        assert_ne!(fx_hash(&[0u8; 9][..]), fx_hash(&[0u8; 8][..]));
    }

    #[test]
    fn byte_tails_are_hashed() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn maps_iterate_in_insertion_determined_order() {
        let build = || {
            let mut m: FxHashMap<u32, u32> = FxHashMap::default();
            for i in (0..1000).rev() {
                m.insert(i * 7919 % 1009, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
