//! A fast deterministic hasher shared by the workspace's hash indexes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast deterministic hasher (the rustc/firefox multiply-rotate-xor
/// scheme): fixed seed, no per-instance randomness, so table layout and
/// any iteration order are stable across runs. The abstract domain's
/// consults re-hash a whole pattern on every table probe, so this sits
/// on the hot path — SipHash (`DefaultHasher`) costs several times more
/// per node there.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
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
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }
}

/// Deterministic hash map: fixed-seed [`FxHasher`] instead of the
/// per-instance random seeds of `RandomState`, so map behavior (and any
/// iteration order) is identical across runs.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
