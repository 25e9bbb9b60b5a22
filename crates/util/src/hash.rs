//! A fast, non-cryptographic hasher in the style of rustc's `FxHasher`.
//!
//! The relational engine hashes millions of small integer tuples when
//! building join indexes and deduplicating query outputs; SipHash (std's
//! default) is measurably slower for these keys. HashDoS resistance is
//! irrelevant for a local analysis library, so we trade it away.
//!
//! Two users, two finishes over one word stream:
//!
//! - the **stream hasher** [`FxHasher`] (and [`hash128`], built on it)
//!   returns its state as is. Cache keys, canonical signatures and
//!   snapshot digests are made from it, so its output is part of the
//!   on-disk format and never changes;
//! - the **table hasher** [`TableHasher`], which the [`FxHashMap`] and
//!   [`FxHashSet`] aliases build through [`FxBuildHasher`], feeds the
//!   same stream and rotates the state left by 26 bits when it
//!   finishes (as rustc-hash 2 does). Each step of the stream ends in a
//!   multiply, whose low bits depend only on the low bits of its
//!   input; std's tables pick a bucket from the low bits, so without
//!   the rotation a short string's bucket comes from its first byte or
//!   two: the 12,000 names `k0`..`k11999` land in 64 of 16,384 buckets,
//!   and about 8,100 with it. The rotation moves the well-mixed high
//!   bits down. Only tables rotate, because only their bucket choice
//!   reads the low bits, and a table's hashes are never stored.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// `HashMap` keyed with the table hasher (see [`FxBuildHasher`]).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with the table hasher (see [`FxBuildHasher`]).
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;
/// The table hasher's final rotation (rustc-hash 2's).
const TABLE_ROTATE: u32 = 26;

/// Multiply-rotate hasher (the firefox/rustc "Fx" hash).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds the [`TableHasher`]s of [`FxHashMap`] and [`FxHashSet`].
#[derive(Default, Clone, Copy, Debug)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = TableHasher;

    #[inline]
    fn build_hasher(&self) -> TableHasher {
        TableHasher::default()
    }
}

/// [`FxHasher`]'s word stream with a rotated finish, for hash tables
/// (see the module docs).
#[derive(Default, Clone)]
pub struct TableHasher(FxHasher);

impl Hasher for TableHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.0.write_u8(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0.write_u32(i);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0.write_u64(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0.write_usize(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish().rotate_left(TABLE_ROTATE)
    }
}

/// A 128-bit hash accumulator built from two independently-salted
/// [`FxHasher`] streams.
///
/// 64 bits are too narrow for a cache key that must never alias two
/// distinct canonical hypergraph forms (a false hit would silently serve
/// the wrong LP solution); 128 bits push the collision probability below
/// any realistic workload size. The two lanes see the same word stream
/// but start from different salts, so they are not simple rotations of
/// one another.
#[derive(Clone)]
pub struct Hasher128 {
    lo: FxHasher,
    hi: FxHasher,
}

impl Default for Hasher128 {
    fn default() -> Self {
        let mut hi = FxHasher::default();
        hi.write_u64(0x9e37_79b9_7f4a_7c15); // golden-ratio salt
        Hasher128 {
            lo: FxHasher::default(),
            hi,
        }
    }
}

impl Hasher128 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one word into both lanes.
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.lo.write_u64(w);
        self.hi.write_u64(w);
    }

    /// Feeds a `usize` into both lanes.
    #[inline]
    pub fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    /// The accumulated 128-bit digest.
    pub fn finish128(&self) -> u128 {
        ((self.hi.finish() as u128) << 64) | self.lo.finish() as u128
    }
}

/// Hashes a word sequence to 128 bits (see [`Hasher128`]).
pub fn hash128<I: IntoIterator<Item = u64>>(words: I) -> u128 {
    let mut h = Hasher128::new();
    for w in words {
        h.write_u64(w);
    }
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(42);
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_values() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(1);
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i * 2), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(7, 14)], 7);
    }

    #[test]
    fn hash128_lanes_are_independent() {
        let a = hash128([1, 2, 3]);
        let b = hash128([1, 2, 4]);
        assert_ne!(a, b);
        assert_ne!((a >> 64) as u64, a as u64, "lanes must not coincide");
        assert_eq!(a, hash128([1, 2, 3]), "deterministic");
        // order matters
        assert_ne!(hash128([1, 2]), hash128([2, 1]));
        // empty input still yields a stable digest
        assert_eq!(hash128([]), hash128([]));
    }

    /// Known answers: cache keys, canonical signatures and snapshot
    /// digests are made from these hashes, so they must never move.
    #[test]
    fn stream_hashes_are_pinned() {
        assert_eq!(hash128([1, 2, 3]), 0xc02eacbc23be0ca5fdcb2688e0760126);
        assert_eq!(hash128([]), 0x9308e0beacfd0a390000000000000000);
        assert_eq!(
            hash128([u64::MAX, 0, 0x9e37_79b9_7f4a_7c15]),
            0x15b1109ce4b82308b96ab32047947c5b
        );
        let finish = |feed: &dyn Fn(&mut FxHasher)| {
            let mut h = FxHasher::default();
            feed(&mut h);
            h.finish()
        };
        assert_eq!(finish(&|h| h.write_u64(42)), 0x5e77c80c6b95bc72);
        assert_eq!(finish(&|h| h.write(b"abcdefgh-xy")), 0x8f6835df0b0b2c65);
        assert_eq!(finish(&|h| "k123".hash(h)), 0x674684577f6c3b63);
        assert_eq!(finish(&|h| (7u32, 9u32).hash(h)), 0x899b85736757f606);
    }

    #[test]
    fn table_hasher_rotates_the_stream_hash() {
        let mut stream = FxHasher::default();
        "k123".hash(&mut stream);
        assert_eq!(
            FxBuildHasher.hash_one("k123"),
            stream.finish().rotate_left(TABLE_ROTATE)
        );
    }

    /// Short names that differ only after their first bytes must still
    /// spread over a table's home buckets (the low bits): 12,000 `k{i}`
    /// names take 64 of 16,384 buckets without the table rotation.
    #[test]
    fn table_hasher_spreads_short_names() {
        let buckets: FxHashSet<u64> = (0..12_000)
            .map(|i| FxBuildHasher.hash_one(format!("k{i}")) & 0x3fff)
            .collect();
        assert!(buckets.len() >= 4096, "{} buckets", buckets.len());
    }

    #[test]
    fn byte_stream_tail_handling() {
        // Same prefix, different tails must differ.
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"abcdefgh-xy");
        b.write(b"abcdefgh-xz");
        assert_ne!(a.finish(), b.finish());
    }
}
