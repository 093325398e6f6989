//! Hash containers that take no randomness from the host, and the one
//! FNV-1a fold behind the trace digest, the fleet config fingerprint and
//! the replica rendezvous weights.
//!
//! `std`'s `HashMap::new` keys SipHash from the OS once per process.
//! Nothing the simulation *computes* depends on those keys — walks that
//! feed a digest or a snapshot are sorted — but the allocator sees them:
//! they decide the order a dropped map frees its values in, and, through
//! which removals leave tombstones, the insert at which a churning map
//! reallocates. A different heap then grows by a different number of
//! pages under the same request stream (`bench_e2e`'s `rss_kib_per_req`
//! moved in 128 KiB steps from run to run). Sorting or a `BTreeMap`
//! would fix only the first of the two, so the maps on the datapath hash
//! with [`WordHasher`], which has no key at all: heap layout becomes a
//! function of the inputs alone, like every other observable of a run.
//! It costs one rotate, xor and multiply per word of key, which matters
//! because every MMIO round trip looks up several of these maps.
//!
//! Flood resistance is not lost on anything real. Every key hashed
//! through these aliases — port, BDF, tag, stream id, chunk sequence — is
//! produced inside this process by the simulation itself; none is read
//! from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` that hashes, grows and drops the same way in every
/// process. Build with `default()` or `with_capacity_and_hasher`.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The [`DetHashMap`] of sets.
pub type DetHashSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

/// Multiply-rotate hasher of the FxHash shape: each integer written is
/// one word folded into the state. Unkeyed, so not flood resistant (see
/// the module doc for why that is fine here).
#[derive(Clone, Copy, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }
    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
    /// A product's high bits are its well-mixed ones; hashbrown takes the
    /// bucket from the low bits and the control tag from the top 7, so
    /// fold the high half down (a bijection: no two states collide).
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// The 64-bit FNV-1a offset basis: the state a fresh fold starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running 64-bit FNV-1a state `h`. The telemetry
/// trace digest, the fleet config fingerprint and the replica rendezvous
/// weight all fold through this one function.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
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
    fn two_maps_walk_in_the_same_order() {
        let fill = || {
            let mut map = DetHashMap::default();
            for k in 0..1000u64 {
                map.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k);
            }
            map.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill());
    }

    /// Every key shape the datapath maps hold must spread over both the
    /// low bits (bucket) and the top 7 bits (control tag) hashbrown uses.
    fn assert_spreads<K: std::hash::Hash>(shape: &str, keys: impl Iterator<Item = K>) {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<WordHasher>::default();
        let hashes: Vec<u64> = keys.map(|k| build.hash_one(k)).collect();
        assert_eq!(hashes.len(), 1 << 16, "{shape}: 64 Ki keys");
        let distinct: DetHashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len(), "{shape}: 64-bit hashes collide");
        let tags: DetHashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(tags.len() >= 120, "{shape}: only {} of 128 top-7-bit tags", tags.len());
        let low: DetHashSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
        assert!(low.len() >= 4000, "{shape}: only {} of 4096 low-12-bit buckets", low.len());
    }

    #[test]
    fn datapath_key_shapes_spread_over_tags_and_buckets() {
        assert_spreads("u64 chunk sequence", 0..1u64 << 16);
        assert_spreads(
            "(u32, u64) tag key",
            (0..16u32).flat_map(|stream| (0..4096u64).map(move |seq| (stream, seq))),
        );
        assert_spreads(
            "(u16, u8) read ticket",
            (0..256u16).flat_map(|bdf| (0..=255u8).map(move |tag| (bdf, tag))),
        );
        assert_spreads(
            "(u8, u16) filter bucket",
            (0..=255u8).flat_map(|ty| (0..256u16).map(move |req| (ty, req))),
        );
    }
}
