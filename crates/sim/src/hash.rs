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
//! would fix only the first of the two, so the maps on the datapath keep
//! their hash and its cost and fix its keys instead: heap layout becomes
//! a function of the inputs alone, like every other observable of a run.
//!
//! Flood resistance is not lost on anything real. Every key hashed
//! through these aliases — port, BDF, tag, stream id, chunk sequence — is
//! produced inside this process by the simulation itself; none is read
//! from outside the program.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// A `HashMap` that hashes, grows and drops the same way in every
/// process. Build with `default()` or `with_capacity_and_hasher`.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// The [`DetHashMap`] of sets.
pub type DetHashSet<K> = HashSet<K, BuildHasherDefault<DefaultHasher>>;

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
}
