//! The replica set both fleets share: [`crate::ShardedFleet`] (real
//! confidential systems) and [`crate::FleetServer`] (priced lanes) route
//! and refuse membership changes through one [`ReplicaSet`].
//!
//! Replicas carry stable ids that are never reused. A tenant's home is its
//! migration pin if it has one, else its rendezvous (highest-random-weight)
//! replica: each (tenant, replica) pair gets a 64-bit weight from the
//! FNV-1a fold the telemetry digest uses. Homes are a pure function of
//! (tenant, routable ids, pins), so runs replay bit-identically, and adding
//! or removing one replica remaps only the tenants that lived on it.

use ccai_sim::{fnv1a, FNV_OFFSET};
use std::collections::BTreeMap;

/// Weight of a (tenant, replica) pair: one FNV-1a fold over both ids,
/// finished with an avalanche multiply so nearby tags don't produce
/// correlated weights.
fn weight(tenant: u32, replica: u32) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &tenant.to_le_bytes());
    h = fnv1a(h, &replica.to_le_bytes());
    // splitmix64-style finalizer.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Why a [`ReplicaSet`] refused a membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The id names no routable replica.
    Unknown(u32),
    /// Taking the replica out of routing would leave nothing routable.
    Last(u32),
    /// The id is already a member, routable or leaving.
    Duplicate(u32),
}

impl Refusal {
    /// Stable reason code, recorded with a refused chaos event.
    pub fn reason(self) -> &'static str {
        match self {
            Refusal::Unknown(_) => "unknown",
            Refusal::Last(_) => "last",
            Refusal::Duplicate(_) => "duplicate",
        }
    }
}

#[derive(Debug)]
struct Member<T> {
    id: u32,
    /// False once the member is leaving (a draining lane): it keeps its
    /// id until it retires but takes no tenants.
    routable: bool,
    value: T,
}

/// Replicas under stable ids, id-ascending, with rendezvous homes and
/// migration pins.
///
/// # Example
///
/// ```
/// use ccai_llm::shard::ReplicaSet;
///
/// let set = ReplicaSet::new(["a", "b", "c", "d"]);
/// let home = set.shard_of(0x0210);
/// assert!(set.ids().contains(&home));
/// // Same inputs, same answer — routing is a pure function.
/// assert_eq!(home, ReplicaSet::new([(); 4]).shard_of(0x0210));
/// ```
#[derive(Debug)]
pub struct ReplicaSet<T> {
    members: Vec<Member<T>>,
    /// Migration pins: tenant → replica id, consulted before HRW.
    pins: BTreeMap<u32, u32>,
    /// Next never-used id.
    next_id: u32,
}

impl<T> ReplicaSet<T> {
    /// A set of `values` under ids `0..n`, all routable.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty: a set with nowhere to route is a
    /// configuration bug, not a runtime condition.
    pub fn new(values: impl IntoIterator<Item = T>) -> Self {
        let mut set = ReplicaSet { members: Vec::new(), pins: BTreeMap::new(), next_id: 0 };
        for value in values {
            set.push(value);
        }
        assert!(!set.members.is_empty(), "replica set needs at least one replica");
        set
    }

    /// Rebuilds a set from `(id, routable, value)` rows and pins, as a
    /// snapshot stored them; `None` unless the ids ascend strictly, a row
    /// is routable and every pin targets a routable row.
    pub fn from_parts(
        rows: impl IntoIterator<Item = (u32, bool, T)>,
        pins: BTreeMap<u32, u32>,
    ) -> Option<Self> {
        let members: Vec<Member<T>> =
            rows.into_iter().map(|(id, routable, value)| Member { id, routable, value }).collect();
        let next_id = members.last()?.id.saturating_add(1);
        let set = ReplicaSet { members, pins, next_id };
        let ascending = set.members.windows(2).all(|w| w[0].id < w[1].id);
        let pinned = set.pins.values().all(|&to| set.is_routable(to));
        (ascending && pinned && set.members.iter().any(|m| m.routable)).then_some(set)
    }

    /// Routable ids, ascending.
    pub fn ids(&self) -> Vec<u32> {
        self.members.iter().filter(|m| m.routable).map(|m| m.id).collect()
    }

    /// A tenant's home: its pin if one is set, else the routable member
    /// with the highest rendezvous weight.
    pub fn shard_of(&self, tenant: u32) -> u32 {
        if let Some(&to) = self.pins.get(&tenant) {
            return to;
        }
        let mut best: Option<(u64, u32)> = None;
        for m in self.members.iter().filter(|m| m.routable) {
            let w = weight(tenant, m.id);
            if best.is_none_or(|(top, _)| w > top) {
                best = Some((w, m.id));
            }
        }
        best.expect("a replica set keeps a routable member").1
    }

    /// Migration pins, tenant-ascending.
    pub fn pins(&self) -> &BTreeMap<u32, u32> {
        &self.pins
    }

    fn position(&self, id: u32) -> Result<usize, usize> {
        self.members.binary_search_by_key(&id, |m| m.id)
    }

    fn is_routable(&self, id: u32) -> bool {
        self.position(id).is_ok_and(|pos| self.members[pos].routable)
    }

    /// The member under `id`, routable or leaving.
    pub fn get(&self, id: u32) -> Option<&T> {
        self.position(id).ok().map(|pos| &self.members[pos].value)
    }

    /// Mutable access to the member under `id`, routable or leaving.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        let pos = self.position(id).ok()?;
        Some(&mut self.members[pos].value)
    }

    /// Every member as `(id, routable, value)`, id-ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u32, bool, &T)> {
        self.members.iter().map(|m| (m.id, m.routable, &m.value))
    }

    /// Every member's value, mutably, id-ascending.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.members.iter_mut().map(|m| &mut m.value)
    }

    /// Admits `value` under a fresh never-used id and returns it.
    pub fn push(&mut self, value: T) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.members.push(Member { id, routable: true, value });
        id
    }

    /// Admits `value` under an id the caller names (a hot-plugged blade).
    ///
    /// # Errors
    ///
    /// [`Refusal::Duplicate`] if a member holds `id`, leaving ones
    /// included: ids are never shared.
    pub fn insert(&mut self, id: u32, value: T) -> Result<(), Refusal> {
        let pos = self.position(id).err().ok_or(Refusal::Duplicate(id))?;
        self.members.insert(pos, Member { id, routable: true, value });
        self.next_id = self.next_id.max(id.saturating_add(1));
        Ok(())
    }

    /// Takes a routable member out of routing and drops the pins on it
    /// (its tenants re-home by HRW); returns its position and pins dropped.
    fn unroute(&mut self, id: u32) -> Result<(usize, usize), Refusal> {
        let pos = self.position(id).ok().filter(|&pos| self.members[pos].routable);
        let pos = pos.ok_or(Refusal::Unknown(id))?;
        if self.members.iter().filter(|m| m.routable).count() == 1 {
            return Err(Refusal::Last(id));
        }
        self.members[pos].routable = false;
        let before = self.pins.len();
        self.pins.retain(|_, &mut to| to != id);
        Ok((pos, before - self.pins.len()))
    }

    /// Removes a routable member at once (crash, unplug); returns its
    /// value and the number of pins dropped with it.
    ///
    /// # Errors
    ///
    /// [`Refusal::Unknown`] if `id` is not routable, [`Refusal::Last`] if
    /// it is the only routable member.
    pub fn remove(&mut self, id: u32) -> Result<(T, usize), Refusal> {
        let (pos, unpinned) = self.unroute(id)?;
        Ok((self.members.remove(pos).value, unpinned))
    }

    /// Stops routing to a member but keeps it until [`ReplicaSet::retire`]
    /// (a graceful drain); returns the number of pins dropped.
    ///
    /// # Errors
    ///
    /// As [`ReplicaSet::remove`].
    pub fn drain(&mut self, id: u32) -> Result<usize, Refusal> {
        self.unroute(id).map(|(_, unpinned)| unpinned)
    }

    /// Removes the leaving members `done` reports finished; returns their
    /// ids, ascending.
    pub fn retire(&mut self, mut done: impl FnMut(&T) -> bool) -> Vec<u32> {
        let mut retired = Vec::new();
        self.members.retain(|m| {
            let leaves = !m.routable && done(&m.value);
            if leaves {
                retired.push(m.id);
            }
            !leaves
        });
        retired
    }

    /// Pins `tenant` to the routable member `to`, overriding its HRW home.
    ///
    /// # Errors
    ///
    /// [`Refusal::Unknown`] if `to` is not routable.
    pub fn pin(&mut self, tenant: u32, to: u32) -> Result<(), Refusal> {
        if !self.is_routable(to) {
            return Err(Refusal::Unknown(to));
        }
        self.pins.insert(tenant, to);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let set = ReplicaSet::new([(); 4]);
        for tenant in 0..512u32 {
            let s = set.shard_of(tenant);
            assert!(set.ids().contains(&s));
            assert_eq!(s, set.shard_of(tenant), "same tenant, same shard");
        }
    }

    #[test]
    fn load_spreads_across_shards() {
        let set = ReplicaSet::new([(); 4]);
        let mut counts = [0u32; 4];
        for tenant in 0..4096u32 {
            counts[set.shard_of(tenant) as usize] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            // Perfect balance would be 1024; allow a generous band.
            assert!(
                (700..=1350).contains(&n),
                "shard {shard} got {n}/4096 tenants — rendezvous weights are skewed"
            );
        }
    }

    #[test]
    fn removing_a_shard_only_remaps_its_tenants() {
        let full = ReplicaSet::new([(); 4]);
        let mut reduced = ReplicaSet::new([(); 4]);
        reduced.remove(2).unwrap();
        for tenant in 0..2048u32 {
            let before = full.shard_of(tenant);
            let after = reduced.shard_of(tenant);
            if before != 2 {
                assert_eq!(before, after, "tenant {tenant} moved off a surviving shard");
            } else {
                assert_ne!(after, 2);
            }
        }
    }

    #[test]
    fn adding_a_shard_only_steals_for_itself() {
        let mut set = ReplicaSet::new([(); 3]);
        let before: Vec<u32> = (0..2048).map(|t| set.shard_of(t)).collect();
        assert_eq!(set.push(()), 3);
        for (tenant, &old) in before.iter().enumerate() {
            let new = set.shard_of(tenant as u32);
            assert!(
                new == old || new == 3,
                "tenant {tenant} moved between pre-existing shards ({old} -> {new})"
            );
        }
    }

    #[test]
    fn mutation_errors_are_typed() {
        let mut set = ReplicaSet::new([()]);
        assert_eq!(set.insert(0, ()), Err(Refusal::Duplicate(0)));
        assert_eq!(set.remove(9).err(), Some(Refusal::Unknown(9)));
        assert_eq!(set.remove(0).err(), Some(Refusal::Last(0)));
        assert_eq!(set.drain(0), Err(Refusal::Last(0)));
        assert_eq!(set.push(()), 1);
        set.pin(42, 0).unwrap();
        // A leaving member keeps its id, takes no pins and cannot leave twice.
        assert_eq!(set.drain(0), Ok(1), "the pin on 0 is dropped");
        assert_eq!(set.insert(0, ()), Err(Refusal::Duplicate(0)));
        assert_eq!(set.pin(42, 0), Err(Refusal::Unknown(0)));
        assert_eq!(set.remove(0).err(), Some(Refusal::Unknown(0)));
        assert_eq!(set.ids(), &[1]);
        assert_eq!(set.retire(|_| true), vec![0]);
        assert_eq!(set.iter().count(), 1);
        assert_eq!(set.push(()), 2, "ids are never reused");
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_router_rejected() {
        let _ = ReplicaSet::<()>::new([]);
    }
}
