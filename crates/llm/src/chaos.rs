//! Deterministic fleet-level chaos plans.
//!
//! A [`ChaosPlan`] is a time-sorted schedule of replica-scoped failure
//! and recovery events — hard crash, graceful drain, link hot-unplug,
//! hot-plug of a fresh blade, scheduled live migration — injected into a
//! running [`crate::FleetServer`] at its quiesce points. Plans are plain
//! data: the same plan applied to the same seeded run replays
//! bit-identically, which is what lets the chaos battery diff a chaotic
//! run against its chaos-free baseline and against its own replay.
//!
//! Plans can be written by hand (every test that pins a specific recovery
//! path does) or generated from a seed with [`ChaosPlan::seeded`], which
//! tracks a simulated live-set so the schedule stays plausible: it never
//! drains the last replica, hot-plugs under fresh never-reused ids, and
//! migrates tenants onto replicas that exist at that point in the plan.

use ccai_sim::snapshot::{Decoder, Encoder, SnapshotError, SnapshotState};
use ccai_sim::{SimDuration, SimRng, SimTime};

/// One replica-scoped chaos event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Hard crash: the replica disappears between two instructions. Its
    /// in-flight batch is requeued at the front of the affected tenants'
    /// queues and its routing entry is removed (HRW minimal remap).
    Crash {
        /// Replica id to kill.
        replica: u32,
    },
    /// Graceful drain: the replica stops accepting new batches, finishes
    /// the round it is serving, and retires.
    Drain {
        /// Replica id to drain.
        replica: u32,
    },
    /// Link hot-unplug mid-DMA: like a crash, but the loss is typed — the
    /// TLPs in flight on the severed link are accounted as losses that
    /// the requeue (the serving layer's retry) absorbs.
    HotUnplug {
        /// Replica id whose link is severed.
        replica: u32,
    },
    /// Hot-plug of a fresh blade under a new stable id. The blade pays a
    /// deterministic bring-up latency (modeling the attested bring-up
    /// chain) before its first batch.
    HotPlug {
        /// Stable id the new replica will carry.
        replica: u32,
    },
    /// Scheduled live migration: move one tenant's home to `to`. The
    /// tenant's token bucket, queue, and quarantine standing are global
    /// (tenant-keyed) state, so they move exactly-once by construction;
    /// the serving layer records the re-homing and the key rotation.
    Migrate {
        /// Tenant tag to migrate.
        tenant: u32,
        /// Destination replica id.
        to: u32,
    },
}

impl ChaosEvent {
    /// Stable lowercase class name, used in telemetry events and counters
    /// (`fleet.chaos.<name>` / `fleet.migrate.*`).
    pub fn class(&self) -> &'static str {
        match self {
            ChaosEvent::Crash { .. } => "crash",
            ChaosEvent::Drain { .. } => "drain",
            ChaosEvent::HotUnplug { .. } => "hot_unplug",
            ChaosEvent::HotPlug { .. } => "hot_plug",
            ChaosEvent::Migrate { .. } => "migrate",
        }
    }
}

/// A tag byte and two `u32` operands (the second zero unless the event
/// names two ids).
impl SnapshotState for ChaosEvent {
    fn encode_state(&self, enc: &mut Encoder) {
        let (tag, a, b) = match *self {
            ChaosEvent::Crash { replica } => (0u8, replica, 0),
            ChaosEvent::Drain { replica } => (1, replica, 0),
            ChaosEvent::HotUnplug { replica } => (2, replica, 0),
            ChaosEvent::HotPlug { replica } => (3, replica, 0),
            ChaosEvent::Migrate { tenant, to } => (4, tenant, to),
        };
        enc.put(&(tag, a, b));
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let (tag, a, b): (u8, u32, u32) = dec.get()?;
        Ok(match tag {
            0 => ChaosEvent::Crash { replica: a },
            1 => ChaosEvent::Drain { replica: a },
            2 => ChaosEvent::HotUnplug { replica: a },
            3 => ChaosEvent::HotPlug { replica: a },
            4 => ChaosEvent::Migrate { tenant: a, to: b },
            _ => return Err(SnapshotError::Invalid("unknown chaos event tag")),
        })
    }
}

/// A deterministic, time-sorted schedule of [`ChaosEvent`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    events: Vec<(SimTime, ChaosEvent)>,
}

impl ChaosPlan {
    /// Builds a plan from explicit `(fire-at, event)` pairs. Events are
    /// stably sorted by fire time, so two events at the same instant keep
    /// their authoring order.
    pub fn new(mut events: Vec<(SimTime, ChaosEvent)>) -> ChaosPlan {
        events.sort_by_key(|(at, _)| *at);
        ChaosPlan { events }
    }

    /// The schedule, earliest first.
    pub fn events(&self) -> &[(SimTime, ChaosEvent)] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a plausible plan from a seed: `count` events spread
    /// uniformly over `horizon`, drawn over the given starting `replicas`
    /// and `tenants`. The generator tracks a simulated live-set so it
    /// never removes the last live replica, only hot-plugs fresh
    /// never-reused ids, and only migrates onto replicas alive at that
    /// point in the schedule. Same seed, same inputs — same plan.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` or `tenants` is empty.
    pub fn seeded(
        seed: u64,
        replicas: &[u32],
        tenants: &[u32],
        horizon: SimDuration,
        count: usize,
    ) -> ChaosPlan {
        assert!(!replicas.is_empty(), "chaos plan needs at least one replica");
        assert!(!tenants.is_empty(), "chaos plan needs at least one tenant");
        let mut rng = SimRng::seed_from(seed ^ 0xC4A0_5EED);
        let mut alive = replicas.to_vec();
        alive.sort_unstable();
        let mut next_id = alive.last().copied().unwrap_or(0) + 1;
        let mut at: Vec<u64> = (0..count)
            .map(|_| rng.next_bounded(horizon.as_picos().max(1)))
            .collect();
        at.sort_unstable();
        let mut events = Vec::with_capacity(count);
        for at in at {
            let roll = rng.next_bounded(100);
            let event = if roll < 20 && alive.len() > 1 {
                let idx = rng.choose_index(alive.len());
                ChaosEvent::Crash { replica: alive.remove(idx) }
            } else if roll < 35 && alive.len() > 1 {
                let idx = rng.choose_index(alive.len());
                ChaosEvent::Drain { replica: alive.remove(idx) }
            } else if roll < 50 && alive.len() > 1 {
                let idx = rng.choose_index(alive.len());
                ChaosEvent::HotUnplug { replica: alive.remove(idx) }
            } else if roll < 75 {
                let replica = next_id;
                next_id += 1;
                alive.push(replica);
                ChaosEvent::HotPlug { replica }
            } else {
                let tenant = tenants[rng.choose_index(tenants.len())];
                let to = alive[rng.choose_index(alive.len())];
                ChaosEvent::Migrate { tenant, to }
            };
            events.push((SimTime::from_picos(at), event));
        }
        ChaosPlan { events }
    }
}

/// A restored plan must be time-sorted.
impl SnapshotState for ChaosPlan {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.put(&self.events);
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let events: Vec<(SimTime, ChaosEvent)> = dec.get()?;
        if events.windows(2).any(|w| w[1].0 < w[0].0) {
            return Err(SnapshotError::Invalid("chaos plan not time-sorted"));
        }
        Ok(ChaosPlan { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_fire_time_stably() {
        let plan = ChaosPlan::new(vec![
            (SimTime::from_picos(30_000_000), ChaosEvent::Crash { replica: 2 }),
            (SimTime::from_picos(10_000_000), ChaosEvent::HotPlug { replica: 9 }),
            (SimTime::from_picos(30_000_000), ChaosEvent::Drain { replica: 1 }),
        ]);
        let classes: Vec<&str> = plan.events().iter().map(|(_, e)| e.class()).collect();
        assert_eq!(classes, vec!["hot_plug", "crash", "drain"]);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_plausible() {
        let replicas = [0, 1, 2, 3];
        let tenants = [100, 101, 102];
        let horizon = SimDuration::from_millis(50);
        let a = ChaosPlan::seeded(42, &replicas, &tenants, horizon, 32);
        let b = ChaosPlan::seeded(42, &replicas, &tenants, horizon, 32);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, ChaosPlan::seeded(43, &replicas, &tenants, horizon, 32));
        assert_eq!(a.len(), 32);

        // Replay the live-set: removals only name live replicas, plugs
        // only fresh ids, and the set never empties.
        let mut alive: Vec<u32> = replicas.to_vec();
        let mut seen_ids: Vec<u32> = replicas.to_vec();
        for (_, event) in a.events() {
            match *event {
                ChaosEvent::Crash { replica }
                | ChaosEvent::Drain { replica }
                | ChaosEvent::HotUnplug { replica } => {
                    assert!(alive.contains(&replica), "removal of a dead replica");
                    alive.retain(|&r| r != replica);
                    assert!(!alive.is_empty(), "plan emptied the fleet");
                }
                ChaosEvent::HotPlug { replica } => {
                    assert!(!seen_ids.contains(&replica), "replica id reused");
                    seen_ids.push(replica);
                    alive.push(replica);
                }
                ChaosEvent::Migrate { tenant, to } => {
                    assert!(tenants.contains(&tenant));
                    assert!(alive.contains(&to), "migration onto a dead replica");
                }
            }
        }
    }

    #[test]
    fn plan_round_trips_through_snapshot() {
        let plan =
            ChaosPlan::seeded(7, &[0, 1, 2], &[100, 101], SimDuration::from_millis(10), 12);
        let mut enc = Encoder::new();
        enc.put(&plan);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let back: ChaosPlan = dec.get().unwrap();
        dec.finish().unwrap();
        assert_eq!(back, plan);
    }
}
