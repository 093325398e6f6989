//! Fleet serving from a golden snapshot — the scale-out face of the
//! snapshot subsystem.
//!
//! A production LLM service does not cold-boot a confidential platform
//! per request: it warms **one** system (attestation, policy install,
//! weights upload), snapshots the warmed state, and stamps replicas out
//! of that template whenever load demands it. Each replica resumes with
//! the model already resident and the key schedules already positioned,
//! so scale-out pays only the snapshot-decode cost instead of the full
//! confidential session setup.
//!
//! [`ShardedFleet`] packages that pattern over
//! [`ccai_core::snapshot`]: [`ShardedFleet::deploy`] warms and templates,
//! [`ShardedFleet::serve`] runs a tenant's prompt on its home replica, and
//! [`ShardedFleet::scale_out`] adds replicas later from the same template.

use ccai_core::snapshot::{snapshot_mid_task, spin_up_fleet, SystemSnapshot};
use ccai_core::system::{ConfidentialSystem, SystemMode, WorkloadError};
use ccai_pcie::UnplugReport;
use ccai_sim::SnapshotError;
use ccai_xpu::XpuSpec;
use std::fmt;

use crate::shard::{Refusal, ReplicaSet};

/// Why a fleet could not be deployed or grown.
#[derive(Debug)]
pub enum FleetError {
    /// Warming the template system failed (policy or driver failure).
    Warmup(WorkloadError),
    /// A replica failed to resume from the template snapshot.
    Resume(SnapshotError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Warmup(e) => write!(f, "fleet warm-up failed: {e}"),
            FleetError::Resume(e) => write!(f, "replica resume failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<WorkloadError> for FleetError {
    fn from(e: WorkloadError) -> Self {
        FleetError::Warmup(e)
    }
}

impl From<SnapshotError> for FleetError {
    fn from(e: SnapshotError) -> Self {
        FleetError::Resume(e)
    }
}

/// Why a sharded fleet refused to serve a request.
#[derive(Debug)]
pub enum ServeError {
    /// The tenant is quarantined on at least one shard's PCIe-SC; every
    /// shard honors the quarantine, so no shard will take its work.
    Quarantined(u32),
    /// The routed shard's workload failed.
    Workload(WorkloadError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Quarantined(t) => {
                write!(f, "tenant {t} is quarantined fleet-wide")
            }
            ServeError::Workload(e) => write!(f, "shard workload failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WorkloadError> for ServeError {
    fn from(e: WorkloadError) -> Self {
        ServeError::Workload(e)
    }
}

/// Why a fleet chaos or migration operation was refused.
#[derive(Debug)]
pub enum ChaosError {
    /// The named replica id is not live in the fleet.
    UnknownReplica(u32),
    /// Removing the named replica would leave the fleet empty.
    LastReplica(u32),
    /// A hot-plug named an id that is already live (ids are never
    /// reused, so this is a plan bug, not a race).
    DuplicateReplica(u32),
    /// A replacement blade failed to resume from the golden template.
    Resume(SnapshotError),
    /// The replacement blade's attested bring-up chain was refused; the
    /// blade stays out of the routing table.
    BringUp(WorkloadError),
    /// Exporting the tenant slice from the source replica or importing
    /// it into the target failed; the tenant keeps its old home.
    Migrate(SnapshotError),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::UnknownReplica(id) => write!(f, "replica {id} is not live"),
            ChaosError::LastReplica(id) => {
                write!(f, "removing replica {id} would empty the fleet")
            }
            ChaosError::DuplicateReplica(id) => {
                write!(f, "replica id {id} is already live")
            }
            ChaosError::Resume(e) => write!(f, "replacement resume failed: {e}"),
            ChaosError::BringUp(e) => write!(f, "replacement bring-up refused: {e}"),
            ChaosError::Migrate(e) => write!(f, "tenant migration failed: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<Refusal> for ChaosError {
    fn from(r: Refusal) -> Self {
        match r {
            Refusal::Unknown(id) => ChaosError::UnknownReplica(id),
            Refusal::Last(id) => ChaosError::LastReplica(id),
            Refusal::Duplicate(id) => ChaosError::DuplicateReplica(id),
        }
    }
}

/// Receipt of a completed live tenant migration: the tenant's sealed
/// slice moved from `from` to `to` and the target rotated every stream
/// key by advancing the task epoch, so ciphertext captured on the source
/// before the move can never open on the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The migrated tenant tag.
    pub tenant: u32,
    /// Source replica id.
    pub from: u32,
    /// Destination replica id.
    pub to: u32,
    /// Task epoch of the source at export time.
    pub source_epoch: u32,
    /// Task epoch the target rekeyed to (always past the source's).
    pub target_epoch: u32,
}

/// A fleet of golden-image replicas behind sharded PCIe-SC instances,
/// with rendezvous-hashed tenant→shard affinity and fleet-wide
/// quarantine honoring.
///
/// Each tenant gets a stable home shard (so its SC state — bindings,
/// counters, quarantine — stays in one place), and a quarantined tenant
/// is refused on **every** shard, not just the one that tripped
/// containment.
///
/// Replicas carry **stable ids**: an id survives removals of other
/// replicas and is never reused for a replacement, so chaos plans can
/// name targets deterministically across a whole run.
pub struct ShardedFleet {
    template: SystemSnapshot,
    shards: ReplicaSet<ConfidentialSystem>,
}

impl ShardedFleet {
    /// Warms one system on `spec` under `mode` (policy install, driver
    /// init, weights DMA), snapshots it as the golden template, and
    /// resumes `shards` independent replicas from it, each fronting its
    /// own PCIe-SC shard (ids `0..shards`).
    ///
    /// # Errors
    ///
    /// [`FleetError::Warmup`] if the template system fails to load the
    /// model; [`FleetError::Resume`] if a replica rejects the template.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn deploy(
        spec: XpuSpec,
        mode: SystemMode,
        weights: &[u8],
        shards: usize,
    ) -> Result<ShardedFleet, FleetError> {
        assert!(shards > 0, "sharded fleet needs at least one shard");
        let mut warm = ConfidentialSystem::build(spec, mode);
        let template = snapshot_mid_task(&mut warm, weights)?;
        let shards = ReplicaSet::new(spin_up_fleet(&template, shards)?);
        Ok(ShardedFleet { template, shards })
    }

    /// The golden template every shard was resumed from.
    pub fn template(&self) -> &SystemSnapshot {
        &self.template
    }

    /// Stable ids of the live replicas, ascending.
    pub fn replica_ids(&self) -> Vec<u32> {
        self.shards.ids()
    }

    /// A tenant's home shard id: an active migration pin if one is
    /// installed, the HRW rendezvous home otherwise.
    pub fn shard_of(&self, tenant: u32) -> u32 {
        self.shards.shard_of(tenant)
    }

    /// The system behind one replica id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not live.
    pub fn shard_system(&self, shard: u32) -> &ConfidentialSystem {
        self.shards.get(shard).expect("replica id is live")
    }

    /// Mutable access to one replica's system (fault injection, direct
    /// workloads) — the security suite uses this to trip containment on
    /// a single shard.
    ///
    /// # Panics
    ///
    /// Panics if the id is not live.
    pub fn shard_system_mut(&mut self, shard: u32) -> &mut ConfidentialSystem {
        self.shards.get_mut(shard).expect("replica id is live")
    }

    /// Union of quarantined tenant tags across every shard's PCIe-SC,
    /// ascending and deduplicated.
    pub fn quarantined_tenants(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self
            .shards
            .iter()
            .flat_map(|(_, _, s)| s.sc_quarantined_tenants())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Serves one prompt for `tenant` on its home shard.
    ///
    /// The quarantine check runs against the **fleet-wide** union first:
    /// a tenant contained on any shard is refused everywhere, so
    /// containment cannot be dodged by re-hashing onto a different shard.
    ///
    /// # Errors
    ///
    /// [`ServeError::Quarantined`] if any shard has the tenant contained;
    /// [`ServeError::Workload`] if the home shard fails.
    pub fn serve(&mut self, tenant: u32, prompt: &[u8]) -> Result<Vec<u8>, ServeError> {
        if self.quarantined_tenants().contains(&tenant) {
            return Err(ServeError::Quarantined(tenant));
        }
        let home = self.shard_of(tenant);
        Ok(self.shard_system_mut(home).run_inference(prompt)?)
    }

    /// Adds `extra` shards resumed from the same template under fresh
    /// never-reused ids; only tenants that re-rendezvous onto the new
    /// shards move.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] if a new shard rejects the template.
    pub fn scale_out(&mut self, extra: usize) -> Result<(), SnapshotError> {
        for system in spin_up_fleet(&self.template, extra)? {
            self.shards.push(system);
        }
        Ok(())
    }

    // --- chaos operations -----------------------------------------------

    /// Hard-crashes a replica: it disappears between two instructions and
    /// its tenants re-home by HRW minimal remap.
    ///
    /// # Errors
    ///
    /// [`ChaosError::UnknownReplica`] / [`ChaosError::LastReplica`].
    pub fn crash_replica(&mut self, replica: u32) -> Result<(), ChaosError> {
        self.shards.remove(replica)?;
        Ok(())
    }

    /// Severs a replica's xPU link mid-flight and then removes it: the
    /// TLPs queued on the severed link become typed losses in the
    /// returned report (the serving layer's requeue is the retry that
    /// absorbs them).
    ///
    /// # Errors
    ///
    /// [`ChaosError::UnknownReplica`] / [`ChaosError::LastReplica`].
    pub fn hot_unplug_replica(&mut self, replica: u32) -> Result<UnplugReport, ChaosError> {
        let (mut system, _) = self.shards.remove(replica)?;
        Ok(system.hot_unplug_xpu().unwrap_or_default())
    }

    /// Admits a replacement blade under a fresh never-reused id. The
    /// blade resumes from the golden template, is power-cycled (volatile
    /// SC state cleared, bring-up gate de-armed, persisted anti-replay
    /// floors kept) and must then walk the full attested bring-up chain
    /// before it enters the routing table — a replacement that cannot
    /// re-attest never serves.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Resume`] if the template is rejected,
    /// [`ChaosError::BringUp`] if the trust chain refuses.
    pub fn admit_replacement(&mut self) -> Result<u32, ChaosError> {
        let mut system =
            ConfidentialSystem::resume(&self.template).map_err(ChaosError::Resume)?;
        system.reset().map_err(ChaosError::Resume)?;
        system.complete_bringup().map_err(ChaosError::BringUp)?;
        debug_assert!(system.sc_is_serving(), "bring-up chain armed the gate");
        Ok(self.shards.push(system))
    }

    /// Live-migrates `tenant` to replica `to` with rekey in flight: the
    /// source's sealed tenant slice (quarantine standing, anti-replay
    /// floors, task epoch — never keys) is exported in the `ccAIsnap`
    /// format and imported on the target, which re-derives its masters
    /// and **advances the task epoch**, rotating every stream key. Any
    /// ciphertext captured on the source before the move is sealed under
    /// the pre-migration epoch keys and can never open on the target.
    ///
    /// # Errors
    ///
    /// [`ChaosError::UnknownReplica`] if `to` is not live;
    /// [`ChaosError::Migrate`] if the slice export/import fails (the
    /// tenant keeps its old home).
    pub fn migrate_tenant(&mut self, tenant: u32, to: u32) -> Result<Migration, ChaosError> {
        self.shards.get(to).ok_or(ChaosError::UnknownReplica(to))?;
        let from = self.shard_of(tenant);
        if from == to {
            let epoch = self.shard_system(from).tenant_epoch().unwrap_or(0);
            return Ok(Migration { tenant, from, to, source_epoch: epoch, target_epoch: epoch });
        }
        let source = self.shard_system(from);
        let vanilla = || {
            let why = "source replica has no tenant slice (vanilla mode)";
            ChaosError::Migrate(SnapshotError::Invalid(why))
        };
        let source_epoch = source.tenant_epoch().ok_or_else(vanilla)?;
        let slice = source.export_tenant_slice().ok_or_else(vanilla)?;
        let target_epoch = self
            .shard_system_mut(to)
            .import_tenant_slice(&slice)
            .map_err(ChaosError::Migrate)?;
        self.shards.pin(tenant, to)?;
        Ok(Migration { tenant, from, to, source_epoch, target_epoch })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_xpu::CommandProcessor;

    impl ShardedFleet {
        /// Number of shards.
        fn len(&self) -> usize {
            self.shards.ids().len()
        }
    }

    const WEIGHTS: &[u8] = b"fleet model weights: one golden image";

    /// Serves `prompt` once on every live replica, through a tenant homed
    /// there.
    fn serve_on_every_replica(fleet: &mut ShardedFleet, prompt: &[u8]) -> Vec<Vec<u8>> {
        fleet
            .replica_ids()
            .into_iter()
            .map(|id| {
                let tenant = (0..u32::MAX).find(|&t| fleet.shard_of(t) == id).unwrap();
                fleet.serve(tenant, prompt).expect("fleet serves")
            })
            .collect()
    }

    #[test]
    fn fleet_serves_identical_outputs_on_every_replica() {
        let mut fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, WEIGHTS, 3)
            .expect("fleet deploys");
        assert_eq!(fleet.len(), 3);
        let outputs = serve_on_every_replica(&mut fleet, b"prompt-a");
        let expected = CommandProcessor::surrogate_inference(WEIGHTS, b"prompt-a");
        assert_eq!(outputs, vec![expected; 3], "replicas diverged");
    }

    #[test]
    fn scale_out_replicas_match_the_original_cohort() {
        let mut fleet =
            ShardedFleet::deploy(XpuSpec::rtx4090ti(), SystemMode::CcAi, WEIGHTS, 1)
                .expect("fleet deploys");
        fleet.scale_out(2).expect("scale-out resumes");
        assert_eq!(fleet.len(), 3);
        let outputs = serve_on_every_replica(&mut fleet, b"late prompt");
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn sharded_fleet_routes_tenants_to_stable_homes() {
        let mut fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, WEIGHTS, 4)
            .expect("sharded fleet deploys");
        assert_eq!(fleet.len(), 4);
        let expected = CommandProcessor::surrogate_inference(WEIGHTS, b"prompt");
        for tenant in [16u32, 17, 42, 1000] {
            let home = fleet.shard_of(tenant);
            assert!(home < 4);
            assert_eq!(home, fleet.shard_of(tenant), "home shard must be stable");
            let out = fleet.serve(tenant, b"prompt").expect("serves");
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn sharded_scale_out_keeps_surviving_homes() {
        let mut fleet = ShardedFleet::deploy(XpuSpec::t4(), SystemMode::CcAi, WEIGHTS, 2)
            .expect("sharded fleet deploys");
        let before: Vec<u32> = (0..64).map(|t| fleet.shard_of(t)).collect();
        fleet.scale_out(2).expect("scale-out resumes");
        assert_eq!(fleet.len(), 4);
        for (tenant, &old) in before.iter().enumerate() {
            let new = fleet.shard_of(tenant as u32);
            assert!(
                new == old || new >= 2,
                "tenant {tenant} moved between pre-existing shards"
            );
        }
    }

    #[test]
    fn crashed_replica_rehomes_its_tenants_minimally() {
        let mut fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, WEIGHTS, 3)
            .expect("sharded fleet deploys");
        let before: Vec<u32> = (0..64).map(|t| fleet.shard_of(t)).collect();
        fleet.crash_replica(1).expect("crash succeeds");
        assert_eq!(fleet.replica_ids(), vec![0, 2], "ids are stable, not re-packed");
        for (tenant, &old) in before.iter().enumerate() {
            let new = fleet.shard_of(tenant as u32);
            if old != 1 {
                assert_eq!(new, old, "tenant {tenant} moved although its home survived");
            } else {
                assert_ne!(new, 1, "tenant {tenant} still routed to the dead replica");
            }
        }
        let expected = CommandProcessor::surrogate_inference(WEIGHTS, b"after crash");
        assert_eq!(fleet.serve(7, b"after crash").expect("survivors serve"), expected);
    }

    #[test]
    fn hot_unplugged_replica_leaves_and_its_tenants_rehome() {
        let mut fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, WEIGHTS, 3)
            .expect("sharded fleet deploys");
        serve_on_every_replica(&mut fleet, b"before unplug");
        let before: Vec<u32> = (0..64).map(|t| fleet.shard_of(t)).collect();
        let report = fleet.hot_unplug_replica(1).expect("unplug succeeds");
        assert_eq!(report.total(), 0, "a quiescent replica loses nothing on its link");
        assert_eq!(fleet.replica_ids(), vec![0, 2], "ids are stable, not re-packed");
        for (tenant, &old) in before.iter().enumerate() {
            let new = fleet.shard_of(tenant as u32);
            if old != 1 {
                assert_eq!(new, old, "tenant {tenant} moved although its home survived");
            } else {
                assert_ne!(new, 1, "tenant {tenant} still routed to the unplugged replica");
            }
        }
        let expected = CommandProcessor::surrogate_inference(WEIGHTS, b"after unplug");
        assert_eq!(serve_on_every_replica(&mut fleet, b"after unplug"), vec![expected; 2]);
        assert!(matches!(fleet.hot_unplug_replica(1), Err(ChaosError::UnknownReplica(1))));
        fleet.hot_unplug_replica(0).expect("unplug succeeds");
        assert!(matches!(fleet.hot_unplug_replica(2), Err(ChaosError::LastReplica(2))));
        assert_eq!(fleet.replica_ids(), vec![2]);
    }

    #[test]
    fn last_replica_cannot_be_removed() {
        let mut fleet = ShardedFleet::deploy(XpuSpec::t4(), SystemMode::CcAi, WEIGHTS, 1)
            .expect("sharded fleet deploys");
        assert!(matches!(fleet.crash_replica(0), Err(ChaosError::LastReplica(0))));
        assert!(matches!(fleet.crash_replica(9), Err(ChaosError::UnknownReplica(9))));
        assert_eq!(fleet.replica_ids(), vec![0]);
    }

    #[test]
    fn replacement_blade_reattests_under_a_fresh_id() {
        let mut fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, WEIGHTS, 2)
            .expect("sharded fleet deploys");
        fleet.crash_replica(0).expect("crash succeeds");
        let id = fleet.admit_replacement().expect("replacement admits");
        assert_eq!(id, 2, "replacement gets a fresh id, never the dead one");
        assert_eq!(fleet.replica_ids(), vec![1, 2]);
        assert!(fleet.shard_system(id).sc_is_serving(), "gate armed after bring-up");
        // A tenant homed on the replacement is served by it.
        let tenant = (0..u32::MAX).find(|&t| fleet.shard_of(t) == id).unwrap();
        let expected = CommandProcessor::surrogate_inference(WEIGHTS, b"on replacement");
        assert_eq!(fleet.serve(tenant, b"on replacement").expect("serves"), expected);
    }

    #[test]
    fn replacement_that_skips_bringup_refuses_service() {
        let fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, WEIGHTS, 1)
            .expect("sharded fleet deploys");
        let mut blade =
            ConfidentialSystem::resume(fleet.template()).expect("template resumes");
        blade.reset().expect("power-cycle succeeds");
        // Gate de-armed, bring-up chain not walked: data traffic refused.
        assert!(!blade.sc_is_serving());
        assert!(blade.run_inference(b"smuggled").is_err(), "un-attested blade served");
        blade.complete_bringup().expect("bring-up chain completes");
        assert!(blade.run_inference(b"legit").is_ok(), "attested blade must serve");
    }

    #[test]
    fn migration_rekeys_and_rehomes_the_tenant() {
        let mut fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, WEIGHTS, 3)
            .expect("sharded fleet deploys");
        let tenant = 42u32;
        let from = fleet.shard_of(tenant);
        let to = fleet.replica_ids().into_iter().find(|&id| id != from).unwrap();
        let m = fleet.migrate_tenant(tenant, to).expect("migration succeeds");
        assert_eq!((m.from, m.to), (from, to));
        assert!(
            m.target_epoch > m.source_epoch,
            "migration must advance the epoch ({} -> {})",
            m.source_epoch,
            m.target_epoch
        );
        assert_eq!(fleet.shard_of(tenant), to, "override re-homes the tenant");
        assert_eq!(fleet.shard_system(to).tenant_epoch(), Some(m.target_epoch));
        let expected = CommandProcessor::surrogate_inference(WEIGHTS, b"post-migration");
        assert_eq!(fleet.serve(tenant, b"post-migration").expect("serves"), expected);
        // The override dies with its target.
        fleet.migrate_tenant(tenant, 99).expect_err("dead target refused");
        fleet.crash_replica(to).expect("crash succeeds");
        assert_ne!(fleet.shard_of(tenant), to, "override dropped with dead target");
    }

    #[test]
    fn migration_onto_a_replacement_blade_serves() {
        // The hard composition: the target went through reset +
        // re-attestation, so its Adaptor's control counters sit *above*
        // the floor the source exports — the import must make the Adaptor
        // adopt the imported floors exactly or every post-migration
        // control write dies as a gap in the SC's strict in-order window.
        let mut fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, WEIGHTS, 3)
            .expect("deploys");
        let tenant = 19u32;
        fleet.serve(tenant, b"pre").expect("pre-crash serve");
        fleet.crash_replica(1).expect("crash");
        let fresh = fleet.admit_replacement().expect("replacement");
        fleet.migrate_tenant(tenant, fresh).expect("migrate");
        assert_eq!(fleet.shard_of(tenant), fresh);
        let expected = CommandProcessor::surrogate_inference(WEIGHTS, b"post");
        assert_eq!(
            fleet.serve(tenant, b"post").expect("post-migration serve"),
            expected
        );
    }

    #[test]
    fn vanilla_fleet_deploys_without_protection() {
        let mut fleet = ShardedFleet::deploy(XpuSpec::t4(), SystemMode::Vanilla, WEIGHTS, 2)
            .expect("vanilla fleet deploys");
        let out = fleet.serve(7, b"plain prompt").expect("serves");
        assert_eq!(
            out,
            CommandProcessor::surrogate_inference(WEIGHTS, b"plain prompt")
        );
    }
}
