//! Whole-system snapshot, deterministic resume and live-update scenarios.
//!
//! A [`SystemSnapshot`] captures every bit of mutable state a running
//! [`ConfidentialSystem`] holds — fabric transit queues and fault-injector
//! position, xPU registers/memory/MMU/DMA/command state, driver cursors,
//! TVM guest memory, SC security state (filter tables, control-sequence
//! windows, quarantine, stream-key positions) and the Adaptor's go-back-N
//! window — plus the sim clock and telemetry digest. Resuming from a
//! snapshot yields a system whose subsequent execution replays the
//! *identical* telemetry trace digest as the uninterrupted run from the
//! same seed.
//!
//! # Quiesce points
//!
//! Snapshots are taken between top-level requests (pump-round
//! boundaries). TLPs the fabric is still holding — delayed completions,
//! fault-injector re-sends, host-inbox entries — ARE captured (the fabric
//! serializes its transit queues), so "between requests" does not mean
//! "fully drained": a mid-transfer system whose in-flight TLPs are parked
//! in fabric queues snapshots and resumes exactly.
//!
//! # What is not captured
//!
//! * **Key material.** Snapshots never contain keys, master secrets, or
//!   derived cipher state. They carry key-schedule *positions* (stream
//!   id, generation, IV cursor); the resuming side re-derives every key
//!   from its own copy of the master. That master is not negotiated per
//!   resume: every system uses the same constant one, which the process
//!   computes once (`ConfidentialSystem::attested_master`, ROADMAP item
//!   17).
//! * **Topology and identity.** Device specs, BDF assignments, BAR
//!   layouts and register maps are pure functions of the build
//!   parameters; [`ConfidentialSystem::resume`] rebuilds them and lays
//!   the snapshotted state on top. The xPU spec is recorded *by name*
//!   and must be one of [`XpuSpec::evaluation_set`].
//! * **The telemetry event ring.** Event kinds are `&'static str`; the
//!   restored hub starts with an empty ring but continues the trace
//!   digest, sim clock and every counter bit-exactly.
//!
//! # What is captured in clear
//!
//! Everything else, tenant data included. The xPU's device memory is
//! captured as is, so an image taken mid-task holds the tenant's weights,
//! prompt and result in clear (ROADMAP item 20). A snapshot file keeps
//! the keys confidential, not the data.

use crate::sc::PcieSc;
use crate::system::{ConfidentialSystem, SystemMode, WorkloadError};
use ccai_sim::snapshot::{Decoder, Encoder};
use ccai_sim::{Severity, SnapshotError};
use ccai_xpu::XpuSpec;

/// A serialized whole-system snapshot (versioned, self-contained bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemSnapshot {
    bytes: Vec<u8>,
}

impl SystemSnapshot {
    /// The raw snapshot bytes (magic ‖ version ‖ payload).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wraps bytes previously obtained from [`SystemSnapshot::as_bytes`].
    /// Validation happens at [`ConfidentialSystem::resume`] time.
    pub fn from_bytes(bytes: Vec<u8>) -> SystemSnapshot {
        SystemSnapshot { bytes }
    }
}

ccai_sim::snapshot_state!(enum SystemMode: "system mode code" {
    Vanilla = 0,
    CcAi = 1,
    CcAiUnoptimized = 2,
});

fn spec_by_name(name: &str) -> Result<XpuSpec, SnapshotError> {
    XpuSpec::evaluation_by_name(name).ok_or(SnapshotError::Invalid("unknown xPU spec name"))
}

impl ConfidentialSystem {
    /// Captures the full mutable state of the platform.
    ///
    /// Take snapshots at pump-round boundaries (between driver-level
    /// requests); in-flight TLPs parked in fabric queues are included.
    pub fn snapshot(&self) -> SystemSnapshot {
        let mut enc = Encoder::versioned();
        self.with_xpu(|xpu| enc.str(xpu.spec().name()));
        enc.put(&self.mode());
        self.telemetry().encode_snapshot(&mut enc);
        self.fabric().encode_snapshot(&mut enc);
        self.with_xpu(|xpu| xpu.encode_snapshot(&mut enc));
        self.driver().encode_snapshot(&mut enc);
        self.memory().encode_snapshot(&mut enc);
        enc.put(&self.stager_cursor());
        enc.put(&self.policy_installed());
        enc.put(&self.sc().is_some());
        if let Some(sc) = self.sc() {
            sc.encode_snapshot(&mut enc);
        }
        let adaptor = self.adaptor_handle();
        enc.put(&adaptor.is_some());
        if let Some(adaptor) = adaptor {
            adaptor.encode_snapshot(&mut enc);
        }
        SystemSnapshot { bytes: enc.finish() }
    }

    /// Rebuilds a platform from a snapshot.
    ///
    /// The topology is reconstructed by [`ConfidentialSystem::build`],
    /// which runs no key agreement (the master is the process's constant
    /// one); the snapshotted state is then restored layer by layer. The
    /// resumed system continues the telemetry trace digest, sim clock and
    /// every protocol window exactly where the snapshot left off.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: truncated or corrupt bytes, a version or
    /// magic mismatch, an unknown xPU spec name, or state inconsistent
    /// with the rebuilt topology (e.g. an SC present in a vanilla-mode
    /// snapshot). The error is typed — malformed input never panics.
    pub fn resume(snapshot: &SystemSnapshot) -> Result<ConfidentialSystem, SnapshotError> {
        let mut dec = Decoder::versioned(snapshot.as_bytes())?;
        let spec = spec_by_name(&dec.str()?)?;
        let mode: SystemMode = dec.get()?;
        let mut system = ConfidentialSystem::build(spec, mode);
        system.telemetry().restore_snapshot(&mut dec)?;
        system.fabric_mut().restore_snapshot(&mut dec)?;
        system.with_xpu_mut(|xpu| xpu.restore_snapshot(&mut dec))?;
        system.driver_mut().restore_snapshot(&mut dec)?;
        system.memory_mut().restore_snapshot(&mut dec)?;
        let cursor = dec.get()?;
        system.set_stager_cursor(cursor);
        let policy_installed = dec.get()?;
        system.set_policy_installed(policy_installed);
        if dec.get::<bool>()? != mode.protected() {
            return Err(SnapshotError::Invalid("SC presence contradicts mode"));
        }
        if let Some(sc) = system.sc_mut() {
            sc.restore_snapshot(&mut dec)?;
        }
        if dec.get::<bool>()? != mode.protected() {
            return Err(SnapshotError::Invalid("Adaptor presence contradicts mode"));
        }
        if let Some(adaptor) = system.adaptor_handle() {
            adaptor.restore_snapshot(&mut dec)?;
        }
        dec.finish()?;
        Ok(system)
    }

    /// Power-cycles the SC/device: tears the controller off the fabric
    /// and replaces it with a factory-fresh one that carries over *only*
    /// the power-cycle-persistent security state — per-tenant quarantine
    /// standing and the `ctrl_last_seq`/`mmio_last_seq` anti-replay
    /// floors plus the task epoch (see [`PcieSc::persistent_state`]).
    /// Everything volatile — key-schedule positions, tag queues, staged
    /// policy, filter tables, outstanding reads, counters, alerts — is
    /// gone, exactly as on real hardware.
    ///
    /// The fresh controller comes up with its bring-up gate **de-armed**:
    /// until [`ConfidentialSystem::complete_bringup`] walks the trust
    /// chain again, every data TLP is A1-denied (only the control window
    /// answers). The persisted sequence floors guarantee that control
    /// envelopes captured before the cycle stay un-replayable after it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] if the system is unprotected (no SC to cycle)
    /// or the persistent state does not fit the rebuilt controller.
    pub fn reset(&mut self) -> Result<(), SnapshotError> {
        self.replace_sc(|old, fresh| {
            fresh.restore_persistent(old.persistent_state())?;
            fresh.set_serving(false);
            Ok(())
        })?;
        // The policy died with the old controller; the next bring-up (or
        // workload) must reinstall it through the control window.
        self.set_policy_installed(false);
        self.telemetry().record(
            Severity::Warn,
            "trust.bringup.power_cycle",
            None,
            None,
            "SC reset: volatile state cleared, gate de-armed".to_string(),
        );
        Ok(())
    }

    /// The one replace step behind a power cycle and a firmware swap:
    /// builds a factory-fresh SC from the running one's config and tenant
    /// bindings, lets `restore` carry state from the running SC into it,
    /// and only then swaps it onto the xPU port. In-flight TLPs live in
    /// fabric queues, not inside the interposer, so nothing is lost at
    /// the swap — and a failed restore leaves the running SC in place.
    fn replace_sc(
        &mut self,
        restore: impl FnOnce(&PcieSc, &mut PcieSc) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let old = self.sc().ok_or(SnapshotError::Invalid("no SC interposed (vanilla mode)"))?;
        let mut fresh = PcieSc::new(
            old.config().clone(),
            ConfidentialSystem::attested_master(),
            self.telemetry().clone(),
        );
        // Tenant 0 is the config's own binding, made by `PcieSc::new`.
        for (tvm_bdf, xpu_bdf, master) in old.tenant_bindings().into_iter().skip(1) {
            fresh.add_tenant(tvm_bdf, xpu_bdf, master);
        }
        restore(old, &mut fresh)?;
        let port = self.xpu_port();
        self.fabric_mut().remove_interposer(port);
        self.fabric_mut().interpose(port, Box::new(fresh));
        Ok(())
    }
}

/// Scenario (a): live SC "firmware swap".
///
/// Snapshots the running SC's security state into a *fresh* SC —
/// constructed, as a new firmware image would be, from the same attested
/// master and bound to the same tenants — and swaps it onto the port.
/// Traffic resumes against the new controller with filter tables,
/// tenant windows, quarantine flags and key-schedule positions intact.
///
/// # Errors
///
/// [`SnapshotError`] if the system is unprotected (no SC to swap) or the
/// snapshot does not fit the rebuilt controller; the running SC stays on
/// the port then.
#[doc(hidden)]
pub fn firmware_swap_sc(system: &mut ConfidentialSystem) -> Result<(), SnapshotError> {
    system.replace_sc(|old, fresh| {
        let mut enc = Encoder::versioned();
        old.encode_snapshot(&mut enc);
        let state = enc.finish();
        let mut dec = Decoder::versioned(&state)?;
        fresh.restore_snapshot(&mut dec)?;
        dec.finish()
    })
}

/// Scenario (b): mid-transfer snapshot.
///
/// Drives the model-load half of a workload — leaving the task
/// mid-flight: streams registered, IV cursors advanced, staging cursor
/// non-zero, tag queues drained mid-task — then snapshots at the
/// pump-round boundary. The caller resumes the snapshot and finishes the
/// workload with [`ConfidentialSystem::run_inference`] on both the
/// original and the resumed system to prove they are indistinguishable.
///
/// # Errors
///
/// [`WorkloadError`] if the model load itself fails.
pub fn snapshot_mid_task(
    system: &mut ConfidentialSystem,
    weights: &[u8],
) -> Result<SystemSnapshot, WorkloadError> {
    system.load_model(weights)?;
    Ok(system.snapshot())
}

/// Scenario (c): cold fleet spin-up from one template.
///
/// Builds `n` independent systems, each resumed from the same template
/// snapshot — the "golden image" pattern: boot one system, warm it up
/// (policy installed, model loaded), snapshot it once, then stamp out
/// replicas without re-paying the warm-up.
///
/// # Errors
///
/// Any [`SnapshotError`] the template fails to resume with (the first
/// failure aborts the fleet).
pub fn spin_up_fleet(
    template: &SystemSnapshot,
    n: usize,
) -> Result<Vec<ConfidentialSystem>, SnapshotError> {
    (0..n).map(|_| ConfidentialSystem::resume(template)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_xpu::CommandProcessor;

    #[test]
    fn snapshot_round_trips_before_any_traffic() {
        let system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
        let snap = system.snapshot();
        let resumed = ConfidentialSystem::resume(&snap).unwrap();
        assert_eq!(resumed.snapshot(), snap, "re-snapshot is bit-identical");
    }

    #[test]
    fn every_evaluation_device_resumes_by_name_and_no_other_does() {
        for spec in XpuSpec::evaluation_set() {
            let name = spec.name().to_owned();
            let snap = ConfidentialSystem::build(spec, SystemMode::CcAi).snapshot();
            let resumed = ConfidentialSystem::resume(&snap).unwrap();
            resumed.with_xpu(|xpu| assert_eq!(xpu.spec().name(), name));
            assert_eq!(resumed.snapshot(), snap, "{name}");
        }
        // The name is the first field after the header; rename the device.
        let mut bytes = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi)
            .snapshot()
            .as_bytes()
            .to_vec();
        let at = bytes.windows(11).position(|w| w == b"NVIDIA A100").expect("name encoded");
        bytes[at + 10] = b'9';
        assert_eq!(
            ConfidentialSystem::resume(&SystemSnapshot::from_bytes(bytes)).err(),
            Some(SnapshotError::Invalid("unknown xPU spec name"))
        );
    }

    #[test]
    fn resumed_system_finishes_the_workload() {
        let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
        let weights = vec![0x42u8; 40_000];
        let input = vec![0x17u8; 6_000];
        let snap = snapshot_mid_task(&mut system, &weights).unwrap();
        let expected = system.run_inference(&input).unwrap();
        let mut resumed = ConfidentialSystem::resume(&snap).unwrap();
        let got = resumed.run_inference(&input).unwrap();
        assert_eq!(got, expected);
        assert_eq!(got, CommandProcessor::surrogate_inference(&weights, &input));
    }

    #[test]
    fn resume_and_original_stay_digest_identical() {
        let mut system = ConfidentialSystem::build(XpuSpec::t4(), SystemMode::CcAi);
        let snap = snapshot_mid_task(&mut system, b"weights").unwrap();
        let input = b"prompt";
        system.run_inference(input).unwrap();
        let mut resumed = ConfidentialSystem::resume(&snap).unwrap();
        resumed.run_inference(input).unwrap();
        assert_eq!(
            system.telemetry_snapshot().digest,
            resumed.telemetry_snapshot().digest,
            "resumed run must replay the identical telemetry trace"
        );
    }

    #[test]
    fn firmware_swap_preserves_behaviour() {
        let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
        system.run_workload(b"weights-v1", b"prompt-1").unwrap();
        let stats_before = system.sc().unwrap().filter_stats();
        firmware_swap_sc(&mut system).unwrap();
        assert_eq!(
            system.sc().unwrap().filter_stats(),
            stats_before,
            "swap carries filter statistics over"
        );
        // Live traffic keeps flowing through the swapped-in controller.
        let result = system.run_workload(b"weights-v2", b"prompt-2").unwrap();
        assert_eq!(
            result,
            CommandProcessor::surrogate_inference(b"weights-v2", b"prompt-2")
        );
    }

    #[test]
    fn firmware_swap_requires_protection() {
        let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::Vanilla);
        assert!(firmware_swap_sc(&mut system).is_err());
    }

    #[test]
    fn fleet_spins_up_identical_replicas() {
        let mut template_system =
            ConfidentialSystem::build(XpuSpec::rtx4090ti(), SystemMode::CcAi);
        let template = snapshot_mid_task(&mut template_system, b"golden-weights").unwrap();
        let fleet = spin_up_fleet(&template, 3).unwrap();
        let mut outputs = Vec::new();
        for mut replica in fleet {
            outputs.push(replica.run_inference(b"query").unwrap());
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
        assert_eq!(
            outputs[0],
            CommandProcessor::surrogate_inference(b"golden-weights", b"query")
        );
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
        let snap = system.snapshot();
        // Truncation at every prefix must error, never panic.
        for cut in [0, 1, 7, 11, 12, 13, snap.as_bytes().len() - 1] {
            let truncated = SystemSnapshot::from_bytes(snap.as_bytes()[..cut].to_vec());
            assert!(ConfidentialSystem::resume(&truncated).is_err(), "cut={cut}");
        }
        let mut flipped = snap.as_bytes().to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        // A flipped byte either fails decode or changes a value; it must
        // never panic. (Some flips in bulk memory still decode — that is
        // fine; the digest comparison downstream catches them.)
        let _ = ConfidentialSystem::resume(&SystemSnapshot::from_bytes(flipped));
    }

    #[test]
    fn vanilla_systems_snapshot_too() {
        let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::Vanilla);
        let snap = snapshot_mid_task(&mut system, b"w").unwrap();
        let mut resumed = ConfidentialSystem::resume(&snap).unwrap();
        assert_eq!(
            resumed.run_inference(b"i").unwrap(),
            system.run_inference(b"i").unwrap()
        );
    }
}
