//! The privileged-software adversary (§2.2, §8.2 "Attacks from host/TVM").
//!
//! The attacker controls the host OS, the hypervisor and peripheral
//! drivers. It tries to (1) read or tamper with TVM memory, and (2) reach
//! the protected xPU directly by issuing its own TLPs from host-side
//! requester IDs. The first is defeated by TVM hardware (modelled in
//! [`crate::GuestMemory`]); the second is what the PCIe-SC's L1 table
//! blocks.

use crate::guest_memory::GuestMemory;
use ccai_pcie::{Bdf, Fabric, Tlp};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Outcome of one attack attempt, for the security-analysis report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackOutcome {
    /// The access was blocked (no data, no effect).
    Blocked,
    /// Data was obtained — includes what leaked.
    Leaked(Vec<u8>),
    /// A state change landed.
    Tampered,
}

/// The host/hypervisor adversary.
#[derive(Debug, Clone)]
pub struct HostAdversary {
    bdf: Bdf,
    attempts: u64,
}

impl Default for HostAdversary {
    fn default() -> Self {
        Self::new()
    }
}

impl HostAdversary {
    /// Creates the adversary with the host's own requester ID (bus 0,
    /// device 1 — distinct from any TVM).
    pub fn new() -> Self {
        HostAdversary { bdf: Bdf::new(0, 1, 0), attempts: 0 }
    }

    /// Attempts to read TVM guest memory through the hypervisor mapping.
    pub fn read_tvm_memory(&mut self, memory: &GuestMemory, addr: u64, len: u64) -> AttackOutcome {
        self.attempts += 1;
        match memory.hypervisor_read(addr, len) {
            Some(data) => AttackOutcome::Leaked(data),
            None => AttackOutcome::Blocked,
        }
    }

    /// Attempts to read from a device BAR (e.g. the xPU's memory aperture)
    /// with the host's own requester ID.
    pub fn read_device(&mut self, fabric: &mut Fabric, addr: u64, len: u32) -> AttackOutcome {
        self.attempts += 1;
        let replies = fabric.host_request(Tlp::memory_read(self.bdf, addr, len, 0xE0));
        match replies.into_iter().find(|t| !t.payload().is_empty()) {
            Some(reply) => AttackOutcome::Leaked(reply.into_payload()),
            None => AttackOutcome::Blocked,
        }
    }

    /// Attempts to write to a device BAR with the host's requester ID,
    /// then verifies the write landed by reading back as the *authorized*
    /// `probe_as` requester.
    pub fn write_device(
        &mut self,
        fabric: &mut Fabric,
        addr: u64,
        payload: Vec<u8>,
        probe_as: Bdf,
    ) -> AttackOutcome {
        self.attempts += 1;
        let before = fabric.host_request(Tlp::memory_read(
            probe_as,
            addr,
            payload.len() as u32,
            0xE1,
        ));
        fabric.host_request(Tlp::memory_write(self.bdf, addr, payload.clone()));
        let after = fabric.host_request(Tlp::memory_read(
            probe_as,
            addr,
            payload.len() as u32,
            0xE2,
        ));
        let changed = match (before.first(), after.first()) {
            (Some(b), Some(a)) => b.payload() != a.payload(),
            _ => false,
        };
        if changed {
            AttackOutcome::Tampered
        } else {
            AttackOutcome::Blocked
        }
    }
}

impl fmt::Display for HostAdversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HostAdversary({}, attempts={})", self.bdf, self.attempts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_pcie::PortId;
    use ccai_xpu::{Xpu, XpuSpec};

    impl HostAdversary {
        /// Attack attempts made so far.
        fn attempts(&self) -> u64 {
            self.attempts
        }
    }

    #[test]
    fn tvm_private_memory_is_opaque() {
        let mut memory = GuestMemory::new(1 << 20);
        memory.write(0x1000, b"api keys");
        let mut adversary = HostAdversary::new();
        assert_eq!(adversary.read_tvm_memory(&memory, 0x1000, 8), AttackOutcome::Blocked);
        assert_eq!(adversary.attempts(), 1);
    }

    #[test]
    fn shared_pages_do_leak_to_the_host() {
        // This is the point of the Adaptor encrypting before staging:
        // anything in a bounce buffer IS host-visible.
        let mut memory = GuestMemory::new(1 << 20);
        memory.share_range(0x8000..0x9000);
        memory.write(0x8000, b"bounced");
        let mut adversary = HostAdversary::new();
        assert_eq!(
            adversary.read_tvm_memory(&memory, 0x8000, 7),
            AttackOutcome::Leaked(b"bounced".to_vec())
        );
    }

    #[test]
    fn unprotected_xpu_is_wide_open() {
        // Without a PCIe-SC, the host adversary reads and writes device
        // memory freely — the problem ccAI exists to solve.
        let hub = ccai_sim::Telemetry::default();
        let xpu = Xpu::new(XpuSpec::t4(), Bdf::new(0x17, 0, 0), 0x8000_0000, hub.clone());
        let bar1 = xpu.bar1_base();
        let window = xpu.address_window();
        let mut fabric = Fabric::new(hub);
        fabric.attach(PortId(0), Box::new(xpu));
        fabric.map_range(window, PortId(0));

        // A "tenant" puts a model on the device.
        let tenant = Bdf::new(0, 2, 0);
        fabric.host_request(Tlp::memory_write(tenant, bar1, b"secret model".to_vec()));

        let mut adversary = HostAdversary::new();
        match adversary.read_device(&mut fabric, bar1, 12) {
            AttackOutcome::Leaked(data) => assert_eq!(data, b"secret model"),
            other => panic!("expected leak on unprotected xPU, got {other:?}"),
        }
        match adversary.write_device(&mut fabric, bar1, vec![0; 12], tenant) {
            AttackOutcome::Tampered => {}
            other => panic!("expected tamper on unprotected xPU, got {other:?}"),
        }
    }
}
