//! The command processor: the xPU's "compute" side.
//!
//! Real accelerators run opaque kernels; this model runs a *verifiable*
//! surrogate so end-to-end tests can prove the confidential data path is
//! lossless. The surrogate "inference" mixes input bytes with the loaded
//! model weights through iterated SHA-256, which has the two properties
//! the tests need:
//!
//! 1. it is deterministic — TVM-side code can predict the exact result
//!    and verify that encryption/decryption along the way was transparent;
//! 2. every byte of input and weights affects the output — any corruption
//!    introduced by a buggy handler or an undetected attack changes the
//!    result.
//!
//! A loaded model serves many requests, so the weights digest is
//! memoised by `DeviceMemory::weights_digest`: only a write that
//! overlaps the weights region (a DMA, a BAR1 store, a kernel output),
//! a cold-boot wipe or a restore makes the next inference rehash it. The
//! input is hashed on every request.

use crate::memory::DeviceMemory;
use ccai_crypto::{sha256, Digest, Sha256};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Commands accepted via the `CmdDoorbell` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Command {
    /// Declare `[addr, addr+len)` as the model weights.
    LoadModel {
        /// Device address of the weights.
        addr: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Run the surrogate inference over `[input, input+len)`, writing 32
    /// result bytes at `output`.
    RunInference {
        /// Device address of the input.
        input: u64,
        /// Input length in bytes.
        len: u64,
        /// Device address for the 32-byte result.
        output: u64,
    },
}

/// The values of the `CmdDoorbell` register: the driver writes them, the
/// device decodes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Rings nothing. The driver writes it before each command, so that
    /// reading the command's opcode back proves the command write landed.
    Clear = 0,
    /// [`Command::LoadModel`].
    LoadModel = 1,
    /// [`Command::RunInference`].
    RunInference = 2,
}

impl Opcode {
    /// Register encoding.
    pub fn to_code(self) -> u64 {
        self as u64
    }

    /// The opcode a register value encodes, if any.
    pub fn from_code(code: u64) -> Option<Opcode> {
        [Opcode::Clear, Opcode::LoadModel, Opcode::RunInference]
            .into_iter()
            .find(|op| op.to_code() == code)
    }
}

/// Command execution status, mirrored in the `CmdStatus` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CmdStatus {
    /// No command executed yet.
    #[default]
    Idle,
    /// Last command succeeded.
    Done,
    /// Last command failed (bad addresses, no model loaded, …).
    Error,
}

impl CmdStatus {
    /// Register encoding.
    pub fn to_code(self) -> u64 {
        match self {
            CmdStatus::Idle => 0,
            CmdStatus::Done => 1,
            CmdStatus::Error => 2,
        }
    }
}

/// The command processor state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandProcessor {
    model: Option<(u64, u64)>,
    status: CmdStatus,
    executed: u64,
}

impl CommandProcessor {
    /// Creates an idle processor.
    pub fn new() -> Self {
        CommandProcessor::default()
    }

    /// Executes one command against device memory.
    pub fn execute(&mut self, command: Command, memory: &mut DeviceMemory) -> CmdStatus {
        self.executed += 1;
        self.status = match command {
            Command::LoadModel { addr, len } => {
                if len == 0 || memory.check(addr, len).is_err() {
                    CmdStatus::Error
                } else {
                    self.model = Some((addr, len));
                    CmdStatus::Done
                }
            }
            Command::RunInference { input, len, output } => {
                match self.run_inference(input, len, output, memory) {
                    Ok(()) => CmdStatus::Done,
                    Err(()) => CmdStatus::Error,
                }
            }
        };
        self.status
    }

    fn run_inference(
        &self,
        input: u64,
        len: u64,
        output: u64,
        memory: &mut DeviceMemory,
    ) -> Result<(), ()> {
        let (model_addr, model_len) = self.model.ok_or(())?;
        let input_digest = memory.digest(input, len).map_err(|_| ())?;
        let weights_digest = memory.weights_digest(model_addr, model_len).map_err(|_| ())?;
        let result = Self::surrogate_from_digests(&weights_digest, &input_digest);
        memory.write(output, &result).map_err(|_| ())
    }

    /// The deterministic surrogate computation, also callable host-side
    /// for verification: `H(H(weights) ‖ H(input) ‖ "ccai-infer")`.
    pub fn surrogate_inference(weights: &[u8], input: &[u8]) -> [u8; 32] {
        Self::surrogate_from_digests(&sha256(weights), &sha256(input))
    }

    fn surrogate_from_digests(weights: &Digest, input: &Digest) -> [u8; 32] {
        let mut hasher = Sha256::new();
        hasher.update(weights.as_bytes());
        hasher.update(input.as_bytes());
        hasher.update(b"ccai-infer");
        *hasher.finalize().as_bytes()
    }

    /// Cold-boot reset.
    pub fn wipe(&mut self) {
        self.model = None;
        self.status = CmdStatus::Idle;
    }
}

impl fmt::Display for CommandProcessor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CommandProcessor(status={:?}, executed={})",
            self.status, self.executed
        )
    }
}

ccai_sim::snapshot_state!(enum CmdStatus: "command status code" { Idle = 0, Done = 1, Error = 2 });

ccai_sim::snapshot_state!(CommandProcessor { model, status, executed });

#[cfg(test)]
mod tests {
    use super::*;

    impl CommandProcessor {
        /// Last command status.
        fn status(&self) -> CmdStatus {
            self.status
        }

        /// The loaded model region, if any.
        fn model(&self) -> Option<(u64, u64)> {
            self.model
        }
    }

    #[test]
    fn inference_is_deterministic_and_verifiable() {
        let mut mem = DeviceMemory::new(1 << 20);
        mem.write(0x1000, b"weights").unwrap();
        mem.write(0x2000, b"the input").unwrap();

        let mut cp = CommandProcessor::new();
        assert_eq!(
            cp.execute(Command::LoadModel { addr: 0x1000, len: 7 }, &mut mem),
            CmdStatus::Done
        );
        assert_eq!(
            cp.execute(
                Command::RunInference { input: 0x2000, len: 9, output: 0x3000 },
                &mut mem
            ),
            CmdStatus::Done
        );
        let device_result = mem.read(0x3000, 32).unwrap();
        let host_predicted = CommandProcessor::surrogate_inference(b"weights", b"the input");
        assert_eq!(device_result, host_predicted);
    }

    #[test]
    fn inference_without_model_fails() {
        let mut mem = DeviceMemory::new(1024);
        let mut cp = CommandProcessor::new();
        assert_eq!(
            cp.execute(Command::RunInference { input: 0, len: 4, output: 64 }, &mut mem),
            CmdStatus::Error
        );
    }

    #[test]
    fn corrupted_weights_change_result() {
        let a = CommandProcessor::surrogate_inference(b"weights", b"input");
        let b = CommandProcessor::surrogate_inference(b"weightz", b"input");
        let c = CommandProcessor::surrogate_inference(b"weights", b"inpux");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bad_addresses_error() {
        let mut mem = DeviceMemory::new(1024);
        let mut cp = CommandProcessor::new();
        assert_eq!(
            cp.execute(Command::LoadModel { addr: 4096, len: 10 }, &mut mem),
            CmdStatus::Error
        );
        assert_eq!(
            cp.execute(Command::LoadModel { addr: 0, len: 0 }, &mut mem),
            CmdStatus::Error
        );
    }

    /// A model that starts inside device memory but runs past its end is
    /// refused at the load, not accepted and failed at every inference.
    #[test]
    fn load_model_checks_its_whole_range() {
        let mut mem = DeviceMemory::new(1024);
        let mut cp = CommandProcessor::new();
        assert_eq!(
            cp.execute(Command::LoadModel { addr: 1000, len: 100 }, &mut mem),
            CmdStatus::Error
        );
        assert_eq!(cp.model(), None);
        assert_eq!(
            cp.execute(Command::LoadModel { addr: 1000, len: 24 }, &mut mem),
            CmdStatus::Done,
            "a model ending at the last byte fits"
        );
    }

    #[test]
    fn wipe_clears_model() {
        let mut mem = DeviceMemory::new(1024);
        let mut cp = CommandProcessor::new();
        cp.execute(Command::LoadModel { addr: 0, len: 8 }, &mut mem);
        assert!(cp.model().is_some());
        cp.wipe();
        assert!(cp.model().is_none());
        assert_eq!(cp.status(), CmdStatus::Idle);
    }
}
