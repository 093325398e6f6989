//! Replays of single layers on the workload's own inputs, outside any
//! system: what the request's crypto and its xPU kernel cost alone.
//!
//! These are floors to read the ledger against. `xpu.compute_replay_us`
//! is not a ccAI cost at all: no datapath change can move it.

use crate::epoch::{EpochInputs, EpochSpec};
use crate::sheet::Kind;
use ccai_core::handler::CHUNK_SIZE;
use ccai_crypto::{AesGcm, Key};
use ccai_xpu::CommandProcessor;
use std::hint::black_box;
use std::time::Instant;

/// Per-request means over the timed requests of one epoch.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    pub seal_us: f64,
    pub open_us: f64,
    pub seal_mib_s: f64,
    pub open_mib_s: f64,
    /// One `AesGcm::new` (key schedule plus GHASH table).
    pub key_setup_us: f64,
    /// `CommandProcessor::surrogate_inference` on the request's bytes; 0
    /// for a workload that runs no kernel.
    pub compute_us: f64,
}

const KEY_SETUPS: usize = 64;

/// Seals and opens the bytes one epoch moves — every payload host to
/// device, every result (or swapped block) device to host — in the
/// program's 4 KiB chunks through `ccai_crypto::AesGcm`, and runs the
/// surrogate kernel on the same payloads.
pub fn replay(spec: &EpochSpec<'_>) -> Replay {
    let inputs = EpochInputs::generate(spec);
    let mut key_bytes = [0u8; 16];
    key_bytes.copy_from_slice(&inputs.weights[..16]);

    let started = Instant::now();
    for i in 0..KEY_SETUPS {
        key_bytes[0] = i as u8;
        black_box(AesGcm::new(black_box(&Key::Aes128(key_bytes))));
    }
    let key_setup_us = started.elapsed().as_secs_f64() * 1e6 / KEY_SETUPS as f64;

    let cipher = AesGcm::new(&Key::Aes128(key_bytes));
    let (mut seal_s, mut open_s, mut compute_s) = (0.0, 0.0, 0.0);
    let mut bytes = 0u64;
    let mut requests = 0u64;
    let mut nonce = [0u8; 12];
    for payload in inputs.timed_payloads(spec) {
        requests += 1;
        // Device to host: the swapped block comes back, or the kernel's
        // 32-byte result does.
        let back = match spec.kind {
            Kind::KvSwap { .. } => payload.to_vec(),
            _ => vec![0xA5; 32],
        };
        for plain in [payload, &back] {
            let mut buffer = plain.to_vec();
            bytes += plain.len() as u64;
            nonce[..8].copy_from_slice(&bytes.to_le_bytes());
            let started = Instant::now();
            let tags: Vec<[u8; 16]> = buffer
                .chunks_mut(CHUNK_SIZE as usize)
                .map(|chunk| cipher.seal_in_place_detached(&nonce, chunk, b"replay"))
                .collect();
            seal_s += started.elapsed().as_secs_f64();
            let started = Instant::now();
            for (chunk, tag) in buffer.chunks_mut(CHUNK_SIZE as usize).zip(&tags) {
                cipher
                    .open_in_place_detached(&nonce, chunk, tag, b"replay")
                    .expect("a chunk sealed a moment ago opens");
            }
            open_s += started.elapsed().as_secs_f64();
            assert!(buffer == plain, "replayed chunk did not round-trip");
        }
        if !matches!(spec.kind, Kind::KvSwap { .. }) {
            let started = Instant::now();
            black_box(CommandProcessor::surrogate_inference(
                &inputs.weights,
                black_box(payload),
            ));
            compute_s += started.elapsed().as_secs_f64();
        }
    }
    let mib = bytes as f64 / (1 << 20) as f64;
    let per_req_us = |seconds: f64| seconds * 1e6 / requests as f64;
    Replay {
        seal_us: per_req_us(seal_s),
        open_us: per_req_us(open_s),
        seal_mib_s: mib / seal_s,
        open_mib_s: mib / open_s,
        key_setup_us,
        compute_us: per_req_us(compute_s),
    }
}
