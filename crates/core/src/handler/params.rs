//! The De/Encryption Parameters Manager (§4.2 "Control panels").
//!
//! "This panel aims to manage cryptographic requirements for different
//! tasks. … it analyzes the packet headers and records the essential
//! de/encryption parameters, helping to process packet payloads."
//!
//! Concretely: the Adaptor registers each protected DMA window as a
//! *stream* (id + direction + host address range + starting sequence
//! number). When a packet touches a registered range, the manager derives
//! the chunk's sequence number from its offset, the nonce from
//! `(stream, seq)`, and the AEAD associated data binding both — so the
//! Adaptor and the PCIe-SC agree on every cryptographic parameter without
//! per-packet negotiation. A seen-set provides replay protection
//! ("ccAI also addresses packet replay attacks by leveraging initial
//! vectors", §8.2).

use ccai_trust::keymgmt::StreamId;
use ccai_trust::{KeyManagerError, WorkloadKeyManager};
use ccai_crypto::AesGcm;
use ccai_sim::DetHashSet;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Chunk granularity for stream encryption: one DMA TLP payload.
pub const CHUNK_SIZE: u64 = 4096;

/// Direction of a protected stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamDirection {
    /// TVM → xPU (the device reads ciphertext from the bounce buffer).
    HostToDevice,
    /// xPU → TVM (the SC encrypts device writes toward the landing
    /// buffer).
    DeviceToHost,
}

ccai_sim::snapshot_state!(enum StreamDirection: "stream direction" {
    HostToDevice = 0,
    DeviceToHost = 1,
});

/// A resolved reference to one encrypted chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// The owning stream.
    pub stream: StreamId,
    /// The chunk's sequence number (drives the nonce).
    pub seq: u64,
}

impl ChunkRef {
    /// The 96-bit AES-GCM nonce for this chunk: `stream ‖ seq`.
    pub fn nonce(&self) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&self.stream.0.to_be_bytes());
        nonce[4..].copy_from_slice(&self.seq.to_be_bytes());
        nonce
    }

    /// The AEAD associated data binding stream and sequence.
    pub fn aad(&self) -> [u8; 12] {
        self.nonce()
    }
}

#[derive(Debug)]
struct StreamEntry {
    id: StreamId,
    direction: StreamDirection,
    host_range: Range<u64>,
    base_seq: u64,
    seen: DetHashSet<u64>,
}

ccai_sim::snapshot_state!(StreamEntry { id, direction, host_range, base_seq, seen });

/// The parameters manager: stream registry + key schedule + anti-replay.
pub struct ParamsManager {
    keys: WorkloadKeyManager,
    streams: Vec<StreamEntry>,
    replays_blocked: u64,
}

impl fmt::Debug for ParamsManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParamsManager")
            .field("streams", &self.streams.len())
            .field("replays_blocked", &self.replays_blocked)
            .finish()
    }
}

impl ParamsManager {
    /// Creates a manager around this side's key schedule.
    pub fn new(keys: WorkloadKeyManager) -> Self {
        ParamsManager { keys, streams: Vec::new(), replays_blocked: 0 }
    }

    /// Registers (or re-registers) a protected stream window. Both the
    /// Adaptor and the PCIe-SC call this with identical arguments.
    ///
    /// Re-registering an existing id replaces its window and resets
    /// nothing else (keys and replay state persist). A stream evicted by
    /// an overlapping window can never resolve again, so its key is
    /// retired with it.
    pub fn register_stream(
        &mut self,
        id: StreamId,
        direction: StreamDirection,
        host_range: Range<u64>,
        base_seq: u64,
    ) {
        if self.keys.stream_cipher(id).is_err() {
            self.keys.provision_stream(id, u64::MAX - 1);
        }
        // Evict any *other* stream whose window overlaps the new one:
        // staging windows are recycled across transfers, and the newest
        // registration must win address resolution.
        let keys = &mut self.keys;
        self.streams.retain(|e| {
            let keep = e.id == id
                || e.host_range.end <= host_range.start
                || e.host_range.start >= host_range.end;
            if !keep {
                keys.retire_stream(e.id);
            }
            keep
        });
        if let Some(entry) = self.streams.iter_mut().find(|e| e.id == id) {
            entry.direction = direction;
            entry.host_range = host_range;
            entry.base_seq = base_seq;
        } else {
            self.streams.push(StreamEntry {
                id,
                direction,
                host_range,
                base_seq,
                seen: DetHashSet::default(),
            });
        }
    }

    /// Resolves a host address to its chunk, if it falls in a stream of
    /// the given direction.
    pub fn resolve(&self, addr: u64, direction: StreamDirection) -> Option<ChunkRef> {
        self.streams
            .iter()
            .find(|e| e.direction == direction && e.host_range.contains(&addr))
            .map(|e| ChunkRef {
                stream: e.id,
                seq: e.base_seq + (addr - e.host_range.start) / CHUNK_SIZE,
            })
    }

    /// The expanded key for a stream.
    ///
    /// # Errors
    ///
    /// Propagates [`KeyManagerError::UnknownStream`].
    pub fn cipher(&self, id: StreamId) -> Result<&AesGcm, KeyManagerError> {
        self.keys.stream_cipher(id)
    }

    /// Marks a chunk as processed; returns `false` (and counts a blocked
    /// replay) if it was already seen.
    pub fn mark_processed(&mut self, chunk: ChunkRef) -> bool {
        let Some(entry) = self.streams.iter_mut().find(|e| e.id == chunk.stream) else {
            return false;
        };
        if entry.seen.insert(chunk.seq) {
            true
        } else {
            self.replays_blocked += 1;
            false
        }
    }

    /// Rolls back [`ParamsManager::mark_processed`] for a chunk refused
    /// before it was opened (no tag or no key for it yet). A chunk whose
    /// open failed stays marked, so a second delivery is a replay.
    pub fn unmark(&mut self, chunk: ChunkRef) {
        if let Some(entry) = self.streams.iter_mut().find(|e| e.id == chunk.stream) {
            entry.seen.remove(&chunk.seq);
        }
    }

    /// Replays blocked so far.
    pub fn replays_blocked(&self) -> u64 {
        self.replays_blocked
    }

    /// Destroys all key material (task termination).
    pub fn destroy(&mut self) {
        self.keys.destroy();
        self.streams.clear();
    }

    /// Access to the key schedule (rotation).
    pub fn keys_mut(&mut self) -> &mut WorkloadKeyManager {
        &mut self.keys
    }

    /// Serializes the key-schedule positions, the stream registry (in
    /// registration order) and the replay counter.
    pub fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        self.keys.encode_snapshot(enc);
        enc.put(&self.streams);
        enc.put(&self.replays_blocked);
    }

    /// Rebuilds a manager from a snapshot over `keys`, a fresh schedule
    /// seeded with the master the snapshotted one held: its positions are
    /// restored and every key re-derived, never carried in snapshot bytes.
    ///
    /// # Errors
    ///
    /// Any [`ccai_sim::SnapshotError`] for truncated or inconsistent
    /// input.
    pub fn from_snapshot(
        mut keys: WorkloadKeyManager,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<ParamsManager, ccai_sim::SnapshotError> {
        keys.restore_snapshot(dec)?;
        Ok(ParamsManager { keys, streams: dec.get()?, replays_blocked: dec.get()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> ParamsManager {
        ParamsManager::new(WorkloadKeyManager::new([7; 32]))
    }

    #[test]
    fn resolve_maps_offsets_to_sequences() {
        let mut m = manager();
        m.register_stream(StreamId(1), StreamDirection::HostToDevice, 0x10000..0x20000, 100);
        let c0 = m.resolve(0x10000, StreamDirection::HostToDevice).unwrap();
        let c1 = m.resolve(0x11000, StreamDirection::HostToDevice).unwrap();
        let c1b = m.resolve(0x11FFF, StreamDirection::HostToDevice).unwrap();
        assert_eq!(c0.seq, 100);
        assert_eq!(c1.seq, 101);
        assert_eq!(c1b.seq, 101, "same chunk");
        assert_eq!(c0.stream, StreamId(1));
    }

    #[test]
    fn direction_filters_resolution() {
        let mut m = manager();
        m.register_stream(StreamId(1), StreamDirection::HostToDevice, 0x10000..0x20000, 0);
        assert!(m.resolve(0x10000, StreamDirection::DeviceToHost).is_none());
        assert!(m.resolve(0x10000, StreamDirection::HostToDevice).is_some());
    }

    #[test]
    fn unregistered_addresses_unresolved() {
        let m = manager();
        assert!(m.resolve(0x10000, StreamDirection::HostToDevice).is_none());
        assert!(m.resolve(0x10000, StreamDirection::DeviceToHost).is_none());
    }

    #[test]
    fn nonces_are_unique_per_chunk_and_stream() {
        let a = ChunkRef { stream: StreamId(1), seq: 5 };
        let b = ChunkRef { stream: StreamId(1), seq: 6 };
        let c = ChunkRef { stream: StreamId(2), seq: 5 };
        assert_ne!(a.nonce(), b.nonce());
        assert_ne!(a.nonce(), c.nonce());
        assert_eq!(a.nonce(), a.aad());
    }

    #[test]
    fn both_sides_agree_on_keys() {
        let mut sc = ParamsManager::new(WorkloadKeyManager::new([9; 32]));
        let mut adaptor = ParamsManager::new(WorkloadKeyManager::new([9; 32]));
        for m in [&mut sc, &mut adaptor] {
            m.register_stream(StreamId(3), StreamDirection::DeviceToHost, 0..0x1000, 0);
        }
        let chunk = ChunkRef { stream: StreamId(3), seq: 0 };
        let (ct, tag) =
            sc.cipher(StreamId(3)).unwrap().seal_detached(&chunk.nonce(), b"chunk", &chunk.aad());
        let opened = adaptor
            .cipher(StreamId(3))
            .unwrap()
            .open_detached(&chunk.nonce(), &ct, &tag, &chunk.aad());
        assert_eq!(opened.unwrap(), b"chunk");
    }

    #[test]
    fn overlapping_registration_retires_the_evicted_key() {
        use crate::sc::MMIO_STREAM;
        let mut m = manager();
        m.register_stream(MMIO_STREAM, StreamDirection::HostToDevice, 0..0, 0);
        m.register_stream(StreamId(1), StreamDirection::HostToDevice, 0..0x2000, 0);
        m.register_stream(StreamId(2), StreamDirection::DeviceToHost, 0x2000..0x3000, 0);
        // Same id, moved window: not an eviction.
        m.register_stream(StreamId(2), StreamDirection::DeviceToHost, 0x4000..0x5000, 0);
        // The staging window is recycled: stream 3 lands on stream 1.
        m.register_stream(StreamId(3), StreamDirection::HostToDevice, 0x1000..0x3000, 0);
        assert!(m.cipher(StreamId(1)).is_err(), "evicted stream keeps no key");
        assert!(m.cipher(MMIO_STREAM).is_ok(), "the empty MMIO window never overlaps");
        assert!(m.cipher(StreamId(2)).is_ok());
        assert!(m.cipher(StreamId(3)).is_ok());
        assert_eq!(m.keys_mut().live_streams(), 3);
    }

    #[test]
    fn replay_detection() {
        let mut m = manager();
        m.register_stream(StreamId(1), StreamDirection::HostToDevice, 0..0x10000, 0);
        let chunk = m.resolve(0x1000, StreamDirection::HostToDevice).unwrap();
        assert!(m.mark_processed(chunk));
        assert!(!m.mark_processed(chunk), "replayed chunk must be rejected");
        assert_eq!(m.replays_blocked(), 1);
    }

    #[test]
    fn reregistration_moves_window() {
        let mut m = manager();
        m.register_stream(StreamId(1), StreamDirection::HostToDevice, 0..0x1000, 0);
        m.register_stream(StreamId(1), StreamDirection::HostToDevice, 0x8000..0x9000, 50);
        assert!(m.resolve(0x100, StreamDirection::HostToDevice).is_none());
        let c = m.resolve(0x8000, StreamDirection::HostToDevice).unwrap();
        assert_eq!(c.seq, 50);
    }

    #[test]
    fn destroy_clears_everything() {
        let mut m = manager();
        m.register_stream(StreamId(1), StreamDirection::HostToDevice, 0..0x1000, 0);
        m.destroy();
        assert!(m.cipher(StreamId(1)).is_err());
        assert!(m.resolve(0x100, StreamDirection::HostToDevice).is_none());
    }
}
