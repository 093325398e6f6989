//! The Authentication Tag Manager (§4.2 "Control panels").
//!
//! "It handles a unique authentication tag packet queue, matching
//! authentication tag packets and the corresponding xPU task's packets
//! based on the tag attribute. Additionally, it extracts the
//! authentication codes and verifies the integrity of the sensitive
//! payload."
//!
//! CTR-mode ciphertext has the same length as its plaintext, so data TLPs
//! stay size-preserving; the 16-byte GCM tags travel out-of-band in
//! dedicated tag packets addressed to the tag queue. A tag record is
//! `(stream, seq, tag)`; data chunks and tags are matched on
//! `(stream, seq)`.

use ccai_sim::DetHashMap;
use ccai_trust::keymgmt::StreamId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Serialized size of one tag record: stream(4) + seq(8) + tag(16).
pub const TAG_RECORD_LEN: usize = 28;

/// Records in the 1 MiB D2H tag landing window, a ring on both sides.
pub const TAG_LANDING_RECORDS: u64 = 0x10_0000 / TAG_RECORD_LEN as u64;

/// Guest address of D2H tag record `n` (a monotone count) in the ring.
pub fn landing_record_addr(landing: u64, n: u64) -> u64 {
    landing + n % TAG_LANDING_RECORDS * TAG_RECORD_LEN as u64
}

/// One parsed tag record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TagRecord {
    /// Owning stream.
    pub stream: StreamId,
    /// Chunk sequence number.
    pub seq: u64,
    /// The 16-byte GCM authentication tag.
    pub tag: [u8; 16],
}

impl TagRecord {
    /// Serializes to the 28-byte wire format.
    pub fn to_bytes(&self) -> [u8; TAG_RECORD_LEN] {
        let mut out = [0u8; TAG_RECORD_LEN];
        out[..4].copy_from_slice(&self.stream.0.to_be_bytes());
        out[4..12].copy_from_slice(&self.seq.to_be_bytes());
        out[12..].copy_from_slice(&self.tag);
        out
    }

    /// Parses one 28-byte record.
    pub fn from_bytes(bytes: &[u8]) -> Option<TagRecord> {
        bytes.try_into().ok().map(TagRecord::from_array)
    }

    fn from_array(bytes: &[u8; TAG_RECORD_LEN]) -> TagRecord {
        let (mut stream, mut seq, mut tag) = ([0u8; 4], [0u8; 8], [0u8; 16]);
        stream.copy_from_slice(&bytes[..4]);
        seq.copy_from_slice(&bytes[4..12]);
        tag.copy_from_slice(&bytes[12..]);
        TagRecord {
            stream: StreamId(u32::from_be_bytes(stream)),
            seq: u64::from_be_bytes(seq),
            tag,
        }
    }

    /// Parses a batched tag packet payload (concatenated records) in
    /// place. Trailing garbage that is not a whole record is rejected.
    pub fn parse_batch(payload: &[u8]) -> Option<impl ExactSizeIterator<Item = TagRecord> + '_> {
        let (records, rest) = payload.as_chunks::<TAG_RECORD_LEN>();
        rest.is_empty().then(|| records.iter().map(TagRecord::from_array))
    }
}

/// The tag queue: pending tags awaiting their data chunks.
#[derive(Debug, Default)]
pub struct TagManager {
    pending: DetHashMap<(u32, u64), [u8; 16]>,
    received: u64,
    matched: u64,
    missing: u64,
}

impl TagManager {
    /// Creates an empty queue.
    pub fn new() -> Self {
        TagManager::default()
    }

    /// Enqueues a tag record (later records for the same chunk replace
    /// earlier ones — the legitimate sender never double-sends, so a
    /// replacement can only hurt the attacker).
    pub fn push(&mut self, record: TagRecord) {
        self.received += 1;
        self.pending.insert((record.stream.0, record.seq), record.tag);
    }

    /// Enqueues every record of a batched tag packet.
    pub fn push_batch(&mut self, records: impl IntoIterator<Item = TagRecord>) {
        for record in records {
            self.push(record);
        }
    }

    /// True if a tag is queued for `(stream, seq)`. Unlike
    /// [`TagManager::take`] this is a pure peek: no counters move and the
    /// record stays queued.
    pub fn contains(&self, stream: StreamId, seq: u64) -> bool {
        self.pending.contains_key(&(stream.0, seq))
    }

    /// Takes the tag matching a data chunk, if present.
    pub fn take(&mut self, stream: StreamId, seq: u64) -> Option<[u8; 16]> {
        match self.pending.remove(&(stream.0, seq)) {
            Some(tag) => {
                self.matched += 1;
                Some(tag)
            }
            None => {
                self.missing += 1;
                None
            }
        }
    }

    /// Drops all queued tags (task termination).
    pub fn clear(&mut self) {
        self.pending.clear();
    }
}

ccai_sim::snapshot_state!(TagManager { pending, received, matched, missing });

impl fmt::Display for TagManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TagManager(queued={}, received={}, matched={}, missing={})",
            self.pending.len(),
            self.received,
            self.matched,
            self.missing
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TagManager {
        /// Tags currently queued.
        fn queued(&self) -> usize {
            self.pending.len()
        }

        /// `(received, matched, missing)` counters.
        fn stats(&self) -> (u64, u64, u64) {
            (self.received, self.matched, self.missing)
        }
    }

    fn record(stream: u32, seq: u64, fill: u8) -> TagRecord {
        TagRecord { stream: StreamId(stream), seq, tag: [fill; 16] }
    }

    #[test]
    fn record_bytes_round_trip() {
        let r = record(7, 0x1234_5678_9ABC, 0xEE);
        assert_eq!(TagRecord::from_bytes(&r.to_bytes()), Some(r));
        assert_eq!(TagRecord::from_bytes(&[0; 27]), None);
    }

    #[test]
    fn batch_parsing() {
        let records = [record(1, 0, 1), record(1, 1, 2), record(2, 0, 3)];
        let mut payload = Vec::new();
        for r in &records {
            payload.extend_from_slice(&r.to_bytes());
        }
        let parsed: Vec<TagRecord> = TagRecord::parse_batch(&payload).unwrap().collect();
        assert_eq!(parsed, records);
        payload.push(0);
        assert!(TagRecord::parse_batch(&payload).is_none(), "ragged batch rejected");
    }

    #[test]
    fn take_matches_on_stream_and_seq() {
        let mut tm = TagManager::new();
        tm.push(record(1, 5, 0xAA));
        assert_eq!(tm.take(StreamId(1), 6), None);
        assert_eq!(tm.take(StreamId(2), 5), None);
        assert_eq!(tm.take(StreamId(1), 5), Some([0xAA; 16]));
        assert_eq!(tm.take(StreamId(1), 5), None, "tags are single-use");
        let (received, matched, missing) = tm.stats();
        assert_eq!((received, matched, missing), (1, 1, 3));
    }

    #[test]
    fn batch_push_and_queue_depth() {
        let mut tm = TagManager::new();
        tm.push_batch((0..10).map(|i| record(1, i, i as u8)));
        assert_eq!(tm.queued(), 10);
        tm.clear();
        assert_eq!(tm.queued(), 0);
    }

    #[test]
    fn duplicate_records_replace() {
        let mut tm = TagManager::new();
        tm.push(record(1, 0, 0x11));
        tm.push(record(1, 0, 0x22));
        assert_eq!(tm.queued(), 1);
        assert_eq!(tm.take(StreamId(1), 0), Some([0x22; 16]));
    }
}
