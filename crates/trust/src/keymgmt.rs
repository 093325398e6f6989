//! Workload key management (§6).
//!
//! After attestation, the TVM and the PCIe-SC negotiate symmetric keys
//! for the PCIe data streams. Each direction of each stream gets its own
//! key + IV lane; IVs advance monotonically; on IV exhaustion ccAI
//! "follows the solution used in NVIDIA H100 (e.g., generating and
//! exchanging a new key)"; at task termination both sides destroy their
//! copies.
//!
//! The manager is the one owner of a stream's key *and* its expanded
//! schedule: the [`AesGcm`] is built where the key is derived and dropped
//! where the key is (rotation, retirement, destruction), so no schedule
//! outlives its stream.

use ccai_crypto::{hmac_sha256, AesGcm, HmacSha256, IvManager, IvStatus, Key};
use ccai_sim::DetHashMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies one protected data stream (e.g. "H2D data", "D2H results").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct StreamId(pub u32);

ccai_sim::snapshot_state!(StreamId { 0 });

/// Errors from key-management operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyManagerError {
    /// The stream has not been provisioned.
    UnknownStream(StreamId),
    /// The stream's IV space is exhausted and must be rotated before the
    /// next use.
    NeedsRotation(StreamId),
}

impl fmt::Display for KeyManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyManagerError::UnknownStream(id) => write!(f, "unknown stream {}", id.0),
            KeyManagerError::NeedsRotation(id) => {
                write!(f, "stream {} exhausted; rotate key", id.0)
            }
        }
    }
}

impl std::error::Error for KeyManagerError {}

struct StreamState {
    key: Key,
    cipher: AesGcm,
    ivs: IvManager,
    generation: u32,
}

impl StreamState {
    fn new(key: Key, ivs: IvManager, generation: u32) -> StreamState {
        StreamState { cipher: AesGcm::new(&key), key, ivs, generation }
    }
}

/// Manages per-stream symmetric keys derived from the attested session
/// secret. Both the Adaptor and the PCIe-SC hold one of these, seeded
/// identically, so their key schedules agree without further traffic.
///
/// Stream keys are RFC 5869 HKDF-SHA256 with salt `"ccai-workload-keys"`,
/// the master as input keying material, info `"stream" ‖ id ‖ generation`
/// (big-endian) and L = 16. The extract step and the PRK's two HMAC pads depend
/// on the master alone, so both run once, in [`WorkloadKeyManager::new`]: the
/// manager holds the absorbed pads, not the master; a stream key costs two compressions.
pub struct WorkloadKeyManager {
    /// HMAC keyed by PRK = HMAC-SHA256(`"ccai-workload-keys"`, master).
    prk: HmacSha256,
    streams: DetHashMap<StreamId, StreamState>,
    rotations: u64,
    destroyed: bool,
}

impl fmt::Debug for WorkloadKeyManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkloadKeyManager")
            .field("streams", &self.streams.len())
            .field("rotations", &self.rotations)
            .field("destroyed", &self.destroyed)
            .finish()
    }
}

impl WorkloadKeyManager {
    /// Creates a manager from the post-attestation shared secret.
    pub fn new(master: [u8; 32]) -> Self {
        let prk = HmacSha256::new(hmac_sha256(b"ccai-workload-keys", &master).as_bytes());
        WorkloadKeyManager { prk, streams: DetHashMap::default(), rotations: 0, destroyed: false }
    }

    /// Provisions a stream with an IV budget (`iv_limit`); both ends must
    /// call this with identical arguments.
    ///
    /// # Panics
    ///
    /// Panics if the manager was destroyed or `iv_limit` is zero.
    pub fn provision_stream(&mut self, id: StreamId, iv_limit: u64) {
        assert!(!self.destroyed, "key manager destroyed");
        let key = self.derive_key(id, 0);
        self.streams
            .insert(id, StreamState::new(key, IvManager::with_limit(id.0, iv_limit), 0));
    }

    /// HKDF-Expand with L = 16: the first 16 bytes of
    /// T(1) = HMAC(PRK, info ‖ 0x01).
    fn derive_key(&self, id: StreamId, generation: u32) -> Key {
        let mut message = [0u8; 15];
        message[..6].copy_from_slice(b"stream");
        message[6..10].copy_from_slice(&id.0.to_be_bytes());
        message[10..14].copy_from_slice(&generation.to_be_bytes());
        message[14] = 0x01;
        let t1 = self.prk.mac(&message);
        Key::Aes128(t1.0[..16].try_into().expect("16 of 32 bytes"))
    }

    /// The stream's current key.
    ///
    /// # Errors
    ///
    /// [`KeyManagerError::UnknownStream`] if not provisioned.
    pub fn stream_key(&self, id: StreamId) -> Result<&Key, KeyManagerError> {
        self.streams
            .get(&id)
            .map(|s| &s.key)
            .ok_or(KeyManagerError::UnknownStream(id))
    }

    /// The stream's current key, expanded (AES round keys + GHASH tables).
    ///
    /// # Errors
    ///
    /// [`KeyManagerError::UnknownStream`] if not provisioned, retired or
    /// destroyed.
    pub fn stream_cipher(&self, id: StreamId) -> Result<&AesGcm, KeyManagerError> {
        self.streams
            .get(&id)
            .map(|s| &s.cipher)
            .ok_or(KeyManagerError::UnknownStream(id))
    }

    /// Ends one stream's life: its key, schedule and IV lane are dropped.
    /// Unknown ids are ignored.
    pub fn retire_stream(&mut self, id: StreamId) {
        self.streams.remove(&id);
    }

    /// Number of streams currently holding key material.
    #[doc(hidden)]
    pub fn live_streams(&self) -> usize {
        self.streams.len()
    }

    /// Reserves the next IV for a stream. `RekeySoon` statuses are
    /// surfaced so callers can schedule rotation before exhaustion.
    ///
    /// # Errors
    ///
    /// [`KeyManagerError::UnknownStream`] or
    /// [`KeyManagerError::NeedsRotation`].
    pub fn next_iv(&mut self, id: StreamId) -> Result<([u8; 12], IvStatus), KeyManagerError> {
        let stream = self
            .streams
            .get_mut(&id)
            .ok_or(KeyManagerError::UnknownStream(id))?;
        stream.ivs.next_iv().map_err(|_| KeyManagerError::NeedsRotation(id))
    }

    /// Rotates a stream to a fresh key (the H100-style response to IV
    /// exhaustion). Deterministic: both sides derive generation `n+1`.
    ///
    /// # Errors
    ///
    /// [`KeyManagerError::UnknownStream`] if not provisioned.
    pub fn rotate(&mut self, id: StreamId) -> Result<(), KeyManagerError> {
        let generation = self
            .streams
            .get(&id)
            .ok_or(KeyManagerError::UnknownStream(id))?
            .generation
            + 1;
        let key = self.derive_key(id, generation);
        let stream = self.streams.get_mut(&id).expect("checked above");
        stream.cipher = AesGcm::new(&key);
        stream.key = key;
        stream.generation = generation;
        stream.ivs.rotate();
        self.rotations += 1;
        Ok(())
    }

    /// Destroys all key material (task termination, §6: "both the TVM and
    /// the PCIe-SC securely destroy shared symmetric keys").
    pub fn destroy(&mut self) {
        self.streams.clear();
        self.prk = HmacSha256::new(&[]);
        self.destroyed = true;
    }

    /// True once destroyed.
    #[doc(hidden)]
    pub fn is_destroyed(&self) -> bool {
        self.destroyed
    }

    /// Serializes the schedule's *positions* — per-stream generation and
    /// IV cursor plus the rotation counter — never key bytes, the PRK or
    /// the master secret. A restore re-derives every key from the master
    /// the receiving manager was constructed with.
    pub fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        let positions: BTreeMap<StreamId, (u32, u64, u64)> = self
            .streams
            .iter()
            .map(|(id, s)| (*id, (s.generation, s.ivs.issued(), s.ivs.limit())))
            .collect();
        enc.put(&self.rotations);
        enc.put(&self.destroyed);
        enc.put(&positions);
    }

    /// Rebuilds the schedule from a snapshot: every stream key is
    /// re-derived from this manager's master secret at its recorded
    /// generation, and the IV cursor fast-forwards to its recorded
    /// position. The manager must have been freshly constructed with the
    /// same master the snapshotted one held.
    ///
    /// # Errors
    ///
    /// Any [`ccai_sim::SnapshotError`] for truncated or out-of-range
    /// input (e.g. an IV cursor past its budget).
    pub fn restore_snapshot(
        &mut self,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<(), ccai_sim::SnapshotError> {
        use ccai_sim::SnapshotError;
        let rotations = dec.get()?;
        let destroyed = dec.get()?;
        let positions: BTreeMap<StreamId, (u32, u64, u64)> = dec.get()?;
        let mut streams = DetHashMap::with_capacity_and_hasher(positions.len(), Default::default());
        for (id, (generation, issued, limit)) in positions {
            if limit == 0 {
                return Err(SnapshotError::Invalid("stream IV budget is zero"));
            }
            if issued > limit {
                return Err(SnapshotError::Invalid("stream IV cursor past budget"));
            }
            let key = self.derive_key(id, generation);
            let mut ivs = IvManager::with_limit(id.0, limit);
            ivs.advance_to(issued);
            streams.insert(id, StreamState::new(key, ivs, generation));
        }
        self.streams = streams;
        self.rotations = rotations;
        if destroyed {
            self.destroy();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WorkloadKeyManager {
        /// The stream's current key generation.
        ///
        /// # Errors
        ///
        /// [`KeyManagerError::UnknownStream`] if not provisioned.
        fn generation(&self, id: StreamId) -> Result<u32, KeyManagerError> {
            self.streams
                .get(&id)
                .map(|s| s.generation)
                .ok_or(KeyManagerError::UnknownStream(id))
        }

        /// Number of rotations performed.
        fn rotations(&self) -> u64 {
            self.rotations
        }
    }

    fn manager() -> WorkloadKeyManager {
        WorkloadKeyManager::new([0x33; 32])
    }

    #[test]
    fn both_sides_derive_identical_schedules() {
        let mut adaptor = manager();
        let mut sc = manager();
        for m in [&mut adaptor, &mut sc] {
            m.provision_stream(StreamId(1), 100);
        }
        assert_eq!(
            adaptor.stream_key(StreamId(1)).unwrap(),
            sc.stream_key(StreamId(1)).unwrap()
        );
        let nonce = adaptor.next_iv(StreamId(1)).unwrap().0;
        assert_eq!(nonce, sc.next_iv(StreamId(1)).unwrap().0);
        // The expanded schedules agree too: sealed on one side, opened on
        // the other.
        let sealed = adaptor.stream_cipher(StreamId(1)).unwrap().seal(&nonce, b"chunk", b"aad");
        assert_eq!(
            sc.stream_cipher(StreamId(1)).unwrap().open(&nonce, &sealed, b"aad").unwrap(),
            b"chunk"
        );
    }

    #[test]
    fn streams_have_distinct_keys() {
        let mut m = manager();
        m.provision_stream(StreamId(1), 10);
        m.provision_stream(StreamId(2), 10);
        assert_ne!(m.stream_key(StreamId(1)).unwrap(), m.stream_key(StreamId(2)).unwrap());
    }

    #[test]
    fn exhaustion_forces_rotation() {
        let mut m = manager();
        m.provision_stream(StreamId(1), 2);
        m.next_iv(StreamId(1)).unwrap();
        m.next_iv(StreamId(1)).unwrap();
        assert_eq!(
            m.next_iv(StreamId(1)),
            Err(KeyManagerError::NeedsRotation(StreamId(1)))
        );
        let old_key = m.stream_key(StreamId(1)).unwrap().clone();
        let old_sealed = m.stream_cipher(StreamId(1)).unwrap().seal(&[0; 12], b"chunk", b"");
        m.rotate(StreamId(1)).unwrap();
        assert_ne!(&old_key, m.stream_key(StreamId(1)).unwrap());
        assert!(
            m.stream_cipher(StreamId(1)).unwrap().open(&[0; 12], &old_sealed, b"").is_err(),
            "the schedule rotates with the key"
        );
        assert!(m.next_iv(StreamId(1)).is_ok());
        assert_eq!(m.generation(StreamId(1)).unwrap(), 1);
        assert_eq!(m.rotations(), 1);
    }

    #[test]
    fn rotation_stays_synchronized() {
        let mut a = manager();
        let mut b = manager();
        for m in [&mut a, &mut b] {
            m.provision_stream(StreamId(7), 5);
            m.rotate(StreamId(7)).unwrap();
            m.rotate(StreamId(7)).unwrap();
        }
        assert_eq!(a.stream_key(StreamId(7)).unwrap(), b.stream_key(StreamId(7)).unwrap());
    }

    #[test]
    fn unknown_stream_errors() {
        let mut m = manager();
        assert_eq!(
            m.next_iv(StreamId(9)),
            Err(KeyManagerError::UnknownStream(StreamId(9)))
        );
        assert_eq!(m.rotate(StreamId(9)), Err(KeyManagerError::UnknownStream(StreamId(9))));
    }

    /// The extract-once derivation is RFC 5869 HKDF with L = 16, byte for
    /// byte, for any stream id and generation.
    #[test]
    fn stream_keys_are_rfc5869_hkdf() {
        let master = [0x33; 32];
        let m = WorkloadKeyManager::new(master);
        for (id, generation) in [(0, 0), (1, 0), (7, 2), (0x100, 1), (u32::MAX, u32::MAX)] {
            let mut info = b"stream".to_vec();
            info.extend_from_slice(&u32::to_be_bytes(id));
            info.extend_from_slice(&u32::to_be_bytes(generation));
            let okm = ccai_crypto::hkdf(b"ccai-workload-keys", &master, &info, 16);
            assert_eq!(
                m.derive_key(StreamId(id), generation),
                Key::from_bytes(&okm).unwrap(),
                "stream {id} generation {generation}"
            );
        }
    }

    #[test]
    fn destroy_wipes_material() {
        let mut m = manager();
        m.provision_stream(StreamId(1), 10);
        let unkeyed = HmacSha256::new(&[]).mac(b"probe");
        assert_ne!(m.prk.mac(b"probe"), unkeyed);
        m.destroy();
        assert_eq!(m.prk.mac(b"probe"), unkeyed, "the PRK is key material too");
        assert!(m.is_destroyed());
        assert_eq!(
            m.stream_key(StreamId(1)),
            Err(KeyManagerError::UnknownStream(StreamId(1)))
        );
        assert_eq!(
            m.stream_cipher(StreamId(1)).err(),
            Some(KeyManagerError::UnknownStream(StreamId(1)))
        );
        assert_eq!(m.live_streams(), 0);
    }

    #[test]
    fn retired_stream_loses_its_key_and_schedule() {
        let mut m = manager();
        m.provision_stream(StreamId(1), 10);
        m.provision_stream(StreamId(2), 10);
        m.retire_stream(StreamId(1));
        assert_eq!(
            m.stream_cipher(StreamId(1)).err(),
            Some(KeyManagerError::UnknownStream(StreamId(1)))
        );
        assert!(m.stream_key(StreamId(1)).is_err());
        assert!(m.stream_cipher(StreamId(2)).is_ok(), "other streams keep theirs");
        assert_eq!(m.live_streams(), 1);
    }

    #[test]
    #[should_panic(expected = "destroyed")]
    fn provision_after_destroy_panics() {
        let mut m = manager();
        m.destroy();
        m.provision_stream(StreamId(1), 10);
    }

    #[test]
    fn different_masters_different_keys() {
        let mut a = WorkloadKeyManager::new([1; 32]);
        let mut b = WorkloadKeyManager::new([2; 32]);
        a.provision_stream(StreamId(1), 10);
        b.provision_stream(StreamId(1), 10);
        assert_ne!(a.stream_key(StreamId(1)).unwrap(), b.stream_key(StreamId(1)).unwrap());
    }
}
