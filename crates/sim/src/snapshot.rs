//! Versioned snapshot serialization primitives.
//!
//! The whole-system snapshot/restore path (firecracker's snapshot idiom
//! applied to the `ConfidentialSystem`) serializes every mutable piece of
//! simulator state through the [`Encoder`]/[`Decoder`] pair defined here.
//! The format is deliberately hand-rolled — the vendored `serde` is a
//! no-op stub — and versioned so an old snapshot is *refused*, never
//! misparsed:
//!
//! * all integers are little-endian fixed width;
//! * collections are length-prefixed (`u64`) and emitted in a canonical
//!   (sorted) order by the caller so encoding is deterministic;
//! * `f64` goes through `to_bits`/`from_bits` so NaN payloads and signed
//!   zeros round-trip bit-exactly;
//! * a top-level snapshot starts with the [`SNAPSHOT_MAGIC`] bytes and a
//!   `u32` format version.
//!
//! Every decode path returns a typed [`SnapshotError`]; corrupted or
//! truncated input must never panic.

use std::fmt;

/// Magic bytes opening every versioned snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ccAIsnap";

/// Current snapshot format version.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// Typed decode failure. Corrupt input yields one of these — never a
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Input ended before a field could be read.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes remaining in the input.
        available: usize,
    },
    /// The leading magic bytes are wrong — not a snapshot at all.
    BadMagic,
    /// The snapshot's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// Input decoded fully but left unconsumed bytes.
    TrailingBytes(usize),
    /// A field decoded but holds a value the target state rejects.
    Invalid(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, available } => {
                write!(f, "snapshot truncated: needed {needed} bytes, had {available}")
            }
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after snapshot payload")
            }
            SnapshotError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Append-only binary encoder for snapshot payloads.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Creates an encoder whose payload opens with the snapshot magic and
    /// the current format version.
    pub fn versioned() -> Self {
        let mut enc = Encoder::new();
        enc.raw(&SNAPSHOT_MAGIC);
        enc.u32(SNAPSHOT_FORMAT_VERSION);
        enc
    }

    /// Consumes the encoder, returning the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current payload length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes with no length prefix (fixed-width fields).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends an `f64` bit-exactly via `to_bits`.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `u64`-length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.raw(bytes);
    }

    /// Appends a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Cursor-based decoder over a snapshot payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps a payload for decoding.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    /// Wraps a versioned payload: checks the magic bytes and format
    /// version before handing back a decoder positioned at the body.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`] or [`SnapshotError::UnsupportedVersion`]
    /// when the envelope is wrong; [`SnapshotError::Truncated`] when it is
    /// incomplete.
    pub fn versioned(data: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut dec = Decoder::new(data);
        let magic = dec.raw(SNAPSHOT_MAGIC.len())?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = dec.u32()?;
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        Ok(dec)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Declares decoding complete.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TrailingBytes`] if input remains.
    pub fn finish(self) -> Result<(), SnapshotError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapshotError::TrailingBytes(n)),
        }
    }

    /// Reads `len` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer remain.
    pub fn raw(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < len {
            return Err(SnapshotError::Truncated { needed: len, available: self.remaining() });
        }
        let out = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] on exhausted input.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.raw(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] on exhausted input.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.raw(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] on exhausted input.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.raw(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] on exhausted input.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.raw(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a bool byte, rejecting anything but 0/1.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] for any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Invalid("bool byte not 0/1")),
        }
    }

    /// Reads an `f64` bit-exactly via `from_bits`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] on exhausted input.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64`-length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the prefix overruns the input (a
    /// length prefix larger than the remaining payload is treated as
    /// truncation, so hostile prefixes cannot force huge allocations).
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(SnapshotError::Truncated {
                needed: len as usize,
                available: self.remaining(),
            });
        }
        Ok(self.raw(len as usize)?.to_vec())
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] for non-UTF-8 content.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.bytes()?).map_err(|_| SnapshotError::Invalid("non-UTF-8 string"))
    }

    /// Reads a collection length prefix, bounding it by the remaining
    /// payload so a corrupt prefix cannot drive an unbounded loop.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if even one byte per claimed element
    /// cannot exist in the remaining input.
    pub fn seq_len(&mut self) -> Result<usize, SnapshotError> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(SnapshotError::Truncated {
                needed: len as usize,
                available: self.remaining(),
            });
        }
        Ok(len as usize)
    }
}

/// A piece of simulator state that can be serialized into a snapshot and
/// reconstructed from one.
pub trait SnapshotState: Sized {
    /// Appends this state to the encoder.
    fn encode_state(&self, enc: &mut Encoder);

    /// Reconstructs the state from the decoder.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] for truncated, corrupt or out-of-range input.
    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError>;
}

/// Encodes a value under the versioned magic envelope.
pub fn encode_versioned<T: SnapshotState>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::versioned();
    value.encode_state(&mut enc);
    enc.finish()
}

/// Decodes a value from a versioned envelope, requiring full consumption.
///
/// # Errors
///
/// Any [`SnapshotError`] from the envelope or the payload, including
/// [`SnapshotError::TrailingBytes`] for over-long input.
pub fn decode_versioned<T: SnapshotState>(bytes: &[u8]) -> Result<T, SnapshotError> {
    let mut dec = Decoder::versioned(bytes)?;
    let value = T::decode_state(&mut dec)?;
    dec.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut enc = Encoder::new();
        enc.u8(0xAB);
        enc.u16(0xBEEF);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 3);
        enc.bool(true);
        enc.bool(false);
        enc.f64(-0.0);
        enc.f64(f64::NAN);
        enc.bytes(b"payload");
        enc.str("simulated");
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 0xAB);
        assert_eq!(dec.u16().unwrap(), 0xBEEF);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 3);
        assert!(dec.bool().unwrap());
        assert!(!dec.bool().unwrap());
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.f64().unwrap().is_nan());
        assert_eq!(dec.bytes().unwrap(), b"payload");
        assert_eq!(dec.str().unwrap(), "simulated");
        dec.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut enc = Encoder::new();
        enc.u64(7);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes[..3]);
        assert!(matches!(dec.u64(), Err(SnapshotError::Truncated { .. })));
    }

    #[test]
    fn hostile_length_prefix_is_truncation() {
        let mut enc = Encoder::new();
        enc.u64(u64::MAX); // claims ~2^64 bytes follow
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.bytes(), Err(SnapshotError::Truncated { .. })));
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.seq_len(), Err(SnapshotError::Truncated { .. })));
    }

    #[test]
    fn versioned_envelope_checks() {
        struct Unit;
        impl SnapshotState for Unit {
            fn encode_state(&self, enc: &mut Encoder) {
                enc.u32(0x5151);
            }
            fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
                match dec.u32()? {
                    0x5151 => Ok(Unit),
                    _ => Err(SnapshotError::Invalid("unit marker")),
                }
            }
        }
        let bytes = encode_versioned(&Unit);
        assert!(decode_versioned::<Unit>(&bytes).is_ok());

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_versioned::<Unit>(&bad_magic).err(),
            Some(SnapshotError::BadMagic)
        ));

        let mut bad_version = bytes.clone();
        bad_version[8] = 0xFE;
        assert!(matches!(
            decode_versioned::<Unit>(&bad_version).err(),
            Some(SnapshotError::UnsupportedVersion(_))
        ));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_versioned::<Unit>(&trailing).err(),
            Some(SnapshotError::TrailingBytes(1))
        ));

        assert!(matches!(
            decode_versioned::<Unit>(&bytes[..6]).err(),
            Some(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn bool_rejects_junk() {
        let mut dec = Decoder::new(&[7]);
        assert_eq!(dec.bool(), Err(SnapshotError::Invalid("bool byte not 0/1")));
    }
}
