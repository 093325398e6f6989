//! Versioned snapshot serialization: the one codec every piece of
//! simulator state goes through.
//!
//! The whole-system snapshot/restore path (firecracker's snapshot idiom
//! applied to the `ConfidentialSystem`) serializes every mutable piece of
//! simulator state through the [`SnapshotState`] trait over the
//! [`Encoder`]/[`Decoder`] pair defined here. The format is deliberately
//! hand-rolled — the vendored `serde` is a no-op stub — and versioned so an
//! old snapshot is *refused*, never misparsed:
//!
//! * all integers are little-endian fixed width;
//! * sequences are length-prefixed (`u64`); maps and sets — `BTreeMap`,
//!   `BTreeSet` and the hash containers alike — are written by the codec
//!   in ascending key order, and their decoders refuse duplicate or
//!   out-of-order keys, so every value has exactly one encoding;
//! * `Option` is a presence byte followed by the value when present;
//! * `f64` goes through `to_bits`/`from_bits` so NaN payloads and signed
//!   zeros round-trip bit-exactly;
//! * a top-level snapshot starts with the [`SNAPSHOT_MAGIC`] bytes and a
//!   `u32` format version.
//!
//! Plain field-list structs and fieldless enums get their impl from
//! [`snapshot_state!`](crate::snapshot_state); types with a validation rule
//! write theirs by hand. Byte buffers (staged policy, embedded TLPs, and
//! memory images through [`Encoder::chunks`]) keep the single-copy
//! [`Encoder::bytes`] / [`Decoder::byte_slice`] path instead of a
//! per-element `Vec<u8>`.
//!
//! Components whose restore needs context the bytes do not carry — key
//! material, shared handles, topology — keep an inherent
//! `restore_snapshot(&mut self, ..)` that decodes everything first and
//! assigns last.
//!
//! Every decode path returns a typed [`SnapshotError`]; corrupted or
//! truncated input must never panic.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::ops::Range;

/// Magic bytes opening every versioned snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ccAIsnap";

/// Current snapshot format version.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 6;

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

    /// Appends a value through its [`SnapshotState`] impl.
    pub fn put<T: SnapshotState>(&mut self, value: &T) {
        value.encode_state(self);
    }

    /// Appends a sparse memory image: `(base, chunk)` rows in address
    /// order, each chunk on the single-copy [`Encoder::bytes`] path.
    pub fn chunks(&mut self, chunks: &BTreeMap<u64, Vec<u8>>) {
        self.u64(chunks.len() as u64);
        for (base, chunk) in chunks {
            self.u64(*base);
            self.bytes(chunk);
        }
    }

    fn seq<'v, T: SnapshotState + 'v>(&mut self, len: usize, items: impl Iterator<Item = &'v T>) {
        self.u64(len as u64);
        for item in items {
            item.encode_state(self);
        }
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
        Ok(self.byte_slice()?.to_vec())
    }

    /// Reads a `u64`-length-prefixed byte string in place, without
    /// copying it out of the payload.
    ///
    /// # Errors
    ///
    /// As [`Decoder::bytes`].
    pub fn byte_slice(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.seq_len()?;
        self.raw(len)
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

    /// Reads a value through its [`SnapshotState`] impl.
    ///
    /// # Errors
    ///
    /// Whatever that impl refuses.
    pub fn get<T: SnapshotState>(&mut self) -> Result<T, SnapshotError> {
        T::decode_state(self)
    }

    /// Reads a sparse memory image written by [`Encoder::chunks`].
    ///
    /// # Errors
    ///
    /// `Invalid("malformed memory chunk")` for a row out of address order,
    /// a chunk that is not exactly `chunk_len` bytes or not `chunk_len`
    /// aligned, or a base at or past `capacity`.
    pub fn chunks(
        &mut self,
        chunk_len: u64,
        capacity: u64,
    ) -> Result<BTreeMap<u64, Vec<u8>>, SnapshotError> {
        let mut chunks = BTreeMap::new();
        for _ in 0..self.seq_len()? {
            let base = self.u64()?;
            let data = self.byte_slice()?;
            let ascending = chunks.last_key_value().is_none_or(|(&last, _)| base > last);
            if !ascending
                || data.len() as u64 != chunk_len
                || !base.is_multiple_of(chunk_len)
                || base >= capacity
            {
                return Err(SnapshotError::Invalid("malformed memory chunk"));
            }
            chunks.insert(base, data.to_vec());
        }
        Ok(chunks)
    }

    /// Reads a length-prefixed sequence of keys (or `(key, value)` rows),
    /// refusing any key that does not strictly follow its predecessor.
    fn ascending<T: SnapshotState, K: Ord>(
        &mut self,
        key: impl Fn(&T) -> &K,
    ) -> Result<Vec<T>, SnapshotError> {
        let items: Vec<T> = self.get()?;
        if items.windows(2).any(|w| key(&w[0]) >= key(&w[1])) {
            return Err(SnapshotError::Invalid("keys not strictly ascending"));
        }
        Ok(items)
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

/// Implements [`SnapshotState`] for a plain field-list struct — each field
/// through its own impl, in the listed order — or for a fieldless enum,
/// one code byte per variant.
///
/// ```
/// use ccai_sim::snapshot::{decode_versioned, encode_versioned};
/// use ccai_sim::snapshot_state;
///
/// #[derive(Debug, PartialEq)]
/// struct Window { base: u64, len: Option<u32> }
/// snapshot_state!(Window { base, len });
///
/// #[derive(Debug, PartialEq)]
/// enum Mode { Idle, Busy }
/// snapshot_state!(enum Mode: "mode code" { Idle = 0, Busy = 1 });
///
/// let w = Window { base: 0x1000, len: Some(64) };
/// assert_eq!(decode_versioned::<Window>(&encode_versioned(&w)).unwrap(), w);
/// assert_eq!(decode_versioned::<Mode>(&encode_versioned(&Mode::Busy)).unwrap(), Mode::Busy);
/// ```
#[macro_export]
macro_rules! snapshot_state {
    (enum $ty:ident: $what:literal { $($variant:ident = $code:literal),+ $(,)? }) => {
        impl $crate::snapshot::SnapshotState for $ty {
            fn encode_state(&self, enc: &mut $crate::snapshot::Encoder) {
                enc.u8(match self {
                    $($ty::$variant => $code,)+
                });
            }

            fn decode_state(
                dec: &mut $crate::snapshot::Decoder<'_>,
            ) -> ::core::result::Result<Self, $crate::snapshot::SnapshotError> {
                match dec.u8()? {
                    $($code => Ok($ty::$variant),)+
                    _ => Err($crate::snapshot::SnapshotError::Invalid($what)),
                }
            }
        }
    };
    ($ty:ident { $($field:tt),+ $(,)? }) => {
        impl $crate::snapshot::SnapshotState for $ty {
            fn encode_state(&self, enc: &mut $crate::snapshot::Encoder) {
                $(enc.put(&self.$field);)+
            }

            fn decode_state(
                dec: &mut $crate::snapshot::Decoder<'_>,
            ) -> ::core::result::Result<Self, $crate::snapshot::SnapshotError> {
                Ok($ty { $($field: dec.get()?,)+ })
            }
        }
    };
}

macro_rules! primitive_state {
    ($($ty:ident),+) => {$(
        impl SnapshotState for $ty {
            fn encode_state(&self, enc: &mut Encoder) {
                enc.$ty(*self);
            }

            fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
                dec.$ty()
            }
        }
    )+};
}

primitive_state!(u8, u16, u32, u64, bool, f64);

/// Lengths, cursors and capacities travel as `u64`.
impl SnapshotState for usize {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.u64(*self as u64);
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        usize::try_from(dec.u64()?).map_err(|_| SnapshotError::Invalid("usize out of range"))
    }
}

impl SnapshotState for String {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.str(self);
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        dec.str()
    }
}

impl<T: SnapshotState> SnapshotState for Option<T> {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.bool(self.is_some());
        if let Some(value) = self {
            value.encode_state(enc);
        }
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        if dec.bool()? {
            Ok(Some(dec.get()?))
        } else {
            Ok(None)
        }
    }
}

macro_rules! tuple_state {
    ($($name:ident),+) => {
        impl<$($name: SnapshotState),+> SnapshotState for ($($name,)+) {
            #[allow(non_snake_case)]
            fn encode_state(&self, enc: &mut Encoder) {
                let ($($name,)+) = self;
                $($name.encode_state(enc);)+
            }

            fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
                Ok(($(dec.get::<$name>()?,)+))
            }
        }
    };
}

tuple_state!(A, B);
tuple_state!(A, B, C);
tuple_state!(A, B, C, D);
tuple_state!(A, B, C, D, E);

/// Fixed-length arrays carry no length prefix.
impl<T: SnapshotState, const N: usize> SnapshotState for [T; N] {
    fn encode_state(&self, enc: &mut Encoder) {
        for item in self {
            item.encode_state(enc);
        }
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let items = (0..N).map(|_| dec.get()).collect::<Result<Vec<T>, _>>()?;
        match items.try_into() {
            Ok(array) => Ok(array),
            Err(_) => unreachable!("decoded exactly N items"),
        }
    }
}

impl<T: SnapshotState> SnapshotState for Range<T> {
    fn encode_state(&self, enc: &mut Encoder) {
        self.start.encode_state(enc);
        self.end.encode_state(enc);
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(dec.get()?..dec.get()?)
    }
}

impl<T: SnapshotState> SnapshotState for Vec<T> {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.seq(self.len(), self.iter());
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        (0..dec.seq_len()?).map(|_| dec.get()).collect()
    }
}

impl<T: SnapshotState> SnapshotState for VecDeque<T> {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.seq(self.len(), self.iter());
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        (0..dec.seq_len()?).map(|_| dec.get()).collect()
    }
}

impl<K: SnapshotState + Ord, V: SnapshotState> SnapshotState for BTreeMap<K, V> {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.u64(self.len() as u64);
        for (key, value) in self {
            key.encode_state(enc);
            value.encode_state(enc);
        }
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(dec.ascending::<(K, V), K>(|(key, _)| key)?.into_iter().collect())
    }
}

impl<K: SnapshotState + Ord> SnapshotState for BTreeSet<K> {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.seq(self.len(), self.iter());
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(dec.ascending::<K, K>(|key| key)?.into_iter().collect())
    }
}

/// Hash containers (in practice [`crate::DetHashMap`]) are written in
/// ascending key order, exactly like a `BTreeMap` of the same entries.
impl<K, V, S> SnapshotState for HashMap<K, V, S>
where
    K: SnapshotState + Ord + Hash,
    V: SnapshotState,
    S: BuildHasher + Default,
{
    fn encode_state(&self, enc: &mut Encoder) {
        let mut rows: Vec<(&K, &V)> = self.iter().collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
        enc.u64(rows.len() as u64);
        for (key, value) in rows {
            key.encode_state(enc);
            value.encode_state(enc);
        }
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(dec.ascending::<(K, V), K>(|(key, _)| key)?.into_iter().collect())
    }
}

/// Written in ascending order, exactly like a `BTreeSet` of the same keys.
impl<K, S> SnapshotState for HashSet<K, S>
where
    K: SnapshotState + Ord + Hash,
    S: BuildHasher + Default,
{
    fn encode_state(&self, enc: &mut Encoder) {
        let mut keys: Vec<&K> = self.iter().collect();
        keys.sort_unstable();
        enc.seq(keys.len(), keys.into_iter());
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(dec.ascending::<K, K>(|key| key)?.into_iter().collect())
    }
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
    fn memory_image_round_trips_and_refuses_malformed_chunks() {
        let image: BTreeMap<u64, Vec<u8>> = [(0, vec![1; 4]), (8, vec![2; 4])].into();
        let decode = |image: &BTreeMap<u64, Vec<u8>>, capacity| {
            let mut enc = Encoder::new();
            enc.chunks(image);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes);
            dec.chunks(4, capacity)
        };
        assert_eq!(decode(&image, 16).unwrap(), image);
        let malformed = Err(SnapshotError::Invalid("malformed memory chunk"));
        assert_eq!(decode(&image, 8), malformed, "base at capacity");
        assert_eq!(decode(&[(2, vec![0; 4])].into(), 16), malformed, "misaligned base");
        assert_eq!(decode(&[(0, vec![0; 3])].into(), 16), malformed, "short chunk");

        let mut enc = Encoder::new();
        enc.u64(2);
        for base in [8u64, 0] {
            enc.u64(base);
            enc.bytes(&[0; 4]);
        }
        let bytes = enc.finish();
        assert_eq!(Decoder::new(&bytes).chunks(4, 16), malformed, "descending bases");
    }

    #[test]
    fn bool_rejects_junk() {
        let mut dec = Decoder::new(&[7]);
        assert_eq!(dec.bool(), Err(SnapshotError::Invalid("bool byte not 0/1")));
    }
}
