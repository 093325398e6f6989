//! Transaction Layer Packets.
//!
//! The TLP is ccAI's unit of protection: "the PCIe packet is commonly used
//! in various types of xPUs, carrying the data/code and command payloads
//! for DMA/MMIO interaction with the TVM" (§3). The Packet Filter reads
//! the header attributes modelled here — format, type, requester and
//! completer IDs, address — and the Packet Handlers transform payloads.
//!
//! The binary codec follows the PCI Express Base Specification's layout in
//! spirit (fmt/type byte, traffic class, 10-bit DW length, requester ID +
//! tag + byte enables, 32- or 64-bit address, DW-padded payload); a few
//! reserved fields are omitted. Round-tripping is exact and property-tested.

use crate::bdf::Bdf;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum TLP data payload in bytes (1024 DW).
pub const MAX_PAYLOAD_BYTES: usize = 4096;

/// The transaction type of a TLP, as decoded from the fmt/type fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TlpType {
    /// Memory read request (MRd).
    MemRead,
    /// Memory write request (MWr) — posted.
    MemWrite,
    /// I/O read request (IORd).
    IoRead,
    /// I/O write request (IOWrt).
    IoWrite,
    /// Configuration read, type 0 (CfgRd0).
    CfgRead,
    /// Configuration write, type 0 (CfgWr0).
    CfgWrite,
    /// Completion without data (Cpl).
    Completion,
    /// Completion with data (CplD).
    CompletionData,
    /// Message request (Msg) — interrupts, power management, vendor
    /// messages.
    Message,
}

ccai_sim::snapshot_state!(enum TlpType: "tlp type code" {
    MemRead = 0,
    MemWrite = 1,
    IoRead = 2,
    IoWrite = 3,
    CfgRead = 4,
    CfgWrite = 5,
    Completion = 6,
    CompletionData = 7,
    Message = 8,
});

impl TlpType {
    /// True for MWr / IOWrt / CfgWr0.
    pub fn is_write(self) -> bool {
        matches!(self, TlpType::MemWrite | TlpType::IoWrite | TlpType::CfgWrite)
    }

    /// True for MRd / IORd / CfgRd0.
    pub fn is_read(self) -> bool {
        matches!(self, TlpType::MemRead | TlpType::IoRead | TlpType::CfgRead)
    }

    /// True for Cpl / CplD.
    pub fn is_completion(self) -> bool {
        matches!(self, TlpType::Completion | TlpType::CompletionData)
    }
}

impl fmt::Display for TlpType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TlpType::MemRead => "MRd",
            TlpType::MemWrite => "MWr",
            TlpType::IoRead => "IORd",
            TlpType::IoWrite => "IOWrt",
            TlpType::CfgRead => "CfgRd0",
            TlpType::CfgWrite => "CfgWr0",
            TlpType::Completion => "Cpl",
            TlpType::CompletionData => "CplD",
            TlpType::Message => "Msg",
        };
        write!(f, "{s}")
    }
}

/// Completion status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CplStatus {
    /// Successful completion (SC).
    #[default]
    Success,
    /// Unsupported request (UR).
    UnsupportedRequest,
    /// Completer abort (CA).
    CompleterAbort,
}

impl CplStatus {
    fn to_bits(self) -> u8 {
        match self {
            CplStatus::Success => 0b000,
            CplStatus::UnsupportedRequest => 0b001,
            CplStatus::CompleterAbort => 0b100,
        }
    }

    fn from_bits(bits: u8) -> Option<Self> {
        match bits {
            0b000 => Some(CplStatus::Success),
            0b001 => Some(CplStatus::UnsupportedRequest),
            0b100 => Some(CplStatus::CompleterAbort),
            _ => None,
        }
    }
}

/// Type-specific header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum HeaderKind {
    /// Memory read/write.
    Memory {
        write: bool,
        address: u64,
    },
    /// Legacy I/O read/write (32-bit addresses).
    Io {
        write: bool,
        address: u32,
    },
    /// Type-0 configuration access targeting `completer`'s config space.
    Config {
        write: bool,
        completer: Bdf,
        register: u16,
    },
    /// Completion routed back to the requester by ID.
    Completion {
        completer: Bdf,
        status: CplStatus,
        with_data: bool,
    },
    /// Message (code is vendor/spec defined; e.g. interrupts).
    Message {
        code: u8,
    },
}

/// A decoded TLP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TlpHeader {
    pub(crate) kind: HeaderKind,
    pub(crate) requester: Bdf,
    pub(crate) tag: u8,
    pub(crate) traffic_class: u8,
    /// Byte length of the data payload (0 for non-data TLPs).
    pub(crate) payload_len: u32,
}

impl TlpHeader {
    /// The transaction type.
    pub fn tlp_type(&self) -> TlpType {
        match self.kind {
            HeaderKind::Memory { write: true, .. } => TlpType::MemWrite,
            HeaderKind::Memory { write: false, .. } => TlpType::MemRead,
            HeaderKind::Io { write: true, .. } => TlpType::IoWrite,
            HeaderKind::Io { write: false, .. } => TlpType::IoRead,
            HeaderKind::Config { write: true, .. } => TlpType::CfgWrite,
            HeaderKind::Config { write: false, .. } => TlpType::CfgRead,
            HeaderKind::Completion { with_data: true, .. } => TlpType::CompletionData,
            HeaderKind::Completion { with_data: false, .. } => TlpType::Completion,
            HeaderKind::Message { .. } => TlpType::Message,
        }
    }

    /// The requester's BDF.
    pub fn requester(&self) -> Bdf {
        self.requester
    }

    /// The completer BDF (completions and config requests only).
    pub fn completer(&self) -> Option<Bdf> {
        match self.kind {
            HeaderKind::Config { completer, .. }
            | HeaderKind::Completion { completer, .. } => Some(completer),
            _ => None,
        }
    }

    /// The target address (memory and I/O requests only).
    pub fn address(&self) -> Option<u64> {
        match self.kind {
            HeaderKind::Memory { address, .. } => Some(address),
            HeaderKind::Io { address, .. } => Some(address as u64),
            _ => None,
        }
    }

    /// The config-space register offset (config requests only).
    pub fn config_register(&self) -> Option<u16> {
        match self.kind {
            HeaderKind::Config { register, .. } => Some(register),
            _ => None,
        }
    }

    /// Completion status (completions only).
    pub fn cpl_status(&self) -> Option<CplStatus> {
        match self.kind {
            HeaderKind::Completion { status, .. } => Some(status),
            _ => None,
        }
    }

    /// Message code (messages only).
    pub fn message_code(&self) -> Option<u8> {
        match self.kind {
            HeaderKind::Message { code } => Some(code),
            _ => None,
        }
    }

    /// Transaction tag, matching completions to requests.
    pub fn tag(&self) -> u8 {
        self.tag
    }

    /// Traffic class (0–7).
    pub fn traffic_class(&self) -> u8 {
        self.traffic_class
    }

    /// Payload length in bytes. For `MemRead` this is the *requested*
    /// length; for data-bearing TLPs it is the carried length.
    pub fn payload_len(&self) -> u32 {
        self.payload_len
    }

    /// Whether the header needs the 4DW (64-bit address) format.
    pub fn is_4dw(&self) -> bool {
        matches!(self.kind, HeaderKind::Memory { address, .. } if address > u32::MAX as u64)
    }

    /// Header size on the wire in bytes (12 for 3DW, 16 for 4DW).
    pub fn wire_len(&self) -> usize {
        if self.is_4dw() {
            16
        } else {
            12
        }
    }
}

/// A complete TLP: header plus payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tlp {
    header: TlpHeader,
    payload: Vec<u8>,
}

/// Errors from [`Tlp::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the minimum header.
    Truncated,
    /// Unknown fmt/type combination.
    UnknownType(u8),
    /// Reserved or inconsistent field value.
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated TLP"),
            DecodeError::UnknownType(b) => write!(f, "unknown fmt/type byte {b:#04x}"),
            DecodeError::Malformed(what) => write!(f, "malformed TLP: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// fmt/type byte values (fmt in bits 7:5, type in bits 4:0).
const FMT_3DW: u8 = 0b000;
const FMT_4DW: u8 = 0b001;
const FMT_3DW_DATA: u8 = 0b010;
#[allow(dead_code)] // encoded via `base | 0b010`; kept for documentation
const FMT_4DW_DATA: u8 = 0b011;
const TYPE_MEM: u8 = 0b0_0000;
const TYPE_IO: u8 = 0b0_0010;
const TYPE_CFG0: u8 = 0b0_0100;
const TYPE_CPL: u8 = 0b0_1010;
const TYPE_MSG: u8 = 0b1_0000;

impl Tlp {
    /// Builds a posted memory write carrying `payload` to `address`.
    ///
    /// # Panics
    ///
    /// Panics if the payload is empty or exceeds [`MAX_PAYLOAD_BYTES`].
    pub fn memory_write(requester: Bdf, address: u64, payload: Vec<u8>) -> Tlp {
        assert!(!payload.is_empty(), "memory write needs a payload");
        assert!(payload.len() <= MAX_PAYLOAD_BYTES, "payload exceeds max TLP size");
        Tlp {
            header: TlpHeader {
                kind: HeaderKind::Memory { write: true, address },
                requester,
                tag: 0,
                traffic_class: 0,
                payload_len: payload.len() as u32,
            },
            payload,
        }
    }

    /// Builds a memory read request for `len` bytes at `address`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds [`MAX_PAYLOAD_BYTES`].
    pub fn memory_read(requester: Bdf, address: u64, len: u32, tag: u8) -> Tlp {
        assert!(len > 0, "memory read needs a length");
        assert!(len as usize <= MAX_PAYLOAD_BYTES, "read exceeds max TLP size");
        Tlp {
            header: TlpHeader {
                kind: HeaderKind::Memory { write: false, address },
                requester,
                tag,
                traffic_class: 0,
                payload_len: len,
            },
            payload: Vec::new(),
        }
    }

    /// Builds an I/O write (4-byte granularity, 32-bit address space).
    ///
    /// # Panics
    ///
    /// Panics if the payload is empty or longer than 4 bytes.
    pub fn io_write(requester: Bdf, address: u32, payload: Vec<u8>) -> Tlp {
        assert!(
            !payload.is_empty() && payload.len() <= 4,
            "I/O writes carry 1-4 bytes"
        );
        Tlp {
            header: TlpHeader {
                kind: HeaderKind::Io { write: true, address },
                requester,
                tag: 0,
                traffic_class: 0,
                payload_len: payload.len() as u32,
            },
            payload,
        }
    }

    /// Builds an I/O read of `len` (1–4) bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than 4.
    pub fn io_read(requester: Bdf, address: u32, len: u32, tag: u8) -> Tlp {
        assert!((1..=4).contains(&len), "I/O reads fetch 1-4 bytes");
        Tlp {
            header: TlpHeader {
                kind: HeaderKind::Io { write: false, address },
                requester,
                tag,
                traffic_class: 0,
                payload_len: len,
            },
            payload: Vec::new(),
        }
    }

    /// Builds a type-0 configuration read of register `register` (byte
    /// offset) in `completer`'s config space.
    pub fn config_read(requester: Bdf, completer: Bdf, register: u16, tag: u8) -> Tlp {
        Tlp {
            header: TlpHeader {
                kind: HeaderKind::Config { write: false, completer, register },
                requester,
                tag,
                traffic_class: 0,
                payload_len: 4,
            },
            payload: Vec::new(),
        }
    }

    /// Builds a type-0 configuration write of 4 bytes.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not exactly 4 bytes.
    pub fn config_write(requester: Bdf, completer: Bdf, register: u16, payload: Vec<u8>) -> Tlp {
        assert_eq!(payload.len(), 4, "config writes carry one DW");
        Tlp {
            header: TlpHeader {
                kind: HeaderKind::Config { write: true, completer, register },
                requester,
                tag: 0,
                traffic_class: 0,
                payload_len: 4,
            },
            payload,
        }
    }

    /// Builds a successful completion with data, answering `request_tag`
    /// from `requester`.
    ///
    /// # Panics
    ///
    /// Panics if the payload is empty or exceeds [`MAX_PAYLOAD_BYTES`].
    pub fn completion_with_data(
        completer: Bdf,
        requester: Bdf,
        request_tag: u8,
        payload: Vec<u8>,
    ) -> Tlp {
        assert!(!payload.is_empty(), "CplD needs a payload");
        assert!(payload.len() <= MAX_PAYLOAD_BYTES, "payload exceeds max TLP size");
        Tlp {
            header: TlpHeader {
                kind: HeaderKind::Completion {
                    completer,
                    status: CplStatus::Success,
                    with_data: true,
                },
                requester,
                tag: request_tag,
                traffic_class: 0,
                payload_len: payload.len() as u32,
            },
            payload,
        }
    }

    /// Builds a data-less completion with `status`.
    pub fn completion(completer: Bdf, requester: Bdf, request_tag: u8, status: CplStatus) -> Tlp {
        Tlp {
            header: TlpHeader {
                kind: HeaderKind::Completion { completer, status, with_data: false },
                requester,
                tag: request_tag,
                traffic_class: 0,
                payload_len: 0,
            },
            payload: Vec::new(),
        }
    }

    /// Builds a message TLP (e.g. an interrupt: MSI uses memory writes on
    /// real systems, but legacy INTx and PM events are messages).
    pub fn message(requester: Bdf, code: u8) -> Tlp {
        Tlp {
            header: TlpHeader {
                kind: HeaderKind::Message { code },
                requester,
                tag: 0,
                traffic_class: 0,
                payload_len: 0,
            },
            payload: Vec::new(),
        }
    }

    /// The header.
    pub fn header(&self) -> &TlpHeader {
        &self.header
    }

    /// The data payload (empty for non-data TLPs).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The data payload, writable in place. A slice, not the `Vec`: its
    /// length — and so the header's `payload_len` — cannot change.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.payload
    }

    /// Consumes the TLP, returning its payload.
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }

    /// Replaces the payload, keeping the header consistent.
    ///
    /// Used by Packet Handlers that transform payloads (encryption adds a
    /// tag, decryption strips one).
    ///
    /// # Panics
    ///
    /// Panics if called on a TLP type that carries no data, or if the new
    /// payload is empty or oversized.
    pub fn with_payload(mut self, payload: Vec<u8>) -> Tlp {
        assert!(
            self.header.tlp_type().is_write()
                || self.header.tlp_type() == TlpType::CompletionData,
            "cannot attach payload to a {} TLP",
            self.header.tlp_type()
        );
        assert!(!payload.is_empty(), "data TLP needs a payload");
        assert!(payload.len() <= MAX_PAYLOAD_BYTES, "payload exceeds max TLP size");
        self.header.payload_len = payload.len() as u32;
        self.payload = payload;
        self
    }

    /// Sets the traffic class.
    pub fn with_traffic_class(mut self, tc: u8) -> Tlp {
        assert!(tc < 8, "traffic class is 3 bits");
        self.header.traffic_class = tc;
        self
    }

    /// Total size on the wire: header + DW-padded payload (framing is
    /// accounted separately by [`crate::LinkConfig`]).
    pub fn wire_len(&self) -> usize {
        let padded = self.payload.len().div_ceil(4) * 4;
        self.header.wire_len() + padded
    }

    /// Encodes to the binary wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Encodes to the binary wire format into a caller-supplied buffer,
    /// clearing it first. Lets hot paths (snoops, link models, pools)
    /// reuse one allocation across packets instead of paying
    /// [`Tlp::encode`]'s fresh `Vec` per TLP.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let h = &self.header;
        out.clear();
        out.reserve(self.wire_len());

        let (fmt, type_bits): (u8, u8) = match h.kind {
            HeaderKind::Memory { write, address } => {
                let base = if address > u32::MAX as u64 { FMT_4DW } else { FMT_3DW };
                (if write { base | 0b010 } else { base }, TYPE_MEM)
            }
            HeaderKind::Io { write, .. } => {
                (if write { FMT_3DW_DATA } else { FMT_3DW }, TYPE_IO)
            }
            HeaderKind::Config { write, .. } => {
                (if write { FMT_3DW_DATA } else { FMT_3DW }, TYPE_CFG0)
            }
            HeaderKind::Completion { with_data, .. } => {
                (if with_data { FMT_3DW_DATA } else { FMT_3DW }, TYPE_CPL)
            }
            HeaderKind::Message { .. } => (FMT_4DW, TYPE_MSG),
        };
        out.push((fmt << 5) | type_bits);
        out.push(h.traffic_class << 4);
        // 16-bit payload byte length (the spec packs a 10-bit DW count +
        // byte enables; carrying the byte length directly is equivalent
        // information with exact round-tripping).
        out.extend_from_slice(&(h.payload_len as u16).to_be_bytes());

        match h.kind {
            HeaderKind::Memory { address, .. } => {
                out.extend_from_slice(&h.requester.to_u16().to_be_bytes());
                out.push(h.tag);
                out.push(0); // byte enables implied by payload_len
                if address > u32::MAX as u64 {
                    out.extend_from_slice(&address.to_be_bytes());
                } else {
                    out.extend_from_slice(&(address as u32).to_be_bytes());
                }
            }
            HeaderKind::Io { address, .. } => {
                out.extend_from_slice(&h.requester.to_u16().to_be_bytes());
                out.push(h.tag);
                out.push(0);
                out.extend_from_slice(&address.to_be_bytes());
            }
            HeaderKind::Config { completer, register, .. } => {
                out.extend_from_slice(&h.requester.to_u16().to_be_bytes());
                out.push(h.tag);
                out.push(0);
                out.extend_from_slice(&completer.to_u16().to_be_bytes());
                out.extend_from_slice(&register.to_be_bytes());
            }
            HeaderKind::Completion { completer, status, .. } => {
                out.extend_from_slice(&completer.to_u16().to_be_bytes());
                out.push(status.to_bits() << 5);
                out.push(0);
                out.extend_from_slice(&h.requester.to_u16().to_be_bytes());
                out.push(h.tag);
                out.push(0);
            }
            HeaderKind::Message { code } => {
                out.extend_from_slice(&h.requester.to_u16().to_be_bytes());
                out.push(h.tag);
                out.push(code);
                out.extend_from_slice(&[0u8; 8]); // message-specific DW2/DW3
            }
        }

        out.extend_from_slice(&self.payload);
        // DW padding
        while !out.len().is_multiple_of(4) {
            out.push(0);
        }
    }

    /// Decodes the binary wire format produced by [`Tlp::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated input, unknown fmt/type
    /// values, or inconsistent fields.
    pub fn decode(bytes: &[u8]) -> Result<Tlp, DecodeError> {
        if bytes.len() < 12 {
            return Err(DecodeError::Truncated);
        }
        let fmt = bytes[0] >> 5;
        let type_bits = bytes[0] & 0x1f;
        let tc = bytes[1] >> 4;
        let payload_len = u16::from_be_bytes([bytes[2], bytes[3]]) as u32;
        let with_data = fmt & 0b010 != 0;
        let four_dw = fmt & 0b001 != 0;

        let requester_raw = u16::from_be_bytes([bytes[4], bytes[5]]);
        let tag = bytes[6];

        let (kind, header_len) = match type_bits {
            TYPE_MEM => {
                let (address, hl) = if four_dw {
                    if bytes.len() < 16 {
                        return Err(DecodeError::Truncated);
                    }
                    (
                        u64::from_be_bytes([
                            bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13],
                            bytes[14], bytes[15],
                        ]),
                        16,
                    )
                } else {
                    (
                        u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as u64,
                        12,
                    )
                };
                (HeaderKind::Memory { write: with_data, address }, hl)
            }
            TYPE_IO => {
                let address = u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
                (HeaderKind::Io { write: with_data, address }, 12)
            }
            TYPE_CFG0 => {
                let completer = Bdf::from_u16(u16::from_be_bytes([bytes[8], bytes[9]]));
                let register = u16::from_be_bytes([bytes[10], bytes[11]]);
                (HeaderKind::Config { write: with_data, completer, register }, 12)
            }
            TYPE_CPL => {
                let completer = Bdf::from_u16(requester_raw);
                let status = CplStatus::from_bits(bytes[6] >> 5)
                    .ok_or(DecodeError::Malformed("completion status"))?;
                let requester = Bdf::from_u16(u16::from_be_bytes([bytes[8], bytes[9]]));
                let tag = bytes[10];
                let kind = HeaderKind::Completion { completer, status, with_data };
                let header = TlpHeader {
                    kind,
                    requester,
                    tag,
                    traffic_class: tc,
                    payload_len,
                };
                return Self::finish_decode(header, bytes, 12, with_data);
            }
            TYPE_MSG => {
                if bytes.len() < 16 {
                    return Err(DecodeError::Truncated);
                }
                (HeaderKind::Message { code: bytes[7] }, 16)
            }
            other => return Err(DecodeError::UnknownType(other)),
        };

        let header = TlpHeader {
            kind,
            requester: Bdf::from_u16(requester_raw),
            tag,
            traffic_class: tc,
            payload_len,
        };
        Self::finish_decode(header, bytes, header_len, with_data)
    }

    fn finish_decode(
        header: TlpHeader,
        bytes: &[u8],
        header_len: usize,
        with_data: bool,
    ) -> Result<Tlp, DecodeError> {
        let payload = if with_data {
            let len = header.payload_len as usize;
            if bytes.len() < header_len + len {
                return Err(DecodeError::Truncated);
            }
            bytes[header_len..header_len + len].to_vec()
        } else {
            Vec::new()
        };
        Ok(Tlp { header, payload })
    }
}

/// A TLP embedded in a snapshot travels as its exact wire encoding,
/// length-prefixed, and decodes in place from the snapshot bytes.
impl ccai_sim::SnapshotState for Tlp {
    fn encode_state(&self, enc: &mut ccai_sim::Encoder) {
        enc.bytes(&self.encode());
    }

    fn decode_state(dec: &mut ccai_sim::Decoder<'_>) -> Result<Self, ccai_sim::SnapshotError> {
        Tlp::decode(dec.byte_slice()?).map_err(|_| ccai_sim::SnapshotError::Invalid("embedded TLP"))
    }
}

impl fmt::Display for Tlp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = &self.header;
        write!(f, "{} req={}", h.tlp_type(), h.requester)?;
        if let Some(addr) = h.address() {
            write!(f, " addr={addr:#x}")?;
        }
        if let Some(cpl) = h.completer() {
            write!(f, " cpl={cpl}")?;
        }
        write!(f, " len={}", h.payload_len)
    }
}

/// Counters describing how well a [`TlpPool`] is recycling buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlpPoolStats {
    /// `take` calls served from a recycled buffer.
    pub hits: u64,
    /// `take` calls that had to allocate fresh storage.
    pub misses: u64,
    /// Buffers returned to the pool (excludes ones dropped at the cap).
    pub recycled: u64,
}

/// A recycling pool of TLP payload buffers.
///
/// The fabric's DMA hot path retires one payload `Vec<u8>` per packet
/// (device writes land in host memory, read completions are built from
/// host memory and copied by the device). The pool keeps those vectors'
/// capacity alive across packets: consumers [`TlpPool::recycle`] a spent
/// payload (for example from [`Tlp::into_payload`]) and producers
/// [`TlpPool::take`] a cleared buffer with its old capacity intact, so
/// steady-state bulk staging allocates nothing per TLP.
///
/// # Example
///
/// ```
/// use ccai_pcie::TlpPool;
///
/// let mut pool = TlpPool::new();
/// let mut buf = pool.take(); // fresh: pool was empty
/// buf.extend_from_slice(&[1, 2, 3]);
/// pool.recycle(buf);
/// let again = pool.take(); // recycled: cleared but capacity kept
/// assert!(again.is_empty());
/// assert!(again.capacity() >= 3);
/// assert_eq!(pool.stats().hits, 1);
/// ```
#[derive(Debug, Default)]
pub struct TlpPool {
    free: Vec<Vec<u8>>,
    stats: TlpPoolStats,
}

impl TlpPool {
    /// Most buffers the pool will hold; surplus recycles are dropped so
    /// a traffic burst cannot pin memory forever.
    pub const MAX_POOLED: usize = 64;

    /// Creates an empty pool.
    pub fn new() -> Self {
        TlpPool::default()
    }

    /// Takes a cleared buffer from the pool, or allocates a fresh one.
    pub fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                self.stats.hits += 1;
                buf
            }
            None => {
                self.stats.misses += 1;
                Vec::new()
            }
        }
    }

    /// Returns a spent buffer to the pool. Cleared on entry; dropped
    /// outright when the pool is full or the buffer's capacity exceeds
    /// the maximum TLP payload (oversized one-offs must not colonise the
    /// pool).
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.free.len() >= Self::MAX_POOLED || buf.capacity() > MAX_PAYLOAD_BYTES {
            return;
        }
        buf.clear();
        self.free.push(buf);
        self.stats.recycled += 1;
    }

    /// Hit/miss/recycle counters since construction.
    pub fn stats(&self) -> TlpPoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TlpPool {
        /// Buffers currently pooled.
        fn pooled(&self) -> usize {
            self.free.len()
        }
    }

    fn req() -> Bdf {
        Bdf::new(0, 2, 0)
    }

    fn dev() -> Bdf {
        Bdf::new(0x17, 0, 0)
    }

    #[test]
    fn memory_write_round_trip_3dw() {
        let tlp = Tlp::memory_write(req(), 0x1000, vec![1, 2, 3, 4, 5]);
        assert!(!tlp.header().is_4dw());
        let decoded = Tlp::decode(&tlp.encode()).unwrap();
        assert_eq!(decoded, tlp);
        assert_eq!(decoded.payload(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn memory_write_round_trip_4dw() {
        let tlp = Tlp::memory_write(req(), 0x1_0000_0000, vec![0xAA; 64]);
        assert!(tlp.header().is_4dw());
        assert_eq!(tlp.header().wire_len(), 16);
        assert_eq!(Tlp::decode(&tlp.encode()).unwrap(), tlp);
    }

    #[test]
    fn memory_read_round_trip() {
        let tlp = Tlp::memory_read(req(), 0x2000, 256, 7);
        let decoded = Tlp::decode(&tlp.encode()).unwrap();
        assert_eq!(decoded, tlp);
        assert_eq!(decoded.header().payload_len(), 256);
        assert_eq!(decoded.header().tag(), 7);
        assert!(decoded.payload().is_empty());
    }

    #[test]
    fn io_round_trips() {
        let w = Tlp::io_write(req(), 0xCF8, vec![1, 2, 3, 4]);
        assert_eq!(Tlp::decode(&w.encode()).unwrap(), w);
        let r = Tlp::io_read(req(), 0xCFC, 4, 3);
        assert_eq!(Tlp::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn config_round_trips() {
        let r = Tlp::config_read(req(), dev(), 0x10, 9);
        let d = Tlp::decode(&r.encode()).unwrap();
        assert_eq!(d, r);
        assert_eq!(d.header().completer(), Some(dev()));
        assert_eq!(d.header().config_register(), Some(0x10));

        let w = Tlp::config_write(req(), dev(), 0x04, vec![0xff, 0, 0, 0]);
        assert_eq!(Tlp::decode(&w.encode()).unwrap(), w);
    }

    #[test]
    fn completion_round_trips() {
        let cpl_d = Tlp::completion_with_data(dev(), req(), 7, vec![9; 32]);
        let d = Tlp::decode(&cpl_d.encode()).unwrap();
        assert_eq!(d, cpl_d);
        assert_eq!(d.header().tlp_type(), TlpType::CompletionData);
        assert_eq!(d.header().completer(), Some(dev()));
        assert_eq!(d.header().requester(), req());
        assert_eq!(d.header().tag(), 7);

        for status in [
            CplStatus::Success,
            CplStatus::UnsupportedRequest,
            CplStatus::CompleterAbort,
        ] {
            let cpl = Tlp::completion(dev(), req(), 1, status);
            let d = Tlp::decode(&cpl.encode()).unwrap();
            assert_eq!(d.header().cpl_status(), Some(status));
        }
    }

    #[test]
    fn message_round_trips() {
        let msg = Tlp::message(dev(), 0x20);
        let d = Tlp::decode(&msg.encode()).unwrap();
        assert_eq!(d, msg);
        assert_eq!(d.header().message_code(), Some(0x20));
        assert_eq!(d.header().tlp_type(), TlpType::Message);
    }

    #[test]
    fn traffic_class_round_trips() {
        let tlp = Tlp::memory_write(req(), 0x0, vec![1]).with_traffic_class(5);
        let d = Tlp::decode(&tlp.encode()).unwrap();
        assert_eq!(d.header().traffic_class(), 5);
    }

    #[test]
    fn wire_len_accounts_for_padding() {
        let tlp = Tlp::memory_write(req(), 0x0, vec![0; 5]);
        assert_eq!(tlp.wire_len(), 12 + 8); // 5 bytes pad to 2 DW
        assert_eq!(tlp.encode().len(), tlp.wire_len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Tlp::decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(Tlp::decode(&[0u8; 4]), Err(DecodeError::Truncated));
        let mut bytes = Tlp::memory_write(req(), 0, vec![1, 2, 3, 4]).encode();
        bytes[0] = (FMT_3DW << 5) | 0b11111;
        assert!(matches!(Tlp::decode(&bytes), Err(DecodeError::UnknownType(_))));
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        let bytes = Tlp::memory_write(req(), 0, vec![0; 64]).encode();
        assert_eq!(Tlp::decode(&bytes[..20]), Err(DecodeError::Truncated));
    }

    #[test]
    fn with_payload_updates_header() {
        let tlp = Tlp::memory_write(req(), 0x40, vec![0; 16]);
        let bigger = tlp.with_payload(vec![1; 32]);
        assert_eq!(bigger.header().payload_len(), 32);
        assert_eq!(Tlp::decode(&bigger.encode()).unwrap(), bigger);
    }

    #[test]
    fn payload_mut_rewrites_in_place_and_keeps_the_header() {
        let mut tlp = Tlp::completion_with_data(req(), req(), 7, vec![0; 24]);
        tlp.payload_mut().iter_mut().for_each(|b| *b ^= 0x5A);
        assert_eq!(tlp.payload(), [0x5A; 24]);
        assert_eq!(tlp.header().payload_len(), 24);
        assert_eq!(Tlp::decode(&tlp.encode()).unwrap(), tlp);
    }

    #[test]
    #[should_panic(expected = "cannot attach payload")]
    fn with_payload_rejects_reads() {
        let _ = Tlp::memory_read(req(), 0, 4, 0).with_payload(vec![1]);
    }

    #[test]
    #[should_panic(expected = "max TLP size")]
    fn oversized_payload_rejected() {
        let _ = Tlp::memory_write(req(), 0, vec![0; MAX_PAYLOAD_BYTES + 1]);
    }

    #[test]
    fn type_predicates() {
        assert!(TlpType::MemWrite.is_write());
        assert!(TlpType::MemRead.is_read());
        assert!(TlpType::CompletionData.is_completion());
        assert!(!TlpType::Message.is_write());
        assert!(!TlpType::Message.is_read());
    }

    #[test]
    fn display_is_informative() {
        let tlp = Tlp::memory_write(req(), 0x1000, vec![0; 8]);
        let s = tlp.to_string();
        assert!(s.contains("MWr"));
        assert!(s.contains("0x1000"));
        assert!(s.contains("len=8"));
    }

    #[test]
    fn encode_into_matches_encode_for_every_kind() {
        let tlps = [
            Tlp::memory_write(req(), 0x1000, vec![1, 2, 3]),
            Tlp::memory_write(req(), 0x1_0000_0000, vec![9; 7]),
            Tlp::memory_read(req(), 0x2000, 64, 4),
            Tlp::io_write(req(), 0x80, vec![5, 6, 7, 8]),
            Tlp::config_read(req(), dev(), 0x40, 1),
            Tlp::completion_with_data(dev(), req(), 2, vec![0xAA; 5]),
            Tlp::completion(dev(), req(), 3, CplStatus::UnsupportedRequest),
            Tlp::message(dev(), 0x20),
        ];
        let mut buf = vec![0xFF; 3]; // stale contents must be cleared
        for tlp in tlps {
            tlp.encode_into(&mut buf);
            assert_eq!(buf, tlp.encode(), "{tlp}");
        }
    }

    #[test]
    fn pool_recycles_capacity() {
        let mut pool = TlpPool::new();
        let fresh = pool.take();
        assert_eq!(pool.stats().misses, 1);
        pool.recycle(fresh);
        let mut buf = pool.take();
        buf.extend_from_slice(&[1, 2, 3]);
        assert_eq!(buf, vec![1, 2, 3]);
        buf.reserve(64);
        let cap = buf.capacity();
        pool.recycle(buf);
        let again = pool.take();
        assert!(again.is_empty(), "recycled buffers come back cleared");
        assert_eq!(again.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.stats().hits, 2);
        assert_eq!(pool.stats().recycled, 2);
    }

    #[test]
    fn pool_drops_surplus_and_oversized_buffers() {
        let mut pool = TlpPool::new();
        for _ in 0..TlpPool::MAX_POOLED + 5 {
            pool.recycle(Vec::with_capacity(16));
        }
        assert_eq!(pool.pooled(), TlpPool::MAX_POOLED);
        pool.recycle(Vec::with_capacity(MAX_PAYLOAD_BYTES * 2));
        assert_eq!(pool.pooled(), TlpPool::MAX_POOLED, "oversized buffer dropped");
    }
}
