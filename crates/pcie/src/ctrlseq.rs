//! Sequence-number envelope for host-initiated control writes.
//!
//! Once the fault injector is allowed to perturb the control path
//! (see [`crate::fault::FaultPlan::fault_control_path`]), a bare posted
//! MMIO write can be dropped, duplicated or reordered in flight. The
//! retry protocol that survives this needs every logical control write
//! to carry a sequence number so the receiver can suppress duplicates
//! and detect gaps, and so a re-send of the *same* logical write is
//! recognizably the same write (exactly-once convergence).
//!
//! The envelope is a fixed 16-byte trailer appended to the write's
//! payload:
//!
//! ```text
//! body ‖ CTRL_ENVELOPE_MAGIC (8 bytes) ‖ seq (8 bytes, little-endian)
//! ```
//!
//! A trailer (rather than a header) keeps the format transparent to
//! receivers that only read a payload prefix — the xPU's BAR0 register
//! decode reads the first 8 bytes of any write, so enveloped register
//! writes land correctly even on a device that knows nothing about
//! sequence numbers. Receivers that *do* understand the envelope strip
//! it with [`parse_ctrl_envelope`] before dispatching the body.
//!
//! A payload that does not end in the magic parses as `None`, a raw
//! write. The PCIe-SC accepts raw writes only on its own control window
//! (the Adaptor's MMIO tag mirror is one); a raw xPU register write is
//! refused. The magic makes a false positive require 8 exact bytes in
//! attacker- or corruption-controlled positions; a corrupted trailer
//! simply demotes the write to a raw one, which the sender's read-back
//! verification then catches and re-sends.

/// Magic marking an enveloped control write; chosen to never collide
/// with the repo's structured control-record layouts.
pub const CTRL_ENVELOPE_MAGIC: [u8; 8] = *b"ccAIsq01";

/// Total trailer length appended by [`seal_ctrl_envelope`].
pub const CTRL_ENVELOPE_LEN: usize = 16;

/// Wraps `body` with the sequence-number trailer.
pub fn seal_ctrl_envelope(body: &[u8], seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + CTRL_ENVELOPE_LEN);
    out.extend_from_slice(body);
    out.extend_from_slice(&CTRL_ENVELOPE_MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    out
}

/// Splits an enveloped payload into `(body, seq)`; `None` if the payload
/// is not enveloped (a raw write).
pub fn parse_ctrl_envelope(payload: &[u8]) -> Option<(&[u8], u64)> {
    if payload.len() < CTRL_ENVELOPE_LEN {
        return None;
    }
    let body_len = payload.len() - CTRL_ENVELOPE_LEN;
    if payload[body_len..body_len + 8] != CTRL_ENVELOPE_MAGIC {
        return None;
    }
    let mut seq = [0u8; 8];
    seq.copy_from_slice(&payload[body_len + 8..]);
    Some((&payload[..body_len], u64::from_le_bytes(seq)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let sealed = seal_ctrl_envelope(b"register-body", 0x1122_3344_5566_7788);
        let (body, seq) = parse_ctrl_envelope(&sealed).expect("enveloped");
        assert_eq!(body, b"register-body");
        assert_eq!(seq, 0x1122_3344_5566_7788);
    }

    #[test]
    fn empty_body_round_trips() {
        let sealed = seal_ctrl_envelope(b"", 7);
        assert_eq!(sealed.len(), CTRL_ENVELOPE_LEN);
        let (body, seq) = parse_ctrl_envelope(&sealed).expect("enveloped");
        assert!(body.is_empty());
        assert_eq!(seq, 7);
    }

    #[test]
    fn raw_payloads_do_not_parse() {
        assert!(parse_ctrl_envelope(b"short").is_none());
        assert!(parse_ctrl_envelope(&[0u8; 24]).is_none());
        // A corrupted magic byte demotes the write to raw.
        let mut sealed = seal_ctrl_envelope(&[9u8; 8], 3);
        let magic_at = sealed.len() - 12;
        sealed[magic_at] ^= 0x40;
        assert!(parse_ctrl_envelope(&sealed).is_none());
    }
}
