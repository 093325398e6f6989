//! The Fig. 6 remote-attestation protocol.
//!
//! Four steps between a remote verifier and the ccAI platform:
//!
//! 1. **Session key** — Diffie-Hellman exchange; all later messages are
//!    AES-GCM-encrypted under the derived `SessionKey`.
//! 2. **Key certificates** — the platform presents `S(EndorseKey)` (the
//!    vendor-CA certificate over the EK) and `S(AttestKey)` (the EK
//!    certificate over the boot-fresh AK); the verifier validates the
//!    chain up to the corporate root CA.
//! 3. **Challenge** — the verifier sends a PCR selection and a random
//!    nonce.
//! 4. **Report** — the platform returns the AK-signed quote
//!    `r = (nonce, PCRs, S(PCRs))`; the verifier checks the nonce, the
//!    signature, and the PCR values against its golden references.

use crate::hrot::{HrotBlade, KeyCertificate, Quote};
use ccai_crypto::{AesGcm, Digest, DhKeyPair, DhPublic, Key, SchnorrPublic};
use std::collections::HashMap;
use std::fmt;

/// Errors raised by either protocol side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestationError {
    /// DH peer value failed validation.
    BadKeyExchange,
    /// A protocol message failed session-key decryption.
    BadSessionCiphertext,
    /// The EK certificate did not chain to the root CA.
    UntrustedEk,
    /// The AK certificate did not verify under the EK.
    UntrustedAk,
    /// The quote's nonce did not match the challenge.
    NonceMismatch,
    /// The quote signature failed under the AK.
    BadQuoteSignature,
    /// A PCR value differed from the verifier's golden reference.
    PcrMismatch {
        /// The register that failed.
        index: usize,
    },
    /// Protocol messages arrived out of order.
    OutOfOrder,
}

impl fmt::Display for AttestationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttestationError::BadKeyExchange => write!(f, "key exchange failed"),
            AttestationError::BadSessionCiphertext => write!(f, "session decryption failed"),
            AttestationError::UntrustedEk => write!(f, "EK certificate untrusted"),
            AttestationError::UntrustedAk => write!(f, "AK certificate untrusted"),
            AttestationError::NonceMismatch => write!(f, "nonce mismatch in report"),
            AttestationError::BadQuoteSignature => write!(f, "quote signature invalid"),
            AttestationError::PcrMismatch { index } => write!(f, "PCR {index} mismatch"),
            AttestationError::OutOfOrder => write!(f, "protocol message out of order"),
        }
    }
}

impl std::error::Error for AttestationError {}

/// An encrypted protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedMessage {
    nonce: [u8; 12],
    body: Vec<u8>,
}

impl SealedMessage {
    /// Bytes on the wire (test hook for the transcript-length check).
    #[doc(hidden)]
    pub fn wire_len(&self) -> usize {
        self.nonce.len() + self.body.len()
    }
}

/// Session crypto shared by both sides after step ①.
struct Session {
    cipher: AesGcm,
    send_counter: u64,
    prefix: u32,
}

impl Session {
    fn new(key: [u8; 32], prefix: u32) -> Session {
        Session {
            cipher: AesGcm::new(&Key::Aes256(key)),
            send_counter: 0,
            prefix,
        }
    }

    fn seal(&mut self, plaintext: &[u8]) -> SealedMessage {
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&self.prefix.to_be_bytes());
        nonce[4..].copy_from_slice(&self.send_counter.to_be_bytes());
        self.send_counter += 1;
        SealedMessage { nonce, body: self.cipher.seal(&nonce, plaintext, b"ccai-attest") }
    }

    fn open(&self, msg: &SealedMessage) -> Result<Vec<u8>, AttestationError> {
        self.cipher
            .open(&msg.nonce, &msg.body, b"ccai-attest")
            .map_err(|_| AttestationError::BadSessionCiphertext)
    }
}

/// The platform (prover) side: wraps the HRoT-Blade.
pub struct Platform {
    blade: HrotBlade,
    dh: DhKeyPair,
    session: Option<Session>,
}

impl fmt::Debug for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Platform")
            .field("session", &self.session.is_some())
            .finish()
    }
}

impl Platform {
    /// Wraps a booted blade; `dh_entropy` seeds the platform's ephemeral
    /// DH key.
    ///
    /// # Panics
    ///
    /// Panics if the blade has no AK yet or entropy is under 32 bytes.
    pub fn new(blade: HrotBlade, dh_entropy: &[u8]) -> Platform {
        assert!(blade.ak_public().is_some(), "blade must be booted (AK present)");
        Platform { blade, dh: DhKeyPair::generate(dh_entropy), session: None }
    }

    /// Step ① (platform half): returns our DH public value and derives
    /// the session key from the verifier's.
    ///
    /// # Errors
    ///
    /// [`AttestationError::BadKeyExchange`] on an invalid peer value.
    pub fn key_exchange(&mut self, verifier_pub: &DhPublic) -> Result<DhPublic, AttestationError> {
        let key = self
            .dh
            .agree(verifier_pub)
            .map_err(|_| AttestationError::BadKeyExchange)?;
        self.session = Some(Session::new(key, 0x5c5c_0002));
        Ok(self.dh.public().clone())
    }

    /// Step ②: the key certificates, encrypted under the session key.
    ///
    /// # Errors
    ///
    /// [`AttestationError::OutOfOrder`] before the key exchange.
    pub fn certificates(&mut self) -> Result<SealedMessage, AttestationError> {
        let ek_cert = self
            .blade
            .ek_certificate()
            .cloned()
            .ok_or(AttestationError::UntrustedEk)?;
        let ak_cert = self
            .blade
            .ak_certificate()
            .cloned()
            .ok_or(AttestationError::UntrustedAk)?;
        let body = encode_certs(self.blade.ek_public(), &ek_cert, &ak_cert);
        let session = self.session.as_mut().ok_or(AttestationError::OutOfOrder)?;
        Ok(session.seal(&body))
    }

    /// Steps ③+④: answers an encrypted challenge with the encrypted
    /// signed report.
    ///
    /// # Errors
    ///
    /// Decryption failures and out-of-order calls.
    pub fn answer_challenge(
        &mut self,
        challenge: &SealedMessage,
    ) -> Result<SealedMessage, AttestationError> {
        let session = self.session.as_mut().ok_or(AttestationError::OutOfOrder)?;
        let plain = session.open(challenge)?;
        let (selection, nonce) = decode_challenge(&plain)?;
        let quote = self.blade.quote(&selection, nonce);
        let body = encode_quote(&quote);
        Ok(session.seal(&body))
    }

    /// Consumes the platform, returning the blade (for post-attestation
    /// key management).
    pub fn into_blade(self) -> HrotBlade {
        self.blade
    }
}

/// The remote verifier side.
pub struct Verifier {
    root_ca: SchnorrPublic,
    dh: DhKeyPair,
    session: Option<Session>,
    golden_pcrs: HashMap<usize, Digest>,
    expected_nonce: Option<[u8; 32]>,
    verified_ak: Option<SchnorrPublic>,
}

impl fmt::Debug for Verifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Verifier")
            .field("golden_pcrs", &self.golden_pcrs.len())
            .field("session", &self.session.is_some())
            .finish()
    }
}

impl Verifier {
    /// Creates a verifier trusting `root_ca` and expecting `golden_pcrs`.
    ///
    /// # Panics
    ///
    /// Panics if entropy is under 32 bytes.
    pub fn new(
        root_ca: SchnorrPublic,
        dh_entropy: &[u8],
        golden_pcrs: HashMap<usize, Digest>,
    ) -> Verifier {
        Verifier {
            root_ca,
            dh: DhKeyPair::generate(dh_entropy),
            session: None,
            golden_pcrs,
            expected_nonce: None,
            verified_ak: None,
        }
    }

    /// Step ① (verifier half): our DH public value.
    pub fn dh_public(&self) -> DhPublic {
        self.dh.public().clone()
    }

    /// Completes the key exchange with the platform's value.
    ///
    /// # Errors
    ///
    /// [`AttestationError::BadKeyExchange`] on an invalid peer value.
    pub fn complete_key_exchange(
        &mut self,
        platform_pub: &DhPublic,
    ) -> Result<(), AttestationError> {
        let key = self
            .dh
            .agree(platform_pub)
            .map_err(|_| AttestationError::BadKeyExchange)?;
        self.session = Some(Session::new(key, 0x5c5c_0001));
        Ok(())
    }

    /// Step ②: validates the certificate chain EK←CA, AK←EK.
    ///
    /// # Errors
    ///
    /// Certificate-chain failures, decryption failures, ordering.
    pub fn check_certificates(&mut self, msg: &SealedMessage) -> Result<(), AttestationError> {
        let session = self.session.as_ref().ok_or(AttestationError::OutOfOrder)?;
        let plain = session.open(msg)?;
        let (ek_pub, ek_cert, ak_cert) = decode_certs(&plain)?;
        if !ek_cert.verify(&self.root_ca) {
            return Err(AttestationError::UntrustedEk);
        }
        if ek_cert.subject_key != ek_pub.to_bytes() {
            return Err(AttestationError::UntrustedEk);
        }
        if !ak_cert.verify(&ek_pub) {
            return Err(AttestationError::UntrustedAk);
        }
        let ak = SchnorrPublic::from_bytes(&ak_cert.subject_key);
        self.verified_ak = Some(ak.ok_or(AttestationError::UntrustedAk)?);
        Ok(())
    }

    /// Step ③: builds the encrypted challenge (PCR selection + nonce).
    ///
    /// # Errors
    ///
    /// [`AttestationError::OutOfOrder`] before certificates verified.
    pub fn challenge(
        &mut self,
        selection: &[usize],
        nonce: [u8; 32],
    ) -> Result<SealedMessage, AttestationError> {
        if self.verified_ak.is_none() {
            return Err(AttestationError::OutOfOrder);
        }
        self.expected_nonce = Some(nonce);
        let body = encode_challenge(selection, &nonce);
        let session = self.session.as_mut().ok_or(AttestationError::OutOfOrder)?;
        Ok(session.seal(&body))
    }

    /// Step ④: validates the report — nonce, AK signature, and golden
    /// PCR values.
    ///
    /// # Errors
    ///
    /// Any verification failure.
    pub fn check_report(&mut self, msg: &SealedMessage) -> Result<(), AttestationError> {
        let session = self.session.as_ref().ok_or(AttestationError::OutOfOrder)?;
        let plain = session.open(msg)?;
        let quote = decode_quote(&plain)?;
        let expected_nonce = self.expected_nonce.ok_or(AttestationError::OutOfOrder)?;
        if quote.nonce != expected_nonce {
            return Err(AttestationError::NonceMismatch);
        }
        let ak = self.verified_ak.as_ref().ok_or(AttestationError::OutOfOrder)?;
        if !ak.verify(&Quote::signed_bytes(&quote.nonce, &quote.pcrs), &quote.signature) {
            return Err(AttestationError::BadQuoteSignature);
        }
        for (index, value) in &quote.pcrs {
            if let Some(golden) = self.golden_pcrs.get(index) {
                if golden != value {
                    return Err(AttestationError::PcrMismatch { index: *index });
                }
            }
        }
        Ok(())
    }
}

/// Runs the full four-step protocol in one call (the common case for
/// tests and examples). Returns `Ok(())` when the verifier accepts.
///
/// # Errors
///
/// Propagates the first failure from either side.
pub fn run_protocol(
    verifier: &mut Verifier,
    platform: &mut Platform,
    selection: &[usize],
    nonce: [u8; 32],
) -> Result<(), AttestationError> {
    let platform_pub = platform.key_exchange(&verifier.dh_public())?;
    verifier.complete_key_exchange(&platform_pub)?;
    let certs = platform.certificates()?;
    verifier.check_certificates(&certs)?;
    let challenge = verifier.challenge(selection, nonce)?;
    let report = platform.answer_challenge(&challenge)?;
    verifier.check_report(&report)
}

// ---- wire encoding (length-prefixed fields) ----

fn put_field(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_be_bytes());
    out.extend_from_slice(data);
}

fn get_field<'a>(data: &mut &'a [u8]) -> Result<&'a [u8], AttestationError> {
    if data.len() < 4 {
        return Err(AttestationError::BadSessionCiphertext);
    }
    let len = u32::from_be_bytes([data[0], data[1], data[2], data[3]]) as usize;
    if data.len() < 4 + len {
        return Err(AttestationError::BadSessionCiphertext);
    }
    let (field, rest) = data[4..].split_at(len);
    *data = rest;
    Ok(field)
}

fn encode_certs(ek: &SchnorrPublic, ek_cert: &KeyCertificate, ak_cert: &KeyCertificate) -> Vec<u8> {
    let mut out = Vec::new();
    put_field(&mut out, &ek.to_bytes());
    put_field(&mut out, &ek_cert.subject_key);
    put_field(&mut out, ek_cert.label.as_bytes());
    put_field(&mut out, &ek_cert.signature.to_bytes());
    put_field(&mut out, &ak_cert.subject_key);
    put_field(&mut out, ak_cert.label.as_bytes());
    put_field(&mut out, &ak_cert.signature.to_bytes());
    out
}

fn decode_certs(
    mut data: &[u8],
) -> Result<(SchnorrPublic, KeyCertificate, KeyCertificate), AttestationError> {
    let ek_bytes = get_field(&mut data)?.to_vec();
    let ek_subject = get_field(&mut data)?.to_vec();
    let ek_label = String::from_utf8_lossy(get_field(&mut data)?).into_owned();
    let ek_sig = ccai_crypto::Signature::from_bytes(get_field(&mut data)?)
        .ok_or(AttestationError::BadSessionCiphertext)?;
    let ak_subject = get_field(&mut data)?.to_vec();
    let ak_label = String::from_utf8_lossy(get_field(&mut data)?).into_owned();
    let ak_sig = ccai_crypto::Signature::from_bytes(get_field(&mut data)?)
        .ok_or(AttestationError::BadSessionCiphertext)?;
    Ok((
        SchnorrPublic::from_bytes(&ek_bytes).ok_or(AttestationError::UntrustedEk)?,
        KeyCertificate { subject_key: ek_subject, label: ek_label, signature: ek_sig },
        KeyCertificate { subject_key: ak_subject, label: ak_label, signature: ak_sig },
    ))
}

fn encode_challenge(selection: &[usize], nonce: &[u8; 32]) -> Vec<u8> {
    let mut out = Vec::new();
    let sel_bytes: Vec<u8> = selection.iter().map(|&i| i as u8).collect();
    put_field(&mut out, &sel_bytes);
    put_field(&mut out, nonce);
    out
}

fn decode_challenge(mut data: &[u8]) -> Result<(Vec<usize>, [u8; 32]), AttestationError> {
    let selection: Vec<usize> = get_field(&mut data)?.iter().map(|&b| b as usize).collect();
    Ok((selection, get_nonce(&mut data)?))
}

fn encode_quote(quote: &Quote) -> Vec<u8> {
    let mut out = Vec::new();
    put_field(&mut out, &quote.nonce);
    let mut pcr_bytes = Vec::new();
    for (index, digest) in &quote.pcrs {
        pcr_bytes.push(*index as u8);
        pcr_bytes.extend_from_slice(digest.as_bytes());
    }
    put_field(&mut out, &pcr_bytes);
    put_field(&mut out, &quote.signature.to_bytes());
    out
}

fn get_nonce(data: &mut &[u8]) -> Result<[u8; 32], AttestationError> {
    get_field(data)?.try_into().map_err(|_| AttestationError::BadSessionCiphertext)
}

fn decode_quote(mut data: &[u8]) -> Result<Quote, AttestationError> {
    let nonce = get_nonce(&mut data)?;
    let pcr_bytes = get_field(&mut data)?;
    if pcr_bytes.len() % 33 != 0 {
        return Err(AttestationError::BadSessionCiphertext);
    }
    let pcrs = pcr_bytes
        .chunks_exact(33)
        .map(|chunk| {
            let mut digest = [0u8; 32];
            digest.copy_from_slice(&chunk[1..]);
            (chunk[0] as usize, Digest(digest))
        })
        .collect();
    let signature = ccai_crypto::Signature::from_bytes(get_field(&mut data)?)
        .ok_or(AttestationError::BadSessionCiphertext)?;
    Ok(Quote { nonce, pcrs, signature })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hrot::KeyCertificate;
    use crate::pcr::PcrIndex;
    use ccai_crypto::SchnorrKeyPair;

    struct Fixture {
        verifier: Verifier,
        platform: Platform,
    }

    fn fixture(golden_matches: bool) -> Fixture {
        let vendor_ca = SchnorrKeyPair::generate(&[0x01; 32]);

        let mut blade = HrotBlade::manufacture(&[0x02; 32]);
        let ek_cert = KeyCertificate::issue(&vendor_ca, "EK", blade.ek_public());
        blade.install_ek_certificate(ek_cert);
        blade.boot_generate_ak(&[0x03; 32]);
        blade.pcrs_mut().extend_assigned(PcrIndex::ScBitstream, b"bitstream v1");

        let mut golden = HashMap::new();
        let value = if golden_matches {
            blade.pcrs().read_assigned(PcrIndex::ScBitstream)
        } else {
            Digest([0xEE; 32])
        };
        golden.insert(PcrIndex::ScBitstream.index(), value);

        let platform = Platform::new(blade, &[0x04; 32]);
        let verifier = Verifier::new(vendor_ca.public().clone(), &[0x05; 32], golden);
        Fixture { verifier, platform }
    }

    #[test]
    fn full_protocol_succeeds() {
        let mut f = fixture(true);
        run_protocol(&mut f.verifier, &mut f.platform, &[1], [9u8; 32]).unwrap();
    }

    #[test]
    fn pcr_mismatch_detected() {
        let mut f = fixture(false);
        assert_eq!(
            run_protocol(&mut f.verifier, &mut f.platform, &[1], [9u8; 32]),
            Err(AttestationError::PcrMismatch { index: 1 })
        );
    }

    #[test]
    fn untrusted_ca_rejected() {
        let mut f = fixture(true);
        // A verifier trusting a different root.
        let other_ca = SchnorrKeyPair::generate(&[0x77; 32]);
        let mut verifier = Verifier::new(other_ca.public().clone(), &[0x05; 32], HashMap::new());
        assert_eq!(
            run_protocol(&mut verifier, &mut f.platform, &[1], [9u8; 32]),
            Err(AttestationError::UntrustedEk)
        );
    }

    #[test]
    fn replayed_report_with_wrong_nonce_rejected() {
        let mut f = fixture(true);
        let platform_pub = f.platform.key_exchange(&f.verifier.dh_public()).unwrap();
        f.verifier.complete_key_exchange(&platform_pub).unwrap();
        let certs = f.platform.certificates().unwrap();
        f.verifier.check_certificates(&certs).unwrap();

        // Platform answers a challenge with nonce A...
        let challenge_a = f.verifier.challenge(&[1], [0xAA; 32]).unwrap();
        let report_a = f.platform.answer_challenge(&challenge_a).unwrap();
        f.verifier.check_report(&report_a).unwrap();

        // ...replaying that report against a new challenge must fail.
        let _challenge_b = f.verifier.challenge(&[1], [0xBB; 32]).unwrap();
        assert_eq!(
            f.verifier.check_report(&report_a),
            Err(AttestationError::NonceMismatch)
        );
    }

    #[test]
    fn messages_are_confidential() {
        let mut f = fixture(true);
        let platform_pub = f.platform.key_exchange(&f.verifier.dh_public()).unwrap();
        f.verifier.complete_key_exchange(&platform_pub).unwrap();
        let certs = f.platform.certificates().unwrap();
        // Ciphertext must not contain the EK bytes in clear.
        let ek_bytes = {
            let mut f2 = fixture(true);
            let _ = f2.platform.key_exchange(&f2.verifier.dh_public());
            f2.platform.into_blade().ek_public().to_bytes()
        };
        let hay = &certs.body;
        assert!(
            !hay.windows(ek_bytes.len().min(16)).any(|w| w == &ek_bytes[..16.min(ek_bytes.len())]),
            "certificate message leaks EK bytes in cleartext"
        );
        f.verifier.check_certificates(&certs).unwrap();
    }

    #[test]
    fn tampered_message_rejected() {
        let mut f = fixture(true);
        let platform_pub = f.platform.key_exchange(&f.verifier.dh_public()).unwrap();
        f.verifier.complete_key_exchange(&platform_pub).unwrap();
        let mut certs = f.platform.certificates().unwrap();
        let len = certs.body.len();
        certs.body[len / 2] ^= 1;
        assert_eq!(
            f.verifier.check_certificates(&certs),
            Err(AttestationError::BadSessionCiphertext)
        );
    }

    #[test]
    fn out_of_order_calls_rejected() {
        let mut f = fixture(true);
        assert_eq!(f.platform.certificates().unwrap_err(), AttestationError::OutOfOrder);
        assert_eq!(
            f.verifier.challenge(&[1], [0u8; 32]).unwrap_err(),
            AttestationError::OutOfOrder
        );
    }
}
