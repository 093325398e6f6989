//! The HRoT-Blade: ccAI's hardware root of trust for the PCIe-SC side.
//!
//! Per §6: the Endorsement Key (EK) is "pre-installed by the vendor
//! during manufacturing, while the AK is randomly generated at system
//! boot". Both live inside the blade; quotes sign selected PCRs together
//! with the verifier's nonce. In the prototype the blade runs on the
//! FPGA's embedded Cortex-A53 hard processor system (Table 3).

use crate::pcr::PcrBank;
use ccai_crypto::{SchnorrKeyPair, SchnorrPublic, Sha256, Signature};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A signed PCR quote: the report `r = (nonce, PCRs, S(PCRs))` of Fig. 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Quote {
    /// The verifier's anti-replay nonce, echoed back.
    pub nonce: [u8; 32],
    /// The selected registers and their values.
    pub pcrs: Vec<(usize, ccai_crypto::Digest)>,
    /// AK signature over `nonce ‖ composite(pcrs)`.
    pub signature: Signature,
}

impl Quote {
    /// The exact bytes the AK signs.
    pub fn signed_bytes(nonce: &[u8; 32], pcrs: &[(usize, ccai_crypto::Digest)]) -> Vec<u8> {
        let mut h = Sha256::new();
        h.update(nonce);
        for (index, digest) in pcrs {
            h.update(&(*index as u32).to_be_bytes());
            h.update(digest.as_bytes());
        }
        h.finalize().as_bytes().to_vec()
    }
}

/// A certificate binding a subject key to an issuer signature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyCertificate {
    /// The certified public key, serialized.
    pub subject_key: Vec<u8>,
    /// A label describing the subject ("EK", "AK").
    pub label: String,
    /// Issuer signature over `label ‖ subject_key`.
    pub signature: Signature,
}

impl KeyCertificate {
    /// Issues a certificate over `subject` with `issuer`'s key.
    pub fn issue(issuer: &SchnorrKeyPair, label: &str, subject: &SchnorrPublic) -> Self {
        let subject_key = subject.to_bytes().to_vec();
        let signature = issuer.sign(&Self::signed_bytes(label, &subject_key));
        KeyCertificate { subject_key, label: label.to_string(), signature }
    }

    /// Verifies the certificate against the issuer's public key.
    pub fn verify(&self, issuer: &SchnorrPublic) -> bool {
        issuer.verify(&Self::signed_bytes(&self.label, &self.subject_key), &self.signature)
    }

    fn signed_bytes(label: &str, subject_key: &[u8]) -> Vec<u8> {
        let mut data = Vec::with_capacity(label.len() + 1 + subject_key.len());
        data.extend_from_slice(label.as_bytes());
        data.push(0);
        data.extend_from_slice(subject_key);
        data
    }
}

/// The hardware root-of-trust blade.
pub struct HrotBlade {
    ek: SchnorrKeyPair,
    ek_cert: Option<KeyCertificate>,
    ak: Option<SchnorrKeyPair>,
    ak_cert: Option<KeyCertificate>,
    pcrs: PcrBank,
}

impl fmt::Debug for HrotBlade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HrotBlade")
            .field("booted", &self.ak.is_some())
            .field("pcr_extensions", &self.pcrs.extensions())
            .finish()
    }
}

impl HrotBlade {
    /// "Manufactures" a blade: installs a fresh EK derived from vendor
    /// entropy. The EK certificate is issued separately by the vendor CA
    /// via [`HrotBlade::install_ek_certificate`].
    ///
    /// # Panics
    ///
    /// Panics if `vendor_entropy` is shorter than 32 bytes.
    pub fn manufacture(vendor_entropy: &[u8]) -> HrotBlade {
        HrotBlade {
            ek: SchnorrKeyPair::generate(vendor_entropy),
            ek_cert: None,
            ak: None,
            ak_cert: None,
            pcrs: PcrBank::new(),
        }
    }

    /// The EK public key.
    pub fn ek_public(&self) -> &SchnorrPublic {
        self.ek.public()
    }

    /// Installs the vendor-CA-issued EK certificate.
    pub fn install_ek_certificate(&mut self, cert: KeyCertificate) {
        self.ek_cert = Some(cert);
    }

    /// The EK certificate, if installed.
    pub fn ek_certificate(&self) -> Option<&KeyCertificate> {
        self.ek_cert.as_ref()
    }

    /// Boot-time AK generation: a fresh AK is derived from boot entropy
    /// and certified by the EK.
    ///
    /// # Panics
    ///
    /// Panics if `boot_entropy` is shorter than 32 bytes.
    pub fn boot_generate_ak(&mut self, boot_entropy: &[u8]) {
        let ak = SchnorrKeyPair::generate(boot_entropy);
        let cert = KeyCertificate::issue(&self.ek, "AK", ak.public());
        self.ak = Some(ak);
        self.ak_cert = Some(cert);
    }

    /// The AK public key (after boot).
    pub fn ak_public(&self) -> Option<&SchnorrPublic> {
        self.ak.as_ref().map(SchnorrKeyPair::public)
    }

    /// The EK-issued AK certificate (after boot).
    pub fn ak_certificate(&self) -> Option<&KeyCertificate> {
        self.ak_cert.as_ref()
    }

    /// The PCR bank.
    pub fn pcrs(&self) -> &PcrBank {
        &self.pcrs
    }

    /// Mutable PCR bank (secure boot and sensors extend through this).
    pub fn pcrs_mut(&mut self) -> &mut PcrBank {
        &mut self.pcrs
    }

    /// Produces a signed quote over `selection` with the verifier's
    /// `nonce` (Fig. 6 step: `S(PCRs) = Sign_AttestKey(PCRs)` combined
    /// with the nonce into the report).
    ///
    /// # Panics
    ///
    /// Panics if called before [`HrotBlade::boot_generate_ak`] or with an
    /// empty selection.
    pub fn quote(&self, selection: &[usize], nonce: [u8; 32]) -> Quote {
        let ak = self.ak.as_ref().expect("AK generated at boot");
        let pcrs = self.pcrs.snapshot(selection);
        assert!(!pcrs.is_empty(), "empty PCR selection");
        let signature = ak.sign(&Quote::signed_bytes(&nonce, &pcrs));
        Quote { nonce, pcrs, signature }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcr::PcrIndex;

    fn blade() -> HrotBlade {
        let mut blade = HrotBlade::manufacture(&[0xAA; 32]);
        blade.boot_generate_ak(&[0xBB; 32]);
        blade
    }

    #[test]
    fn ak_certified_by_ek() {
        let blade = blade();
        let cert = blade.ak_certificate().unwrap();
        assert!(cert.verify(blade.ek_public()));
        assert_eq!(cert.label, "AK");
    }

    #[test]
    fn quote_verifies_under_ak() {
        let mut blade = blade();
        blade.pcrs_mut().extend_assigned(PcrIndex::ScBitstream, b"bitstream");
        let nonce = [7u8; 32];
        let quote = blade.quote(&[1, 2], nonce);
        let ak = blade.ak_public().unwrap();
        assert!(ak.verify(&Quote::signed_bytes(&quote.nonce, &quote.pcrs), &quote.signature));
    }

    #[test]
    fn quote_binds_nonce() {
        let blade = blade();
        let quote = blade.quote(&[0], [1u8; 32]);
        let ak = blade.ak_public().unwrap();
        // Substituting a different nonce invalidates the signature.
        assert!(!ak.verify(&Quote::signed_bytes(&[2u8; 32], &quote.pcrs), &quote.signature));
    }

    #[test]
    fn quote_binds_pcr_values() {
        let mut blade = blade();
        let quote = blade.quote(&[1], [1u8; 32]);
        blade.pcrs_mut().extend_assigned(PcrIndex::ScBitstream, b"changed");
        let fresh = blade.pcrs().snapshot(&[1]);
        let ak = blade.ak_public().unwrap();
        assert!(!ak.verify(&Quote::signed_bytes(&quote.nonce, &fresh), &quote.signature));
    }

    #[test]
    fn ek_cert_chain() {
        let vendor_ca = SchnorrKeyPair::generate(&[0xCC; 32]);
        let mut blade = HrotBlade::manufacture(&[0xAA; 32]);
        let cert = KeyCertificate::issue(&vendor_ca, "EK", blade.ek_public());
        blade.install_ek_certificate(cert);
        assert!(blade.ek_certificate().unwrap().verify(vendor_ca.public()));
        // A different CA does not validate it.
        let other_ca = SchnorrKeyPair::generate(&[0xDD; 32]);
        assert!(!blade.ek_certificate().unwrap().verify(other_ca.public()));
    }

    #[test]
    #[should_panic(expected = "AK generated at boot")]
    fn quote_before_boot_panics() {
        let blade = HrotBlade::manufacture(&[0xAA; 32]);
        let _ = blade.quote(&[0], [0u8; 32]);
    }

    #[test]
    fn aks_differ_across_boots() {
        let mut blade = HrotBlade::manufacture(&[0xAA; 32]);
        blade.boot_generate_ak(&[1u8; 32]);
        let ak1 = blade.ak_public().unwrap().to_bytes();
        blade.boot_generate_ak(&[2u8; 32]);
        let ak2 = blade.ak_public().unwrap().to_bytes();
        assert_ne!(ak1, ak2);
    }
}
