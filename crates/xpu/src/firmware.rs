//! xPU firmware images and vendor signatures.
//!
//! The threat model trusts xPU firmware integrity (§2.2), and the secure
//! boot / attestation path leverages the fact that "today's xPUs support
//! firmware signature checking" (§8.2). Each simulated device ships a
//! firmware image whose SHA-256 measurement is Schnorr-signed by its
//! vendor; `ccai-trust` verifies the signature during attestation and the
//! security tests tamper with images to prove detection.

use ccai_crypto::{sha256, Digest, SchnorrKeyPair, SchnorrPublic, Signature};
use std::fmt;

/// A firmware image with its vendor signature.
#[derive(Clone)]
pub struct Firmware {
    version: String,
    image: Vec<u8>,
    measurement: Digest,
    signature: Signature,
    vendor_key: SchnorrPublic,
}

impl fmt::Debug for Firmware {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Firmware")
            .field("version", &self.version)
            .field("bytes", &self.image.len())
            .field("measurement", &self.measurement)
            .finish()
    }
}

impl Firmware {
    /// Builds and signs a firmware image with the vendor's signing key.
    pub fn build_signed(version: &str, image: Vec<u8>, vendor: &SchnorrKeyPair) -> Firmware {
        let measurement = measure(version, &image);
        let signature = vendor.sign(measurement.as_bytes());
        Firmware {
            version: version.to_string(),
            image,
            measurement,
            signature,
            vendor_key: vendor.public().clone(),
        }
    }

    /// Firmware version string.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The raw image bytes.
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// SHA-256 measurement of version + image.
    pub fn measurement(&self) -> Digest {
        self.measurement
    }

    /// Verifies the vendor signature over a *freshly recomputed*
    /// measurement, so image tampering after signing is caught.
    pub fn verify(&self) -> bool {
        let fresh = measure(&self.version, &self.image);
        fresh == self.measurement && self.vendor_key.verify(fresh.as_bytes(), &self.signature)
    }

    /// Tampers with the image in place (for security tests).
    #[doc(hidden)]
    pub fn tamper(&mut self, byte: usize) {
        if !self.image.is_empty() {
            let idx = byte % self.image.len();
            self.image[idx] ^= 0xFF;
        }
    }
}

fn measure(version: &str, image: &[u8]) -> Digest {
    let mut data = Vec::with_capacity(version.len() + 1 + image.len());
    data.extend_from_slice(version.as_bytes());
    data.push(0);
    data.extend_from_slice(image);
    sha256(&data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vendor() -> SchnorrKeyPair {
        SchnorrKeyPair::generate(&[0x11; 32])
    }

    #[test]
    fn signed_firmware_verifies() {
        let fw = Firmware::build_signed("92.00.45.00.06", vec![1, 2, 3, 4], &vendor());
        assert!(fw.verify());
    }

    #[test]
    fn image_tamper_detected() {
        let mut fw = Firmware::build_signed("1.0", vec![0u8; 128], &vendor());
        fw.tamper(64);
        assert!(!fw.verify());
    }

    #[test]
    fn version_tamper_detected() {
        let fw = Firmware::build_signed("1.0", vec![7; 16], &vendor());
        // Re-assembling with a different version under the same signature
        // must fail.
        let forged = Firmware {
            version: "2.0-evil".to_string(),
            image: fw.image.clone(),
            measurement: fw.measurement,
            signature: fw.signature.clone(),
            vendor_key: fw.vendor_key.clone(),
        };
        assert!(!forged.verify());
    }

    #[test]
    fn wrong_vendor_key_detected() {
        let fw = Firmware::build_signed("1.0", vec![7; 16], &vendor());
        let other = SchnorrKeyPair::generate(&[0x22; 32]);
        let forged = Firmware {
            vendor_key: other.public().clone(),
            ..fw
        };
        assert!(!forged.verify());
    }

    #[test]
    fn measurement_binds_version_and_image() {
        let a = measure("1.0", b"image");
        let b = measure("1.1", b"image");
        let c = measure("1.0", b"imagf");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
