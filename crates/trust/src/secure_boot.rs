//! Secure boot of the PCIe-SC (§6).
//!
//! "The HRoT-Blade decrypts the PCIe-SC's bitstream file (e.g., Packet
//! Filter) and firmware stored in an external flash memory, then measures
//! the integrity of each component via a pre-defined chain of trust."
//! Measurements land in PCRs; only if every component matches its golden
//! value does the blade hand the binaries to the boot loader.

use crate::hrot::HrotBlade;
use crate::pcr::PcrIndex;
use ccai_crypto::{sha256, AesGcm, Digest, Key};
use std::fmt;

/// A component image stored encrypted in external flash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashImage {
    /// Component name ("packet-filter", "sc-firmware", …).
    pub name: String,
    /// AES-GCM nonce used when the vendor provisioned the image.
    pub nonce: [u8; 12],
    /// Ciphertext ‖ tag.
    pub sealed: Vec<u8>,
}

impl FlashImage {
    /// Provisions an image into flash form under the flash key.
    pub fn provision(name: &str, plaintext: &[u8], flash_key: &Key, nonce: [u8; 12]) -> Self {
        let cipher = AesGcm::new(flash_key);
        FlashImage {
            name: name.to_string(),
            nonce,
            sealed: cipher.seal(&nonce, plaintext, name.as_bytes()),
        }
    }
}

/// One step in the pre-defined chain of trust: which image, which PCR it
/// extends, and its golden measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStep {
    /// Flash image name to load.
    pub image_name: String,
    /// The PCR this component extends.
    pub pcr: PcrIndex,
    /// The expected SHA-256 of the decrypted image.
    pub golden: Digest,
}

/// Errors from the boot process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootError {
    /// An image named in the chain is missing from flash.
    MissingImage(String),
    /// Decryption/authentication of a flash image failed (tampered flash).
    DecryptFailed(String),
    /// A decrypted image's measurement did not match the golden value.
    MeasurementMismatch {
        /// The failing component.
        name: String,
        /// Measurement actually computed.
        got: Digest,
        /// Golden value expected.
        expected: Digest,
    },
}

impl fmt::Display for BootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootError::MissingImage(name) => write!(f, "flash image missing: {name}"),
            BootError::DecryptFailed(name) => {
                write!(f, "flash image failed authentication: {name}")
            }
            BootError::MeasurementMismatch { name, .. } => {
                write!(f, "measurement mismatch for component: {name}")
            }
        }
    }
}

impl std::error::Error for BootError {}

/// The secure-boot driver.
#[derive(Debug)]
pub struct SecureBoot {
    flash_key: Key,
    chain: Vec<ChainStep>,
}

impl SecureBoot {
    /// Creates a boot driver with the flash decryption key and the
    /// pre-defined chain of trust.
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty.
    pub fn new(flash_key: Key, chain: Vec<ChainStep>) -> Self {
        assert!(!chain.is_empty(), "empty chain of trust");
        SecureBoot { flash_key, chain }
    }

    /// Convenience: builds the two-step PCIe-SC chain (bitstream +
    /// firmware) with golden values computed from the authentic images.
    pub fn for_pcie_sc(flash_key: Key, bitstream: &[u8], firmware: &[u8]) -> Self {
        Self::new(
            flash_key,
            vec![
                ChainStep {
                    image_name: "packet-filter-bitstream".to_string(),
                    pcr: PcrIndex::ScBitstream,
                    golden: sha256(bitstream),
                },
                ChainStep {
                    image_name: "sc-firmware".to_string(),
                    pcr: PcrIndex::ScFirmware,
                    golden: sha256(firmware),
                },
            ],
        )
    }

    /// Runs the boot: decrypt each image, measure, extend the PCR, check
    /// against gold. Returns the decrypted images ready for the loader.
    ///
    /// PCRs are extended with whatever was *actually measured* before the
    /// golden check — a failed boot still leaves attestable evidence.
    ///
    /// # Errors
    ///
    /// Any [`BootError`] aborts the boot; no image is released.
    pub fn boot(
        &self,
        blade: &mut HrotBlade,
        flash: &[FlashImage],
    ) -> Result<Vec<(String, Vec<u8>)>, BootError> {
        let cipher = AesGcm::new(&self.flash_key);
        let mut loaded = Vec::with_capacity(self.chain.len());
        let mut ok = true;
        let mut first_error = None;

        for step in &self.chain {
            let image = flash
                .iter()
                .find(|img| img.name == step.image_name)
                .ok_or_else(|| BootError::MissingImage(step.image_name.clone()))?;
            let plaintext = cipher
                .open(&image.nonce, &image.sealed, image.name.as_bytes())
                .map_err(|_| BootError::DecryptFailed(image.name.clone()))?;
            let measurement = sha256(&plaintext);
            blade.pcrs_mut().extend(step.pcr.index(), &measurement);
            if measurement != step.golden {
                ok = false;
                first_error.get_or_insert(BootError::MeasurementMismatch {
                    name: step.image_name.clone(),
                    got: measurement,
                    expected: step.golden,
                });
            }
            loaded.push((step.image_name.clone(), plaintext));
        }

        if ok {
            Ok(loaded)
        } else {
            Err(first_error.expect("error recorded"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blade() -> HrotBlade {
        HrotBlade::manufacture(&[0xAA; 32])
    }

    fn flash_key() -> Key {
        Key::Aes128([0x42; 16])
    }

    fn provision() -> (SecureBoot, Vec<FlashImage>) {
        let bitstream = b"packet filter LUTs".to_vec();
        let firmware = b"sc management firmware".to_vec();
        let boot = SecureBoot::for_pcie_sc(flash_key(), &bitstream, &firmware);
        let flash = vec![
            FlashImage::provision("packet-filter-bitstream", &bitstream, &flash_key(), [1; 12]),
            FlashImage::provision("sc-firmware", &firmware, &flash_key(), [2; 12]),
        ];
        (boot, flash)
    }

    #[test]
    fn clean_boot_loads_and_extends_pcrs() {
        let (boot, flash) = provision();
        let mut blade = blade();
        let loaded = boot.boot(&mut blade, &flash).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].1, b"packet filter LUTs");
        // Both PCRs moved off zero.
        assert_ne!(
            blade.pcrs().read_assigned(PcrIndex::ScBitstream),
            Digest([0u8; 32])
        );
        assert_ne!(
            blade.pcrs().read_assigned(PcrIndex::ScFirmware),
            Digest([0u8; 32])
        );
    }

    #[test]
    fn boot_is_reproducible_in_pcrs() {
        let (boot, flash) = provision();
        let mut a = blade();
        let mut b = blade();
        boot.boot(&mut a, &flash).unwrap();
        boot.boot(&mut b, &flash).unwrap();
        assert_eq!(a.pcrs().composite(&[1, 2]), b.pcrs().composite(&[1, 2]));
    }

    #[test]
    fn tampered_flash_fails_authentication() {
        let (boot, mut flash) = provision();
        let last = flash[0].sealed.len() - 20;
        flash[0].sealed[last] ^= 0x01;
        let mut blade = blade();
        assert_eq!(
            boot.boot(&mut blade, &flash),
            Err(BootError::DecryptFailed("packet-filter-bitstream".to_string()))
        );
    }

    #[test]
    fn swapped_image_fails_golden_check() {
        let (boot, _) = provision();
        // Provision flash with a *different* (attacker) bitstream under the
        // correct flash key — decryption succeeds, measurement must not.
        let flash = vec![
            FlashImage::provision(
                "packet-filter-bitstream",
                b"evil bitstream",
                &flash_key(),
                [1; 12],
            ),
            FlashImage::provision("sc-firmware", b"sc management firmware", &flash_key(), [2; 12]),
        ];
        let mut blade = blade();
        match boot.boot(&mut blade, &flash) {
            Err(BootError::MeasurementMismatch { name, .. }) => {
                assert_eq!(name, "packet-filter-bitstream");
            }
            other => panic!("expected measurement mismatch, got {other:?}"),
        }
        // The bad measurement is attestable: PCR differs from a clean boot.
        let (boot2, good_flash) = provision();
        let mut clean = super::tests::blade();
        boot2.boot(&mut clean, &good_flash).unwrap();
        assert_ne!(
            blade.pcrs().read_assigned(PcrIndex::ScBitstream),
            clean.pcrs().read_assigned(PcrIndex::ScBitstream)
        );
    }

    #[test]
    fn missing_image_reported() {
        let (boot, mut flash) = provision();
        flash.remove(1);
        let mut blade = blade();
        assert_eq!(
            boot.boot(&mut blade, &flash),
            Err(BootError::MissingImage("sc-firmware".to_string()))
        );
    }

    #[test]
    #[should_panic(expected = "empty chain")]
    fn empty_chain_rejected() {
        let _ = SecureBoot::new(flash_key(), Vec::new());
    }
}
