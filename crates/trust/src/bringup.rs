//! Attestation-gated bring-up order (§6 trust establishment, sequenced).
//!
//! The paper's security argument quietly assumes the PCIe-SC only passes
//! traffic *after* the platform walked the whole trust chain in order:
//! secure boot measured the bitstream/firmware, the remote verifier
//! accepted a quote over those measurements, workload keys were released
//! against the *same* measurements, the packet-filter tables were armed,
//! and only then does the device serve. Real GPU-CC deployments have
//! shipped bugs in exactly this sequencing (measure-then-release TOCTOU,
//! key release before attestation, serving before filter arm), so this
//! module makes the order an explicit state machine:
//!
//! ```text
//! PowerOn → SecureBooted → Attested → KeysReleased → FiltersArmed → Serving
//! ```
//!
//! Each transition consumes evidence from the existing machinery — the
//! decrypt-then-measure [`SecureBoot`] chain, the Fig. 6 attestation
//! protocol, the PCR composite at release time, a non-empty filter-table
//! digest — and every out-of-order or stale-evidence attempt is refused
//! with a typed [`BringUpError`] plus a `trust.bringup.*` telemetry
//! event, leaving the state unchanged (except the TOCTOU rollback, which
//! deliberately falls back to `SecureBooted`).

use crate::attest::{run_protocol, AttestationError, Platform, Verifier};
use crate::hrot::{HrotBlade, KeyCertificate};
use crate::pcr::{PcrBank, PcrIndex};
use crate::secure_boot::{BootError, FlashImage, SecureBoot};
use ccai_crypto::{Digest, Key, SchnorrKeyPair};
use ccai_sim::{Severity, Telemetry};
use std::collections::HashMap;
use std::fmt;

/// The ordered bring-up states. Exactly one path reaches
/// [`BringUpState::Serving`]: the five steps of [`BringUpStep::ALL`] in
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BringUpState {
    /// Power applied; nothing measured, nothing trusted.
    PowerOn,
    /// The flash images decrypted, measured into PCRs and matched gold.
    SecureBooted,
    /// A remote verifier accepted a signed quote over the boot PCRs.
    Attested,
    /// The workload master secret was released against fresh PCRs.
    KeysReleased,
    /// The packet-filter tables are installed and their digest recorded.
    FiltersArmed,
    /// The SC admits data traffic.
    Serving,
}

impl BringUpState {
    /// Stable lowercase name (telemetry detail strings).
    pub fn as_str(self) -> &'static str {
        match self {
            BringUpState::PowerOn => "power_on",
            BringUpState::SecureBooted => "secure_booted",
            BringUpState::Attested => "attested",
            BringUpState::KeysReleased => "keys_released",
            BringUpState::FiltersArmed => "filters_armed",
            BringUpState::Serving => "serving",
        }
    }
}

/// The five bring-up transitions, in their one legal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BringUpStep {
    /// Decrypt-then-measure boot of the SC images.
    SecureBoot,
    /// The Fig. 6 remote-attestation protocol.
    Attest,
    /// Release of the workload master secret.
    ReleaseKeys,
    /// Packet-filter table installation.
    ArmFilters,
    /// Open the traffic gate.
    Serve,
}

impl BringUpStep {
    /// All five steps in the single legal order.
    pub const ALL: [BringUpStep; 5] = [
        BringUpStep::SecureBoot,
        BringUpStep::Attest,
        BringUpStep::ReleaseKeys,
        BringUpStep::ArmFilters,
        BringUpStep::Serve,
    ];

    /// Stable lowercase name (telemetry detail strings).
    pub fn as_str(self) -> &'static str {
        match self {
            BringUpStep::SecureBoot => "secure_boot",
            BringUpStep::Attest => "attest",
            BringUpStep::ReleaseKeys => "release_keys",
            BringUpStep::ArmFilters => "arm_filters",
            BringUpStep::Serve => "serve",
        }
    }
}

/// Why a bring-up transition was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BringUpError {
    /// The step is not legal from the current state; the state is
    /// unchanged.
    OutOfOrder {
        /// The state the machine was in when the step was attempted.
        state: BringUpState,
        /// The step that was attempted.
        step: BringUpStep,
    },
    /// Secure boot failed (the PCRs still hold the attestable evidence).
    Boot(BootError),
    /// The remote verifier rejected the platform.
    Attestation(AttestationError),
    /// The PCR composite changed between attestation and key release
    /// (measure-vs-release TOCTOU); the machine rolled back to
    /// [`BringUpState::SecureBooted`].
    MeasurementDrift {
        /// The composite the verifier accepted.
        attested: Digest,
        /// The live composite at release time.
        live: Digest,
    },
    /// Evidence offered for the transition was missing or stale.
    StaleEvidence(&'static str),
}

impl fmt::Display for BringUpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BringUpError::OutOfOrder { state, step } => {
                write!(f, "step {} refused in state {}", step.as_str(), state.as_str())
            }
            BringUpError::Boot(e) => write!(f, "secure boot failed: {e}"),
            BringUpError::Attestation(e) => write!(f, "attestation failed: {e}"),
            BringUpError::MeasurementDrift { .. } => {
                write!(f, "PCR composite drifted between attestation and key release")
            }
            BringUpError::StaleEvidence(what) => write!(f, "stale bring-up evidence: {what}"),
        }
    }
}

impl std::error::Error for BringUpError {}

/// The attestation-gated bring-up state machine for one SC/device.
///
/// Owns the platform's [`HrotBlade`] for the duration of bring-up (the
/// blade temporarily moves into the attestation [`Platform`] and back,
/// mirroring how the HRoT fronts the protocol on real hardware).
pub struct BringUp {
    state: BringUpState,
    blade: Option<HrotBlade>,
    /// PCR indices whose composite gates key release (the attested set).
    selection: Vec<usize>,
    attested_composite: Option<Digest>,
    master: Option<[u8; 32]>,
    filter_digest: Option<String>,
    telemetry: Telemetry,
}

impl fmt::Debug for BringUp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BringUp")
            .field("state", &self.state.as_str())
            .field("selection", &self.selection)
            .finish()
    }
}

impl BringUp {
    /// Starts a bring-up at [`BringUpState::PowerOn`] around a
    /// manufactured (EK-certified, not-yet-booted) blade. `selection`
    /// names the PCRs whose composite gates key release.
    ///
    /// # Panics
    ///
    /// Panics if `selection` is empty — a bring-up that attests nothing
    /// gates nothing.
    pub fn new(blade: HrotBlade, selection: Vec<usize>, telemetry: Telemetry) -> BringUp {
        assert!(!selection.is_empty(), "empty PCR selection");
        BringUp {
            state: BringUpState::PowerOn,
            blade: Some(blade),
            selection,
            attested_composite: None,
            master: None,
            filter_digest: None,
            telemetry,
        }
    }

    /// The current state.
    pub fn state(&self) -> BringUpState {
        self.state
    }

    /// True once (and only while) the machine has reached
    /// [`BringUpState::Serving`].
    pub fn is_serving(&self) -> bool {
        self.state == BringUpState::Serving
    }

    /// The master secret released at [`BringUpStep::ReleaseKeys`] (None
    /// before that step, or after a rollback).
    pub fn master(&self) -> Option<[u8; 32]> {
        self.master
    }

    /// The blade's PCR bank (adversary hook for the TOCTOU battery:
    /// mutating a measurement after [`BringUpStep::Attest`] must block
    /// [`BringUpStep::ReleaseKeys`]).
    pub fn pcrs_mut(&mut self) -> &mut PcrBank {
        self.blade.as_mut().expect("blade present between transitions").pcrs_mut()
    }

    /// The blade's PCR bank, read-only.
    pub fn pcrs(&self) -> &PcrBank {
        self.blade.as_ref().expect("blade present between transitions").pcrs()
    }

    fn note(&self, severity: Severity, kind: &'static str, detail: String) {
        self.telemetry.record(severity, kind, None, None, detail);
    }

    fn refuse(&self, step: BringUpStep) -> BringUpError {
        self.note(
            Severity::Warn,
            "trust.bringup.refused",
            format!("step={} state={}", step.as_str(), self.state.as_str()),
        );
        BringUpError::OutOfOrder { state: self.state, step }
    }

    /// `PowerOn → SecureBooted`: generates the boot AK, then runs the
    /// decrypt-then-measure chain. A failed boot stays at `PowerOn` but
    /// leaves the actual measurements in the PCRs (attestable evidence).
    ///
    /// # Errors
    ///
    /// [`BringUpError::OutOfOrder`] from any state but `PowerOn`;
    /// [`BringUpError::Boot`] when an image is missing, fails to decrypt
    /// or mismatches gold.
    pub fn secure_boot(
        &mut self,
        driver: &SecureBoot,
        flash: &[FlashImage],
        boot_entropy: &[u8],
    ) -> Result<(), BringUpError> {
        if self.state != BringUpState::PowerOn {
            return Err(self.refuse(BringUpStep::SecureBoot));
        }
        let blade = self.blade.as_mut().expect("blade present between transitions");
        blade.boot_generate_ak(boot_entropy);
        if let Err(e) = driver.boot(blade, flash) {
            self.note(
                Severity::Error,
                "trust.bringup.boot_failed",
                format!("{e} (evidence left in PCRs)"),
            );
            return Err(BringUpError::Boot(e));
        }
        self.state = BringUpState::SecureBooted;
        self.note(
            Severity::Info,
            "trust.bringup.secure_boot",
            format!("chain measured into pcrs {:?}", self.selection),
        );
        Ok(())
    }

    /// `SecureBooted → Attested`: runs the Fig. 6 protocol against a
    /// remote verifier and pins the PCR composite the verifier accepted.
    ///
    /// # Errors
    ///
    /// [`BringUpError::OutOfOrder`] from any state but `SecureBooted`;
    /// [`BringUpError::Attestation`] when the verifier rejects (the
    /// machine stays at `SecureBooted`).
    pub fn attest(
        &mut self,
        verifier: &mut Verifier,
        dh_entropy: &[u8],
        nonce: [u8; 32],
    ) -> Result<(), BringUpError> {
        if self.state != BringUpState::SecureBooted {
            return Err(self.refuse(BringUpStep::Attest));
        }
        let blade = self.blade.take().expect("blade present between transitions");
        let mut platform = Platform::new(blade, dh_entropy);
        let outcome = run_protocol(verifier, &mut platform, &self.selection, nonce);
        let blade = platform.into_blade();
        let composite = blade.pcrs().composite(&self.selection);
        self.blade = Some(blade);
        if let Err(e) = outcome {
            self.note(Severity::Error, "trust.bringup.attest_failed", format!("{e}"));
            return Err(BringUpError::Attestation(e));
        }
        self.attested_composite = Some(composite);
        self.state = BringUpState::Attested;
        self.note(
            Severity::Info,
            "trust.bringup.attested",
            format!("composite={composite}"),
        );
        Ok(())
    }

    /// `Attested → KeysReleased`, with the measure-vs-release freshness
    /// check: the live PCR composite must still equal the composite the
    /// verifier accepted. On drift the machine *rolls back* to
    /// `SecureBooted` — the attestation evidence is void, no key
    /// material is handed out, and the platform must re-attest.
    ///
    /// # Errors
    ///
    /// [`BringUpError::OutOfOrder`] from any state but `Attested`;
    /// [`BringUpError::MeasurementDrift`] on TOCTOU.
    pub fn release_keys(&mut self, master: [u8; 32]) -> Result<(), BringUpError> {
        if self.state != BringUpState::Attested {
            return Err(self.refuse(BringUpStep::ReleaseKeys));
        }
        let attested = self.attested_composite.expect("pinned at attest");
        let live = self.pcrs().composite(&self.selection);
        if live != attested {
            self.state = BringUpState::SecureBooted;
            self.attested_composite = None;
            self.note(
                Severity::Error,
                "trust.bringup.toctou",
                format!("attested={attested} live={live} rollback=secure_booted"),
            );
            return Err(BringUpError::MeasurementDrift { attested, live });
        }
        self.master = Some(master);
        self.state = BringUpState::KeysReleased;
        self.note(Severity::Info, "trust.bringup.keys_released", format!("composite={live}"));
        Ok(())
    }

    /// `KeysReleased → FiltersArmed`: records the digest of the installed
    /// filter tables as the arming evidence.
    ///
    /// # Errors
    ///
    /// [`BringUpError::OutOfOrder`] from any state but `KeysReleased`;
    /// [`BringUpError::StaleEvidence`] on an empty digest (no tables
    /// actually installed).
    pub fn arm_filters(&mut self, filter_digest: &str) -> Result<(), BringUpError> {
        if self.state != BringUpState::KeysReleased {
            return Err(self.refuse(BringUpStep::ArmFilters));
        }
        if filter_digest.is_empty() {
            self.note(
                Severity::Error,
                "trust.bringup.arm_failed",
                "empty filter-table digest".to_string(),
            );
            return Err(BringUpError::StaleEvidence("empty filter-table digest"));
        }
        self.filter_digest = Some(filter_digest.to_string());
        self.state = BringUpState::FiltersArmed;
        self.note(
            Severity::Info,
            "trust.bringup.filters_armed",
            format!("digest_len={}", filter_digest.len()),
        );
        Ok(())
    }

    /// `FiltersArmed → Serving`: opens the traffic gate.
    ///
    /// # Errors
    ///
    /// [`BringUpError::OutOfOrder`] from any state but `FiltersArmed`.
    pub fn serve(&mut self) -> Result<(), BringUpError> {
        if self.state != BringUpState::FiltersArmed {
            return Err(self.refuse(BringUpStep::Serve));
        }
        self.state = BringUpState::Serving;
        self.note(Severity::Info, "trust.bringup.serving", "traffic gate open".to_string());
        Ok(())
    }

    /// Models a power cycle: every volatile trust artifact — PCR values,
    /// boot AK, attested composite, released master, filter digest — is
    /// discarded with the old blade, and the machine returns to
    /// `PowerOn` around `fresh_blade` (PCRs are volatile registers; a
    /// real power cycle zeroes them).
    pub fn reset(&mut self, fresh_blade: HrotBlade) {
        self.blade = Some(fresh_blade);
        self.attested_composite = None;
        self.master = None;
        self.filter_digest = None;
        self.state = BringUpState::PowerOn;
        self.note(Severity::Info, "trust.bringup.reset", "power cycle".to_string());
    }

    /// Drives one step against a [`TrustFixture`] environment — the
    /// permutation battery's uniform entry point.
    ///
    /// # Errors
    ///
    /// Whatever the underlying transition returns.
    pub fn apply(&mut self, step: BringUpStep, env: &mut TrustFixture) -> Result<(), BringUpError> {
        match step {
            BringUpStep::SecureBoot => self.secure_boot(&env.boot, &env.flash, &env.boot_entropy),
            BringUpStep::Attest => self.attest(&mut env.verifier, &env.dh_entropy, env.nonce),
            BringUpStep::ReleaseKeys => self.release_keys(env.master),
            BringUpStep::ArmFilters => {
                let digest = env.filter_digest.clone();
                self.arm_filters(&digest)
            }
            BringUpStep::Serve => self.serve(),
        }
    }
}

/// A fully deterministic trust environment for driving a [`BringUp`] to
/// completion in tests and in [`ConfidentialSystem`]-level bring-up:
/// provisioned flash, the secure-boot driver, a verifier already holding
/// the golden PCRs (computed by a reference boot), and fixed entropy for
/// every keyed operation. Same `seed` ⇒ bit-identical runs.
///
/// [`ConfidentialSystem`]: ../../ccai_core/struct.ConfidentialSystem.html
pub struct TrustFixture {
    /// The secure-boot driver (flash key + golden chain).
    pub boot: SecureBoot,
    /// Provisioned (encrypted) flash images.
    pub flash: Vec<FlashImage>,
    /// Remote verifier trusting the vendor CA, expecting the golden PCRs.
    pub verifier: Verifier,
    /// Boot entropy for AK generation.
    pub boot_entropy: [u8; 32],
    /// Platform-side DH entropy for the attestation session.
    pub dh_entropy: [u8; 32],
    /// The verifier's challenge nonce.
    pub nonce: [u8; 32],
    /// The master secret release hands out on success.
    pub master: [u8; 32],
    /// Stand-in filter-table digest for the arming step.
    pub filter_digest: String,
}

impl TrustFixture {
    /// Builds the machine (on `telemetry`) and its environment from one seed byte.
    ///
    /// The golden PCR values are computed by reference-booting a scratch
    /// blade with the same flash (PCR extension is a pure function of
    /// the measured bytes, so any fresh bank yields the same values).
    pub fn deterministic(seed: u8, telemetry: Telemetry) -> (BringUp, TrustFixture) {
        let vendor_ca = SchnorrKeyPair::generate(&[seed ^ 0x51; 32]);

        let bitstream = [b"packet filter LUTs rev ".as_slice(), &[seed]].concat();
        let firmware = [b"sc management firmware rev ".as_slice(), &[seed]].concat();
        let flash_key = || Key::Aes128([seed ^ 0x42; 16]);
        let boot = SecureBoot::for_pcie_sc(flash_key(), &bitstream, &firmware);
        let flash = vec![
            FlashImage::provision("packet-filter-bitstream", &bitstream, &flash_key(), [1; 12]),
            FlashImage::provision("sc-firmware", &firmware, &flash_key(), [2; 12]),
        ];

        let mut reference = HrotBlade::manufacture(&[seed ^ 0xA5; 32]);
        reference.boot_generate_ak(&[seed ^ 0xA6; 32]);
        boot.boot(&mut reference, &flash).expect("reference boot is clean");
        let selection = vec![PcrIndex::ScBitstream.index(), PcrIndex::ScFirmware.index()];
        let mut golden = HashMap::new();
        for &index in &selection {
            golden.insert(index, reference.pcrs().read(index));
        }

        let mut blade = HrotBlade::manufacture(&[seed ^ 0x02; 32]);
        let ek_cert = KeyCertificate::issue(&vendor_ca, "EK", blade.ek_public());
        blade.install_ek_certificate(ek_cert);

        let verifier = Verifier::new(vendor_ca.public().clone(), &[seed ^ 0x05; 32], golden);
        let bringup = BringUp::new(blade, selection, telemetry);
        let fixture = TrustFixture {
            boot,
            flash,
            verifier,
            boot_entropy: [seed ^ 0x03; 32],
            dh_entropy: [seed ^ 0x04; 32],
            nonce: [seed ^ 0x99; 32],
            master: [seed ^ 0x6D; 32],
            filter_digest: format!("sim-filter-tables-{seed:02x}"),
        };
        (bringup, fixture)
    }

    /// A fresh blade for [`BringUp::reset`] — manufactured with this
    /// fixture's vendor CA so re-attestation against the same verifier
    /// still validates the EK chain.
    pub fn fresh_blade(&self, seed: u8) -> HrotBlade {
        // Re-derive the CA from the same entropy the constructor used so
        // the certificate chain stays rooted identically.
        let vendor_ca = SchnorrKeyPair::generate(&[seed ^ 0x51; 32]);
        let mut blade = HrotBlade::manufacture(&[seed ^ 0x02; 32]);
        let ek_cert = KeyCertificate::issue(&vendor_ca, "EK", blade.ek_public());
        blade.install_ek_certificate(ek_cert);
        blade
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_to(state: BringUpState, bringup: &mut BringUp, env: &mut TrustFixture) {
        for step in BringUpStep::ALL {
            if bringup.state() == state {
                return;
            }
            bringup.apply(step, env).expect("legal-order step");
        }
        assert_eq!(bringup.state(), state);
    }

    #[test]
    fn the_legal_order_reaches_serving() {
        let (mut bringup, mut env) = TrustFixture::deterministic(7, Telemetry::default());
        for step in BringUpStep::ALL {
            bringup.apply(step, &mut env).unwrap();
        }
        assert!(bringup.is_serving());
        assert_eq!(bringup.master(), Some(env.master));
    }

    #[test]
    fn every_step_is_refused_out_of_order() {
        for skip_to in 1..BringUpStep::ALL.len() {
            let (mut bringup, mut env) = TrustFixture::deterministic(7, Telemetry::default());
            let step = BringUpStep::ALL[skip_to];
            let err = bringup.apply(step, &mut env).unwrap_err();
            assert_eq!(
                err,
                BringUpError::OutOfOrder { state: BringUpState::PowerOn, step },
                "skipping to {} must be refused",
                step.as_str()
            );
            assert_eq!(bringup.state(), BringUpState::PowerOn, "state unchanged on refusal");
        }
    }

    #[test]
    fn toctou_mutation_blocks_release_and_rolls_back() {
        let (mut bringup, mut env) = TrustFixture::deterministic(7, Telemetry::default());
        drive_to(BringUpState::Attested, &mut bringup, &mut env);
        bringup.pcrs_mut().extend_assigned(PcrIndex::ScFirmware, b"evil patch");
        let err = bringup.release_keys(env.master).unwrap_err();
        assert!(matches!(err, BringUpError::MeasurementDrift { .. }));
        assert_eq!(bringup.state(), BringUpState::SecureBooted, "rollback to SecureBooted");
        assert_eq!(bringup.master(), None, "no key material handed out");
        // The drifted measurement is also attestable: a re-attestation
        // against the same golden values must now fail.
        let err = bringup.attest(&mut env.verifier, &env.dh_entropy, env.nonce).unwrap_err();
        assert!(matches!(err, BringUpError::Attestation(AttestationError::PcrMismatch { .. })));
    }

    #[test]
    fn reset_returns_to_power_on_and_recovers() {
        let (mut bringup, mut env) = TrustFixture::deterministic(7, Telemetry::default());
        drive_to(BringUpState::Serving, &mut bringup, &mut env);
        bringup.reset(env.fresh_blade(7));
        assert_eq!(bringup.state(), BringUpState::PowerOn);
        assert_eq!(bringup.master(), None, "reset clears the released master");
        // The whole chain re-runs cleanly on the fresh blade.
        for step in BringUpStep::ALL {
            bringup.apply(step, &mut env).unwrap();
        }
        assert!(bringup.is_serving());
    }

    #[test]
    fn failed_boot_stays_at_power_on_with_evidence() {
        let (mut bringup, mut env) = TrustFixture::deterministic(7, Telemetry::default());
        // Tamper with flash: swap in a firmware image sealed for a
        // different revision (valid ciphertext, wrong measurement).
        let evil_key = Key::Aes128([7 ^ 0x42; 16]);
        env.flash[1] = FlashImage::provision("sc-firmware", b"evil firmware", &evil_key, [2; 12]);
        let err = bringup.secure_boot(&env.boot, &env.flash, &env.boot_entropy).unwrap_err();
        assert!(matches!(err, BringUpError::Boot(_)));
        assert_eq!(bringup.state(), BringUpState::PowerOn);
        assert!(
            bringup.pcrs().extensions() > 0,
            "failed boot still extends PCRs (attestable evidence)"
        );
    }
}
