//! Chassis sealing (§6).
//!
//! The PCIe-SC, the xPU and their internal PCIe connection are sealed in
//! a chassis instrumented with physical sensors (pressure, temperature).
//! The HRoT-Blade "periodically retrieves the physical status via an I²C
//! bus and updates in PCR registers, enabling the remote user to attest
//! the physical integrity of the chassis." A tamper event therefore
//! changes the `ChassisSeal` PCR and breaks subsequent attestations.

use crate::hrot::HrotBlade;
use crate::pcr::PcrIndex;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One sensor sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorReading {
    /// Chassis-internal pressure in kPa.
    pub pressure_kpa: f64,
    /// Temperature in °C.
    pub temperature_c: f64,
    /// Lid-closed switch state.
    pub lid_closed: bool,
}

impl SensorReading {
    /// The nominal sealed-chassis reading.
    pub fn nominal() -> SensorReading {
        SensorReading { pressure_kpa: 101.3, temperature_c: 45.0, lid_closed: true }
    }
}

/// Acceptable operating envelope; anything outside is a tamper event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SealPolicy {
    /// Minimum pressure (a breached chassis vents to ambient-minus).
    pub min_pressure_kpa: f64,
    /// Maximum pressure.
    pub max_pressure_kpa: f64,
    /// Maximum temperature (drilling/heating attacks).
    pub max_temperature_c: f64,
}

impl Default for SealPolicy {
    fn default() -> Self {
        SealPolicy { min_pressure_kpa: 95.0, max_pressure_kpa: 110.0, max_temperature_c: 85.0 }
    }
}

/// The chassis sensor array polled over the (modelled) I²C bus.
#[derive(Debug, Clone)]
pub struct ChassisSensors {
    policy: SealPolicy,
    current: SensorReading,
    samples: u64,
    tamper_events: u64,
}

impl Default for ChassisSensors {
    fn default() -> Self {
        Self::new(SealPolicy::default())
    }
}

impl ChassisSensors {
    /// Creates a sealed chassis with nominal readings.
    pub fn new(policy: SealPolicy) -> Self {
        ChassisSensors {
            policy,
            current: SensorReading::nominal(),
            samples: 0,
            tamper_events: 0,
        }
    }

    /// Physical interference (tests/examples drive this).
    pub fn inject_reading(&mut self, reading: SensorReading) {
        self.current = reading;
    }

    /// Whether the current reading violates the seal policy.
    pub fn is_tampered(&self) -> bool {
        let r = &self.current;
        !r.lid_closed
            || r.pressure_kpa < self.policy.min_pressure_kpa
            || r.pressure_kpa > self.policy.max_pressure_kpa
            || r.temperature_c > self.policy.max_temperature_c
    }

    /// Tamper events recorded so far.
    pub fn tamper_events(&self) -> u64 {
        self.tamper_events
    }

    /// One periodic poll: reads the sensors over I²C and, **only on a
    /// tamper event**, extends the `ChassisSeal` PCR with the anomalous
    /// reading — permanently changing the attested state.
    pub fn poll(&mut self, blade: &mut HrotBlade) {
        self.samples += 1;
        if self.is_tampered() {
            self.tamper_events += 1;
            let mut evidence = Vec::with_capacity(24);
            evidence.extend_from_slice(&self.current.pressure_kpa.to_be_bytes());
            evidence.extend_from_slice(&self.current.temperature_c.to_be_bytes());
            evidence.push(self.current.lid_closed as u8);
            evidence.extend_from_slice(&self.samples.to_be_bytes());
            blade.pcrs_mut().extend_assigned(PcrIndex::ChassisSeal, &evidence);
        }
    }
}

impl fmt::Display for ChassisSensors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ChassisSensors(samples={}, tamper_events={}, tampered={})",
            self.samples,
            self.tamper_events,
            self.is_tampered()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_crypto::Digest;

    impl ChassisSensors {
        /// Samples taken so far.
        fn samples(&self) -> u64 {
            self.samples
        }
    }

    fn blade() -> HrotBlade {
        HrotBlade::manufacture(&[0xAA; 32])
    }

    #[test]
    fn nominal_polls_leave_pcr_untouched() {
        let mut sensors = ChassisSensors::default();
        let mut blade = blade();
        for _ in 0..100 {
            sensors.poll(&mut blade);
        }
        assert_eq!(sensors.samples(), 100);
        assert_eq!(sensors.tamper_events(), 0);
        assert_eq!(blade.pcrs().read_assigned(PcrIndex::ChassisSeal), Digest([0u8; 32]));
    }

    #[test]
    fn lid_open_is_tampering() {
        let mut sensors = ChassisSensors::default();
        let mut blade = blade();
        sensors.inject_reading(SensorReading { lid_closed: false, ..SensorReading::nominal() });
        sensors.poll(&mut blade);
        assert_eq!(sensors.tamper_events(), 1);
        assert_ne!(blade.pcrs().read_assigned(PcrIndex::ChassisSeal), Digest([0u8; 32]));
    }

    #[test]
    fn pressure_drop_is_tampering() {
        let mut sensors = ChassisSensors::default();
        sensors.inject_reading(SensorReading {
            pressure_kpa: 80.0,
            ..SensorReading::nominal()
        });
        assert!(sensors.is_tampered());
    }

    #[test]
    fn overheating_is_tampering() {
        let mut sensors = ChassisSensors::default();
        sensors.inject_reading(SensorReading {
            temperature_c: 120.0,
            ..SensorReading::nominal()
        });
        assert!(sensors.is_tampered());
    }

    #[test]
    fn tamper_permanently_changes_attested_state() {
        let mut sensors = ChassisSensors::default();
        let mut blade = blade();
        sensors.inject_reading(SensorReading { lid_closed: false, ..SensorReading::nominal() });
        sensors.poll(&mut blade);
        let after_tamper = blade.pcrs().read_assigned(PcrIndex::ChassisSeal);

        // "Re-closing" the lid does not restore the PCR.
        sensors.inject_reading(SensorReading::nominal());
        sensors.poll(&mut blade);
        assert_eq!(blade.pcrs().read_assigned(PcrIndex::ChassisSeal), after_tamper);
        assert_ne!(after_tamper, Digest([0u8; 32]));
    }
}
