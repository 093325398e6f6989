//! Discrete-event simulation substrate for the ccAI reproduction.
//!
//! The original ccAI prototype measures wall-clock time on a physical
//! testbed (Intel server + Agilex 7 FPGA + five xPUs). This crate replaces
//! the wall clock with a *virtual* clock: every simulated component charges
//! time for the work it performs (PCIe transfers, MMIO round trips,
//! cryptographic processing, xPU compute) and the experiment harness reads
//! the resulting end-to-end latencies.
//!
//! The crate provides:
//!
//! * [`time`] — strongly-typed virtual time ([`SimTime`], [`SimDuration`]);
//! * [`clock`] — a lightweight cost-accumulating clock used by the
//!   sequential performance models ([`Clock`]);
//! * [`rate`] — bandwidth/throughput arithmetic ([`Bandwidth`]);
//! * [`rng`] — a small deterministic PRNG so experiments are reproducible
//!   without pulling randomness from the host;
//! * [`hash`] — `HashMap`/`HashSet` over an unkeyed word hasher, for the
//!   same reason ([`DetHashMap`], [`DetHashSet`]), and the FNV-1a fold
//!   ([`fnv1a`]) behind every trace digest and fingerprint;
//! * [`stats`] — summary statistics and histograms for measurement series;
//! * [`pages`] — the sparse page store behind guest and device memory
//!   ([`PageStore`]).
//!
//! # Example
//!
//! ```
//! use ccai_sim::{Bandwidth, Clock, SimDuration};
//!
//! let mut clock = Clock::new();
//! let link = Bandwidth::from_gbytes_per_sec(16.0);
//! clock.advance(link.transfer_time(1 << 20)); // move 1 MiB
//! assert!(clock.now().as_secs_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod hash;
pub mod pages;
pub mod rate;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use clock::Clock;
pub use hash::{fnv1a, DetHashMap, DetHashSet, FNV_OFFSET};
pub use pages::PageStore;
pub use rate::{Bandwidth, TokenBucket};
pub use rng::SimRng;
pub use snapshot::{Decoder, Encoder, SnapshotError, SnapshotState};
pub use stats::{Histogram, Summary};
pub use telemetry::{Hop, Severity, Telemetry, TelemetryEvent, TelemetrySnapshot};
pub use time::{SimDuration, SimTime};
