//! The Packet Handlers (§4.2).
//!
//! After the Packet Filter classifies a packet, handlers execute its
//! security action. The paper decouples control from the hardware engine
//! into two control panels — the **De/Encryption Parameters Manager**
//! ([`ParamsManager`]) and the **Authentication Tag Manager**
//! ([`TagManager`]) — feeding an **AES-GCM-SHA engine**
//! ([`CryptoEngine`]); an **xPU environment guard** ([`EnvGuard`])
//! validates MMIO state and cleans the device between tasks.

mod engine;
mod env_guard;
mod params;
mod tags;

pub use engine::{with_mmio_signed, CryptoEngine, EngineStats};
pub use env_guard::{EnvGuard, EnvViolation, MmioPolicy};
pub use params::{ChunkRef, ParamsManager, StreamDirection, CHUNK_SIZE};
pub use tags::{landing_record_addr, TagManager, TagRecord, TAG_LANDING_RECORDS, TAG_RECORD_LEN};
