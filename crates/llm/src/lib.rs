//! LLM workload models for the ccAI evaluation (§8).
//!
//! The paper evaluates ccAI by running LLM inference (OPT-1.3b through
//! Babel-83b) on five xPUs and measuring E2E latency, tokens/second and
//! time-to-first-token, with and without protection. This crate models
//! those workloads:
//!
//! * [`catalog`] — the nine evaluated models with their public parameters
//!   (size, quantization, hidden width, vocabulary, layer count) and the
//!   calibrated serving-efficiency factors;
//! * [`workload`] — an inference request (input/output tokens, batch)
//!   decomposed into prefill and decode phases with their transfer
//!   profiles;
//! * [`kv_cache`] — KV-cache sizing and the Fig. 12b swapping model;
//! * [`metrics`] — E2E / TPS / TTFT measurements and overhead helpers;
//! * [`harness`] — runs a workload against a device + protection mode
//!   using the `ccai-core` performance model, producing the numbers every
//!   §8 figure plots;
//! * [`prompts`] — the deterministic ShareGPT-like prompt-length
//!   generator used by the KV-cache stress test;
//! * [`fleet`] — golden-snapshot fleet serving: warm one confidential
//!   system, snapshot it, stamp out replicas and route each tenant's
//!   prompts to its home replica;
//! * [`serve`] — fleet-scale multi-tenant serving: seeded open-loop
//!   arrivals, per-tenant token-bucket rate limiting with typed sheds,
//!   a continuous-batching scheduler and per-tenant latency telemetry;
//! * [`chaos`] — deterministic fleet chaos plans: replica crash, drain,
//!   link hot-unplug, blade hot-plug and live tenant migration injected
//!   into a running [`FleetServer`] at quiesce points;
//! * [`shard`] — the [`shard::ReplicaSet`] both fleets share: stable
//!   never-reused replica ids, rendezvous (HRW) tenant homes, migration
//!   pins, and the typed refusals of every membership change.
//!
//! # Example
//!
//! ```
//! use ccai_llm::{harness, catalog::LlmSpec, workload::InferenceWorkload};
//! use ccai_xpu::XpuSpec;
//!
//! let workload = InferenceWorkload::chat(LlmSpec::llama2_7b(), 512, 1);
//! let vanilla = harness::run(&workload, &XpuSpec::a100(), harness::Mode::Vanilla);
//! let ccai = harness::run(&workload, &XpuSpec::a100(), harness::Mode::ccai());
//! let overhead = ccai.e2e_overhead_vs(&vanilla);
//! assert!(overhead > 0.0 && overhead < 0.06, "overhead {overhead}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod chaos;
pub mod fleet;
pub mod harness;
pub mod kv_cache;
pub mod metrics;
pub mod prompts;
pub mod serve;
pub mod shard;
pub mod workload;

pub use catalog::LlmSpec;
pub use chaos::{ChaosEvent, ChaosPlan};
pub use fleet::{ChaosError, Migration, ServeError, ShardedFleet};
pub use serve::{FleetConfig, FleetServer, FleetSnapshot, ShedReason, TenantSpec, BRINGUP_LATENCY};
pub use harness::{run, Mode};
pub use kv_cache::KvCache;
pub use metrics::Metrics;
pub use prompts::PromptGenerator;
pub use workload::InferenceWorkload;
