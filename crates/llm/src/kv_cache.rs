//! KV-cache sizing and the Fig. 12b swapping model.
//!
//! §8.6: "we test ccAI in a scenario where xPU memory is limited, forcing
//! frequent swapping of the KV-cache to CPU memory. We set a 3 GB
//! KV-cache and limit memory utilization percentage (from 80% to 60%)".
//! When the resident fraction shrinks, a fraction of each step's KV reads
//! must come across PCIe — traffic that ccAI additionally encrypts.

use crate::catalog::LlmSpec;
use serde::{Deserialize, Serialize};

/// A KV cache constrained to a device-resident budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvCache {
    /// Total cache size in bytes (the experiment fixes 3 GiB).
    pub total_bytes: u64,
    /// Fraction of the cache allowed to stay resident on the device
    /// (driven by the memory-utilization limit).
    pub resident_fraction: f64,
}

impl KvCache {
    /// The experiment's 3 GiB cache with a utilization-limited resident
    /// share.
    ///
    /// # Panics
    ///
    /// Panics if `resident_fraction` is outside (0, 1].
    pub fn limited(resident_fraction: f64) -> KvCache {
        assert!(
            resident_fraction > 0.0 && resident_fraction <= 1.0,
            "resident fraction must be in (0, 1]"
        );
        KvCache { total_bytes: 3 << 30, resident_fraction }
    }

    /// A fully resident cache (no swapping).
    pub fn resident() -> KvCache {
        Self::limited(1.0)
    }

    /// Bytes swapped across PCIe per decode step.
    ///
    /// A thrash model: once the resident share drops below the working
    /// set, every step evicts and refetches a slice of the cache. The
    /// volume saturates quickly with the miss ratio (the working set is
    /// re-streamed whether 20% or 40% of it is missing — `√miss`), scaled
    /// by how much of the cache the context actually occupies.
    pub fn swap_bytes_per_step(&self, model: &LlmSpec, context_tokens: u64, batch: u32) -> u64 {
        let miss = 1.0 - self.resident_fraction;
        if miss <= 0.0 {
            return 0;
        }
        let occupied = (model.kv_bytes_per_token() * context_tokens * batch as u64)
            .min(self.total_bytes);
        const THRASH_FACTOR: f64 = 0.35;
        (occupied as f64 * miss.sqrt() * THRASH_FACTOR) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_cache_never_swaps() {
        let cache = KvCache::resident();
        assert_eq!(cache.swap_bytes_per_step(&LlmSpec::llama2_7b(), 1000, 1), 0);
    }

    #[test]
    fn lower_utilization_swaps_more_sublinearly() {
        let model = LlmSpec::llama2_7b();
        let at_80 = KvCache::limited(0.8).swap_bytes_per_step(&model, 1000, 1);
        let at_60 = KvCache::limited(0.6).swap_bytes_per_step(&model, 1000, 1);
        assert!(at_60 > at_80);
        assert!(at_80 > 0);
        // √miss: √0.4/√0.2 = √2.
        assert!((at_60 as f64 / at_80 as f64 - 2f64.sqrt()).abs() < 0.01);
    }

    #[test]
    fn swap_grows_with_context_until_cache_full() {
        let model = LlmSpec::llama2_7b();
        let cache = KvCache::limited(0.7);
        let short = cache.swap_bytes_per_step(&model, 100, 1);
        let long = cache.swap_bytes_per_step(&model, 900, 1);
        let capped = cache.swap_bytes_per_step(&model, 100_000, 1);
        assert!(long > short);
        // The 3 GiB cache caps the occupied volume: 6144 tokens fill it.
        assert_eq!(capped, cache.swap_bytes_per_step(&model, 7000, 1));
    }

    #[test]
    #[should_panic(expected = "resident fraction")]
    fn zero_fraction_rejected() {
        let _ = KvCache::limited(0.0);
    }
}
