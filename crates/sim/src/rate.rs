//! Bandwidth and throughput arithmetic, plus token-bucket rate limiting.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A data rate in bytes per second.
///
/// Used for PCIe link rates, memory bandwidth and crypto-engine throughput.
///
/// # Example
///
/// ```
/// use ccai_sim::Bandwidth;
///
/// let link = Bandwidth::from_gbytes_per_sec(32.0);
/// let t = link.transfer_time(64_000_000); // 64 MB
/// assert!((t.as_secs_f64() - 0.002).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is non-finite or not positive.
    pub fn from_bytes_per_sec(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "bandwidth must be finite and positive, got {bytes_per_sec}"
        );
        Bandwidth { bytes_per_sec }
    }

    /// Creates a bandwidth from GB/s (decimal gigabytes).
    pub fn from_gbytes_per_sec(gb: f64) -> Self {
        Self::from_bytes_per_sec(gb * 1e9)
    }

    /// The raw rate in bytes/second.
    pub fn bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// The rate in GB/s.
    pub fn gbytes_per_sec(self) -> f64 {
        self.bytes_per_sec / 1e9
    }

    /// Time to move `bytes` at this rate.
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.gbytes_per_sec();
        if g >= 1.0 {
            write!(f, "{g:.2} GB/s")
        } else {
            write!(f, "{:.2} MB/s", self.bytes_per_sec / 1e6)
        }
    }
}

/// One token, in pico-tokens. All bucket arithmetic is exact integer math
/// at this resolution, so refill is drift-free: after `e` picoseconds a
/// bucket with rate `r` tokens/s has accrued exactly `r·e` pico-tokens.
pub const PICO_TOKENS_PER_TOKEN: u128 = 1_000_000_000_000;

/// A deterministic token bucket driven by the sim clock.
///
/// Capacity (`burst`) and refill rate are whole tokens; the internal budget
/// is kept in pico-tokens (`tokens × 10¹²`) so that refill over an elapsed
/// sim-time interval is *exact* — no floating point, no rounding drift, and
/// therefore bit-identical across runs and across snapshot/resume.
///
/// The bucket is passive: it refills lazily whenever it is consulted with a
/// later `now`. Time never flows backwards through it (an earlier `now` is
/// treated as "no time elapsed"), which keeps refills monotone.
///
/// # Example
///
/// ```
/// use ccai_sim::{SimDuration, SimTime, TokenBucket};
///
/// let mut b = TokenBucket::new(2, 1); // burst 2, refill 1 token/s
/// let t0 = SimTime::ZERO;
/// assert!(b.try_take(2, t0));
/// assert!(!b.try_take(1, t0)); // drained
/// assert!(b.try_take(1, t0 + SimDuration::from_secs_f64(1.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    burst: u64,
    rate_per_sec: u64,
    budget_pt: u128,
    refilled_at: SimTime,
}

impl TokenBucket {
    /// Creates a bucket holding `burst` tokens (starts full) that refills
    /// at `rate_per_sec` tokens per second of sim time.
    ///
    /// # Panics
    ///
    /// Panics if `burst` or `rate_per_sec` is zero: a bucket that can never
    /// admit anything (or never refills) silently starves its tenant, and
    /// admission control must shed with a typed error instead.
    pub fn new(burst: u64, rate_per_sec: u64) -> Self {
        assert!(burst > 0, "token bucket needs a non-zero burst");
        assert!(rate_per_sec > 0, "token bucket needs a non-zero refill rate");
        TokenBucket {
            burst,
            rate_per_sec,
            budget_pt: u128::from(burst) * PICO_TOKENS_PER_TOKEN,
            refilled_at: SimTime::ZERO,
        }
    }

    /// Current budget in pico-tokens (after the last refill; call
    /// [`TokenBucket::refill`] first for an up-to-date reading).
    pub fn budget_pico_tokens(&self) -> u128 {
        self.budget_pt
    }

    /// Advances the lazy refill to `now`. A `now` earlier than the last
    /// refill point is ignored, so the budget is monotone in time between
    /// takes.
    pub fn refill(&mut self, now: SimTime) {
        if now <= self.refilled_at {
            return;
        }
        let elapsed = now.duration_since(self.refilled_at);
        let accrued = u128::from(self.rate_per_sec) * u128::from(elapsed.as_picos());
        let cap = u128::from(self.burst) * PICO_TOKENS_PER_TOKEN;
        self.budget_pt = cap.min(self.budget_pt + accrued);
        self.refilled_at = now;
    }

    /// Takes `tokens` whole tokens at sim time `now` if the (refilled)
    /// budget covers them. Returns whether the take was admitted; a refused
    /// take leaves the budget untouched.
    pub fn try_take(&mut self, tokens: u64, now: SimTime) -> bool {
        self.refill(now);
        let need = u128::from(tokens) * PICO_TOKENS_PER_TOKEN;
        if self.budget_pt >= need {
            self.budget_pt -= need;
            true
        } else {
            false
        }
    }

    /// Sim time to wait from `now` until the budget covers `tokens`
    /// (zero if it already does). `tokens` above `burst` can never be
    /// covered; callers must reject such requests up front.
    ///
    /// # Panics
    ///
    /// Panics if `tokens > burst`.
    pub fn time_until(&mut self, tokens: u64, now: SimTime) -> SimDuration {
        assert!(
            tokens <= self.burst,
            "a take of {tokens} tokens can never fit a burst of {}",
            self.burst
        );
        self.refill(now);
        let need = u128::from(tokens) * PICO_TOKENS_PER_TOKEN;
        if self.budget_pt >= need {
            return SimDuration::ZERO;
        }
        let missing = need - self.budget_pt;
        let rate = u128::from(self.rate_per_sec);
        let picos = missing.div_ceil(rate);
        SimDuration::from_picos(u64::try_from(picos).expect("refill wait fits sim time"))
    }
}

impl crate::snapshot::SnapshotState for TokenBucket {
    /// The pico-token budget travels as its high then low `u64` half.
    fn encode_state(&self, enc: &mut crate::snapshot::Encoder) {
        enc.put(&self.burst);
        enc.put(&self.rate_per_sec);
        enc.put(&((self.budget_pt >> 64) as u64, self.budget_pt as u64));
        enc.put(&self.refilled_at);
    }

    fn decode_state(
        dec: &mut crate::snapshot::Decoder<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let (burst, rate_per_sec, (high, low), refilled_at): (u64, u64, (u64, u64), SimTime) =
            dec.get()?;
        if burst == 0 || rate_per_sec == 0 {
            return Err(SnapshotError::Invalid("token bucket shape"));
        }
        let budget_pt = (u128::from(high) << 64) | u128::from(low);
        if budget_pt > u128::from(burst) * PICO_TOKENS_PER_TOKEN {
            return Err(SnapshotError::Invalid("token bucket budget"));
        }
        Ok(TokenBucket { burst, rate_per_sec, budget_pt, refilled_at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Decoder, Encoder, SnapshotState as _};

    fn at(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn bucket_starts_full_and_drains() {
        let mut b = TokenBucket::new(4, 2);
        assert!(b.try_take(4, at(0.0)));
        assert!(!b.try_take(1, at(0.0)));
    }

    #[test]
    fn refill_is_exact_integer_math() {
        let mut b = TokenBucket::new(10, 3);
        assert!(b.try_take(10, at(0.0)));
        // After exactly one second, exactly 3 tokens have accrued.
        b.refill(at(1.0));
        assert_eq!(b.budget_pico_tokens(), 3 * PICO_TOKENS_PER_TOKEN);
        assert!(b.try_take(3, at(1.0)));
        assert!(!b.try_take(1, at(1.0)));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(5, 1_000_000);
        assert!(b.try_take(5, at(0.0)));
        b.refill(at(100.0));
        assert_eq!(b.budget_pico_tokens(), 5 * PICO_TOKENS_PER_TOKEN);
    }

    #[test]
    fn time_never_flows_backwards() {
        let mut b = TokenBucket::new(2, 1);
        assert!(b.try_take(2, at(10.0)));
        let before = b.budget_pico_tokens();
        b.refill(at(5.0));
        assert_eq!(b.budget_pico_tokens(), before, "stale now must not refill");
    }

    #[test]
    fn refused_take_leaves_budget_untouched() {
        let mut b = TokenBucket::new(3, 1);
        assert!(b.try_take(2, at(0.0)));
        let before = b.budget_pico_tokens();
        assert!(!b.try_take(2, at(0.0)));
        assert_eq!(b.budget_pico_tokens(), before);
    }

    #[test]
    fn time_until_predicts_admission_exactly() {
        let mut b = TokenBucket::new(4, 2);
        assert!(b.try_take(4, at(0.0)));
        let wait = b.time_until(1, at(0.0));
        assert_eq!(wait, SimDuration::from_secs_f64(0.5));
        // One pico earlier the take must still be refused.
        let early = SimTime::from_picos(wait.as_picos() - 1);
        assert!(!b.try_take(1, early));
        assert!(b.try_take(1, at(0.0) + wait));
    }

    #[test]
    #[should_panic(expected = "never fit")]
    fn time_until_rejects_oversized_takes() {
        let mut b = TokenBucket::new(2, 1);
        let _ = b.time_until(3, at(0.0));
    }

    #[test]
    fn bucket_round_trips_through_snapshot() {
        let mut b = TokenBucket::new(7, 13);
        assert!(b.try_take(5, at(0.25)));
        let mut enc = Encoder::new();
        b.encode_state(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let restored = TokenBucket::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(restored, b);
    }

    #[test]
    fn corrupt_bucket_snapshot_is_refused() {
        let mut enc = Encoder::new();
        TokenBucket::new(1, 1).encode_state(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes[..bytes.len() - 1]);
        assert!(TokenBucket::decode_state(&mut dec).is_err());
    }

    #[test]
    fn transfer_time_is_linear() {
        let bw = Bandwidth::from_gbytes_per_sec(1.0);
        assert_eq!(bw.transfer_time(0), SimDuration::ZERO);
        let t1 = bw.transfer_time(1_000_000);
        let t2 = bw.transfer_time(2_000_000);
        assert_eq!(t2.as_picos(), 2 * t1.as_picos());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::from_bytes_per_sec(0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bandwidth::from_gbytes_per_sec(16.0).to_string(), "16.00 GB/s");
        assert_eq!(Bandwidth::from_bytes_per_sec(250e6).to_string(), "250.00 MB/s");
    }
}
