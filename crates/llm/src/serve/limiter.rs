//! Per-tenant admission control.
//!
//! Every tenant fronts the fleet through a [`TokenBucket`]: a request
//! costs one token, the bucket refills at the tenant's contracted rate,
//! and bursts up to the bucket capacity ride through untouched. A request
//! that cannot be admitted is **shed with a typed reason** — never
//! silently dropped — so operators can tell "you exceeded your contract"
//! ([`ShedReason::RateLimited`]) apart from "the fleet is saturated"
//! ([`ShedReason::QueueFull`]) and "your hardware tripped containment"
//! ([`ShedReason::Quarantined`]).

use std::collections::BTreeMap;

use ccai_sim::{SimDuration, SimTime, TokenBucket};

/// Why an arrival was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedReason {
    /// The tenant's token bucket is empty: contracted rate exceeded.
    RateLimited,
    /// The tenant's admission backlog is full: the fleet cannot absorb
    /// the offered load even before rate accounting.
    QueueFull,
    /// The tenant is quarantined by the PCIe-SC containment policy.
    Quarantined,
}

impl ShedReason {
    /// Stable lowercase name, used in trace events and JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate_limited",
            ShedReason::QueueFull => "queue_full",
            ShedReason::Quarantined => "quarantined",
        }
    }
}

/// Fleet-wide admission limiter: one token bucket per registered tenant.
///
/// Disabled limiters admit everything; this is how the determinism tests
/// compare the same arrival trace with and without rate limiting.
#[derive(Debug)]
pub struct RateLimiter {
    enabled: bool,
    buckets: BTreeMap<u32, TokenBucket>,
}

impl RateLimiter {
    /// Creates an empty limiter. When `enabled` is false every
    /// [`try_admit`](RateLimiter::try_admit) succeeds without touching
    /// bucket state.
    pub fn new(enabled: bool) -> RateLimiter {
        RateLimiter { enabled, buckets: BTreeMap::new() }
    }

    /// Whether rate accounting is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Registers a tenant with a full bucket of `burst` tokens refilling
    /// at `rate_per_sec`.
    pub fn add_tenant(&mut self, tenant: u32, burst: u64, rate_per_sec: u64) {
        self.buckets.insert(tenant, TokenBucket::new(burst, rate_per_sec));
    }

    /// Tries to admit one request for `tenant` at `now`. Unregistered
    /// tenants and disabled limiters always admit.
    pub fn try_admit(&mut self, tenant: u32, now: SimTime) -> bool {
        if !self.enabled {
            return true;
        }
        match self.buckets.get_mut(&tenant) {
            Some(bucket) => bucket.try_take(1, now),
            None => true,
        }
    }

    /// Time until one request for `tenant` could be admitted ([`SimDuration::ZERO`]
    /// when it would be admitted right now, or the tenant is unregistered /
    /// the limiter disabled).
    pub fn time_until_admit(&mut self, tenant: u32, now: SimTime) -> SimDuration {
        if !self.enabled {
            return SimDuration::ZERO;
        }
        match self.buckets.get_mut(&tenant) {
            Some(bucket) => bucket.time_until(1, now),
            None => SimDuration::ZERO,
        }
    }
}

ccai_sim::snapshot_state!(RateLimiter { enabled, buckets });

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_sim::snapshot::{Decoder, Encoder};

    impl RateLimiter {
        /// Remaining budget for a tenant in pico-tokens, if registered.
        fn budget_pico_tokens(&self, tenant: u32) -> Option<u128> {
            self.buckets.get(&tenant).map(TokenBucket::budget_pico_tokens)
        }
    }

    fn at(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn disabled_limiter_admits_everything() {
        let mut lim = RateLimiter::new(false);
        lim.add_tenant(1, 1, 1);
        for _ in 0..100 {
            assert!(lim.try_admit(1, SimTime::ZERO));
        }
        assert!(lim.time_until_admit(1, SimTime::ZERO).is_zero());
    }

    #[test]
    fn unregistered_tenants_are_not_limited() {
        let mut lim = RateLimiter::new(true);
        for _ in 0..100 {
            assert!(lim.try_admit(77, SimTime::ZERO));
        }
    }

    #[test]
    fn burst_then_rate_enforced() {
        let mut lim = RateLimiter::new(true);
        lim.add_tenant(1, 4, 2);
        for _ in 0..4 {
            assert!(lim.try_admit(1, SimTime::ZERO));
        }
        assert!(!lim.try_admit(1, SimTime::ZERO));
        // 2 tokens/s: after one second, two more slots have accrued.
        assert!(lim.try_admit(1, at(1.0)));
        assert!(lim.try_admit(1, at(1.0)));
        assert!(!lim.try_admit(1, at(1.0)));
    }

    #[test]
    fn time_until_admit_is_exact() {
        let mut lim = RateLimiter::new(true);
        lim.add_tenant(1, 1, 1);
        assert!(lim.try_admit(1, SimTime::ZERO));
        let wait = lim.time_until_admit(1, SimTime::ZERO);
        assert!(!wait.is_zero());
        let ready = SimTime::ZERO + wait;
        assert!(lim.try_admit(1, ready));
    }

    #[test]
    fn limiter_snapshot_round_trips() {
        let mut lim = RateLimiter::new(true);
        lim.add_tenant(1, 4, 2);
        lim.add_tenant(9, 8, 16);
        assert!(lim.try_admit(1, at(0.25)));
        assert!(lim.try_admit(9, at(0.5)));

        let mut enc = Encoder::new();
        enc.put(&lim);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let mut back: RateLimiter = dec.get().unwrap();
        dec.finish().unwrap();

        assert_eq!(back.enabled(), lim.enabled());
        assert_eq!(back.budget_pico_tokens(1), lim.budget_pico_tokens(1));
        assert_eq!(back.budget_pico_tokens(9), lim.budget_pico_tokens(9));
        // And the restored limiter keeps enforcing from the same point.
        for t in 0..32 {
            let now = at(0.5 + f64::from(t) * 0.01);
            assert_eq!(back.try_admit(1, now), lim.try_admit(1, now));
        }
    }

    #[test]
    fn shed_reasons_have_stable_names() {
        assert_eq!(ShedReason::RateLimited.as_str(), "rate_limited");
        assert_eq!(ShedReason::QueueFull.as_str(), "queue_full");
        assert_eq!(ShedReason::Quarantined.as_str(), "quarantined");
    }
}
