//! Deterministic open-loop arrival process.
//!
//! Fleet traffic is **open-loop**: requests arrive on their own schedule
//! regardless of how fast the service drains them, which is what makes
//! starvation and backpressure observable at all (a closed loop would
//! politely slow down). Each tenant is a Poisson-style source: inter-
//! arrival gaps are exponentially distributed around the tenant's mean,
//! sampled from one shared [`SimRng`] so the whole fleet trace is a pure
//! function of the seed.
//!
//! Request shapes (prompt and generation lengths) come from the same
//! stream, using the `u²` long-tail mapping the prompt generator uses:
//! mostly short exchanges with a heavy tail of long ones.

use ccai_sim::snapshot::{Decoder, Encoder, SnapshotError, SnapshotState};
use ccai_sim::{SimDuration, SimRng, SimTime};

/// Smallest sampled inter-arrival gap: two requests never land on the
/// same picosecond, which keeps the event order unambiguous.
pub const MIN_GAP: SimDuration = SimDuration::from_picos(1);

/// Prompt-length band (tokens): `4 + u²·124` spans 4..=128.
pub const INPUT_TOKEN_SPAN: f64 = 124.0;
/// Smallest prompt.
pub const INPUT_TOKEN_FLOOR: u32 = 4;
/// Generation-length band (tokens): `8 + u²·56` spans 8..=64.
pub const OUTPUT_TOKEN_SPAN: f64 = 56.0;
/// Smallest generation.
pub const OUTPUT_TOKEN_FLOOR: u32 = 8;

/// One fleet request, stamped at generation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Fleet-unique id, assigned in arrival order.
    pub id: u64,
    /// Owning tenant's telemetry tag.
    pub tenant: u32,
    /// Arrival time on the fleet clock.
    pub arrived: SimTime,
    /// Prompt length in tokens.
    pub input_tokens: u32,
    /// Generation length in tokens.
    pub output_tokens: u32,
}

/// A restored request must ask for at least one token each way.
impl SnapshotState for Request {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.put(&self.id);
        enc.put(&self.tenant);
        enc.put(&self.arrived);
        enc.put(&self.input_tokens);
        enc.put(&self.output_tokens);
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let (id, tenant, arrived, input_tokens, output_tokens) = dec.get()?;
        if input_tokens == 0 || output_tokens == 0 {
            return Err(SnapshotError::Invalid("request token counts"));
        }
        Ok(Request { id, tenant, arrived, input_tokens, output_tokens })
    }
}

/// One tenant's arrival lane.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Lane {
    tag: u32,
    mean: SimDuration,
    next_at: SimTime,
}

ccai_sim::snapshot_state!(Lane { tag, mean, next_at });

/// Merged multi-tenant arrival stream.
///
/// Lanes are polled by earliest `next_at` (ties to the earlier lane in
/// declaration order), so the merged stream is totally ordered and
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalProcess {
    rng: SimRng,
    next_id: u64,
    lanes: Vec<Lane>,
}

fn sample_gap(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    // Inverse-CDF exponential: -ln(1-u)·mean. u < 1 strictly, so the log
    // is finite; the floor keeps gaps positive.
    let u = rng.next_f64();
    SimDuration::from_secs_f64(-(1.0 - u).ln() * mean.as_secs_f64()).max(MIN_GAP)
}

fn sample_tokens(rng: &mut SimRng, floor: u32, span: f64) -> u32 {
    let u = rng.next_f64();
    floor + (u * u * span) as u32
}

impl ArrivalProcess {
    /// Creates a merged stream over `(tenant tag, mean inter-arrival)`
    /// lanes, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `loads` is empty or any mean gap is zero.
    pub fn new(seed: u64, loads: &[(u32, SimDuration)]) -> ArrivalProcess {
        assert!(!loads.is_empty(), "arrival process needs at least one tenant");
        let mut rng = SimRng::seed_from(seed);
        let lanes = loads
            .iter()
            .map(|&(tag, mean)| {
                assert!(!mean.is_zero(), "tenant {tag} has a zero mean inter-arrival");
                Lane { tag, mean, next_at: SimTime::ZERO + sample_gap(&mut rng, mean) }
            })
            .collect();
        ArrivalProcess { rng, next_id: 0, lanes }
    }

    /// Arrival time of the next request (without consuming it).
    pub fn peek(&self) -> SimTime {
        self.lanes.iter().map(|l| l.next_at).min().expect("lanes are non-empty")
    }

    /// Requests generated so far.
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// Produces the next request in global arrival order and schedules its
    /// lane's following arrival.
    pub fn next_request(&mut self) -> Request {
        let lane_idx = self
            .lanes
            .iter()
            .enumerate()
            .min_by_key(|(i, l)| (l.next_at, *i))
            .map(|(i, _)| i)
            .expect("lanes are non-empty");
        let arrived = self.lanes[lane_idx].next_at;
        let tenant = self.lanes[lane_idx].tag;
        let input_tokens = sample_tokens(&mut self.rng, INPUT_TOKEN_FLOOR, INPUT_TOKEN_SPAN);
        let output_tokens = sample_tokens(&mut self.rng, OUTPUT_TOKEN_FLOOR, OUTPUT_TOKEN_SPAN);
        let gap = sample_gap(&mut self.rng, self.lanes[lane_idx].mean);
        self.lanes[lane_idx].next_at = arrived + gap;
        let id = self.next_id;
        self.next_id += 1;
        Request { id, tenant, arrived, input_tokens, output_tokens }
    }
}

/// A restored process needs at least one lane, none with a zero mean.
impl SnapshotState for ArrivalProcess {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.put(&self.rng);
        enc.put(&self.next_id);
        enc.put(&self.lanes);
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let (rng, next_id, lanes): (SimRng, u64, Vec<Lane>) = dec.get()?;
        if lanes.iter().any(|lane| lane.mean.is_zero()) {
            return Err(SnapshotError::Invalid("arrival lane mean"));
        }
        if lanes.is_empty() {
            return Err(SnapshotError::Invalid("arrival process has no lanes"));
        }
        Ok(ArrivalProcess { rng, next_id, lanes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads() -> Vec<(u32, SimDuration)> {
        vec![
            (10, SimDuration::from_millis(100)),
            (20, SimDuration::from_millis(50)),
        ]
    }

    #[test]
    fn same_seed_replays_the_same_trace() {
        let mut a = ArrivalProcess::new(42, &loads());
        let mut b = ArrivalProcess::new(42, &loads());
        for _ in 0..500 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn arrivals_are_globally_ordered_and_ids_dense() {
        let mut p = ArrivalProcess::new(7, &loads());
        let mut last = SimTime::ZERO;
        for expect_id in 0..1000u64 {
            let r = p.next_request();
            assert_eq!(r.id, expect_id);
            assert!(r.arrived >= last, "arrivals went backwards");
            last = r.arrived;
            assert!(r.input_tokens >= INPUT_TOKEN_FLOOR);
            assert!(r.output_tokens >= OUTPUT_TOKEN_FLOOR);
        }
    }

    #[test]
    fn faster_lane_generates_more_requests() {
        let mut p = ArrivalProcess::new(11, &loads());
        let mut counts = [0u32; 2];
        for _ in 0..2000 {
            let r = p.next_request();
            counts[if r.tenant == 10 { 0 } else { 1 }] += 1;
        }
        // Tenant 20 arrives at twice the rate; expect roughly 2:1.
        let ratio = f64::from(counts[1]) / f64::from(counts[0]);
        assert!((1.6..2.5).contains(&ratio), "rate ratio {ratio}");
    }

    #[test]
    fn mean_gap_matches_the_configured_rate() {
        let mut p = ArrivalProcess::new(3, &[(1, SimDuration::from_millis(10))]);
        let mut last = SimTime::ZERO;
        let n = 4000;
        for _ in 0..n {
            last = p.next_request().arrived;
        }
        let mean_ms = last.as_secs_f64() * 1e3 / f64::from(n);
        assert!((9.0..11.0).contains(&mean_ms), "mean gap {mean_ms} ms");
    }

    #[test]
    fn snapshot_resumes_the_stream_exactly() {
        let mut a = ArrivalProcess::new(99, &loads());
        for _ in 0..100 {
            let _ = a.next_request();
        }
        let mut enc = Encoder::new();
        enc.put(&a);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let mut b: ArrivalProcess = dec.get().unwrap();
        dec.finish().unwrap();
        for _ in 0..200 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    #[should_panic(expected = "zero mean")]
    fn zero_rate_lane_rejected() {
        let _ = ArrivalProcess::new(0, &[(1, SimDuration::ZERO)]);
    }
}
