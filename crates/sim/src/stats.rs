//! Summary statistics for measurement series.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Summary statistics over a series of `f64` samples.
///
/// # Example
///
/// ```
/// use ccai_sim::Summary;
///
/// let s = Summary::try_from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: usize,
    mean: f64,
    min: f64,
    max: f64,
    std_dev: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

impl Summary {
    /// Computes statistics over a sample slice, or returns `None` for an
    /// empty slice or one containing non-finite values, so aggregating a
    /// series with zero completed measurements (e.g. a tenant that never
    /// finished a transfer) cannot abort a report. Sorts and run-length
    /// encodes the samples, then defers to [`Summary::try_from_runs`].
    pub fn try_from_samples(samples: &[f64]) -> Option<Self> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let runs: Vec<(f64, u64)> = sorted
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u64))
            .collect();
        Self::try_from_runs(&runs)
    }

    /// Computes statistics over run-length encoded samples: `runs` holds
    /// `(value, count)` pairs in ascending value order, each standing for
    /// `count` samples equal to `value`. Returns `None` when the runs hold
    /// no sample, a zero count, or a non-finite value.
    pub fn try_from_runs(runs: &[(f64, u64)]) -> Option<Self> {
        if runs.is_empty() || runs.iter().any(|&(x, n)| n == 0 || !x.is_finite()) {
            return None;
        }
        let count: u64 = runs.iter().map(|&(_, n)| n).sum();
        let n = count as f64;
        let mean = runs.iter().map(|&(x, k)| x * k as f64).sum::<f64>() / n;
        let var = runs
            .iter()
            .map(|&(x, k)| (x - mean).powi(2) * k as f64)
            .sum::<f64>()
            / n;
        Some(Summary {
            count: count as usize,
            mean,
            min: runs[0].0,
            max: runs[runs.len() - 1].0,
            std_dev: var.sqrt(),
            p50: percentile(runs, count, 0.50),
            p95: percentile(runs, count, 0.95),
            p99: percentile(runs, count, 0.99),
        })
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }
    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.min
    }
    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.max
    }
    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
    /// Median (linear interpolation).
    pub fn p50(&self) -> f64 {
        self.p50
    }
    /// 95th percentile (linear interpolation).
    pub fn p95(&self) -> f64 {
        self.p95
    }
    /// 99th percentile (linear interpolation).
    pub fn p99(&self) -> f64 {
        self.p99
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} min={:.4} p50={:.4} p95={:.4} max={:.4}",
            self.count, self.mean, self.min, self.p50, self.p95, self.max
        )
    }
}

/// Linearly interpolated `q`-quantile of the `count` samples in `runs`.
fn percentile(runs: &[(f64, u64)], count: u64, q: f64) -> f64 {
    let rank = q * (count - 1) as f64;
    let lo = rank.floor() as u64;
    let frac = rank - lo as f64;
    let (a, b) = (nth(runs, lo), nth(runs, rank.ceil() as u64));
    a + (b - a) * frac
}

/// The `i`-th smallest sample (0-based) of run-length encoded `runs`.
fn nth(runs: &[(f64, u64)], i: u64) -> f64 {
    let mut seen = 0;
    for &(x, n) in runs {
        seen += n;
        if i < seen {
            return x;
        }
    }
    unreachable!("rank {i} beyond {seen} samples")
}

/// A fixed-bucket histogram over `[lo, hi)` with overflow/underflow bins.
///
/// # Example
///
/// ```
/// use ccai_sim::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.record(2.5);
/// h.record(7.5);
/// h.record(-1.0); // underflow
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.underflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `n` equal buckets over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `n == 0`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(n > 0, "histogram needs at least one bucket");
        Histogram { lo, hi, buckets: vec![0; n], underflow: 0, overflow: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

impl crate::snapshot::SnapshotState for Histogram {
    fn encode_state(&self, enc: &mut crate::snapshot::Encoder) {
        enc.put(&self.lo);
        enc.put(&self.hi);
        enc.put(&self.buckets);
        enc.put(&self.underflow);
        enc.put(&self.overflow);
    }

    fn decode_state(
        dec: &mut crate::snapshot::Decoder<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let (lo, hi, buckets): (f64, f64, Vec<u64>) = dec.get()?;
        let (underflow, overflow) = dec.get()?;
        if lo >= hi || lo.is_nan() || hi.is_nan() {
            return Err(SnapshotError::Invalid("histogram range"));
        }
        if buckets.is_empty() {
            return Err(SnapshotError::Invalid("histogram buckets"));
        }
        Ok(Histogram { lo, hi, buckets, underflow, overflow })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Summary {
        /// Computes statistics over a non-empty sample slice.
        ///
        /// # Panics
        ///
        /// Panics if `samples` is empty or contains non-finite values.
        fn from_samples(samples: &[f64]) -> Self {
            Self::try_from_samples(samples)
                .expect("summary needs a non-empty set of finite samples")
        }
    }

    impl Histogram {
        /// Count in bucket `i`.
        ///
        /// # Panics
        ///
        /// Panics if `i` is out of range.
        fn bucket_count(&self, i: usize) -> u64 {
            self.buckets[i]
        }
    }

    #[test]
    fn summary_basics() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_percentiles_interpolate() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.p50() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(&[3.5]);
        assert_eq!(s.p50(), 3.5);
        assert_eq!(s.p99(), 3.5);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn summary_rejects_nan() {
        let _ = Summary::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    fn try_from_samples_handles_empty_and_nan() {
        assert!(Summary::try_from_samples(&[]).is_none());
        assert!(Summary::try_from_samples(&[1.0, f64::NAN]).is_none());
        let s = Summary::try_from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s, Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    fn runs_summarize_like_the_samples_they_encode() {
        // 1, 1, 1, 2.5, 7, 7, 7, 7
        let s = Summary::try_from_runs(&[(1.0, 3), (2.5, 1), (7.0, 4)]).unwrap();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 33.5 / 8.0).abs() < 1e-12);
        assert_eq!((s.min(), s.max()), (1.0, 7.0));
        assert!(
            (s.p50() - 4.75).abs() < 1e-12,
            "between the 4th and 5th sample"
        );
        assert_eq!(s.p99(), 7.0);
        let shuffled = [7.0, 1.0, 2.5, 7.0, 1.0, 7.0, 1.0, 7.0];
        assert_eq!(s, Summary::from_samples(&shuffled));
        assert!(Summary::try_from_runs(&[]).is_none());
        assert!(Summary::try_from_runs(&[(1.0, 0)]).is_none());
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.record(0.0);
        h.record(9.99);
        h.record(10.0);
        h.record(99.9);
        h.record(100.0); // overflow: hi is exclusive
        h.record(-0.1);
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(9), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    #[should_panic(expected = "range")]
    fn histogram_rejects_bad_range() {
        let _ = Histogram::new(5.0, 5.0, 3);
    }
}
