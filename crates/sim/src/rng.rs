//! Deterministic pseudo-random number generation.
//!
//! Experiments must be bit-for-bit reproducible, so all randomness in the
//! simulation flows through [`SimRng`], an xoshiro256++ generator seeded
//! explicitly by the caller. (The `rand` crate is used elsewhere for
//! convenience traits; this type is the source of raw entropy so no host
//! randomness leaks into results.)

/// A deterministic xoshiro256++ PRNG.
///
/// # Example
///
/// ```
/// use ccai_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed, expanded with SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Widening-multiply rejection sampling.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[doc(hidden)]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == hi {
            return lo;
        }
        lo + self.next_bounded(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills a byte slice with pseudo-random data.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Generates a vector of `len` pseudo-random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill_bytes(&mut v);
        v
    }

    /// Chooses an index in `[0, len)` — convenience for slice selection.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn choose_index(&mut self, len: usize) -> usize {
        self.next_bounded(len as u64) as usize
    }
}

// A restored generator continues the stream exactly where it was captured.
crate::snapshot_state!(SimRng { s });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bounded_stays_in_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            assert!(rng.next_bounded(17) < 17);
            let v = rng.next_range(5, 9);
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(4);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SimRng::seed_from(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0), "13 zero bytes is vanishingly unlikely");
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(6);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[rng.next_bounded(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "bucket count {c} far from uniform");
        }
    }

    #[test]
    #[should_panic(expected = "bound")]
    fn zero_bound_panics() {
        SimRng::seed_from(0).next_bounded(0);
    }
}
