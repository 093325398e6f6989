//! Deterministic prompt generation.
//!
//! The paper adapts prompts from chat datasets; the Fig. 12b KV-cache
//! test uses "input tokens ranging from 4 to 924". This generator
//! produces a reproducible stream of synthetic prompt lengths with a
//! chat-like long-tailed distribution (many short questions, a tail of
//! long pasted contexts); callers fill each prompt with their own bytes.

use ccai_sim::SimRng;

/// Deterministic prompt-length generator.
#[derive(Debug, Clone)]
pub struct PromptGenerator {
    rng: SimRng,
    min_tokens: u32,
    max_tokens: u32,
}

impl PromptGenerator {
    /// Generator matching the Fig. 12b setup: lengths in 4–924.
    pub fn sharegpt_like(seed: u64) -> PromptGenerator {
        PromptGenerator { rng: SimRng::seed_from(seed), min_tokens: 4, max_tokens: 924 }
    }

    /// Draws the next prompt length (long-tailed: squaring a uniform
    /// draw biases toward short prompts).
    pub fn next_len(&mut self) -> u32 {
        let u = self.rng.next_f64();
        let span = (self.max_tokens - self.min_tokens) as f64;
        self.min_tokens + (u * u * span) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = PromptGenerator::sharegpt_like(7);
        let mut b = PromptGenerator::sharegpt_like(7);
        for _ in 0..50 {
            assert_eq!(a.next_len(), b.next_len());
        }
    }

    #[test]
    fn lengths_respect_bounds() {
        let mut g = PromptGenerator::sharegpt_like(1);
        for _ in 0..2000 {
            let len = g.next_len();
            assert!((4..=924).contains(&len), "length {len}");
        }
    }

    #[test]
    fn distribution_is_long_tailed() {
        let mut g = PromptGenerator::sharegpt_like(2);
        let lens: Vec<u32> = (0..4000).map(|_| g.next_len()).collect();
        let short = lens.iter().filter(|&&l| l < 234).count(); // first quarter of range
        let long = lens.iter().filter(|&&l| l >= 694).count(); // last quarter
        assert!(short > 2 * long, "expected many short prompts: {short} vs {long}");
        // But the tail exists.
        assert!(long > 0);
    }
}
