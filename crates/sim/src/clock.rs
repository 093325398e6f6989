//! A cost-accumulating virtual clock.
//!
//! Most ccAI performance models are sequential: a workload executes phases
//! one after another (encrypt → DMA → compute → DMA back → decrypt).
//! [`Clock::advance`] charges serial time and [`Clock::advance_to`] waits
//! for a deadline.

use crate::time::{SimDuration, SimTime};

/// A virtual clock that accumulates charged durations.
///
/// # Example
///
/// ```
/// use ccai_sim::{Clock, SimDuration};
///
/// let mut clock = Clock::new();
/// clock.advance(SimDuration::from_micros(10));
/// clock.advance(SimDuration::from_micros(7));
/// assert_eq!(clock.now().as_picos(), 17_000_000);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Clock {
    now: SimTime,
}

crate::snapshot_state!(Clock { now });

impl Clock {
    /// Creates a clock at the timeline origin.
    pub fn new() -> Self {
        Clock { now: SimTime::ZERO }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Charges a serial span of work.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Moves the clock forward to `deadline` if it is in the future;
    /// otherwise leaves it unchanged. Returns the time actually waited.
    pub fn advance_to(&mut self, deadline: SimTime) -> SimDuration {
        if deadline > self.now {
            let waited = deadline - self.now;
            self.now = deadline;
            waited
        } else {
            SimDuration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = Clock::new();
        c.advance(SimDuration::from_nanos(5));
        c.advance(SimDuration::from_nanos(7));
        assert_eq!(c.now().as_picos(), 12_000);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut c = Clock::new();
        c.advance(SimDuration::from_micros(10));
        let waited = c.advance_to(SimTime::ZERO + SimDuration::from_micros(4));
        assert_eq!(waited, SimDuration::ZERO);
        let waited = c.advance_to(SimTime::ZERO + SimDuration::from_micros(15));
        assert_eq!(waited, SimDuration::from_micros(5));
        assert_eq!(c.now().as_picos(), 15_000_000);
    }

    #[test]
    fn elapsed_since_a_mark() {
        let mut c = Clock::new();
        let mark = c.now();
        c.advance(SimDuration::from_millis(2));
        assert_eq!(c.now().duration_since(mark), SimDuration::from_millis(2));
    }
}
