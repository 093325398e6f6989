//! Event-calendar scheduler.
//!
//! A classic discrete-event engine: events are closures scheduled at
//! absolute virtual times; [`Scheduler::run`] pops them in time order (FIFO
//! among ties) and executes them against a user-supplied model state.
//! Handlers may schedule further events and cancel pending ones.
//!
//! The packet-level fabric models in `ccai-pcie` use this engine to order
//! TLP deliveries; the higher-level workload models mostly use the simpler
//! [`crate::Clock`].

use crate::hash::DetHashSet;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// A boxed event handler: receives the model state and the scheduler so it
/// can schedule follow-up events.
type Handler<S> = Box<dyn FnOnce(&mut S, &mut Scheduler<S>)>;

struct Entry<S> {
    at: SimTime,
    seq: u64,
    id: EventId,
    handler: Handler<S>,
}

impl<S> PartialEq for Entry<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Entry<S> {}
impl<S> PartialOrd for Entry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Entry<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest seq)
        // entry is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event scheduler over a model state `S`.
///
/// # Example
///
/// ```
/// use ccai_sim::{Scheduler, SimDuration};
///
/// let mut sched: Scheduler<Vec<u32>> = Scheduler::new();
/// sched.schedule_in(SimDuration::from_nanos(10), |log, _| log.push(1));
/// sched.schedule_in(SimDuration::from_nanos(5), |log, sched| {
///     log.push(2);
///     sched.schedule_in(SimDuration::from_nanos(1), |log, _| log.push(3));
/// });
/// let mut log = Vec::new();
/// sched.run(&mut log);
/// assert_eq!(log, vec![2, 3, 1]);
/// ```
pub struct Scheduler<S> {
    now: SimTime,
    queue: BinaryHeap<Entry<S>>,
    cancelled: DetHashSet<EventId>,
    next_seq: u64,
    executed: u64,
}

impl<S> Default for Scheduler<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Scheduler<S> {
    /// Creates an empty scheduler at the timeline origin.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            cancelled: DetHashSet::default(),
            next_seq: 0,
            executed: 0,
        }
    }

    /// Current virtual time (time of the most recently executed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including cancelled-but-unreaped).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `handler` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past of the scheduler clock.
    pub fn schedule_at<F>(&mut self, at: SimTime, handler: F) -> EventId
    where
        F: FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    {
        assert!(at >= self.now, "cannot schedule event in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = EventId(seq);
        self.queue.push(Entry { at, seq, id, handler: Box::new(handler) });
        id
    }

    /// Schedules `handler` after a relative delay from the current time.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, handler: F) -> EventId
    where
        F: FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    {
        self.schedule_at(self.now + delay, handler)
    }

    /// Cancels a pending event. Returns `true` if the event had not yet run
    /// or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq || self.executed_contains(id) {
            return false;
        }
        self.cancelled.insert(id)
    }

    fn executed_contains(&self, id: EventId) -> bool {
        // Events execute in seq order only among ties; a cheap conservative
        // check: an event is definitely executed if it was popped. We track
        // that by removing it from the queue, so "pending" membership is the
        // authority. Scan is avoided by trying the cancel set first.
        !self.queue.iter().any(|e| e.id == id) && !self.cancelled.contains(&id)
    }

    /// Pops and executes a single event. Returns `false` when the calendar
    /// is empty.
    pub fn step(&mut self, state: &mut S) -> bool {
        while let Some(entry) = self.queue.pop() {
            if self.cancelled.remove(&entry.id) {
                continue;
            }
            self.now = entry.at;
            self.executed += 1;
            (entry.handler)(state, self);
            return true;
        }
        false
    }

    /// Runs until the calendar is empty. Returns the final virtual time.
    pub fn run(&mut self, state: &mut S) -> SimTime {
        while self.step(state) {}
        self.now
    }

    /// Runs until the calendar is empty or `deadline` is reached (events at
    /// exactly `deadline` still run). Returns the final virtual time.
    pub fn run_until(&mut self, state: &mut S, deadline: SimTime) -> SimTime {
        loop {
            let next_at = loop {
                match self.queue.peek() {
                    Some(e) if self.cancelled.contains(&e.id) => {
                        let e = self.queue.pop().expect("peeked entry");
                        self.cancelled.remove(&e.id);
                    }
                    Some(e) => break Some(e.at),
                    None => break None,
                }
            };
            match next_at {
                Some(at) if at <= deadline => {
                    self.step(state);
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.now
    }
}

impl<S> std::fmt::Debug for Scheduler<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut s: Scheduler<Vec<u8>> = Scheduler::new();
        s.schedule_at(SimTime::from_picos(30), |log, _| log.push(3));
        s.schedule_at(SimTime::from_picos(10), |log, _| log.push(1));
        s.schedule_at(SimTime::from_picos(20), |log, _| log.push(2));
        let mut log = Vec::new();
        let end = s.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(end, SimTime::from_picos(30));
        assert_eq!(s.executed(), 3);
    }

    #[test]
    fn ties_run_fifo() {
        let mut s: Scheduler<Vec<u8>> = Scheduler::new();
        let t = SimTime::from_picos(5);
        for i in 0..4 {
            s.schedule_at(t, move |log, _| log.push(i));
        }
        let mut log = Vec::new();
        s.run(&mut log);
        assert_eq!(log, vec![0, 1, 2, 3]);
    }

    #[test]
    fn handlers_schedule_followups() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_in(SimDuration::from_nanos(1), |n, sched| {
            *n += 1;
            sched.schedule_in(SimDuration::from_nanos(1), |n, _| *n += 10);
        });
        let mut n = 0;
        s.run(&mut n);
        assert_eq!(n, 11);
        assert_eq!(s.now(), SimTime::from_picos(2_000));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let id = s.schedule_in(SimDuration::from_nanos(1), |n, _| *n += 1);
        assert!(s.cancel(id));
        assert!(!s.cancel(id), "double cancel reports false");
        let mut n = 0;
        s.run(&mut n);
        assert_eq!(n, 0);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_at(SimTime::from_picos(10), |_, _| {});
        let mut st = ();
        s.run(&mut st);
        s.schedule_at(SimTime::from_picos(5), |_, _| {});
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut s: Scheduler<Vec<u8>> = Scheduler::new();
        s.schedule_at(SimTime::from_picos(10), |log, _| log.push(1));
        s.schedule_at(SimTime::from_picos(20), |log, _| log.push(2));
        s.schedule_at(SimTime::from_picos(30), |log, _| log.push(3));
        let mut log = Vec::new();
        let t = s.run_until(&mut log, SimTime::from_picos(20));
        assert_eq!(log, vec![1, 2]);
        assert_eq!(t, SimTime::from_picos(20));
        s.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
    }

    #[test]
    fn step_returns_false_when_empty() {
        let mut s: Scheduler<()> = Scheduler::new();
        let mut st = ();
        assert!(!s.step(&mut st));
    }
}
