//! Continuous-batching scheduler with fair-share tenant rotation.
//!
//! Admitted requests wait in per-tenant FIFO queues. When a shard goes
//! idle at a pump-round quiesce point, [`ContinuousBatcher::form_batch_where`]
//! assembles the next batch by round-robin over tenants: one request per
//! tenant per lap, resuming from a rotating cursor so no tenant is
//! structurally first. A tenant flooding its own queue therefore cannot
//! crowd others out of a batch — it only deepens its own backlog, which
//! is exactly the isolation property the starvation tests pin down.

use std::collections::{BTreeMap, VecDeque};

use ccai_sim::snapshot::{Decoder, Encoder, SnapshotError, SnapshotState};

use super::arrival::Request;

/// Fair-share batch former over per-tenant FIFO queues.
#[derive(Debug)]
pub struct ContinuousBatcher {
    /// Admitted-but-undispatched requests, FIFO per tenant.
    queues: BTreeMap<u32, VecDeque<Request>>,
    /// Tenant visitation order (sorted tags — BTreeMap order).
    rotation: Vec<u32>,
    /// Next rotation slot to offer a batch seat to.
    cursor: usize,
    /// Total queued requests across all tenants.
    queued: usize,
}

impl ContinuousBatcher {
    /// Creates a batcher over the given tenant tags.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty.
    pub fn new(tenants: &[u32]) -> ContinuousBatcher {
        assert!(!tenants.is_empty(), "batcher needs at least one tenant");
        let mut rotation = tenants.to_vec();
        rotation.sort_unstable();
        rotation.dedup();
        let queues = rotation.iter().map(|&t| (t, VecDeque::new())).collect();
        ContinuousBatcher { queues, rotation, cursor: 0, queued: 0 }
    }

    /// Queues an admitted request behind its tenant's earlier requests.
    ///
    /// # Panics
    ///
    /// Panics if the request's tenant was not registered at construction.
    pub fn enqueue(&mut self, request: Request) {
        let queue = self
            .queues
            .get_mut(&request.tenant)
            .expect("request for a tenant the batcher does not know");
        queue.push_back(request);
        self.queued += 1;
    }

    /// Total queued requests.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Queued requests for one tenant (0 for unknown tenants).
    pub fn queued_for(&self, tenant: u32) -> usize {
        self.queues.get(&tenant).map_or(0, VecDeque::len)
    }

    /// Forms the next batch of up to `max` requests: round-robin over
    /// tenants starting at the rotation cursor, one seat per tenant per
    /// lap, until the batch is full or a full lap finds nothing queued.
    /// Only tenants for which `eligible` returns true are offered seats.
    /// Used by sharded dispatch: a shard forming a batch may only seat
    /// tenants homed to it, leaving other tenants' queues untouched for
    /// their own shards. The rotation cursor still advances over every
    /// visited slot, so fairness is preserved across shards.
    pub fn form_batch_where(
        &mut self,
        max: usize,
        mut eligible: impl FnMut(u32) -> bool,
    ) -> Vec<Request> {
        let mut batch = Vec::new();
        if max == 0 || self.queued == 0 {
            return batch;
        }
        let lanes = self.rotation.len();
        let mut idle_lap = 0;
        while batch.len() < max && idle_lap < lanes {
            let tenant = self.rotation[self.cursor];
            self.cursor = (self.cursor + 1) % lanes;
            if !eligible(tenant) {
                idle_lap += 1;
                continue;
            }
            match self.queues.get_mut(&tenant).and_then(VecDeque::pop_front) {
                Some(req) => {
                    self.queued -= 1;
                    batch.push(req);
                    idle_lap = 0;
                }
                None => idle_lap += 1,
            }
        }
        batch
    }

    /// Returns an already-admitted request to the *front* of its tenant's
    /// queue, ahead of everything later. This is the failover path: when
    /// a replica dies mid-round, its in-flight batch is requeued here so
    /// the requests keep their original admission (and arrival stamp) and
    /// are re-dispatched before newer work — exactly-once, never dropped,
    /// never double-counted.
    ///
    /// # Panics
    ///
    /// Panics if the request's tenant was not registered at construction.
    pub fn requeue_front(&mut self, request: Request) {
        let queue = self
            .queues
            .get_mut(&request.tenant)
            .expect("requeue for a tenant the batcher does not know");
        queue.push_front(request);
        self.queued += 1;
    }

    /// Removes and returns every queued request for one tenant (used when
    /// a tenant is quarantined mid-flight: its queued work is shed, not
    /// silently dropped).
    pub fn drain_tenant(&mut self, tenant: u32) -> Vec<Request> {
        match self.queues.get_mut(&tenant) {
            Some(queue) => {
                let drained: Vec<Request> = queue.drain(..).collect();
                self.queued -= drained.len();
                drained
            }
            None => Vec::new(),
        }
    }
}

/// The rotation cursor and the per-tenant queues; the rotation and the
/// queued total are derived. A restored batcher needs a tenant, a cursor
/// inside the rotation and every request queued under its own tenant.
impl SnapshotState for ContinuousBatcher {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.put(&self.cursor);
        enc.put(&self.queues);
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let (cursor, queues): (usize, BTreeMap<u32, VecDeque<Request>>) = dec.get()?;
        if queues.iter().any(|(&tenant, queue)| queue.iter().any(|r| r.tenant != tenant)) {
            return Err(SnapshotError::Invalid("queued request under wrong tenant"));
        }
        let rotation: Vec<u32> = queues.keys().copied().collect();
        if cursor >= rotation.len() {
            return Err(SnapshotError::Invalid("batcher cursor out of range"));
        }
        let queued = queues.values().map(VecDeque::len).sum();
        Ok(ContinuousBatcher { queues, rotation, cursor, queued })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_sim::SimTime;

    fn req(id: u64, tenant: u32) -> Request {
        Request {
            id,
            tenant,
            arrived: SimTime::from_picos(id),
            input_tokens: 8,
            output_tokens: 8,
        }
    }

    impl ContinuousBatcher {
        /// A batch with every tenant eligible.
        fn form_batch(&mut self, max: usize) -> Vec<Request> {
            self.form_batch_where(max, |_| true)
        }
    }

    #[test]
    fn round_robin_gives_each_tenant_one_seat_per_lap() {
        let mut b = ContinuousBatcher::new(&[1, 2, 3]);
        for id in 0..6 {
            b.enqueue(req(id, 1)); // tenant 1 floods
        }
        b.enqueue(req(10, 2));
        b.enqueue(req(11, 3));
        let batch = b.form_batch(3);
        let tenants: Vec<u32> = batch.iter().map(|r| r.tenant).collect();
        assert_eq!(tenants, vec![1, 2, 3], "flooder must not take extra seats in lap one");
    }

    #[test]
    fn flooder_fills_leftover_capacity_only() {
        let mut b = ContinuousBatcher::new(&[1, 2]);
        for id in 0..8 {
            b.enqueue(req(id, 1));
        }
        b.enqueue(req(100, 2));
        let batch = b.form_batch(6);
        assert_eq!(batch.len(), 6);
        let t1 = batch.iter().filter(|r| r.tenant == 1).count();
        assert_eq!(t1, 5, "flooder takes the leftover seats after everyone is served");
        assert_eq!(b.queued(), 3);
    }

    #[test]
    fn cursor_rotates_between_batches() {
        let mut b = ContinuousBatcher::new(&[1, 2]);
        for id in 0..4 {
            b.enqueue(req(id, 1));
            b.enqueue(req(100 + id, 2));
        }
        let first = b.form_batch(1);
        let second = b.form_batch(1);
        assert_eq!(first[0].tenant, 1);
        assert_eq!(second[0].tenant, 2, "next batch starts at the next tenant");
    }

    #[test]
    fn fifo_within_a_tenant() {
        let mut b = ContinuousBatcher::new(&[5]);
        for id in 0..5 {
            b.enqueue(req(id, 5));
        }
        let batch = b.form_batch(5);
        let ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drain_tenant_removes_only_that_tenant() {
        let mut b = ContinuousBatcher::new(&[1, 2]);
        b.enqueue(req(0, 1));
        b.enqueue(req(1, 1));
        b.enqueue(req(2, 2));
        let drained = b.drain_tenant(1);
        assert_eq!(drained.len(), 2);
        assert_eq!(b.queued(), 1);
        assert_eq!(b.queued_for(1), 0);
        assert_eq!(b.queued_for(2), 1);
    }

    #[test]
    fn snapshot_round_trips_queues_and_cursor() {
        let mut b = ContinuousBatcher::new(&[1, 2, 3]);
        for id in 0..5 {
            b.enqueue(req(id, 1 + (id as u32 % 3)));
        }
        let _ = b.form_batch(2); // move the cursor off zero
        let mut enc = Encoder::new();
        enc.put(&b);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let mut back: ContinuousBatcher = dec.get().unwrap();
        dec.finish().unwrap();
        assert_eq!(back.queued(), b.queued());
        // Identical state must form identical batches from here on.
        assert_eq!(back.form_batch(8), b.form_batch(8));
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_batcher_rejected() {
        let _ = ContinuousBatcher::new(&[]);
    }

    #[test]
    fn filtered_batch_leaves_ineligible_tenants_queued() {
        let mut b = ContinuousBatcher::new(&[1, 2, 3]);
        for id in 0..2 {
            b.enqueue(req(id, 1));
            b.enqueue(req(10 + id, 2));
            b.enqueue(req(20 + id, 3));
        }
        let batch = b.form_batch_where(8, |t| t != 2);
        assert_eq!(batch.len(), 4);
        assert!(batch.iter().all(|r| r.tenant != 2), "filtered tenant keeps its seats");
        assert_eq!(b.queued_for(2), 2);
        assert_eq!(b.queued(), 2);
    }

    #[test]
    fn requeue_front_preserves_fifo_order() {
        let mut b = ContinuousBatcher::new(&[7]);
        for id in 0..4 {
            b.enqueue(req(id, 7));
        }
        let batch = b.form_batch(2);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
        // Failover: the in-flight batch comes back in reverse so the
        // front of the queue reads 0, 1, 2, 3 again.
        for r in batch.into_iter().rev() {
            b.requeue_front(r);
        }
        let again = b.form_batch(4);
        assert_eq!(again.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }
}
