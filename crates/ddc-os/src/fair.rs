//! Deficit-round-robin fair queueing for the memory-side workqueue.
//!
//! When many tenants contend for the pool's scarce TELEPORT instances, a
//! plain FIFO workqueue lets one chatty tenant monopolize the rack: its
//! burst sits at the head and everyone else queues behind it. [`DrrQueue`]
//! replaces arrival order with *deficit round robin* (Shreedhar &
//! Varghese): each tenant owns a per-tenant FIFO and a quantum (its QoS
//! weight); a round-robin cursor visits non-empty tenants in index order,
//! tops the visited tenant's deficit up by its quantum, and serves sessions
//! while deficit remains (with unit session costs the quantum is spent
//! exactly, so this degenerates to weighted round robin — the deficit
//! machinery is kept for when session costs become non-uniform).
//!
//! Properties the serving plane relies on (property-tested in
//! `tests/serve_props.rs`):
//!
//! - **Starvation-free:** every quantum is ≥ 1 session, so a backlogged
//!   tenant is served at least once per round no matter how heavy the
//!   others are.
//! - **Weighted shares:** over any long busy period, tenant i completes
//!   sessions in proportion to `quantum_i`.
//! - **Deterministic:** tie-breaks are by tenant index; no hashing, no
//!   randomness. The same push/pop sequence always yields the same order.

use std::collections::VecDeque;

/// One tenant's lane inside the [`DrrQueue`].
#[derive(Debug, Clone)]
struct Lane<T> {
    queue: VecDeque<T>,
    quantum: u64,
    deficit: u64,
}

/// A deficit-round-robin queue over per-tenant FIFOs. Items cost one
/// deficit unit each (sessions, not bytes — the serving plane schedules
/// whole sessions).
#[derive(Debug, Clone)]
pub struct DrrQueue<T> {
    lanes: Vec<Lane<T>>,
    /// Next tenant index the round-robin cursor will consider.
    cursor: usize,
    /// Total queued items across all lanes.
    len: usize,
}

impl<T> DrrQueue<T> {
    /// A queue with one lane per entry of `quanta`; `quanta[t]` is tenant
    /// `t`'s per-round service share (must be ≥ 1 to rule out starvation).
    pub fn new(quanta: &[u64]) -> Self {
        assert!(!quanta.is_empty(), "need at least one tenant lane");
        assert!(
            quanta.iter().all(|&q| q >= 1),
            "zero quantum would starve a tenant"
        );
        DrrQueue {
            lanes: quanta
                .iter()
                .map(|&quantum| Lane {
                    queue: VecDeque::new(),
                    quantum,
                    deficit: 0,
                })
                .collect(),
            cursor: 0,
            len: 0,
        }
    }

    pub fn tenants(&self) -> usize {
        self.lanes.len()
    }

    /// Total queued items across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueue an item for tenant `t`.
    pub fn push(&mut self, t: usize, item: T) {
        self.lanes[t].queue.push_back(item);
        self.len += 1;
    }

    /// Dequeue the next item under DRR order; `None` when empty. Returns
    /// the owning tenant alongside the item.
    pub fn pop(&mut self) -> Option<(usize, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let t = self.cursor;
            let lane = &mut self.lanes[t];
            if lane.queue.is_empty() {
                // An idle tenant keeps no deficit: DRR resets the counter
                // when the lane drains so past idleness earns no burst.
                lane.deficit = 0;
                self.cursor = (self.cursor + 1) % self.lanes.len();
                continue;
            }
            if lane.deficit == 0 {
                // First consideration this visit: charge the quantum.
                lane.deficit = lane.quantum;
            }
            let item = lane.queue.pop_front().expect("lane checked non-empty");
            lane.deficit -= 1;
            if lane.deficit == 0 || lane.queue.is_empty() {
                if lane.queue.is_empty() {
                    lane.deficit = 0;
                }
                self.cursor = (self.cursor + 1) % self.lanes.len();
            }
            self.len -= 1;
            return Some((t, item));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut DrrQueue<u64>) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some((t, _)) = q.pop() {
            order.push(t);
        }
        order
    }

    #[test]
    fn equal_weights_interleave_round_robin() {
        let mut q = DrrQueue::new(&[1, 1]);
        for i in 0..3 {
            q.push(0, i);
            q.push(1, i);
        }
        assert_eq!(q.len(), 6);
        assert_eq!(drain(&mut q), vec![0, 1, 0, 1, 0, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn weights_buy_proportional_service() {
        // Tenant 0 weight 4, tenant 1 weight 1: each round serves 4 then 1.
        let mut q = DrrQueue::new(&[4, 1]);
        for i in 0..8 {
            q.push(0, i);
        }
        for i in 0..2 {
            q.push(1, i);
        }
        assert_eq!(drain(&mut q), vec![0, 0, 0, 0, 1, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn heavy_tenant_cannot_starve_light_tenant() {
        let mut q = DrrQueue::new(&[1, 4]);
        for i in 0..100 {
            q.push(1, i);
        }
        q.push(0, 0);
        // Tenant 0's single session is served within one full round.
        let order = drain(&mut q);
        let pos = order.iter().position(|&t| t == 0).unwrap();
        assert!(pos <= 4, "tenant 0 waited {pos} pops — starved");
    }

    #[test]
    fn leftover_deficit_is_not_hoarded_across_idle_periods() {
        let mut q = DrrQueue::new(&[3, 1]);
        q.push(0, 0); // served; lane drains with deficit left — reset to 0
        q.push(1, 0);
        assert_eq!(drain(&mut q), vec![0, 1]);
        // Refill: tenant 0 starts from a fresh quantum, not 2 + 3.
        for i in 0..5 {
            q.push(0, i);
        }
        q.push(1, 9);
        assert_eq!(drain(&mut q), vec![0, 0, 0, 1, 0, 0]);
    }

    #[test]
    fn pop_reports_owning_tenant_and_fifo_within_lane() {
        let mut q = DrrQueue::new(&[1, 1, 1]);
        q.push(2, 20);
        q.push(0, 10);
        q.push(2, 21);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((0, 10)));
        assert_eq!(q.pop(), Some((2, 20)));
        assert_eq!(q.pop(), Some((2, 21)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "zero quantum")]
    fn zero_quantum_is_rejected() {
        let _ = DrrQueue::<u64>::new(&[1, 0]);
    }
}
