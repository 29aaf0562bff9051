//! The RDMA RPC layer between the pools (paper §3.2 / §6).
//!
//! TELEPORT's messaging is built on a LITE-style two-sided RPC implemented
//! with one-sided RDMA writes. The compute kernel packs a pushdown request
//! (function pointer, argument pointer, flags, and the RLE-compressed
//! resident-page list) into a single message; the memory kernel's RPC
//! server enqueues it on the workqueue of a TELEPORT instance, waking the
//! instance if it was sleeping to save the pool's scarce compute.
//!
//! Wire sizes are real: the runtime bills [`REQUEST_HEADER_BYTES`] plus
//! [`crate::rle::RUN_WIRE_BYTES`] per run of the resident list it ships, so
//! the request-transfer component of the Fig 20 breakdown reflects the
//! actual message the protocol would send.

use std::collections::VecDeque;

use ddc_sim::{QosClass, SimDuration};

/// Fixed header of a pushdown request: fn pointer (8) + arg pointer (8) +
/// flags (4) + payload length (4).
pub const REQUEST_HEADER_BYTES: usize = 24;

/// A pushdown response: status (4) + return value slot (8).
pub const RESPONSE_BYTES: usize = 12;

/// Memory-side admission control for the pushdown workqueue.
///
/// The memory pool's compute is scarce (§3.2): once the workqueue backs up
/// past a configured depth or drain-time estimate, accepting another request
/// only adds queueing delay for everyone. An `AdmissionPolicy` lets the
/// memory kernel shed such requests *before* they queue, bouncing a typed
/// [`crate::PushdownError::Rejected`] back to the caller so backpressure is
/// explicit and recoverable (retry with backoff, or fall back locally)
/// instead of an opaque stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum number of *other* requests that may sit in the workqueue
    /// ahead of a new arrival; deeper than this and the arrival is shed.
    pub max_queue_depth: usize,
    /// Maximum estimated virtual-time backlog (other tenants' queued work)
    /// a new arrival may wait behind; longer and the arrival is shed.
    pub max_backlog: SimDuration,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_queue_depth: 4,
            max_backlog: SimDuration::from_millis(1),
        }
    }
}

impl AdmissionPolicy {
    /// Verdict for a request arriving behind `waiting` queued requests and
    /// an estimated `backlog` of other tenants' work.
    pub fn admits(&self, waiting: usize, backlog: SimDuration) -> bool {
        waiting <= self.max_queue_depth && backlog <= self.max_backlog
    }

    /// The effective `(max_queue_depth, max_backlog)` limits for a tenant
    /// of `class`: the nominal limits scaled by the class's headroom
    /// multiplier (best-effort ×1, burstable ×2, guaranteed ×4), with
    /// `headroom - 1` extra queue slots so the classes stay strictly
    /// separated even when `max_queue_depth` is 0. Because the limits
    /// nest, at any instant the set of states a best-effort request
    /// survives is a subset of what burstable survives, which is a subset
    /// of guaranteed — best-effort always sheds first.
    pub fn class_limits(&self, class: QosClass) -> (usize, SimDuration) {
        let h = class.headroom();
        (
            self.max_queue_depth
                .saturating_mul(h as usize)
                .saturating_add(h as usize - 1),
            self.max_backlog * h,
        )
    }

    /// Class-aware verdict: [`AdmissionPolicy::admits`] against the
    /// headroom-scaled limits of `class`.
    pub fn admits_class(&self, class: QosClass, waiting: usize, backlog: SimDuration) -> bool {
        let (depth, backlog_cap) = self.class_limits(class);
        waiting <= depth && backlog <= backlog_cap
    }
}

/// State of one queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    Queued,
    Running,
    Completed,
    Cancelled,
}

/// The memory-side RPC server: a workqueue drained by a pool of TELEPORT
/// instances (each a kernel thread owning a temporary-context slot).
#[derive(Debug)]
pub struct RpcServer {
    queue: VecDeque<u64>,
    states: Vec<RequestState>,
    instances: usize,
    running: usize,
    /// Instances currently sleeping (they sleep when the queue is empty to
    /// free the memory pool's scarce compute — §3.2 step ❸).
    sleeping: usize,
    wakeup_cost: SimDuration,
    wakeups: u64,
}

impl RpcServer {
    pub fn new(instances: usize, wakeup_cost: SimDuration) -> Self {
        assert!(instances > 0, "need at least one TELEPORT instance");
        RpcServer {
            queue: VecDeque::new(),
            states: Vec::new(),
            instances,
            running: 0,
            sleeping: instances,
            wakeup_cost,
            wakeups: 0,
        }
    }

    pub fn instances(&self) -> usize {
        self.instances
    }

    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Enqueue a request; returns its id and the wakeup cost incurred (zero
    /// if an instance was already awake and polling).
    pub fn enqueue(&mut self) -> (u64, SimDuration) {
        let id = self.states.len() as u64;
        self.states.push(RequestState::Queued);
        self.queue.push_back(id);
        if self.sleeping > 0 {
            self.sleeping -= 1;
            self.wakeups += 1;
            (id, self.wakeup_cost)
        } else {
            (id, SimDuration::ZERO)
        }
    }

    /// An idle instance pulls the next request. Returns `None` when the
    /// queue is empty or every instance slot is busy.
    pub fn dequeue(&mut self) -> Option<u64> {
        if self.running >= self.instances {
            return None;
        }
        let id = self.queue.pop_front()?;
        self.states[id as usize] = RequestState::Running;
        self.running += 1;
        Some(id)
    }

    /// Mark a running request finished; the instance goes back to sleep if
    /// no further work is queued.
    pub fn complete(&mut self, id: u64) {
        assert_eq!(self.states[id as usize], RequestState::Running);
        self.states[id as usize] = RequestState::Completed;
        self.running -= 1;
        if self.queue.is_empty() {
            self.sleeping = (self.sleeping + 1).min(self.instances);
        }
    }

    /// `try_cancel` (§3.2): succeeds only while the request is still
    /// queued; a running request is declined and must run to completion.
    pub fn try_cancel(&mut self, id: u64) -> crate::fault::CancelOutcome {
        match self.states[id as usize] {
            RequestState::Queued => {
                self.queue.retain(|&q| q != id);
                self.states[id as usize] = RequestState::Cancelled;
                crate::fault::CancelOutcome::Cancelled
            }
            _ => crate::fault::CancelOutcome::Declined,
        }
    }

    pub fn state(&self, id: u64) -> RequestState {
        self.states[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CancelOutcome;

    #[test]
    fn admission_policy_sheds_only_past_both_limits() {
        let pol = AdmissionPolicy {
            max_queue_depth: 2,
            max_backlog: SimDuration::from_micros(100),
        };
        assert!(pol.admits(0, SimDuration::ZERO));
        assert!(
            pol.admits(2, SimDuration::from_micros(100)),
            "at the limits"
        );
        assert!(!pol.admits(3, SimDuration::ZERO), "too deep");
        assert!(!pol.admits(0, SimDuration::from_micros(101)), "too slow");
    }

    #[test]
    fn class_limits_nest_so_best_effort_sheds_first() {
        use ddc_sim::QOS_CLASSES;
        for pol in [
            AdmissionPolicy::default(),
            AdmissionPolicy {
                max_queue_depth: 0,
                max_backlog: SimDuration::ZERO,
            },
        ] {
            for pair in QOS_CLASSES.windows(2) {
                let (hi_d, hi_b) = pol.class_limits(pair[0]);
                let (lo_d, lo_b) = pol.class_limits(pair[1]);
                assert!(hi_d > lo_d, "{pair:?}: depth limits must nest strictly");
                assert!(hi_b >= lo_b, "{pair:?}: backlog limits must nest");
            }
            // Best-effort depth matches the class-blind policy exactly.
            assert_eq!(
                pol.class_limits(QosClass::BestEffort),
                (pol.max_queue_depth, pol.max_backlog)
            );
            // Any state a best-effort request survives, every class survives.
            for waiting in 0..8 {
                let backlog = SimDuration::from_micros(waiting as u64 * 300);
                if pol.admits_class(QosClass::BestEffort, waiting, backlog) {
                    assert!(pol.admits_class(QosClass::Burstable, waiting, backlog));
                    assert!(pol.admits_class(QosClass::Guaranteed, waiting, backlog));
                }
            }
        }
    }

    #[test]
    fn first_enqueue_wakes_an_instance() {
        let mut srv = RpcServer::new(1, SimDuration::from_micros(5));
        let (id, wake) = srv.enqueue();
        assert_eq!(wake, SimDuration::from_micros(5));
        assert_eq!(srv.wakeups(), 1);
        // A second request finds the instance awake.
        let (_, wake2) = srv.enqueue();
        assert_eq!(wake2, SimDuration::ZERO);
        assert_eq!(srv.state(id), RequestState::Queued);
    }

    #[test]
    fn single_instance_serializes_requests() {
        let mut srv = RpcServer::new(1, SimDuration::ZERO);
        let (a, _) = srv.enqueue();
        let (b, _) = srv.enqueue();
        assert_eq!(srv.dequeue(), Some(a));
        assert_eq!(srv.dequeue(), None, "instance is busy");
        srv.complete(a);
        assert_eq!(srv.dequeue(), Some(b));
        srv.complete(b);
        assert_eq!(srv.state(a), RequestState::Completed);
    }

    #[test]
    fn multiple_instances_run_in_parallel() {
        let mut srv = RpcServer::new(2, SimDuration::ZERO);
        let (a, _) = srv.enqueue();
        let (b, _) = srv.enqueue();
        let (c, _) = srv.enqueue();
        assert_eq!(srv.dequeue(), Some(a));
        assert_eq!(srv.dequeue(), Some(b));
        assert_eq!(srv.dequeue(), None, "both instances busy");
        srv.complete(b);
        assert_eq!(srv.dequeue(), Some(c));
    }

    #[test]
    fn cancel_works_only_while_queued() {
        let mut srv = RpcServer::new(1, SimDuration::ZERO);
        let (a, _) = srv.enqueue();
        let (b, _) = srv.enqueue();
        assert_eq!(srv.dequeue(), Some(a));
        // `a` is running: declined.
        assert_eq!(srv.try_cancel(a), CancelOutcome::Declined);
        // `b` is queued: cancelled and removed.
        assert_eq!(srv.try_cancel(b), CancelOutcome::Cancelled);
        srv.complete(a);
        assert_eq!(srv.dequeue(), None, "cancelled request never runs");
        assert_eq!(srv.state(b), RequestState::Cancelled);
    }
}
