//! Deterministic interleaving of logical threads, and a queueing model for
//! parallel pushdown contexts.
//!
//! The paper's multi-threaded experiments (Figs 6, 7, 21, 22) interleave a
//! compute-bound thread with a memory-bound thread over shared coherence
//! state. [`Interleaver`] realizes this as a discrete-event schedule: each
//! logical thread ("lane") owns a virtual clock, and the engine always steps
//! the lane whose clock is earliest, so cross-lane interactions happen in a
//! deterministic global order.
//!
//! [`multiplex_makespan`] models Fig 17: N logical TELEPORT user contexts
//! time-sliced over a smaller number of physical cores in the memory pool,
//! with context-switch overhead producing the paper's diminishing returns.

use crate::time::{SimDuration, SimTime};

/// State of one logical thread in an interleaved simulation.
#[derive(Debug, Clone, Copy)]
struct LaneState {
    clock: SimTime,
    done: bool,
}

/// A deterministic min-clock scheduler over logical threads.
#[derive(Debug, Clone)]
pub struct Interleaver {
    lanes: Vec<LaneState>,
}

impl Interleaver {
    /// Create `n` lanes, all at time zero and runnable.
    pub fn new(n: usize) -> Self {
        Interleaver {
            lanes: vec![
                LaneState {
                    clock: SimTime::ZERO,
                    done: false,
                };
                n
            ],
        }
    }

    /// The runnable lane with the earliest clock (ties broken by lowest
    /// index, keeping schedules deterministic). `None` when all lanes are
    /// finished.
    pub fn next_lane(&self) -> Option<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.done)
            .min_by_key(|(i, l)| (l.clock, *i))
            .map(|(i, _)| i)
    }

    /// Advance `lane`'s clock by `d`.
    pub fn advance(&mut self, lane: usize, d: SimDuration) {
        self.lanes[lane].clock += d;
    }

    /// Current clock of `lane`.
    pub fn clock_of(&self, lane: usize) -> SimTime {
        self.lanes[lane].clock
    }

    /// Mark `lane` finished; its clock freezes at its current value.
    pub fn finish(&mut self, lane: usize) {
        self.lanes[lane].done = true;
    }

    pub fn is_finished(&self, lane: usize) -> bool {
        self.lanes[lane].done
    }

    /// The completion time of the whole run: the latest lane clock.
    pub fn makespan(&self) -> SimDuration {
        SimDuration(self.lanes.iter().map(|l| l.clock.0).max().unwrap_or(0))
    }
}

/// Makespan of running `jobs` on `contexts` logical workers multiplexed over
/// `cores` physical cores with round-robin time slicing.
///
/// While more contexts than cores are active, every scheduling quantum pays
/// `ctx_switch` of overhead, so per-context progress is scaled by
/// `cores / active * quantum / (quantum + ctx_switch)`. With `active <=
/// cores`, contexts run undisturbed at full speed. This reproduces the
/// paper's Fig 17: speedup grows with added contexts, then flattens once the
/// memory pool's two physical cores are oversubscribed.
pub fn multiplex_makespan(
    jobs: &[SimDuration],
    contexts: usize,
    cores: usize,
    ctx_switch: SimDuration,
    quantum: SimDuration,
) -> SimDuration {
    assert!(
        contexts > 0 && cores > 0,
        "need at least one context and core"
    );
    assert!(quantum > SimDuration::ZERO, "quantum must be positive");

    // Remaining work per busy context, in ns of dedicated-core time.
    let mut running: Vec<f64> = Vec::with_capacity(contexts);
    let mut queue: std::collections::VecDeque<f64> =
        jobs.iter().map(|d| d.as_nanos() as f64).collect();
    let mut now = 0.0_f64;

    while running.len() < contexts {
        match queue.pop_front() {
            Some(j) => running.push(j),
            None => break,
        }
    }

    let overhead_factor =
        quantum.as_nanos() as f64 / (quantum.as_nanos() + ctx_switch.as_nanos()) as f64;

    while !running.is_empty() {
        let active = running.len();
        // Fraction of a dedicated core each active context receives.
        let rate = if active <= cores {
            1.0
        } else {
            cores as f64 / active as f64 * overhead_factor
        };
        // Next completion among active contexts.
        let least = running
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("running is non-empty");
        let dt = least / rate;
        now += dt;
        let progressed = dt * rate;
        for w in &mut running {
            *w -= progressed;
        }
        // Every context that just finished (possibly several at once) frees
        // a slot and immediately pulls the next queued job.
        let mut i = 0;
        while i < running.len() {
            if running[i] <= 1e-9 {
                running.swap_remove(i);
                if let Some(j) = queue.pop_front() {
                    running.push(j);
                }
            } else {
                i += 1;
            }
        }
    }

    SimDuration::from_nanos(now.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaver_steps_earliest_lane() {
        let mut il = Interleaver::new(2);
        assert_eq!(il.next_lane(), Some(0), "tie broken by index");
        il.advance(0, SimDuration::from_nanos(10));
        assert_eq!(il.next_lane(), Some(1));
        il.advance(1, SimDuration::from_nanos(25));
        assert_eq!(il.next_lane(), Some(0));
    }

    #[test]
    fn interleaver_finish_and_makespan() {
        let mut il = Interleaver::new(3);
        il.advance(0, SimDuration::from_nanos(5));
        il.advance(1, SimDuration::from_nanos(9));
        il.advance(2, SimDuration::from_nanos(7));
        il.finish(0);
        il.finish(2);
        assert_eq!(il.next_lane(), Some(1));
        il.finish(1);
        assert_eq!(il.next_lane(), None, "every lane finished");
        assert_eq!(il.makespan().as_nanos(), 9);
    }

    #[test]
    fn multiplex_single_context_serializes() {
        let job = SimDuration::from_millis(10);
        let jobs = vec![job; 8];
        let t = multiplex_makespan(
            &jobs,
            1,
            2,
            SimDuration::from_micros(5),
            SimDuration::from_millis(1),
        );
        assert_eq!(t, job * 8, "one context runs jobs back to back");
    }

    #[test]
    fn multiplex_scales_then_saturates() {
        let jobs = vec![SimDuration::from_millis(10); 8];
        let cs = SimDuration::from_micros(5);
        let q = SimDuration::from_millis(1);
        let t1 = multiplex_makespan(&jobs, 1, 2, cs, q);
        let t2 = multiplex_makespan(&jobs, 2, 2, cs, q);
        let t4 = multiplex_makespan(&jobs, 4, 2, cs, q);
        // Two contexts on two cores: near-perfect 2x.
        let s2 = t1.ratio(t2);
        assert!(s2 > 1.9 && s2 < 2.05, "2-context speedup was {s2:.2}");
        // Four contexts on two cores: no faster than two, slightly slower
        // due to context switching (diminishing returns in Fig 17).
        assert!(t4 >= t2, "oversubscription cannot beat core count");
        let s4 = t1.ratio(t4);
        assert!(s4 > 1.5, "still roughly core-bound, got {s4:.2}");
    }

    #[test]
    fn multiplex_handles_uneven_jobs() {
        let jobs = vec![
            SimDuration::from_millis(30),
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
        ];
        let t = multiplex_makespan(&jobs, 2, 2, SimDuration::ZERO, SimDuration::from_millis(1));
        // Long job dominates: makespan == 30ms.
        assert_eq!(t, SimDuration::from_millis(30));
    }

    #[test]
    fn multiplex_empty_jobs_is_zero() {
        let t = multiplex_makespan(
            &[],
            4,
            2,
            SimDuration::from_micros(5),
            SimDuration::from_millis(1),
        );
        assert_eq!(t, SimDuration::ZERO);
    }
}
