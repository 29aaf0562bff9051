//! Exception and fault handling for pushdown calls (paper §3.2).
//!
//! TELEPORTed functions may throw exceptions (caught by the memory-side
//! stub and rethrown compute-side), time out (triggering `try_cancel`),
//! hang (killed after a conservative timeout), lose the memory pool
//! entirely (a kernel panic, since main memory is gone — unless a replica
//! pool is configured, in which case the loss surfaces as a recoverable
//! [`PushdownError::PoolFailedOver`]), or be shed by admission control
//! before queueing ([`PushdownError::Rejected`]).

use std::fmt;

use ddc_sim::SimDuration;

/// Why a pushdown call did not return a normal result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushdownError {
    /// The pushed function raised an exception (in Rust terms: panicked).
    /// The payload is rethrown on the compute side; here it is surfaced as
    /// an error carrying the panic message, mirroring the paper's
    /// catch-and-rethrow stub.
    Exception(String),
    /// The caller's timeout elapsed while the request was still queued, and
    /// `try_cancel` succeeded: the request was removed from the workqueue
    /// without running. The application is free to run the function
    /// locally or retry.
    CancelledBeforeStart,
    /// The pushed function failed to complete within the kernel's
    /// conservative kill timeout and was killed to avoid blocking other
    /// pushdown requests; the compute side receives an abort.
    Killed { ran_for: SimDuration },
    /// The memory pool became unreachable (network or hardware failure).
    /// Because the pool holds main memory, the disaggregated OS must
    /// kernel-panic; the runtime is dead afterwards.
    KernelPanic,
    /// The primary memory pool died mid-call, but a replica was configured
    /// and the backup was promoted (crash-consistently) in its place. The
    /// in-flight pushdown is lost — `lost_epoch` names the pool epoch it
    /// was running against — but the runtime stays alive; retrying reaches
    /// the promoted pool.
    PoolFailedOver { lost_epoch: u64 },
    /// Admission control shed the request before it queued: the memory-side
    /// workqueue was over its configured depth or virtual-time deadline.
    /// `backlog` is the drain estimate that triggered the verdict; backing
    /// off and retrying is expected to succeed once it drains.
    Rejected { backlog: SimDuration },
    /// A page's corruption could not be repaired: no intact copy survives
    /// in storage or on a replica. The pushdown's result is discarded and
    /// this typed error surfaces instead — never a wrong answer. Retrying
    /// cannot help: the data itself is gone.
    DataLoss { page: u64 },
    /// The memory pool answered a `try_cancel` of request `req` with an
    /// outcome the workqueue protocol does not allow at that point (a
    /// queued request that declined to cancel, or a running one that was
    /// cancelled). A guard: it indicates a protocol bug, not a transient
    /// fault, and is never retried.
    ProtocolViolation { req: u64 },
    /// The call's write or acknowledgement carried a pool epoch older than
    /// the current primary's: a zombie pool (or a call racing its crash)
    /// tried to land state from a dead life of the shard, and the epoch
    /// fence rejected it. Nothing landed — at-most-once holds — so a retry
    /// against the current epoch is safe and expected to succeed.
    Fenced { stale_epoch: u64 },
    /// The call completed, but only after its deadline budget was already
    /// spent — `over` is how far past the deadline it landed. The work's
    /// side effects stand (the memory pool ran it to completion); the
    /// caller's SLO did not. Neither retrying nor a local fallback can
    /// un-spend the time, so resilience policies never cover this.
    DeadlineExceeded { over: SimDuration },
}

impl fmt::Display for PushdownError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushdownError::Exception(msg) => write!(f, "pushdown function threw: {msg}"),
            PushdownError::CancelledBeforeStart => {
                write!(f, "pushdown cancelled before execution started")
            }
            PushdownError::Killed { ran_for } => {
                write!(f, "pushdown killed after running for {ran_for}")
            }
            PushdownError::KernelPanic => {
                write!(f, "kernel panic: memory pool unreachable")
            }
            PushdownError::PoolFailedOver { lost_epoch } => {
                write!(
                    f,
                    "memory pool failed over: epoch {lost_epoch} died, backup promoted"
                )
            }
            PushdownError::Rejected { backlog } => {
                write!(
                    f,
                    "pushdown rejected by admission control ({backlog} backlog)"
                )
            }
            PushdownError::DataLoss { page } => {
                write!(
                    f,
                    "unrecoverable data loss: page pg{page} has no intact copy"
                )
            }
            PushdownError::ProtocolViolation { req } => {
                write!(f, "cancellation protocol violation on request {req}")
            }
            PushdownError::Fenced { stale_epoch } => {
                write!(
                    f,
                    "write fenced: epoch {stale_epoch} is stale, nothing landed"
                )
            }
            PushdownError::DeadlineExceeded { over } => {
                write!(f, "pushdown finished {over} past its deadline budget")
            }
        }
    }
}

impl PushdownError {
    /// Whether running the function again — re-pushed, locally, or as a
    /// hedge clone — can turn this failure into a value. The one recovery
    /// verdict: `pushdown_resilient`'s retry and fallback and
    /// `pushdown_hedged` all read it.
    ///
    /// Every variant is classified by name: a new variant does not compile
    /// until it has an arm here (`E0004`), and the `deny` makes a `_ =>`
    /// arm — which would pick a recovery decision for future variants that
    /// nobody reviewed — an error under the `cargo clippy` CI runs. Two
    /// lints, because clippy reports a wildcard that stands for exactly one
    /// variant under the second name (and one that stands for none is
    /// rustc's `unreachable_patterns`).
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn recoverable(&self) -> bool {
        match self {
            // A re-run reaches the promoted pool, the current epoch (a
            // fenced call landed nothing, so at-most-once holds) or, after
            // a backoff or on the compute pool, past the shedding backlog.
            PushdownError::Exception(_)
            | PushdownError::CancelledBeforeStart
            | PushdownError::Killed { .. }
            | PushdownError::PoolFailedOver { .. }
            | PushdownError::Fenced { .. }
            | PushdownError::Rejected { .. } => true,
            // Main memory is gone; a re-run would read the same lost bytes
            // (the wrong answer the integrity plane exists to prevent); a
            // protocol violation is a kernel bug; and spent time stays
            // spent, so a re-run only makes the answer later still.
            PushdownError::KernelPanic
            | PushdownError::DataLoss { .. }
            | PushdownError::ProtocolViolation { .. }
            | PushdownError::DeadlineExceeded { .. } => false,
        }
    }
}

impl std::error::Error for PushdownError {}

/// Outcome of a `try_cancel` request issued after a timeout (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The request had not started; it was removed from the workqueue.
    Cancelled,
    /// The function was already running; the memory pool declines to cancel
    /// and the application must wait for completion.
    Declined,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = PushdownError::Killed {
            ran_for: SimDuration::from_secs(60),
        };
        assert!(e.to_string().contains("60"));
        assert!(PushdownError::KernelPanic.to_string().contains("panic"));
        assert!(PushdownError::Exception("oops".into())
            .to_string()
            .contains("oops"));
        assert!(PushdownError::DataLoss { page: 42 }
            .to_string()
            .contains("pg42"));
        assert!(PushdownError::ProtocolViolation { req: 7 }
            .to_string()
            .contains('7'));
        assert!(PushdownError::DeadlineExceeded {
            over: SimDuration::from_micros(5)
        }
        .to_string()
        .contains("deadline"));
        assert!(PushdownError::Fenced { stale_epoch: 3 }
            .to_string()
            .contains("epoch 3"));
    }

    #[test]
    fn every_variant_has_its_recovery_verdict() {
        let d = SimDuration::from_micros(3);
        let table = [
            (PushdownError::Exception("oops".into()), true),
            (PushdownError::CancelledBeforeStart, true),
            (PushdownError::Killed { ran_for: d }, true),
            (PushdownError::KernelPanic, false),
            (PushdownError::PoolFailedOver { lost_epoch: 0 }, true),
            (PushdownError::Rejected { backlog: d }, true),
            (PushdownError::DataLoss { page: 9 }, false),
            (PushdownError::ProtocolViolation { req: 1 }, false),
            (PushdownError::Fenced { stale_epoch: 2 }, true),
            (PushdownError::DeadlineExceeded { over: d }, false),
        ];
        for (err, recoverable) in table {
            assert_eq!(err.recoverable(), recoverable, "{err}");
        }
    }
}
