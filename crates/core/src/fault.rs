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
}
