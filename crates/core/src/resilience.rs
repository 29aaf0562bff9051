//! Retry and local-fallback policies for failed pushdowns (paper §3.2).
//!
//! The paper's exception model deliberately stops at *reporting*: a failed,
//! cancelled, or killed pushdown surfaces a [`PushdownError`] and the
//! application is "free to run the function locally or retry". This module
//! makes that freedom a declarative policy. A [`RetryPolicy`] bounds how
//! many re-pushdowns to attempt and how long to back off between them
//! (exponential with a cap, the same shape as the coherence layer's
//! `backoff_t`); a [`FallbackPolicy`] says which terminal errors should be
//! absorbed by re-executing the function locally on the compute pool.
//! [`crate::Runtime::pushdown_resilient`] interprets the combined
//! [`ResiliencePolicy`], charges backoff delays to virtual time, and emits
//! every decision as a typed `Recovery` trace event.
//!
//! A [`PushdownError::KernelPanic`] is never retried and never absorbed:
//! main memory is gone, so there is nothing left to run the function on.
//! A [`PushdownError::PoolFailedOver`] is different — the backup pool was
//! promoted and the runtime is alive, so both policies cover it by
//! default; likewise [`PushdownError::Rejected`], where backing off and
//! re-submitting is exactly what admission control asks callers to do.

use ddc_sim::SimDuration;

use crate::fault::PushdownError;

/// Bounded exponential-backoff retry of a failed pushdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of *re*-attempts (0 = never retry; the first call is
    /// not counted).
    pub max_retries: u32,
    /// Backoff charged before the first retry; doubles per further retry.
    pub base: SimDuration,
    /// Ceiling on a single backoff delay.
    pub cap: SimDuration,
    /// Total virtual-time budget across all backoff delays; once spending
    /// the next delay would exceed it, retrying stops. `None` = unbounded.
    pub budget: Option<SimDuration>,
    /// Whether a [`PushdownError::Killed`] call is retried. Off by default:
    /// a function the kernel had to kill once will likely hang again.
    pub retry_killed: bool,
    /// Whether a [`PushdownError::PoolFailedOver`] call is retried. On by
    /// default: the promoted pool is alive and a re-pushdown reaches it.
    pub retry_failed_over: bool,
    /// Whether a [`PushdownError::Rejected`] call is retried. On by
    /// default: backing off until the backlog drains is the intended
    /// reaction to admission shedding.
    pub retry_rejected: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: SimDuration::from_micros(10),
            cap: SimDuration::from_millis(10),
            budget: None,
            retry_killed: false,
            retry_failed_over: true,
            retry_rejected: true,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based): `base * 2^attempt`,
    /// saturating, capped at [`cap`](Self::cap). Monotone non-decreasing in
    /// `attempt` by construction.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        let ns = self.base.as_nanos().saturating_mul(factor);
        SimDuration::from_nanos(ns).min(self.cap)
    }

    /// Whether this policy retries after `err`.
    ///
    /// Every [`PushdownError`] variant is classified by name: a new variant
    /// does not compile until it has an arm here (`E0004`), and the `deny`
    /// makes a `_ =>` arm — which would pick a retry decision for future
    /// variants that nobody reviewed — an error under the `cargo clippy` CI
    /// runs. Two lints, because clippy reports a wildcard that stands for
    /// exactly one variant under the second name (and one that stands for
    /// none is rustc's `unreachable_patterns`).
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn covers(&self, err: &PushdownError) -> bool {
        match err {
            PushdownError::Exception(_) | PushdownError::CancelledBeforeStart => true,
            PushdownError::Killed { .. } => self.retry_killed,
            PushdownError::KernelPanic => false,
            PushdownError::PoolFailedOver { .. } => self.retry_failed_over,
            // Fencing guarantees nothing landed (at-most-once), so a
            // fenced call retries exactly like a failover: the current
            // primary is alive and a re-pushdown reaches it.
            PushdownError::Fenced { .. } => self.retry_failed_over,
            PushdownError::Rejected { .. } => self.retry_rejected,
            // The data is gone (or the kernel is buggy): re-pushing the
            // same call can only reproduce the failure.
            PushdownError::DataLoss { .. } => false,
            PushdownError::ProtocolViolation { .. } => false,
            // The work already completed; the time is spent either way.
            PushdownError::DeadlineExceeded { .. } => false,
        }
    }
}

/// Which terminal pushdown errors are absorbed by re-executing the function
/// locally (with full `syncmem` hygiene first, so the compute pool sees the
/// memory pool's latest writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FallbackPolicy {
    pub on_exception: bool,
    pub on_cancelled: bool,
    pub on_killed: bool,
    /// Absorb a [`PushdownError::PoolFailedOver`] by re-running locally
    /// against the promoted pool. On by default.
    pub on_failed_over: bool,
    /// Absorb a [`PushdownError::Rejected`] by running locally instead of
    /// waiting out the backlog. On by default.
    pub on_rejected: bool,
}

impl Default for FallbackPolicy {
    fn default() -> Self {
        FallbackPolicy {
            on_exception: true,
            on_cancelled: true,
            on_killed: true,
            on_failed_over: true,
            on_rejected: true,
        }
    }
}

impl FallbackPolicy {
    /// Whether this policy falls back to local execution after `err`.
    ///
    /// Classified variant by variant and closed to `_ =>` arms, exactly as
    /// [`RetryPolicy::covers`] is and for the same reason.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn covers(&self, err: &PushdownError) -> bool {
        match err {
            PushdownError::Exception(_) => self.on_exception,
            PushdownError::CancelledBeforeStart => self.on_cancelled,
            PushdownError::Killed { .. } => self.on_killed,
            PushdownError::KernelPanic => false,
            PushdownError::PoolFailedOver { .. } => self.on_failed_over,
            // A fenced write left no side effects, so a local re-run
            // against the current primary is as safe as after a failover.
            PushdownError::Fenced { .. } => self.on_failed_over,
            PushdownError::Rejected { .. } => self.on_rejected,
            // Running locally would read the same lost bytes: absorbing a
            // data loss risks exactly the wrong-answer the integrity plane
            // exists to prevent.
            PushdownError::DataLoss { .. } => false,
            PushdownError::ProtocolViolation { .. } => false,
            // A local re-run cannot un-spend the blown budget; it can only
            // make the answer later still.
            PushdownError::DeadlineExceeded { .. } => false,
        }
    }
}

/// The full recovery behavior of one `pushdown_resilient` call: retry
/// first (if configured), fall back to local execution once retries are
/// exhausted (if configured), otherwise surface the error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResiliencePolicy {
    pub retry: Option<RetryPolicy>,
    pub fallback: Option<FallbackPolicy>,
}

impl ResiliencePolicy {
    /// No recovery: errors surface exactly as from a plain `pushdown`.
    pub fn none() -> Self {
        ResiliencePolicy::default()
    }

    /// Retry with the default backoff schedule; surface the error once
    /// retries are exhausted.
    pub fn retry_only() -> Self {
        ResiliencePolicy {
            retry: Some(RetryPolicy::default()),
            fallback: None,
        }
    }

    /// No retries; absorb covered errors by running locally.
    pub fn fallback_only() -> Self {
        ResiliencePolicy {
            retry: None,
            fallback: Some(FallbackPolicy::default()),
        }
    }

    /// Retry, then fall back locally once retries are exhausted.
    pub fn full() -> Self {
        ResiliencePolicy {
            retry: Some(RetryPolicy::default()),
            fallback: Some(FallbackPolicy::default()),
        }
    }
}

/// How a resilient call ultimately produced its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionVia {
    /// A pushdown (the first attempt or a retry) completed normally.
    Pushdown,
    /// The pushdown path was abandoned; the function ran on the compute
    /// pool via `run_local`.
    LocalFallback,
}

/// A value recovered by [`crate::Runtime::pushdown_resilient`], annotated
/// with how hard the runtime had to work for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovered<R> {
    pub value: R,
    /// Number of retries consumed (0 = first pushdown succeeded).
    pub attempts: u32,
    pub via: ExecutionVia,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            base: SimDuration::from_micros(10),
            cap: SimDuration::from_micros(55),
            ..Default::default()
        };
        assert_eq!(p.backoff(0), SimDuration::from_micros(10));
        assert_eq!(p.backoff(1), SimDuration::from_micros(20));
        assert_eq!(p.backoff(2), SimDuration::from_micros(40));
        assert_eq!(p.backoff(3), SimDuration::from_micros(55), "capped");
        assert_eq!(p.backoff(200), SimDuration::from_micros(55), "no overflow");
    }

    #[test]
    fn kernel_panic_is_never_recoverable() {
        let r = RetryPolicy {
            retry_killed: true,
            ..Default::default()
        };
        let f = FallbackPolicy::default();
        assert!(!r.covers(&PushdownError::KernelPanic));
        assert!(!f.covers(&PushdownError::KernelPanic));
    }

    #[test]
    fn data_loss_is_never_recoverable() {
        let r = RetryPolicy {
            retry_killed: true,
            ..Default::default()
        };
        let f = FallbackPolicy::default();
        let loss = PushdownError::DataLoss { page: 9 };
        let proto = PushdownError::ProtocolViolation { req: 1 };
        assert!(!r.covers(&loss));
        assert!(!f.covers(&loss));
        assert!(!r.covers(&proto));
        assert!(!f.covers(&proto));
    }

    #[test]
    fn deadline_exceeded_is_never_recoverable() {
        let r = RetryPolicy {
            retry_killed: true,
            ..Default::default()
        };
        let late = PushdownError::DeadlineExceeded {
            over: SimDuration::from_micros(3),
        };
        assert!(!r.covers(&late));
        assert!(!FallbackPolicy::default().covers(&late));
    }

    #[test]
    fn killed_is_retried_only_on_request() {
        let killed = PushdownError::Killed {
            ran_for: SimDuration::from_millis(1),
        };
        assert!(!RetryPolicy::default().covers(&killed));
        let opt_in = RetryPolicy {
            retry_killed: true,
            ..Default::default()
        };
        assert!(opt_in.covers(&killed));
        assert!(FallbackPolicy::default().covers(&killed));
    }

    #[test]
    fn failover_and_rejection_are_covered_by_default() {
        let failed_over = PushdownError::PoolFailedOver { lost_epoch: 0 };
        let rejected = PushdownError::Rejected {
            backlog: SimDuration::from_millis(2),
        };
        assert!(RetryPolicy::default().covers(&failed_over));
        assert!(RetryPolicy::default().covers(&rejected));
        assert!(FallbackPolicy::default().covers(&failed_over));
        assert!(FallbackPolicy::default().covers(&rejected));
        let opt_out = RetryPolicy {
            retry_failed_over: false,
            retry_rejected: false,
            ..Default::default()
        };
        assert!(!opt_out.covers(&failed_over));
        assert!(!opt_out.covers(&rejected));
        let no_fb = FallbackPolicy {
            on_failed_over: false,
            on_rejected: false,
            ..Default::default()
        };
        assert!(!no_fb.covers(&failed_over));
        assert!(!no_fb.covers(&rejected));
    }

    #[test]
    fn fenced_writes_recover_like_failovers() {
        let fenced = PushdownError::Fenced { stale_epoch: 2 };
        assert!(RetryPolicy::default().covers(&fenced));
        assert!(FallbackPolicy::default().covers(&fenced));
        let opt_out = RetryPolicy {
            retry_failed_over: false,
            ..Default::default()
        };
        assert!(!opt_out.covers(&fenced), "fencing rides the failover knob");
        let no_fb = FallbackPolicy {
            on_failed_over: false,
            ..Default::default()
        };
        assert!(!no_fb.covers(&fenced));
    }

    #[test]
    fn policy_constructors_compose() {
        assert_eq!(ResiliencePolicy::none().retry, None);
        assert_eq!(ResiliencePolicy::none().fallback, None);
        assert!(ResiliencePolicy::retry_only().retry.is_some());
        assert!(ResiliencePolicy::retry_only().fallback.is_none());
        assert!(ResiliencePolicy::fallback_only().fallback.is_some());
        let full = ResiliencePolicy::full();
        assert!(full.retry.is_some() && full.fallback.is_some());
    }
}
