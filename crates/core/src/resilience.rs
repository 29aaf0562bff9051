//! Retry and local-fallback policies for failed pushdowns (paper §3.2).
//!
//! The paper's exception model deliberately stops at *reporting*: a failed,
//! cancelled, or killed pushdown surfaces a [`PushdownError`] and the
//! application is "free to run the function locally or retry". This module
//! makes that freedom a declarative policy. A [`RetryPolicy`] bounds how
//! many re-pushdowns to attempt and how long to back off between them
//! (exponential with a cap, the same shape as the coherence layer's
//! `backoff_t`); [`ResiliencePolicy::fallback`] says whether a failure that
//! outlives the retries is absorbed by re-executing the function locally
//! on the compute pool. [`crate::Runtime::pushdown_resilient`] interprets
//! the combined [`ResiliencePolicy`], charges backoff delays to virtual
//! time, and emits every decision as a typed `Recovery` trace event.
//!
//! Which failures a re-run can help is a property of the failure, not of
//! the policy: [`PushdownError::recoverable`] classifies every variant
//! once, and both the retry and the fallback read it. The one exception is
//! the retry of a [`PushdownError::Killed`] call, which the driver skips:
//! a function the kernel had to kill once will likely hang again, while a
//! local fallback still absorbs it.
//!
//! [`PushdownError`]: crate::PushdownError
//! [`PushdownError::recoverable`]: crate::PushdownError::recoverable
//! [`PushdownError::Killed`]: crate::PushdownError::Killed

use ddc_sim::SimDuration;

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
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: SimDuration::from_micros(10),
            cap: SimDuration::from_millis(10),
            budget: None,
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
}

/// The full recovery behavior of one `pushdown_resilient` call: retry
/// first (if configured), fall back to local execution once retries are
/// exhausted (if configured), otherwise surface the error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResiliencePolicy {
    pub retry: Option<RetryPolicy>,
    /// Absorb a [recoverable](crate::PushdownError::recoverable) failure by
    /// re-running locally, after a full `syncmem` so the compute pool sees
    /// the memory pool's latest writes.
    pub fallback: bool,
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
            fallback: false,
        }
    }

    /// No retries; absorb recoverable errors by running locally.
    pub fn fallback_only() -> Self {
        ResiliencePolicy {
            retry: None,
            fallback: true,
        }
    }

    /// Retry, then fall back locally once retries are exhausted.
    pub fn full() -> Self {
        ResiliencePolicy {
            retry: Some(RetryPolicy::default()),
            fallback: true,
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
    fn policy_constructors_compose() {
        assert_eq!(ResiliencePolicy::none().retry, None);
        assert!(!ResiliencePolicy::none().fallback);
        assert!(ResiliencePolicy::retry_only().retry.is_some());
        assert!(!ResiliencePolicy::retry_only().fallback);
        assert!(ResiliencePolicy::fallback_only().fallback);
        assert_eq!(ResiliencePolicy::fallback_only().retry, None);
        let full = ResiliencePolicy::full();
        assert!(full.retry.is_some() && full.fallback);
    }
}
