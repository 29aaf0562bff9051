//! Property tests for the fault-injection plane and the resilience
//! policies: backoff shape, retry budgets, and seed-determinism of chaotic
//! runs (same `FaultPlan` seed ⇒ byte-identical trace digest).

use ddc_sim::{DdcConfig, FaultPlan, SimDuration, SimTime, FOREVER};
use proptest::prelude::*;
use teleport::{
    ExecutionVia, Mem, PushdownError, PushdownOpts, Region, ResiliencePolicy, RetryPolicy, Runtime,
};

fn retry_policy(max_retries: u32, base_ns: u64, cap_ns: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base: SimDuration::from_nanos(base_ns),
        cap: SimDuration::from_nanos(cap_ns),
        budget: None,
    }
}

/// A Teleport runtime plus a loaded column, ready for chaotic pushdowns.
fn chaotic_rt(plan: FaultPlan) -> (Runtime, Region<u64>) {
    let mut rt = Runtime::teleport(DdcConfig::default());
    rt.enable_tracing();
    let col = rt.alloc_region::<u64>(1024);
    let vals: Vec<u64> = (0..1024u64).collect();
    rt.write_range(&col, 0, &vals);
    rt.begin_timing();
    rt.install_fault_plan(plan);
    (rt, col)
}

/// Sum the column under a policy; every call dodges injected exceptions
/// via retries or absorbs them via fallback.
fn churn(rt: &mut Runtime, col: &Region<u64>, policy: &ResiliencePolicy, calls: usize) {
    let expected: u64 = (0..1024u64).sum();
    for _ in 0..calls {
        let col = *col;
        let out = rt
            .pushdown_resilient(PushdownOpts::new(), policy, move |m| {
                let mut buf = Vec::new();
                m.read_range(&col, 0, col.len(), &mut buf);
                buf.iter().sum::<u64>()
            })
            .expect("full policy absorbs every injected exception");
        assert_eq!(out.value, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Backoff is monotone non-decreasing in the attempt number and never
    /// exceeds the cap, for arbitrary base/cap schedules — including
    /// degenerate ones (cap below base) and attempt numbers far past the
    /// shift-overflow point.
    #[test]
    fn backoff_is_monotone_and_capped(
        base_ns in 1u64..1_000_000,
        cap_ns in 1u64..10_000_000,
        attempts in 1u32..96,
    ) {
        let p = retry_policy(8, base_ns, cap_ns);
        let mut prev = SimDuration::ZERO;
        for a in 0..attempts {
            let d = p.backoff(a);
            prop_assert!(d >= prev, "backoff({a}) = {d} < backoff({}) = {prev}", a.wrapping_sub(1));
            prop_assert!(d <= p.cap, "backoff({a}) = {d} exceeds cap {}", p.cap);
            prev = d;
        }
    }

    /// With a fault on every call, the runtime performs exactly
    /// `max_retries` retries — never more — and then either falls back or
    /// surfaces the error, depending on the policy.
    #[test]
    fn retries_never_exceed_max_retries(
        max_retries in 0u32..6,
        with_fallback in any::<bool>(),
    ) {
        // p = 1.0 fires on every call: no retry can ever succeed.
        let plan = FaultPlan::new(1).pushdown_exceptions_prob(SimTime(0), FOREVER, 1.0);
        let (mut rt, col) = chaotic_rt(plan);
        let policy = ResiliencePolicy {
            retry: Some(retry_policy(max_retries, 1_000, 1_000_000)),
            fallback: with_fallback,
        };
        let r = rt.pushdown_resilient(PushdownOpts::new(), &policy, move |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, col.len(), &mut buf);
            buf.iter().sum::<u64>()
        });
        prop_assert_eq!(rt.metrics().get("resilience.retries"), Some(max_retries as u64));
        match r {
            Ok(out) => {
                prop_assert!(with_fallback);
                prop_assert_eq!(out.via, ExecutionVia::LocalFallback);
                prop_assert_eq!(out.attempts, max_retries);
                prop_assert_eq!(out.value, (0..1024u64).sum::<u64>());
            }
            Err(e) => {
                prop_assert!(!with_fallback);
                prop_assert!(matches!(e, PushdownError::Exception(_)));
            }
        }
        prop_assert!(rt.is_alive());
    }

    /// A virtual-time budget bounds the backoff total: the number of
    /// retries actually performed never spends more backoff than the
    /// budget allows (the next delay must still fit when charged).
    #[test]
    fn retry_budget_bounds_total_backoff(
        budget_us in 1u64..200,
        base_us in 1u64..50,
    ) {
        let plan = FaultPlan::new(2).pushdown_exceptions_prob(SimTime(0), FOREVER, 1.0);
        let (mut rt, col) = chaotic_rt(plan);
        let policy = ResiliencePolicy {
            retry: Some(RetryPolicy {
                max_retries: 32,
                base: SimDuration::from_micros(base_us),
                cap: SimDuration::from_millis(10),
                budget: Some(SimDuration::from_micros(budget_us)),
            }),
            fallback: false,
        };
        let r = rt.pushdown_resilient(PushdownOpts::new(), &policy, move |m| {
            m.get(&col, 0, ddc_os::Pattern::Rand)
        });
        prop_assert!(r.is_err(), "every call faults and there is no fallback");
        let retries = rt.metrics().get("resilience.retries").unwrap() as u32;
        let p = policy.retry.unwrap();
        let spent: u64 = (0..retries).map(|a| p.backoff(a).as_nanos()).sum();
        prop_assert!(
            spent <= SimDuration::from_micros(budget_us).as_nanos(),
            "spent {spent}ns of a {budget_us}us budget over {retries} retries"
        );
        // Maximality: stopping was forced, not arbitrary — one more retry
        // would either exceed the budget or the retry cap.
        let next = spent + p.backoff(retries).as_nanos();
        prop_assert!(
            retries >= 32 || next > SimDuration::from_micros(budget_us).as_nanos(),
            "stopped early: {retries} retries, next total {next}ns still fits"
        );
    }

    /// The determinism guarantee: two runs with the same `FaultPlan` seed
    /// produce byte-identical traces (length and digest), even under
    /// probabilistic faults and retry/fallback recovery. Different seeds
    /// that produce different event counts must not collide.
    #[test]
    fn same_seed_means_identical_trace_digest(seed in any::<u64>()) {
        let run = |s: u64| {
            let plan = FaultPlan::new(s)
                .pushdown_exceptions_prob(SimTime(0), FOREVER, 0.5)
                .ssd_transient_errors(SimTime(0), FOREVER, 0.3);
            let (mut rt, col) = chaotic_rt(plan);
            churn(&mut rt, &col, &ResiliencePolicy::full(), 4);
            (rt.trace().len(), rt.trace().digest())
        };
        let (len_a, dig_a) = run(seed);
        let (len_b, dig_b) = run(seed);
        prop_assert_eq!(len_a, len_b, "same seed, different event counts");
        prop_assert_eq!(dig_a, dig_b, "same seed, different digests");
        let (len_c, dig_c) = run(seed.wrapping_add(1));
        if len_c != len_a {
            prop_assert_ne!(dig_a, dig_c);
        }
    }
}
