//! Property tests for the gray-failure plane: seed-determinism of the
//! health story, the at-most-once hedge invariant, whole-call deadline
//! budgets that shrink monotonically across retries, and the
//! never-strand-the-last-shard quarantine rule.

use ddc_os::{HealthConfig, HealthMonitor};
use ddc_sim::{
    Clock, DdcConfig, FaultPlan, PoolHealthState, SimDuration, SimTime, Tracer, FOREVER,
};
use proptest::prelude::*;
use teleport::{
    HedgeOutcome, HedgePolicy, Mem, PushdownError, PushdownOpts, Region, ResiliencePolicy,
    RetryPolicy, Runtime,
};

/// A 2-pool Teleport rack with tracing on and a loaded column: the
/// smallest rig on which pool-level health verdicts are interesting
/// (one shard can be quarantined while the other carries placement).
fn grayfail_rt(plan: FaultPlan) -> (Runtime, Region<u64>) {
    let cfg = DdcConfig {
        pools: 2,
        ..DdcConfig::default()
    };
    cfg.validate().expect("2-pool default config validates");
    let mut rt = Runtime::teleport(cfg);
    rt.enable_tracing();
    let col = rt.alloc_region::<u64>(1024);
    let vals: Vec<u64> = (0..1024u64).collect();
    rt.write_range(&col, 0, &vals);
    rt.begin_timing();
    rt.install_fault_plan(plan);
    (rt, col)
}

fn scan(rt: &mut Runtime, col: &Region<u64>) -> Result<u64, PushdownError> {
    let col = *col;
    rt.pushdown(PushdownOpts::new(), move |m| {
        let mut buf = Vec::new();
        m.read_range(&col, 0, col.len(), &mut buf);
        buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same seed, same fail-slow plan ⇒ the identical health story: every
    /// state transition, quarantine, probe, and the trace digest replay
    /// bit-for-bit. The detector draws no randomness of its own, so the
    /// whole gray-failure narrative is a pure function of the plan.
    #[test]
    fn same_seed_replays_the_same_health_story(
        seed in any::<u64>(),
        factor in 2u32..64,
        until_us in 200u64..2_000,
    ) {
        let run = || {
            let plan = FaultPlan::new(seed).degraded_pool(
                0,
                SimTime(0),
                SimTime(until_us * 1_000),
                factor,
            );
            let (mut rt, col) = grayfail_rt(plan);
            for _ in 0..24 {
                scan(&mut rt, &col).expect("fail-slow is benign to correctness");
            }
            let m = rt.metrics();
            (
                rt.trace().len(),
                rt.trace().digest(),
                m.get("health.transitions").unwrap_or(0),
                m.get("health.quarantines").unwrap_or(0),
                m.get("health.reintegrations").unwrap_or(0),
                m.get("health.probes").unwrap_or(0),
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b, "gray-failure runs must be seed-deterministic");
    }

    /// A hedged call fires its clone at most once, wins at most what it
    /// fires, reports an outcome consistent with the ledger, and never
    /// claims a caller-observed latency longer than the wall time the
    /// call actually charged.
    #[test]
    fn hedge_fires_at_most_once_per_call(
        factor in 1u32..80,
        delay_us in 10u64..200,
        jitter_us in 0u64..50,
    ) {
        let plan = FaultPlan::new(7).degraded_pool(0, SimTime(0), FOREVER, factor);
        let (mut rt, col) = grayfail_rt(plan);
        let policy = HedgePolicy {
            delay: SimDuration::from_micros(delay_us),
            jitter: SimDuration::from_micros(jitter_us),
        };
        let expected = (0..1024u64).sum::<u64>();
        for _ in 0..12 {
            let fired0 = rt.hedges_fired();
            let won0 = rt.hedges_won();
            let t0 = rt.dos().clock().now();
            let col2 = col;
            let h = rt
                .pushdown_hedged(PushdownOpts::new(), &policy, move |m| {
                    let mut buf = Vec::new();
                    m.read_range(&col2, 0, col2.len(), &mut buf);
                    buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
                })
                .expect("fail-slow is benign to correctness");
            let wall = rt.dos().clock().now().since(t0);
            let fired = rt.hedges_fired() - fired0;
            let won = rt.hedges_won() - won0;
            prop_assert!(fired <= 1, "a call may hedge at most once, fired {fired}");
            prop_assert!(won <= fired, "a hedge cannot win without firing");
            match h.outcome {
                HedgeOutcome::NotFired => prop_assert_eq!((fired, won), (0, 0)),
                HedgeOutcome::PrimaryWon => prop_assert_eq!((fired, won), (1, 0)),
                HedgeOutcome::HedgeWon => prop_assert_eq!((fired, won), (1, 1)),
            }
            prop_assert_eq!(h.value, expected);
            prop_assert!(
                h.latency <= wall,
                "observed race latency {} cannot exceed charged wall time {}",
                h.latency, wall
            );
        }
    }

    /// The deadline is a budget for the *whole* resilient call: each
    /// retry sees only what earlier attempts left unspent, so a call
    /// that completes is judged against total time since entry — `Ok`
    /// means the entire chain fit the budget, and a miss reports the
    /// overshoot of the chain, not of the final attempt alone.
    #[test]
    fn deadline_budget_covers_the_whole_retry_chain(
        deadline_us in 30u64..400,
        p_pct in 10u64..90,
        base_us in 1u64..20,
    ) {
        let plan = FaultPlan::new(11).pushdown_exceptions_prob(
            SimTime(0),
            FOREVER,
            p_pct as f64 / 100.0,
        );
        let (mut rt, col) = grayfail_rt(plan);
        let deadline = SimDuration::from_micros(deadline_us);
        let policy = ResiliencePolicy {
            retry: Some(RetryPolicy {
                max_retries: 24,
                base: SimDuration::from_micros(base_us),
                cap: SimDuration::from_millis(1),
                budget: None,
            }),
            fallback: false,
        };
        let mut misses = 0u64;
        for _ in 0..6 {
            let retries0 = rt.metrics().get("resilience.retries").unwrap();
            let t0 = rt.dos().clock().now();
            let col2 = col;
            let r = rt.pushdown_resilient(PushdownOpts::new().deadline(deadline), &policy, move |m| {
                let mut buf = Vec::new();
                m.read_range(&col2, 0, col2.len(), &mut buf);
                buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
            });
            let wall = rt.dos().clock().now().since(t0);
            match r {
                Ok(out) => {
                    prop_assert!(
                        wall <= deadline,
                        "Ok must mean the whole chain ({} attempts, {wall}) fit {deadline}",
                        out.attempts
                    );
                }
                Err(PushdownError::DeadlineExceeded { over }) => {
                    misses += 1;
                    prop_assert!(
                        wall > deadline,
                        "a miss must mean the chain ({wall}) overran {deadline}"
                    );
                    // Exactly `wall - deadline` while budget remains;
                    // `saturating_sub` flattens deep overruns, so the
                    // reported overshoot never exceeds the true one.
                    prop_assert!(over.as_nanos() > 0);
                    prop_assert!(
                        over <= wall.saturating_sub(deadline),
                        "over {over} exceeds true overshoot {} - {deadline}",
                        wall
                    );
                }
                Err(PushdownError::Exception(_)) => {
                    // Every attempt faulted: the full retry budget went
                    // first, and the deadline never got a completed
                    // attempt to judge.
                    prop_assert_eq!(rt.metrics().get("resilience.retries").unwrap() - retries0, 24);
                }
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
        prop_assert_eq!(rt.deadline_misses(), misses);
        prop_assert!(rt.is_alive());
    }

    /// Whatever evidence the detector is fed — degraded service windows,
    /// inflated heartbeat RTTs, failing probes, in any interleaving
    /// across any rack size — at least one shard always remains
    /// placeable: quarantine is a placement optimization, never an
    /// outage.
    #[test]
    fn quarantine_never_strands_placement(
        pools in 1usize..5,
        ops in prop::collection::vec((0usize..16, 0u8..5), 1..200),
    ) {
        let tracer = Tracer::new(Clock::new());
        tracer.enable();
        let mut m = HealthMonitor::new(pools, HealthConfig::default(), tracer);
        let ns = SimDuration::from_nanos;
        for (i, &(raw, op)) in ops.iter().enumerate() {
            let pool = raw % pools;
            let now = SimTime(i as u64 * 1_000);
            match op {
                0 => m.observe_service(pool, ns(100)),
                1 => m.observe_service(pool, ns(50_000)),
                2 => m.observe_rtt(pool, ns(40_000)),
                3 => {
                    m.record_probe(pool, now, ns(100), ns(100));
                }
                _ => {
                    m.record_probe(pool, now, ns(50_000), ns(100));
                }
            }
            prop_assert!(
                (0..pools).any(|p| m.is_placeable(p)),
                "op {i} left every shard unplaceable: {:?}",
                (0..pools).map(|p| m.state(p)).collect::<Vec<_>>()
            );
        }
        // The ledger stays internally consistent under any interleaving.
        prop_assert!(m.reintegrations() <= m.quarantines());
        let quarantined = (0..pools)
            .filter(|&p| m.state(p) == PoolHealthState::Quarantined)
            .count();
        prop_assert!(quarantined < pools, "some shard must remain unquarantined");
    }
}
