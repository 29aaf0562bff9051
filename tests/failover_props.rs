//! Property and scenario tests for memory-pool replication,
//! crash-consistent failover, and admission control.
//!
//! The invariants, in the order the tentpole demands them:
//!
//! 1. **Oracle equality** — after a failover, every allocated region reads
//!    back bit-identical to the host oracle, whether the value was produced
//!    by a retried pushdown against the promoted pool or by compute-side
//!    reads afterwards.
//! 2. **Determinism** — same fault seed + config ⇒ identical failover
//!    epoch sequence and byte-identical trace digest across two runs, even
//!    with probabilistic chaos layered on top of the pool death.
//! 3. **Admission soundness** — admission control never rejects a request
//!    whose backlog is under the configured threshold, and always sheds
//!    (with the typed error) past it.

use ddc_sim::{
    env_seed, DdcConfig, EventKind, FaultPlan, ReplicationMode, SimDuration, SimTime, FOREVER,
};
use proptest::prelude::*;
use teleport::{
    AdmissionPolicy, ExecutionVia, Mem, PushdownError, PushdownOpts, Region, ResiliencePolicy,
    Runtime,
};

const ELEMS: usize = 4096; // 8 pages of u64

/// Deterministic pseudo-random column content.
fn column_vals() -> Vec<u64> {
    (0..ELEMS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
        .collect()
}

/// The shared failover scenario: load a column, start timing, run one
/// pushdown that *writes* half the column memory-side (so dirty pages
/// replicate inside the measured window), kill the pool permanently, then
/// recover the full sum through a retry against the promoted backup.
/// Returns the runtime and the host oracle of the final column state.
fn run_failover_scenario(mode: ReplicationMode, seed: u64, chaos: bool) -> (Runtime, Vec<u64>) {
    let cfg = DdcConfig {
        replication: mode,
        ..Default::default()
    };
    let mut rt = Runtime::teleport(cfg);
    rt.enable_tracing();

    let mut oracle = column_vals();
    let col = rt.alloc_region::<u64>(ELEMS);
    rt.write_range(&col, 0, &oracle);
    rt.begin_timing();

    // Timed phase, pool still healthy: rewrite the first half memory-side.
    rt.pushdown(PushdownOpts::new(), |m| {
        for i in 0..ELEMS / 2 {
            let v = m.get(&col, i, ddc_os::Pattern::Seq) ^ 0x5555_5555;
            m.set(&col, i, v, ddc_os::Pattern::Seq);
        }
        m.charge_cycles(ELEMS as u64);
    })
    .expect("healthy pushdown");
    for v in oracle.iter_mut().take(ELEMS / 2) {
        *v ^= 0x5555_5555;
    }

    // Permanent pool death (plus, optionally, probabilistic chaos that the
    // seed must keep deterministic).
    let mut plan = FaultPlan::new(seed).memory_pool_death(SimTime(0));
    if chaos {
        plan = plan.ssd_transient_errors(SimTime(0), FOREVER, 0.3);
    }
    rt.install_fault_plan(plan);

    let expected: u64 = oracle.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    let out = rt
        .pushdown_resilient(PushdownOpts::new(), &ResiliencePolicy::retry_only(), |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, col.len(), &mut buf);
            buf.iter().fold(0u64, |a, &v| a.wrapping_add(v))
        })
        .expect("retry reaches the promoted pool");
    assert_eq!(out.via, ExecutionVia::Pushdown);
    assert_eq!(out.attempts, 1, "one failover, one retry");
    assert_eq!(out.value, expected, "post-failover sum matches the oracle");

    // Compute-side reads of the whole region after the failover.
    let mut back = Vec::new();
    rt.read_range(&col, 0, ELEMS, &mut back);
    assert_eq!(back, oracle, "every element reads back bit-identical");
    (rt, oracle)
}

#[test]
fn synchronous_failover_loses_nothing_and_is_oracle_exact() {
    let (rt, _) = run_failover_scenario(ReplicationMode::Synchronous, env_seed(7), false);
    assert!(rt.is_alive());
    assert_eq!(rt.failovers(), 1);
    assert_eq!(rt.failover_epochs(), &[1], "epoch 0 died, epoch 1 promoted");
    assert_eq!(rt.trace().count(EventKind::PoolPromoted), 1);

    let report = rt.dos().failover_report().expect("failover happened");
    assert_eq!(report.old_epoch, 0);
    assert_eq!(report.new_epoch, 1);
    assert_eq!(
        report.lost_pages, 0,
        "synchronous shipping never loses a page"
    );

    // Replication is costed, not free: traffic shows in the fabric ledger
    // and the trace, inside the timed window.
    let ledger = rt.net_ledger();
    assert!(ledger.replication.messages > 0, "ships + acks on the wire");
    assert!(
        ledger.replication.bytes > 0,
        "replication bytes are metered"
    );
    let m = rt.metrics();
    assert!(m.get("trace.replica_ships").unwrap() > 0);
    assert_eq!(
        m.get("trace.replica_acks"),
        m.get("trace.replica_ships"),
        "every ship is acked"
    );
    assert_eq!(m.get("trace.pool_promotions"), Some(1));
    assert_eq!(m.get("failover.promotions"), Some(1));
    assert_eq!(m.get("failover.lost_pages"), Some(0));
}

#[test]
fn log_shipped_tail_is_lost_but_refetched_from_storage() {
    // A batch far larger than the workload: nothing ever ships, so *every*
    // journaled page is in the un-acked tail at promotion time. Crash
    // consistency demands those pages be re-fetched from storage, never
    // silently trusted — and reads must still match the oracle.
    let (rt, _) = run_failover_scenario(
        ReplicationMode::LogShipped { batch_pages: 4096 },
        env_seed(7),
        false,
    );
    let report = rt.dos().failover_report().expect("failover happened");
    assert!(report.lost_pages > 0, "the un-acked tail is lost");
    assert_eq!(
        report.refetched_pages, report.lost_pages,
        "every lost page comes back from storage exactly once"
    );
    assert_eq!(rt.net_ledger().replication.messages, 0, "nothing shipped");
    assert!(rt.is_alive());
}

#[test]
fn small_log_batches_ship_mid_window_and_shrink_the_lost_tail() {
    let (rt, _) = run_failover_scenario(
        ReplicationMode::LogShipped { batch_pages: 2 },
        env_seed(7),
        false,
    );
    let report = rt.dos().failover_report().expect("failover happened");
    let shipped = rt
        .metrics()
        .get("replication.ship_messages")
        .expect("pre-promotion counters survive the failover");
    assert!(shipped > 0, "batches shipped before death");
    assert!(
        report.lost_pages <= 2,
        "at most one un-acked batch is lost, got {}",
        report.lost_pages
    );
    assert!(rt.net_ledger().replication.bytes > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed + config ⇒ byte-identical trace digest and identical
    /// failover epoch sequence, across two runs that both include a
    /// failover *and* probabilistic SSD chaos.
    #[test]
    fn same_seed_means_identical_failover_and_digest(seed in any::<u64>()) {
        let run = |s: u64| {
            let (rt, _) = run_failover_scenario(ReplicationMode::Synchronous, s, true);
            (
                rt.trace().len(),
                rt.trace().digest(),
                rt.failover_epochs().to_vec(),
                rt.elapsed(),
            )
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(&a.0, &b.0, "event counts differ");
        prop_assert_eq!(&a.1, &b.1, "trace digests differ");
        prop_assert_eq!(&a.2, &b.2, "failover epoch sequences differ");
        prop_assert_eq!(&a.3, &b.3, "virtual time differs");
    }

    /// Admission control never rejects a request whose backlog is under
    /// the threshold, and always sheds (with the typed error, the trace
    /// event, and the counter) past it.
    #[test]
    fn admission_rejects_exactly_past_the_threshold(
        backlog_us in 0u64..2_000,
        max_us in 1u64..2_000,
    ) {
        let mut rt = Runtime::teleport(DdcConfig::default());
        rt.enable_tracing();
        let cell: Region<u64> = rt.alloc_region(1);
        rt.set(&cell, 0, 41, ddc_os::Pattern::Rand);
        rt.begin_timing();
        rt.set_admission_policy(Some(AdmissionPolicy {
            max_queue_depth: 4,
            max_backlog: SimDuration::from_micros(max_us),
        }));
        if backlog_us > 0 {
            rt.inject_queue_backlog(SimDuration::from_micros(backlog_us));
        }
        let r = rt.pushdown(PushdownOpts::new(), |m| m.get(&cell, 0, ddc_os::Pattern::Rand) + 1);
        if backlog_us <= max_us {
            prop_assert_eq!(r.expect("under threshold: admitted"), 42);
            prop_assert_eq!(rt.admission_sheds(), 0);
            prop_assert_eq!(rt.trace().count(EventKind::AdmissionShed), 0);
        } else {
            match r {
                Err(PushdownError::Rejected { backlog }) => {
                    prop_assert_eq!(backlog, SimDuration::from_micros(backlog_us));
                }
                other => prop_assert!(false, "expected rejection, got {:?}", other),
            }
            prop_assert_eq!(rt.admission_sheds(), 1);
            prop_assert_eq!(rt.trace().count(EventKind::AdmissionShed), 1);
            prop_assert_eq!(rt.metrics().get("admission.sheds"), Some(1));
        }
        prop_assert!(rt.is_alive(), "shedding never kills the runtime");
    }
}

#[test]
fn admission_shedding_degrades_gracefully_with_fallback() {
    // The QueueBacklogBurst scenario the tentpole names: under a burst the
    // pushdown is shed before queueing, the fallback policy absorbs the
    // typed rejection, and the caller still gets the oracle-exact answer.
    let mut rt = Runtime::teleport(DdcConfig::default());
    rt.enable_tracing();
    let vals = column_vals();
    let col = rt.alloc_region::<u64>(ELEMS);
    rt.write_range(&col, 0, &vals);
    rt.begin_timing();
    rt.set_admission_policy(Some(AdmissionPolicy {
        max_queue_depth: 4,
        max_backlog: SimDuration::from_millis(1),
    }));
    rt.install_fault_plan(FaultPlan::new(11).queue_backlog_burst(
        SimTime(0),
        FOREVER,
        SimDuration::from_millis(5),
    ));
    let expected: u64 = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    let out = rt
        .pushdown_resilient(
            PushdownOpts::new(),
            &ResiliencePolicy::fallback_only(),
            |m| {
                let mut buf = Vec::new();
                m.read_range(&col, 0, col.len(), &mut buf);
                buf.iter().fold(0u64, |a, &v| a.wrapping_add(v))
            },
        )
        .expect("fallback absorbs the rejection");
    assert_eq!(out.via, ExecutionVia::LocalFallback);
    assert_eq!(out.value, expected);
    assert_eq!(rt.admission_sheds(), 1);
    assert_eq!(rt.metrics().get("resilience.fallbacks"), Some(1));
    assert!(rt.is_alive());
}
