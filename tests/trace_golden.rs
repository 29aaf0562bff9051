//! Trace-golden test: a small scripted workload must produce an *exact*
//! ordered event sequence on the Teleport platform, and the pushdown
//! breakdown must equal the virtual time between the lifecycle's first
//! and last trace events. Any layer that stops emitting (kernel faults,
//! fabric messages, coherence round trips, pushdown steps) breaks the
//! golden sequence.

use ddc_sim::{
    fault_label, health_label, recovery_label, ArrivalProcess, DdcConfig, EventKind, FaultLevel,
    FaultPlan, Lane, QosClass, SimDuration, SimTime, Ssd, SsdConfig, TraceEvent, TraceRecord,
    Tracer, PAGE_SIZE,
};
use teleport::{
    AdmissionPolicy, Mem, PushdownOpts, ResiliencePolicy, Runtime, ServeConfig, ServePlane,
};

const ELEMS_PER_PAGE: usize = PAGE_SIZE / 8;

/// Render one record as `lane/event`, with page addresses rewritten to
/// page indices relative to `base_page` so the expectation is stable.
fn label(rec: &TraceRecord, base_page: u64) -> String {
    let lane = match rec.lane {
        Lane::Compute => "compute",
        Lane::Memory => "memory",
        Lane::Storage => "storage",
        Lane::Net => "net",
    };
    let ev = match rec.event {
        TraceEvent::PageFault { vaddr, level } => {
            let pg = vaddr / PAGE_SIZE as u64 - base_page;
            let lv = match level {
                FaultLevel::Cache => "cache",
                FaultLevel::Remote => "remote",
                FaultLevel::Storage => "storage",
            };
            format!("fault p{pg} {lv}")
        }
        TraceEvent::Evict { page, dirty } => {
            format!(
                "evict p{}{}",
                page - base_page,
                if dirty { " dirty" } else { "" }
            )
        }
        // Class only: payload sizes (RLE'd resident lists etc.) are
        // asserted separately where they are stable.
        TraceEvent::NetMsg { class, .. } => format!("net {class:?}"),
        TraceEvent::SsdIo { write, .. } => {
            format!("ssd {}", if write { "write" } else { "read" })
        }
        TraceEvent::CoherenceMsg { page, transition } => {
            format!("coherence p{} {transition:?}", page - base_page)
        }
        TraceEvent::PushdownStep { step } => format!("step {step}"),
        TraceEvent::Syncmem { pages } => format!("syncmem {pages}"),
        TraceEvent::Cancel { req } => format!("cancel {req}"),
        TraceEvent::Timeout { req } => format!("timeout {req}"),
        TraceEvent::FaultInjected { fault, .. } => format!("fault {}", fault_label(fault)),
        TraceEvent::Recovery { action, attempt } => {
            format!("recovery {} a{attempt}", recovery_label(action))
        }
        TraceEvent::CancelDeclined { req } => format!("cancel-declined {req}"),
        TraceEvent::ReplicaShip { seq, pages } => format!("replica-ship s{seq} {pages}"),
        TraceEvent::ReplicaAck { seq } => format!("replica-ack s{seq}"),
        TraceEvent::PoolPromoted { epoch, lost_pages } => {
            format!("pool-promoted e{epoch} lost {lost_pages}")
        }
        TraceEvent::AdmissionShed { backlog_ns } => format!("admission-shed {backlog_ns}"),
        TraceEvent::CorruptionInjected { page, offset } => {
            format!("corrupt p{} +{offset}", page - base_page)
        }
        TraceEvent::ChecksumMismatch { page } => format!("mismatch p{}", page - base_page),
        TraceEvent::PageRepaired { page, source } => {
            format!("repaired p{} {source:?}", page - base_page)
        }
        TraceEvent::DataLoss { page } => format!("data-loss p{}", page - base_page),
        TraceEvent::ScrubPass { pages, detected } => format!("scrub {pages} {detected}"),
        TraceEvent::PoolRouted { pool, pages } => format!("pool-routed p{pool} {pages}"),
        TraceEvent::PushdownFanout { pools, pages } => format!("fanout {pools} {pages}"),
        TraceEvent::FanoutMerge { pools } => format!("fanout-merge {pools}"),
        TraceEvent::SessionArrive { tenant, session } => {
            format!("session-arrive t{tenant} s{session}")
        }
        TraceEvent::SessionAdmit { tenant, session } => {
            format!("session-admit t{tenant} s{session}")
        }
        // Latencies are pinned by the scenarios that assert them; the label
        // keeps only the tenant so reorderings are still visible.
        TraceEvent::SessionComplete { tenant, .. } => format!("session-complete t{tenant}"),
        TraceEvent::TenantThrottled { tenant, class } => {
            format!("tenant-throttled t{tenant} {}", class.label())
        }
        TraceEvent::FailSlowInjected { fault, factor } => {
            format!("fail-slow {} x{factor}", fault_label(fault))
        }
        TraceEvent::HealthTransition { pool, from, to } => {
            format!(
                "health p{pool} {}->{}",
                health_label(from),
                health_label(to)
            )
        }
        TraceEvent::HedgeFired { call } => format!("hedge-fired call{call}"),
        TraceEvent::HedgeWon { call } => format!("hedge-won call{call}"),
        TraceEvent::DeadlineExceeded { call, over_ns } => {
            format!("deadline-exceeded call{call} +{over_ns}")
        }
        TraceEvent::PoolReintegrated { pool } => format!("pool-reintegrated p{pool}"),
        TraceEvent::PoolCrashed { pool, epoch } => format!("pool-crashed p{pool} e{epoch}"),
        TraceEvent::JournalReplayed { entries, pages } => {
            format!("journal-replayed {entries} {pages}")
        }
        TraceEvent::TornTailDiscarded { entries, pages } => {
            format!("torn-tail {entries} {pages}")
        }
        TraceEvent::PoolRestarted { pool, epoch } => format!("pool-restarted p{pool} e{epoch}"),
        TraceEvent::FencedWrite { pool, stale_epoch } => {
            format!("fenced-write p{pool} e{stale_epoch}")
        }
        TraceEvent::ResilverComplete { pool, pages } => {
            format!("resilver-complete p{pool} {pages}")
        }
    };
    format!("{lane}/{ev}")
}

/// 2-page compute cache, roomy memory pool: three page-sized writes fill
/// the cache and force one dirty eviction, then a pushdown sums the whole
/// region, downgrading the two compute-cached pages on demand.
fn scripted_workload(rt: &mut Runtime) -> (u64, teleport::Breakdown) {
    let col = rt.alloc_region::<u64>(4 * ELEMS_PER_PAGE);
    rt.begin_timing();
    rt.set(&col, 0, 7, ddc_os::Pattern::Rand); // page 0: fault + dirty
    rt.set(&col, ELEMS_PER_PAGE, 8, ddc_os::Pattern::Rand); // page 1
    rt.set(&col, 2 * ELEMS_PER_PAGE, 9, ddc_os::Pattern::Rand); // page 2 (evicts page 0)
    let sum = rt
        .pushdown(PushdownOpts::new(), |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, col.len(), &mut buf);
            buf.iter().copied().sum::<u64>()
        })
        .expect("pushdown succeeds");
    (
        sum,
        rt.last_breakdown().expect("teleport records a breakdown"),
    )
}

fn golden_config() -> DdcConfig {
    DdcConfig {
        compute_cache_bytes: 2 * PAGE_SIZE,
        memory_pool_bytes: 64 * PAGE_SIZE,
        ..Default::default()
    }
}

#[test]
fn teleport_golden_event_sequence() {
    let mut rt = Runtime::teleport(golden_config());
    rt.enable_tracing();
    let (sum, _) = scripted_workload(&mut rt);
    assert_eq!(sum, 7 + 8 + 9);

    let events = rt.trace().events();
    let base_page = match events
        .iter()
        .find(|r| matches!(r.event, TraceEvent::PageFault { .. }))
        .map(|r| r.event)
    {
        Some(TraceEvent::PageFault { vaddr, .. }) => vaddr / PAGE_SIZE as u64,
        _ => panic!("no page fault in trace"),
    };
    let got: Vec<String> = events.iter().map(|r| label(r, base_page)).collect();
    let expected = [
        // Three compute-side writes: two fill the cache, the third evicts
        // the (dirty) first page.
        "compute/fault p0 remote",
        "net/net PageIn",
        "compute/fault p1 remote",
        "net/net PageIn",
        "compute/fault p2 remote",
        "net/net PageIn",
        "compute/evict p0 dirty",
        "net/net PageOut",
        // Pushdown lifecycle ❶–❽ (paper Fig 5).
        "compute/step 1",
        "net/step 2",
        "net/net RpcRequest",
        "memory/step 3",
        "memory/step 4",
        "memory/step 5",
        // The memory-side scan downgrades the two compute-writable pages
        // on demand: one coherence round trip (two wire messages) and a
        // dirty flush each. Page 0 was naturally evicted — silent.
        "memory/coherence p1 DowngradeCompute",
        "net/net Coherence",
        "net/net Coherence",
        "net/net PageOut",
        "memory/coherence p2 DowngradeCompute",
        "net/net Coherence",
        "net/net Coherence",
        "net/net PageOut",
        "memory/step 6",
        "net/step 7",
        "net/net RpcResponse",
        "compute/step 8",
    ];
    assert_eq!(
        got,
        expected.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        "full trace:\n{}",
        rt.trace().render()
    );

    // Stable payload sizes: every page movement is page-sized, coherence
    // messages are 64 B, the response is fixed-size.
    for rec in &events {
        if let TraceEvent::NetMsg { class, bytes } = rec.event {
            match class {
                ddc_sim::MsgClass::PageIn | ddc_sim::MsgClass::PageOut => {
                    assert_eq!(bytes, PAGE_SIZE as u64, "{rec}");
                }
                ddc_sim::MsgClass::Coherence => assert_eq!(bytes, 64, "{rec}"),
                ddc_sim::MsgClass::RpcResponse => assert_eq!(bytes, 12, "{rec}"),
                _ => {}
            }
        }
    }
}

/// The cross-pool cousin of `teleport_golden_event_sequence`: the same
/// scripted workload on a two-shard rack with LoadBalance striping. The
/// pushdown's scan now spans both shards, so between step ❻ and step ❼ the
/// rack must settle the fan-out: route the call to its primary shard,
/// declare the fan-out, pay one sub-call (request header + response) for
/// the extra shard, and merge — in exactly this order, every run.
#[test]
fn teleport_cross_pool_fanout_golden_event_sequence() {
    let mut cfg = golden_config();
    cfg.pools = 2;
    cfg.placement = ddc_sim::PlacementPolicy::LoadBalance;
    let mut rt = Runtime::teleport(cfg);
    rt.enable_tracing();
    let (sum, _) = scripted_workload(&mut rt);
    assert_eq!(sum, 7 + 8 + 9);

    let events = rt.trace().events();
    let base_page = match events
        .iter()
        .find(|r| matches!(r.event, TraceEvent::PageFault { .. }))
        .map(|r| r.event)
    {
        Some(TraceEvent::PageFault { vaddr, .. }) => vaddr / PAGE_SIZE as u64,
        _ => panic!("no page fault in trace"),
    };
    let got: Vec<String> = events.iter().map(|r| label(r, base_page)).collect();
    let expected = [
        // Identical prefix to the single-pool golden: sharding the pool
        // changes where pages live, not how the compute side behaves.
        "compute/fault p0 remote",
        "net/net PageIn",
        "compute/fault p1 remote",
        "net/net PageIn",
        "compute/fault p2 remote",
        "net/net PageIn",
        "compute/evict p0 dirty",
        "net/net PageOut",
        "compute/step 1",
        "net/step 2",
        "net/net RpcRequest",
        "memory/step 3",
        "memory/step 4",
        "memory/step 5",
        "memory/coherence p1 DowngradeCompute",
        "net/net Coherence",
        "net/net Coherence",
        "net/net PageOut",
        "memory/coherence p2 DowngradeCompute",
        "net/net Coherence",
        "net/net Coherence",
        "net/net PageOut",
        "memory/step 6",
        // Fan-out settlement: the 4-page scan striped over both shards.
        "memory/pool-routed p0 4",
        "memory/fanout 2 4",
        "net/net RpcRequest",
        "net/net RpcResponse",
        "memory/fanout-merge 2",
        "net/step 7",
        "net/net RpcResponse",
        "compute/step 8",
    ];
    assert_eq!(
        got,
        expected.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        "full trace:\n{}",
        rt.trace().render()
    );

    // Rerunning the exact scenario reproduces the digest bit-for-bit: the
    // fan-out path is as deterministic as the rest of the protocol.
    let mut rt2 = Runtime::teleport({
        let mut cfg = golden_config();
        cfg.pools = 2;
        cfg.placement = ddc_sim::PlacementPolicy::LoadBalance;
        cfg
    });
    rt2.enable_tracing();
    scripted_workload(&mut rt2);
    assert_eq!(rt.trace().digest(), rt2.trace().digest());
    assert_eq!(rt.trace().len(), rt2.trace().len());
}

#[test]
fn breakdown_total_matches_trace_span() {
    // The Fig 19 breakdown must attribute *all* time between lifecycle
    // steps ❶ and ❽: total() equals the virtual-time span between the
    // step-1 and step-8 trace events.
    let mut rt = Runtime::teleport(golden_config());
    rt.enable_tracing();
    let (_, bd) = scripted_workload(&mut rt);

    let events = rt.trace().events();
    let at_step = |step: u8| {
        events
            .iter()
            .find(|r| r.event == TraceEvent::PushdownStep { step })
            .unwrap_or_else(|| panic!("step {step} missing"))
            .at
    };
    let span = at_step(8).since(at_step(1));
    assert_eq!(
        bd.total(),
        span,
        "breakdown {bd:?} must equal the ❶→❽ trace span {span}"
    );
    // Sanity: the per-step timestamps are in lifecycle order.
    for s in 1..8u8 {
        assert!(at_step(s) <= at_step(s + 1), "step {s} out of order");
    }
}

#[test]
fn disabled_tracing_records_nothing_and_changes_nothing() {
    // Tracing off (the default): zero events, and bit-identical virtual
    // time and results versus a traced run — observation is free both ways.
    let mut plain = Runtime::teleport(golden_config());
    let (sum_plain, bd_plain) = scripted_workload(&mut plain);
    assert_eq!(plain.trace().len(), 0, "disabled tracer stays empty");

    let mut traced = Runtime::teleport(golden_config());
    traced.enable_tracing();
    let (sum_traced, bd_traced) = scripted_workload(&mut traced);
    assert!(!traced.trace().is_empty());

    assert_eq!(sum_plain, sum_traced);
    assert_eq!(bd_plain, bd_traced, "tracing must not perturb timing");
    assert_eq!(plain.elapsed(), traced.elapsed());
}

#[test]
fn injected_exception_then_retry_golden_sequence() {
    // A scripted fault on pushdown call 0 plus a retry policy must produce
    // the exact sequence: full lifecycle with the injected fault at step
    // ❺, a retry-backoff decision, a clean second lifecycle, and the
    // closing retry-success record.
    let mut rt = Runtime::teleport(golden_config());
    rt.enable_tracing();
    rt.begin_timing();
    rt.install_fault_plan(FaultPlan::new(7).pushdown_exception(0));

    let out = rt
        .pushdown_resilient(PushdownOpts::new(), &ResiliencePolicy::retry_only(), |_m| {
            42u64
        })
        .expect("retry recovers the call");
    assert_eq!(out.value, 42);
    assert_eq!(out.attempts, 1);

    let events = rt.trace().events();
    let got: Vec<String> = events.iter().map(|r| label(r, 0)).collect();
    let lifecycle = |faulted: bool| -> Vec<&'static str> {
        let mut v = vec![
            "compute/step 1",
            "net/step 2",
            "net/net RpcRequest",
            "memory/step 3",
            "memory/step 4",
            "memory/step 5",
        ];
        if faulted {
            v.push("memory/fault pushdown-exception");
        }
        v.extend([
            "memory/step 6",
            "net/step 7",
            "net/net RpcResponse",
            "compute/step 8",
        ]);
        v
    };
    let mut expected: Vec<&str> = lifecycle(true);
    expected.push("compute/recovery retry-backoff a1");
    expected.extend(lifecycle(false));
    expected.push("compute/recovery retry-success a1");
    assert_eq!(
        got,
        expected.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        "full trace:\n{}",
        rt.trace().render()
    );

    let m = rt.metrics();
    assert_eq!(m.get("trace.faults_injected"), Some(1));
    assert_eq!(m.get("trace.recoveries"), Some(2));
    assert_eq!(m.get("resilience.retries"), Some(1));
    assert_eq!(m.get("faults.injected"), Some(1));
}

#[test]
fn ssd_transient_error_retries_at_the_device_golden_sequence() {
    // Scripted at the device layer: a certain transient error makes one
    // page read cost two device operations (attempt, fault, retry) and
    // exactly twice the I/O time.
    let clock = ddc_sim::Clock::new();
    let tracer = Tracer::new(clock.clone());
    tracer.enable();
    let ssd = Ssd::with_tracer(SsdConfig::default(), tracer.clone());
    let plan = FaultPlan::new(3).ssd_transient_errors(SimTime(0), ddc_sim::FOREVER, 1.0);
    ssd.set_injector(ddc_sim::FaultInjector::new(
        plan,
        clock.clone(),
        tracer.clone(),
    ));

    let t = ssd.read_page();
    assert_eq!(
        t,
        SsdConfig::default().page_io_time() * 2,
        "attempt + retry"
    );

    let got: Vec<String> = tracer.events().iter().map(|r| label(r, 0)).collect();
    assert_eq!(
        got,
        vec![
            "storage/ssd read".to_string(),
            "storage/fault ssd-transient-error".to_string(),
            "storage/ssd read".to_string(),
        ]
    );

    // Without an active window, the same device is back to one clean I/O.
    tracer.reset();
    let plan = FaultPlan::new(3).ssd_transient_errors(SimTime(0), SimTime(0), 1.0);
    ssd.set_injector(ddc_sim::FaultInjector::new(plan, clock, tracer.clone()));
    assert_eq!(ssd.read_page(), SsdConfig::default().page_io_time());
    assert_eq!(tracer.count(EventKind::SsdIo), 1);
    assert_eq!(tracer.count(EventKind::FaultInjected), 0);
}

#[test]
fn try_cancel_while_running_is_declined_and_the_call_completes() {
    // §3.2's other race, previously untested: the timeout fires while the
    // function is already executing. try_cancel is declined and the caller
    // still gets the result.
    let mut rt = Runtime::teleport(golden_config());
    rt.enable_tracing();
    let cell = rt.alloc_region::<u64>(1);
    rt.set(&cell, 0, 5, ddc_os::Pattern::Rand);
    rt.begin_timing();

    let v = rt
        .pushdown(
            PushdownOpts::new().timeout(SimDuration::from_nanos(1)),
            |m| {
                m.charge_cycles(1_000_000); // runs well past the timeout
                m.get(&cell, 0, ddc_os::Pattern::Rand)
            },
        )
        .expect("a running request cannot be cancelled — it completes");
    assert_eq!(v, 5);

    assert_eq!(rt.trace().count(EventKind::Timeout), 1);
    assert_eq!(rt.trace().count(EventKind::CancelDeclined), 1);
    assert_eq!(rt.trace().count(EventKind::Cancel), 0, "nothing cancelled");
    // The control message for try_cancel is on the wire ledger.
    assert_eq!(rt.net_ledger().control.messages, 1);
    let got: Vec<String> = rt.trace().events().iter().map(|r| label(r, 0)).collect();
    assert!(
        got.contains(&"compute/timeout 0".to_string())
            && got.contains(&"memory/cancel-declined 0".to_string()),
        "trace:\n{}",
        rt.trace().render()
    );
}

#[test]
fn metrics_registry_agrees_with_ledgers_and_trace() {
    let mut rt = Runtime::teleport(golden_config());
    rt.enable_tracing();
    let _ = scripted_workload(&mut rt);

    let m = rt.metrics();
    let stats = rt.paging_stats();
    let ledger = rt.net_ledger();
    assert_eq!(m.get("paging.cache_misses"), Some(stats.cache_misses));
    assert_eq!(m.get("paging.evictions"), Some(stats.evictions));
    assert_eq!(m.get("net.page_in.messages"), Some(ledger.page_in.messages));
    assert_eq!(
        m.get("net.coherence.messages"),
        Some(ledger.coherence.messages)
    );
    assert_eq!(m.get("pushdown.calls"), Some(1));
    // The trace's own per-kind counts are part of the registry and agree
    // with the underlying ledgers.
    assert_eq!(
        m.get("trace.net_msgs"),
        Some(ledger.total_messages()),
        "every fabric message traced"
    );
    assert_eq!(m.get("trace.pushdown_steps"), Some(8));
    assert_eq!(
        m.get("trace.coherence_msgs"),
        Some(rt.last_coherence_stats().unwrap().round_trips)
    );
    // Deterministic render: sorted, one line per counter.
    let render = m.render();
    assert_eq!(render.lines().count(), m.len());
    let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
}

/// The serving-plane golden: two tenants contending for one service slot
/// on a two-shard rack under a zero-backlog admission policy. The exact
/// narrative must replay every run: the guaranteed front-end arrives and
/// is admitted; its dispatch fans out across both shards; the best-effort
/// scavenger arrives behind the busy slot and is throttled — twice over,
/// then the digest reproduces bit-for-bit.
#[test]
fn serve_two_tenant_contention_golden_event_sequence() {
    let run = || {
        let mut cfg = golden_config();
        cfg.pools = 2;
        cfg.placement = ddc_sim::PlacementPolicy::LoadBalance;
        let mut rt = Runtime::teleport(cfg);
        let col = rt.alloc_region::<u64>(4 * ELEMS_PER_PAGE);
        let vals: Vec<u64> = (0..4 * ELEMS_PER_PAGE as u64).collect();
        rt.write_range(&col, 0, &vals);
        rt.drop_cache();
        rt.begin_timing();
        rt.enable_tracing();

        let make_work = || {
            move |rt: &mut Runtime, _s: u64| {
                rt.pushdown(PushdownOpts::new(), move |m| {
                    let mut buf = Vec::new();
                    m.read_range(&col, 0, col.len(), &mut buf);
                    buf.iter().copied().sum::<u64>()
                })
            }
        };
        let mut plane = ServePlane::new(ServeConfig {
            seed: 1,
            admission: AdmissionPolicy {
                max_queue_depth: 1,
                max_backlog: SimDuration::ZERO,
            },
            contexts: None,
        });
        // Uniform arrivals are seed-independent: both tenants fire at
        // t = 0 and t = 1ms, and ties resolve by tenant index.
        let gap = ArrivalProcess::uniform(SimDuration::from_millis(1));
        plane.tenant("front", QosClass::Guaranteed, gap, 2, make_work());
        plane.tenant("scav", QosClass::BestEffort, gap, 2, make_work());
        let rep = plane.run(&mut rt);

        let expected_sum = vals.iter().sum::<u64>();
        for out in rep.tenants[0].completed_values() {
            assert_eq!(out, expected_sum, "front-end session summed wrong");
        }
        assert_eq!(rep.tenants[0].completed, 2, "guaranteed completes both");
        assert_eq!(
            rep.tenants[1].shed, 2,
            "best-effort is throttled both times"
        );
        let labels: Vec<String> = rt.trace().events().iter().map(|r| label(r, 0)).collect();
        (labels, rt.trace().digest())
    };

    let (got, digest) = run();
    // One dispatch of the striped sum: lifecycle ❶–❽ with the fan-out
    // settled between ❻ and ❼ (as in the cross-pool golden above).
    let dispatch = [
        "compute/step 1",
        "net/step 2",
        "net/net RpcRequest",
        "memory/step 3",
        "memory/step 4",
        "memory/step 5",
        "memory/step 6",
        "memory/pool-routed p0 4",
        "memory/fanout 2 4",
        "net/net RpcRequest",
        "net/net RpcResponse",
        "memory/fanout-merge 2",
        "net/step 7",
        "net/net RpcResponse",
        "compute/step 8",
    ];
    let mut expected: Vec<String> = Vec::new();
    for round in 0..2 {
        // The front-end's arrival is admitted into the idle slot...
        expected.push(format!("compute/session-arrive t0 s{round}"));
        expected.push(format!("compute/session-admit t0 s{round}"));
        // ...whose dispatch logically precedes the scavenger's arrival,
        expected.extend(dispatch.iter().map(|s| s.to_string()));
        expected.push("compute/session-complete t0".to_string());
        // ...so the scavenger lands behind a busy slot: zero backlog
        // tolerance means best-effort is shed on the spot.
        expected.push(format!("compute/session-arrive t1 s{round}"));
        expected.push("compute/tenant-throttled t1 best-effort".to_string());
    }
    assert_eq!(got, expected, "serve contention golden drifted");

    // Same seed, same script: the digest must reproduce bit-for-bit.
    let (got2, digest2) = run();
    assert_eq!(got, got2);
    assert_eq!(digest, digest2, "serve golden digest drifted across reruns");
}

/// With one tenant on one pool, the serving plane must be *invisible*:
/// filtering out the four serve-event kinds leaves a (label, timestamp)
/// stream bit-identical to running the same pushdowns directly — the
/// plane adds bookkeeping, never virtual time.
#[test]
fn single_tenant_serve_plane_is_invisible_in_the_trace() {
    let setup = |rt: &mut Runtime| {
        let col = rt.alloc_region::<u64>(2 * ELEMS_PER_PAGE);
        let vals: Vec<u64> = (0..2 * ELEMS_PER_PAGE as u64).map(|v| v * 3 + 1).collect();
        rt.write_range(&col, 0, vals.as_slice());
        rt.drop_cache();
        rt.begin_timing();
        rt.enable_tracing();
        col
    };
    let stream = |rt: &Runtime, serve_events_expected: bool| -> Vec<(String, SimTime)> {
        let mut saw_serve = false;
        let out: Vec<(String, SimTime)> = rt
            .trace()
            .events()
            .iter()
            .filter(|r| {
                let serve = matches!(
                    r.event,
                    TraceEvent::SessionArrive { .. }
                        | TraceEvent::SessionAdmit { .. }
                        | TraceEvent::SessionComplete { .. }
                        | TraceEvent::TenantThrottled { .. }
                );
                saw_serve |= serve;
                !serve
            })
            .map(|r| (label(r, 0), r.at))
            .collect();
        assert_eq!(saw_serve, serve_events_expected, "serve-event presence");
        out
    };

    let direct = {
        let mut rt = Runtime::teleport(golden_config());
        let col = setup(&mut rt);
        for _ in 0..3 {
            rt.pushdown(PushdownOpts::new(), |m| {
                let mut buf = Vec::new();
                m.read_range(&col, 0, col.len(), &mut buf);
                buf.iter().copied().sum::<u64>()
            })
            .expect("direct pushdown succeeds");
        }
        stream(&rt, false)
    };

    let served = {
        let mut rt = Runtime::teleport(golden_config());
        let col = setup(&mut rt);
        let mut plane = ServePlane::new(ServeConfig::with_seed(9));
        plane.tenant(
            "solo",
            QosClass::Guaranteed,
            ArrivalProcess::uniform(SimDuration::from_micros(10)),
            3,
            move |rt, _s| {
                rt.pushdown(PushdownOpts::new(), move |m| {
                    let mut buf = Vec::new();
                    m.read_range(&col, 0, col.len(), &mut buf);
                    buf.iter().copied().sum::<u64>()
                })
            },
        );
        let rep = plane.run(&mut rt);
        assert_eq!(rep.completed(), 3, "solo tenant completes everything");
        stream(&rt, true)
    };

    assert_eq!(
        direct, served,
        "the serving plane perturbed the underlying event stream"
    );
}

/// The gray-failure plane's pinned narrative: a two-shard rack where shard
/// 0 degrades 50x mid-run. The filtered stream of gray-failure events must
/// replay exactly: the fail-slow onset, hedges firing (and winning) on the
/// slow shard, detection walking Healthy -> Suspect -> Quarantined, a blown
/// deadline budget while degraded, then — once the fault window closes —
/// the probe streak driving Quarantined -> Probation -> Healthy with the
/// closing reintegration record. Same seed, same script: the digest must
/// reproduce bit-for-bit.
#[test]
fn gray_failure_detect_hedge_quarantine_reintegrate_golden_sequence() {
    const DEGRADE_FROM: SimTime = SimTime(500_000); // 500us
    const DEGRADE_UNTIL: SimTime = SimTime(12_000_000); // 12ms

    let run = || {
        let mut cfg = golden_config();
        cfg.pools = 2;
        // Locality placement: allocation 0 lands whole on shard 0,
        // allocation 1 on shard 1 — the test needs that attribution.
        cfg.placement = ddc_sim::PlacementPolicy::Locality;
        let mut rt = Runtime::teleport(cfg);
        rt.enable_tracing();
        rt.install_fault_plan(FaultPlan::new(7).degraded_pool(0, DEGRADE_FROM, DEGRADE_UNTIL, 50));

        // One single-page region per shard: calls against `a` attribute
        // their service window to shard 0, calls against `b` to shard 1.
        let a = rt.alloc_region::<u64>(ELEMS_PER_PAGE);
        let b = rt.alloc_region::<u64>(ELEMS_PER_PAGE);
        rt.write_range(&a, 0, &vec![1u64; ELEMS_PER_PAGE]);
        rt.write_range(&b, 0, &vec![2u64; ELEMS_PER_PAGE]);
        rt.drop_cache();
        rt.begin_timing();

        let read_region = |col: teleport::Region<u64>| {
            move |m: &mut teleport::Arm<'_>| {
                let mut buf = Vec::new();
                m.read_range(&col, 0, col.len(), &mut buf);
                buf.iter().copied().sum::<u64>()
            }
        };
        // Heavier shape for the brownout phase: enough memory-side touches
        // that the 50x slowdown dominates the call's fixed overheads.
        let scan_region = |col: teleport::Region<u64>| {
            move |m: &mut teleport::Arm<'_>| {
                let mut sum = 0u64;
                for _ in 0..100 {
                    let mut buf = Vec::new();
                    m.read_range(&col, 0, col.len(), &mut buf);
                    sum = buf.iter().copied().sum::<u64>();
                }
                sum
            }
        };

        // Phase 1 — learn the baseline: healthy calls against shard 0
        // until the fault window is about to open.
        while rt.elapsed() < DEGRADE_FROM.since(SimTime::ZERO) {
            rt.pushdown(PushdownOpts::new(), read_region(a))
                .expect("healthy call");
        }

        // Phase 2 — brownout: hedged calls against the now-degraded shard.
        // Every call runs 50x slow, fires its hedge, and the local clone
        // wins the modeled race; the service windows walk the detector to
        // quarantine. One call carries a deadline budget sized for healthy
        // service — while degraded it must blow.
        let hedge = teleport::HedgePolicy {
            delay: SimDuration::from_micros(100),
            jitter: SimDuration::ZERO,
        };
        let mut deadline_blown = false;
        while rt
            .health()
            .is_some_and(|h| h.state(0) != ddc_sim::PoolHealthState::Quarantined)
        {
            let h = rt
                .pushdown_hedged(PushdownOpts::new(), &hedge, scan_region(a))
                .expect("hedged call returns");
            assert_eq!(h.value, ELEMS_PER_PAGE as u64);
            rt.drop_cache(); // return the clone's pages to the shard
            if !deadline_blown {
                deadline_blown = true;
                let err = rt
                    .pushdown(
                        PushdownOpts::new().deadline(SimDuration::from_micros(150)),
                        scan_region(a),
                    )
                    .expect_err("a healthy-sized budget blows while degraded");
                assert!(matches!(
                    err,
                    teleport::PushdownError::DeadlineExceeded { .. }
                ));
                rt.drop_cache();
            }
        }

        // Phase 3 — recovery: cheap traffic against the healthy shard
        // keeps the runtime (and its probe driver) ticking until the fault
        // window closes and the probe streak reintegrates shard 0.
        let mut guard = 0u32;
        while rt
            .health()
            .is_some_and(|h| h.state(0) != ddc_sim::PoolHealthState::Healthy)
        {
            rt.pushdown(PushdownOpts::new(), read_region(b))
                .expect("healthy-shard call");
            guard += 1;
            assert!(guard < 10_000, "shard 0 never reintegrated");
        }

        let labels: Vec<String> = rt
            .trace()
            .events()
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::FailSlowInjected { .. }
                        | TraceEvent::HealthTransition { .. }
                        | TraceEvent::HedgeFired { .. }
                        | TraceEvent::HedgeWon { .. }
                        | TraceEvent::DeadlineExceeded { .. }
                        | TraceEvent::PoolReintegrated { .. }
                )
            })
            .map(|r| label(r, 0))
            .collect();
        assert_eq!(
            rt.trace().count(EventKind::DataLoss),
            0,
            "a brownout is slow, never lossy"
        );
        let h = rt.health().expect("fail-slow plan arms the health plane");
        (
            labels,
            rt.trace().digest(),
            (h.quarantines(), h.reintegrations(), h.probes()),
        )
    };

    let (got, digest, (quarantines, reintegrations, probes)) = run();
    let expected = [
        // The onset is traced once; the slowdown itself is silent.
        "memory/fail-slow degraded-pool x50",
        // Every brownout call overruns the hedge delay; the local clone
        // wins the modeled race each time.
        "compute/hedge-fired call14",
        "compute/hedge-won call14",
        // Four degraded samples complete a window: one bad window is
        // suspicion, not a verdict.
        "memory/health p0 healthy->suspect",
        // The budgeted call completes ~1.1ms past its 150us budget.
        "compute/deadline-exceeded call15 +1137423",
        "compute/hedge-fired call16",
        "compute/hedge-won call16",
        "compute/hedge-fired call17",
        "compute/hedge-won call17",
        "compute/hedge-fired call18",
        "compute/hedge-won call18",
        // A second degraded window convicts: the shard leaves placement.
        "memory/health p0 suspect->quarantined",
        "compute/hedge-fired call19",
        "compute/hedge-won call19",
        // Synthetic probes fail silently while the fault window is open;
        // once it closes, the first pass starts probation and the streak
        // reintegrates the shard.
        "memory/health p0 quarantined->probation",
        "memory/health p0 probation->healthy",
        "memory/pool-reintegrated p0",
    ];
    assert_eq!(
        got,
        expected.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        "gray-failure golden drifted"
    );
    assert_eq!(quarantines, 1);
    assert_eq!(reintegrations, 1);
    assert_eq!(probes, 12, "9 failing probes + the reintegration streak");

    // Same seed, same script: the digest must reproduce bit-for-bit.
    let (got2, digest2, _) = run();
    assert_eq!(got, got2);
    assert_eq!(digest, digest2, "gray-failure golden digest drifted");
}
