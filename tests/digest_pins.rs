//! Cross-commit digest pins: small scripted scenarios, each asserting a
//! committed `(elapsed_ns, trace digest, trace len)` triple.
//!
//! The goldens in `trace_golden.rs` compare event *sequences* inside one
//! build, and the property tests compare two runs of the same build; nothing
//! else pins a number across commits. These pins are what "same seed ⇒ same
//! digest, across refactors" is checked against: a change that claims to
//! leave modeled behaviour alone must pass them unedited, and a change that
//! moves virtual time on purpose updates the constant in the same commit and
//! says why.
//!
//! Every seed here is a literal (never `TELEPORT_FAULT_SEED`), so the pins
//! are independent of the CI seed sweep. Each scenario covers a different
//! charge path: hash-join builds and probes, MapReduce's scattered shuffle
//! writes, compute faults and dirty write-backs, pool-side storage
//! recursion, prefetch, every coherence hook, fan-out settlement, both
//! failover flavours, both restart lives, repair from SSD and replica, the
//! health tick, and the serve plane's credit accounting.
//!
//! Because the scenarios between them arm every plane, they are also what
//! the DESIGN.md §6 metric table is held against: each scenario is a
//! function that hands every pinned point to a `check` callback, and
//! `metric_table_matches_what_the_scenarios_emit` runs them all with a
//! callback that collects metric names instead of comparing pins — and,
//! emitting every kind of trace event between them, what the
//! `trace_events!` table is held against
//! (`every_event_kind_is_emitted_by_a_pinned_scenario`, kind by kind
//! through DESIGN.md §6's event table).

use std::collections::{BTreeMap, BTreeSet};

use ddc_os::Pattern;
use ddc_sim::{
    ArrivalProcess, DdcConfig, EventKind, FaultPlan, MetricsRegistry, MonolithicConfig,
    PlacementPolicy, ReplicationMode, SimDuration, SimTime, FOREVER, PAGE_SIZE, QOS_CLASSES,
};
use teleport::{
    AdmissionPolicy, CoherenceMode, HedgePolicy, Mem, PlatformKind, PushdownError, PushdownOpts,
    Region, ResiliencePolicy, Runtime, ServeConfig, ServePlane, ServeReport, SyncStrategy,
};

/// `(elapsed_ns, trace digest, trace len)`.
type Pin = (u64, u64, u64);

fn pin_of(rt: &Runtime) -> Pin {
    (
        rt.elapsed().as_nanos(),
        rt.trace().digest(),
        rt.trace().len(),
    )
}

/// What a scenario calls at each pinned point: the row's name, the runtime
/// as it stands there, and the row's pin.
type Check<'a> = &'a mut dyn FnMut(&str, &Runtime, Pin);

fn assert_pin(name: &str, rt: &Runtime, want: Pin) {
    let got = pin_of(rt);
    assert_eq!(
        got, want,
        "{name}: virtual time / trace moved; pin is (0x{:x}, 0x{:016x}, {})",
        got.0, got.1, got.2
    );
}

fn column_vals(n: usize, tag: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            (i ^ tag)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17)
        })
        .collect()
}

fn wrapping_sum(vals: &[u64]) -> u64 {
    vals.iter().fold(0u64, |a, &v| a.wrapping_add(v))
}

fn sum_region(m: &mut impl Mem, col: &Region<u64>) -> u64 {
    let mut buf = Vec::new();
    m.read_range(col, 0, col.len(), &mut buf);
    wrapping_sum(&buf)
}

fn platform(kind: PlatformKind, ddc: DdcConfig, ws: usize) -> Runtime {
    let rt = match kind {
        PlatformKind::Local => Runtime::local(MonolithicConfig {
            dram_bytes: ws * 4 + (32 << 20),
            ..Default::default()
        }),
        PlatformKind::BaseDdc => Runtime::base_ddc(ddc),
        PlatformKind::Teleport => Runtime::teleport(ddc),
    };
    rt.enable_tracing();
    rt
}

fn cold_start(rt: &mut Runtime) {
    if rt.kind() != PlatformKind::Local {
        rt.drop_cache();
    }
    rt.begin_timing();
}

fn q6_scan(check: Check) {
    use memdb::queries::ops;
    use memdb::{oracle, q6, Database, PushdownPlan, QueryParams, TpchData};

    const PINS: [(PlatformKind, Pin); 3] = [
        (PlatformKind::Local, (0x4ee71, 0x5d12003294c1cd5d, 7)),
        (PlatformKind::BaseDdc, (0xad426, 0x2cf7eefa0eeffb84, 347)),
        (PlatformKind::Teleport, (0x88a4a, 0x76970b0b52b0f865, 60)),
    ];
    let data = TpchData::generate(0.002, 5);
    let params = QueryParams::default();
    let ws = data.working_set_bytes();
    let expected = oracle::q6(&data, &params);
    for (kind, want) in PINS {
        let mut rt = platform(kind, DdcConfig::with_cache_ratio(ws, 0.02), ws);
        let db = Database::load(&mut rt, &data);
        cold_start(&mut rt);
        let plan = if kind == PlatformKind::Teleport {
            PushdownPlan::of(ops::Q6)
        } else {
            PushdownPlan::none()
        };
        let (r, _) = q6(&mut rt, &db, &plan, &params);
        assert!((r - expected).abs() < 1e-6 * expected.abs());
        check(&format!("q6/{kind:?}"), &rt, want);
    }
}

/// Q9 and Q3 run every hash join memdb has: the build's random inserts,
/// the probes into an index larger than the compute cache, and the
/// Teleport leg pushing each query's top-4 operators by the BaseDdc
/// ranking, as rackbench's `tpch` plans them.
fn q9_q3_joins(check: Check) {
    use memdb::{oracle, q3, q9, Database, PushdownPlan, QueryParams, TpchData};

    const PINS: [(PlatformKind, Pin); 3] = [
        (PlatformKind::Local, (0x47030f, 0x1a328e38914597dd, 191)),
        (
            PlatformKind::BaseDdc,
            (0x121774c, 0xc2c13a9046b2b0bf, 11823),
        ),
        (PlatformKind::Teleport, (0x58dc5d, 0x72ae122b0e2ed182, 912)),
    ];
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
    let data = TpchData::generate(0.002, 5);
    let params = QueryParams::default();
    let ws = data.working_set_bytes();
    let (want9, want3) = (oracle::q9(&data, &params), oracle::q3(&data, &params));
    // Local and BaseDdc push nothing; BaseDdc's ranking plans Teleport.
    let mut plans = [PushdownPlan::none(), PushdownPlan::none()];
    for (kind, want) in PINS {
        let mut rt = platform(kind, DdcConfig::with_cache_ratio(ws, 0.02), ws);
        let db = Database::load(&mut rt, &data);
        cold_start(&mut rt);
        let (rows9, rep9) = q9(&mut rt, &db, &plans[0], &params);
        assert_eq!(rows9.len(), want9.len(), "{kind:?}: Q9 groups");
        for (g, e) in rows9.iter().zip(&want9) {
            assert!(g.nation == e.nation && g.year == e.year && close(g.profit, e.profit));
        }
        let (rows3, rep3) = q3(&mut rt, &db, &plans[1], &params);
        assert_eq!(rows3.len(), want3.len(), "{kind:?}: Q3 rows");
        for (g, e) in rows3.iter().zip(&want3) {
            assert!(g.orderkey == e.orderkey && close(g.revenue, e.revenue));
            assert!(g.orderdate == e.orderdate && g.shippriority == e.shippriority);
        }
        if kind == PlatformKind::BaseDdc {
            plans = [rep9, rep3].map(|rep| PushdownPlan::top_k(&rep.rank_by_intensity(), 4));
            assert!(
                plans[0].is_pushed("HashJoin(partsupp)"),
                "the Teleport leg probes inside a pushdown"
            );
        }
        check(&format!("q9-q3/{kind:?}"), &rt, want);
    }
}

fn sssp_spill(check: Check) {
    use graphproc::algos::sssp;
    use graphproc::{social_graph, GasEngine, GasPlan, Sssp};

    const PINS: [(PlatformKind, Pin); 2] = [
        (
            PlatformKind::BaseDdc,
            (0x24ea634, 0x069ba74b4c56db56, 23827),
        ),
        (PlatformKind::Teleport, (0xa3c3ec, 0x71990e12a0aff6a9, 365)),
    ];
    let g = social_graph(1_500, 4, 11);
    let ws = g.bytes() + g.n() * 16;
    let expected = sssp::oracle(&g, 0);
    for (kind, want) in PINS {
        // A pool a third of the working set: pool-side faults recurse to
        // storage, with dirty victims written back first.
        let mut ddc = DdcConfig::with_cache_ratio(ws, 0.02);
        ddc.memory_pool_bytes = (ws / 3).max(16 * PAGE_SIZE);
        let mut rt = platform(kind, ddc, ws);
        let eng = GasEngine::load(&mut rt, &g);
        cold_start(&mut rt);
        let plan = if kind == PlatformKind::Teleport {
            GasPlan::paper()
        } else {
            GasPlan::none()
        };
        let (d, _) = eng.run(&mut rt, &Sssp { source: 0 }, &plan);
        assert_eq!(d, expected);
        let s = rt.paging_stats();
        assert!(
            s.storage_page_in > 0 && s.storage_page_out > 0,
            "{kind:?}: the pool must spill both ways for this pin to mean anything"
        );
        check(&format!("sssp-spill/{kind:?}"), &rt, want);
    }
}

/// Compute-side dirty pages meet memory-side readers and writers under each
/// coherence mode, with a hinted pre-sync, an eager-sync call, explicit
/// `syncmem`s and sequential prefetch on — every coherence hook and the
/// stale-view byte paths in one script.
fn coherence_hooks(check: Check) {
    const PIN: Pin = (0x6cc1a, 0xfda0740a5adaff8d, 243);
    const PAGES: usize = 24;
    let elems = PAGES * PAGE_SIZE / 8;
    let mut ddc = DdcConfig::with_cache_ratio(PAGES * PAGE_SIZE, 0.25);
    ddc.prefetch_pages = 4;
    let mut rt = platform(PlatformKind::Teleport, ddc, PAGES * PAGE_SIZE);
    let col = rt.alloc_region::<u64>(elems);
    let mut oracle = column_vals(elems, 3);
    rt.write_range(&col, 0, &oracle);
    cold_start(&mut rt);

    for (round, mode) in [
        CoherenceMode::WriteInvalidate,
        CoherenceMode::Pso,
        CoherenceMode::WeakOrdering,
        CoherenceMode::Disabled,
    ]
    .into_iter()
    .enumerate()
    {
        // Dirty a few compute-side pages, straddling a page boundary.
        for i in 0..600 {
            let idx = (round * 700 + i) % elems;
            oracle[idx] ^= 0xA5A5;
            rt.set(&col, idx, oracle[idx], Pattern::Seq);
        }
        let opts = PushdownOpts {
            coherence: mode,
            ..PushdownOpts::new()
        };
        let base = round * 512;
        rt.pushdown(opts, |m| {
            for i in base..base + 1024 {
                let v = m.get(&col, i % elems, Pattern::Seq) ^ 0x0F0F;
                m.set(&col, i % elems, v, Pattern::Seq);
            }
        })
        .expect("healthy pushdown");
        for i in base..base + 1024 {
            oracle[i % elems] ^= 0x0F0F;
        }
        // Compute-side accesses through a possibly stale view, then the
        // reconciliation point.
        let _ = rt.get(&col, base % elems, Pattern::Rand);
        // A raw span straddling three pages, read then rewritten with the
        // true values (the read itself may be served from a stale view).
        let e0 = (base + 300) % (elems / 2);
        let _ = rt.read_raw(col.at(e0), 2 * PAGE_SIZE, Pattern::Seq);
        let truth: Vec<u8> = oracle[e0..e0 + PAGE_SIZE / 4]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        rt.write_raw(col.at(e0), &truth, Pattern::Seq);
        rt.set(&col, elems - 1, round as u64, Pattern::Rand);
        oracle[elems - 1] = round as u64;
        if round % 2 == 0 {
            rt.syncmem();
        } else {
            rt.syncmem_range(col.addr(), col.byte_len());
        }
    }
    let hinted = rt
        .pushdown_with_hint(PushdownOpts::new(), &[(col.at(100), 3 * PAGE_SIZE)], |m| {
            sum_region(m, &col)
        })
        .expect("hinted pushdown");
    assert_eq!(hinted, wrapping_sum(&oracle));
    let eager = rt
        .pushdown(
            PushdownOpts {
                sync: SyncStrategy::Eager,
                ..PushdownOpts::new()
            },
            |m| sum_region(m, &col),
        )
        .expect("eager pushdown");
    assert_eq!(eager, wrapping_sum(&oracle));
    let mut back = Vec::new();
    rt.read_range(&col, 0, elems, &mut back);
    assert_eq!(back, oracle);
    check("coherence-hooks", &rt, PIN);
}

fn fanout(check: Check) {
    const PIN: Pin = (0x1e716, 0xa1f6c176c868883a, 51);
    const PAGES: usize = 8;
    let cfg = DdcConfig {
        pools: 2,
        placement: PlacementPolicy::LoadBalance,
        ..DdcConfig::with_cache_ratio(PAGES * PAGE_SIZE, 0.25)
    };
    let mut rt = platform(PlatformKind::Teleport, cfg, PAGES * PAGE_SIZE);
    let col = rt.alloc_region::<u64>(PAGES * PAGE_SIZE / 8);
    cold_start(&mut rt);
    for p in 0..PAGES {
        rt.set(&col, p * PAGE_SIZE / 8, p as u64 + 1, Pattern::Rand);
    }
    let sum = rt
        .pushdown(PushdownOpts::new(), |m| sum_region(m, &col))
        .expect("fan-out pushdown");
    assert_eq!(sum, (1..=PAGES as u64).sum::<u64>());
    assert_eq!(rt.metrics().get("topology.fanout_pushdowns"), Some(1));
    check("fanout", &rt, PIN);
}

fn failover(check: Check) {
    const PINS: [(ReplicationMode, Pin); 2] = [
        (
            ReplicationMode::Synchronous,
            (0x190e64d, 0xb97861cfa63fad4f, 8282),
        ),
        (
            ReplicationMode::LogShipped { batch_pages: 3 },
            (0x15ec54c, 0x688d5f1ee8754ce0, 2810),
        ),
    ];
    const ELEMS: usize = 4096;
    for (mode, want) in PINS {
        let cfg = DdcConfig {
            replication: mode,
            ..Default::default()
        };
        let mut rt = platform(PlatformKind::Teleport, cfg, ELEMS * 8);
        let mut oracle = column_vals(ELEMS, 0);
        let col = rt.alloc_region::<u64>(ELEMS);
        rt.write_range(&col, 0, &oracle);
        rt.begin_timing();
        rt.pushdown(PushdownOpts::new(), |m| {
            for i in 0..ELEMS / 2 {
                let v = m.get(&col, i, Pattern::Seq) ^ 0x5555_5555;
                m.set(&col, i, v, Pattern::Seq);
            }
        })
        .expect("healthy pushdown");
        for v in oracle.iter_mut().take(ELEMS / 2) {
            *v ^= 0x5555_5555;
        }
        rt.install_fault_plan(FaultPlan::new(7).memory_pool_death(SimTime(0)));
        let out = rt
            .pushdown_resilient(PushdownOpts::new(), &ResiliencePolicy::retry_only(), |m| {
                sum_region(m, &col)
            })
            .expect("retry reaches the promoted pool");
        assert_eq!(out.attempts, 1);
        assert_eq!(rt.failovers(), 1);
        if mode == ReplicationMode::Synchronous {
            assert_eq!(out.value, wrapping_sum(&oracle));
        }
        check(&format!("failover/{mode:?}"), &rt, want);
    }
}

fn crash_restart(check: Check) {
    // (replicated, torn): the unreplicated torn row replays a journal with
    // a discarded tail as primary; the replicated row fails over and the
    // zombie rejoins as a re-silvered standby.
    const PINS: [(bool, bool, Pin); 2] = [
        (false, true, (0x3619f, 0x880dda5972688a69, 30)),
        (true, false, (0x17899, 0xd8857e84791197a4, 36)),
    ];
    const ELEMS: usize = 2048;
    for (replicated, torn, want) in PINS {
        let mut cfg = DdcConfig::with_cache_ratio(ELEMS * 8, 0.25);
        if replicated {
            cfg.replication = ReplicationMode::Synchronous;
        }
        let mut rt = platform(PlatformKind::Teleport, cfg, ELEMS * 8);
        let vals = column_vals(ELEMS, 9);
        let col = rt.alloc_region::<u64>(ELEMS);
        rt.write_range(&col, 0, &vals);
        rt.begin_timing();
        let mut plan =
            FaultPlan::new(9).pool_crash_restart(0, SimTime(0), SimDuration::from_nanos(200));
        if torn {
            plan = plan.torn_journal_write(0, SimTime(0));
        }
        rt.install_fault_plan(plan);
        // Write-backs land in the recovery journal before the crash polls.
        rt.drop_cache();
        let out = rt
            .pushdown_resilient(PushdownOpts::new(), &ResiliencePolicy::retry_only(), |m| {
                sum_region(m, &col)
            })
            .expect("retry rides out the crash");
        assert_eq!(out.value, wrapping_sum(&vals));
        let again = rt
            .pushdown(PushdownOpts::new(), |m| sum_region(m, &col))
            .expect("steady state after recovery");
        assert_eq!(again, wrapping_sum(&vals));
        let m = rt.metrics();
        assert_eq!(m.get("recovery.crashes"), Some(1));
        assert_eq!(m.get("recovery.restarts"), Some(1));
        assert_eq!(m.get("recovery.fenced_writes"), Some(replicated as u64));
        check(
            &format!("crash-restart/replicated={replicated},torn={torn}"),
            &rt,
            want,
        );
    }
}

fn corruption(check: Check) {
    const PIN_REPLICA: Pin = (0x1524f, 0x6af557576c0bada9, 83);
    const PIN_SCRUB: Pin = (0x1b840a, 0xd33ef6a0a773de29, 80);
    const ELEMS: usize = 4096;
    let vals = column_vals(ELEMS, 5);

    // Scribbles on dirty pool copies repair from the replica; bit flips in
    // flight on clean pages repair from storage.
    let cfg = DdcConfig {
        replication: ReplicationMode::Synchronous,
        ..Default::default()
    };
    let mut rt = platform(PlatformKind::Teleport, cfg, ELEMS * 8);
    let col = rt.alloc_region::<u64>(ELEMS);
    rt.write_range(&col, 0, &vals);
    rt.begin_timing();
    rt.install_fault_plan(
        FaultPlan::new(21)
            .pool_scribbles(SimTime(0), FOREVER, 0.7)
            .fabric_bit_flips(SimTime(0), FOREVER, 0.5),
    );
    rt.drop_cache();
    let sum = rt
        .pushdown(PushdownOpts::new(), |m| sum_region(m, &col))
        .expect("a synchronous replica repairs every corruption");
    assert_eq!(sum, wrapping_sum(&vals));
    assert!(rt.metrics().get("integrity.repaired").unwrap_or(0) > 0);
    check("corruption/replica", &rt, PIN_REPLICA);

    // A pool squeezed to 4 pages spills the column; latent sector rot is
    // found and repaired by one scrubber pass before any reader sees it.
    let cfg = DdcConfig {
        memory_pool_bytes: 4 * PAGE_SIZE,
        ..DdcConfig::with_cache_ratio(ELEMS * 8, 0.25)
    };
    let mut rt = platform(PlatformKind::Teleport, cfg, ELEMS * 8);
    let col = rt.alloc_region::<u64>(ELEMS);
    rt.write_range(&col, 0, &vals);
    rt.drop_cache();
    rt.begin_timing();
    rt.install_fault_plan(FaultPlan::new(21).ssd_latent_sectors(SimTime(0), FOREVER, 0.5));
    let (scanned, detected) = rt.scrub_now();
    assert_eq!(scanned, 8);
    assert!(detected > 0, "the scrubber must find rot for this pin");
    let mut back = Vec::new();
    rt.read_range(&col, 0, ELEMS, &mut back);
    assert_eq!(back, vals);
    assert_eq!(rt.data_loss(), 0);
    check("corruption/scrub", &rt, PIN_SCRUB);
}

/// Baseline → brownout (hedged calls walk shard 0 to quarantine) → recovery
/// (traffic on the healthy shard drives the probe streak that reintegrates
/// it): the whole health tick, probe credit included.
fn grayfail_hedged(check: Check) {
    use ddc_sim::PoolHealthState;

    const PIN: Pin = (0xc1064e, 0x4a39d23ccafeeea5, 666);
    const FROM: SimTime = SimTime(500_000);
    const UNTIL: SimTime = SimTime(12_000_000);
    const ELEMS: usize = PAGE_SIZE / 8;
    let cfg = DdcConfig {
        pools: 2,
        // Allocation 0 lands whole on shard 0, allocation 1 on shard 1.
        placement: PlacementPolicy::Locality,
        ..DdcConfig::default()
    };
    let mut rt = platform(PlatformKind::Teleport, cfg, 2 * PAGE_SIZE);
    rt.install_fault_plan(FaultPlan::new(7).degraded_pool(0, FROM, UNTIL, 50));
    let a = rt.alloc_region::<u64>(ELEMS);
    let b = rt.alloc_region::<u64>(ELEMS);
    rt.write_range(&a, 0, &vec![1u64; ELEMS]);
    rt.write_range(&b, 0, &vec![2u64; ELEMS]);
    cold_start(&mut rt);

    while rt.elapsed() < FROM.since(SimTime::ZERO) {
        rt.pushdown(PushdownOpts::new(), |m| sum_region(m, &a))
            .expect("healthy call");
    }
    let hedge = HedgePolicy {
        delay: SimDuration::from_micros(100),
        jitter: SimDuration::from_micros(20),
    };
    let state = |rt: &Runtime| rt.health().expect("armed").state(0);
    while state(&rt) != PoolHealthState::Quarantined {
        let h = rt
            .pushdown_hedged(PushdownOpts::new(), &hedge, |m| {
                (0..100).map(|_| sum_region(m, &a)).last().unwrap_or(0)
            })
            .expect("fail-slow is benign to correctness");
        assert_eq!(h.value, ELEMS as u64);
        rt.drop_cache();
    }
    let mut guard = 0u32;
    while state(&rt) != PoolHealthState::Healthy {
        rt.pushdown(PushdownOpts::new(), |m| sum_region(m, &b))
            .expect("healthy-shard call");
        guard += 1;
        assert!(guard < 10_000, "shard 0 never reintegrated");
    }
    let m = rt.metrics();
    assert!(m.get("hedge.won").unwrap_or(0) > 0, "hedges won");
    assert_eq!(m.get("health.reintegrations"), Some(1));
    assert!(m.get("health.probe_ns").unwrap_or(0) > 0, "probe credit");
    check("grayfail-hedged", &rt, PIN);
}

fn two_tenant_serve(check: Check) -> ServeReport {
    const PIN: Pin = (0x77fbc8, 0xb0ef0d84e3d3ee94, 2822);
    const KEYS: usize = 256;
    const SESSIONS: usize = 128;
    let data = kvapp::KvData::generate(KEYS, 7);
    let mut rt = platform(
        PlatformKind::Teleport,
        DdcConfig::with_cache_ratio(data.working_set_bytes(), 0.25),
        data.working_set_bytes(),
    );
    let store = kvapp::KvStore::load(&mut rt, &data);
    cold_start(&mut rt);
    let mut plane = ServePlane::new(ServeConfig {
        seed: 42,
        admission: AdmissionPolicy {
            max_queue_depth: 8,
            max_backlog: SimDuration::from_micros(400),
        },
        contexts: None,
    });
    for t in 0..2usize {
        let ks = kvapp::keys(42 ^ (t as u64 + 1), SESSIONS, KEYS);
        plane.tenant(
            format!("t{t}"),
            QOS_CLASSES[t * 2],
            ArrivalProcess::poisson(SimDuration::from_micros(60)),
            SESSIONS,
            move |rt, s| kvapp::get(rt, &store, ks[s as usize]),
        );
    }
    let rep = plane.run(&mut rt);
    assert_eq!(rep.arrived(), 2 * SESSIONS as u64);
    assert!(rep.ledger_balances());
    check("serve-256", &rt, PIN);
    rep
}

/// The verdicts a call can get without running to a good end: a queued
/// request times out and is cancelled, the backlog it left standing gets
/// the next request shed at admission, and a call that waits the backlog
/// out finishes past its deadline.
fn call_verdicts(check: Check) {
    const PIN: Pin = (0x214630, 0xd0f1d064d06c724f, 35);
    const ELEMS: usize = 1024;
    let mut rt = platform(PlatformKind::Teleport, DdcConfig::default(), ELEMS * 8);
    let vals = column_vals(ELEMS, 13);
    let col = rt.alloc_region::<u64>(ELEMS);
    rt.write_range(&col, 0, &vals);
    cold_start(&mut rt);

    rt.inject_queue_backlog(SimDuration::from_millis(2));
    let timed_out = rt.pushdown(
        PushdownOpts::new().timeout(SimDuration::from_micros(100)),
        |m| sum_region(m, &col),
    );
    assert_eq!(timed_out, Err(PushdownError::CancelledBeforeStart));
    rt.set_admission_policy(Some(AdmissionPolicy {
        max_queue_depth: 4,
        max_backlog: SimDuration::from_millis(1),
    }));
    let shed = rt.pushdown(PushdownOpts::new(), |m| sum_region(m, &col));
    assert!(matches!(shed, Err(PushdownError::Rejected { .. })));
    rt.set_admission_policy(None);
    let late = rt.pushdown(
        PushdownOpts::new().deadline(SimDuration::from_millis(1)),
        |m| sum_region(m, &col),
    );
    assert!(matches!(late, Err(PushdownError::DeadlineExceeded { .. })));
    let sum = rt
        .pushdown(PushdownOpts::new(), |m| sum_region(m, &col))
        .expect("the backlog was waited out");
    assert_eq!(sum, wrapping_sum(&vals));
    check("call-verdicts", &rt, PIN);
}

/// A disabled-coherence call writes a page the compute side then reads
/// back, and then an unreplicated pool whose every landed image is
/// scribbled loses its dirty pages for good.
fn data_loss(check: Check) {
    const PIN: Pin = (0x15262, 0xbf485aea7c0acd9e, 47);
    const ELEMS: usize = 2048;
    let mut rt = platform(PlatformKind::Teleport, DdcConfig::default(), ELEMS * 8);
    let vals = column_vals(ELEMS, 17);
    let col = rt.alloc_region::<u64>(ELEMS);
    let flag = rt.alloc_region::<u64>(1);
    rt.write_range(&col, 0, &vals);
    rt.begin_timing();

    let opts = PushdownOpts {
        coherence: CoherenceMode::Disabled,
        ..PushdownOpts::new()
    };
    rt.pushdown(opts, |m| m.set(&flag, 0, 1, Pattern::Rand))
        .expect("healthy disabled-coherence call");
    let _ = rt.get(&flag, 0, Pattern::Rand);

    rt.install_fault_plan(FaultPlan::new(33).pool_scribbles(SimTime(0), FOREVER, 1.0));
    rt.drop_cache();
    let lost = rt.pushdown(PushdownOpts::new(), |m| sum_region(m, &col));
    assert!(matches!(lost, Err(PushdownError::DataLoss { .. })));
    assert!(rt.data_loss() > 0);
    assert!(rt.is_alive(), "data loss is an error, not a crash");
    check("data-loss", &rt, PIN);
}

/// WordCount and Grep over a tiny corpus: the map-shuffle's scattered
/// bucket writes, Grep's payload `write_raw`s riding along, the keyed
/// reduce and the merge, with the Teleport leg pushing the shuffle as the
/// paper does (`MrPlan::paper()`). One point per app and platform; the
/// Grep point follows the WordCount run on the same rack.
fn wordcount_and_grep(check: Check) {
    use mapred::{
        grep_oracle, run, wordcount_oracle, Corpus, Grep, LoadedCorpus, MrPlan, WordCount,
    };

    const PINS: [(PlatformKind, Pin, Pin); 3] = [
        (
            PlatformKind::Local,
            (0x45dd8b, 0xd165cb76c34b9e35, 73),
            (0x485a28, 0xce1c3d013086bd6d, 87),
        ),
        (
            PlatformKind::BaseDdc,
            (0xd51b0b8, 0x3ce66eba39e94c69, 172746),
            (0xd56ddc5, 0xab5d4f100f7a42c1, 172902),
        ),
        (
            PlatformKind::Teleport,
            (0x4aa83e, 0x2bdbbfeeee5d3618, 288),
            (0x4f988a, 0x92d718d17461649a, 412),
        ),
    ];
    let corpus = Corpus::generate(800, 2_000, 3);
    let ws = corpus.bytes() * 3;
    let grep = Grep { pattern: 7 };
    let (want_wc, want_grep) = (
        wordcount_oracle(&corpus),
        grep_oracle(&corpus, grep.pattern),
    );
    for (kind, wc_pin, grep_pin) in PINS {
        let mut rt = platform(kind, DdcConfig::with_cache_ratio(ws, 0.1), ws);
        let input = LoadedCorpus::load(&mut rt, &corpus);
        cold_start(&mut rt);
        let plan = if kind == PlatformKind::Teleport {
            MrPlan::paper()
        } else {
            MrPlan::none()
        };
        let (wc, _) = run(&mut rt, &input, &WordCount, 8, 4, &plan);
        assert_eq!(wc, want_wc, "{kind:?}: WordCount");
        check(&format!("wordcount/{kind:?}"), &rt, wc_pin);
        let (gr, rep) = run(&mut rt, &input, &grep, 8, 4, &plan);
        assert_eq!(gr, vec![(grep.pattern, want_grep)], "{kind:?}: Grep");
        assert!(rep.pairs_shuffled > 0, "Grep's payloads ride the shuffle");
        check(&format!("grep/{kind:?}"), &rt, grep_pin);
    }
}

#[test]
fn q6_scan_on_every_platform() {
    q6_scan(&mut assert_pin);
}

#[test]
fn q9_q3_hash_joins_on_every_platform() {
    q9_q3_joins(&mut assert_pin);
}

#[test]
fn sssp_on_a_spilling_pool() {
    sssp_spill(&mut assert_pin);
}

#[test]
fn coherence_hooks_syncmem_and_prefetch() {
    coherence_hooks(&mut assert_pin);
}

#[test]
fn two_pool_loadbalance_fanout() {
    fanout(&mut assert_pin);
}

#[test]
fn replicated_pool_death_fails_over() {
    failover(&mut assert_pin);
}

#[test]
fn crash_restart_both_lives() {
    crash_restart(&mut assert_pin);
}

#[test]
fn corruption_repair_and_scrub() {
    corruption(&mut assert_pin);
}

#[test]
fn degraded_pool_with_hedged_calls() {
    grayfail_hedged(&mut assert_pin);
}

#[test]
fn two_tenant_serve_run() {
    two_tenant_serve(&mut assert_pin);
}

#[test]
fn timeout_shed_and_blown_deadline() {
    call_verdicts(&mut assert_pin);
}

#[test]
fn data_loss_on_a_scribbled_pool() {
    data_loss(&mut assert_pin);
}

#[test]
fn wordcount_and_grep_on_every_platform() {
    wordcount_and_grep(&mut assert_pin);
}

/// A pinned scenario: it hands each of its pinned points to `check`.
type Scenario = fn(Check);

/// The pinned scenarios other than the serve run, by the function names
/// DESIGN.md §6's event table cites.
const SCENARIOS: [(&str, Scenario); 12] = [
    ("q6_scan", q6_scan),
    ("q9_q3_joins", q9_q3_joins),
    ("sssp_spill", sssp_spill),
    ("coherence_hooks", coherence_hooks),
    ("fanout", fanout),
    ("failover", failover),
    ("crash_restart", crash_restart),
    ("corruption", corruption),
    ("grayfail_hedged", grayfail_hedged),
    ("call_verdicts", call_verdicts),
    ("data_loss", data_loss),
    ("wordcount_and_grep", wordcount_and_grep),
];

/// Every pinned scenario, each handing its pinned points to `check`.
fn every_scenario(check: Check) -> ServeReport {
    for (_, scenario) in SCENARIOS {
        scenario(check);
    }
    two_tenant_serve(check)
}

/// How many records of each `EventKind::ALL` kind a scenario's pinned
/// points report, summed over the points.
fn kinds_drawn(scenario: impl FnOnce(Check)) -> [u64; EventKind::ALL.len()] {
    let mut counts = [0u64; EventKind::ALL.len()];
    scenario(&mut |_, rt, _| {
        let m = rt.metrics();
        for (n, kind) in counts.iter_mut().zip(EventKind::ALL) {
            *n += m.get(kind.metric_name()).expect("one trace.* row a kind");
        }
    });
    counts
}

/// `integrity.pool1.detected`, `serve.tenant0.p99_ns`: one row per pool or
/// tenant of the run. Instance families are described in DESIGN.md §10 /
/// §11, not tabled in §6.
fn is_instance(name: &str) -> bool {
    name.split('.').any(|seg| {
        ["pool", "tenant"].iter().any(|family| {
            seg.strip_prefix(family)
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        })
    })
}

/// The text between DESIGN.md's `<!-- {name}:begin -->` and
/// `<!-- {name}:end -->` markers.
fn design_table(name: &str) -> &'static str {
    include_str!("../DESIGN.md")
        .split_once(&format!("<!-- {name}:begin -->"))
        .and_then(|(_, rest)| rest.split_once(&format!("<!-- {name}:end -->")))
        .unwrap_or_else(|| panic!("DESIGN.md keeps its {name} markers"))
        .0
}

/// The names in the first column of DESIGN.md's §6 metric table.
fn documented_metrics() -> BTreeSet<String> {
    design_table("metric-table")
        .lines()
        .filter_map(|row| row.strip_prefix("| `")?.split_once('`'))
        .map(|(name, _)| name.to_string())
        .collect()
}

/// The §6 table is exactly what the program emits: every name any pinned
/// scenario reports (through `Runtime::metrics()` or the serve report) is a
/// row, and every row is reported by some scenario. A typo in a
/// `m.set("…")` literal, an undocumented counter, and a row for a counter
/// that no longer exists each fail here, with the name.
#[test]
fn metric_table_matches_what_the_scenarios_emit() {
    let mut emitted = BTreeSet::new();
    let mut note = |m: MetricsRegistry| {
        emitted.extend(m.iter().map(|(name, _)| name.to_string()));
    };
    let report = every_scenario(&mut |_, rt, _| note(rt.metrics()));
    note(report.metrics());

    let with_instances = emitted.len();
    emitted.retain(|name| !is_instance(name));
    let documented = documented_metrics();
    let counts = format!(
        "§6 documents {} names; the pinned scenarios emit {} (+{} per-instance)",
        documented.len(),
        emitted.len(),
        with_instances - emitted.len()
    );
    println!("{counts}");
    let undocumented: Vec<_> = emitted.difference(&documented).collect();
    let unemitted: Vec<_> = documented.difference(&emitted).collect();
    assert!(
        undocumented.is_empty() && unemitted.is_empty(),
        "{counts}\n\
         emitted, not in §6: {undocumented:?}\n\
         in §6, not emitted: {unemitted:?}"
    );
}

/// Every row of the `trace_events!` table is drawn by a run whose digest is
/// pinned above: the event is emitted by the program (no test can write to
/// the stream) and a change to what it carries moves a pin. DESIGN.md §6's
/// event table names, kind by kind, the scenario that draws it: its rows
/// must be `EventKind::ALL` in tag order, and each must name a scenario
/// that `every_scenario` runs and that draws that kind. So a new row fails
/// here until §6 has a row for it citing a pinned scenario that draws it.
#[test]
fn every_event_kind_is_emitted_by_a_pinned_scenario() {
    let rows: Vec<(u64, String, String)> = design_table("event-table")
        .lines()
        .filter_map(|row| {
            let cells: Vec<&str> = row.split('|').map(|c| c.trim().trim_matches('`')).collect();
            let tag = cells.get(1)?.parse().ok()?;
            Some((
                tag,
                cells[2].to_string(),
                cells[cells.len() - 2].to_string(),
            ))
        })
        .collect();
    let table: Vec<(u64, String)> = rows.iter().map(|(t, k, _)| (*t, k.clone())).collect();
    let schema: Vec<(u64, String)> = EventKind::ALL
        .iter()
        .map(|&kind| (kind as u64, format!("{kind:?}")))
        .collect();
    assert_eq!(
        table, schema,
        "§6's event table is not the trace_events! table"
    );

    let mut drawn = BTreeMap::new();
    for (i, (_, kind, scenario)) in rows.iter().enumerate() {
        let counts = drawn.entry(scenario.as_str()).or_insert_with(|| {
            if scenario == "two_tenant_serve" {
                return kinds_drawn(|check| {
                    two_tenant_serve(check);
                });
            }
            let (_, run) = SCENARIOS
                .iter()
                .find(|(name, _)| name == scenario)
                .unwrap_or_else(|| {
                    panic!("§6 cites {scenario}, which every_scenario does not run")
                });
            kinds_drawn(run)
        });
        assert!(
            counts[i] > 0,
            "§6 says {scenario} draws {kind}; it does not"
        );
    }
}

/// DESIGN.md §6's counter table: `(counter, trace metric, relation)` per
/// row.
fn counter_pairs() -> Vec<(String, String, String)> {
    design_table("counter-table")
        .lines()
        .filter_map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let counter = cells.get(1)?.strip_prefix('`')?.strip_suffix('`')?;
            Some((
                counter.to_string(),
                cells[2].trim_matches('`').to_string(),
                cells[3].to_string(),
            ))
        })
        .collect()
}

/// Every row of §6's counter table pairs a documented counter with a
/// `trace.*` kind's metric and is either `mirror` or says why it is not
/// one; at every pinned point, each `mirror` row's counter equals its
/// trace count (a counter the run does not report reads 0). So a counter
/// that drifts from the events it claims to count fails here, by name.
#[test]
fn counter_pairs_agree_at_every_pinned_point() {
    let pairs = counter_pairs();
    let documented = documented_metrics();
    let kinds: BTreeSet<&str> = EventKind::ALL.iter().map(|k| k.metric_name()).collect();
    for (counter, trace, relation) in &pairs {
        assert!(documented.contains(counter), "{counter} is not a §6 row");
        assert!(kinds.contains(trace.as_str()), "{trace} is no event kind's");
        assert!(
            relation == "mirror" || relation.starts_with("not a mirror, because "),
            "{counter} / {trace}: say `mirror` or why not, not {relation:?}"
        );
    }
    let mut points = 0;
    every_scenario(&mut |name, rt, _| {
        points += 1;
        let m = rt.metrics();
        for (counter, trace, _) in pairs.iter().filter(|(_, _, r)| r == "mirror") {
            assert_eq!(
                m.get(counter).unwrap_or(0),
                m.get(trace).expect("one trace.* row a kind"),
                "{name}: {counter} against {trace}"
            );
        }
    });
    assert_eq!(points, 26, "every pinned point was checked");
}
