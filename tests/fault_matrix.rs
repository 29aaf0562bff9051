//! The chaos test matrix: {fault kind} × {platform} × {resilience policy}.
//!
//! Every scenario runs a real workload under a seeded [`FaultPlan`] and
//! checks two invariants from the paper's §3.2 exception model:
//!
//! 1. **Correctness** — whenever the resilient call produces a value (via a
//!    clean pushdown, a retry, or a local fallback), it is bit-identical to
//!    the host-memory oracle; and whenever it surfaces an error, re-running
//!    the function locally still matches the oracle (the application is
//!    "free to run the function locally").
//! 2. **Liveness** — the runtime stays alive through every survivable
//!    fault; only a permanently dead memory pool (a kernel panic) may clear
//!    the liveness flag.
//!
//! The fault seed is taken from `TELEPORT_FAULT_SEED` when set (CI pins
//! it), so a failing cell can be reproduced exactly by exporting the seed
//! the failing run printed.

use ddc_sim::{
    env_seed, ArrivalProcess, DdcConfig, FaultPlan, InjectedFault, MonolithicConfig,
    PlacementPolicy, QosClass, ReplicationMode, SimDuration, SimTime, TraceEvent, FOREVER,
    PAGE_SIZE,
};
use teleport::{
    AdmissionPolicy, ExecutionVia, HedgeOutcome, HedgePolicy, Mem, PlatformKind, PushdownError,
    PushdownOpts, Region, ResiliencePolicy, Runtime, ServeConfig, ServePlane, ServeReport,
    SessionOutcome,
};

const PLATFORMS: [PlatformKind; 3] = [
    PlatformKind::Local,
    PlatformKind::BaseDdc,
    PlatformKind::Teleport,
];

fn make_rt(kind: PlatformKind, ws: usize) -> Runtime {
    make_rt_replicated(kind, ws, ReplicationMode::Off)
}

fn make_rt_replicated(kind: PlatformKind, ws: usize, replication: ReplicationMode) -> Runtime {
    let mut ddc = DdcConfig::with_cache_ratio(ws, 0.02);
    ddc.replication = replication;
    match kind {
        PlatformKind::Local => Runtime::local(MonolithicConfig {
            dram_bytes: ws * 4 + (32 << 20),
            ..Default::default()
        }),
        PlatformKind::BaseDdc => Runtime::base_ddc(ddc),
        PlatformKind::Teleport => Runtime::teleport(ddc),
    }
}

fn prepare(rt: &mut Runtime) {
    if rt.kind() != PlatformKind::Local {
        rt.drop_cache();
    }
    rt.begin_timing();
}

/// What the injected fault does to the pushdown call itself (windowed
/// faults only slow the call down; call-targeted faults abort it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disrupt {
    /// The fault perturbs timing only; the call still completes.
    Benign,
    /// The first call raises `PushdownError::Exception`.
    Exception,
    /// Every call inside the (here: unbounded) window raises an
    /// exception, so retrying is futile — only a local fallback absorbs.
    Persistent,
    /// The first call hangs and is killed (`PushdownError::Killed`).
    Hang,
}

/// One row of the fault dimension: a name, a plan builder, and how the
/// fault interacts with the call.
struct FaultCase {
    name: &'static str,
    disrupt: Disrupt,
    build: fn(u64) -> FaultPlan,
}

/// The fault kinds swept by the matrix — well above the required four, and
/// spanning every subsystem the injector can reach: fabric, SSD, memory
/// pool heartbeat, RPC queue, and the pushed function itself.
fn fault_cases() -> Vec<FaultCase> {
    vec![
        FaultCase {
            name: "fabric-latency-spike",
            disrupt: Disrupt::Benign,
            build: |seed| {
                FaultPlan::new(seed).fabric_latency_spike(
                    SimTime(0),
                    FOREVER,
                    SimDuration::from_micros(2),
                )
            },
        },
        FaultCase {
            name: "fabric-partition",
            disrupt: Disrupt::Benign,
            build: |seed| {
                // Finite window: the fabric heals after 50µs of unreachability.
                FaultPlan::new(seed).fabric_partition(SimTime(0), SimTime(50_000))
            },
        },
        FaultCase {
            name: "ssd-transient-error",
            disrupt: Disrupt::Benign,
            build: |seed| FaultPlan::new(seed).ssd_transient_errors(SimTime(0), FOREVER, 0.5),
        },
        FaultCase {
            name: "ssd-latency-storm",
            disrupt: Disrupt::Benign,
            build: |seed| FaultPlan::new(seed).ssd_latency_storm(SimTime(0), FOREVER, 8),
        },
        FaultCase {
            name: "heartbeat-flap",
            disrupt: Disrupt::Benign,
            build: |seed| {
                // Down for 15ms: two missed beats at the default 10ms
                // interval, then the pool answers again — a transient flap,
                // not a death.
                FaultPlan::new(seed).heartbeat_flap(SimTime(0), SimTime(15_000_000))
            },
        },
        FaultCase {
            name: "queue-backlog-burst",
            disrupt: Disrupt::Benign,
            build: |seed| {
                FaultPlan::new(seed).queue_backlog_burst(
                    SimTime(0),
                    FOREVER,
                    SimDuration::from_millis(2),
                )
            },
        },
        FaultCase {
            name: "pushdown-exception",
            disrupt: Disrupt::Exception,
            build: |seed| FaultPlan::new(seed).pushdown_exception(0),
        },
        FaultCase {
            // The probabilistic cousin at p = 1.0: every in-window call
            // fails, which (with an unbounded window) defeats retries.
            name: "pushdown-exception-prob",
            disrupt: Disrupt::Persistent,
            build: |seed| FaultPlan::new(seed).pushdown_exceptions_prob(SimTime(0), FOREVER, 1.0),
        },
        FaultCase {
            name: "pushdown-hang",
            disrupt: Disrupt::Hang,
            build: |seed| FaultPlan::new(seed).pushdown_hang(0),
        },
        // The fail-slow (gray-failure) kinds: the call always completes,
        // just slower — a brownout is benign to correctness by design.
        // The dedicated hedging/brownout rows below exercise mitigation;
        // these rows pin that bare slowness never corrupts or kills.
        FaultCase {
            name: "degraded-pool",
            disrupt: Disrupt::Benign,
            build: |seed| FaultPlan::new(seed).degraded_pool(0, SimTime(0), FOREVER, 8),
        },
        FaultCase {
            name: "lame-fabric-link",
            disrupt: Disrupt::Benign,
            build: |seed| FaultPlan::new(seed).lame_fabric_link(SimTime(0), FOREVER, 8),
        },
        FaultCase {
            name: "grinding-ssd",
            disrupt: Disrupt::Benign,
            build: |seed| FaultPlan::new(seed).grinding_ssd(SimTime(0), FOREVER, 8),
        },
        // The crash-restart kinds: the shard dies and comes back by journal
        // replay. Without a replica (this sweep runs unreplicated) the call
        // waits out the outage in place and proceeds against the recovered
        // primary — benign to correctness, like every availability fault
        // with a recovery path. The replicated fencing path has its own
        // rows below and in tests/crashpoint_sweep.rs.
        FaultCase {
            name: "pool-crash-restart",
            disrupt: Disrupt::Benign,
            build: |seed| {
                FaultPlan::new(seed).pool_crash_restart(
                    0,
                    SimTime(0),
                    SimDuration::from_micros(100),
                )
            },
        },
        FaultCase {
            name: "torn-journal-write",
            disrupt: Disrupt::Benign,
            build: |seed| {
                // The tear corrupts the un-synced journal tail at crash
                // time; replay discards it and rebuilds from the
                // SSD-authoritative base, so the call still completes.
                FaultPlan::new(seed)
                    .pool_crash_restart(0, SimTime(0), SimDuration::from_micros(100))
                    .torn_journal_write(0, SimTime(0))
            },
        },
    ]
}

/// The policy dimension.
fn policies() -> Vec<(&'static str, ResiliencePolicy)> {
    vec![
        ("none", ResiliencePolicy::none()),
        ("retry", ResiliencePolicy::retry_only()),
        ("fallback", ResiliencePolicy::fallback_only()),
        ("full", ResiliencePolicy::full()),
    ]
}

/// What a (fault, policy) cell must produce. `Ok(via)` carries how the
/// value should have been obtained; `Err` names the expected error.
enum Expected {
    Ok(ExecutionVia),
    Exception,
    Killed,
}

fn expected(disrupt: Disrupt, policy_name: &str) -> Expected {
    match (disrupt, policy_name) {
        (Disrupt::Benign, _) => Expected::Ok(ExecutionVia::Pushdown),
        // A one-shot injected exception: retrying re-issues the call under
        // a fresh call index, so any retry policy absorbs it; a pure
        // fallback policy absorbs it locally; no policy surfaces it.
        (Disrupt::Exception, "none") => Expected::Exception,
        (Disrupt::Exception, "fallback") => Expected::Ok(ExecutionVia::LocalFallback),
        (Disrupt::Exception, _) => Expected::Ok(ExecutionVia::Pushdown),
        // p = 1.0 over an unbounded window: every retry fails too, so
        // only fallback-bearing policies produce a value.
        (Disrupt::Persistent, "none") | (Disrupt::Persistent, "retry") => Expected::Exception,
        (Disrupt::Persistent, _) => Expected::Ok(ExecutionVia::LocalFallback),
        // A killed call is never re-pushed (a function the kernel had to
        // kill once will likely hang again): only fallback-bearing
        // policies absorb it.
        (Disrupt::Hang, "none") | (Disrupt::Hang, "retry") => Expected::Killed,
        (Disrupt::Hang, _) => Expected::Ok(ExecutionVia::LocalFallback),
    }
}

/// Drives one workload through the full matrix. `run` loads the workload,
/// installs the given plan (after its load, so fault windows align with
/// the measured phase), executes its pushdown closure resiliently, and
/// checks the value against the oracle itself — both for the resilient
/// result and for the local re-execution used when an error legitimately
/// surfaces.
fn sweep_matrix<W>(workload_name: &str, mut run: W)
where
    W: FnMut(
        &mut Runtime,
        FaultPlan,
        &ResiliencePolicy,
    ) -> Result<(u32, ExecutionVia), PushdownError>,
{
    let seed = env_seed(0xC0FFEE);
    for kind in PLATFORMS {
        for case in fault_cases() {
            for (policy_name, policy) in policies() {
                let cell = format!(
                    "[{workload_name} / {kind:?} / {} / {policy_name}]",
                    case.name
                );
                let mut rt = make_rt(kind, 8 << 20);
                let outcome = run(&mut rt, (case.build)(seed), &policy);
                match (expected(case.disrupt, policy_name), outcome) {
                    (Expected::Ok(via), Ok((attempts, got_via))) => {
                        assert_eq!(got_via, via, "{cell}: wrong execution path");
                        match case.disrupt {
                            Disrupt::Benign => {
                                assert_eq!(attempts, 0, "{cell}: benign fault consumed retries")
                            }
                            Disrupt::Exception if got_via == ExecutionVia::Pushdown => {
                                assert_eq!(attempts, 1, "{cell}: one retry absorbs the one-shot")
                            }
                            _ => {}
                        }
                    }
                    (Expected::Exception, Err(PushdownError::Exception(_))) => {}
                    (Expected::Killed, Err(PushdownError::Killed { .. })) => {}
                    (_, got) => panic!("{cell}: unexpected outcome {got:?}"),
                }
                assert!(
                    rt.is_alive(),
                    "{cell}: runtime must stay alive through a survivable fault (seed {seed})"
                );
            }
        }
    }
}

/// memdb `Q_filter` under chaos: `SELECT SUM(l_quantity) WHERE l_shipdate
/// < $DATE`, summed in index order so a correct run is bit-identical to
/// the host oracle.
#[test]
fn memdb_q_filter_survives_the_fault_matrix() {
    use memdb::{oracle, Database, QueryParams, TpchData};

    let data = TpchData::generate(0.001, 42);
    let params = QueryParams::default();
    let expected = oracle::q_filter(&data, &params);
    let bound = params.qfilter_date.raw();
    assert!(expected > 0.0, "oracle must be non-trivial");

    sweep_matrix("memdb/q_filter", move |rt, plan, policy| {
        let db = Database::load(rt, &data);
        prepare(rt); // timing restarts here, so fault windows open at the query
        rt.install_fault_plan(plan);
        let shipdate = db.li.shipdate;
        let quantity = db.li.quantity;
        let n = db.li.n;
        let mut q_filter = move |m: &mut teleport::Arm<'_>| {
            let mut dates = Vec::new();
            m.read_range(&shipdate, 0, n, &mut dates);
            let mut quants = Vec::new();
            m.read_range(&quantity, 0, n, &mut quants);
            let mut sum = 0.0f64;
            for i in 0..n {
                if dates[i] < bound {
                    sum += quants[i];
                }
            }
            m.charge_cycles(2 * n as u64);
            sum
        };
        match rt.pushdown_resilient(PushdownOpts::new(), policy, &mut q_filter) {
            Ok(out) => {
                assert_eq!(
                    out.value.to_bits(),
                    expected.to_bits(),
                    "resilient Q_filter must match the oracle bit-for-bit"
                );
                Ok((out.attempts, out.via))
            }
            Err(e) => {
                // The §3.2 contract: the application is free to run the
                // function locally after a surfaced error.
                let local = rt.run_local(q_filter);
                assert_eq!(local.to_bits(), expected.to_bits(), "local re-run oracle");
                Err(e)
            }
        }
    });
}

/// graphproc connected components under chaos: min-label propagation over
/// a CSR graph held in (remote) memory, checked against the union-find
/// oracle.
#[test]
fn graph_cc_survives_the_fault_matrix() {
    use graphproc::algos::cc;
    use graphproc::social_graph;

    let g = social_graph(300, 3, 9);
    let expected = cc::oracle(&g);
    let n = g.n();

    sweep_matrix("graph/cc", move |rt, plan, policy| {
        let offsets: Region<u32> = rt.alloc_region(g.offsets.len());
        rt.write_range(&offsets, 0, &g.offsets);
        let edges: Region<u32> = rt.alloc_region(g.edges.len().max(1));
        rt.write_range(&edges, 0, &g.edges);
        prepare(rt);
        rt.install_fault_plan(plan);
        let mut cc_prog = move |m: &mut teleport::Arm<'_>| {
            let mut off = Vec::new();
            m.read_range(&offsets, 0, n + 1, &mut off);
            let mut adj = Vec::new();
            m.read_range(&edges, 0, off[n] as usize, &mut adj);
            let mut label: Vec<f64> = (0..n).map(|v| v as f64).collect();
            loop {
                let mut changed = false;
                for v in 0..n {
                    for &u in &adj[off[v] as usize..off[v + 1] as usize] {
                        if label[u as usize] < label[v] {
                            label[v] = label[u as usize];
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
                m.charge_cycles(adj.len() as u64);
            }
            label
        };
        match rt.pushdown_resilient(PushdownOpts::new(), policy, &mut cc_prog) {
            Ok(out) => {
                assert_eq!(out.value, expected, "resilient CC must match the oracle");
                Ok((out.attempts, out.via))
            }
            Err(e) => {
                assert_eq!(rt.run_local(cc_prog), expected, "local re-run oracle");
                Err(e)
            }
        }
    });
}

/// The one non-survivable fault: a permanently dead memory pool is a
/// kernel panic on every policy — never retried, never absorbed — and it
/// clears the liveness flag.
#[test]
fn permanent_pool_death_defeats_every_policy() {
    for (policy_name, policy) in policies() {
        let mut rt = make_rt(PlatformKind::Teleport, 1 << 20);
        let cell = rt.alloc_region::<u64>(1);
        rt.set(&cell, 0, 7, ddc_os::Pattern::Rand);
        prepare(&mut rt);
        rt.install_fault_plan(FaultPlan::new(env_seed(0xC0FFEE)).memory_pool_death(SimTime(0)));
        let r = rt.pushdown_resilient(PushdownOpts::new(), &policy, |m| {
            m.get(&cell, 0, ddc_os::Pattern::Rand)
        });
        assert_eq!(
            r.unwrap_err(),
            PushdownError::KernelPanic,
            "[{policy_name}] kernel panic must surface through any policy"
        );
        assert!(!rt.is_alive(), "[{policy_name}] pool death clears liveness");
        assert_eq!(
            rt.metrics().get("resilience.retries"),
            Some(0),
            "[{policy_name}] no retries"
        );
        assert_eq!(
            rt.metrics().get("resilience.fallbacks"),
            Some(0),
            "[{policy_name}] no fallback"
        );
    }
}

/// Pool death × {replica on/off} × {platform} × {retry/fallback}: with a
/// replica configured, the previously fatal permanent pool death becomes a
/// survivable [`PushdownError::PoolFailedOver`] on Teleport — retried
/// against the promoted backup or absorbed locally — and the recovered
/// value still matches the host oracle bit-for-bit. Without a replica the
/// kernel panic of `permanent_pool_death_defeats_every_policy` stands.
/// Local/BaseDdc have no heartbeat-driven pushdown path, so pool-death
/// specs are benign there regardless of replication.
#[test]
fn pool_death_with_replica_is_survivable_across_the_matrix() {
    use memdb::{oracle, Database, QueryParams, TpchData};

    let data = TpchData::generate(0.001, 42);
    let params = QueryParams::default();
    let expected = oracle::q_filter(&data, &params);
    let bound = params.qfilter_date.raw();
    let seed = env_seed(0xC0FFEE);

    let policies = [
        ("retry", ResiliencePolicy::retry_only()),
        ("fallback", ResiliencePolicy::fallback_only()),
    ];
    for kind in PLATFORMS {
        for replicated in [false, true] {
            for (policy_name, policy) in &policies {
                let cell =
                    format!("[pool-death / {kind:?} / replica={replicated} / {policy_name}]");
                let mode = if replicated {
                    ReplicationMode::Synchronous
                } else {
                    ReplicationMode::Off
                };
                let mut rt = make_rt_replicated(kind, 8 << 20, mode);
                let db = Database::load(&mut rt, &data);
                prepare(&mut rt);
                rt.install_fault_plan(FaultPlan::new(seed).memory_pool_death(SimTime(0)));
                let shipdate = db.li.shipdate;
                let quantity = db.li.quantity;
                let n = db.li.n;
                let q_filter = move |m: &mut teleport::Arm<'_>| {
                    let mut dates = Vec::new();
                    m.read_range(&shipdate, 0, n, &mut dates);
                    let mut quants = Vec::new();
                    m.read_range(&quantity, 0, n, &mut quants);
                    let mut sum = 0.0f64;
                    for i in 0..n {
                        if dates[i] < bound {
                            sum += quants[i];
                        }
                    }
                    m.charge_cycles(2 * n as u64);
                    sum
                };
                let r = rt.pushdown_resilient(PushdownOpts::new(), policy, q_filter);
                match (kind, replicated) {
                    // No heartbeat path: the death spec never fires.
                    (PlatformKind::Local, _) | (PlatformKind::BaseDdc, _) => {
                        let out = r.expect("pool death cannot reach a non-Teleport platform");
                        assert_eq!(out.via, ExecutionVia::Pushdown, "{cell}");
                        assert_eq!(out.value.to_bits(), expected.to_bits(), "{cell}: oracle");
                        assert!(rt.is_alive(), "{cell}");
                        assert_eq!(rt.failovers(), 0, "{cell}: nothing to fail over");
                    }
                    (PlatformKind::Teleport, false) => {
                        assert_eq!(r.unwrap_err(), PushdownError::KernelPanic, "{cell}");
                        assert!(!rt.is_alive(), "{cell}: no replica, pool death is fatal");
                        assert_eq!(rt.failovers(), 0, "{cell}");
                    }
                    (PlatformKind::Teleport, true) => {
                        let out = r.expect("a replica makes pool death survivable");
                        let want_via = match *policy_name {
                            "retry" => ExecutionVia::Pushdown,
                            _ => ExecutionVia::LocalFallback,
                        };
                        assert_eq!(out.via, want_via, "{cell}: recovery path");
                        assert_eq!(
                            out.value.to_bits(),
                            expected.to_bits(),
                            "{cell}: post-failover result must match the oracle"
                        );
                        assert!(rt.is_alive(), "{cell}: failover keeps the runtime alive");
                        assert_eq!(rt.failovers(), 1, "{cell}: exactly one promotion");
                        assert_eq!(rt.failover_epochs(), &[1], "{cell}: epoch 0 died");
                    }
                }
            }
        }
    }
}

/// Per-shard pool death on a 4-pool rack: {pool 0 dies, pool N-1 dies} ×
/// {replica on/off} × {retry/fallback}. The death spec targets one shard
/// only. Without a replica any shard death is still a kernel panic; with
/// per-shard replicas the targeted shard fails over alone — its epoch
/// bumps, every other shard stays at epoch 0 — the recovered value matches
/// the oracle, and the surviving rack keeps serving (the next pushdown
/// runs clean, with no further failovers).
#[test]
fn per_pool_death_on_a_multi_pool_rack_fails_over_one_shard() {
    use ddc_sim::{PlacementPolicy, PAGE_SIZE};

    let pools = 4usize;
    let pages = 8usize;
    let elems = PAGE_SIZE / 8;
    let seed = env_seed(0xC0FFEE);
    let expected: u64 = (1..=pages as u64).sum();

    for dead in [0usize, pools - 1] {
        for replicated in [false, true] {
            for (policy_name, policy, want_via) in [
                (
                    "retry",
                    ResiliencePolicy::retry_only(),
                    ExecutionVia::Pushdown,
                ),
                (
                    "fallback",
                    ResiliencePolicy::fallback_only(),
                    ExecutionVia::LocalFallback,
                ),
            ] {
                let cell = format!("[pool{dead}-death / replica={replicated} / {policy_name}]");
                let mut ddc = DdcConfig::with_cache_ratio(pages * PAGE_SIZE, 0.25);
                ddc.pools = pools;
                ddc.placement = PlacementPolicy::LoadBalance;
                ddc.replication = if replicated {
                    ReplicationMode::Synchronous
                } else {
                    ReplicationMode::Off
                };
                let mut rt = Runtime::teleport(ddc);
                let region = rt.alloc_region::<u64>(pages * elems);
                for p in 0..pages {
                    rt.set(&region, p * elems, p as u64 + 1, ddc_os::Pattern::Rand);
                }
                prepare(&mut rt);
                rt.install_fault_plan(FaultPlan::new(seed).pool_death(dead, SimTime(0)));
                let n = region.len();
                let sum_fn = move |m: &mut teleport::Arm<'_>| {
                    let mut buf = Vec::new();
                    m.read_range(&region, 0, n, &mut buf);
                    buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
                };

                let r = rt.pushdown_resilient(PushdownOpts::new(), &policy, sum_fn);
                if !replicated {
                    assert_eq!(
                        r.unwrap_err(),
                        PushdownError::KernelPanic,
                        "{cell}: a bare shard death is fatal"
                    );
                    assert!(!rt.is_alive(), "{cell}: shard death clears liveness");
                    assert_eq!(rt.failovers(), 0, "{cell}: nothing promotable");
                    continue;
                }
                let out = r.unwrap_or_else(|e| {
                    panic!("{cell}: a replicated shard death is survivable, got {e}")
                });
                assert_eq!(out.via, want_via, "{cell}: recovery path");
                assert_eq!(out.value, expected, "{cell}: post-failover oracle");
                assert!(rt.is_alive(), "{cell}");
                assert_eq!(rt.failovers(), 1, "{cell}: exactly one promotion");
                assert_eq!(rt.failover_epochs(), &[1], "{cell}: epoch 0 died");
                for p in 0..pools {
                    let want = u64::from(p == dead);
                    assert_eq!(
                        rt.dos().pool_epoch_for(p),
                        want,
                        "{cell}: only the dead shard may change epoch (shard {p})"
                    );
                }
                assert_eq!(
                    rt.metrics().get(&format!("failover.pool{dead}.epoch")),
                    Some(1),
                    "{cell}: per-shard failover metric"
                );

                // The surviving rack keeps serving: a clean pushdown, no
                // further promotions.
                let again = rt
                    .pushdown(PushdownOpts::new(), sum_fn)
                    .unwrap_or_else(|e| panic!("{cell}: post-failover pushdown failed: {e}"));
                assert_eq!(again, expected, "{cell}: steady state after failover");
                assert_eq!(rt.failovers(), 1, "{cell}: no repeat failover");
            }
        }
    }
}

/// The graphproc cousin of the replica matrix: connected components under
/// permanent pool death with a synchronous replica, on both recovery
/// paths, against the union-find oracle.
#[test]
fn graph_cc_survives_pool_death_with_a_replica() {
    use graphproc::algos::cc;
    use graphproc::social_graph;

    let g = social_graph(300, 3, 9);
    let expected = cc::oracle(&g);
    let n = g.n();

    for (policy_name, policy, want_via) in [
        (
            "retry",
            ResiliencePolicy::retry_only(),
            ExecutionVia::Pushdown,
        ),
        (
            "fallback",
            ResiliencePolicy::fallback_only(),
            ExecutionVia::LocalFallback,
        ),
    ] {
        let mut rt = make_rt_replicated(
            PlatformKind::Teleport,
            8 << 20,
            ReplicationMode::Synchronous,
        );
        let offsets: Region<u32> = rt.alloc_region(g.offsets.len());
        rt.write_range(&offsets, 0, &g.offsets);
        let edges: Region<u32> = rt.alloc_region(g.edges.len().max(1));
        rt.write_range(&edges, 0, &g.edges);
        prepare(&mut rt);
        rt.install_fault_plan(FaultPlan::new(env_seed(0xC0FFEE)).memory_pool_death(SimTime(0)));
        let cc_prog = move |m: &mut teleport::Arm<'_>| {
            let mut off = Vec::new();
            m.read_range(&offsets, 0, n + 1, &mut off);
            let mut adj = Vec::new();
            m.read_range(&edges, 0, off[n] as usize, &mut adj);
            let mut label: Vec<f64> = (0..n).map(|v| v as f64).collect();
            loop {
                let mut changed = false;
                for v in 0..n {
                    for &u in &adj[off[v] as usize..off[v + 1] as usize] {
                        if label[u as usize] < label[v] {
                            label[v] = label[u as usize];
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
                m.charge_cycles(adj.len() as u64);
            }
            label
        };
        let out = rt
            .pushdown_resilient(PushdownOpts::new(), &policy, cc_prog)
            .unwrap_or_else(|e| panic!("[{policy_name}] replica absorbs pool death: {e}"));
        assert_eq!(out.via, want_via, "[{policy_name}]");
        assert_eq!(
            out.value, expected,
            "[{policy_name}]: oracle after failover"
        );
        assert!(rt.is_alive(), "[{policy_name}]");
        assert_eq!(rt.failovers(), 1, "[{policy_name}]");
    }
}

/// One corruption row: which corruption point the plan exercises, which
/// platform drives detection (fabric flips fire on compute-side fetches,
/// so they run on BaseDdc where a pushdown's reads cross the fabric;
/// scribbles and latent sectors surface on Teleport's memory-side reads),
/// and whether a hit page is repairable without a replica (latent sectors
/// strike spilled pages, whose clean storage copy is re-readable).
struct CorruptionCase {
    name: &'static str,
    kind: PlatformKind,
    /// Squeeze the memory pool far below the working set so pages spill
    /// to storage, where latent-sector rot can reach them.
    tight_pool: bool,
    ssd_repairable: bool,
    build: fn(u64) -> FaultPlan,
}

fn corruption_cases() -> Vec<CorruptionCase> {
    vec![
        CorruptionCase {
            name: "fabric-bit-flip",
            kind: PlatformKind::BaseDdc,
            tight_pool: false,
            ssd_repairable: false,
            build: |seed| FaultPlan::new(seed).fabric_bit_flips(SimTime(0), FOREVER, 1.0),
        },
        CorruptionCase {
            name: "ssd-latent-sector",
            kind: PlatformKind::Teleport,
            tight_pool: true,
            ssd_repairable: true,
            build: |seed| FaultPlan::new(seed).ssd_latent_sectors(SimTime(0), FOREVER, 1.0),
        },
        CorruptionCase {
            name: "pool-scribble",
            kind: PlatformKind::Teleport,
            tight_pool: false,
            ssd_repairable: false,
            build: |seed| FaultPlan::new(seed).pool_scribbles(SimTime(0), FOREVER, 1.0),
        },
    ]
}

fn make_corruption_rt(
    kind: PlatformKind,
    ws: usize,
    mode: ReplicationMode,
    tight_pool: bool,
) -> Runtime {
    let mut ddc = DdcConfig::with_cache_ratio(ws, 0.02);
    ddc.replication = mode;
    if tight_pool {
        // 16 pages of pool: far below every workload's footprint, so the
        // pool's LRU keeps spilling to storage during the query. The
        // compute cache must stay below the pool, since cached pages pin
        // their pool slots.
        ddc.memory_pool_bytes = 16 * ddc_sim::PAGE_SIZE;
        ddc.compute_cache_bytes = 8 * ddc_sim::PAGE_SIZE;
    }
    match kind {
        PlatformKind::Local => unreachable!("corruption rows target disaggregated platforms"),
        PlatformKind::BaseDdc => Runtime::base_ddc(ddc),
        PlatformKind::Teleport => Runtime::teleport(ddc),
    }
}

/// Drives one workload through {corruption kind} × {replica on/off}. `run`
/// loads the workload, installs the plan *before* `prepare` (so the
/// drop-cache flush is already exposed to scribbles), executes one plain
/// pushdown, and asserts oracle equality itself whenever a value comes
/// back. The driver owns the ledger checks: every detection is either a
/// repair or a typed loss, repairable rows repair transparently, and a
/// dirty-page hit without a surviving copy surfaces as `DataLoss` — never
/// a wrong answer.
fn sweep_corruption<W>(workload_name: &str, mut run: W)
where
    W: FnMut(&mut Runtime, FaultPlan) -> Result<(), PushdownError>,
{
    let seed = env_seed(0xBAD5EED);
    for case in corruption_cases() {
        for replicated in [false, true] {
            let cell = format!("[{workload_name} / {} / replica={replicated}]", case.name);
            let mode = if replicated {
                ReplicationMode::Synchronous
            } else {
                ReplicationMode::Off
            };
            let mut rt = make_corruption_rt(case.kind, 8 << 20, mode, case.tight_pool);
            let outcome = run(&mut rt, (case.build)(seed));
            let m = rt.metrics();
            let detected = m.get("integrity.detected").unwrap_or(0);
            let repaired = m.get("integrity.repaired").unwrap_or(0);
            let lost = m.get("integrity.data_loss").unwrap_or(0);
            assert!(detected > 0, "{cell}: a p=1.0 plan must corrupt something");
            assert_eq!(
                detected,
                repaired + lost,
                "{cell}: every detection must resolve to a repair or a typed loss"
            );
            if replicated || case.ssd_repairable {
                if let Err(e) = outcome {
                    panic!("{cell}: corruption must repair transparently, got {e}");
                }
                assert!(repaired > 0, "{cell}: repairs must be counted");
                assert_eq!(lost, 0, "{cell}: nothing may be lost");
            } else {
                match outcome {
                    Err(PushdownError::DataLoss { .. }) => {}
                    other => panic!("{cell}: expected typed DataLoss, got {other:?}"),
                }
                assert!(lost > 0, "{cell}: the loss must be counted");
            }
            assert!(rt.is_alive(), "{cell}: corruption never kills the runtime");
        }
    }
}

/// memdb `Q_filter` under seeded corruption: with a surviving copy
/// (replica, or a clean storage image) the result is bit-identical to the
/// oracle; a dirty-page hit without one surfaces as typed `DataLoss`.
#[test]
fn corruption_matrix_memdb_repairs_or_surfaces_loss() {
    use memdb::{oracle, Database, QueryParams, TpchData};

    let data = TpchData::generate(0.001, 42);
    let params = QueryParams::default();
    let expected = oracle::q_filter(&data, &params);
    let bound = params.qfilter_date.raw();

    sweep_corruption("memdb/q_filter", move |rt, plan| {
        let db = Database::load(rt, &data);
        let shipdate = db.li.shipdate;
        let quantity = db.li.quantity;
        let n = db.li.n;
        // Re-dirty the two query columns so the drop-cache flush — the
        // window the scribble plan is aimed at — covers exactly the pages
        // the query will read back.
        let mut dates = Vec::new();
        rt.read_range(&shipdate, 0, n, &mut dates);
        rt.write_range(&shipdate, 0, &dates);
        let mut quants = Vec::new();
        rt.read_range(&quantity, 0, n, &mut quants);
        rt.write_range(&quantity, 0, &quants);
        rt.install_fault_plan(plan); // before drop_cache: the flush is exposed
        prepare(rt);
        let sum = rt.pushdown(PushdownOpts::new(), move |m| {
            let mut dates = Vec::new();
            m.read_range(&shipdate, 0, n, &mut dates);
            let mut quants = Vec::new();
            m.read_range(&quantity, 0, n, &mut quants);
            let mut sum = 0.0f64;
            for i in 0..n {
                if dates[i] < bound {
                    sum += quants[i];
                }
            }
            m.charge_cycles(2 * n as u64);
            sum
        })?;
        assert_eq!(
            sum.to_bits(),
            expected.to_bits(),
            "repaired Q_filter must match the oracle bit-for-bit"
        );
        Ok(())
    });
}

/// graphproc connected components under the same corruption sweep.
#[test]
fn corruption_matrix_graph_cc_repairs_or_surfaces_loss() {
    use graphproc::algos::cc;
    use graphproc::social_graph;

    // Large enough that the 16-page pool of the latent-sector row spills.
    let g = social_graph(3000, 8, 9);
    let expected = cc::oracle(&g);
    let n = g.n();

    sweep_corruption("graph/cc", move |rt, plan| {
        let offsets: Region<u32> = rt.alloc_region(g.offsets.len());
        rt.write_range(&offsets, 0, &g.offsets);
        let edges: Region<u32> = rt.alloc_region(g.edges.len().max(1));
        rt.write_range(&edges, 0, &g.edges);
        rt.install_fault_plan(plan);
        prepare(rt);
        let labels = rt.pushdown(PushdownOpts::new(), move |m| {
            let mut off = Vec::new();
            m.read_range(&offsets, 0, n + 1, &mut off);
            let mut adj = Vec::new();
            m.read_range(&edges, 0, off[n] as usize, &mut adj);
            let mut label: Vec<f64> = (0..n).map(|v| v as f64).collect();
            loop {
                let mut changed = false;
                for v in 0..n {
                    for &u in &adj[off[v] as usize..off[v + 1] as usize] {
                        if label[u as usize] < label[v] {
                            label[v] = label[u as usize];
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
                m.charge_cycles(adj.len() as u64);
            }
            label
        })?;
        assert_eq!(labels, expected, "repaired CC must match the oracle");
        Ok(())
    });
}

/// Timed scenario riding the matrix: a queue backlog plus a timeout makes
/// the compute side cancel while still queued; fallback absorbs the
/// cancellation and the oracle still holds.
#[test]
fn backlog_timeout_cancellation_is_absorbed_by_fallback() {
    let mut rt = make_rt(PlatformKind::Teleport, 1 << 20);
    let col = rt.alloc_region::<u64>(512);
    let vals: Vec<u64> = (0..512u64).collect();
    rt.write_range(&col, 0, &vals);
    prepare(&mut rt);
    rt.install_fault_plan(FaultPlan::new(env_seed(0xC0FFEE)).queue_backlog_burst(
        SimTime(0),
        FOREVER,
        SimDuration::from_millis(50),
    ));
    let opts = PushdownOpts::new().timeout(SimDuration::from_micros(100));
    let out = rt
        .pushdown_resilient(opts, &ResiliencePolicy::fallback_only(), |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, col.len(), &mut buf);
            buf.iter().sum::<u64>()
        })
        .expect("fallback absorbs the cancelled-before-start error");
    assert_eq!(out.via, ExecutionVia::LocalFallback);
    assert_eq!(out.value, (0..512u64).sum::<u64>());
    assert!(rt.is_alive());
    assert_eq!(rt.metrics().get("resilience.fallbacks"), Some(1));
}

// ---------------------------------------------------------------------------
// Chaos under load: faults injected into a live multi-tenant serving run.
// ---------------------------------------------------------------------------

/// Everything one chaos-under-load row needs to judge: the serving report,
/// the relevant fault-plane ledgers, the per-tenant key schedules for
/// oracle checks, and whether the rack survived.
struct ChaosServeOutcome {
    rep: ServeReport,
    keys: Vec<Vec<u64>>,
    promotions: u64,
    detected: u64,
    repaired: u64,
    lost: u64,
    crashes: u64,
    restarts: u64,
    resilvered_pages: u64,
    fenced_writes: u64,
    alive: bool,
}

const CHAOS_TENANTS: usize = 4;
const CHAOS_SESSIONS: usize = 10;

/// Drive a 4-tenant KV serving run on a 2-pool Teleport rack while `plan`
/// fires mid-serve. Admission is generous (the rows test chaos, not
/// shedding), every tenant retries, and the plane always drains — the
/// assertions about *what* drained belong to each row.
fn serve_kv_under_chaos(
    data: &kvapp::KvData,
    replicated: bool,
    install_before_flush: bool,
    plan: FaultPlan,
) -> ChaosServeOutcome {
    let mut cfg = DdcConfig::with_cache_ratio(data.working_set_bytes(), 0.05);
    cfg.pools = 2;
    cfg.placement = PlacementPolicy::LoadBalance;
    cfg.replication = if replicated {
        ReplicationMode::Synchronous
    } else {
        ReplicationMode::Off
    };
    cfg.validate().expect("chaos serve config validates");
    let mut rt = Runtime::teleport(cfg);
    let store = kvapp::KvStore::load(&mut rt, data);
    // Corruption plans must already be armed when drop_cache flushes the
    // freshly written (dirty) store pages; availability plans arm after the
    // clock starts so their windows land mid-serve.
    if install_before_flush {
        rt.install_fault_plan(plan.clone());
    }
    prepare(&mut rt);
    if !install_before_flush {
        rt.install_fault_plan(plan);
    }

    let mut plane = ServePlane::new(ServeConfig {
        seed: env_seed(0xC4A05),
        admission: AdmissionPolicy {
            max_queue_depth: 64,
            max_backlog: SimDuration::from_millis(10),
        },
        contexts: None,
    });
    let retry = ResiliencePolicy::retry_only();
    let classes = [
        QosClass::Guaranteed,
        QosClass::Guaranteed,
        QosClass::Burstable,
        QosClass::BestEffort,
    ];
    let mut keys = Vec::new();
    for (t, &class) in classes.iter().enumerate().take(CHAOS_TENANTS) {
        let ks = kvapp::keys(77 + t as u64, CHAOS_SESSIONS, data.len());
        keys.push(ks.clone());
        plane.tenant(
            format!("kv{t}"),
            class,
            ArrivalProcess::poisson(SimDuration::from_micros(60)),
            CHAOS_SESSIONS,
            move |rt, s| {
                let key = ks[s as usize];
                let vals = store.vals;
                rt.pushdown_resilient(PushdownOpts::new(), &retry, |m| {
                    m.charge_cycles(64);
                    let mut buf = Vec::new();
                    m.read_range(&vals, key as usize, 1, &mut buf);
                    buf[0]
                })
                .map(|out| out.value)
            },
        );
    }
    let rep = plane.run(&mut rt);
    let m = rt.metrics();
    ChaosServeOutcome {
        rep,
        keys,
        promotions: m.get("failover.promotions").unwrap_or(0),
        detected: m.get("integrity.detected").unwrap_or(0),
        repaired: m.get("integrity.repaired").unwrap_or(0),
        lost: m.get("integrity.data_loss").unwrap_or(0),
        crashes: m.get("recovery.crashes").unwrap_or(0),
        restarts: m.get("recovery.restarts").unwrap_or(0),
        resilvered_pages: m.get("recovery.resilvered_pages").unwrap_or(0),
        fenced_writes: m.get("recovery.fenced_writes").unwrap_or(0),
        alive: rt.is_alive(),
    }
}

/// The invariants every chaos-under-load row shares: the shed ledger
/// balances, every tenant drains, and no completed session ever returns a
/// wrong answer — chaos may slow, shed, or fail sessions, never corrupt
/// their results.
fn assert_chaos_baseline(cell: &str, data: &kvapp::KvData, out: &ChaosServeOutcome) {
    assert!(
        out.rep.ledger_balances(),
        "{cell}: shed ledger out of balance"
    );
    assert_eq!(
        out.rep.arrived(),
        (CHAOS_TENANTS * CHAOS_SESSIONS) as u64,
        "{cell}: open-loop arrivals are unconditional"
    );
    for (t, trep) in out.rep.tenants.iter().enumerate() {
        assert_eq!(
            trep.in_flight(),
            0,
            "{cell}: tenant {} did not drain",
            trep.name
        );
        for (s, outcome) in trep.outcomes.iter().enumerate() {
            if let SessionOutcome::Completed { value, .. } = outcome {
                assert_eq!(
                    *value,
                    kvapp::oracle::get(data, out.keys[t][s]),
                    "{cell}: tenant {t} session {s} completed with a wrong answer"
                );
            }
        }
    }
}

/// Pool death mid-serve: with a synchronous replica the shard fails over
/// and every session rides it out; without one the dead shard's sessions
/// surface typed errors while the ledger still accounts for every arrival.
#[test]
fn chaos_under_load_pool_death() {
    let data = kvapp::KvData::generate(16 * 1024, 5);
    let seed = env_seed(0xDEAD100D);
    for replicated in [true, false] {
        let cell = format!("[serve/pool-death replica={replicated}]");
        let plan = FaultPlan::new(seed).pool_death(1, SimTime(150_000));
        let out = serve_kv_under_chaos(&data, replicated, false, plan);
        assert_chaos_baseline(&cell, &data, &out);
        if replicated {
            assert!(
                out.promotions >= 1,
                "{cell}: death must promote the replica"
            );
            assert_eq!(
                out.rep.failed(),
                0,
                "{cell}: retries must absorb the failover"
            );
            assert_eq!(
                out.rep.completed(),
                out.rep.arrived() - out.rep.shed(),
                "{cell}: every admitted session must complete"
            );
            assert!(out.alive, "{cell}: a failed-over rack is alive");
        } else {
            assert_eq!(
                out.promotions, 0,
                "{cell}: nothing to promote without a replica"
            );
            assert!(
                out.rep.failed() > 0,
                "{cell}: sessions on the dead shard must surface errors"
            );
            assert!(!out.alive, "{cell}: an unreplicated pool death is fatal");
        }
    }
}

/// A finite fabric partition mid-serve: unreachability heals after 50µs,
/// so every session completes on both replica settings — the partition
/// costs latency, never answers.
#[test]
fn chaos_under_load_fabric_partition_heals() {
    let data = kvapp::KvData::generate(16 * 1024, 5);
    let seed = env_seed(0x9A127170);
    for replicated in [true, false] {
        let cell = format!("[serve/fabric-partition replica={replicated}]");
        let plan = FaultPlan::new(seed).fabric_partition(SimTime(100_000), SimTime(150_000));
        let out = serve_kv_under_chaos(&data, replicated, false, plan);
        assert_chaos_baseline(&cell, &data, &out);
        assert_eq!(
            out.rep.failed(),
            0,
            "{cell}: a healed partition fails nothing"
        );
        assert_eq!(
            out.rep.completed(),
            out.rep.arrived() - out.rep.shed(),
            "{cell}: every admitted session completes once the fabric heals"
        );
        assert!(out.alive, "{cell}: partitions never kill the rack");
    }
}

/// Memory-pool scribbling armed while the store's dirty pages flush, then
/// detected by mid-serve reads: with a replica every hit repairs
/// transparently; without one the hits surface as typed failures — and in
/// both cases the integrity ledger balances and no wrong answer escapes.
#[test]
fn chaos_under_load_corruption() {
    let data = kvapp::KvData::generate(16 * 1024, 5);
    let seed = env_seed(0xBAD5C81B);
    for replicated in [true, false] {
        let cell = format!("[serve/pool-scribble replica={replicated}]");
        let plan = FaultPlan::new(seed).pool_scribbles(SimTime(0), FOREVER, 1.0);
        let out = serve_kv_under_chaos(&data, replicated, true, plan);
        assert_chaos_baseline(&cell, &data, &out);
        assert!(
            out.detected > 0,
            "{cell}: a p=1.0 scribble must be detected"
        );
        assert_eq!(
            out.detected,
            out.repaired + out.lost,
            "{cell}: every detection resolves to a repair or a typed loss"
        );
        assert!(out.alive, "{cell}: corruption never kills the rack");
        if replicated {
            assert_eq!(out.lost, 0, "{cell}: the replica repairs every hit");
            assert_eq!(
                out.rep.failed(),
                0,
                "{cell}: repairs are transparent to sessions"
            );
        } else {
            assert!(out.lost > 0, "{cell}: unreplicated scribbles lose data");
            assert!(
                out.rep.failed() > 0,
                "{cell}: lost pages surface as typed session failures"
            );
        }
    }
}

/// The crash-restart acceptance row: a replicated shard crashes mid-serve,
/// the backup is promoted on the spot (the racing call is fenced and
/// retried), and the dead hardware later rejoins as a re-silvered standby —
/// all while the serve plane stays live. Zero `DataLoss`, no guaranteed-
/// class shedding, every admitted session completes, and the recovery
/// ledger shows exactly one crash, one restart, and a fenced zombie.
#[test]
fn chaos_under_load_pool_crash_restart_rejoins() {
    let data = kvapp::KvData::generate(16 * 1024, 5);
    let seed = env_seed(0xC4A54);
    let cell = "[serve/pool-crash-restart replica=true]";
    let plan =
        FaultPlan::new(seed).pool_crash_restart(1, SimTime(150_000), SimDuration::from_micros(200));
    let out = serve_kv_under_chaos(&data, true, false, plan);
    assert_chaos_baseline(cell, &data, &out);
    assert!(out.alive, "{cell}: the rack survives a crash-restart");
    assert_eq!(out.lost, 0, "{cell}: zero DataLoss across crash and rejoin");
    assert!(
        out.promotions >= 1,
        "{cell}: the crash must promote the replica"
    );
    assert_eq!(out.crashes, 1, "{cell}: exactly one crash");
    assert_eq!(
        out.restarts, 1,
        "{cell}: the dead hardware must rejoin mid-serve"
    );
    assert_eq!(
        out.fenced_writes, 1,
        "{cell}: the zombie's stale epoch is fenced exactly once"
    );
    assert!(
        out.resilvered_pages > 0,
        "{cell}: the rejoining standby must be re-silvered"
    );
    assert_eq!(
        out.rep.failed(),
        0,
        "{cell}: retries absorb the fenced call"
    );
    assert_eq!(
        out.rep.completed(),
        out.rep.arrived() - out.rep.shed(),
        "{cell}: every admitted session completes"
    );
    for trep in &out.rep.tenants {
        if trep.class != QosClass::BestEffort {
            assert_eq!(
                trep.shed, 0,
                "{cell}: only best-effort may shed during recovery ({})",
                trep.name
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Gray failures: fail-slow faults, hedged mitigation, and the brownout row.
// ---------------------------------------------------------------------------

/// Fail-slow kinds × {replica on/off} × {hedge on/off} on Teleport. A
/// brownout never corrupts (the value always matches the oracle), never
/// kills (no failover, liveness holds), and the hedge ledger stays sane:
/// at most one hedge per call, none when hedging is off, and a pool
/// degraded 50× reliably trips the hedge — whose modeled race then beats
/// the grinding primary.
#[test]
fn fail_slow_matrix_hedging_and_replicas() {
    use ddc_sim::PAGE_SIZE;

    type PlanFor = fn(u64) -> FaultPlan;
    let seed = env_seed(0xFA115707);
    let kinds: [(&str, PlanFor); 3] = [
        ("degraded-pool", |s| {
            FaultPlan::new(s).degraded_pool(0, SimTime(0), FOREVER, 50)
        }),
        ("lame-fabric-link", |s| {
            FaultPlan::new(s).lame_fabric_link(SimTime(0), FOREVER, 8)
        }),
        ("grinding-ssd", |s| {
            FaultPlan::new(s).grinding_ssd(SimTime(0), FOREVER, 8)
        }),
    ];
    let elems = 4 * PAGE_SIZE / 8; // a 4-page scan target
    for (name, build) in kinds {
        for replicated in [false, true] {
            for hedge in [false, true] {
                let cell = format!("[fail-slow/{name} replica={replicated} hedge={hedge}]");
                let mode = if replicated {
                    ReplicationMode::Synchronous
                } else {
                    ReplicationMode::Off
                };
                let mut rt = make_rt_replicated(PlatformKind::Teleport, 1 << 20, mode);
                let region = rt.alloc_region::<u64>(elems);
                let vals: Vec<u64> = (0..elems as u64).collect();
                rt.write_range(&region, 0, &vals);
                let expected: u64 = vals.iter().sum();
                prepare(&mut rt);
                rt.install_fault_plan(build(seed));
                let scan = |m: &mut teleport::Arm<'_>| {
                    let mut buf = Vec::new();
                    // Heavy enough that memory-side service dominates the
                    // fixed pushdown overhead, so a slow pool can't hide.
                    for _ in 0..32 {
                        buf.clear();
                        m.read_range(&region, 0, elems, &mut buf);
                    }
                    buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
                };
                let policy = HedgePolicy {
                    delay: SimDuration::from_micros(100),
                    jitter: SimDuration::ZERO,
                };
                let value = if hedge {
                    let h = rt
                        .pushdown_hedged(PushdownOpts::new(), &policy, scan)
                        .unwrap_or_else(|e| panic!("{cell}: brownout broke the call: {e}"));
                    if name == "degraded-pool" {
                        // 50× slower service is far past the 100µs delay,
                        // and the local clone wins the modeled race.
                        assert_eq!(h.outcome, HedgeOutcome::HedgeWon, "{cell}");
                        assert!(
                            h.latency < SimDuration::from_micros(200),
                            "{cell}: race latency {:?} should be near delay + clone",
                            h.latency
                        );
                    }
                    h.value
                } else {
                    rt.pushdown(PushdownOpts::new(), scan)
                        .unwrap_or_else(|e| panic!("{cell}: brownout broke the call: {e}"))
                };
                assert_eq!(value, expected, "{cell}: a slow answer is still right");
                assert!(rt.is_alive(), "{cell}: fail-slow never kills");
                assert_eq!(rt.failovers(), 0, "{cell}: a brownout is not a death");
                if hedge {
                    assert!(rt.hedges_fired() <= 1, "{cell}: at most one hedge per call");
                    assert!(rt.hedges_won() <= rt.hedges_fired(), "{cell}");
                } else {
                    assert_eq!(rt.hedges_fired(), 0, "{cell}: hedging was off");
                }
            }
        }
    }
}

/// Everything the brownout acceptance row needs to judge one serving run.
struct BrownoutOutcome {
    rep: ServeReport,
    digest: u64,
    quarantines: u64,
    reintegrations: u64,
    pool0_healthy: bool,
    data_loss: u64,
    alive: bool,
}

const BROWNOUT_SESSIONS: usize = 150;

/// One 4-tenant serving run on a 2-pool Teleport rack. With `degrade`,
/// pool 0 grinds at 50× inside a mid-serve window; every tenant hedges
/// behind a 50µs delay, so only tail calls fire the hedge and
/// browned-out calls race a local clone.
fn brownout_serve(data: &kvapp::KvData, degrade: bool) -> BrownoutOutcome {
    let mut cfg = DdcConfig::with_cache_ratio(data.working_set_bytes(), 0.5);
    cfg.pools = 2;
    cfg.placement = PlacementPolicy::LoadBalance;
    cfg.validate().expect("brownout config validates");
    let mut rt = Runtime::teleport(cfg);
    rt.enable_tracing();
    let store = kvapp::KvStore::load(&mut rt, data);
    prepare(&mut rt);
    let seed = env_seed(0xB7070);
    let mut plan = FaultPlan::new(seed);
    if degrade {
        plan = plan.degraded_pool(0, SimTime(500_000), SimTime(3_000_000), 50);
    }
    rt.install_fault_plan(plan);

    let mut plane = ServePlane::new(ServeConfig {
        seed: env_seed(0xB7071),
        admission: AdmissionPolicy {
            max_queue_depth: 3,
            max_backlog: SimDuration::from_micros(150),
        },
        contexts: Some(4),
    });
    let classes = [
        QosClass::Guaranteed,
        QosClass::Guaranteed,
        QosClass::Burstable,
        QosClass::BestEffort,
    ];
    let n = data.len();
    for (t, &class) in classes.iter().enumerate() {
        let ks = kvapp::keys(31 + t as u64, BROWNOUT_SESSIONS, n);
        let vals = store.vals;
        let policy = HedgePolicy {
            delay: SimDuration::from_micros(50),
            jitter: SimDuration::ZERO,
        };
        plane.tenant(
            format!("kv{t}"),
            class,
            ArrivalProcess::poisson(SimDuration::from_micros(60)),
            BROWNOUT_SESSIONS,
            move |rt, s| {
                let k = (ks[s as usize] as usize).min(n - 64);
                rt.pushdown_hedged(PushdownOpts::new(), &policy, |m| {
                    m.charge_cycles(256);
                    let mut buf = Vec::new();
                    for _ in 0..8 {
                        buf.clear();
                        m.read_range(&vals, k, 64, &mut buf);
                    }
                    buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
                })
                .map(|h| h.value)
            },
        );
    }
    let rep = plane.run(&mut rt);
    let m = rt.metrics();
    BrownoutOutcome {
        digest: rt.trace().digest(),
        quarantines: m.get("health.quarantines").unwrap_or(0),
        reintegrations: m.get("health.reintegrations").unwrap_or(0),
        pool0_healthy: rt
            .health()
            .is_none_or(|h| h.state(0) == ddc_sim::PoolHealthState::Healthy),
        data_loss: m.get("integrity.data_loss").unwrap_or(0),
        alive: rt.is_alive(),
        rep,
    }
}

/// The ISSUE 8 acceptance row: a pool degraded 50× mid-serve under a
/// 4-tenant mix. Hedging plus quarantine keeps guaranteed-class p99
/// within 2× of the healthy-run baseline while best-effort sheds first;
/// the same seed reproduces the digest bit-for-bit; and the quarantined
/// pool reintegrates after the fault window with zero data loss.
#[test]
fn brownout_keeps_guaranteed_p99_bounded_while_best_effort_sheds() {
    let data = kvapp::KvData::generate(16 * 1024, 5);
    let healthy = brownout_serve(&data, false);
    let brown = brownout_serve(&data, true);

    // Same seed, same fault plan => bit-identical trace digest.
    let brown2 = brownout_serve(&data, true);
    assert_eq!(
        brown.digest, brown2.digest,
        "brownout digest must be seed-deterministic"
    );
    assert_ne!(
        healthy.digest, brown.digest,
        "the fault window must alter the trace"
    );

    for (label, out) in [("healthy", &healthy), ("brownout", &brown)] {
        assert!(out.alive, "{label}: rack must survive the run");
        assert_eq!(out.data_loss, 0, "{label}: zero DataLoss");
        assert!(out.pool0_healthy, "{label}: pool 0 must end Healthy");
        for (t, trep) in out.rep.tenants.iter().enumerate() {
            assert_eq!(trep.failed, 0, "{label} t{t}: no session may fail");
            assert!(
                trep.hedges_won <= trep.hedges_fired,
                "{label} t{t}: hedge ledger"
            );
            if trep.class == QosClass::Guaranteed {
                assert_eq!(trep.shed, 0, "{label} t{t}: guaranteed never sheds");
                assert_eq!(
                    trep.completed, BROWNOUT_SESSIONS as u64,
                    "{label} t{t}: guaranteed completes every session"
                );
            }
        }
    }

    // Only the degraded run trips the health plane, and the pool comes
    // back once the fault window closes.
    assert_eq!(healthy.quarantines, 0);
    assert_eq!(healthy.reintegrations, 0);
    assert_eq!(
        brown.quarantines, 1,
        "the ground pool must be quarantined once"
    );
    assert_eq!(brown.reintegrations, 1, "and reintegrated after the window");

    // Mitigation did real work: hedges fired under brownout, and the
    // best-effort tenant is the one that absorbed the admission squeeze.
    let brown_hedges: u64 = brown.rep.tenants.iter().map(|t| t.hedges_fired).sum();
    assert!(brown_hedges > 0, "brownout must fire hedges");
    assert!(
        brown.rep.class_shed(QosClass::BestEffort) > 0,
        "best-effort sheds first under brownout"
    );

    // The acceptance bar: guaranteed-class p99 under a 50x pool grind
    // stays within 2x of the healthy baseline.
    for t in 0..2 {
        let base = healthy.rep.latency.p99(t).expect("healthy p99").as_nanos();
        let hit = brown.rep.latency.p99(t).expect("brownout p99").as_nanos();
        assert!(
            hit <= 2 * base,
            "guaranteed t{t}: brownout p99 {hit}ns exceeds 2x healthy baseline {base}ns"
        );
    }
}

// ---------------------------------------------------------------------------
// Every fault shape is polled from a live site and draws
// ---------------------------------------------------------------------------

/// One row of the sweep below: the shape's name, a plan carrying it, and
/// the label its poll records when it draws.
struct SpecRow {
    shape: &'static str,
    plan: FaultPlan,
    draws: InjectedFault,
}

/// `Label: Shape => plan, …;` rows, one group per `InjectedFault`. Expands to
/// the rows and to a `match` over `InjectedFault` with one arm a group and
/// no `_` arm, so a new label does not compile until it has a row here (and
/// a label listed twice is an unreachable pattern).
macro_rules! spec_rows {
    ($($draws:ident: $($shape:ident => $plan:expr),+;)+) => {{
        fn _every_label_has_a_row(label: InjectedFault) {
            match label {
                $(InjectedFault::$draws => {})+
            }
        }
        vec![$($(SpecRow {
            shape: stringify!($shape),
            plan: $plan,
            draws: InjectedFault::$draws,
        }),+),+]
    }};
}

/// Each fault shape, alone in a plan (a torn journal write needs the crash
/// that tears it), is driven through a real `Runtime` — a write-back of the
/// whole cache onto a pool too small for it, a compute-side scan, a
/// pushdown — and must leave its injection record in the trace. A spec
/// whose poll no site calls can never draw, so this is both halves of
/// "handled *and* polled". Windows never close and probabilities are 1, so
/// the draw does not depend on the seed.
#[test]
fn every_fault_spec_variant_draws_in_a_real_run() {
    const ELEMS: usize = 8 * PAGE_SIZE / 8;
    let (t0, ns) = (SimTime(0), SimDuration::from_nanos);
    let plan = || FaultPlan::new(env_seed(0xC0FFEE));
    let rows = spec_rows! {
        FabricLatencySpike: FabricLatencySpike => plan().fabric_latency_spike(t0, FOREVER, ns(500));
        FabricPartition: FabricPartition => plan().fabric_partition(t0, SimTime(50_000));
        SsdTransientError: SsdTransientError => plan().ssd_transient_errors(t0, FOREVER, 1.0);
        SsdLatencyStorm: SsdLatencyStorm => plan().ssd_latency_storm(t0, FOREVER, 4);
        // Pool death is recorded as the unanswered heartbeat it is.
        HeartbeatFlap: HeartbeatFlap => plan().heartbeat_flap(t0, SimTime(15_000_000)),
            PoolDeath => plan().pool_death(0, t0);
        QueueBacklogBurst: QueueBacklogBurst => plan().queue_backlog_burst(t0, FOREVER, ns(2_000));
        PushdownException: PushdownException => plan().pushdown_exception(0),
            PushdownExceptionProb => plan().pushdown_exceptions_prob(t0, FOREVER, 1.0);
        PushdownHang: PushdownHang => plan().pushdown_hang(0);
        FabricBitFlip: FabricBitFlip => plan().fabric_bit_flips(t0, FOREVER, 1.0);
        SsdLatentSector: SsdLatentSector => plan().ssd_latent_sectors(t0, FOREVER, 1.0);
        PoolScribble: PoolScribble => plan().pool_scribbles(t0, FOREVER, 1.0);
        DegradedPool: DegradedPool => plan().degraded_pool(0, t0, FOREVER, 8);
        LameFabricLink: LameFabricLink => plan().lame_fabric_link(t0, FOREVER, 8);
        GrindingSsd: GrindingSsd => plan().grinding_ssd(t0, FOREVER, 8);
        PoolCrashRestart: PoolCrashRestart => plan().pool_crash_restart(0, t0, ns(200));
        TornJournalWrite: TornJournalWrite =>
            plan().pool_crash_restart(0, t0, ns(200)).torn_journal_write(0, t0);
    };
    for row in rows {
        let name = row.shape;
        assert!(
            row.plan.specs().iter().any(|s| s.label() == Ok(row.draws)),
            "{name}: the row's plan carries no spec labelled {:?}",
            row.draws
        );
        // A pool of 4 pages under an 8-page column: write-backs and reads
        // recurse to storage.
        let mut rt = Runtime::teleport(DdcConfig {
            memory_pool_bytes: 4 * PAGE_SIZE,
            ..DdcConfig::with_cache_ratio(ELEMS * 8, 0.25)
        });
        rt.enable_tracing();
        let col = rt.alloc_region::<u64>(ELEMS);
        rt.write_range(&col, 0, &vec![1u64; ELEMS]);
        rt.begin_timing();
        let inj = rt.install_fault_plan(row.plan);
        rt.drop_cache();
        let mut buf = Vec::new();
        rt.read_range(&col, 0, ELEMS, &mut buf);
        // The verdict is the fault's to give (an exception, a kill, a dead
        // pool, lost data); only the draw is judged here.
        let _ = rt.pushdown(PushdownOpts::new(), |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, ELEMS, &mut buf);
        });
        assert!(inj.injected_count() > 0, "{name}: nothing was injected");
        let recorded = rt.trace().events().iter().any(|r| match r.event {
            TraceEvent::FaultInjected { fault, .. }
            | TraceEvent::FailSlowInjected { fault, .. } => fault == row.draws,
            _ => false,
        });
        assert!(recorded, "{name}: no {:?} record in the trace", row.draws);
    }
}
