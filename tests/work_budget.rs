//! Work budget: the simulator's own host work, counted, for a small memdb
//! rack on each platform — loaded, then Q9, Q3 and Q6 run cold — as
//! `ddc_os::work_counters` reports it.
//!
//! The counts are deterministic for a fixed input, so they are pinned
//! exactly, where a timing would need ten runs and still miss a few
//! percent. The first rack takes fresh segment backing; the two after it
//! take the first one's buffers (`AddressSpace`, "Backing lifetime"), so
//! they show what is zeroed on a recycled buffer:
//!
//! - `bytes_zeroed` counts only regions that are read before they are
//!   written (hash tables, accumulators) and what a region writer left
//!   unwritten. A column loaded or an intermediate materialized through
//!   `alloc_region` + `write_range` again zeroes its whole recycled buffer
//!   first and moves this pin by the column's size;
//! - `fresh_backings` / `recycled_backings`: a platform that allocates a
//!   size the others do not takes fresh backing where it should recycle;
//! - `gather_rows` / `gather_runs`: a candidate-list operator that goes
//!   back to a loop of `get` stops resolving its rows by page run, and both
//!   fall;
//! - `pool_victim_orders`: these racks' pools never fill, so they never
//!   order their pages for a spill. A second test runs Q9 on racks whose
//!   pool holds 2 % of the database (Fig 15's smallest pool) and pins how
//!   often they do: once, at the first spill. A pool that sorts again on
//!   later spills moves that count;
//! - `hit_batches` / `batched_reads`: `HashIndex::probe_all` bills its
//!   probes as one batch of hits when the whole index is resident in the
//!   compute cache. On `Local` (ample DRAM) four joins batch 27 238 reads;
//!   the disaggregated racks' compute cache (2 % of the database: six
//!   pages) is refilled by the probe side's column reads between build and
//!   probe, so they probe read by read and pin 0. A `probe_all` back on the per-read
//!   path moves the `Local` pin;
//! - `view_rebuilds` / `view_notes_reconciled`: how the compute cache kept
//!   its resident view for the racks' pushdowns and `drop_cache`'s walk in
//!   page order — rebuilt from the slab after more changes than the view's
//!   journal holds, patched with a table write a noted page otherwise. A
//!   third test runs the `serve` shape with a smoke-sized session count,
//!   where a few misses separate two pushdowns and the view is patched,
//!   never rebuilt, after the first request; a cache that rebuilt on every
//!   change would move both counts.
//!
//! Two more tests run the other two rackbench shapes at their `--smoke`
//! sizes and pin all ten counters of every rack: `scatter` (SSSP, then
//! WordCount, each on the three platforms) and `chaos` (the `serve` traffic
//! with puts over two replicated pools, four contexts, a scrub, the tracer
//! on and the six-fault plan, crash included). So a change to the graph or
//! MapReduce engines' allocations, to the paging core's fault and write-back
//! path, or to what the armed planes make the cache rebuild, moves a pin
//! here before it moves a benchmark.
//!
//! None of these is in a digest, a trace record or `Runtime::metrics`; they
//! describe how the simulation is computed, not what it simulates.

use std::rc::Rc;

use ddc_os::{work_counters, AddressSpace, Pattern, WorkCounters};
use ddc_sim::{
    ArrivalProcess, DdcConfig, FaultPlan, MonolithicConfig, PlacementPolicy, QosClass,
    ReplicationMode, ScrubConfig, SimDuration, SimTime, PAGE_SIZE,
};
use graphproc::algos::sssp;
use graphproc::{social_graph, GasEngine, GasPlan, Sssp};
use kvapp::{KvData, KvStore};
use mapred::{wordcount_oracle, Corpus, LoadedCorpus, MrPlan, WordCount};
use memdb::{q3, q6, q9, Database, PushdownPlan, QueryParams, TpchData};
use teleport::{
    AdmissionPolicy, Mem, PlatformKind, PushdownOpts, ResiliencePolicy, Runtime, ServeConfig,
    ServePlane,
};

/// Each platform's counters over one rack's life, in the order the racks
/// are built: `(bytes_zeroed, fresh_backings, recycled_backings,
/// gather_rows, gather_runs, pool_victim_orders, view_rebuilds,
/// view_notes_reconciled, hit_batches, batched_reads)`.
const BUDGET: [(PlatformKind, [u64; 10]); 3] = [
    (
        PlatformKind::Local,
        [0, 72, 0, 15_601, 652, 0, 0, 0, 4, 27_238],
    ),
    (
        PlatformKind::BaseDdc,
        [127_098, 0, 72, 15_601, 652, 0, 1, 0, 0, 0],
    ),
    (
        PlatformKind::Teleport,
        [127_098, 0, 72, 15_601, 652, 0, 3, 156, 0, 0],
    ),
];

const NAMES: [&str; 10] = [
    "bytes_zeroed",
    "fresh_backings",
    "recycled_backings",
    "gather_rows",
    "gather_runs",
    "pool_victim_orders",
    "view_rebuilds",
    "view_notes_reconciled",
    "hit_batches",
    "batched_reads",
];

fn fields(w: &WorkCounters) -> [u64; 10] {
    [
        w.bytes_zeroed,
        w.fresh_backings,
        w.recycled_backings,
        w.gather_rows,
        w.gather_runs,
        w.pool_victim_orders,
        w.view_rebuilds,
        w.view_notes_reconciled,
        w.hit_batches,
        w.batched_reads,
    ]
}

const PLATFORMS: [PlatformKind; 3] = [
    PlatformKind::Local,
    PlatformKind::BaseDdc,
    PlatformKind::Teleport,
];

/// rackbench's rack for a working set of `ws` bytes: a compute cache of 2 %
/// of it on the disaggregated platforms, ample DRAM on `Local`.
fn rack_for(kind: PlatformKind, ws: usize) -> Runtime {
    let ddc = DdcConfig::with_cache_ratio(ws, 0.02);
    match kind {
        PlatformKind::Local => Runtime::local(MonolithicConfig {
            dram_bytes: ws * 4 + (64 << 20),
            ..Default::default()
        }),
        PlatformKind::BaseDdc => Runtime::base_ddc(ddc),
        PlatformKind::Teleport => Runtime::teleport(ddc),
    }
}

/// Drop the compute cache (disaggregated platforms) and zero the clock:
/// every job starts cold.
fn cold_start(rt: &mut Runtime) {
    if rt.kind() != PlatformKind::Local {
        rt.drop_cache();
    }
    rt.begin_timing();
}

/// Assert each rack's ten counters, naming the first that moved.
fn assert_budget<K: std::fmt::Debug>(want: &[(K, [u64; 10])], got: &[(K, [u64; 10])]) {
    for ((rack, want), (_, counts)) in want.iter().zip(got) {
        for ((name, want), got_one) in NAMES.iter().zip(want).zip(counts) {
            assert_eq!(
                got_one, want,
                "{rack:?}: work counter `{name}` moved; all counters now read {got:?}"
            );
        }
    }
}

/// One rack's life on `kind`: build, load, run the three queries cold under
/// `plans`, drop. Returns its work and the query reports' intensity
/// rankings (the Teleport plans are the top four of the BaseDdc run's, as
/// the paper's three-way comparison picks them).
fn rack_life(
    kind: PlatformKind,
    data: &TpchData,
    plans: &[PushdownPlan; 3],
) -> (WorkCounters, [Vec<&'static str>; 3]) {
    let before = work_counters();
    let ws = data.working_set_bytes();
    let mut rt = rack_for(kind, ws);
    let db = Database::load(&mut rt, data);
    cold_start(&mut rt);
    let params = QueryParams::default();
    let (_, r9) = q9(&mut rt, &db, &plans[0], &params);
    let (_, r3) = q3(&mut rt, &db, &plans[1], &params);
    let (_, r6) = q6(&mut rt, &db, &plans[2], &params);
    drop(rt);
    let work = work_counters().delta_since(&before);
    let ranks = [&r9, &r3, &r6].map(|r| r.rank_by_intensity());
    (work, ranks)
}

#[test]
fn memdb_racks_do_the_pinned_host_work() {
    // Whatever an earlier test on this thread left spare is released.
    drop(AddressSpace::new());
    let data = TpchData::generate(0.002, 42);
    let mut base_ranks = None;
    let mut got = Vec::new();
    for (kind, _) in BUDGET {
        let plans = match &base_ranks {
            Some(ranks) if kind == PlatformKind::Teleport => {
                let ranks: &[Vec<&'static str>; 3] = ranks;
                [0, 1, 2].map(|q| PushdownPlan::top_k(&ranks[q], 4))
            }
            _ => [(); 3].map(|_| PushdownPlan::none()),
        };
        let (work, ranks) = rack_life(kind, &data, &plans);
        if kind == PlatformKind::BaseDdc {
            base_ranks = Some(ranks);
        }
        got.push((kind, fields(&work)));
    }
    assert_budget(&BUDGET, &got);
}

/// Victim orders of a spilling rack's life on each disaggregated platform
/// (load, then Q9 cold), pool at 2 % of the database and compute cache at
/// 0.5 %, beside the timed run's storage page-ins: each of those spilled a
/// victim, and the one order made at the rack's first spill serves them all.
const SPILLING: [(PlatformKind, u64, u64); 2] = [
    (PlatformKind::BaseDdc, 1, 2_437),
    (PlatformKind::Teleport, 1, 3_110),
];

#[test]
fn spilling_pools_order_their_victims_once() {
    let data = TpchData::generate(0.002, 42);
    let ws = data.working_set_bytes();
    let ddc = DdcConfig {
        compute_cache_bytes: (ws / 200 / PAGE_SIZE).max(4) * PAGE_SIZE,
        memory_pool_bytes: (ws / 50).max(8 * PAGE_SIZE),
        ..Default::default()
    };
    let params = QueryParams::default();
    let mut plan = PushdownPlan::none();
    let mut got = Vec::new();
    for (kind, ..) in SPILLING {
        let before = work_counters();
        let mut rt = match kind {
            PlatformKind::Teleport => Runtime::teleport(ddc.clone()),
            _ => Runtime::base_ddc(ddc.clone()),
        };
        let db = Database::load(&mut rt, &data);
        rt.drop_cache();
        rt.begin_timing();
        let (_, report) = q9(&mut rt, &db, &plan, &params);
        plan = PushdownPlan::top_k(&report.rank_by_intensity(), 4);
        let page_ins = rt.dos().stats().storage_page_in;
        drop(rt);
        let orders = work_counters().delta_since(&before).pool_victim_orders;
        got.push((kind, orders, page_ins));
    }
    assert_eq!(
        got, SPILLING,
        "(platform, pool_victim_orders, storage_page_in)"
    );
}

/// The `serve` rack with a smoke-sized session count — kvapp at 2^20 keys
/// (2 048 pages; at 2^16 the store fits the cache and no session misses), a
/// 512-page compute cache warmed full, four tenants of 100 sessions, one in
/// four reading through the compute cache and the rest pushing the lookup
/// down — over its whole life: `(view_rebuilds, view_notes_reconciled,
/// compute-side misses, pushdown calls)`. Loading overflows the view's
/// journal, so `drop_cache`'s walk in page order rebuilds it, and the clear
/// leaves it stale for the first request after the warm-up; each later miss
/// notes its page and the victim's, which the next request patches in.
const SERVE_VIEW: (u64, u64, u64, u64) = (2, 152, 77, 299);

#[test]
fn serve_rack_patches_its_resident_view() {
    const KEYS: usize = 1 << 20;
    const PER_TENANT: usize = 100;
    let data = KvData::generate(KEYS, 42);
    let before = work_counters();
    let mut rt = Runtime::teleport(DdcConfig {
        compute_cache_bytes: 512 * PAGE_SIZE,
        ..Default::default()
    });
    let store = KvStore::load(&mut rt, &data);
    rt.drop_cache();
    // The store's first 512 of 2 048 pages, as rackbench's warm-up reads it.
    for page in 0..512 {
        rt.get(&store.vals, page * PAGE_SIZE / 8, Pattern::Rand);
    }
    rt.begin_timing();
    let mut plane = ServePlane::new(ServeConfig::with_seed(42));
    for (t, class) in [
        QosClass::Guaranteed,
        QosClass::Guaranteed,
        QosClass::Burstable,
        QosClass::BestEffort,
    ]
    .into_iter()
    .enumerate()
    {
        let keys = Rc::new(kvapp::keys(42 + t as u64, PER_TENANT, KEYS));
        plane.tenant(
            format!("kv{t}"),
            class,
            ArrivalProcess::poisson(SimDuration::from_micros(300)),
            PER_TENANT,
            move |rt, s| {
                let key = keys[s as usize];
                if s % 4 == 3 {
                    Ok(rt.get(&store.vals, key as usize, Pattern::Rand))
                } else {
                    kvapp::get(rt, &store, key)
                }
            },
        );
    }
    let report = plane.run(&mut rt);
    assert!(report.ledger_balances() && report.failed() == 0);
    let misses = rt.dos().stats().cache_misses;
    let calls = rt.pushdown_calls();
    drop(rt);
    let work = work_counters().delta_since(&before);
    assert_eq!(
        (
            work.view_rebuilds,
            work.view_notes_reconciled,
            misses,
            calls
        ),
        SERVE_VIEW,
        "(view_rebuilds, view_notes_reconciled, compute-side misses, pushdown calls)"
    );
}

/// rackbench's seed and `scatter` smoke sizes: a 1 500-vertex social graph
/// of degree 4, and 800 comments over a 2 000-word vocabulary.
const SEED: u64 = 42;
const SCATTER_GRAPH: (usize, usize) = (1_500, 4);
const SCATTER_CORPUS: (usize, u32) = (800, 2_000);

/// `scatter`'s racks, SSSP's three then WordCount's three, each over its
/// whole life (build, load, cold start, run, drop), counters as in
/// [`BUDGET`].
const SCATTER_BUDGET: [((&str, PlatformKind), [u64; 10]); 6] = [
    (
        ("sssp", PlatformKind::Local),
        [0, 7, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        ("sssp", PlatformKind::BaseDdc),
        [14_480, 0, 7, 0, 0, 0, 0, 27, 0, 0],
    ),
    (
        ("sssp", PlatformKind::Teleport),
        [14_480, 0, 7, 0, 0, 0, 0, 89, 0, 0],
    ),
    (
        ("wordcount", PlatformKind::Local),
        [0, 15, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        ("wordcount", PlatformKind::BaseDdc),
        [278_528, 0, 15, 0, 0, 0, 0, 44, 0, 0],
    ),
    (
        ("wordcount", PlatformKind::Teleport),
        [278_528, 0, 15, 0, 0, 0, 0, 104, 0, 0],
    ),
];

#[test]
fn scatter_racks_do_the_pinned_host_work() {
    drop(AddressSpace::new());
    let g = social_graph(SCATTER_GRAPH.0, SCATTER_GRAPH.1, SEED);
    let dist = sssp::oracle(&g, 0);
    let corpus = Corpus::generate(SCATTER_CORPUS.0, SCATTER_CORPUS.1, SEED);
    let counts = wordcount_oracle(&corpus);
    let mut got = Vec::new();
    for kind in PLATFORMS {
        let plan = match kind {
            PlatformKind::Teleport => GasPlan::paper(),
            _ => GasPlan::none(),
        };
        let before = work_counters();
        let mut rt = rack_for(kind, g.bytes() + g.n() * 16);
        let eng = GasEngine::load(&mut rt, &g);
        cold_start(&mut rt);
        let (got_dist, _) = eng.run(&mut rt, &Sssp { source: 0 }, &plan);
        drop(rt);
        assert!(got_dist == dist, "{kind:?}: SSSP disagrees with its oracle");
        got.push((
            ("sssp", kind),
            fields(&work_counters().delta_since(&before)),
        ));
    }
    for kind in PLATFORMS {
        let plan = match kind {
            PlatformKind::Teleport => MrPlan::paper(),
            _ => MrPlan::none(),
        };
        let before = work_counters();
        let mut rt = rack_for(kind, corpus.bytes() * 3);
        let loaded = LoadedCorpus::load(&mut rt, &corpus);
        cold_start(&mut rt);
        let (got_counts, _) = mapred::run(&mut rt, &loaded, &WordCount, 8, 4, &plan);
        drop(rt);
        assert_eq!(got_counts, counts, "{kind:?}: WordCount");
        got.push((
            ("wordcount", kind),
            fields(&work_counters().delta_since(&before)),
        ));
    }
    assert_budget(&SCATTER_BUDGET, &got);
}

/// `chaos` at its smoke size: 2 000 sessions from four tenants over a 2^16-key
/// store, half of them pushed-down puts.
const CHAOS_KEYS: usize = 1 << 16;
const CHAOS_SESSIONS: usize = 2_000;
/// Virtual service time of one session, on which rackbench lays out the
/// fault windows.
const CHAOS_SERVICE_NS: u64 = 60_000;

/// The one `chaos` rack's life — build, load, warm, serve, drop — counters
/// as in [`BUDGET`].
const CHAOS_BUDGET: [(&str, [u64; 10]); 1] = [("chaos", [0, 1, 0, 0, 0, 0, 1, 735, 0, 0])];

#[test]
fn chaos_rack_does_the_pinned_host_work() {
    drop(AddressSpace::new());
    let at = |permille: u64| SimTime(CHAOS_SESSIONS as u64 * CHAOS_SERVICE_NS / 1000 * permille);
    let data = KvData::generate(CHAOS_KEYS, SEED);
    let before = work_counters();
    let mut rt = Runtime::teleport(DdcConfig {
        compute_cache_bytes: 512 * PAGE_SIZE,
        pools: 2,
        placement: PlacementPolicy::LoadBalance,
        replication: ReplicationMode::Synchronous,
        memory_contexts: 4,
        scrub: ScrubConfig {
            every: Some(at(200).since(SimTime::ZERO)),
            ..Default::default()
        },
        ..Default::default()
    });
    rt.enable_tracing();
    let store = KvStore::load(&mut rt, &data);
    rt.drop_cache();
    // The cache's worth of the store, or all of it when it is smaller.
    for page in 0..512.min(CHAOS_KEYS * 8 / PAGE_SIZE) {
        rt.get(&store.vals, page * PAGE_SIZE / 8, Pattern::Rand);
    }
    rt.begin_timing();
    let corrupt = (800.0 / CHAOS_SESSIONS as f64).min(0.5);
    rt.install_fault_plan(
        FaultPlan::new(SEED)
            .fabric_bit_flips(at(50), at(250), corrupt)
            .pool_scribbles(at(50), at(250), corrupt)
            .degraded_pool(1, at(300), at(450), 10)
            .lame_fabric_link(at(500), at(600), 8)
            .fabric_latency_spike(at(620), at(700), SimDuration::from_micros(2))
            .pool_crash_restart(0, at(750), SimDuration::from_millis(2)),
    );
    let mut plane = ServePlane::new(ServeConfig {
        seed: SEED,
        admission: AdmissionPolicy {
            max_queue_depth: 64,
            max_backlog: SimDuration::from_millis(10),
        },
        contexts: None,
    });
    let per_tenant = CHAOS_SESSIONS / 4;
    let retry = ResiliencePolicy::retry_only();
    for (t, class) in [
        QosClass::Guaranteed,
        QosClass::Guaranteed,
        QosClass::Burstable,
        QosClass::BestEffort,
    ]
    .into_iter()
    .enumerate()
    {
        let keys = Rc::new(kvapp::keys(SEED + t as u64, per_tenant, CHAOS_KEYS));
        plane.tenant(
            format!("kv{t}"),
            class,
            ArrivalProcess::poisson(SimDuration::from_micros(200)),
            per_tenant,
            move |rt, s| {
                let key = keys[s as usize] as usize;
                let vals = store.vals;
                // Of every ten sessions, five put, three get by pushdown
                // and two get through the compute cache.
                if s % 10 >= 8 {
                    return Ok(rt.get(&vals, key, Pattern::Rand));
                }
                let put = ((t as u64) << 40 | s).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let out = rt.pushdown_resilient(PushdownOpts::new(), &retry, |m| {
                    m.charge_cycles(64);
                    if s % 10 < 5 {
                        m.write_range(&vals, key, &[put]);
                        put
                    } else {
                        let mut buf = Vec::with_capacity(1);
                        m.read_range(&vals, key, 1, &mut buf);
                        buf[0]
                    }
                })?;
                Ok(out.value)
            },
        );
    }
    let report = plane.run(&mut rt);
    assert!(report.ledger_balances() && report.failed() == 0);
    assert_eq!(report.completed(), report.arrived());
    let reg = rt.metrics();
    for armed in ["recovery.crashes", "integrity.detected", "scrub.passes"] {
        assert!(reg.get(armed).unwrap_or(0) > 0, "{armed} stayed 0");
    }
    drop(rt);
    let got = [("chaos", fields(&work_counters().delta_since(&before)))];
    assert_budget(&CHAOS_BUDGET, &got);
}
