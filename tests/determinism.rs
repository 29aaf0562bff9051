//! Full-stack determinism: running the same experiment twice — data
//! generation, loading, querying, graph processing, MapReduce, and the
//! pushdown microbenchmarks — must produce *bit-identical* virtual times
//! and statistics. This is what makes every number in EXPERIMENTS.md
//! reproducible on any machine.

use ddc_sim::DdcConfig;
use teleport::Runtime;

fn db_run() -> (u64, u64, u64) {
    use memdb::{q9, Database, PushdownPlan, QueryParams, TpchData};
    let data = TpchData::generate(0.002, 99);
    let mut rt = Runtime::teleport(DdcConfig::with_cache_ratio(data.working_set_bytes(), 0.02));
    let db = Database::load(&mut rt, &data);
    rt.drop_cache();
    rt.begin_timing();
    let plan = PushdownPlan::top_k(memdb::queries::ops::Q9, 4);
    let (_, rep) = q9(&mut rt, &db, &plan, &QueryParams::default());
    let ledger = rt.net_ledger();
    (
        rep.total().as_nanos(),
        ledger.total_messages(),
        rt.paging_stats().cache_misses,
    )
}

#[test]
fn database_runs_are_bit_identical() {
    assert_eq!(db_run(), db_run());
}

#[test]
fn graph_runs_are_bit_identical() {
    use graphproc::{social_graph, GasPlan, Sssp};
    let run = || {
        let g = social_graph(2_000, 4, 5);
        let mut rt = Runtime::teleport(DdcConfig::with_cache_ratio(g.bytes() * 2, 0.02));
        let eng = graphproc::GasEngine::load(&mut rt, &g);
        rt.drop_cache();
        rt.begin_timing();
        let (dist, rep) = eng.run(&mut rt, &Sssp { source: 0 }, &GasPlan::paper());
        (
            rep.total().as_nanos(),
            rep.iterations,
            dist.iter().filter(|d| d.is_finite()).count(),
            rt.net_ledger().coherence.messages,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn mapreduce_runs_are_bit_identical() {
    use mapred::{run, Corpus, LoadedCorpus, MrPlan, WordCount};
    let go = || {
        let c = Corpus::generate(500, 1_000, 3);
        let mut rt = Runtime::teleport(DdcConfig::with_cache_ratio(c.bytes() * 3, 0.02));
        let input = LoadedCorpus::load(&mut rt, &c);
        rt.drop_cache();
        rt.begin_timing();
        let (out, rep) = run(&mut rt, &input, &WordCount, 4, 2, &MrPlan::paper());
        (rep.total().as_nanos(), rep.pairs_shuffled, out.len())
    };
    assert_eq!(go(), go());
}

/// One traced workload, any platform: compute-side writes, a pushdown
/// (local fallback off-Teleport), and the digest + length of the event
/// stream it leaves behind.
fn traced_digest(kind: teleport::PlatformKind) -> (u64, u64) {
    use ddc_os::Pattern;
    use ddc_sim::{MonolithicConfig, PAGE_SIZE};
    use teleport::{Mem, PlatformKind, PushdownOpts};

    let pages = 8usize;
    let ws = pages * PAGE_SIZE;
    let mut rt = match kind {
        PlatformKind::Local => Runtime::local(MonolithicConfig {
            dram_bytes: ws * 4 + (32 << 20),
            ..Default::default()
        }),
        PlatformKind::BaseDdc => Runtime::base_ddc(DdcConfig::with_cache_ratio(ws, 0.25)),
        PlatformKind::Teleport => Runtime::teleport(DdcConfig::with_cache_ratio(ws, 0.25)),
    };
    rt.enable_tracing();
    let region = rt.alloc_region::<u64>(pages * PAGE_SIZE / 8);
    if kind != teleport::PlatformKind::Local {
        rt.drop_cache();
    }
    rt.begin_timing();
    for p in 0..pages {
        rt.set(&region, p * PAGE_SIZE / 8, p as u64 + 1, Pattern::Rand);
    }
    let n = region.len();
    let sum = rt
        .pushdown(PushdownOpts::new(), move |m| {
            let mut buf = Vec::new();
            m.read_range(&region, 0, n, &mut buf);
            buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
        })
        .unwrap();
    assert_eq!(sum, (1..=pages as u64).sum::<u64>());
    (rt.trace().digest(), rt.trace().len())
}

#[test]
fn trace_digests_are_bit_identical_across_reruns() {
    use teleport::PlatformKind;
    let mut digests = Vec::new();
    for kind in [
        PlatformKind::Local,
        PlatformKind::BaseDdc,
        PlatformKind::Teleport,
    ] {
        let first = traced_digest(kind);
        assert_eq!(first, traced_digest(kind), "{kind:?} trace stream drifted");
        digests.push(first.0);
    }
    // The three platforms take genuinely different paths (no faults vs
    // paging vs pushdown), so their streams must not collide either.
    assert_ne!(digests[0], digests[1]);
    assert_ne!(digests[1], digests[2]);
    assert_ne!(digests[0], digests[2]);
}

#[test]
fn disabled_coherence_is_silent_and_syncmem_traces_one_span() {
    use ddc_os::Pattern;
    use ddc_sim::{EventKind, PAGE_SIZE};
    use teleport::{CoherenceMode, Mem, PushdownOpts};

    let run = |mode: CoherenceMode| {
        let mut rt = Runtime::teleport(DdcConfig {
            compute_cache_bytes: 8 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            ..Default::default()
        });
        rt.enable_tracing();
        let region = rt.alloc_region::<u64>(4 * PAGE_SIZE / 8);
        rt.begin_timing();
        // Cache all four pages writable so a coherent pushdown would have
        // to message for every one of its writes.
        for p in 0..4usize {
            rt.set(&region, p * PAGE_SIZE / 8, 1, Pattern::Rand);
        }
        rt.pushdown(PushdownOpts::new().coherence(mode), move |m| {
            for p in 0..4usize {
                m.set(&region, p * PAGE_SIZE / 8 + 1, 2, Pattern::Rand);
            }
        })
        .unwrap();
        rt
    };

    // Regression: fully disabled coherence must leave *zero* coherence
    // events in the trace, and the catch-up `syncmem` is exactly one span.
    let mut rt = run(CoherenceMode::Disabled);
    assert_eq!(rt.trace().count(EventKind::CoherenceMsg), 0);
    assert_eq!(rt.trace().count(EventKind::Syncmem), 0);
    rt.syncmem();
    assert_eq!(
        rt.trace().count(EventKind::Syncmem),
        1,
        "syncmem is one traced span"
    );
    assert_eq!(rt.trace().count(EventKind::CoherenceMsg), 0);

    // Counterpart: the default coherent mode messages for those same pages.
    let rt = run(CoherenceMode::WriteInvalidate);
    assert!(rt.trace().count(EventKind::CoherenceMsg) > 0);
}

#[test]
fn microbenchmarks_are_bit_identical() {
    use teleport::microbench::{
        run_contention, run_false_sharing, ContentionPlatform, ContentionSpec, FalseSharingSpec,
    };
    use teleport::CoherenceMode;
    let spec = ContentionSpec {
        region_pages: 512,
        ops: 2_000,
        contention_rate: 0.01,
        ..Default::default()
    };
    // Every platform runs the one pushdown path, so each is pinned to
    // itself across runs.
    let platforms = [
        ContentionPlatform::Local,
        ContentionPlatform::BaseDdc,
        ContentionPlatform::Teleport(CoherenceMode::WriteInvalidate),
        ContentionPlatform::Teleport(CoherenceMode::WeakOrdering),
    ];
    for platform in platforms {
        let run = || {
            let r = run_contention(&spec, platform);
            (
                r.makespan.as_nanos(),
                r.pushdown_lane_time.as_nanos(),
                r.coherence_msgs,
                r.backoffs,
            )
        };
        assert_eq!(run(), run(), "{platform:?}");
    }
    let spec = FalseSharingSpec {
        pages: 16,
        writes_per_thread: 1_000,
        ..Default::default()
    };
    for manual_syncmem in [false, true] {
        let run = || run_false_sharing(&spec, manual_syncmem).as_nanos();
        assert_eq!(run(), run(), "manual syncmem: {manual_syncmem}");
    }
}
