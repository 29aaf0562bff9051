//! Cross-crate integration: the paper's Fig 13 shape at test scale — all
//! eight workloads (Q9/Q3/Q6, SSSP/RE/CC, WC/Grep) on all three platforms,
//! results validated against oracles, TELEPORT beating the base DDC.

use ddc_sim::{DdcConfig, MonolithicConfig, SimDuration};
use teleport::{PlatformKind, Runtime};

fn make_rt(kind: PlatformKind, ws: usize) -> Runtime {
    let ddc = DdcConfig::with_cache_ratio(ws, 0.02);
    match kind {
        PlatformKind::Local => Runtime::local(MonolithicConfig {
            dram_bytes: ws * 4 + (32 << 20),
            ..Default::default()
        }),
        PlatformKind::BaseDdc => Runtime::base_ddc(ddc),
        PlatformKind::Teleport => Runtime::teleport(ddc),
    }
}

/// Run one workload on all three platforms; returns (local, base, tele)
/// times after asserting result correctness inside the closure.
fn three_way(ws: usize, mut work: impl FnMut(&mut Runtime) -> SimDuration) -> [SimDuration; 3] {
    let mut out = [SimDuration::ZERO; 3];
    for (i, kind) in [
        PlatformKind::Local,
        PlatformKind::BaseDdc,
        PlatformKind::Teleport,
    ]
    .into_iter()
    .enumerate()
    {
        let mut rt = make_rt(kind, ws);
        out[i] = work(&mut rt);
    }
    out
}

fn prepare(rt: &mut Runtime) {
    if rt.kind() != PlatformKind::Local {
        rt.drop_cache();
    }
    rt.begin_timing();
}

#[test]
fn fig13_shape_database() {
    use memdb::queries::ops;
    use memdb::{oracle, q6, q9, Database, PushdownPlan, QueryParams, TpchData};

    let data = TpchData::generate(0.002, 5);
    let params = QueryParams::default();
    let ws = data.working_set_bytes();
    let expected_q6 = oracle::q6(&data, &params);
    let expected_q9 = oracle::q9(&data, &params);

    for (name, runner) in [
        (
            "Q6",
            Box::new(|rt: &mut Runtime| {
                let db = Database::load(rt, &data);
                prepare(rt);
                let plan = PushdownPlan::of(ops::Q6);
                let (r, rep) = q6(rt, &db, &plan, &params);
                assert!((r - expected_q6).abs() < 1e-6 * expected_q6.abs());
                rep.total()
            }) as Box<dyn FnMut(&mut Runtime) -> SimDuration>,
        ),
        (
            "Q9",
            Box::new(|rt: &mut Runtime| {
                let db = Database::load(rt, &data);
                prepare(rt);
                let plan = PushdownPlan::top_k(ops::Q9, 4);
                let (r, rep) = q9(rt, &db, &plan, &params);
                assert_eq!(r.len(), expected_q9.len());
                rep.total()
            }),
        ),
    ] {
        let [local, base, tele] = three_way(ws, runner);
        assert!(base > local, "{name}: disaggregation costs something");
        assert!(
            tele < base,
            "{name}: TELEPORT must beat base DDC ({tele} vs {base})"
        );
    }
}

#[test]
fn fig13_shape_graph() {
    use graphproc::algos::{cc, sssp};
    use graphproc::{social_graph, ConnectedComponents, GasEngine, GasPlan, Sssp};

    let g = social_graph(1_500, 4, 11);
    let ws = g.bytes() + g.n() * 16;
    let expected_sssp = sssp::oracle(&g, 0);
    let expected_cc = cc::oracle(&g);

    let [_, base, tele] = three_way(ws, |rt| {
        let eng = GasEngine::load(rt, &g);
        prepare(rt);
        let plan = GasPlan::paper();
        let (d, rep) = eng.run(rt, &Sssp { source: 0 }, &plan);
        assert_eq!(d, expected_sssp);
        let (c, rep2) = eng.run(rt, &ConnectedComponents, &plan);
        assert_eq!(c, expected_cc);
        rep.total() + rep2.total()
    });
    assert!(tele < base, "graph workloads: {tele} vs {base}");
}

#[test]
fn fig13_shape_mapreduce() {
    use mapred::{
        grep_oracle, run, wordcount_oracle, Corpus, Grep, LoadedCorpus, MrPlan, WordCount,
    };

    let corpus = Corpus::generate(800, 2_000, 3);
    let ws = corpus.bytes() * 3;
    let expected_wc = wordcount_oracle(&corpus);
    let expected_grep = grep_oracle(&corpus, 7);

    let [_, base, tele] = three_way(ws, |rt| {
        let input = LoadedCorpus::load(rt, &corpus);
        prepare(rt);
        let plan = MrPlan::paper();
        let (wc, rep) = run(rt, &input, &WordCount, 4, 2, &plan);
        assert_eq!(wc, expected_wc);
        let (gr, rep2) = run(rt, &input, &Grep { pattern: 7 }, 4, 2, &plan);
        assert_eq!(gr.iter().map(|&(_, v)| v).sum::<u64>(), expected_grep);
        rep.total() + rep2.total()
    });
    assert!(tele < base, "mapreduce workloads: {tele} vs {base}");
}

#[test]
fn memory_pool_failure_kills_every_system() {
    // A DDC losing its memory pool is fatal no matter the application.
    use teleport::{PushdownError, PushdownOpts};
    let mut rt = make_rt(PlatformKind::Teleport, 1 << 20);
    rt.inject_memory_pool_failure();
    let r = rt.pushdown(PushdownOpts::new(), |_| 0u64);
    assert_eq!(r.unwrap_err(), PushdownError::KernelPanic);
    assert!(!rt.is_alive());
}

#[test]
fn the_same_binary_runs_on_all_platforms() {
    // The paper's backward-compatibility story: identical application code
    // (here: a closure using only the `Mem` trait) runs unmodified on all
    // three platforms.
    use teleport::{Mem, PushdownOpts};
    fn workload(rt: &mut Runtime) -> u64 {
        let col = rt.alloc_region::<u64>(10_000);
        let vals: Vec<u64> = (0..10_000u64).collect();
        rt.write_range(&col, 0, &vals);
        rt.pushdown(PushdownOpts::new(), |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, col.len(), &mut buf);
            buf.iter().copied().max().unwrap_or(0)
        })
        .expect("runs everywhere")
    }
    for kind in [
        PlatformKind::Local,
        PlatformKind::BaseDdc,
        PlatformKind::Teleport,
    ] {
        let mut rt = make_rt(kind, 1 << 20);
        assert_eq!(workload(&mut rt), 9_999, "{kind:?}");
    }
}

#[test]
fn syncmem_with_a_dirty_page_flushes_it_to_the_pool_and_nothing_on_local() {
    // A monolithic server has no pool to synchronize with: `syncmem` and
    // `syncmem_range` flush nothing there, and still mark the sync point.
    use ddc_os::Pattern;
    use ddc_sim::{EventKind, TraceEvent};
    use teleport::Mem;
    for (kind, flushed) in [
        (PlatformKind::Local, 0),
        (PlatformKind::BaseDdc, 1),
        (PlatformKind::Teleport, 1),
    ] {
        let mut rt = make_rt(kind, 1 << 20);
        rt.enable_tracing();
        let col = rt.alloc_region::<u64>(4 * 512);
        rt.begin_timing();
        rt.set(&col, 3, 7, Pattern::Rand);
        assert_eq!(rt.syncmem(), flushed, "{kind:?}: syncmem");
        rt.set(&col, 600, 8, Pattern::Rand);
        assert_eq!(
            rt.syncmem_range(col.addr(), col.byte_len()),
            flushed,
            "{kind:?}: syncmem_range"
        );
        assert_eq!(rt.get(&col, 3, Pattern::Rand), 7, "{kind:?}");
        assert_eq!(rt.get(&col, 600, Pattern::Rand), 8, "{kind:?}");
        let syncs: Vec<TraceEvent> = rt
            .trace()
            .events()
            .into_iter()
            .map(|rec| rec.event)
            .filter(|event| event.kind() == EventKind::Syncmem)
            .collect();
        let pages = flushed as u64;
        assert_eq!(
            syncs,
            [TraceEvent::Syncmem { pages }, TraceEvent::Syncmem { pages }],
            "{kind:?}"
        );
    }
}
