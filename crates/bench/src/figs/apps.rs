//! Figures 10–13: the three pushdown-optimized systems.

use graphproc::algos::sssp;
use graphproc::{social_graph, ConnectedComponents, GasEngine, GasPlan, Phase, Reach, Sssp};
use mapred::{run as mr_run, Corpus, Grep, LoadedCorpus, MrPlan, WordCount};
use memdb::queries::ops;
use teleport::{PlatformKind, WorkStat};

use super::{db_three_way, QUERIES};
use crate::{fmt_t, fmt_x, runtime_for, Out, Scale, CACHE_RATIO};

/// Fig 10 — per-operator/per-phase breakdown of the most expensive query
/// in each system, local vs DDC, with remote memory traffic annotations.
pub fn fig10(scale: &Scale, out: &mut Out) {
    out.section("Fig 10 — Per-operator breakdown (local vs DDC, remote traffic)");

    // --- TPC-H Q9 in the columnar DBMS.
    let three = db_three_way(scale, CACHE_RATIO, 0);
    out.line("\n**TPC-H Q9 (MonetDB stand-in)**");
    let mut rows = Vec::new();
    for (i, name) in ops::Q9.iter().enumerate() {
        let l = &three.local[0].ops[i];
        let d = &three.base[0].ops[i];
        rows.push(vec![
            name.to_string(),
            fmt_t(l.stat.time),
            fmt_t(d.stat.time),
            format!("{:.1} MB", d.stat.remote_bytes as f64 / 1e6),
            format!("{:.0}K RM/s", d.stat.memory_intensity() / 1e3),
        ]);
    }
    out.table(
        &["operator", "local", "DDC", "remote traffic", "intensity"],
        &rows,
    );

    // --- SSSP in the GAS engine.
    let g = social_graph(scale.graph_n, scale.graph_deg, scale.seed);
    let ws = g.bytes() + g.n() * 16;
    let mut reports = Vec::new();
    for kind in [PlatformKind::Local, PlatformKind::BaseDdc] {
        let mut rt = runtime_for(kind, ws, CACHE_RATIO);
        let eng = GasEngine::load(&mut rt, &g);
        if kind != PlatformKind::Local {
            rt.drop_cache();
        }
        rt.begin_timing();
        let (d, rep) = eng.run(&mut rt, &Sssp { source: 0 }, &GasPlan::none());
        assert_eq!(d, sssp::oracle(&g, 0));
        reports.push(rep);
    }
    out.line("\n**SSSP (PowerGraph stand-in)**");
    let mut rows = Vec::new();
    for phase in [Phase::Finalize, Phase::Scatter, Phase::Apply, Phase::Gather] {
        let l = reports[0].stat(phase);
        let d = reports[1].stat(phase);
        rows.push(vec![
            format!("{phase:?}"),
            fmt_t(l.time),
            fmt_t(d.time),
            format!("{:.2} MB", d.remote_bytes as f64 / 1e6),
        ]);
    }
    out.table(&["phase", "local", "DDC", "remote traffic"], &rows);

    // --- WordCount in MapReduce.
    let corpus = Corpus::generate(scale.comments, scale.vocab, scale.seed);
    let ws = corpus.bytes() * 3;
    let mut reports = Vec::new();
    for kind in [PlatformKind::Local, PlatformKind::BaseDdc] {
        let mut rt = runtime_for(kind, ws, CACHE_RATIO);
        let input = LoadedCorpus::load(&mut rt, &corpus);
        if kind != PlatformKind::Local {
            rt.drop_cache();
        }
        rt.begin_timing();
        let (_, rep) = mr_run(&mut rt, &input, &WordCount, 8, 4, &MrPlan::none());
        reports.push(rep);
    }
    out.line("\n**WordCount (Phoenix stand-in)**");
    let mk = |name: &str, l: WorkStat, d: WorkStat| {
        vec![
            name.to_string(),
            fmt_t(l.time),
            fmt_t(d.time),
            format!("{:.2} MB", d.remote_bytes as f64 / 1e6),
        ]
    };
    let rows = vec![
        mk(
            "Map-compute",
            reports[0].map_compute,
            reports[1].map_compute,
        ),
        mk(
            "Map-shuffle",
            reports[0].map_shuffle,
            reports[1].map_shuffle,
        ),
        mk("Reduce", reports[0].reduce, reports[1].reduce),
        mk("Merge", reports[0].merge, reports[1].merge),
    ];
    out.table(&["phase", "local", "DDC", "remote traffic"], &rows);
    let shuffle_share =
        reports[1].map_shuffle.time.as_secs_f64() / reports[1].map_time().as_secs_f64() * 100.0;
    out.line(&format!(
        "Map-shuffle is {shuffle_share:.0}% of DDC map time (paper: 95%)."
    ));
}

/// Fig 11 — the code-change table: what it takes to push each operator.
/// LoC of the pushed kernels is measured from this repository's sources.
pub fn fig11(_scale: &Scale, out: &mut Out) {
    out.section("Fig 11 — Pushdown flexibility: code changes per operator");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let loc = |rel: &str| -> usize {
        let path = format!("{root}/{rel}");
        match std::fs::read_to_string(&path) {
            Ok(src) => src
                .split("#[cfg(test)]")
                .next()
                .unwrap_or("")
                .lines()
                .filter(|l| {
                    let t = l.trim();
                    !t.is_empty() && !t.starts_with("//")
                })
                .count(),
            Err(_) => 0,
        }
    };
    let rows = vec![
        ("memdb", "Projection", "crates/memdb/src/exec/project.rs"),
        ("memdb", "Aggregation", "crates/memdb/src/exec/aggregate.rs"),
        ("memdb", "Selection", "crates/memdb/src/exec/select.rs"),
        ("memdb", "HashJoin", "crates/memdb/src/exec/hashjoin.rs"),
        ("memdb", "MergeJoin", "crates/memdb/src/exec/mergejoin.rs"),
        (
            "graphproc",
            "Finalize/Scatter/Gather",
            "crates/graphproc/src/gas.rs",
        ),
        ("mapred", "MapShuffle", "crates/mapred/src/engine.rs"),
    ]
    .into_iter()
    .map(|(system, op, path)| vec![system.to_string(), op.to_string(), format!("{}", loc(path))])
    .collect::<Vec<_>>();
    out.table(&["system", "operator", "kernel LoC (measured)"], &rows);
    out.line(
        "Paper: all MonetDB/PowerGraph/Phoenix pushdowns need <100 pushed LoC and \
         <310 changed LoC each; here placement is a 3-line wrap because kernels are \
         written against the `Mem` trait.",
    );
}

/// Fig 12 — pushing `Q_filter`'s operators (paper: projection 5.5×,
/// selection 2.4×, aggregation 2.1× over the base DDC).
pub fn fig12(scale: &Scale, out: &mut Out) {
    out.section("Fig 12 — Q_filter operator pushdown");
    use memdb::{q_filter, PushdownPlan, QueryParams, TpchData};
    let data = TpchData::generate(scale.sf, scale.seed);
    let ws = data.working_set_bytes();
    let params = QueryParams::default();

    let mut reports = Vec::new();
    for kind in [
        PlatformKind::Local,
        PlatformKind::BaseDdc,
        PlatformKind::Teleport,
    ] {
        let mut rt = runtime_for(kind, ws, CACHE_RATIO);
        let db = crate::load_db(&mut rt, &data);
        let plan = PushdownPlan::of(ops::QFILTER);
        let (_, rep) = q_filter(&mut rt, &db, &plan, &params);
        reports.push(rep);
    }

    let mut rows = Vec::new();
    for (i, name) in ops::QFILTER.iter().enumerate() {
        let l = reports[0].ops[i].stat.time;
        let b = reports[1].ops[i].stat.time;
        let t = reports[2].ops[i].stat.time;
        rows.push(vec![
            name.to_string(),
            fmt_t(l),
            fmt_t(b),
            fmt_t(t),
            fmt_x(b.ratio(t)),
        ]);
    }
    out.table(
        &["operator", "local", "Base DDC", "TELEPORT", "speedup"],
        &rows,
    );
    out.line("Paper: projection 5.5x, selection 2.4x, aggregation 2.1x over base DDC.");
}

/// Fig 13 — all eight workloads, normalized to local execution (paper:
/// TELEPORT speedups over the base DDC of 29.1/3.2/3.8 for Q9/Q3/Q6,
/// 3/2.8/2 for SSSP/RE/CC, 2.5/4.7 for WC/Grep).
pub fn fig13(scale: &Scale, out: &mut Out) {
    out.section("Fig 13 — TELEPORT across all eight workloads (normalized to local)");
    let mut rows = Vec::new();

    // Database (top-4 intensity-ranked operators pushed, §7.4).
    let three = db_three_way(scale, CACHE_RATIO, 4);
    for (i, q) in QUERIES.iter().enumerate() {
        let local = three.local[i].total();
        let base = three.base[i].total();
        let tele = three.tele[i].total();
        rows.push(vec![
            q.to_string(),
            fmt_x(base.ratio(local)),
            fmt_x(tele.ratio(local)),
            fmt_x(base.ratio(tele)),
        ]);
    }

    // Graph (finalize + gather + scatter pushed, §5.2).
    let g = social_graph(scale.graph_n, scale.graph_deg, scale.seed);
    let ws = g.bytes() + g.n() * 16;
    enum Algo {
        Sssp,
        Re,
        Cc,
    }
    for (name, algo) in [("SSSP", Algo::Sssp), ("RE", Algo::Re), ("CC", Algo::Cc)] {
        let mut t = Vec::new();
        for kind in [
            PlatformKind::Local,
            PlatformKind::BaseDdc,
            PlatformKind::Teleport,
        ] {
            let mut rt = runtime_for(kind, ws, CACHE_RATIO);
            let eng = GasEngine::load(&mut rt, &g);
            if kind != PlatformKind::Local {
                rt.drop_cache();
            }
            rt.begin_timing();
            let plan = GasPlan::paper();
            let rep = match algo {
                Algo::Sssp => eng.run(&mut rt, &Sssp { source: 0 }, &plan).1,
                Algo::Re => eng.run(&mut rt, &Reach { source: 0 }, &plan).1,
                Algo::Cc => eng.run(&mut rt, &ConnectedComponents, &plan).1,
            };
            t.push(rep.total());
        }
        rows.push(vec![
            name.to_string(),
            fmt_x(t[1].ratio(t[0])),
            fmt_x(t[2].ratio(t[0])),
            fmt_x(t[1].ratio(t[2])),
        ]);
    }

    // MapReduce (map-shuffle pushed, §5.3).
    let corpus = Corpus::generate(scale.comments, scale.vocab, scale.seed);
    let ws = corpus.bytes() * 3;
    for (name, pattern) in [("WC", None), ("Grep", Some(3u32))] {
        let mut t = Vec::new();
        for kind in [
            PlatformKind::Local,
            PlatformKind::BaseDdc,
            PlatformKind::Teleport,
        ] {
            let mut rt = runtime_for(kind, ws, CACHE_RATIO);
            let input = LoadedCorpus::load(&mut rt, &corpus);
            if kind != PlatformKind::Local {
                rt.drop_cache();
            }
            rt.begin_timing();
            let plan = MrPlan::paper();
            let rep = match pattern {
                None => mr_run(&mut rt, &input, &WordCount, 8, 4, &plan).1,
                Some(p) => mr_run(&mut rt, &input, &Grep { pattern: p }, 8, 4, &plan).1,
            };
            t.push(rep.total());
        }
        rows.push(vec![
            name.to_string(),
            fmt_x(t[1].ratio(t[0])),
            fmt_x(t[2].ratio(t[0])),
            fmt_x(t[1].ratio(t[2])),
        ]);
    }

    out.table(
        &[
            "workload",
            "Base DDC (vs local)",
            "TELEPORT (vs local)",
            "TELEPORT speedup",
        ],
        &rows,
    );
    out.line(
        "Paper speedups over base DDC: Q9 29.1x, Q3 3.2x, Q6 3.8x, SSSP 3x, RE 2.8x, \
         CC 2x, WC 2.5x, Grep 4.7x.",
    );
}
