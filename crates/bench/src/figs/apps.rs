//! Figures 10–13: the three pushdown-optimized systems.

use graphproc::Phase;
use memdb::queries::ops;
use teleport::{PlatformKind, WorkStat};

use super::{Algo, App, Push, Ratio, RunTable, Workload, EIGHT, PLATFORMS};
use crate::{fmt_t, fmt_x, runtime_for, Out, CACHE_RATIO};

/// Fig 10 — per-operator/per-phase breakdown of the most expensive query
/// in each system, local vs DDC, with remote memory traffic annotations.
pub fn fig10(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 10 — Per-operator breakdown (local vs DDC, remote traffic)");
    let both = [PlatformKind::Local, PlatformKind::BaseDdc];

    // --- TPC-H Q9 in the columnar DBMS.
    let [local, ddc] = both.map(|p| {
        runs.run(Workload::Tpch(Ratio::Headline), p, Push::Nothing)
            .tpch()
    });
    out.line("\n**TPC-H Q9 (MonetDB stand-in)**");
    let mut rows = Vec::new();
    for (i, name) in ops::Q9.iter().enumerate() {
        let l = &local[0].ops[i];
        let d = &ddc[0].ops[i];
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
    let [local, ddc] = both.map(|p| runs.run(Workload::Gas(Algo::Sssp), p, Push::Nothing).gas());
    out.line("\n**SSSP (PowerGraph stand-in)**");
    let mut rows = Vec::new();
    for phase in [Phase::Finalize, Phase::Scatter, Phase::Apply, Phase::Gather] {
        let l = local.stat(phase);
        let d = ddc.stat(phase);
        rows.push(vec![
            format!("{phase:?}"),
            fmt_t(l.time),
            fmt_t(d.time),
            format!("{:.2} MB", d.remote_bytes as f64 / 1e6),
        ]);
    }
    out.table(&["phase", "local", "DDC", "remote traffic"], &rows);

    // --- WordCount in MapReduce.
    let [local, ddc] = both.map(|p| runs.run(Workload::Mr(App::Wc), p, Push::Nothing).mr());
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
        mk("Map-compute", local.map_compute, ddc.map_compute),
        mk("Map-shuffle", local.map_shuffle, ddc.map_shuffle),
        mk("Reduce", local.reduce, ddc.reduce),
        mk("Merge", local.merge, ddc.merge),
    ];
    out.table(&["phase", "local", "DDC", "remote traffic"], &rows);
    let shuffle_share = ddc.map_shuffle.time.as_secs_f64() / ddc.map_time().as_secs_f64() * 100.0;
    out.line(&format!(
        "Map-shuffle is {shuffle_share:.0}% of DDC map time (paper: 95%)."
    ));
}

/// Fig 11 — the code-change table: what it takes to push each operator.
/// LoC of the pushed kernels is measured from this repository's sources.
pub fn fig11(_runs: &mut RunTable, out: &mut Out) {
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
         <310 changed LoC each.",
    );
}

/// Fig 12 — pushing `Q_filter`'s operators (paper: projection 5.5×,
/// selection 2.4×, aggregation 2.1× over the base DDC).
pub fn fig12(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 12 — Q_filter operator pushdown");
    use memdb::{q_filter, PushdownPlan, QueryParams};
    let data = runs.tpch(runs.scale().sf);
    let ws = data.working_set_bytes();
    let params = QueryParams::default();

    let mut reports = Vec::new();
    for kind in PLATFORMS {
        let mut rt = runtime_for(kind, ws, CACHE_RATIO);
        let db = crate::load_db(&mut rt, data);
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
/// 3/2.8/2 for SSSP/RE/CC, 2.5/4.7 for WC/Grep). TELEPORT pushes the
/// top-4 intensity-ranked operators (§7.4), finalize + gather + scatter
/// (§5.2) and map-shuffle (§5.3).
pub fn fig13(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 13 — TELEPORT across all eight workloads (normalized to local)");
    let mut rows = Vec::new();
    for w in EIGHT {
        let [local, base, tele] = PLATFORMS.map(|p| runs.run(w, p, Push::Paper).totals());
        for (i, name) in w.labels().1.iter().enumerate() {
            rows.push(vec![
                name.to_string(),
                fmt_x(base[i].ratio(local[i])),
                fmt_x(tele[i].ratio(local[i])),
                fmt_x(base[i].ratio(tele[i])),
            ]);
        }
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
