//! Figures 1a, 1b, and 3: the paper's motivation numbers.

use ddc_sim::geometric_mean;
use memdb::dist::{cost_of_scaling, DistConfig, DistProfile};
use teleport::PlatformKind;

use super::{Push, Ratio, RunTable, Workload, EIGHT, QUERIES};
use crate::{fmt_t, fmt_x, Out};

/// Fig 1a — the benefit of DDCs: query speedup over an SSD-spilling
/// monolithic server when memory is constrained (paper: Base DDC 9.3×,
/// TELEPORT 39.5×; geometric mean over memory-intensive TPC-H queries).
pub fn fig1a(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 1a — The benefits of DDCs (speedup over NVMe-SSD spill)");
    let ssd = runs
        .run(Workload::TpchSsd, PlatformKind::Local, Push::Nothing)
        .totals();
    let [base, tele] = [PlatformKind::BaseDdc, PlatformKind::Teleport].map(|p| {
        runs.run(Workload::Tpch(Ratio::Headline), p, Push::Paper)
            .totals()
    });

    let mut rows = Vec::new();
    let mut base_speedups = Vec::new();
    let mut tele_speedups = Vec::new();
    for i in 0..3 {
        let s_base = ssd[i].ratio(base[i]);
        let s_tele = ssd[i].ratio(tele[i]);
        base_speedups.push(s_base);
        tele_speedups.push(s_tele);
        rows.push(vec![
            QUERIES[i].to_string(),
            fmt_t(ssd[i]),
            fmt_x(s_base),
            fmt_x(s_tele),
        ]);
    }
    rows.push(vec![
        "geomean".into(),
        "-".into(),
        fmt_x(geometric_mean(&base_speedups).unwrap()),
        fmt_x(geometric_mean(&tele_speedups).unwrap()),
    ]);
    out.table(&["query", "NVMe SSD (=1x)", "Base DDC", "TELEPORT"], &rows);
    out.line("Paper: Base DDC 9.3x, TELEPORT 39.5x (geomean).");
}

/// Fig 1b — the cost of scaling: execution time normalized to a purely
/// local run with the same total resources (paper: SparkSQL 1.2×, Vertica
/// 2.3×, MonetDB on the base DDC 5.4×, MonetDB+TELEPORT 1.8×; 10%
/// compute-local memory).
pub fn fig1b(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 1b — The cost of scaling (normalized to local execution)");
    // The paper configures 10% compute-local memory for this figure.
    let db = Workload::Tpch(Ratio::Tenth);
    let local = runs.run(db, PlatformKind::Local, Push::Paper).tpch();
    let [base_t, tele_t] = [PlatformKind::BaseDdc, PlatformKind::Teleport]
        .map(|p| runs.run(db, p, Push::Paper).totals());

    let spark_cfg = DistConfig::new(4, DistProfile::StageMaterializing);
    let vertica_cfg = DistConfig::new(4, DistProfile::PipelinedMpp);

    let mut spark = Vec::new();
    let mut vertica = Vec::new();
    let mut base = Vec::new();
    let mut tele = Vec::new();
    for i in 0..3 {
        spark.push(cost_of_scaling(&local[i], &spark_cfg));
        vertica.push(cost_of_scaling(&local[i], &vertica_cfg));
        base.push(base_t[i].ratio(local[i].total()));
        tele.push(tele_t[i].ratio(local[i].total()));
    }
    let row = |system: &str, v: &[f64]| {
        let avg = v.iter().sum::<f64>() / v.len() as f64;
        let each = v.iter().map(|&x| fmt_x(x)).collect::<Vec<_>>();
        vec![system.to_string(), fmt_x(avg), each.join(" / ")]
    };
    out.table(
        &["system", "avg cost of scaling", "per query (Q9/Q3/Q6)"],
        &[
            row("SparkSQL (modeled)", &spark),
            row("Vertica (modeled)", &vertica),
            row("MonetDB (Base DDC)", &base),
            row("MonetDB (TELEPORT)", &tele),
        ],
    );
    out.line("Paper: SparkSQL 1.2x, Vertica 2.3x, Base DDC 5.4x, TELEPORT 1.8x.");
}

/// Fig 3 — DDC overhead vs a monolithic server for all eight workloads
/// (paper: slowdowns from 5× up to 52.4×).
pub fn fig3(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 3 — DDC performance overhead vs a monolithic server");
    let mut rows = Vec::new();
    for w in EIGHT {
        let [local, ddc] = [PlatformKind::Local, PlatformKind::BaseDdc]
            .map(|p| runs.run(w, p, Push::Nothing).totals());
        let (system, names) = w.labels();
        for (i, name) in names.iter().enumerate() {
            rows.push(vec![
                format!("{system} {name}"),
                fmt_t(local[i]),
                fmt_t(ddc[i]),
                fmt_x(ddc[i].ratio(local[i])),
            ]);
        }
    }
    out.table(&["workload", "local", "DDC", "slowdown"], &rows);
    out.line("Paper: slowdowns range from 5x to 52.4x.");
}
