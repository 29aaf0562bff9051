//! The extended TPC-H suite (beyond the paper's figures): the remaining
//! implemented queries on all three platforms, with the automatic
//! threshold planner choosing the pushdown set.

use ddc_sim::SimDuration;
use memdb::queries_ext::ExtParams;
use memdb::{q1, q10, q12, q4, q5, q_filter, Database, PushdownPlan, QueryParams, QueryReport};
use teleport::{PlatformKind, Runtime};

use crate::{figs::RunTable, fmt_t, fmt_x, load_db, runtime_for, Out, CACHE_RATIO};

fn run_one(
    name: &str,
    rt: &mut Runtime,
    db: &Database,
    plan: &PushdownPlan,
    p: &QueryParams,
    e: &ExtParams,
) -> QueryReport {
    match name {
        "Q_filter" => q_filter(rt, db, plan, p).1,
        "Q1" => q1(rt, db, plan, p).1,
        "Q4" => q4(rt, db, plan, e).1,
        "Q5" => q5(rt, db, plan, e).1,
        "Q10" => q10(rt, db, plan, e).1,
        "Q12" => q12(rt, db, plan, e).1,
        other => unreachable!("unknown query {other}"),
    }
}

/// The full extended suite, three ways, with auto-planned pushdown.
pub fn suite(runs: &mut RunTable, out: &mut Out) {
    out.section("Extended suite — remaining TPC-H queries (auto-planned pushdown)");
    let data = runs.tpch(runs.scale().sf);
    let ws = data.working_set_bytes();
    let p = QueryParams::default();
    let e = ExtParams::default();
    let queries = ["Q_filter", "Q1", "Q4", "Q5", "Q10", "Q12"];

    let mut rows = Vec::new();
    let mut totals = [SimDuration::ZERO; 3];
    for name in queries {
        let mut local_rt = runtime_for(PlatformKind::Local, ws, CACHE_RATIO);
        let db = load_db(&mut local_rt, data);
        let local = run_one(name, &mut local_rt, &db, &PushdownPlan::none(), &p, &e);

        let mut base_rt = runtime_for(PlatformKind::BaseDdc, ws, CACHE_RATIO);
        let db = load_db(&mut base_rt, data);
        let base = run_one(name, &mut base_rt, &db, &PushdownPlan::none(), &p, &e);

        let plan = PushdownPlan::auto(base.units(), PushdownPlan::PAPER_THRESHOLD_RM_S);
        let pushed = plan.len();
        let mut tele_rt = runtime_for(PlatformKind::Teleport, ws, CACHE_RATIO);
        let db = load_db(&mut tele_rt, data);
        let tele = run_one(name, &mut tele_rt, &db, &plan, &p, &e);

        totals[0] += local.total();
        totals[1] += base.total();
        totals[2] += tele.total();
        rows.push(vec![
            name.to_string(),
            fmt_t(local.total()),
            fmt_t(base.total()),
            format!("{} ({pushed} ops pushed)", fmt_t(tele.total())),
            fmt_x(base.total().ratio(tele.total())),
        ]);
    }
    rows.push(vec![
        "suite total".into(),
        fmt_t(totals[0]),
        fmt_t(totals[1]),
        fmt_t(totals[2]),
        fmt_x(totals[1].ratio(totals[2])),
    ]);
    out.table(
        &["query", "local", "Base DDC", "TELEPORT (auto)", "speedup"],
        &rows,
    );
    out.line(
        "Beyond the paper's Q9/Q3/Q6: the 80K RM/s planner generalizes across the \
         implemented suite without per-query tuning.",
    );
}
