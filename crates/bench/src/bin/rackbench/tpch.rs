//! `tpch` — the paper's headline experiment: memdb Q9 + Q3 + Q6 at a 2 %
//! compute cache on Local, BaseDdc and Teleport, the Teleport plan pushing
//! each query's top-4 operators ranked by memory intensity on the BaseDdc
//! run (§7.4, as `figs::db_three_way`). Read-mostly and ≥ 90 % compute-cache
//! hits: the cache-hit path does the work, the pushdown path almost none.

use std::collections::BTreeMap;

use memdb::{
    oracle, q3, q6, q9, Database, PushdownPlan, Q3Row, Q9Row, QueryParams, QueryReport, TpchData,
};
use teleport::{PlatformKind, Runtime};

use crate::span::Spans;
use crate::workload::{close, model_metrics, Ctx, Job, Workload, PLATFORMS};

/// Scale factor: sf 0.2 is ≈ 1.2 M lineitem rows and a ≈ 106 MB working set.
const SF: f64 = 0.2;
const SMOKE_SF: f64 = 0.002;
/// Operators pushed per query on the Teleport leg.
const K_PUSH: usize = 4;
/// Fig 13 speedups over the base DDC, in query order Q9, Q3, Q6.
const PAPER_SPEEDUP: [f64; 3] = [29.1, 3.2, 3.8];
const QUERIES: [&str; 3] = ["memdb.q9", "memdb.q3", "memdb.q6"];

pub struct Input {
    data: TpchData,
    params: QueryParams,
    q9: Vec<Q9Row>,
    q3: Vec<Q3Row>,
    q6: f64,
}

pub struct Tpch;

/// Run the three queries on a loaded runtime; a query whose result differs
/// from the oracle fails every lineitem row it scanned.
fn run_queries(
    rt: &mut Runtime,
    db: &Database,
    plans: &[PushdownPlan; 3],
    input: &Input,
    ctx: &mut Ctx<'_>,
) -> [QueryReport; 3] {
    let p = &input.params;
    let rows_per_query = input.data.lineitem.len() as u64;
    let (rows, r9) = ctx.span(QUERIES[0], |_| q9(rt, db, &plans[0], p));
    let ok = rows.len() == input.q9.len()
        && rows
            .iter()
            .zip(&input.q9)
            .all(|(g, e)| g.nation == e.nation && g.year == e.year && close(g.profit, e.profit));
    ctx.check(ok, rows_per_query);
    let (rows, r3) = ctx.span(QUERIES[1], |_| q3(rt, db, &plans[1], p));
    let ok = rows.len() == input.q3.len()
        && rows.iter().zip(&input.q3).all(|(g, e)| {
            g.orderkey == e.orderkey
                && close(g.revenue, e.revenue)
                && g.orderdate == e.orderdate
                && g.shippriority == e.shippriority
        });
    ctx.check(ok, rows_per_query);
    let (sum, r6) = ctx.span(QUERIES[2], |_| q6(rt, db, &plans[2], p));
    ctx.check(close(sum, input.q6), rows_per_query);
    [r9, r3, r6]
}

impl Workload for Tpch {
    const NAME: &'static str = "tpch";
    type Input = Input;

    fn generate(seed: u64, smoke: bool, spans: &mut Spans) -> Input {
        let sf = if smoke { SMOKE_SF } else { SF };
        let data = spans.span("memdb.generate", |_| TpchData::generate(sf, seed));
        let params = QueryParams::default();
        let (q9, q3, q6) = spans.span("memdb.oracle", |_| {
            (
                oracle::q9(&data, &params),
                oracle::q3(&data, &params),
                oracle::q6(&data, &params),
            )
        });
        Input {
            data,
            params,
            q9,
            q3,
            q6,
        }
    }

    /// Lineitem rows × 9 query runs (3 queries × 3 platforms).
    fn ops(input: &Input) -> u64 {
        input.data.lineitem.len() as u64 * 9
    }

    fn iterate(input: &Input, ctx: &mut Ctx<'_>) -> BTreeMap<&'static str, f64> {
        let ws = input.data.working_set_bytes();
        let mut reports: Vec<[QueryReport; 3]> = Vec::new();
        for kind in PLATFORMS {
            let plans = match kind {
                PlatformKind::Teleport => {
                    let base = &reports[1];
                    [0, 1, 2].map(|q| PushdownPlan::top_k(&base[q].rank_by_intensity(), K_PUSH))
                }
                _ => [0, 1, 2].map(|_| PushdownPlan::none()),
            };
            let reps = ctx.on_platform(kind, ws, |rt, ctx| {
                let db = ctx.span("memdb.load", |_| Database::load(rt, &input.data));
                ctx.cold_start(rt);
                run_queries(rt, &db, &plans, input, ctx)
            });
            reports.push(reps);
        }
        let jobs: Vec<Job> = (0..3)
            .map(|q| Job {
                paper_speedup: PAPER_SPEEDUP[q],
                local: reports[0][q].total(),
                base: reports[1][q].total(),
                tele: reports[2][q].total(),
            })
            .collect();
        model_metrics(&jobs)
    }
}
