//! The paper's TPC-H workload: `Q_filter` (§5.1's running example) and the
//! three most expensive TPC-H queries — Q9, Q3, Q6 — as hand-built physical
//! plans over the columnar operators.
//!
//! Each plan runs operator-at-a-time with per-operator instrumentation and
//! a [`PushdownPlan`] deciding which operators execute in the memory pool.
//! The "code change" for pushdown is exactly what the paper reports
//! (Fig 11): wrapping existing operator calls — here, passing the same
//! closure to `pushdown` instead of calling it inline.

use teleport::{Mem, Runtime};

use crate::db::Database;
use crate::exec::{aggregate, expr, hashjoin, mergejoin, project, select, sort, CandList};
use crate::report::{op, PushdownPlan, QueryReport};
use crate::types::Date;

/// Workload parameters (TPC-H defaults used by the paper's experiments).
#[derive(Debug, Clone)]
pub struct QueryParams {
    /// `Q_filter`: `shipdate < qfilter_date`.
    pub qfilter_date: Date,
    /// Q1: `shipdate <= DATE '1998-12-01' - INTERVAL q1_delta_days DAY`.
    pub q1_delta_days: i32,
    pub q3_segment: &'static str,
    pub q3_date: Date,
    pub q6_shipdate_lo: Date,
    pub q6_discount: (f64, f64),
    pub q6_quantity: f64,
    pub q9_color: &'static str,
}

impl Default for QueryParams {
    fn default() -> Self {
        QueryParams {
            qfilter_date: Date::from_ymd(1995, 9, 1),
            q1_delta_days: 90,
            q3_segment: "BUILDING",
            q3_date: Date::from_ymd(1995, 3, 15),
            q6_shipdate_lo: Date::from_ymd(1994, 1, 1),
            q6_discount: (0.05, 0.07),
            q6_quantity: 24.0,
            q9_color: "green",
        }
    }
}

/// A row of Q3's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Q3Row {
    pub orderkey: i64,
    pub revenue: f64,
    pub orderdate: i32,
    pub shippriority: i64,
}

/// A row of Q9's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Q9Row {
    pub nation: String,
    pub year: i32,
    pub profit: f64,
}

/// Operator names of each plan, in execution order. These are the units of
/// pushdown and the rows of the Fig 10 / Fig 18 breakdowns.
pub mod ops {
    pub const QFILTER: &[&str] = &["Selection", "Projection", "Aggregation"];
    pub const Q1: &[&str] = &["Selection", "GroupAggregate"];
    pub const Q6: &[&str] = &[
        "Selection(shipdate)",
        "Selection(discount)",
        "Selection(quantity)",
        "Projection",
        "Expression",
        "Aggregation",
    ];
    pub const Q3: &[&str] = &[
        "Selection(customer)",
        "Selection(orders)",
        "HashJoin(customer)",
        "Selection(lineitem)",
        "MergeJoin(orders)",
        "Projection",
        "Expression",
        "GroupAggregate",
    ];
    pub const Q9: &[&str] = &[
        "Selection",
        "Projection",
        "HashJoin(part)",
        "HashJoin(partsupp)",
        "HashJoin(supplier)",
        "MergeJoin(orders)",
        "Expression",
        "GroupAggregate",
    ];
}

/// `SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate < $DATE`
/// (the paper's `Q_filter`, §5.1).
pub fn q_filter(
    rt: &mut Runtime,
    db: &Database,
    plan: &PushdownPlan,
    params: &QueryParams,
) -> (f64, QueryReport) {
    let mut rep = QueryReport::new("Q_filter");
    let li = db.li;
    let bound = params.qfilter_date.raw();

    let cand = op(rt, &mut rep, plan, "Selection", move |m| {
        select::select_where(m, &li.shipdate, li.n, None, |d| d < bound)
    });
    rep.note_rows(cand.len as u64);

    let qty = op(rt, &mut rep, plan, "Projection", move |m| {
        let rows = cand.read(m);
        project::gather(m, &li.quantity, &rows)
    });
    rep.note_rows(cand.len as u64);

    let total = op(rt, &mut rep, plan, "Aggregation", move |m| {
        aggregate::sum_f64(m, &qty, cand.len, None)
    });
    rep.note_rows(1);

    (total, rep)
}

/// TPC-H Q1: the pricing summary report — a near-full scan with a grouped
/// multi-aggregate over `(l_returnflag, l_linestatus)`. Not one of the
/// paper's three headline queries, but the canonical columnar-scan
/// workload; included for engine completeness.
pub fn q1(
    rt: &mut Runtime,
    db: &Database,
    plan: &PushdownPlan,
    params: &QueryParams,
) -> (Vec<aggregate::Q1Group>, QueryReport) {
    let mut rep = QueryReport::new("Q1");
    let li = db.li;
    let bound = Date::from_ymd(1998, 12, 1)
        .plus_days(-params.q1_delta_days)
        .raw();

    let cand = op(rt, &mut rep, plan, "Selection", move |m| {
        select::select_where(m, &li.shipdate, li.n, None, |d| d <= bound)
    });
    rep.note_rows(cand.len as u64);

    let groups = op(rt, &mut rep, plan, "GroupAggregate", move |m| {
        let rows = cand.read(m);
        aggregate::group_q1(
            m,
            &li.returnflag,
            &li.linestatus,
            &li.quantity,
            &li.extendedprice,
            &li.discount,
            &li.tax,
            &rows,
        )
    });
    rep.note_rows(groups.len() as u64);

    (groups, rep)
}

/// TPC-H Q6: the forecast-revenue-change query.
pub fn q6(
    rt: &mut Runtime,
    db: &Database,
    plan: &PushdownPlan,
    params: &QueryParams,
) -> (f64, QueryReport) {
    let mut rep = QueryReport::new("Q6");
    let li = db.li;
    let lo = params.q6_shipdate_lo.raw();
    let hi = params.q6_shipdate_lo.plus_days(365).raw();
    let (dlo, dhi) = params.q6_discount;
    let qmax = params.q6_quantity;

    let c1 = op(rt, &mut rep, plan, "Selection(shipdate)", move |m| {
        select::select_where(m, &li.shipdate, li.n, None, |d| d >= lo && d < hi)
    });
    rep.note_rows(c1.len as u64);

    let c2 = op(rt, &mut rep, plan, "Selection(discount)", move |m| {
        select::select_where(m, &li.discount, li.n, Some(&c1), |d| {
            d >= dlo - 1e-9 && d <= dhi + 1e-9
        })
    });
    rep.note_rows(c2.len as u64);

    let c3 = op(rt, &mut rep, plan, "Selection(quantity)", move |m| {
        select::select_where(m, &li.quantity, li.n, Some(&c2), |q| q < qmax)
    });
    rep.note_rows(c3.len as u64);

    let (price, disc) = op(rt, &mut rep, plan, "Projection", move |m| {
        let rows = c3.read(m);
        let price = project::gather(m, &li.extendedprice, &rows);
        let disc = project::gather(m, &li.discount, &rows);
        (price, disc)
    });
    rep.note_rows(c3.len as u64);

    let product = op(rt, &mut rep, plan, "Expression", move |m| {
        expr::price_times_discount(m, &price, &disc, c3.len)
    });
    rep.note_rows(c3.len as u64);

    let total = op(rt, &mut rep, plan, "Aggregation", move |m| {
        aggregate::sum_f64(m, &product, c3.len, None)
    });
    rep.note_rows(1);

    (total, rep)
}

/// TPC-H Q3: shipping-priority query (top-10 undelivered orders by
/// revenue for one market segment).
pub fn q3(
    rt: &mut Runtime,
    db: &Database,
    plan: &PushdownPlan,
    params: &QueryParams,
) -> (Vec<Q3Row>, QueryReport) {
    let mut rep = QueryReport::new("Q3");
    let li = db.li;
    let ord = db.ord;
    let cust = db.cust;
    let seg_code = db
        .segments
        .code_of(params.q3_segment)
        .expect("segment exists");
    let date = params.q3_date.raw();

    // 1. Customers in the segment.
    let cand_c = op(rt, &mut rep, plan, "Selection(customer)", move |m| {
        select::select_where(m, &cust.mktsegment, cust.n, None, |s| s == seg_code)
    });
    rep.note_rows(cand_c.len as u64);

    // 2. Orders placed before the date.
    let cand_o = op(rt, &mut rep, plan, "Selection(orders)", move |m| {
        select::select_where(m, &ord.orderdate, ord.n, None, |d| d < date)
    });
    rep.note_rows(cand_o.len as u64);

    // 3. orders ⋈ customer on custkey (hash join; inner = customers).
    let surviving_orders = op(rt, &mut rep, plan, "HashJoin(customer)", move |m| {
        let crow = cand_c.read(m);
        let ckeys = project::gather_host(m, &cust.custkey, &crow);
        let idx = hashjoin::HashIndex::build(m, &ckeys, &crow);
        let orows = cand_o.read(m);
        let okeys = project::gather_host(m, &ord.custkey, &orows);
        let keep: Vec<u32> = idx
            .probe_all(m, &okeys)
            .into_iter()
            .map(|(i, _)| orows[i as usize])
            .collect();
        CandList::materialize(m, &keep)
    });
    rep.note_rows(surviving_orders.len as u64);

    // 4. Lineitems shipped after the date.
    let cand_l = op(rt, &mut rep, plan, "Selection(lineitem)", move |m| {
        select::select_where(m, &li.shipdate, li.n, None, |d| d > date)
    });
    rep.note_rows(cand_l.len as u64);

    // 5. lineitem ⋈ orders on orderkey (both clustered: merge join),
    //    keeping only orders that survived step 3.
    let (li_rows, ord_rows) = op(rt, &mut rep, plan, "MergeJoin(orders)", move |m| {
        let lrows = cand_l.read(m);
        let lkeys = project::gather_host(m, &li.orderkey, &lrows);
        let joined = mergejoin::merge_join(m, &lkeys, &ord.orderkey, ord.n);
        let mut keep = vec![false; ord.n];
        for orow in surviving_orders.read(m) {
            keep[orow as usize] = true;
        }
        let mut li_rows: Vec<u32> = Vec::new();
        let mut ord_rows: Vec<u32> = Vec::new();
        for (i, j) in joined.iter().enumerate() {
            if let Some(orow) = j {
                if keep[*orow as usize] {
                    li_rows.push(lrows[i]);
                    ord_rows.push(*orow);
                }
            }
        }
        (li_rows, ord_rows)
    });
    rep.note_rows(li_rows.len() as u64);
    let n_pairs = li_rows.len();

    // 6. Projection: revenue inputs + grouping keys.
    let li_rows2 = li_rows.clone();
    let ord_rows2 = ord_rows.clone();
    let (price, disc, okey_col) = op(rt, &mut rep, plan, "Projection", move |m| {
        let price = project::gather(m, &li.extendedprice, &li_rows2);
        let disc = project::gather(m, &li.discount, &li_rows2);
        let okey = project::gather(m, &ord.orderkey, &ord_rows2);
        (price, disc, okey)
    });
    rep.note_rows(n_pairs as u64);

    // 7. revenue = extendedprice * (1 - discount).
    let revenue = op(rt, &mut rep, plan, "Expression", move |m| {
        expr::revenue(m, &price, &disc, n_pairs)
    });
    rep.note_rows(n_pairs as u64);

    // 8. Group by order, then top-10 by revenue.
    let rows = op(rt, &mut rep, plan, "GroupAggregate", move |m| {
        let groups = aggregate::group_sum_by_key(m, &okey_col, &revenue, n_pairs);
        // Attach o_orderdate / o_shippriority (functionally dependent).
        let ork: Vec<u32> = ord_rows.clone();
        let okeys = project::gather_host(m, &ord.orderkey, &ork);
        let odates = project::gather_host(m, &ord.orderdate, &ork);
        let oprios = project::gather_host(m, &ord.shippriority, &ork);
        let mut meta = std::collections::HashMap::new();
        for i in 0..ork.len() {
            meta.insert(okeys[i], (odates[i], oprios[i]));
        }
        let items: Vec<(f64, (i64, i32, i64))> = groups
            .into_iter()
            .map(|(k, rev)| {
                let (d, p) = meta[&k];
                (rev, (k, d, p))
            })
            .collect();
        let top = sort::topk_desc_f64(m, items, 10, |a, b| a.0.cmp(&b.0));
        top.into_iter()
            .map(|(rev, (k, d, p))| Q3Row {
                orderkey: k,
                revenue: rev,
                orderdate: d,
                shippriority: p,
            })
            .collect::<Vec<_>>()
    });
    rep.note_rows(rows.len() as u64);

    (rows, rep)
}

/// TPC-H Q9: product-type profit measure — the paper's most expensive
/// query (52.4× slowdown unmodified on a DDC) and its Fig 10 / Fig 18
/// case study. Eight operators.
pub fn q9(
    rt: &mut Runtime,
    db: &Database,
    plan: &PushdownPlan,
    params: &QueryParams,
) -> (Vec<Q9Row>, QueryReport) {
    let mut rep = QueryReport::new("Q9");
    let li = db.li;
    let ord = db.ord;
    let part = db.part;
    let supp = db.supp;
    let ps = db.ps;
    let color = db.colors.code_of(params.q9_color).expect("color exists");

    // 1. Parts whose name contains the color.
    let cand_p = op(rt, &mut rep, plan, "Selection", move |m| {
        select::select_name_contains(m, &part.name, part.n, color)
    });
    rep.note_rows(cand_p.len as u64);

    // 2. Projection: materialize lineitem's six join/value columns. In a
    //    DDC this is the single largest data movement of the query
    //    (Fig 10's 189 GB bar).
    let proj = op(rt, &mut rep, plan, "Projection", move |m| {
        (
            project::copy_column(m, &li.partkey, li.n),
            project::copy_column(m, &li.suppkey, li.n),
            project::copy_column(m, &li.orderkey, li.n),
            project::copy_column(m, &li.quantity, li.n),
            project::copy_column(m, &li.extendedprice, li.n),
            project::copy_column(m, &li.discount, li.n),
        )
    });
    rep.note_rows(li.n as u64);
    let (pk_col, sk_col, ok_col, qty_col, price_col, disc_col) = proj;

    // 3. lineitem ⋉ green parts (hash semi-join on partkey).
    let cand1 = op(rt, &mut rep, plan, "HashJoin(part)", move |m| {
        let prow = cand_p.read(m);
        let pkeys = project::gather_host(m, &part.partkey, &prow);
        let idx = hashjoin::HashIndex::build(m, &pkeys, &prow);
        let mut keep: Vec<u32> = Vec::new();
        let chunk = 16_384;
        let mut buf: Vec<i64> = Vec::new();
        let mut base = 0usize;
        while base < li.n {
            let take = chunk.min(li.n - base);
            buf.clear();
            m.read_range(&pk_col, base, take, &mut buf);
            let hits = idx.probe_all(m, &buf);
            keep.extend(hits.into_iter().map(|(i, _)| base as u32 + i));
            base += take;
        }
        CandList::materialize(m, &keep)
    });
    rep.note_rows(cand1.len as u64);

    // 4. ⋈ partsupp on (partkey, suppkey) to fetch supplycost.
    let cost_col = op(rt, &mut rep, plan, "HashJoin(partsupp)", move |m| {
        let mut ps_pk: Vec<i64> = Vec::new();
        let mut ps_sk: Vec<i64> = Vec::new();
        m.read_range(&ps.partkey, 0, ps.n, &mut ps_pk);
        m.read_range(&ps.suppkey, 0, ps.n, &mut ps_sk);
        let keys: Vec<i64> = ps_pk
            .iter()
            .zip(&ps_sk)
            .map(|(&p, &s)| hashjoin::composite_key(p, s))
            .collect();
        let rows: Vec<u32> = (0..ps.n as u32).collect();
        let idx = hashjoin::HashIndex::build(m, &keys, &rows);

        let lrows = cand1.read(m);
        let mut probe_keys = project::gather_host(m, &pk_col, &lrows);
        let lsk = project::gather_host(m, &sk_col, &lrows);
        for (key, &s) in probe_keys.iter_mut().zip(&lsk) {
            *key = hashjoin::composite_key(*key, s);
        }
        let ps_rows = every_row(idx.probe_all(m, &probe_keys), lrows.len(), "partsupp");
        project::gather(m, &ps.supplycost, &ps_rows)
    });
    rep.note_rows(cand1.len as u64);

    // 5. ⋈ supplier on suppkey to fetch nationkey.
    let nation_col = op(rt, &mut rep, plan, "HashJoin(supplier)", move |m| {
        let skeys: Vec<i64> = {
            let mut v = Vec::new();
            m.read_range(&supp.suppkey, 0, supp.n, &mut v);
            v
        };
        let rows: Vec<u32> = (0..supp.n as u32).collect();
        let idx = hashjoin::HashIndex::build(m, &skeys, &rows);
        let lrows = cand1.read(m);
        let lsk = project::gather_host(m, &sk_col, &lrows);
        let srow = every_row(idx.probe_all(m, &lsk), lrows.len(), "supplier");
        project::gather(m, &supp.nationkey, &srow)
    });
    rep.note_rows(cand1.len as u64);

    // 6. ⋈ orders on orderkey (merge join; both sides clustered).
    let odate_col = op(rt, &mut rep, plan, "MergeJoin(orders)", move |m| {
        let lrows = cand1.read(m);
        let lok = project::gather_host(m, &ok_col, &lrows);
        let joined = mergejoin::merge_join(m, &lok, &ord.orderkey, ord.n);
        let orow: Vec<u32> = joined
            .into_iter()
            .map(|j| j.expect("order exists"))
            .collect();
        project::gather(m, &ord.orderdate, &orow)
    });
    rep.note_rows(cand1.len as u64);

    // 7. amount = extendedprice*(1-discount) - supplycost*quantity.
    let n1 = cand1.len;
    let amount_col = op(rt, &mut rep, plan, "Expression", move |m| {
        let lrows = cand1.read(m);
        let price = project::gather(m, &price_col, &lrows);
        let disc = project::gather(m, &disc_col, &lrows);
        let qty = project::gather(m, &qty_col, &lrows);
        expr::q9_amount(m, &price, &disc, &cost_col, &qty, n1)
    });
    rep.note_rows(n1 as u64);

    // 8. Group by (nation, year), order nation asc / year desc.
    let groups = op(rt, &mut rep, plan, "GroupAggregate", move |m| {
        aggregate::group_sum_nation_year(m, &nation_col, &odate_col, &amount_col, n1)
    });
    rep.note_rows(groups.len() as u64);

    let mut rows: Vec<Q9Row> = groups
        .into_iter()
        .map(|((nk, year), profit)| Q9Row {
            nation: db.nation_name[nk as usize].clone(),
            year,
            profit,
        })
        .collect();
    // Output order per the query: n_name asc, o_year desc.
    rows.sort_by(|a, b| a.nation.cmp(&b.nation).then(b.year.cmp(&a.year)));
    (rows, rep)
}

/// The inner row of each of `probes` probes, every one of which must match:
/// the join follows a foreign key, whose row referential integrity
/// guarantees.
fn every_row(hits: Vec<(u32, u32)>, probes: usize, inner: &str) -> Vec<u32> {
    assert_eq!(
        hits.len(),
        probes,
        "referential integrity: every probe finds its {inner} row"
    );
    hits.into_iter().map(|(_, row)| row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::TpchData;
    use ddc_sim::DdcConfig;

    fn setup() -> (Runtime, Database, TpchData) {
        let data = TpchData::generate(0.002, 42);
        let mut rt = Runtime::teleport(DdcConfig {
            compute_cache_bytes: 64 << 10,
            memory_pool_bytes: 512 << 20,
            ..Default::default()
        });
        let db = Database::load(&mut rt, &data);
        rt.drop_cache();
        rt.begin_timing();
        (rt, db, data)
    }

    #[test]
    fn qfilter_reports_three_ops() {
        let (mut rt, db, _) = setup();
        let params = QueryParams::default();
        let (total, rep) = q_filter(&mut rt, &db, &PushdownPlan::none(), &params);
        assert!(total > 0.0);
        let names: Vec<_> = rep.ops.iter().map(|o| o.name).collect();
        assert_eq!(names, ops::QFILTER);
        assert!(rep.total() > ddc_sim::SimDuration::ZERO);
    }

    #[test]
    fn q9_reports_eight_ops_in_order() {
        let (mut rt, db, _) = setup();
        let params = QueryParams::default();
        let (rows, rep) = q9(&mut rt, &db, &PushdownPlan::none(), &params);
        assert!(!rows.is_empty());
        let names: Vec<_> = rep.ops.iter().map(|o| o.name).collect();
        assert_eq!(names, ops::Q9);
        // Output order: nation asc, year desc.
        for w in rows.windows(2) {
            assert!(
                w[0].nation < w[1].nation || (w[0].nation == w[1].nation && w[0].year > w[1].year)
            );
        }
    }

    #[test]
    fn pushdown_does_not_change_results() {
        let (mut rt, db, _) = setup();
        let params = QueryParams::default();
        let (r_none, _) = q6(&mut rt, &db, &PushdownPlan::none(), &params);
        let (r_all, _) = q6(&mut rt, &db, &PushdownPlan::of(ops::Q6), &params);
        assert!((r_none - r_all).abs() < 1e-6, "{r_none} vs {r_all}");

        let (q3_none, _) = q3(&mut rt, &db, &PushdownPlan::none(), &params);
        let (q3_all, _) = q3(&mut rt, &db, &PushdownPlan::of(ops::Q3), &params);
        assert_eq!(q3_none.len(), q3_all.len());
        for (a, b) in q3_none.iter().zip(&q3_all) {
            assert_eq!(a.orderkey, b.orderkey);
            assert!((a.revenue - b.revenue).abs() < 1e-6);
        }
    }

    #[test]
    fn q3_limits_to_ten() {
        let (mut rt, db, _) = setup();
        let (rows, rep) = q3(&mut rt, &db, &PushdownPlan::none(), &QueryParams::default());
        assert!(rows.len() <= 10);
        assert!(!rows.is_empty());
        // Revenue is descending.
        for w in rows.windows(2) {
            assert!(w[0].revenue >= w[1].revenue);
        }
        assert_eq!(rep.ops.len(), ops::Q3.len());
    }
}
