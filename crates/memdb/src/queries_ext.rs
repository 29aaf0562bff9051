//! The extended TPC-H suite: Q4, Q5, Q10, Q12.
//!
//! The paper's evaluation centers on Q9/Q3/Q6 (its three most expensive
//! queries) plus `Q_filter`; these additional plans exercise the remaining
//! operator combinations — EXISTS semi-joins, region-constrained
//! multi-joins, returned-items analysis, and two-column predicates — so the
//! engine covers the workload a downstream user would actually run.

use std::collections::{HashMap, HashSet};

use teleport::{Mem, Runtime};

use crate::db::Database;
use crate::exec::{aggregate, expr, hashjoin, mergejoin, project, select, sort};
use crate::report::{op, PushdownPlan, QueryReport};
use crate::types::Date;

/// Extra parameters for the extended suite (TPC-H defaults).
#[derive(Debug, Clone)]
pub struct ExtParams {
    /// Q4: orders placed in `[q4_date, q4_date + 3 months)`.
    pub q4_date: Date,
    /// Q5: region name and one-year order window start.
    pub q5_region: &'static str,
    pub q5_date: Date,
    /// Q10: quarter start for returned-items analysis.
    pub q10_date: Date,
    /// Q12: the two ship modes and the receipt year.
    pub q12_modes: (&'static str, &'static str),
    pub q12_date: Date,
}

impl Default for ExtParams {
    fn default() -> Self {
        ExtParams {
            q4_date: Date::from_ymd(1993, 7, 1),
            q5_region: "ASIA",
            q5_date: Date::from_ymd(1994, 1, 1),
            q10_date: Date::from_ymd(1993, 10, 1),
            q12_modes: ("MAIL", "SHIP"),
            q12_date: Date::from_ymd(1994, 1, 1),
        }
    }
}

/// Operator lists of the extended plans (pushdown units).
pub mod ops_ext {
    pub const Q4: &[&str] = &[
        "Selection(orders)",
        "Selection(lineitem)",
        "MergeJoin(orders)",
        "GroupAggregate",
    ];
    pub const Q5: &[&str] = &[
        "Selection(orders)",
        "MergeJoin(orders)",
        "HashJoin(supplier)",
        "HashJoin(customer)",
        "Expression",
        "GroupAggregate",
    ];
    pub const Q10: &[&str] = &[
        "Selection(orders)",
        "Selection(lineitem)",
        "MergeJoin(orders)",
        "HashJoin(customer)",
        "Expression",
        "GroupAggregate",
    ];
    pub const Q12: &[&str] = &[
        "Selection(shipmode)",
        "Selection(dates)",
        "MergeJoin(orders)",
        "GroupAggregate",
    ];
}

/// TPC-H Q4: order-priority checking — orders of a quarter with at least
/// one late-committed lineitem, counted per priority.
pub fn q4(
    rt: &mut Runtime,
    db: &Database,
    plan: &PushdownPlan,
    params: &ExtParams,
) -> (Vec<(String, u64)>, QueryReport) {
    let mut rep = QueryReport::new("Q4");
    let li = db.li;
    let ord = db.ord;
    let lo = params.q4_date.raw();
    let hi = params.q4_date.plus_days(92).raw();

    let cand_o = op(rt, &mut rep, plan, "Selection(orders)", move |m| {
        select::select_where(m, &ord.orderdate, ord.n, None, |d| d >= lo && d < hi)
    });
    rep.note_rows(cand_o.len as u64);

    let cand_l = op(rt, &mut rep, plan, "Selection(lineitem)", move |m| {
        select::select_where2(m, &li.commitdate, &li.receiptdate, li.n, None, |c, r| c < r)
    });
    rep.note_rows(cand_l.len as u64);

    // EXISTS: distinct orders (within the window) having a late lineitem.
    let matching_orders = op(rt, &mut rep, plan, "MergeJoin(orders)", move |m| {
        let lrows = cand_l.read(m);
        let lkeys = project::gather_host(m, &li.orderkey, &lrows);
        let joined = mergejoin::merge_join(m, &lkeys, &ord.orderkey, ord.n);
        let window: HashSet<u32> = cand_o.read(m).into_iter().collect();
        let mut distinct: Vec<u32> = joined
            .into_iter()
            .flatten()
            .filter(|r| window.contains(r))
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        distinct
    });
    rep.note_rows(matching_orders.len() as u64);

    let counts = op(rt, &mut rep, plan, "GroupAggregate", move |m| {
        let prios = project::gather_host(m, &ord.orderpriority, &matching_orders);
        m.charge_cycles(crate::exec::cost::GROUP * prios.len() as u64);
        let mut counts: HashMap<u8, u64> = HashMap::new();
        for p in prios {
            *counts.entry(p).or_insert(0) += 1;
        }
        let mut out: Vec<(u8, u64)> = counts.into_iter().collect();
        out.sort_unstable_by_key(|&(p, _)| p);
        out
    });
    rep.note_rows(counts.len() as u64);

    let named = counts
        .into_iter()
        .map(|(p, c)| (db.priorities.decode(p).to_string(), c))
        .collect();
    (named, rep)
}

/// TPC-H Q5: local-supplier volume — revenue from lineitems where customer
/// and supplier share a nation inside one region, grouped by nation.
pub fn q5(
    rt: &mut Runtime,
    db: &Database,
    plan: &PushdownPlan,
    params: &ExtParams,
) -> (Vec<(String, f64)>, QueryReport) {
    let mut rep = QueryReport::new("Q5");
    let li = db.li;
    let ord = db.ord;
    let supp = db.supp;
    let cust = db.cust;
    let lo = params.q5_date.raw();
    let hi = params.q5_date.plus_days(365).raw();
    let region_key = db
        .region_name
        .iter()
        .position(|r| r == params.q5_region)
        .expect("region exists") as i64;
    let region_nations: HashSet<i64> = db
        .nation_region
        .iter()
        .enumerate()
        .filter(|(_, &r)| r == region_key)
        .map(|(nk, _)| nk as i64)
        .collect();

    let cand_o = op(rt, &mut rep, plan, "Selection(orders)", move |m| {
        select::select_where(m, &ord.orderdate, ord.n, None, |d| d >= lo && d < hi)
    });
    rep.note_rows(cand_o.len as u64);

    // lineitem ⋈ orders (both clustered on orderkey).
    let (li_rows, ord_rows) = op(rt, &mut rep, plan, "MergeJoin(orders)", move |m| {
        let mut lkeys: Vec<i64> = Vec::new();
        m.read_range(&li.orderkey, 0, li.n, &mut lkeys);
        let joined = mergejoin::merge_join(m, &lkeys, &ord.orderkey, ord.n);
        let window: HashSet<u32> = cand_o.read(m).into_iter().collect();
        let mut li_rows = Vec::new();
        let mut ord_rows = Vec::new();
        for (i, j) in joined.into_iter().enumerate() {
            if let Some(orow) = j {
                if window.contains(&orow) {
                    li_rows.push(i as u32);
                    ord_rows.push(orow);
                }
            }
        }
        (li_rows, ord_rows)
    });
    rep.note_rows(li_rows.len() as u64);

    // ⋈ supplier: nationkey, filtered to the region.
    let region_nations2 = region_nations.clone();
    let li_rows2 = li_rows.clone();
    let ord_rows2 = ord_rows.clone();
    let (li_rows, ord_rows, s_nations) = op(rt, &mut rep, plan, "HashJoin(supplier)", move |m| {
        let mut skeys: Vec<i64> = Vec::new();
        m.read_range(&supp.suppkey, 0, supp.n, &mut skeys);
        let rows: Vec<u32> = (0..supp.n as u32).collect();
        let idx = hashjoin::HashIndex::build(m, &skeys, &rows);
        let lsk = project::gather_host(m, &li.suppkey, &li_rows2);
        let mut out_li = Vec::new();
        let mut out_ord = Vec::new();
        let mut out_nation = Vec::new();
        for i in 0..li_rows2.len() {
            let srow = idx.probe(m, lsk[i]).expect("supplier exists");
            let nk = m.get(&supp.nationkey, srow as usize, ddc_os::Pattern::Rand);
            if region_nations2.contains(&nk) {
                out_li.push(li_rows2[i]);
                out_ord.push(ord_rows2[i]);
                out_nation.push(nk);
            }
        }
        (out_li, out_ord, out_nation)
    });
    rep.note_rows(li_rows.len() as u64);

    // ⋈ customer: keep pairs where the customer's nation equals the
    // supplier's (the query's "local supplier" condition).
    let li_rows3 = li_rows.clone();
    let s_nations2 = s_nations.clone();
    let (li_rows, s_nations) = op(rt, &mut rep, plan, "HashJoin(customer)", move |m| {
        let mut ckeys: Vec<i64> = Vec::new();
        m.read_range(&cust.custkey, 0, cust.n, &mut ckeys);
        let rows: Vec<u32> = (0..cust.n as u32).collect();
        let idx = hashjoin::HashIndex::build(m, &ckeys, &rows);
        let ock = project::gather_host(m, &ord.custkey, &ord_rows);
        let mut out_li = Vec::new();
        let mut out_nation = Vec::new();
        for i in 0..li_rows3.len() {
            let crow = idx.probe(m, ock[i]).expect("customer exists");
            let cnk = m.get(&cust.nationkey, crow as usize, ddc_os::Pattern::Rand);
            if cnk == s_nations2[i] {
                out_li.push(li_rows3[i]);
                out_nation.push(cnk);
            }
        }
        (out_li, out_nation)
    });
    rep.note_rows(li_rows.len() as u64);

    let n_pairs = li_rows.len();
    let revenue = op(rt, &mut rep, plan, "Expression", move |m| {
        let price = project::gather(m, &li.extendedprice, &li_rows);
        let disc = project::gather(m, &li.discount, &li_rows);
        expr::revenue(m, &price, &disc, n_pairs)
    });
    rep.note_rows(n_pairs as u64);

    let groups = op(rt, &mut rep, plan, "GroupAggregate", move |m| {
        let nation_col = m.alloc_region_from(&s_nations);
        aggregate::group_sum_by_key(m, &nation_col, &revenue, n_pairs)
    });
    rep.note_rows(groups.len() as u64);

    // Output order: revenue descending.
    let mut named: Vec<(String, f64)> = groups
        .into_iter()
        .map(|(nk, rev)| (db.nation_name[nk as usize].clone(), rev))
        .collect();
    named.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    (named, rep)
}

/// A row of Q10's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Q10Row {
    pub custkey: i64,
    pub revenue: f64,
    pub nation: String,
}

/// TPC-H Q10: returned-item reporting — top-20 customers by lost revenue
/// from returned items in one quarter.
pub fn q10(
    rt: &mut Runtime,
    db: &Database,
    plan: &PushdownPlan,
    params: &ExtParams,
) -> (Vec<Q10Row>, QueryReport) {
    let mut rep = QueryReport::new("Q10");
    let li = db.li;
    let ord = db.ord;
    let cust = db.cust;
    let lo = params.q10_date.raw();
    let hi = params.q10_date.plus_days(92).raw();

    let cand_o = op(rt, &mut rep, plan, "Selection(orders)", move |m| {
        select::select_where(m, &ord.orderdate, ord.n, None, |d| d >= lo && d < hi)
    });
    rep.note_rows(cand_o.len as u64);

    let cand_l = op(rt, &mut rep, plan, "Selection(lineitem)", move |m| {
        select::select_where(m, &li.returnflag, li.n, None, |f| f == b'R')
    });
    rep.note_rows(cand_l.len as u64);

    let (li_rows, ord_rows) = op(rt, &mut rep, plan, "MergeJoin(orders)", move |m| {
        let lrows = cand_l.read(m);
        let lkeys = project::gather_host(m, &li.orderkey, &lrows);
        let joined = mergejoin::merge_join(m, &lkeys, &ord.orderkey, ord.n);
        let window: HashSet<u32> = cand_o.read(m).into_iter().collect();
        let mut li_out = Vec::new();
        let mut ord_out = Vec::new();
        for (i, j) in joined.into_iter().enumerate() {
            if let Some(orow) = j {
                if window.contains(&orow) {
                    li_out.push(lrows[i]);
                    ord_out.push(orow);
                }
            }
        }
        (li_out, ord_out)
    });
    rep.note_rows(li_rows.len() as u64);

    let (custkeys, c_nations) = op(rt, &mut rep, plan, "HashJoin(customer)", move |m| {
        let mut ckeys: Vec<i64> = Vec::new();
        m.read_range(&cust.custkey, 0, cust.n, &mut ckeys);
        let rows: Vec<u32> = (0..cust.n as u32).collect();
        let idx = hashjoin::HashIndex::build(m, &ckeys, &rows);
        let ock = project::gather_host(m, &ord.custkey, &ord_rows);
        let mut nations = Vec::with_capacity(ock.len());
        for &ck in &ock {
            let crow = idx.probe(m, ck).expect("customer exists");
            nations.push(m.get(&cust.nationkey, crow as usize, ddc_os::Pattern::Rand));
        }
        (ock, nations)
    });
    rep.note_rows(custkeys.len() as u64);

    let n_pairs = li_rows.len();
    let revenue = op(rt, &mut rep, plan, "Expression", move |m| {
        let price = project::gather(m, &li.extendedprice, &li_rows);
        let disc = project::gather(m, &li.discount, &li_rows);
        expr::revenue(m, &price, &disc, n_pairs)
    });
    rep.note_rows(n_pairs as u64);

    let rows = op(rt, &mut rep, plan, "GroupAggregate", move |m| {
        let key_col = m.alloc_region_from(&custkeys);
        let groups = aggregate::group_sum_by_key(m, &key_col, &revenue, n_pairs);
        let nation_of: HashMap<i64, i64> = custkeys
            .iter()
            .zip(&c_nations)
            .map(|(&c, &n)| (c, n))
            .collect();
        let items: Vec<(f64, i64)> = groups.into_iter().map(|(k, r)| (r, k)).collect();
        let top = sort::topk_desc_f64(m, items, 20, |a, b| a.cmp(b));
        top.into_iter()
            .map(|(rev, ck)| (ck, rev, nation_of[&ck]))
            .collect::<Vec<_>>()
    });
    rep.note_rows(rows.len() as u64);

    let named = rows
        .into_iter()
        .map(|(ck, rev, nk)| Q10Row {
            custkey: ck,
            revenue: rev,
            nation: db.nation_name[nk as usize].clone(),
        })
        .collect();
    (named, rep)
}

/// TPC-H Q12: shipping-mode and order-priority — for two ship modes, count
/// late-shipped lineitems of high vs low priority.
pub fn q12(
    rt: &mut Runtime,
    db: &Database,
    plan: &PushdownPlan,
    params: &ExtParams,
) -> (Vec<(String, u64, u64)>, QueryReport) {
    let mut rep = QueryReport::new("Q12");
    let li = db.li;
    let ord = db.ord;
    let mode_a = db.shipmodes.code_of(params.q12_modes.0).expect("mode");
    let mode_b = db.shipmodes.code_of(params.q12_modes.1).expect("mode");
    let lo = params.q12_date.raw();
    let hi = params.q12_date.plus_days(365).raw();

    let cand1 = op(rt, &mut rep, plan, "Selection(shipmode)", move |m| {
        select::select_where(m, &li.shipmode, li.n, None, |s| s == mode_a || s == mode_b)
    });
    rep.note_rows(cand1.len as u64);

    let cand2 = op(rt, &mut rep, plan, "Selection(dates)", move |m| {
        let in_year = select::select_where(m, &li.receiptdate, li.n, Some(&cand1), |d| {
            d >= lo && d < hi
        });
        let late_commit = select::select_where2(
            m,
            &li.commitdate,
            &li.receiptdate,
            li.n,
            Some(&in_year),
            |c, r| c < r,
        );
        select::select_where2(
            m,
            &li.shipdate,
            &li.commitdate,
            li.n,
            Some(&late_commit),
            |s, c| s < c,
        )
    });
    rep.note_rows(cand2.len as u64);

    let (modes, prios) = op(rt, &mut rep, plan, "MergeJoin(orders)", move |m| {
        let lrows = cand2.read(m);
        let lkeys = project::gather_host(m, &li.orderkey, &lrows);
        let joined = mergejoin::merge_join(m, &lkeys, &ord.orderkey, ord.n);
        let ord_rows: Vec<u32> = joined
            .into_iter()
            .map(|j| j.expect("order exists"))
            .collect();
        let modes = project::gather_host(m, &li.shipmode, &lrows);
        let prios = project::gather_host(m, &ord.orderpriority, &ord_rows);
        (modes, prios)
    });
    rep.note_rows(modes.len() as u64);

    let counts = op(rt, &mut rep, plan, "GroupAggregate", move |m| {
        m.charge_cycles(crate::exec::cost::GROUP * modes.len() as u64);
        // high priority = "1-URGENT" (code 0) or "2-HIGH" (code 1).
        let mut table: HashMap<u8, (u64, u64)> = HashMap::new();
        for i in 0..modes.len() {
            let e = table.entry(modes[i]).or_insert((0, 0));
            if prios[i] <= 1 {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
        let mut out: Vec<(u8, u64, u64)> = table.into_iter().map(|(k, (h, l))| (k, h, l)).collect();
        out.sort_unstable_by_key(|&(k, ..)| k);
        out
    });
    rep.note_rows(counts.len() as u64);

    let named = counts
        .into_iter()
        .map(|(mode, high, low)| (db.shipmodes.decode(mode).to_string(), high, low))
        .collect();
    (named, rep)
}
