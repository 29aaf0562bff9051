//! Reference query evaluation over the generated data in plain host
//! memory. Used by tests to validate every simulated execution, and by the
//! distributed-baseline cost model, which prices plans from true
//! cardinalities.

// Accumulator maps that are *iterated* into results use `BTreeMap`, so
// tie-handling and float summation order are seed-stable rather than
// hasher-dependent. Point lookups by a TPC-H key go through a `Vec` indexed
// by the key ([`by_key`]): the generator makes every key dense `1..=n`, so
// a lookup is an index and a join side is one pass. The lint below keeps a
// hashed container, should one come back, from being iterated into a result
// (it sees a `for` loop over one or over `.iter()`, `.keys()`, `.values()`,
// `.drain()`, not an adaptor chain such as `.keys().sum()`).
#![deny(clippy::iter_over_hash_type)]

use std::collections::BTreeMap;

use crate::queries::{Q3Row, Q9Row, QueryParams};
use crate::tpch::TpchData;
use crate::types::{name_contains, Date};

/// A column re-indexed by its key: `out[keys[i]] == value(i)` (the last row
/// wins, as a map built from the rows would). TPC-H keys are dense (`1..=n`,
/// nations `0..n`), so `out` is one slot longer than the relation and the
/// slots below the smallest key hold `fill`. A key between the smallest and
/// the largest that no row has panics: a lookup of it would otherwise read a
/// made-up row, and the oracle would check a query against a wrong answer.
fn by_key<T: Clone>(keys: &[i64], fill: T, value: impl Fn(usize) -> T) -> Vec<T> {
    let len = keys.iter().max().map_or(0, |&k| k as usize + 1);
    let first = keys.iter().min().map_or(0, |&k| k as usize);
    let mut out = vec![None; len];
    for (i, &k) in keys.iter().enumerate() {
        out[k as usize] = Some(value(i));
    }
    let gap = |k: usize| {
        assert!(k < first, "no row has key {k} (keys {first}..{len})");
        fill.clone()
    };
    let slots = out.into_iter().enumerate();
    slots.map(|(k, v)| v.unwrap_or_else(|| gap(k))).collect()
}

/// `Q_filter`: `SELECT SUM(l_quantity) WHERE l_shipdate < $DATE`.
pub fn q_filter(data: &TpchData, params: &QueryParams) -> f64 {
    let bound = params.qfilter_date.raw();
    let li = &data.lineitem;
    (0..li.len())
        .filter(|&i| li.shipdate[i] < bound)
        .map(|i| li.quantity[i])
        .sum()
}

/// TPC-H Q1 (pricing summary).
pub fn q1(data: &TpchData, params: &QueryParams) -> Vec<crate::exec::aggregate::Q1Group> {
    let bound = Date::from_ymd(1998, 12, 1)
        .plus_days(-params.q1_delta_days)
        .raw();
    let li = &data.lineitem;
    #[derive(Default, Clone)]
    struct Acc {
        qty: f64,
        base: f64,
        disc_price: f64,
        charge: f64,
        disc: f64,
        count: u64,
    }
    let mut groups: BTreeMap<(u8, u8), Acc> = BTreeMap::new();
    for i in 0..li.len() {
        if li.shipdate[i] <= bound {
            let acc = groups
                .entry((li.returnflag[i], li.linestatus[i]))
                .or_default();
            let (q, p, d, t) = (
                li.quantity[i],
                li.extendedprice[i],
                li.discount[i],
                li.tax[i],
            );
            acc.qty += q;
            acc.base += p;
            acc.disc_price += p * (1.0 - d);
            acc.charge += p * (1.0 - d) * (1.0 + t);
            acc.disc += d;
            acc.count += 1;
        }
    }
    groups
        .into_iter()
        .map(|((flag, status), a)| crate::exec::aggregate::Q1Group {
            returnflag: flag,
            linestatus: status,
            sum_qty: a.qty,
            sum_base_price: a.base,
            sum_disc_price: a.disc_price,
            sum_charge: a.charge,
            avg_qty: a.qty / a.count as f64,
            avg_price: a.base / a.count as f64,
            avg_disc: a.disc / a.count as f64,
            count: a.count,
        })
        .collect()
}

/// TPC-H Q6.
pub fn q6(data: &TpchData, params: &QueryParams) -> f64 {
    let lo = params.q6_shipdate_lo.raw();
    let hi = params.q6_shipdate_lo.plus_days(365).raw();
    let (dlo, dhi) = params.q6_discount;
    let li = &data.lineitem;
    let mut acc = 0.0;
    for i in 0..li.len() {
        if li.shipdate[i] >= lo
            && li.shipdate[i] < hi
            && li.discount[i] >= dlo - 1e-9
            && li.discount[i] <= dhi + 1e-9
            && li.quantity[i] < params.q6_quantity
        {
            acc += li.extendedprice[i] * li.discount[i];
        }
    }
    acc
}

/// TPC-H Q3 (top-10 by revenue).
pub fn q3(data: &TpchData, params: &QueryParams) -> Vec<Q3Row> {
    let seg = data
        .segments
        .code_of(params.q3_segment)
        .expect("segment exists");
    let date = params.q3_date.raw();
    let (cust, orders) = (&data.customer, &data.orders);
    let cust_in_segment = by_key(&cust.custkey, false, |i| cust.mktsegment[i] == seg);
    let order_ok = by_key(&orders.orderkey, None, |i| {
        (orders.orderdate[i] < date && cust_in_segment[orders.custkey[i] as usize])
            .then_some((orders.orderdate[i], orders.shippriority[i]))
    });
    // Each order's revenue is summed in lineitem order, as the per-order
    // map it replaces summed it.
    let li = &data.lineitem;
    let mut revenue: Vec<Option<f64>> = vec![None; order_ok.len()];
    for i in 0..li.len() {
        let k = li.orderkey[i] as usize;
        if li.shipdate[i] > date && order_ok[k].is_some() {
            *revenue[k].get_or_insert(0.0) += li.extendedprice[i] * (1.0 - li.discount[i]);
        }
    }
    let mut rows: Vec<Q3Row> = (0..revenue.len())
        .filter_map(|k| {
            let (rev, (d, p)) = (revenue[k]?, order_ok[k]?);
            Some(Q3Row {
                orderkey: k as i64,
                revenue: rev,
                orderdate: d,
                shippriority: p,
            })
        })
        .collect();
    rows.sort_by(|a, b| {
        b.revenue
            .total_cmp(&a.revenue)
            .then(a.orderkey.cmp(&b.orderkey))
    });
    rows.truncate(10);
    rows
}

/// TPC-H Q9 (nation asc, year desc).
pub fn q9(data: &TpchData, params: &QueryParams) -> Vec<Q9Row> {
    let color = data.colors.code_of(params.q9_color).expect("color exists");
    let part = &data.part;
    let green_parts = by_key(&part.partkey, false, |i| name_contains(part.name[i], color));
    // partsupp is grouped by partkey: part `p`'s rows end at `ps_last[p]`.
    let ps = &data.partsupp;
    let ps_last = by_key(&ps.partkey, 0, |i| i);
    let supplycost = |p: i64, s: i64| -> f64 {
        // The last matching row, as a map built from the rows would keep.
        let r = (0..=ps_last[p as usize])
            .rev()
            .take_while(|&r| ps.partkey[r] == p)
            .find(|&r| ps.suppkey[r] == s);
        ps.supplycost[r.expect("lineitem's (partkey, suppkey) is in partsupp")]
    };
    let supp_nation = by_key(&data.supplier.suppkey, 0, |i| data.supplier.nationkey[i]);
    let order_date = by_key(&data.orders.orderkey, 0, |i| data.orders.orderdate[i]);

    let li = &data.lineitem;
    let mut groups: BTreeMap<(i64, i32), f64> = BTreeMap::new();
    for i in 0..li.len() {
        if !green_parts[li.partkey[i] as usize] {
            continue;
        }
        let cost = supplycost(li.partkey[i], li.suppkey[i]);
        let nation = supp_nation[li.suppkey[i] as usize];
        let year = Date(order_date[li.orderkey[i] as usize]).year();
        let amount = li.extendedprice[i] * (1.0 - li.discount[i]) - cost * li.quantity[i];
        *groups.entry((nation, year)).or_insert(0.0) += amount;
    }
    let mut rows: Vec<Q9Row> = groups
        .into_iter()
        .map(|((nk, year), profit)| Q9Row {
            nation: data.nation.name[nk as usize].clone(),
            year,
            profit,
        })
        .collect();
    rows.sort_by(|a, b| a.nation.cmp(&b.nation).then(b.year.cmp(&a.year)));
    rows
}

// ---------------------------------------------------------------------
// Oracles for the extended suite (Q4, Q5, Q10, Q12)
// ---------------------------------------------------------------------

use crate::queries_ext::{ExtParams, Q10Row};

/// TPC-H Q4: order-priority checking.
pub fn q4(data: &TpchData, params: &ExtParams) -> Vec<(String, u64)> {
    let lo = params.q4_date.raw();
    let hi = params.q4_date.plus_days(92).raw();
    let li = &data.lineitem;
    let mut late_orders = by_key(&data.orders.orderkey, false, |_| false);
    for i in 0..li.len() {
        if li.commitdate[i] < li.receiptdate[i] {
            late_orders[li.orderkey[i] as usize] = true;
        }
    }
    let mut counts: BTreeMap<u8, u64> = BTreeMap::new();
    for i in 0..data.orders.len() {
        let d = data.orders.orderdate[i];
        if d >= lo && d < hi && late_orders[data.orders.orderkey[i] as usize] {
            *counts.entry(data.orders.orderpriority[i]).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .map(|(p, c)| (data.priorities.decode(p).to_string(), c))
        .collect()
}

/// TPC-H Q5: local-supplier volume, revenue descending.
pub fn q5(data: &TpchData, params: &ExtParams) -> Vec<(String, f64)> {
    let lo = params.q5_date.raw();
    let hi = params.q5_date.plus_days(365).raw();
    let region_key = crate::tpch::REGIONS
        .iter()
        .position(|&r| r == params.q5_region)
        .expect("region exists") as i64;
    let nation = &data.nation;
    let region_nations = by_key(&nation.nationkey, false, |i| {
        nation.regionkey[i] == region_key
    });
    let orders = &data.orders;
    let order_meta = by_key(&orders.orderkey, (0, 0), |i| {
        (orders.orderdate[i], orders.custkey[i])
    });
    let supp_nation = by_key(&data.supplier.suppkey, 0, |i| data.supplier.nationkey[i]);
    let cust_nation = by_key(&data.customer.custkey, 0, |i| data.customer.nationkey[i]);
    let mut revenue: BTreeMap<i64, f64> = BTreeMap::new();
    let li = &data.lineitem;
    for i in 0..li.len() {
        let (odate, custkey) = order_meta[li.orderkey[i] as usize];
        if odate < lo || odate >= hi {
            continue;
        }
        let snk = supp_nation[li.suppkey[i] as usize];
        if !region_nations[snk as usize] || cust_nation[custkey as usize] != snk {
            continue;
        }
        *revenue.entry(snk).or_insert(0.0) += li.extendedprice[i] * (1.0 - li.discount[i]);
    }
    let mut out: Vec<(String, f64)> = revenue
        .into_iter()
        .map(|(nk, r)| (data.nation.name[nk as usize].clone(), r))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// TPC-H Q10: returned-item reporting, top-20 customers by lost revenue.
pub fn q10(data: &TpchData, params: &ExtParams) -> Vec<Q10Row> {
    let lo = params.q10_date.raw();
    let hi = params.q10_date.plus_days(92).raw();
    let orders = &data.orders;
    let order_meta = by_key(&orders.orderkey, (0, 0), |i| {
        (orders.orderdate[i], orders.custkey[i])
    });
    let cust_nation = by_key(&data.customer.custkey, 0, |i| data.customer.nationkey[i]);
    let li = &data.lineitem;
    let mut revenue: BTreeMap<i64, f64> = BTreeMap::new();
    for i in 0..li.len() {
        if li.returnflag[i] != b'R' {
            continue;
        }
        let (odate, custkey) = order_meta[li.orderkey[i] as usize];
        if odate >= lo && odate < hi {
            *revenue.entry(custkey).or_insert(0.0) += li.extendedprice[i] * (1.0 - li.discount[i]);
        }
    }
    let mut rows: Vec<Q10Row> = revenue
        .into_iter()
        .map(|(ck, rev)| Q10Row {
            custkey: ck,
            revenue: rev,
            nation: data.nation.name[cust_nation[ck as usize] as usize].clone(),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.revenue
            .total_cmp(&a.revenue)
            .then(a.custkey.cmp(&b.custkey))
    });
    rows.truncate(20);
    rows
}

/// TPC-H Q12: shipping modes and order priority.
pub fn q12(data: &TpchData, params: &ExtParams) -> Vec<(String, u64, u64)> {
    let mode_a = data.shipmodes.code_of(params.q12_modes.0).expect("mode");
    let mode_b = data.shipmodes.code_of(params.q12_modes.1).expect("mode");
    let lo = params.q12_date.raw();
    let hi = params.q12_date.plus_days(365).raw();
    let order_prio = by_key(&data.orders.orderkey, 0, |i| data.orders.orderpriority[i]);
    let li = &data.lineitem;
    let mut table: BTreeMap<u8, (u64, u64)> = BTreeMap::new();
    for i in 0..li.len() {
        let mode = li.shipmode[i];
        if mode != mode_a && mode != mode_b {
            continue;
        }
        if li.receiptdate[i] < lo || li.receiptdate[i] >= hi {
            continue;
        }
        if !(li.commitdate[i] < li.receiptdate[i] && li.shipdate[i] < li.commitdate[i]) {
            continue;
        }
        let e = table.entry(mode).or_insert((0, 0));
        if order_prio[li.orderkey[i] as usize] <= 1 {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    table
        .into_iter()
        .map(|(m, (h, l))| (data.shipmodes.decode(m).to_string(), h, l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries_ext::ExtParams;

    #[test]
    fn oracle_results_are_plausible() {
        let data = TpchData::generate(0.002, 42);
        let params = QueryParams::default();
        assert!(q_filter(&data, &params) > 0.0);
        assert!(q6(&data, &params) > 0.0);
        let q3r = q3(&data, &params);
        assert!(!q3r.is_empty() && q3r.len() <= 10);
        let q9r = q9(&data, &params);
        assert!(!q9r.is_empty());
        // Years fall inside the TPC-H window.
        assert!(q9r.iter().all(|r| (1992..=1998).contains(&r.year)));
    }

    /// The oracle as it was written over hashed maps and sets, kept as the
    /// reference the dense-key version must equal bit for bit.
    mod hashed {
        use std::collections::{BTreeMap, HashMap, HashSet};

        use crate::queries::{Q3Row, Q9Row, QueryParams};
        use crate::queries_ext::{ExtParams, Q10Row};
        use crate::tpch::TpchData;
        use crate::types::{name_contains, Date};

        /// TPC-H Q3 (top-10 by revenue).
        pub fn q3(data: &TpchData, params: &QueryParams) -> Vec<Q3Row> {
            let seg = data
                .segments
                .code_of(params.q3_segment)
                .expect("segment exists");
            let date = params.q3_date.raw();
            let cust_in_segment: HashSet<i64> = (0..data.customer.len())
                .filter(|&i| data.customer.mktsegment[i] == seg)
                .map(|i| data.customer.custkey[i])
                .collect();
            let mut order_ok: HashMap<i64, (i32, i64)> = HashMap::new();
            for i in 0..data.orders.len() {
                if data.orders.orderdate[i] < date
                    && cust_in_segment.contains(&data.orders.custkey[i])
                {
                    order_ok.insert(
                        data.orders.orderkey[i],
                        (data.orders.orderdate[i], data.orders.shippriority[i]),
                    );
                }
            }
            let li = &data.lineitem;
            let mut revenue: BTreeMap<i64, f64> = BTreeMap::new();
            for i in 0..li.len() {
                if li.shipdate[i] > date && order_ok.contains_key(&li.orderkey[i]) {
                    *revenue.entry(li.orderkey[i]).or_insert(0.0) +=
                        li.extendedprice[i] * (1.0 - li.discount[i]);
                }
            }
            let mut rows: Vec<Q3Row> = revenue
                .into_iter()
                .map(|(k, rev)| {
                    let (d, p) = order_ok[&k];
                    Q3Row {
                        orderkey: k,
                        revenue: rev,
                        orderdate: d,
                        shippriority: p,
                    }
                })
                .collect();
            rows.sort_by(|a, b| {
                b.revenue
                    .total_cmp(&a.revenue)
                    .then(a.orderkey.cmp(&b.orderkey))
            });
            rows.truncate(10);
            rows
        }

        /// TPC-H Q9 (nation asc, year desc).
        pub fn q9(data: &TpchData, params: &QueryParams) -> Vec<Q9Row> {
            let color = data.colors.code_of(params.q9_color).expect("color exists");
            let green_parts: HashSet<i64> = (0..data.part.len())
                .filter(|&i| name_contains(data.part.name[i], color))
                .map(|i| data.part.partkey[i])
                .collect();
            let supplycost: HashMap<(i64, i64), f64> = (0..data.partsupp.len())
                .map(|i| {
                    (
                        (data.partsupp.partkey[i], data.partsupp.suppkey[i]),
                        data.partsupp.supplycost[i],
                    )
                })
                .collect();
            let supp_nation: HashMap<i64, i64> = (0..data.supplier.len())
                .map(|i| (data.supplier.suppkey[i], data.supplier.nationkey[i]))
                .collect();
            let order_date: HashMap<i64, i32> = (0..data.orders.len())
                .map(|i| (data.orders.orderkey[i], data.orders.orderdate[i]))
                .collect();

            let li = &data.lineitem;
            let mut groups: BTreeMap<(i64, i32), f64> = BTreeMap::new();
            for i in 0..li.len() {
                if !green_parts.contains(&li.partkey[i]) {
                    continue;
                }
                let cost = supplycost[&(li.partkey[i], li.suppkey[i])];
                let nation = supp_nation[&li.suppkey[i]];
                let year = Date(order_date[&li.orderkey[i]]).year();
                let amount = li.extendedprice[i] * (1.0 - li.discount[i]) - cost * li.quantity[i];
                *groups.entry((nation, year)).or_insert(0.0) += amount;
            }
            let mut rows: Vec<Q9Row> = groups
                .into_iter()
                .map(|((nk, year), profit)| Q9Row {
                    nation: data.nation.name[nk as usize].clone(),
                    year,
                    profit,
                })
                .collect();
            rows.sort_by(|a, b| a.nation.cmp(&b.nation).then(b.year.cmp(&a.year)));
            rows
        }

        /// TPC-H Q4: order-priority checking.
        pub fn q4(data: &TpchData, params: &ExtParams) -> Vec<(String, u64)> {
            let lo = params.q4_date.raw();
            let hi = params.q4_date.plus_days(92).raw();
            let late_orders: HashSet<i64> = (0..data.lineitem.len())
                .filter(|&i| data.lineitem.commitdate[i] < data.lineitem.receiptdate[i])
                .map(|i| data.lineitem.orderkey[i])
                .collect();
            let mut counts: std::collections::BTreeMap<u8, u64> = Default::default();
            for i in 0..data.orders.len() {
                let d = data.orders.orderdate[i];
                if d >= lo && d < hi && late_orders.contains(&data.orders.orderkey[i]) {
                    *counts.entry(data.orders.orderpriority[i]).or_insert(0) += 1;
                }
            }
            counts
                .into_iter()
                .map(|(p, c)| (data.priorities.decode(p).to_string(), c))
                .collect()
        }

        /// TPC-H Q5: local-supplier volume, revenue descending.
        pub fn q5(data: &TpchData, params: &ExtParams) -> Vec<(String, f64)> {
            let lo = params.q5_date.raw();
            let hi = params.q5_date.plus_days(365).raw();
            let region_key = crate::tpch::REGIONS
                .iter()
                .position(|&r| r == params.q5_region)
                .expect("region exists") as i64;
            let region_nations: HashSet<i64> = (0..data.nation.nationkey.len())
                .filter(|&i| data.nation.regionkey[i] == region_key)
                .map(|i| data.nation.nationkey[i])
                .collect();
            let order_meta: HashMap<i64, (i32, i64)> = (0..data.orders.len())
                .map(|i| {
                    (
                        data.orders.orderkey[i],
                        (data.orders.orderdate[i], data.orders.custkey[i]),
                    )
                })
                .collect();
            let supp_nation: HashMap<i64, i64> = (0..data.supplier.len())
                .map(|i| (data.supplier.suppkey[i], data.supplier.nationkey[i]))
                .collect();
            let cust_nation: HashMap<i64, i64> = (0..data.customer.len())
                .map(|i| (data.customer.custkey[i], data.customer.nationkey[i]))
                .collect();
            let mut revenue: BTreeMap<i64, f64> = BTreeMap::new();
            let li = &data.lineitem;
            for i in 0..li.len() {
                let (odate, custkey) = order_meta[&li.orderkey[i]];
                if odate < lo || odate >= hi {
                    continue;
                }
                let snk = supp_nation[&li.suppkey[i]];
                if !region_nations.contains(&snk) || cust_nation[&custkey] != snk {
                    continue;
                }
                *revenue.entry(snk).or_insert(0.0) += li.extendedprice[i] * (1.0 - li.discount[i]);
            }
            let mut out: Vec<(String, f64)> = revenue
                .into_iter()
                .map(|(nk, r)| (data.nation.name[nk as usize].clone(), r))
                .collect();
            out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            out
        }

        /// TPC-H Q10: returned-item reporting, top-20 customers by lost revenue.
        pub fn q10(data: &TpchData, params: &ExtParams) -> Vec<Q10Row> {
            let lo = params.q10_date.raw();
            let hi = params.q10_date.plus_days(92).raw();
            let order_meta: HashMap<i64, (i32, i64)> = (0..data.orders.len())
                .map(|i| {
                    (
                        data.orders.orderkey[i],
                        (data.orders.orderdate[i], data.orders.custkey[i]),
                    )
                })
                .collect();
            let cust_nation: HashMap<i64, i64> = (0..data.customer.len())
                .map(|i| (data.customer.custkey[i], data.customer.nationkey[i]))
                .collect();
            let li = &data.lineitem;
            let mut revenue: BTreeMap<i64, f64> = BTreeMap::new();
            for i in 0..li.len() {
                if li.returnflag[i] != b'R' {
                    continue;
                }
                let (odate, custkey) = order_meta[&li.orderkey[i]];
                if odate >= lo && odate < hi {
                    *revenue.entry(custkey).or_insert(0.0) +=
                        li.extendedprice[i] * (1.0 - li.discount[i]);
                }
            }
            let mut rows: Vec<Q10Row> = revenue
                .into_iter()
                .map(|(ck, rev)| Q10Row {
                    custkey: ck,
                    revenue: rev,
                    nation: data.nation.name[cust_nation[&ck] as usize].clone(),
                })
                .collect();
            rows.sort_by(|a, b| {
                b.revenue
                    .total_cmp(&a.revenue)
                    .then(a.custkey.cmp(&b.custkey))
            });
            rows.truncate(20);
            rows
        }

        /// TPC-H Q12: shipping modes and order priority.
        pub fn q12(data: &TpchData, params: &ExtParams) -> Vec<(String, u64, u64)> {
            let mode_a = data.shipmodes.code_of(params.q12_modes.0).expect("mode");
            let mode_b = data.shipmodes.code_of(params.q12_modes.1).expect("mode");
            let lo = params.q12_date.raw();
            let hi = params.q12_date.plus_days(365).raw();
            let order_prio: HashMap<i64, u8> = (0..data.orders.len())
                .map(|i| (data.orders.orderkey[i], data.orders.orderpriority[i]))
                .collect();
            let li = &data.lineitem;
            let mut table: std::collections::BTreeMap<u8, (u64, u64)> = Default::default();
            for i in 0..li.len() {
                let mode = li.shipmode[i];
                if mode != mode_a && mode != mode_b {
                    continue;
                }
                if li.receiptdate[i] < lo || li.receiptdate[i] >= hi {
                    continue;
                }
                if !(li.commitdate[i] < li.receiptdate[i] && li.shipdate[i] < li.commitdate[i]) {
                    continue;
                }
                let e = table.entry(mode).or_insert((0, 0));
                if order_prio[&li.orderkey[i]] <= 1 {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            }
            table
                .into_iter()
                .map(|(m, (h, l))| (data.shipmodes.decode(m).to_string(), h, l))
                .collect()
        }
    }

    /// Every dense-key oracle equals its hashed original, floats compared
    /// by their bits, at two scales and three seeds.
    #[test]
    fn oracle_matches_the_hash_map_reference() {
        let (params, ext) = (QueryParams::default(), ExtParams::default());
        for sf in [0.01, 0.05] {
            for seed in [1, 42, 20220612] {
                let data = TpchData::generate(sf, seed);
                let at = format!("sf {sf} seed {seed}");
                let q3 = |rows: Vec<Q3Row>| -> Vec<_> {
                    rows.into_iter()
                        .map(|r| (r.orderkey, r.revenue.to_bits(), r.orderdate, r.shippriority))
                        .collect()
                };
                let q9 = |rows: Vec<Q9Row>| -> Vec<_> {
                    rows.into_iter()
                        .map(|r| (r.nation, r.year, r.profit.to_bits()))
                        .collect()
                };
                let q5 = |rows: Vec<(String, f64)>| -> Vec<_> {
                    rows.into_iter().map(|(n, r)| (n, r.to_bits())).collect()
                };
                let q10 = |rows: Vec<Q10Row>| -> Vec<_> {
                    rows.into_iter()
                        .map(|r| (r.custkey, r.revenue.to_bits(), r.nation))
                        .collect()
                };
                let expect_q3 = q3(hashed::q3(&data, &params));
                assert!(!expect_q3.is_empty(), "{at}: Q3 selects nothing");
                assert_eq!(q3(super::q3(&data, &params)), expect_q3, "{at}: Q3");
                let expect_q9 = q9(hashed::q9(&data, &params));
                assert!(!expect_q9.is_empty(), "{at}: Q9 selects nothing");
                assert_eq!(q9(super::q9(&data, &params)), expect_q9, "{at}: Q9");
                assert_eq!(super::q4(&data, &ext), hashed::q4(&data, &ext), "{at}: Q4");
                assert_eq!(
                    q5(super::q5(&data, &ext)),
                    q5(hashed::q5(&data, &ext)),
                    "{at}: Q5"
                );
                assert_eq!(
                    q10(super::q10(&data, &ext)),
                    q10(hashed::q10(&data, &ext)),
                    "{at}: Q10"
                );
                assert_eq!(
                    super::q12(&data, &ext),
                    hashed::q12(&data, &ext),
                    "{at}: Q12"
                );
            }
        }
    }

    #[test]
    fn by_key_fills_only_below_the_smallest_key() {
        let keys = [3, 1, 2, 3];
        assert_eq!(by_key(&keys, 0, |i| i + 10), vec![0, 11, 12, 13]);
        assert_eq!(by_key(&[0, 1], 9, |i| i), vec![0, 1]);
        assert!(by_key(&[], 0, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "no row has key 2")]
    fn by_key_refuses_a_key_with_no_row() {
        by_key(&[1, 3], 0, |i| i);
    }
}
