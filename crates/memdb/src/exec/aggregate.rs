//! Aggregation: simple folds and hash group-bys over materialized columns.

use std::collections::HashMap;

use teleport::{Mem, Region};

use super::{cost, CandList};

/// `SUM(col)`, optionally restricted to a candidate list.
pub fn sum_f64<M: Mem>(m: &mut M, col: &Region<f64>, n: usize, cand: Option<&CandList>) -> f64 {
    match cand {
        None => {
            let mut acc = 0.0;
            let mut buf: Vec<f64> = Vec::new();
            let chunk = 16_384;
            let mut base = 0usize;
            while base < n {
                let take = chunk.min(n - base);
                buf.clear();
                m.read_range(col, base, take, &mut buf);
                acc += buf.iter().sum::<f64>();
                m.charge_cycles(cost::AGG * take as u64);
                base += take;
            }
            acc
        }
        Some(c) => {
            let rows = c.read(m);
            let mut acc = 0.0;
            // A slice at a time, as `select_where` gathers.
            let mut vals: Vec<f64> = Vec::new();
            for chunk in rows.chunks(16_384) {
                vals.clear();
                m.gather(col, chunk, ddc_os::Pattern::Rand, &mut vals);
                acc = vals.iter().fold(acc, |acc, v| acc + v);
            }
            m.charge_cycles(cost::AGG * rows.len() as u64);
            acc
        }
    }
}

/// `COUNT(*)` over a candidate list is free metadata; over a column it is
/// the column length. Provided for plan completeness.
pub fn count(cand: Option<&CandList>, n: usize) -> usize {
    cand.map(|c| c.len).unwrap_or(n)
}

/// Hash group-by: `SELECT key, SUM(val) GROUP BY key` over two aligned
/// materialized columns. Returns groups sorted by key (deterministic).
pub fn group_sum_by_key<M: Mem>(
    m: &mut M,
    keys: &Region<i64>,
    vals: &Region<f64>,
    n: usize,
) -> Vec<(i64, f64)> {
    let mut kbuf: Vec<i64> = Vec::new();
    let mut vbuf: Vec<f64> = Vec::new();
    m.read_range(keys, 0, n, &mut kbuf);
    m.read_range(vals, 0, n, &mut vbuf);
    m.charge_cycles(cost::GROUP * n as u64);
    let mut groups: HashMap<i64, f64> = HashMap::new();
    for i in 0..n {
        *groups.entry(kbuf[i]).or_insert(0.0) += vbuf[i];
    }
    let mut out: Vec<(i64, f64)> = groups.into_iter().collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

/// Q9's grouping: `GROUP BY n_name, YEAR(o_orderdate)` with `SUM(amount)`.
/// Takes three aligned materialized columns; the year extraction is real
/// calendar math charged per tuple. Returns `((nationkey, year), sum)`
/// sorted by nation then year descending (the query's output order).
pub fn group_sum_nation_year<M: Mem>(
    m: &mut M,
    nationkey: &Region<i64>,
    orderdate: &Region<i32>,
    amount: &Region<f64>,
    n: usize,
) -> Vec<((i64, i32), f64)> {
    let mut nk: Vec<i64> = Vec::new();
    let mut od: Vec<i32> = Vec::new();
    let mut am: Vec<f64> = Vec::new();
    m.read_range(nationkey, 0, n, &mut nk);
    m.read_range(orderdate, 0, n, &mut od);
    m.read_range(amount, 0, n, &mut am);
    m.charge_cycles((cost::GROUP + 10) * n as u64); // +10 for year extraction
    let mut groups: HashMap<(i64, i32), f64> = HashMap::new();
    for i in 0..n {
        let year = crate::types::Date(od[i]).year();
        *groups.entry((nk[i], year)).or_insert(0.0) += am[i];
    }
    let mut out: Vec<((i64, i32), f64)> = groups.into_iter().collect();
    out.sort_unstable_by_key(|&((nk, year), _)| (nk, -year));
    out
}

/// One output row of TPC-H Q1's pricing summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Q1Group {
    pub returnflag: u8,
    pub linestatus: u8,
    pub sum_qty: f64,
    pub sum_base_price: f64,
    pub sum_disc_price: f64,
    pub sum_charge: f64,
    pub avg_qty: f64,
    pub avg_price: f64,
    pub avg_disc: f64,
    pub count: u64,
}

/// TPC-H Q1's grouped multi-aggregate over six aligned columns, restricted
/// to a candidate list. Groups by `(returnflag, linestatus)` — a handful of
/// groups over millions of tuples, the classic streaming aggregation.
#[allow(clippy::too_many_arguments)]
pub fn group_q1<M: Mem>(
    m: &mut M,
    returnflag: &Region<u8>,
    linestatus: &Region<u8>,
    quantity: &Region<f64>,
    price: &Region<f64>,
    discount: &Region<f64>,
    tax: &Region<f64>,
    rows: &[u32],
) -> Vec<Q1Group> {
    #[derive(Default, Clone)]
    struct Acc {
        qty: f64,
        base: f64,
        disc_price: f64,
        charge: f64,
        disc: f64,
        count: u64,
    }
    let mut groups: HashMap<(u8, u8), Acc> = HashMap::new();
    for &r in rows {
        let i = r as usize;
        let flag = m.get(returnflag, i, ddc_os::Pattern::Rand);
        let status = m.get(linestatus, i, ddc_os::Pattern::Rand);
        let q = m.get(quantity, i, ddc_os::Pattern::Rand);
        let p = m.get(price, i, ddc_os::Pattern::Rand);
        let d = m.get(discount, i, ddc_os::Pattern::Rand);
        let t = m.get(tax, i, ddc_os::Pattern::Rand);
        let acc = groups.entry((flag, status)).or_default();
        acc.qty += q;
        acc.base += p;
        acc.disc_price += p * (1.0 - d);
        acc.charge += p * (1.0 - d) * (1.0 + t);
        acc.disc += d;
        acc.count += 1;
    }
    m.charge_cycles((cost::GROUP + 4 * cost::AGG) * rows.len() as u64);
    let mut out: Vec<Q1Group> = groups
        .into_iter()
        .map(|((flag, status), a)| Q1Group {
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
        .collect();
    out.sort_by_key(|g| (g.returnflag, g.linestatus));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::test_rt;
    use crate::types::Date;
    use teleport::Mem;

    #[test]
    fn sum_full_and_with_candidates() {
        let mut rt = test_rt();
        let col = rt.alloc_region::<f64>(1000);
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        rt.write_range(&col, 0, &vals);
        assert_eq!(sum_f64(&mut rt, &col, 1000, None), 499_500.0);

        let cand = CandList::materialize(&mut rt, &[1, 2, 3]);
        assert_eq!(sum_f64(&mut rt, &col, 1000, Some(&cand)), 6.0);
    }

    #[test]
    fn group_sum_sorted_by_key() {
        let mut rt = test_rt();
        let keys = rt.alloc_region::<i64>(6);
        let vals = rt.alloc_region::<f64>(6);
        rt.write_range(&keys, 0, &[5i64, 3, 5, 3, 9, 5]);
        rt.write_range(&vals, 0, &[1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let groups = group_sum_by_key(&mut rt, &keys, &vals, 6);
        assert_eq!(groups, vec![(3, 6.0), (5, 10.0), (9, 5.0)]);
    }

    #[test]
    fn nation_year_grouping_extracts_years() {
        let mut rt = test_rt();
        let nk = rt.alloc_region::<i64>(4);
        let od = rt.alloc_region::<i32>(4);
        let am = rt.alloc_region::<f64>(4);
        rt.write_range(&nk, 0, &[1i64, 1, 2, 1]);
        rt.write_range(
            &od,
            0,
            &[
                Date::from_ymd(1995, 3, 1).raw(),
                Date::from_ymd(1995, 9, 9).raw(),
                Date::from_ymd(1995, 1, 1).raw(),
                Date::from_ymd(1996, 1, 1).raw(),
            ],
        );
        rt.write_range(&am, 0, &[10.0f64, 20.0, 30.0, 40.0]);
        let groups = group_sum_nation_year(&mut rt, &nk, &od, &am, 4);
        // Nation asc, year desc.
        assert_eq!(
            groups,
            vec![((1, 1996), 40.0), ((1, 1995), 30.0), ((2, 1995), 30.0),]
        );
    }

    #[test]
    fn q1_grouping_aggregates_all_measures() {
        let mut rt = test_rt();
        let flag = rt.alloc_region::<u8>(4);
        let status = rt.alloc_region::<u8>(4);
        let qty = rt.alloc_region::<f64>(4);
        let price = rt.alloc_region::<f64>(4);
        let disc = rt.alloc_region::<f64>(4);
        let tax = rt.alloc_region::<f64>(4);
        rt.write_range(&flag, 0, b"AARA");
        rt.write_range(&status, 0, b"FFOF");
        rt.write_range(&qty, 0, &[10.0f64, 20.0, 5.0, 30.0]);
        rt.write_range(&price, 0, &[100.0f64, 200.0, 50.0, 300.0]);
        rt.write_range(&disc, 0, &[0.1f64, 0.0, 0.5, 0.1]);
        rt.write_range(&tax, 0, &[0.0f64, 0.1, 0.0, 0.0]);
        let groups = group_q1(
            &mut rt,
            &flag,
            &status,
            &qty,
            &price,
            &disc,
            &tax,
            &[0, 1, 2, 3],
        );
        assert_eq!(groups.len(), 2);
        let af = &groups[0];
        assert_eq!((af.returnflag, af.linestatus), (b'A', b'F'));
        assert_eq!(af.count, 3);
        assert_eq!(af.sum_qty, 60.0);
        assert_eq!(af.sum_base_price, 600.0);
        assert!((af.sum_disc_price - (90.0 + 200.0 + 270.0)).abs() < 1e-9);
        assert!((af.sum_charge - (90.0 + 220.0 + 270.0)).abs() < 1e-9);
        assert!((af.avg_qty - 20.0).abs() < 1e-9);
        let ro = &groups[1];
        assert_eq!((ro.returnflag, ro.linestatus), (b'R', b'O'));
        assert_eq!(ro.count, 1);
    }

    #[test]
    fn count_is_the_candidates_or_the_column_length() {
        let mut rt = test_rt();
        let cand = CandList::materialize(&mut rt, &[0, 4]);
        assert_eq!(count(Some(&cand), 5), 2);
        assert_eq!(count(None, 5), 5);
    }
}
