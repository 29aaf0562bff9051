//! Selection: scan a column (or a candidate list) and keep matching rows.
//!
//! MonetDB's selection takes a table, a filter, and an optional candidate
//! list from previous selections (paper §2.3); the output is a new
//! candidate list materialized to a temporary — which is why an unpushed
//! selection in a DDC must drag every tuple through the compute cache.

use teleport::{Mem, Region, Scalar};

use super::{cost, CandList};

/// Generic typed selection. Without a candidate list, streams the whole
/// column sequentially; with one, gathers just the candidate rows
/// (random access). Returns the surviving rows as a new candidate list.
///
/// # Examples
///
/// ```
/// use memdb::exec::select::select_where;
/// use teleport::{Mem, Runtime};
///
/// let mut rt = Runtime::teleport(ddc_sim::DdcConfig::default());
/// let col = rt.alloc_region::<i64>(100);
/// let vals: Vec<i64> = (0..100).collect();
/// rt.write_range(&col, 0, &vals);
///
/// let cand = select_where(&mut rt, &col, 100, None, |v| v % 25 == 0);
/// assert_eq!(cand.read(&mut rt), vec![0, 25, 50, 75]);
/// ```
pub fn select_where<M: Mem, T: Scalar>(
    m: &mut M,
    col: &Region<T>,
    n: usize,
    cand: Option<&CandList>,
    pred: impl Fn(T) -> bool,
) -> CandList {
    let mut out: Vec<u32> = Vec::new();
    match cand {
        None => {
            let mut buf: Vec<T> = Vec::new();
            let chunk = 16_384;
            let mut base = 0usize;
            while base < n {
                let take = chunk.min(n - base);
                buf.clear();
                m.read_range(col, base, take, &mut buf);
                for (i, &v) in buf.iter().enumerate() {
                    if pred(v) {
                        out.push((base + i) as u32);
                    }
                }
                m.charge_cycles(cost::FILTER * take as u64);
                base += take;
            }
        }
        Some(c) => {
            let rows = c.read(m);
            // A slice at a time: the values never need a host buffer as
            // long as the candidate list.
            let mut vals: Vec<T> = Vec::new();
            for chunk in rows.chunks(16_384) {
                vals.clear();
                m.gather(col, chunk, ddc_os::Pattern::Rand, &mut vals);
                let kept = chunk.iter().zip(&vals).filter(|&(_, &v)| pred(v));
                out.extend(kept.map(|(&r, _)| r));
            }
            m.charge_cycles(cost::FILTER * rows.len() as u64);
        }
    }
    CandList::materialize(m, &out)
}

/// Two-column selection: keep rows where `pred(a[i], b[i])` holds —
/// `l_commitdate < l_receiptdate` and friends. Streams both columns
/// without candidates; gathers both with them.
pub fn select_where2<M: Mem, A: Scalar, B: Scalar>(
    m: &mut M,
    col_a: &Region<A>,
    col_b: &Region<B>,
    n: usize,
    cand: Option<&CandList>,
    pred: impl Fn(A, B) -> bool,
) -> CandList {
    let mut out: Vec<u32> = Vec::new();
    match cand {
        None => {
            let (mut abuf, mut bbuf): (Vec<A>, Vec<B>) = (Vec::new(), Vec::new());
            let chunk = 16_384;
            let mut base = 0usize;
            while base < n {
                let take = chunk.min(n - base);
                abuf.clear();
                bbuf.clear();
                m.read_range(col_a, base, take, &mut abuf);
                m.read_range(col_b, base, take, &mut bbuf);
                for i in 0..take {
                    if pred(abuf[i], bbuf[i]) {
                        out.push((base + i) as u32);
                    }
                }
                m.charge_cycles(cost::FILTER * take as u64);
                base += take;
            }
        }
        Some(c) => {
            let rows = c.read(m);
            for &r in &rows {
                let a = m.get(col_a, r as usize, ddc_os::Pattern::Rand);
                let b = m.get(col_b, r as usize, ddc_os::Pattern::Rand);
                if pred(a, b) {
                    out.push(r);
                }
            }
            m.charge_cycles(cost::FILTER * rows.len() as u64);
        }
    }
    CandList::materialize(m, &out)
}

/// Selection over packed part names: `p_name LIKE '%color%'`.
pub fn select_name_contains<M: Mem>(
    m: &mut M,
    names: &Region<u64>,
    n: usize,
    color_code: u8,
) -> CandList {
    select_where(m, names, n, None, |packed| {
        crate::types::name_contains(packed, color_code)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::test_rt;
    use crate::types::pack_name;
    use teleport::Mem;

    #[test]
    fn full_scan_selection() {
        let mut rt = test_rt();
        let col = rt.alloc_region::<i64>(1000);
        let vals: Vec<i64> = (0..1000).collect();
        rt.write_range(&col, 0, &vals);

        let cand = select_where(&mut rt, &col, 1000, None, |v| v % 10 == 0);
        assert_eq!(cand.len, 100);
        let rows = cand.read(&mut rt);
        assert_eq!(rows[0], 0);
        assert_eq!(rows[99], 990);
    }

    #[test]
    fn selection_with_candidates_narrows() {
        let mut rt = test_rt();
        let col = rt.alloc_region::<f64>(100);
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        rt.write_range(&col, 0, &vals);

        let first = select_where(&mut rt, &col, 100, None, |v| v >= 50.0);
        assert_eq!(first.len, 50);
        let second = select_where(&mut rt, &col, 100, Some(&first), |v| v < 60.0);
        assert_eq!(second.len, 10);
        assert_eq!(second.read(&mut rt), (50..60).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_result_is_fine() {
        let mut rt = test_rt();
        let col = rt.alloc_region::<i64>(10);
        let cand = select_where(&mut rt, &col, 10, None, |v| v > 100);
        assert!(cand.is_empty());
        // Chaining from an empty candidate list stays empty.
        let chained = select_where(&mut rt, &col, 10, Some(&cand), |_| true);
        assert!(chained.is_empty());
    }

    #[test]
    fn name_like_selection() {
        let mut rt = test_rt();
        let names = rt.alloc_region::<u64>(4);
        rt.write_range(
            &names,
            0,
            &[
                pack_name([1, 2, 3, 4, 5]),
                pack_name([9, 9, 9, 9, 7]),
                pack_name([7, 1, 1, 1, 1]),
                pack_name([2, 2, 2, 2, 2]),
            ],
        );
        let cand = select_name_contains(&mut rt, &names, 4, 7);
        assert_eq!(cand.read(&mut rt), vec![1, 2]);
    }

    #[test]
    fn two_column_selection() {
        let mut rt = test_rt();
        let a = rt.alloc_region::<i32>(100);
        let b = rt.alloc_region::<i32>(100);
        let av: Vec<i32> = (0..100).collect();
        let bv: Vec<i32> = (0..100).map(|i| 100 - i).collect();
        rt.write_range(&a, 0, &av);
        rt.write_range(&b, 0, &bv);
        // a < b holds for rows 0..50.
        let cand = select_where2(&mut rt, &a, &b, 100, None, |x, y| x < y);
        assert_eq!(cand.len, 50);
        assert_eq!(cand.read(&mut rt), (0..50).collect::<Vec<u32>>());
        // Chained through candidates.
        let narrowed = select_where2(&mut rt, &a, &b, 100, Some(&cand), |x, y| x + y > 100);
        assert!(narrowed.is_empty(), "a+b == 100 everywhere");
    }

    #[test]
    fn selection_charges_filter_cycles() {
        let mut rt = test_rt();
        let col = rt.alloc_region::<i64>(10_000);
        let vals: Vec<i64> = (0..10_000).collect();
        rt.write_range(&col, 0, &vals);
        rt.begin_timing();
        let _ = select_where(&mut rt, &col, 10_000, None, |v| v > 5_000);
        // At least the pure filter cycles must have been charged.
        let min_ns = rt.dos().compute_cpu().cycles(cost::FILTER * 10_000);
        assert!(rt.elapsed() >= min_ns);
    }
}
