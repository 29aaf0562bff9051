//! Projection: materialize a subset of columns (optionally through a
//! candidate list) into temporary columns.
//!
//! In MonetDB's operator-at-a-time model projection is a real data
//! movement, not a no-op — which is why it tops the paper's Fig 10
//! breakdown (189 GB of remote accesses for Q9's projection in a DDC).

use teleport::{Mem, Region, Scalar};

use super::cost;

/// Gather `col[rows[i]]` to the host (random reads, charged per tuple).
pub fn gather_host<M: Mem, T: Scalar>(m: &mut M, col: &Region<T>, rows: &[u32]) -> Vec<T> {
    let mut vals: Vec<T> = Vec::with_capacity(rows.len());
    m.gather(col, rows, ddc_os::Pattern::Rand, &mut vals);
    m.charge_cycles(cost::GATHER * rows.len() as u64);
    vals
}

/// Gather `col[rows[i]]` into a new materialized column.
pub fn gather<M: Mem, T: Scalar>(m: &mut M, col: &Region<T>, rows: &[u32]) -> Region<T> {
    let vals = gather_host(m, col, rows);
    m.alloc_region_from(&vals)
}

/// Materialize a full copy of a column (projection without candidates).
pub fn copy_column<M: Mem, T: Scalar>(m: &mut M, col: &Region<T>, n: usize) -> Region<T> {
    let mut out = m.region_writer::<T>(n);
    let mut buf: Vec<T> = Vec::new();
    let chunk = 16_384;
    let mut base = 0usize;
    while base < n {
        let take = chunk.min(n - base);
        buf.clear();
        m.read_range(col, base, take, &mut buf);
        out.push(m, &buf);
        m.charge_cycles(cost::GATHER * take as u64);
        base += take;
    }
    out.finish(m)
}

/// Read a whole materialized column back to the host (the final "ship the
/// result to the client" step, and a convenience for tests).
pub fn fetch<M: Mem, T: Scalar>(m: &mut M, col: &Region<T>, n: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    m.read_range(col, 0, n, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::test_rt;
    use teleport::Mem;

    #[test]
    fn gather_respects_candidate_order() {
        let mut rt = test_rt();
        let col = rt.alloc_region::<f64>(100);
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 1.5).collect();
        rt.write_range(&col, 0, &vals);

        let rows = vec![99u32, 0, 50];
        let out = gather(&mut rt, &col, &rows);
        assert_eq!(fetch(&mut rt, &out, 3), vec![148.5, 0.0, 75.0]);
    }

    #[test]
    fn copy_column_is_identical() {
        let mut rt = test_rt();
        let col = rt.alloc_region::<i64>(20_000);
        let vals: Vec<i64> = (0..20_000).map(|i| i * 7).collect();
        rt.write_range(&col, 0, &vals);
        let copy = copy_column(&mut rt, &col, 20_000);
        assert_eq!(fetch(&mut rt, &copy, 20_000), vals);
    }

    #[test]
    fn empty_gather() {
        let mut rt = test_rt();
        let col = rt.alloc_region::<i64>(10);
        let out = gather(&mut rt, &col, &[]);
        assert!(out.is_empty());
    }
}
