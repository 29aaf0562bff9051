//! Vectorized expression evaluation over materialized columns.

use teleport::{Mem, Region};

use super::cost;

/// `price * (1 - discount)` — TPC-H's revenue expression (Q3, Q6).
pub fn revenue<M: Mem>(
    m: &mut M,
    price: &Region<f64>,
    discount: &Region<f64>,
    n: usize,
) -> Region<f64> {
    binary_map(m, price, discount, n, |p, d| p * (1.0 - d))
}

/// `price * discount` — Q6's aggregate input.
pub fn price_times_discount<M: Mem>(
    m: &mut M,
    price: &Region<f64>,
    discount: &Region<f64>,
    n: usize,
) -> Region<f64> {
    binary_map(m, price, discount, n, |p, d| p * d)
}

/// Q9's profit expression:
/// `extendedprice * (1 - discount) - supplycost * quantity`.
pub fn q9_amount<M: Mem>(
    m: &mut M,
    price: &Region<f64>,
    discount: &Region<f64>,
    supplycost: &Region<f64>,
    quantity: &Region<f64>,
    n: usize,
) -> Region<f64> {
    let mut out = m.region_writer::<f64>(n);
    let chunk = 16_384;
    let (mut p, mut d, mut c, mut q) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut acc: Vec<f64> = Vec::with_capacity(chunk);
    let mut base = 0usize;
    while base < n {
        let take = chunk.min(n - base);
        p.clear();
        d.clear();
        c.clear();
        q.clear();
        m.read_range(price, base, take, &mut p);
        m.read_range(discount, base, take, &mut d);
        m.read_range(supplycost, base, take, &mut c);
        m.read_range(quantity, base, take, &mut q);
        acc.clear();
        for i in 0..take {
            acc.push(p[i] * (1.0 - d[i]) - c[i] * q[i]);
        }
        out.push(m, &acc);
        m.charge_cycles(2 * cost::EXPR * take as u64);
        base += take;
    }
    out.finish(m)
}

/// Generic element-wise binary map.
pub fn binary_map<M: Mem>(
    m: &mut M,
    a: &Region<f64>,
    b: &Region<f64>,
    n: usize,
    f: impl Fn(f64, f64) -> f64,
) -> Region<f64> {
    let mut out = m.region_writer::<f64>(n);
    let chunk = 16_384;
    let (mut abuf, mut bbuf) = (Vec::new(), Vec::new());
    let mut acc: Vec<f64> = Vec::with_capacity(chunk);
    let mut base = 0usize;
    while base < n {
        let take = chunk.min(n - base);
        abuf.clear();
        bbuf.clear();
        m.read_range(a, base, take, &mut abuf);
        m.read_range(b, base, take, &mut bbuf);
        acc.clear();
        for i in 0..take {
            acc.push(f(abuf[i], bbuf[i]));
        }
        out.push(m, &acc);
        m.charge_cycles(cost::EXPR * take as u64);
        base += take;
    }
    out.finish(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::project::fetch;
    use crate::exec::testutil::test_rt;
    use teleport::Mem;

    #[test]
    fn revenue_formula() {
        let mut rt = test_rt();
        let p = rt.alloc_region::<f64>(3);
        let d = rt.alloc_region::<f64>(3);
        rt.write_range(&p, 0, &[100.0f64, 200.0, 50.0]);
        rt.write_range(&d, 0, &[0.1f64, 0.0, 0.5]);
        let r = revenue(&mut rt, &p, &d, 3);
        assert_eq!(fetch(&mut rt, &r, 3), vec![90.0, 200.0, 25.0]);
    }

    #[test]
    fn q9_amount_formula() {
        let mut rt = test_rt();
        let p = rt.alloc_region::<f64>(2);
        let d = rt.alloc_region::<f64>(2);
        let c = rt.alloc_region::<f64>(2);
        let q = rt.alloc_region::<f64>(2);
        rt.write_range(&p, 0, &[100.0f64, 1000.0]);
        rt.write_range(&d, 0, &[0.1f64, 0.2]);
        rt.write_range(&c, 0, &[2.0f64, 10.0]);
        rt.write_range(&q, 0, &[5.0f64, 10.0]);
        let out = q9_amount(&mut rt, &p, &d, &c, &q, 2);
        assert_eq!(fetch(&mut rt, &out, 2), vec![80.0, 700.0]);
    }

    #[test]
    fn large_inputs_cross_chunks() {
        let mut rt = test_rt();
        let n = 40_000usize;
        let a = rt.alloc_region::<f64>(n);
        let b = rt.alloc_region::<f64>(n);
        let av: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let bv: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        rt.write_range(&a, 0, &av);
        rt.write_range(&b, 0, &bv);
        let out = binary_map(&mut rt, &a, &b, n, |x, y| x + y);
        let got = fetch(&mut rt, &out, n);
        for i in [0usize, 16_383, 16_384, 39_999] {
            assert_eq!(got[i], av[i] + bv[i], "index {i}");
        }
    }
}
