//! Ordering operators: top-k selection for `ORDER BY ... LIMIT` plans.

use teleport::Mem;

use super::cost;

/// Sort `(sort_key, payload)` pairs descending by key and keep the top `k`.
/// Ties break on the payload's order for determinism. The comparison work
/// is charged as `n log2 n` cycles; the pairs themselves are operator
/// output already materialized host-side (group-by results are tiny).
pub fn topk_desc_f64<M: Mem, T: Clone>(
    m: &mut M,
    mut items: Vec<(f64, T)>,
    k: usize,
    tiebreak: impl Fn(&T, &T) -> std::cmp::Ordering,
) -> Vec<(f64, T)> {
    let n = items.len() as u64;
    if n > 1 {
        m.charge_cycles(cost::SORT * n * (64 - n.leading_zeros() as u64));
    }
    items.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| tiebreak(&a.1, &b.1)));
    items.truncate(k);
    items
}

use teleport::Region;

/// External merge sort of a key column with an aligned payload column —
/// the engine's `ORDER BY` for results too large to sort in one buffer.
///
/// Classic two-phase out-of-place sort, fully metered: (1) generate sorted
/// runs of `run_elems` elements (stream in, sort, stream out); (2) k-way
/// merge the runs into fresh output columns, reading each run in blocks.
/// Returns the sorted `(keys, payload)` columns.
pub fn external_sort_by_key<M: Mem>(
    m: &mut M,
    keys: &Region<i64>,
    payload: &Region<u32>,
    n: usize,
    run_elems: usize,
) -> (Region<i64>, Region<u32>) {
    assert!(run_elems >= 2, "runs need at least two elements");
    let mut out_k = m.region_writer::<i64>(n);
    let mut out_p = m.region_writer::<u32>(n);
    if n == 0 {
        return (out_k.finish(m), out_p.finish(m));
    }

    // Phase 1: sorted runs, written to scratch columns.
    let mut scratch_k = m.region_writer::<i64>(n);
    let mut scratch_p = m.region_writer::<u32>(n);
    let mut runs: Vec<(usize, usize)> = Vec::new(); // (start, len)
    let mut base = 0usize;
    let (mut kbuf, mut pbuf): (Vec<i64>, Vec<u32>) = (Vec::new(), Vec::new());
    while base < n {
        let take = run_elems.min(n - base);
        kbuf.clear();
        pbuf.clear();
        m.read_range(keys, base, take, &mut kbuf);
        m.read_range(payload, base, take, &mut pbuf);
        let mut idx: Vec<usize> = (0..take).collect();
        idx.sort_by_key(|&i| (kbuf[i], pbuf[i]));
        let sk: Vec<i64> = idx.iter().map(|&i| kbuf[i]).collect();
        let sp: Vec<u32> = idx.iter().map(|&i| pbuf[i]).collect();
        scratch_k.push(m, &sk);
        scratch_p.push(m, &sp);
        m.charge_cycles(cost::SORT * take as u64 * (64 - (take as u64).leading_zeros() as u64));
        runs.push((base, take));
        base += take;
    }
    let (scratch_k, scratch_p) = (scratch_k.finish(m), scratch_p.finish(m));

    // Phase 2: k-way merge with block-buffered run cursors.
    struct Cursor {
        start: usize,
        len: usize,
        pos: usize, // global position consumed
        kblock: Vec<i64>,
        pblock: Vec<u32>,
        boff: usize, // offset within the block
    }
    let block = (run_elems / 4).max(64);
    let mut cursors: Vec<Cursor> = runs
        .iter()
        .map(|&(start, len)| Cursor {
            start,
            len,
            pos: 0,
            kblock: Vec::new(),
            pblock: Vec::new(),
            boff: 0,
        })
        .collect();
    let mut out_kbuf: Vec<i64> = Vec::with_capacity(block);
    let mut out_pbuf: Vec<u32> = Vec::with_capacity(block);
    loop {
        // Refill exhausted cursors.
        for c in &mut cursors {
            if c.boff == c.kblock.len() && c.pos < c.len {
                let take = block.min(c.len - c.pos);
                c.kblock.clear();
                c.pblock.clear();
                m.read_range(&scratch_k, c.start + c.pos, take, &mut c.kblock);
                m.read_range(&scratch_p, c.start + c.pos, take, &mut c.pblock);
                c.boff = 0;
            }
        }
        // Pick the smallest head.
        let next = cursors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.boff < c.kblock.len())
            .min_by_key(|(i, c)| (c.kblock[c.boff], c.pblock[c.boff], *i))
            .map(|(i, _)| i);
        let Some(i) = next else { break };
        let c = &mut cursors[i];
        out_kbuf.push(c.kblock[c.boff]);
        out_pbuf.push(c.pblock[c.boff]);
        c.boff += 1;
        c.pos += 1;
        m.charge_cycles(cost::SORT * 2);
        if out_kbuf.len() == block {
            out_k.push(m, &out_kbuf);
            out_p.push(m, &out_pbuf);
            out_kbuf.clear();
            out_pbuf.clear();
        }
    }
    out_k.push(m, &out_kbuf);
    out_p.push(m, &out_pbuf);
    (out_k.finish(m), out_p.finish(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::test_rt;

    #[test]
    fn keeps_top_k_descending() {
        let mut rt = test_rt();
        let items = vec![(3.0, "c"), (9.0, "a"), (1.0, "d"), (7.0, "b")];
        let top = topk_desc_f64(&mut rt, items, 2, |a, b| a.cmp(b));
        assert_eq!(top, vec![(9.0, "a"), (7.0, "b")]);
    }

    #[test]
    fn ties_break_deterministically() {
        let mut rt = test_rt();
        let items = vec![(5.0, 30u32), (5.0, 10), (5.0, 20)];
        let top = topk_desc_f64(&mut rt, items, 3, |a, b| a.cmp(b));
        assert_eq!(top, vec![(5.0, 10), (5.0, 20), (5.0, 30)]);
    }

    #[test]
    fn short_inputs() {
        let mut rt = test_rt();
        let top = topk_desc_f64(&mut rt, Vec::<(f64, ())>::new(), 5, |_, _| {
            std::cmp::Ordering::Equal
        });
        assert!(top.is_empty());
        let top = topk_desc_f64(&mut rt, vec![(1.0, 9u8)], 5, |a, b| a.cmp(b));
        assert_eq!(top.len(), 1);
    }
}
