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
