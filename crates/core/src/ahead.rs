//! The host look-ahead loop, [`for_each_ahead`], and its property.

/// How many items ahead of the one whose `body` runs the loop places the
/// next: far enough for a DRAM miss to land before the item comes up, near
/// enough that the line is still cached then.
const AHEAD: usize = 8;

/// Run `body(x, place(x))` for every `x` of `items`, in order, but call
/// each item's `place` eight items (`AHEAD`) before its `body`.
///
/// A kernel whose accesses scatter over megabytes of simulated memory (a
/// hash index's slots, a shuffle's reduce buckets) makes the *host* wait on
/// a cache miss per access, because each simulated access runs a chain of
/// bookkeeping the CPU cannot overlap with the next one's load. Such a
/// kernel splits its loop in two: a `place` that computes an item's
/// position and prefetches its bytes through [`Mem::host_span`], and a
/// `body` that does the item's simulated accesses there. Issuing the data
/// movement is thus decoupled from using it (DaeMon's idea, on the host).
///
/// `place` runs exactly once an item, in item order, and never more than
/// eight items ahead of the last `body`; the placements wait in a fixed
/// eight-entry ring, so nothing is stored per item. `items` is walked by
/// two cursors, which is why its iterator must be `Clone` (a slice's, a
/// `zip` or `flatten` of slices', a range's).
///
/// A prefetch is a hint to the host only, so every simulated access, charge
/// and trace record is the one `for x in items { body(x, place(x)) }` makes,
/// in the same order. The borrow checker holds `place` to that: `body`
/// holds the `&mut` handle on the model, so a `place` that touches it does
/// not compile.
///
/// [`Mem::host_span`]: crate::Mem::host_span
#[inline]
pub fn for_each_ahead<I, P>(
    items: I,
    mut place: impl FnMut(I::Item) -> P,
    mut body: impl FnMut(I::Item, P),
) where
    I: IntoIterator,
    I::IntoIter: Clone,
    P: Copy + Default,
{
    let items = items.into_iter();
    let mut ahead = items.clone();
    let mut ring = [P::default(); AHEAD];
    fill(&mut ring, &mut ahead, &mut place);
    for (i, x) in items.enumerate() {
        let slot = &mut ring[i % AHEAD];
        let p = *slot;
        if let Some(next) = ahead.next() {
            *slot = place(next);
        }
        body(x, p);
    }
}

/// The ring's first `AHEAD` placements, out of line: LLVM unrolls this
/// fixed-length loop, `place` inlined into each of the eight copies, and
/// inlined it would do so in every caller.
#[inline(never)]
fn fill<I: Iterator, P>(
    ring: &mut [P; AHEAD],
    ahead: &mut I,
    place: &mut impl FnMut(I::Item) -> P,
) {
    for (slot, x) in ring.iter_mut().zip(ahead) {
        *slot = place(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoherenceMode, Mem, PlatformKind, PushdownOpts, Region, Runtime};
    use ddc_os::{PagingStats, Pattern};
    use ddc_sim::{DdcConfig, MetricsRegistry, MonolithicConfig};
    use proptest::prelude::*;
    use proptest::TestCaseError;

    /// One call of either closure, in the order the loop made it.
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Place(usize),
        Body(usize, usize),
    }

    /// The calling contract over `n` items: `body` gets `(x, place(x))` in
    /// item order, `place` runs once an item in order, and `place(j)` runs
    /// after exactly the `j - AHEAD` bodies before it (none while `j` is
    /// under `AHEAD`).
    fn check_calls(n: usize) -> Result<(), TestCaseError> {
        let log = std::cell::RefCell::new(Vec::new());
        for_each_ahead(
            0..n,
            |j| {
                log.borrow_mut().push(Call::Place(j));
                // A placement that names its item: one handed to another
                // item's body shows.
                j * 3 + 1
            },
            |x, p| log.borrow_mut().push(Call::Body(x, p)),
        );
        let log = log.into_inner();
        let (mut placed, mut done) = (0, 0);
        for call in &log {
            match *call {
                Call::Place(j) => {
                    prop_assert_eq!(j, placed, "n={}: place out of order: {:?}", n, log);
                    prop_assert_eq!(
                        done,
                        j.saturating_sub(AHEAD),
                        "n={}: place({}) ran after {} bodies",
                        n,
                        j,
                        done
                    );
                    placed += 1;
                }
                Call::Body(x, p) => {
                    prop_assert_eq!(x, done, "n={}: body out of order: {:?}", n, log);
                    prop_assert!(x < placed, "n={}: body({}) before its place", n, x);
                    prop_assert_eq!(p, x * 3 + 1, "n={}: body({}) got another placement", n, x);
                    done += 1;
                }
            }
        }
        prop_assert_eq!((placed, done), (n, n), "n={}: calls {:?}", n, log);
        Ok(())
    }

    #[test]
    fn for_each_ahead_keeps_the_calling_contract_at_every_small_count() {
        for n in 0..=3 * AHEAD {
            check_calls(n).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    /// Where the loop runs.
    #[derive(Debug, Clone, Copy)]
    enum At {
        Compute,
        Pushdown,
        /// Compute-side, after a disabled-coherence pushdown overwrote
        /// every third element, so the compute view reads stale snapshots.
        StaleView,
    }

    /// Everything a run shows of itself.
    struct Seen {
        values: Vec<u64>,
        elapsed_ns: u64,
        paging: PagingStats,
        metrics: MetricsRegistry,
        /// Digest and length.
        trace: (u64, u64),
    }

    /// Read each item's element and add the item to it, through the loop
    /// (`ahead`, placing with a host prefetch) or inline; returns what was
    /// read, then the table.
    fn walk<M: Mem>(m: &mut M, table: &Region<u64>, items: &[u64], ahead: bool) -> Vec<u64> {
        let (len, span) = (table.len() as u64, m.host_span(table));
        let mut seen = Vec::new();
        let mut body = |x: u64, pos: usize| {
            let v = m.get(table, pos, Pattern::Rand);
            m.set(table, pos, v.wrapping_add(x), Pattern::Rand);
            seen.push(v);
        };
        if ahead {
            let place = |&x: &u64| {
                let pos = (x % len) as usize;
                span.prefetch(pos * 8);
                pos
            };
            for_each_ahead(items, place, |&x, pos| body(x, pos));
        } else {
            for &x in items {
                body(x, (x % len) as usize);
            }
        }
        let mut table_now = Vec::new();
        m.read_range(table, 0, table.len(), &mut table_now);
        seen.extend(table_now);
        seen
    }

    fn run(kind: PlatformKind, at: At, len: usize, items: &[u64], ahead: bool) -> Seen {
        let ddc = DdcConfig {
            compute_cache_bytes: 256 << 10,
            memory_pool_bytes: 64 << 20,
            ..Default::default()
        };
        let mut rt = match kind {
            PlatformKind::Local => Runtime::local(MonolithicConfig::default()),
            PlatformKind::BaseDdc => Runtime::base_ddc(ddc),
            PlatformKind::Teleport => Runtime::teleport(ddc),
        };
        rt.enable_tracing();
        let init: Vec<u64> = (0..len as u64).map(|i| i * 0x9E37_79B9).collect();
        let table = rt.alloc_region_from(&init);
        rt.begin_timing();
        let values = match at {
            At::Compute => walk(&mut rt, &table, items, ahead),
            At::Pushdown => rt
                .pushdown(PushdownOpts::new(), |arm| walk(arm, &table, items, ahead))
                .expect("a healthy rack runs the pushdown"),
            At::StaleView => {
                let disabled = PushdownOpts::new().coherence(CoherenceMode::Disabled);
                rt.pushdown(disabled, |arm| {
                    for i in (0..len).step_by(3) {
                        arm.set(&table, i, u64::MAX, Pattern::Rand);
                    }
                })
                .expect("a healthy rack runs the pushdown");
                walk(&mut rt, &table, items, ahead)
            }
        };
        Seen {
            values,
            elapsed_ns: rt.elapsed().as_nanos(),
            paging: rt.paging_stats(),
            metrics: rt.metrics(),
            trace: (rt.trace().digest(), rt.trace().len()),
        }
    }

    /// The loop against the inline loop on every platform, compute-side,
    /// inside a pushdown and over a stale view: the same values, virtual
    /// time, paging counters, metrics and trace.
    fn check_equal(len: usize, items: &[u64]) -> Result<(), TestCaseError> {
        let kinds = [
            PlatformKind::Local,
            PlatformKind::BaseDdc,
            PlatformKind::Teleport,
        ];
        let places = kinds
            .into_iter()
            .flat_map(|k| [(k, At::Compute), (k, At::Pushdown)])
            .chain([(PlatformKind::Teleport, At::StaleView)]);
        for (kind, at) in places {
            let got = run(kind, at, len, items, true);
            let want = run(kind, at, len, items, false);
            let case = format!("{} items over {len}, {kind:?} {at:?}", items.len());
            prop_assert!(got.values == want.values, "{}: values differ", case);
            prop_assert_eq!(got.elapsed_ns, want.elapsed_ns, "{}: elapsed_ns", case);
            prop_assert_eq!(got.paging, want.paging, "{}: paging_stats", case);
            prop_assert!(got.metrics == want.metrics, "{}: metrics differ", case);
            prop_assert_eq!(got.trace, want.trace, "{}: trace", case);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn for_each_ahead_keeps_the_calling_contract(n in 0..400usize) {
            check_calls(n)?;
        }

        #[test]
        fn for_each_ahead_equals_the_inline_loop(
            len in 1..3000usize,
            items in prop::collection::vec(any::<u64>(), 0..3 * AHEAD + 40),
        ) {
            check_equal(len, &items)?;
        }
    }

    /// A table of 1.25 MiB, past the host's L2, whose last items land on
    /// its last elements, so the loop's late prefetches fall near the end
    /// of the span.
    #[test]
    fn for_each_ahead_equals_the_inline_loop_over_a_table_past_1_mib() {
        let len = 160 << 10;
        let tail = (len - 2 * AHEAD..len).rev().map(|i| i as u64);
        let items: Vec<u64> = (0..2000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
            .chain(tail)
            .collect();
        assert!(len * 8 > 1 << 20);
        check_equal(len, &items).unwrap_or_else(|e| panic!("{e}"));
    }
}
