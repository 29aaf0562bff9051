//! Hash join: build a linear-probing hash index in (simulated) memory over
//! the inner relation, probe it with the outer relation.
//!
//! The probe phase is the paper's canonical memory-bound victim (§2.2):
//! random accesses into an index far larger than the compute-local cache
//! miss constantly in a DDC, which is why Q9's hash joins dominate its
//! disaggregated execution (Fig 10) and are prime pushdown candidates.
//!
//! The simulator pays the same misses on the host: the index's backing is
//! host memory too, and each simulated access runs a long chain of
//! bookkeeping the CPU cannot overlap with the next key's load. So
//! [`HashIndex::build`] and [`HashIndex::probe_all`] are software-pipelined:
//! before touching key *i*'s home slot they issue a host prefetch
//! ([`Mem::host_span`]) for key *i* + 8's key and value slots. A prefetch
//! is a hint to the host CPU only, so every simulated access, charge and
//! trace record is the one a plain loop of [`HashIndex::probe`] makes, in
//! the same order.

use ddc_os::HostSpan;
use teleport::{Mem, Region, Scalar};

use super::cost;

/// How many keys ahead of the one being inserted or probed the host
/// prefetches its slots: far enough for a DRAM miss to land before the
/// key comes up, near enough that the line is still cached then.
const PREFETCH_AHEAD: usize = 8;

/// An open-addressing (linear probing) hash index living in simulated
/// memory: a key array and an aligned payload array of inner row ids.
/// Key 0 marks an empty slot — TPC-H keys are ≥ 1; composite keys add 1.
#[derive(Debug, Clone, Copy)]
pub struct HashIndex {
    keys: Region<i64>,
    vals: Region<u32>,
    mask: u64,
    pub entries: usize,
}

#[inline]
fn hash64(key: i64) -> u64 {
    (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl HashIndex {
    /// Build an index mapping `keys[i] -> rows[i]`. Keys must be non-zero
    /// and unique (all TPC-H primary-key joins used here are).
    pub fn build<M: Mem>(m: &mut M, keys: &[i64], rows: &[u32]) -> HashIndex {
        assert_eq!(keys.len(), rows.len());
        let capacity = (keys.len().max(1) * 2).next_power_of_two();
        let mask = capacity as u64 - 1;
        let kreg = m.alloc_region::<i64>(capacity);
        let vreg = m.alloc_region::<u32>(capacity);
        let slots = Slots::new(m, &kreg, &vreg, mask);
        // Insertions are random writes into the table — the memory traffic
        // of a real hash build.
        for (i, (&k, &r)) in keys.iter().zip(rows).enumerate() {
            slots.prefetch_ahead(keys, i);
            assert!(k != 0, "key 0 is the empty sentinel");
            let mut slot = (hash64(k) & mask) as usize;
            loop {
                let existing = m.get(&kreg, slot, ddc_os::Pattern::Rand);
                if existing == 0 {
                    m.set(&kreg, slot, k, ddc_os::Pattern::Rand);
                    m.set(&vreg, slot, r, ddc_os::Pattern::Rand);
                    break;
                }
                assert!(existing != k, "duplicate key {k} at input {i}");
                slot = (slot + 1) & mask as usize;
            }
        }
        m.charge_cycles(cost::HASH_BUILD * keys.len() as u64);
        HashIndex {
            keys: kreg,
            vals: vreg,
            mask,
            entries: keys.len(),
        }
    }

    /// Probe one key; returns the inner row id if present.
    pub fn probe<M: Mem>(&self, m: &mut M, key: i64) -> Option<u32> {
        m.charge_cycles(cost::HASH_PROBE);
        if key == 0 {
            return None;
        }
        let mut slot = (hash64(key) & self.mask) as usize;
        loop {
            let k = m.get(&self.keys, slot, ddc_os::Pattern::Rand);
            if k == key {
                return Some(m.get(&self.vals, slot, ddc_os::Pattern::Rand));
            }
            if k == 0 {
                return None;
            }
            slot = (slot + 1) & self.mask as usize;
        }
    }

    /// Probe a batch of keys; returns `(outer_position, inner_row)` for
    /// every match, preserving outer order (an inner join against a
    /// unique-key inner relation).
    pub fn probe_all<M: Mem>(&self, m: &mut M, probe_keys: &[i64]) -> Vec<(u32, u32)> {
        let slots = Slots::new(m, &self.keys, &self.vals, self.mask);
        let mut out = Vec::new();
        for (i, &k) in probe_keys.iter().enumerate() {
            slots.prefetch_ahead(probe_keys, i);
            if let Some(row) = self.probe(m, k) {
                out.push((i as u32, row));
            }
        }
        out
    }
}

/// The host backing of an index's two arrays, for prefetching the home
/// slot of a key about to be inserted or probed.
struct Slots {
    keys: HostSpan,
    vals: HostSpan,
    mask: u64,
}

impl Slots {
    fn new<M: Mem>(m: &M, keys: &Region<i64>, vals: &Region<u32>, mask: u64) -> Slots {
        Slots {
            keys: m.host_span(keys),
            vals: m.host_span(vals),
            mask,
        }
    }

    /// Prefetch the key and value slots of `batch[i + PREFETCH_AHEAD]`, if
    /// the batch runs that far.
    #[inline]
    fn prefetch_ahead(&self, batch: &[i64], i: usize) {
        if let Some(&key) = batch.get(i + PREFETCH_AHEAD) {
            let slot = (hash64(key) & self.mask) as usize;
            self.keys.prefetch(slot * i64::BYTES);
            self.vals.prefetch(slot * u32::BYTES);
        }
    }
}

/// Compose a `(partkey, suppkey)` pair into a single join key, as the
/// engine does for partsupp lookups. Injective for `0 <= suppkey <
/// 100_000` (TPC-H suppkeys stay below 10 000 × SF); offsets by 1 so the
/// result is never the empty sentinel.
#[inline]
pub fn composite_key(partkey: i64, suppkey: i64) -> i64 {
    debug_assert!((0..100_000).contains(&suppkey));
    partkey * 100_000 + suppkey + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::test_rt;
    use ddc_sim::{DdcConfig, MetricsRegistry, MonolithicConfig};
    use teleport::{CoherenceMode, PlatformKind, PushdownOpts, Runtime};

    #[test]
    fn build_and_probe_hits_and_misses() {
        let mut rt = test_rt();
        let keys: Vec<i64> = vec![10, 20, 30, 40];
        let rows: Vec<u32> = vec![0, 1, 2, 3];
        let idx = HashIndex::build(&mut rt, &keys, &rows);
        assert_eq!(idx.entries, 4);
        assert_eq!(idx.probe(&mut rt, 30), Some(2));
        assert_eq!(idx.probe(&mut rt, 35), None);
        assert_eq!(idx.probe(&mut rt, 0), None);
    }

    #[test]
    fn probe_all_preserves_outer_order() {
        let mut rt = test_rt();
        let idx = HashIndex::build(&mut rt, &[5, 7, 9], &[50, 70, 90]);
        let matches = idx.probe_all(&mut rt, &[9, 6, 5, 7, 7]);
        assert_eq!(matches, vec![(0, 90), (2, 50), (3, 70), (4, 70)]);
    }

    #[test]
    fn survives_heavy_collisions() {
        // Keys chosen to collide in a small table exercise linear probing.
        let mut rt = test_rt();
        let n = 1000usize;
        let keys: Vec<i64> = (1..=n as i64).collect();
        let rows: Vec<u32> = (0..n as u32).collect();
        let idx = HashIndex::build(&mut rt, &keys, &rows);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.probe(&mut rt, k), Some(i as u32));
        }
        assert_eq!(idx.probe(&mut rt, n as i64 + 1), None);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_keys_are_rejected() {
        let mut rt = test_rt();
        let _ = HashIndex::build(&mut rt, &[4, 4], &[0, 1]);
    }

    #[test]
    fn composite_keys_are_injective_and_nonzero() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for pk in 0..50 {
            for sk in 0..50 {
                let k = composite_key(pk, sk);
                assert_ne!(k, 0);
                assert!(seen.insert(k), "collision at ({pk},{sk})");
            }
        }
        assert_ne!(composite_key(7, 13), composite_key(13, 7));
    }

    /// `build` without the prefetch pipeline: the loop the pipelined
    /// build must equal access for access.
    fn build_unpipelined<M: Mem>(m: &mut M, keys: &[i64], rows: &[u32]) -> HashIndex {
        let capacity = (keys.len().max(1) * 2).next_power_of_two();
        let mask = capacity as u64 - 1;
        let kreg = m.alloc_region::<i64>(capacity);
        let vreg = m.alloc_region::<u32>(capacity);
        for (&k, &r) in keys.iter().zip(rows) {
            let mut slot = (hash64(k) & mask) as usize;
            while m.get(&kreg, slot, ddc_os::Pattern::Rand) != 0 {
                slot = (slot + 1) & mask as usize;
            }
            m.set(&kreg, slot, k, ddc_os::Pattern::Rand);
            m.set(&vreg, slot, r, ddc_os::Pattern::Rand);
        }
        m.charge_cycles(cost::HASH_BUILD * keys.len() as u64);
        HashIndex {
            keys: kreg,
            vals: vreg,
            mask,
            entries: keys.len(),
        }
    }

    /// One side of an equivalence: the pipelined operator or its plain
    /// reference.
    #[derive(Debug, Clone, Copy)]
    enum Side {
        Pipelined,
        Reference,
    }

    /// Where a side runs.
    #[derive(Debug, Clone, Copy)]
    enum At {
        Compute,
        Pushdown,
        /// Compute-side, after a disabled-coherence pushdown left every
        /// third value slot of the index stale in the compute view.
        StaleView,
    }

    /// A hash-join input: `n` distinct seeded keys mapped to their
    /// positions, and `4 n + 9` probes of which about two in three hit (the
    /// last is the empty-slot key 0).
    fn input(n: usize, seed: u64) -> (Vec<i64>, Vec<u32>, Vec<i64>) {
        let mix = |x: u64| {
            (x ^ seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(29)
        };
        // Odd keys are in the table; probing an even one misses.
        let keys: Vec<i64> = (0..n as u64).map(|i| (mix(i) >> 2 | 1) as i64).collect();
        let rows: Vec<u32> = (0..n as u32).collect();
        let probes = (0..4 * n as u64 + 8)
            .map(|i| match (mix(i + n as u64) % 3, n) {
                (_, 0) | (0, _) => (mix(i) >> 2 & !1) as i64,
                _ => keys[(mix(i) % n as u64) as usize],
            })
            .chain([0])
            .collect();
        (keys, rows, probes)
    }

    fn runtime(kind: PlatformKind) -> Runtime {
        let ddc = DdcConfig {
            compute_cache_bytes: 256 << 10,
            memory_pool_bytes: 256 << 20,
            ..Default::default()
        };
        let rt = match kind {
            PlatformKind::Local => Runtime::local(MonolithicConfig::default()),
            PlatformKind::BaseDdc => Runtime::base_ddc(ddc),
            PlatformKind::Teleport => Runtime::teleport(ddc),
        };
        rt.enable_tracing();
        rt
    }

    /// With `build_only`, the side's build, read back whole; without, the
    /// side's probe loop over the pipelined build.
    fn join<M: Mem>(m: &mut M, side: Side, build_only: bool, input: &Input) -> Vec<i64> {
        let (keys, rows, probes) = input;
        if build_only {
            let idx = match side {
                Side::Pipelined => HashIndex::build(m, keys, rows),
                Side::Reference => build_unpipelined(m, keys, rows),
            };
            return table(m, &idx);
        }
        let idx = HashIndex::build(m, keys, rows);
        probe_with(m, side, &idx, probes)
    }

    fn probe_with<M: Mem>(m: &mut M, side: Side, idx: &HashIndex, probes: &[i64]) -> Vec<i64> {
        let hits = match side {
            Side::Pipelined => idx.probe_all(m, probes),
            Side::Reference => (0u32..)
                .zip(probes)
                .filter_map(|(i, &k)| Some((i, idx.probe(m, k)?)))
                .collect(),
        };
        hits.into_iter()
            .flat_map(|(i, row)| [i as i64, row as i64])
            .collect()
    }

    fn table<M: Mem>(m: &mut M, idx: &HashIndex) -> Vec<i64> {
        let (mut keys, mut vals) = (Vec::new(), Vec::new());
        m.read_range(&idx.keys, 0, idx.keys.len(), &mut keys);
        m.read_range(&idx.vals, 0, idx.vals.len(), &mut vals);
        keys.extend(vals.into_iter().map(i64::from));
        keys
    }

    type Input = (Vec<i64>, Vec<u32>, Vec<i64>);

    /// Everything a run shows of itself.
    struct Seen {
        values: Vec<i64>,
        elapsed_ns: u64,
        paging: ddc_os::PagingStats,
        metrics: MetricsRegistry,
        /// Digest and length.
        trace: (u64, u64),
    }

    fn run(kind: PlatformKind, at: At, side: Side, build_only: bool, input: &Input) -> Seen {
        let mut rt = runtime(kind);
        rt.begin_timing();
        let values = match at {
            At::Compute => join(&mut rt, side, build_only, input),
            At::Pushdown => rt
                .pushdown(PushdownOpts::new(), |arm| {
                    join(arm, side, build_only, input)
                })
                .expect("a healthy rack runs the pushdown"),
            At::StaleView => {
                let (keys, rows, probes) = input;
                let idx = HashIndex::build(&mut rt, keys, rows);
                let disabled = PushdownOpts::new().coherence(CoherenceMode::Disabled);
                rt.pushdown(disabled, |arm| {
                    for slot in (0..idx.vals.len()).step_by(3) {
                        arm.set(&idx.vals, slot, u32::MAX, ddc_os::Pattern::Rand);
                    }
                })
                .expect("a healthy rack runs the pushdown");
                if build_only {
                    // A build reads past the stale snapshots too.
                    let idx = match side {
                        Side::Pipelined => HashIndex::build(&mut rt, keys, rows),
                        Side::Reference => build_unpipelined(&mut rt, keys, rows),
                    };
                    table(&mut rt, &idx)
                } else {
                    let mut seen = probe_with(&mut rt, side, &idx, probes);
                    seen.extend(rt.run_local(|arm| probe_with(arm, side, &idx, probes)));
                    assert!(
                        !seen.contains(&u32::MAX.into()),
                        "the compute view keeps the values the pushdown overwrote"
                    );
                    seen
                }
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

    /// The pipelined build and `probe_all` against the plain loops, on
    /// every platform, compute-side, inside a pushdown and over a stale
    /// view: the same values, virtual time, paging counters, metrics and
    /// trace. The largest table (2 MiB of keys) is over 1 MiB, so the
    /// pipeline's last prefetches land near its end.
    #[test]
    fn prefetching_build_and_probe_equal_the_plain_loops() {
        let stale = [(PlatformKind::Teleport, At::StaleView)];
        for (n, seed) in [(0, 1), (1, 2), (7, 3), (9, 4), (1000, 5), (70_000, 6)] {
            let input = input(n, seed);
            let ats = if n > 10_000 {
                vec![(PlatformKind::BaseDdc, At::Compute)]
            } else {
                let kinds = [
                    PlatformKind::Local,
                    PlatformKind::BaseDdc,
                    PlatformKind::Teleport,
                ];
                let places = kinds
                    .iter()
                    .flat_map(|&k| [(k, At::Compute), (k, At::Pushdown)]);
                places.chain(stale).collect()
            };
            for (kind, at) in ats {
                for build_only in [true, false] {
                    let what = if build_only { "build" } else { "probe_all" };
                    let got = run(kind, at, Side::Pipelined, build_only, &input);
                    let want = run(kind, at, Side::Reference, build_only, &input);
                    let case = format!("{what}, n={n} {kind:?} {at:?}");
                    assert!(got.values == want.values, "{case}: values differ");
                    assert_eq!(got.elapsed_ns, want.elapsed_ns, "{case}: elapsed_ns");
                    assert_eq!(got.paging, want.paging, "{case}: paging_stats");
                    assert!(got.metrics == want.metrics, "{case}: metrics differ");
                    assert_eq!(got.trace, want.trace, "{case}: trace");
                }
            }
        }
    }

    #[test]
    fn probing_is_memory_bound_on_ddc() {
        // A probe storm over an index larger than the cache must generate
        // remote traffic — this is the Fig 10 HashJoin story.
        let mut rt = test_rt();
        let n = 50_000usize;
        let keys: Vec<i64> = (1..=n as i64).collect();
        let rows: Vec<u32> = (0..n as u32).collect();
        let idx = HashIndex::build(&mut rt, &keys, &rows);
        rt.drop_cache();
        rt.begin_timing();
        let mut hits = 0;
        for i in (1..=n as i64).step_by(17) {
            if idx.probe(&mut rt, i).is_some() {
                hits += 1;
            }
        }
        assert!(hits > 0);
        let stats = rt.paging_stats();
        assert!(
            stats.remote_page_in > (hits / 2) as u64,
            "probes should fault: {} pages for {hits} probes",
            stats.remote_page_in
        );
    }
}
