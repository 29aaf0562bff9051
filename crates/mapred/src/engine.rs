//! The Phoenix-style shared-memory MapReduce engine (paper §5.3).
//!
//! Execution has four phases, matching the paper's instrumentation:
//!
//! - **map-compute** — map tasks stream their input split and run the
//!   user's map function, emitting key–value pairs;
//! - **map-shuffle** — pairs are partitioned by key hash and appended to
//!   the reduce tasks' buffers. In a DDC this is the dominant cost (95% of
//!   map time) because the writes scatter across many buffers in remote
//!   memory — and it is what the paper TELEPORTs with 28 lines of code;
//! - **reduce** — each reduce task aggregates its buffer;
//! - **merge** — per-reducer outputs are merged into the final sorted
//!   result.
//!
//! Each phase runs through [`teleport::run_placed`], the one placement wrap
//! memdb's operators and graphproc's phases share: pushed when the
//! [`MrPlan`] names it and the runtime is Teleport, compute-side otherwise,
//! its time and remote traffic summed into the phase's [`WorkStat`].
//!
//! The map-shuffle is also the simulator's own largest host cost: each
//! pair's two bucket writes land at scattered positions over megabytes of
//! reduce buffers, so the host CPU waits on a cache miss per write — on
//! `Local`, which pages nothing, as much as anywhere. The shuffle therefore
//! runs through [`teleport::for_each_ahead`]: its `place` puts a pair in
//! its reducer and bucket position and prefetches the two slots through
//! [`Mem::host_span`], eight pairs before the `body` that writes them. A
//! prefetch is a hint to the host only, so every simulated access, charge
//! and trace record is the plain loop's, in the same order.

use std::{collections::HashMap, hash::BuildHasherDefault, hash::Hasher};

use ddc_os::{HostSpan, Pattern};
use ddc_sim::SimDuration;
use teleport::{
    for_each_ahead, run_placed, Arm, Mem, PaperUnits, Plan, Region, Runtime, Scalar, WorkStat,
};

use crate::textgen::{Corpus, END_OF_COMMENT};

/// Per-tuple CPU cost constants (cycles).
pub mod cost {
    /// Running the user map function on one word.
    pub const MAP_WORD: u64 = 8;
    /// Hash-partitioning and appending one key–value pair.
    pub const SHUFFLE_PAIR: u64 = 5;
    /// Folding one pair in a reduce task.
    pub const REDUCE_PAIR: u64 = 6;
    /// Merging one output record.
    pub const MERGE_RECORD: u64 = 4;
}

/// A MapReduce application over dictionary-coded text. Keys are word ids,
/// values are `u64` (Phoenix's WordCount/Grep shape).
pub trait MapReduceApp {
    fn name(&self) -> &'static str;
    /// Emit key–value pairs for one comment.
    fn map(&self, comment: &[u32], emit: &mut Vec<(u32, u64)>);
    /// Fold a value into a key's accumulator.
    fn reduce(&self, acc: u64, value: u64) -> u64;
    /// The accumulator's initial value.
    fn reduce_init(&self) -> u64 {
        0
    }
    /// Words of payload each emitted pair drags through the shuffle.
    /// WordCount pairs are bare counters (0); Grep ships the matching
    /// comment itself, which is what makes its shuffle data-intensive.
    fn payload_words(&self, _comment: &[u32]) -> u32 {
        0
    }
    /// Whether per-map-task combining applies (Phoenix's combiner: fold
    /// same-key pairs with `reduce` before the shuffle, cutting shuffle
    /// volume for aggregating apps like WordCount). Apps whose pairs carry
    /// payloads should leave this off.
    fn combinable(&self) -> bool {
        false
    }
}

/// The engine phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MrPhase {
    MapCompute,
    MapShuffle,
    Reduce,
    Merge,
}

/// The paper's choice: push only map-shuffle (§5.3).
impl PaperUnits for MrPhase {
    const PAPER: &'static [MrPhase] = &[MrPhase::MapShuffle];
}

/// Which phases run in the memory pool.
pub type MrPlan = Plan<MrPhase>;

/// Per-phase report (the Fig 10 right panel).
#[derive(Debug, Clone, Copy, Default)]
pub struct MrReport {
    pub map_compute: WorkStat,
    pub map_shuffle: WorkStat,
    pub reduce: WorkStat,
    pub merge: WorkStat,
    pub pairs_shuffled: u64,
}

impl MrReport {
    pub fn total(&self) -> SimDuration {
        self.map_compute.time + self.map_shuffle.time + self.reduce.time + self.merge.time
    }

    /// Map time = map-compute + map-shuffle (the paper splits the map
    /// phase into these two sub-phases).
    pub fn map_time(&self) -> SimDuration {
        self.map_compute.time + self.map_shuffle.time
    }

    fn stat_mut(&mut self, p: MrPhase) -> &mut WorkStat {
        match p {
            MrPhase::MapCompute => &mut self.map_compute,
            MrPhase::MapShuffle => &mut self.map_shuffle,
            MrPhase::Reduce => &mut self.reduce,
            MrPhase::Merge => &mut self.merge,
        }
    }
}

/// The corpus loaded into simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct LoadedCorpus {
    pub words: Region<u32>,
    pub len: usize,
    pub comments: usize,
}

impl LoadedCorpus {
    pub fn load<M: Mem>(m: &mut M, corpus: &Corpus) -> LoadedCorpus {
        LoadedCorpus {
            words: m.alloc_region_from(&corpus.words),
            len: corpus.len(),
            comments: corpus.comments,
        }
    }
}

/// Run an app over the loaded corpus with `map_tasks` map splits and
/// `reduce_tasks` reduce buffers. Returns the final `(key, value)` output
/// sorted by key, plus the per-phase report.
pub fn run<A: MapReduceApp>(
    rt: &mut Runtime,
    input: &LoadedCorpus,
    app: &A,
    map_tasks: usize,
    reduce_tasks: usize,
    plan: &MrPlan,
) -> (Vec<(u32, u64)>, MrReport) {
    run_with_combiner(rt, input, app, map_tasks, reduce_tasks, plan, false)
}

/// [`run`] with Phoenix's combiner optimization toggled on or off (applies
/// only to apps reporting [`MapReduceApp::combinable`]).
pub fn run_with_combiner<A: MapReduceApp>(
    rt: &mut Runtime,
    input: &LoadedCorpus,
    app: &A,
    map_tasks: usize,
    reduce_tasks: usize,
    plan: &MrPlan,
    combine: bool,
) -> (Vec<(u32, u64)>, MrReport) {
    assert!(map_tasks >= 1 && reduce_tasks >= 1);
    let mut rep = MrReport::default();
    let input = *input;

    // ---- Map-compute: stream each split, run the map function.
    let ph = MrPhase::MapCompute;
    let pairs: Vec<Vec<Pair>> = run_placed(rt, plan, ph, rep.stat_mut(ph), |m| {
        let mut all: Vec<Vec<Pair>> = Vec::with_capacity(map_tasks);
        let split = input.len.div_ceil(map_tasks);
        let mut buf: Vec<u32> = Vec::new();
        let mut comment: Vec<u32> = Vec::new();
        let mut scratch: Vec<(u32, u64)> = Vec::new();
        for t in 0..map_tasks {
            let lo = t * split;
            let hi = ((t + 1) * split).min(input.len);
            let mut emitted: Vec<Pair> = Vec::new();
            if lo < hi {
                buf.clear();
                m.read_range(&input.words, lo, hi - lo, &mut buf);
                // Splits are comment-aligned only approximately: a comment
                // spanning a boundary is processed by the task that sees
                // its terminator; leading words before the first
                // terminator of a non-first split belong to the previous
                // task's trailing comment and are skipped symmetrically.
                comment.clear();
                let mut iter = buf.iter().copied().peekable();
                if t > 0 {
                    // Words before our first terminator belong to a
                    // comment that *started* in the previous split (that
                    // task reads past its boundary to finish it) — unless
                    // the previous split ended exactly on a terminator.
                    let prev_word = m.get(&input.words, lo - 1, Pattern::Rand);
                    if prev_word != END_OF_COMMENT {
                        while let Some(&w) = iter.peek() {
                            iter.next();
                            if w == END_OF_COMMENT {
                                break;
                            }
                        }
                    }
                }
                for w in iter {
                    if w == END_OF_COMMENT {
                        scratch.clear();
                        app.map(&comment, &mut scratch);
                        let payload = app.payload_words(&comment);
                        emitted.extend(scratch.iter().map(|&(k, v)| (k, v, payload)));
                        comment.clear();
                    } else {
                        comment.push(w);
                    }
                }
                // Finish a comment that spills past the split boundary.
                if !comment.is_empty() && hi < input.len {
                    let mut pos = hi;
                    let mut tail: Vec<u32> = Vec::new();
                    loop {
                        let take = 64.min(input.len - pos);
                        if take == 0 {
                            break;
                        }
                        tail.clear();
                        m.read_range(&input.words, pos, take, &mut tail);
                        let mut done = false;
                        for &w in &tail {
                            if w == END_OF_COMMENT {
                                done = true;
                                break;
                            }
                            comment.push(w);
                        }
                        if done {
                            break;
                        }
                        pos += take;
                    }
                    scratch.clear();
                    app.map(&comment, &mut scratch);
                    let payload = app.payload_words(&comment);
                    emitted.extend(scratch.iter().map(|&(k, v)| (k, v, payload)));
                    comment.clear();
                } else if !comment.is_empty() {
                    scratch.clear();
                    app.map(&comment, &mut scratch);
                    let payload = app.payload_words(&comment);
                    emitted.extend(scratch.iter().map(|&(k, v)| (k, v, payload)));
                    comment.clear();
                }
                m.charge_cycles(cost::MAP_WORD * (hi - lo) as u64);
            }
            all.push(emitted);
        }
        all
    });
    // Optional combining: fold same-key pairs inside each map task before
    // they hit the shuffle (Phoenix's combiner optimization).
    let pairs: Vec<Vec<Pair>> = if combine && app.combinable() {
        pairs
            .into_iter()
            .map(|task| {
                let n = task.len() as u64;
                let folded = fold(app, task.iter().map(|&(k, v, _)| (k, v)));
                // Charged like a reduce pass over the task's pairs, on the
                // compute side (it runs inside the map task).
                rt.run_local(|m| m.charge_cycles(cost::REDUCE_PAIR * n));
                folded.into_iter().map(|(k, v)| (k, v, 0)).collect()
            })
            .collect()
    } else {
        pairs
    };
    let total_pairs: usize = pairs.iter().map(|p| p.len()).sum();
    rep.pairs_shuffled = total_pairs as u64;

    // Pre-size the reduce buffers from the (now known) partition counts.
    let mut sizes = vec![(0usize, 0usize); reduce_tasks];
    for &(k, _, pw) in pairs.iter().flatten() {
        let (count, payload_words) = &mut sizes[partition(k, reduce_tasks)];
        *count += 1;
        *payload_words += pw as usize;
    }
    let buffers: Vec<ReduceBuffer> = rt.run_local(|m| {
        sizes
            .iter()
            .map(|&(count, payload_words)| ReduceBuffer {
                keys: m.alloc_region(count.max(1)),
                vals: m.alloc_region(count.max(1)),
                payload: m.alloc_region(payload_words.max(1)),
                count,
                payload_words,
            })
            .collect()
    });

    // ---- Map-shuffle: insert every pair into its reduce task's keyed
    // buffer.
    let (pairs_ref, buffers_ref) = (&pairs, &buffers);
    let ph = MrPhase::MapShuffle;
    run_placed(rt, plan, ph, rep.stat_mut(ph), |m| {
        shuffle(m, pairs_ref, buffers_ref);
        m.charge_cycles(cost::SHUFFLE_PAIR * total_pairs as u64);
    });

    // ---- Reduce: aggregate each buffer.
    let ph = MrPhase::Reduce;
    let partials = run_placed(rt, plan, ph, rep.stat_mut(ph), |m| {
        buffers_ref
            .iter()
            .map(|buf| {
                let n = buf.count;
                let (mut keys, mut vals) = (Vec::new(), Vec::new());
                if n > 0 {
                    m.read_range(&buf.keys, 0, n, &mut keys);
                    m.read_range(&buf.vals, 0, n, &mut vals);
                }
                let out = fold(app, keys.iter().copied().zip(vals.iter().copied()));
                m.charge_cycles(cost::REDUCE_PAIR * n as u64);
                out
            })
            .collect::<Vec<_>>()
    });

    // ---- Merge: combine the sorted partial outputs.
    let partials_ref = &partials;
    let ph = MrPhase::Merge;
    let result = run_placed(rt, plan, ph, rep.stat_mut(ph), |m| {
        let mut merged = partials_ref.concat();
        // Each partial is sorted and the reducers hold disjoint keys, so
        // this is a merge of sorted runs, which the stable sort detects.
        merged.sort_by_key(|&(k, _)| k);
        m.charge_cycles(cost::MERGE_RECORD * merged.len() as u64);
        // Stream any shuffled payloads into the final output (Grep's
        // matched lines).
        for buf in buffers_ref {
            if buf.payload_words > 0 {
                let mut pbuf: Vec<u32> = Vec::new();
                m.read_range(&buf.payload, 0, buf.payload_words, &mut pbuf);
            }
        }
        // Materialize the final output as a real table in memory.
        let mut kout = m.region_writer::<u32>(merged.len());
        let mut vout = m.region_writer::<u64>(merged.len());
        let (ks, vs): (Vec<u32>, Vec<u64>) = merged.iter().copied().unzip();
        kout.push(m, &ks);
        vout.push(m, &vs);
        kout.finish(m);
        vout.finish(m);
        merged
    });

    (result, rep)
}

#[inline]
fn partition(key: u32, reduce_tasks: usize) -> usize {
    ((key as u64).wrapping_mul(0x9E37_79B9) % reduce_tasks as u64) as usize
}

/// A map output: `(key, value, payload_words)`.
type Pair = (u32, u64, u32);

/// One reduce task's buffer in simulated memory: `count` bucket slots of
/// keys and of values, and the `payload_words` its pairs drag along.
struct ReduceBuffer {
    keys: Region<u32>,
    vals: Region<u64>,
    payload: Region<u32>,
    count: usize,
    payload_words: usize,
}

/// Insert every pair into its reduce task's buffer. Phoenix inserts into
/// hash buckets inside each buffer, so the writes scatter across the whole
/// buffer (modeled with a coprime-stride position permutation); any payload
/// rides along. The look-ahead loop's `place` puts a pair (reducer and
/// bucket position, each computed once) and prefetches both slots on the
/// host; its `body` does every `set` and `write_raw` of the plain loop, in
/// its order.
fn shuffle(m: &mut Arm<'_>, pairs: &[Vec<Pair>], buffers: &[ReduceBuffer]) {
    let spans: Vec<(HostSpan, HostSpan)> = buffers
        .iter()
        .map(|buf| (m.host_span(&buf.keys), m.host_span(&buf.vals)))
        .collect();
    let mut positions: Vec<Positions> = buffers
        .iter()
        .map(|buf| Positions::new(buf.count))
        .collect();
    let place = |&(k, _, _): &Pair| {
        let r = partition(k, buffers.len());
        let pos = positions[r].next();
        spans[r].0.prefetch(pos * u32::BYTES);
        spans[r].1.prefetch(pos * u64::BYTES);
        (r, pos)
    };
    let mut payload_cursors = vec![0usize; buffers.len()];
    let payload_scratch = [0u8; 256];
    for_each_ahead(pairs.iter().flatten(), place, |&(k, v, pw), (r, pos)| {
        let buf = &buffers[r];
        m.set(&buf.keys, pos, k, Pattern::Rand);
        m.set(&buf.vals, pos, v, Pattern::Rand);
        // Payload (e.g. the matched comment) streams into the reduce
        // buffer as well.
        let mut left = pw as usize * 4;
        while left > 0 {
            let chunk = left.min(payload_scratch.len());
            m.write_raw(
                buf.payload.at(payload_cursors[r]),
                &payload_scratch[..chunk / 4 * 4],
                Pattern::Seq,
            );
            payload_cursors[r] += chunk / 4;
            left -= chunk;
        }
    });
}

/// The fold's key hasher: one multiply by 2^64/φ, the high half xored into
/// the low. Every key one reducer holds shares its low two bits (that is
/// how [`partition`] splits them), and the multiply keeps them, so without
/// the xor the map's bucket index would cluster.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the fold hashes u32 keys only")
    }

    fn write_u32(&mut self, key: u32) {
        self.0 = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Fold each key's values, in the order given, into one accumulator; the
/// result is sorted by key (so the hash map's order never shows).
fn fold<A: MapReduceApp>(app: &A, pairs: impl Iterator<Item = (u32, u64)>) -> Vec<(u32, u64)> {
    let mut agg: HashMap<u32, u64, BuildHasherDefault<KeyHasher>> = HashMap::default();
    for (k, v) in pairs {
        let acc = agg.entry(k).or_insert_with(|| app.reduce_init());
        *acc = app.reduce(*acc, v);
    }
    let mut out: Vec<(u32, u64)> = agg.into_iter().collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

/// A reduce buffer's bucket positions in insertion order: `c * stride %
/// count` for the `c`-th pair, kept as a running sum. `stride < count`
/// (or both are 1), so one subtraction wraps it.
struct Positions {
    next: usize,
    stride: usize,
    count: usize,
}

impl Positions {
    fn new(count: usize) -> Positions {
        Positions {
            next: 0,
            stride: coprime_stride(count),
            count: count.max(1),
        }
    }

    #[inline]
    fn next(&mut self) -> usize {
        let pos = self.next;
        self.next += self.stride;
        if self.next >= self.count {
            self.next -= self.count;
        }
        pos
    }
}

/// A stride coprime with `n`, used to spread bucket inserts across the
/// whole buffer (position `i*stride % n` is a permutation of `0..n`).
fn coprime_stride(n: usize) -> usize {
    if n <= 2 {
        return 1;
    }
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut s = (n as f64 * 0.618) as usize | 1;
    while gcd(s, n) != 1 {
        s += 2;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An app whose reduce depends on the order it sees a key's values in,
    /// so a fold that reorders them shows in the output.
    struct RowOrder;

    impl MapReduceApp for RowOrder {
        fn name(&self) -> &'static str {
            "RowOrder"
        }

        fn map(&self, comment: &[u32], emit: &mut Vec<(u32, u64)>) {
            for (i, &w) in comment.iter().enumerate() {
                emit.push((w, i as u64 + 1));
            }
        }

        fn reduce(&self, acc: u64, value: u64) -> u64 {
            acc.wrapping_mul(31).wrapping_add(value)
        }
    }

    /// The fold keeps each key's values in the order given: `RowOrder`'s
    /// reduce (`acc * 31 + v`) tells any other order apart.
    #[test]
    fn fold_keeps_each_keys_values_in_order() {
        let pairs = [(5, 1), (3, 2), (5, 3), (9, 7), (3, 4), (5, 2)];
        let want = vec![(3, 2 * 31 + 4), (5, (31 + 3) * 31 + 2), (9, 7)];
        assert_eq!(
            fold(&RowOrder, pairs.into_iter()),
            want,
            "RowOrder folds each key's values in row order"
        );
    }

    /// `fold` by a `BTreeMap`: each key's values in the order given.
    fn btree_fold(pairs: &[(u32, u64)]) -> Vec<(u32, u64)> {
        let mut agg = std::collections::BTreeMap::new();
        for &(k, v) in pairs {
            let acc = agg.entry(k).or_insert_with(|| RowOrder.reduce_init());
            *acc = RowOrder.reduce(*acc, v);
        }
        agg.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The fixed-hash fold equals a `BTreeMap` fold under the
        /// order-sensitive `RowOrder`: over keys from the whole `u32` range,
        /// and over keys all ≡ r (mod 4), the low bits every key of one
        /// reducer shares. Half the draws come from 64 values, so keys
        /// repeat.
        #[test]
        fn fold_equals_a_btree_fold(
            r in 0u32..4,
            pairs in prop::collection::vec((prop_oneof![0u32..64, any::<u32>()], any::<u64>()), 0..2_000),
        ) {
            let one_reducer: Vec<(u32, u64)> =
                pairs.iter().map(|&(k, v)| (k / 4 * 4 + r, v)).collect();
            for pairs in [pairs, one_reducer] {
                let got = fold(&RowOrder, pairs.iter().copied());
                prop_assert_eq!(got, btree_fold(&pairs));
            }
        }
    }

    /// The running positions are `c * stride % count`, for every count up
    /// to well past a wrap.
    #[test]
    fn positions_are_the_stride_permutation() {
        for count in 1..200 {
            let stride = coprime_stride(count);
            let mut at = Positions::new(count);
            for c in 0..3 * count {
                assert_eq!(at.next(), c * stride % count, "count {count}, pair {c}");
            }
        }
    }
}
