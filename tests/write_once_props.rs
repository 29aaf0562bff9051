//! The two write-once / resolve-once paths against what they replace, on
//! racks built alike:
//!
//! - `Mem::gather` against a loop of `get`: random element types, region
//!   sizes, patterns and row sets (sorted, shuffled, with duplicates,
//!   empty), caches down to one page, through the `Runtime` and through an
//!   `Arm` (compute-side, and memory-side inside a pushdown), on all three
//!   platforms, on one pool and on a 2-pool `LoadBalance` rack, with no
//!   plane armed, with the integrity plane armed under a corruption plan,
//!   and with disabled-coherence stale snapshots held;
//! - a `RegionWriter` against `alloc_region` + `write_range`: random push
//!   chunkings (an unfinished tail included), a read of another region after
//!   every push, on fresh and on recycled backing, through the runtime and
//!   memory-side, on plain racks and on an integrity-armed replicated rack
//!   with a corruption plan.
//!
//! Each pair must leave the same `(elapsed_ns, trace digest, trace len)`,
//! paging stats, coherence stats, metrics registry and values — and, for the
//! writer, the same bytes on every page of the region, padding included.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ddc_os::{work_counters, AddressSpace, PagingStats, Pattern, VAddr};
use ddc_sim::{
    DdcConfig, FaultPlan, MetricsRegistry, MonolithicConfig, PlacementPolicy, ReplicationMode,
    SimTime, FOREVER, PAGE_SIZE,
};
use memdb::exec::hashjoin::HashIndex;
use proptest::prelude::*;
use proptest::TestCaseError;
use teleport::{
    CoherenceMode, CoherenceStats, Mem, PlatformKind, PushdownOpts, Region, Runtime, Scalar,
};

const PLATFORMS: [PlatformKind; 3] = [
    PlatformKind::Local,
    PlatformKind::BaseDdc,
    PlatformKind::Teleport,
];

/// The plane a rack runs with besides paging.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plane {
    None,
    /// Integrity armed: a synchronous replica and a plan of pool scribbles,
    /// fabric bit flips and latent sectors, so pages are checked on every
    /// access and repaired from the replica.
    Integrity,
    /// A disabled-coherence pushdown has written a page the compute side
    /// caches, so the runtime holds its stale snapshot (Teleport only; a
    /// plain rack elsewhere).
    Stale,
}

#[derive(Debug, Clone, Copy)]
struct Rack {
    kind: PlatformKind,
    cache_pages: usize,
    pools: usize,
    plane: Plane,
    seed: u64,
}

/// Where the access under test runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Via {
    Runtime,
    /// `run_local`'s compute-side arm.
    LocalArm,
    /// A pushdown's arm: memory-side on Teleport, compute-side elsewhere.
    Pushdown,
}

fn build(rack: &Rack) -> Runtime {
    let ddc = DdcConfig {
        compute_cache_bytes: rack.cache_pages * PAGE_SIZE,
        pools: rack.pools,
        placement: PlacementPolicy::LoadBalance,
        replication: match rack.plane {
            Plane::Integrity => ReplicationMode::Synchronous,
            _ => ReplicationMode::default(),
        },
        ..Default::default()
    };
    let mut rt = match rack.kind {
        PlatformKind::Local => Runtime::local(MonolithicConfig {
            dram_bytes: rack.cache_pages * PAGE_SIZE,
            ..Default::default()
        }),
        PlatformKind::BaseDdc => Runtime::base_ddc(ddc),
        PlatformKind::Teleport => Runtime::teleport(ddc),
    };
    rt.enable_tracing();
    if rack.plane == Plane::Integrity {
        rt.install_fault_plan(
            FaultPlan::new(rack.seed)
                .pool_scribbles(SimTime(0), FOREVER, 0.3)
                .fabric_bit_flips(SimTime(0), FOREVER, 0.3)
                .ssd_latent_sectors(SimTime(0), FOREVER, 0.3),
        );
    }
    rt
}

/// Everything either path could move.
#[derive(Debug, PartialEq)]
struct Outcome<V> {
    pin: (u64, u64, u64),
    stats: PagingStats,
    coherence: Option<CoherenceStats>,
    metrics: MetricsRegistry,
    values: V,
}

fn outcome<V>(rt: &Runtime, values: V) -> Outcome<V> {
    Outcome {
        pin: (
            rt.elapsed().as_nanos(),
            rt.trace().digest(),
            rt.trace().len(),
        ),
        stats: rt.paging_stats(),
        coherence: rt.last_coherence_stats(),
        metrics: rt.metrics(),
        values,
    }
}

/// A value of `T` for index `i` that no neighbour shares.
trait Sample: Scalar + PartialEq + Debug {
    fn sample(i: u64) -> Self;
}

macro_rules! sample_by_cast {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            fn sample(i: u64) -> Self {
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29) as $t
            }
        }
    )*};
}
sample_by_cast!(u8, u16, u32, u64, i64);

impl Sample for f64 {
    fn sample(i: u64) -> Self {
        i as f64 * 1.25 - 7.0
    }
}

fn samples<T: Sample>(n: usize, tag: u64) -> Vec<T> {
    (0..n as u64).map(|i| T::sample(i ^ tag)).collect()
}

// ---------------------------------------------------------------------------
// Gather
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct GatherCase {
    rack: Rack,
    via: Via,
    pat: Pattern,
    /// Region length, drawn up to six pages' worth of elements and a few
    /// more ([`gather_len`]).
    len_draw: u64,
    /// How `rows` are drawn: 0 sorted, 1 shuffled, 2 with duplicates, 3 empty.
    rows_kind: u8,
    row_draws: Vec<u64>,
    /// Pages the compute side writes before the gather (coherence work for
    /// a memory-side gather, dirty pages for everyone).
    dirty_draws: Vec<u64>,
}

fn rows_for(case: &GatherCase, len: usize) -> Vec<u32> {
    let mut rows: Vec<u32> = case
        .row_draws
        .iter()
        .map(|&d| (d % len as u64) as u32)
        .collect();
    match case.rows_kind {
        0 => {
            rows.sort_unstable();
            rows.dedup();
        }
        1 => {
            rows.sort_unstable();
            rows.dedup();
            let n = rows.len();
            for i in (1..n).rev() {
                rows.swap(i, (case.row_draws[i] >> 32) as usize % (i + 1));
            }
        }
        2 => {
            // Each row repeated a drawn number of times, kept in draw order.
            rows = rows
                .iter()
                .zip(&case.row_draws)
                .flat_map(|(&r, &d)| std::iter::repeat_n(r, 1 + (d >> 60) as usize))
                .collect();
        }
        _ => rows.clear(),
    }
    rows
}

/// Load a region, set the rack up for `case`, and read `rows` of it with
/// `gather` or a loop of `get`.
fn gather_run<T: Sample>(case: &GatherCase, rows: &[u32], batched: bool) -> Outcome<Vec<T>> {
    let len = gather_len::<T>(case);
    let mut rt = build(&case.rack);
    let col = rt.alloc_region_from(&samples::<T>(len, 5));
    for &d in &case.dirty_draws {
        let i = (d % len as u64) as usize;
        rt.set(&col, i, T::sample(d), Pattern::Rand);
    }
    if case.rack.plane == Plane::Stale && case.rack.kind == PlatformKind::Teleport {
        rt.get(&col, 0, Pattern::Rand);
        let opts = PushdownOpts::new().coherence(CoherenceMode::Disabled);
        rt.pushdown(opts, |m| m.set(&col, 0, T::sample(99), Pattern::Rand))
            .expect("pushdown");
    }
    let mut out = Vec::new();
    match case.via {
        Via::Runtime => read_rows(&mut rt, &col, rows, case.pat, batched, &mut out),
        Via::LocalArm => rt.run_local(|m| read_rows(m, &col, rows, case.pat, batched, &mut out)),
        Via::Pushdown => rt
            .pushdown(PushdownOpts::new(), |m| {
                read_rows(m, &col, rows, case.pat, batched, &mut out)
            })
            .expect("pushdown"),
    }
    outcome(&rt, out)
}

/// `r[rows]` into `out`, through `gather` or a loop of `get`.
fn read_rows<M: Mem, T: Scalar>(
    m: &mut M,
    r: &Region<T>,
    rows: &[u32],
    pat: Pattern,
    batched: bool,
    out: &mut Vec<T>,
) {
    if batched {
        m.gather(r, rows, pat, out);
    } else {
        out.extend(rows.iter().map(|&row| m.get(r, row as usize, pat)));
    }
}

fn gather_len<T: Scalar>(case: &GatherCase) -> usize {
    (1 + case.len_draw % (6 * (PAGE_SIZE / T::BYTES) as u64 + 17)) as usize
}

fn gather_matches_get<T: Sample>(case: &GatherCase) -> Result<(), TestCaseError> {
    let rows = rows_for(case, gather_len::<T>(case));
    let looped = gather_run::<T>(case, &rows, false);
    let gathered = gather_run::<T>(case, &rows, true);
    prop_assert_eq!(gathered, looped, "{case:?}, rows {rows:?}");
    Ok(())
}

fn rack_strategy() -> impl Strategy<Value = Rack> {
    (0usize..3, 1usize..9, 1usize..3, 0u8..3, any::<u64>()).prop_map(
        |(k, cache_pages, pools, plane, seed)| Rack {
            kind: PLATFORMS[k],
            cache_pages,
            pools: if PLATFORMS[k] == PlatformKind::Local {
                1
            } else {
                pools
            },
            plane: [Plane::None, Plane::Integrity, Plane::Stale][plane as usize],
            seed,
        },
    )
}

fn gather_strategy() -> impl Strategy<Value = (GatherCase, u8)> {
    (
        rack_strategy(),
        0u8..3,
        any::<bool>(),
        any::<u64>(),
        0u8..4,
        prop::collection::vec(any::<u64>(), 1..400),
        prop::collection::vec(any::<u64>(), 0..6),
        0u8..5,
    )
        .prop_map(
            |(rack, via, seq, len_draw, rows_kind, row_draws, dirty_draws, ty)| {
                let case = GatherCase {
                    rack,
                    via: [Via::Runtime, Via::LocalArm, Via::Pushdown][via as usize],
                    pat: if seq { Pattern::Seq } else { Pattern::Rand },
                    len_draw,
                    rows_kind,
                    row_draws,
                    dirty_draws,
                };
                (case, ty)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn gather_charges_what_a_loop_of_get_charges((case, ty) in gather_strategy()) {
        match ty {
            0 => gather_matches_get::<u8>(&case)?,
            1 => gather_matches_get::<u16>(&case)?,
            2 => gather_matches_get::<u32>(&case)?,
            3 => gather_matches_get::<i64>(&case)?,
            _ => gather_matches_get::<f64>(&case)?,
        }
    }
}

/// A row past the end panics in `gather` as it does in a loop of `get`, at
/// the same virtual instant, whether it opens a page run or sits inside one.
#[test]
fn an_out_of_range_row_panics_as_get_does() {
    let len = 3 * PAGE_SIZE / 8 + 5;
    for bad in [
        vec![len as u32],
        vec![0, 1, len as u32],
        vec![2, 5, len as u32 + 7, 9],
    ] {
        for kind in PLATFORMS {
            let rack = Rack {
                kind,
                cache_pages: 2,
                pools: 1,
                plane: Plane::None,
                seed: 1,
            };
            let run = |batched: bool| {
                let mut rt = build(&rack);
                let col = rt.alloc_region_from(&samples::<i64>(len, 3));
                let mut out = Vec::new();
                let panicked = catch_unwind(AssertUnwindSafe(|| {
                    read_rows(&mut rt, &col, &bad, Pattern::Rand, batched, &mut out)
                }))
                .is_err();
                (panicked, outcome(&rt, out))
            };
            let (gather_panicked, gathered) = run(true);
            let (get_panicked, looped) = run(false);
            assert!(get_panicked && gather_panicked, "{kind:?}, rows {bad:?}");
            assert_eq!(gathered, looped, "{kind:?}, rows {bad:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Hash probes
// ---------------------------------------------------------------------------

/// Pages of the region a probe run reads after its probes: more than any
/// drawn cache holds, so its faults evict every index page the cache still
/// has, in LRU order, and the `Evict` records put that order in the digest.
const SWEEP_PAGES: usize = 64;

#[derive(Debug, Clone)]
struct ProbeCase {
    rack: Rack,
    via: Via,
    /// Keys in the index; its two regions span up to twelve pages.
    keys: usize,
    /// One probe a draw: a key of the index, a key it lacks, or the empty
    /// sentinel 0.
    probe_draws: Vec<u64>,
}

/// The `i`th index key: distinct and non-zero.
fn index_key(i: u64) -> i64 {
    (i * 7 + 3) as i64
}

fn probe_keys(case: &ProbeCase) -> Vec<i64> {
    let n = case.keys as u64;
    case.probe_draws
        .iter()
        .map(|&d| match d % 8 {
            0 => 0,
            1 | 2 => index_key(n + d % 97) + 1,
            _ => index_key(d / 8 % n),
        })
        .collect()
}

/// Build an index on the compute side, set the rack up for `case`, probe it
/// with `probe_all` or a loop of `probe`, then sweep a region larger than
/// the cache.
fn probe_run(case: &ProbeCase, probes: &[i64], batched: bool) -> Outcome<Vec<(u32, u32)>> {
    let mut rt = build(&case.rack);
    let sweep = rt.alloc_region::<u64>(SWEEP_PAGES * PAGE_SIZE / 8);
    let keys: Vec<i64> = (0..case.keys as u64).map(index_key).collect();
    let rows: Vec<u32> = (0..case.keys as u32).collect();
    let idx = HashIndex::build(&mut rt, &keys, &rows);
    match case.rack.plane {
        // Flushing the index's dirty pages lets pool scribbles land on
        // pages the cache still holds, so the probes' hits meet them.
        Plane::Integrity => {
            rt.syncmem();
        }
        Plane::Stale if case.rack.kind == PlatformKind::Teleport => {
            // Empty the index's first page memory-side behind the compute
            // cache's back: the compute view keeps its stale snapshot.
            let space = rt.dos().space();
            let sweep_end = sweep.addr().offset((SWEEP_PAGES * PAGE_SIZE) as u64);
            let first = space
                .mapped_pages()
                .into_iter()
                .find(|p| p.base() >= sweep_end);
            let page = first.expect("the index is mapped after the sweep region");
            // The key region's bytes: its capacity of 8-byte slots.
            let key_bytes = (case.keys * 2).next_power_of_two() * 8;
            let zeros = vec![0; key_bytes.min(PAGE_SIZE)];
            let opts = PushdownOpts::new().coherence(CoherenceMode::Disabled);
            rt.pushdown(opts, |m| m.write_raw(page.base(), &zeros, Pattern::Seq))
                .expect("pushdown");
        }
        _ => {}
    }
    let values = match case.via {
        Via::Runtime => probe_with(&mut rt, &idx, probes, batched),
        Via::LocalArm => rt.run_local(|m| probe_with(m, &idx, probes, batched)),
        Via::Pushdown => rt
            .pushdown(PushdownOpts::new(), |m| {
                probe_with(m, &idx, probes, batched)
            })
            .expect("pushdown"),
    };
    for page in 0..SWEEP_PAGES {
        rt.get(&sweep, page * PAGE_SIZE / 8, Pattern::Rand);
    }
    outcome(&rt, values)
}

/// `(position, row)` of each probe that hits, through `probe_all` or a loop
/// of `probe`.
fn probe_with<M: Mem>(
    m: &mut M,
    idx: &HashIndex,
    probes: &[i64],
    batched: bool,
) -> Vec<(u32, u32)> {
    if batched {
        return idx.probe_all(m, probes);
    }
    let hits = probes.iter().enumerate();
    hits.filter_map(|(i, &k)| idx.probe(m, k).map(|row| (i as u32, row)))
        .collect()
}

fn probe_strategy() -> impl Strategy<Value = ProbeCase> {
    (
        rack_strategy(),
        1usize..48,
        0u8..3,
        1usize..1200,
        prop::collection::vec(any::<u64>(), 0..600),
    )
        .prop_map(|(mut rack, cache_pages, via, keys, probe_draws)| {
            rack.cache_pages = cache_pages;
            ProbeCase {
                rack,
                via: [Via::Runtime, Via::LocalArm, Via::Pushdown][via as usize],
                keys,
                probe_draws,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn probe_all_charges_what_a_loop_of_probe_charges(case in probe_strategy()) {
        let probes = probe_keys(&case);
        let l = probe_run(&case, &probes, false);
        let b = probe_run(&case, &probes, true);
        for (what, same) in [
            ("pin", b.pin == l.pin),
            ("paging stats", b.stats == l.stats),
            ("coherence stats", b.coherence == l.coherence),
            ("metrics", b.metrics == l.metrics),
            ("values", b.values == l.values),
        ] {
            prop_assert!(same, "probe_all against a loop of probe: {} differ; {:?}", what, case);
        }
    }
}

/// The property above is not vacuous: over an index the cache holds, a
/// compute-side `probe_all` is one batch of every read its probes make, on
/// every platform; inside a Teleport pushdown, and while a stale snapshot
/// is held, it batches nothing.
#[test]
fn probe_all_batches_over_a_resident_index_only() {
    for kind in PLATFORMS {
        for (via, plane) in [
            (Via::Runtime, Plane::None),
            (Via::LocalArm, Plane::None),
            (Via::Pushdown, Plane::None),
            (Via::Runtime, Plane::Stale),
            (Via::Runtime, Plane::Integrity),
        ] {
            let case = ProbeCase {
                rack: Rack {
                    kind,
                    cache_pages: 40,
                    pools: 1,
                    plane,
                    seed: 7,
                },
                via,
                keys: 900,
                probe_draws: (0..500u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect(),
            };
            let before = work_counters();
            probe_run(&case, &probe_keys(&case), true);
            let work = work_counters().delta_since(&before);
            let batches = match (kind, via, plane) {
                (_, _, Plane::Integrity) => 0,
                (PlatformKind::Teleport, Via::Pushdown, _) => 0,
                (PlatformKind::Teleport, _, Plane::Stale) => 0,
                _ => 1,
            };
            assert_eq!(work.hit_batches, batches, "{kind:?} {via:?} {plane:?}");
            assert_eq!(
                work.batched_reads > 0,
                batches > 0,
                "{kind:?} {via:?} {plane:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Region writer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct WriteCase {
    rack: Rack,
    /// Runtime, or memory-side inside a pushdown (compute-side off Teleport).
    pushed: bool,
    /// Take the region's backing from a dead rack of the same shape whose
    /// every byte was 0xA5.
    recycled: bool,
    len_draw: u64,
    /// Push sizes as draws; they are cut to what is left, so the pushes may
    /// stop short of the end (the unfinished tail must read zero).
    chunk_draws: Vec<u64>,
    /// After each push, one read of another region.
    read_draws: Vec<u64>,
}

/// Elements of the other region, read between pushes.
const OTHER: usize = 3 * PAGE_SIZE / 8;

fn write_len<T: Scalar>(case: &WriteCase) -> usize {
    (case.len_draw % (5 * (PAGE_SIZE / T::BYTES) as u64 + 13)) as usize
}

/// Push sizes for `len` elements: each a draw cut to what is left.
fn chunks(case: &WriteCase, len: usize) -> Vec<usize> {
    let mut left = len;
    case.chunk_draws
        .iter()
        .map(|&d| {
            let n = (d % (left as u64 + 1)) as usize;
            left -= n;
            n
        })
        .collect()
}

/// The script both paths run: a region of `len` filled chunk by chunk with
/// a read of `other` after every chunk, through a writer or through
/// `alloc_region` + `write_range`.
fn fill<M: Mem, T: Sample>(
    m: &mut M,
    case: &WriteCase,
    other: &Region<u64>,
    len: usize,
    via_writer: bool,
) -> Region<T> {
    let vals = samples::<T>(len, 11);
    let mut reads = case.read_draws.iter().cycle();
    let mut next_read = |m: &mut M| {
        let i = reads.next().map_or(0, |&d| (d % OTHER as u64) as usize);
        m.get(other, i, Pattern::Rand);
    };
    let mut at = 0;
    if via_writer {
        let mut w = m.region_writer::<T>(len);
        for n in chunks(case, len) {
            w.push(m, &vals[at..at + n]);
            at += n;
            next_read(m);
        }
        w.finish(m)
    } else {
        let r = m.alloc_region::<T>(len);
        for n in chunks(case, len) {
            m.write_range(&r, at, &vals[at..at + n]);
            at += n;
            next_read(m);
        }
        r
    }
}

/// Every byte of every page of the allocation at `addr`, padding included.
fn page_images(rt: &Runtime, addr: VAddr) -> Vec<u8> {
    let space = rt.dos().space();
    space
        .pages_of(addr)
        .flat_map(|p| space.page_view(p).to_vec())
        .collect()
}

fn write_run<T: Sample>(case: &WriteCase, via_writer: bool) -> Outcome<(Vec<u8>, Vec<T>)> {
    let len = write_len::<T>(case);
    let rack = case.rack;
    let allocate = |rt: &mut Runtime| rt.alloc_region_from(&samples::<u64>(OTHER, 7));
    if case.recycled {
        let mut dead = build(&rack);
        allocate(&mut dead);
        dead.alloc_region::<T>(len);
        let space = dead.dos_mut().space_mut();
        for p in space.mapped_pages() {
            space.page_view_mut(p).fill(0xA5);
        }
    } else {
        drop(AddressSpace::new());
    }
    let mut rt = build(&rack);
    let other = allocate(&mut rt);
    let col: Region<T> = if case.pushed {
        rt.pushdown(PushdownOpts::new(), |m| {
            fill(m, case, &other, len, via_writer)
        })
        .expect("pushdown")
    } else {
        fill(&mut rt, case, &other, len, via_writer)
    };
    let mut values = Vec::new();
    rt.read_range(&col, 0, len, &mut values);
    let bytes = page_images(&rt, col.addr());
    outcome(&rt, (bytes, values))
}

fn writer_matches_write_range<T: Sample>(case: &WriteCase) -> Result<(), TestCaseError> {
    let reference = write_run::<T>(case, false);
    let written = write_run::<T>(case, true);
    let len = write_len::<T>(case);
    let pushed: usize = chunks(case, len).iter().sum();
    let mut expect = samples::<T>(len, 11);
    for v in &mut expect[pushed..] {
        *v = T::decode(&[0u8; 8][..T::BYTES]);
    }
    prop_assert_eq!(written, reference, "{case:?}");
    // Under a corruption plan the read back can meet an unrepairable page;
    // it does so on both paths alike.
    if case.rack.plane == Plane::None {
        prop_assert_eq!(&reference.values.1, &expect, "{case:?}: values");
    }
    Ok(())
}

fn write_strategy() -> impl Strategy<Value = (WriteCase, u8)> {
    (
        rack_strategy(),
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
        prop::collection::vec(any::<u64>(), 0..6),
        prop::collection::vec(any::<u64>(), 1..4),
        0u8..5,
    )
        .prop_map(
            |(mut rack, pushed, recycled, len_draw, chunk_draws, read_draws, ty)| {
                if rack.plane != Plane::Integrity {
                    rack.plane = Plane::None;
                }
                let case = WriteCase {
                    rack,
                    pushed,
                    recycled,
                    len_draw,
                    chunk_draws,
                    read_draws,
                };
                (case, ty)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_region_writer_leaves_what_alloc_and_write_range_leave((case, ty) in write_strategy()) {
        match ty {
            0 => writer_matches_write_range::<u8>(&case)?,
            1 => writer_matches_write_range::<u16>(&case)?,
            2 => writer_matches_write_range::<u32>(&case)?,
            3 => writer_matches_write_range::<i64>(&case)?,
            _ => writer_matches_write_range::<f64>(&case)?,
        }
    }
}

/// `read_range` and `write_range` refuse a range whose end overflows
/// instead of wrapping past the bounds check.
#[test]
fn ranges_whose_end_overflows_panic_naming_the_range() {
    for write in [false, true] {
        let mut rt = Runtime::local(MonolithicConfig::default());
        let col = rt.alloc_region::<u64>(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if write {
                rt.write_range(&col, usize::MAX, &[1, 2]);
            } else {
                rt.read_range(&col, usize::MAX - 1, 3, &mut Vec::new());
            }
        }));
        let msg = caught.expect_err("an overflowing range must panic");
        let msg = msg.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("out of bounds (4)"), "write {write}: {msg}");
    }
}
