//! Allocation budget of the pushdown fixed path: a steady-state pushdown
//! makes no heap allocation at all — a no-op call whether the compute cache
//! holds 0, 512 or 4096 pages, the same call right after a compute-side
//! miss changed the cache, a one-page memory-side lookup (`kvapp::get`), and
//! a call reading two neighbouring pages on one pool or fanned out over two.
//!
//! The compute cache keeps its page-indexed view between calls and the
//! request, the wire charge and the coherence session all share it, so
//! nothing about a call is proportional to the resident set; a miss is
//! patched into the view with one table write, and the table grows when the
//! cache's own index does, at the miss, not at the next call. The session's
//! touched-page table takes the slots the previous session left. A call
//! that collects, sorts, encodes or copies the list allocates for it — 11
//! and 14 allocations at 512 and 4096 pages when it did all four — and a
//! session that builds a fresh touched table makes one allocation; either
//! fails this test deterministically, where a timing assert would flake.
//! The cache is filled in scrambled page order so that neither the slab nor
//! a walk of it is in address order already.
//!
//! Nor may it grow with the rack: a pushdown whose two pages stripe over both
//! shards of a 2-pool `LoadBalance` rack settles its fan-out from a `Copy`
//! routing window read off the shards, and allocates nothing either. (When
//! the window was a `BTreeSet` refilled per call and collected into a `Vec`,
//! the 2-pool call made two allocations more.)
//!
//! And the access path itself allocates nothing: `get`, `set`, `read_range`
//! into a reserved `Vec` and `write_range` of 1, 2 and 64 pages make zero
//! heap allocations a call — compute-side through the runtime and through an
//! arm on all three platforms over a warm cache, and memory-side inside a
//! pushdown on pages its session has already touched. `write_range` encodes
//! straight into the backing bytes; when it staged each page in a
//! `vec![0u8; 4096]` of its own it made one allocation a call, which this
//! test turns into a failure.
//!
//! And a rack built after an identical one died takes its segment backing
//! from the dead one (`AddressSpace`, "Backing lifetime"): the second and
//! third of three memdb racks — one per platform, loaded and queried alike —
//! ask the allocator for no zeroed block of 16 pages or more, which is what
//! a fresh segment is. A platform that allocates a size the others do not,
//! or an `alloc` that goes back to `vec![0u8; n]`, makes that count non-zero.
//!
//! And tracing adds nothing once the ring has wrapped: each of a traced
//! pushdown's records then replaces the oldest in the buffer the ring
//! already holds, so a steady-state traced call allocates no more than an
//! untraced one — none.
//!
//! The counting allocator is process-global; its counters are thread-local,
//! so neither test sees the other's or the harness's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ddc_os::Pattern;
use ddc_sim::{
    DdcConfig, FaultPlan, MonolithicConfig, PlacementPolicy, SimDuration, SimTime, FOREVER,
    PAGE_SIZE,
};
use kvapp::{KvData, KvStore};
use memdb::{q6, Database, PushdownPlan, QueryParams, TpchData};
use teleport::{Arm, HedgePolicy, Mem, PlatformKind, PushdownOpts, Region, Runtime};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Zeroed requests of 16 pages or more: `vec![0u8; n]` of a segment.
    static LARGE_ZEROED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump,
// which neither allocates (const-initialised `Cell`, no destructor) nor
// unwinds (`try_with` turns use-during-teardown into a no-op).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        if layout.size() >= 16 * PAGE_SIZE {
            let _ = LARGE_ZEROED.try_with(|n| n.set(n.get() + 1));
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Misses tried one at a time, a pushdown after each.
const MISSES: usize = 4;

/// Heap allocations (and reallocations) one pushdown of `f` makes.
fn counted_pushdown(rt: &mut Runtime, f: impl FnOnce(&mut Arm<'_>) -> u64) -> u64 {
    let before = ALLOCS.with(Cell::get);
    rt.pushdown(PushdownOpts::new(), f).expect("pushdown");
    ALLOCS.with(Cell::get) - before
}

/// Heap allocations (and reallocations) of one steady-state no-op pushdown
/// with `resident` pages in the compute cache: over a cache unchanged since
/// the previous call, and the most seen right after a single miss.
fn allocations_per_pushdown(resident: usize) -> (u64, u64) {
    let pages = resident.max(1);
    let mut rt = Runtime::teleport(DdcConfig {
        compute_cache_bytes: pages * PAGE_SIZE,
        memory_pool_bytes: 2 * (pages + MISSES) * PAGE_SIZE,
        ..Default::default()
    });
    // The pages past the cache's worth are there to miss on.
    let region = rt.alloc_region::<u64>((pages + MISSES) * PAGE_SIZE / 8);
    // Every page of the cache's worth once, scrambled: the stride is odd
    // and the counts are powers of two.
    for i in 0..resident {
        rt.get(&region, i * 193 % resident * PAGE_SIZE / 8, Pattern::Rand);
    }
    if resident == 0 {
        rt.drop_cache();
    }
    assert_eq!(rt.dos().resident_list().len(), resident);
    rt.begin_timing();
    let call = |rt: &mut Runtime| counted_pushdown(rt, |_| 0u64);
    // The first calls grow the runtime's own long-lived buffers.
    call(&mut rt);
    call(&mut rt);
    let unchanged = call(&mut rt);
    assert_eq!(call(&mut rt), unchanged, "the count repeats call to call");
    let mut after_miss = 0;
    for spare in 0..MISSES {
        let misses = rt.dos().stats().cache_misses;
        rt.get(&region, (pages + spare) * PAGE_SIZE / 8, Pattern::Rand);
        assert_eq!(rt.dos().stats().cache_misses, misses + 1);
        after_miss = after_miss.max(call(&mut rt));
    }
    (unchanged, after_miss)
}

/// Heap allocations of each of a few steady-state `kvapp::get` pushdowns,
/// one word of one page read memory-side a call, over a warm 64-page cache
/// that holds none of the pages looked up.
fn allocations_per_lookup() -> Vec<u64> {
    let data = KvData::generate(1 << 16, 7);
    let mut rt = Runtime::teleport(DdcConfig {
        compute_cache_bytes: 64 * PAGE_SIZE,
        ..Default::default()
    });
    let store = KvStore::load(&mut rt, &data);
    rt.drop_cache();
    for page in 0..64 {
        rt.get(&store.vals, page * PAGE_SIZE / 8, Pattern::Rand);
    }
    rt.begin_timing();
    let lookup = |rt: &mut Runtime, key: u64| {
        let before = ALLOCS.with(Cell::get);
        let got = kvapp::get(rt, &store, key).expect("lookup");
        assert_eq!(got, kvapp::oracle::get(&data, key));
        ALLOCS.with(Cell::get) - before
    };
    // The first lookup takes the touched table's first slots.
    lookup(&mut rt, 40_000);
    (0..4)
        .map(|i| lookup(&mut rt, 41_000 + 1_000 * i))
        .collect()
}

/// Heap allocations of one steady-state pushdown that reads a word on each
/// of two neighbouring pages, on a rack of `pools` shards striped page by
/// page — so with two shards every call fans out over both.
fn allocations_per_two_page_pushdown(pools: usize) -> u64 {
    let mut rt = Runtime::teleport(DdcConfig {
        pools,
        placement: PlacementPolicy::LoadBalance,
        ..Default::default()
    });
    let region = rt.alloc_region::<u64>(2 * PAGE_SIZE / 8);
    rt.begin_timing();
    let call = |rt: &mut Runtime| {
        counted_pushdown(rt, |m| {
            m.get(&region, 0, Pattern::Rand) + m.get(&region, PAGE_SIZE / 8, Pattern::Rand)
        })
    };
    call(&mut rt);
    call(&mut rt);
    let steady = call(&mut rt);
    assert_eq!(call(&mut rt), steady, "the count repeats call to call");
    let fanned_out = if pools > 1 { 4 } else { 0 };
    assert_eq!(
        rt.metrics().get("topology.fanout_pushdowns"),
        Some(fanned_out)
    );
    steady
}

/// Elements of the column the access-path rounds run over: the 64-page
/// range starts off a page boundary, so it ends on a 65th page.
const COLUMN: usize = 66 * PAGE_SIZE / 8;

/// Heap allocations of one round of typed accesses through `m`: a `get`, a
/// `set`, and a `read_range` into `buf` (reserved by the caller) with the
/// `write_range` of what it read, over 1, 2 and 64 pages' worth of elements
/// from an index that is not page-aligned. A first round is run and not
/// counted: it faults the pages in and, memory-side, lets the session note
/// them.
fn access_round_allocations<M: Mem>(m: &mut M, col: &Region<u64>, buf: &mut Vec<u64>) -> u64 {
    let mut round = |m: &mut M| {
        let before = ALLOCS.with(Cell::get);
        let v = m.get(col, 3, Pattern::Rand);
        m.set(col, 5, v + 1, Pattern::Rand);
        for pages in [1, 2, 64] {
            buf.clear();
            m.read_range(col, 7, pages * PAGE_SIZE / 8, buf);
            m.write_range(col, 7, buf);
        }
        ALLOCS.with(Cell::get) - before
    };
    round(m);
    round(m)
}

/// [`access_round_allocations`] on one platform: through the runtime, through
/// a compute-side arm, and inside a pushdown (memory-side on Teleport).
fn access_path_allocations(mut rt: Runtime) -> [u64; 3] {
    let col = rt.alloc_region::<u64>(COLUMN);
    let mut buf: Vec<u64> = Vec::with_capacity(64 * PAGE_SIZE / 8);
    rt.begin_timing();
    let direct = access_round_allocations(&mut rt, &col, &mut buf);
    let arm = rt.run_local(|m| access_round_allocations(m, &col, &mut buf));
    let pushed = rt
        .pushdown(PushdownOpts::new(), |m| {
            access_round_allocations(m, &col, &mut buf)
        })
        .expect("pushdown");
    assert_eq!(buf.len(), 64 * PAGE_SIZE / 8, "the last range read");
    assert_eq!(
        rt.get(&col, 5, Pattern::Rand),
        1,
        "the rounds' `set` landed"
    );
    [direct, arm, pushed]
}

#[test]
fn pushdown_allocation_count_does_not_grow_with_the_resident_set() {
    for (platform, rt) in [
        ("Local", Runtime::local(Default::default())),
        ("BaseDdc", Runtime::base_ddc(DdcConfig::default())),
        ("Teleport", Runtime::teleport(DdcConfig::default())),
    ] {
        assert_eq!(
            access_path_allocations(rt),
            [0, 0, 0],
            "{platform}: get + set + read_range + write_range of 1, 2 and 64 pages allocated \
             (through the runtime, a compute-side arm, a pushdown)"
        );
    }
    for resident in [0usize, 512, 4096] {
        assert_eq!(
            allocations_per_pushdown(resident),
            (0, 0),
            "(over an unchanged cache, right after a miss): a no-op pushdown over {resident} \
             resident pages allocated"
        );
    }
    assert_eq!(
        allocations_per_lookup(),
        [0; 4],
        "a one-page memory-side `kvapp::get` pushdown allocated"
    );
    assert_eq!(
        [1, 2].map(allocations_per_two_page_pushdown),
        [0, 0],
        "a two-page pushdown on 1 and on 2 pools allocated"
    );
}

/// Heap allocations of each of four steady-state `pushdown_hedged` calls,
/// one page read memory-side a call, under `plan`.
fn allocations_per_hedged_call(plan: FaultPlan) -> Vec<u64> {
    let mut rt = Runtime::teleport(DdcConfig::default());
    let col = rt.alloc_region::<u64>(PAGE_SIZE / 8);
    rt.install_fault_plan(plan);
    rt.begin_timing();
    let mut call = || {
        let before = ALLOCS.with(Cell::get);
        rt.pushdown_hedged(PushdownOpts::new(), &HedgePolicy::default(), |m| {
            m.get(&col, 0, Pattern::Rand)
        })
        .expect("hedged pushdown");
        ALLOCS.with(Cell::get) - before
    };
    // The first call grows the runtime's own long-lived buffers.
    call();
    (0..4).map(|_| call()).collect()
}

/// A hedged call reads the fault plan's seed for its jitter; reading it
/// must not copy the plan (it did, one allocation a call under any
/// non-empty plan).
#[test]
fn a_hedged_pushdown_allocates_no_more_under_a_fault_plan() {
    let far = SimTime(u64::MAX / 2);
    let armed = FaultPlan::new(7).fabric_latency_spike(far, FOREVER, SimDuration::from_micros(1));
    assert_eq!(
        allocations_per_hedged_call(armed),
        allocations_per_hedged_call(FaultPlan::new(7)),
        "hedged calls under a one-spec plan against an empty one"
    );
}

/// Large zeroed allocator requests of one rack's whole life: build, load
/// `data`, run Q6 under `plan`, drop.
fn large_zeroed_requests_of_a_rack(
    kind: PlatformKind,
    data: &TpchData,
    plan: &PushdownPlan,
) -> (u64, f64, Vec<&'static str>) {
    let ws = data.working_set_bytes();
    let ddc = DdcConfig::with_cache_ratio(ws, 0.02);
    let before = LARGE_ZEROED.with(Cell::get);
    let mut rt = match kind {
        PlatformKind::Local => Runtime::local(MonolithicConfig {
            dram_bytes: ws * 4 + (64 << 20),
            ..Default::default()
        }),
        PlatformKind::BaseDdc => Runtime::base_ddc(ddc),
        PlatformKind::Teleport => Runtime::teleport(ddc),
    };
    let db = Database::load(&mut rt, data);
    let (sum, report) = q6(&mut rt, &db, plan, &QueryParams::default());
    drop(rt);
    let requests = LARGE_ZEROED.with(Cell::get) - before;
    (requests, sum, report.rank_by_intensity())
}

#[test]
fn identical_racks_replay_with_no_fresh_segment_backing() {
    let data = TpchData::generate(0.005, 11);
    let none = PushdownPlan::none();
    let (first, local_sum, _) = large_zeroed_requests_of_a_rack(PlatformKind::Local, &data, &none);
    assert!(
        first > 0,
        "the first rack's large columns are fresh segments: the counter sees them"
    );
    let (second, base_sum, ranking) =
        large_zeroed_requests_of_a_rack(PlatformKind::BaseDdc, &data, &none);
    let pushed = PushdownPlan::top_k(&ranking, 4);
    let (third, tele_sum, _) =
        large_zeroed_requests_of_a_rack(PlatformKind::Teleport, &data, &pushed);
    assert_eq!(
        (second, third),
        (0, 0),
        "the BaseDdc and Teleport racks asked the allocator for fresh segment backing"
    );
    assert_eq!((base_sum, tele_sum), (local_sum, local_sum));
}

/// A traced one-page pushdown, after enough of them to wrap the ring, makes
/// no heap allocation.
#[test]
fn traced_pushdowns_allocate_nothing_once_the_ring_has_wrapped() {
    let mut rt = Runtime::teleport(DdcConfig::default());
    rt.enable_tracing();
    let col = rt.alloc_region::<u64>(PAGE_SIZE / 8);
    rt.begin_timing();
    let call = |rt: &mut Runtime| counted_pushdown(rt, |m| m.get(&col, 0, Pattern::Rand));
    while rt.trace().len() <= rt.trace().ring_capacity() as u64 {
        call(&mut rt);
    }
    assert_eq!(
        (0..4).map(|_| call(&mut rt)).collect::<Vec<u64>>(),
        [0; 4],
        "a traced pushdown over a wrapped ring allocated"
    );
}
