//! Allocation budget of the pushdown fixed path: a no-op pushdown must make
//! the same *number* of heap allocations whether the compute cache holds 0,
//! 512 or 4096 pages.
//!
//! The resident list, its RLE form and the session's copy of it are each a
//! `Vec` of O(resident) *bytes* in O(1) allocations (O(log resident) for the
//! list itself, which doubles on its way up). A structure that allocates a node
//! per resident page fails this test — the per-call `BTreeMap` the coherence
//! session used to rebuild made it 94 allocations on a 512-page call, where
//! 11 remain — and fails it deterministically, where a timing assert would
//! flake.
//!
//! One test in this file: the counting allocator is process-global, and the
//! counter is thread-local so the harness's own threads do not show in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ddc_os::Pattern;
use ddc_sim::{DdcConfig, PAGE_SIZE};
use teleport::{Mem, PushdownOpts, Runtime};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
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

/// Heap allocations (and reallocations) one steady-state no-op pushdown
/// makes with `resident` pages in the compute cache.
fn allocations_per_pushdown(resident: usize) -> u64 {
    let mut rt = Runtime::teleport(DdcConfig {
        compute_cache_bytes: resident.max(1) * PAGE_SIZE,
        memory_pool_bytes: 2 * resident.max(1) * PAGE_SIZE,
        ..Default::default()
    });
    let region = rt.alloc_region::<u64>(resident.max(1) * PAGE_SIZE / 8);
    for p in 0..resident {
        rt.get(&region, p * PAGE_SIZE / 8, Pattern::Rand);
    }
    if resident == 0 {
        rt.drop_cache();
    }
    assert_eq!(rt.dos().resident_list().len(), resident);
    rt.begin_timing();
    let mut call = || {
        let before = ALLOCS.with(Cell::get);
        rt.pushdown(PushdownOpts::new(), |_| 0u64)
            .expect("no-op pushdown");
        ALLOCS.with(Cell::get) - before
    };
    // The first calls grow the runtime's own long-lived buffers.
    call();
    call();
    let steady = call();
    assert_eq!(call(), steady, "allocation count repeats call to call");
    steady
}

#[test]
fn pushdown_allocation_count_does_not_grow_with_the_resident_set() {
    let empty = allocations_per_pushdown(0);
    for resident in [512usize, 4096] {
        let got = allocations_per_pushdown(resident);
        // Three vectors exist only when there is a list to ship: the
        // session's copy and the RLE runs are one allocation each, and
        // `Dos::resident_list` collects from an iterator of unknown length,
        // so it doubles its way up.
        let budget = empty + 3 + u64::from(resident.ilog2());
        assert!(
            got <= budget,
            "a no-op pushdown over {resident} resident pages made {got} allocations \
             ({empty} with an empty cache, budget {budget}): something allocates per page"
        );
    }
}
