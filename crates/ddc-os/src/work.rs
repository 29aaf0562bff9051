//! Work counters: how much of its own expensive host work the simulator did
//! on this thread.
//!
//! They describe how the simulation is computed, not what it simulates, so
//! they sit in no trace record, digest or metrics registry: two runs of one
//! scenario that differ only in host-side strategy read differently here and
//! identically everywhere else. Nothing is counted per access; those counts
//! are [`PagingStats`](crate::PagingStats)'.

use std::cell::Cell;

/// This thread's work counters since it started ([`work_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Bytes of segment backing written with zeros: recycled buffers made to
    /// read zero for a zeroed allocation, and whatever a region writer left
    /// unwritten when it finished.
    pub bytes_zeroed: u64,
    /// Segments given a fresh host buffer.
    pub fresh_backings: u64,
    /// Segments given a buffer a dropped address space left spare.
    pub recycled_backings: u64,
    /// Rows `Mem::gather` resolved.
    pub gather_rows: u64,
    /// The page runs those rows fell on: maximal stretches of consecutive
    /// rows on one page, each paying one full access.
    pub gather_runs: u64,
    /// Times a memory pool sorted its pages by recency stamp to find spill
    /// victims: once, at its first spill, however many follow.
    pub pool_victim_orders: u64,
    /// Times the compute cache rebuilt its resident view from the slab: a
    /// refresh after more noted changes than its journal holds, or after
    /// a clear.
    pub view_rebuilds: u64,
    /// Noted pages the compute cache reconciled into its resident view (a
    /// page noted twice counts twice): a table read each, and a word write
    /// for those that changed.
    pub view_notes_reconciled: u64,
    /// Runs of compute-side reads billed as one batch of cache hits
    /// (`Dos::settle_hits`), each in one settle instead of a cache lookup,
    /// an LRU move, a hit count and a clock add a read.
    pub hit_batches: u64,
    /// The reads those batches billed.
    pub batched_reads: u64,
}

impl WorkCounters {
    const ZERO: WorkCounters = WorkCounters {
        bytes_zeroed: 0,
        fresh_backings: 0,
        recycled_backings: 0,
        gather_rows: 0,
        gather_runs: 0,
        pool_victim_orders: 0,
        view_rebuilds: 0,
        view_notes_reconciled: 0,
        hit_batches: 0,
        batched_reads: 0,
    };

    /// Field-wise difference `self - earlier`: the work between two
    /// snapshots.
    pub fn delta_since(&self, earlier: &WorkCounters) -> WorkCounters {
        WorkCounters {
            bytes_zeroed: self.bytes_zeroed - earlier.bytes_zeroed,
            fresh_backings: self.fresh_backings - earlier.fresh_backings,
            recycled_backings: self.recycled_backings - earlier.recycled_backings,
            gather_rows: self.gather_rows - earlier.gather_rows,
            gather_runs: self.gather_runs - earlier.gather_runs,
            pool_victim_orders: self.pool_victim_orders - earlier.pool_victim_orders,
            view_rebuilds: self.view_rebuilds - earlier.view_rebuilds,
            view_notes_reconciled: self.view_notes_reconciled - earlier.view_notes_reconciled,
            hit_batches: self.hit_batches - earlier.hit_batches,
            batched_reads: self.batched_reads - earlier.batched_reads,
        }
    }
}

thread_local! {
    static COUNTERS: Cell<WorkCounters> = const { Cell::new(WorkCounters::ZERO) };
}

/// A snapshot of this thread's counters.
pub fn work_counters() -> WorkCounters {
    COUNTERS.try_with(Cell::get).unwrap_or_default()
}

/// Add to this thread's counters (nothing once its locals are torn down).
pub(crate) fn count(f: impl FnOnce(&mut WorkCounters)) {
    let _ = COUNTERS.try_with(|c| {
        let mut w = c.get();
        f(&mut w);
        c.set(w);
    });
}

/// Record one gather of `rows` rows that fell on `runs` page runs.
pub fn count_gather(rows: usize, runs: usize) {
    count(|w| {
        w.gather_rows += rows as u64;
        w.gather_runs += runs as u64;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_per_thread_and_deltas_isolate_a_span() {
        let before = work_counters();
        count_gather(12, 3);
        let d = work_counters().delta_since(&before);
        assert_eq!((d.gather_rows, d.gather_runs), (12, 3));
        let other = std::thread::spawn(work_counters).join();
        assert_eq!(other.ok(), Some(WorkCounters::default()), "a new thread");
    }
}
