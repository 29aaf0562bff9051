//! The memory pool: the backing store of the process address space.
//!
//! The memory pool holds the authoritative page table. A page is either
//! resident in pool DRAM or swapped out to the storage pool; the pool has a
//! finite capacity (the paper's Fig 15 varies it from 1 GB to 128 GB) and
//! evicts LRU pages to storage when full. Pages currently held by the
//! compute-local cache are pinned: evicting the backing copy of a cached
//! page would create a coherence hazard the real OS also avoids.
//!
//! Recency is a stamp, not a chain. Every event that makes a page
//! most-recently-used (its page-in, an access while unpinned, the unpin that
//! frees it) gives it the next value of a counter, which costs one store.
//! The recency *order* is built only when the pool first has to spill, by
//! sorting its evictable pages by stamp; from then on each new stamp is
//! appended to it. Most racks never fill their pool, so they never build it.

use std::collections::VecDeque;

use crate::page::{PageId, PageTable};
use crate::work;

/// Residency of one page in the memory pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residency {
    /// Not known to this pool.
    Unmapped,
    /// In pool DRAM. `dirty` = newer than the storage copy.
    InPool { dirty: bool },
    /// Swapped out to the storage pool.
    InStorage,
}

/// One page-table record: everything the pool knows about a page, so each
/// operation reads and writes a single slot.
#[derive(Debug, Clone, Copy)]
struct PageRecord {
    state: Residency,
    /// Nested pins held by the compute cache.
    pins: u32,
    /// When the page last became most-recently-used; a larger stamp is more
    /// recent. Read only while the page is resident and unpinned.
    stamp: u64,
}

impl PageRecord {
    /// May be spilled: resident and unpinned.
    fn evictable(&self) -> bool {
        self.pins == 0 && matches!(self.state, Residency::InPool { .. })
    }

    /// A spill candidate queued as `stamp` is still this page's current
    /// one: evictable and not restamped since.
    fn is_candidate(&self, stamp: u64) -> bool {
        self.evictable() && self.stamp == stamp
    }
}

const UNMAPPED: PageRecord = PageRecord {
    state: Residency::Unmapped,
    pins: 0,
    stamp: 0,
};

/// What `ensure_resident` had to do to make a page pool-resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolFault {
    /// The page had to be read from storage.
    pub storage_read: bool,
    /// A victim page was written back to storage to make room.
    pub storage_writeback: bool,
}

impl PoolFault {
    /// True if any storage traffic occurred.
    pub fn any(&self) -> bool {
        self.storage_read || self.storage_writeback
    }
}

/// Finite-capacity memory pool with LRU spill to storage.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    capacity: usize,
    table: PageTable<PageRecord>,
    /// The last stamp handed out.
    clock: u64,
    /// Spill candidates as `(stamp, page)`, oldest first. Empty until the
    /// first spill orders every evictable page by stamp; from then on each
    /// stamp issued is appended, so every evictable page's current stamp has
    /// an entry and the entries stay in stamp order. An entry whose page has
    /// since been restamped, pinned or spilled is stale: a spill skips it,
    /// and once stale entries make the queue twice the capacity they are
    /// dropped. So the first entry still valid is the oldest evictable page
    /// — exact LRU.
    victims: VecDeque<(u64, PageId)>,
    /// `victims` has been ordered: the pool has spilled.
    spilled: bool,
    mapped_count: usize,
    resident_count: usize,
}

impl MemoryPool {
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "memory pool needs at least one page");
        MemoryPool {
            capacity: capacity_pages,
            table: PageTable::new(UNMAPPED),
            clock: 0,
            victims: VecDeque::new(),
            spilled: false,
            mapped_count: 0,
            resident_count: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn resident_pages(&self) -> usize {
        self.resident_count
    }

    /// Pages known to this pool (resident or swapped). Placement policies
    /// use it as the shard's occupancy measure.
    pub fn mapped_len(&self) -> usize {
        self.mapped_count
    }

    /// True if the page is known to the pool (resident or swapped).
    pub fn is_mapped(&self, page: PageId) -> bool {
        self.table.get(page).state != Residency::Unmapped
    }

    /// True if the page is resident in pool DRAM.
    pub fn is_resident(&self, page: PageId) -> bool {
        matches!(self.table.get(page).state, Residency::InPool { .. })
    }

    /// True if the resident copy is newer than the storage copy. The repair
    /// lattice branches on this: a clean page can always be re-read from
    /// storage, a dirty page only from a surviving replica copy.
    pub fn is_dirty(&self, page: PageId) -> bool {
        self.table.get(page).state == Residency::InPool { dirty: true }
    }

    /// Register a freshly allocated page. It starts pool-resident and clean
    /// (a zero page has no storage copy to be newer than, but writing it
    /// back on eviction is what a real swap would do — callers account for
    /// that via the eviction result, which reports dirty pages only; fresh
    /// pages become dirty on first write-back from the compute pool or
    /// memory-side write).
    ///
    /// Returns a victim that had to spill to storage, if any.
    pub fn register(&mut self, page: PageId) -> PoolFault {
        assert!(!self.is_mapped(page), "page {page} already mapped");
        let fault = self.make_room();
        self.page_in(page);
        self.mapped_count += 1;
        fault
    }

    /// Make `page` pool-resident (faulting from storage if needed) and
    /// refresh its recency. Reports any storage traffic incurred.
    #[inline]
    pub fn ensure_resident(&mut self, page: PageId) -> PoolFault {
        let clock = self.clock + 1;
        match self.table.get_mut(page) {
            Some(rec) if matches!(rec.state, Residency::InPool { .. }) => {
                // A pinned page is no candidate; it is stamped when freed.
                if rec.pins == 0 {
                    rec.stamp = clock;
                    self.clock = clock;
                    self.queue(page);
                }
                PoolFault::default()
            }
            Some(rec) if rec.state == Residency::InStorage => {
                let fault = self.make_room();
                self.page_in(page);
                PoolFault {
                    storage_read: true,
                    ..fault
                }
            }
            _ => panic!("page {page} not mapped in the memory pool"),
        }
    }

    /// Mark a resident page dirty (a write-back arrived from the compute
    /// pool, or pushdown code wrote it in place).
    pub fn mark_dirty(&mut self, page: PageId) {
        match self.table.get_mut(page).map(|rec| &mut rec.state) {
            Some(Residency::InPool { dirty }) => *dirty = true,
            other => panic!("mark_dirty on non-resident page {page}: {other:?}"),
        }
    }

    /// Pin a resident page (it is being cached by the compute pool); pinned
    /// pages are never chosen as spill victims. Pins nest. A pin only
    /// counts: the page keeps its stamp, and victim selection skips it.
    pub fn pin(&mut self, page: PageId) {
        match self.table.get_mut(page) {
            Some(rec) if matches!(rec.state, Residency::InPool { .. }) => rec.pins += 1,
            _ => panic!("pin of non-resident page {page}"),
        }
    }

    /// Release one pin; the page becomes a spill candidate again, as the
    /// most-recently-used, once fully unpinned.
    pub fn unpin(&mut self, page: PageId) {
        match self.table.get_mut(page) {
            Some(rec) if rec.pins > 0 => {
                rec.pins -= 1;
                if rec.pins == 0 {
                    self.clock += 1;
                    rec.stamp = self.clock;
                    self.queue(page);
                }
            }
            _ => panic!("unpin of unpinned page {page}"),
        }
    }

    /// `page` enters pool DRAM clean, unpinned and most-recently-used.
    fn page_in(&mut self, page: PageId) {
        self.clock += 1;
        *self.table.entry(page) = PageRecord {
            state: Residency::InPool { dirty: false },
            pins: 0,
            stamp: self.clock,
        };
        self.resident_count += 1;
        self.queue(page);
    }

    /// Once the pool has spilled, append `page`, just stamped `clock`, as
    /// the newest spill candidate.
    #[inline]
    fn queue(&mut self, page: PageId) {
        if !self.spilled {
            return;
        }
        self.victims.push_back((self.clock, page));
        if self.victims.len() > 2 * self.capacity {
            self.drop_stale();
        }
    }

    /// Drop every stale entry of `victims`: at most `capacity` pages are
    /// evictable, so at least `capacity` appends pass before the next call.
    #[cold]
    fn drop_stale(&mut self) {
        let table = &self.table;
        self.victims
            .retain(|&(stamp, page)| table.get(page).is_candidate(stamp));
    }

    fn make_room(&mut self) -> PoolFault {
        let mut fault = PoolFault::default();
        if self.resident_count < self.capacity {
            return fault;
        }
        let victim = self.pop_victim();
        let rec = self.table.entry(victim);
        fault.storage_writeback = rec.state == Residency::InPool { dirty: true };
        rec.state = Residency::InStorage;
        self.resident_count -= 1;
        fault
    }

    /// The least-recently-used evictable page: the first entry of `victims`
    /// still valid, once the first spill has ordered them.
    fn pop_victim(&mut self) -> PageId {
        if !self.spilled {
            self.order_victims();
        }
        while let Some((stamp, page)) = self.victims.pop_front() {
            if self.table.get(page).is_candidate(stamp) {
                return page;
            }
        }
        panic!("memory pool exhausted: all resident pages are pinned");
    }

    /// Fill `victims` from the page table: every evictable page, oldest
    /// first. Runs once, at the pool's first spill.
    #[cold]
    fn order_victims(&mut self) {
        work::count(|w| w.pool_victim_orders += 1);
        self.spilled = true;
        let evictable = self.table.iter().filter(|(_, rec)| rec.evictable());
        self.victims
            .extend(evictable.map(|(page, rec)| (rec.stamp, page)));
        self.victims
            .make_contiguous()
            .sort_unstable_by_key(|&(stamp, _)| stamp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_residency() {
        let mut pool = MemoryPool::new(2);
        assert!(!pool.is_mapped(PageId(1)));
        let f = pool.register(PageId(1));
        assert!(!f.any());
        assert!(pool.is_resident(PageId(1)));
        assert_eq!(pool.resident_pages(), 1);
    }

    #[test]
    fn overflow_spills_lru_to_storage() {
        let mut pool = MemoryPool::new(2);
        pool.register(PageId(1));
        pool.register(PageId(2));
        let f = pool.register(PageId(3));
        assert!(!f.storage_read);
        // Clean page spilled: no writeback traffic.
        assert!(!f.storage_writeback);
        assert!(!pool.is_resident(PageId(1)));
        assert!(pool.is_mapped(PageId(1)), "swapped, not forgotten");
        assert!(pool.is_resident(PageId(2)) && pool.is_resident(PageId(3)));
    }

    #[test]
    fn dirty_spill_reports_writeback() {
        let mut pool = MemoryPool::new(1);
        pool.register(PageId(1));
        pool.mark_dirty(PageId(1));
        let f = pool.register(PageId(2));
        assert!(f.storage_writeback);
    }

    #[test]
    fn ensure_resident_faults_from_storage() {
        let mut pool = MemoryPool::new(1);
        pool.register(PageId(1));
        pool.register(PageId(2)); // spills 1
        let f = pool.ensure_resident(PageId(1));
        assert!(f.storage_read);
        assert!(pool.is_resident(PageId(1)));
        assert!(!pool.is_resident(PageId(2)));
        // Re-ensuring a resident page is free.
        assert!(!pool.ensure_resident(PageId(1)).any());
    }

    #[test]
    fn pinned_pages_are_not_victims() {
        let mut pool = MemoryPool::new(2);
        pool.register(PageId(1));
        pool.register(PageId(2));
        pool.pin(PageId(1)); // LRU but pinned
        pool.register(PageId(3));
        assert!(pool.is_resident(PageId(1)), "pinned page survived");
        assert!(!pool.is_resident(PageId(2)), "next LRU spilled instead");
        pool.unpin(PageId(1));
        // Unpinning re-inserts as MRU, so page 3 (older) spills first.
        pool.register(PageId(4));
        assert!(!pool.is_resident(PageId(3)));
        assert!(pool.is_resident(PageId(1)));
        pool.register(PageId(5));
        assert!(!pool.is_resident(PageId(1)), "unpinned page now evictable");
    }

    #[test]
    fn pins_nest() {
        let mut pool = MemoryPool::new(1);
        pool.register(PageId(1));
        pool.pin(PageId(1));
        pool.pin(PageId(1));
        pool.unpin(PageId(1));
        // Still pinned once: registering a new page must panic (no victim).
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.register(PageId(2));
        }));
        assert!(r.is_err(), "all pages pinned should panic");
    }

    #[test]
    fn page_far_past_the_table_is_unmapped() {
        let far = PageId(u64::MAX >> 12);
        let mut pool = MemoryPool::new(2);
        pool.register(PageId(1));
        assert!(!pool.is_mapped(far) && !pool.is_resident(far) && !pool.is_dirty(far));
        assert_eq!(pool.mapped_len(), 1);
    }

    #[test]
    fn a_spilling_pool_queues_at_most_twice_its_capacity() {
        let mut pool = MemoryPool::new(4);
        for p in 1..=5 {
            pool.register(PageId(p));
        }
        assert!(pool.spilled && pool.victims.len() <= 4);
        for round in 0..100 {
            for p in 2..=5 {
                pool.ensure_resident(PageId(p));
                pool.pin(PageId(p));
                pool.unpin(PageId(p));
            }
            assert!(pool.victims.len() <= 8, "round {round}");
        }
        pool.ensure_resident(PageId(1));
        assert!(!pool.is_resident(PageId(2)), "the oldest of 2..=5 spilled");
    }

    #[test]
    #[should_panic(expected = "not mapped")]
    fn ensure_unmapped_panics() {
        let mut pool = MemoryPool::new(1);
        pool.ensure_resident(PageId(9));
    }
}
