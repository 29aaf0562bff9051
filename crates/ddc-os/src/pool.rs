//! The memory pool: the backing store of the process address space.
//!
//! The memory pool holds the authoritative page table. A page is either
//! resident in pool DRAM or swapped out to the storage pool; the pool has a
//! finite capacity (the paper's Fig 15 varies it from 1 GB to 128 GB) and
//! evicts LRU pages to storage when full. Pages currently held by the
//! compute-local cache are pinned: evicting the backing copy of a cached
//! page would create a coherence hazard the real OS also avoids.

use crate::lru::{SlotList, NIL};
use crate::page::{PageId, PageTable};

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
    /// Slot on the LRU list; `NIL` unless the page is resident and unpinned.
    lru_slot: u32,
}

const UNMAPPED: PageRecord = PageRecord {
    state: Residency::Unmapped,
    pins: 0,
    lru_slot: NIL,
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
    /// Resident, unpinned pages in recency order (the spill candidates).
    lru: SlotList<()>,
    mapped_count: usize,
    resident_count: usize,
}

impl MemoryPool {
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "memory pool needs at least one page");
        MemoryPool {
            capacity: capacity_pages,
            table: PageTable::new(UNMAPPED),
            lru: SlotList::new(),
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
    /// refresh its LRU position. Reports any storage traffic incurred.
    pub fn ensure_resident(&mut self, page: PageId) -> PoolFault {
        let rec = self.table.get(page);
        match rec.state {
            Residency::InPool { .. } => {
                // Pinned pages live outside the LRU list; do not re-add.
                if rec.pins == 0 {
                    self.lru.move_to_front(rec.lru_slot);
                }
                PoolFault::default()
            }
            Residency::InStorage => {
                let fault = self.make_room();
                self.page_in(page);
                PoolFault {
                    storage_read: true,
                    ..fault
                }
            }
            Residency::Unmapped => panic!("page {page} not mapped in the memory pool"),
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
    /// pages are never chosen as spill victims. Pins nest. Pinned pages are
    /// held outside the LRU list so victim selection stays O(1).
    pub fn pin(&mut self, page: PageId) {
        match self.table.get_mut(page) {
            Some(rec) if matches!(rec.state, Residency::InPool { .. }) => {
                rec.pins += 1;
                if rec.pins == 1 {
                    self.lru.remove(std::mem::replace(&mut rec.lru_slot, NIL));
                }
            }
            _ => panic!("pin of non-resident page {page}"),
        }
    }

    /// Release one pin; the page rejoins the LRU list as most-recently-used
    /// once fully unpinned.
    pub fn unpin(&mut self, page: PageId) {
        match self.table.get_mut(page) {
            Some(rec) if rec.pins > 0 => {
                rec.pins -= 1;
                if rec.pins == 0 {
                    rec.lru_slot = self.lru.push_front(page, ());
                }
            }
            _ => panic!("unpin of unpinned page {page}"),
        }
    }

    /// `page` enters pool DRAM clean, unpinned and most-recently-used.
    fn page_in(&mut self, page: PageId) {
        *self.table.entry(page) = PageRecord {
            state: Residency::InPool { dirty: false },
            pins: 0,
            lru_slot: self.lru.push_front(page, ()),
        };
        self.resident_count += 1;
    }

    fn make_room(&mut self) -> PoolFault {
        let mut fault = PoolFault::default();
        if self.resident_count < self.capacity {
            return fault;
        }
        let (victim, ()) = self
            .lru
            .pop_back()
            .expect("memory pool exhausted: all resident pages are pinned");
        let rec = self.table.entry(victim);
        fault.storage_writeback = rec.state == Residency::InPool { dirty: true };
        rec.state = Residency::InStorage;
        rec.lru_slot = NIL;
        self.resident_count -= 1;
        fault
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
    #[should_panic(expected = "not mapped")]
    fn ensure_unmapped_panics() {
        let mut pool = MemoryPool::new(1);
        pool.ensure_resident(PageId(9));
    }
}
