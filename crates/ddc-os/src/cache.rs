//! The compute-local page cache.
//!
//! In a disaggregated OS the compute pool's DRAM "is nothing more than a
//! cache" (paper §1): every page it holds is a copy of a memory-pool page.
//! This module tracks residency, write permission, and dirtiness per cached
//! page with LRU replacement. It also serves as the whole of DRAM in the
//! monolithic ("Linux") topology, where eviction targets the swap device
//! instead of the memory pool.

use crate::lru::{SlotList, NIL};
use crate::page::{PageId, PageTable};

/// Per-page cache metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// The page may be written locally without faulting. Cleared when the
    /// TELEPORT coherence protocol downgrades the page to read-only.
    pub writable: bool,
    /// The page has local modifications not yet flushed to the memory pool
    /// (or swap). `dirty` implies `writable`.
    pub dirty: bool,
}

/// A page evicted to make room, together with whether it needs write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    pub page: PageId,
    pub dirty: bool,
}

/// Fixed-capacity LRU page cache: one page-indexed table in front of one
/// slab whose nodes hold the LRU links and the [`CacheEntry`] together.
#[derive(Debug, Clone)]
pub struct PageCache {
    capacity: usize,
    /// Resident pages in recency order, with their metadata.
    lru: SlotList<CacheEntry>,
    /// Page → slot in `lru`; `NIL` for a page that is not resident.
    index: PageTable<u32>,
}

impl PageCache {
    /// A cache holding at most `capacity` pages. Capacity zero is allowed
    /// (degenerate DDC with no local memory) — every access then misses.
    pub fn new(capacity: usize) -> Self {
        PageCache {
            capacity,
            lru: SlotList::new(),
            index: PageTable::new(NIL),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Metadata for `page` if resident. Does not refresh LRU position.
    pub fn probe(&self, page: PageId) -> Option<CacheEntry> {
        self.slot(page).map(|slot| self.lru.data(slot))
    }

    /// The slab slot of `page` if it is resident: the one table read every
    /// by-page operation starts with.
    #[inline]
    fn slot(&self, page: PageId) -> Option<u32> {
        Some(self.index.get(page)).filter(|&slot| slot != NIL)
    }

    /// Record an access to a resident page: refreshes its LRU position and,
    /// for writes, upgrades it to writable + dirty. Returns `false` if the
    /// page is not resident (the caller must fault it in).
    #[inline]
    pub fn access(&mut self, page: PageId, write: bool) -> bool {
        let Some(slot) = self.slot(page) else {
            return false;
        };
        self.lru.move_to_front(slot);
        if write {
            let e = self.lru.data_mut(slot);
            e.writable = true;
            e.dirty = true;
        }
        true
    }

    /// Insert a just-faulted page, evicting the LRU victim if full.
    ///
    /// Panics if the page is already resident (the kernel faults a page at
    /// most once) or if capacity is zero.
    pub fn insert(&mut self, page: PageId, write: bool) -> Option<Evicted> {
        assert!(self.capacity > 0, "insert into zero-capacity cache");
        assert!(self.slot(page).is_none(), "page {page} already cached");
        let victim = if self.lru.len() == self.capacity {
            let (page, e) = self.lru.pop_back().expect("full cache has an LRU page");
            *self.index.entry(page) = NIL;
            Some(Evicted {
                page,
                dirty: e.dirty,
            })
        } else {
            None
        };
        let entry = CacheEntry {
            writable: write,
            dirty: write,
        };
        *self.index.entry(page) = self.lru.push_front(page, entry);
        victim
    }

    /// Remove `page` (coherence invalidation or explicit flush). Returns
    /// its entry if it was resident; a dirty entry means the caller must
    /// account for the write-back transfer.
    pub fn evict(&mut self, page: PageId) -> Option<CacheEntry> {
        let slot = self.slot(page)?;
        *self.index.entry(page) = NIL;
        Some(self.lru.remove(slot).1)
    }

    /// Downgrade `page` to read-only (coherence: the memory pool asked for
    /// read access). Returns the pre-downgrade entry; if it was dirty the
    /// caller must account for flushing it. No-op returning `None` if the
    /// page is not resident.
    pub fn downgrade(&mut self, page: PageId) -> Option<CacheEntry> {
        let slot = self.slot(page)?;
        let e = self.lru.data_mut(slot);
        let before = *e;
        e.writable = false;
        e.dirty = false;
        Some(before)
    }

    /// Mark a dirty page as flushed (kept resident and writable).
    pub fn mark_clean(&mut self, page: PageId) {
        if let Some(slot) = self.slot(page) {
            self.lru.data_mut(slot).dirty = false;
        }
    }

    /// All resident pages with their metadata, in unspecified order.
    /// Callers that expose the result must sort it themselves (and do).
    /// Walks the slab, so the cost is bounded by the cache's capacity however
    /// large the address space is — the pushdown path calls this on every
    /// request.
    pub fn resident(&self) -> impl Iterator<Item = (PageId, CacheEntry)> + '_ {
        self.lru.iter_slab()
    }

    /// All resident pages in address order. Walks that flush, evict or
    /// re-pin the whole cache use this order because their side effects
    /// feed the replication journal and the corruption injector's PRNG, so
    /// it must be run-to-run deterministic.
    pub fn resident_sorted(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self.resident().map(|(p, _)| p).collect();
        v.sort_unstable();
        v
    }

    /// All dirty pages, sorted by page id.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self
            .resident()
            .filter(|(_, e)| e.dirty)
            .map(|(p, _)| p)
            .collect();
        v.sort_unstable();
        v
    }

    /// Drop everything, returning the pages that were dirty (the caller
    /// accounts for their write-back). Pops page by page, so table and slab
    /// keep their allocations for the refill.
    pub fn clear(&mut self) -> Vec<PageId> {
        let dirty = self.dirty_pages();
        while let Some((page, _)) = self.lru.pop_back() {
            *self.index.entry(page) = NIL;
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_miss_then_insert_hits() {
        let mut c = PageCache::new(2);
        assert!(!c.access(PageId(1), false));
        assert!(c.insert(PageId(1), false).is_none());
        assert!(c.access(PageId(1), false));
        assert_eq!(
            c.probe(PageId(1)),
            Some(CacheEntry {
                writable: false,
                dirty: false
            })
        );
    }

    #[test]
    fn write_access_dirties() {
        let mut c = PageCache::new(2);
        c.insert(PageId(1), false);
        assert!(c.access(PageId(1), true));
        let e = c.probe(PageId(1)).unwrap();
        assert!(e.writable && e.dirty);
    }

    #[test]
    fn eviction_follows_lru_and_reports_dirtiness() {
        let mut c = PageCache::new(2);
        c.insert(PageId(1), true); // dirty
        c.insert(PageId(2), false);
        c.access(PageId(1), false); // refresh 1; LRU is now 2
        let ev = c.insert(PageId(3), false).unwrap();
        assert_eq!(
            ev,
            Evicted {
                page: PageId(2),
                dirty: false
            }
        );
        let ev = c.insert(PageId(4), false).unwrap();
        assert_eq!(
            ev,
            Evicted {
                page: PageId(1),
                dirty: true
            }
        );
    }

    #[test]
    fn downgrade_reports_prior_state() {
        let mut c = PageCache::new(2);
        c.insert(PageId(1), true);
        let before = c.downgrade(PageId(1)).unwrap();
        assert!(before.dirty);
        let after = c.probe(PageId(1)).unwrap();
        assert!(!after.writable && !after.dirty);
        assert!(c.downgrade(PageId(9)).is_none());
    }

    #[test]
    fn clear_returns_dirty_set_sorted() {
        let mut c = PageCache::new(4);
        c.insert(PageId(5), true);
        c.insert(PageId(2), false);
        c.insert(PageId(9), true);
        assert_eq!(c.clear(), vec![PageId(5), PageId(9)]);
        assert!(c.is_empty());
    }

    #[test]
    fn evict_removes_from_lru_order() {
        let mut c = PageCache::new(2);
        c.insert(PageId(1), false);
        c.insert(PageId(2), false);
        assert!(c.evict(PageId(1)).is_some());
        assert!(c.evict(PageId(1)).is_none());
        // Room now exists; no victim needed.
        assert!(c.insert(PageId(3), false).is_none());
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let mut c = PageCache::new(2);
        c.insert(PageId(1), false);
        c.insert(PageId(1), false);
    }

    #[test]
    fn mark_clean_keeps_residency() {
        let mut c = PageCache::new(2);
        c.insert(PageId(1), true);
        c.mark_clean(PageId(1));
        let e = c.probe(PageId(1)).unwrap();
        assert!(e.writable && !e.dirty);
        assert!(c.dirty_pages().is_empty());
    }

    #[test]
    fn probe_far_past_the_table_is_a_miss() {
        let far = PageId(u64::MAX >> 12);
        let mut c = PageCache::new(2);
        c.insert(PageId(1), true);
        assert_eq!(c.probe(far), None);
        assert!(!c.access(far, false));
        assert!(c.evict(far).is_none() && c.downgrade(far).is_none());
        c.mark_clean(far);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cleared_cache_refills_like_a_fresh_one() {
        let trace = [5u64, 100_003, 2, 5, 9, 100_001, 2, 7, 100_003, 1];
        let victims = |c: &mut PageCache| -> Vec<Option<Evicted>> {
            trace
                .iter()
                .map(|&p| {
                    if c.access(PageId(p), p % 2 == 1) {
                        None
                    } else {
                        c.insert(PageId(p), p % 2 == 1)
                    }
                })
                .collect()
        };
        let mut used = PageCache::new(3);
        for p in [3u64, 100_002, 8, 4] {
            used.insert(PageId(p), true);
        }
        assert_eq!(used.clear(), [PageId(4), PageId(8), PageId(100_002)]);
        assert!(used.is_empty() && used.probe(PageId(8)).is_none());
        assert_eq!(victims(&mut used), victims(&mut PageCache::new(3)));
    }

    #[test]
    fn resident_sorted_is_address_order_not_insertion_order() {
        let mut c = PageCache::new(4);
        for p in [9, 2, 7, 4] {
            c.insert(PageId(p), false);
        }
        assert_eq!(
            c.resident_sorted(),
            [PageId(2), PageId(4), PageId(7), PageId(9)]
        );
    }
}
