//! The compute-local page cache.
//!
//! In a disaggregated OS the compute pool's DRAM "is nothing more than a
//! cache" (paper §1): every page it holds is a copy of a memory-pool page.
//! This module tracks residency, write permission, and dirtiness per cached
//! page with LRU replacement. It also serves as the whole of DRAM in the
//! monolithic ("Linux") topology, where eviction targets the swap device
//! instead of the memory pool.
//!
//! The cache also owns the one address-ordered view of itself, the
//! [`ResidentView`] every pushdown ships: kept from request to request and
//! brought up to date from a journal of the pages touched in between, so
//! asking for it costs what changed, not what is resident.

use std::cell::RefCell;
use std::rc::Rc;

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

/// The resident pages with their write permission in address order — the
/// list a pushdown request ships (paper Fig 8) — as of the moment it was
/// asked for. The list is shared, never copied: the cache patches it in
/// place while nobody else holds it and copies on write while someone does,
/// so a view once taken does not change.
#[derive(Debug, Clone)]
pub struct ResidentView {
    /// `(page, writable)`, strictly sorted by page.
    pub list: Rc<Vec<(PageId, bool)>>,
    /// Maximal runs of consecutive pages sharing a permission in `list`:
    /// the number of runs its RLE encoding has.
    pub runs: usize,
    /// `list` was verified strictly sorted, in release builds too: all of it
    /// when it was last rebuilt, the neighbours of every splice since.
    pub sorted: bool,
}

/// Noted pages past which a refresh rebuilds the view instead of patching
/// it. Measured (release build, residency scattered one page in four, a
/// full cache so each miss notes two pages): reconciling a noted page costs
/// ≈70 ns at 512 resident pages and ≈330 ns at 4 096 (the splice's `memmove`
/// grows with the list), a rebuild ≈9.9 µs and ≈88 µs, so patching wins up
/// to ≈140 and ≈265 notes. 128 sits under both crossovers; a cache that
/// takes more notes than that between two requests is being refilled, and
/// from then on pays one flag test per note.
const VIEW_JOURNAL_BOUND: usize = 128;

/// The kept view and what is known to have happened to the cache since it
/// was last brought up to date.
#[derive(Debug, Clone)]
struct ViewState {
    view: ResidentView,
    /// Pages whose residency or permission may differ from `view`. Only the
    /// ids: a refresh reconciles each against the cache as it is then, so
    /// neither the order of the notes nor a repeated one matters.
    journal: Vec<PageId>,
    /// The journal overflowed and was dropped: rebuild.
    stale: bool,
}

/// Runs in `w`: its entries less the adjacent pairs that continue a run.
fn runs_in(w: &[(PageId, bool)]) -> usize {
    let continued = w
        .windows(2)
        .filter(|p| p[0].0.offset(1) == p[1].0 && p[0].1 == p[1].1);
    w.len() - continued.count()
}

fn strictly_sorted(w: &[(PageId, bool)]) -> bool {
    w.windows(2).all(|p| p[0].0 < p[1].0)
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
    /// The address-ordered view, refreshed on request. Behind a `RefCell`
    /// because asking for it is a read (`Dos::resident_list` takes `&self`);
    /// every mutation reaches it through `get_mut`, unchecked.
    view: RefCell<ViewState>,
}

impl PageCache {
    /// A cache holding at most `capacity` pages. Capacity zero is allowed
    /// (degenerate DDC with no local memory) — every access then misses.
    pub fn new(capacity: usize) -> Self {
        PageCache {
            capacity,
            lru: SlotList::new(),
            index: PageTable::new(NIL),
            view: RefCell::new(ViewState {
                view: ResidentView {
                    list: Rc::default(),
                    runs: 0,
                    sorted: true,
                },
                journal: Vec::with_capacity(VIEW_JOURNAL_BOUND),
                stale: false,
            }),
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
            let upgraded = !e.writable;
            e.writable = true;
            e.dirty = true;
            if upgraded {
                self.note(page);
            }
        }
        true
    }

    /// True if `page` is resident and most recently used, so that an access
    /// to it would move nothing.
    #[inline]
    pub fn is_mru(&self, page: PageId) -> bool {
        self.slot(page).is_some_and(|slot| self.lru.is_head(slot))
    }

    /// Record that `page`'s residency or permission changed since the view
    /// was last refreshed.
    #[inline]
    fn note(&mut self, page: PageId) {
        let v = self.view.get_mut();
        if v.stale {
            return;
        }
        if v.journal.len() < VIEW_JOURNAL_BOUND {
            v.journal.push(page);
        } else {
            v.journal.clear();
            v.stale = true;
        }
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
            self.note(page);
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
        self.note(page);
        victim
    }

    /// Remove `page` (coherence invalidation or explicit flush). Returns
    /// its entry if it was resident; a dirty entry means the caller must
    /// account for the write-back transfer.
    pub fn evict(&mut self, page: PageId) -> Option<CacheEntry> {
        let slot = self.slot(page)?;
        *self.index.entry(page) = NIL;
        self.note(page);
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
        if before.writable {
            self.note(page);
        }
        Some(before)
    }

    /// Mark a dirty page as flushed (kept resident and writable).
    pub fn mark_clean(&mut self, page: PageId) {
        if let Some(slot) = self.slot(page) {
            self.lru.data_mut(slot).dirty = false;
        }
    }

    /// All resident pages with their metadata, in unspecified order; for
    /// address order ask for [`PageCache::resident_view`]. Walks the slab, so
    /// the cost is bounded by the cache's capacity however large the address
    /// space is.
    pub fn resident(&self) -> impl Iterator<Item = (PageId, CacheEntry)> + '_ {
        self.lru.iter_slab()
    }

    /// The resident pages in address order, brought up to date first: a
    /// pointer copy when nothing was noted since the last request, one
    /// binary search and splice per noted page otherwise, a collect-and-sort
    /// when more than `VIEW_JOURNAL_BOUND` (128) were.
    pub fn resident_view(&self) -> ResidentView {
        let mut state = self.view.borrow_mut();
        let ViewState {
            view,
            journal,
            stale,
        } = &mut *state;
        if *stale {
            // Refill the list in place; one that someone still holds is
            // left to them, not copied only to be overwritten.
            if Rc::get_mut(&mut view.list).is_none() {
                view.list = Rc::default();
            }
            let list = Rc::make_mut(&mut view.list);
            list.clear();
            list.extend(self.resident().map(|(p, e)| (p, e.writable)));
            list.sort_unstable_by_key(|e| e.0);
            view.runs = runs_in(list);
            view.sorted = strictly_sorted(list);
            *stale = false;
        } else if !journal.is_empty() {
            let list = Rc::make_mut(&mut view.list);
            for &page in journal.iter() {
                let now = self.probe(page).map(|e| e.writable);
                let (i, was) = match list.binary_search_by_key(&page, |e| e.0) {
                    Ok(i) => (i, Some(list[i].1)),
                    Err(i) => (i, None),
                };
                if was == now {
                    continue;
                }
                // The entry at `i`, while there is one, and its neighbours:
                // the only adjacent pairs the splice makes or breaks.
                let lo = i.saturating_sub(1);
                let around = |list: &[(PageId, bool)], present: bool| {
                    lo..(i + 1 + usize::from(present)).min(list.len())
                };
                let before = runs_in(&list[around(list, was.is_some())]);
                match (was, now) {
                    (Some(_), Some(writable)) => list[i].1 = writable,
                    (None, Some(writable)) => list.insert(i, (page, writable)),
                    (_, None) => drop(list.remove(i)),
                }
                let after = &list[around(list, now.is_some())];
                view.runs = view.runs + runs_in(after) - before;
                view.sorted &= strictly_sorted(after);
            }
            journal.clear();
        }
        // What a rebuild would give, checked without building it (so that
        // debug and release builds allocate alike): as many entries as the
        // cache has pages, in strict order, each page's among them. A
        // self-check of this file's own bookkeeping that walks the whole
        // cache — too dear for release, and no cross-pool protocol state.
        #[allow(clippy::disallowed_macros)]
        {
            debug_assert!(
                view.list.len() == self.len()
                    && strictly_sorted(&view.list)
                    && view.runs == runs_in(&view.list)
                    && self
                        .resident()
                        .all(|(p, e)| view.list.binary_search(&(p, e.writable)).is_ok()),
                "the patched resident view diverged from a rebuild"
            );
        }
        view.clone()
    }

    /// All resident pages in address order. Walks that flush, evict or
    /// re-pin the whole cache use this order because their side effects
    /// feed the replication journal and the corruption injector's PRNG, so
    /// it must be run-to-run deterministic.
    pub fn resident_sorted(&self) -> Vec<PageId> {
        self.resident_view().list.iter().map(|e| e.0).collect()
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
        let v = self.view.get_mut();
        v.journal.clear();
        v.stale = true;
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

    fn listed(c: &PageCache) -> Vec<(u64, bool)> {
        let view = c.resident_view();
        assert!(view.sorted);
        view.list.iter().map(|&(p, w)| (p.0, w)).collect()
    }

    #[test]
    fn view_is_patched_in_place_when_unshared_and_copied_when_held() {
        let mut c = PageCache::new(4);
        for p in [9, 2, 3, 4] {
            c.insert(PageId(p), false);
        }
        let first = c.resident_view();
        assert_eq!(listed(&c), [(2, false), (3, false), (4, false), (9, false)]);
        assert_eq!(first.runs, 2);
        // Nothing happened: the same list again, not a copy of it.
        assert!(Rc::ptr_eq(&first.list, &c.resident_view().list));
        // Held by `first`: the cache copies before it writes.
        c.access(PageId(3), true); // upgrade splits the run in three
        c.insert(PageId(10), false); // evicts 9, the LRU page
        let second = c.resident_view();
        assert_eq!(listed(&c), [(2, false), (3, true), (4, false), (10, false)]);
        assert_eq!(second.runs, 4);
        assert!(!Rc::ptr_eq(&first.list, &second.list));
        let pages = |v: &ResidentView| v.list.iter().map(|e| e.0 .0).collect::<Vec<_>>();
        assert_eq!((pages(&first), first.runs), (vec![2, 3, 4, 9], 2));
        // Held by nobody: patched where it is.
        let at = Rc::as_ptr(&second.list);
        drop((first, second));
        c.downgrade(PageId(3));
        c.evict(PageId(10));
        let third = c.resident_view();
        assert_eq!(listed(&c), [(2, false), (3, false), (4, false)]);
        assert_eq!(third.runs, 1);
        assert_eq!(Rc::as_ptr(&third.list), at);
    }

    #[test]
    fn view_is_rebuilt_past_the_journal_bound_and_patched_again_after() {
        let mut c = PageCache::new(8);
        let mut next = 0u64;
        let mut refill = |c: &mut PageCache, misses: usize| {
            for _ in 0..misses {
                next += 3;
                c.insert(PageId(next % 41), next & 1 == 0);
            }
        };
        let sorted = |c: &PageCache| {
            let mut v: Vec<(u64, bool)> = c.resident().map(|(p, e)| (p.0, e.writable)).collect();
            v.sort_unstable();
            v
        };
        refill(&mut c, 8);
        assert_eq!(listed(&c), sorted(&c));
        // Two notes a miss on a full cache: well past the bound.
        refill(&mut c, VIEW_JOURNAL_BOUND);
        assert_eq!(listed(&c), sorted(&c));
        refill(&mut c, 3);
        assert_eq!(listed(&c), sorted(&c));
        c.clear();
        assert!(listed(&c).is_empty());
        assert_eq!(c.resident_view().runs, 0);
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
