//! The compute-local page cache.
//!
//! In a disaggregated OS the compute pool's DRAM "is nothing more than a
//! cache" (paper §1): every page it holds is a copy of a memory-pool page.
//! This module tracks residency, write permission, and dirtiness per cached
//! page with LRU replacement. It also serves as the whole of DRAM in the
//! monolithic ("Linux") topology, where eviction targets the swap device
//! instead of the memory pool.
//!
//! The cache also owns the one page-indexed view of itself, the
//! [`ResidentView`] every pushdown ships (walked in address order): kept
//! from request to request and brought up to date from a journal of the
//! pages touched in between, so asking for it costs what changed, not what
//! is resident.

use std::cell::RefCell;
use std::rc::Rc;

use crate::lru::{SlotList, NIL};
use crate::page::{PageId, PageTable};
use crate::work::count;

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

/// Every page's residency and write permission in the compute cache,
/// indexed by page: two bits a page (absent, read-only or writable), 32
/// pages to a word, on the dense ids [`PageTable`] indexes by. A lookup is
/// one word read; walking it visits the resident pages in address order,
/// which is the order a pushdown ships them in (paper Fig 8). A page past
/// the table reads absent, and only a write grows it.
#[derive(Debug, Clone, Default)]
pub struct ResidentTable {
    words: Vec<u64>,
}

/// A page's two bits: resident, and resident and writable.
const READ_ONLY: u64 = 0b01;
const WRITABLE: u64 = 0b11;
/// The low bit of every page's pair: set for each resident page of a word.
const RESIDENT_BITS: u64 = 0x5555_5555_5555_5555;

impl ResidentTable {
    /// Pages a word holds.
    const PER_WORD: u64 = 32;

    /// Pages past this are refused, as [`PageTable`] refuses them.
    pub const MAX_PAGES: u64 = PageTable::<u32>::MAX_PAGES;

    /// The word holding `page` and the shift of its two bits in it.
    #[inline]
    fn at(page: PageId) -> (usize, u32) {
        let word = usize::try_from(page.0 / Self::PER_WORD).unwrap_or(usize::MAX);
        (word, (page.0 % Self::PER_WORD) as u32 * 2)
    }

    /// `page`'s entry: `None` if it is not resident, else whether it is
    /// writable.
    #[inline]
    pub fn get(&self, page: PageId) -> Option<bool> {
        let (word, shift) = Self::at(page);
        match self.words.get(word).map_or(0, |w| w >> shift & WRITABLE) {
            0 => None,
            bits => Some(bits == WRITABLE),
        }
    }

    /// Whether `page` lies inside the table, so that [`Self::set`] on it
    /// allocates nothing.
    #[inline]
    fn covers(&self, page: PageId) -> bool {
        Self::at(page).0 < self.words.len()
    }

    /// Grow the table to cover `page`, to a power of two of words (two at
    /// least), as [`PageTable`] doubles.
    #[cold]
    fn cover(&mut self, page: PageId) {
        assert!(
            page.0 < Self::MAX_PAGES,
            "resident table: {page} is past the {}-page limit; page ids are dense from 1",
            Self::MAX_PAGES
        );
        let words = (Self::at(page).0 + 1).next_power_of_two().max(2);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// Set `page`'s entry, growing the table to cover it.
    #[inline]
    pub fn set(&mut self, page: PageId, entry: Option<bool>) {
        if !self.covers(page) {
            self.cover(page);
        }
        let (word, shift) = Self::at(page);
        let bits = match entry {
            None => 0,
            Some(false) => READ_ONLY,
            Some(true) => WRITABLE,
        };
        let w = &mut self.words[word];
        *w = *w & !(WRITABLE << shift) | bits << shift;
    }

    /// Mark every page absent, keeping the table's size.
    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// A table of the same size with every page absent.
    fn emptied(&self) -> Self {
        ResidentTable {
            words: vec![0; self.words.len()],
        }
    }

    /// The resident pages and their write permission, in address order.
    pub fn iter(&self) -> ResidentPages<'_> {
        ResidentPages {
            words: &self.words,
            next: 0,
            base: 0,
            word: 0,
            occupied: 0,
        }
    }

    /// Runs that start at `page` or just after it if `page` held `entry`:
    /// a resident page starts a run unless the page before it is resident
    /// with the same permission. `page`'s own entry is not read, so this
    /// answers for the entry it had and the one it is about to get alike.
    #[inline]
    fn runs_starting_at(&self, page: PageId, entry: Option<bool>) -> usize {
        let before = page.0.checked_sub(1).and_then(|p| self.get(PageId(p)));
        let after = self.get(page.offset(1));
        usize::from(entry.is_some() && before != entry)
            + usize::from(after.is_some() && after != entry)
    }

    /// Maximal runs of consecutive resident pages sharing a permission: the
    /// number of runs the table's RLE encoding has.
    fn runs(&self) -> usize {
        let mut prev: Option<(PageId, bool)> = None;
        self.iter()
            .filter(|&(page, writable)| {
                let starts = prev != Some((PageId(page.0.wrapping_sub(1)), writable));
                prev = Some((page, writable));
                starts
            })
            .count()
    }
}

/// [`ResidentTable::iter`]: the zero words skipped, each other word's
/// resident pages peeled off lowest first.
#[derive(Debug, Clone)]
pub struct ResidentPages<'a> {
    words: &'a [u64],
    /// The word after the one being peeled.
    next: usize,
    /// The first page of the word being peeled, and the word.
    base: u64,
    word: u64,
    /// Its resident bits (the low bit of each pair) not yet yielded.
    occupied: u64,
}

impl Iterator for ResidentPages<'_> {
    type Item = (PageId, bool);

    #[inline]
    fn next(&mut self) -> Option<(PageId, bool)> {
        while self.occupied == 0 {
            self.word = *self.words.get(self.next)?;
            self.occupied = self.word & RESIDENT_BITS;
            self.base = self.next as u64 * ResidentTable::PER_WORD;
            self.next += 1;
        }
        let bit = self.occupied.trailing_zeros();
        self.occupied &= self.occupied - 1;
        let writable = self.word >> bit & WRITABLE == WRITABLE;
        Some((PageId(self.base + u64::from(bit / 2)), writable))
    }
}

/// The resident pages with their write permission — what a pushdown
/// request ships (paper Fig 8) — as of the moment it was asked for. The
/// table is shared, never copied: the cache patches it in place while
/// nobody else holds it and copies on write while someone does, so a view
/// once taken does not change.
#[derive(Debug, Clone)]
pub struct ResidentView {
    pub table: Rc<ResidentTable>,
    /// Resident pages in `table`.
    pub len: usize,
    /// Maximal runs of consecutive pages sharing a permission in `table`:
    /// the number of runs its RLE encoding has.
    pub runs: usize,
}

impl ResidentView {
    /// The pages and their write permission, in address order.
    pub fn iter(&self) -> ResidentPages<'_> {
        self.table.iter()
    }

    /// The `(page, writable)` list, in address order.
    pub fn to_list(&self) -> Vec<(PageId, bool)> {
        let mut list = Vec::with_capacity(self.len);
        list.extend(self.iter());
        list
    }
}

/// Noted pages past which a refresh rebuilds the view instead of patching
/// it. Measured (release build on a shared 2-vCPU x86-64 host whose speed
/// came in two modes that moved every figure together, residency scattered
/// one page in four, a full cache so each miss notes two pages): reconciling
/// a noted page costs ≈12–22 ns at 512 resident pages and at 4 096 alike (a
/// table write and two neighbour reads, whatever the cache holds), a
/// rebuild — clear the table, set each slab entry, recount the runs —
/// ≈2.1–3.9 µs and ≈17–30 µs, so patching wins up to ≈170 and ≈1 300 notes.
/// 128 sits under both crossovers; a cache that takes more notes than that
/// between two requests is being refilled, and from then on pays one flag
/// test per note.
///
/// Why notes are journaled at all, rather than written into the table as
/// they happen: a miss-dominated run takes millions of notes between two
/// requests, and paying the reconciliation on each of them instead of a
/// flag test is what a prototype that did so measured (rackbench `run
/// --seconds 6`, seed 42, four alternating pairs on a shared 2-vCPU x86-64
/// host, medians): `scatter` 8.30 → 6.39 M `ops_per_s` (−23 %, three pairs
/// lost and one even), `tpch` 25.1 → 24.4 M (−3 %), `serve` flat.
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
                    table: Rc::default(),
                    len: 0,
                    runs: 0,
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
        // The view's table grows when the index does, here, so that a
        // refresh never allocates to note a page.
        let view = &mut self.view.get_mut().view;
        if !view.table.covers(page) {
            Rc::make_mut(&mut view.table).cover(page);
        }
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
    /// pointer copy when nothing was noted since the last request, one table
    /// write and two neighbour reads per noted page otherwise, a clear of
    /// the table and a walk of the slab when more than `VIEW_JOURNAL_BOUND`
    /// were.
    pub fn resident_view(&self) -> ResidentView {
        let mut state = self.view.borrow_mut();
        let ViewState {
            view,
            journal,
            stale,
        } = &mut *state;
        if *stale {
            // Refill the table in place; one that someone still holds is
            // left to them, not copied only to be cleared.
            match Rc::get_mut(&mut view.table) {
                Some(table) => table.clear(),
                None => view.table = Rc::new(view.table.emptied()),
            }
            let table = Rc::make_mut(&mut view.table);
            for (page, e) in self.resident() {
                table.set(page, Some(e.writable));
            }
            view.len = self.len();
            view.runs = table.runs();
            *stale = false;
            count(|w| w.view_rebuilds += 1);
        } else if !journal.is_empty() {
            let table = Rc::make_mut(&mut view.table);
            for &page in journal.iter() {
                let now = self.probe(page).map(|e| e.writable);
                let was = table.get(page);
                if was == now {
                    continue;
                }
                view.runs = view.runs + table.runs_starting_at(page, now)
                    - table.runs_starting_at(page, was);
                view.len = view.len + usize::from(now.is_some()) - usize::from(was.is_some());
                table.set(page, now);
            }
            count(|w| w.view_notes_reconciled += journal.len() as u64);
            journal.clear();
        }
        // What a rebuild would give, checked without building it (so that
        // debug and release builds allocate alike): as many entries as the
        // cache has pages, each page's among them with its flag, and the
        // runs recounted. A self-check of this file's own bookkeeping that
        // walks the whole cache — too dear for release, and no cross-pool
        // protocol state.
        #[allow(clippy::disallowed_macros)]
        {
            debug_assert!(
                view.len == self.len()
                    && view.table.iter().count() == view.len
                    && view.runs == view.table.runs()
                    && self
                        .resident()
                        .all(|(p, e)| view.table.get(p) == Some(e.writable)),
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
        let view = self.resident_view();
        let mut pages = Vec::with_capacity(view.len);
        pages.extend(view.iter().map(|e| e.0));
        pages
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
        let list: Vec<(u64, bool)> = view.iter().map(|(p, w)| (p.0, w)).collect();
        assert_eq!(list.len(), view.len);
        list
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
        // Nothing happened: the same table again, not a copy of it.
        assert!(Rc::ptr_eq(&first.table, &c.resident_view().table));
        // Held by `first`: the cache copies before it writes.
        c.access(PageId(3), true); // upgrade splits the run in three
        c.insert(PageId(10), false); // evicts 9, the LRU page
        let second = c.resident_view();
        assert_eq!(listed(&c), [(2, false), (3, true), (4, false), (10, false)]);
        assert_eq!(second.runs, 4);
        assert!(!Rc::ptr_eq(&first.table, &second.table));
        let pages = |v: &ResidentView| v.iter().map(|e| e.0 .0).collect::<Vec<_>>();
        assert_eq!((pages(&first), first.runs), (vec![2, 3, 4, 9], 2));
        // Held by nobody: patched where it is.
        let at = Rc::as_ptr(&second.table);
        drop((first, second));
        c.downgrade(PageId(3));
        c.evict(PageId(10));
        let third = c.resident_view();
        assert_eq!(listed(&c), [(2, false), (3, false), (4, false)]);
        assert_eq!((third.len, third.runs), (3, 1));
        assert_eq!(Rc::as_ptr(&third.table), at);
    }

    #[test]
    fn table_walks_in_page_order_across_words() {
        let mut t = ResidentTable::default();
        assert_eq!((t.iter().count(), t.runs()), (0, 0));
        assert_eq!(
            t.get(PageId(u64::MAX)),
            None,
            "far past the end reads absent"
        );
        let entries = [
            (0, true),
            (1, true),
            (31, false),
            (32, false),
            (33, true),
            (64, true),
        ];
        for &(p, w) in entries.iter().rev() {
            t.set(PageId(p), Some(w));
        }
        let walked: Vec<(u64, bool)> = t.iter().map(|(p, w)| (p.0, w)).collect();
        assert_eq!(walked, entries);
        // [0, 1] W, [31, 32] R (across a word boundary), [33] W, [64] W.
        assert_eq!(t.runs(), 4);
        t.set(PageId(32), None);
        assert_eq!((t.get(PageId(32)), t.get(PageId(31))), (None, Some(false)));
        assert_eq!(t.runs(), 4, "[31] R and [33] W");
        assert!(t.covers(PageId(127)) && !t.covers(PageId(128)));
        t.clear();
        assert_eq!((t.iter().count(), t.covers(PageId(127))), (0, true));
    }

    #[test]
    fn neighbour_run_updates_match_a_recount() {
        // Every entry (absent, read-only, writable) on page 32 beside every
        // pair of neighbours on 31 and 33, and on page 0, which has no page
        // before it.
        let entries = [None, Some(false), Some(true)];
        for page in [0u64, 32] {
            for left in entries {
                for right in entries {
                    for was in entries {
                        for now in entries {
                            let mut t = ResidentTable::default();
                            if page > 0 {
                                t.set(PageId(page - 1), left);
                            }
                            t.set(PageId(page + 1), right);
                            t.set(PageId(page), was);
                            let runs = t.runs() + t.runs_starting_at(PageId(page), now)
                                - t.runs_starting_at(PageId(page), was);
                            t.set(PageId(page), now);
                            assert_eq!(runs, t.runs(), "{left:?} [{was:?} -> {now:?}] {right:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "resident table: pg268435456 is past the")]
    fn table_refuses_an_absurd_page_by_name() {
        ResidentTable::default().set(PageId(ResidentTable::MAX_PAGES), Some(true));
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
