//! The MESI-inspired page coherence protocol across pools (paper §4).
//!
//! During a pushdown, the compute-pool process and the temporary context in
//! the memory pool share one logical address space. TELEPORT keeps them
//! coherent with a two-sided write-invalidate protocol over page tables:
//! at any instant, if a writable copy of a page exists, it is the only copy
//! (the Single-Writer-Multiple-Reader invariant).
//!
//! Mapping to the paper's pseudocode:
//!
//! - **Fig 8 (`MemorySetup`)** is [`PushdownSession::new`]: the temporary
//!   context clones the full page table and, for every page the compute
//!   cache holds, removes it (compute-writable) or downgrades it to
//!   read-only (compute-read-only). The session keeps the shipped table as
//!   it arrived and reads each page's entry off it; only pages the protocol
//!   acts on mid-call get an entry of their own.
//! - **Fig 9 (fault handling)** is [`PushdownSession::mem_access`] and
//!   [`PushdownSession::compute_access`]: permission faults on either side
//!   message the other side to invalidate or downgrade.
//! - **Concurrent faults** on an `(R, R)` page are tie-broken in favor of
//!   the memory pool: the compute side backs off for a fixed time `t`
//!   before reissuing (§4.1). In this deterministic simulation the tie
//!   appears as a compute-side request for a page the memory side holds
//!   exclusively; the compute lane pays the backoff plus a reissued round
//!   trip.
//!
//! The relaxations of §4.2 (PSO, Weak Ordering, disabled coherence) change
//! which transitions signal and which merely downgrade; with propagation
//! relaxed, compute-side *stale snapshots* make the weaker semantics
//! observable (a reader genuinely sees old bytes until a sync point), which
//! is what makes the paper's false-sharing scenario (Fig 7) testable.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ddc_os::{page_chunks, pages_spanned, Dos, PageId, Pattern, ResidentTable, VAddr};
use ddc_sim::{CoherenceTransition, Lane, MsgClass, SimDuration, TraceEvent};

use crate::flags::CoherenceMode;

/// Page permission, ordered `None < Read < Write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Perm {
    None,
    Read,
    Write,
}

/// Which side wins a concurrent write-write tie (§4.1). The paper favors
/// the memory pool "to complete the pushdown execution as soon as
/// possible" and measures a 15% improvement at 1% contention; the
/// alternative is provided for the ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// The paper's choice: the compute side backs off and reissues.
    #[default]
    FavorMemory,
    /// The alternative: the memory side yields immediately and pays the
    /// backoff before its next conflicting acquisition.
    FavorCompute,
}

/// Statistics of one pushdown session's coherence activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Round trips between the pools (each counts two fabric messages).
    pub round_trips: u64,
    /// Times the compute side backed off in favor of the memory pool.
    pub backoffs: u64,
    /// Pages the memory side wrote.
    pub pages_written_memside: u64,
}

impl std::ops::AddAssign for CoherenceStats {
    fn add_assign(&mut self, rhs: CoherenceStats) {
        self.round_trips += rhs.round_trips;
        self.backoffs += rhs.backoffs;
        self.pages_written_memside += rhs.pages_written_memside;
    }
}

/// Live coherence state for one pushdown call.
#[derive(Debug)]
pub struct PushdownSession {
    mode: CoherenceMode,
    /// The resident pages shipped with the request, indexed by page: per
    /// Fig 8 the temporary context holds nothing at first and is allowed
    /// `None` on a compute-writable page, `Read` on a compute-read-only one
    /// and `Write` on an unlisted one. Shared with the compute cache that
    /// produced it, which copies before it writes while the session lives,
    /// so the table stays as shipped.
    shipped: Rc<ResidentTable>,
    /// Pages either side has acquired during the call: what the temporary
    /// context *holds* on each right now and what it is *allowed* without
    /// signalling, in that order. An entry shadows `shipped`; the table
    /// starts empty, so set-up costs nothing per resident page.
    touched: Touched,
    /// Compute-side stale page snapshots (propagation-relaxed modes only).
    stale: BTreeMap<PageId, Vec<u8>>,
    backoff_t: SimDuration,
    tiebreak: TieBreak,
    /// Under [`TieBreak::FavorCompute`], the memory side owes a backoff
    /// before its next conflicting acquisition.
    mem_owes_backoff: bool,
    /// Time spent servicing coherence during execution (part 4b of the
    /// Fig 19 breakdown).
    pub online_sync: SimDuration,
    pub stats: CoherenceStats,
}

impl PushdownSession {
    /// Build the temporary context's page table from the resident-page
    /// list shipped with the pushdown request (Fig 8).
    ///
    /// The list may come in any order, `Dos::resident_list`'s page order
    /// included; set-up writes it into a page-indexed table, so a duplicated
    /// page ends up with its last entry, and a page no address space hands
    /// out (past [`ResidentTable::MAX_PAGES`]) is refused by name
    /// ([`PushdownSession::over_shipped`] takes the compute cache's shared
    /// table without copying it).
    ///
    /// The session favors the memory pool on a tie; a pushdown's session
    /// takes `TeleportConfig::tiebreak` through `over_shipped` instead.
    pub fn new(mode: CoherenceMode, resident: &[(PageId, bool)], backoff_t: SimDuration) -> Self {
        let mut shipped = ResidentTable::default();
        for &(page, writable) in resident {
            shipped.set(page, Some(writable));
        }
        Self::over_shipped(mode, Rc::new(shipped), backoff_t, TieBreak::FavorMemory)
    }

    /// The temporary context over the compute cache's shared table, as
    /// `Dos::resident_view` hands it out: set-up is a pointer copy, whatever
    /// the number of resident pages.
    pub fn over_shipped(
        mode: CoherenceMode,
        shipped: Rc<ResidentTable>,
        backoff_t: SimDuration,
        tiebreak: TieBreak,
    ) -> Self {
        PushdownSession {
            mode,
            shipped,
            touched: Touched::default(),
            stale: BTreeMap::new(),
            backoff_t,
            tiebreak,
            mem_owes_backoff: false,
            online_sync: SimDuration::ZERO,
            stats: CoherenceStats::default(),
        }
    }

    pub fn mode(&self) -> CoherenceMode {
        self.mode
    }

    /// `(held, allowed)` of `pid`: as the protocol last left it, or else
    /// nothing held and allowed what the shipped list says.
    fn state(&self, pid: PageId) -> (Perm, Perm) {
        if let Some(state) = self.touched.get(pid) {
            return state;
        }
        match self.shipped.get(pid) {
            // Writable in compute -> excluded from the temporary context;
            // read-only in compute -> read-only in the temporary context.
            Some(true) => (Perm::None, Perm::None),
            Some(false) => (Perm::None, Perm::Read),
            None => (Perm::None, Perm::Write),
        }
    }

    /// Record where the protocol left `pid` on the temporary context's side.
    fn settle(&mut self, pid: PageId, held: Perm, allowed: Perm) {
        self.touched.insert(pid, (held, allowed));
    }

    /// The permission the temporary context currently holds on `pid`
    /// (observability for tests and invariant checks).
    pub fn mem_perm(&self, pid: PageId) -> Perm {
        self.state(pid).0
    }

    /// The most the temporary context may take on `pid` without signalling
    /// the compute pool (observability, as [`PushdownSession::mem_perm`]).
    pub fn mem_allowed(&self, pid: PageId) -> Perm {
        self.state(pid).1
    }

    /// One coherence round trip (request + response), charged to the
    /// current clock via the kernel's fabric. `lane` is the side that
    /// initiated the exchange; the trace records exactly one
    /// [`TraceEvent::CoherenceMsg`] per round trip, so modes that never
    /// message (Disabled) leave no coherence events at all.
    fn round_trip(
        &mut self,
        dos: &mut Dos,
        pid: PageId,
        transition: CoherenceTransition,
        lane: Lane,
    ) {
        dos.tracer().emit(
            lane,
            TraceEvent::CoherenceMsg {
                page: pid.0,
                transition,
            },
        );
        let d1 = dos.fabric().send(MsgClass::Coherence, 64);
        let d2 = dos.fabric().send(MsgClass::Coherence, 64);
        dos.charge(d1 + d2);
        self.stats.round_trips += 1;
    }

    // ------------------------------------------------------------------
    // Memory-side (temporary context) accesses
    // ------------------------------------------------------------------

    /// A memory-side access to `[addr, addr+len)` by the pushed function.
    /// Resolves permissions page by page (messaging the compute pool where
    /// the protocol requires it), then charges the pool-local access cost.
    pub fn mem_access(
        &mut self,
        dos: &mut Dos,
        addr: VAddr,
        len: usize,
        write: bool,
        pat: Pattern,
    ) {
        let mut sync_spent = SimDuration::ZERO;
        for pid in pages_spanned(addr, len) {
            let t0 = dos.clock().now();
            self.mem_acquire(dos, pid, write);
            sync_spent += dos.clock().now().since(t0);
        }
        // The data access itself (pool DRAM, possibly storage recursion).
        dos.mem_touch_range(addr, len, write, pat);
        self.online_sync += sync_spent;
        if write {
            // Counts page-write operations, not distinct pages.
            self.stats.pages_written_memside += pages_spanned(addr, len).count() as u64;
        }
    }

    /// `hits` more memory-side reads of `len` bytes on `pid`, right after a
    /// [`PushdownSession::mem_access`] of it, charged as that path would
    /// charge them: with read permission held a repeated read acquires
    /// nothing, which leaves the kernel's [`Dos::mem_repeat_reads`]. Returns
    /// `false`, charging nothing, where the kernel declines.
    pub fn mem_repeat_reads(
        &mut self,
        dos: &mut Dos,
        pid: PageId,
        len: usize,
        pat: Pattern,
        hits: u64,
    ) -> bool {
        self.state(pid).0 >= Perm::Read && dos.mem_repeat_reads(pid, len, pat, hits)
    }

    /// Resolve the temporary context's permission on one page.
    fn mem_acquire(&mut self, dos: &mut Dos, pid: PageId, write: bool) {
        let need = if write { Perm::Write } else { Perm::Read };
        let (held, allowed) = self.state(pid);
        if write && self.mem_owes_backoff && held < need {
            // Compute won a recent tie: the memory side reissues after the
            // wait instead.
            self.round_trip(dos, pid, CoherenceTransition::TieBreakReissue, Lane::Memory);
            dos.charge(self.backoff_t);
            self.stats.backoffs += 1;
            self.mem_owes_backoff = false;
        }
        if held >= need {
            // For propagation-relaxed modes, a write to a page the compute
            // side still caches must keep the compute view stale.
            if write && !self.mode.signals_on_write() {
                self.snapshot_if_computed_cached(dos, pid);
            }
            return;
        }
        if allowed < need {
            // The compute pool holds this page with a conflicting
            // permission; apply Fig 9's memory-side fault path.
            match dos.cache_probe(pid) {
                None => {
                    // The compute cache evicted it naturally since the
                    // session began: a true fault, no messaging needed.
                }
                Some(_entry) => {
                    if write {
                        match self.mode {
                            CoherenceMode::WriteInvalidate => {
                                self.round_trip(
                                    dos,
                                    pid,
                                    CoherenceTransition::InvalidateCompute,
                                    Lane::Memory,
                                );
                                dos.coherence_evict(pid);
                            }
                            CoherenceMode::Pso => {
                                self.round_trip(
                                    dos,
                                    pid,
                                    CoherenceTransition::DowngradeCompute,
                                    Lane::Memory,
                                );
                                dos.coherence_downgrade(pid);
                            }
                            CoherenceMode::WeakOrdering | CoherenceMode::Disabled => {
                                // Write locally; the compute copy silently
                                // goes stale.
                                self.snapshot_if_computed_cached(dos, pid);
                            }
                        }
                    } else {
                        // Read request over a compute-writable page.
                        let writable = dos.cache_probe(pid).map(|e| e.writable).unwrap_or(false);
                        if writable && self.mode.signals_on_read() {
                            self.round_trip(
                                dos,
                                pid,
                                CoherenceTransition::DowngradeCompute,
                                Lane::Memory,
                            );
                            dos.coherence_downgrade(pid);
                        }
                        // Relaxed modes read the (possibly stale) pool copy
                        // without messaging.
                    }
                }
            }
        }
        // Permission acquired: the context held less than `need` (anything
        // else returned above) and may now keep at least that much.
        self.settle(pid, need, allowed.max(need));
    }

    /// Preserve the compute pool's current view of a page about to be
    /// overwritten memory-side without invalidation (relaxed modes). The
    /// snapshot covers the whole page; only taken once per page.
    fn snapshot_if_computed_cached(&mut self, dos: &mut Dos, pid: PageId) {
        if self.stale.contains_key(&pid) {
            return;
        }
        if dos.cache_probe(pid).is_some() {
            let bytes = dos.space().page_view(pid).to_vec();
            self.stale.insert(pid, bytes);
        }
    }

    // ------------------------------------------------------------------
    // Compute-side accesses while the pushdown is in flight
    // ------------------------------------------------------------------

    /// A compute-side access during pushdown (a concurrent thread). Settles
    /// the coherence state against the temporary context, then performs the
    /// normal compute-side access.
    pub fn compute_access(
        &mut self,
        dos: &mut Dos,
        addr: VAddr,
        len: usize,
        write: bool,
        pat: Pattern,
    ) {
        for pid in pages_spanned(addr, len) {
            self.compute_acquire(dos, pid, write);
        }
        dos.touch_range(addr, len, write, pat);
        if write {
            mirror_into_stale(&mut self.stale, dos, addr, len);
        }
    }

    fn compute_acquire(&mut self, dos: &mut Dos, pid: PageId, write: bool) {
        let need = if write { Perm::Write } else { Perm::Read };
        let (mem_held, mem_allowed) = self.state(pid);
        let probe = dos.cache_probe(pid);
        let compute_has = match probe {
            Some(e) if e.writable => Perm::Write,
            Some(_) => Perm::Read,
            None => Perm::None,
        };
        if compute_has >= need {
            return;
        }
        // In relaxed modes the compute side upgrades locally without
        // signalling; propagation happens at sync points.
        let signals = if write {
            self.mode.signals_on_write()
        } else {
            self.mode.signals_on_read()
        };
        if !signals {
            // Memory side keeps whatever it holds; compute proceeds.
            return;
        }
        if mem_held == Perm::Write && write {
            match self.tiebreak {
                TieBreak::FavorMemory => {
                    // §4.1: the compute side waits `t`, then reissues.
                    self.round_trip(
                        dos,
                        pid,
                        CoherenceTransition::TieBreakBackoff,
                        Lane::Compute,
                    );
                    dos.charge(self.backoff_t);
                    self.stats.backoffs += 1;
                }
                TieBreak::FavorCompute => {
                    // The memory side yields now and pays its wait on the
                    // next conflicting acquisition.
                    self.mem_owes_backoff = true;
                }
            }
        }
        if mem_held != Perm::None {
            // The fault is forwarded to the memory controller anyway (the
            // page-in path below); the controller invalidates or downgrades
            // the temporary context locally per Fig 9's `Invalidate`.
            let left = if write { Perm::None } else { Perm::Read };
            self.settle(pid, left, left);
            if compute_has != Perm::None {
                // Permission upgrade with the page already cached: a
                // dedicated round trip (no page data moves).
                let transition = if write {
                    CoherenceTransition::InvalidateMem
                } else {
                    CoherenceTransition::DowngradeMem
                };
                self.round_trip(dos, pid, transition, Lane::Compute);
            }
        } else if compute_has != Perm::None && write {
            // (R, R) upgrade with the memory side not holding the page:
            // still a round trip to the controller to gain exclusivity.
            self.round_trip(
                dos,
                pid,
                CoherenceTransition::UpgradeExclusive,
                Lane::Compute,
            );
            self.settle(pid, mem_held, Perm::None);
        } else if write {
            self.settle(pid, mem_held, Perm::None);
        } else if mem_allowed > Perm::Read {
            self.settle(pid, mem_held, Perm::Read);
        }
    }

    /// Complete the session (paper §4.1: dirty bits merge back into the
    /// full page table with no external communication). For Weak Ordering,
    /// completion is a synchronization point: stale compute copies are
    /// invalidated (one batched round trip). For disabled coherence the
    /// stale views persist until an explicit `syncmem`; they are returned
    /// to the caller to keep serving compute reads.
    pub fn finish(
        mut self,
        dos: &mut Dos,
    ) -> (CoherenceStats, SimDuration, BTreeMap<PageId, Vec<u8>>) {
        if self.mode.syncs_at_completion() && !self.stale.is_empty() {
            // Batched invalidation of stale compute copies; BTreeMap keys
            // walk in sorted order, so eviction (and trace) order is
            // deterministic.
            let pages: Vec<PageId> = self.stale.keys().copied().collect();
            self.round_trip(
                dos,
                pages[0],
                CoherenceTransition::CompletionSync,
                Lane::Compute,
            );
            for pid in pages {
                dos.coherence_evict(pid);
            }
            self.stale.clear();
        }
        (self.stats, self.online_sync, self.stale)
    }
}

/// Keep a compute write to `[addr, addr+len)` visible in the compute's own
/// view: copy the bytes just written into the snapshot of each page `stale`
/// holds.
pub(crate) fn mirror_into_stale(
    stale: &mut BTreeMap<PageId, Vec<u8>>,
    dos: &Dos,
    addr: VAddr,
    len: usize,
) {
    for (pid, off, n) in page_chunks(addr, len) {
        if let Some(snap) = stale.get_mut(&pid) {
            snap[off..off + n].copy_from_slice(&dos.space().page_view(pid)[off..off + n]);
        }
    }
}

/// A free [`Touched`] slot. A page id comes from a `VAddr >> 12`, so it is
/// below 2^52, and a slot holding one has its top twelve bits clear.
const VACANT: u64 = u64::MAX;

/// The bits of a [`Touched`] slot that hold the page id.
const KEY_BITS: u32 = 52;

thread_local! {
    /// The slots of the last touched table this thread dropped, for the
    /// next one's first insert: one session after another (a serving tier's
    /// steady state) allocates no table.
    static SPARE_SLOTS: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// The session's touched pages: `(held, allowed)` per page in an
/// open-addressed table with linear probing, so the lookup every
/// memory-side access makes is O(1). It is never iterated, so it has no
/// order to keep deterministic.
#[derive(Debug, Default)]
struct Touched {
    /// One word a page: its id in the low [`KEY_BITS`] bits and the two
    /// permissions above them, or `VACANT`. Empty until the first insert,
    /// then a power of two at least twice `len`.
    slots: Vec<u64>,
    len: usize,
}

impl Drop for Touched {
    fn drop(&mut self) {
        if (1..=Self::SPARE_MAX).contains(&self.slots.capacity()) {
            let slots = std::mem::take(&mut self.slots);
            let _ = SPARE_SLOTS.try_with(|spare| spare.set(slots));
        }
    }
}

impl Touched {
    /// Slots the first insert takes.
    const FIRST: usize = 16;

    /// The largest slot buffer kept for the next table (32 KiB): a session
    /// that touched thousands of pages does not pin its table after it.
    const SPARE_MAX: usize = 1 << 12;

    const KEY_MASK: u64 = (1 << KEY_BITS) - 1;

    fn pack(key: u64, (held, allowed): (Perm, Perm)) -> u64 {
        key | (held as u64) << KEY_BITS | (allowed as u64) << (KEY_BITS + 2)
    }

    fn unpack(slot: u64) -> (Perm, Perm) {
        const PERMS: [Perm; 3] = [Perm::None, Perm::Read, Perm::Write];
        let perm = |at: u32| PERMS[(slot >> at & 3) as usize];
        (perm(KEY_BITS), perm(KEY_BITS + 2))
    }

    /// The slot holding `key`, or the vacant slot that ends its probe. The
    /// table must not be empty.
    #[inline]
    fn find(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the high bits of the product, as many as the
        // table has index bits.
        let bits = self.slots.len().trailing_zeros();
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
        loop {
            let slot = self.slots[i];
            if slot == VACANT || slot & Self::KEY_MASK == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, pid: PageId) -> Option<(Perm, Perm)> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = self.slots[self.find(pid.0)];
        (slot != VACANT).then(|| Self::unpack(slot))
    }

    #[inline]
    fn insert(&mut self, pid: PageId, state: (Perm, Perm)) {
        assert!(
            pid.0 <= Self::KEY_MASK,
            "{pid} is past the 2^52 pages a VAddr names"
        );
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let i = self.find(pid.0);
        if self.slots[i] == VACANT {
            self.len += 1;
        }
        self.slots[i] = Self::pack(pid.0, state);
    }

    /// Double the slots (or take the first ones, from the spare buffer
    /// when this thread has one) and re-place every entry.
    #[cold]
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(Self::FIRST);
        let mut slots = if self.slots.is_empty() {
            SPARE_SLOTS.try_with(Cell::take).unwrap_or_default()
        } else {
            Vec::new()
        };
        slots.clear();
        slots.resize(size, VACANT);
        let old = std::mem::replace(&mut self.slots, slots);
        for slot in old.into_iter().filter(|&slot| slot != VACANT) {
            let i = self.find(slot & Self::KEY_MASK);
            self.slots[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_sim::{DdcConfig, PAGE_SIZE};
    use proptest::prelude::*;

    fn dos_with(cache_pages: usize) -> Dos {
        Dos::new_disaggregated(DdcConfig {
            compute_cache_bytes: cache_pages * PAGE_SIZE,
            memory_pool_bytes: 1024 * PAGE_SIZE,
            ..Default::default()
        })
    }

    fn page_addr(a: VAddr, page_idx: u64) -> VAddr {
        a.offset(page_idx * PAGE_SIZE as u64)
    }

    #[test]
    fn setup_excludes_compute_writable_pages() {
        let s = PushdownSession::new(
            CoherenceMode::WriteInvalidate,
            &[(PageId(1), true), (PageId(2), false)],
            SimDuration::from_micros(10),
        );
        assert_eq!(s.mem_allowed(PageId(1)), Perm::None);
        assert_eq!(s.mem_allowed(PageId(2)), Perm::Read);
        assert_eq!(
            s.mem_allowed(PageId(3)),
            Perm::Write,
            "unlisted pages are free"
        );
    }

    #[test]
    fn setup_accepts_any_order_and_the_last_duplicate_wins() {
        let perms = |list: &[(PageId, bool)]| {
            let s = PushdownSession::new(
                CoherenceMode::WriteInvalidate,
                list,
                SimDuration::from_micros(10),
            );
            [1, 2, 3, 4, 5].map(|p| s.mem_allowed(PageId(p)))
        };
        let sorted = [(PageId(1), true), (PageId(3), false), (PageId(5), true)];
        let want = [Perm::None, Perm::Write, Perm::Read, Perm::Write, Perm::None];
        assert_eq!(perms(&sorted), want);
        let unsorted = [(PageId(5), true), (PageId(1), true), (PageId(3), false)];
        assert_eq!(perms(&unsorted), want);
        let duplicated = [
            (PageId(3), true),
            (PageId(1), false),
            (PageId(5), true),
            (PageId(1), true),
            (PageId(3), true),
            (PageId(3), false),
        ];
        assert_eq!(perms(&duplicated), want);
        // Sorted but not strictly: the duplicate still resolves to the last.
        let adjacent = [
            (PageId(1), false),
            (PageId(1), true),
            (PageId(3), false),
            (PageId(5), true),
        ];
        assert_eq!(perms(&adjacent), want);
    }

    #[test]
    #[should_panic(expected = "resident table: pg268435456 is past the")]
    fn setup_refuses_a_page_no_address_space_hands_out() {
        PushdownSession::new(
            CoherenceMode::WriteInvalidate,
            &[(PageId(1), true), (PageId(ResidentTable::MAX_PAGES), false)],
            SimDuration::from_micros(10),
        );
    }

    #[test]
    fn mem_write_to_compute_dirty_page_invalidates_and_flushes() {
        let mut dos = dos_with(8);
        let a = dos.alloc(4 * PAGE_SIZE);
        dos.write_u64(a, 7, Pattern::Rand); // page 0 dirty in compute
        dos.begin_timing();
        let resident = dos.resident_list();
        let mut s = PushdownSession::new(
            CoherenceMode::WriteInvalidate,
            &resident,
            SimDuration::from_micros(10),
        );
        s.mem_access(&mut dos, a, 8, true, Pattern::Rand);
        assert_eq!(s.stats.round_trips, 1);
        assert!(dos.cache_probe(a.page()).is_none(), "compute copy evicted");
        assert_eq!(dos.stats().remote_page_out, 1, "dirty flush transferred");
        assert!(s.online_sync > SimDuration::ZERO);
        // A second write is free: exclusivity already held.
        let before = s.stats.round_trips;
        s.mem_access(&mut dos, a, 8, true, Pattern::Rand);
        assert_eq!(s.stats.round_trips, before);
    }

    #[test]
    fn mem_read_downgrades_compute_writable_page() {
        let mut dos = dos_with(8);
        let a = dos.alloc(PAGE_SIZE);
        dos.write_u64(a, 1, Pattern::Rand);
        dos.begin_timing();
        let resident = dos.resident_list();
        let mut s = PushdownSession::new(
            CoherenceMode::WriteInvalidate,
            &resident,
            SimDuration::from_micros(10),
        );
        s.mem_access(&mut dos, a, 8, false, Pattern::Rand);
        assert_eq!(s.stats.round_trips, 1);
        let e = dos.cache_probe(a.page()).unwrap();
        assert!(!e.writable, "compute copy downgraded to read-only");
        assert_eq!(dos.stats().remote_page_out, 1, "dirty copy flushed first");
    }

    #[test]
    fn mem_read_of_compute_readonly_page_is_silent() {
        let mut dos = dos_with(8);
        let a = dos.alloc(PAGE_SIZE);
        let _ = dos.read_u64(a, Pattern::Rand); // read-only in compute
        dos.begin_timing();
        let resident = dos.resident_list();
        let mut s = PushdownSession::new(
            CoherenceMode::WriteInvalidate,
            &resident,
            SimDuration::from_micros(10),
        );
        s.mem_access(&mut dos, a, 8, false, Pattern::Rand);
        assert_eq!(s.stats.round_trips, 0, "(R,R) needs no messages");
    }

    #[test]
    fn naturally_evicted_page_needs_no_messages() {
        let mut dos = dos_with(1); // 1-page cache
        let a = dos.alloc(2 * PAGE_SIZE);
        dos.write_u64(a, 1, Pattern::Rand); // page 0 dirty
        let resident = dos.resident_list();
        // Page 0 evicted by touching page 1.
        dos.write_u64(page_addr(a, 1), 2, Pattern::Rand);
        dos.begin_timing();
        let mut s = PushdownSession::new(
            CoherenceMode::WriteInvalidate,
            &resident,
            SimDuration::from_micros(10),
        );
        s.mem_access(&mut dos, a, 8, true, Pattern::Rand);
        assert_eq!(s.stats.round_trips, 0);
    }

    #[test]
    fn pso_write_leaves_compute_a_readonly_copy() {
        let mut dos = dos_with(8);
        let a = dos.alloc(PAGE_SIZE);
        dos.write_u64(a, 1, Pattern::Rand);
        dos.begin_timing();
        let resident = dos.resident_list();
        let mut s =
            PushdownSession::new(CoherenceMode::Pso, &resident, SimDuration::from_micros(10));
        s.mem_access(&mut dos, a, 8, true, Pattern::Rand);
        assert_eq!(s.stats.round_trips, 1, "PSO still signals the first write");
        let e = dos.cache_probe(a.page()).unwrap();
        assert!(!e.writable, "compute keeps a read-only copy");
    }

    #[test]
    fn weak_ordering_never_messages_during_execution() {
        let mut dos = dos_with(8);
        let a = dos.alloc(PAGE_SIZE);
        dos.write_u64(a, 1, Pattern::Rand);
        dos.begin_timing();
        let resident = dos.resident_list();
        let mut s = PushdownSession::new(
            CoherenceMode::WeakOrdering,
            &resident,
            SimDuration::from_micros(10),
        );
        for _ in 0..10 {
            s.mem_access(&mut dos, a, 8, true, Pattern::Rand);
        }
        assert_eq!(s.stats.round_trips, 0);
        // Completion is a sync point: the compute view went stale silently,
        // so one batched round trip invalidates it.
        let (stats, _, stale) = s.finish(&mut dos);
        assert_eq!(stats.round_trips, 1);
        assert!(stale.is_empty());
        assert!(
            dos.cache_probe(a.page()).is_none(),
            "stale compute copy invalidated at completion"
        );
    }

    #[test]
    fn disabled_mode_keeps_stale_views_past_completion() {
        let mut dos = dos_with(8);
        let a = dos.alloc(PAGE_SIZE);
        dos.write_u64(a, 0xAA, Pattern::Rand);
        dos.begin_timing();
        let resident = dos.resident_list();
        let mut s = PushdownSession::new(
            CoherenceMode::Disabled,
            &resident,
            SimDuration::from_micros(10),
        );
        // The memory side's write: its access snapshots the compute's view,
        // then the bytes change in the pool.
        s.mem_access(&mut dos, a, 8, true, Pattern::Rand);
        dos.space_mut().write_u64(a, 0xBB);
        let (stats, _, stale) = s.finish(&mut dos);
        assert_eq!(stats.round_trips, 0);
        let off = a.page_offset();
        let snap = &stale.get(&a.page()).expect("staleness survives completion")[off..off + 8];
        assert_eq!(
            snap,
            0xAAu64.to_le_bytes(),
            "the compute's bytes, not the pool's"
        );
        assert_eq!(dos.space().read_u64(a), 0xBB);
    }

    #[test]
    fn compute_write_during_pushdown_reclaims_exclusive_page() {
        let mut dos = dos_with(8);
        let a = dos.alloc(PAGE_SIZE);
        dos.write_u64(a, 1, Pattern::Rand);
        dos.begin_timing();
        let resident = dos.resident_list();
        let mut s = PushdownSession::new(
            CoherenceMode::WriteInvalidate,
            &resident,
            SimDuration::from_micros(10),
        );
        // Memory side takes the page exclusively.
        s.mem_access(&mut dos, a, 8, true, Pattern::Rand);
        assert_eq!(s.mem_perm(a.page()), Perm::Write);
        // Compute thread writes it back: pays a backoff (memory pool is
        // favored) and the memory side loses the page.
        let backoffs_before = s.stats.backoffs;
        s.compute_access(&mut dos, a, 8, true, Pattern::Rand);
        assert_eq!(s.stats.backoffs, backoffs_before + 1);
        assert_eq!(s.mem_perm(a.page()), Perm::None);
        assert!(
            dos.cache_probe(a.page()).is_some(),
            "compute holds it again"
        );
    }

    #[test]
    fn compute_read_downgrades_memory_exclusive_page() {
        let mut dos = dos_with(8);
        let a = dos.alloc(PAGE_SIZE);
        dos.write_u64(a, 1, Pattern::Rand);
        dos.begin_timing();
        let resident = dos.resident_list();
        let mut s = PushdownSession::new(
            CoherenceMode::WriteInvalidate,
            &resident,
            SimDuration::from_micros(10),
        );
        s.mem_access(&mut dos, a, 8, true, Pattern::Rand);
        s.compute_access(&mut dos, a, 8, false, Pattern::Rand);
        assert_eq!(
            s.mem_perm(a.page()),
            Perm::Read,
            "memory downgraded to reader"
        );
        assert_eq!(s.mem_allowed(a.page()), Perm::Read);
    }

    /// A page id as `AddressSpace` hands them out (dense from 1) or anywhere
    /// a `VAddr` can put one (below 2^52).
    fn page_id() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..512, 0u64..1 << 52]
    }

    fn perm(p: u8) -> Perm {
        [Perm::None, Perm::Read, Perm::Write][p as usize % 3]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `settle` / `state` over the flat table answer what a `BTreeMap`
        /// of settled pages shadowing the shipped list answers, through
        /// several doublings: after every step for the page just settled,
        /// an earlier one, a shipped one and one never named, and at the
        /// end for every page either side named.
        #[test]
        fn touched_table_matches_a_btreemap(
            shipped in prop::collection::vec((0u64..512, any::<bool>()), 0..32),
            ops in prop::collection::vec((page_id(), 0u8..3, 0u8..3), 1..600),
        ) {
            let mut s = PushdownSession::new(
                CoherenceMode::WriteInvalidate,
                &shipped.iter().map(|&(p, w)| (PageId(p), w)).collect::<Vec<_>>(),
                SimDuration::from_micros(10),
            );
            // The shipped list as set-up reads it: the last duplicate wins.
            let listed: BTreeMap<u64, bool> = shipped.iter().copied().collect();
            let mut settled = BTreeMap::new();
            let model = |settled: &BTreeMap<u64, (Perm, Perm)>, p: u64| {
                settled.get(&p).copied().unwrap_or(match listed.get(&p) {
                    Some(true) => (Perm::None, Perm::None),
                    Some(false) => (Perm::None, Perm::Read),
                    None => (Perm::None, Perm::Write),
                })
            };
            for (i, &(p, held, allowed)) in ops.iter().enumerate() {
                s.settle(PageId(p), perm(held), perm(allowed));
                settled.insert(p, (perm(held), perm(allowed)));
                let unnamed = (1u64 << 52) + i as u64;
                let listed_one = shipped.get(i % shipped.len().max(1)).map_or(0, |e| e.0);
                for q in [p, ops[i / 2].0, listed_one, unnamed] {
                    prop_assert_eq!(s.state(PageId(q)), model(&settled, q), "page {} at op {}", q, i);
                }
            }
            prop_assert_eq!(s.touched.len, settled.len());
            for q in ops.iter().map(|o| o.0).chain(shipped.iter().map(|e| e.0)) {
                prop_assert_eq!(s.state(PageId(q)), model(&settled, q), "page {} at the end", q);
            }
        }
    }

    /// What set-up answered when it kept the shipped list as a sorted
    /// `Vec`: sort stably, keep the last of each duplicated page, binary
    /// search.
    fn searched(list: &[(PageId, bool)], pid: PageId) -> (Perm, Perm) {
        let mut shipped = list.to_vec();
        shipped.sort_by_key(|e| e.0);
        shipped.dedup_by(|later, kept| {
            let dup = later.0 == kept.0;
            if dup {
                *kept = *later;
            }
            dup
        });
        match shipped.binary_search_by_key(&pid, |e| e.0) {
            Ok(i) if shipped[i].1 => (Perm::None, Perm::None),
            Ok(_) => (Perm::None, Perm::Read),
            Err(_) => (Perm::None, Perm::Write),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A session built from a list in any order, duplicates included,
        /// answers `mem_perm` / `mem_allowed` as the sorted, deduplicated,
        /// binary-searched list did: for every page listed and its two
        /// neighbours.
        #[test]
        fn shipped_table_answers_as_the_searched_list(
            list in prop::collection::vec((0u64..300, any::<bool>()), 0..64),
        ) {
            let list: Vec<(PageId, bool)> = list.into_iter().map(|(p, w)| (PageId(p), w)).collect();
            let s = PushdownSession::new(
                CoherenceMode::WriteInvalidate,
                &list,
                SimDuration::from_micros(10),
            );
            for &(page, _) in &list {
                for q in [page.0.wrapping_sub(1), page.0, page.0.wrapping_add(1)] {
                    let pid = PageId(q);
                    prop_assert_eq!((s.mem_perm(pid), s.mem_allowed(pid)), searched(&list, pid), "{}", pid);
                }
            }
        }
    }

    #[test]
    fn touched_probe_wraps_from_the_last_slot_to_the_first() {
        let last = Touched::FIRST - 1;
        let homed_last = (1..).filter(|&k| {
            let mut t = Touched::default();
            t.insert(PageId(k), (Perm::Read, Perm::Read));
            t.slots[last] & Touched::KEY_MASK == k
        });
        let [a, b] = <[u64; 2]>::try_from(homed_last.take(2).collect::<Vec<_>>()).unwrap();
        let mut t = Touched::default();
        t.insert(PageId(a), (Perm::Read, Perm::Read));
        t.insert(PageId(b), (Perm::Write, Perm::None));
        assert_eq!(
            (
                t.slots[last] & Touched::KEY_MASK,
                t.slots[0] & Touched::KEY_MASK
            ),
            (a, b),
            "b's probe wrapped to slot 0"
        );
        assert_eq!(t.get(PageId(b)), Some((Perm::Write, Perm::None)));
        assert_eq!(t.get(PageId(0)), None);
    }

    #[test]
    #[should_panic(expected = "is past the 2^52 pages a VAddr names")]
    fn touched_refuses_a_page_no_vaddr_names() {
        Touched::default().insert(PageId(1 << KEY_BITS), (Perm::Read, Perm::Read));
    }

    #[test]
    fn swmr_invariant_holds_across_random_schedule() {
        // Drive a random interleaving of accesses from both sides and check
        // the invariant after every step: never (compute writable) while
        // (memory holds Write) on the same page.
        let mut dos = dos_with(4);
        let a = dos.alloc(8 * PAGE_SIZE);
        for i in 0..8 {
            dos.write_u64(page_addr(a, i), i, Pattern::Rand);
        }
        dos.begin_timing();
        let resident = dos.resident_list();
        let mut s = PushdownSession::new(
            CoherenceMode::WriteInvalidate,
            &resident,
            SimDuration::from_micros(10),
        );
        let mut x = 0x12345678u64;
        for step in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pg = x % 8;
            let addr = page_addr(a, pg);
            let write = x & 1 == 0;
            if step % 2 == 0 {
                s.mem_access(&mut dos, addr, 8, write, Pattern::Rand);
            } else {
                s.compute_access(&mut dos, addr, 8, write, Pattern::Rand);
            }
            for i in 0..8u64 {
                let pid = page_addr(a, i).page();
                let compute_writable = dos.cache_probe(pid).map(|e| e.writable).unwrap_or(false);
                let mem_write = s.mem_perm(pid) == Perm::Write;
                assert!(
                    !(compute_writable && mem_write),
                    "SWMR violated on page {i} at step {step}"
                );
            }
        }
    }
}
