//! Property tests for the TELEPORT core: SWMR under arbitrary schedules,
//! no lost writes under coherent modes, RLE round-trips, pushdown
//! transparency, the coherence session against its map-based reference, and
//! the run count a pushdown bills against the RLE codec.

use std::collections::{BTreeMap, BTreeSet};

use ddc_os::{pages_spanned, Dos, PageId, Pattern, VAddr};
use ddc_sim::{CoherenceTransition, DdcConfig, Lane, MsgClass, SimDuration, TraceEvent, PAGE_SIZE};
use proptest::prelude::*;
use teleport::rle::RUN_WIRE_BYTES;
use teleport::rpc::REQUEST_HEADER_BYTES;
use teleport::{
    CoherenceMode, CoherenceStats, Mem, Perm, PushdownOpts, PushdownSession, Region, ResidentList,
    Runtime, TieBreak,
};

#[derive(Debug, Clone)]
struct Access {
    mem_side: bool,
    page: u64,
    write: bool,
}

fn access_strategy(pages: u64) -> impl Strategy<Value = Access> {
    (any::<bool>(), 0..pages, any::<bool>()).prop_map(|(mem_side, page, write)| Access {
        mem_side,
        page,
        write,
    })
}

const PAGES: u64 = 6;

fn fresh_session(mode: CoherenceMode) -> (Dos, ddc_os::VAddr, PushdownSession) {
    let mut dos = Dos::new_disaggregated(DdcConfig {
        compute_cache_bytes: 4 * PAGE_SIZE,
        memory_pool_bytes: 64 * PAGE_SIZE,
        ..Default::default()
    });
    let a = dos.alloc(PAGES as usize * PAGE_SIZE);
    // Warm: every page written once by the compute side.
    for p in 0..PAGES {
        dos.write_u64(a.offset(p * PAGE_SIZE as u64), p, Pattern::Rand);
    }
    dos.begin_timing();
    let resident = dos.resident_list();
    let s = PushdownSession::new(mode, &resident, SimDuration::from_micros(10));
    (dos, a, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SWMR invariant holds after every step of any interleaved
    /// schedule under the default write-invalidate protocol (§4.1).
    #[test]
    fn swmr_under_arbitrary_schedules(
        trace in prop::collection::vec(access_strategy(PAGES), 1..120)
    ) {
        let (mut dos, a, mut s) = fresh_session(CoherenceMode::WriteInvalidate);
        for acc in &trace {
            let addr = a.offset(acc.page * PAGE_SIZE as u64 + 16);
            if acc.mem_side {
                s.mem_access(&mut dos, addr, 8, acc.write, Pattern::Rand);
            } else {
                s.compute_access(&mut dos, addr, 8, acc.write, Pattern::Rand);
            }
            for p in 0..PAGES {
                let pid = a.offset(p * PAGE_SIZE as u64).page();
                let compute_writable =
                    dos.cache_probe(pid).map(|e| e.writable).unwrap_or(false);
                let mem_exclusive = s.mem_perm(pid) == Perm::Write;
                prop_assert!(
                    !(compute_writable && mem_exclusive),
                    "SWMR violated on page {p}"
                );
            }
        }
    }

    /// PSO also keeps write serialization: the compute copy is never
    /// writable while the memory side holds Write.
    #[test]
    fn pso_keeps_write_serialization(
        trace in prop::collection::vec(access_strategy(PAGES), 1..100)
    ) {
        let (mut dos, a, mut s) = fresh_session(CoherenceMode::Pso);
        for acc in &trace {
            let addr = a.offset(acc.page * PAGE_SIZE as u64 + 16);
            if acc.mem_side {
                s.mem_access(&mut dos, addr, 8, acc.write, Pattern::Rand);
            } else {
                s.compute_access(&mut dos, addr, 8, acc.write, Pattern::Rand);
            }
            for p in 0..PAGES {
                let pid = a.offset(p * PAGE_SIZE as u64).page();
                let compute_writable =
                    dos.cache_probe(pid).map(|e| e.writable).unwrap_or(false);
                prop_assert!(
                    !(compute_writable && s.mem_perm(pid) == Perm::Write),
                    "PSO write serialization violated on page {p}"
                );
            }
        }
    }

    /// RLE encoding round-trips any strictly sorted resident list, and the
    /// encoded form never loses pages.
    #[test]
    fn rle_roundtrip(raw in prop::collection::btree_map(0u64..100_000, any::<bool>(), 0..300)) {
        let list: Vec<(PageId, bool)> =
            raw.iter().map(|(&p, &w)| (PageId(p), w)).collect();
        let enc = ResidentList::encode(&list);
        prop_assert_eq!(enc.decode(), list.clone());
        prop_assert_eq!(enc.page_count(), list.len());
        prop_assert_eq!(enc.iter_pages().count(), list.len());
        // Runs never overlap or touch: merging is maximal.
        for w in enc.runs().windows(2) {
            prop_assert!(
                w[1].start.0 > w[0].start.0 + w[0].len as u64
                    || w[0].writable != w[1].writable
            );
        }
    }

    /// Under every *coherent* mode, a pushdown function's writes are
    /// visible to the compute side after the call (plus a syncmem for the
    /// disabled mode) — no lost writes, ever.
    #[test]
    fn no_lost_writes_across_modes(
        writes in prop::collection::vec((0u64..PAGES, 1u64..u64::MAX), 1..20),
        mode_idx in 0usize..4,
    ) {
        let mode = [
            CoherenceMode::WriteInvalidate,
            CoherenceMode::Pso,
            CoherenceMode::WeakOrdering,
            CoherenceMode::Disabled,
        ][mode_idx];
        let mut rt = Runtime::teleport(DdcConfig {
            compute_cache_bytes: 8 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            ..Default::default()
        });
        let region: Region<u64> = rt.alloc_region::<u64>(PAGES as usize * PAGE_SIZE / 8);
        // Compute side warms the pages (dirty).
        for p in 0..PAGES {
            rt.set(&region, p as usize * PAGE_SIZE / 8, p, Pattern::Rand);
        }
        rt.begin_timing();
        let writes2 = writes.clone();
        rt.pushdown(PushdownOpts::new().coherence(mode), move |m| {
            for &(page, val) in &writes2 {
                m.set(&region, page as usize * PAGE_SIZE / 8, val, Pattern::Rand);
            }
        }).unwrap();
        if mode == CoherenceMode::Disabled {
            rt.syncmem();
        }
        // Last write per page wins.
        let mut expected = std::collections::BTreeMap::new();
        for &(page, val) in &writes {
            expected.insert(page, val);
        }
        for (&page, &val) in &expected {
            prop_assert_eq!(
                rt.get(&region, page as usize * PAGE_SIZE / 8, Pattern::Rand),
                val,
                "lost write on page {} under {:?}", page, mode
            );
        }
    }

    /// Pushdown never changes a pure computation's result, regardless of
    /// options.
    #[test]
    fn pushdown_transparency(
        vals in prop::collection::vec(any::<u64>(), 1..500),
        eager in any::<bool>(),
    ) {
        let mut rt = Runtime::teleport(DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 << 20,
            ..Default::default()
        });
        let region = rt.alloc_region::<u64>(vals.len());
        rt.write_range(&region, 0, &vals);
        rt.begin_timing();
        let expected: u64 = vals.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        let opts = if eager {
            PushdownOpts::new().sync(teleport::SyncStrategy::Eager)
        } else {
            PushdownOpts::new()
        };
        let n = vals.len();
        let got = rt.pushdown(opts, move |m| {
            let mut buf = Vec::new();
            m.read_range(&region, 0, n, &mut buf);
            buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
        }).unwrap();
        prop_assert_eq!(got, expected);
    }
}

// ----------------------------------------------------------------------
// The coherence session against a reference model
// ----------------------------------------------------------------------

/// The temporary context as one `BTreeMap` entry per restricted page, built
/// by inserting every shipped entry in turn — what `PushdownSession` was
/// before it kept the shipped list and looked pages up in it. It drives a
/// `Dos` of its own through the same public calls, so a twin world run in
/// lockstep must stay identical down to the clock and the trace digest.
struct RefSession {
    mode: CoherenceMode,
    tiebreak: TieBreak,
    backoff_t: SimDuration,
    allowed: BTreeMap<PageId, Perm>,
    held: BTreeMap<PageId, Perm>,
    stale: BTreeSet<PageId>,
    mem_owes_backoff: bool,
    online_sync: SimDuration,
    stats: CoherenceStats,
}

impl RefSession {
    fn new(
        mode: CoherenceMode,
        resident: &[(PageId, bool)],
        backoff_t: SimDuration,
        tiebreak: TieBreak,
    ) -> Self {
        let allowed = resident
            .iter()
            .map(|&(pid, writable)| (pid, if writable { Perm::None } else { Perm::Read }))
            .collect();
        RefSession {
            mode,
            tiebreak,
            backoff_t,
            allowed,
            held: BTreeMap::new(),
            stale: BTreeSet::new(),
            mem_owes_backoff: false,
            online_sync: SimDuration::ZERO,
            stats: CoherenceStats::default(),
        }
    }

    fn allowed(&self, pid: PageId) -> Perm {
        self.allowed.get(&pid).copied().unwrap_or(Perm::Write)
    }

    fn held(&self, pid: PageId) -> Perm {
        self.held.get(&pid).copied().unwrap_or(Perm::None)
    }

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

    fn snapshot(&mut self, dos: &Dos, pid: PageId) {
        if dos.cache_probe(pid).is_some() {
            self.stale.insert(pid);
        }
    }

    fn mem_access(&mut self, dos: &mut Dos, addr: VAddr, len: usize, write: bool) {
        for pid in pages_spanned(addr, len) {
            let t0 = dos.clock().now();
            self.mem_acquire(dos, pid, write);
            self.online_sync += dos.clock().now().since(t0);
        }
        dos.mem_touch_range(addr, len, write, Pattern::Rand);
        if write {
            self.stats.pages_written_memside += pages_spanned(addr, len).count() as u64;
        }
    }

    fn mem_acquire(&mut self, dos: &mut Dos, pid: PageId, write: bool) {
        use CoherenceMode::{Pso, WriteInvalidate};
        let need = if write { Perm::Write } else { Perm::Read };
        if write && self.mem_owes_backoff && self.held(pid) < need {
            self.round_trip(dos, pid, CoherenceTransition::TieBreakReissue, Lane::Memory);
            dos.charge(self.backoff_t);
            self.stats.backoffs += 1;
            self.mem_owes_backoff = false;
        }
        if self.held(pid) >= need {
            if write && !self.mode.signals_on_write() {
                self.snapshot(dos, pid);
            }
            return;
        }
        if self.allowed(pid) < need {
            if let Some(entry) = dos.cache_probe(pid) {
                match (write, self.mode) {
                    (true, WriteInvalidate) => {
                        self.round_trip(
                            dos,
                            pid,
                            CoherenceTransition::InvalidateCompute,
                            Lane::Memory,
                        );
                        dos.coherence_evict(pid);
                    }
                    (true, Pso) => {
                        self.round_trip(
                            dos,
                            pid,
                            CoherenceTransition::DowngradeCompute,
                            Lane::Memory,
                        );
                        dos.coherence_downgrade(pid);
                    }
                    (true, _) => self.snapshot(dos, pid),
                    (false, mode) if entry.writable && mode.signals_on_read() => {
                        self.round_trip(
                            dos,
                            pid,
                            CoherenceTransition::DowngradeCompute,
                            Lane::Memory,
                        );
                        dos.coherence_downgrade(pid);
                    }
                    (false, _) => {}
                }
            }
        }
        if write {
            self.allowed.remove(&pid);
            self.held.insert(pid, Perm::Write);
        } else {
            if self.allowed(pid) < Perm::Read {
                self.allowed.insert(pid, Perm::Read);
            }
            self.held.insert(pid, Perm::Read);
        }
    }

    fn compute_access(&mut self, dos: &mut Dos, addr: VAddr, len: usize, write: bool) {
        for pid in pages_spanned(addr, len) {
            self.compute_acquire(dos, pid, write);
        }
        dos.touch_range(addr, len, write, Pattern::Rand);
    }

    fn compute_acquire(&mut self, dos: &mut Dos, pid: PageId, write: bool) {
        let need = if write { Perm::Write } else { Perm::Read };
        let mem_held = self.held(pid);
        let compute_has = match dos.cache_probe(pid) {
            Some(e) if e.writable => Perm::Write,
            Some(_) => Perm::Read,
            None => Perm::None,
        };
        let signals = if write {
            self.mode.signals_on_write()
        } else {
            self.mode.signals_on_read()
        };
        if compute_has >= need || !signals {
            return;
        }
        if mem_held == Perm::Write && write {
            match self.tiebreak {
                TieBreak::FavorMemory => {
                    self.round_trip(
                        dos,
                        pid,
                        CoherenceTransition::TieBreakBackoff,
                        Lane::Compute,
                    );
                    dos.charge(self.backoff_t);
                    self.stats.backoffs += 1;
                }
                TieBreak::FavorCompute => self.mem_owes_backoff = true,
            }
        }
        if mem_held != Perm::None {
            if write {
                self.held.remove(&pid);
                self.allowed.insert(pid, Perm::None);
            } else {
                self.held.insert(pid, Perm::Read);
                self.allowed.insert(pid, Perm::Read);
            }
            if compute_has != Perm::None {
                let transition = if write {
                    CoherenceTransition::InvalidateMem
                } else {
                    CoherenceTransition::DowngradeMem
                };
                self.round_trip(dos, pid, transition, Lane::Compute);
            }
        } else if write {
            if compute_has != Perm::None {
                self.round_trip(
                    dos,
                    pid,
                    CoherenceTransition::UpgradeExclusive,
                    Lane::Compute,
                );
            }
            self.allowed.insert(pid, Perm::None);
        } else if self.allowed(pid) > Perm::Read {
            self.allowed.insert(pid, Perm::Read);
        }
    }

    fn finish(mut self, dos: &mut Dos) -> (CoherenceStats, SimDuration, Vec<PageId>) {
        if self.mode.syncs_at_completion() && !self.stale.is_empty() {
            let pages = std::mem::take(&mut self.stale);
            let first = *pages.iter().next().expect("checked non-empty");
            self.round_trip(
                dos,
                first,
                CoherenceTransition::CompletionSync,
                Lane::Compute,
            );
            for pid in pages {
                dos.coherence_evict(pid);
            }
        }
        (
            self.stats,
            self.online_sync,
            self.stale.into_iter().collect(),
        )
    }
}

/// Pages in the reference-model world: twice the cache, so every warm-up
/// leaves some pages out of the shipped list and compute-side accesses keep
/// faulting pages in (and others out) while the session runs.
const MODEL_PAGES: u64 = 8;

/// A traced four-page-cache world warmed by `warm` (page, write) touches.
fn model_world(warm: &[(u64, bool)]) -> (Dos, VAddr) {
    let mut dos = Dos::new_disaggregated(DdcConfig {
        compute_cache_bytes: 4 * PAGE_SIZE,
        memory_pool_bytes: 64 * PAGE_SIZE,
        ..Default::default()
    });
    let a = dos.alloc(MODEL_PAGES as usize * PAGE_SIZE);
    for &(page, write) in warm {
        dos.touch_range(a.offset(page * PAGE_SIZE as u64), 8, write, Pattern::Rand);
    }
    dos.begin_timing();
    dos.tracer().enable();
    (dos, a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under every coherence mode and both tie-breaks, the session and the
    /// map-based reference agree after every step of any interleaved
    /// schedule: on what the temporary context holds and may take for every
    /// page (shipped or not, cached or not), on the statistics and the
    /// online-sync time, and — each driving its own world — on the clock
    /// and the trace digest.
    #[test]
    fn session_matches_the_map_reference(
        warm in prop::collection::vec((0..MODEL_PAGES, any::<bool>()), 0..12),
        steps in prop::collection::vec((access_strategy(MODEL_PAGES), 0u8..4), 1..80),
    ) {
        let modes = [
            CoherenceMode::WriteInvalidate,
            CoherenceMode::Pso,
            CoherenceMode::WeakOrdering,
            CoherenceMode::Disabled,
        ];
        for mode in modes {
            for tiebreak in [TieBreak::FavorMemory, TieBreak::FavorCompute] {
                let backoff = SimDuration::from_micros(10);
                let (mut dos, a) = model_world(&warm);
                let (mut ref_dos, _) = model_world(&warm);
                let resident = dos.resident_list();
                let mut s = PushdownSession::with_tiebreak(mode, &resident, backoff, tiebreak);
                let mut r = RefSession::new(mode, &resident, backoff, tiebreak);
                for (i, (acc, roll)) in steps.iter().enumerate() {
                    // One access in four reaches over into the next page.
                    let straddle = *roll == 0 && acc.page + 1 < MODEL_PAGES;
                    let offset = if straddle { PAGE_SIZE as u64 - 4 } else { 16 };
                    let addr = a.offset(acc.page * PAGE_SIZE as u64 + offset);
                    if acc.mem_side {
                        s.mem_access(&mut dos, addr, 8, acc.write, Pattern::Rand);
                        r.mem_access(&mut ref_dos, addr, 8, acc.write);
                    } else {
                        s.compute_access(&mut dos, addr, 8, acc.write, Pattern::Rand);
                        r.compute_access(&mut ref_dos, addr, 8, acc.write);
                    }
                    let at = format!("{mode:?}/{tiebreak:?} step {i} {acc:?} straddle {straddle}");
                    // One page past the allocation on each side rides along.
                    for pid in (a.page().0.saturating_sub(1)..=a.page().0 + MODEL_PAGES).map(PageId) {
                        prop_assert_eq!(s.mem_perm(pid), r.held(pid), "held {:?} {}", pid, at);
                        prop_assert_eq!(
                            s.mem_allowed(pid), r.allowed(pid), "allowed {:?} {}", pid, at
                        );
                    }
                    prop_assert_eq!(s.stats, r.stats, "stats {}", at);
                    prop_assert_eq!(s.online_sync, r.online_sync, "online_sync {}", at);
                    prop_assert_eq!(dos.clock().now(), ref_dos.clock().now(), "clock {}", at);
                    prop_assert_eq!(
                        dos.tracer().digest(), ref_dos.tracer().digest(), "digest {}", at
                    );
                }
                let (stats, sync, stale) = s.finish(&mut dos);
                let (ref_stats, ref_sync, ref_stale) = r.finish(&mut ref_dos);
                prop_assert_eq!(stats, ref_stats);
                prop_assert_eq!(sync, ref_sync);
                prop_assert_eq!(stale.into_keys().collect::<Vec<_>>(), ref_stale);
                prop_assert_eq!(dos.tracer().digest(), ref_dos.tracer().digest());
                prop_assert_eq!(dos.tracer().len(), ref_dos.tracer().len());
            }
        }
    }
}

// ----------------------------------------------------------------------
// The billed run count against the RLE codec
// ----------------------------------------------------------------------

/// Pages in the run-count world: twice its cache, so compute-side accesses
/// keep evicting and the list's runs keep splitting and merging.
const RUN_PAGES: usize = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A pushdown bills the resident list by the run count the compute cache
    /// keeps beside its address-ordered view, never encoding it. After any
    /// mix of compute-side reads and writes, pool-side reads and writes
    /// under every coherence mode, and cache drops, that count is the one
    /// the RLE codec gives for the same list, the list is the cache's pages
    /// in address order, and the request that crossed the fabric was exactly
    /// that long.
    #[test]
    fn billed_runs_are_the_rle_size_of_the_shipped_list(
        steps in prop::collection::vec((0u8..8, 0..RUN_PAGES, any::<bool>()), 1..100),
    ) {
        let modes = [
            CoherenceMode::WriteInvalidate,
            CoherenceMode::Pso,
            CoherenceMode::WeakOrdering,
            CoherenceMode::Disabled,
        ];
        for mode in modes {
            let mut rt = Runtime::teleport(DdcConfig {
                compute_cache_bytes: RUN_PAGES / 2 * PAGE_SIZE,
                memory_pool_bytes: 64 * PAGE_SIZE,
                ..Default::default()
            });
            let region: Region<u64> = rt.alloc_region::<u64>(RUN_PAGES * PAGE_SIZE / 8);
            rt.begin_timing();
            for (i, &(kind, page, write)) in steps.iter().enumerate() {
                let at = page * PAGE_SIZE / 8;
                match kind {
                    0..=3 if write => rt.set(&region, at, i as u64, Pattern::Rand),
                    0..=3 => drop(rt.get(&region, at, Pattern::Rand)),
                    4..=6 => {
                        let shipped = ResidentList::try_encode(&rt.dos().resident_list())
                            .expect("the resident list is sorted");
                        let sent_before = rt.dos().fabric().ledger().rpc_request.bytes;
                        rt.pushdown(PushdownOpts::new().coherence(mode), |m| {
                            if write {
                                m.set(&region, at, i as u64, Pattern::Rand);
                            } else {
                                m.get(&region, at, Pattern::Rand);
                            }
                        })
                        .unwrap();
                        prop_assert_eq!(
                            rt.dos().fabric().ledger().rpc_request.bytes - sent_before,
                            (REQUEST_HEADER_BYTES + shipped.encoded_bytes()) as u64,
                            "request bytes, {:?} step {}", mode, i
                        );
                    }
                    _ => rt.drop_cache(),
                }
                let view = rt.dos().resident_view();
                // The table, walked in page order, is what probing every
                // page in turn finds, and as long as the cache.
                let probed: Vec<(PageId, bool)> = pages_spanned(region.addr(), region.byte_len())
                    .filter_map(|pid| Some((pid, rt.dos().cache_probe(pid)?.writable)))
                    .collect();
                let listed = view.to_list();
                prop_assert_eq!(&listed, &probed, "{:?} step {} {:?}", mode, i, steps[i]);
                prop_assert_eq!(view.len, rt.dos().cache_len());
                let encoded = ResidentList::try_encode(&listed)
                    .expect("the resident view walks in page order");
                prop_assert_eq!(
                    view.runs * RUN_WIRE_BYTES,
                    encoded.encoded_bytes(),
                    "{:?} step {} {:?}", mode, i, steps[i]
                );
            }
        }
    }
}
