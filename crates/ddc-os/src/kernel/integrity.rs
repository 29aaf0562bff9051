//! The page-integrity plane (DESIGN.md §8): on-demand page seals, injected
//! corruption as invertible edits, verification at every pool boundary, the
//! repair lattice, and the background scrubber.
//!
//! The paging core calls it through four `#[inline]` verbs —
//! [`Dos::on_read`], [`Dos::on_write`], [`Dos::on_write_back`] and
//! [`Dos::allows_batched_rereads`] — each a no-op while the plane is
//! disarmed, and each tests that first. [`Dos::zero_from`] lives here too:
//! it is one line of zeroing around the resealing. Seals, edits and
//! counters are private to this module.

use std::collections::BTreeMap;

use ddc_sim::{
    Corruption, CorruptionPoint, EventKind, Lane, MetricsRegistry, MsgClass, RepairSource,
    ScrubConfig, SimDuration, SimTime, TraceEvent, PAGE_SIZE,
};

use super::Dos;
use crate::page::{PageChecksum, PageId, PageTable, VAddr};

/// The kernel's page-integrity plane: sealed checksums, pending (injected,
/// not-yet-detected) corruption, repair bookkeeping, and scrub progress.
/// While enabled it covers every mapped page (pages are never unmapped).
///
/// Disabled (and entirely free) unless the fault plan carries corruption
/// specs or a scrub schedule is configured — existing experiments see zero
/// behavioral or digest change.
#[derive(Debug, Default)]
pub(super) struct Integrity {
    enabled: bool,
    /// Seal and state of every page the plane has seen.
    pages: PageTable<PageSeal>,
    /// Injected corruption not yet detected, as invertible XOR edits: one
    /// list per page whose [`PageSeal::pending`] is set, consulted only
    /// then (corruption is rare; the flag keeps this map off clean pages).
    edits: BTreeMap<PageId, Vec<Corruption>>,
    /// Most recent unrecoverable page (for the typed error).
    last_loss: Option<PageId>,
    /// Background scrubber schedule.
    scrub: ScrubConfig,
    /// Everything [`Dos::begin_timing`] zeroes; the fields above describe
    /// residency state and survive it.
    window: IntegrityWindow,
}

/// The integrity plane's per-timed-window state, grouped so that resetting
/// it is one assignment that cannot miss a field (or hit a seal).
#[derive(Debug, Default)]
struct IntegrityWindow {
    repaired_ssd: u64,
    repaired_replica: u64,
    /// Virtual deadline of the next background scrub pass.
    next_scrub: Option<SimTime>,
    scrub_pages: u64,
    scrub_detected: u64,
}

/// What the integrity plane knows about one page.
///
/// Every mapped page is sealed while the plane is enabled, but its `sum` is
/// taken on demand: when injected corruption is about to land on a page
/// whose sum is not `fresh` ([`Dos::poll_corruption`]), over the bytes just
/// before the edit. Only a page with pending corruption is ever compared
/// against its sum, so that is the one instant a sum is needed.
#[derive(Debug, Clone, Copy, Default)]
struct PageSeal {
    /// Checksum over the page's full 4 KB image as it was before its
    /// corruption landed; meaningful only while `fresh`.
    sum: PageChecksum,
    /// `sum` was taken and no legitimate write has landed since. False
    /// until the first corruption hit takes it.
    fresh: bool,
    /// Has undetected injected corruption (its edits are in
    /// [`Integrity::edits`]).
    pending: bool,
    /// Declared unrecoverable; never re-detected, never re-polled.
    lost: bool,
}

impl Integrity {
    /// The plane of a rack scrubbed on `scrub`'s schedule: armed from the
    /// start when there is one.
    pub(super) fn new(scrub: ScrubConfig) -> Self {
        Integrity {
            enabled: scrub.every.is_some(),
            scrub,
            ..Integrity::default()
        }
    }

    /// Forget `pid`'s pending corruption, handing back its edit list.
    fn take_edits(&mut self, pid: PageId) -> Option<Vec<Corruption>> {
        self.pages.get_mut(pid)?.pending = false;
        self.edits.remove(&pid)
    }
}

/// Per-pool integrity activity, reported as `integrity.pool{p}.*` metric
/// instances on multi-pool deployments.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct PoolIntegrity {
    detected: u64,
    repaired: u64,
    data_loss: u64,
}

impl Dos {
    // ------------------------------------------------------------------
    // Verbs the paging core calls: each a no-op while the plane is off
    // ------------------------------------------------------------------

    /// A read of `pid` that reached it across `via`: poll that hop for
    /// corruption and verify the page before the read uses it. A read at
    /// the pool (a compute-cache hit included — the authoritative bytes are
    /// shared across pools) polls nothing: the pool copy was polled when it
    /// landed, so only a latent scribble can surface there.
    #[inline]
    pub(super) fn on_read(&mut self, pid: PageId, via: CorruptionPoint) {
        if self.integrity.enabled {
            if via != CorruptionPoint::Pool {
                self.poll_corruption(via, pid);
            }
            self.check_page(pid, via);
        }
    }

    /// A legitimate write invalidated `pid`'s checksum. O(1) per write; the
    /// sum is retaken only if corruption lands on the page.
    #[inline]
    pub(super) fn on_write(&mut self, pid: PageId) {
        if self.integrity.enabled {
            self.integrity.pages.entry(pid).fresh = false;
        }
    }

    /// A dirty image of `pid` landed in its pool: the landed copy may be
    /// scribbled, latent until the next read or scrub pass. (The write that
    /// dirtied the page already marked its seal stale, so a scribble here
    /// is sealed over the image the write-back carried.)
    #[inline]
    pub(super) fn on_write_back(&mut self, pid: PageId) {
        if self.integrity.enabled {
            self.poll_corruption(CorruptionPoint::Pool, pid);
        }
    }

    /// Whether reads of cached pages may be charged as one batch
    /// (`Dos::repeat_reads`, `Dos::hits_only`): not while the plane checks
    /// the page on every access.
    #[inline]
    pub(super) fn allows_batched_rereads(&self) -> bool {
        !self.integrity_enabled()
    }

    /// Zero the allocation at `start` from byte `from` to the end of its last
    /// page ([`crate::AddressSpace::zero_from`]), uncharged, keeping the
    /// integrity plane where it would be had those bytes read zero all along
    /// — which is what a caller of [`Dos::alloc_for_overwrite`] stands in for. A
    /// page carrying undetected corruption is resealed over its clean image,
    /// its edits undone for the zeroing and redone after, and any other
    /// page's sum is retaken when corruption next lands. (A page declared
    /// lost has no clean image to keep: its stale bytes are zeroed too.)
    pub fn zero_from(&mut self, start: VAddr, from: usize) {
        if !self.integrity.enabled {
            self.space.zero_from(start, from);
            return;
        }
        let pages: Vec<PageId> = self.space.pages_of(start).skip(from / PAGE_SIZE).collect();
        for &pid in &pages {
            self.apply_edits(pid);
        }
        self.space.zero_from(start, from);
        for &pid in &pages {
            let sum = PageChecksum::of(self.space.page_view(pid));
            let page = self.integrity.pages.entry(pid);
            if page.pending {
                page.sum = sum;
            } else {
                page.fresh = false;
            }
            self.apply_edits(pid);
        }
    }

    /// Zero the plane's timed-window counters, rack-wide and per shard. The
    /// seals, pending corruption and lost-page set describe residency state
    /// and stay.
    pub(super) fn begin_integrity_window(&mut self) {
        self.integrity.window = IntegrityWindow::default();
        for shard in &mut self.shards {
            shard.integrity = PoolIntegrity::default();
        }
    }

    // ------------------------------------------------------------------
    // Seal / verify / repair / scrub
    // ------------------------------------------------------------------

    /// True once the integrity plane is active (the fault plan carries
    /// corruption specs, a scrub schedule is configured, or a scrub pass
    /// was requested explicitly).
    fn integrity_enabled(&self) -> bool {
        self.integrity.enabled
    }

    /// Turn the integrity plane on, sealing every page mapped now or later.
    /// Idempotent. A seal is no work at all: the sum is taken when
    /// corruption first lands on the page.
    pub fn enable_integrity(&mut self) {
        self.integrity.enabled = true;
    }

    /// The checksum the integrity plane holds for one page, if it covers
    /// it: the sum of the bytes the page should hold. For a page carrying
    /// undetected corruption that is the sum taken just before the
    /// corruption landed; for any other page it is computed here, over the
    /// bytes the page holds now. (A page declared lost keeps its corrupt
    /// bytes and, until it is written again, the sum from before the loss.)
    pub fn page_checksum(&self, pid: PageId) -> Option<PageChecksum> {
        if !self.integrity_enabled() || !self.space.is_mapped(pid.base()) {
            return None;
        }
        let page = self.integrity.pages.get(pid);
        Some(if !page.fresh && !page.pending {
            PageChecksum::of(self.space.page_view(pid))
        } else {
            page.sum
        })
    }

    /// Unrecoverable-corruption events in the current timed window.
    pub fn data_loss_count(&self) -> u64 {
        self.tracer.count(EventKind::DataLoss)
    }

    /// The page most recently declared unrecoverable, if any.
    pub fn last_data_loss(&self) -> Option<PageId> {
        self.integrity.last_loss
    }

    /// XOR `pid`'s pending edits into its image: corrupts a clean image,
    /// restores a corrupted one.
    fn apply_edits(&mut self, pid: PageId) {
        if let Some(edits) = self.integrity.edits.get(&pid) {
            let view = self.space.page_view_mut(pid);
            for c in edits {
                view[c.offset] ^= c.mask;
            }
        }
    }

    /// Poll the fault plan for corruption of `pid` at `point`; on a hit,
    /// take the page's sum unless it is fresh, then XOR the drawn mask into
    /// the authoritative image and record the edit so a repair can invert
    /// it exactly. A page with pending corruption keeps the sum it has:
    /// every access path verifies before it writes, so its bytes have not
    /// been legitimately written since that sum was taken, and retaking it
    /// would bless the corruption already there. Called only while the
    /// plane is armed.
    fn poll_corruption(&mut self, point: CorruptionPoint, pid: PageId) {
        if self.integrity.pages.get(pid).lost {
            return;
        }
        let Some(inj) = self.injector.clone() else {
            return;
        };
        if let Some(c) = inj.corruption(point, pid.0) {
            let image = self.space.page_view_mut(pid);
            let page = self.integrity.pages.entry(pid);
            if !page.fresh && !page.pending {
                page.sum = PageChecksum::of(image);
                page.fresh = true;
            }
            image[c.offset] ^= c.mask;
            page.pending = true;
            self.integrity.edits.entry(pid).or_default().push(c);
        }
    }

    /// Verify `pid` against its sealed checksum at a pool boundary (`via`
    /// selects the device that reports the mismatch) and repair on failure.
    /// Pages without pending corruption are skipped: all corruption in the
    /// simulation flows through [`Dos::poll_corruption`], so the pending
    /// map is the ground truth the checksum mechanism is validated against
    /// — and skipping clean pages keeps the plane cheap. Called only while
    /// the plane is armed.
    fn check_page(&mut self, pid: PageId, via: CorruptionPoint) {
        let page = self.integrity.pages.get(pid);
        if page.lost || !page.pending {
            return;
        }
        let sum = page.sum;
        let mismatch = {
            let view = self.space.page_view(pid);
            match via {
                CorruptionPoint::Fabric => self.fabric.verify_delivery(pid.0, view, sum.0).is_err(),
                CorruptionPoint::Ssd => self.ssd.verify_read(pid.0, view, sum.0).is_err(),
                CorruptionPoint::Pool => {
                    let bad = !sum.matches(view);
                    if bad {
                        self.tracer
                            .emit(Lane::Memory, TraceEvent::ChecksumMismatch { page: pid.0 });
                    }
                    bad
                }
            }
        };
        if !mismatch {
            // Self-cancelling XOR edits left the image intact.
            self.integrity.take_edits(pid);
            return;
        }
        let p = self.owner_of(pid);
        if let Some(shard) = self.shards.get_mut(p) {
            shard.integrity.detected += 1;
        }
        self.repair_or_lose(pid);
    }

    /// The repair lattice: a clean page re-reads its authoritative storage
    /// copy; a dirty page falls back to the replica's acked journal copy;
    /// with neither, the page is unrecoverable — the loss is surfaced as a
    /// typed error by the runtime, never as a wrong answer.
    fn repair_or_lose(&mut self, pid: PageId) {
        let p = self.owner_of(pid);
        let dirty = self.shards.get(p).is_some_and(|s| s.pool.is_dirty(pid));
        let source = if !dirty {
            self.ssd_page_in();
            Some(RepairSource::Ssd)
        } else if self.replica_has_acked_copy(p, pid) {
            // Re-fetch the acked page image from the backup pool.
            self.wire(
                MsgClass::Replication,
                PAGE_SIZE + crate::replica::PAGE_WRITE_HEADER_BYTES,
            );
            Some(RepairSource::Replica)
        } else {
            None
        };
        match source {
            Some(source) => {
                // Invert every recorded XOR edit: the image is restored
                // bit-exactly and matches its sealed checksum again.
                self.apply_edits(pid);
                self.integrity.take_edits(pid);
                if let Some(shard) = self.shards.get_mut(p) {
                    shard.integrity.repaired += 1;
                }
                match source {
                    RepairSource::Ssd => self.integrity.window.repaired_ssd += 1,
                    RepairSource::Replica => self.integrity.window.repaired_replica += 1,
                }
                self.tracer.emit(
                    Lane::Memory,
                    TraceEvent::PageRepaired {
                        page: pid.0,
                        source,
                    },
                );
            }
            None => {
                // The bytes stay corrupt (there is nothing to restore them
                // from); the lost set stops re-detection so the loss is
                // counted exactly once.
                if let Some(shard) = self.shards.get_mut(p) {
                    shard.integrity.data_loss += 1;
                }
                self.integrity.take_edits(pid);
                self.integrity.pages.entry(pid).lost = true;
                self.integrity.last_loss = Some(pid);
                self.tracer
                    .emit(Lane::Memory, TraceEvent::DataLoss { page: pid.0 });
            }
        }
    }

    /// One scrub pass over every mapped page, paced to the configured
    /// bytes-per-second budget. Pool- or cache-resident pages are verified
    /// with a streaming DRAM read; storage-resident pages pay a device read
    /// — which is also where latent sector rot is discovered before any
    /// foreground reader touches it. Returns `(pages_scanned, detected)`.
    pub fn scrub_pass(&mut self) -> (u64, u64) {
        self.enable_integrity();
        let pages = self.space.mapped_pages();
        let before = self.tracer.count(EventKind::ChecksumMismatch);
        if self.is_disaggregated() {
            // The compute side kicks the pass off with one control message.
            self.wire(MsgClass::Control, 16);
        }
        let budget = self.integrity.scrub.bytes_per_sec.max(1) as u128;
        let floor_ns = (PAGE_SIZE as u128 * 1_000_000_000 / budget) as u64;
        for pid in pages.iter().copied() {
            let start = self.clock.now();
            let on_storage = if self.shards.is_empty() {
                self.swapped.get(pid) && self.cache.probe(pid).is_none()
            } else {
                let pool = &self.shards[self.owner_of(pid)].pool;
                pool.is_mapped(pid) && !pool.is_resident(pid)
            };
            let via = if on_storage {
                self.ssd_page_in();
                CorruptionPoint::Ssd
            } else {
                self.charge(self.dram.sequential_page);
                CorruptionPoint::Pool
            };
            self.on_read(pid, via);
            // Pace the walk so the scrubber never exceeds its budget.
            let spent = self.clock.now().since(start).as_nanos();
            if floor_ns > spent {
                self.charge(SimDuration::from_nanos(floor_ns - spent));
            }
        }
        let scanned = pages.len() as u64;
        let detected = self.tracer.count(EventKind::ChecksumMismatch) - before;
        self.integrity.window.scrub_pages += scanned;
        self.integrity.window.scrub_detected += detected;
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::ScrubPass {
                pages: scanned,
                detected,
            },
        );
        (scanned, detected)
    }

    /// Run a scrub pass if the configured schedule says one is due (no-op
    /// without a schedule). Reschedules from the pass's completion time.
    /// Returns true if a pass ran.
    pub fn scrub_if_due(&mut self) -> bool {
        let Some(every) = self.integrity.scrub.every else {
            return false;
        };
        let next = self
            .integrity
            .window
            .next_scrub
            .unwrap_or(SimTime(every.as_nanos()));
        if self.clock.now() < next {
            self.integrity.window.next_scrub = Some(next);
            return false;
        }
        self.scrub_pass();
        self.integrity.window.next_scrub =
            Some(SimTime(self.clock.now().as_nanos() + every.as_nanos()));
        true
    }

    /// The plane's rows of [`Dos::metrics`] (`integrity.*`, `scrub.*`, and
    /// `integrity.pool{p}.*` on a multi-pool rack), absent while it is off.
    pub(super) fn integrity_metrics(&self, m: &mut MetricsRegistry) {
        if !self.integrity_enabled() {
            return;
        }
        let (i, t) = (&self.integrity.window, &self.tracer);
        m.set("integrity.detected", t.count(EventKind::ChecksumMismatch));
        m.set("integrity.repaired", t.count(EventKind::PageRepaired));
        m.set("integrity.repaired_from_ssd", i.repaired_ssd);
        m.set("integrity.repaired_from_replica", i.repaired_replica);
        m.set("integrity.data_loss", self.data_loss_count());
        let sealed = self.space.allocated_pages() as u64;
        m.set("integrity.pages_sealed", sealed);
        m.set("scrub.passes", t.count(EventKind::ScrubPass));
        m.set("scrub.pages_scanned", i.scrub_pages);
        m.set("scrub.detected", i.scrub_detected);
        if self.shards.len() > 1 {
            for (p, pi) in self.shards.iter().map(|s| &s.integrity).enumerate() {
                m.set(format!("integrity.pool{p}.detected"), pi.detected);
                m.set(format!("integrity.pool{p}.repaired"), pi.repaired);
                m.set(format!("integrity.pool{p}.data_loss"), pi.data_loss);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::{injector_for, tiny_ddc};
    use crate::kernel::Pattern;
    use ddc_sim::{DdcConfig, ReplicationMode};
    use proptest::prelude::*;

    #[test]
    fn clean_page_corruption_repairs_from_storage() {
        let mut dos = tiny_ddc(4, 64);
        let a = dos.alloc(PAGE_SIZE);
        let plan =
            ddc_sim::FaultPlan::new(7).fabric_bit_flips(SimTime::ZERO, ddc_sim::FOREVER, 1.0);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        dos.begin_timing();
        // Never-written page: the fault-in delivery is corrupted in flight,
        // detected on arrival, and repaired from the storage copy.
        assert_eq!(dos.read_u64(a, Pattern::Rand), 0, "repair restored zeros");
        let m = dos.metrics();
        assert_eq!(m.get("integrity.detected"), Some(1));
        assert_eq!(m.get("integrity.repaired_from_ssd"), Some(1));
        assert_eq!(m.get("integrity.data_loss"), Some(0));
        assert_eq!(dos.data_loss_count(), 0);
    }

    #[test]
    fn dirty_page_corruption_without_replica_is_data_loss() {
        let mut dos = tiny_ddc(4, 64);
        let a = dos.alloc(PAGE_SIZE);
        let plan =
            ddc_sim::FaultPlan::new(7).fabric_bit_flips(SimTime::ZERO, ddc_sim::FOREVER, 1.0);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        dos.write_u64(a, 7, Pattern::Rand);
        dos.drop_cache(); // dirty write-back: the pool copy is now the only one
        dos.begin_timing();
        let _ = dos.read_u64(a, Pattern::Rand); // corrupted on re-delivery
        let m = dos.metrics();
        assert_eq!(m.get("integrity.detected"), Some(1));
        assert_eq!(m.get("integrity.repaired"), Some(0));
        assert_eq!(m.get("integrity.data_loss"), Some(1));
        assert_eq!(dos.last_data_loss(), Some(a.page()));
        // Exactly-once: re-reading the lost page does not re-detect.
        dos.drop_cache();
        let _ = dos.read_u64(a, Pattern::Rand);
        assert_eq!(dos.metrics().get("integrity.detected"), Some(1));
    }

    #[test]
    fn dirty_page_corruption_with_replica_repairs_from_journal() {
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            replication: ReplicationMode::Synchronous,
            ..Default::default()
        };
        let mut dos = Dos::new_disaggregated(cfg);
        let a = dos.alloc(PAGE_SIZE);
        let plan =
            ddc_sim::FaultPlan::new(7).fabric_bit_flips(SimTime::ZERO, ddc_sim::FOREVER, 1.0);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        dos.write_u64(a, 7, Pattern::Rand);
        dos.drop_cache(); // write-back journals an acked copy to the backup
        dos.begin_timing();
        assert_eq!(dos.read_u64(a, Pattern::Rand), 7, "repaired transparently");
        let m = dos.metrics();
        assert_eq!(m.get("integrity.detected"), Some(1));
        assert_eq!(m.get("integrity.repaired_from_replica"), Some(1));
        assert_eq!(m.get("integrity.data_loss"), Some(0));
    }

    #[test]
    fn pool_scribble_is_latent_until_the_next_access() {
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            replication: ReplicationMode::Synchronous,
            ..Default::default()
        };
        let mut dos = Dos::new_disaggregated(cfg);
        let a = dos.alloc(PAGE_SIZE);
        let plan = ddc_sim::FaultPlan::new(11).pool_scribbles(SimTime::ZERO, ddc_sim::FOREVER, 1.0);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        dos.write_u64(a, 42, Pattern::Rand);
        dos.drop_cache(); // the landed pool copy is scribbled, silently
        assert_eq!(dos.metrics().get("integrity.detected"), Some(0));
        dos.begin_timing();
        assert_eq!(dos.read_u64(a, Pattern::Rand), 42, "detected and repaired");
        let m = dos.metrics();
        assert_eq!(m.get("integrity.detected"), Some(1));
        assert_eq!(m.get("integrity.repaired_from_replica"), Some(1));
    }

    #[test]
    fn scrub_finds_latent_storage_rot_before_any_reader() {
        let mut dos = tiny_ddc(1, 2);
        let a = dos.alloc(4 * PAGE_SIZE); // 4 pages in a 2-page pool: spills
        for i in 0..4u64 {
            dos.write_u64(a.offset(i * PAGE_SIZE as u64), i + 1, Pattern::Rand);
        }
        dos.drop_cache();
        let plan =
            ddc_sim::FaultPlan::new(3).ssd_latent_sectors(SimTime::ZERO, ddc_sim::FOREVER, 1.0);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        dos.begin_timing();
        let t0 = dos.clock().now();
        let (scanned, detected) = dos.scrub_pass();
        assert_eq!(scanned, 4);
        assert!(detected > 0, "storage-resident pages were rotten");
        assert!(dos.clock().now() > t0, "scrubbing charges virtual time");
        let m = dos.metrics();
        assert_eq!(m.get("scrub.passes"), Some(1));
        assert_eq!(m.get("scrub.pages_scanned"), Some(4));
        assert_eq!(
            m.get("integrity.detected").unwrap(),
            m.get("integrity.repaired").unwrap() + m.get("integrity.data_loss").unwrap()
        );
        // Every value survives: rot was repaired from the device copy.
        for i in 0..4u64 {
            assert_eq!(
                dos.read_u64(a.offset(i * PAGE_SIZE as u64), Pattern::Rand),
                i + 1
            );
        }
        // A new timed window zeroes every integrity / scrub row but the
        // seal count, and the seals taken before it still verify.
        assert!(m.get("scrub.detected") > Some(0) && m.get("integrity.repaired") > Some(0));
        dos.begin_timing();
        let m = dos.metrics();
        let rows = || {
            m.iter()
                .filter(|(n, _)| n.starts_with("integrity.") || n.starts_with("scrub."))
        };
        assert_eq!(rows().count(), 9);
        for (name, v) in rows() {
            let want = if name == "integrity.pages_sealed" {
                4
            } else {
                0
            };
            assert_eq!(v, want, "{name} after begin_timing");
        }
        for pid in dos.space.mapped_pages() {
            let seal = dos.page_checksum(pid).expect("sealed before the reset");
            assert!(seal.matches(dos.space.page_view(pid)), "{pid:?}");
        }
    }

    #[test]
    fn scheduled_scrub_fires_on_the_virtual_clock() {
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            scrub: ScrubConfig {
                every: Some(SimDuration::from_micros(100)),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut dos = Dos::new_disaggregated(cfg);
        assert!(dos.integrity_enabled(), "scrub schedule enables the plane");
        let _a = dos.alloc(2 * PAGE_SIZE);
        dos.begin_timing();
        assert!(!dos.scrub_if_due(), "not due at t=0");
        dos.charge(SimDuration::from_micros(150));
        assert!(dos.scrub_if_due(), "due after the interval elapsed");
        assert!(!dos.scrub_if_due(), "rescheduled from completion");
        assert_eq!(dos.metrics().get("scrub.passes"), Some(1));
    }

    #[test]
    fn integrity_plane_is_absent_unless_enabled() {
        let mut dos = tiny_ddc(4, 64);
        let a = dos.alloc(PAGE_SIZE);
        dos.begin_timing();
        dos.write_u64(a, 9, Pattern::Rand);
        assert!(!dos.integrity_enabled());
        assert_eq!(dos.metrics().get("integrity.detected"), None);
        assert_eq!(dos.page_checksum(a.page()), None);
    }

    /// What eager sealing would hold, checked against the lazy seals: a
    /// page with pending corruption holds the sum of its image with every
    /// recorded edit undone (the bytes just before the first edit landed),
    /// and every other covered page not declared lost answers
    /// `page_checksum` with the sum of the bytes it holds.
    fn assert_seals_are_the_eager_ones(dos: &Dos) {
        for pid in dos.space.mapped_pages() {
            let page = dos.integrity.pages.get(pid);
            let image = dos.space.page_view(pid);
            assert!(dos.integrity.enabled, "{pid} is mapped but not covered");
            if page.pending {
                let mut before = image.to_vec();
                for c in &dos.integrity.edits[&pid] {
                    before[c.offset] ^= c.mask;
                }
                assert_eq!(
                    page.sum,
                    PageChecksum::of(&before),
                    "{pid} is pending over a sum of some other image"
                );
            } else if !page.lost {
                assert_eq!(
                    dos.page_checksum(pid),
                    Some(PageChecksum::of(image)),
                    "{pid} answers for bytes it does not hold"
                );
            }
        }
    }

    const SCRIPT_PAGES: u64 = 16;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random scripts of compute-side and memory-side reads and writes,
        /// cache drops and scrub passes over sixteen pages, four of which
        /// fit the compute cache and eight the pool, under scribbles, bit
        /// flips and latent sectors at `p` ≥ 0.5, with and without a
        /// replica: the seals are the eager ones after every step. The
        /// script ends by landing a latent scribble, so the pending half of
        /// the check is never vacuous.
        #[test]
        fn lazy_seals_equal_the_eager_ones_after_every_step(
            seed in any::<u64>(),
            replicated in any::<bool>(),
            p_pct in 50u32..=100,
            script in prop::collection::vec(
                (0u8..8, 0..SCRIPT_PAGES, any::<u64>()),
                1..120,
            ),
        ) {
            let mut dos = Dos::new_disaggregated(DdcConfig {
                compute_cache_bytes: 4 * PAGE_SIZE,
                memory_pool_bytes: 8 * PAGE_SIZE,
                replication: if replicated {
                    ReplicationMode::Synchronous
                } else {
                    ReplicationMode::Off
                },
                ..Default::default()
            });
            let a = dos.alloc(SCRIPT_PAGES as usize * PAGE_SIZE);
            let at = |pg: u64, v: u64| a.offset(pg * PAGE_SIZE as u64 + v % 512 * 8);
            for pg in 0..SCRIPT_PAGES {
                dos.write_u64(at(pg, pg), pg + 1, Pattern::Rand);
            }
            let p = f64::from(p_pct) / 100.0;
            let plan = ddc_sim::FaultPlan::new(seed)
                .pool_scribbles(SimTime::ZERO, ddc_sim::FOREVER, p)
                .fabric_bit_flips(SimTime::ZERO, ddc_sim::FOREVER, p)
                .ssd_latent_sectors(SimTime::ZERO, ddc_sim::FOREVER, p);
            let inj = injector_for(&dos, plan);
            dos.install_faults(&inj);
            assert_seals_are_the_eager_ones(&dos);
            for (op, pg, v) in script {
                let addr = at(pg, v);
                match op {
                    0 | 1 => {
                        dos.read_u64(addr, Pattern::Rand);
                    }
                    2 | 3 => dos.write_u64(addr, v, Pattern::Rand),
                    4 | 5 => {
                        // Pushed-down access: the compute copy goes first,
                        // as the coherence protocol would send it.
                        let write = op == 5;
                        dos.coherence_evict(addr.page());
                        dos.mem_touch_range(addr, 8, write, Pattern::Rand);
                        if write {
                            dos.space.write_u64(addr, v);
                        }
                    }
                    6 => dos.drop_cache(),
                    _ => {
                        dos.scrub_pass();
                    }
                }
                assert_seals_are_the_eager_ones(&dos);
            }
            for pg in (0..SCRIPT_PAGES).cycle().take(256) {
                if !dos.integrity.edits.is_empty() {
                    break;
                }
                let addr = at(pg, 0);
                if dos.integrity.pages.get(addr.page()).lost {
                    continue;
                }
                dos.write_u64(addr, pg, Pattern::Rand);
                dos.syncmem(); // the write-back is exposed to a scribble
                assert_seals_are_the_eager_ones(&dos);
            }
            prop_assert!(!dos.integrity.edits.is_empty(), "no scribble landed");
        }
    }
}
