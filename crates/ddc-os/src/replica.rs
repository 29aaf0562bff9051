//! Memory-pool replication: a backup pool fed by an epoch-stamped journal.
//!
//! A [`ReplicatedPool`] pairs the primary memory pool with a backup pool of
//! the same capacity. Every page-table mutation (a fresh allocation) and
//! every dirty-page write-back on the primary appends a [`ReplOp`] to a
//! journal; journal batches ship to the backup over the fabric as
//! [`MsgClass::Replication`] traffic — so replication is *costed*, never
//! free — and the backup acknowledges each shipment, truncating the
//! journal.
//!
//! Crash consistency is the invariant the journal buys: at any instant the
//! backup's image equals the primary's image *as of the last acknowledged
//! journal entry*. On promotion ([`ReplicatedPool::promote`]) every page
//! named by a still-pending entry is treated as lost — its backup copy (if
//! any) is never silently trusted; the failover path re-fetches it from the
//! storage pool, which holds the authoritative swap copy.
//!
//! [`ddc_sim::ReplicationMode`] selects the shipping discipline:
//! `Synchronous` flushes after every append (nothing is ever lost, one
//! round trip per mutation), `LogShipped { batch_pages }` accumulates until
//! that many page images are pending (cheaper on the wire, a bounded lost
//! window).

use ddc_sim::{
    Clock, Fabric, Lane, MsgClass, ReplicationMode, SimDuration, Ssd, TraceEvent, Tracer, PAGE_SIZE,
};

use crate::page::PageId;
use crate::pool::{MemoryPool, PoolFault};

/// Wire size of one `RegisterRange` journal entry (header + range).
pub const REGISTER_ENTRY_BYTES: usize = 24;
/// Wire header of one `PageWrite` journal entry (the page image follows).
pub const PAGE_WRITE_HEADER_BYTES: usize = 16;
/// Wire size of the backup's acknowledgement message.
pub const REPLICA_ACK_BYTES: usize = 16;
/// Page images per re-silvering catch-up message: bulk copy, not journal
/// replay, so a rejoining standby costs one wire message per chunk.
pub const RESILVER_CHUNK_PAGES: usize = 64;

/// Bill `d` — what a fabric send or a device call just returned — to the
/// kernel's clock. The replica holds no clock of its own; this is the file's
/// one door to virtual time (`clippy.toml` bans `Clock::advance` elsewhere).
#[inline]
#[allow(clippy::disallowed_methods)]
fn charge(clock: &Clock, d: SimDuration) {
    clock.advance(d);
}

/// One journal entry: a primary-pool mutation to be replayed on the backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplOp {
    /// `count` freshly allocated pages starting at `first` were registered.
    RegisterRange { first: PageId, count: u64 },
    /// The primary's copy of the page became newer than the storage copy
    /// (a compute write-back or a memory-side write).
    PageWrite(PageId),
}

impl ReplOp {
    /// The pages this entry names, in address order.
    pub fn pages(self) -> impl Iterator<Item = PageId> {
        let (first, count) = match self {
            ReplOp::RegisterRange { first, count } => (first, count),
            ReplOp::PageWrite(pid) => (pid, 1),
        };
        (0..count).map(move |i| first.offset(i))
    }

    fn wire_bytes(&self) -> usize {
        match self {
            ReplOp::RegisterRange { .. } => REGISTER_ENTRY_BYTES,
            ReplOp::PageWrite(_) => PAGE_WRITE_HEADER_BYTES + PAGE_SIZE,
        }
    }
}

/// Monotonic counters describing replication activity, reset by
/// `begin_timing` so they cover exactly the timed window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationCounters {
    /// Journal entries appended on the primary.
    pub journal_appends: u64,
    /// Shipment messages sent to the backup (each covers ≥ 1 entry).
    pub ship_messages: u64,
    /// Page images shipped inside those messages.
    pub pages_shipped: u64,
    /// Acknowledgements received (== journal truncations).
    pub acks: u64,
    /// Storage reads the backup performed replaying the journal.
    pub backup_storage_reads: u64,
    /// Storage write-backs the backup performed making room.
    pub backup_storage_writes: u64,
}

/// What a completed failover did, surfaced through `Dos::failover_report`
/// and the `failover.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReport {
    /// Epoch of the pool that died.
    pub old_epoch: u64,
    /// Epoch of the promoted pool (old + 1).
    pub new_epoch: u64,
    /// Pages named by un-acked journal entries at the time of death.
    pub lost_pages: u64,
    /// Lost pages re-fetched from storage (== `lost_pages`; the backup's
    /// copy of an un-acked page is never trusted).
    pub refetched_pages: u64,
    /// Compute-cache pages dropped because their epoch predates the
    /// promotion and their latest write-back was lost.
    pub cache_invalidations: u64,
}

/// The primary pool's replication companion: backup pool + journal.
#[derive(Debug, Clone)]
pub struct ReplicatedPool {
    mode: ReplicationMode,
    backup: MemoryPool,
    /// Sequence number the next journal entry will get (1-based).
    next_seq: u64,
    /// Highest sequence number the backup has acknowledged.
    acked_seq: u64,
    /// Un-acked journal tail, in append order.
    pending: Vec<(u64, ReplOp)>,
    /// Page images among `pending` (the log-shipped batch trigger).
    pending_page_writes: usize,
    counters: ReplicationCounters,
}

impl ReplicatedPool {
    /// A backup pool of `capacity_pages`, matching the primary.
    pub fn new(capacity_pages: usize, mode: ReplicationMode) -> Self {
        assert!(
            mode != ReplicationMode::Off,
            "a replicated pool needs a shipping mode"
        );
        if let ReplicationMode::LogShipped { batch_pages } = mode {
            assert!(batch_pages > 0, "log shipping needs a positive batch");
        }
        ReplicatedPool {
            mode,
            backup: MemoryPool::new(capacity_pages),
            next_seq: 1,
            acked_seq: 0,
            pending: Vec::new(),
            pending_page_writes: 0,
            counters: ReplicationCounters::default(),
        }
    }

    pub fn mode(&self) -> ReplicationMode {
        self.mode
    }

    pub fn counters(&self) -> ReplicationCounters {
        self.counters
    }

    /// Journal entries not yet acknowledged by the backup.
    pub fn pending_entries(&self) -> usize {
        self.pending.len()
    }

    /// Highest journal sequence number the backup has acknowledged.
    pub fn acked_seq(&self) -> u64 {
        self.acked_seq
    }

    /// Drop the un-acked journal tail. It lived in the primary's memory
    /// and died with it: a restarted primary calls this before
    /// re-silvering the pages the dropped tail named, so the backup's
    /// acked image tracks the rebuilt primary instead of trusting entries
    /// that were never shipped. Returns the number of entries dropped.
    pub fn drop_pending(&mut self) -> usize {
        let n = self.pending.len();
        self.pending.clear();
        self.pending_page_writes = 0;
        n
    }

    /// Zero the activity counters (journal state is untouched). Called by
    /// `begin_timing` so metrics cover exactly the timed window.
    pub fn reset_counters(&mut self) {
        self.counters = ReplicationCounters::default();
    }

    /// Append one mutation to the journal and ship per the mode.
    pub fn record(
        &mut self,
        op: ReplOp,
        fabric: &Fabric,
        ssd: &Ssd,
        clock: &Clock,
        tracer: &Tracer,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.counters.journal_appends += 1;
        if matches!(op, ReplOp::PageWrite(_)) {
            self.pending_page_writes += 1;
        }
        self.pending.push((seq, op));
        let due = match self.mode {
            ReplicationMode::Off => unreachable!("checked at construction"),
            ReplicationMode::Synchronous => true,
            ReplicationMode::LogShipped { batch_pages } => self.pending_page_writes >= batch_pages,
        };
        if due {
            self.flush(fabric, ssd, clock, tracer);
        }
    }

    /// Ship every pending journal entry to the backup, replay it there, and
    /// take the acknowledgement (which truncates the journal). A no-op when
    /// the journal is already fully acknowledged.
    pub fn flush(&mut self, fabric: &Fabric, ssd: &Ssd, clock: &Clock, tracer: &Tracer) {
        if self.pending.is_empty() {
            return;
        }
        let last_seq = self.pending.last().expect("non-empty").0;
        let pages = self.pending_page_writes as u64;
        let bytes: usize = self.pending.iter().map(|(_, op)| op.wire_bytes()).sum();
        tracer.emit(
            Lane::Memory,
            TraceEvent::ReplicaShip {
                seq: last_seq,
                pages,
            },
        );
        charge(clock, fabric.send(MsgClass::Replication, bytes));
        self.counters.ship_messages += 1;
        self.counters.pages_shipped += pages;
        // Replaying needs `&mut self`; lend the buffer out and put it back
        // empty so its allocation is kept for the next batch.
        let mut shipped = std::mem::take(&mut self.pending);
        for &(_, op) in &shipped {
            self.apply(op, ssd, clock);
        }
        shipped.clear();
        self.pending = shipped;
        // The backup's acknowledgement is a small fabric message back; its
        // arrival truncates the journal up to `last_seq`.
        charge(clock, fabric.send(MsgClass::Replication, REPLICA_ACK_BYTES));
        self.counters.acks += 1;
        self.acked_seq = last_seq;
        self.pending_page_writes = 0;
        tracer.emit(Lane::Memory, TraceEvent::ReplicaAck { seq: last_seq });
    }

    /// Bill the storage traffic one backup-pool fault caused (backup spills
    /// and refaults hit the same storage pool as the primary's): the
    /// victim's write-back first, then the read.
    #[inline]
    fn charge_backup_fault(&mut self, fault: PoolFault, ssd: &Ssd, clock: &Clock) {
        if fault.storage_writeback {
            charge(clock, ssd.write_page());
            self.counters.backup_storage_writes += 1;
        }
        if fault.storage_read {
            charge(clock, ssd.read_page());
            self.counters.backup_storage_reads += 1;
        }
    }

    /// Replay one journal entry on the backup pool, charging any storage
    /// traffic it causes.
    fn apply(&mut self, op: ReplOp, ssd: &Ssd, clock: &Clock) {
        match op {
            ReplOp::RegisterRange { .. } => {
                // Already-mapped pages are a replayed range (idempotent).
                for pid in op.pages() {
                    self.register_on_backup(pid, ssd, clock);
                }
            }
            ReplOp::PageWrite(pid) => self.land_on_backup(pid, ssd, clock),
        }
    }

    /// Register `pid` on the backup unless it is already mapped there.
    fn register_on_backup(&mut self, pid: PageId, ssd: &Ssd, clock: &Clock) {
        if !self.backup.is_mapped(pid) {
            let fault = self.backup.register(pid);
            self.charge_backup_fault(fault, ssd, clock);
        }
    }

    /// A page image arrived: make the backup's copy resident and dirty.
    fn land_on_backup(&mut self, pid: PageId, ssd: &Ssd, clock: &Clock) {
        let fault = self.backup.ensure_resident(pid);
        self.charge_backup_fault(fault, ssd, clock);
        self.backup.mark_dirty(pid);
    }

    /// Whether the backup holds an *acknowledged* copy of `page` — one the
    /// crash-consistency invariant lets us trust. A page named by any
    /// still-pending journal entry has no trustworthy backup copy: the
    /// backup may hold an older image than the primary's.
    pub fn has_acked_copy(&self, page: PageId) -> bool {
        if !self.backup.is_mapped(page) {
            return false;
        }
        !self
            .pending
            .iter()
            .any(|&(_, op)| op.pages().any(|named| named == page))
    }

    /// Re-silver the backup from the primary's live image: bulk catch-up
    /// for a crashed pool rejoining as a standby. Each page in `pages`
    /// (the primary's owned set, sorted by the caller for determinism) is
    /// registered and made resident on the backup; images ship in
    /// [`RESILVER_CHUNK_PAGES`]-page chunks as costed
    /// [`MsgClass::Replication`] traffic — one wire message per chunk plus
    /// one acknowledgement, rather than one round trip per journal op.
    /// Returns the number of pages shipped.
    pub fn resilver_from(&mut self, pages: &[PageId], fabric: &Fabric, ssd: &Ssd, clock: &Clock) {
        for chunk in pages.chunks(RESILVER_CHUNK_PAGES) {
            let bytes = chunk.len() * (PAGE_WRITE_HEADER_BYTES + PAGE_SIZE);
            charge(clock, fabric.send(MsgClass::Replication, bytes));
            self.counters.ship_messages += 1;
            for &pid in chunk {
                self.register_on_backup(pid, ssd, clock);
                self.land_on_backup(pid, ssd, clock);
                self.counters.pages_shipped += 1;
            }
            charge(clock, fabric.send(MsgClass::Replication, REPLICA_ACK_BYTES));
            self.counters.acks += 1;
        }
    }

    /// Consume the replica and hand over the backup pool for promotion.
    /// Returns `(backup, lost, counters)`: `lost` is the sorted, deduped
    /// set of pages named by un-acked journal entries — the failover path
    /// must re-fetch each from storage rather than trust the backup's
    /// stale copy.
    pub fn promote(self) -> (MemoryPool, Vec<PageId>, ReplicationCounters) {
        let mut lost: Vec<PageId> = self
            .pending
            .iter()
            .flat_map(|&(_, op)| op.pages())
            .collect();
        lost.sort_unstable();
        lost.dedup();
        (self.backup, lost, self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_sim::{NetConfig, SsdConfig};

    fn rig() -> (Clock, Tracer, Fabric, Ssd) {
        let clock = Clock::new();
        let tracer = Tracer::new(clock.clone());
        tracer.enable();
        let fabric = Fabric::with_tracer(NetConfig::default(), tracer.clone());
        let ssd = Ssd::with_tracer(SsdConfig::default(), tracer.clone());
        (clock, tracer, fabric, ssd)
    }

    #[test]
    fn an_op_names_its_pages_in_address_order() {
        let range = ReplOp::RegisterRange {
            first: PageId(7),
            count: 3,
        };
        assert_eq!(
            range.pages().collect::<Vec<_>>(),
            [PageId(7), PageId(8), PageId(9)]
        );
        assert_eq!(
            ReplOp::PageWrite(PageId(4)).pages().collect::<Vec<_>>(),
            [PageId(4)]
        );
    }

    #[test]
    fn synchronous_mode_ships_every_append_and_loses_nothing() {
        let (clock, tracer, fabric, ssd) = rig();
        let mut rep = ReplicatedPool::new(8, ReplicationMode::Synchronous);
        rep.record(
            ReplOp::RegisterRange {
                first: PageId(0),
                count: 4,
            },
            &fabric,
            &ssd,
            &clock,
            &tracer,
        );
        rep.record(ReplOp::PageWrite(PageId(2)), &fabric, &ssd, &clock, &tracer);
        assert_eq!(rep.pending_entries(), 0, "sync mode never buffers");
        assert_eq!(rep.acked_seq(), 2);
        let c = rep.counters();
        assert_eq!(c.journal_appends, 2);
        assert_eq!(c.ship_messages, 2);
        assert_eq!(c.pages_shipped, 1);
        assert!(fabric.ledger().replication.bytes > PAGE_SIZE as u64);
        let (backup, lost, _) = rep.promote();
        assert!(lost.is_empty(), "everything was acked");
        assert!(backup.is_resident(PageId(2)));
    }

    #[test]
    fn log_shipping_batches_and_the_unacked_tail_is_lost() {
        let (clock, tracer, fabric, ssd) = rig();
        let mut rep = ReplicatedPool::new(8, ReplicationMode::LogShipped { batch_pages: 2 });
        rep.record(
            ReplOp::RegisterRange {
                first: PageId(0),
                count: 4,
            },
            &fabric,
            &ssd,
            &clock,
            &tracer,
        );
        rep.record(ReplOp::PageWrite(PageId(0)), &fabric, &ssd, &clock, &tracer);
        assert_eq!(rep.pending_entries(), 2, "below the batch threshold");
        assert_eq!(fabric.ledger().replication.messages, 0);
        rep.record(ReplOp::PageWrite(PageId(1)), &fabric, &ssd, &clock, &tracer);
        assert_eq!(rep.pending_entries(), 0, "batch threshold hit, shipped");
        assert_eq!(rep.counters().ship_messages, 1);
        rep.record(ReplOp::PageWrite(PageId(3)), &fabric, &ssd, &clock, &tracer);
        let (_, lost, _) = rep.promote();
        assert_eq!(lost, vec![PageId(3)], "only the un-acked tail is lost");
    }

    #[test]
    fn acked_copies_are_trusted_pending_ones_are_not() {
        let (clock, tracer, fabric, ssd) = rig();
        let mut rep = ReplicatedPool::new(8, ReplicationMode::LogShipped { batch_pages: 64 });
        rep.record(
            ReplOp::RegisterRange {
                first: PageId(0),
                count: 2,
            },
            &fabric,
            &ssd,
            &clock,
            &tracer,
        );
        assert!(
            !rep.has_acked_copy(PageId(0)),
            "registration still in the un-acked tail"
        );
        rep.flush(&fabric, &ssd, &clock, &tracer);
        assert!(rep.has_acked_copy(PageId(0)));
        rep.record(ReplOp::PageWrite(PageId(1)), &fabric, &ssd, &clock, &tracer);
        assert!(rep.has_acked_copy(PageId(0)), "untouched page stays acked");
        assert!(
            !rep.has_acked_copy(PageId(1)),
            "a pending write poisons the backup copy"
        );
        rep.flush(&fabric, &ssd, &clock, &tracer);
        assert!(rep.has_acked_copy(PageId(1)));
        assert!(!rep.has_acked_copy(PageId(5)), "never-registered page");
    }

    #[test]
    fn resilvering_bulk_copies_in_chunks_and_is_costed() {
        let (clock, _tracer, fabric, ssd) = rig();
        let mut rep = ReplicatedPool::new(256, ReplicationMode::Synchronous);
        let pages: Vec<PageId> = (0..100).map(PageId).collect();
        let t0 = clock.now();
        rep.resilver_from(&pages, &fabric, &ssd, &clock);
        assert!(clock.now() > t0, "catch-up traffic is costed");
        let c = rep.counters();
        assert_eq!(c.pages_shipped, 100);
        assert_eq!(
            c.ship_messages,
            100_u64.div_ceil(RESILVER_CHUNK_PAGES as u64),
            "one wire message per chunk, not per page"
        );
        assert_eq!(
            fabric.ledger().replication.messages,
            c.ship_messages + c.acks
        );
        for pid in pages {
            assert!(rep.has_acked_copy(pid), "resilvered copy is trusted");
        }
        let (_, lost, _) = rep.promote();
        assert!(lost.is_empty(), "no journal tail after a bulk copy");
    }

    #[test]
    fn explicit_flush_drains_the_journal() {
        let (clock, tracer, fabric, ssd) = rig();
        let mut rep = ReplicatedPool::new(8, ReplicationMode::LogShipped { batch_pages: 64 });
        rep.record(
            ReplOp::RegisterRange {
                first: PageId(7),
                count: 1,
            },
            &fabric,
            &ssd,
            &clock,
            &tracer,
        );
        rep.flush(&fabric, &ssd, &clock, &tracer);
        assert_eq!(rep.pending_entries(), 0);
        assert_eq!(rep.acked_seq(), 1);
        rep.flush(&fabric, &ssd, &clock, &tracer);
        assert_eq!(rep.counters().ship_messages, 1, "empty flush is a no-op");
    }
}
