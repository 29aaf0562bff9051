//! Crash-restart recovery: an epoch-stamped, checksummed journal that a
//! restarted memory pool replays over its SSD-authoritative base.
//!
//! A [`RecoveryJournal`] is the pool-local sibling of the replication
//! journal in [`crate::replica`]: where that journal ships mutations to a
//! *backup pool* over the fabric, this one lands them on the shard's own
//! durable media so a crashed pool can rebuild itself. Every entry is
//! stamped with the epoch the pool held when it appended (a zombie's
//! entries are recognizably stale) and sealed with an FNV-1a-64 checksum
//! over its header and payload words — folded through the same
//! `ddc_sim::fnv_fold` as the trace digest, so the two can never drift.
//!
//! Durability is batched: entries accumulate in an un-synced tail and a
//! sync point every [`JOURNAL_SYNC_BATCH`] entries makes the prefix
//! atomic. A crash leaves the tail in whatever state the media caught it:
//! normally intact (the appends landed, the sync just never stamped
//! them), but a torn write ([`RecoveryJournal::tear_tail`], driven by
//! `FaultPlan::torn_journal_write`) corrupts the first un-synced entry.
//! Replay ([`RecoveryJournal::replayable`]) verifies every checksum in
//! sequence order and *discards* the suffix from the first mismatch on —
//! a typed, bounded loss (at most the un-synced tail), never a panic and
//! never a silently-applied partial write.
//!
//! Replay is idempotent by construction: entries re-register pages that
//! registration skips when mapped and re-fetch images that residency
//! skips when resident, so replaying twice equals replaying once.

use crate::page::PageId;
use crate::replica::ReplOp;
use ddc_sim::{fnv_fold, FNV_OFFSET};

/// Journal entries per durable sync point. The un-synced tail — the most
/// a torn write can destroy — is always shorter than this.
pub const JOURNAL_SYNC_BATCH: usize = 4;

/// Stable payload words of one journal op (kind tag + operands).
fn op_words(op: ReplOp) -> [u64; 3] {
    match op {
        ReplOp::RegisterRange { first, count } => [0, first.0, count],
        ReplOp::PageWrite(pid) => [1, pid.0, 0],
    }
}

/// The checksum sealed over one journal entry: FNV-1a-64 across the
/// sequence number, the epoch, and the op's payload words.
pub fn entry_checksum(seq: u64, epoch: u64, op: ReplOp) -> u64 {
    let [tag, a, b] = op_words(op);
    [seq, epoch, tag, a, b]
        .into_iter()
        .fold(FNV_OFFSET, fnv_fold)
}

/// One epoch-stamped, checksummed journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// 1-based append order.
    pub seq: u64,
    /// Epoch the pool held when it appended this entry.
    pub epoch: u64,
    pub op: ReplOp,
    /// Seal over `(seq, epoch, op)`; a torn write breaks it.
    pub checksum: u64,
}

impl JournalEntry {
    /// Whether the sealed checksum still matches the entry's words.
    pub fn verifies(&self) -> bool {
        self.checksum == entry_checksum(self.seq, self.epoch, self.op)
    }
}

/// What one journal replay did (or would do).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySet {
    /// Entries that verified and apply, in sequence order.
    pub applied_entries: u64,
    /// Distinct pages named by applied `PageWrite` entries.
    pub applied_pages: u64,
    /// Entries discarded from the first checksum mismatch on.
    pub discarded_entries: u64,
    /// Distinct pages named by discarded `PageWrite` entries.
    pub discarded_pages: u64,
}

/// What one completed pool restart did, returned by `Dos::restart_pool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartReport {
    /// The restarted shard.
    pub pool: usize,
    /// Epoch the shard's primary holds after the restart — strictly
    /// greater than every epoch any earlier life of the pool held.
    pub epoch: u64,
    /// What journal replay applied and discarded (all-zero on a standby
    /// rejoin: the promoted primary's state is live, not replayed).
    pub replay: ReplaySet,
    /// Catch-up pages shipped to the pool when it rejoined as a standby.
    pub resilvered_pages: u64,
    /// True when the pool woke as a zombie (its replica was promoted
    /// while it was down) and rejoined as a standby instead of resuming
    /// as primary.
    pub rejoined_as_standby: bool,
    /// The stale epoch the zombie's rejected resume-write carried, when
    /// fencing fired.
    pub fenced_stale_epoch: Option<u64>,
}

/// Activity counters for the whole recovery plane, surfaced as the
/// `recovery.*` metrics. Owned by the kernel (crashes and restarts span
/// individual journals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Pool crashes (volatile state wiped).
    pub crashes: u64,
    /// Pool restarts completed (replay or standby rejoin).
    pub restarts: u64,
    /// Journal entries applied by replays.
    pub replayed_entries: u64,
    /// Torn tails detected and discarded at replay.
    pub torn_tails: u64,
    /// Pages shipped as re-silvering catch-up traffic to rejoining
    /// standbys.
    pub resilvered_pages: u64,
    /// Stale-epoch writes/acks rejected by fencing.
    pub fenced_writes: u64,
}

/// The durable recovery journal of one memory-pool shard.
#[derive(Debug, Clone)]
pub struct RecoveryJournal {
    epoch: u64,
    next_seq: u64,
    entries: Vec<JournalEntry>,
    /// `entries[..synced]` are durably synced (atomic under any crash).
    synced: usize,
}

impl RecoveryJournal {
    /// An empty journal stamping entries with `epoch`.
    pub fn new(epoch: u64) -> Self {
        RecoveryJournal {
            epoch,
            next_seq: 1,
            entries: Vec::new(),
            synced: 0,
        }
    }

    /// The epoch new entries are stamped with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries past the last durable sync point — the most a torn write
    /// can destroy.
    pub fn unsynced_len(&self) -> usize {
        self.entries.len() - self.synced
    }

    /// Append one sealed entry. Returns `true` when the append crossed a
    /// sync point (the caller charges the durable-media write for the
    /// batch; the journal itself is costless bookkeeping).
    pub fn append(&mut self, op: ReplOp) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(JournalEntry {
            seq,
            epoch: self.epoch,
            op,
            checksum: entry_checksum(seq, self.epoch, op),
        });
        if self.unsynced_len() >= JOURNAL_SYNC_BATCH {
            self.synced = self.entries.len();
            true
        } else {
            false
        }
    }

    /// Append one entry that is durable immediately (base snapshots taken
    /// at arming time — they describe state already on storage).
    pub fn append_synced(&mut self, op: ReplOp) {
        self.append(op);
        self.synced = self.entries.len();
    }

    /// Corrupt the first un-synced entry, as a torn write would: its
    /// checksum no longer verifies, so replay discards it and everything
    /// after it. No-op when the tail is empty (nothing was in flight).
    pub fn tear_tail(&mut self) {
        if let Some(e) = self.entries.get_mut(self.synced) {
            e.checksum ^= 1;
        }
    }

    /// Verify the journal in sequence order and split it at the first
    /// checksum mismatch: everything before applies, everything from the
    /// mismatch on is discarded. Returns the ops to apply plus the
    /// [`ReplaySet`] accounting of both halves.
    pub fn replayable(&self) -> (Vec<ReplOp>, ReplaySet) {
        let mut set = ReplaySet::default();
        let cut = self.torn_cut();
        let ops: Vec<ReplOp> = self.entries[..cut].iter().map(|e| e.op).collect();
        set.applied_entries = cut as u64;
        set.applied_pages = distinct_write_pages(&self.entries[..cut]);
        set.discarded_entries = (self.entries.len() - cut) as u64;
        set.discarded_pages = distinct_write_pages(&self.entries[cut..]);
        (ops, set)
    }

    /// Ops in the torn suffix that replay will discard (empty while the
    /// journal verifies end to end).
    pub fn discarded_ops(&self) -> Vec<ReplOp> {
        self.entries[self.torn_cut()..]
            .iter()
            .map(|e| e.op)
            .collect()
    }

    /// Index of the first entry whose checksum fails (== `len()` when the
    /// journal is intact).
    fn torn_cut(&self) -> usize {
        self.entries
            .iter()
            .position(|e| !e.verifies())
            .unwrap_or(self.entries.len())
    }

    /// Reset for a new life of the pool: entries cleared, epoch bumped to
    /// `epoch`, sequence numbering continuing (never reused, so an old
    /// life's entry can never be mistaken for a new one's).
    pub fn restart(&mut self, epoch: u64) {
        self.entries.clear();
        self.synced = 0;
        self.epoch = epoch;
    }
}

/// Count distinct pages named by `PageWrite` entries in `entries`.
fn distinct_write_pages(entries: &[JournalEntry]) -> u64 {
    let mut pages: Vec<PageId> = entries
        .iter()
        .filter_map(|e| match e.op {
            ReplOp::PageWrite(pid) => Some(pid),
            ReplOp::RegisterRange { .. } => None,
        })
        .collect();
    pages.sort_unstable();
    pages.dedup();
    pages.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(pid: u64) -> ReplOp {
        ReplOp::PageWrite(PageId(pid))
    }

    #[test]
    fn appends_sync_in_batches_and_seal_verifying_checksums() {
        let mut j = RecoveryJournal::new(0);
        let mut syncs = 0;
        for i in 0..10 {
            if j.append(write(i)) {
                syncs += 1;
            }
        }
        assert_eq!(syncs, 10 / JOURNAL_SYNC_BATCH);
        assert_eq!(j.unsynced_len(), 10 % JOURNAL_SYNC_BATCH);
        let (ops, set) = j.replayable();
        assert_eq!(ops.len(), 10, "an intact tail replays in full");
        assert_eq!(set.applied_entries, 10);
        assert_eq!(set.applied_pages, 10);
        assert_eq!(set.discarded_entries, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_bounded_by_the_sync_batch() {
        let mut j = RecoveryJournal::new(3);
        for i in 0..6 {
            j.append(write(i));
        }
        assert_eq!(j.unsynced_len(), 2);
        j.tear_tail();
        let (ops, set) = j.replayable();
        assert_eq!(set.applied_entries, 4, "the synced prefix survives");
        assert_eq!(set.discarded_entries, 2, "the torn tail is discarded");
        assert!(
            set.discarded_entries <= JOURNAL_SYNC_BATCH as u64,
            "loss is bounded by the sync batch"
        );
        assert_eq!(ops.len(), 4);
        assert_eq!(set.discarded_pages, 2);
    }

    #[test]
    fn tearing_a_fully_synced_journal_loses_nothing() {
        let mut j = RecoveryJournal::new(0);
        for i in 0..JOURNAL_SYNC_BATCH as u64 {
            j.append(write(i));
        }
        assert_eq!(j.unsynced_len(), 0);
        j.tear_tail();
        let (_, set) = j.replayable();
        assert_eq!(set.discarded_entries, 0, "nothing un-synced to tear");
    }

    #[test]
    fn checksums_cover_seq_epoch_and_op() {
        let a = entry_checksum(1, 0, write(7));
        assert_ne!(a, entry_checksum(2, 0, write(7)), "seq is sealed");
        assert_ne!(a, entry_checksum(1, 1, write(7)), "epoch is sealed");
        assert_ne!(a, entry_checksum(1, 0, write(8)), "payload is sealed");
        assert_ne!(
            a,
            entry_checksum(
                1,
                0,
                ReplOp::RegisterRange {
                    first: PageId(7),
                    count: 0
                }
            ),
            "op kind is sealed"
        );
    }

    #[test]
    fn restart_clears_entries_but_never_reuses_sequence_numbers() {
        let mut j = RecoveryJournal::new(0);
        j.append(write(1));
        j.append(write(2));
        j.restart(1);
        assert!(j.is_empty());
        assert_eq!(j.epoch(), 1);
        j.append(write(3));
        let (_, set) = j.replayable();
        assert_eq!(set.applied_entries, 1);
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn replay_set_counts_distinct_pages() {
        let mut j = RecoveryJournal::new(0);
        j.append(write(5));
        j.append(write(5));
        j.append(ReplOp::RegisterRange {
            first: PageId(0),
            count: 4,
        });
        let (_, set) = j.replayable();
        assert_eq!(set.applied_entries, 3);
        assert_eq!(set.applied_pages, 1, "repeat writes dedup");
    }
}
