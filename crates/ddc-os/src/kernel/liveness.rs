//! The liveness plane: everything that decides whether a memory shard may
//! serve (DESIGN.md §7, §12, §13) — replication shipping and failover, the
//! crash-recovery journal with crash and restart, the gate every pushdown
//! passes (scheduled restarts, the crash poll, heartbeats), and the
//! gray-failure health monitor with its probes.
//!
//! The paging core calls it through a few `#[inline]` verbs
//! ([`Dos::replicate_for`], [`Dos::pool_slowdown`],
//! [`Dos::steady_pool_service`], [`Dos::placeable_pools`]), each a no-op
//! while its part of the plane is disarmed. A shard's liveness fields are
//! private to this module.

use std::collections::BTreeSet;

use ddc_sim::{
    EventKind, FaultInjector, Lane, MetricsRegistry, MsgClass, RecoveryAction, ReplicationMode,
    SimDuration, SimTime, TraceEvent,
};

use super::Dos;
use crate::health::{HealthConfig, HealthMonitor};
use crate::page::PageId;
use crate::pool::{MemoryPool, PoolFault};
use crate::recovery::{RecoveryCounters, RecoveryJournal, ReplaySet, RestartReport};
use crate::replica::{FailoverReport, ReplOp, ReplicatedPool, ReplicationCounters};

/// Payload bytes of one synthetic health probe (and of the modeled
/// heartbeat round trip the RTT estimator watches).
const HEALTH_PROBE_BYTES: usize = 16;

/// Random DRAM touches one probe performs on the target shard. Sized so
/// pool-side work dominates the control round trip — otherwise a grinding
/// shard could hide inside the wire time and pass its probes.
const HEALTH_PROBE_TOUCHES: u64 = 64;

/// The rack-wide half of the liveness plane.
#[derive(Default)]
pub(super) struct Liveness {
    /// Gray-failure detector, armed by `install_faults` when the plan
    /// carries fail-slow or crash-restart specs (`None` otherwise —
    /// fault-free and fail-stop runs stay bit-identical).
    health: Option<HealthMonitor>,
    /// Journal entries replayed and pages re-silvered in the timed window:
    /// the two `recovery.*` metrics that are not a trace kind's count.
    replayed_entries: u64,
    resilvered_pages: u64,
    /// The epoch each promotion in the timed window promoted *to*, in
    /// order.
    failover_epochs: Vec<u64>,
}

/// One shard's half of the liveness plane, kept in its `PoolShard`.
#[derive(Default)]
pub(super) struct ShardLiveness {
    /// Replication companion, when configured and not yet consumed by a
    /// failover.
    replica: Option<ReplicatedPool>,
    /// Epoch of the shard's current primary; bumped by its promotions and
    /// restarts.
    epoch: u64,
    /// Report + final replication counters of a completed failover.
    failover: Option<(FailoverReport, ReplicationCounters)>,
    /// Crash-recovery journal, armed when the plan carries crash-restart
    /// specs (`None` otherwise — crash-free runs stay bit-identical with
    /// journaling disarmed).
    journal: Option<RecoveryJournal>,
    /// True while the shard's primary is crashed (volatile state wiped,
    /// in-place restart or failover pending).
    down: bool,
    /// The dead primary a failover replaced, asleep until its restart.
    /// It carries the epoch it held at death, so a later crash of the
    /// promoted primary cannot overwrite what the fence will compare.
    restart: Option<Restart>,
    /// Consecutive heartbeats the shard has left unanswered.
    missed_beats: u32,
}

impl ShardLiveness {
    /// A live shard of `capacity_pages`, with a standby when `replication`
    /// asks for one.
    pub(super) fn new(capacity_pages: usize, replication: ReplicationMode) -> Self {
        let replica = match replication {
            ReplicationMode::Off => None,
            mode => Some(ReplicatedPool::new(capacity_pages, mode)),
        };
        ShardLiveness {
            replica,
            ..ShardLiveness::default()
        }
    }
}

/// A failed-over primary's scheduled return: at `at` it wakes, its
/// resume-write carrying `stale_epoch` is fenced, and it rejoins as the
/// shard's standby.
#[derive(Debug, Clone, Copy)]
struct Restart {
    at: SimTime,
    stale_epoch: u64,
}

/// Why a pushdown may not proceed past [`Dos::pool_gate`]: a shard of the
/// rack was lost under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolLoss {
    /// A shard crashed and its backup was promoted: the call's
    /// acknowledgement carried the dead life's `stale_epoch` and was fenced.
    Fenced { stale_epoch: u64 },
    /// A shard missed its heartbeat threshold and its backup was promoted;
    /// the call was running against `lost_epoch`.
    FailedOver { lost_epoch: u64 },
    /// A shard with no backup missed its heartbeat threshold: main memory
    /// is gone.
    Dead,
}

/// Why [`Dos::crash_pool`] or [`Dos::restart_pool`] refused a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// The rack has no shard `pool` (a monolithic server has none).
    NoSuchPool { pool: usize },
    /// `crash_pool` of a shard that is already down: restart it first.
    AlreadyDown { pool: usize },
    /// `restart_pool` of a shard that is neither down nor a failed-over
    /// primary waiting to rejoin.
    NothingToRestart { pool: usize },
}

impl Dos {
    // ------------------------------------------------------------------
    // Verbs the paging core calls
    // ------------------------------------------------------------------

    /// Arm what `inj`'s plan needs: the recovery journals for crash-restart
    /// specs, and the health monitor for fail-slow specs — or for crash
    /// plans, since a restarted pool rejoins placement through the
    /// probation probe streak.
    pub(super) fn arm_liveness_for(&mut self, inj: &FaultInjector) {
        let crashes = inj.has_crash_restart_specs();
        if crashes {
            self.enable_recovery_journal();
        }
        if inj.has_fail_slow_specs() || (crashes && self.live.health.is_none()) {
            self.live.health = Some(HealthMonitor::new(
                self.shards.len().max(1),
                HealthConfig::default(),
                self.tracer.clone(),
            ));
        }
    }

    /// The shards a fresh allocation may land on: all of them unless the
    /// health plane has quarantined some (falling back to the full rack if
    /// quarantine emptied it — placement never strands an allocation).
    pub(super) fn placeable_pools(&self) -> Vec<usize> {
        let all = 0..self.shards.len();
        match &self.live.health {
            Some(h) if all.clone().any(|p| h.is_placeable(p)) => {
                all.filter(|&p| h.is_placeable(p)).collect()
            }
            _ => all.collect(),
        }
    }

    /// Whether memory-side service costs the same on every access: not
    /// while the health plane reads a fail-slow multiplier per access.
    #[inline]
    pub(super) fn steady_pool_service(&self) -> bool {
        self.live.health.is_none()
    }

    /// Zero the plane's timed-window ledgers. A scheduled restart is
    /// residency state: it keeps what is left of its outage on the clock
    /// reset at `now`.
    pub(super) fn begin_liveness_window(&mut self, now: SimTime) {
        for shard in &mut self.shards {
            if let Some(rep) = &mut shard.live.replica {
                rep.reset_counters();
            }
            shard.live.failover = None;
            if let Some(r) = &mut shard.live.restart {
                r.at = SimTime(r.at.since(now).as_nanos());
            }
        }
        self.live.replayed_entries = 0;
        self.live.resilvered_pages = 0;
        self.live.failover_epochs.clear();
    }

    /// Every shard's liveness state, in shard order.
    fn lives(&self) -> impl Iterator<Item = &ShardLiveness> {
        self.shards.iter().map(|s| &s.live)
    }

    /// True if shard `p`'s standby holds an acked image of `pid`: the
    /// integrity plane's repair source for a dirty page.
    pub(super) fn replica_has_acked_copy(&self, p: usize, pid: PageId) -> bool {
        self.shards
            .get(p)
            .and_then(|s| s.live.replica.as_ref())
            .is_some_and(|r| r.has_acked_copy(pid))
    }

    // ------------------------------------------------------------------
    // Gray failures: the health monitor and its probes (§12)
    // ------------------------------------------------------------------

    /// The gray-failure monitor, when armed (fail-slow specs in the plan).
    pub fn health(&self) -> Option<&HealthMonitor> {
        self.live.health.as_ref()
    }

    /// Feed one pushdown's memory-side execution `window`, attributed to
    /// shard `pool`, to the gray-failure detector (a no-op while the plane
    /// is disarmed).
    pub fn observe_service(&mut self, pool: usize, window: SimDuration) {
        if let Some(h) = &mut self.live.health {
            h.observe_service(pool, window);
        }
    }

    /// One tick of the gray-failure plane, run once per pushdown after the
    /// heartbeat round (a no-op returning zero while the plane is
    /// disarmed): feed this beat's modeled control round trip to every
    /// shard's RTT estimator — a lame fabric link inflates it long before
    /// service times move — then fire the synthetic probe any quarantined
    /// or probationary shard is due for, judging each against the
    /// fault-free cost model. Returns the virtual time the probes charged:
    /// background work of the health plane that rides the calling pushdown's
    /// charge-out but is not that caller's latency.
    pub fn health_tick(&mut self) -> SimDuration {
        let mut probing = SimDuration::ZERO;
        if self.live.health.is_none() {
            return probing;
        }
        let (rtt, healthy) = (self.control_rtt(), self.healthy_probe_cost());
        if let Some(h) = &mut self.live.health {
            for p in 0..h.pool_count() {
                h.observe_rtt(p, rtt);
            }
        }
        for p in 0..self.shards.len() {
            let due = |h: &HealthMonitor| h.should_probe(p, self.clock.now());
            if self.live.health.as_ref().is_some_and(due) {
                let measured = self.probe_pool(p);
                let at = self.clock.now();
                if let Some(h) = &mut self.live.health {
                    h.record_probe(p, at, measured, healthy);
                }
                probing += measured;
            }
        }
        probing
    }

    /// Cost-model prediction of one fault-free synthetic health probe: a
    /// control round trip plus a burst of pool-side random DRAM touches.
    /// The health plane compares measured probes against this.
    fn healthy_probe_cost(&self) -> SimDuration {
        self.fabric.config().transfer_time(HEALTH_PROBE_BYTES) * 2
            + self.dram.random_access * HEALTH_PROBE_TOUCHES
    }

    /// Run one synthetic health probe against shard `p`, charging its real
    /// (possibly fail-slow-inflated) cost to virtual time: a control round
    /// trip over the fabric plus a burst of pool-side DRAM touches. Returns
    /// the measured duration for [`HealthMonitor::record_probe`] to judge.
    fn probe_pool(&mut self, p: usize) -> SimDuration {
        let start = self.clock.now();
        self.wire(MsgClass::Control, HEALTH_PROBE_BYTES);
        self.charge(
            self.dram.random_access * (HEALTH_PROBE_TOUCHES * self.pool_slowdown(p) as u64),
        );
        self.wire(MsgClass::Control, HEALTH_PROBE_BYTES);
        self.clock.now().since(start)
    }

    /// One heartbeat round trip's modeled wire time, for the health
    /// plane's RTT estimator — *observed*, never charged (the heartbeat
    /// budget is already part of the runtime's cost model). An active lame
    /// link inflates it, so fabric gray failures surface here first.
    fn control_rtt(&self) -> SimDuration {
        let base = self.fabric.config().transfer_time(HEALTH_PROBE_BYTES) * 2;
        match &self.injector {
            Some(inj) => base * inj.fabric_slowdown() as u64,
            None => base,
        }
    }

    /// The recovery journal's own page I/O on the shard's durable media:
    /// charged like any device access, but not paging traffic.
    #[inline]
    fn journal_io(&mut self, write: bool) {
        let d = if write {
            self.ssd.write_page()
        } else {
            self.ssd.read_page()
        };
        self.charge(d);
    }

    /// Fail-slow multiplier for memory-side service on shard `p` (1 when
    /// the gray-failure plane is disarmed). Gated on the armed health
    /// plane so fault-free and fail-stop runs never poll the injector on
    /// this hot path.
    #[inline]
    pub(super) fn pool_slowdown(&self, p: usize) -> u32 {
        if self.live.health.is_none() {
            return 1;
        }
        match &self.injector {
            Some(inj) => inj.pool_slowdown_for(p),
            None => 1,
        }
    }

    // ------------------------------------------------------------------
    // Replication & failover — used by the TELEPORT layer
    // ------------------------------------------------------------------

    /// Append one mutation to shard `p`'s replication journal (no-op
    /// without a replica). Shipping discipline is the configured
    /// `ReplicationMode`.
    pub(super) fn replicate_for(&mut self, p: usize, op: ReplOp) {
        let shard = &mut self.shards[p];
        if let Some(rep) = &mut shard.live.replica {
            rep.record(op, &self.fabric, &self.ssd, &self.clock, &self.tracer);
        }
        if shard.live.journal.as_mut().is_some_and(|j| j.append(op)) {
            // Sync point: the batch lands on the shard's durable media.
            self.journal_io(true);
        }
    }

    /// True if shard `p` has a backup pool standing by (i.e. that shard's
    /// death is survivable). Becomes false once the backup has been
    /// consumed by a failover.
    pub fn has_replica_for(&self, p: usize) -> bool {
        self.shards.get(p).is_some_and(|s| s.live.replica.is_some())
    }

    /// Epoch of shard `p`'s current primary (0 until a promotion or
    /// restart happens).
    pub fn pool_epoch_for(&self, p: usize) -> u64 {
        self.shards.get(p).map_or(0, |s| s.live.epoch)
    }

    /// Replication activity so far, summed across shards: live counters
    /// while a replica stands by, the final pre-promotion counters after a
    /// failover. `None` when replication was never configured.
    fn replication_counters(&self) -> Option<ReplicationCounters> {
        let mut total: Option<ReplicationCounters> = None;
        for live in self.lives() {
            let c = match (&live.replica, &live.failover) {
                (Some(rep), _) => rep.counters(),
                (None, Some((_, c))) => *c,
                (None, None) => continue,
            };
            let t = total.get_or_insert_with(ReplicationCounters::default);
            t.journal_appends += c.journal_appends;
            t.ship_messages += c.ship_messages;
            t.pages_shipped += c.pages_shipped;
            t.acks += c.acks;
        }
        total
    }

    /// What the first completed failover did, once one has happened (the
    /// lowest-index failed-over shard).
    pub fn failover_report(&self) -> Option<FailoverReport> {
        self.lives().find_map(|l| l.failover.map(|(r, _)| r))
    }

    /// Promote shard `p`'s backup after that shard's primary died. Pages
    /// owned by other shards (and their cache copies) are untouched: a
    /// rack-scale deployment loses one shard at a time. Crash-consistency
    /// rules:
    ///
    /// - every page named by a still-pending (un-acked) journal entry is
    ///   *lost*: its backup copy is never trusted, and it is re-fetched
    ///   from the storage pool (one authoritative read per page);
    /// - compute-cache copies of lost pages are invalidated by epoch
    ///   comparison — their latest write-back died with the primary, so
    ///   they are dropped without a write-back and refault on next touch;
    /// - surviving cache pages are re-pinned in the promoted pool, so the
    ///   coherence session continues against a consistent page table.
    ///
    /// Consumes the backup: a second death of the shard is fatal again
    /// until a restart re-silvers a new standby. A crashed primary's
    /// hardware is scheduled to rejoin now (see [`Dos::restart_pool`]); one
    /// that died of missed heartbeats never returns. The promoted primary
    /// starts with no missed heartbeats on record. Returns `None` when no
    /// replica is standing by.
    pub fn failover_to_replica_for(&mut self, p: usize) -> Option<FailoverReport> {
        let shard = self.shards.get_mut(p)?;
        let (promoted, lost_list, counters) = shard.live.replica.take()?.promote();
        shard.pool = promoted;
        for &pid in &lost_list {
            let pool = &mut self.shards[p].pool;
            let fault = if pool.is_mapped(pid) {
                pool.ensure_resident(pid)
            } else {
                // The page's registration itself was still in flight.
                pool.register(pid)
            };
            // Exactly one authoritative storage read per lost page (it
            // subsumes any residency fault the pool reported).
            self.charge_pool_fault(PoolFault {
                storage_read: true,
                ..fault
            });
        }
        // Only this shard's cache pages reconcile; other shards' primaries
        // are healthy.
        let invalidations = self.reconcile_cache(p, &lost_list);
        let shard = &mut self.shards[p];
        let old_epoch = shard.live.epoch;
        shard.live.epoch += 1;
        let report = FailoverReport {
            old_epoch,
            new_epoch: shard.live.epoch,
            lost_pages: lost_list.len() as u64,
            refetched_pages: lost_list.len() as u64,
            cache_invalidations: invalidations,
        };
        shard.live.failover = Some((report, counters));
        // The shard is serving again (the dead primary's eventual wake-up
        // is fenced by the epoch bump above).
        if std::mem::take(&mut shard.live.down) {
            shard.live.restart = Some(Restart {
                at: self.clock.now(),
                stale_epoch: old_epoch,
            });
        }
        shard.live.missed_beats = 0;
        self.live.failover_epochs.push(report.new_epoch);
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::PoolPromoted {
                epoch: report.new_epoch,
                lost_pages: report.lost_pages,
            },
        );
        // The promoted primary starts a fresh journal life at the new epoch.
        self.reseed_journal(p);
        Some(report)
    }

    /// Reconcile the compute cache against shard `p`'s rebuilt or promoted
    /// page table. Cached copies of `lost_list` pages carry a stale epoch:
    /// their write-back lineage died with the old primary, so they are
    /// dropped silently (no write-back) and the next touch refaults the
    /// authoritative storage copy. Surviving copies re-pin. Returns the
    /// number of copies dropped.
    fn reconcile_cache(&mut self, p: usize, lost_list: &[PageId]) -> u64 {
        let lost_set: BTreeSet<PageId> = lost_list.iter().copied().collect();
        let mut invalidations = 0u64;
        for pid in self.cache.resident_sorted() {
            if self.owner_of(pid) != p {
                continue;
            }
            if lost_set.contains(&pid) {
                let _ = self.cache.evict(pid);
                invalidations += 1;
            } else {
                let fault = self.shards[p].pool.ensure_resident(pid);
                self.charge_pool_fault(fault);
                self.shards[p].pool.pin(pid);
            }
        }
        invalidations
    }

    // ------------------------------------------------------------------
    // Crash-restart recovery: journal, fencing, rejoin
    // ------------------------------------------------------------------

    /// Arm the per-shard crash-recovery journals, seeding each with a
    /// durable base snapshot of the pages its shard currently owns.
    /// Idempotent; armed automatically by `install_faults` when the plan
    /// carries crash-restart specs.
    pub fn enable_recovery_journal(&mut self) {
        if self.journal_armed() {
            return;
        }
        for p in 0..self.shards.len() {
            let shard = &mut self.shards[p];
            shard.live.journal = Some(RecoveryJournal::new(shard.live.epoch));
            self.reseed_journal(p);
        }
    }

    /// True once the recovery journals are armed.
    fn journal_armed(&self) -> bool {
        self.lives().any(|l| l.journal.is_some())
    }

    /// Recovery-plane activity so far (crashes, restarts, replays,
    /// fencings), reset by `begin_timing`.
    pub fn recovery_counters(&self) -> RecoveryCounters {
        let t = &self.tracer;
        RecoveryCounters {
            crashes: t.count(EventKind::PoolCrashed),
            restarts: t.count(EventKind::PoolRestarted),
            replayed_entries: self.live.replayed_entries,
            torn_tails: t.count(EventKind::TornTailDiscarded),
            resilvered_pages: self.live.resilvered_pages,
            fenced_writes: t.count(EventKind::FencedWrite),
        }
    }

    /// False while shard `p` is crashed (volatile state wiped, restart or
    /// failover pending).
    fn pool_available_for(&self, p: usize) -> bool {
        !self.shards.get(p).is_some_and(|s| s.live.down)
    }

    /// Corrupt the first un-synced entry of shard `p`'s journal, as a torn
    /// write would. Public so tests can model a tear without an injector;
    /// `FaultPlan::torn_journal_write` routes here via `crash_pool`.
    pub fn tear_journal_tail(&mut self, p: usize) {
        if let Some(j) = self.shards.get_mut(p).and_then(|s| s.live.journal.as_mut()) {
            j.tear_tail();
        }
    }

    /// Kill shard `p`: its volatile state (page table, residency, pins)
    /// is wiped; the SSD keeps the authoritative swap copies and the
    /// recovery journal survives on durable media — possibly with a torn
    /// tail if the plan says the crash caught a write in flight. Returns
    /// the epoch the shard held at death (the zombie's fencing baseline),
    /// or why the shard cannot crash: it does not exist or is already down.
    ///
    /// The shard is unavailable until `failover_to_replica_for` promotes
    /// its backup or `restart_pool` rebuilds it.
    pub fn crash_pool(&mut self, p: usize) -> Result<u64, ShardError> {
        if p >= self.shards.len() {
            Err(ShardError::NoSuchPool { pool: p })
        } else if !self.pool_available_for(p) {
            Err(ShardError::AlreadyDown { pool: p })
        } else {
            Ok(self.crash(p))
        }
    }

    /// [`Dos::crash_pool`] of a shard known to exist.
    fn crash(&mut self, p: usize) -> u64 {
        let epoch = self.shards[p].live.epoch;
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::PoolCrashed {
                pool: p as u64,
                epoch,
            },
        );
        if let Some(inj) = self.injector.clone() {
            if inj.torn_tail_for(p) {
                self.tear_journal_tail(p);
            }
        }
        let shard = &mut self.shards[p];
        shard.pool = MemoryPool::new(shard.pool.capacity());
        shard.live.down = true;
        epoch
    }

    /// Bring the dead shard's hardware back. Two lives are possible:
    ///
    /// - **primary recovery** — the shard is down and no failover replaced
    ///   it, so it rebuilds from the SSD-authoritative base plus a
    ///   checksummed journal replay (discarding a torn tail with a typed
    ///   event) and resumes as primary at a strictly higher epoch;
    /// - **zombie rejoin** — otherwise its replica was promoted while it
    ///   slept. Its resume-write carries the epoch it held at death,
    ///   fencing rejects it (`FencedWrite`; no stale write ever lands), and
    ///   it re-enters as a standby replica, caught up by costed
    ///   re-silvering traffic.
    ///
    /// Either way the shard re-enters placement through the health plane's
    /// Probation→Healthy probe streak when that plane is armed. A shard
    /// that does not exist, or has neither life pending, is refused.
    pub fn restart_pool(&mut self, p: usize) -> Result<RestartReport, ShardError> {
        if p >= self.shards.len() {
            return Err(ShardError::NoSuchPool { pool: p });
        }
        let report = self.restart(p);
        report.ok_or(ShardError::NothingToRestart { pool: p })
    }

    /// [`Dos::restart_pool`] of a shard known to exist: `None`, doing
    /// nothing, when it is neither down nor waiting to rejoin.
    fn restart(&mut self, p: usize) -> Option<RestartReport> {
        let live = &mut self.shards[p].live;
        let report = if std::mem::take(&mut live.down) {
            self.recover_primary(p)
        } else {
            let zombie = live.restart.take()?;
            self.rejoin_as_standby(p, zombie.stale_epoch)
        };
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::PoolRestarted {
                pool: p as u64,
                epoch: report.epoch,
            },
        );
        if let Some(h) = self.live.health.as_mut() {
            h.begin_probation(p);
        }
        self.reseed_journal(p);
        Some(report)
    }

    /// The zombie path of [`Dos::restart_pool`]: the old primary wakes
    /// after its replica was promoted and is fenced back to standby duty.
    fn rejoin_as_standby(&mut self, p: usize, stale: u64) -> RestartReport {
        // The zombie's first act is to resume as primary; the write/ack
        // carries the epoch it held at death and the fence rejects it.
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::FencedWrite {
                pool: p as u64,
                stale_epoch: stale,
            },
        );
        let mode = self.ddc_config().replication;
        let mut resilvered = 0u64;
        if mode != ReplicationMode::Off && self.shards[p].live.replica.is_none() {
            let mut rep = ReplicatedPool::new(self.shards[p].pool.capacity(), mode);
            let pages = self.owned_pages(p);
            rep.resilver_from(&pages, &self.fabric, &self.ssd, &self.clock);
            resilvered = pages.len() as u64;
            self.shards[p].live.replica = Some(rep);
            self.note_resilvered(p, resilvered);
        }
        RestartReport {
            pool: p,
            epoch: self.shards[p].live.epoch,
            replay: ReplaySet::default(),
            resilvered_pages: resilvered,
            rejoined_as_standby: true,
            fenced_stale_epoch: Some(stale),
        }
    }

    /// The resume-as-primary path of [`Dos::restart_pool`]: base rebuild
    /// plus idempotent journal replay, then an epoch bump.
    fn recover_primary(&mut self, p: usize) -> RestartReport {
        let (ops, replay, discarded) = match &self.shards[p].live.journal {
            Some(j) => {
                let (ops, set) = j.replayable();
                (ops, set, j.discarded_ops())
            }
            None => (Vec::new(), ReplaySet::default(), Vec::new()),
        };
        if replay.discarded_entries > 0 {
            self.tracer.emit(
                Lane::Memory,
                TraceEvent::TornTailDiscarded {
                    entries: replay.discarded_entries,
                    pages: replay.discarded_pages,
                },
            );
        }
        // Reading the journal back from durable media: one page read per
        // entry examined. The torn suffix is read too — verifying (and
        // failing) its checksums is how the tear is detected.
        for _ in 0..(replay.applied_entries + replay.discarded_entries) {
            self.journal_io(false);
        }
        // Base rebuild: every owned page re-registers over the
        // SSD-authoritative base, so replay's residency ops always land on
        // a mapped page table — even when the page's own registration
        // entry died in the torn tail.
        for pid in self.owned_pages(p) {
            self.register_if_unmapped(p, pid);
        }
        // Replay, idempotent by construction: registration skips mapped
        // pages and residency ops skip resident ones, so replaying twice
        // equals replaying once.
        let mut replayed_writes: Vec<PageId> = Vec::new();
        for op in ops {
            match op {
                ReplOp::RegisterRange { .. } => {
                    for pid in op.pages() {
                        self.register_if_unmapped(p, pid);
                    }
                }
                ReplOp::PageWrite(pid) => {
                    let fault = self.shards[p].pool.ensure_resident(pid);
                    self.charge_pool_fault(fault);
                    self.shards[p].pool.mark_dirty(pid);
                    replayed_writes.push(pid);
                }
            }
        }
        self.live.replayed_entries += replay.applied_entries;
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::JournalReplayed {
                entries: replay.applied_entries,
                pages: replay.applied_pages,
            },
        );
        // Same reconcile as a failover: pages named only by the torn tail
        // are the lost set.
        let lost_list: Vec<PageId> = discarded.iter().flat_map(|op| op.pages()).collect();
        self.reconcile_cache(p, &lost_list);
        // A standing replica's un-acked shipping queue lived in the dead
        // primary's memory: drop it, then re-silver every page the replay
        // re-wrote so the backup's acked image tracks the rebuilt primary.
        if let Some(rep) = &mut self.shards[p].live.replica {
            rep.drop_pending();
            replayed_writes.sort_unstable();
            replayed_writes.dedup();
            rep.resilver_from(&replayed_writes, &self.fabric, &self.ssd, &self.clock);
            self.note_resilvered(p, replayed_writes.len() as u64);
        }
        // Restart bumps the epoch: every later life of the shard is
        // recognizably newer than any write or ack the dead one produced.
        self.shards[p].live.epoch += 1;
        RestartReport {
            pool: p,
            epoch: self.shards[p].live.epoch,
            replay,
            resilvered_pages: 0,
            rejoined_as_standby: false,
            fenced_stale_epoch: None,
        }
    }

    /// Register `pid` in shard `p`'s page table unless it is already
    /// mapped there, billing any spill the registration caused.
    fn register_if_unmapped(&mut self, p: usize, pid: PageId) {
        if !self.shards[p].pool.is_mapped(pid) {
            let fault = self.shards[p].pool.register(pid);
            self.charge_pool_fault(fault);
        }
    }

    /// Account for `pages` re-silvered onto shard `p`'s standby.
    fn note_resilvered(&mut self, p: usize, pages: u64) {
        self.live.resilvered_pages += pages;
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::ResilverComplete {
                pool: p as u64,
                pages,
            },
        );
    }

    /// Pages shard `p` currently owns, in address order (the base set a
    /// rebuild re-registers and a re-silver ships).
    fn owned_pages(&self, p: usize) -> Vec<PageId> {
        self.space
            .mapped_pages()
            .into_iter()
            .filter(|&pid| self.owner_of(pid) == p)
            .collect()
    }

    /// Start a fresh journal life for shard `p` at its current epoch:
    /// entries cleared, then a durable base snapshot of the owned set
    /// appended as maximal contiguous ranges (already on storage, so
    /// synced immediately). No-op while the journal is disarmed.
    fn reseed_journal(&mut self, p: usize) {
        if self.shards[p].live.journal.is_none() {
            return;
        }
        let pages = self.owned_pages(p);
        let shard = &mut self.shards[p];
        let j = shard.live.journal.as_mut().expect("checked above");
        j.restart(shard.live.epoch);
        for run in pages.chunk_by(|a, b| b.0 == a.0 + 1) {
            j.append_synced(ReplOp::RegisterRange {
                first: run[0],
                count: run.len() as u64,
            });
        }
    }

    // ------------------------------------------------------------------
    // Liveness gate: scheduled restarts, crash poll, heartbeats (§3.2)
    // ------------------------------------------------------------------

    /// The epoch each promotion since `begin_timing` promoted *to*, in
    /// order.
    pub fn failover_epochs(&self) -> &[u64] {
        &self.live.failover_epochs
    }

    /// Failed-over primaries still asleep (their outage has not elapsed).
    pub fn pending_restarts(&self) -> usize {
        self.lives().filter(|l| l.restart.is_some()).count()
    }

    /// The gate every TELEPORT pushdown passes before it starts, in this
    /// order: restarts that have come due, the fault plan's crash poll,
    /// and one heartbeat round. `Err` is the shard loss the call ran into.
    pub fn pool_gate(&mut self) -> Result<(), PoolLoss> {
        // Several shards due in one window come back in `(time, shard)`
        // order, so recovery traffic stays seed-stable.
        let now = self.clock.now();
        while let Some((_, p)) = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(p, s)| s.live.restart.map(|r| (r.at, p)))
            .filter(|&(at, _)| at <= now)
            .min()
        {
            // Its restart is due, so `restart` has a life to bring back.
            self.restart(p);
        }
        // Without a fault plan no shard crashes or misses a beat.
        let Some(inj) = self.injector.clone() else {
            return Ok(());
        };
        self.poll_pool_crashes(&inj)?;
        self.heartbeat_round(&inj)
    }

    /// Crash every shard the fault plan kills now. With a standing replica
    /// the backup is promoted on the spot, the dead hardware sleeps out
    /// `down_for` before it rejoins, and the call is fenced: its
    /// acknowledgement carried the dead life's epoch, so nothing landed.
    /// Without one the call waits the outage out and the shard restarts in
    /// place by journal replay.
    fn poll_pool_crashes(&mut self, inj: &FaultInjector) -> Result<(), PoolLoss> {
        let mut fenced = None;
        for p in 0..self.shards.len() {
            let Some(down_for) = inj.pool_crash_now_for(p) else {
                continue;
            };
            let stale_epoch = self.crash(p);
            if self.failover_to_replica_for(p).is_some() {
                let at = self.clock.now() + down_for;
                self.shards[p].live.restart = Some(Restart { at, stale_epoch });
                fenced.get_or_insert(PoolLoss::Fenced { stale_epoch });
            } else {
                self.charge(down_for);
                // It has just crashed, so it restarts in place.
                self.restart(p);
            }
        }
        fenced.map_or(Ok(()), Err)
    }

    /// Heartbeat every shard, in index order so the wire and trace
    /// sequences stay seed-stable, and repeat each interval until all
    /// answer (a flap, possibly after missed beats) or one misses
    /// `missed_threshold` in a row. That shard's backup is promoted if it
    /// has one; without one the rack is dead.
    fn heartbeat_round(&mut self, inj: &FaultInjector) -> Result<(), PoolLoss> {
        loop {
            let mut all_alive = true;
            for p in 0..self.shards.len() {
                let missed = self.shards[p].live.missed_beats;
                if !inj.pool_down_now_for(p) {
                    if missed > 0 {
                        self.shards[p].live.missed_beats = 0;
                        self.tracer.emit(
                            Lane::Compute,
                            TraceEvent::Recovery {
                                action: RecoveryAction::HeartbeatRecovered,
                                attempt: missed,
                            },
                        );
                    }
                    continue;
                }
                all_alive = false;
                self.shards[p].live.missed_beats = missed + 1;
                if missed + 1 >= self.ddc_config().heartbeat.missed_threshold {
                    let Some(report) = self.failover_to_replica_for(p) else {
                        return Err(PoolLoss::Dead);
                    };
                    // The fault that killed the primary is consumed by the
                    // promotion.
                    inj.retire_pool_faults_for(p);
                    return Err(PoolLoss::FailedOver {
                        lost_epoch: report.old_epoch,
                    });
                }
            }
            if all_alive {
                return Ok(());
            }
            self.charge(self.ddc_config().heartbeat.interval);
        }
    }

    /// The plane's rows of [`Dos::metrics`] (`replication.*`,
    /// `failover.*`, `health.*`, `recovery.*`), each family present once
    /// its part of the plane is armed or has acted.
    pub(super) fn liveness_metrics(&self, m: &mut MetricsRegistry) {
        if let Some(c) = self.replication_counters() {
            m.set("replication.journal_appends", c.journal_appends);
            m.set("replication.ship_messages", c.ship_messages);
            m.set("replication.pages_shipped", c.pages_shipped);
            m.set("replication.acks", c.acks);
            let standbys = self.lives().filter_map(|l| l.replica.as_ref());
            let pending = standbys.map(|r| r.pending_entries() as u64).sum();
            m.set("replication.pending_entries", pending);
            let failovers = self.lives().filter(|l| l.failover.is_some()).count();
            m.set("failover.count", failovers as u64);
        }
        if let Some(r) = self.failover_report() {
            m.set("failover.epoch", r.new_epoch);
            m.set("failover.lost_pages", r.lost_pages);
            m.set("failover.pages_refetched", r.refetched_pages);
            m.set("failover.cache_invalidations", r.cache_invalidations);
        }
        if self.shards.len() > 1 {
            // Per-shard instances, named dynamically so the registry stays
            // shard-count agnostic.
            for (p, shard) in self.shards.iter().enumerate() {
                if let Some((r, _)) = &shard.live.failover {
                    m.set(format!("failover.pool{p}.epoch"), r.new_epoch);
                    m.set(format!("failover.pool{p}.lost_pages"), r.lost_pages);
                }
            }
        }
        if let Some(h) = &self.live.health {
            m.set("health.transitions", h.transitions());
            m.set("health.quarantines", h.quarantines());
            m.set("health.reintegrations", h.reintegrations());
            m.set("health.probes", h.probes());
        }
        let r = self.recovery_counters();
        if self.journal_armed() || r.crashes > 0 {
            m.set("recovery.crashes", r.crashes);
            m.set("recovery.restarts", r.restarts);
            m.set("recovery.replayed_entries", r.replayed_entries);
            m.set("recovery.torn_tails", r.torn_tails);
            m.set("recovery.resilvered_pages", r.resilvered_pages);
            m.set("recovery.fenced_writes", r.fenced_writes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::{injector_for, tiny_ddc};
    use crate::kernel::Pattern;
    use ddc_sim::{DdcConfig, PlacementPolicy, PAGE_SIZE};

    #[test]
    fn degraded_shard_is_charged_and_quarantine_steers_placement() {
        use ddc_sim::PoolHealthState;
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            pools: 2,
            placement: PlacementPolicy::LoadBalance,
            ..Default::default()
        };
        let mut dos = Dos::new_disaggregated(cfg);
        let plan =
            ddc_sim::FaultPlan::new(11).degraded_pool(0, SimTime::ZERO, ddc_sim::FOREVER, 50);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        assert!(
            dos.health().is_some(),
            "fail-slow spec arms the health plane"
        );

        // LoadBalance stripes pages across the two shards; find one page on
        // each and compare memory-side touch costs.
        let a = dos.alloc(2 * PAGE_SIZE);
        dos.begin_timing();
        let (on_sick, on_healthy) = if dos.pool_owner(a.page()) == Some(0) {
            (a, a.offset(PAGE_SIZE as u64))
        } else {
            (a.offset(PAGE_SIZE as u64), a)
        };
        let t0 = dos.clock().now();
        dos.mem_touch_range(on_healthy, PAGE_SIZE, false, Pattern::Seq);
        let healthy_cost = dos.clock().now().since(t0);
        let t1 = dos.clock().now();
        dos.mem_touch_range(on_sick, PAGE_SIZE, false, Pattern::Seq);
        let sick_cost = dos.clock().now().since(t1);
        assert_eq!(sick_cost.as_nanos(), 50 * healthy_cost.as_nanos());
        assert_eq!(inj.injected_count(), 1, "onset noted once, not per touch");

        // Drive the detector with what the runtime would observe: shard 0's
        // service times sit 50x over its first-window baseline.
        let w = dos.health().expect("armed").config().window;
        for _ in 0..w {
            dos.observe_service(0, SimDuration::from_nanos(100));
        }
        for _ in 0..2 * w {
            dos.observe_service(0, SimDuration::from_nanos(5_000));
        }
        assert_eq!(
            dos.health().expect("armed").state(0),
            PoolHealthState::Quarantined
        );

        // Fresh allocations steer around the quarantined shard.
        let b = dos.alloc(4 * PAGE_SIZE);
        for i in 0..4u64 {
            assert_eq!(
                dos.pool_owner(b.offset(i * PAGE_SIZE as u64).page()),
                Some(1),
                "page {i} placed on the healthy shard"
            );
        }
        let m = dos.metrics();
        assert_eq!(m.get("health.quarantines"), Some(1));
        assert_eq!(m.get("health.transitions"), Some(2));
    }

    #[test]
    fn probe_pays_the_degraded_cost_the_healthy_model_predicts_without() {
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            pools: 2,
            ..Default::default()
        };
        let mut dos = Dos::new_disaggregated(cfg);
        let plan = ddc_sim::FaultPlan::new(3).degraded_pool(1, SimTime::ZERO, ddc_sim::FOREVER, 8);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        dos.begin_timing();

        let healthy = dos.healthy_probe_cost();
        let clean = dos.probe_pool(0);
        let sick = dos.probe_pool(1);
        assert_eq!(clean, healthy, "cost model matches a clean probe exactly");
        assert!(
            sick.as_nanos() >= 2 * healthy.as_nanos(),
            "degraded probe {sick} clears the 2x verdict line over {healthy}"
        );
        // RTT observation is analytic: it never advances the clock.
        let before = dos.clock().now();
        let rtt = dos.control_rtt();
        assert_eq!(dos.clock().now(), before);
        assert!(rtt.as_nanos() > 0);
    }

    #[test]
    fn heartbeat_healthy_pool_never_fails_the_gate() {
        let mut dos = tiny_ddc(4, 64);
        // A plan that never touches the pool: every round beats it.
        let inj = injector_for(&dos, ddc_sim::FaultPlan::new(1));
        dos.install_faults(&inj);
        for _ in 0..100 {
            assert_eq!(dos.pool_gate(), Ok(()));
        }
        assert_eq!(dos.clock().now(), SimTime::ZERO, "no beat waited out");
        assert_eq!(dos.shards[0].live.missed_beats, 0);
    }

    #[test]
    fn heartbeat_failure_is_declared_after_the_threshold() {
        // Three misses at 10 ms: a 15 ms flap is survived after two.
        let hb = DdcConfig::default().heartbeat;
        assert_eq!(hb.missed_threshold, 3);
        let beat = hb.interval.as_nanos();
        let mut dos = tiny_ddc(4, 64);
        dos.tracer().enable();
        let plan = ddc_sim::FaultPlan::new(1).heartbeat_flap(SimTime::ZERO, SimTime(beat * 3 / 2));
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        assert_eq!(dos.pool_gate(), Ok(()));
        assert_eq!(dos.clock().now(), SimTime(2 * beat));
        let recovered = TraceEvent::Recovery {
            action: RecoveryAction::HeartbeatRecovered,
            attempt: 2,
        };
        assert!(dos.tracer().events().iter().any(|r| r.event == recovered));

        // A death is declared on the third consecutive miss.
        inj.add(ddc_sim::FaultPlan::new(0).memory_pool_death(dos.clock().now()));
        assert_eq!(dos.pool_gate(), Err(PoolLoss::Dead));
        assert_eq!(dos.clock().now(), SimTime(4 * beat));
        assert_eq!(dos.shards[0].live.missed_beats, 3);
    }

    #[test]
    fn recovery_metrics_stay_absent_until_the_plane_arms() {
        let dos = tiny_ddc(4, 64);
        assert_eq!(dos.metrics().get("recovery.crashes"), None);
        assert!(!dos.journal_armed());
    }

    #[test]
    fn crash_restart_replays_the_journal_and_preserves_every_byte() {
        let mut dos = tiny_ddc(4, 64);
        dos.enable_recovery_journal();
        let a = dos.alloc(8 * PAGE_SIZE);
        for i in 0..8u64 {
            dos.write_u64(a.offset(i * PAGE_SIZE as u64), 100 + i, Pattern::Rand);
        }
        dos.drop_cache(); // the write-backs land in the journal
        let epoch_before = dos.pool_epoch_for(0);
        let stale = dos.crash_pool(0).unwrap();
        assert_eq!(stale, epoch_before);
        assert!(!dos.pool_available_for(0), "down until restarted");
        let report = dos.restart_pool(0).unwrap();
        assert!(dos.pool_available_for(0));
        assert!(!report.rejoined_as_standby);
        assert!(report.replay.applied_entries > 0, "the journal replayed");
        assert_eq!(report.replay.discarded_entries, 0, "intact tail");
        assert_eq!(report.epoch, epoch_before + 1, "restart bumps the epoch");
        for i in 0..8u64 {
            assert_eq!(
                dos.read_u64(a.offset(i * PAGE_SIZE as u64), Pattern::Rand),
                100 + i
            );
        }
        let m = dos.metrics();
        assert_eq!(m.get("recovery.crashes"), Some(1));
        assert_eq!(m.get("recovery.restarts"), Some(1));
        assert_eq!(m.get("recovery.torn_tails"), Some(0));
    }

    #[test]
    fn torn_tail_restart_discards_bounded_loss_with_a_typed_event() {
        let mut dos = tiny_ddc(4, 64);
        dos.enable_recovery_journal();
        let a = dos.alloc(6 * PAGE_SIZE);
        for i in 0..6u64 {
            dos.write_u64(a.offset(i * PAGE_SIZE as u64), i, Pattern::Rand);
        }
        dos.drop_cache();
        let unsynced = dos.shards[0]
            .live
            .journal
            .as_ref()
            .expect("armed")
            .unsynced_len();
        assert!(unsynced > 0, "test needs an un-synced tail to tear");
        dos.tear_journal_tail(0);
        dos.crash_pool(0).unwrap();
        let report = dos.restart_pool(0).unwrap();
        assert!(report.replay.discarded_entries > 0, "the tear was detected");
        assert!(
            report.replay.discarded_entries <= crate::recovery::JOURNAL_SYNC_BATCH as u64,
            "loss is bounded by the sync batch"
        );
        assert_eq!(report.replay.discarded_entries, unsynced as u64);
        // The authoritative bytes never lived in the torn tail.
        for i in 0..6u64 {
            assert_eq!(
                dos.read_u64(a.offset(i * PAGE_SIZE as u64), Pattern::Rand),
                i
            );
        }
        assert_eq!(dos.metrics().get("recovery.torn_tails"), Some(1));
    }

    #[test]
    fn zombie_primary_is_fenced_and_rejoins_as_standby() {
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            replication: ReplicationMode::Synchronous,
            ..Default::default()
        };
        let mut dos = Dos::new_disaggregated(cfg);
        dos.enable_recovery_journal();
        let a = dos.alloc(4 * PAGE_SIZE);
        for i in 0..4u64 {
            dos.write_u64(a.offset(i * PAGE_SIZE as u64), 7 + i, Pattern::Rand);
        }
        dos.drop_cache();
        let stale = dos.crash_pool(0).unwrap();
        let fo = dos.failover_to_replica_for(0).expect("replica standing by");
        assert!(dos.pool_available_for(0), "promotion restores service");
        assert_eq!(fo.new_epoch, stale + 1);
        assert!(!dos.has_replica_for(0), "the backup was consumed");

        // The dead hardware wakes with the pre-crash epoch: fenced.
        let report = dos.restart_pool(0).unwrap();
        assert!(report.rejoined_as_standby);
        assert_eq!(report.fenced_stale_epoch, Some(stale));
        assert_eq!(
            report.epoch, fo.new_epoch,
            "a standby rejoin never bumps the primary's epoch"
        );
        assert!(
            report.resilvered_pages >= 4,
            "catch-up shipped the live set"
        );
        assert!(dos.has_replica_for(0), "redundancy is restored");
        for i in 0..4u64 {
            assert_eq!(
                dos.read_u64(a.offset(i * PAGE_SIZE as u64), Pattern::Rand),
                7 + i
            );
        }
        let m = dos.metrics();
        assert_eq!(m.get("recovery.fenced_writes"), Some(1));
        assert!(m.get("recovery.resilvered_pages").unwrap() >= 4);
        assert!(
            dos.fabric().ledger().replication.bytes > 4 * PAGE_SIZE as u64,
            "re-silvering is costed replication traffic"
        );
    }

    #[test]
    fn epochs_stay_strictly_monotone_when_a_pool_dies_twice() {
        let mut dos = tiny_ddc(4, 64);
        dos.enable_recovery_journal();
        let a = dos.alloc(4 * PAGE_SIZE);
        dos.write_u64(a, 1, Pattern::Rand);
        dos.drop_cache();
        let mut last = dos.pool_epoch_for(0);
        for round in 0..2u64 {
            dos.crash_pool(0).unwrap();
            let r = dos.restart_pool(0).unwrap();
            assert!(
                r.epoch > last,
                "life {round} regressed {last} -> {}",
                r.epoch
            );
            last = r.epoch;
            dos.write_u64(a, 2 + round, Pattern::Rand);
            dos.drop_cache();
        }
        assert_eq!(dos.pool_epoch_for(0), 2, "two restarts, two bumps");
        assert_eq!(dos.read_u64(a, Pattern::Rand), 3);
        let m = dos.metrics();
        assert_eq!(m.get("recovery.crashes"), Some(2));
        assert_eq!(m.get("recovery.restarts"), Some(2));
    }

    #[test]
    fn crashing_a_shard_that_is_already_down_is_refused() {
        let mut dos = tiny_ddc(4, 64);
        let epoch = dos.crash_pool(0).unwrap();
        let crashes = dos.recovery_counters().crashes;
        assert_eq!(dos.crash_pool(0), Err(ShardError::AlreadyDown { pool: 0 }));
        assert_eq!(dos.recovery_counters().crashes, crashes, "nothing happened");
        assert!(!dos.pool_available_for(0), "still down");
        assert_eq!(dos.restart_pool(0).unwrap().epoch, epoch + 1);
    }

    #[test]
    fn restarting_a_shard_with_nothing_to_restart_is_refused() {
        let mut dos = tiny_ddc(4, 64);
        let before = dos.clock().now();
        assert_eq!(
            dos.restart_pool(0),
            Err(ShardError::NothingToRestart { pool: 0 })
        );
        assert_eq!(dos.clock().now(), before, "nothing was charged");
        assert_eq!(dos.recovery_counters().restarts, 0);
        dos.crash_pool(0).unwrap();
        dos.restart_pool(0).unwrap();
        assert_eq!(
            dos.restart_pool(0),
            Err(ShardError::NothingToRestart { pool: 0 }),
            "one crash, one restart"
        );
    }

    #[test]
    fn a_shard_past_the_rack_is_refused_by_crash_and_restart() {
        let mut dos = tiny_ddc(4, 64);
        for p in [1, usize::MAX] {
            assert_eq!(dos.crash_pool(p), Err(ShardError::NoSuchPool { pool: p }));
            assert_eq!(dos.restart_pool(p), Err(ShardError::NoSuchPool { pool: p }));
        }
        let mut mono = Dos::new_monolithic(ddc_sim::MonolithicConfig::default());
        assert_eq!(mono.crash_pool(0), Err(ShardError::NoSuchPool { pool: 0 }));
        assert_eq!(
            mono.restart_pool(0),
            Err(ShardError::NoSuchPool { pool: 0 })
        );
    }
}
