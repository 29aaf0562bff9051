//! Deterministic structured event tracing and named metrics.
//!
//! Every layer of the simulation — the fabric, the SSD, the disaggregated
//! OS kernel, the coherence protocol, and the pushdown lifecycle — emits
//! typed [`TraceEvent`]s through a shared [`Tracer`] handle. Because the
//! whole simulation is single-threaded and runs on one virtual clock, the
//! resulting stream is a *testable artifact*: integration tests assert
//! exact event sequences for small workloads and digest-equality for
//! determinism regressions.
//!
//! Design points:
//!
//! - **Zero-cost when disabled** (the default): [`Tracer::emit`] checks one
//!   shared boolean and returns. No event is constructed into the buffer,
//!   no time is charged (emission never touches the clock), and no result
//!   of any experiment changes when tracing is off — or on.
//! - **Ring buffer + running digest.** The last
//!   [`Tracer::ring_capacity`] records are kept for inspection; the
//!   64-bit FNV-1a [`Tracer::digest`] and the per-kind
//!   [`Tracer::count`]s cover the *entire* stream since the last reset,
//!   so digest comparisons remain exact even after the ring wraps. The
//!   ring holds the four words the digest folds, not [`TraceRecord`]s;
//!   records are decoded when [`Tracer::events`], [`Tracer::render`] or a
//!   sink asks for them.
//! - **Pluggable sink.** A [`TraceSink`] observes every record as it is
//!   emitted (e.g. to print a live log); any `FnMut(&TraceRecord)`
//!   qualifies.
//!
//! [`MetricsRegistry`] is the aggregate companion: a deterministic
//! name → monotonic-counter map that the OS and runtime layers fill from
//! their ledgers (`paging.*`, `net.*`, `ssd.*`, `trace.*`, …), subsuming
//! the ad-hoc counter structs for reporting purposes.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::clock::Clock;
use crate::load::{QosClass, QOS_CLASSES};
use crate::net::MsgClass;
use crate::time::SimTime;

/// Where a page fault was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLevel {
    /// Satisfied without leaving the faulting pool (fresh zero page).
    Cache,
    /// Pulled from the remote memory pool over the fabric.
    Remote,
    /// Recursed to the storage pool / swap device.
    Storage,
}

/// The pool (or wire) an event originates from. One virtual clock drives
/// all lanes, so timestamps are globally non-decreasing between resets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    Compute,
    Memory,
    Storage,
    Net,
}

pub const LANES: [Lane; 4] = [Lane::Compute, Lane::Memory, Lane::Storage, Lane::Net];

/// A Fig 9 coherence transition (or §4.1 tie-break) as observed on the
/// wire. Only *messaged* transitions appear in the trace: relaxed modes
/// that go silently stale emit nothing, which is exactly what makes
/// `CoherenceMode::Disabled` traceable as "zero coherence messages".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceTransition {
    /// Memory-side write invalidated the compute copy (WriteInvalidate).
    InvalidateCompute,
    /// Memory-side access downgraded the compute copy to read-only
    /// (PSO first write, or any coherent read of a compute-writable page).
    DowngradeCompute,
    /// Compute-side write invalidated the temporary context's copy.
    InvalidateMem,
    /// Compute-side read downgraded the temporary context to reader.
    DowngradeMem,
    /// `(R, R)` → compute-exclusive permission upgrade round trip.
    UpgradeExclusive,
    /// The compute side lost a §4.1 write-write tie and backed off.
    TieBreakBackoff,
    /// The memory side reissued after losing a FavorCompute tie.
    TieBreakReissue,
    /// Weak Ordering batched invalidation at pushdown completion.
    CompletionSync,
}

/// A fault injected by the deterministic fault plane ([`crate::faults`]).
/// The variant identifies *what* was disrupted; the accompanying
/// [`TraceEvent::FaultInjected`] magnitude carries the fault-specific
/// quantity (extra nanoseconds, a slowdown factor, a backlog, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Fabric sends pay extra wire latency.
    FabricLatencySpike,
    /// The fabric was unreachable; the message stalled until the partition
    /// healed.
    FabricPartition,
    /// An SSD operation failed transiently and was retried by the device
    /// layer.
    SsdTransientError,
    /// SSD operations run at a multiple of their normal time.
    SsdLatencyStorm,
    /// A memory-pool heartbeat went unanswered.
    HeartbeatFlap,
    /// Other tenants' requests piled up ahead of a pushdown in the
    /// memory-side workqueue.
    QueueBacklogBurst,
    /// The pushed function raised an injected exception.
    PushdownException,
    /// The pushed function hung until the kill timeout fired.
    PushdownHang,
    /// A page image was flipped in flight on the fabric (bit-flip).
    FabricBitFlip,
    /// A latent sector error / torn write corrupted a page on the SSD.
    SsdLatentSector,
    /// The memory pool scribbled over bytes of a resident page.
    PoolScribble,
    /// Fail-slow: a pool's memory-side service time is multiplied while
    /// its heartbeats stay healthy (a brownout, not a blackout).
    DegradedPool,
    /// Fail-slow: fabric wire time is multiplied per message.
    LameFabricLink,
    /// Fail-slow: SSD operation time is multiplied.
    GrindingSsd,
    /// A pool crashed (volatile state wiped) and is scheduled to restart.
    PoolCrashRestart,
    /// A crash tore the un-synced tail of a pool's recovery journal.
    TornJournalWrite,
}

/// One state of the per-pool gray-failure detector (`ddc-os::health`).
/// Defined here so [`TraceEvent::HealthTransition`] can carry it without
/// the trace layer depending on the OS layer. Discriminants are stable:
/// they are folded into the stream digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolHealthState {
    /// Serving at (or near) its learned baseline.
    Healthy,
    /// One window of degraded service observed; watching for another.
    Suspect,
    /// Confirmed fail-slow: excluded from placement, probed for recovery.
    Quarantined,
    /// Probes look healthy; passing a reintegration streak before trusting
    /// the pool with new placements again.
    Probation,
}

/// Stable kebab-case name of one pool-health state (used by renders and
/// golden tests).
pub fn health_label(state: PoolHealthState) -> &'static str {
    match state {
        PoolHealthState::Healthy => "healthy",
        PoolHealthState::Suspect => "suspect",
        PoolHealthState::Quarantined => "quarantined",
        PoolHealthState::Probation => "probation",
    }
}

/// A recovery decision taken by the resilience policy layer
/// (`teleport::resilience`) or the heartbeat monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// A failed pushdown is backed off and reissued (attempt = the retry
    /// number being started, 1-based).
    RetryBackoff,
    /// A reissued pushdown succeeded after `attempt` retries.
    RetrySuccess,
    /// The caller gave up on pushdown and re-executed locally.
    LocalFallback,
    /// The memory pool answered heartbeats again after `attempt` misses.
    HeartbeatRecovered,
}

/// Where the kernel found an intact copy when repairing a corrupted page
/// (the repair lattice: SSD for clean pages, the replica journal for dirty
/// pages with an acked surviving copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairSource {
    /// Clean page: re-read the authoritative image from storage.
    Ssd,
    /// Dirty page: re-fetch the acked copy from the backup pool.
    Replica,
}

/// One structured simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A page fault, tagged with the level that satisfied it.
    PageFault { vaddr: u64, level: FaultLevel },
    /// A page left the faulting pool's cache.
    Evict { page: u64, dirty: bool },
    /// A message crossed the fabric.
    NetMsg { class: MsgClass, bytes: u64 },
    /// An SSD operation.
    SsdIo { write: bool, bytes: u64 },
    /// A coherence protocol round trip (request + response).
    CoherenceMsg {
        page: u64,
        transition: CoherenceTransition,
    },
    /// One step ❶–❽ of the pushdown lifecycle (paper Fig 5).
    PushdownStep { step: u8 },
    /// A `syncmem` call flushed `pages` dirty pages (one event per call).
    Syncmem { pages: u64 },
    /// A queued pushdown request was cancelled via `try_cancel`.
    Cancel { req: u64 },
    /// A pushdown call's timeout elapsed while queued.
    Timeout { req: u64 },
    /// The fault plane injected a fault. `magnitude` is fault-specific:
    /// extra latency in ns, a slowdown factor, a backlog in ns, or a count.
    FaultInjected {
        fault: InjectedFault,
        magnitude: u64,
    },
    /// A resilience decision: retry backoff, retry success, local fallback,
    /// or heartbeat recovery. `attempt` counts retries (or missed beats).
    Recovery {
        action: RecoveryAction,
        attempt: u32,
    },
    /// A `try_cancel` arrived after the request had started running; the
    /// memory pool declined it (§3.2's already-running race).
    CancelDeclined { req: u64 },
    /// The primary pool shipped a journal batch (page-table mutations plus
    /// `pages` dirty-page images, ending at sequence `seq`) to its backup.
    ReplicaShip { seq: u64, pages: u64 },
    /// The backup acknowledged every journal entry up to `seq`; the primary
    /// truncates its journal to that point.
    ReplicaAck { seq: u64 },
    /// The backup pool was promoted to primary at `epoch`. `lost_pages`
    /// counts pages whose latest state was un-acked at the time of death
    /// and therefore had to be re-fetched from storage.
    PoolPromoted { epoch: u64, lost_pages: u64 },
    /// Admission control shed a pushdown request before it queued;
    /// `backlog_ns` is the memory-side backlog that triggered the verdict.
    AdmissionShed { backlog_ns: u64 },
    /// The fault plane flipped real bytes of a page (at `offset` within the
    /// page) somewhere on the compute↔memory↔storage path.
    CorruptionInjected { page: u64, offset: u64 },
    /// A checksum verification failed: the stored page checksum no longer
    /// matches the page's bytes.
    ChecksumMismatch { page: u64 },
    /// The kernel restored a corrupted page from an intact copy.
    PageRepaired { page: u64, source: RepairSource },
    /// No intact copy of the corrupted page survives anywhere; the page is
    /// unrecoverable and the error is surfaced, never a wrong answer.
    DataLoss { page: u64 },
    /// One background scrub pass finished: `pages` resident pages were
    /// verified, `detected` of them failed their checksum.
    ScrubPass { pages: u64, detected: u64 },
    /// The happens-before checker found two unordered accesses to `page`
    /// from opposite sides of a pushdown session (§5 syncmem hygiene):
    /// neither a syncmem edge nor a coherence round trip ordered them, and
    /// at least one was a write. `write_write` distinguishes a write/write
    /// conflict from a read/write one.
    RaceDetected { page: u64, write_write: bool },
    /// The kernel routed a pushdown's working set to the shard owning it:
    /// `pool` is the primary (lowest-index) owning pool, `pages` the pages
    /// the call touched. Emitted only in multi-pool topologies
    /// (`pools > 1`), so single-pool streams stay bit-identical.
    PoolRouted { pool: u64, pages: u64 },
    /// A pushdown's working set spanned `pools` shards, so the call fanned
    /// out as one sub-call per owning pool (in pool-index order).
    PushdownFanout { pools: u64, pages: u64 },
    /// Every per-pool sub-call of a fanned-out pushdown completed and the
    /// results merged, in pool-index order, back on the primary shard.
    FanoutMerge { pools: u64 },
    /// A tenant's session arrived at the open-loop serving plane (client
    /// arrivals never wait for the rack; this stamps the schedule instant).
    SessionArrive { tenant: u64, session: u64 },
    /// The session passed class-aware admission and entered the fair
    /// workqueue.
    SessionAdmit { tenant: u64, session: u64 },
    /// The session finished; `latency_ns` is completion minus arrival in
    /// virtual time (queueing included — client-observed latency).
    SessionComplete { tenant: u64, latency_ns: u64 },
    /// Class-aware admission shed a session of `tenant` at arrival; the
    /// tenant's QoS class identifies which headroom limit it overran.
    TenantThrottled { tenant: u64, class: QosClass },
    /// The fault plane started a fail-slow (gray) degradation. Emitted
    /// once at onset — the slowdown itself is silent after this, unlike
    /// the per-poll [`TraceEvent::FaultInjected`] stream.
    FailSlowInjected { fault: InjectedFault, factor: u64 },
    /// The per-pool health detector moved pool `pool` between states of
    /// `Healthy → Suspect → Quarantined → Probation → Healthy`.
    HealthTransition {
        pool: u64,
        from: PoolHealthState,
        to: PoolHealthState,
    },
    /// Pushdown `call` ran past the hedge delay; a hedge leg was issued.
    HedgeFired { call: u64 },
    /// The hedge leg of pushdown `call` finished first; the primary leg
    /// was cancelled (or its result discarded).
    HedgeWon { call: u64 },
    /// Pushdown `call` blew its deadline budget by `over_ns`.
    DeadlineExceeded { call: u64, over_ns: u64 },
    /// A quarantined pool passed its probe streak and rejoined placement.
    PoolReintegrated { pool: u64 },
    /// Pool `pool` crashed: its volatile state (residency, dirty bits,
    /// pins) is gone. `epoch` is the epoch the pool held when it died —
    /// any in-flight interaction stamped with it is now stale.
    PoolCrashed { pool: u64, epoch: u64 },
    /// Recovery replayed `entries` journal entries over the restarted
    /// pool's SSD-authoritative base, re-fetching `pages` distinct pages.
    JournalReplayed { entries: u64, pages: u64 },
    /// Replay found a checksum-invalid (torn) journal tail and discarded
    /// it: `entries` entries covering `pages` page writes never applied.
    TornTailDiscarded { entries: u64, pages: u64 },
    /// Pool `pool` finished recovery and is back online at `epoch`
    /// (strictly greater than any epoch the pool ever held before).
    PoolRestarted { pool: u64, epoch: u64 },
    /// A write or ack carrying `stale_epoch` reached pool `pool` after an
    /// epoch bump fenced it off; the interaction was rejected, not applied.
    FencedWrite { pool: u64, stale_epoch: u64 },
    /// A rejoining standby finished re-silvering: `pages` pages of catch-up
    /// replication traffic brought it level with the current primary.
    ResilverComplete { pool: u64, pages: u64 },
}

/// Coarse classification of [`TraceEvent`]s, used for whole-stream counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    PageFault,
    Evict,
    NetMsg,
    SsdIo,
    CoherenceMsg,
    PushdownStep,
    Syncmem,
    Cancel,
    Timeout,
    FaultInjected,
    Recovery,
    CancelDeclined,
    ReplicaShip,
    ReplicaAck,
    PoolPromoted,
    AdmissionShed,
    CorruptionInjected,
    ChecksumMismatch,
    PageRepaired,
    DataLoss,
    ScrubPass,
    RaceDetected,
    PoolRouted,
    PushdownFanout,
    FanoutMerge,
    SessionArrive,
    SessionAdmit,
    SessionComplete,
    TenantThrottled,
    FailSlowInjected,
    HealthTransition,
    HedgeFired,
    HedgeWon,
    DeadlineExceeded,
    PoolReintegrated,
    PoolCrashed,
    JournalReplayed,
    TornTailDiscarded,
    PoolRestarted,
    FencedWrite,
    ResilverComplete,
}

pub const EVENT_KINDS: usize = 41;

impl TraceEvent {
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::PageFault { .. } => EventKind::PageFault,
            TraceEvent::Evict { .. } => EventKind::Evict,
            TraceEvent::NetMsg { .. } => EventKind::NetMsg,
            TraceEvent::SsdIo { .. } => EventKind::SsdIo,
            TraceEvent::CoherenceMsg { .. } => EventKind::CoherenceMsg,
            TraceEvent::PushdownStep { .. } => EventKind::PushdownStep,
            TraceEvent::Syncmem { .. } => EventKind::Syncmem,
            TraceEvent::Cancel { .. } => EventKind::Cancel,
            TraceEvent::Timeout { .. } => EventKind::Timeout,
            TraceEvent::FaultInjected { .. } => EventKind::FaultInjected,
            TraceEvent::Recovery { .. } => EventKind::Recovery,
            TraceEvent::CancelDeclined { .. } => EventKind::CancelDeclined,
            TraceEvent::ReplicaShip { .. } => EventKind::ReplicaShip,
            TraceEvent::ReplicaAck { .. } => EventKind::ReplicaAck,
            TraceEvent::PoolPromoted { .. } => EventKind::PoolPromoted,
            TraceEvent::AdmissionShed { .. } => EventKind::AdmissionShed,
            TraceEvent::CorruptionInjected { .. } => EventKind::CorruptionInjected,
            TraceEvent::ChecksumMismatch { .. } => EventKind::ChecksumMismatch,
            TraceEvent::PageRepaired { .. } => EventKind::PageRepaired,
            TraceEvent::DataLoss { .. } => EventKind::DataLoss,
            TraceEvent::ScrubPass { .. } => EventKind::ScrubPass,
            TraceEvent::RaceDetected { .. } => EventKind::RaceDetected,
            TraceEvent::PoolRouted { .. } => EventKind::PoolRouted,
            TraceEvent::PushdownFanout { .. } => EventKind::PushdownFanout,
            TraceEvent::FanoutMerge { .. } => EventKind::FanoutMerge,
            TraceEvent::SessionArrive { .. } => EventKind::SessionArrive,
            TraceEvent::SessionAdmit { .. } => EventKind::SessionAdmit,
            TraceEvent::SessionComplete { .. } => EventKind::SessionComplete,
            TraceEvent::TenantThrottled { .. } => EventKind::TenantThrottled,
            TraceEvent::FailSlowInjected { .. } => EventKind::FailSlowInjected,
            TraceEvent::HealthTransition { .. } => EventKind::HealthTransition,
            TraceEvent::HedgeFired { .. } => EventKind::HedgeFired,
            TraceEvent::HedgeWon { .. } => EventKind::HedgeWon,
            TraceEvent::DeadlineExceeded { .. } => EventKind::DeadlineExceeded,
            TraceEvent::PoolReintegrated { .. } => EventKind::PoolReintegrated,
            TraceEvent::PoolCrashed { .. } => EventKind::PoolCrashed,
            TraceEvent::JournalReplayed { .. } => EventKind::JournalReplayed,
            TraceEvent::TornTailDiscarded { .. } => EventKind::TornTailDiscarded,
            TraceEvent::PoolRestarted { .. } => EventKind::PoolRestarted,
            TraceEvent::FencedWrite { .. } => EventKind::FencedWrite,
            TraceEvent::ResilverComplete { .. } => EventKind::ResilverComplete,
        }
    }

    /// Stable words folded into the stream digest (tag + payload). The tag
    /// is the event's [`EventKind`] discriminant, and the three words are
    /// also the form the ring keeps: [`TraceEvent::from_digest_words`] is
    /// the exact inverse.
    fn digest_words(&self) -> [u64; 3] {
        match *self {
            TraceEvent::PageFault { vaddr, level } => [0, vaddr, level as u64],
            TraceEvent::Evict { page, dirty } => [1, page, dirty as u64],
            TraceEvent::NetMsg { class, bytes } => [2, class as u64, bytes],
            TraceEvent::SsdIo { write, bytes } => [3, write as u64, bytes],
            TraceEvent::CoherenceMsg { page, transition } => [4, page, transition as u64],
            TraceEvent::PushdownStep { step } => [5, step as u64, 0],
            TraceEvent::Syncmem { pages } => [6, pages, 0],
            TraceEvent::Cancel { req } => [7, req, 0],
            TraceEvent::Timeout { req } => [8, req, 0],
            TraceEvent::FaultInjected { fault, magnitude } => [9, fault as u64, magnitude],
            TraceEvent::Recovery { action, attempt } => [10, action as u64, attempt as u64],
            TraceEvent::CancelDeclined { req } => [11, req, 0],
            TraceEvent::ReplicaShip { seq, pages } => [12, seq, pages],
            TraceEvent::ReplicaAck { seq } => [13, seq, 0],
            TraceEvent::PoolPromoted { epoch, lost_pages } => [14, epoch, lost_pages],
            TraceEvent::AdmissionShed { backlog_ns } => [15, backlog_ns, 0],
            TraceEvent::CorruptionInjected { page, offset } => [16, page, offset],
            TraceEvent::ChecksumMismatch { page } => [17, page, 0],
            TraceEvent::PageRepaired { page, source } => [18, page, source as u64],
            TraceEvent::DataLoss { page } => [19, page, 0],
            TraceEvent::ScrubPass { pages, detected } => [20, pages, detected],
            TraceEvent::RaceDetected { page, write_write } => [21, page, write_write as u64],
            TraceEvent::PoolRouted { pool, pages } => [22, pool, pages],
            TraceEvent::PushdownFanout { pools, pages } => [23, pools, pages],
            TraceEvent::FanoutMerge { pools } => [24, pools, 0],
            TraceEvent::SessionArrive { tenant, session } => [25, tenant, session],
            TraceEvent::SessionAdmit { tenant, session } => [26, tenant, session],
            TraceEvent::SessionComplete { tenant, latency_ns } => [27, tenant, latency_ns],
            TraceEvent::TenantThrottled { tenant, class } => [28, tenant, class as u64],
            TraceEvent::FailSlowInjected { fault, factor } => [29, fault as u64, factor],
            TraceEvent::HealthTransition { pool, from, to } => {
                [30, pool, (from as u64) << 2 | to as u64]
            }
            TraceEvent::HedgeFired { call } => [31, call, 0],
            TraceEvent::HedgeWon { call } => [32, call, 0],
            TraceEvent::DeadlineExceeded { call, over_ns } => [33, call, over_ns],
            TraceEvent::PoolReintegrated { pool } => [34, pool, 0],
            TraceEvent::PoolCrashed { pool, epoch } => [35, pool, epoch],
            TraceEvent::JournalReplayed { entries, pages } => [36, entries, pages],
            TraceEvent::TornTailDiscarded { entries, pages } => [37, entries, pages],
            TraceEvent::PoolRestarted { pool, epoch } => [38, pool, epoch],
            TraceEvent::FencedWrite { pool, stale_epoch } => [39, pool, stale_epoch],
            TraceEvent::ResilverComplete { pool, pages } => [40, pool, pages],
        }
    }

    /// Rebuild the event [`TraceEvent::digest_words`] packed. Only ever fed
    /// words that function produced (the ring holds nothing else), so an
    /// unknown tag or enum index is a bug in this file and panics.
    fn from_digest_words([tag, a, b]: [u64; 3]) -> TraceEvent {
        match tag {
            0 => TraceEvent::PageFault {
                vaddr: a,
                level: nth(&FAULT_LEVELS, b),
            },
            1 => TraceEvent::Evict {
                page: a,
                dirty: b != 0,
            },
            2 => TraceEvent::NetMsg {
                class: nth(&MSG_CLASSES, a),
                bytes: b,
            },
            3 => TraceEvent::SsdIo {
                write: a != 0,
                bytes: b,
            },
            4 => TraceEvent::CoherenceMsg {
                page: a,
                transition: nth(&COHERENCE_TRANSITIONS, b),
            },
            5 => TraceEvent::PushdownStep { step: a as u8 },
            6 => TraceEvent::Syncmem { pages: a },
            7 => TraceEvent::Cancel { req: a },
            8 => TraceEvent::Timeout { req: a },
            9 => TraceEvent::FaultInjected {
                fault: nth(&INJECTED_FAULTS, a),
                magnitude: b,
            },
            10 => TraceEvent::Recovery {
                action: nth(&RECOVERY_ACTIONS, a),
                attempt: b as u32,
            },
            11 => TraceEvent::CancelDeclined { req: a },
            12 => TraceEvent::ReplicaShip { seq: a, pages: b },
            13 => TraceEvent::ReplicaAck { seq: a },
            14 => TraceEvent::PoolPromoted {
                epoch: a,
                lost_pages: b,
            },
            15 => TraceEvent::AdmissionShed { backlog_ns: a },
            16 => TraceEvent::CorruptionInjected { page: a, offset: b },
            17 => TraceEvent::ChecksumMismatch { page: a },
            18 => TraceEvent::PageRepaired {
                page: a,
                source: nth(&REPAIR_SOURCES, b),
            },
            19 => TraceEvent::DataLoss { page: a },
            20 => TraceEvent::ScrubPass {
                pages: a,
                detected: b,
            },
            21 => TraceEvent::RaceDetected {
                page: a,
                write_write: b != 0,
            },
            22 => TraceEvent::PoolRouted { pool: a, pages: b },
            23 => TraceEvent::PushdownFanout { pools: a, pages: b },
            24 => TraceEvent::FanoutMerge { pools: a },
            25 => TraceEvent::SessionArrive {
                tenant: a,
                session: b,
            },
            26 => TraceEvent::SessionAdmit {
                tenant: a,
                session: b,
            },
            27 => TraceEvent::SessionComplete {
                tenant: a,
                latency_ns: b,
            },
            28 => TraceEvent::TenantThrottled {
                tenant: a,
                class: nth(&QOS_CLASSES, b),
            },
            29 => TraceEvent::FailSlowInjected {
                fault: nth(&INJECTED_FAULTS, a),
                factor: b,
            },
            30 => TraceEvent::HealthTransition {
                pool: a,
                from: nth(&HEALTH_STATES, b >> 2),
                to: nth(&HEALTH_STATES, b & 3),
            },
            31 => TraceEvent::HedgeFired { call: a },
            32 => TraceEvent::HedgeWon { call: a },
            33 => TraceEvent::DeadlineExceeded {
                call: a,
                over_ns: b,
            },
            34 => TraceEvent::PoolReintegrated { pool: a },
            35 => TraceEvent::PoolCrashed { pool: a, epoch: b },
            36 => TraceEvent::JournalReplayed {
                entries: a,
                pages: b,
            },
            37 => TraceEvent::TornTailDiscarded {
                entries: a,
                pages: b,
            },
            38 => TraceEvent::PoolRestarted { pool: a, epoch: b },
            39 => TraceEvent::FencedWrite {
                pool: a,
                stale_epoch: b,
            },
            40 => TraceEvent::ResilverComplete { pool: a, pages: b },
            _ => unreachable!("trace ring holds an unknown event tag {tag}"),
        }
    }
}

/// The variant of a field-less enum whose discriminant is `index`, from a
/// table listing the enum in declaration order.
fn nth<T: Copy>(table: &[T], index: u64) -> T {
    table[index as usize]
}

// Every payload enum in declaration (= discriminant) order, for decoding
// the ring; `packed_enum_tables_list_every_variant_in_order` checks them.
const FAULT_LEVELS: [FaultLevel; 3] = [FaultLevel::Cache, FaultLevel::Remote, FaultLevel::Storage];
const MSG_CLASSES: [MsgClass; 7] = [
    MsgClass::PageIn,
    MsgClass::PageOut,
    MsgClass::Coherence,
    MsgClass::RpcRequest,
    MsgClass::RpcResponse,
    MsgClass::Control,
    MsgClass::Replication,
];
const COHERENCE_TRANSITIONS: [CoherenceTransition; 8] = [
    CoherenceTransition::InvalidateCompute,
    CoherenceTransition::DowngradeCompute,
    CoherenceTransition::InvalidateMem,
    CoherenceTransition::DowngradeMem,
    CoherenceTransition::UpgradeExclusive,
    CoherenceTransition::TieBreakBackoff,
    CoherenceTransition::TieBreakReissue,
    CoherenceTransition::CompletionSync,
];
const INJECTED_FAULTS: [InjectedFault; 16] = [
    InjectedFault::FabricLatencySpike,
    InjectedFault::FabricPartition,
    InjectedFault::SsdTransientError,
    InjectedFault::SsdLatencyStorm,
    InjectedFault::HeartbeatFlap,
    InjectedFault::QueueBacklogBurst,
    InjectedFault::PushdownException,
    InjectedFault::PushdownHang,
    InjectedFault::FabricBitFlip,
    InjectedFault::SsdLatentSector,
    InjectedFault::PoolScribble,
    InjectedFault::DegradedPool,
    InjectedFault::LameFabricLink,
    InjectedFault::GrindingSsd,
    InjectedFault::PoolCrashRestart,
    InjectedFault::TornJournalWrite,
];
const RECOVERY_ACTIONS: [RecoveryAction; 4] = [
    RecoveryAction::RetryBackoff,
    RecoveryAction::RetrySuccess,
    RecoveryAction::LocalFallback,
    RecoveryAction::HeartbeatRecovered,
];
const REPAIR_SOURCES: [RepairSource; 2] = [RepairSource::Ssd, RepairSource::Replica];
const HEALTH_STATES: [PoolHealthState; 4] = [
    PoolHealthState::Healthy,
    PoolHealthState::Suspect,
    PoolHealthState::Quarantined,
    PoolHealthState::Probation,
];

/// One emitted event with its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Position in the whole stream (0-based, never reused until a reset).
    pub seq: u64,
    /// Virtual time of emission.
    pub at: SimTime,
    /// Originating pool/lane.
    pub lane: Lane,
    pub event: TraceEvent,
}

/// Observer of the live event stream.
pub trait TraceSink {
    fn record(&mut self, rec: &TraceRecord);
}

impl<F: FnMut(&TraceRecord)> TraceSink for F {
    fn record(&mut self, rec: &TraceRecord) {
        self(rec)
    }
}

const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// FNV-1a-64 offset basis. The *single* FNV implementation in the
/// workspace: the trace-stream digest below and the recovery journal's
/// entry checksums in `ddc-os` both fold through these helpers, so the two
/// can never drift. (Page images are sealed by [`page_seal`], which is not
/// FNV.)
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// `FNV_PRIME^k mod 2^64` for `k` in `0..=8`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Fold one little-endian `u64` word into a running FNV-1a-64 hash.
///
/// Bit-identical to the byte loop over `word.to_le_bytes()`, with fewer
/// multiplies: a zero byte's step is `(h ^ 0)·P = h·P`, so the `k` zero
/// bytes above the word's top significant byte collapse, with that byte's
/// own multiply, into one multiply by `P^(k+1)`. Trace words are mostly
/// small (lanes, tags, page numbers, byte counts), so a record costs about
/// 15 serial multiplies instead of 40.
#[inline]
pub fn fnv_fold(mut h: u64, word: u64) -> u64 {
    // Significant bytes: 0 for a zero word, 8 for one with its top byte set.
    let sig = (71 - word.leading_zeros() as usize) / 8;
    let mut rest = word;
    for _ in 1..sig {
        h = (h ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
        rest >>= 8;
    }
    // `rest` is the top significant byte, or zero for a zero word.
    (h ^ rest).wrapping_mul(FNV_PRIME_POW[9 - sig.max(1)])
}

/// One-shot FNV-1a-64 over a byte slice, starting from the offset basis.
/// Serial by construction (one multiply per byte); pages are sealed with
/// [`page_seal`] instead.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Odd multiplier of the [`page_seal`] lanes (the 64-bit golden ratio).
const SEAL_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Rotation after each multiply, so a word's high bits reach the low ones.
const SEAL_ROT: u32 = 29;
const SEAL_LANES: usize = 8;

/// One lane step: absorb `word` into `state`. For a fixed `word` this is a
/// bijection of `state` (xor, multiply by an odd constant and rotate each
/// are), and for a fixed `state` a bijection of `word`.
#[inline]
fn seal_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(SEAL_MUL).rotate_left(SEAL_ROT)
}

/// The page-integrity seal: a 64-bit checksum of a page image, sealed at
/// write / registration time and compared whenever the image crosses a
/// pool boundary or a scrub pass reaches it.
///
/// The image is read as little-endian `u64` words dealt round-robin into
/// eight independent lanes (so eight multiplies are in flight instead of
/// FNV-1a's one per byte); a trailing partial word is zero-padded. The
/// lanes and then the length are folded into one word by the same step.
///
/// **Detection guarantee.** Changing any bits inside one word changes that
/// word's lane input, every later step of the lane is a bijection of its
/// state, and the final fold is a bijection of each lane value with the
/// others held fixed — so the seal changes, with certainty, for every
/// single-bit flip and every single-byte scribble (what the fault plane
/// injects), exactly as FNV-1a guaranteed. Damage spread over several
/// words is caught with probability `1 - 2^-64`, again as before. Seal
/// values appear in no trace record, wire size or metric.
pub fn page_seal(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; SEAL_LANES] = std::array::from_fn(|i| FNV_OFFSET.wrapping_add(i as u64));
    let mut blocks = bytes.chunks_exact(8 * SEAL_LANES);
    for block in &mut blocks {
        for (lane, b) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(b.try_into().expect("an 8-byte chunk"));
            *lane = seal_step(*lane, word);
        }
    }
    // Under one block is left: at most eight words, the last zero-padded.
    for (lane, b) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..b.len()].copy_from_slice(b);
        *lane = seal_step(*lane, u64::from_le_bytes(padded));
    }
    let folded = lanes.iter().fold(FNV_OFFSET, |h, &lane| seal_step(h, lane));
    seal_step(folded, bytes.len() as u64)
}

/// One ring slot: `[at, lane << 8 | tag, a, b]` — the words the digest
/// folds, kept as they are instead of as a [`TraceRecord`] so that emission
/// is four word stores and no re-read. The sequence number is implied by
/// the slot's position.
type Packed = [u64; 4];

fn unpack(seq: u64, [at, lane_tag, a, b]: Packed) -> TraceRecord {
    TraceRecord {
        seq,
        at: SimTime(at),
        lane: nth(&LANES, lane_tag >> 8),
        event: TraceEvent::from_digest_words([lane_tag & 0xff, a, b]),
    }
}

struct TraceBuf {
    next_seq: u64,
    digest: u64,
    ring: VecDeque<Packed>,
    capacity: usize,
    counts: [u64; EVENT_KINDS],
    sink: Option<Box<dyn TraceSink>>,
}

impl TraceBuf {
    fn new() -> Self {
        TraceBuf {
            next_seq: 0,
            digest: FNV_OFFSET,
            ring: VecDeque::new(),
            capacity: DEFAULT_RING_CAPACITY,
            counts: [0; EVENT_KINDS],
            sink: None,
        }
    }

    fn reset(&mut self) {
        self.next_seq = 0;
        self.digest = FNV_OFFSET;
        self.ring.clear();
        self.counts = [0; EVENT_KINDS];
        // Sink and capacity survive a reset: they are configuration.
    }

    /// The retained ring, oldest first, decoded.
    fn records(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        let first_seq = self.next_seq - self.ring.len() as u64;
        (first_seq..)
            .zip(&self.ring)
            .map(|(seq, &packed)| unpack(seq, packed))
    }
}

/// A cloneable handle to one shared event stream. All clones observe and
/// feed the same buffer; the clock stamps every record.
#[derive(Clone)]
pub struct Tracer {
    enabled: Rc<Cell<bool>>,
    clock: Clock,
    buf: Rc<RefCell<TraceBuf>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled.get())
            .field("events", &self.buf.borrow().next_seq)
            .finish()
    }
}

impl Tracer {
    /// A tracer stamping records with `clock`. Starts disabled.
    pub fn new(clock: Clock) -> Self {
        Tracer {
            enabled: Rc::new(Cell::new(false)),
            clock,
            buf: Rc::new(RefCell::new(TraceBuf::new())),
        }
    }

    /// A permanently-idle tracer for components constructed without one
    /// (e.g. a bare `Fabric::new`). It can technically be enabled, but no
    /// clock drives it, so timestamps stay at zero.
    pub fn disconnected() -> Self {
        Tracer::new(Clock::new())
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Start recording. Emission while disabled is a single branch.
    pub fn enable(&self) {
        self.enabled.set(true);
    }

    pub fn disable(&self) {
        self.enabled.set(false);
    }

    /// Record one event. The fast path (tracing disabled) is one shared
    /// boolean load.
    #[inline]
    pub fn emit(&self, lane: Lane, event: TraceEvent) {
        if !self.enabled.get() {
            return;
        }
        self.emit_slow(lane, event);
    }

    #[cold]
    fn emit_slow(&self, lane: Lane, event: TraceEvent) {
        let at = self.clock.now();
        let [tag, a, b] = event.digest_words();
        let mut buf = self.buf.borrow_mut();
        let seq = buf.next_seq;
        buf.next_seq += 1;
        // The tag is the `EventKind` discriminant.
        buf.counts[tag as usize] += 1;
        let mut h = buf.digest;
        for w in [at.0, lane as u64, tag, a, b] {
            h = fnv_fold(h, w);
        }
        buf.digest = h;
        if buf.ring.len() == buf.capacity {
            buf.ring.pop_front();
        }
        if buf.capacity > 0 {
            buf.ring.push_back([at.0, (lane as u64) << 8 | tag, a, b]);
        }
        if let Some(sink) = buf.sink.as_mut() {
            sink.record(&TraceRecord {
                seq,
                at,
                lane,
                event,
            });
        }
    }

    /// Stable 64-bit FNV-1a hash of the entire event stream since the last
    /// reset (covers records the ring has already dropped).
    pub fn digest(&self) -> u64 {
        self.buf.borrow().digest
    }

    /// Total events emitted since the last reset.
    pub fn len(&self) -> u64 {
        self.buf.borrow().next_seq
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whole-stream count of one event kind.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.buf.borrow().counts[kind as usize]
    }

    /// Snapshot of the retained ring (the most recent records).
    pub fn events(&self) -> Vec<TraceRecord> {
        self.buf.borrow().records().collect()
    }

    /// How many records the ring retains.
    pub fn ring_capacity(&self) -> usize {
        self.buf.borrow().capacity
    }

    /// Resize the ring (existing overflow is dropped oldest-first). The
    /// digest and counts are unaffected: they always cover the full stream.
    pub fn set_ring_capacity(&self, capacity: usize) {
        let mut buf = self.buf.borrow_mut();
        buf.capacity = capacity;
        while buf.ring.len() > capacity {
            buf.ring.pop_front();
        }
    }

    /// Install (or replace) the live sink.
    pub fn set_sink(&self, sink: impl TraceSink + 'static) {
        self.buf.borrow_mut().sink = Some(Box::new(sink));
    }

    /// Remove the sink.
    pub fn clear_sink(&self) {
        self.buf.borrow_mut().sink = None;
    }

    /// Drop all recorded state (ring, digest, counts, sequence numbers).
    /// Enablement, capacity, and the sink survive. Called by
    /// `begin_timing` so traces cover exactly the timed window.
    pub fn reset(&self) {
        self.buf.borrow_mut().reset();
    }

    /// Compact text rendering of the retained ring, one record per line.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let buf = self.buf.borrow();
        let mut out = String::new();
        for rec in buf.records() {
            let _ = writeln!(out, "{rec}");
        }
        out
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(lane_label(*self))
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>6}] {:>12}ns {:<7} {}",
            self.seq,
            self.at.0,
            lane_label(self.lane),
            self.event
        )
    }
}

fn lane_label(lane: Lane) -> &'static str {
    match lane {
        Lane::Compute => "compute",
        Lane::Memory => "memory",
        Lane::Storage => "storage",
        Lane::Net => "net",
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::PageFault { vaddr, level } => {
                write!(f, "page-fault 0x{vaddr:x} {level:?}")
            }
            TraceEvent::Evict { page, dirty } => {
                write!(f, "evict pg{page}{}", if dirty { " dirty" } else { "" })
            }
            TraceEvent::NetMsg { class, bytes } => write!(f, "net {class:?} {bytes}B"),
            TraceEvent::SsdIo { write, bytes } => {
                write!(f, "ssd {} {bytes}B", if write { "write" } else { "read" })
            }
            TraceEvent::CoherenceMsg { page, transition } => {
                write!(f, "coherence pg{page} {transition:?}")
            }
            TraceEvent::PushdownStep { step } => write!(f, "pushdown step {step}"),
            TraceEvent::Syncmem { pages } => write!(f, "syncmem {pages} pages"),
            TraceEvent::Cancel { req } => write!(f, "cancel req{req}"),
            TraceEvent::Timeout { req } => write!(f, "timeout req{req}"),
            TraceEvent::FaultInjected { fault, magnitude } => {
                write!(f, "fault-injected {} x{magnitude}", fault_label(fault))
            }
            TraceEvent::Recovery { action, attempt } => {
                write!(f, "recovery {} attempt{attempt}", recovery_label(action))
            }
            TraceEvent::CancelDeclined { req } => write!(f, "cancel-declined req{req}"),
            TraceEvent::ReplicaShip { seq, pages } => {
                write!(f, "replica-ship seq{seq} {pages} pages")
            }
            TraceEvent::ReplicaAck { seq } => write!(f, "replica-ack seq{seq}"),
            TraceEvent::PoolPromoted { epoch, lost_pages } => {
                write!(f, "pool-promoted epoch{epoch} lost {lost_pages} pages")
            }
            TraceEvent::AdmissionShed { backlog_ns } => {
                write!(f, "admission-shed backlog {backlog_ns}ns")
            }
            TraceEvent::CorruptionInjected { page, offset } => {
                write!(f, "corruption-injected pg{page} +{offset}")
            }
            TraceEvent::ChecksumMismatch { page } => write!(f, "checksum-mismatch pg{page}"),
            TraceEvent::PageRepaired { page, source } => {
                write!(f, "page-repaired pg{page} from {}", repair_label(source))
            }
            TraceEvent::DataLoss { page } => write!(f, "data-loss pg{page}"),
            TraceEvent::ScrubPass { pages, detected } => {
                write!(f, "scrub-pass {pages} pages {detected} bad")
            }
            TraceEvent::RaceDetected { page, write_write } => {
                let kind = if write_write {
                    "write-write"
                } else {
                    "read-write"
                };
                write!(f, "race-detected pg{page} {kind}")
            }
            TraceEvent::PoolRouted { pool, pages } => {
                write!(f, "pool-routed p{pool} {pages} pages")
            }
            TraceEvent::PushdownFanout { pools, pages } => {
                write!(f, "pushdown-fanout {pools} pools {pages} pages")
            }
            TraceEvent::FanoutMerge { pools } => write!(f, "fanout-merge {pools} pools"),
            TraceEvent::SessionArrive { tenant, session } => {
                write!(f, "session-arrive t{tenant} s{session}")
            }
            TraceEvent::SessionAdmit { tenant, session } => {
                write!(f, "session-admit t{tenant} s{session}")
            }
            TraceEvent::SessionComplete { tenant, latency_ns } => {
                write!(f, "session-complete t{tenant} {latency_ns}ns")
            }
            TraceEvent::TenantThrottled { tenant, class } => {
                write!(f, "tenant-throttled t{tenant} {}", class.label())
            }
            TraceEvent::FailSlowInjected { fault, factor } => {
                write!(f, "fail-slow {} x{factor}", fault_label(fault))
            }
            TraceEvent::HealthTransition { pool, from, to } => {
                write!(
                    f,
                    "health p{pool} {}->{}",
                    health_label(from),
                    health_label(to)
                )
            }
            TraceEvent::HedgeFired { call } => write!(f, "hedge-fired call{call}"),
            TraceEvent::HedgeWon { call } => write!(f, "hedge-won call{call}"),
            TraceEvent::DeadlineExceeded { call, over_ns } => {
                write!(f, "deadline-exceeded call{call} +{over_ns}ns")
            }
            TraceEvent::PoolReintegrated { pool } => write!(f, "pool-reintegrated p{pool}"),
            TraceEvent::PoolCrashed { pool, epoch } => {
                write!(f, "pool-crashed p{pool} epoch{epoch}")
            }
            TraceEvent::JournalReplayed { entries, pages } => {
                write!(f, "journal-replayed {entries} entries {pages} pages")
            }
            TraceEvent::TornTailDiscarded { entries, pages } => {
                write!(f, "torn-tail-discarded {entries} entries {pages} pages")
            }
            TraceEvent::PoolRestarted { pool, epoch } => {
                write!(f, "pool-restarted p{pool} epoch{epoch}")
            }
            TraceEvent::FencedWrite { pool, stale_epoch } => {
                write!(f, "fenced-write p{pool} stale-epoch{stale_epoch}")
            }
            TraceEvent::ResilverComplete { pool, pages } => {
                write!(f, "resilver-complete p{pool} {pages} pages")
            }
        }
    }
}

/// Stable kebab-case name of one injected-fault kind (used by renders and
/// golden tests).
pub fn fault_label(fault: InjectedFault) -> &'static str {
    match fault {
        InjectedFault::FabricLatencySpike => "fabric-latency-spike",
        InjectedFault::FabricPartition => "fabric-partition",
        InjectedFault::SsdTransientError => "ssd-transient-error",
        InjectedFault::SsdLatencyStorm => "ssd-latency-storm",
        InjectedFault::HeartbeatFlap => "heartbeat-flap",
        InjectedFault::QueueBacklogBurst => "queue-backlog-burst",
        InjectedFault::PushdownException => "pushdown-exception",
        InjectedFault::PushdownHang => "pushdown-hang",
        InjectedFault::FabricBitFlip => "fabric-bit-flip",
        InjectedFault::SsdLatentSector => "ssd-latent-sector",
        InjectedFault::PoolScribble => "pool-scribble",
        InjectedFault::DegradedPool => "degraded-pool",
        InjectedFault::LameFabricLink => "lame-fabric-link",
        InjectedFault::GrindingSsd => "grinding-ssd",
        InjectedFault::PoolCrashRestart => "pool-crash-restart",
        InjectedFault::TornJournalWrite => "torn-journal-write",
    }
}

/// Stable kebab-case name of one repair source.
pub fn repair_label(source: RepairSource) -> &'static str {
    match source {
        RepairSource::Ssd => "ssd",
        RepairSource::Replica => "replica",
    }
}

/// Stable kebab-case name of one recovery action.
pub fn recovery_label(action: RecoveryAction) -> &'static str {
    match action {
        RecoveryAction::RetryBackoff => "retry-backoff",
        RecoveryAction::RetrySuccess => "retry-success",
        RecoveryAction::LocalFallback => "local-fallback",
        RecoveryAction::HeartbeatRecovered => "heartbeat-recovered",
    }
}

/// A deterministic name → monotonic-counter map, filled from the layers'
/// ledgers on demand (`Dos::metrics`, `Runtime::metrics`). `BTreeMap`
/// keeps iteration (and rendering) order stable across runs.
///
/// Keys are `Cow<'static, str>` so the fixed registry names stay
/// allocation-free while per-instance metrics (the multi-pool
/// `integrity.pool{p}.*` family) can be formatted on demand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<std::borrow::Cow<'static, str>, u64>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `name` to `value` (registering it if new).
    pub fn set(&mut self, name: impl Into<std::borrow::Cow<'static, str>>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Add `delta` to `name` (registering it at zero if new).
    pub fn add(&mut self, name: impl Into<std::borrow::Cow<'static, str>>, delta: u64) {
        *self.counters.entry(name.into()).or_insert(0) += delta;
    }

    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    pub fn len(&self) -> usize {
        self.counters.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_ref(), v))
    }

    /// One `name value` line per counter, sorted by name.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (name, value) in self.iter() {
            let _ = writeln!(out, "{name:<32} {value}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PAGE_SIZE;
    use crate::time::SimDuration;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn tracer() -> (Clock, Tracer) {
        let clock = Clock::new();
        let t = Tracer::new(clock.clone());
        (clock, t)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let (_, t) = tracer();
        t.emit(Lane::Compute, TraceEvent::PushdownStep { step: 1 });
        assert_eq!(t.len(), 0);
        assert!(t.events().is_empty());
        let empty_digest = t.digest();
        t.enable();
        t.emit(Lane::Compute, TraceEvent::PushdownStep { step: 1 });
        assert_eq!(t.len(), 1);
        assert_ne!(t.digest(), empty_digest);
    }

    #[test]
    fn records_carry_time_lane_and_sequence() {
        let (clock, t) = tracer();
        t.enable();
        t.emit(
            Lane::Compute,
            TraceEvent::PageFault {
                vaddr: 0x1000,
                level: FaultLevel::Remote,
            },
        );
        clock.advance(SimDuration::from_micros(3));
        t.emit(
            Lane::Net,
            TraceEvent::NetMsg {
                class: MsgClass::PageIn,
                bytes: 4096,
            },
        );
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[0].at, SimTime(0));
        assert_eq!(evs[0].lane, Lane::Compute);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[1].at, SimTime(3_000));
        assert_eq!(evs[1].lane, Lane::Net);
    }

    #[test]
    fn digest_covers_stream_beyond_ring_capacity() {
        let (_, a) = tracer();
        let (_, b) = tracer();
        a.enable();
        b.enable();
        a.set_ring_capacity(4);
        for t in [&a, &b] {
            for i in 0..100u64 {
                t.emit(
                    Lane::Storage,
                    TraceEvent::SsdIo {
                        write: i % 2 == 0,
                        bytes: i,
                    },
                );
            }
        }
        assert_eq!(a.events().len(), 4, "ring keeps only the tail");
        assert_eq!(a.len(), 100, "stream length is exact");
        assert_eq!(a.digest(), b.digest(), "digest covers the full stream");
        assert_eq!(a.count(EventKind::SsdIo), 100);
    }

    #[test]
    fn different_streams_have_different_digests() {
        let (_, a) = tracer();
        let (_, b) = tracer();
        a.enable();
        b.enable();
        a.emit(
            Lane::Compute,
            TraceEvent::Evict {
                page: 1,
                dirty: true,
            },
        );
        b.emit(
            Lane::Compute,
            TraceEvent::Evict {
                page: 1,
                dirty: false,
            },
        );
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn reset_clears_state_but_keeps_configuration() {
        let (_, t) = tracer();
        t.enable();
        t.set_ring_capacity(8);
        t.emit(Lane::Memory, TraceEvent::Syncmem { pages: 3 });
        let fresh_digest = Tracer::disconnected().digest();
        t.reset();
        assert_eq!(t.len(), 0);
        assert_eq!(t.digest(), fresh_digest);
        assert!(t.is_enabled(), "enablement survives reset");
        assert_eq!(t.ring_capacity(), 8, "capacity survives reset");
    }

    #[test]
    fn sink_sees_every_record() {
        let (_, t) = tracer();
        t.enable();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        t.set_sink(move |rec: &TraceRecord| seen2.borrow_mut().push(rec.seq));
        t.emit(
            Lane::Net,
            TraceEvent::NetMsg {
                class: MsgClass::Control,
                bytes: 16,
            },
        );
        t.emit(
            Lane::Net,
            TraceEvent::NetMsg {
                class: MsgClass::Control,
                bytes: 16,
            },
        );
        assert_eq!(*seen.borrow(), vec![0, 1]);
        t.clear_sink();
        t.emit(
            Lane::Net,
            TraceEvent::NetMsg {
                class: MsgClass::Control,
                bytes: 16,
            },
        );
        assert_eq!(seen.borrow().len(), 2);
    }

    #[test]
    fn clones_share_one_stream() {
        let (_, t) = tracer();
        let u = t.clone();
        u.enable();
        assert!(t.is_enabled(), "enable through any handle");
        t.emit(Lane::Compute, TraceEvent::PushdownStep { step: 1 });
        u.emit(Lane::Compute, TraceEvent::PushdownStep { step: 2 });
        assert_eq!(t.len(), 2);
        assert_eq!(t.digest(), u.digest());
    }

    #[test]
    fn render_is_one_line_per_record() {
        let (_, t) = tracer();
        t.enable();
        t.emit(
            Lane::Compute,
            TraceEvent::PageFault {
                vaddr: 0x2a,
                level: FaultLevel::Storage,
            },
        );
        t.emit(Lane::Compute, TraceEvent::Cancel { req: 7 });
        let text = t.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("page-fault 0x2a Storage"), "{text}");
        assert!(text.contains("cancel req7"), "{text}");
    }

    /// One event of every kind, with every variant of every payload enum
    /// and payload words wide enough to show a truncated field.
    fn every_event() -> Vec<TraceEvent> {
        let wide = 0xfedc_ba98_7654_3210u64;
        let mut evs = vec![
            TraceEvent::Evict {
                page: wide,
                dirty: true,
            },
            TraceEvent::Evict {
                page: 3,
                dirty: false,
            },
            TraceEvent::SsdIo {
                write: true,
                bytes: wide,
            },
            TraceEvent::SsdIo {
                write: false,
                bytes: 4096,
            },
            TraceEvent::PushdownStep { step: u8::MAX },
            TraceEvent::Syncmem { pages: wide },
            TraceEvent::Cancel { req: wide },
            TraceEvent::Timeout { req: wide },
            TraceEvent::CancelDeclined { req: wide },
            TraceEvent::ReplicaShip {
                seq: wide,
                pages: 7,
            },
            TraceEvent::ReplicaAck { seq: wide },
            TraceEvent::PoolPromoted {
                epoch: 2,
                lost_pages: wide,
            },
            TraceEvent::AdmissionShed { backlog_ns: wide },
            TraceEvent::CorruptionInjected {
                page: wide,
                offset: 4095,
            },
            TraceEvent::ChecksumMismatch { page: wide },
            TraceEvent::DataLoss { page: wide },
            TraceEvent::ScrubPass {
                pages: wide,
                detected: 5,
            },
            TraceEvent::RaceDetected {
                page: wide,
                write_write: true,
            },
            TraceEvent::RaceDetected {
                page: 1,
                write_write: false,
            },
            TraceEvent::PoolRouted {
                pool: 3,
                pages: wide,
            },
            TraceEvent::PushdownFanout {
                pools: 4,
                pages: wide,
            },
            TraceEvent::FanoutMerge { pools: wide },
            TraceEvent::SessionArrive {
                tenant: 9,
                session: wide,
            },
            TraceEvent::SessionAdmit {
                tenant: 9,
                session: wide,
            },
            TraceEvent::SessionComplete {
                tenant: 9,
                latency_ns: wide,
            },
            TraceEvent::HedgeFired { call: wide },
            TraceEvent::HedgeWon { call: wide },
            TraceEvent::DeadlineExceeded {
                call: 8,
                over_ns: wide,
            },
            TraceEvent::PoolReintegrated { pool: wide },
            TraceEvent::PoolCrashed {
                pool: 1,
                epoch: wide,
            },
            TraceEvent::JournalReplayed {
                entries: wide,
                pages: 6,
            },
            TraceEvent::TornTailDiscarded {
                entries: 6,
                pages: wide,
            },
            TraceEvent::PoolRestarted {
                pool: 1,
                epoch: wide,
            },
            TraceEvent::FencedWrite {
                pool: 1,
                stale_epoch: wide,
            },
            TraceEvent::ResilverComplete {
                pool: 1,
                pages: wide,
            },
            TraceEvent::Recovery {
                action: RecoveryAction::RetryBackoff,
                attempt: u32::MAX,
            },
        ];
        evs.extend(FAULT_LEVELS.map(|level| TraceEvent::PageFault { vaddr: wide, level }));
        evs.extend(MSG_CLASSES.map(|class| TraceEvent::NetMsg { class, bytes: wide }));
        evs.extend(
            COHERENCE_TRANSITIONS.map(|transition| TraceEvent::CoherenceMsg {
                page: wide,
                transition,
            }),
        );
        for fault in INJECTED_FAULTS {
            evs.push(TraceEvent::FaultInjected {
                fault,
                magnitude: wide,
            });
            evs.push(TraceEvent::FailSlowInjected {
                fault,
                factor: wide,
            });
        }
        evs.extend(RECOVERY_ACTIONS.map(|action| TraceEvent::Recovery { action, attempt: 1 }));
        evs.extend(REPAIR_SOURCES.map(|source| TraceEvent::PageRepaired { page: wide, source }));
        evs.extend(QOS_CLASSES.map(|class| TraceEvent::TenantThrottled {
            tenant: wide,
            class,
        }));
        for from in HEALTH_STATES {
            for to in HEALTH_STATES {
                evs.push(TraceEvent::HealthTransition {
                    pool: wide,
                    from,
                    to,
                });
            }
        }
        evs
    }

    #[test]
    fn packed_enum_tables_list_every_variant_in_order() {
        fn in_order<T: Copy + PartialEq + fmt::Debug>(
            table: &[T],
            last: T,
            index: impl Fn(T) -> usize,
        ) {
            for (i, &v) in table.iter().enumerate() {
                assert_eq!(index(v), i, "{v:?} is out of place");
            }
            assert_eq!(table.last(), Some(&last), "table stops short of {last:?}");
        }
        in_order(&LANES, Lane::Net, |v| v as usize);
        in_order(&FAULT_LEVELS, FaultLevel::Storage, |v| v as usize);
        in_order(&MSG_CLASSES, MsgClass::Replication, |v| v as usize);
        in_order(
            &COHERENCE_TRANSITIONS,
            CoherenceTransition::CompletionSync,
            |v| v as usize,
        );
        in_order(&INJECTED_FAULTS, InjectedFault::TornJournalWrite, |v| {
            v as usize
        });
        in_order(&RECOVERY_ACTIONS, RecoveryAction::HeartbeatRecovered, |v| {
            v as usize
        });
        in_order(&REPAIR_SOURCES, RepairSource::Replica, |v| v as usize);
        in_order(&QOS_CLASSES, QosClass::BestEffort, |v| v as usize);
        in_order(&HEALTH_STATES, PoolHealthState::Probation, |v| v as usize);
    }

    #[test]
    fn every_event_kind_round_trips_through_its_digest_words() {
        let evs = every_event();
        let mut kinds = [false; EVENT_KINDS];
        for ev in evs {
            let words = ev.digest_words();
            assert_eq!(words[0], ev.kind() as u64, "{ev:?}: tag is not its kind");
            assert_eq!(TraceEvent::from_digest_words(words), ev);
            kinds[ev.kind() as usize] = true;
        }
        assert!(kinds.iter().all(|&k| k), "a kind is missing: {kinds:?}");
    }

    /// Emit enough of `every_event` to wrap a ring of `capacity` (the
    /// default when `None`) and compare what the ring decodes to with what
    /// a sink was handed for the same suffix of the stream.
    fn ring_agrees_with_sink(capacity: Option<usize>) {
        let (clock, t) = tracer();
        t.enable();
        if let Some(capacity) = capacity {
            t.set_ring_capacity(capacity);
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        t.set_sink(move |rec: &TraceRecord| seen2.borrow_mut().push(*rec));
        let evs = every_event();
        let total = t.ring_capacity() + evs.len() + 3;
        for i in 0..total {
            clock.advance(SimDuration::from_nanos(i as u64 * 1_000_003));
            t.emit(LANES[i % LANES.len()], evs[i % evs.len()]);
        }
        let seen = seen.borrow();
        assert_eq!(seen.len(), total, "the sink sees every record");
        let ring = t.events();
        assert_eq!(ring.len(), t.ring_capacity().min(total));
        assert_eq!(ring[..], seen[total - ring.len()..]);
        let rendered: String = ring.iter().map(|rec| format!("{rec}\n")).collect();
        assert_eq!(t.render(), rendered);
        // Shrinking a wrapped ring keeps its newest records.
        let keep = ring.len().min(2);
        t.set_ring_capacity(keep);
        assert_eq!(t.events()[..], seen[total - keep..]);
    }

    #[test]
    fn wrapped_ring_decodes_to_what_the_sink_saw() {
        ring_agrees_with_sink(Some(0));
        ring_agrees_with_sink(Some(4));
        ring_agrees_with_sink(None);
    }

    /// FNV-1a-64 of `word`'s little-endian bytes, one multiply per byte.
    fn fold_bytewise(mut h: u64, word: u64) -> u64 {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    #[test]
    fn fold_equals_the_bytewise_reference_at_every_width() {
        let boundaries = [
            0,
            0xff,
            0x100,
            (1 << 56) - 1,
            1 << 56,
            u64::MAX,
            1,
            0xffff,
            0x1_0000,
            1 << 63,
        ];
        let mut h = FNV_OFFSET;
        let mut check = |w: u64| {
            assert_eq!(fnv_fold(h, w), fold_bytewise(h, w), "h={h:#x} w={w:#x}");
            h = fnv_fold(h, w);
        };
        boundaries.into_iter().for_each(&mut check);
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..9 * 200 {
            // Significant-byte lengths 0..=8 in turn, top byte forced nonzero.
            let (sig, w) = (i % 9, rng.next_u64());
            let w = match sig {
                0 => 0,
                8 => w | 1 << 63,
                _ => (w & ((1 << (8 * sig)) - 1)) | 1 << (8 * sig - 1),
            };
            assert_eq!((71 - w.leading_zeros() as usize) / 8, sig);
            check(w);
        }
    }

    fn pattern_page() -> Vec<u8> {
        (0..PAGE_SIZE).map(|i| (i * 7 + (i >> 8)) as u8).collect()
    }

    #[test]
    fn seal_changes_on_every_single_bit_flip() {
        let mut random = vec![0u8; PAGE_SIZE];
        StdRng::seed_from_u64(42).fill_bytes(&mut random);
        for mut page in [random, vec![0u8; PAGE_SIZE]] {
            let sealed = page_seal(&page);
            for bit in 0..PAGE_SIZE * 8 {
                page[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(page_seal(&page), sealed, "flip of bit {bit} went unseen");
                page[bit / 8] ^= 1 << (bit % 8);
            }
            assert_eq!(page_seal(&page), sealed);
        }
    }

    #[test]
    fn seal_depends_on_word_order_and_length() {
        let page = pattern_page();
        let sealed = page_seal(&page);
        // Two words of one lane, of neighbouring lanes, and of the two ends.
        for (a, b) in [(0, 8), (0, 1), (3, 510), (0, 511)] {
            let mut swapped = page.clone();
            for i in 0..8 {
                swapped.swap(a * 8 + i, b * 8 + i);
            }
            assert_ne!(page[a * 8..][..8], page[b * 8..][..8]);
            assert_ne!(page_seal(&swapped), sealed, "swap of words {a} and {b}");
        }
        assert_ne!(page_seal(&page[..PAGE_SIZE - 1]), sealed, "truncated");
        assert_ne!(page_seal(&page[..PAGE_SIZE - 8]), sealed, "a word short");
        let mut longer = page.clone();
        longer.push(0);
        assert_ne!(page_seal(&longer), sealed, "extended by a zero byte");
        longer.resize(PAGE_SIZE + 64, 0);
        assert_ne!(page_seal(&longer), sealed, "extended by a zero block");
    }

    #[test]
    fn seal_handles_every_length_and_sees_the_last_byte() {
        let page = pattern_page();
        let mut seen = std::collections::BTreeSet::new();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 4095, 4096] {
            let mut image = page[..len].to_vec();
            let sealed = page_seal(&image);
            assert!(
                seen.insert(sealed),
                "length {len} collides with a shorter one"
            );
            // Zero-padding the last word must not hide a trailing zero byte.
            let mut padded = image.clone();
            padded.push(0);
            assert_ne!(page_seal(&padded), sealed, "length {len} + a zero byte");
            if let Some(last) = image.last_mut() {
                *last ^= 0x80;
                assert_ne!(page_seal(&image), sealed, "last byte of {len}");
            }
        }
    }

    #[test]
    fn seal_of_the_pattern_page_is_pinned() {
        // Catches an endianness, lane-order or constant change: seals are
        // compared across pool boundaries, so every party must agree.
        // (Values cross-checked against an independent implementation.)
        assert_eq!(page_seal(&pattern_page()), 0xfc92_bf85_3ca2_b468);
        assert_eq!(page_seal(&[]), 0x5f95_6ea9_e1c1_05a8);
    }

    #[test]
    fn shared_fnv_helpers_agree() {
        // The byte-wise checksum and the word-wise digest fold are the same
        // hash: folding a word equals hashing its little-endian bytes.
        let w = 0x0123_4567_89ab_cdefu64;
        assert_eq!(fnv1a(&w.to_le_bytes()), fnv_fold(FNV_OFFSET, w));
        assert_eq!(fnv1a(&[]), FNV_OFFSET);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn metrics_registry_is_sorted_and_monotonic() {
        let mut m = MetricsRegistry::new();
        m.set("paging.cache_hits", 10);
        m.add("net.page_in.messages", 2);
        m.add("net.page_in.messages", 3);
        assert_eq!(m.get("net.page_in.messages"), Some(5));
        assert_eq!(m.get("missing"), None);
        let names: Vec<_> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["net.page_in.messages", "paging.cache_hits"]);
        assert_eq!(m.render().lines().count(), 2);
    }
}
