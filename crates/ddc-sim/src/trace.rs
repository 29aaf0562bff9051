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
//! - **Counted always, recorded on demand.** Every [`Tracer::emit`] adds
//!   one to its kind's count, traced or not, so [`Tracer::count`] is the
//!   one count of each event the layers' metrics read. Recording is off
//!   by default: then `emit` is that increment plus one branch on a shared
//!   boolean. No time is charged (emission never touches the clock), and
//!   no result of any experiment changes when tracing is off — or on.
//! - **Ring buffer + running digest.** The last
//!   [`Tracer::ring_capacity`] records — 4 096 by default, 128 KiB, a
//!   debugging tail sized to stay well inside a core's L2 cache — are kept
//!   for inspection; the 64-bit FNV-1a [`Tracer::digest`], [`Tracer::len`]
//!   and the per-kind counts cover the *entire* stream since the last
//!   reset, so digest comparisons remain exact however far the ring has
//!   wrapped. A longer window is [`Tracer::set_ring_capacity`], or a sink,
//!   which sees every record. The ring holds the four words the digest
//!   folds, not [`TraceRecord`]s; records are decoded when
//!   [`Tracer::events`], [`Tracer::render`] or a sink asks for them.
//! - **Pluggable sink.** A [`TraceSink`] observes every record as it is
//!   emitted (e.g. to print a live log); any `FnMut(&TraceRecord)`
//!   qualifies.
//! - **One schema.** The events are declared once, in the `trace_events!`
//!   table below: a row is the event's doc comment, its digest tag, the
//!   variant with its typed fields, and its `trace.*` metric name. The
//!   table expands to [`TraceEvent`], [`EventKind`] (discriminant = tag),
//!   [`EVENT_KINDS`], [`EventKind::ALL`], [`EventKind::metric_name`],
//!   [`TraceEvent::kind`] and the digest-word codec, so those cannot
//!   disagree; a repeated or out-of-order tag does not compile. Adding an
//!   event is one row, its `Display` arm and its emit site (plus its
//!   DESIGN.md §6 row, which `tests/digest_pins.rs` holds equal to what the
//!   pinned scenarios emit, and a test that asserts it). Rows are
//!   append-only: tags are folded into every recorded digest, so a retired
//!   tag stays a gap.
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
use crate::net::{MsgClass, MSG_CLASSES};
use crate::time::SimTime;

/// How a payload field crosses one digest word. `unpack` is only ever fed
/// what `pack` produced (the ring holds nothing else), so an enum index
/// out of range is a bug in this file and panics.
trait Word: Copy {
    fn pack(self) -> u64;
    fn unpack(word: u64) -> Self;
}

/// A scalar or field-less enum packs as its `as u64` cast; `$unpack` is
/// the way back.
macro_rules! cast_word {
    ($ty:ty, |$word:ident| $unpack:expr) => {
        impl Word for $ty {
            fn pack(self) -> u64 {
                self as u64
            }
            fn unpack($word: u64) -> Self {
                $unpack
            }
        }
    };
}
cast_word!(u64, |word| word);
cast_word!(u32, |word| word as u32);
cast_word!(u8, |word| word as u8);
cast_word!(bool, |word| word != 0);
cast_word!(QosClass, |word| QOS_CLASSES[word as usize]);
cast_word!(MsgClass, |word| MSG_CLASSES[word as usize]);

/// Declares a payload enum of this file together with `VARIANTS`, its
/// variant list in declaration (= discriminant) order, and its [`Word`]
/// passage through that list — so the list cannot disagree with the enum.
macro_rules! payload_enum {
    ($(#[$meta:meta])* pub enum $name:ident { $($(#[$vmeta:meta])* $variant:ident,)+ }) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }
        impl $name {
            const VARIANTS: &'static [$name] = &[$($name::$variant),+];
        }
        cast_word!($name, |word| $name::VARIANTS[word as usize]);
    };
}

// The fields after an event's first share word `b`: none, one, or the two
// health states of a transition packed `from << 2 | to`.
impl Word for () {
    fn pack(self) -> u64 {
        0
    }
    fn unpack(_: u64) -> Self {}
}

impl<T: Word> Word for (T,) {
    fn pack(self) -> u64 {
        self.0.pack()
    }
    fn unpack(word: u64) -> Self {
        (T::unpack(word),)
    }
}

impl Word for (PoolHealthState, PoolHealthState) {
    fn pack(self) -> u64 {
        self.0.pack() << 2 | self.1.pack()
    }
    fn unpack(word: u64) -> Self {
        (Word::unpack(word >> 2), Word::unpack(word & 3))
    }
}

payload_enum! {
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

payload_enum! {
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
}

payload_enum! {
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
}

payload_enum! {
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

payload_enum! {
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
}

payload_enum! {
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
}

/// Expands the event table below into [`TraceEvent`], [`EventKind`] (whose
/// discriminant is the row's digest tag), [`EVENT_KINDS`], and the
/// `kind()` / `digest_words()` / `from_digest_words()` matches, one arm
/// per row — so a variant cannot be missing from any of them, and a
/// repeated tag is a compile error (E0081).
macro_rules! trace_events {
    ($(
        $(#[$doc:meta])*
        $tag:literal $name:ident { $first:ident: $first_ty:ty $(, $rest:ident: $rest_ty:ty)* }
            => $metric:literal,
    )+) => {
        /// One structured simulation event.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceEvent {
            $($(#[$doc])* $name { $first: $first_ty $(, $rest: $rest_ty)* },)+
        }

        /// Coarse classification of [`TraceEvent`]s, used for the per-kind
        /// counts. The discriminant is the event's digest tag.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum EventKind {
            $($name = $tag,)+
        }

        pub const EVENT_KINDS: usize = [$($tag),+].len();

        impl EventKind {
            /// Every kind, in tag order.
            pub const ALL: [EventKind; EVENT_KINDS] = [$(EventKind::$name),+];

            /// The `trace.*` metric that reports this kind's count.
            pub fn metric_name(self) -> &'static str {
                match self {
                    $(EventKind::$name => $metric,)+
                }
            }
        }

        impl TraceEvent {
            pub fn kind(&self) -> EventKind {
                match self {
                    $(TraceEvent::$name { .. } => EventKind::$name,)+
                }
            }

            /// Stable words folded into the stream digest: the tag, the
            /// first field, and the remaining fields sharing the last
            /// word. The three words are also the form the ring keeps;
            /// [`TraceEvent::from_digest_words`] is the exact inverse.
            fn digest_words(&self) -> [u64; 3] {
                match *self {
                    $(TraceEvent::$name { $first $(, $rest)* } => {
                        [$tag, $first.pack(), ($($rest,)*).pack()]
                    })+
                }
            }

            /// Rebuild the event [`TraceEvent::digest_words`] packed. Only
            /// ever fed words that function produced, so an unknown tag is
            /// a bug in this file and panics.
            fn from_digest_words([tag, a, b]: [u64; 3]) -> TraceEvent {
                match tag {
                    $($tag => {
                        let ($($rest,)*) = Word::unpack(b);
                        TraceEvent::$name { $first: Word::unpack(a) $(, $rest)* }
                    })+
                    _ => unreachable!("trace ring holds an unknown event tag {tag}"),
                }
            }
        }
    };
}

// The trace schema, declared once. A row is the event's doc comment, its
// digest tag, the variant with its typed fields, and the `trace.*` metric
// reporting its count. Rows are append-only and in tag order: a tag is
// folded into every digest and indexes the per-kind counts, so renumbering
// or reusing one changes the meaning of recorded digests.
trace_events! {
    /// A page fault, tagged with the level that satisfied it.
    0 PageFault { vaddr: u64, level: FaultLevel } => "trace.page_faults",
    /// A page left the faulting pool's cache.
    1 Evict { page: u64, dirty: bool } => "trace.evicts",
    /// A message crossed the fabric.
    2 NetMsg { class: MsgClass, bytes: u64 } => "trace.net_msgs",
    /// An SSD operation.
    3 SsdIo { write: bool, bytes: u64 } => "trace.ssd_ios",
    /// A coherence protocol round trip (request + response).
    4 CoherenceMsg { page: u64, transition: CoherenceTransition } => "trace.coherence_msgs",
    /// One step ❶–❽ of the pushdown lifecycle (paper Fig 5).
    5 PushdownStep { step: u8 } => "trace.pushdown_steps",
    /// A `syncmem` call flushed `pages` dirty pages (one event per call).
    6 Syncmem { pages: u64 } => "trace.syncmems",
    /// A queued pushdown request was cancelled via `try_cancel`.
    7 Cancel { req: u64 } => "trace.cancels",
    /// A pushdown call's timeout elapsed while queued.
    8 Timeout { req: u64 } => "trace.timeouts",
    /// The fault plane injected a fault. `magnitude` is fault-specific:
    /// extra latency in ns, a slowdown factor, a backlog in ns, or a count.
    9 FaultInjected { fault: InjectedFault, magnitude: u64 } => "trace.faults_injected",
    /// A resilience decision: retry backoff, retry success, local fallback,
    /// or heartbeat recovery. `attempt` counts retries (or missed beats).
    10 Recovery { action: RecoveryAction, attempt: u32 } => "trace.recoveries",
    /// A `try_cancel` arrived after the request had started running; the
    /// memory pool declined it (§3.2's already-running race).
    11 CancelDeclined { req: u64 } => "trace.cancels_declined",
    /// The primary pool shipped a journal batch (page-table mutations plus
    /// `pages` dirty-page images, ending at sequence `seq`) to its backup.
    12 ReplicaShip { seq: u64, pages: u64 } => "trace.replica_ships",
    /// The backup acknowledged every journal entry up to `seq`; the primary
    /// truncates its journal to that point.
    13 ReplicaAck { seq: u64 } => "trace.replica_acks",
    /// The backup pool was promoted to primary at `epoch`. `lost_pages`
    /// counts pages whose latest state was un-acked at the time of death
    /// and therefore had to be re-fetched from storage.
    14 PoolPromoted { epoch: u64, lost_pages: u64 } => "trace.pool_promotions",
    /// Admission control shed a pushdown request before it queued;
    /// `backlog_ns` is the memory-side backlog that triggered the verdict.
    15 AdmissionShed { backlog_ns: u64 } => "trace.admission_sheds",
    /// The fault plane flipped real bytes of a page (at `offset` within the
    /// page) somewhere on the compute↔memory↔storage path.
    16 CorruptionInjected { page: u64, offset: u64 } => "trace.corruptions_injected",
    /// A checksum verification failed: the stored page checksum no longer
    /// matches the page's bytes.
    17 ChecksumMismatch { page: u64 } => "trace.checksum_mismatches",
    /// The kernel restored a corrupted page from an intact copy.
    18 PageRepaired { page: u64, source: RepairSource } => "trace.pages_repaired",
    /// No intact copy of the corrupted page survives anywhere; the page is
    /// unrecoverable and the error is surfaced, never a wrong answer.
    19 DataLoss { page: u64 } => "trace.data_losses",
    /// One background scrub pass finished: `pages` resident pages were
    /// verified, `detected` of them failed their checksum.
    20 ScrubPass { pages: u64, detected: u64 } => "trace.scrub_passes",
    // 21 is retired (a syncmem race detector's event): never reuse it.
    /// The kernel routed a pushdown's working set to the shard owning it:
    /// `pool` is the primary (lowest-index) owning pool, `pages` the pages
    /// the call touched. Emitted only in multi-pool topologies
    /// (`pools > 1`), so single-pool streams stay bit-identical.
    22 PoolRouted { pool: u64, pages: u64 } => "trace.pool_routeds",
    /// A pushdown's working set spanned `pools` shards, so the call fanned
    /// out as one sub-call per owning pool (in pool-index order).
    23 PushdownFanout { pools: u64, pages: u64 } => "trace.pushdown_fanouts",
    /// Every per-pool sub-call of a fanned-out pushdown completed and the
    /// results merged, in pool-index order, back on the primary shard.
    24 FanoutMerge { pools: u64 } => "trace.fanout_merges",
    /// A tenant's session arrived at the open-loop serving plane (client
    /// arrivals never wait for the rack; this stamps the schedule instant).
    25 SessionArrive { tenant: u64, session: u64 } => "trace.session_arrives",
    /// The session passed class-aware admission and entered the fair
    /// workqueue.
    26 SessionAdmit { tenant: u64, session: u64 } => "trace.session_admits",
    /// The session finished; `latency_ns` is completion minus arrival in
    /// virtual time (queueing included — client-observed latency).
    27 SessionComplete { tenant: u64, latency_ns: u64 } => "trace.session_completes",
    /// Class-aware admission shed a session of `tenant` at arrival; the
    /// tenant's QoS class identifies which headroom limit it overran.
    28 TenantThrottled { tenant: u64, class: QosClass } => "trace.tenant_throttleds",
    /// The fault plane started a fail-slow (gray) degradation. Emitted
    /// once at onset — the slowdown itself is silent after this, unlike
    /// the per-poll [`TraceEvent::FaultInjected`] stream.
    29 FailSlowInjected { fault: InjectedFault, factor: u64 } => "trace.fail_slows",
    /// The per-pool health detector moved pool `pool` between states of
    /// `Healthy → Suspect → Quarantined → Probation → Healthy`.
    30 HealthTransition { pool: u64, from: PoolHealthState, to: PoolHealthState }
        => "trace.health_transitions",
    /// Pushdown `call` ran past the hedge delay; a hedge leg was issued.
    31 HedgeFired { call: u64 } => "trace.hedges_fired",
    /// The hedge leg of pushdown `call` finished first; the primary leg
    /// was cancelled (or its result discarded).
    32 HedgeWon { call: u64 } => "trace.hedges_won",
    /// Pushdown `call` blew its deadline budget by `over_ns`.
    33 DeadlineExceeded { call: u64, over_ns: u64 } => "trace.deadline_exceededs",
    /// A quarantined pool passed its probe streak and rejoined placement.
    34 PoolReintegrated { pool: u64 } => "trace.pool_reintegrations",
    /// Pool `pool` crashed: its volatile state (residency, dirty bits,
    /// pins) is gone. `epoch` is the epoch the pool held when it died —
    /// any in-flight interaction stamped with it is now stale.
    35 PoolCrashed { pool: u64, epoch: u64 } => "trace.pool_crashes",
    /// Recovery replayed `entries` journal entries over the restarted
    /// pool's SSD-authoritative base, re-fetching `pages` distinct pages.
    36 JournalReplayed { entries: u64, pages: u64 } => "trace.journal_replays",
    /// Replay found a checksum-invalid (torn) journal tail and discarded
    /// it: `entries` entries covering `pages` page writes never applied.
    37 TornTailDiscarded { entries: u64, pages: u64 } => "trace.torn_tails",
    /// Pool `pool` finished recovery and is back online at `epoch`
    /// (strictly greater than any epoch the pool ever held before).
    38 PoolRestarted { pool: u64, epoch: u64 } => "trace.pool_restarts",
    /// A write or ack carrying `stale_epoch` reached pool `pool` after an
    /// epoch bump fenced it off; the interaction was rejected, not applied.
    39 FencedWrite { pool: u64, stale_epoch: u64 } => "trace.fenced_writes",
    /// A rejoining standby finished re-silvering: `pages` pages of catch-up
    /// replication traffic brought it level with the current primary.
    40 ResilverComplete { pool: u64, pages: u64 } => "trace.resilver_completes",
}

// Tags strictly ascend: nothing out of order, nothing repeated.
const _: () = {
    let mut i = 1;
    while i < EVENT_KINDS {
        assert!(
            (EventKind::ALL[i - 1] as usize) < EventKind::ALL[i] as usize,
            "event tags must strictly ascend"
        );
        i += 1;
    }
};

/// One past the last tag: the per-kind counts are indexed by tag, retired
/// tags included.
const TAG_LIMIT: usize = EventKind::ALL[EVENT_KINDS - 1] as usize + 1;

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

/// Records the ring keeps unless [`Tracer::set_ring_capacity`] says
/// otherwise: 4 096 of 32 bytes, 128 KiB, a debugging tail small enough to
/// stay in a core's L2 cache while a long traced run streams through it (a
/// ring as large as L2 evicts the simulator's own tables on every lap).
/// Nothing a run reports reads the ring: the digest, `len` and the per-kind
/// counts cover the whole stream however short the ring is.
const DEFAULT_RING_CAPACITY: usize = 1 << 12;

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

/// The page-integrity seal: a 64-bit checksum of a page image, taken just
/// before injected corruption lands on it and compared when the image then
/// crosses a pool boundary or a scrub pass reaches it.
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
        lane: LANES[(lane_tag >> 8) as usize],
        event: TraceEvent::from_digest_words([lane_tag & 0xff, a, b]),
    }
}

/// What every handle reads on every emit, in one allocation: the
/// recording switch and one count per tag.
struct Counts {
    enabled: Cell<bool>,
    by_tag: [Cell<u64>; TAG_LIMIT],
}

/// The recorded stream: kept only while tracing is on.
struct TraceBuf {
    next_seq: u64,
    digest: u64,
    ring: VecDeque<Packed>,
    capacity: usize,
    sink: Option<Box<dyn TraceSink>>,
}

impl TraceBuf {
    fn new() -> Self {
        TraceBuf {
            next_seq: 0,
            digest: FNV_OFFSET,
            ring: VecDeque::new(),
            capacity: DEFAULT_RING_CAPACITY,
            sink: None,
        }
    }

    fn reset(&mut self) {
        self.next_seq = 0;
        self.digest = FNV_OFFSET;
        self.ring.clear();
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
    counts: Rc<Counts>,
    clock: Clock,
    buf: Rc<RefCell<TraceBuf>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("events", &self.buf.borrow().next_seq)
            .finish()
    }
}

impl Tracer {
    /// A tracer stamping records with `clock`. Starts disabled.
    pub fn new(clock: Clock) -> Self {
        Tracer {
            counts: Rc::new(Counts {
                enabled: Cell::new(false),
                by_tag: std::array::from_fn(|_| Cell::new(0)),
            }),
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
        self.counts.enabled.get()
    }

    /// Start recording. Emission while disabled is a count increment and
    /// a single branch.
    pub fn enable(&self) {
        self.counts.enabled.set(true);
    }

    /// Count one event and, while tracing is on, record it. The fast path
    /// (tracing disabled) is one increment of its kind's count and one
    /// load of the shared switch beside it.
    #[inline]
    pub fn emit(&self, lane: Lane, event: TraceEvent) {
        self.emit_with(lane, event.kind(), || event);
    }

    /// [`Tracer::emit`] for an event that costs work to build: `kind` is
    /// counted always, and `event` (which must be of that kind) is built
    /// and recorded only while tracing is on.
    #[inline]
    pub fn emit_with(&self, lane: Lane, kind: EventKind, event: impl FnOnce() -> TraceEvent) {
        // The tag is the `EventKind` discriminant.
        let count = &self.counts.by_tag[kind as usize];
        count.set(count.get() + 1);
        if self.is_enabled() {
            self.emit_slow(lane, event());
        }
    }

    #[cold]
    fn emit_slow(&self, lane: Lane, event: TraceEvent) {
        let at = self.clock.now();
        let [tag, a, b] = event.digest_words();
        let mut buf = self.buf.borrow_mut();
        let seq = buf.next_seq;
        buf.next_seq += 1;
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

    /// Events recorded since the last reset.
    pub fn len(&self) -> u64 {
        self.buf.borrow().next_seq
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events of one kind emitted since the last reset, whether or not
    /// tracing recorded them: the count every metric of that kind reads.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts.by_tag[kind as usize].get()
    }

    /// Snapshot of the retained ring: the newest
    /// `min(len(), ring_capacity())` records, oldest first.
    pub fn events(&self) -> Vec<TraceRecord> {
        self.buf.borrow().records().collect()
    }

    /// How many records the ring retains.
    pub fn ring_capacity(&self) -> usize {
        self.buf.borrow().capacity
    }

    /// Resize the ring: the newest `capacity` records already kept stay,
    /// in order, and the rest are dropped oldest-first. The default, 4 096
    /// records, is a debugging tail; a caller that wants a longer window
    /// sets it here before the run, or installs a sink
    /// ([`Tracer::set_sink`]), which sees every record. The digest and
    /// counts are unaffected: they always cover the full stream.
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

    /// Drop all recorded state (ring, digest, sequence numbers) and zero
    /// the counts. Enablement, capacity, and the sink survive. Called by
    /// `begin_timing` so traces and counts cover exactly the timed window.
    pub fn reset(&self) {
        self.buf.borrow_mut().reset();
        self.counts.by_tag.iter().for_each(|count| count.set(0));
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
    fn disabled_tracer_records_nothing_but_counts() {
        let (_, t) = tracer();
        t.emit(Lane::Compute, TraceEvent::PushdownStep { step: 1 });
        assert_eq!(t.len(), 0);
        assert!(t.events().is_empty());
        assert_eq!(t.count(EventKind::PushdownStep), 1);
        let empty_digest = t.digest();
        t.enable();
        t.emit(Lane::Compute, TraceEvent::PushdownStep { step: 1 });
        assert_eq!(t.len(), 1);
        assert_ne!(t.digest(), empty_digest);
        assert_eq!(t.count(EventKind::PushdownStep), 2);
        t.reset();
        assert_eq!(t.count(EventKind::PushdownStep), 0, "reset zeroes counts");
    }

    #[test]
    fn emit_with_builds_its_event_only_while_recording() {
        let (_, t) = tracer();
        let event = || TraceEvent::Cancel { req: 7 };
        t.emit_with(Lane::Compute, EventKind::Cancel, || {
            unreachable!("built while off")
        });
        assert_eq!(t.count(EventKind::Cancel), 1);
        t.enable();
        t.emit_with(Lane::Compute, EventKind::Cancel, event);
        assert_eq!(t.count(EventKind::Cancel), 2);
        assert_eq!(t.events()[0].event, event());
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

    const WIDE: u64 = 0xfedc_ba98_7654_3210;
    const OTHER: u64 = 0x0123_4567_89ab_cdef;

    macro_rules! pins {
        ($($ev:expr => $words:expr,)+) => { [$(($ev, $words)),+] };
    }

    /// One sample of every kind, in tag order, beside the `[tag, a, b]` it
    /// packs to — copied by hand from the `digest_words()` arms the table
    /// replaced. Payloads are as wide as their fields, and an event's two
    /// words differ, so a swapped field order, a narrowed field and a
    /// renumbered row each show up here (the digest pins only cover the
    /// kinds their scenarios emit).
    fn pinned_samples() -> [(TraceEvent, [u64; 3]); EVENT_KINDS] {
        use TraceEvent::*;
        pins! {
            PageFault { vaddr: WIDE, level: FaultLevel::Storage } => [0, WIDE, 2],
            Evict { page: WIDE, dirty: true } => [1, WIDE, 1],
            NetMsg { class: MsgClass::Replication, bytes: WIDE } => [2, 6, WIDE],
            SsdIo { write: true, bytes: WIDE } => [3, 1, WIDE],
            CoherenceMsg { page: WIDE, transition: CoherenceTransition::CompletionSync } => [4, WIDE, 7],
            PushdownStep { step: u8::MAX } => [5, 0xff, 0],
            Syncmem { pages: WIDE } => [6, WIDE, 0],
            Cancel { req: WIDE } => [7, WIDE, 0],
            Timeout { req: WIDE } => [8, WIDE, 0],
            FaultInjected { fault: InjectedFault::TornJournalWrite, magnitude: WIDE } => [9, 15, WIDE],
            Recovery { action: RecoveryAction::HeartbeatRecovered, attempt: u32::MAX } => [10, 3, 0xffff_ffff],
            CancelDeclined { req: WIDE } => [11, WIDE, 0],
            ReplicaShip { seq: WIDE, pages: OTHER } => [12, WIDE, OTHER],
            ReplicaAck { seq: WIDE } => [13, WIDE, 0],
            PoolPromoted { epoch: WIDE, lost_pages: OTHER } => [14, WIDE, OTHER],
            AdmissionShed { backlog_ns: WIDE } => [15, WIDE, 0],
            CorruptionInjected { page: WIDE, offset: OTHER } => [16, WIDE, OTHER],
            ChecksumMismatch { page: WIDE } => [17, WIDE, 0],
            PageRepaired { page: WIDE, source: RepairSource::Replica } => [18, WIDE, 1],
            DataLoss { page: WIDE } => [19, WIDE, 0],
            ScrubPass { pages: WIDE, detected: OTHER } => [20, WIDE, OTHER],
            PoolRouted { pool: WIDE, pages: OTHER } => [22, WIDE, OTHER],
            PushdownFanout { pools: WIDE, pages: OTHER } => [23, WIDE, OTHER],
            FanoutMerge { pools: WIDE } => [24, WIDE, 0],
            SessionArrive { tenant: WIDE, session: OTHER } => [25, WIDE, OTHER],
            SessionAdmit { tenant: WIDE, session: OTHER } => [26, WIDE, OTHER],
            SessionComplete { tenant: WIDE, latency_ns: OTHER } => [27, WIDE, OTHER],
            TenantThrottled { tenant: WIDE, class: QosClass::BestEffort } => [28, WIDE, 2],
            FailSlowInjected { fault: InjectedFault::GrindingSsd, factor: WIDE } => [29, 13, WIDE],
            HealthTransition {
                pool: WIDE,
                from: PoolHealthState::Quarantined,
                to: PoolHealthState::Probation,
            } => [30, WIDE, 2 << 2 | 3],
            HedgeFired { call: WIDE } => [31, WIDE, 0],
            HedgeWon { call: WIDE } => [32, WIDE, 0],
            DeadlineExceeded { call: WIDE, over_ns: OTHER } => [33, WIDE, OTHER],
            PoolReintegrated { pool: WIDE } => [34, WIDE, 0],
            PoolCrashed { pool: WIDE, epoch: OTHER } => [35, WIDE, OTHER],
            JournalReplayed { entries: WIDE, pages: OTHER } => [36, WIDE, OTHER],
            TornTailDiscarded { entries: WIDE, pages: OTHER } => [37, WIDE, OTHER],
            PoolRestarted { pool: WIDE, epoch: OTHER } => [38, WIDE, OTHER],
            FencedWrite { pool: WIDE, stale_epoch: OTHER } => [39, WIDE, OTHER],
            ResilverComplete { pool: WIDE, pages: OTHER } => [40, WIDE, OTHER],
        }
    }

    #[test]
    fn digest_words_of_every_kind_are_pinned() {
        for (ev, words) in pinned_samples() {
            assert_eq!(ev.kind() as u64, words[0], "{ev:?}");
            assert_eq!(ev.digest_words(), words, "{ev:?}");
            assert_eq!(TraceEvent::from_digest_words(words), ev);
        }
    }

    #[test]
    fn tags_ascend_and_metric_names_are_distinct() {
        let mut names = std::collections::BTreeSet::new();
        for pair in EventKind::ALL.windows(2) {
            assert!((pair[0] as usize) < pair[1] as usize, "{pair:?}");
        }
        for kind in EventKind::ALL {
            let name = kind.metric_name();
            assert!(name.starts_with("trace."), "{kind:?} reports as {name}");
            assert!(names.insert(name), "{name} is reported by two kinds");
        }
        assert_eq!(names.len(), EVENT_KINDS);
    }

    /// The pinned samples, then every variant of every payload enum and
    /// both values of every flag.
    fn every_event() -> Vec<TraceEvent> {
        let mut evs: Vec<TraceEvent> = pinned_samples().into_iter().map(|(ev, _)| ev).collect();
        for dirty in [false, true] {
            evs.push(TraceEvent::Evict { page: 3, dirty });
            evs.push(TraceEvent::SsdIo {
                write: dirty,
                bytes: 4096,
            });
        }
        for &level in FaultLevel::VARIANTS {
            evs.push(TraceEvent::PageFault { vaddr: WIDE, level });
        }
        for class in MSG_CLASSES {
            evs.push(TraceEvent::NetMsg { class, bytes: WIDE });
        }
        for &transition in CoherenceTransition::VARIANTS {
            evs.push(TraceEvent::CoherenceMsg {
                page: WIDE,
                transition,
            });
        }
        for &fault in InjectedFault::VARIANTS {
            evs.push(TraceEvent::FaultInjected {
                fault,
                magnitude: WIDE,
            });
            evs.push(TraceEvent::FailSlowInjected {
                fault,
                factor: WIDE,
            });
        }
        for &action in RecoveryAction::VARIANTS {
            evs.push(TraceEvent::Recovery { action, attempt: 1 });
        }
        for &source in RepairSource::VARIANTS {
            evs.push(TraceEvent::PageRepaired { page: WIDE, source });
        }
        for class in QOS_CLASSES {
            evs.push(TraceEvent::TenantThrottled {
                tenant: WIDE,
                class,
            });
        }
        for &from in PoolHealthState::VARIANTS {
            for &to in PoolHealthState::VARIANTS {
                evs.push(TraceEvent::HealthTransition {
                    pool: WIDE,
                    from,
                    to,
                });
            }
        }
        evs
    }

    #[test]
    fn every_payload_variant_round_trips_through_its_digest_words() {
        for ev in every_event() {
            let words = ev.digest_words();
            assert_eq!(words[0], ev.kind() as u64, "{ev:?}: tag is not its kind");
            assert_eq!(TraceEvent::from_digest_words(words), ev);
        }
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

    /// Shrink a wrapped ring, let it wrap again, grow it, fill it, empty
    /// it: after each resize it holds the newest records a sink saw, in
    /// order.
    #[test]
    fn wrapped_ring_resized_mid_stream_keeps_its_newest_records() {
        let (clock, t) = tracer();
        t.enable();
        t.set_ring_capacity(8);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        t.set_sink(move |rec: &TraceRecord| seen2.borrow_mut().push(*rec));
        let evs = every_event();
        let emit = |n: usize| {
            for _ in 0..n {
                let i = t.len() as usize;
                clock.advance(SimDuration::from_nanos(7 + i as u64));
                t.emit(LANES[i % LANES.len()], evs[i % evs.len()]);
            }
        };
        let newest = |n: usize| {
            let seen = seen.borrow();
            seen[seen.len() - n..].to_vec()
        };
        // (records emitted, capacity set after them, records the ring holds)
        for (emitted, capacity, held) in [
            (13, 5, 5),
            (3, 12, 5),
            (4, 12, 9),
            (10, 3, 3),
            (2, 0, 0),
            (2, 4, 0),
            (6, 4, 4),
        ] {
            emit(emitted);
            t.set_ring_capacity(capacity);
            assert_eq!(t.ring_capacity(), capacity);
            assert_eq!(
                t.events(),
                newest(held),
                "{} emitted, ring {capacity}",
                t.len()
            );
        }
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
    fn metrics_registry_is_sorted_and_last_set_wins() {
        let mut m = MetricsRegistry::new();
        m.set("paging.cache_hits", 10);
        m.set("net.page_in.messages", 2);
        m.set("net.page_in.messages", 5);
        assert_eq!(m.get("net.page_in.messages"), Some(5));
        assert_eq!(m.get("missing"), None);
        let names: Vec<_> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["net.page_in.messages", "paging.cache_hits"]);
        assert_eq!(m.render().lines().count(), 2);
    }
}
