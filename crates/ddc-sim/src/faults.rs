//! Deterministic fault-injection plane.
//!
//! A [`FaultPlan`] is a declarative schedule of faults — some scheduled on
//! windows of *virtual* time, some probabilistic, some pinned to a specific
//! pushdown call — plus a PRNG seed. A [`FaultInjector`] executes the plan:
//! the fabric, the SSD, and the TELEPORT runtime poll it at their own
//! decision points, and every injected fault is emitted as a typed
//! [`TraceEvent::FaultInjected`] on the shared trace stream.
//!
//! Determinism is the whole point. The simulation is single-threaded on one
//! virtual clock, the plan is data, and all randomness flows from the
//! seeded [`rand::rngs::StdRng`] in plan order of the polling sites — so an
//! identical `(plan, seed)` pair reproduces the identical fault sequence
//! and, with tracing enabled, a byte-identical trace digest. PRNG draws
//! happen whether or not tracing is enabled (fault decisions change
//! simulated time; observation never does).
//!
//! The CI chaos job pins `TELEPORT_FAULT_SEED`; [`env_seed`] is the
//! conventional way for tests and examples to honor it.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::Clock;
use crate::config::PAGE_SIZE;
use crate::time::{SimDuration, SimTime};
use crate::trace::{InjectedFault, Lane, TraceEvent, Tracer};

/// The end of a window that never closes (permanent faults).
pub const FOREVER: SimTime = SimTime(u64::MAX);

/// One scheduled or probabilistic fault. Windows are half-open
/// `[from, until)` on virtual time; `until == FOREVER` never heals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Every fabric send inside the window pays `extra` on the wire.
    FabricLatencySpike {
        from: SimTime,
        until: SimTime,
        extra: SimDuration,
    },
    /// The fabric is unreachable inside the window: a send stalls until the
    /// partition heals before it crosses. `until == FOREVER` is a partition
    /// that never heals — the primary memory pool is unreachable for good,
    /// which the heartbeat path treats exactly like permanent pool death
    /// (sends don't stall forever; the pool is declared dead instead).
    FabricPartition { from: SimTime, until: SimTime },
    /// Each SSD operation inside the window fails transiently with
    /// probability `p`; the device layer retries it once (double cost).
    SsdTransientError {
        from: SimTime,
        until: SimTime,
        p: f64,
    },
    /// SSD operations inside the window take `factor`× their normal time.
    SsdLatencyStorm {
        from: SimTime,
        until: SimTime,
        factor: u32,
    },
    /// Memory-pool heartbeats inside the window go unanswered. A window
    /// shorter than `(missed_threshold - 1) × interval` is a survivable
    /// flap; `until == FOREVER` is permanent pool death (kernel panic, or
    /// a failover when a replica pool is configured). In a multi-pool rack
    /// this targets pool 0 (the legacy single-pool shape); use
    /// [`FaultSpec::PoolDeath`] to kill a specific shard.
    HeartbeatFlap { from: SimTime, until: SimTime },
    /// Pool `pool` of a multi-pool rack permanently stops answering
    /// heartbeats at `from`. The per-pool generalization of
    /// `memory_pool_death`: only the targeted shard dies; the others keep
    /// serving their pages.
    PoolDeath { pool: usize, from: SimTime },
    /// The first pushdown that enqueues inside the window finds `backlog`
    /// of other tenants' work ahead of it (one burst per window).
    QueueBacklogBurst {
        from: SimTime,
        until: SimTime,
        backlog: SimDuration,
    },
    /// Pushdown call number `call` (0-based, counted across all platforms)
    /// raises an exception in the pushed function.
    PushdownException { call: u64 },
    /// Each pushdown call inside the window raises an exception with
    /// probability `p`.
    PushdownExceptionProb {
        from: SimTime,
        until: SimTime,
        p: f64,
    },
    /// Pushdown call number `call` hangs until the kill timeout fires.
    PushdownHang { call: u64 },
    /// Each page crossing the fabric inside the window is bit-flipped in
    /// flight with probability `p` (the corrupted image is what arrives).
    FabricBitFlip {
        from: SimTime,
        until: SimTime,
        p: f64,
    },
    /// Each SSD page read inside the window returns latent-sector-rotted
    /// bytes with probability `p` (a torn write discovered at read time).
    SsdLatentSector {
        from: SimTime,
        until: SimTime,
        p: f64,
    },
    /// Each page image landing in the memory pool inside the window is
    /// scribbled over with probability `p` (silent in-pool corruption,
    /// discovered only at the next read or scrub).
    PoolScribble {
        from: SimTime,
        until: SimTime,
        p: f64,
    },
    /// Fail-slow: pool `pool` keeps answering, but every memory-side
    /// service inside the window (kernel work, pushdown DRAM touches,
    /// reintegration probes) takes `factor`× its normal time. The pool
    /// never misses a heartbeat — this is a brownout, not a blackout.
    DegradedPool {
        pool: usize,
        from: SimTime,
        until: SimTime,
        factor: u32,
    },
    /// Fail-slow: every fabric send inside the window takes `factor`× its
    /// normal wire time. Distinct from [`FaultSpec::FabricLatencySpike`],
    /// which *adds* a fixed surcharge: a lame link scales with message
    /// size, so bulk transfers hurt the most.
    LameFabricLink {
        from: SimTime,
        until: SimTime,
        factor: u32,
    },
    /// Fail-slow: every SSD operation inside the window takes `factor`×
    /// its normal time. Unlike [`FaultSpec::SsdLatencyStorm`] (a bounded
    /// transient traced per-operation), a grinding SSD is a *gray*
    /// degradation: one onset event, then silent slowness.
    GrindingSsd {
        from: SimTime,
        until: SimTime,
        factor: u32,
    },
    /// Pool `pool` crashes at `at` — its volatile state (residency, dirty
    /// bits, pins) is wiped — and restarts `down_for` later. Unlike
    /// [`FaultSpec::PoolDeath`] the pool comes back: recovery rebuilds it
    /// from the SSD-authoritative base plus a replay of its journal, and
    /// a shard whose replica was promoted meanwhile rejoins as a standby.
    PoolCrashRestart {
        pool: usize,
        at: SimTime,
        down_for: SimDuration,
    },
    /// The crash of pool `pool` at or after `at` tears the un-synced tail
    /// of its recovery journal: the partial write fails checksum at
    /// replay time and the tail is discarded (never silently applied).
    /// Only meaningful alongside a [`FaultSpec::PoolCrashRestart`].
    TornJournalWrite { pool: usize, at: SimTime },
}

impl FaultSpec {
    fn window_active(from: SimTime, until: SimTime, now: SimTime) -> bool {
        from <= now && now < until
    }

    /// The one door into a plan: [`FaultPlan::with`] (and so every builder)
    /// and [`FaultInjector::add_spec`] pass each spec through here. A
    /// probability lies in `[0, 1]` — anything else would panic inside the
    /// PRNG in the middle of a run — and a slowdown factor is at least 1,
    /// since a factor of 0 makes the "degraded" device free. Panics at
    /// construction time otherwise.
    fn validate(&self) {
        let (ok, why) = match *self {
            FaultSpec::SsdTransientError { p, .. }
            | FaultSpec::PushdownExceptionProb { p, .. }
            | FaultSpec::FabricBitFlip { p, .. }
            | FaultSpec::SsdLatentSector { p, .. }
            | FaultSpec::PoolScribble { p, .. } => {
                ((0.0..=1.0).contains(&p), "probability out of range")
            }
            FaultSpec::SsdLatencyStorm { factor, .. } => {
                (factor >= 1, "a storm slows the device down")
            }
            FaultSpec::DegradedPool { factor, .. } => (factor >= 1, "a degraded pool slows down"),
            FaultSpec::LameFabricLink { factor, .. } => (factor >= 1, "a lame link slows down"),
            FaultSpec::GrindingSsd { factor, .. } => (factor >= 1, "a grinding device slows down"),
            FaultSpec::FabricLatencySpike { .. }
            | FaultSpec::FabricPartition { .. }
            | FaultSpec::HeartbeatFlap { .. }
            | FaultSpec::PoolDeath { .. }
            | FaultSpec::QueueBacklogBurst { .. }
            | FaultSpec::PushdownException { .. }
            | FaultSpec::PushdownHang { .. }
            | FaultSpec::PoolCrashRestart { .. }
            | FaultSpec::TornJournalWrite { .. } => return,
        };
        assert!(ok, "{why}: {self:?}");
    }

    /// The one injector poll that reads this spec.
    fn poll(&self) -> Poll {
        match *self {
            FaultSpec::FabricLatencySpike { .. } => Poll::FabricPenalty,
            // A partition that heals stalls sends; one that never does is
            // pool death, judged by the heartbeat path.
            FaultSpec::FabricPartition { until, .. } if until != FOREVER => Poll::FabricPenalty,
            FaultSpec::FabricPartition { .. }
            | FaultSpec::HeartbeatFlap { .. }
            | FaultSpec::PoolDeath { .. } => Poll::PoolDown,
            FaultSpec::SsdTransientError { .. }
            | FaultSpec::SsdLatencyStorm { .. }
            | FaultSpec::GrindingSsd { .. } => Poll::Ssd,
            FaultSpec::QueueBacklogBurst { .. } => Poll::QueueBurst,
            FaultSpec::PushdownException { .. }
            | FaultSpec::PushdownExceptionProb { .. }
            | FaultSpec::PushdownHang { .. } => Poll::Pushdown,
            FaultSpec::FabricBitFlip { .. } => Poll::CorruptFabric,
            FaultSpec::SsdLatentSector { .. } => Poll::CorruptSsd,
            FaultSpec::PoolScribble { .. } => Poll::CorruptPool,
            FaultSpec::DegradedPool { .. } => Poll::PoolSlowdown,
            FaultSpec::LameFabricLink { .. } => Poll::FabricSlowdown,
            FaultSpec::PoolCrashRestart { .. } => Poll::PoolCrash,
            FaultSpec::TornJournalWrite { .. } => Poll::TornTail,
        }
    }
}

/// The injector's poll families, one per decision point that walks the
/// plan. Each spec is read by exactly one ([`FaultSpec::poll`]), so a poll
/// visits only its own specs instead of the whole plan.
#[derive(Debug, Clone, Copy)]
enum Poll {
    FabricPenalty,
    FabricSlowdown,
    Ssd,
    PoolSlowdown,
    PoolDown,
    PoolCrash,
    TornTail,
    QueueBurst,
    CorruptFabric,
    CorruptSsd,
    CorruptPool,
    Pushdown,
}

const POLLS: usize = Poll::Pushdown as usize + 1;

/// A seeded, declarative schedule of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan. `seed` drives every probabilistic decision.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Add an arbitrary spec (the builder methods below cover the common
    /// shapes, and all go through here). Panics on a probability outside
    /// `[0, 1]` or a slowdown factor of 0.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        spec.validate();
        self.specs.push(spec);
        self
    }

    pub fn fabric_latency_spike(self, from: SimTime, until: SimTime, extra: SimDuration) -> Self {
        self.with(FaultSpec::FabricLatencySpike { from, until, extra })
    }

    /// A fabric partition over `[from, until)`. A finite window stalls
    /// every send until it heals; `until == FOREVER` never heals and is
    /// treated as pool death by the heartbeat path (see
    /// [`FaultSpec::FabricPartition`]).
    pub fn fabric_partition(self, from: SimTime, until: SimTime) -> Self {
        self.with(FaultSpec::FabricPartition { from, until })
    }

    pub fn ssd_transient_errors(self, from: SimTime, until: SimTime, p: f64) -> Self {
        self.with(FaultSpec::SsdTransientError { from, until, p })
    }

    pub fn ssd_latency_storm(self, from: SimTime, until: SimTime, factor: u32) -> Self {
        self.with(FaultSpec::SsdLatencyStorm {
            from,
            until,
            factor,
        })
    }

    pub fn heartbeat_flap(self, from: SimTime, until: SimTime) -> Self {
        self.with(FaultSpec::HeartbeatFlap { from, until })
    }

    pub fn memory_pool_death(self, from: SimTime) -> Self {
        self.with(FaultSpec::HeartbeatFlap {
            from,
            until: FOREVER,
        })
    }

    /// Permanently kill pool `pool` of a multi-pool rack at `from`.
    /// `pool_death(0, t)` is equivalent to `memory_pool_death(t)`.
    pub fn pool_death(self, pool: usize, from: SimTime) -> Self {
        self.with(FaultSpec::PoolDeath { pool, from })
    }

    pub fn queue_backlog_burst(self, from: SimTime, until: SimTime, backlog: SimDuration) -> Self {
        self.with(FaultSpec::QueueBacklogBurst {
            from,
            until,
            backlog,
        })
    }

    pub fn pushdown_exception(self, call: u64) -> Self {
        self.with(FaultSpec::PushdownException { call })
    }

    pub fn pushdown_exceptions_prob(self, from: SimTime, until: SimTime, p: f64) -> Self {
        self.with(FaultSpec::PushdownExceptionProb { from, until, p })
    }

    pub fn pushdown_hang(self, call: u64) -> Self {
        self.with(FaultSpec::PushdownHang { call })
    }

    pub fn fabric_bit_flips(self, from: SimTime, until: SimTime, p: f64) -> Self {
        self.with(FaultSpec::FabricBitFlip { from, until, p })
    }

    pub fn ssd_latent_sectors(self, from: SimTime, until: SimTime, p: f64) -> Self {
        self.with(FaultSpec::SsdLatentSector { from, until, p })
    }

    pub fn pool_scribbles(self, from: SimTime, until: SimTime, p: f64) -> Self {
        self.with(FaultSpec::PoolScribble { from, until, p })
    }

    /// Fail-slow pool `pool`: memory-side service there takes `factor`×
    /// its normal time over `[from, until)` while heartbeats stay healthy.
    pub fn degraded_pool(self, pool: usize, from: SimTime, until: SimTime, factor: u32) -> Self {
        self.with(FaultSpec::DegradedPool {
            pool,
            from,
            until,
            factor,
        })
    }

    /// Fail-slow fabric: every send over `[from, until)` takes `factor`×
    /// its normal wire time (multiplicative, unlike the additive spike).
    pub fn lame_fabric_link(self, from: SimTime, until: SimTime, factor: u32) -> Self {
        self.with(FaultSpec::LameFabricLink {
            from,
            until,
            factor,
        })
    }

    /// Fail-slow SSD: every device operation over `[from, until)` takes
    /// `factor`× its normal time, with a single traced onset.
    pub fn grinding_ssd(self, from: SimTime, until: SimTime, factor: u32) -> Self {
        self.with(FaultSpec::GrindingSsd {
            from,
            until,
            factor,
        })
    }

    /// Crash pool `pool` at `at`, wiping its volatile state, and restart
    /// it `down_for` later. Recovery replays the pool's journal over the
    /// SSD-authoritative base; a shard whose replica was promoted in the
    /// interim rejoins as a standby instead of resuming as primary.
    pub fn pool_crash_restart(self, pool: usize, at: SimTime, down_for: SimDuration) -> Self {
        self.with(FaultSpec::PoolCrashRestart { pool, at, down_for })
    }

    /// Tear the un-synced journal tail of pool `pool` when it crashes at
    /// or after `at`: replay detects the checksum mismatch and discards
    /// the tail instead of applying a partial write.
    pub fn torn_journal_write(self, pool: usize, at: SimTime) -> Self {
        self.with(FaultSpec::TornJournalWrite { pool, at })
    }
}

/// Seed from the `TELEPORT_FAULT_SEED` environment variable when set (and
/// parseable as u64), otherwise `default`. CI pins the variable so chaos
/// runs are reproducible across the fleet.
pub fn env_seed(default: u64) -> u64 {
    std::env::var("TELEPORT_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// What the fault plane did to one SSD operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdDisruption {
    /// The operation failed once and was retried by the device layer.
    pub transient_error: bool,
    /// Slowdown multiplier (1 = no storm).
    pub storm_factor: u32,
    /// Fail-slow grind multiplier (1 = healthy device); compounds with
    /// the storm factor.
    pub grind_factor: u32,
}

impl Default for SsdDisruption {
    fn default() -> Self {
        SsdDisruption {
            transient_error: false,
            storm_factor: 1,
            grind_factor: 1,
        }
    }
}

/// Where on the compute↔memory↔storage path a corruption poll happens.
/// Each point maps to one corruption [`FaultSpec`] kind, so a plan can
/// target exactly one crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionPoint {
    /// A page image crossing the fabric (polled on delivery).
    Fabric,
    /// A page read from the SSD (polled on the read path).
    Ssd,
    /// A page image landing in the memory pool (polled on write-back).
    Pool,
}

/// One injected byte-level corruption of a page: XOR `mask` into the byte
/// at `offset`. The mask is drawn nonzero, so a corruption always changes
/// the page image (and XOR-ing the mask again restores it exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corruption {
    /// Byte offset within the page, `0..PAGE_SIZE`.
    pub offset: usize,
    /// Nonzero XOR mask applied to that byte.
    pub mask: u8,
}

/// A checksum verification failed: the page's bytes no longer match the
/// checksum taken before the corruption landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityError {
    /// The page whose image is corrupt.
    pub page: u64,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checksum mismatch on page {}", self.page)
    }
}

impl std::error::Error for IntegrityError {}

/// What the fault plane did to one pushdown call's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushdownDisruption {
    /// The pushed function raises an exception.
    Exception,
    /// The pushed function never completes; the kernel kills it after the
    /// conservative timeout.
    Hang,
}

#[derive(Debug)]
struct InjectorState {
    plan: FaultPlan,
    rng: StdRng,
    /// Spec indices of faults no longer eligible to fire (or to trace):
    /// one-shot queue bursts that already fired, pool-death specs retired
    /// by a failover (they killed the old pool, not the promoted one),
    /// and fail-slow specs whose onset event was already emitted.
    fired: Vec<bool>,
    /// Per [`Poll`], the indices of the specs it reads — ascending, so a
    /// poll meets its specs in plan order and PRNG draws, `note` order and
    /// the trace digest are those of a walk over the whole plan.
    by_poll: [Vec<usize>; POLLS],
    injected: u64,
}

impl InjectorState {
    fn push_spec(&mut self, spec: FaultSpec) {
        self.by_poll[spec.poll() as usize].push(self.plan.specs.len());
        self.plan.specs.push(spec);
        self.fired.push(false);
    }
}

/// A cloneable executor of one [`FaultPlan`]. The fabric, the SSD, and the
/// runtime poll it at their decision points; it reads the shared virtual
/// clock, draws from the seeded PRNG, and emits
/// [`TraceEvent::FaultInjected`] records for every fault it injects.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    clock: Clock,
    tracer: Tracer,
    inner: Rc<RefCell<InjectorState>>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, clock: Clock, tracer: Tracer) -> Self {
        let mut st = InjectorState {
            plan: FaultPlan::new(plan.seed),
            rng: StdRng::seed_from_u64(plan.seed),
            fired: Vec::new(),
            by_poll: Default::default(),
            injected: 0,
        };
        for spec in plan.specs {
            st.push_spec(spec);
        }
        FaultInjector {
            clock,
            tracer,
            inner: Rc::new(RefCell::new(st)),
        }
    }

    /// Snapshot of the plan being executed.
    pub fn plan(&self) -> FaultPlan {
        self.inner.borrow().plan.clone()
    }

    /// Total faults injected so far.
    pub fn injected_count(&self) -> u64 {
        self.inner.borrow().injected
    }

    /// Append a spec to the running plan (used by the runtime's legacy
    /// one-shot `inject_*` helpers), checked as [`FaultPlan::with`] checks.
    pub fn add_spec(&self, spec: FaultSpec) {
        spec.validate();
        self.inner.borrow_mut().push_spec(spec);
    }

    /// Walk the specs `poll` reads as `(plan index, spec)`, in plan order,
    /// copying each out under a borrow that ends before the caller's loop
    /// body runs — so the body is free to draw the PRNG or note a hit. A
    /// poll nothing in the plan feeds ends after one length test.
    fn specs(&self, poll: Poll) -> impl Iterator<Item = (usize, FaultSpec)> + '_ {
        (0..).map_while(move |k| {
            let st = self.inner.borrow();
            let &i = st.by_poll[poll as usize].get(k)?;
            Some((i, st.plan.specs[i]))
        })
    }

    fn note(&self, lane: Lane, fault: InjectedFault, magnitude: u64) {
        self.inner.borrow_mut().injected += 1;
        self.tracer
            .emit(lane, TraceEvent::FaultInjected { fault, magnitude });
    }

    /// Trace the *onset* of fail-slow spec `i` exactly once. The slowdown
    /// keeps applying on every poll, but a gray failure is one event, not
    /// a stream — otherwise the digest would scale with poll count.
    fn note_fail_slow_once(&self, i: usize, lane: Lane, fault: InjectedFault, factor: u32) {
        {
            let mut st = self.inner.borrow_mut();
            if st.fired[i] {
                return;
            }
            st.fired[i] = true;
            st.injected += 1;
        }
        self.tracer.emit(
            lane,
            TraceEvent::FailSlowInjected {
                fault,
                factor: factor as u64,
            },
        );
    }

    /// Extra wire delay for a fabric send issued now: latency spikes add
    /// their surcharge, an active partition stalls the message until it
    /// heals. Called by [`crate::net::Fabric::send`].
    pub fn fabric_penalty(&self) -> SimDuration {
        let now = self.clock.now();
        let mut penalty = SimDuration::ZERO;
        for (_, spec) in self.specs(Poll::FabricPenalty) {
            match spec {
                FaultSpec::FabricLatencySpike { from, until, extra }
                    if FaultSpec::window_active(from, until, now) =>
                {
                    penalty += extra;
                    self.note(
                        Lane::Net,
                        InjectedFault::FabricLatencySpike,
                        extra.as_nanos(),
                    );
                }
                // An open-ended partition is pool death, not a per-message
                // stall: the heartbeat path declares the pool dead instead
                // of every send waiting forever.
                FaultSpec::FabricPartition { from, until }
                    if until != FOREVER && FaultSpec::window_active(from, until, now) =>
                {
                    let stall = until.since(now);
                    penalty += stall;
                    self.note(Lane::Net, InjectedFault::FabricPartition, stall.as_nanos());
                }
                _ => {}
            }
        }
        penalty
    }

    /// Disruption of one SSD operation issued now. Draws the PRNG exactly
    /// once per active probabilistic spec, tracing on or off.
    pub fn ssd_disruption(&self) -> SsdDisruption {
        let now = self.clock.now();
        let mut d = SsdDisruption::default();
        for (i, spec) in self.specs(Poll::Ssd) {
            match spec {
                FaultSpec::SsdTransientError { from, until, p }
                    if FaultSpec::window_active(from, until, now) =>
                {
                    let hit = self.inner.borrow_mut().rng.random_bool(p);
                    if hit {
                        d.transient_error = true;
                        self.note(Lane::Storage, InjectedFault::SsdTransientError, 1);
                    }
                }
                FaultSpec::SsdLatencyStorm {
                    from,
                    until,
                    factor,
                } if FaultSpec::window_active(from, until, now) => {
                    d.storm_factor = d.storm_factor.max(factor);
                    self.note(Lane::Storage, InjectedFault::SsdLatencyStorm, factor as u64);
                }
                FaultSpec::GrindingSsd {
                    from,
                    until,
                    factor,
                } if FaultSpec::window_active(from, until, now) => {
                    d.grind_factor = d.grind_factor.saturating_mul(factor);
                    self.note_fail_slow_once(i, Lane::Storage, InjectedFault::GrindingSsd, factor);
                }
                _ => {}
            }
        }
        d
    }

    /// Service-time multiplier for memory-side work on pool `pool` issued
    /// now (1 = healthy). Overlapping `DegradedPool` windows targeting the
    /// shard compound multiplicatively; each window's onset is traced once.
    pub fn pool_slowdown_for(&self, pool: usize) -> u32 {
        let now = self.clock.now();
        let mut slow: u32 = 1;
        for (i, spec) in self.specs(Poll::PoolSlowdown) {
            if let FaultSpec::DegradedPool {
                pool: p,
                from,
                until,
                factor,
            } = spec
            {
                if p == pool && FaultSpec::window_active(from, until, now) {
                    slow = slow.saturating_mul(factor);
                    self.note_fail_slow_once(i, Lane::Memory, InjectedFault::DegradedPool, factor);
                }
            }
        }
        slow
    }

    /// Wire-time multiplier for a fabric send issued now (1 = healthy).
    /// Multiplicative, unlike the additive
    /// [`FaultInjector::fabric_penalty`]; the two compose.
    pub fn fabric_slowdown(&self) -> u32 {
        let now = self.clock.now();
        let mut slow: u32 = 1;
        for (i, spec) in self.specs(Poll::FabricSlowdown) {
            if let FaultSpec::LameFabricLink {
                from,
                until,
                factor,
            } = spec
            {
                if FaultSpec::window_active(from, until, now) {
                    slow = slow.saturating_mul(factor);
                    self.note_fail_slow_once(i, Lane::Net, InjectedFault::LameFabricLink, factor);
                }
            }
        }
        slow
    }

    /// Whether pool `pool` of the rack fails to answer a heartbeat issued
    /// now: a `HeartbeatFlap` window is active or an open-ended
    /// `FabricPartition` has cut the pool off for good (legacy single-pool
    /// specs, addressing pool 0), or a `PoolDeath` spec targets the shard.
    /// Emits one fault event (of the matching kind) per missed beat. Specs
    /// retired by [`FaultInjector::retire_pool_faults_for`] no longer count.
    pub fn pool_down_now_for(&self, pool: usize) -> bool {
        let now = self.clock.now();
        let mut hit: Option<(InjectedFault, u64)> = None;
        {
            let st = self.inner.borrow();
            for &i in &st.by_poll[Poll::PoolDown as usize] {
                if st.fired[i] {
                    continue;
                }
                match st.plan.specs[i] {
                    FaultSpec::HeartbeatFlap { from, until }
                        if pool == 0 && FaultSpec::window_active(from, until, now) =>
                    {
                        hit = Some((InjectedFault::HeartbeatFlap, 1));
                        break;
                    }
                    FaultSpec::FabricPartition { from, until }
                        if pool == 0
                            && until == FOREVER
                            && FaultSpec::window_active(from, until, now) =>
                    {
                        hit = Some((InjectedFault::FabricPartition, 1));
                        break;
                    }
                    FaultSpec::PoolDeath { pool: p, from }
                        if p == pool && FaultSpec::window_active(from, FOREVER, now) =>
                    {
                        // Reuses the heartbeat-flap trace label: pool death
                        // *is* an unanswered heartbeat, addressed per shard
                        // via the magnitude word.
                        hit = Some((InjectedFault::HeartbeatFlap, pool as u64 + 1));
                        break;
                    }
                    _ => {}
                }
            }
        }
        match hit {
            Some((fault, magnitude)) => {
                self.note(Lane::Memory, fault, magnitude);
                true
            }
            None => false,
        }
    }

    /// Retire the death specs addressing pool `pool` (heartbeat flaps and
    /// open-ended fabric partitions count as pool 0): they killed the *old*
    /// primary, and must not instantly re-kill the backup a failover just
    /// promoted. Called by the runtime when it promotes the shard's replica;
    /// other shards' `PoolDeath` specs stay armed.
    pub fn retire_pool_faults_for(&self, pool: usize) {
        let st = &mut *self.inner.borrow_mut();
        for &i in &st.by_poll[Poll::PoolDown as usize] {
            match st.plan.specs[i] {
                FaultSpec::HeartbeatFlap { .. } if pool == 0 => st.fired[i] = true,
                FaultSpec::FabricPartition { until, .. } if pool == 0 && until == FOREVER => {
                    st.fired[i] = true;
                }
                FaultSpec::PoolDeath { pool: p, .. } if p == pool => st.fired[i] = true,
                _ => {}
            }
        }
    }

    /// Whether pool `pool` crashes *now*: the earliest un-fired
    /// `PoolCrashRestart` spec targeting the shard whose crash time has
    /// arrived fires exactly once, returning how long the pool stays
    /// down. The kernel wipes the shard's volatile state on `Some` and
    /// schedules the restart `down_for` later.
    pub fn pool_crash_now_for(&self, pool: usize) -> Option<SimDuration> {
        let now = self.clock.now();
        let mut hit: Option<SimDuration> = None;
        {
            let st = &mut *self.inner.borrow_mut();
            for &i in &st.by_poll[Poll::PoolCrash as usize] {
                if st.fired[i] {
                    continue;
                }
                if let FaultSpec::PoolCrashRestart {
                    pool: p,
                    at,
                    down_for,
                } = st.plan.specs[i]
                {
                    if p == pool && at <= now {
                        st.fired[i] = true;
                        hit = Some(down_for);
                        break;
                    }
                }
            }
        }
        if let Some(down_for) = hit {
            self.note(
                Lane::Memory,
                InjectedFault::PoolCrashRestart,
                down_for.as_nanos(),
            );
        }
        hit
    }

    /// Whether the crash of pool `pool` happening now tears the un-synced
    /// tail of its recovery journal. One-shot per spec: the torn write is
    /// an artifact of one particular crash, not a standing condition.
    pub fn torn_tail_for(&self, pool: usize) -> bool {
        let now = self.clock.now();
        let mut hit = false;
        {
            let st = &mut *self.inner.borrow_mut();
            for &i in &st.by_poll[Poll::TornTail as usize] {
                if st.fired[i] {
                    continue;
                }
                if let FaultSpec::TornJournalWrite { pool: p, at } = st.plan.specs[i] {
                    if p == pool && at <= now {
                        st.fired[i] = true;
                        hit = true;
                        break;
                    }
                }
            }
        }
        if hit {
            self.note(Lane::Memory, InjectedFault::TornJournalWrite, pool as u64);
        }
        hit
    }

    /// Whether the plan schedules any crash-restart spec at all (tells the
    /// kernel to arm its recovery journal — runs without crash plans must
    /// stay digest-identical with journaling disarmed).
    pub fn has_crash_restart_specs(&self) -> bool {
        self.inner.borrow().plan.specs.iter().any(|s| {
            matches!(
                s,
                FaultSpec::PoolCrashRestart { .. } | FaultSpec::TornJournalWrite { .. }
            )
        })
    }

    /// Backlog found ahead of a pushdown enqueuing now, if a burst window
    /// is active that has not fired yet. Each burst fires once.
    pub fn queue_burst(&self) -> Option<SimDuration> {
        let now = self.clock.now();
        let mut burst: Option<SimDuration> = None;
        for (i, spec) in self.specs(Poll::QueueBurst) {
            if let FaultSpec::QueueBacklogBurst {
                from,
                until,
                backlog,
            } = spec
            {
                if FaultSpec::window_active(from, until, now) && !self.inner.borrow().fired[i] {
                    self.inner.borrow_mut().fired[i] = true;
                    burst = Some(burst.map_or(backlog, |b| b.max(backlog)));
                    self.note(
                        Lane::Memory,
                        InjectedFault::QueueBacklogBurst,
                        backlog.as_nanos(),
                    );
                }
            }
        }
        burst
    }

    /// Whether the plan schedules any fail-slow (gray-failure) spec at all
    /// (tells the kernel to arm its health plane — healthy runs must stay
    /// digest-identical with the plane disarmed).
    pub fn has_fail_slow_specs(&self) -> bool {
        self.inner.borrow().plan.specs.iter().any(|s| {
            matches!(
                s,
                FaultSpec::DegradedPool { .. }
                    | FaultSpec::LameFabricLink { .. }
                    | FaultSpec::GrindingSsd { .. }
            )
        })
    }

    /// Whether the plan has any corruption spec at all (tells the kernel to
    /// turn its integrity plane on).
    pub fn has_corruption_specs(&self) -> bool {
        self.inner.borrow().plan.specs.iter().any(|s| {
            matches!(
                s,
                FaultSpec::FabricBitFlip { .. }
                    | FaultSpec::SsdLatentSector { .. }
                    | FaultSpec::PoolScribble { .. }
            )
        })
    }

    /// Corruption of one page image crossing `point` now, if any. Draws the
    /// PRNG once per active matching spec (tracing on or off); the first
    /// hit wins. The caller applies the returned XOR to the real page
    /// bytes — the injector only decides and records.
    pub fn corruption(&self, point: CorruptionPoint, page: u64) -> Option<Corruption> {
        let now = self.clock.now();
        let poll = match point {
            CorruptionPoint::Fabric => Poll::CorruptFabric,
            CorruptionPoint::Ssd => Poll::CorruptSsd,
            CorruptionPoint::Pool => Poll::CorruptPool,
        };
        for (_, spec) in self.specs(poll) {
            let (active_p, lane, fault) = match (point, spec) {
                (CorruptionPoint::Fabric, FaultSpec::FabricBitFlip { from, until, p })
                    if FaultSpec::window_active(from, until, now) =>
                {
                    (p, Lane::Net, InjectedFault::FabricBitFlip)
                }
                (CorruptionPoint::Ssd, FaultSpec::SsdLatentSector { from, until, p })
                    if FaultSpec::window_active(from, until, now) =>
                {
                    (p, Lane::Storage, InjectedFault::SsdLatentSector)
                }
                (CorruptionPoint::Pool, FaultSpec::PoolScribble { from, until, p })
                    if FaultSpec::window_active(from, until, now) =>
                {
                    (p, Lane::Memory, InjectedFault::PoolScribble)
                }
                _ => continue,
            };
            let hit = self.inner.borrow_mut().rng.random_bool(active_p);
            if hit {
                let (offset, mask) = {
                    let mut st = self.inner.borrow_mut();
                    let offset = st.rng.random_range(0..PAGE_SIZE);
                    let mask = st.rng.random_range(1..=255u8);
                    (offset, mask)
                };
                self.note(lane, fault, page);
                self.tracer.emit(
                    lane,
                    TraceEvent::CorruptionInjected {
                        page,
                        offset: offset as u64,
                    },
                );
                return Some(Corruption { offset, mask });
            }
        }
        None
    }

    /// Disruption of pushdown call number `call` (0-based), if any. A hang
    /// dominates an exception when both are scheduled.
    pub fn pushdown_disruption(&self, call: u64) -> Option<PushdownDisruption> {
        let now = self.clock.now();
        let mut d: Option<PushdownDisruption> = None;
        for (_, spec) in self.specs(Poll::Pushdown) {
            match spec {
                FaultSpec::PushdownException { call: c } if c == call => {
                    d = d.or(Some(PushdownDisruption::Exception));
                    self.note(Lane::Memory, InjectedFault::PushdownException, call);
                }
                FaultSpec::PushdownExceptionProb { from, until, p }
                    if FaultSpec::window_active(from, until, now) =>
                {
                    let hit = self.inner.borrow_mut().rng.random_bool(p);
                    if hit {
                        d = d.or(Some(PushdownDisruption::Exception));
                        self.note(Lane::Memory, InjectedFault::PushdownException, call);
                    }
                }
                FaultSpec::PushdownHang { call: c } if c == call => {
                    d = Some(PushdownDisruption::Hang);
                    self.note(Lane::Memory, InjectedFault::PushdownHang, call);
                }
                _ => {}
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

    fn injector(plan: FaultPlan) -> (Clock, Tracer, FaultInjector) {
        let clock = Clock::new();
        let tracer = Tracer::new(clock.clone());
        tracer.enable();
        let inj = FaultInjector::new(plan, clock.clone(), tracer.clone());
        (clock, tracer, inj)
    }

    #[test]
    fn windows_are_half_open_on_virtual_time() {
        let plan = FaultPlan::new(1).fabric_latency_spike(
            SimTime(100),
            SimTime(200),
            SimDuration::from_nanos(7),
        );
        let (clock, _, inj) = injector(plan);
        assert_eq!(inj.fabric_penalty(), SimDuration::ZERO, "before the window");
        clock.advance(SimDuration::from_nanos(100));
        assert_eq!(inj.fabric_penalty(), SimDuration::from_nanos(7));
        clock.advance(SimDuration::from_nanos(100));
        assert_eq!(inj.fabric_penalty(), SimDuration::ZERO, "window closed");
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn partition_stalls_until_heal() {
        let plan = FaultPlan::new(1).fabric_partition(SimTime(0), SimTime(1_000));
        let (clock, _, inj) = injector(plan);
        clock.advance(SimDuration::from_nanos(400));
        assert_eq!(inj.fabric_penalty(), SimDuration::from_nanos(600));
    }

    #[test]
    fn probabilistic_ssd_errors_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).ssd_transient_errors(SimTime(0), FOREVER, 0.5);
            let (clock, _, inj) = injector(plan);
            (0..64)
                .map(|_| {
                    clock.advance(SimDuration::from_nanos(10));
                    inj.ssd_disruption().transient_error
                })
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same fault sequence");
        assert_ne!(run(42), run(43), "different seeds diverge");
        let hits = run(42).iter().filter(|&&h| h).count();
        assert!((10..=54).contains(&hits), "p=0.5 gave {hits}/64");
    }

    #[test]
    fn corruption_sites_are_seed_deterministic_and_nonzero() {
        let run = |seed: u64| -> Vec<Option<Corruption>> {
            let plan = FaultPlan::new(seed).fabric_bit_flips(SimTime(0), FOREVER, 0.5);
            let (clock, _, inj) = injector(plan);
            (0..64u64)
                .map(|page| {
                    clock.advance(SimDuration::from_nanos(10));
                    inj.corruption(CorruptionPoint::Fabric, page)
                })
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same corruption sites");
        assert_ne!(run(42), run(43), "different seeds diverge");
        let hits: Vec<Corruption> = run(42).into_iter().flatten().collect();
        assert!((10..=54).contains(&hits.len()), "p=0.5 gave {}", hits.len());
        for c in &hits {
            assert!(c.offset < PAGE_SIZE);
            assert_ne!(c.mask, 0, "a corruption always changes the page");
        }
    }

    #[test]
    fn corruption_points_only_match_their_own_spec_kind() {
        let plan = FaultPlan::new(1)
            .ssd_latent_sectors(SimTime(0), FOREVER, 1.0)
            .pool_scribbles(SimTime(0), FOREVER, 1.0);
        let (_, tracer, inj) = injector(plan);
        assert!(inj.has_corruption_specs());
        assert_eq!(inj.corruption(CorruptionPoint::Fabric, 7), None);
        assert!(inj.corruption(CorruptionPoint::Ssd, 7).is_some());
        assert!(inj.corruption(CorruptionPoint::Pool, 7).is_some());
        assert_eq!(tracer.count(EventKind::CorruptionInjected), 2);
        let clean = FaultPlan::new(1).ssd_transient_errors(SimTime(0), FOREVER, 0.5);
        let (_, _, inj) = injector(clean);
        assert!(!inj.has_corruption_specs());
    }

    #[test]
    fn queue_burst_fires_once_per_window() {
        let plan =
            FaultPlan::new(1).queue_backlog_burst(SimTime(0), FOREVER, SimDuration::from_millis(5));
        let (_, tracer, inj) = injector(plan);
        assert_eq!(inj.queue_burst(), Some(SimDuration::from_millis(5)));
        assert_eq!(inj.queue_burst(), None, "a burst is one-shot");
        assert_eq!(tracer.count(EventKind::FaultInjected), 1);
    }

    #[test]
    fn pushdown_disruption_matches_call_index_and_prefers_hang() {
        let plan = FaultPlan::new(1).pushdown_exception(2).pushdown_hang(2);
        let (_, _, inj) = injector(plan);
        assert_eq!(inj.pushdown_disruption(0), None);
        assert_eq!(inj.pushdown_disruption(2), Some(PushdownDisruption::Hang));
    }

    #[test]
    fn heartbeat_flap_tracks_the_window() {
        let plan = FaultPlan::new(1).heartbeat_flap(SimTime(0), SimTime(1_000));
        let (clock, _, inj) = injector(plan);
        assert!(inj.pool_down_now_for(0));
        clock.advance(SimDuration::from_micros(2));
        assert!(!inj.pool_down_now_for(0), "the flap healed");
        let dead = FaultPlan::new(1).memory_pool_death(SimTime(0));
        let (_, _, inj) = injector(dead);
        assert!(inj.pool_down_now_for(0), "permanent death never heals");
    }

    #[test]
    fn open_ended_partition_is_pool_death_not_a_stall() {
        let plan = FaultPlan::new(1).fabric_partition(SimTime(0), FOREVER);
        let (_, _, inj) = injector(plan);
        assert_eq!(
            inj.fabric_penalty(),
            SimDuration::ZERO,
            "sends never stall forever"
        );
        assert!(inj.pool_down_now_for(0), "the pool is unreachable for good");
    }

    #[test]
    fn retired_pool_faults_stop_killing_the_pool() {
        let plan = FaultPlan::new(1)
            .memory_pool_death(SimTime(0))
            .fabric_partition(SimTime(0), FOREVER);
        let (_, _, inj) = injector(plan);
        assert!(inj.pool_down_now_for(0));
        inj.retire_pool_faults_for(0);
        assert!(!inj.pool_down_now_for(0), "retired specs no longer fire");
    }

    #[test]
    fn pool_death_targets_only_its_shard() {
        let plan = FaultPlan::new(1).pool_death(2, SimTime(0));
        let (_, _, inj) = injector(plan);
        assert!(!inj.pool_down_now_for(0));
        assert!(!inj.pool_down_now_for(1));
        assert!(inj.pool_down_now_for(2));
        inj.retire_pool_faults_for(2);
        assert!(!inj.pool_down_now_for(2), "retired spec no longer fires");

        // Legacy single-pool specs address pool 0 only, and retiring one
        // shard leaves the others' specs armed.
        let legacy = FaultPlan::new(1)
            .memory_pool_death(SimTime(0))
            .pool_death(1, SimTime(0));
        let (_, _, inj) = injector(legacy);
        assert!(inj.pool_down_now_for(0));
        assert!(inj.pool_down_now_for(1));
        inj.retire_pool_faults_for(0);
        assert!(!inj.pool_down_now_for(0));
        assert!(inj.pool_down_now_for(1), "pool 1's death spec stays armed");
    }

    #[test]
    fn fail_slow_onset_is_traced_once_and_tracks_the_window() {
        let plan = FaultPlan::new(1).degraded_pool(1, SimTime(100), SimTime(200), 50);
        let (clock, tracer, inj) = injector(plan);
        assert_eq!(inj.pool_slowdown_for(1), 1, "before the window");
        clock.advance(SimDuration::from_nanos(100));
        assert_eq!(inj.pool_slowdown_for(0), 1, "other shards stay healthy");
        assert_eq!(inj.pool_slowdown_for(1), 50);
        assert_eq!(inj.pool_slowdown_for(1), 50, "slowdown keeps applying");
        clock.advance(SimDuration::from_nanos(100));
        assert_eq!(inj.pool_slowdown_for(1), 1, "window closed");
        assert_eq!(
            tracer.count(EventKind::FailSlowInjected),
            1,
            "one onset event, not one per poll"
        );
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn lame_link_and_grind_multiply_while_spikes_add() {
        let plan = FaultPlan::new(1)
            .lame_fabric_link(SimTime(0), FOREVER, 4)
            .grinding_ssd(SimTime(0), FOREVER, 3)
            .ssd_latency_storm(SimTime(0), FOREVER, 2);
        let (_, tracer, inj) = injector(plan);
        assert!(inj.has_fail_slow_specs());
        assert_eq!(inj.fabric_slowdown(), 4);
        assert_eq!(inj.fabric_penalty(), SimDuration::ZERO, "no additive spike");
        let d = inj.ssd_disruption();
        assert_eq!(d.grind_factor, 3);
        assert_eq!(d.storm_factor, 2, "storm and grind compose");
        inj.fabric_slowdown();
        inj.ssd_disruption();
        assert_eq!(
            tracer.count(EventKind::FailSlowInjected),
            2,
            "one onset per fail-slow spec; the storm traces separately"
        );
        let clean = FaultPlan::new(1).ssd_latency_storm(SimTime(0), FOREVER, 2);
        let (_, _, inj) = injector(clean);
        assert!(!inj.has_fail_slow_specs(), "a storm is not a gray failure");
    }

    #[test]
    fn overlapping_degradations_compound() {
        let plan = FaultPlan::new(1)
            .degraded_pool(0, SimTime(0), FOREVER, 10)
            .degraded_pool(0, SimTime(0), FOREVER, 5);
        let (_, tracer, inj) = injector(plan);
        assert_eq!(inj.pool_slowdown_for(0), 50, "overlapping windows multiply");
        assert_eq!(tracer.count(EventKind::FailSlowInjected), 2);
    }

    #[test]
    fn pool_crash_fires_once_per_spec_and_targets_its_shard() {
        let plan =
            FaultPlan::new(1).pool_crash_restart(1, SimTime(100), SimDuration::from_micros(50));
        let (clock, tracer, inj) = injector(plan);
        assert!(inj.has_crash_restart_specs());
        assert_eq!(inj.pool_crash_now_for(1), None, "before the crash time");
        clock.advance(SimDuration::from_nanos(100));
        assert_eq!(inj.pool_crash_now_for(0), None, "other shards stay up");
        assert_eq!(
            inj.pool_crash_now_for(1),
            Some(SimDuration::from_micros(50))
        );
        assert_eq!(inj.pool_crash_now_for(1), None, "a crash is one-shot");
        assert_eq!(tracer.count(EventKind::FaultInjected), 1);
        let clean = FaultPlan::new(1).pool_death(0, SimTime(0));
        let (_, _, inj) = injector(clean);
        assert!(!inj.has_crash_restart_specs(), "death is not crash-restart");
    }

    #[test]
    fn torn_tail_is_one_shot_and_per_pool() {
        let plan = FaultPlan::new(1)
            .pool_crash_restart(0, SimTime(0), SimDuration::from_micros(10))
            .torn_journal_write(0, SimTime(0));
        let (_, _, inj) = injector(plan);
        assert!(inj.has_crash_restart_specs());
        assert!(!inj.torn_tail_for(1), "other shards' tails are intact");
        assert!(inj.torn_tail_for(0));
        assert!(!inj.torn_tail_for(0), "the tear is one-shot");
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn repeated_crash_specs_fire_in_plan_order() {
        let plan = FaultPlan::new(1)
            .pool_crash_restart(0, SimTime(0), SimDuration::from_micros(1))
            .pool_crash_restart(0, SimTime(0), SimDuration::from_micros(2));
        let (_, _, inj) = injector(plan);
        assert_eq!(inj.pool_crash_now_for(0), Some(SimDuration::from_micros(1)));
        assert_eq!(inj.pool_crash_now_for(0), Some(SimDuration::from_micros(2)));
        assert_eq!(inj.pool_crash_now_for(0), None, "both crashes spent");
    }

    /// The message `enter` panics with.
    fn refusal(enter: impl FnOnce()) -> String {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(enter))
            .expect_err("the spec must be refused");
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        msg.clone()
    }

    #[test]
    fn both_doors_into_a_plan_refuse_a_free_slowdown_and_an_impossible_probability() {
        // A "degraded" pool at factor 0 would make its DRAM free; p = 1.5
        // would panic inside the PRNG at the first SSD read of the window.
        let free = FaultSpec::DegradedPool {
            pool: 0,
            from: SimTime(0),
            until: FOREVER,
            factor: 0,
        };
        let impossible = FaultSpec::SsdTransientError {
            from: SimTime(0),
            until: FOREVER,
            p: 1.5,
        };
        for (spec, why) in [
            (free, "a degraded pool slows down"),
            (impossible, "probability out of range"),
        ] {
            let via_with = refusal(|| drop(FaultPlan::new(1).with(spec)));
            assert!(via_with.starts_with(why), "with: {via_with}");
            let (_, _, inj) = injector(FaultPlan::new(1));
            let via_add = refusal(|| inj.add_spec(spec));
            assert!(via_add.starts_with(why), "add_spec: {via_add}");
            assert!(inj.plan().is_empty(), "a refused spec is not in the plan");
        }
        // The bounds themselves are legal, through either door.
        let plan = FaultPlan::new(1)
            .degraded_pool(0, SimTime(0), FOREVER, 1)
            .ssd_transient_errors(SimTime(0), FOREVER, 1.0);
        let (_, _, inj) = injector(plan);
        inj.add_spec(FaultSpec::PoolScribble {
            from: SimTime(0),
            until: FOREVER,
            p: 0.0,
        });
        assert_eq!(inj.plan().specs().len(), 3);
    }

    #[test]
    fn env_seed_falls_back_to_default() {
        // The variable is not set under `cargo test`; the default rules.
        std::env::remove_var("TELEPORT_FAULT_SEED");
        assert_eq!(env_seed(7), 7);
        std::env::set_var("TELEPORT_FAULT_SEED", "123");
        assert_eq!(env_seed(7), 123);
        std::env::set_var("TELEPORT_FAULT_SEED", "not-a-number");
        assert_eq!(env_seed(7), 7);
        std::env::remove_var("TELEPORT_FAULT_SEED");
    }
}
