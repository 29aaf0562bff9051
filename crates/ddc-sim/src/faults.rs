//! Deterministic fault-injection plane.
//!
//! A [`FaultPlan`] is a seeded schedule of faults. Each [`FaultSpec`] is four
//! independent choices: the component it strikes ([`FaultTarget`]), what it
//! does there ([`FaultEffect`]), when ([`FaultWhen`]: a window of *virtual*
//! time, an instant, or a pushdown call number) and how it is traced
//! ([`FaultReport`]). [`FaultSpec::label`] is the one table of the
//! combinations that exist, each with the [`InjectedFault`] it is traced as;
//! [`FaultPlan::try_with`] refuses the rest with a [`FaultPlanError`], so a
//! bad plan is an error at construction, not a panic in the middle of a run.
//!
//! A [`FaultInjector`] executes the plan: the fabric, the SSD, the kernel and
//! the runtime poll it at their decision points, each poll reading only its
//! own specs, and every injected fault is emitted on the shared trace.
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
use FaultEffect::{Add, CrashRestart, Down, Fail, Flip, Hang, Scale, TornTail};
use FaultReport::{Onset, PerOp};
use FaultTarget::{Call, Fabric, Heartbeat, Pool, PoolImage, Queue, Ssd};
use FaultWhen::{At, CallIdx, Window};

/// The end of a window that never closes (permanent faults).
pub const FOREVER: SimTime = SimTime(u64::MAX);

/// The component a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The compute↔memory fabric.
    Fabric,
    /// The storage pool's SSD.
    Ssd,
    /// Memory pool `p`: its memory-side service, volatile state and journal.
    Pool(usize),
    /// Every page image landing in a memory pool.
    PoolImage,
    /// Memory pool `p`'s heartbeat.
    Heartbeat(usize),
    /// The memory-side pushdown workqueue.
    Queue,
    /// The pushed function of a pushdown call.
    Call,
}

/// What a fault does to its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEffect {
    /// Each operation pays this much extra time.
    Add(SimDuration),
    /// Each operation takes this many times its normal time (at least 1).
    Scale(u32),
    /// Each operation fails with probability `p`.
    Fail(f64),
    /// Each page image is corrupted with probability `p`.
    Flip(f64),
    /// The pushed function never completes until the kill timeout.
    Hang,
    /// Unreachable: sends stall until the window closes, heartbeats go
    /// unanswered.
    Down,
    /// The pool crashes, losing its volatile state, and restarts this much
    /// later.
    CrashRestart(SimDuration),
    /// The pool's crash tears the un-synced tail of its recovery journal.
    TornTail,
}

/// When a fault is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultWhen {
    /// Over `[from, until)` of virtual time; `until == FOREVER` never heals.
    Window(SimTime, SimTime),
    /// Once, at the first poll at or after this time.
    At(SimTime),
    /// On pushdown call number `n` (0-based, counted across all platforms).
    CallIdx(u64),
}

/// How an injected fault is traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultReport {
    /// One [`TraceEvent::FaultInjected`] per operation it disrupts.
    PerOp,
    /// One [`TraceEvent::FailSlowInjected`] at onset, then silent slowness
    /// (a gray failure is one event, not a stream that scales the digest
    /// with the poll count).
    Onset,
}

/// One fault. [`FaultSpec::label`] says which combinations exist; the
/// [`FaultPlan`] builders spell each of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    pub target: FaultTarget,
    pub effect: FaultEffect,
    pub when: FaultWhen,
    pub report: FaultReport,
}

/// Why [`FaultPlan::try_with`] refused a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// No fault is this combination (a scaled hang, a coin-flip exception
    /// at one call, a healing flap off pool 0, …): refused, not given a new
    /// meaning.
    Unsupported,
    /// A probability outside `[0, 1]`, which would panic inside the PRNG.
    Probability,
    /// A slowdown factor of 0, which would make the "degraded" target free.
    FreeSlowdown,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultPlanError::Unsupported => "no fault has this target, effect, when and report",
            FaultPlanError::Probability => "probability out of range",
            FaultPlanError::FreeSlowdown => "a slowdown factor of 0 makes the target free",
        })
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultSpec {
    /// A spec from its four parts; [`FaultPlan::try_with`] checks it.
    pub const fn new(
        target: FaultTarget,
        effect: FaultEffect,
        when: FaultWhen,
        report: FaultReport,
    ) -> Self {
        FaultSpec {
            target,
            effect,
            when,
            report,
        }
    }

    /// The one table of faults: the [`InjectedFault`] this combination is
    /// traced as, or why no plan may carry it. Every builder's shape is a
    /// row, and nothing else is; an illegal number is refused as such
    /// whatever the shape.
    pub fn label(&self) -> Result<InjectedFault, FaultPlanError> {
        use FaultPlanError::{FreeSlowdown, Probability, Unsupported};
        use InjectedFault as F;
        match self.effect {
            Fail(p) | Flip(p) if !(0.0..=1.0).contains(&p) => return Err(Probability),
            Scale(0) => return Err(FreeSlowdown),
            _ => {}
        }
        Ok(match (self.target, self.effect, self.when, self.report) {
            (Fabric, Add(_), Window(..), PerOp) => F::FabricLatencySpike,
            // A partition that heals stalls sends; one that never does is
            // pool 0's death, judged by the heartbeat path.
            (Fabric, Down, Window(..), PerOp) => F::FabricPartition,
            (Fabric, Scale(_), Window(..), Onset) => F::LameFabricLink,
            (Fabric, Flip(_), Window(..), PerOp) => F::FabricBitFlip,
            (Ssd, Fail(_), Window(..), PerOp) => F::SsdTransientError,
            // Overlapping storms take the largest factor; grinds multiply.
            (Ssd, Scale(_), Window(..), PerOp) => F::SsdLatencyStorm,
            (Ssd, Scale(_), Window(..), Onset) => F::GrindingSsd,
            (Ssd, Flip(_), Window(..), PerOp) => F::SsdLatentSector,
            (Pool(_), Scale(_), Window(..), Onset) => F::DegradedPool,
            (Pool(_), CrashRestart(_), At(_), PerOp) => F::PoolCrashRestart,
            (Pool(_), TornTail, At(_), PerOp) => F::TornJournalWrite,
            (PoolImage, Flip(_), Window(..), PerOp) => F::PoolScribble,
            // One burst per window.
            (Queue, Add(_), Window(..), PerOp) => F::QueueBacklogBurst,
            // A flap that heals addresses pool 0 (the single-pool shape);
            // any pool can die for good.
            (Heartbeat(p), Down, Window(_, u), PerOp) if p == 0 || u == FOREVER => F::HeartbeatFlap,
            (Call, Fail(_), Window(..), PerOp) => F::PushdownException,
            // Call n's exception is certain, and draws no PRNG value.
            (Call, Fail(1.0), CallIdx(_), PerOp) => F::PushdownException,
            (Call, Hang, CallIdx(_), PerOp) => F::PushdownHang,
            _ => return Err(Unsupported),
        })
    }

    /// The half-open span of virtual time the spec is in force over. A spec
    /// that fires at an instant stays due from then on (until it fires); a
    /// call-indexed one is judged by call number, not time.
    fn span(&self) -> (SimTime, SimTime) {
        match self.when {
            Window(from, until) => (from, until),
            At(at) => (at, FOREVER),
            CallIdx(_) => (SimTime::ZERO, FOREVER),
        }
    }

    /// The one injector poll that reads this spec.
    fn poll(&self) -> Poll {
        match (self.target, self.effect) {
            (Fabric, Down) if self.span().1 == FOREVER => Poll::PoolDown,
            (Fabric, Scale(_)) => Poll::FabricSlowdown,
            (Fabric, Flip(_)) => Poll::CorruptFabric,
            (Fabric, _) => Poll::FabricPenalty,
            (Ssd, Flip(_)) => Poll::CorruptSsd,
            (Ssd, _) => Poll::Ssd,
            (Pool(_), CrashRestart(_)) => Poll::PoolCrash,
            (Pool(_), TornTail) => Poll::TornTail,
            (Pool(_), _) => Poll::PoolSlowdown,
            (PoolImage, _) => Poll::CorruptPool,
            (Heartbeat(_), _) => Poll::PoolDown,
            (Queue, _) => Poll::QueueBurst,
            (Call, _) => Poll::Pushdown,
        }
    }

    /// The pool whose heartbeat a death spec silences: its own, or pool 0
    /// for an open-ended fabric partition.
    fn silenced_pool(&self) -> usize {
        match self.target {
            Heartbeat(p) => p,
            _ => 0,
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

impl Poll {
    /// The trace lane a poll's injections are recorded on.
    fn lane(self) -> Lane {
        match self {
            Poll::FabricPenalty | Poll::FabricSlowdown | Poll::CorruptFabric => Lane::Net,
            Poll::Ssd | Poll::CorruptSsd => Lane::Storage,
            _ => Lane::Memory,
        }
    }
}

/// A seeded, declarative schedule of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
    /// `specs[i].label()`, taken when the spec was let in.
    labels: Vec<InjectedFault>,
}

impl FaultPlan {
    /// An empty plan. `seed` drives every probabilistic decision.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
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

    /// Add `spec` if [`FaultSpec::label`] knows it and its probability and
    /// slowdown factor are legal. The one door into a plan: every builder
    /// and [`FaultPlan::with`] come through here.
    pub fn try_with(mut self, spec: FaultSpec) -> Result<Self, FaultPlanError> {
        self.labels.push(spec.label()?);
        self.specs.push(spec);
        Ok(self)
    }

    /// Add an arbitrary spec (the builder methods below spell every shape,
    /// and all go through here).
    ///
    /// # Panics
    /// On a spec [`FaultPlan::try_with`] refuses.
    pub fn with(self, spec: FaultSpec) -> Self {
        match self.try_with(spec) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}: {spec:?}"),
        }
    }

    fn fault(self, t: FaultTarget, e: FaultEffect, w: FaultWhen, r: FaultReport) -> Self {
        self.with(FaultSpec::new(t, e, w, r))
    }

    /// Every fabric send over `[from, until)` pays `extra` on the wire.
    pub fn fabric_latency_spike(self, from: SimTime, until: SimTime, extra: SimDuration) -> Self {
        self.fault(Fabric, Add(extra), Window(from, until), PerOp)
    }

    /// A fabric partition over `[from, until)`: sends stall until it heals.
    /// One that never heals is pool 0's death, judged by the heartbeat path
    /// (the pool is declared dead instead of every send waiting forever).
    pub fn fabric_partition(self, from: SimTime, until: SimTime) -> Self {
        self.fault(Fabric, Down, Window(from, until), PerOp)
    }

    /// Each SSD operation over `[from, until)` fails transiently with
    /// probability `p`; the device layer retries it once (double cost).
    pub fn ssd_transient_errors(self, from: SimTime, until: SimTime, p: f64) -> Self {
        self.fault(Ssd, Fail(p), Window(from, until), PerOp)
    }

    /// SSD operations over `[from, until)` take `factor`× their normal
    /// time, traced per operation.
    pub fn ssd_latency_storm(self, from: SimTime, until: SimTime, factor: u32) -> Self {
        self.fault(Ssd, Scale(factor), Window(from, until), PerOp)
    }

    /// Pool 0's heartbeats over `[from, until)` go unanswered: a survivable
    /// flap if shorter than `(missed_threshold - 1) × interval`, pool death
    /// (a kernel panic, or a failover to a replica) if it never heals.
    pub fn heartbeat_flap(self, from: SimTime, until: SimTime) -> Self {
        self.fault(Heartbeat(0), Down, Window(from, until), PerOp)
    }

    pub fn memory_pool_death(self, from: SimTime) -> Self {
        self.pool_death(0, from)
    }

    /// Pool `pool` of a multi-pool rack permanently stops answering
    /// heartbeats at `from`: only that shard dies; the others keep serving
    /// their pages. `pool_death(0, t)` is `memory_pool_death(t)`.
    pub fn pool_death(self, pool: usize, from: SimTime) -> Self {
        self.fault(Heartbeat(pool), Down, Window(from, FOREVER), PerOp)
    }

    /// The first pushdown that enqueues over `[from, until)` finds
    /// `backlog` of other tenants' work ahead of it (one burst per window).
    pub fn queue_backlog_burst(self, from: SimTime, until: SimTime, backlog: SimDuration) -> Self {
        self.fault(Queue, Add(backlog), Window(from, until), PerOp)
    }

    /// Pushdown call number `call` raises an exception in the pushed
    /// function.
    pub fn pushdown_exception(self, call: u64) -> Self {
        self.fault(Call, Fail(1.0), CallIdx(call), PerOp)
    }

    /// Each pushdown call over `[from, until)` raises an exception with
    /// probability `p`.
    pub fn pushdown_exceptions_prob(self, from: SimTime, until: SimTime, p: f64) -> Self {
        self.fault(Call, Fail(p), Window(from, until), PerOp)
    }

    /// Pushdown call number `call` hangs until the kill timeout fires.
    pub fn pushdown_hang(self, call: u64) -> Self {
        self.fault(Call, Hang, CallIdx(call), PerOp)
    }

    /// Each page crossing the fabric over `[from, until)` is bit-flipped in
    /// flight with probability `p` (the corrupted image is what arrives).
    pub fn fabric_bit_flips(self, from: SimTime, until: SimTime, p: f64) -> Self {
        self.fault(Fabric, Flip(p), Window(from, until), PerOp)
    }

    /// Each SSD page read over `[from, until)` returns latent-sector-rotted
    /// bytes with probability `p` (a torn write discovered at read time).
    pub fn ssd_latent_sectors(self, from: SimTime, until: SimTime, p: f64) -> Self {
        self.fault(Ssd, Flip(p), Window(from, until), PerOp)
    }

    /// Each page image landing in the memory pool over `[from, until)` is
    /// scribbled over with probability `p` (silent in-pool corruption,
    /// discovered only at the next read or scrub).
    pub fn pool_scribbles(self, from: SimTime, until: SimTime, p: f64) -> Self {
        self.fault(PoolImage, Flip(p), Window(from, until), PerOp)
    }

    /// Fail-slow pool `pool`: its memory-side service takes `factor`× its
    /// normal time over `[from, until)` while its heartbeats stay healthy —
    /// a brownout, not a blackout.
    pub fn degraded_pool(self, pool: usize, from: SimTime, until: SimTime, factor: u32) -> Self {
        self.fault(Pool(pool), Scale(factor), Window(from, until), Onset)
    }

    /// Fail-slow fabric: every send over `[from, until)` takes `factor`×
    /// its normal wire time (multiplicative, unlike the additive spike, so
    /// bulk transfers hurt the most).
    pub fn lame_fabric_link(self, from: SimTime, until: SimTime, factor: u32) -> Self {
        self.fault(Fabric, Scale(factor), Window(from, until), Onset)
    }

    /// Fail-slow SSD: every device operation over `[from, until)` takes
    /// `factor`× its normal time, with a single traced onset (unlike the
    /// storm, traced per operation).
    pub fn grinding_ssd(self, from: SimTime, until: SimTime, factor: u32) -> Self {
        self.fault(Ssd, Scale(factor), Window(from, until), Onset)
    }

    /// Crash pool `pool` at `at`, wiping its volatile state, and restart
    /// it `down_for` later. Recovery replays the pool's journal over the
    /// SSD-authoritative base; a shard whose replica was promoted in the
    /// interim rejoins as a standby instead of resuming as primary.
    pub fn pool_crash_restart(self, pool: usize, at: SimTime, down_for: SimDuration) -> Self {
        self.fault(Pool(pool), CrashRestart(down_for), At(at), PerOp)
    }

    /// Tear the un-synced journal tail of pool `pool` when it crashes at
    /// or after `at`: replay detects the checksum mismatch and discards
    /// the tail instead of applying a partial write. Only meaningful
    /// alongside a crash-restart of the same pool.
    pub fn torn_journal_write(self, pool: usize, at: SimTime) -> Self {
        self.fault(Pool(pool), TornTail, At(at), PerOp)
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
/// Each point reads the [`FaultEffect::Flip`] specs of one target
/// ([`FaultTarget::Fabric`], [`FaultTarget::Ssd`],
/// [`FaultTarget::PoolImage`]), so a plan can target exactly one crossing.
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

/// One spec as its poll sees it: its plan index, the span of virtual time
/// it is in force over and its label. A spec out of force is passed over
/// on the span alone, without copying the spec out of the plan.
#[derive(Debug, Clone, Copy)]
struct Armed {
    i: usize,
    from: SimTime,
    until: SimTime,
    label: InjectedFault,
    /// An onset-reported spec's one event has been traced.
    traced: bool,
}

/// A spec a poll met in force: `(position in the poll's list, spec, label)`.
type Hit = (usize, FaultSpec, InjectedFault);

#[derive(Debug)]
struct InjectorState {
    plan: FaultPlan,
    rng: StdRng,
    /// Per [`Poll`], the specs it reads in plan order, so PRNG draws, `note`
    /// order and the trace digest are those of a walk over the whole plan.
    /// A spec that can no longer fire — a one-shot that fired, a death spec
    /// retired by a failover — has its span emptied.
    by_poll: [Vec<Armed>; POLLS],
    injected: u64,
}

impl InjectorState {
    fn push(&mut self, spec: FaultSpec, label: InjectedFault) {
        let (from, until) = spec.span();
        self.by_poll[spec.poll() as usize].push(Armed {
            i: self.plan.specs.len(),
            from,
            until,
            label,
            traced: false,
        });
        self.plan.specs.push(spec);
        self.plan.labels.push(label);
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
        let inj = FaultInjector {
            clock,
            tracer,
            inner: Rc::new(RefCell::new(InjectorState {
                plan: FaultPlan::new(plan.seed),
                rng: StdRng::seed_from_u64(plan.seed),
                by_poll: Default::default(),
                injected: 0,
            })),
        };
        inj.add(plan);
        inj
    }

    /// Snapshot of the plan being executed.
    pub fn plan(&self) -> FaultPlan {
        self.inner.borrow().plan.clone()
    }

    /// The seed of the plan being executed.
    pub fn seed(&self) -> u64 {
        self.inner.borrow().plan.seed
    }

    /// Total faults injected so far.
    pub fn injected_count(&self) -> u64 {
        self.inner.borrow().injected
    }

    /// Append `plan`'s specs to the running plan (used by the runtime's
    /// legacy one-shot `inject_*` helpers). They were checked when `plan`
    /// was built; its seed is not read — the running PRNG keeps drawing.
    pub fn add(&self, plan: FaultPlan) {
        let mut st = self.inner.borrow_mut();
        for (spec, label) in plan.specs.into_iter().zip(plan.labels) {
            st.push(spec, label);
        }
    }

    /// The specs `poll` reads that are in force at `now`, in plan order.
    /// Each is copied out under a borrow that ends before the caller's loop
    /// body runs, so the body is free to draw the PRNG or note a hit. A poll
    /// nothing in the plan feeds ends after one length test.
    fn in_force(&self, poll: Poll, now: SimTime) -> impl Iterator<Item = Hit> + '_ {
        let mut k = 0;
        std::iter::from_fn(move || {
            let st = self.inner.borrow();
            let list = &st.by_poll[poll as usize];
            while let Some(a) = list.get(k) {
                k += 1;
                if a.from <= now && now < a.until {
                    return Some((k - 1, st.plan.specs[a.i], a.label));
                }
            }
            None
        })
    }

    /// Take spec `k` of `poll` out of force for good.
    fn spend(&self, poll: Poll, k: usize) {
        self.inner.borrow_mut().by_poll[poll as usize][k].until = SimTime::ZERO;
    }

    fn draw(&self, p: f64) -> bool {
        self.inner.borrow_mut().rng.random_bool(p)
    }

    /// Count and trace one injection by spec `k` of `poll`: every time for
    /// a per-operation spec, the first time only for an onset-reported one.
    fn note(&self, poll: Poll, k: usize, spec: &FaultSpec, fault: InjectedFault, magnitude: u64) {
        let event = match spec.report {
            PerOp => TraceEvent::FaultInjected { fault, magnitude },
            Onset => {
                let armed = &mut self.inner.borrow_mut().by_poll[poll as usize][k];
                if std::mem::replace(&mut armed.traced, true) {
                    return;
                }
                TraceEvent::FailSlowInjected {
                    fault,
                    factor: magnitude,
                }
            }
        };
        self.inner.borrow_mut().injected += 1;
        self.tracer.emit(poll.lane(), event);
    }

    /// Extra wire delay for a fabric send issued now: latency spikes add
    /// their surcharge, an active partition stalls the message until it
    /// heals. Called by [`crate::net::Fabric::send`].
    pub fn fabric_penalty(&self) -> SimDuration {
        let now = self.clock.now();
        let mut penalty = SimDuration::ZERO;
        for (k, spec, label) in self.in_force(Poll::FabricPenalty, now) {
            let extra = match spec.effect {
                Add(extra) => extra,
                // A partition stalls the send until it heals.
                _ => spec.span().1.since(now),
            };
            penalty += extra;
            self.note(Poll::FabricPenalty, k, &spec, label, extra.as_nanos());
        }
        penalty
    }

    /// Disruption of one SSD operation issued now. Draws the PRNG exactly
    /// once per active probabilistic spec, tracing on or off.
    pub fn ssd_disruption(&self) -> SsdDisruption {
        let now = self.clock.now();
        let mut d = SsdDisruption::default();
        for (k, spec, label) in self.in_force(Poll::Ssd, now) {
            let magnitude = match (spec.effect, spec.report) {
                (Fail(p), _) if self.draw(p) => {
                    d.transient_error = true;
                    1
                }
                (Scale(f), PerOp) => {
                    d.storm_factor = d.storm_factor.max(f);
                    f as u64
                }
                (Scale(f), Onset) => {
                    d.grind_factor = d.grind_factor.saturating_mul(f);
                    f as u64
                }
                _ => continue,
            };
            self.note(Poll::Ssd, k, &spec, label, magnitude);
        }
        d
    }

    /// The product of the slowdown factors of `poll`'s specs on `target`
    /// in force now (1 = healthy); each spec's onset is traced once.
    fn slowdown(&self, poll: Poll, target: FaultTarget) -> u32 {
        let mut slow: u32 = 1;
        for (k, spec, label) in self.in_force(poll, self.clock.now()) {
            match spec.effect {
                Scale(f) if spec.target == target => {
                    slow = slow.saturating_mul(f);
                    self.note(poll, k, &spec, label, f as u64);
                }
                _ => {}
            }
        }
        slow
    }

    /// Service-time multiplier for memory-side work on pool `pool` issued
    /// now (1 = healthy). Overlapping degradations of the shard compound
    /// multiplicatively; each one's onset is traced once.
    pub fn pool_slowdown_for(&self, pool: usize) -> u32 {
        self.slowdown(Poll::PoolSlowdown, Pool(pool))
    }

    /// Wire-time multiplier for a fabric send issued now (1 = healthy).
    /// Multiplicative, unlike the additive
    /// [`FaultInjector::fabric_penalty`]; the two compose.
    pub fn fabric_slowdown(&self) -> u32 {
        self.slowdown(Poll::FabricSlowdown, Fabric)
    }

    /// Whether pool `pool` of the rack fails to answer a heartbeat issued
    /// now: a heartbeat spec addressing the shard is in force, or an
    /// open-ended fabric partition has cut pool 0 off for good. Emits one
    /// fault event (of the matching kind, magnitude `pool + 1`) per missed
    /// beat. Specs retired by [`FaultInjector::retire_pool_faults_for`] no
    /// longer count.
    pub fn pool_down_now_for(&self, pool: usize) -> bool {
        let mut due = self.in_force(Poll::PoolDown, self.clock.now());
        let hit = due.find(|(_, spec, _)| spec.silenced_pool() == pool);
        if let Some((k, spec, label)) = hit {
            self.note(Poll::PoolDown, k, &spec, label, pool as u64 + 1);
        }
        hit.is_some()
    }

    /// Retire the death specs addressing pool `pool` (an open-ended fabric
    /// partition counts as pool 0): they killed the *old* primary, and must
    /// not instantly re-kill the backup a failover just promoted. Called by
    /// the runtime when it promotes the shard's replica; other shards'
    /// death specs stay armed.
    pub fn retire_pool_faults_for(&self, pool: usize) {
        let InjectorState { plan, by_poll, .. } = &mut *self.inner.borrow_mut();
        for a in &mut by_poll[Poll::PoolDown as usize] {
            if plan.specs[a.i].silenced_pool() == pool {
                a.until = SimTime::ZERO;
            }
        }
    }

    /// The first spec of `poll` on pool `pool` that is due now, taken out
    /// of force: it fires once.
    fn fire_once(&self, poll: Poll, pool: usize) -> Option<Hit> {
        let mut due = self.in_force(poll, self.clock.now());
        let hit = due.find(|(_, s, _)| s.target == Pool(pool))?;
        self.spend(poll, hit.0);
        Some(hit)
    }

    /// Whether pool `pool` crashes *now*: the earliest un-fired
    /// crash-restart spec targeting the shard whose crash time has arrived
    /// fires exactly once, returning how long the pool stays down. The
    /// kernel wipes the shard's volatile state on `Some` and schedules the
    /// restart `down_for` later.
    pub fn pool_crash_now_for(&self, pool: usize) -> Option<SimDuration> {
        let (k, spec, label) = self.fire_once(Poll::PoolCrash, pool)?;
        let CrashRestart(down_for) = spec.effect else {
            return None;
        };
        self.note(Poll::PoolCrash, k, &spec, label, down_for.as_nanos());
        Some(down_for)
    }

    /// Whether the crash of pool `pool` happening now tears the un-synced
    /// tail of its recovery journal. One-shot per spec: the torn write is
    /// an artifact of one particular crash, not a standing condition.
    pub fn torn_tail_for(&self, pool: usize) -> bool {
        let Some((k, spec, label)) = self.fire_once(Poll::TornTail, pool) else {
            return false;
        };
        self.note(Poll::TornTail, k, &spec, label, pool as u64);
        true
    }

    /// Whether any of `polls` has a spec at all.
    fn feeds_any(&self, polls: &[Poll]) -> bool {
        let st = self.inner.borrow();
        polls.iter().any(|&p| !st.by_poll[p as usize].is_empty())
    }

    /// Whether the plan schedules any crash-restart spec at all (tells the
    /// kernel to arm its recovery journal — runs without crash plans must
    /// stay digest-identical with journaling disarmed).
    pub fn has_crash_restart_specs(&self) -> bool {
        self.feeds_any(&[Poll::PoolCrash, Poll::TornTail])
    }

    /// Backlog found ahead of a pushdown enqueuing now, if a burst window
    /// is active that has not fired yet. Each burst fires once.
    pub fn queue_burst(&self) -> Option<SimDuration> {
        let now = self.clock.now();
        let mut burst: Option<SimDuration> = None;
        for (k, spec, label) in self.in_force(Poll::QueueBurst, now) {
            if let Add(backlog) = spec.effect {
                self.spend(Poll::QueueBurst, k);
                burst = Some(burst.map_or(backlog, |b| b.max(backlog)));
                self.note(Poll::QueueBurst, k, &spec, label, backlog.as_nanos());
            }
        }
        burst
    }

    /// Whether the plan schedules any fail-slow (gray-failure) spec at all
    /// (tells the kernel to arm its health plane — healthy runs must stay
    /// digest-identical with the plane disarmed). The fail-slow specs are
    /// exactly the onset-reported ones.
    pub fn has_fail_slow_specs(&self) -> bool {
        let st = self.inner.borrow();
        st.plan.specs.iter().any(|s| s.report == Onset)
    }

    /// Whether the plan has any corruption spec at all (tells the kernel to
    /// turn its integrity plane on).
    pub fn has_corruption_specs(&self) -> bool {
        self.feeds_any(&[Poll::CorruptFabric, Poll::CorruptSsd, Poll::CorruptPool])
    }

    /// Corruption of one page image crossing `point` now, if any. Draws the
    /// PRNG once per active matching spec (tracing on or off); the first
    /// hit wins. The caller applies the returned XOR to the real page
    /// bytes — the injector only decides and records.
    pub fn corruption(&self, point: CorruptionPoint, page: u64) -> Option<Corruption> {
        let poll = match point {
            CorruptionPoint::Fabric => Poll::CorruptFabric,
            CorruptionPoint::Ssd => Poll::CorruptSsd,
            CorruptionPoint::Pool => Poll::CorruptPool,
        };
        for (k, spec, label) in self.in_force(poll, self.clock.now()) {
            let Flip(p) = spec.effect else {
                continue;
            };
            if self.draw(p) {
                let offset = self.inner.borrow_mut().rng.random_range(0..PAGE_SIZE);
                let mask = self.inner.borrow_mut().rng.random_range(1..=255u8);
                self.note(poll, k, &spec, label, page);
                self.tracer.emit(
                    poll.lane(),
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
        let mut d: Option<PushdownDisruption> = None;
        for (k, spec, label) in self.in_force(Poll::Pushdown, self.clock.now()) {
            let hit = match (spec.effect, spec.when) {
                (Hang, CallIdx(c)) if c == call => PushdownDisruption::Hang,
                (Fail(_), CallIdx(c)) if c == call => PushdownDisruption::Exception,
                (Fail(p), Window(..)) if self.draw(p) => PushdownDisruption::Exception,
                _ => continue,
            };
            if d != Some(PushdownDisruption::Hang) {
                d = Some(hit);
            }
            self.note(Poll::Pushdown, k, &spec, label, call);
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

    #[test]
    #[should_panic(expected = "a slowdown factor of 0 makes the target free")]
    fn with_panics_on_a_refused_spec() {
        drop(FaultPlan::new(1).lame_fabric_link(SimTime(0), FOREVER, 0));
    }

    #[test]
    fn an_added_plan_joins_the_running_one_under_its_seed() {
        let (_, _, inj) = injector(FaultPlan::new(5).pool_death(1, SimTime(0)));
        assert!(!inj.pool_down_now_for(0));
        inj.add(FaultPlan::new(9).memory_pool_death(SimTime(0)));
        assert!(inj.pool_down_now_for(0), "the added spec is polled");
        assert_eq!((inj.seed(), inj.plan().specs().len()), (5, 2));
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
