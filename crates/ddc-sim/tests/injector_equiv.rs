//! The fault injector's polls walk per-poll index lists instead of the whole
//! plan. This checks them against the obvious implementation — every poll a
//! linear scan of every spec, in plan order — over random plans and random
//! poll scripts (with specs appended mid-run): same answer from every poll,
//! same injected count, same trace digest. The digest covers the PRNG too:
//! a draw made out of order changes which faults hit.
//!
//! The reference speaks its own vocabulary, one variant per fault shape a
//! plan can hold, each with its own poll semantics written out; a shape
//! reaches the injector only through its `FaultPlan` builder. So the check
//! also holds the target × effect × when × report table to those shapes,
//! and a second test asks that table to accept exactly them.
//!
//! The CI chaos job pins `TELEPORT_FAULT_SEED`; it seeds the plans here.

use ddc_sim::{
    env_seed, Clock, Corruption, CorruptionPoint, FaultEffect, FaultInjector, FaultPlan,
    FaultPlanError, FaultReport, FaultSpec, FaultTarget, FaultWhen, InjectedFault, Lane,
    PushdownDisruption, SimDuration, SimTime, SsdDisruption, TraceEvent, Tracer, FOREVER,
    PAGE_SIZE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use InjectedFault as F;

/// The fault shapes a plan can hold, one per `FaultPlan` builder.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    FabricLatencySpike(SimTime, SimTime, SimDuration),
    FabricPartition(SimTime, SimTime),
    SsdTransientError(SimTime, SimTime, f64),
    SsdLatencyStorm(SimTime, SimTime, u32),
    HeartbeatFlap(SimTime, SimTime),
    PoolDeath(usize, SimTime),
    QueueBacklogBurst(SimTime, SimTime, SimDuration),
    PushdownException(u64),
    PushdownExceptionProb(SimTime, SimTime, f64),
    PushdownHang(u64),
    FabricBitFlip(SimTime, SimTime, f64),
    SsdLatentSector(SimTime, SimTime, f64),
    PoolScribble(SimTime, SimTime, f64),
    DegradedPool(usize, SimTime, SimTime, u32),
    LameFabricLink(SimTime, SimTime, u32),
    GrindingSsd(SimTime, SimTime, u32),
    PoolCrashRestart(usize, SimTime, SimDuration),
    TornJournalWrite(usize, SimTime),
}

impl Shape {
    /// `plan` with this shape appended by its builder.
    fn build(self, plan: FaultPlan) -> FaultPlan {
        use Shape::*;
        match self {
            FabricLatencySpike(f, u, d) => plan.fabric_latency_spike(f, u, d),
            FabricPartition(f, u) => plan.fabric_partition(f, u),
            SsdTransientError(f, u, p) => plan.ssd_transient_errors(f, u, p),
            SsdLatencyStorm(f, u, k) => plan.ssd_latency_storm(f, u, k),
            HeartbeatFlap(f, u) => plan.heartbeat_flap(f, u),
            PoolDeath(pool, f) => plan.pool_death(pool, f),
            QueueBacklogBurst(f, u, d) => plan.queue_backlog_burst(f, u, d),
            PushdownException(call) => plan.pushdown_exception(call),
            PushdownExceptionProb(f, u, p) => plan.pushdown_exceptions_prob(f, u, p),
            PushdownHang(call) => plan.pushdown_hang(call),
            FabricBitFlip(f, u, p) => plan.fabric_bit_flips(f, u, p),
            SsdLatentSector(f, u, p) => plan.ssd_latent_sectors(f, u, p),
            PoolScribble(f, u, p) => plan.pool_scribbles(f, u, p),
            DegradedPool(pool, f, u, k) => plan.degraded_pool(pool, f, u, k),
            LameFabricLink(f, u, k) => plan.lame_fabric_link(f, u, k),
            GrindingSsd(f, u, k) => plan.grinding_ssd(f, u, k),
            PoolCrashRestart(pool, at, d) => plan.pool_crash_restart(pool, at, d),
            TornJournalWrite(pool, at) => plan.torn_journal_write(pool, at),
        }
    }
}

/// Every shape, from one set of numbers: a window `[from, until)` (its
/// start is the instant of a crash or a tear), a probability, a factor, a
/// pool, a duration and a call.
fn shapes(
    w: (SimTime, SimTime),
    p: f64,
    k: u32,
    pool: usize,
    d: SimDuration,
    call: u64,
) -> [Shape; 18] {
    let (f, u) = w;
    use Shape::*;
    [
        FabricLatencySpike(f, u, d),
        FabricPartition(f, u),
        SsdTransientError(f, u, p),
        SsdLatencyStorm(f, u, k),
        HeartbeatFlap(f, u),
        PoolDeath(pool, f),
        QueueBacklogBurst(f, u, d),
        PushdownException(call),
        PushdownExceptionProb(f, u, p),
        PushdownHang(call),
        FabricBitFlip(f, u, p),
        SsdLatentSector(f, u, p),
        PoolScribble(f, u, p),
        DegradedPool(pool, f, u, k),
        LameFabricLink(f, u, k),
        GrindingSsd(f, u, k),
        PoolCrashRestart(pool, f, d),
        TornJournalWrite(pool, f),
    ]
}

/// The reference: one flat plan, every poll a scan of all of it.
struct LinearInjector {
    specs: Vec<Shape>,
    fired: Vec<bool>,
    rng: StdRng,
    injected: u64,
    clock: Clock,
    tracer: Tracer,
}

fn active(from: SimTime, until: SimTime, now: SimTime) -> bool {
    from <= now && now < until
}

impl LinearInjector {
    fn new(seed: u64, specs: &[Shape], clock: Clock, tracer: Tracer) -> Self {
        LinearInjector {
            specs: specs.to_vec(),
            fired: vec![false; specs.len()],
            rng: StdRng::seed_from_u64(seed),
            injected: 0,
            clock,
            tracer,
        }
    }

    fn add_spec(&mut self, spec: Shape) {
        self.specs.push(spec);
        self.fired.push(false);
    }

    fn note(&mut self, lane: Lane, fault: F, magnitude: u64) {
        self.injected += 1;
        self.tracer
            .emit(lane, TraceEvent::FaultInjected { fault, magnitude });
    }

    fn note_once(&mut self, i: usize, lane: Lane, fault: F, factor: u32) {
        if !self.fired[i] {
            self.fired[i] = true;
            self.injected += 1;
            let factor = factor as u64;
            self.tracer
                .emit(lane, TraceEvent::FailSlowInjected { fault, factor });
        }
    }

    fn fabric_penalty(&mut self) -> SimDuration {
        let now = self.clock.now();
        let mut penalty = SimDuration::ZERO;
        for i in 0..self.specs.len() {
            match self.specs[i] {
                Shape::FabricLatencySpike(from, until, extra) if active(from, until, now) => {
                    penalty += extra;
                    self.note(Lane::Net, F::FabricLatencySpike, extra.as_nanos());
                }
                Shape::FabricPartition(from, until)
                    if until != FOREVER && active(from, until, now) =>
                {
                    let stall = until.since(now);
                    penalty += stall;
                    self.note(Lane::Net, F::FabricPartition, stall.as_nanos());
                }
                _ => {}
            }
        }
        penalty
    }

    fn fabric_slowdown(&mut self) -> u32 {
        let now = self.clock.now();
        let mut slow = 1u32;
        for i in 0..self.specs.len() {
            if let Shape::LameFabricLink(from, until, factor) = self.specs[i] {
                if active(from, until, now) {
                    slow = slow.saturating_mul(factor);
                    self.note_once(i, Lane::Net, F::LameFabricLink, factor);
                }
            }
        }
        slow
    }

    fn ssd_disruption(&mut self) -> SsdDisruption {
        let now = self.clock.now();
        let mut d = SsdDisruption::default();
        for i in 0..self.specs.len() {
            match self.specs[i] {
                // The draw is part of the guard: one per active spec.
                Shape::SsdTransientError(from, until, p)
                    if active(from, until, now) && self.rng.random_bool(p) =>
                {
                    d.transient_error = true;
                    self.note(Lane::Storage, F::SsdTransientError, 1);
                }
                Shape::SsdLatencyStorm(from, until, factor) if active(from, until, now) => {
                    d.storm_factor = d.storm_factor.max(factor);
                    self.note(Lane::Storage, F::SsdLatencyStorm, factor as u64);
                }
                Shape::GrindingSsd(from, until, factor) if active(from, until, now) => {
                    d.grind_factor = d.grind_factor.saturating_mul(factor);
                    self.note_once(i, Lane::Storage, F::GrindingSsd, factor);
                }
                _ => {}
            }
        }
        d
    }

    fn pool_slowdown_for(&mut self, pool: usize) -> u32 {
        let now = self.clock.now();
        let mut slow = 1u32;
        for i in 0..self.specs.len() {
            if let Shape::DegradedPool(p, from, until, factor) = self.specs[i] {
                if p == pool && active(from, until, now) {
                    slow = slow.saturating_mul(factor);
                    self.note_once(i, Lane::Memory, F::DegradedPool, factor);
                }
            }
        }
        slow
    }

    fn pool_down_now_for(&mut self, pool: usize) -> bool {
        let now = self.clock.now();
        for i in 0..self.specs.len() {
            if self.fired[i] {
                continue;
            }
            let hit = match self.specs[i] {
                Shape::HeartbeatFlap(from, until) if pool == 0 && active(from, until, now) => {
                    (F::HeartbeatFlap, 1)
                }
                Shape::FabricPartition(from, until)
                    if pool == 0 && until == FOREVER && from <= now =>
                {
                    (F::FabricPartition, 1)
                }
                Shape::PoolDeath(p, from) if p == pool && from <= now => {
                    (F::HeartbeatFlap, pool as u64 + 1)
                }
                _ => continue,
            };
            self.note(Lane::Memory, hit.0, hit.1);
            return true;
        }
        false
    }

    fn retire_pool_faults_for(&mut self, pool: usize) {
        for i in 0..self.specs.len() {
            match self.specs[i] {
                Shape::HeartbeatFlap(..) if pool == 0 => self.fired[i] = true,
                Shape::FabricPartition(_, until) if pool == 0 && until == FOREVER => {
                    self.fired[i] = true;
                }
                Shape::PoolDeath(p, _) if p == pool => self.fired[i] = true,
                _ => {}
            }
        }
    }

    fn pool_crash_now_for(&mut self, pool: usize) -> Option<SimDuration> {
        let now = self.clock.now();
        for i in 0..self.specs.len() {
            if let Shape::PoolCrashRestart(p, at, down_for) = self.specs[i] {
                if !self.fired[i] && p == pool && at <= now {
                    self.fired[i] = true;
                    self.note(Lane::Memory, F::PoolCrashRestart, down_for.as_nanos());
                    return Some(down_for);
                }
            }
        }
        None
    }

    fn torn_tail_for(&mut self, pool: usize) -> bool {
        let now = self.clock.now();
        for i in 0..self.specs.len() {
            if let Shape::TornJournalWrite(p, at) = self.specs[i] {
                if !self.fired[i] && p == pool && at <= now {
                    self.fired[i] = true;
                    self.note(Lane::Memory, F::TornJournalWrite, pool as u64);
                    return true;
                }
            }
        }
        false
    }

    fn queue_burst(&mut self) -> Option<SimDuration> {
        let now = self.clock.now();
        let mut burst: Option<SimDuration> = None;
        for i in 0..self.specs.len() {
            if let Shape::QueueBacklogBurst(from, until, backlog) = self.specs[i] {
                if active(from, until, now) && !self.fired[i] {
                    self.fired[i] = true;
                    burst = Some(burst.map_or(backlog, |b| b.max(backlog)));
                    self.note(Lane::Memory, F::QueueBacklogBurst, backlog.as_nanos());
                }
            }
        }
        burst
    }

    fn corruption(&mut self, point: CorruptionPoint, page: u64) -> Option<Corruption> {
        let now = self.clock.now();
        for i in 0..self.specs.len() {
            let (p, lane, fault) = match (point, self.specs[i]) {
                (CorruptionPoint::Fabric, Shape::FabricBitFlip(from, until, p))
                    if active(from, until, now) =>
                {
                    (p, Lane::Net, F::FabricBitFlip)
                }
                (CorruptionPoint::Ssd, Shape::SsdLatentSector(from, until, p))
                    if active(from, until, now) =>
                {
                    (p, Lane::Storage, F::SsdLatentSector)
                }
                (CorruptionPoint::Pool, Shape::PoolScribble(from, until, p))
                    if active(from, until, now) =>
                {
                    (p, Lane::Memory, F::PoolScribble)
                }
                _ => continue,
            };
            if self.rng.random_bool(p) {
                let offset = self.rng.random_range(0..PAGE_SIZE);
                let mask = self.rng.random_range(1..=255u8);
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

    fn pushdown_disruption(&mut self, call: u64) -> Option<PushdownDisruption> {
        let now = self.clock.now();
        let mut d = None;
        for i in 0..self.specs.len() {
            match self.specs[i] {
                Shape::PushdownException(c) if c == call => {
                    d = d.or(Some(PushdownDisruption::Exception));
                    self.note(Lane::Memory, F::PushdownException, call);
                }
                Shape::PushdownExceptionProb(from, until, p)
                    if active(from, until, now) && self.rng.random_bool(p) =>
                {
                    d = d.or(Some(PushdownDisruption::Exception));
                    self.note(Lane::Memory, F::PushdownException, call);
                }
                Shape::PushdownHang(c) if c == call => {
                    d = Some(PushdownDisruption::Hang);
                    self.note(Lane::Memory, F::PushdownHang, call);
                }
                _ => {}
            }
        }
        d
    }
}

/// Virtual span the random windows and scripts live in.
const HORIZON_NS: u64 = 10_000;
const POOLS: usize = 3;
const CALLS: u64 = 6;

/// One random spec of any of the 18 shapes, or an open-ended partition.
fn random_spec(rng: &mut StdRng) -> Shape {
    let from = SimTime(rng.random_range(0..HORIZON_NS));
    let until = match rng.random_range(0..4u32) {
        0 => FOREVER,
        _ => SimTime(from.0 + rng.random_range(1..HORIZON_NS)),
    };
    let p = rng.random_range(0..=4u32) as f64 / 4.0;
    let factor = rng.random_range(1..9u32);
    let pool = rng.random_range(0..POOLS);
    let some_time = SimDuration::from_nanos(rng.random_range(1..500u64));
    let call = rng.random_range(0..CALLS);
    match rng.random_range(0..19usize) {
        18 => Shape::FabricPartition(from, FOREVER),
        i => shapes((from, until), p, factor, pool, some_time, call)[i],
    }
}

#[test]
fn indexed_polls_match_a_linear_scan_of_the_plan() {
    let mut rng = StdRng::seed_from_u64(env_seed(0xFA17));
    let mut injected_total = 0;
    for case in 0..300 {
        let seed = rng.random();
        let shapes: Vec<Shape> = (0..rng.random_range(0..14u32))
            .map(|_| random_spec(&mut rng))
            .collect();
        let plan = shapes
            .iter()
            .fold(FaultPlan::new(seed), |plan, s| s.build(plan));
        let (clock_a, clock_b) = (Clock::new(), Clock::new());
        let (trace_a, trace_b) = (Tracer::new(clock_a.clone()), Tracer::new(clock_b.clone()));
        trace_a.enable();
        trace_b.enable();
        let indexed = FaultInjector::new(plan.clone(), clock_a.clone(), trace_a.clone());
        let mut linear = LinearInjector::new(seed, &shapes, clock_b.clone(), trace_b.clone());
        for step in 0..400 {
            let ctx = format!("case {case} step {step} plan {:?}", indexed.plan());
            let pool = rng.random_range(0..POOLS);
            match rng.random_range(0..16u32) {
                0 => assert_eq!(indexed.fabric_penalty(), linear.fabric_penalty(), "{ctx}"),
                1 => assert_eq!(indexed.fabric_slowdown(), linear.fabric_slowdown(), "{ctx}"),
                2 => assert_eq!(indexed.ssd_disruption(), linear.ssd_disruption(), "{ctx}"),
                3 => assert_eq!(
                    indexed.pool_slowdown_for(pool),
                    linear.pool_slowdown_for(pool),
                    "{ctx}"
                ),
                4 => assert_eq!(
                    indexed.pool_down_now_for(pool),
                    linear.pool_down_now_for(pool),
                    "{ctx}"
                ),
                5 => assert_eq!(
                    indexed.pool_crash_now_for(pool),
                    linear.pool_crash_now_for(pool),
                    "{ctx}"
                ),
                6 => assert_eq!(
                    indexed.torn_tail_for(pool),
                    linear.torn_tail_for(pool),
                    "{ctx}"
                ),
                7 => assert_eq!(indexed.queue_burst(), linear.queue_burst(), "{ctx}"),
                8..=10 => {
                    let point = [
                        CorruptionPoint::Fabric,
                        CorruptionPoint::Ssd,
                        CorruptionPoint::Pool,
                    ][rng.random_range(0..3usize)];
                    let page = rng.random_range(0..64u64);
                    assert_eq!(
                        indexed.corruption(point, page),
                        linear.corruption(point, page),
                        "{ctx}"
                    );
                }
                11 => {
                    let call = rng.random_range(0..CALLS);
                    assert_eq!(
                        indexed.pushdown_disruption(call),
                        linear.pushdown_disruption(call),
                        "{ctx}"
                    );
                }
                12 if step % 8 == 0 => {
                    indexed.retire_pool_faults_for(pool);
                    linear.retire_pool_faults_for(pool);
                }
                13 if step % 4 == 0 => {
                    let spec = random_spec(&mut rng);
                    indexed.add(spec.build(FaultPlan::new(0)));
                    linear.add_spec(spec);
                }
                _ => {
                    let d = SimDuration::from_nanos(rng.random_range(0..HORIZON_NS / 40));
                    clock_a.advance(d);
                    clock_b.advance(d);
                }
            }
            assert_eq!(indexed.injected_count(), linear.injected, "{ctx}");
            assert_eq!(trace_a.digest(), trace_b.digest(), "{ctx}");
        }
        let built = linear
            .specs
            .iter()
            .fold(FaultPlan::new(seed), |p, s| s.build(p));
        assert_eq!(indexed.plan(), built, "case {case}");
        injected_total += linear.injected;
    }
    assert!(injected_total > 10_000, "the scripts must inject faults");
}

/// Which shape's builder spells `spec`, given `spec`'s own numbers (which
/// must be legal), if any.
fn spelled_by(spec: &FaultSpec) -> Option<usize> {
    use {FaultEffect::*, FaultTarget::*, FaultWhen::*};
    let (window, call) = match spec.when {
        Window(from, until) => ((from, until), 0),
        At(at) => ((at, FOREVER), 0),
        CallIdx(n) => ((SimTime(0), FOREVER), n),
    };
    let pool = match spec.target {
        Pool(p) | Heartbeat(p) => p,
        _ => 0,
    };
    let (mut p, mut k, mut d) = (0.5, 1, SimDuration::from_nanos(1));
    match spec.effect {
        Fail(q) | Flip(q) => p = q,
        Scale(f) => k = f,
        Add(e) | CrashRestart(e) => d = e,
        Hang | Down | TornTail => {}
    }
    let built = |s: &Shape| s.build(FaultPlan::new(0)).specs() == [*spec];
    shapes(window, p, k, pool, d, call).iter().position(built)
}

/// Random target × effect × when × report tuples, illegal numbers included
/// (probabilities outside `[0, 1]` and NaN, factor 0): `try_with` lets one
/// in exactly when a builder spells it, refuses an illegal number as such
/// whatever the shape, and anything else as unsupported.
#[test]
fn try_with_accepts_exactly_the_builder_shapes() {
    use {FaultEffect::*, FaultPlanError::*, FaultReport::*, FaultTarget::*, FaultWhen::*};
    let mut rng = StdRng::seed_from_u64(env_seed(0x7AB1E));
    let mut seen = [false; 18];
    for _ in 0..30_000 {
        let pool = rng.random_range(0..POOLS);
        let t = SimTime(rng.random_range(0..HORIZON_NS));
        let d = SimDuration::from_nanos(rng.random_range(1..500u64));
        let p = [0.0, 0.25, 1.0, -0.5, 1.5, f64::NAN][rng.random_range(0..6usize)];
        let k = rng.random_range(0..3u32);
        let until = [FOREVER, SimTime(t.0 + d.as_nanos())][rng.random_range(0..2usize)];
        let targets = [
            Fabric,
            Ssd,
            Pool(pool),
            PoolImage,
            Heartbeat(pool),
            Queue,
            Call,
        ];
        let effects = [
            Add(d),
            Scale(k),
            Fail(p),
            Flip(p),
            Hang,
            Down,
            CrashRestart(d),
            TornTail,
        ];
        let whens = [Window(t, until), At(t), CallIdx(rng.random_range(0..CALLS))];
        let spec = FaultSpec::new(
            targets[rng.random_range(0..targets.len())],
            effects[rng.random_range(0..effects.len())],
            whens[rng.random_range(0..whens.len())],
            [PerOp, Onset][rng.random_range(0..2usize)],
        );
        let expected = match spec.effect {
            Fail(p) | Flip(p) if !(0.0..=1.0).contains(&p) => Err(Probability),
            Scale(0) => Err(FreeSlowdown),
            _ => spelled_by(&spec).map(|s| seen[s] = true).ok_or(Unsupported),
        };
        let got = FaultPlan::new(0).try_with(spec).map(drop);
        assert_eq!(got, expected, "{spec:?}");
    }
    assert_eq!(seen, [true; 18], "every shape was drawn and accepted");
    // Named refusals: a free slowdown, a probability the PRNG would panic
    // on, a hang over a window, and two tuples a looser table would give a
    // new meaning (a healing flap off pool 0, a coin-flip call exception).
    let (t0, t1) = (SimTime(0), SimTime(1_000));
    for (target, effect, when, report, why) in [
        (Pool(0), Scale(0), Window(t0, FOREVER), Onset, FreeSlowdown),
        (Ssd, Fail(1.5), Window(t0, FOREVER), PerOp, Probability),
        (Call, Hang, Window(t0, FOREVER), PerOp, Unsupported),
        (Heartbeat(1), Down, Window(t0, t1), PerOp, Unsupported),
        (Call, Fail(0.5), CallIdx(3), PerOp, Unsupported),
    ] {
        let spec = FaultSpec::new(target, effect, when, report);
        let got = FaultPlan::new(0).try_with(spec).map(drop);
        assert_eq!(got, Err(why), "{spec:?}");
    }
}
