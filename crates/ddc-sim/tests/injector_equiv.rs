//! The fault injector's polls walk per-poll index lists instead of the whole
//! plan. This checks them against the obvious implementation — every poll a
//! linear scan of every spec, in plan order — over random plans and random
//! poll scripts (with specs appended mid-run): same answer from every poll,
//! same injected count, same trace digest. The digest covers the PRNG too:
//! a draw made out of order changes which faults hit.
//!
//! The CI chaos job pins `TELEPORT_FAULT_SEED`; it seeds the plans here.

use ddc_sim::{
    env_seed, Clock, Corruption, CorruptionPoint, FaultInjector, FaultPlan, FaultSpec,
    InjectedFault, Lane, PushdownDisruption, SimDuration, SimTime, SsdDisruption, TraceEvent,
    Tracer, FOREVER, PAGE_SIZE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference: one flat plan, every poll a scan of all of it.
struct LinearInjector {
    specs: Vec<FaultSpec>,
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
    fn new(plan: &FaultPlan, clock: Clock, tracer: Tracer) -> Self {
        LinearInjector {
            specs: plan.specs().to_vec(),
            fired: vec![false; plan.specs().len()],
            rng: StdRng::seed_from_u64(plan.seed()),
            injected: 0,
            clock,
            tracer,
        }
    }

    fn add_spec(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
        self.fired.push(false);
    }

    fn note(&mut self, lane: Lane, fault: InjectedFault, magnitude: u64) {
        self.injected += 1;
        self.tracer
            .emit(lane, TraceEvent::FaultInjected { fault, magnitude });
    }

    fn note_once(&mut self, i: usize, lane: Lane, fault: InjectedFault, factor: u32) {
        if !self.fired[i] {
            self.fired[i] = true;
            self.injected += 1;
            self.tracer.emit(
                lane,
                TraceEvent::FailSlowInjected {
                    fault,
                    factor: factor as u64,
                },
            );
        }
    }

    fn fabric_penalty(&mut self) -> SimDuration {
        let now = self.clock.now();
        let mut penalty = SimDuration::ZERO;
        for i in 0..self.specs.len() {
            match self.specs[i] {
                FaultSpec::FabricLatencySpike { from, until, extra }
                    if active(from, until, now) =>
                {
                    penalty += extra;
                    self.note(
                        Lane::Net,
                        InjectedFault::FabricLatencySpike,
                        extra.as_nanos(),
                    );
                }
                FaultSpec::FabricPartition { from, until }
                    if until != FOREVER && active(from, until, now) =>
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

    fn fabric_slowdown(&mut self) -> u32 {
        let now = self.clock.now();
        let mut slow = 1u32;
        for i in 0..self.specs.len() {
            if let FaultSpec::LameFabricLink {
                from,
                until,
                factor,
            } = self.specs[i]
            {
                if active(from, until, now) {
                    slow = slow.saturating_mul(factor);
                    self.note_once(i, Lane::Net, InjectedFault::LameFabricLink, factor);
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
                FaultSpec::SsdTransientError { from, until, p }
                    if active(from, until, now) && self.rng.random_bool(p) =>
                {
                    d.transient_error = true;
                    self.note(Lane::Storage, InjectedFault::SsdTransientError, 1);
                }
                FaultSpec::SsdLatencyStorm {
                    from,
                    until,
                    factor,
                } if active(from, until, now) => {
                    d.storm_factor = d.storm_factor.max(factor);
                    self.note(Lane::Storage, InjectedFault::SsdLatencyStorm, factor as u64);
                }
                FaultSpec::GrindingSsd {
                    from,
                    until,
                    factor,
                } if active(from, until, now) => {
                    d.grind_factor = d.grind_factor.saturating_mul(factor);
                    self.note_once(i, Lane::Storage, InjectedFault::GrindingSsd, factor);
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
            if let FaultSpec::DegradedPool {
                pool: p,
                from,
                until,
                factor,
            } = self.specs[i]
            {
                if p == pool && active(from, until, now) {
                    slow = slow.saturating_mul(factor);
                    self.note_once(i, Lane::Memory, InjectedFault::DegradedPool, factor);
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
                FaultSpec::HeartbeatFlap { from, until }
                    if pool == 0 && active(from, until, now) =>
                {
                    (InjectedFault::HeartbeatFlap, 1)
                }
                FaultSpec::FabricPartition { from, until }
                    if pool == 0 && until == FOREVER && from <= now =>
                {
                    (InjectedFault::FabricPartition, 1)
                }
                FaultSpec::PoolDeath { pool: p, from } if p == pool && from <= now => {
                    (InjectedFault::HeartbeatFlap, pool as u64 + 1)
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
                FaultSpec::HeartbeatFlap { .. } if pool == 0 => self.fired[i] = true,
                FaultSpec::FabricPartition { until, .. } if pool == 0 && until == FOREVER => {
                    self.fired[i] = true;
                }
                FaultSpec::PoolDeath { pool: p, .. } if p == pool => self.fired[i] = true,
                _ => {}
            }
        }
    }

    fn pool_crash_now_for(&mut self, pool: usize) -> Option<SimDuration> {
        let now = self.clock.now();
        for i in 0..self.specs.len() {
            if let FaultSpec::PoolCrashRestart {
                pool: p,
                at,
                down_for,
            } = self.specs[i]
            {
                if !self.fired[i] && p == pool && at <= now {
                    self.fired[i] = true;
                    self.note(
                        Lane::Memory,
                        InjectedFault::PoolCrashRestart,
                        down_for.as_nanos(),
                    );
                    return Some(down_for);
                }
            }
        }
        None
    }

    fn torn_tail_for(&mut self, pool: usize) -> bool {
        let now = self.clock.now();
        for i in 0..self.specs.len() {
            if let FaultSpec::TornJournalWrite { pool: p, at } = self.specs[i] {
                if !self.fired[i] && p == pool && at <= now {
                    self.fired[i] = true;
                    self.note(Lane::Memory, InjectedFault::TornJournalWrite, pool as u64);
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
            if let FaultSpec::QueueBacklogBurst {
                from,
                until,
                backlog,
            } = self.specs[i]
            {
                if active(from, until, now) && !self.fired[i] {
                    self.fired[i] = true;
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

    fn corruption(&mut self, point: CorruptionPoint, page: u64) -> Option<Corruption> {
        let now = self.clock.now();
        for i in 0..self.specs.len() {
            let (p, lane, fault) = match (point, self.specs[i]) {
                (CorruptionPoint::Fabric, FaultSpec::FabricBitFlip { from, until, p })
                    if active(from, until, now) =>
                {
                    (p, Lane::Net, InjectedFault::FabricBitFlip)
                }
                (CorruptionPoint::Ssd, FaultSpec::SsdLatentSector { from, until, p })
                    if active(from, until, now) =>
                {
                    (p, Lane::Storage, InjectedFault::SsdLatentSector)
                }
                (CorruptionPoint::Pool, FaultSpec::PoolScribble { from, until, p })
                    if active(from, until, now) =>
                {
                    (p, Lane::Memory, InjectedFault::PoolScribble)
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
                FaultSpec::PushdownException { call: c } if c == call => {
                    d = d.or(Some(PushdownDisruption::Exception));
                    self.note(Lane::Memory, InjectedFault::PushdownException, call);
                }
                FaultSpec::PushdownExceptionProb { from, until, p }
                    if active(from, until, now) && self.rng.random_bool(p) =>
                {
                    d = d.or(Some(PushdownDisruption::Exception));
                    self.note(Lane::Memory, InjectedFault::PushdownException, call);
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

/// Virtual span the random windows and scripts live in.
const HORIZON_NS: u64 = 10_000;
const POOLS: usize = 3;
const CALLS: u64 = 6;

/// One random spec of any of the 19 kinds.
fn random_spec(rng: &mut StdRng) -> FaultSpec {
    let from = SimTime(rng.random_range(0..HORIZON_NS));
    let until = match rng.random_range(0..4u32) {
        0 => FOREVER,
        _ => SimTime(from.0 + rng.random_range(1..HORIZON_NS)),
    };
    let p = rng.random_range(0..=4u32) as f64 / 4.0;
    let factor = rng.random_range(1..9u32);
    let pool = rng.random_range(0..POOLS);
    let some_time = SimDuration::from_nanos(rng.random_range(1..500u64));
    match rng.random_range(0..19u32) {
        0 => FaultSpec::FabricLatencySpike {
            from,
            until,
            extra: some_time,
        },
        1 => FaultSpec::FabricPartition { from, until },
        2 => FaultSpec::SsdTransientError { from, until, p },
        3 => FaultSpec::SsdLatencyStorm {
            from,
            until,
            factor,
        },
        4 => FaultSpec::HeartbeatFlap { from, until },
        5 => FaultSpec::PoolDeath { pool, from },
        6 => FaultSpec::QueueBacklogBurst {
            from,
            until,
            backlog: some_time,
        },
        7 => FaultSpec::PushdownException {
            call: rng.random_range(0..CALLS),
        },
        8 => FaultSpec::PushdownExceptionProb { from, until, p },
        9 => FaultSpec::PushdownHang {
            call: rng.random_range(0..CALLS),
        },
        10 => FaultSpec::FabricBitFlip { from, until, p },
        11 => FaultSpec::SsdLatentSector { from, until, p },
        12 => FaultSpec::PoolScribble { from, until, p },
        13 => FaultSpec::DegradedPool {
            pool,
            from,
            until,
            factor,
        },
        14 => FaultSpec::LameFabricLink {
            from,
            until,
            factor,
        },
        15 => FaultSpec::GrindingSsd {
            from,
            until,
            factor,
        },
        16 => FaultSpec::PoolCrashRestart {
            pool,
            at: from,
            down_for: some_time,
        },
        17 => FaultSpec::TornJournalWrite { pool, at: from },
        _ => FaultSpec::FabricPartition {
            from,
            until: FOREVER,
        },
    }
}

#[test]
fn indexed_polls_match_a_linear_scan_of_the_plan() {
    let mut rng = StdRng::seed_from_u64(env_seed(0xFA17));
    let mut injected_total = 0;
    for case in 0..300 {
        let mut plan = FaultPlan::new(rng.random());
        for _ in 0..rng.random_range(0..14u32) {
            plan = plan.with(random_spec(&mut rng));
        }
        let (clock_a, clock_b) = (Clock::new(), Clock::new());
        let (trace_a, trace_b) = (Tracer::new(clock_a.clone()), Tracer::new(clock_b.clone()));
        trace_a.enable();
        trace_b.enable();
        let indexed = FaultInjector::new(plan.clone(), clock_a.clone(), trace_a.clone());
        let mut linear = LinearInjector::new(&plan, clock_b.clone(), trace_b.clone());
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
                    indexed.add_spec(spec);
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
        assert_eq!(indexed.plan().specs(), &linear.specs[..], "case {case}");
        injected_total += linear.injected;
    }
    assert!(injected_total > 10_000, "the scripts must inject faults");
}
