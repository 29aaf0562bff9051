//! `chaos` — the `serve` traffic with every plane armed: two pools striped
//! by LoadBalance, synchronous replication, a scheduled scrub, resilient
//! (retry-only) pushdowns over four contexts, the program's tracer on, and
//! one fault plan carrying fabric bit flips, pool scribbles, a degraded-pool
//! window, a lame-link window, a fabric latency spike and a pool crash with
//! restart. Half the sessions are pushed-down puts, so replication, the
//! journal and checksum resealing all carry real traffic. `serve` against
//! `chaos` is the "a disarmed plane costs nothing" contrast.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use ddc_os::Pattern;
use ddc_sim::{
    ArrivalProcess, DdcConfig, FaultPlan, PlacementPolicy, ReplicationMode, ScrubConfig,
    SimDuration, SimTime, PAGE_SIZE,
};
use teleport::{AdmissionPolicy, Mem, PushdownOpts, ResiliencePolicy, ServeConfig, ServePlane};

use crate::serve::{
    absorb_report, guaranteed_latencies, latency_detail, warm_store, Input, CACHE_PAGES, KEYS,
    SMOKE_KEYS, TENANTS,
};
use crate::span::Spans;
use crate::stats::percentile;
use crate::workload::{Ctx, Workload};

const SESSIONS: usize = 40_000;
const SMOKE_SESSIONS: usize = 2_000;
/// Per-tenant Poisson mean gap: ≈ 20 k sessions per virtual second, a
/// quarter of what the four contexts can serve, so nothing is shed.
const GAP_US: u64 = 200;
const CONTEXTS: usize = 4;
/// Virtual service time of one session, for placing the fault windows. The
/// runtime clock is the *sum of service times*, not the arrival horizon: a
/// window placed on the arrival horizon can lie beyond the end of the run.
const SERVICE_EST_NS: u64 = 60_000;
/// Counters that prove each armed plane did work; all must end above zero.
const MUST_FIRE: [&str; 9] = [
    "recovery.crashes",
    "recovery.restarts",
    "recovery.resilvered_pages",
    "failover.promotions",
    "integrity.detected",
    "health.quarantines",
    "scrub.passes",
    "replication.pages_shipped",
    "faults.injected",
];

pub struct Chaos;

/// What session `s` does: of every ten, five put, three get by pushdown and
/// two get through the compute cache.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    Put,
    Get,
    ComputeGet,
}

fn op_of(s: u64) -> Op {
    match s % 10 {
        0..=4 => Op::Put,
        5..=7 => Op::Get,
        _ => Op::ComputeGet,
    }
}

/// A point `permille` thousandths into the expected length of a run of
/// `sessions` sessions, on the runtime clock.
fn at(sessions: usize, permille: u64) -> SimTime {
    SimTime(sessions as u64 * SERVICE_EST_NS / 1000 * permille)
}

/// The `chaos` rack: two striped pools with synchronous replicas, four
/// contexts and a scrub every fifth of the run (≈ 500 virtual ms at the
/// full size).
pub fn rack_config(sessions: usize) -> DdcConfig {
    let cfg = DdcConfig {
        compute_cache_bytes: CACHE_PAGES * PAGE_SIZE,
        pools: 2,
        placement: PlacementPolicy::LoadBalance,
        replication: ReplicationMode::Synchronous,
        memory_contexts: CONTEXTS,
        scrub: ScrubConfig {
            every: Some(at(sessions, 200).since(SimTime::ZERO)),
            ..Default::default()
        },
        ..Default::default()
    };
    cfg.validate().expect("the chaos rack is a valid rack");
    cfg
}

/// The fault plan, its windows laid out as fractions of the run's expected
/// length on the runtime clock. The corruption probability scales with the
/// run so a short run still sees corruption: 2 % per page at the full size.
pub fn fault_plan(seed: u64, sessions: usize) -> FaultPlan {
    let at = |permille| at(sessions, permille);
    let corrupt = (800.0 / sessions as f64).min(0.5);
    FaultPlan::new(seed)
        .fabric_bit_flips(at(50), at(250), corrupt)
        .pool_scribbles(at(50), at(250), corrupt)
        .degraded_pool(1, at(300), at(450), 10)
        .lame_fabric_link(at(500), at(600), 8)
        .fabric_latency_spike(at(620), at(700), SimDuration::from_micros(2))
        .pool_crash_restart(0, at(750), SimDuration::from_millis(2))
}

impl Workload for Chaos {
    const NAME: &'static str = "chaos";
    const TRACER_ON: bool = true;
    type Input = Input;

    fn generate(seed: u64, smoke: bool, spans: &mut Spans) -> Input {
        if smoke {
            Input::generate(seed, SMOKE_KEYS, SMOKE_SESSIONS, spans)
        } else {
            Input::generate(seed, KEYS, SESSIONS, spans)
        }
    }

    /// Sessions offered.
    fn ops(input: &Input) -> u64 {
        input.sessions as u64
    }

    fn iterate(input: &Input, ctx: &mut Ctx<'_>) -> BTreeMap<&'static str, f64> {
        let sessions = input.sessions;
        let per_tenant = sessions / TENANTS.len();
        let n = input.data.len();
        ctx.span("teleport.serve.rung1", |ctx| {
            let (mut rt, store) = warm_store(rack_config(sessions), &input.data, ctx);
            rt.install_fault_plan(fault_plan(input.seed, sessions));

            // The host-side oracle: what every key holds after the puts
            // executed so far, in the order the plane actually ran them.
            let shadow = Rc::new(RefCell::new(input.data.vals.clone()));
            let wrong = Rc::new(Cell::new(0u64));
            let mut plane = ServePlane::new(ServeConfig {
                seed: input.seed,
                admission: AdmissionPolicy {
                    max_queue_depth: 64,
                    max_backlog: SimDuration::from_millis(10),
                },
                contexts: None,
            });
            let retry = ResiliencePolicy::retry_only();
            for (t, class) in TENANTS.into_iter().enumerate() {
                let keys = Rc::clone(&input.keys[t]);
                let (shadow, wrong) = (Rc::clone(&shadow), Rc::clone(&wrong));
                plane.tenant(
                    format!("kv{t}"),
                    class,
                    ArrivalProcess::poisson(SimDuration::from_micros(GAP_US)),
                    per_tenant,
                    move |rt, s| {
                        let key = keys[s as usize] as usize;
                        let vals = store.vals;
                        let op = op_of(s);
                        let put = ((t as u64) << 40 | s).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let got = match op {
                            Op::ComputeGet => rt.get(&vals, key, Pattern::Rand),
                            Op::Put | Op::Get => {
                                rt.pushdown_resilient(PushdownOpts::new(), &retry, |m| {
                                    m.charge_cycles(64);
                                    if op == Op::Put {
                                        m.write_range(&vals, key, &[put]);
                                        put
                                    } else {
                                        let mut buf = Vec::with_capacity(1);
                                        m.read_range(&vals, key, 1, &mut buf);
                                        buf[0]
                                    }
                                })?
                                .value
                            }
                        };
                        if op == Op::Put {
                            shadow.borrow_mut()[key] = put;
                        } else if got != shadow.borrow()[key] {
                            wrong.set(wrong.get() + 1);
                        }
                        Ok(got)
                    },
                );
            }
            let rep = ctx.span("teleport.serve.run", |_| plane.run(&mut rt));
            let sim_s = rt.elapsed().as_secs_f64();

            ctx.check(rep.ledger_balances(), rep.arrived());
            let unserved = rep.arrived() - rep.completed();
            ctx.check(unserved == 0, unserved);
            ctx.check(wrong.get() == 0, wrong.get());
            // Every plane must have done work, lost nothing, and left a
            // live rack holding exactly what the shadow map holds.
            let reg = rt.metrics();
            let idle: Vec<&str> = MUST_FIRE
                .into_iter()
                .filter(|name| reg.get(name).unwrap_or(0) == 0)
                .collect();
            assert!(idle.is_empty(), "chaos: armed planes did no work: {idle:?}");
            assert_eq!(reg.get("integrity.data_loss"), Some(0), "chaos lost data");
            assert!(rt.is_alive(), "chaos killed the rack");
            absorb_report(ctx, &rep);
            ctx.finish_runtime(&rt);
            let mut stored = Vec::new();
            ctx.span("kvapp.verify", |_| {
                rt.read_range(&store.vals, 0, n, &mut stored)
            });
            let stale = stored
                .iter()
                .zip(shadow.borrow().iter())
                .filter(|(a, b)| a != b)
                .count() as u64;
            ctx.check(stale == 0, stale);

            let latencies = guaranteed_latencies(&rep);
            let mut sim = BTreeMap::from([
                ("sim_s", sim_s),
                ("sim_p99_us", percentile(&latencies, 99.0) as f64 / 1e3),
            ]);
            sim.extend(latency_detail(&latencies));
            sim
        })
    }
}
