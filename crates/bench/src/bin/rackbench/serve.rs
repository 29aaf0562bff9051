//! `serve` — the multi-tenant serving plane with every other plane disarmed:
//! kvapp point lookups from four tenants over a warm compute cache, offered
//! at five rising rates. The open loop lives in virtual time (`ServePlane`
//! materialises each tenant's Poisson arrivals up front), so for the host it
//! is a closed batch of sessions. Three sessions in four push the lookup
//! down; one in four reads through the compute cache, which keeps the cache
//! full, so every pushdown ships a real resident list: the ❶–❽ fixed path,
//! `Dos::resident_list`, RLE and coherence-session set-up do nearly all the
//! work and paging does little.

use std::collections::BTreeMap;
use std::rc::Rc;

use ddc_os::Pattern;
use ddc_sim::{ArrivalProcess, DdcConfig, QosClass, SimDuration, PAGE_SIZE};
use kvapp::{KvData, KvStore};
use teleport::{AdmissionPolicy, Mem, Runtime, ServeConfig, ServePlane, ServeReport};
use teleport::{SessionOutcome, TenantReport};

use crate::span::Spans;
use crate::stats::{highest_supported_percentile, percentile};
use crate::workload::{absorb, Ctx, Workload, SERVE_QUEUE_PEAK};

pub const KEYS: usize = 1 << 20;
pub const CACHE_PAGES: usize = 512;
pub const TENANTS: [QosClass; 4] = [
    QosClass::Guaranteed,
    QosClass::Guaranteed,
    QosClass::Burstable,
    QosClass::BestEffort,
];
/// Per-tenant Poisson mean gap of each rate rung, in virtual µs.
const RUNG_GAPS_US: [u64; 5] = [800, 400, 300, 250, 200];
const SESSIONS_PER_RUNG: usize = 16_000;
const SMOKE_SESSIONS_PER_RUNG: usize = 400;
pub const SMOKE_KEYS: usize = 1 << 16;
/// The rung whose guaranteed-class p99 is reported as `sim_p99_us`.
const P99_RUNG: usize = 2;
/// `sim_max_kqps` is the highest rung that keeps the guaranteed classes'
/// p99 within this limit while shedding at most 1 % of what it was offered.
const P99_LIMIT_US: f64 = 600.0;
const SHED_LIMIT: f64 = 0.01;
/// The admission policy of `benches/serve.rs`: the top rung overloads the
/// single context, so it sheds (best-effort first) and queues under DRR.
const ADMISSION: AdmissionPolicy = AdmissionPolicy {
    max_queue_depth: 8,
    max_backlog: SimDuration::from_micros(400),
};
/// One session in this many reads through the compute cache.
const COMPUTE_SIDE_EVERY: u64 = 4;

pub struct Input {
    pub data: Rc<KvData>,
    pub seed: u64,
    /// Sessions per rung (`serve`) or in the whole run (`chaos`).
    pub sessions: usize,
    /// Each tenant's key per session index, `sessions / 4` of them.
    pub keys: Vec<Rc<Vec<u64>>>,
}

impl Input {
    pub fn generate(seed: u64, keys: usize, sessions: usize, spans: &mut Spans) -> Input {
        let data = spans.span("kvapp.generate", |_| KvData::generate(keys, seed));
        let per_tenant = sessions / TENANTS.len();
        let keys = (0..TENANTS.len() as u64)
            .map(|t| Rc::new(kvapp::keys(seed.wrapping_add(t), per_tenant, data.len())))
            .collect();
        Input {
            data: Rc::new(data),
            seed,
            sessions,
            keys,
        }
    }
}

pub struct Serve;

/// A teleport runtime with the store loaded and the compute cache filled
/// with clean pages, clock and ledgers zeroed.
pub fn warm_store(cfg: DdcConfig, data: &KvData, ctx: &mut Ctx<'_>) -> (Runtime, KvStore) {
    let mut rt = ctx.span("runtime.build", |_| Runtime::teleport(cfg));
    if ctx.tracer_on {
        rt.enable_tracing();
    }
    let store = ctx.span("kvapp.load", |_| KvStore::load(&mut rt, data));
    ctx.span("runtime.drop_cache", |_| {
        rt.drop_cache();
        let per_page = PAGE_SIZE / 8;
        let pages = rt.dos().ddc_config().cache_pages();
        for page in 0..pages.min(data.len() / per_page) {
            let _ = rt.get(&store.vals, page * per_page, Pattern::Rand);
        }
        rt.begin_timing();
    });
    (rt, store)
}

/// The `serve` rack: one pool, one context, every plane disarmed.
pub fn rack_config() -> DdcConfig {
    DdcConfig {
        compute_cache_bytes: CACHE_PAGES * PAGE_SIZE,
        ..Default::default()
    }
}

/// Fold a serve report's ledger into the iteration's counters.
pub fn absorb_report(ctx: &mut Ctx<'_>, rep: &ServeReport) {
    absorb(&mut ctx.counters, &rep.metrics());
    let peak = ctx.counters.entry(SERVE_QUEUE_PEAK.into()).or_insert(0);
    *peak = (*peak).max(rep.queue_peak as u64);
}

/// Guaranteed-class session latencies of a report, in virtual ns.
pub fn guaranteed_latencies(rep: &ServeReport) -> Vec<u64> {
    rep.tenants
        .iter()
        .filter(|t| t.class == QosClass::Guaranteed)
        .flat_map(|t| &t.outcomes)
        .filter_map(|o| match o {
            SessionOutcome::Completed { latency, .. } => Some(latency.as_nanos()),
            _ => None,
        })
        .collect()
}

/// Latency detail printed beside `sim_p99_us`: the sample count, the median
/// and the highest percentile that still has ten samples beyond it.
pub fn latency_detail(latencies: &[u64]) -> [(&'static str, f64); 4] {
    let (top_pct, top) = highest_supported_percentile(latencies).unwrap_or((0.0, 0));
    [
        ("lat_samples", latencies.len() as f64),
        ("lat_p50_us", percentile(latencies, 50.0) as f64 / 1e3),
        ("lat_top_pct", top_pct),
        ("lat_top_us", top as f64 / 1e3),
    ]
}

/// Sessions of `tenant` that went wrong: completed with a value other than
/// `expect(s)`, or admitted and then failed with a typed error. A session
/// shed at arrival is neither; admission control refusing work it cannot
/// serve in time is the designed response, counted by `serve.shed` and held
/// against each rung's shed limit.
pub fn wrong_sessions(tenant: &TenantReport, expect: impl Fn(usize) -> u64) -> u64 {
    tenant
        .outcomes
        .iter()
        .enumerate()
        .filter(|(s, o)| match o {
            SessionOutcome::Completed { value, .. } => *value != expect(*s),
            SessionOutcome::Failed(_) => true,
            SessionOutcome::Shed => false,
        })
        .count() as u64
}

/// Per-rung detail printed beside the end-to-end metrics: offered rate,
/// guaranteed-class p99 and the share of sessions shed.
const RUNG_DETAIL: [[&str; 3]; 5] = [
    ["rung1_kqps", "rung1_p99_us", "rung1_shed_frac"],
    ["rung2_kqps", "rung2_p99_us", "rung2_shed_frac"],
    ["rung3_kqps", "rung3_p99_us", "rung3_shed_frac"],
    ["rung4_kqps", "rung4_p99_us", "rung4_shed_frac"],
    ["rung5_kqps", "rung5_p99_us", "rung5_shed_frac"],
];

struct Rung {
    kqps: f64,
    p99_us: f64,
    shed_frac: f64,
    latencies: Vec<u64>,
}

impl Workload for Serve {
    const NAME: &'static str = "serve";
    type Input = Input;

    fn generate(seed: u64, smoke: bool, spans: &mut Spans) -> Input {
        if smoke {
            Input::generate(seed, SMOKE_KEYS, SMOKE_SESSIONS_PER_RUNG, spans)
        } else {
            Input::generate(seed, KEYS, SESSIONS_PER_RUNG, spans)
        }
    }

    /// Sessions offered over the five rungs.
    fn ops(input: &Input) -> u64 {
        (input.sessions * RUNG_GAPS_US.len()) as u64
    }

    fn iterate(input: &Input, ctx: &mut Ctx<'_>) -> BTreeMap<&'static str, f64> {
        let per_tenant = input.sessions / TENANTS.len();
        let mut sim_s = 0.0;
        let mut rungs = Vec::new();
        for (r, gap_us) in RUNG_GAPS_US.into_iter().enumerate() {
            let rung = ctx.span(&format!("teleport.serve.rung{}", r + 1), |ctx| {
                let (mut rt, store) = warm_store(rack_config(), &input.data, ctx);
                let mut plane = ServePlane::new(ServeConfig {
                    seed: input.seed.wrapping_add(r as u64),
                    admission: ADMISSION,
                    contexts: None,
                });
                for (t, class) in TENANTS.into_iter().enumerate() {
                    let ks = Rc::clone(&input.keys[t]);
                    plane.tenant(
                        format!("kv{t}"),
                        class,
                        ArrivalProcess::poisson(SimDuration::from_micros(gap_us)),
                        per_tenant,
                        move |rt, s| {
                            let key = ks[s as usize];
                            if s % COMPUTE_SIDE_EVERY == COMPUTE_SIDE_EVERY - 1 {
                                Ok(rt.get(&store.vals, key as usize, Pattern::Rand))
                            } else {
                                kvapp::get(rt, &store, key)
                            }
                        },
                    );
                }
                let rep = ctx.span("teleport.serve.run", |_| plane.run(&mut rt));
                ctx.check(rep.ledger_balances(), rep.arrived());
                for (t, tenant) in rep.tenants.iter().enumerate() {
                    let wrong = wrong_sessions(tenant, |s| {
                        kvapp::oracle::get(&input.data, input.keys[t][s])
                    });
                    ctx.check(wrong == 0, wrong);
                }
                sim_s += rt.elapsed().as_secs_f64();
                absorb_report(ctx, &rep);
                ctx.finish_runtime(&rt);
                let latencies = guaranteed_latencies(&rep);
                Rung {
                    kqps: TENANTS.len() as f64 * 1e3 / gap_us as f64,
                    p99_us: percentile(&latencies, 99.0) as f64 / 1e3,
                    shed_frac: rep.shed() as f64 / rep.arrived() as f64,
                    latencies,
                }
            });
            rungs.push(rung);
        }
        let max_kqps = rungs
            .iter()
            .filter(|r| r.p99_us <= P99_LIMIT_US && r.shed_frac <= SHED_LIMIT)
            .map(|r| r.kqps)
            .fold(0.0, f64::max);
        let mut sim = BTreeMap::from([
            ("sim_s", sim_s),
            ("sim_p99_us", rungs[P99_RUNG].p99_us),
            ("sim_max_kqps", max_kqps),
        ]);
        sim.extend(latency_detail(&rungs[P99_RUNG].latencies));
        for (rung, names) in rungs.iter().zip(RUNG_DETAIL) {
            sim.extend([
                (names[0], rung.kqps),
                (names[1], rung.p99_us),
                (names[2], rung.shed_frac),
            ]);
        }
        sim
    }
}
