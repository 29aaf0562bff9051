//! The multi-tenant open-loop serving plane (ROADMAP item 2).
//!
//! Every other harness in this repository drives one workload to
//! completion. A production rack does not get that luxury: N tenants
//! submit thousands of sessions on their own schedules — an *open-loop*
//! client plane, where arrivals never slow down because the rack is busy —
//! and admission control, fairness, and failover earn their keep under
//! that pressure. [`ServePlane`] is the session scheduler that brings this
//! shape to the reproduction:
//!
//! - Each tenant declares a QoS class ([`QosClass`]), a seeded
//!   [`ArrivalProcess`] (Poisson / bursty / uniform, in virtual time), a
//!   session count, and a *work* closure that runs one session against the
//!   shared [`Runtime`] (a memdb query, a graph job, a KV point lookup —
//!   anything that pushes down).
//! - Arrivals from all tenants merge into one deterministic timeline
//!   (sorted by arrival instant, tenant index, session index). At each
//!   arrival, class-aware admission
//!   ([`AdmissionPolicy::admits_class`](crate::AdmissionPolicy::admits_class))
//!   inspects the fair queue's depth and the estimated wait for a free
//!   TELEPORT context: a shed session is counted against its class and
//!   emits [`TraceEvent::TenantThrottled`]; an admitted one enters the
//!   deficit-round-robin queue ([`DrrQueue`]) weighted by its class.
//! - Admitted sessions multiplex over the platform's `memory_contexts`
//!   logical slots. Service time is whatever the work closure charges to
//!   the shared virtual clock; session latency is completion minus arrival
//!   *including queueing* — what the tenant's client would observe.
//!
//! ## Determinism
//!
//! The plane adds **no time charges and no randomness of its own**:
//! arrival schedules are seeded and pre-materialized, merge order is a
//! total order, the DRR queue tie-breaks by tenant index, and slot
//! selection tie-breaks by slot index. Sessions execute sequentially on
//! the single shared clock (concurrency is modeled by the logical slot
//! timeline, exactly like `ddc_sim::multiplex_makespan`), so the same seed
//! replays the same arrivals, the same admission verdicts, the same
//! interleaving, and the same trace digest. With one tenant and the
//! trivial schedule, the underlying workload's event stream is
//! bit-identical to running it without the plane — the serving layer is
//! invisible until contention actually exists (`tests/trace_golden.rs`
//! pins this).

use ddc_os::DrrQueue;
use ddc_sim::{
    ArrivalProcess, Lane, LatencyRecorder, MetricsRegistry, QosClass, SimDuration, SimTime,
    TraceEvent, QOS_CLASSES,
};

use crate::fault::PushdownError;
use crate::rpc::AdmissionPolicy;
use crate::runtime::{PlatformKind, Runtime};

/// Configuration of one serve run.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Master seed; each tenant's arrival schedule derives from it, so one
    /// number reproduces the whole run.
    pub seed: u64,
    /// The admission policy whose class-scaled limits gate every arrival.
    pub admission: AdmissionPolicy,
    /// Logical service slots to multiplex over. `None` uses the platform's
    /// own parallelism: `memory_contexts` on TELEPORT, 1 elsewhere.
    pub contexts: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 0x5EED,
            admission: AdmissionPolicy::default(),
            contexts: None,
        }
    }
}

impl ServeConfig {
    pub fn with_seed(seed: u64) -> Self {
        ServeConfig {
            seed,
            ..Self::default()
        }
    }
}

/// What happened to one session, in session-index order.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome {
    /// The session ran to completion; `value` is the work closure's result
    /// and `latency` its client-observed (queueing-inclusive) latency.
    Completed { value: u64, latency: SimDuration },
    /// Class-aware admission shed the session at arrival.
    Shed,
    /// The session was admitted but its work failed.
    Failed(PushdownError),
}

/// One tenant's ledger after a serve run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    pub name: String,
    pub class: QosClass,
    pub arrived: u64,
    pub admitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub failed: u64,
    /// Hedge legs the runtime fired while serving this tenant's sessions.
    pub hedges_fired: u64,
    /// Hedge legs that won the modeled race for this tenant.
    pub hedges_won: u64,
    /// Deadline budgets this tenant's sessions blew.
    pub deadline_misses: u64,
    /// Per-session outcomes, indexed by session id.
    pub outcomes: Vec<SessionOutcome>,
}

impl TenantReport {
    /// Sessions admitted but neither completed nor failed. Zero once the
    /// plane has drained (the shed-ledger invariant
    /// `arrived == completed + shed + failed + in_flight` is
    /// property-tested in `tests/serve_props.rs`).
    pub fn in_flight(&self) -> u64 {
        self.admitted - self.completed - self.failed
    }
}

/// The result of one serve run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    pub tenants: Vec<TenantReport>,
    /// Per-tenant latency samples (p50/p99/p999 accessors).
    pub latency: LatencyRecorder,
    /// Virtual time from run start to the last session completion.
    pub makespan: SimDuration,
    /// Total service time across all slots (busy time).
    pub busy: SimDuration,
    /// Logical slots the run multiplexed over.
    pub contexts: usize,
    /// Deepest the fair queue ever got.
    pub queue_peak: usize,
}

impl ServeReport {
    pub fn arrived(&self) -> u64 {
        self.tenants.iter().map(|t| t.arrived).sum()
    }

    pub fn admitted(&self) -> u64 {
        self.tenants.iter().map(|t| t.admitted).sum()
    }

    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    pub fn shed(&self) -> u64 {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tenants.iter().map(|t| t.failed).sum()
    }

    /// Completed sessions of every tenant in `class`.
    pub fn class_completed(&self, class: QosClass) -> u64 {
        self.tenants
            .iter()
            .filter(|t| t.class == class)
            .map(|t| t.completed)
            .sum()
    }

    /// Shed sessions of every tenant in `class`.
    pub fn class_shed(&self, class: QosClass) -> u64 {
        self.tenants
            .iter()
            .filter(|t| t.class == class)
            .map(|t| t.shed)
            .sum()
    }

    /// The shed-ledger invariant at drain: every arrival is accounted for.
    pub fn ledger_balances(&self) -> bool {
        self.tenants
            .iter()
            .all(|t| t.arrived == t.completed + t.shed + t.failed + t.in_flight())
    }

    /// Fraction of arrivals served to completion, in parts per million —
    /// the serve plane's availability headline. A crash+rejoin window that
    /// sheds only best-effort work dents this without zeroing it.
    pub fn availability_ppm(&self) -> u64 {
        let arrived = self.arrived();
        if arrived == 0 {
            return 1_000_000;
        }
        self.completed().saturating_mul(1_000_000) / arrived
    }

    /// Fraction of slot-time spent serving, in parts per million.
    pub fn utilization_ppm(&self) -> u64 {
        let capacity = self
            .makespan
            .as_nanos()
            .saturating_mul(self.contexts as u64);
        if capacity == 0 {
            return 0;
        }
        self.busy.as_nanos().saturating_mul(1_000_000) / capacity
    }

    /// The `serve.*` metric registry: totals, per-class throughput/shed
    /// counts, and per-tenant latency percentiles.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.set("serve.tenants", self.tenants.len() as u64);
        m.set("serve.contexts", self.contexts as u64);
        m.set("serve.arrived", self.arrived());
        m.set("serve.admitted", self.admitted());
        m.set("serve.completed", self.completed());
        m.set("serve.shed", self.shed());
        m.set("serve.failed", self.failed());
        m.set("serve.makespan_ns", self.makespan.as_nanos());
        m.set(
            "serve.hedges",
            self.tenants.iter().map(|t| t.hedges_fired).sum::<u64>(),
        );
        m.set(
            "serve.hedge_wins",
            self.tenants.iter().map(|t| t.hedges_won).sum::<u64>(),
        );
        m.set(
            "serve.deadline_misses",
            self.tenants.iter().map(|t| t.deadline_misses).sum::<u64>(),
        );
        m.set("serve.busy_ns", self.busy.as_nanos());
        m.set("serve.utilization_ppm", self.utilization_ppm());
        m.set("serve.availability_ppm", self.availability_ppm());
        m.set("serve.queue_peak_depth", self.queue_peak as u64);
        for class in QOS_CLASSES {
            let seg = class.metric_segment();
            m.set(
                format!("serve.{seg}.completed"),
                self.class_completed(class),
            );
            m.set(format!("serve.{seg}.shed"), self.class_shed(class));
        }
        for (t, rep) in self.tenants.iter().enumerate() {
            m.set(format!("serve.tenant{t}.completed"), rep.completed);
            m.set(format!("serve.tenant{t}.shed"), rep.shed);
            for (q, get) in [
                ("p50", self.latency.p50(t)),
                ("p99", self.latency.p99(t)),
                ("p999", self.latency.p999(t)),
            ] {
                if let Some(d) = get {
                    m.set(format!("serve.tenant{t}.{q}_ns"), d.as_nanos());
                }
            }
        }
        m
    }
}

type Work = Box<dyn FnMut(&mut Runtime, u64) -> Result<u64, PushdownError>>;

struct TenantSpec {
    name: String,
    class: QosClass,
    arrivals: ArrivalProcess,
    sessions: usize,
    work: Work,
}

/// One merged arrival. The sort key `(time, tenant, session)` is the total
/// order the whole run hangs off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Arrival {
    at: SimTime,
    tenant: usize,
    session: u64,
}

/// An admitted session waiting in the fair queue.
#[derive(Debug, Clone, Copy)]
struct Queued {
    session: u64,
    arrived: SimTime,
}

/// The open-loop session scheduler. Declare tenants, then [`ServePlane::run`].
pub struct ServePlane {
    cfg: ServeConfig,
    tenants: Vec<TenantSpec>,
}

impl ServePlane {
    pub fn new(cfg: ServeConfig) -> Self {
        ServePlane {
            cfg,
            tenants: Vec::new(),
        }
    }

    /// Declare a tenant: `sessions` sessions arriving per `arrivals`, each
    /// executed by `work(rt, session_id)`. Returns the tenant's index.
    pub fn tenant(
        &mut self,
        name: impl Into<String>,
        class: QosClass,
        arrivals: ArrivalProcess,
        sessions: usize,
        work: impl FnMut(&mut Runtime, u64) -> Result<u64, PushdownError> + 'static,
    ) -> usize {
        self.tenants.push(TenantSpec {
            name: name.into(),
            class,
            arrivals,
            sessions,
            work: Box::new(work),
        });
        self.tenants.len() - 1
    }

    /// Each tenant's schedule seed, derived from the master seed by a
    /// golden-ratio mix so tenants draw independent streams.
    fn tenant_seed(&self, t: usize) -> u64 {
        self.cfg
            .seed
            .wrapping_add((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Run the plane to drain against `rt`. Consumes the plane (the work
    /// closures are spent).
    pub fn run(mut self, rt: &mut Runtime) -> ServeReport {
        let contexts = self.cfg.contexts.unwrap_or(match rt.kind() {
            PlatformKind::Teleport => rt.dos().ddc_config().memory_contexts.max(1),
            _ => 1,
        });
        assert!(contexts >= 1, "need at least one service slot");

        // Materialize and merge every tenant's arrival schedule.
        let mut arrivals: Vec<Arrival> = Vec::new();
        for (t, spec) in self.tenants.iter().enumerate() {
            for (s, at) in spec
                .arrivals
                .schedule(self.tenant_seed(t), spec.sessions)
                .into_iter()
                .enumerate()
            {
                arrivals.push(Arrival {
                    at,
                    tenant: t,
                    session: s as u64,
                });
            }
        }
        arrivals.sort();

        let base = rt.dos().clock().now();
        let quanta: Vec<u64> = self.tenants.iter().map(|s| s.class.weight()).collect();
        let mut reports: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|s| TenantReport {
                name: s.name.clone(),
                class: s.class,
                arrived: 0,
                admitted: 0,
                completed: 0,
                shed: 0,
                failed: 0,
                hedges_fired: 0,
                hedges_won: 0,
                deadline_misses: 0,
                outcomes: vec![SessionOutcome::Shed; s.sessions],
            })
            .collect();
        let mut latency = LatencyRecorder::new(self.tenants.len());
        let mut queue: DrrQueue<Queued> =
            DrrQueue::new(if quanta.is_empty() { &[1] } else { &quanta });
        // When slot `i` frees, on the logical (arrival-relative) timeline.
        let mut slots: Vec<SimTime> = vec![base; contexts];
        let mut busy = SimDuration::ZERO;
        let mut last_completion = base;
        let mut queue_peak = 0usize;

        // Serve the head of the fair queue on the earliest-free slot
        // (ties by slot index). Execution is sequential on the shared
        // clock; the logical slot timeline models the concurrency.
        let dispatch_one = |rt: &mut Runtime,
                            tenants: &mut Vec<TenantSpec>,
                            reports: &mut Vec<TenantReport>,
                            latency: &mut LatencyRecorder,
                            slots: &mut Vec<SimTime>,
                            busy: &mut SimDuration,
                            last_completion: &mut SimTime,
                            t: usize,
                            q: Queued| {
            let slot = (0..slots.len())
                .min_by_key(|&i| (slots[i], i))
                .expect("contexts >= 1");
            let start = slots[slot].max(q.arrived);
            let t0 = rt.dos().clock().now();
            // Attribute whatever gray-failure mitigation the work closure
            // triggers (hedges, blown deadlines) to this tenant's ledger.
            let hedges0 = rt.hedges_fired();
            let wins0 = rt.hedges_won();
            let misses0 = rt.deadline_misses();
            let credit0 = rt.hedge_credit() + rt.probe_credit();
            let result = (tenants[t].work)(rt, q.session);
            reports[t].hedges_fired += rt.hedges_fired() - hedges0;
            reports[t].hedges_won += rt.hedges_won() - wins0;
            reports[t].deadline_misses += rt.deadline_misses() - misses0;
            // The slot timeline and the session's latency are the modeled
            // concurrent view: a hedged call's losing leg and any health
            // probes that rode this call were charged to the raw clock
            // (the rack paid them) but did not hold this serving slot.
            let credit = (rt.hedge_credit() + rt.probe_credit()).saturating_sub(credit0);
            let dur = rt.dos().clock().now().since(t0).saturating_sub(credit);
            let completion = start + dur;
            slots[slot] = completion;
            *busy += dur;
            if completion > *last_completion {
                *last_completion = completion;
            }
            match result {
                Ok(value) => {
                    let lat = completion.since(q.arrived);
                    rt.trace().emit(
                        Lane::Compute,
                        TraceEvent::SessionComplete {
                            tenant: t as u64,
                            latency_ns: lat.as_nanos(),
                        },
                    );
                    reports[t].completed += 1;
                    reports[t].outcomes[q.session as usize] = SessionOutcome::Completed {
                        value,
                        latency: lat,
                    };
                    latency.record(t, lat);
                }
                Err(err) => {
                    reports[t].failed += 1;
                    reports[t].outcomes[q.session as usize] = SessionOutcome::Failed(err);
                }
            }
        };

        for arr in arrivals {
            let at = base + arr.at.since(SimTime::ZERO);
            // Drain every session whose slot frees before this arrival:
            // those dispatches logically precede it.
            while !queue.is_empty() {
                let earliest = slots.iter().copied().min().expect("contexts >= 1");
                if earliest > at {
                    break;
                }
                let (t, q) = queue.pop().expect("queue checked non-empty");
                dispatch_one(
                    rt,
                    &mut self.tenants,
                    &mut reports,
                    &mut latency,
                    &mut slots,
                    &mut busy,
                    &mut last_completion,
                    t,
                    q,
                );
            }

            let t = arr.tenant;
            let class = self.tenants[t].class;
            reports[t].arrived += 1;
            rt.trace().emit(
                Lane::Compute,
                TraceEvent::SessionArrive {
                    tenant: t as u64,
                    session: arr.session,
                },
            );
            // Admission: how deep is the fair queue, and how long until a
            // slot frees for a new arrival?
            let waiting = queue.len();
            let earliest = slots.iter().copied().min().expect("contexts >= 1");
            let backlog = if earliest > at {
                earliest.since(at)
            } else {
                SimDuration::ZERO
            };
            if self.cfg.admission.admits_class(class, waiting, backlog) {
                reports[t].admitted += 1;
                rt.trace().emit(
                    Lane::Compute,
                    TraceEvent::SessionAdmit {
                        tenant: t as u64,
                        session: arr.session,
                    },
                );
                queue.push(
                    t,
                    Queued {
                        session: arr.session,
                        arrived: at,
                    },
                );
                queue_peak = queue_peak.max(queue.len());
            } else {
                reports[t].shed += 1;
                rt.trace().emit(
                    Lane::Compute,
                    TraceEvent::TenantThrottled {
                        tenant: t as u64,
                        class,
                    },
                );
                // outcomes[session] already defaults to Shed.
            }
        }

        // Arrivals exhausted: drain the queue.
        while let Some((t, q)) = queue.pop() {
            dispatch_one(
                rt,
                &mut self.tenants,
                &mut reports,
                &mut latency,
                &mut slots,
                &mut busy,
                &mut last_completion,
                t,
                q,
            );
        }

        ServeReport {
            tenants: reports,
            latency,
            makespan: last_completion.since(base),
            busy,
            contexts,
            queue_peak,
        }
    }
}
