//! What every workload hands the harness, and the helpers the workloads
//! share: the three-platform runner of the batch workloads, counter
//! accumulation, and the paper-facing model metrics.

use std::collections::BTreeMap;

use ddc_sim::{geometric_mean, MetricsRegistry, SimDuration};
use teleport::{PlatformKind, Runtime};
use teleport_bench::{runtime_for, CACHE_RATIO};

use crate::span::Spans;

/// Program counters summed over an iteration's runtimes, keyed by the
/// program's own metric names (`paging.cache_hits`, `serve.shed`, …).
pub type Counters = BTreeMap<String, u64>;

/// What one iteration of a workload produced besides host time: a complete,
/// fresh simulation of its fixed input, so everything here must repeat bit
/// for bit from one iteration to the next.
#[derive(Debug, Clone, PartialEq)]
pub struct Iteration {
    /// Simulated (virtual-time) results by end-to-end metric name.
    pub sim: BTreeMap<&'static str, f64>,
    /// How many of the offered operations ([`Workload::ops`]) went wrong:
    /// oracle mismatches, typed errors, failed sessions. A job whose result
    /// is wrong fails every operation it stood for.
    pub failed: u64,
    pub counters: Counters,
    /// Digest of the program's own event trace (0 while its tracer is off).
    pub digest: u64,
}

/// Counters the benchmark adds beside the program's own: simulated µs the
/// pushdown path spent outside the pushed function (`Breakdown::overhead`),
/// events the program's tracer recorded, and the deepest any rung's fair
/// queue got.
pub const PUSHDOWN_OVERHEAD: &str = "bench.pushdown_overhead_us";
pub const TRACE_EVENTS: &str = "bench.trace_events";
pub const SERVE_QUEUE_PEAK: &str = "bench.serve_queue_peak";

/// The state an iteration accumulates as it runs.
pub struct Ctx<'a> {
    pub spans: &'a mut Spans,
    /// Whether runtimes built in this iteration record the program's trace.
    pub tracer_on: bool,
    pub failed: u64,
    pub counters: Counters,
    pub digest: u64,
}

impl<'a> Ctx<'a> {
    pub fn new(spans: &'a mut Spans, tracer_on: bool) -> Self {
        Ctx {
            spans,
            tracer_on,
            failed: 0,
            counters: Counters::new(),
            digest: 0,
        }
    }

    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Ctx<'a>) -> R) -> R {
        let token = self.spans.enter(name);
        let r = f(self);
        self.spans.exit(token);
        r
    }

    /// Count `ops` operations as failed unless `ok`.
    pub fn check(&mut self, ok: bool, ops: u64) {
        if !ok {
            self.failed += ops;
        }
    }

    /// Run `body` against a fresh runtime of `kind` sized for working set
    /// `ws` at the paper's 2 % cache ratio (the `repro` configuration),
    /// inside a platform span. `body` loads its data, calls
    /// [`Ctx::cold_start`], and runs its jobs.
    pub fn on_platform<R>(
        &mut self,
        kind: PlatformKind,
        ws: usize,
        body: impl FnOnce(&mut Runtime, &mut Ctx<'a>) -> R,
    ) -> R {
        self.span(platform_tag(kind), |ctx| {
            let mut rt = ctx.span("runtime.build", |_| runtime_for(kind, ws, CACHE_RATIO));
            if ctx.tracer_on {
                rt.enable_tracing();
            }
            let r = body(&mut rt, ctx);
            ctx.finish_runtime(&rt);
            r
        })
    }

    /// Drop the compute cache (DDC platforms) and zero the clock and
    /// ledgers: every job starts cold and is metered from here.
    pub fn cold_start(&mut self, rt: &mut Runtime) {
        self.span("runtime.drop_cache", |_| {
            if rt.kind() != PlatformKind::Local {
                rt.drop_cache();
            }
            rt.begin_timing();
        });
    }

    /// Fold a finished runtime's counters and trace digest into the
    /// iteration's.
    pub fn finish_runtime(&mut self, rt: &Runtime) {
        let reg = self.span("runtime.metrics", |_| rt.metrics());
        absorb(&mut self.counters, &reg);
        let overhead = rt.total_breakdown().overhead();
        *self.counters.entry(PUSHDOWN_OVERHEAD.into()).or_insert(0) += overhead.as_nanos() / 1000;
        *self.counters.entry(TRACE_EVENTS.into()).or_insert(0) += rt.trace().len();
        self.span("trace.digest", |ctx| {
            if rt.trace().is_enabled() {
                ctx.digest = ddc_sim::fnv_fold(ctx.digest, rt.trace().digest());
            }
        });
    }

    pub fn finish(self, sim: BTreeMap<&'static str, f64>) -> Iteration {
        Iteration {
            sim,
            failed: self.failed,
            counters: self.counters,
            digest: self.digest,
        }
    }
}

/// A closed batch run of a fixed, seeded input.
pub trait Workload {
    const NAME: &'static str;
    /// Whether the workload itself runs with the program's tracer on (the
    /// traced run turns it on for every workload).
    const TRACER_ON: bool = false;
    type Input;

    /// Build the inputs and their host-side oracles from `seed` alone.
    fn generate(seed: u64, smoke: bool, spans: &mut Spans) -> Self::Input;
    /// Operations one iteration offers (the numerator of `ops_per_s`).
    fn ops(input: &Self::Input) -> u64;
    /// Simulate the whole input once on fresh runtimes; returns the
    /// simulated end-to-end metrics.
    fn iterate(input: &Self::Input, ctx: &mut Ctx<'_>) -> BTreeMap<&'static str, f64>;
}

pub fn absorb(counters: &mut Counters, reg: &MetricsRegistry) {
    for (name, value) in reg.iter() {
        *counters.entry(name.to_string()).or_insert(0) += value;
    }
}

pub const PLATFORMS: [PlatformKind; 3] = [
    PlatformKind::Local,
    PlatformKind::BaseDdc,
    PlatformKind::Teleport,
];

/// Span name and metric-name segment of a platform.
pub fn platform_tag(kind: PlatformKind) -> &'static str {
    match kind {
        PlatformKind::Local => "local",
        PlatformKind::BaseDdc => "base",
        PlatformKind::Teleport => "teleport",
    }
}

/// One job's simulated time on the three platforms, with the speedup the
/// paper reports for it (EXPERIMENTS.md, Fig 13).
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub paper_speedup: f64,
    pub local: SimDuration,
    pub base: SimDuration,
    pub tele: SimDuration,
}

/// `sim_s`, `speedup_x` (Fig 13), `scale_cost_x` (Fig 1b) and `paper_err`
/// of a three-platform batch workload.
pub fn model_metrics(jobs: &[Job]) -> BTreeMap<&'static str, f64> {
    let speedups: Vec<f64> = jobs.iter().map(|j| j.base.ratio(j.tele)).collect();
    let costs: Vec<f64> = jobs.iter().map(|j| j.tele.ratio(j.local)).collect();
    let err = jobs
        .iter()
        .zip(&speedups)
        .map(|(j, s)| (s / j.paper_speedup).ln().abs())
        .sum::<f64>()
        / jobs.len() as f64;
    BTreeMap::from([
        (
            "sim_s",
            jobs.iter().map(|j| j.tele.as_secs_f64()).sum::<f64>(),
        ),
        (
            "speedup_x",
            geometric_mean(&speedups).expect("at least one job"),
        ),
        (
            "scale_cost_x",
            geometric_mean(&costs).expect("at least one job"),
        ),
        ("paper_err", err),
    ])
}

/// The `close` of `memdb/tests/oracle_equiv.rs`: floating-point sums taken
/// in a different order agree to a relative 1e-6.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_metrics_follow_their_definitions() {
        let d = SimDuration::from_millis;
        let jobs = [
            Job {
                paper_speedup: 4.0,
                local: d(10),
                base: d(80),
                tele: d(20),
            },
            Job {
                paper_speedup: 2.0,
                local: d(10),
                base: d(160),
                tele: d(40),
            },
        ];
        let m = model_metrics(&jobs);
        assert!(close(m["sim_s"], 0.06));
        assert!(close(m["speedup_x"], 4.0));
        assert!(close(m["scale_cost_x"], 8.0_f64.sqrt()));
        assert!(close(m["paper_err"], 2.0_f64.ln() / 2.0));
    }
}
