//! The measurement loops, the command line and the result formats.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::calib::{Calibrator, REFERENCE_NS};
use crate::chaos::Chaos;
use crate::compare::{compare, Def, END_TO_END};
use crate::json::Json;
use crate::layers;
use crate::scatter::Scatter;
use crate::serve::Serve;
use crate::span::{chrome_trace, self_time_table, Spans};
use crate::stats::{median, quartiles};
use crate::tpch::Tpch;
use crate::workload::{Ctx, Iteration, Workload};

pub const WORKLOADS: [&str; 4] = ["tpch", "scatter", "serve", "chaos"];
/// The seed results are reported on. README.md names a second, held-out
/// seed that a change claiming a gain must also report.
pub const DEFAULT_SEED: u64 = 42;
/// The end-to-end metrics every workload has: the ones BENCHMARK.json lists
/// and the driver's result line carries. The other six are defined on some
/// workloads only; `run` prints them, `compare` gates them, and the traced
/// run reports them as `bench.*`.
pub const DRIVER_END_TO_END: [&str; 4] = ["setup_s", "ops_per_s", "peak_rss_mb", "sim_s"];
/// Set-up (input generation + one checked iteration) is repeated this many
/// times so `setup_s` is a median, not one sample.
const SETUP_REPS: usize = 3;
/// Timed iterations when `--seconds` is not given.
const DEFAULT_ITERS: usize = 11;
const DEFAULT_TRACE_ITERS: usize = 5;
/// With `--seconds`, at least this many timed iterations run regardless.
const MIN_ITERS: usize = 5;
const MIN_TRACE_ITERS: usize = 3;

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: Option<f64>,
    pub smoke: bool,
}

/// `VmHWM` of this process in MB: the most memory it ever held.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn iterate<W: Workload>(input: &W::Input, tracer_on: bool, spans: &mut Spans) -> Iteration {
    let token = spans.enter("iter");
    let mut ctx = Ctx::new(spans, tracer_on);
    let sim = W::iterate(input, &mut ctx);
    let it = ctx.finish(sim);
    spans.exit(token);
    it
}

/// A host-only change must leave every simulated number, every counter and
/// the trace digest as they were; so must merely running again.
fn assert_repeats(workload: &str, first: &Iteration, again: &Iteration) {
    assert!(
        first == again,
        "{workload}: an iteration did not repeat the first one bit for bit:\n{:?}\nvs\n{:?}",
        (&first.sim, first.failed, first.digest),
        (&again.sim, again.failed, again.digest),
    );
}

/// A host time in seconds with the machine-speed factor it was taken at:
/// [`REFERENCE_NS`] ÷ the calibration kernel's time just before and after.
#[derive(Debug, Clone, Copy)]
pub struct HostTime {
    pub raw_s: f64,
    pub factor: f64,
}

impl HostTime {
    /// The time in reference seconds.
    pub fn ref_s(&self) -> f64 {
        self.raw_s * self.factor
    }
}

/// Times `f` between two runs of the calibration kernel; `before` is the
/// kernel's time just before (the previous measurement's "after").
fn host_time<R>(cal: &mut Calibrator, before: &mut f64, f: impl FnOnce() -> R) -> (R, HostTime) {
    let t0 = Instant::now();
    let r = f();
    let raw_s = t0.elapsed().as_secs_f64();
    let after = cal.sample();
    let factor = REFERENCE_NS / ((*before + after) / 2.0);
    *before = after;
    (r, HostTime { raw_s, factor })
}

/// Time iterations of `input` until `done(taken so far, seconds so far)`.
fn timed_iterations<W: Workload>(
    input: &W::Input,
    first: &Iteration,
    cal: &mut Calibrator,
    done: impl Fn(usize, f64) -> bool,
) -> Vec<HostTime> {
    let mut spans = Spans::new(false);
    let mut times = Vec::new();
    let started = Instant::now();
    let mut before = cal.sample();
    while !done(times.len(), started.elapsed().as_secs_f64()) {
        let (it, t) = host_time(cal, &mut before, || {
            iterate::<W>(input, W::TRACER_ON, &mut spans)
        });
        times.push(t);
        assert_repeats(W::NAME, first, &it);
    }
    times
}

/// Everything one untraced run of one workload measured.
#[derive(Debug, Clone)]
pub struct Measured {
    pub workload: &'static str,
    pub ops: u64,
    pub setups: Vec<HostTime>,
    pub iters: Vec<HostTime>,
    pub peak_rss_mb: f64,
    pub first: Iteration,
}

pub fn measure<W: Workload>(opts: &Opts) -> Measured {
    let mut spans = Spans::new(false);
    let mut cal = Calibrator::new();
    let mut before = cal.sample();
    let mut setups = Vec::new();
    let mut state: Option<(W::Input, Iteration)> = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition's input first, so the peak memory is
        // that of one input.
        let first = state.take().map(|(_, it)| it);
        let ((input, it), t) = host_time(&mut cal, &mut before, || {
            let input = W::generate(opts.seed, opts.smoke, &mut spans);
            let it = iterate::<W>(&input, W::TRACER_ON, &mut spans);
            (input, it)
        });
        setups.push(t);
        if let Some(first) = &first {
            assert_repeats(W::NAME, first, &it);
        }
        state = Some((input, it));
    }
    let (input, first) = state.expect("SETUP_REPS >= 1");
    let iters = timed_iterations::<W>(&input, &first, &mut cal, |n, elapsed| match opts.seconds {
        Some(s) => n >= MIN_ITERS && elapsed >= s,
        None => n >= DEFAULT_ITERS,
    });
    Measured {
        workload: W::NAME,
        ops: W::ops(&input),
        setups,
        iters,
        peak_rss_mb: peak_rss_mb(),
        first,
    }
}

impl Measured {
    /// `(definition, value, samples behind it)` of every end-to-end metric
    /// this workload has, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<(&'static Def, f64, Vec<f64>)> {
        let ops = self.ops as f64;
        let setup_s: Vec<f64> = self.setups.iter().map(HostTime::ref_s).collect();
        let iter_s: Vec<f64> = self.iters.iter().map(HostTime::ref_s).collect();
        END_TO_END
            .iter()
            .filter_map(|def| {
                let (value, samples) = match def.name {
                    // Three set-ups (the first, in a cold process, always
                    // the slowest) are too few for a spread: like the
                    // driver, `compare` judges the median alone.
                    "setup_s" => (median(&setup_s), vec![]),
                    "ops_per_s" => (
                        ops / median(&iter_s),
                        iter_s.iter().map(|s| ops / s).collect(),
                    ),
                    "peak_rss_mb" => (self.peak_rss_mb, vec![]),
                    "fail_frac" => (self.first.failed as f64 / ops, vec![]),
                    sim => (*self.first.sim.get(sim)?, vec![]),
                };
                Some((def, value, samples))
            })
            .collect()
    }

    pub fn print(&self) {
        let w = self.workload;
        for (def, value, _) in self.end_to_end() {
            println!("{:<14} {w:<8} {value:>18.6} {}", def.name, def.unit);
        }
        for (name, value) in &self.first.sim {
            if !END_TO_END.iter().any(|d| d.name == *name) {
                println!("# {w}: {name} = {value:.6}");
            }
        }
        for (what, times) in [("timed iterations", &self.iters), ("set-ups", &self.setups)] {
            let of = |f: fn(&HostTime) -> f64| quartiles(&times.iter().map(f).collect::<Vec<_>>());
            let (reference, raw, factor) = (of(HostTime::ref_s), of(|t| t.raw_s), of(|t| t.factor));
            println!(
                "# {w}: {} {what}, median {:.4} ref s (q1 {:.4}, q3 {:.4}); raw {:.4} s \
                 (q1 {:.4}, q3 {:.4}) at machine speed {:.3} (q1 {:.3}, q3 {:.3})",
                times.len(),
                reference.median,
                reference.q1,
                reference.q3,
                raw.median,
                raw.q1,
                raw.q3,
                factor.median,
                factor.q1,
                factor.q3,
            );
        }
        println!(
            "# {w}: attempted {} failed {} digest {:#018x}",
            self.ops, self.first.failed, self.first.digest
        );
    }

    /// Every end-to-end metric with the samples behind it, for
    /// `results.json` and `compare`.
    fn to_json(&self) -> Json {
        Json::obj(
            self.end_to_end()
                .into_iter()
                .map(|(def, value, samples)| (def.name, metric_json(value, def.unit, &samples))),
        )
    }

    /// The metrics of the driver's result line: BENCHMARK.json's
    /// `end_to_end`, which can list only what every workload has.
    fn driver_json(&self) -> Json {
        let all = self.end_to_end();
        Json::obj(DRIVER_END_TO_END.map(|name| {
            let (def, value, _) = all
                .iter()
                .find(|m| m.0.name == name)
                .expect("on every workload");
            (name, metric_json(*value, def.unit, &[]))
        }))
    }
}

/// `{"value": …, "unit": …}`, plus the samples behind the value if any.
fn metric_json(value: f64, unit: &str, samples: &[f64]) -> Json {
    let mut fields = vec![
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_string())),
    ];
    if !samples.is_empty() {
        let samples = samples.iter().copied().map(Json::Num).collect();
        fields.push(("samples", Json::Arr(samples)));
    }
    Json::obj(fields)
}

/// One traced run: per-layer metrics and the benchmark's spans.
pub struct Traced {
    pub workload: &'static str,
    pub ops: u64,
    pub failed: u64,
    pub per_layer: BTreeMap<&'static str, f64>,
    pub spans: Spans,
}

/// The traced run. Under one `run` span: set-up, a checked warm-up
/// iteration, a few iterations without spans for the untraced median, one
/// iteration with the benchmark's spans on, one more with the program's own
/// tracer on as well, and the per-call probes.
pub fn trace<W: Workload>(opts: &Opts) -> Traced {
    let mut spans = Spans::new(true);
    let run = spans.enter("run");
    let input = spans.span("setup", |spans| W::generate(opts.seed, opts.smoke, spans));
    let first = iterate::<W>(&input, W::TRACER_ON, &mut spans);

    let token = spans.enter("untraced");
    let mut cal = Calibrator::new();
    let iters = timed_iterations::<W>(&input, &first, &mut cal, |n, elapsed| match opts.seconds {
        Some(s) => n >= MIN_TRACE_ITERS && elapsed >= s / 2.0,
        None => n >= DEFAULT_TRACE_ITERS,
    });
    spans.exit(token);

    // The two instrumented iterations are single samples, so they are held
    // against the untraced median in reference seconds, like `ops_per_s`.
    let mut before = cal.sample();
    let (spanned, spanned_t) = host_time(&mut cal, &mut before, || {
        iterate::<W>(&input, W::TRACER_ON, &mut spans)
    });
    assert_repeats(W::NAME, &first, &spanned);
    let traced_from = spans.all().len();
    let (traced, traced_t) = host_time(&mut cal, &mut before, || {
        iterate::<W>(&input, true, &mut spans)
    });
    drop(cal);
    let untraced_ref_s = median(&iters.iter().map(HostTime::ref_s).collect::<Vec<_>>());
    // The program's tracer observes; it must not change what it observes.
    assert!(
        traced.sim == first.sim && traced.failed == first.failed,
        "{}: turning the program's tracer on changed a simulated result",
        W::NAME
    );

    let probes = spans.span("layers", |_| layers::probes());
    spans.exit(run);

    let counts = layers::counts(&traced.counters);
    let shares = layers::shares(
        &probes,
        &counts,
        &traced.counters,
        W::TRACER_ON,
        // Probes report their fastest batch, so shares are taken of the
        // fastest iteration, in raw seconds: both are the quiet-machine cost.
        iters.iter().map(|t| t.raw_s).fold(f64::INFINITY, f64::min) * 1e9,
    );
    let sim = |name: &str| first.sim.get(name).copied().unwrap_or(0.0);
    let mut per_layer: BTreeMap<&'static str, f64> = probes;
    per_layer.extend(counts);
    per_layer.extend(shares);
    per_layer.extend([
        (
            "ddc-sim.trace.overhead_frac",
            traced_t.ref_s() / spanned_t.ref_s() - 1.0,
        ),
        (
            "bench.span_overhead_frac",
            spanned_t.ref_s() / untraced_ref_s - 1.0,
        ),
        ("bench.speedup_x", sim("speedup_x")),
        ("bench.scale_cost_x", sim("scale_cost_x")),
        ("bench.paper_err", sim("paper_err")),
        ("bench.sim_p99_us", sim("sim_p99_us")),
        ("bench.sim_max_kqps", sim("sim_max_kqps")),
        (
            "bench.fail_frac",
            first.failed as f64 / W::ops(&input) as f64,
        ),
    ]);
    for (name, parent, span) in layers::APP_SPANS {
        // Generation happens once, in set-up; everything else is read off
        // the last (fully traced) iteration.
        let from = if parent == Some("setup") {
            0
        } else {
            traced_from
        };
        per_layer.insert(name, spans.busy_ms(from, parent, span));
    }
    Traced {
        workload: W::NAME,
        ops: W::ops(&input),
        failed: first.failed,
        per_layer,
        spans,
    }
}

impl Traced {
    pub fn print(&self) {
        let w = self.workload;
        println!("# {w}: self time by span (ms)");
        println!(
            "# {:<28} {:>6} {:>12} {:>12}",
            "span", "calls", "total", "self"
        );
        for (name, calls, total, own) in self_time_table(self.spans.all()) {
            println!("# {name:<28} {calls:>6} {total:>12.3} {own:>12.3}");
        }
        for name in layers::per_layer_names() {
            println!(
                "{name:<40} {w:<8} {:>18.6} {}",
                self.per_layer[name],
                layers::unit_of(name)
            );
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(layers::per_layer_names().into_iter().map(|name| {
            let unit = layers::unit_of(name);
            (name, metric_json(self.per_layer[name], unit, &[]))
        }))
    }
}

/// `<cargo target dir>/rackbench`, created on demand.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or("target".to_string()))
        .join("rackbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The driver's result line: the last line of standard output.
fn result_line(ops: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(ops as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

/// A run that failed operations still prints its result, then exits non-zero.
fn exit_code(failed: u64) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn with_workload<R>(
    name: &str,
    f: impl FnOnce(fn(&Opts) -> Measured, fn(&Opts) -> Traced) -> R,
) -> Result<R, String> {
    Ok(match name {
        "tpch" => f(measure::<Tpch>, trace::<Tpch>),
        "scatter" => f(measure::<Scatter>, trace::<Scatter>),
        "serve" => f(measure::<Serve>, trace::<Serve>),
        "chaos" => f(measure::<Chaos>, trace::<Chaos>),
        other => {
            return Err(format!(
                "unknown workload {other:?}; one of {}",
                WORKLOADS.join(", ")
            ))
        }
    })
}

fn parse_flags(args: &[String]) -> Result<(BTreeMap<String, String>, Vec<String>), String> {
    let mut flags = BTreeMap::new();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                flags.insert("smoke".to_string(), "1".to_string());
            }
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.insert(a[2..].to_string(), v.clone());
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => rest.push(other.to_string()),
        }
    }
    Ok((flags, rest))
}

/// `run` then `trace` for every workload, each in a child process of its
/// own so that `peak_rss_mb` is that workload's own high-water mark, merged
/// into `results.json`.
fn run_all(opts: &Opts) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = out_dir()?;
    let child = |command: &str, workload: &str| -> Result<Json, String> {
        let part = dir.join(format!("{workload}.{command}.json"));
        let mut child = std::process::Command::new(&exe);
        child.args([command, "--workload", workload]);
        child.args(["--seed", &opts.seed.to_string()]);
        child.arg("--out").arg(&part);
        if opts.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("`{command} --workload {workload}`: {status}"));
        }
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        let _ = std::fs::remove_file(&part);
        Json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))
    };
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        let Json::Obj(mut fields) = child("run", name)? else {
            return Err(format!("{name}: malformed child result"));
        };
        fields.push(("per_layer".to_string(), child("trace", name)?));
        workloads.push((name, Json::Obj(fields)));
    }
    let path = dir.join("results.json");
    let results = Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    write_file(&path, &results.pretty())?;
    println!("# results written to {}", path.display());
    Ok(())
}

const USAGE: &str = "usage:
  rackbench run     --workload <tpch|scatter|serve|chaos> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  rackbench trace   --workload <w> [--seed N] [--seconds S] [--smoke] [--out FILE]
  rackbench layers
  rackbench all     [--seed N] [--smoke]
  rackbench compare BASE.json NEW.json";

pub fn cli(args: &[String]) -> Result<ExitCode, String> {
    let (flags, rest) = parse_flags(args)?;
    let parsed = |k: &str| -> Result<Option<f64>, String> {
        flags
            .get(k)
            .map(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|n| n.is_finite() && *n >= 0.0)
                    .ok_or_else(|| format!("--{k} {v}: not a number"))
            })
            .transpose()
    };
    let opts = Opts {
        seed: match flags.get("seed") {
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| format!("--seed {v}: not a whole number"))?,
            None => DEFAULT_SEED,
        },
        seconds: parsed("seconds")?,
        smoke: flags.contains_key("smoke"),
    };
    let traced = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: 0 or 1")),
    };
    let workload = || flags.get("workload").ok_or("this command needs --workload");
    match rest.first().map(String::as_str) {
        Some("run") if !traced => {
            let m = with_workload(workload()?, |measure, _| measure(&opts))?;
            m.print();
            if let Some(path) = flags.get("out") {
                let part = Json::obj([
                    ("attempted", Json::Num(m.ops as f64)),
                    ("failed", Json::Num(m.first.failed as f64)),
                    ("digest", Json::Str(format!("{:#018x}", m.first.digest))),
                    ("end_to_end", m.to_json()),
                ]);
                write_file(&PathBuf::from(path), &part.render())?;
            }
            println!("{}", result_line(m.ops, m.first.failed, m.driver_json()));
            return Ok(exit_code(m.first.failed));
        }
        Some("run" | "trace") => {
            let t = with_workload(workload()?, |_, trace| trace(&opts))?;
            t.print();
            let path = out_dir()?.join(format!("{}.trace.json", t.workload));
            write_file(&path, &chrome_trace(t.spans.all()).render())?;
            println!("# spans written to {}", path.display());
            if let Some(path) = flags.get("out") {
                write_file(&PathBuf::from(path), &t.to_json().render())?;
            }
            println!("{}", result_line(t.ops, t.failed, t.to_json()));
            return Ok(exit_code(t.failed));
        }
        Some("layers") => {
            let probes = layers::probes();
            for name in layers::PROBES {
                println!("{name:<40} {:>14.2} ns", probes[name]);
            }
        }
        Some("all") => run_all(&opts)?,
        Some("compare") => {
            let [_, base, new] = rest.as_slice() else {
                return Err(USAGE.to_string());
            };
            let load = |path: &String| -> Result<Json, String> {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            if !compare(&load(base)?, &load(new)?)? {
                return Ok(ExitCode::FAILURE);
            }
        }
        _ => return Err(USAGE.to_string()),
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at its `--smoke` size: every oracle and self-check
    /// passes, nothing fails, and the traced run reports every per-layer
    /// metric with shares that sum to one.
    fn smoke<W: Workload>() {
        let opts = Opts {
            seed: DEFAULT_SEED,
            seconds: Some(0.0),
            smoke: true,
        };
        let mut spans = Spans::new(true);
        let input = W::generate(opts.seed, true, &mut spans);
        let first = iterate::<W>(&input, W::TRACER_ON, &mut spans);
        let again = iterate::<W>(&input, W::TRACER_ON, &mut spans);
        assert_repeats(W::NAME, &first, &again);
        assert_eq!(first.failed, 0, "{}: failed operations", W::NAME);
        assert!(first.sim["sim_s"] > 0.0);
        assert!(W::ops(&input) > 0);
        let other = W::generate(opts.seed + 1, true, &mut spans);
        let differs = iterate::<W>(&other, W::TRACER_ON, &mut spans);
        assert_ne!(
            first.sim,
            differs.sim,
            "{}: the seed feeds the inputs",
            W::NAME
        );
        // Self times of a real span tree add up to the root.
        let own = crate::span::self_times_ns(spans.all());
        let roots: u64 = spans
            .all()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns())
            .sum();
        assert_eq!(own.iter().sum::<u64>(), roots);
    }

    #[test]
    fn smoke_tpch() {
        smoke::<Tpch>();
    }

    #[test]
    fn smoke_scatter() {
        smoke::<Scatter>();
    }

    #[test]
    fn smoke_serve() {
        smoke::<Serve>();
    }

    #[test]
    fn smoke_chaos() {
        smoke::<Chaos>();
    }

    #[test]
    fn host_times_chain_their_calibration_samples() {
        let mut cal = Calibrator::new();
        let mut before = REFERENCE_NS;
        let (value, t) = host_time(&mut cal, &mut before, || 7);
        assert_eq!(value, 7);
        assert!(t.raw_s >= 0.0 && t.factor > 0.0);
        // `before` is now this measurement's "after" sample, and the factor
        // is the reference over the mean of the two.
        assert!((t.factor - REFERENCE_NS / ((REFERENCE_NS + before) / 2.0)).abs() < 1e-12);
        let slow = HostTime {
            raw_s: 3.0,
            factor: 0.5,
        };
        assert_eq!(slow.ref_s(), 1.5);
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (flags, rest) = parse_flags(&args("run --workload serve --seed 7 --trace 1")).unwrap();
        assert_eq!(rest, ["run"]);
        assert_eq!(flags["workload"], "serve");
        assert_eq!(flags["seed"], "7");
        assert!(parse_flags(&args("run --workload")).is_err());
        assert!(parse_flags(&args("run --frobnicate")).is_err());
        assert!(cli(&args("run --workload nope --smoke")).is_err());
        assert!(cli(&args("run --workload serve --seed x")).is_err());
        assert!(cli(&args("run --workload serve --trace 2")).is_err());
        assert!(cli(&args("frobnicate")).is_err());
    }

    /// BENCHMARK.json (at the repository root, found by walking up) names
    /// the workloads and per-layer metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "no BENCHMARK.json above CARGO_MANIFEST_DIR");
        };
        let manifest = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(names("per_layer"), layers::per_layer_names());
        assert_eq!(names("end_to_end"), DRIVER_END_TO_END);
        for m in manifest.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let def = END_TO_END.iter().find(|d| d.name == name).unwrap();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert_eq!(def.bound, crate::compare::Bound::Rel(bound), "{name}");
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{name}"
            );
        }
    }
}
