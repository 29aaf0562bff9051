//! `abpair`: run the benchmark on two commits in alternating pairs and
//! append what it measured to `BENCH_rackbench.json`, won or lost.
//!
//! ```text
//! abpair <parent> <change> --workload <w> [--seed N] [--pairs N]
//! ```
//!
//! Each commit is checked out with `git worktree add --detach` under
//! `target/ab/<sha>` and built with `BENCHMARK.json`'s own command (its
//! `cargo run` made a `cargo build`, in the worktree's own target
//! directory). The two binaries must differ, and the two `BENCHMARK.json`s
//! must give one `run_seconds`. Pair `i` runs parent then change when `i` is
//! even and change then parent when it is odd (ABBA), each run being
//! `run --workload <w> --seed <N> --seconds <run_seconds>`, the run length
//! the benchmark itself uses.
//!
//! From every run it reads the end-to-end lines (`setup_s`, `ops_per_s`,
//! `peak_rss_mb`, `sim_s`) and the "timed iterations" and "set-ups" lines
//! (reference seconds, raw seconds, machine speed). It appends one row per
//! metric with the parent's and the change's quartiles and pairs in reference units, the same on raw seconds
//! where the metric has them, each build's machine-speed median, each
//! binary's count of out-of-line `hash_one` calls in `Calibrator::sample`,
//! whether the two builds' `sample`s disassemble to the same instructions
//! once addresses are taken out (both `null` without `nm`, `objdump` or
//! `sed`), a calibrator-drift flag, and a verdict: `claimed` when the
//! change is ahead in at least nine pairs of ten and its median is ahead of
//! the parent's by more than the parent's q1–q3 distance, else `not
//! claimed`. A seed other than rackbench's default (42) is recorded as held
//! out.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[allow(dead_code)]
#[path = "rackbench/json.rs"]
mod json;
#[allow(dead_code)]
#[path = "rackbench/stats.rs"]
mod stats;

use json::Json;
use stats::{median, quartiles, Quartiles};

const USAGE: &str = "usage: abpair <parent> <change> --workload <w> [--seed N] [--pairs N]";

const METRICS: [&str; 4] = ["setup_s", "ops_per_s", "peak_rss_mb", "sim_s"];

/// rackbench's seed when none is given: the one perf changes are developed
/// against, so any other seed is held out.
const DEFAULT_SEED: u64 = 42;

/// One host-time summary line of a run: `# <w>: N <what>, median … ref s
/// (q1 …, q3 …); raw … s (q1 …, q3 …) at machine speed … (q1 …, q3 …)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeLine {
    ref_s: f64,
    raw_s: f64,
    speed: f64,
}

/// What one `rackbench run` printed.
#[derive(Debug, Clone, PartialEq, Default)]
struct Run {
    /// `(name, value)` of every end-to-end line.
    end_to_end: Vec<(String, f64)>,
    iterations: Option<TimeLine>,
    setups: Option<TimeLine>,
    /// Operations an iteration (`attempted N`).
    ops: Option<f64>,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The metric on raw seconds, where it has them: `setup_s` is the raw
    /// median set-up, `ops_per_s` the operations over the raw median
    /// iteration.
    fn raw(&self, name: &str) -> Option<f64> {
        match name {
            "setup_s" => Some(self.setups?.raw_s),
            "ops_per_s" => Some(self.ops? / self.iterations?.raw_s),
            _ => None,
        }
    }

    /// The machine speed the run's timed iterations were measured at.
    fn speed(&self) -> Option<f64> {
        Some(self.iterations?.speed)
    }
}

/// Parses a run's stdout. Lines it does not know are skipped.
fn parse_run(stdout: &str, workload: &str) -> Run {
    let mut run = Run::default();
    let prefix = format!("# {workload}: ");
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            if let Some(rest) = rest.strip_prefix("attempted ") {
                run.ops = rest.split_whitespace().next().and_then(|n| n.parse().ok());
            } else if rest.contains(" timed iterations, ") {
                run.iterations = parse_time_line(rest);
            } else if rest.contains(" set-ups, ") {
                run.setups = parse_time_line(rest);
            }
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [name, w, value, _unit] = fields[..] {
            if w == workload && METRICS.contains(&name) {
                if let Ok(v) = value.parse() {
                    run.end_to_end.push((name.to_string(), v));
                }
            }
        }
    }
    run
}

/// The three medians of a summary line: the number after `median`, after
/// `raw` and after `machine speed`.
fn parse_time_line(rest: &str) -> Option<TimeLine> {
    let after = |key: &str| -> Option<f64> {
        let at = rest.find(key)? + key.len();
        rest[at..].split_whitespace().next()?.parse().ok()
    };
    Some(TimeLine {
        ref_s: after("median ")?,
        raw_s: after("; raw ")?,
        speed: after("machine speed ")?,
    })
}

/// Pairs the change won: lower or higher, as the metric is better.
fn pairs_won(pairs: &[(f64, f64)], lower_is_better: bool) -> usize {
    pairs
        .iter()
        .filter(|&&(p, c)| if lower_is_better { c < p } else { c > p })
        .count()
}

/// The claim rule: ahead in at least nine pairs of ten, and the change's
/// median ahead of the parent's by more than the parent's q1–q3 distance.
fn claimed(pairs: &[(f64, f64)], lower_is_better: bool) -> bool {
    if pairs.is_empty() {
        return false;
    }
    let (parent, change) = split(pairs);
    let (p, c) = (quartiles(&parent), median(&change));
    let gap = if lower_is_better {
        p.median - c
    } else {
        c - p.median
    };
    10 * pairs_won(pairs, lower_is_better) >= 9 * pairs.len() && gap > p.q3 - p.q1
}

/// Two builds' machine speed drifted apart when each median lies outside
/// the other's q1–q3: the calibrator then runs differently in the two
/// binaries, and reference units compare them unfairly.
fn drifted(a: &Quartiles, b: &Quartiles) -> bool {
    let outside = |x: f64, q: &Quartiles| x < q.q1 || x > q.q3;
    outside(a.median, b) && outside(b.median, a)
}

fn split(pairs: &[(f64, f64)]) -> (Vec<f64>, Vec<f64>) {
    pairs.iter().copied().unzip()
}

fn quartiles_json(samples: &[f64]) -> Json {
    let q = quartiles(samples);
    Json::obj([
        ("median", Json::Num(q.median)),
        ("q1", Json::Num(q.q1)),
        ("q3", Json::Num(q.q3)),
    ])
}

fn pairs_json(pairs: &[(f64, f64)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&(p, c)| Json::Arr(vec![Json::Num(p), Json::Num(c)]))
            .collect(),
    )
}

fn text(j: &Json) -> Option<&str> {
    match j {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn count_json(n: Option<usize>) -> Json {
    n.map_or(Json::Null, |n| Json::Num(n as f64))
}

/// Where the measurement came from, shared by every row of one invocation.
struct Setting<'a> {
    workload: &'a str,
    seed: u64,
    held_out: bool,
    seconds: f64,
    host: String,
    shas: [String; 2],
    hash_one: [Option<usize>; 2],
    calibrator_identical: Option<bool>,
}

/// One `BENCH_rackbench.json` row for `metric`, or `None` when a run did
/// not print it.
fn row(set: &Setting, metric: &str, unit: &str, lower: bool, runs: &[(Run, Run)]) -> Option<Json> {
    let pairs: Vec<(f64, f64)> = runs
        .iter()
        .map(|(p, c)| Some((p.metric(metric)?, c.metric(metric)?)))
        .collect::<Option<_>>()?;
    let raw: Option<Vec<(f64, f64)>> = runs
        .iter()
        .map(|(p, c)| Some((p.raw(metric)?, c.raw(metric)?)))
        .collect();
    let speeds: Option<Vec<(f64, f64)>> = runs
        .iter()
        .map(|(p, c)| Some((p.speed()?, c.speed()?)))
        .collect();
    let (parent, change) = split(&pairs);
    let drift = set.calibrator_identical == Some(false)
        || speeds.as_ref().is_some_and(|s| {
            let (a, b) = split(s);
            drifted(&quartiles(&a), &quartiles(&b))
        });
    let raw_json = raw.map_or(Json::Null, |raw| {
        let (rp, rc) = split(&raw);
        Json::obj([
            ("parent", quartiles_json(&rp)),
            ("change", quartiles_json(&rc)),
            ("pairs_won", Json::Num(pairs_won(&raw, lower) as f64)),
            ("pairs", pairs_json(&raw)),
        ])
    });
    let speed_json = speeds.map_or(Json::Null, |s| {
        let (a, b) = split(&s);
        Json::obj([
            ("parent", Json::Num(median(&a))),
            ("change", Json::Num(median(&b))),
        ])
    });
    let verdict = if claimed(&pairs, lower) {
        "claimed"
    } else {
        "not claimed"
    };
    Some(Json::obj([
        ("workload", Json::Str(set.workload.to_string())),
        ("metric", Json::Str(metric.to_string())),
        ("unit", Json::Str(unit.to_string())),
        ("seed", Json::Num(set.seed as f64)),
        ("held_out", Json::Bool(set.held_out)),
        ("seconds", Json::Num(set.seconds)),
        ("host", Json::Str(set.host.clone())),
        ("parent_sha", Json::Str(set.shas[0].clone())),
        ("change_sha", Json::Str(set.shas[1].clone())),
        ("parent", quartiles_json(&parent)),
        ("change", quartiles_json(&change)),
        ("pairs_won", Json::Num(pairs_won(&pairs, lower) as f64)),
        ("pairs_run", Json::Num(pairs.len() as f64)),
        ("pairs", pairs_json(&pairs)),
        ("raw", raw_json),
        ("machine_speed", speed_json),
        (
            "hash_one_calls",
            Json::obj([
                ("parent", count_json(set.hash_one[0])),
                ("change", count_json(set.hash_one[1])),
            ]),
        ),
        (
            "calibrator_identical",
            set.calibrator_identical.map_or(Json::Null, Json::Bool),
        ),
        ("calibrator_drift", Json::Bool(drift)),
        ("verdict", Json::Str(verdict.to_string())),
    ]))
}

/// Appends rows to a JSON array written one row a line, leaving the rows
/// already there as they are.
fn append_rows(path: &Path, rows: &[Json]) -> Result<(), String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|_| "[\n]\n".to_string());
    let body = text.trim_end();
    let body = body
        .strip_suffix(']')
        .ok_or_else(|| format!("{}: not a JSON array", path.display()))?
        .trim_end();
    let mut out = body.to_string();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 || body != "[" {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&r.render());
    }
    out.push_str("\n]\n");
    Json::parse(&out).map_err(|e| format!("{}: would not parse: {e}", path.display()))?;
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .current_dir(root)
        .args(args)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A built benchmark and the run length its `BENCHMARK.json` sets.
struct Build {
    bin: PathBuf,
    seconds: f64,
}

/// Checks `sha` out under `target/ab/` (once) and builds the benchmark
/// there with `BENCHMARK.json`'s command.
fn build(root: &Path, sha: &str) -> Result<Build, String> {
    let tree = root.join("target/ab").join(sha);
    if !tree.exists() {
        let dir = tree.to_string_lossy().to_string();
        git(root, &["worktree", "add", "--detach", &dir, sha])?;
    }
    let spec_path = tree.join("BENCHMARK.json");
    let spec = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("{}: {e}", spec_path.display()))
        .and_then(|t| Json::parse(&t))?;
    let seconds = spec
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let command: Vec<&str> = spec
        .get("command")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no command")?
        .iter()
        .map(|a| text(a).ok_or("BENCHMARK.json: command is not a list of strings"))
        .collect::<Result<_, _>>()?;
    let end = command
        .iter()
        .position(|&a| a == "--")
        .unwrap_or(command.len());
    let [program, "run", args @ ..] = &command[..end] else {
        return Err("BENCHMARK.json: command is not `cargo run …`".to_string());
    };
    let manifest = args
        .iter()
        .position(|&a| a == "--manifest-path")
        .and_then(|i| args.get(i + 1))
        .ok_or("BENCHMARK.json: command has no --manifest-path")?;
    eprintln!("abpair: building {sha}");
    let status = Command::new(program)
        .current_dir(&tree)
        .arg("build")
        .args(args)
        .env_remove("CARGO_TARGET_DIR")
        .status()
        .map_err(|e| format!("{program}: {e}"))?;
    if !status.success() {
        return Err(format!("building {sha}: {status}"));
    }
    let dir = tree.join(manifest).parent().map(Path::to_path_buf);
    let dir = dir.ok_or("--manifest-path has no directory")?;
    let name = dir
        .file_name()
        .ok_or("--manifest-path has no directory name")?;
    Ok(Build {
        bin: dir.join("target/release").join(name),
        seconds,
    })
}

/// The verify recipe's `sed -E` program: it takes out of an `objdump` line
/// what moves when the same code lands elsewhere — the address prefix, a
/// target's address and `+0x` offset, `%rip`-relative displacements and
/// `#` comments.
const NORMALIZE: &str = r"s/^ *[0-9a-f]+:\t//; s/[0-9a-f]+ <([^+>]*)(\+0x[0-9a-f]+)?>/<\1>/g; s/0x[0-9a-f]+\(%rip\)/X(%rip)/g; s/# .*//";

/// Start and size of the sized symbol whose demangled name ends in `name`,
/// from an `nm -C -S` listing.
fn symbol_extent(nm: &str, name: &str) -> Option<(u64, u64)> {
    nm.lines().find_map(|l| {
        let [addr, size, _kind, sym] =
            <[&str; 4]>::try_from(l.splitn(4, ' ').collect::<Vec<_>>()).ok()?;
        let hex = |h| u64::from_str_radix(h, 16).ok();
        sym.ends_with(name).then_some((hex(addr)?, hex(size)?))
    })
}

/// `Calibrator::sample`'s instructions, from the start and size `nm -C -S`
/// gives, through [`NORMALIZE`]; `None` when `nm`, `objdump` or `sed` is
/// missing or the symbol is not found.
fn calibrator(bin: &Path) -> Option<Vec<String>> {
    let nm = Command::new("nm")
        .args(["-C", "-S"])
        .arg(bin)
        .output()
        .ok()?;
    let (start, size) = symbol_extent(&String::from_utf8_lossy(&nm.stdout), "Calibrator::sample")?;
    let mut dump = Command::new("objdump")
        .args(["-d", "--no-show-raw-insn", "-C"])
        .arg(format!("--start-address={start:#x}"))
        .arg(format!("--stop-address={:#x}", start + size))
        .arg(bin)
        .stdout(Stdio::piped())
        .spawn()
        .ok()?;
    let sed = Command::new("sed")
        .args(["-E", NORMALIZE])
        .stdin(dump.stdout.take()?)
        .output()
        .ok()?;
    (dump.wait().ok()?.success() && sed.status.success())
        .then(|| body(&String::from_utf8_lossy(&sed.stdout)))
        .filter(|b| !b.is_empty())
}

/// The lines after the symbol's `<name>:` label in normalized `objdump`
/// output (above it: the binary's path and the section header).
fn body(listing: &str) -> Vec<String> {
    listing
        .lines()
        .skip_while(|l| !l.ends_with(">:"))
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect()
}

/// Out-of-line `hash_one` calls in a listing.
fn hash_one_calls(listing: &[String]) -> usize {
    listing
        .iter()
        .filter(|l| l.contains("call") && l.contains("hash_one"))
        .count()
}

fn run_once(bin: &Path, workload: &str, seed: u64, seconds: f64) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(["run", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!("{} run: {}", bin.display(), out.status));
    }
    Ok(parse_run(&String::from_utf8_lossy(&out.stdout), workload))
}

struct Args {
    shas: [String; 2],
    workload: String,
    seed: u64,
    pairs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let (mut workload, mut seed, mut pairs) = (None, DEFAULT_SEED, 10);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{a} {v}: not a number"))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = number(value()?)? as u64,
            "--pairs" => pairs = number(value()?)? as usize,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(a.clone()),
        }
    }
    let [parent, change] = <[String; 2]>::try_from(positional).map_err(|_| USAGE)?;
    Ok(Args {
        shas: [parent, change],
        workload: workload.ok_or(USAGE)?,
        seed,
        pairs: pairs.max(1),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("abpair: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let root = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?);
    let short = |rev: &str| git(&root, &["rev-parse", "--short", rev]);
    let shas = [short(&args.shas[0])?, short(&args.shas[1])?];
    let [a, b] = [build(&root, &shas[0])?, build(&root, &shas[1])?];
    if a.seconds != b.seconds {
        return Err(format!(
            "{} and {} set run_seconds {} and {}",
            shas[0], shas[1], a.seconds, b.seconds
        ));
    }
    let bins = [a.bin, b.bin];
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
    if read(&bins[0])? == read(&bins[1])? {
        return Err(format!(
            "{} and {} build byte-identical binaries",
            shas[0], shas[1]
        ));
    }
    let spec_text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = Json::parse(&spec_text)?;
    let defs = spec.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]);
    let kernels = [calibrator(&bins[0]), calibrator(&bins[1])];
    let set = Setting {
        workload: &args.workload,
        seed: args.seed,
        held_out: args.seed != DEFAULT_SEED,
        seconds: a.seconds,
        host: format!(
            "{}-vCPU {}",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            std::env::consts::ARCH.replace('_', "-")
        ),
        hash_one: kernels.each_ref().map(|k| k.as_deref().map(hash_one_calls)),
        calibrator_identical: match &kernels {
            [Some(a), Some(b)] => Some(a == b),
            _ => None,
        },
        shas,
    };
    let mut runs = Vec::with_capacity(args.pairs);
    for i in 0..args.pairs {
        let once = |b: &Path| run_once(b, &args.workload, args.seed, set.seconds);
        let (p, c) = if i % 2 == 0 {
            let p = once(&bins[0])?;
            (p, once(&bins[1])?)
        } else {
            let c = once(&bins[1])?;
            (once(&bins[0])?, c)
        };
        eprintln!(
            "abpair: pair {}/{}: setup_s {:?} / {:?}, ops_per_s {:?} / {:?}",
            i + 1,
            args.pairs,
            p.metric("setup_s"),
            c.metric("setup_s"),
            p.metric("ops_per_s"),
            c.metric("ops_per_s"),
        );
        runs.push((p, c));
    }
    let mut rows = Vec::new();
    for metric in METRICS {
        let def = defs
            .iter()
            .find(|d| d.get("name").and_then(text) == Some(metric));
        let field = |k: &str| def.and_then(|d| d.get(k)).and_then(text);
        let lower = field("better") != Some("higher");
        match row(&set, metric, field("unit").unwrap_or(""), lower, &runs) {
            Some(r) => {
                println!("{}", r.render());
                rows.push(r);
            }
            None => eprintln!("abpair: {metric}: not printed by every run, no row"),
        }
    }
    let path = root.join("BENCH_rackbench.json");
    append_rows(&path, &rows)?;
    eprintln!("abpair: {} rows appended to {}", rows.len(), path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = "\
setup_s        tpch                 0.524000 s
ops_per_s      tpch           32400000.000000 ops/s
peak_rss_mb    tpch               355.500000 MB
sim_s          tpch                 0.567964 sim_s
# tpch: q9_rows = 175.000000
# tpch: 12 timed iterations, median 0.0400 ref s (q1 0.0390, q3 0.0410); raw 0.0850 s (q1 0.0840, q3 0.0860) at machine speed 0.471 (q1 0.465, q3 0.480)
# tpch: 3 set-ups, median 0.5240 ref s (q1 0.5100, q3 0.5500); raw 1.0910 s (q1 1.0500, q3 1.1000) at machine speed 0.480 (q1 0.470, q3 0.490)
# tpch: attempted 1296000 failed 0 digest 0x45921773d9d15b0a
{\"attempted\":1296000}
";

    #[test]
    fn parses_every_line_it_reads() {
        let r = parse_run(RUN, "tpch");
        assert_eq!(r.metric("setup_s"), Some(0.524));
        assert_eq!(r.metric("ops_per_s"), Some(32_400_000.0));
        assert_eq!(r.metric("peak_rss_mb"), Some(355.5));
        assert_eq!(r.metric("sim_s"), Some(0.567964));
        assert_eq!(
            r.end_to_end.len(),
            4,
            "the `# tpch:` sim lines are not end-to-end"
        );
        let it = TimeLine {
            ref_s: 0.04,
            raw_s: 0.085,
            speed: 0.471,
        };
        assert_eq!(r.iterations, Some(it));
        let su = TimeLine {
            ref_s: 0.524,
            raw_s: 1.091,
            speed: 0.48,
        };
        assert_eq!(r.setups, Some(su));
        assert_eq!(r.ops, Some(1_296_000.0));
        assert_eq!(r.raw("setup_s"), Some(1.091));
        assert_eq!(r.raw("ops_per_s"), Some(1_296_000.0 / 0.085));
        assert_eq!(r.raw("sim_s"), None);
        assert_eq!(r.speed(), Some(0.471));
    }

    #[test]
    fn other_workloads_and_noise_are_skipped() {
        let r = parse_run(RUN, "scatter");
        assert_eq!(r, Run::default());
        let r = parse_run("setup_s tpch x s\n# tpch: 3 set-ups, median x\n", "tpch");
        assert_eq!(r, Run::default());
    }

    #[test]
    fn args_are_two_shas_a_workload_a_seed_and_a_pair_count() {
        let args = |line: &str| {
            let words: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_args(&words)
        };
        let a = args("aaa bbb --workload tpch --seed 7 --pairs 6").unwrap();
        assert_eq!(a.shas, ["aaa".to_string(), "bbb".to_string()]);
        assert_eq!((a.workload.as_str(), a.seed, a.pairs), ("tpch", 7, 6));
        let a = args("aaa bbb --workload tpch").unwrap();
        assert_eq!((a.seed, a.pairs), (DEFAULT_SEED, 10));
        assert!(args("aaa --workload tpch").is_err());
        assert!(args("aaa bbb").is_err());
        // The run length is BENCHMARK.json's, not a flag.
        assert_eq!(
            args("aaa bbb --workload tpch --seconds 12")
                .err()
                .as_deref(),
            Some("unknown flag --seconds")
        );
    }

    #[test]
    fn verdict_needs_nine_of_ten_and_a_gap_past_the_parents_spread() {
        // Lower is better; the parent spreads 1.0 ± 0.05.
        let parent = [0.95, 1.0, 1.05, 0.97, 1.03, 1.0, 0.96, 1.04, 1.01, 0.99];
        let with = |change: &[f64]| -> Vec<(f64, f64)> {
            parent.iter().copied().zip(change.iter().copied()).collect()
        };
        let fast = with(&[0.8; 10]);
        assert!(claimed(&fast, true));
        assert!(!claimed(&fast, false), "the direction matters");
        // Nine of ten still claims; eight does not.
        let mut nine = [0.8; 10];
        nine[3] = 1.2;
        assert!(claimed(&with(&nine), true));
        let mut eight = nine;
        eight[7] = 1.2;
        assert_eq!(pairs_won(&with(&eight), true), 8);
        assert!(!claimed(&with(&eight), true));
        // Ahead in every pair, but by less than the parent's q1–q3.
        let close: Vec<f64> = parent.iter().map(|p| p - 0.01).collect();
        assert_eq!(pairs_won(&with(&close), true), 10);
        assert!(!claimed(&with(&close), true));
        assert!(!claimed(&[], true));
        // Six of six on a held-out seed.
        assert!(claimed(&with(&[0.8; 6])[..6], true));
        assert!(!claimed(&with(&[0.8, 0.8, 0.8, 0.8, 0.8, 1.2])[..6], true));
    }

    #[test]
    fn drift_needs_each_median_outside_the_others_spread() {
        let q = |q1, median, q3| Quartiles { q1, median, q3 };
        assert!(!drifted(&q(0.46, 0.47, 0.48), &q(0.465, 0.475, 0.49)));
        assert!(drifted(&q(0.46, 0.47, 0.48), &q(0.58, 0.59, 0.60)));
        // One median inside the other's spread is not drift.
        assert!(!drifted(&q(0.40, 0.47, 0.60), &q(0.58, 0.59, 0.60)));
    }

    #[test]
    fn rows_append_without_touching_the_old_ones() {
        let dir = std::env::temp_dir().join(format!("abpair-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.json");
        let old = "[\n  {\"a\": 1},\n  {\"b\": 2}\n]\n";
        std::fs::write(&path, old).unwrap();
        append_rows(&path, &[Json::obj([("c", Json::Num(3.0))])]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "[\n  {\"a\": 1},\n  {\"b\": 2},\n  {\"c\":3}\n]\n");
        std::fs::remove_file(&path).unwrap();
        append_rows(&path, &[Json::Num(1.0), Json::Num(2.0)]).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[\n  1,\n  2\n]\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rows_carry_both_units_and_the_verdict() {
        let run = |setup: f64| parse_run(&RUN.replace("0.524000", &setup.to_string()), "tpch");
        let runs: Vec<(Run, Run)> = (0..10)
            .map(|i| (run(0.52 + i as f64 * 0.001), run(0.44)))
            .collect();
        let set = Setting {
            workload: "tpch",
            seed: 42,
            held_out: false,
            seconds: 12.0,
            host: "2-vCPU x86-64".to_string(),
            shas: ["aaaaaaa".to_string(), "bbbbbbb".to_string()],
            hash_one: [Some(1), Some(1)],
            calibrator_identical: Some(true),
        };
        let r = row(&set, "setup_s", "s", true, &runs).unwrap();
        assert_eq!(r.get("verdict").and_then(Json::as_str), Some("claimed"));
        assert_eq!(r.get("pairs_won").and_then(Json::as_f64), Some(10.0));
        assert_eq!(r.get("calibrator_drift"), Some(&Json::Bool(false)));
        assert_eq!(r.get("calibrator_identical"), Some(&Json::Bool(true)));
        let raw = r.get("raw").unwrap();
        assert_eq!(
            raw.get("pairs_won").and_then(Json::as_f64),
            Some(0.0),
            "raw set-ups tied"
        );
        let r = row(&set, "sim_s", "sim_s", true, &runs).unwrap();
        assert_eq!(r.get("raw"), Some(&Json::Null));
        assert_eq!(r.get("verdict").and_then(Json::as_str), Some("not claimed"));
        // The kernel compiled differently: drift, whatever `hash_one` says.
        let drift = Setting {
            calibrator_identical: Some(false),
            ..set
        };
        let r = row(&drift, "setup_s", "s", true, &runs).unwrap();
        assert_eq!(r.get("calibrator_drift"), Some(&Json::Bool(true)));
        // Unequal `hash_one` counts alone are not drift: the kernels are.
        let counts = Setting {
            hash_one: [Some(1), Some(4)],
            calibrator_identical: Some(true),
            ..drift
        };
        let r = row(&counts, "setup_s", "s", true, &runs).unwrap();
        assert_eq!(r.get("calibrator_drift"), Some(&Json::Bool(false)));
        let unknown = Setting {
            hash_one: [None, None],
            calibrator_identical: None,
            ..counts
        };
        let r = row(&unknown, "setup_s", "s", true, &runs).unwrap();
        assert_eq!(r.get("calibrator_identical"), Some(&Json::Null));
        assert_eq!(r.get("calibrator_drift"), Some(&Json::Bool(false)));
        assert!(row(
            &unknown,
            "setup_s",
            "s",
            true,
            &[(run(0.5), Run::default())]
        )
        .is_none());
    }

    /// `nm -C -S` lines: address, size, kind, name; a symbol with no size
    /// (three fields) is skipped, and the name must end the line.
    #[test]
    fn the_calibrator_is_found_with_its_size() {
        let nm = "\
0000000000051e90 t rackbench::calib::Calibrator::sample
0000000000051e90 000000000000004a t rackbench::calib::Calibrator::sample::{{closure}}
0000000000052000 000000000000046a t rackbench::calib::Calibrator::sample
";
        let ext = symbol_extent(nm, "Calibrator::sample");
        assert_eq!(ext, Some((0x52000, 0x46a)));
        assert_eq!(symbol_extent(nm, "Calibrator::other"), None);
    }

    /// Two builds that placed the same instructions at other addresses
    /// normalize alike; a changed instruction does not. Only what lies in
    /// the symbol's extent is counted.
    #[test]
    fn normalized_listings_ignore_addresses_only() {
        let dump = |base: u64, callee: u64, insn: &str| {
            format!(
                "\n/x/rackbench:     file format elf64-x86-64\n\n\nDisassembly of section .text:\n\n\
                 {base:016x} <rackbench::calib::Calibrator::sample>:\n\
                 \x20{:x}:\tpush   %rbp\n\
                 \x20{:x}:\tlea    0x{:x}(%rip),%rdi        # {:x} <anon.1+0x8>\n\
                 \x20{:x}:\tcall   {callee:x} <core::hash::BuildHasher::hash_one>\n\
                 \x20{:x}:\t{insn}\n",
                base,
                base + 1,
                base * 3,
                base * 4,
                base + 8,
                base + 13,
            )
        };
        let run = |text: String| {
            let mut sed = Command::new("sed")
                .args(["-E", NORMALIZE])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("sed runs");
            let mut stdin = sed.stdin.take().unwrap();
            std::io::Write::write_all(&mut stdin, text.as_bytes()).unwrap();
            drop(stdin);
            let out = sed.wait_with_output().unwrap();
            body(&String::from_utf8_lossy(&out.stdout))
        };
        let a = run(dump(0x52000, 0x9000, "jmp    52010 <foo+0x10>"));
        let b = run(dump(0x61230, 0x9100, "jmp    61240 <foo+0x10>"));
        assert_eq!(a.len(), 4, "{a:?}");
        assert_eq!(a, b);
        assert_eq!(a[1].trim_end(), "lea    X(%rip),%rdi");
        assert_eq!(a[3], "jmp    <foo>");
        assert_eq!(hash_one_calls(&a), 1);
        let c = run(dump(0x52000, 0x9000, "jmp    52010 <bar+0x10>"));
        assert_ne!(a, c);
    }
}
