//! A behaviour corpus: 1 024 seeded runs drawn over the public API, each
//! pinned in `tests/corpus.txt`.
//!
//! `digest_pins.rs` pins 17 hand-written points; this pins a thousand
//! generated ones, so "bit-identical" is checked at every seed rather than
//! at a few. A seed draws a rack (`DdcConfig`: 1–4 pools, placement,
//! replication, cache and pool size, prefetch, memory contexts, a scrub
//! schedule), a platform and a `CoherenceMode`, an optional `FaultPlan`
//! built from the plan's builders, and an op script: get / set / ranges /
//! `gather`, pushdowns whose bodies read and write on the memory side,
//! `run_local`, `pushdown_resilient`, `pushdown_hedged`, `drop_cache`,
//! `syncmem`, `scrub_now`, queue backlogs and admission, and a short serve
//! run. Every value the script reads is folded into the address it touches
//! next and into the pinned `out` column, so a change to what a read
//! returns moves a pin as surely as a change to virtual time.
//!
//! A line of `corpus.txt` pins one seed: `(elapsed_ns, digest, len)` of the
//! traced run, the fold of its outputs, a 64-bit hash of its whole
//! `Runtime::metrics()` map, and one character per metric name of the
//! `names` line, so a mismatch names the first metric that differs.
//!
//! - `cargo test --test corpus` runs the first 128 seeds, and checks that
//!   the same seeds run untraced report what they report traced.
//! - `cargo test --release --test corpus -- --ignored every_seed` runs all
//!   1 024 seeds and prints how long they took.
//! - `BLESS_CORPUS=1 cargo test --release --test corpus -- --ignored every_seed`
//!   rewrites `corpus.txt` from the current build instead of checking it.
//!   That is the explicit re-pin step, for a change that moves behaviour on
//!   purpose; say why in the same commit.

use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use ddc_os::Pattern;
use ddc_sim::trace::fnv_fold;
use ddc_sim::{
    ArrivalProcess, DdcConfig, FaultPlan, MetricsRegistry, MonolithicConfig, PlacementPolicy,
    ReplicationMode, SimDuration, SimTime, FNV_OFFSET, PAGE_SIZE, QOS_CLASSES,
};
use teleport::{
    AdmissionPolicy, CoherenceMode, HedgePolicy, Mem, PlatformKind, PushdownError, PushdownOpts,
    Region, ResiliencePolicy, Runtime, ServeConfig, ServePlane, SyncStrategy,
};

const SEEDS: u64 = 1024;
const TIER1_SEEDS: u64 = 128;
const ELEMS_PER_PAGE: usize = PAGE_SIZE / 8;
const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus.txt");
const MODES: [CoherenceMode; 4] = [
    CoherenceMode::WriteInvalidate,
    CoherenceMode::Pso,
    CoherenceMode::WeakOrdering,
    CoherenceMode::Disabled,
];

/// SplitMix64: a seeded stream with no dependency behind it, so a seed
/// draws the same case on every toolchain.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A duration in `[lo, hi)` microseconds, to the nanosecond.
    fn micros(&mut self, lo: u64, hi: u64) -> SimDuration {
        SimDuration::from_nanos(1_000 * lo + self.below(1_000 * (hi - lo)))
    }
}

fn fold_str(h: u64, s: &str) -> u64 {
    s.bytes().fold(h, |h, b| fnv_fold(h, b as u64))
}

/// What one run of a seed leaves behind.
struct Outcome {
    elapsed: u64,
    digest: u64,
    len: u64,
    /// Every value the script read and every verdict it got, folded.
    out: u64,
    metrics: MetricsRegistry,
}

fn draw_ddc(rng: &mut Rng, cache_pages: usize) -> DdcConfig {
    let pools = rng.pick(&[1, 1, 2, 3, 4]);
    let mut cfg = DdcConfig {
        compute_cache_bytes: cache_pages * PAGE_SIZE,
        pools,
        placement: rng.pick(&[
            PlacementPolicy::FirstFit,
            PlacementPolicy::Locality,
            PlacementPolicy::LoadBalance,
        ]),
        replication: match rng.below(4) {
            0 => ReplicationMode::Synchronous,
            1 => ReplicationMode::LogShipped {
                batch_pages: 1 + rng.below(4) as usize,
            },
            _ => ReplicationMode::Off,
        },
        prefetch_pages: rng.pick(&[0, 0, 2]),
        memory_contexts: rng.pick(&[1, 1, 2]),
        ..DdcConfig::default()
    };
    if rng.one_in(4) {
        // Shards a few pages over the compute cache (whose pages they pin)
        // spill a larger working set to storage.
        cfg.memory_pool_bytes = pools * (cache_pages + 3) * PAGE_SIZE;
    }
    if rng.one_in(8) {
        cfg.scrub.every = Some(rng.micros(100, 400));
    }
    cfg
}

/// A platform and its rack for a working set of `ws_pages` pages: the
/// runtime, its kind and its pool count.
fn draw_rack(rng: &mut Rng, ws_pages: usize) -> (Runtime, PlatformKind, usize) {
    let kind = rng.pick(&[
        PlatformKind::Local,
        PlatformKind::BaseDdc,
        PlatformKind::Teleport,
        PlatformKind::Teleport,
        PlatformKind::Teleport,
        PlatformKind::Teleport,
    ]);
    let cache_pages = 2 + rng.below(ws_pages as u64) as usize;
    if kind == PlatformKind::Local {
        let cfg = MonolithicConfig {
            dram_bytes: cache_pages * PAGE_SIZE,
            ..Default::default()
        };
        return (Runtime::local(cfg), kind, 1);
    }
    let cfg = draw_ddc(rng, cache_pages);
    let pools = cfg.pools;
    let rt = match kind {
        PlatformKind::BaseDdc => Runtime::base_ddc(cfg),
        _ => Runtime::teleport(cfg),
    };
    (rt, kind, pools)
}

/// One or two specs from the plan's builders, their windows inside the
/// first few milliseconds of the timed window.
fn draw_plan(rng: &mut Rng, pools: usize) -> FaultPlan {
    let mut plan = FaultPlan::new(rng.next());
    for _ in 0..1 + rng.below(2) {
        let from = SimTime(rng.below(1_000_000));
        let until = SimTime(from.0 + 50_000 + rng.below(1_000_000));
        let brief = SimTime(from.0 + 1 + rng.below(200_000));
        let pool = rng.below(pools as u64) as usize;
        let factor = 2 + rng.below(30) as u32;
        plan = match rng.below(18) {
            0 => plan.fabric_latency_spike(from, until, rng.micros(1, 20)),
            1 => plan.fabric_partition(from, brief),
            2 => plan.ssd_transient_errors(from, until, 0.3),
            3 => plan.ssd_latency_storm(from, until, factor),
            4 => plan.heartbeat_flap(from, brief),
            5 => plan.pool_death(pool, from),
            6 => plan.queue_backlog_burst(from, until, rng.micros(50, 3_000)),
            7 => plan.pushdown_exception(rng.below(6)),
            8 => plan.pushdown_exceptions_prob(from, until, 0.3),
            9 => plan.pushdown_hang(rng.below(6)),
            10 => plan.fabric_bit_flips(from, until, 0.2),
            11 => plan.ssd_latent_sectors(from, until, 0.3),
            12 => plan.pool_scribbles(from, until, 0.3),
            13 => plan.degraded_pool(pool, from, until, factor),
            14 => plan.lame_fabric_link(from, until, factor),
            15 => plan.grinding_ssd(from, until, factor),
            16 => plan.pool_crash_restart(pool, from, rng.micros(10, 500)),
            _ => plan
                .pool_crash_restart(pool, from, rng.micros(10, 500))
                .torn_journal_write(pool, from),
        };
    }
    plan
}

fn draw_opts(rng: &mut Rng, mode: CoherenceMode) -> PushdownOpts {
    let mut opts = PushdownOpts::new().coherence(if rng.one_in(4) {
        rng.pick(&MODES)
    } else {
        mode
    });
    if rng.one_in(5) {
        opts = opts.sync(SyncStrategy::Eager);
    }
    if rng.one_in(5) {
        opts = opts.timeout(rng.micros(20, 500));
    }
    if rng.one_in(5) {
        opts = opts.deadline(rng.micros(20, 500));
    }
    opts
}

/// One step of a drawn function body.
#[derive(Clone, Copy)]
enum Step {
    Read(usize, u64),
    Write(usize, u64),
    Range(usize, u64),
    Cycles(u64),
}

fn draw_body(rng: &mut Rng, regions: usize) -> Vec<Step> {
    (0..1 + rng.below(12))
        .map(|_| {
            let (r, salt) = (rng.below(regions as u64) as usize, rng.next());
            match rng.below(7) {
                0..=2 => Step::Read(r, salt),
                3 | 4 => Step::Write(r, salt),
                5 => Step::Range(r, salt),
                _ => Step::Cycles(salt % 50_000),
            }
        })
        .collect()
}

/// Run a drawn body against either side's `Mem`; what it reads steers
/// where it goes next.
fn run_body(m: &mut impl Mem, regions: &[Region<u64>], body: &[Step]) -> u64 {
    let mut acc = FNV_OFFSET;
    let mut buf = Vec::new();
    for &step in body {
        let at = |r: usize, salt: u64| ((salt ^ acc) % regions[r].len() as u64) as usize;
        match step {
            Step::Read(r, salt) => {
                acc = fnv_fold(acc, m.get(&regions[r], at(r, salt), Pattern::Rand))
            }
            Step::Write(r, salt) => m.set(&regions[r], at(r, salt), salt ^ acc, Pattern::Rand),
            Step::Range(r, salt) => {
                let start = at(r, salt);
                let count = (regions[r].len() - start).min(1 + (salt >> 40) as usize % 700);
                buf.clear();
                m.read_range(&regions[r], start, count, &mut buf);
                acc = buf.iter().fold(acc, |h, &v| fnv_fold(h, v));
            }
            Step::Cycles(n) => m.charge_cycles(n),
        }
    }
    acc
}

fn fold_verdict<T>(out: u64, r: &Result<T, PushdownError>, value: impl FnOnce(&T) -> u64) -> u64 {
    match r {
        Ok(v) => fnv_fold(out, value(v)),
        Err(e) => fold_str(out, &format!("{e:?}")),
    }
}

/// Draw and run seed `seed`, with the tracer on or off.
fn run_case(seed: u64, traced: bool) -> Outcome {
    let mut rng = Rng(seed);
    let sizes: Vec<usize> = (0..1 + rng.below(3))
        .map(|_| 1 + rng.below(12) as usize)
        .collect();
    let ws_pages: usize = sizes.iter().sum();
    let (mut rt, kind, pools) = draw_rack(&mut rng, ws_pages);
    let mode = rng.pick(&MODES);
    let plan = (kind != PlatformKind::Local && rng.one_in(2)).then(|| draw_plan(&mut rng, pools));
    if traced {
        rt.enable_tracing();
    }
    let regions: Vec<Region<u64>> = sizes
        .iter()
        .enumerate()
        .map(|(r, &pages)| {
            let vals: Vec<u64> = (0..(pages * ELEMS_PER_PAGE) as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ r as u64)
                .collect();
            rt.alloc_region_from(&vals)
        })
        .collect();
    let regions = Rc::new(regions);
    if kind != PlatformKind::Local && rng.one_in(2) {
        rt.drop_cache();
    }
    rt.begin_timing();
    if let Some(plan) = plan {
        rt.install_fault_plan(plan);
    }

    let mut out = FNV_OFFSET;
    let mut served = false;
    for _ in 0..12 + rng.below(36) {
        if !rt.is_alive() {
            break;
        }
        let r = rng.below(regions.len() as u64) as usize;
        let region = &regions[r];
        let i = ((rng.next() ^ out) % region.len() as u64) as usize;
        let pat = if rng.one_in(3) {
            Pattern::Seq
        } else {
            Pattern::Rand
        };
        match rng.below(17) {
            0 | 1 => out = fnv_fold(out, rt.get(region, i, pat)),
            2 | 3 => rt.set(region, i, rng.next() ^ out, pat),
            4 => {
                let count = (region.len() - i).min(1 + rng.below(700) as usize);
                let mut buf = Vec::new();
                rt.read_range(region, i, count, &mut buf);
                out = buf.iter().fold(out, |h, &v| fnv_fold(h, v));
            }
            5 => {
                let count = (region.len() - i).min(1 + rng.below(700) as usize);
                let vals: Vec<u64> = (0..count as u64).map(|k| k ^ out).collect();
                rt.write_range(region, i, &vals);
            }
            6 => {
                let rows: Vec<u32> = (0..1 + rng.below(64))
                    .map(|_| ((rng.next() ^ out) % region.len() as u64) as u32)
                    .collect();
                let mut buf = Vec::new();
                rt.gather(region, &rows, pat, &mut buf);
                out = buf.iter().fold(out, |h, &v| fnv_fold(h, v));
            }
            7 | 8 => {
                let (opts, body) = (
                    draw_opts(&mut rng, mode),
                    draw_body(&mut rng, regions.len()),
                );
                let got = rt.pushdown(opts, |m| run_body(m, &regions, &body));
                out = fold_verdict(out, &got, |&v| v);
            }
            9 => {
                let (opts, body) = (
                    draw_opts(&mut rng, mode),
                    draw_body(&mut rng, regions.len()),
                );
                let len = 1 + rng.below(2 * PAGE_SIZE as u64) as usize;
                let hint = [(region.at(i), len.min((region.len() - i) * 8))];
                let got = rt.pushdown_with_hint(opts, &hint, |m| run_body(m, &regions, &body));
                out = fold_verdict(out, &got, |&v| v);
            }
            10 => {
                let body = draw_body(&mut rng, regions.len());
                out = fnv_fold(out, rt.run_local(|m| run_body(m, &regions, &body)));
            }
            11 => {
                let (opts, body) = (
                    draw_opts(&mut rng, mode),
                    draw_body(&mut rng, regions.len()),
                );
                let policy = match rng.below(3) {
                    0 => ResiliencePolicy::retry_only(),
                    1 => ResiliencePolicy::fallback_only(),
                    _ => ResiliencePolicy {
                        fallback: true,
                        ..ResiliencePolicy::retry_only()
                    },
                };
                let got = rt.pushdown_resilient(opts, &policy, |m| run_body(m, &regions, &body));
                out = fold_verdict(out, &got, |rec| {
                    fold_str(
                        fnv_fold(rec.value, rec.attempts as u64),
                        &format!("{:?}", rec.via),
                    )
                });
            }
            12 => {
                let (opts, body) = (
                    draw_opts(&mut rng, mode),
                    draw_body(&mut rng, regions.len()),
                );
                let hedge = HedgePolicy {
                    delay: rng.micros(5, 100),
                    jitter: rng.micros(0, 20),
                };
                let got = rt.pushdown_hedged(opts, &hedge, |m| run_body(m, &regions, &body));
                out = fold_verdict(out, &got, |h| {
                    let h2 = fnv_fold(h.value, h.latency.as_nanos());
                    fold_str(h2, &format!("{:?}", h.outcome))
                });
            }
            13 => match rng.below(4) {
                0 => rt.drop_cache(),
                // A monolithic server has no remote pool to sync with.
                _ if kind == PlatformKind::Local => out = fnv_fold(out, rt.get(region, i, pat)),
                1 => out = fnv_fold(out, rt.syncmem() as u64),
                2 => {
                    let flushed = rt.syncmem_range(region.addr(), region.byte_len());
                    out = fnv_fold(out, flushed as u64);
                }
                _ => {
                    let (scanned, detected) = rt.scrub_now();
                    out = fnv_fold(fnv_fold(out, scanned), detected);
                }
            },
            14 => match rng.below(3) {
                0 => rt.inject_queue_backlog(rng.micros(50, 3_000)),
                1 => rt.set_admission_policy(Some(AdmissionPolicy {
                    max_queue_depth: rng.below(4) as usize,
                    max_backlog: rng.micros(20, 1_000),
                })),
                _ => rt.set_admission_policy(None),
            },
            _ if !served => {
                served = true;
                out = serve(&mut rng, &mut rt, &regions, out);
            }
            _ => out = fnv_fold(out, rt.get(region, i, pat)),
        }
    }
    Outcome {
        elapsed: rt.elapsed().as_nanos(),
        digest: rt.trace().digest(),
        len: rt.trace().len(),
        out,
        metrics: rt.metrics(),
    }
}

/// A short serve run: one or two tenants, a few sessions each, every
/// session a one-element pushdown.
fn serve(rng: &mut Rng, rt: &mut Runtime, regions: &Rc<Vec<Region<u64>>>, out: u64) -> u64 {
    let mut plane = ServePlane::new(ServeConfig {
        seed: rng.next(),
        admission: AdmissionPolicy {
            max_queue_depth: 1 + rng.below(6) as usize,
            max_backlog: rng.micros(50, 500),
        },
        contexts: None,
    });
    for t in 0..1 + rng.below(2) {
        let regions = Rc::clone(regions);
        let salt = rng.next();
        plane.tenant(
            format!("t{t}"),
            rng.pick(&QOS_CLASSES),
            ArrivalProcess::poisson(rng.micros(10, 80)),
            4 + rng.below(9) as usize,
            move |rt, s| {
                let region = &regions[s as usize % regions.len()];
                let i = ((salt ^ s) % region.len() as u64) as usize;
                rt.pushdown(PushdownOpts::new(), |m| m.get(region, i, Pattern::Rand))
            },
        );
    }
    let report = plane.run(rt);
    report
        .metrics()
        .iter()
        .fold(out, |h, (name, v)| fnv_fold(fold_str(h, name), v))
}

/// The 64 characters a metric's value hashes to in a fingerprint; `.` is
/// a metric the run did not report.
const ALPHABET: &[u8; 64] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-_";

fn metrics_hash(m: &MetricsRegistry) -> u64 {
    m.iter()
        .fold(FNV_OFFSET, |h, (name, v)| fnv_fold(fold_str(h, name), v))
}

fn fingerprint(m: &MetricsRegistry, names: &[String]) -> String {
    names
        .iter()
        .map(|name| match m.get(name) {
            Some(v) => ALPHABET[(fnv_fold(FNV_OFFSET, v) >> 58) as usize] as char,
            None => '.',
        })
        .collect()
}

/// One line of the corpus for seed `seed`.
fn line(seed: u64, o: &Outcome, names: &[String]) -> String {
    format!(
        "{seed} {} {:016x} {} {:016x} {:016x} {}",
        o.elapsed,
        o.digest,
        o.len,
        o.out,
        metrics_hash(&o.metrics),
        fingerprint(&o.metrics, names)
    )
}

/// `corpus.txt` read back: the metric names, then one line per seed.
struct Corpus {
    names: Vec<String>,
    lines: Vec<String>,
}

fn read_corpus() -> Corpus {
    let text = std::fs::read_to_string(CORPUS).expect("tests/corpus.txt is committed");
    let mut names = Vec::new();
    let mut lines = Vec::new();
    for row in text.lines().filter(|row| !row.starts_with('#')) {
        match row.strip_prefix("names ") {
            Some(list) => names = list.split(' ').map(str::to_string).collect(),
            None => lines.push(row.to_string()),
        }
    }
    assert_eq!(lines.len() as u64, SEEDS, "corpus.txt pins every seed");
    Corpus { names, lines }
}

/// What differs between seed `seed`'s pinned line and this run: the first
/// field, and for the metrics the first metric by name.
fn describe(seed: u64, pinned: &str, got: &Outcome, names: &[String]) -> String {
    const FIELDS: [&str; 6] = ["seed", "elapsed_ns", "digest", "len", "out", "metrics hash"];
    let now = line(seed, got, names);
    let (want, have): (Vec<&str>, Vec<&str>) =
        (pinned.split(' ').collect(), now.split(' ').collect());
    let mut why = String::new();
    for (k, field) in FIELDS.iter().enumerate() {
        if want.get(k) != have.get(k) {
            let _ = write!(
                why,
                "{field} {} -> {}; ",
                want.get(k).unwrap_or(&"?"),
                have[k]
            );
        }
    }
    let old = want.get(6).copied().unwrap_or("");
    if let Some((_, name)) = names
        .iter()
        .enumerate()
        .find(|&(k, _)| old.as_bytes().get(k) != have[6].as_bytes().get(k))
    {
        let _ = write!(
            why,
            "first differing metric: {name} (now {:?}); ",
            got.metrics.get(name)
        );
    } else if let Some((name, v)) = got
        .metrics
        .iter()
        .find(|(name, _)| !names.iter().any(|n| n == name))
    {
        let _ = write!(why, "new metric: {name} = {v}; ");
    }
    format!("seed {seed}: {why}")
}

/// Run seeds `0..n` traced and compare each with its pinned line.
fn check_seeds(n: u64) {
    let corpus = read_corpus();
    let moved: Vec<String> = (0..n)
        .filter_map(|seed| {
            let got = run_case(seed, true);
            let pinned = &corpus.lines[seed as usize];
            (line(seed, &got, &corpus.names) != *pinned)
                .then(|| describe(seed, pinned, &got, &corpus.names))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {n} corpus seeds moved (re-pin only on purpose: see the module docs)\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn tier1_seeds_match_the_corpus() {
    check_seeds(TIER1_SEEDS);
}

/// All 1 024 seeds, in release: `cargo test --release --test corpus --
/// --ignored every_seed`. With `BLESS_CORPUS=1` set it rewrites
/// `corpus.txt` instead of checking it.
#[test]
#[ignore = "the full corpus; run in release"]
// Wall time here is the report of how long the corpus took, never a
// simulated result.
#[allow(clippy::disallowed_methods)]
fn every_seed_matches_the_corpus() {
    let start = Instant::now();
    if std::env::var_os("BLESS_CORPUS").is_some() {
        let outcomes: Vec<Outcome> = (0..SEEDS).map(|seed| run_case(seed, true)).collect();
        let mut names: Vec<String> = outcomes
            .iter()
            .flat_map(|o| o.metrics.iter().map(|(name, _)| name.to_string()))
            .collect();
        names.sort();
        names.dedup();
        let mut text = String::from(
            "# The behaviour corpus tests/corpus.rs checks: one line per seed,\n\
             # `seed elapsed_ns digest len out metrics_hash fingerprint`.\n\
             # Written by BLESS_CORPUS=1; never edit by hand.\n",
        );
        let _ = writeln!(text, "names {}", names.join(" "));
        for (seed, o) in outcomes.iter().enumerate() {
            let _ = writeln!(text, "{}", line(seed as u64, o, &names));
        }
        std::fs::write(CORPUS, text).expect("write tests/corpus.txt");
        println!("blessed {SEEDS} seeds in {:.2?}", start.elapsed());
        return;
    }
    check_seeds(SEEDS);
    println!("{SEEDS} corpus seeds in {:.2?}", start.elapsed());
}

/// Tracing observes and does not change: each tier-1 seed run untraced
/// reports exactly the traced run's `metrics()` map (its `trace.*` rows
/// included), elapsed time and outputs.
#[test]
fn untraced_runs_report_what_traced_runs_report() {
    for seed in 0..TIER1_SEEDS {
        let traced = run_case(seed, true);
        let untraced = run_case(seed, false);
        assert_eq!(untraced.elapsed, traced.elapsed, "seed {seed}: elapsed_ns");
        assert_eq!(untraced.out, traced.out, "seed {seed}: outputs");
        let differs = traced
            .metrics
            .iter()
            .map(|(name, _)| name)
            .chain(untraced.metrics.iter().map(|(name, _)| name))
            .find(|&name| traced.metrics.get(name) != untraced.metrics.get(name));
        if let Some(name) = differs {
            panic!(
                "seed {seed}: {name} reads {:?} traced, {:?} untraced",
                traced.metrics.get(name),
                untraced.metrics.get(name)
            );
        }
    }
}
