//! The paper's two-thread microbenchmark (§4 / §7.6).
//!
//! An application runs two threads: a *compute-intensive* thread doing pure
//! arithmetic and a *memory-intensive* thread randomly probing a large
//! region (e.g. a hash table). The paper uses this workload for:
//!
//! - **Fig 6** — the data-sync ablation: naive full-process migration vs
//!   pushing only the memory-intensive thread (eager sync) vs TELEPORT's
//!   on-demand coherence;
//! - **Fig 7** — false sharing: default coherence vs disabled coherence +
//!   manual `syncmem`;
//! - **Figs 21/22** — the contention sweep: execution time and coherence
//!   message count as the fraction of conflicting writes grows.
//!
//! Every run is one ordinary [`Runtime::pushdown`] on Local, BaseDdc or
//! Teleport, so steps ❶–❽ cost here what they cost everywhere else. Inside
//! the call, threads are simulated as interleaved operation streams on a
//! deterministic min-clock schedule ([`ddc_sim::Interleaver`]): lane 0 is
//! the pushed thread ([`Mem`] on the arm) and the other lanes are
//! compute-pool threads beside it ([`Arm::compute_cycles`] /
//! [`Arm::compute_access`], which contend through the call's coherence
//! session). Each lane accumulates the virtual cost of its own operations,
//! so cross-pool interactions (invalidations, backoffs) land on the lane
//! that suffered them; lane 0 also carries the call's preamble and
//! completion.

use ddc_os::{Pattern, VAddr};
use ddc_sim::{DdcConfig, Interleaver, MonolithicConfig, SimDuration, PAGE_SIZE};

use crate::coherence::TieBreak;
use crate::flags::{CoherenceMode, PushdownOpts, SyncStrategy};
use crate::runtime::{Arm, Mem, PlatformKind, Runtime, TeleportConfig};

/// Deterministic xorshift stream for workload generation.
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn chance(&mut self, rate: f64) -> bool {
        (self.next() % 1_000_000_000) as f64 / 1e9 < rate
    }
}

/// A rack for `pages` of data: Local with twice that in DRAM, or a DDC
/// whose compute cache holds `cache_ratio` of it.
fn rack(kind: PlatformKind, pages: usize, cache_ratio: f64, tcfg: TeleportConfig) -> Runtime {
    let bytes = pages * PAGE_SIZE;
    let cfg = DdcConfig {
        compute_cache_bytes: ((bytes as f64 * cache_ratio) as usize).max(2 * PAGE_SIZE),
        memory_pool_bytes: bytes * 2 + (64 << 20),
        ..Default::default()
    };
    match kind {
        PlatformKind::Local => Runtime::local(MonolithicConfig {
            dram_bytes: bytes * 2,
            ..Default::default()
        }),
        PlatformKind::BaseDdc => Runtime::base_ddc(cfg),
        PlatformKind::Teleport => Runtime::teleport_with(cfg, tcfg),
    }
}

/// Write one word into each of `pages` pages from `at`.
fn fill(rt: &mut Runtime, at: VAddr, pages: usize) {
    for p in 0..pages {
        rt.write_raw(
            at.offset((p * PAGE_SIZE) as u64),
            &1u64.to_le_bytes(),
            Pattern::Seq,
        );
    }
}

/// Run `lanes` threads inside one pushdown for `ops` operations each:
/// `step(arm, lane)` performs one operation of `lane`. Lane 0, the pushed
/// thread, is billed the call's preamble (❶–❹), its completion (❻–❽) and,
/// with `syncmem_after`, one manual `syncmem` after it returns.
fn interleave(
    rt: &mut Runtime,
    opts: PushdownOpts,
    lanes: usize,
    ops: usize,
    syncmem_after: bool,
    mut step: impl FnMut(&mut Arm<'_>, usize),
) -> Interleaver {
    let mut il = Interleaver::new(lanes);
    let mut remaining = vec![ops; lanes];
    let start = rt.now();
    let exit = rt
        .pushdown(opts, |arm| {
            il.advance(0, arm.now().since(start));
            while let Some(lane) = il.next_lane() {
                if remaining[lane] == 0 {
                    il.finish(lane);
                    continue;
                }
                remaining[lane] -= 1;
                let t0 = arm.now();
                step(arm, lane);
                il.advance(lane, arm.now().since(t0));
            }
            arm.now()
        })
        .expect("microbenchmark pushdown succeeds");
    if syncmem_after {
        rt.syncmem();
    }
    il.advance(0, rt.now().since(exit));
    il
}

/// Parameters of the two-thread workload (Fig 6 shape).
#[derive(Debug, Clone, Copy)]
pub struct TwoThreadSpec {
    /// Size of the memory-intensive thread's working set, in pages
    /// (the paper's is 50 GB; scaled down while keeping cache ratio).
    pub region_pages: usize,
    /// Random accesses performed by the memory-intensive thread.
    pub accesses: usize,
    /// CPU cycles burned by the compute-intensive thread.
    pub compute_cycles: u64,
    /// Compute-local cache as a fraction of the region (paper: 2%).
    pub cache_ratio: f64,
    pub seed: u64,
}

impl Default for TwoThreadSpec {
    fn default() -> Self {
        TwoThreadSpec {
            region_pages: 16_384, // 64 MB standing in for 50 GB
            accesses: 50_000,
            // Matches the memory thread's local time (accesses * 100 ns).
            compute_cycles: 10_500_000,
            cache_ratio: 0.02,
            seed: 0xC0FFEE,
        }
    }
}

/// The five bars of Fig 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig6Strategy {
    /// Both threads on a monolithic Linux server with ample DRAM.
    Local,
    /// Both threads on the unmodified disaggregated OS.
    BaseDdc,
    /// Naive full-process migration: both threads pushed, serialized in the
    /// memory pool, eager synchronization of the whole cache.
    PerProcessEager,
    /// Only the memory-intensive thread pushed, still with eager sync.
    PerThreadEager,
    /// TELEPORT's default: push the memory-intensive thread with on-demand
    /// (coherence-protocol) synchronization.
    Coherent,
}

/// Load the region, then emulate the application having *run for a while*
/// before the pushdown decision: the compute cache is warm with pages the
/// memory-intensive thread recently probed (mostly clean, a few dirty).
/// This is the state on which the Fig 6 sync strategies differ — eager sync
/// must flush and re-fetch the whole warm cache, while on-demand coherence
/// leaves clean `(R,R)` pages alone.
fn load_region(rt: &mut Runtime, spec: &TwoThreadSpec) -> VAddr {
    let region = rt.alloc(spec.region_pages * PAGE_SIZE);
    fill(rt, region, spec.region_pages);
    if rt.kind() != PlatformKind::Local {
        rt.drop_cache();
    }
    // Warm-up probes: reads, with an occasional in-place update.
    let mut rng = XorShift::new(spec.seed ^ 0xABCD_EF01);
    for i in 0..spec.accesses / 2 {
        let page = rng.next() % spec.region_pages as u64;
        let addr = region.offset(page * PAGE_SIZE as u64);
        if i % 64 == 0 {
            rt.write_raw(addr, &2u64.to_le_bytes(), Pattern::Rand);
        } else {
            let _ = rt.read_raw(addr, 8, Pattern::Rand);
        }
    }
    rt.begin_timing();
    region
}

fn random_probes<M: Mem>(m: &mut M, region: VAddr, spec: &TwoThreadSpec) {
    let mut rng = XorShift::new(spec.seed);
    for _ in 0..spec.accesses {
        let page = rng.next() % spec.region_pages as u64;
        let addr = region.offset(page * PAGE_SIZE as u64 + (rng.next() % 500) * 8);
        let _ = m.read_raw(addr, 8, Pattern::Rand);
    }
}

/// Run the Fig 6 scenario under one strategy, returning the application
/// makespan (both threads complete). The memory-intensive thread is one
/// pushdown (compute-side on Local and BaseDdc); the compute-intensive
/// thread runs beside it on the compute pool, except under full-process
/// migration, where its cycles ride inside the call on the memory pool.
pub fn run_fig6(spec: &TwoThreadSpec, strategy: Fig6Strategy) -> SimDuration {
    let kind = match strategy {
        Fig6Strategy::Local => PlatformKind::Local,
        Fig6Strategy::BaseDdc => PlatformKind::BaseDdc,
        _ => PlatformKind::Teleport,
    };
    let mut rt = rack(
        kind,
        spec.region_pages,
        spec.cache_ratio,
        TeleportConfig::default(),
    );
    let region = load_region(&mut rt, spec);
    let sync = match strategy {
        Fig6Strategy::PerProcessEager | Fig6Strategy::PerThreadEager => SyncStrategy::Eager,
        _ => SyncStrategy::OnDemand,
    };
    let inside = strategy == Fig6Strategy::PerProcessEager;
    let t_comp = if inside {
        SimDuration::ZERO
    } else {
        rt.dos().compute_cpu().cycles(spec.compute_cycles)
    };
    rt.pushdown(PushdownOpts::new().sync(sync), |arm| {
        if inside {
            arm.charge_cycles(spec.compute_cycles);
        }
        random_probes(arm, region, spec);
    })
    .expect("pushdown succeeds");
    rt.elapsed().max(t_comp)
}

// ----------------------------------------------------------------------
// Contention sweep (Figs 21/22) and false sharing (Fig 7)
// ----------------------------------------------------------------------

/// Parameters of the contention microbenchmark (§7.6).
#[derive(Debug, Clone, Copy)]
pub struct ContentionSpec {
    /// Private working set of the memory-intensive thread, in pages.
    pub region_pages: usize,
    /// Operations per thread.
    pub ops: usize,
    /// Cycles per compute-thread operation.
    pub cycles_per_op: u64,
    /// Pages shared between the threads.
    pub shared_pages: usize,
    /// Probability that an operation writes a shared page.
    pub contention_rate: f64,
    /// Number of compute-intensive threads (the paper tries up to four).
    pub compute_threads: usize,
    /// Which side wins concurrent write-write ties (§4.1 / §7.6 ablation).
    pub tiebreak: TieBreak,
    pub cache_ratio: f64,
    pub seed: u64,
}

impl Default for ContentionSpec {
    fn default() -> Self {
        ContentionSpec {
            region_pages: 8_192,
            ops: 20_000,
            cycles_per_op: 210, // ~100 ns at 2.1 GHz, like a DRAM probe
            shared_pages: 8,
            contention_rate: 0.0,
            compute_threads: 1,
            tiebreak: TieBreak::default(),
            cache_ratio: 0.02,
            seed: 0xFEED,
        }
    }
}

/// Which system runs the contention workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentionPlatform {
    Local,
    BaseDdc,
    /// TELEPORT with the given coherence mode (default = write-invalidate,
    /// relaxed = weak ordering).
    Teleport(CoherenceMode),
}

/// Result of one contention run.
#[derive(Debug, Clone, Copy)]
pub struct ContentionResult {
    pub makespan: SimDuration,
    /// When the pushdown (memory-side) lane finished — the quantity §7.6's
    /// tie-break discussion is about.
    pub pushdown_lane_time: SimDuration,
    /// Fabric messages attributable to the coherence protocol.
    pub coherence_msgs: u64,
    /// Backoffs paid by the losing side of write-write ties.
    pub backoffs: u64,
}

/// Run the contention microbenchmark: the memory-intensive thread is
/// pushed, and `compute_threads` compute threads run beside it, each
/// writing a shared page at `contention_rate`.
pub fn run_contention(spec: &ContentionSpec, platform: ContentionPlatform) -> ContentionResult {
    let (kind, mode) = match platform {
        ContentionPlatform::Local => (PlatformKind::Local, CoherenceMode::default()),
        ContentionPlatform::BaseDdc => (PlatformKind::BaseDdc, CoherenceMode::default()),
        ContentionPlatform::Teleport(mode) => (PlatformKind::Teleport, mode),
    };
    let tcfg = TeleportConfig {
        tiebreak: spec.tiebreak,
        ..Default::default()
    };
    let pages = spec.region_pages + spec.shared_pages;
    let mut rt = rack(kind, pages, spec.cache_ratio, tcfg);
    let region = rt.alloc(spec.region_pages * PAGE_SIZE);
    let shared = rt.alloc(spec.shared_pages * PAGE_SIZE);
    fill(&mut rt, region, spec.region_pages);
    // Start with a cold cache, then have the compute threads actively use
    // the shared pages (they hold them writable when the pushdown begins —
    // the contended state of §7.6).
    if kind != PlatformKind::Local {
        rt.drop_cache();
    }
    fill(&mut rt, shared, spec.shared_pages);
    rt.begin_timing();

    let mut mem_rng = XorShift::new(spec.seed);
    let mut comp_rngs: Vec<XorShift> = (0..spec.compute_threads)
        .map(|i| XorShift::new(spec.seed ^ (0x9E37 + i as u64 * 7919)))
        .collect();
    let page_at = |base: VAddr, page: u64, off: u64| base.offset(page * PAGE_SIZE as u64 + off);
    let opts = PushdownOpts::new().coherence(mode);
    let lanes = 1 + spec.compute_threads;
    let il = interleave(
        &mut rt,
        opts,
        lanes,
        spec.ops,
        mode == CoherenceMode::Disabled,
        |arm, lane| {
            if lane > 0 {
                let rng = &mut comp_rngs[lane - 1];
                arm.compute_cycles(spec.cycles_per_op);
                if rng.chance(spec.contention_rate) {
                    let page = rng.next() % spec.shared_pages as u64;
                    arm.compute_access(page_at(shared, page, 64), 8, true, Pattern::Rand);
                }
            } else if mem_rng.chance(spec.contention_rate) {
                let page = mem_rng.next() % spec.shared_pages as u64;
                arm.write_raw(page_at(shared, page, 0), &2u64.to_le_bytes(), Pattern::Rand);
            } else {
                let page = mem_rng.next() % spec.region_pages as u64;
                let _ = arm.read_raw(page_at(region, page, 0), 8, Pattern::Rand);
            }
        },
    );
    ContentionResult {
        makespan: il.makespan(),
        pushdown_lane_time: il.clock_of(0).since(ddc_sim::SimTime::ZERO),
        coherence_msgs: rt.net_ledger().coherence.messages,
        backoffs: rt.last_coherence_stats().map_or(0, |c| c.backoffs),
    }
}

// ----------------------------------------------------------------------
// False sharing (Fig 7)
// ----------------------------------------------------------------------

/// Parameters of the false-sharing scenario: the compute thread and the
/// pushed thread repeatedly write *different variables on the same pages*.
#[derive(Debug, Clone, Copy)]
pub struct FalseSharingSpec {
    pub pages: usize,
    pub writes_per_thread: usize,
    pub cycles_per_op: u64,
    pub seed: u64,
}

impl Default for FalseSharingSpec {
    fn default() -> Self {
        FalseSharingSpec {
            pages: 64,
            writes_per_thread: 5_000,
            cycles_per_op: 210,
            seed: 0xFA15E,
        }
    }
}

/// Run the false-sharing workload with the default coherence protocol or
/// with coherence disabled + a single manual `syncmem` at the end.
/// Returns the makespan.
pub fn run_false_sharing(spec: &FalseSharingSpec, manual_syncmem: bool) -> SimDuration {
    let mut rt = rack(
        PlatformKind::Teleport,
        spec.pages,
        4.0,
        TeleportConfig::default(),
    );
    let shared = rt.alloc(spec.pages * PAGE_SIZE);
    fill(&mut rt, shared, spec.pages);
    rt.begin_timing();

    let mode = if manual_syncmem {
        CoherenceMode::Disabled
    } else {
        CoherenceMode::WriteInvalidate
    };
    let mut rng = XorShift::new(spec.seed);
    let opts = PushdownOpts::new().coherence(mode);
    let il = interleave(
        &mut rt,
        opts,
        2,
        spec.writes_per_thread,
        manual_syncmem,
        |arm, lane| {
            let page = shared.offset((rng.next() % spec.pages as u64) * PAGE_SIZE as u64);
            if lane == 0 {
                // Pushed thread writes the first half of each page.
                arm.write_raw(page, &2u64.to_le_bytes(), Pattern::Rand);
            } else {
                // Compute thread writes the second half of the same pages.
                arm.compute_cycles(spec.cycles_per_op);
                arm.compute_access(page.offset((PAGE_SIZE / 2) as u64), 8, true, Pattern::Rand);
            }
        },
    );
    il.makespan()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> TwoThreadSpec {
        TwoThreadSpec {
            region_pages: 2_048,
            accesses: 5_000,
            compute_cycles: 1_050_000,
            cache_ratio: 0.02,
            seed: 42,
        }
    }

    #[test]
    fn fig6_ordering_matches_the_paper() {
        let spec = small_spec();
        let local = run_fig6(&spec, Fig6Strategy::Local);
        let base = run_fig6(&spec, Fig6Strategy::BaseDdc);
        let per_process = run_fig6(&spec, Fig6Strategy::PerProcessEager);
        let per_thread = run_fig6(&spec, Fig6Strategy::PerThreadEager);
        let coherent = run_fig6(&spec, Fig6Strategy::Coherent);

        // Base DDC blows up by an order of magnitude.
        assert!(
            base.ratio(local) > 10.0,
            "base/local = {:.1}",
            base.ratio(local)
        );
        // Every pushdown variant beats the base DDC...
        assert!(per_process < base);
        assert!(per_thread < base);
        assert!(coherent < base);
        // ...and the paper's ordering holds: full-process migration is the
        // slowest, per-thread eager is better, on-demand coherence wins.
        assert!(per_thread < per_process, "{per_thread} vs {per_process}");
        assert!(coherent < per_thread, "{coherent} vs {per_thread}");
    }

    #[test]
    fn fig6_runs_are_deterministic() {
        let spec = small_spec();
        let a = run_fig6(&spec, Fig6Strategy::Coherent);
        let b = run_fig6(&spec, Fig6Strategy::Coherent);
        assert_eq!(a, b);
    }

    fn contention_spec(rate: f64) -> ContentionSpec {
        ContentionSpec {
            region_pages: 1_024,
            ops: 5_000,
            contention_rate: rate,
            ..Default::default()
        }
    }

    #[test]
    fn contention_grows_messages_under_default_protocol() {
        let low = run_contention(
            &contention_spec(0.0001),
            ContentionPlatform::Teleport(CoherenceMode::WriteInvalidate),
        );
        let high = run_contention(
            &contention_spec(0.01),
            ContentionPlatform::Teleport(CoherenceMode::WriteInvalidate),
        );
        assert!(
            high.coherence_msgs > low.coherence_msgs * 5,
            "messages: low={} high={}",
            low.coherence_msgs,
            high.coherence_msgs
        );
        assert!(high.makespan > low.makespan);
        assert!(high.backoffs > 0, "memory pool was favored in ties");
    }

    #[test]
    fn relaxed_mode_is_contention_insensitive() {
        let low = run_contention(
            &contention_spec(0.0001),
            ContentionPlatform::Teleport(CoherenceMode::WeakOrdering),
        );
        let high = run_contention(
            &contention_spec(0.01),
            ContentionPlatform::Teleport(CoherenceMode::WeakOrdering),
        );
        // Execution-time coherence traffic stays flat (only the final sync
        // point differs slightly).
        let growth = high.coherence_msgs as f64 / low.coherence_msgs.max(1) as f64;
        assert!(growth < 2.0, "relaxed message growth was {growth:.1}x");
        let slowdown = high.makespan.ratio(low.makespan);
        assert!(slowdown < 1.2, "relaxed slowdown was {slowdown:.2}x");
    }

    #[test]
    fn local_and_base_are_contention_flat() {
        for platform in [ContentionPlatform::Local, ContentionPlatform::BaseDdc] {
            let low = run_contention(&contention_spec(0.0001), platform);
            let high = run_contention(&contention_spec(0.01), platform);
            let ratio = high.makespan.ratio(low.makespan);
            assert!(
                (0.8..1.2).contains(&ratio),
                "{platform:?} contention sensitivity {ratio:.2}"
            );
            assert_eq!(high.coherence_msgs, 0);
        }
    }

    #[test]
    fn false_sharing_prefers_manual_syncmem() {
        let spec = FalseSharingSpec::default();
        let default_coherence = run_false_sharing(&spec, false);
        let manual = run_false_sharing(&spec, true);
        assert!(
            manual < default_coherence,
            "syncmem {manual} should beat ping-pong {default_coherence}"
        );
        // The gap is substantial (paper: 4.6x vs 11x speedup over base).
        let gap = default_coherence.ratio(manual);
        assert!(gap > 1.5, "false-sharing gap was only {gap:.2}x");
    }

    #[test]
    fn favoring_memory_completes_the_pushdown_faster() {
        // §7.6: "favoring the memory thread in tiebreaking completes the
        // pushdown faster: 15% improvement at 1% contention rate".
        let mut fav_mem = contention_spec(0.01);
        fav_mem.tiebreak = TieBreak::FavorMemory;
        let mut fav_comp = contention_spec(0.01);
        fav_comp.tiebreak = TieBreak::FavorCompute;
        let platform = ContentionPlatform::Teleport(CoherenceMode::WriteInvalidate);
        let mem = run_contention(&fav_mem, platform);
        let comp = run_contention(&fav_comp, platform);
        assert!(
            mem.pushdown_lane_time < comp.pushdown_lane_time,
            "favor-memory pushdown {} should beat favor-compute {}",
            mem.pushdown_lane_time,
            comp.pushdown_lane_time
        );
    }

    #[test]
    fn more_compute_threads_increase_contention_cost() {
        let mut one = contention_spec(0.001);
        one.compute_threads = 1;
        let mut four = contention_spec(0.001);
        four.compute_threads = 4;
        let r1 = run_contention(
            &one,
            ContentionPlatform::Teleport(CoherenceMode::WriteInvalidate),
        );
        let r4 = run_contention(
            &four,
            ContentionPlatform::Teleport(CoherenceMode::WriteInvalidate),
        );
        assert!(
            r4.coherence_msgs > r1.coherence_msgs,
            "4 threads should generate more coherence traffic"
        );
    }
}
