//! Figures 6, 7, 20, 21, 22: synchronization and coherence
//! microbenchmarks.

use ddc_sim::{DdcConfig, SimDuration, PAGE_SIZE};
use teleport::microbench::{
    run_contention, run_false_sharing, run_fig6, ContentionPlatform, ContentionSpec,
    FalseSharingSpec, Fig6Strategy, TwoThreadSpec,
};
use teleport::{CoherenceMode, Mem, PushdownOpts, Runtime, SyncStrategy};

use crate::{figs::RunTable, fmt_t, fmt_x, Out, Scale};

fn two_thread_spec(scale: &Scale) -> TwoThreadSpec {
    // Scale the region with the standard scale factor band.
    let factor = (scale.sf / 0.01).clamp(0.1, 10.0);
    TwoThreadSpec {
        region_pages: ((16_384.0 * factor) as usize).max(1_024),
        accesses: ((50_000.0 * factor) as usize).max(5_000),
        compute_cycles: ((10_500_000.0 * factor) as u64).max(1_050_000),
        ..Default::default()
    }
}

/// Fig 6 — the data-synchronization ablation (paper: naive full-process
/// 2.9×, per-thread eager 3.8×, on-demand coherence 11× over base DDC).
pub fn fig6(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 6 — Data synchronization ablation (two-thread microbenchmark)");
    let spec = two_thread_spec(runs.scale());
    let base = run_fig6(&spec, Fig6Strategy::BaseDdc);
    let rows: Vec<Vec<String>> = [
        ("Local execution", Fig6Strategy::Local),
        ("Base DDC", Fig6Strategy::BaseDdc),
        ("TELEPORT (per process)", Fig6Strategy::PerProcessEager),
        ("TELEPORT (per thread)", Fig6Strategy::PerThreadEager),
        ("TELEPORT (coherence)", Fig6Strategy::Coherent),
    ]
    .into_iter()
    .map(|(label, strat)| {
        let t = run_fig6(&spec, strat);
        vec![label.to_string(), fmt_t(t), fmt_x(base.ratio(t))]
    })
    .collect();
    out.table(&["strategy", "time", "speedup over base DDC"], &rows);
    out.line("Paper: per-process 2.9x, per-thread 3.8x, coherence 11x.");
}

/// Fig 7 — false sharing: the default protocol ping-pongs pages; disabling
/// coherence and syncing manually with `syncmem` wins (paper: 4.6× vs 11×
/// speedup over base DDC).
pub fn fig7(_runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 7 — False sharing: default coherence vs manual syncmem");
    let spec = FalseSharingSpec {
        pages: 128,
        writes_per_thread: 20_000,
        ..Default::default()
    };
    let coherent = run_false_sharing(&spec, false);
    let manual = run_false_sharing(&spec, true);
    out.table(
        &["variant", "time", "vs default"],
        &[
            vec![
                "TELEPORT (coherence)".into(),
                fmt_t(coherent),
                "1.0x".into(),
            ],
            vec![
                "TELEPORT (syncmem)".into(),
                fmt_t(manual),
                fmt_x(coherent.ratio(manual)),
            ],
        ],
    );
    out.line("Paper: manual syncmem turns a 4.6x speedup into 11x when false sharing occurs.");
}

/// Fig 19 — the components of a pushdown request and what determines each
/// (the paper's table), annotated with this implementation's measured
/// values for a representative on-demand call.
pub fn fig19(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 19 — Components of executing a pushdown request");
    let factor = (runs.scale().sf / 0.01).clamp(0.1, 10.0);
    let region_pages = ((32_768.0 * factor) as usize).max(2_048);
    let cfg = DdcConfig {
        compute_cache_bytes: region_pages / 8 * PAGE_SIZE,
        memory_pool_bytes: region_pages * PAGE_SIZE * 2 + (64 << 20),
        ..Default::default()
    };
    let mut rt = Runtime::teleport(cfg);
    let region = rt.alloc(region_pages * PAGE_SIZE);
    for p in 0..region_pages {
        let addr = region.offset((p * PAGE_SIZE) as u64);
        if p % 16 == 0 {
            rt.write_raw(addr, &1u64.to_le_bytes(), ddc_os::Pattern::Seq);
        } else {
            let _ = rt.read_raw(addr, 8, ddc_os::Pattern::Seq);
        }
    }
    rt.begin_timing();
    rt.pushdown(PushdownOpts::new(), |m| {
        for p in (0..region_pages).step_by(8) {
            let _ = m.read_raw(
                region.offset((p * PAGE_SIZE) as u64),
                64,
                ddc_os::Pattern::Rand,
            );
        }
    })
    .expect("pushdown ok");
    let bd = rt.last_breakdown().expect("recorded");

    let determined_by = [
        "Synchronization method, cache size",
        "Message size, the network",
        "Synchronization method, cache size",
        "User function",
        "Synchronization method, cache size",
        "Message size, the network",
        "Synchronization method, cache size",
    ];
    let mut rows = Vec::new();
    for (i, (name, t)) in bd.components().iter().enumerate() {
        rows.push(vec![
            format!("{}", i + 1),
            name.to_string(),
            determined_by[i].to_string(),
            fmt_t(*t),
        ]);
    }
    out.table(
        &[
            "#",
            "component",
            "determined by (paper's table)",
            "measured",
        ],
        &rows,
    );
    out.line("The six parts (function execution split into 4a/4b) feed Fig 20.");
}

/// Fig 20 — the six-part breakdown of one pushdown call under eager vs
/// on-demand synchronization (paper: ~3.5 s vs ~0.3 s per call with a 1 GB
/// cache; user-function time excluded).
pub fn fig20(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 20 — Pushdown cost breakdown: eager vs on-demand sync");
    let factor = (runs.scale().sf / 0.01).clamp(0.1, 10.0);
    let region_pages = ((32_768.0 * factor) as usize).max(2_048);

    let run = |sync: SyncStrategy| -> teleport::Breakdown {
        let cfg = DdcConfig {
            compute_cache_bytes: region_pages / 8 * PAGE_SIZE,
            memory_pool_bytes: region_pages * PAGE_SIZE * 2 + (64 << 20),
            ..Default::default()
        };
        let mut rt = Runtime::teleport(cfg);
        let region = rt.alloc(region_pages * PAGE_SIZE);
        // Warm the cache: mostly clean pages plus a dirty fraction.
        for p in 0..region_pages {
            let addr = region.offset((p * PAGE_SIZE) as u64);
            if p % 16 == 0 {
                rt.write_raw(addr, &1u64.to_le_bytes(), ddc_os::Pattern::Seq);
            } else {
                let _ = rt.read_raw(addr, 8, ddc_os::Pattern::Seq);
            }
        }
        rt.begin_timing();
        rt.pushdown(PushdownOpts::new().sync(sync), |m| {
            // The pushed function touches a slice of the data.
            let mut buf = Vec::new();
            for p in (0..region_pages).step_by(4) {
                buf.clear();
                let addr = region.offset((p * PAGE_SIZE) as u64);
                let b = m.read_raw(addr, 64, ddc_os::Pattern::Rand);
                buf.extend_from_slice(b);
            }
        })
        .expect("pushdown ok");
        rt.last_breakdown().expect("recorded")
    };

    let eager = run(SyncStrategy::Eager);
    let ondemand = run(SyncStrategy::OnDemand);

    let mut rows = Vec::new();
    for i in 0..7 {
        let (name, e) = eager.components()[i];
        let (_, o) = ondemand.components()[i];
        if name == "function execution" {
            continue; // excluded, as in the paper
        }
        rows.push(vec![name.to_string(), fmt_t(e), fmt_t(o)]);
    }
    rows.push(vec![
        "total overhead".into(),
        fmt_t(eager.overhead()),
        fmt_t(ondemand.overhead()),
    ]);
    out.table(&["component", "eager sync", "on-demand sync"], &rows);
    out.line(&format!(
        "Eager overhead is {} on-demand's ({} vs {}). Paper: ~3.5s vs ~0.3s per call.",
        fmt_x(eager.overhead().ratio(ondemand.overhead())),
        fmt_t(eager.overhead()),
        fmt_t(ondemand.overhead()),
    ));
}

const RATES: [f64; 5] = [0.000001, 0.00001, 0.0001, 0.001, 0.01];

fn contention_spec(scale: &Scale, rate: f64) -> ContentionSpec {
    let factor = (scale.sf / 0.01).clamp(0.1, 10.0);
    ContentionSpec {
        region_pages: ((8_192.0 * factor) as usize).max(1_024),
        ops: ((20_000.0 * factor) as usize).max(5_000),
        contention_rate: rate,
        ..Default::default()
    }
}

/// Fig 21 — application performance under increasing write contention
/// (paper: local and base DDC flat; TELEPORT default degrades gently —
/// 2.1 s → 3.7 s from 0.0001% to 1%; the relaxation stays flat).
pub fn fig21(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 21 — Execution time vs contention rate");
    let mut rows = Vec::new();
    for rate in RATES {
        let spec = contention_spec(runs.scale(), rate);
        let local = run_contention(&spec, ContentionPlatform::Local);
        let base = run_contention(&spec, ContentionPlatform::BaseDdc);
        let dflt = run_contention(
            &spec,
            ContentionPlatform::Teleport(CoherenceMode::WriteInvalidate),
        );
        let relaxed = run_contention(
            &spec,
            ContentionPlatform::Teleport(CoherenceMode::WeakOrdering),
        );
        rows.push(vec![
            format!("{:.4}%", rate * 100.0),
            fmt_t(local.makespan),
            fmt_t(base.makespan),
            fmt_t(dflt.makespan),
            fmt_t(relaxed.makespan),
        ]);
    }
    out.table(
        &[
            "contention",
            "Local",
            "Base DDC",
            "TELEPORT (default)",
            "TELEPORT (relaxed)",
        ],
        &rows,
    );
    out.line("Paper: default degrades above ~0.1% contention; others stay flat.");
}

/// Fig 22 — coherence message counts for the same sweep (paper: the
/// default protocol's messages grow with contention; the relaxation's do
/// not).
pub fn fig22(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 22 — Coherence messages vs contention rate");
    let mut rows = Vec::new();
    for rate in RATES {
        let spec = contention_spec(runs.scale(), rate);
        let dflt = run_contention(
            &spec,
            ContentionPlatform::Teleport(CoherenceMode::WriteInvalidate),
        );
        let relaxed = run_contention(
            &spec,
            ContentionPlatform::Teleport(CoherenceMode::WeakOrdering),
        );
        rows.push(vec![
            format!("{:.4}%", rate * 100.0),
            dflt.coherence_msgs.to_string(),
            format!("{} (backoffs: {})", relaxed.coherence_msgs, dflt.backoffs),
        ]);
    }
    out.table(
        &["contention", "TELEPORT (default)", "TELEPORT (relaxed)"],
        &rows,
    );
    out.line("Paper: default grows with contention; relaxed stays constant.");
}

/// The total virtual time of a no-op pushdown — used by smoke tests.
pub fn pushdown_overhead_probe() -> SimDuration {
    let mut rt = Runtime::teleport(DdcConfig::default());
    rt.begin_timing();
    rt.pushdown(PushdownOpts::new(), |_m| ()).expect("ok");
    rt.elapsed()
}
