//! Figures 14–18: memory-disaggregation benefits and the degree/level
//! sweeps.

use ddc_sim::{multiplex_makespan, DdcConfig, SimDuration, PAGE_SIZE};
use memdb::{q9, PushdownPlan, QueryParams};
use teleport::{Mem, PlatformKind, PushdownOpts, Runtime};

use super::{Push, Ratio, RunTable, Workload, QUERIES};
use crate::{constrained_local, fmt_t, fmt_x, load_db, Out, CACHE_RATIO};

/// Fig 14 — absolute query times with constrained local memory: spilling
/// to NVMe vs paging to the remote memory pool (paper: LegoOS 10–80×
/// faster than Linux+SSD; TELEPORT 210–330×).
pub fn fig14(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 14 — Disaggregated memory vs NVMe SSD spill (absolute)");
    let ssd = runs
        .run(Workload::TpchSsd, PlatformKind::Local, Push::Nothing)
        .totals();
    let [base, tele] = [PlatformKind::BaseDdc, PlatformKind::Teleport].map(|p| {
        runs.run(Workload::Tpch(Ratio::Headline), p, Push::Paper)
            .totals()
    });
    let mut rows = Vec::new();
    for i in 0..3 {
        let (t_ssd, t_base, t_tele) = (ssd[i], base[i], tele[i]);
        rows.push(vec![
            QUERIES[i].to_string(),
            fmt_t(t_ssd),
            format!("{} ({})", fmt_t(t_base), fmt_x(t_ssd.ratio(t_base))),
            format!("{} ({})", fmt_t(t_tele), fmt_x(t_ssd.ratio(t_tele))),
        ]);
    }
    out.table(
        &[
            "query",
            "Linux + SSD",
            "Base DDC (speedup)",
            "TELEPORT (speedup)",
        ],
        &rows,
    );
    out.line("Paper: Base DDC 10x/65x/80x, TELEPORT 330x/210x/310x over Linux+SSD.");
}

/// Fig 15 — varying the memory pool size for a workload bigger than any
/// single server (paper: Q9 at SF 200; TELEPORT tracks Linux until Linux
/// runs out of machine, then wins 2.3×; 31.7× over LegoOS at 128 GB).
pub fn fig15(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 15 — Performance vs total memory size (Q9, oversized workload)");
    // A workload 2x the standard scale, as the paper bumps SF 50 -> 200.
    let data = runs.tpch(runs.scale().sf * 2.0);
    let ws = data.working_set_bytes();
    let params = QueryParams::default();
    let cache = ((ws as f64 * 0.005) as usize / PAGE_SIZE).max(4) * PAGE_SIZE;

    // Paper's x-axis {1, 16, 64, 128} GB maps to these fractions of the
    // working set; the "server capacity" cap sits at the 64 GB point.
    let sizes = [0.02f64, 0.16, 0.64, 1.28];
    let server_cap = 0.64;

    let mut rows = Vec::new();
    for &frac in &sizes {
        let mem_bytes = ((ws as f64 * frac) as usize).max(8 * PAGE_SIZE);
        // Linux: all memory on one server, capped at server capacity.
        let linux = if frac <= server_cap {
            let mut rt = constrained_local(mem_bytes);
            let db = load_db(&mut rt, data);
            let (_, rep) = q9(&mut rt, &db, &PushdownPlan::none(), &params);
            Some(rep.total())
        } else {
            None
        };
        // DDC platforms: pool of this size, tiny compute cache.
        let ddc_cfg = DdcConfig {
            compute_cache_bytes: cache,
            memory_pool_bytes: mem_bytes,
            ..Default::default()
        };
        let mut base_rt = Runtime::base_ddc(ddc_cfg.clone());
        let db = load_db(&mut base_rt, data);
        let (_, base_rep) = q9(&mut base_rt, &db, &PushdownPlan::none(), &params);
        let plan = PushdownPlan::top_k(&base_rep.rank_by_intensity(), 4);
        let mut tele_rt = Runtime::teleport(ddc_cfg);
        let db = load_db(&mut tele_rt, data);
        let (_, tele_rep) = q9(&mut tele_rt, &db, &plan, &params);

        rows.push(vec![
            format!("{:.0}% of DB", frac * 100.0),
            linux.map(fmt_t).unwrap_or_else(|| "N/A".into()),
            fmt_t(base_rep.total()),
            fmt_t(tele_rep.total()),
        ]);
    }
    out.table(&["total memory", "Linux", "Base DDC", "TELEPORT"], &rows);
    out.line(
        "Paper: at 128 GB (beyond one server) TELEPORT is 2.3x the best Linux \
         and 31.7x LegoOS.",
    );
}

/// Fig 16 — memory-pool CPU clock sweep (paper: 17× speedup even at
/// 0.4 GHz, leveling off at 29× above 1.7 GHz).
pub fn fig16(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 16 — Pushdown speedup vs memory-pool CPU clock (Q9)");
    // Baseline: the unmodified DDC (memory-pool clock is irrelevant).
    let base_rep = runs.headline_q9(PlatformKind::BaseDdc, Push::Nothing);
    let base = base_rep.total();
    let plan = PushdownPlan::top_k(&base_rep.rank_by_intensity(), 4);
    // The default 2.1 GHz rack under that plan is the table's Teleport run.
    let default_clock = runs
        .headline_q9(PlatformKind::Teleport, Push::Paper)
        .total();
    let data = runs.tpch(runs.scale().sf);
    let ws = data.working_set_bytes();
    let params = QueryParams::default();

    let mut rows = Vec::new();
    for clock in [0.4, 0.8, 1.2, 1.7, 2.1, 2.5] {
        let mut cfg = DdcConfig::with_cache_ratio(ws, CACHE_RATIO);
        let time = if clock == cfg.memory_cpu.clock_ghz {
            default_clock
        } else {
            cfg.memory_cpu.clock_ghz = clock;
            let mut rt = Runtime::teleport(cfg);
            let db = load_db(&mut rt, data);
            q9(&mut rt, &db, &plan, &params).1.total()
        };
        rows.push(vec![
            format!("{clock:.1} GHz"),
            fmt_t(time),
            fmt_x(base.ratio(time)),
        ]);
    }
    out.table(
        &["memory-pool clock", "Q9 time", "speedup vs base DDC"],
        &rows,
    );
    out.line("Paper: 17x at 0.4 GHz, plateauing at 29x above 1.7 GHz.");
}

/// Fig 17 — parallel pushdown contexts (paper: 8 compute threads issuing
/// concurrent aggregations; 2 physical cores in the memory pool; speedup
/// grows to ~2.5x then flattens from context-switch overhead).
pub fn fig17(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 17 — Concurrent pushdowns vs parallel user contexts");
    let data = runs.tpch(runs.scale().sf);
    let ws = data.working_set_bytes();

    // Measure one aggregation pushdown over 1/8 of lineitem.
    let mut rt = Runtime::teleport(DdcConfig::with_cache_ratio(ws, CACHE_RATIO));
    let db = load_db(&mut rt, data);
    let li = db.li;
    let slice = li.n / 8;
    let t0 = rt.elapsed();
    let _sum = rt
        .pushdown(PushdownOpts::new(), |m| {
            let mut buf = Vec::new();
            m.read_range(&li.quantity, 0, slice, &mut buf);
            m.charge_cycles(4 * slice as u64);
            buf.iter().sum::<f64>()
        })
        .expect("pushdown ok");
    let job = rt.elapsed() - t0;

    // Eight concurrent requests multiplexed over the memory pool's two
    // physical cores by 1..=4 TELEPORT user contexts.
    let jobs = vec![job; 8];
    let single = multiplex_makespan(
        &jobs,
        1,
        2,
        SimDuration::from_micros(5),
        SimDuration::from_millis(1),
    );
    let mut rows = Vec::new();
    for contexts in 1..=4usize {
        let t = multiplex_makespan(
            &jobs,
            contexts,
            2,
            SimDuration::from_micros(5),
            SimDuration::from_millis(1),
        );
        rows.push(vec![contexts.to_string(), fmt_t(t), fmt_x(single.ratio(t))]);
    }
    out.table(
        &[
            "user contexts",
            "makespan (8 requests)",
            "speedup vs 1 context",
        ],
        &rows,
    );
    out.line("Paper: near-2x at two contexts, diminishing returns beyond the core count.");
}

/// Fig 18 — the level of pushdown under constrained memory-pool compute
/// (paper: top-1 3.3×, top-4 27×, top-6 26×, all 24× at 50% clock; being
/// too aggressive backfires, more so at 75% throttle).
pub fn fig18(runs: &mut RunTable, out: &mut Out) {
    out.section("Fig 18 — Level of pushdown under throttled memory-pool CPU (Q9)");
    // Profile on the base DDC to rank operators by memory intensity.
    let base_rep = runs.headline_q9(PlatformKind::BaseDdc, Push::Nothing);
    let ranking = base_rep.rank_by_intensity();
    let base = base_rep.total();
    let data = runs.tpch(runs.scale().sf);
    let ws = data.working_set_bytes();
    let params = QueryParams::default();

    for (label, clock_frac) in [
        ("50% clock (1.05 GHz)", 0.5),
        ("25% clock (0.525 GHz)", 0.25),
    ] {
        let mut rows = Vec::new();
        for (name, k) in [
            ("None", 0usize),
            ("Top 1", 1),
            ("Top 4", 4),
            ("Top 6", 6),
            ("All", 8),
        ] {
            let time = if k == 0 {
                base
            } else {
                let mut cfg = DdcConfig::with_cache_ratio(ws, CACHE_RATIO);
                cfg.memory_cpu.clock_ghz = 2.1 * clock_frac;
                let mut rt = Runtime::teleport(cfg);
                let db = load_db(&mut rt, data);
                let (_, rep) = q9(&mut rt, &db, &PushdownPlan::top_k(&ranking, k), &params);
                rep.total()
            };
            rows.push(vec![name.to_string(), fmt_t(time), fmt_x(base.ratio(time))]);
        }
        out.line(&format!("\n**{label}**"));
        out.table(&["level", "Q9 time", "speedup vs none"], &rows);
    }
    out.line(
        "Paper (50% clock): top-1 3.3x, top-4 27x, top-6 26x, all 24x — pushing \
         everything is worse than pushing the top-4.",
    );
}
