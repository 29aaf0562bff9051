//! Graph processing on a disaggregated data center: SSSP over a power-law
//! social graph, per-phase (finalize / gather / apply / scatter) breakdown,
//! and the benefit of TELEPORTing the data-intensive phases (paper §5.2).
//!
//! Run with: `cargo run --release --example graph_sssp`

use ddc_sim::{DdcConfig, MonolithicConfig};
use graphproc::algos::sssp;
use graphproc::{greedy_vertex_cut, social_graph, GasEngine, GasPlan, Phase, Sssp};
use teleport::{PlatformKind, Runtime};

fn main() {
    let n = 20_000;
    println!("generating a power-law social graph with {n} vertices...");
    let g = social_graph(n, 8, 42);
    println!(
        "  {} directed edge slots, {} KB CSR",
        g.m(),
        g.bytes() >> 10
    );

    let ws = g.bytes() + g.n() * 16;
    let ddc = DdcConfig::with_cache_ratio(ws, 0.02);
    let expected = sssp::oracle(&g, 0);
    let reachable = expected.iter().filter(|d| d.is_finite()).count();
    println!("  {reachable} vertices reachable from source 0\n");
    // PowerGraph's greedy vertex cut over 8 workers: the placement quality
    // finalize bills for (the engine charges its cycles by formula).
    let replication = greedy_vertex_cut(&g, 8).replication_factor();

    let mut totals = Vec::new();
    for kind in [
        PlatformKind::Local,
        PlatformKind::BaseDdc,
        PlatformKind::Teleport,
    ] {
        let mut rt = match kind {
            PlatformKind::Local => Runtime::local(MonolithicConfig {
                dram_bytes: ws * 4 + (32 << 20),
                ..Default::default()
            }),
            PlatformKind::BaseDdc => Runtime::base_ddc(ddc.clone()),
            PlatformKind::Teleport => Runtime::teleport(ddc.clone()),
        };
        let eng = GasEngine::load(&mut rt, &g);
        if kind != PlatformKind::Local {
            rt.drop_cache();
        }
        rt.begin_timing();

        // The paper pushes finalize, gather, and scatter (§5.2); off
        // TELEPORT the same plan runs every phase compute-side.
        let (dist, rep) = eng.run(&mut rt, &Sssp { source: 0 }, &GasPlan::paper());
        assert_eq!(dist, expected, "{kind:?} distances must match BFS");

        println!(
            "=== {} ===  ({} GAS iterations, vertex-cut replication {:.2})",
            kind.label(),
            rep.iterations,
            replication
        );
        for phase in [Phase::Finalize, Phase::Gather, Phase::Apply, Phase::Scatter] {
            let s = rep.stat(phase);
            println!(
                "  {:<10} {:>12}   remote {:>7.2} MB   ({} invocations)",
                format!("{phase:?}"),
                s.time.to_string(),
                s.remote_bytes as f64 / 1e6,
                s.invocations,
            );
        }
        println!("  total      {:>12}\n", rep.total().to_string());
        totals.push((kind, rep.total()));
    }

    let local = totals[0].1;
    println!("--- cost of scaling (normalized to local) ---");
    for (kind, t) in &totals {
        println!("{:<22} {:>6.1}x", kind.label(), t.ratio(local));
    }
    let base = totals[1].1;
    println!(
        "\nTELEPORT speedup over the base DDC: {:.1}x (paper reports ~3x for SSSP)",
        base.ratio(totals[2].1)
    );
}
