//! Engine-vs-oracle equivalence for every algorithm on every platform, and
//! the performance shape the paper reports for graph processing.

use ddc_sim::{DdcConfig, MonolithicConfig};
use graphproc::algos::{cc, pagerank, reach, sssp};
use graphproc::{social_graph, ConnectedComponents, GasEngine, GasPlan, PageRank, Reach, Sssp};
use teleport::Runtime;

fn graph() -> graphproc::HostGraph {
    social_graph(3_000, 4, 77)
}

fn platforms(g: &graphproc::HostGraph) -> Vec<(&'static str, Runtime)> {
    // Working set: CSR + values + accumulators.
    let ws = g.bytes() + g.n() * 16;
    let ddc = DdcConfig::with_cache_ratio(ws, 0.02);
    vec![
        (
            "local",
            Runtime::local(MonolithicConfig {
                dram_bytes: ws * 4 + (16 << 20),
                ..Default::default()
            }),
        ),
        ("base-ddc", Runtime::base_ddc(ddc.clone())),
        ("teleport", Runtime::teleport(ddc)),
    ]
}

fn load(rt: &mut Runtime, g: &graphproc::HostGraph) -> GasEngine {
    let eng = GasEngine::load(rt, g);
    if rt.kind() != teleport::PlatformKind::Local {
        rt.drop_cache();
    }
    rt.begin_timing();
    eng
}

#[test]
fn sssp_matches_bfs_oracle_on_all_platforms() {
    let g = graph();
    let expected = sssp::oracle(&g, 0);
    for (name, mut rt) in platforms(&g) {
        let eng = load(&mut rt, &g);
        let (got, rep) = eng.run(&mut rt, &Sssp { source: 0 }, &GasPlan::paper());
        assert_eq!(got, expected, "{name}");
        assert!(rep.iterations > 1, "{name}: multi-round BFS");
    }
}

#[test]
fn reachability_matches_oracle() {
    let g = graph();
    let expected = reach::oracle(&g, 5);
    for (name, mut rt) in platforms(&g) {
        let eng = load(&mut rt, &g);
        let (got, _) = eng.run(&mut rt, &Reach { source: 5 }, &GasPlan::paper());
        assert_eq!(got, expected, "{name}");
    }
}

#[test]
fn connected_components_matches_union_find() {
    // Use a graph with several components.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let a = social_graph(500, 3, 1);
    for v in 0..a.n() as u32 {
        for &w in a.neighbors(v) {
            edges.push((v, w));
        }
    }
    // Second disjoint copy shifted by 500, plus isolated vertices.
    for v in 0..a.n() as u32 {
        for &w in a.neighbors(v) {
            edges.push((v + 500, w + 500));
        }
    }
    let g = graphproc::HostGraph::from_edges(1_010, &edges);
    let expected = cc::oracle(&g);

    for (name, mut rt) in platforms(&g) {
        let eng = load(&mut rt, &g);
        let (got, _) = eng.run(&mut rt, &ConnectedComponents, &GasPlan::paper());
        assert_eq!(got, expected, "{name}");
        // Isolated vertices keep their own label.
        assert_eq!(got[1_005], 1_005.0, "{name}");
    }
}

#[test]
fn pagerank_matches_power_iteration() {
    let g = social_graph(800, 4, 3);
    let expected = pagerank::oracle(&g, 20);
    for (name, mut rt) in platforms(&g) {
        let eng = load(&mut rt, &g);
        let (got, rep) = eng.run(&mut rt, &PageRank::default(), &GasPlan::paper());
        assert_eq!(rep.iterations, 20, "{name}");
        for v in 0..g.n() {
            assert!(
                (got[v] - expected[v]).abs() < 1e-9,
                "{name}: vertex {v}: {} vs {}",
                got[v],
                expected[v]
            );
        }
    }
}

#[test]
fn scatter_dominates_remote_traffic_on_base_ddc() {
    // The Fig 10 shape for SSSP: finalize and scatter are the data-heavy
    // phases; apply and gather are orders of magnitude lighter.
    let g = graph();
    let ws = g.bytes() + g.n() * 16;
    let mut rt = Runtime::base_ddc(DdcConfig::with_cache_ratio(ws, 0.02));
    let eng = load(&mut rt, &g);
    let (_, rep) = eng.run(&mut rt, &Sssp { source: 0 }, &GasPlan::none());
    assert!(
        rep.scatter.remote_bytes > rep.apply.remote_bytes,
        "scatter {} vs apply {}",
        rep.scatter.remote_bytes,
        rep.apply.remote_bytes
    );
    assert!(rep.finalize.remote_bytes > rep.gather.remote_bytes);
}

#[test]
fn teleport_beats_base_ddc_on_sssp() {
    let g = graph();
    let ws = g.bytes() + g.n() * 16;
    let cfg = DdcConfig::with_cache_ratio(ws, 0.02);

    let mut base = Runtime::base_ddc(cfg.clone());
    let eng = load(&mut base, &g);
    let (_, rep_base) = eng.run(&mut base, &Sssp { source: 0 }, &GasPlan::none());

    let mut tele = Runtime::teleport(cfg);
    let eng = load(&mut tele, &g);
    let (_, rep_tele) = eng.run(&mut tele, &Sssp { source: 0 }, &GasPlan::paper());

    let speedup = rep_base.total().ratio(rep_tele.total());
    assert!(
        speedup > 1.5,
        "TELEPORT SSSP speedup was only {speedup:.2}x (paper: ~3x)"
    );
}
