//! Property tests: the GAS engine equals the host oracles on arbitrary
//! random graphs, under arbitrary pushdown plans.

use ddc_sim::DdcConfig;
use graphproc::algos::{cc, sssp};
use graphproc::{uniform_graph, ConnectedComponents, GasEngine, GasPlan, Phase, Sssp};
use proptest::prelude::*;
use teleport::Runtime;

fn rt_for(g: &graphproc::HostGraph) -> Runtime {
    let ws = g.bytes() + g.n() * 16;
    Runtime::teleport(DdcConfig::with_cache_ratio(ws.max(1 << 16), 0.05))
}

fn plan_from_mask(mask: u8) -> GasPlan {
    let mut phases = Vec::new();
    if mask & 1 != 0 {
        phases.push(Phase::Finalize);
    }
    if mask & 2 != 0 {
        phases.push(Phase::Gather);
    }
    if mask & 4 != 0 {
        phases.push(Phase::Apply);
    }
    if mask & 8 != 0 {
        phases.push(Phase::Scatter);
    }
    GasPlan::of(&phases)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SSSP equals BFS on arbitrary random graphs, from arbitrary sources,
    /// under arbitrary per-phase pushdown plans.
    #[test]
    fn sssp_equals_bfs(
        n in 2usize..300,
        m in 1usize..800,
        seed in any::<u64>(),
        src_ix in any::<prop::sample::Index>(),
        plan_mask in 0u8..16,
    ) {
        let g = uniform_graph(n, m, seed);
        let src = src_ix.index(n) as u32;
        let expected = sssp::oracle(&g, src);
        let mut rt = rt_for(&g);
        let eng = GasEngine::load(&mut rt, &g);
        rt.begin_timing();
        let (got, rep) = eng.run(&mut rt, &Sssp { source: src }, &plan_from_mask(plan_mask));
        prop_assert_eq!(got, expected);
        prop_assert!(rep.iterations >= 1);
    }

    /// Connected components equals union-find on arbitrary graphs.
    #[test]
    fn cc_equals_union_find(n in 2usize..250, m in 0usize..600, seed in any::<u64>()) {
        let g = uniform_graph(n, m.max(1), seed);
        let expected = cc::oracle(&g);
        let mut rt = rt_for(&g);
        let eng = GasEngine::load(&mut rt, &g);
        rt.begin_timing();
        let (got, _) = eng.run(&mut rt, &ConnectedComponents, &GasPlan::paper());
        prop_assert_eq!(got, expected);
    }

    /// Phase times are additive: the report's total is the sum of its
    /// phases, and iteration counts bound the invocation counts.
    #[test]
    fn report_accounting(n in 10usize..200, m in 10usize..400, seed in any::<u64>()) {
        let g = uniform_graph(n, m, seed);
        let mut rt = rt_for(&g);
        let eng = GasEngine::load(&mut rt, &g);
        rt.begin_timing();
        let (_, rep) = eng.run(&mut rt, &Sssp { source: 0 }, &GasPlan::none());
        let sum = rep.finalize.time + rep.gather.time + rep.apply.time + rep.scatter.time;
        prop_assert_eq!(rep.total(), sum);
        prop_assert_eq!(rep.finalize.invocations, 1);
        prop_assert_eq!(rep.scatter.invocations, rep.iterations);
    }
}
