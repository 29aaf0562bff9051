//! `scatter` — graphproc SSSP + mapred WordCount on Local, BaseDdc and
//! Teleport. The same paging layer as `tpch` driven the opposite way:
//! random, write-heavy and miss-dominated, so the BaseDdc legs are millions
//! of faults with dirty page-outs (`fault_in`, eviction, writeback,
//! `Fabric::send`) and the Teleport legs millions of pool-side touches. A
//! gain for the cache-hit path that costs the fault or writeback path shows
//! here.

use std::collections::BTreeMap;

use graphproc::algos::sssp;
use graphproc::{social_graph, GasEngine, GasPlan, HostGraph, Sssp};
use mapred::{wordcount_oracle, Corpus, LoadedCorpus, MrPlan, WordCount};
use teleport::PlatformKind;

use crate::span::Spans;
use crate::workload::{model_metrics, Ctx, Job, Workload, PLATFORMS};

/// The graph and vocabulary of `repro`'s standard scale (`Scale::standard`);
/// the corpus is half of its 50 000 comments, which keeps an iteration near
/// 1.5 s (WordCount's BaseDdc leg alone is two thirds of it).
const GRAPH_N: usize = 30_000;
const GRAPH_DEG: usize = 10;
const COMMENTS: usize = 25_000;
const VOCAB: u32 = 80_000;
const SMOKE: (usize, usize, usize, u32) = (1_500, 4, 800, 2_000);
/// Map splits and reduce buffers, as in `figs::apps::fig13`.
const MAP_TASKS: usize = 8;
const REDUCE_TASKS: usize = 4;
/// Fig 13 speedups over the base DDC.
const PAPER_SSSP: f64 = 3.0;
const PAPER_WC: f64 = 2.5;

pub struct Input {
    graph: HostGraph,
    dist: Vec<f64>,
    corpus: Corpus,
    counts: Vec<(u32, u64)>,
}

pub struct Scatter;

impl Workload for Scatter {
    const NAME: &'static str = "scatter";
    type Input = Input;

    fn generate(seed: u64, smoke: bool, spans: &mut Spans) -> Input {
        let (n, deg, comments, vocab) = if smoke {
            SMOKE
        } else {
            (GRAPH_N, GRAPH_DEG, COMMENTS, VOCAB)
        };
        let graph = spans.span("graphproc.generate", |_| social_graph(n, deg, seed));
        let dist = spans.span("graphproc.oracle", |_| sssp::oracle(&graph, 0));
        let corpus = spans.span("mapred.generate", |_| {
            Corpus::generate(comments, vocab, seed)
        });
        let counts = spans.span("mapred.oracle", |_| wordcount_oracle(&corpus));
        Input {
            graph,
            dist,
            corpus,
            counts,
        }
    }

    /// (edges + comments) × 3 platforms.
    fn ops(input: &Input) -> u64 {
        (input.graph.m() + input.corpus.len()) as u64 * 3
    }

    fn iterate(input: &Input, ctx: &mut Ctx<'_>) -> BTreeMap<&'static str, f64> {
        let g = &input.graph;
        let mut sssp_t = Vec::new();
        for kind in PLATFORMS {
            let plan = match kind {
                PlatformKind::Teleport => GasPlan::paper(),
                _ => GasPlan::none(),
            };
            let (dist, rep) = ctx.on_platform(kind, g.bytes() + g.n() * 16, |rt, ctx| {
                let eng = ctx.span("graphproc.load", |_| GasEngine::load(rt, g));
                ctx.cold_start(rt);
                ctx.span("graphproc.sssp", |_| {
                    eng.run(rt, &Sssp { source: 0 }, &plan)
                })
            });
            ctx.check(dist == input.dist, g.m() as u64);
            sssp_t.push(rep.total());
        }
        let corpus = &input.corpus;
        let mut wc_t = Vec::new();
        for kind in PLATFORMS {
            let plan = match kind {
                PlatformKind::Teleport => MrPlan::paper(),
                _ => MrPlan::none(),
            };
            let (counts, rep) = ctx.on_platform(kind, corpus.bytes() * 3, |rt, ctx| {
                let loaded = ctx.span("mapred.load", |_| LoadedCorpus::load(rt, corpus));
                ctx.cold_start(rt);
                ctx.span("mapred.wordcount", |_| {
                    mapred::run(rt, &loaded, &WordCount, MAP_TASKS, REDUCE_TASKS, &plan)
                })
            });
            ctx.check(counts == input.counts, corpus.len() as u64);
            wc_t.push(rep.total());
        }
        let job = |paper_speedup, t: &[_]| Job {
            paper_speedup,
            local: t[0],
            base: t[1],
            tele: t[2],
        };
        model_metrics(&[job(PAPER_SSSP, &sssp_t), job(PAPER_WC, &wc_t)])
    }
}
