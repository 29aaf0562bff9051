//! Figure implementations and the run table they read.
//!
//! Every application run a figure reports (Figs 1a, 1b, 3, 10, 13 and 14)
//! comes from one [`RunTable`]: a run is keyed by its workload, platform and
//! (on Teleport only) plan, executes the first time a figure asks for it and
//! never again in the process. The sweeps with configurations of their own
//! (Figs 12 and 15–18, the ablations, the suite) build their racks but take
//! their inputs from the table too.

pub mod ablations;
pub mod apps;
pub mod intro;
pub mod micro;
pub mod sensitivity;
pub mod suite;

use std::collections::BTreeMap;

use ddc_sim::SimDuration;
use graphproc::algos::{cc, reach, sssp};
use graphproc::{social_graph, ConnectedComponents, GasEngine, GasPlan, GasReport, HostGraph};
use graphproc::{Reach, Sssp};
use mapred::{grep_oracle, run as mr_run, wordcount_oracle, Corpus, Grep, LoadedCorpus, MrPlan};
use mapred::{MrReport, WordCount};
use memdb::{q3, q6, q9, PushdownPlan, QueryParams, QueryReport, TpchData};
use teleport::{PlatformKind, Runtime};

use crate::{begin_cold, constrained_local, load_db, runtime_for, Scale, CACHE_RATIO};

/// The paper's three headline TPC-H queries, in its order.
pub const QUERIES: [&str; 3] = ["Q9", "Q3", "Q6"];

/// The three platforms, in the order the figures print them.
pub(crate) const PLATFORMS: [PlatformKind; 3] = [
    PlatformKind::Local,
    PlatformKind::BaseDdc,
    PlatformKind::Teleport,
];

/// The compute-cache ratio of a TPC-H run, by name, so a key never compares
/// `f64`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ratio {
    /// [`CACHE_RATIO`], the headline experiments' 2 %.
    Headline,
    /// Fig 1b's 10 % compute-local memory.
    Tenth,
}

impl Ratio {
    fn value(self) -> f64 {
        match self {
            Ratio::Headline => CACHE_RATIO,
            Ratio::Tenth => 0.10,
        }
    }
}

/// A GAS algorithm, run from vertex 0 where it has a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Algo {
    Sssp,
    Re,
    Cc,
}

/// A MapReduce app: WordCount, or Grep for word 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum App {
    Wc,
    Grep,
}

/// What one run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    /// Q9, Q3 and Q6 on one rack at a cache ratio, in [`QUERIES`] order.
    Tpch(Ratio),
    /// The trio on a Local server whose DRAM is the DDC's compute cache, so
    /// it spills to NVMe (the paper's "Linux with SSDs", Figs 1a and 14).
    TpchSsd,
    Gas(Algo),
    Mr(App),
}

/// The paper's eight workloads (Figs 3 and 13; the TPC-H trio is three of
/// them), in its order.
pub(crate) const EIGHT: [Workload; 6] = [
    Workload::Tpch(Ratio::Headline),
    Workload::Gas(Algo::Sssp),
    Workload::Gas(Algo::Re),
    Workload::Gas(Algo::Cc),
    Workload::Mr(App::Wc),
    Workload::Mr(App::Grep),
];

impl Workload {
    /// The system the workload stands in for, and the names of the rows
    /// its [`Report::totals`] gives.
    pub(crate) fn labels(self) -> (&'static str, &'static [&'static str]) {
        match self {
            Workload::Tpch(_) | Workload::TpchSsd => ("MonetDB", &QUERIES),
            Workload::Gas(Algo::Sssp) => ("PowerGraph", &["SSSP"]),
            Workload::Gas(Algo::Re) => ("PowerGraph", &["RE"]),
            Workload::Gas(Algo::Cc) => ("PowerGraph", &["CC"]),
            Workload::Mr(App::Wc) => ("Phoenix", &["WC"]),
            Workload::Mr(App::Grep) => ("Phoenix", &["Grep"]),
        }
    }
}

/// The plan a run pushes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Push {
    Nothing,
    /// The paper's choice: each TPC-H query's top 4 operators by memory
    /// intensity, profiled on the BaseDdc run at the same ratio (§7.4);
    /// `GasPlan::paper()` and `MrPlan::paper()` for the others.
    Paper,
}

/// One run's report.
#[derive(Debug, Clone)]
pub(crate) enum Report {
    Tpch([QueryReport; 3]),
    Gas(GasReport),
    Mr(MrReport),
}

impl Report {
    /// The run's virtual time per row of [`Workload::labels`].
    pub(crate) fn totals(&self) -> Vec<SimDuration> {
        match self {
            Report::Tpch(r) => r.iter().map(QueryReport::total).collect(),
            Report::Gas(r) => vec![r.total()],
            Report::Mr(r) => vec![r.total()],
        }
    }

    pub(crate) fn tpch(self) -> [QueryReport; 3] {
        match self {
            Report::Tpch(r) => r,
            other => panic!("not a TPC-H report: {other:?}"),
        }
    }

    pub(crate) fn gas(self) -> GasReport {
        match self {
            Report::Gas(r) => r,
            other => panic!("not a GAS report: {other:?}"),
        }
    }

    pub(crate) fn mr(self) -> MrReport {
        match self {
            Report::Mr(r) => r,
            other => panic!("not a MapReduce report: {other:?}"),
        }
    }
}

/// A run: its workload, platform and plan.
type Key = (Workload, PlatformKind, Push);

/// The generated inputs and one report per distinct run, at one [`Scale`].
/// A run executes the first time it is asked for; the table keeps reports,
/// never a [`Runtime`].
pub struct RunTable {
    scale: Scale,
    tpch: BTreeMap<u64, TpchData>,
    graph: Option<HostGraph>,
    corpus: Option<Corpus>,
    reports: Vec<(Key, Report)>,
}

impl RunTable {
    pub fn new(scale: Scale) -> RunTable {
        RunTable {
            scale,
            tpch: BTreeMap::new(),
            graph: None,
            corpus: None,
            reports: Vec::new(),
        }
    }

    pub(crate) fn scale(&self) -> &Scale {
        &self.scale
    }

    /// How many runs have executed.
    pub fn executed(&self) -> usize {
        self.reports.len()
    }

    /// TPC-H at scale factor `sf` and the scale's seed.
    pub(crate) fn tpch(&mut self, sf: f64) -> &TpchData {
        let seed = self.scale.seed;
        self.tpch
            .entry(sf.to_bits())
            .or_insert_with(|| TpchData::generate(sf, seed))
    }

    /// The social graph of the GAS runs.
    pub(crate) fn graph(&mut self) -> &HostGraph {
        let s = self.scale;
        self.graph
            .get_or_insert_with(|| social_graph(s.graph_n, s.graph_deg, s.seed))
    }

    /// The comment corpus of the MapReduce runs.
    pub(crate) fn corpus(&mut self) -> &Corpus {
        let s = self.scale;
        self.corpus
            .get_or_insert_with(|| Corpus::generate(s.comments, s.vocab, s.seed))
    }

    /// The report of `workload` on `platform` under `push`, executing the
    /// run if this is the first time it is asked for.
    pub(crate) fn run(&mut self, workload: Workload, platform: PlatformKind, push: Push) -> Report {
        // Off Teleport `run_placed` runs every unit compute-side, so every
        // plan there is the same run.
        let push = if platform == PlatformKind::Teleport {
            push
        } else {
            Push::Nothing
        };
        // A Local rack has no compute cache (`runtime_for` ignores the
        // ratio), so every TPC-H ratio there is the same run.
        let workload = match (workload, platform) {
            (Workload::Tpch(_), PlatformKind::Local) => Workload::Tpch(Ratio::Headline),
            _ => workload,
        };
        let key = (workload, platform, push);
        if let Some((_, report)) = self.reports.iter().find(|(k, _)| *k == key) {
            return report.clone();
        }
        let report = self.execute(key);
        self.reports.push((key, report.clone()));
        report
    }

    /// Build the run's rack, load its input with a cold cache, run it, and
    /// check a GAS or MapReduce result against its oracle.
    fn execute(&mut self, key: Key) -> Report {
        let (workload, platform, push) = key;
        match workload {
            Workload::Tpch(ratio) => {
                let plans = match push {
                    Push::Nothing => [(); 3].map(|_| PushdownPlan::none()),
                    Push::Paper => self
                        .run(workload, PlatformKind::BaseDdc, Push::Nothing)
                        .tpch()
                        .map(|r| PushdownPlan::top_k(&r.rank_by_intensity(), 4)),
                };
                let data = self.tpch(self.scale.sf);
                let mut rt = runtime_for(platform, data.working_set_bytes(), ratio.value());
                Report::Tpch(run_queries(&mut rt, data, &plans))
            }
            Workload::TpchSsd => {
                assert_eq!(platform, PlatformKind::Local, "the SSD spill runs on Local");
                let data = self.tpch(self.scale.sf);
                let dram = ((data.working_set_bytes() as f64 * CACHE_RATIO) as usize).max(1 << 20);
                let none = [(); 3].map(|_| PushdownPlan::none());
                Report::Tpch(run_queries(&mut constrained_local(dram), data, &none))
            }
            Workload::Gas(algo) => {
                let plan = match push {
                    Push::Nothing => GasPlan::none(),
                    Push::Paper => GasPlan::paper(),
                };
                let g = self.graph();
                let mut rt = runtime_for(platform, g.bytes() + g.n() * 16, CACHE_RATIO);
                let eng = GasEngine::load(&mut rt, g);
                begin_cold(&mut rt);
                let (values, rep, oracle) = match algo {
                    Algo::Sssp => {
                        let (v, rep) = eng.run(&mut rt, &Sssp { source: 0 }, &plan);
                        (v, rep, sssp::oracle(g, 0))
                    }
                    Algo::Re => {
                        let (v, rep) = eng.run(&mut rt, &Reach { source: 0 }, &plan);
                        (v, rep, reach::oracle(g, 0))
                    }
                    Algo::Cc => {
                        let (v, rep) = eng.run(&mut rt, &ConnectedComponents, &plan);
                        (v, rep, cc::oracle(g))
                    }
                };
                assert_eq!(values, oracle, "{key:?}");
                Report::Gas(rep)
            }
            Workload::Mr(app) => {
                let plan = match push {
                    Push::Nothing => MrPlan::none(),
                    Push::Paper => MrPlan::paper(),
                };
                let corpus = self.corpus();
                let mut rt = runtime_for(platform, corpus.bytes() * 3, CACHE_RATIO);
                let input = LoadedCorpus::load(&mut rt, corpus);
                begin_cold(&mut rt);
                let (out, rep, oracle) = match app {
                    App::Wc => {
                        let (out, rep) = mr_run(&mut rt, &input, &WordCount, 8, 4, &plan);
                        (out, rep, wordcount_oracle(corpus))
                    }
                    App::Grep => {
                        let pattern = 3;
                        let (out, rep) = mr_run(&mut rt, &input, &Grep { pattern }, 8, 4, &plan);
                        let n = grep_oracle(corpus, pattern);
                        (out, rep, if n > 0 { vec![(pattern, n)] } else { vec![] })
                    }
                };
                assert_eq!(out, oracle, "{key:?}");
                Report::Mr(rep)
            }
        }
    }
}

/// Run Q9/Q3/Q6 on one runtime under a per-query pushdown plan, returning
/// the per-query reports.
fn run_queries(rt: &mut Runtime, data: &TpchData, plans: &[PushdownPlan; 3]) -> [QueryReport; 3] {
    let params = QueryParams::default();
    let db = load_db(rt, data);
    let (_, r9) = q9(rt, &db, &plans[0], &params);
    let (_, r3) = q3(rt, &db, &plans[1], &params);
    let (_, r6) = q6(rt, &db, &plans[2], &params);
    [r9, r3, r6]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `workload` under `none()` on a rack built here, not by the table.
    fn direct_none_run(workload: Workload, platform: PlatformKind, scale: &Scale) -> Report {
        match workload {
            Workload::Gas(Algo::Sssp) => {
                let g = social_graph(scale.graph_n, scale.graph_deg, scale.seed);
                let mut rt = runtime_for(platform, g.bytes() + g.n() * 16, CACHE_RATIO);
                let eng = GasEngine::load(&mut rt, &g);
                begin_cold(&mut rt);
                let (v, rep) = eng.run(&mut rt, &Sssp { source: 0 }, &GasPlan::none());
                assert_eq!(v, sssp::oracle(&g, 0));
                Report::Gas(rep)
            }
            Workload::Mr(App::Wc) => {
                let c = Corpus::generate(scale.comments, scale.vocab, scale.seed);
                let mut rt = runtime_for(platform, c.bytes() * 3, CACHE_RATIO);
                let input = LoadedCorpus::load(&mut rt, &c);
                begin_cold(&mut rt);
                let (out, rep) = mr_run(&mut rt, &input, &WordCount, 8, 4, &MrPlan::none());
                assert_eq!(out, wordcount_oracle(&c));
                Report::Mr(rep)
            }
            Workload::Tpch(Ratio::Headline) => {
                let data = TpchData::generate(scale.sf, scale.seed);
                let mut rt = runtime_for(platform, data.working_set_bytes(), CACHE_RATIO);
                let none = [(); 3].map(|_| PushdownPlan::none());
                Report::Tpch(run_queries(&mut rt, &data, &none))
            }
            other => unreachable!("no direct run for {other:?}"),
        }
    }

    #[test]
    fn the_plan_is_part_of_the_key_on_teleport_only() {
        let scale = Scale::quick();
        let mut runs = RunTable::new(scale);
        let workloads = [
            Workload::Gas(Algo::Sssp),
            Workload::Mr(App::Wc),
            Workload::Tpch(Ratio::Headline),
        ];
        for w in workloads {
            for p in [PlatformKind::Local, PlatformKind::BaseDdc] {
                let before = runs.executed();
                let none = format!("{:?}", runs.run(w, p, Push::Nothing));
                let paper = format!("{:?}", runs.run(w, p, Push::Paper));
                assert_eq!(runs.executed() - before, 1, "{w:?} on {p:?} ran twice");
                // Time, every WorkStat and the counts: the whole report. The
                // values are the oracle's in the table (it asserts them) and
                // in the direct run (which asserts them too).
                let direct = format!("{:?}", direct_none_run(w, p, &scale));
                assert_eq!(none, direct, "{w:?} on {p:?}");
                assert_eq!(paper, direct, "{w:?} on {p:?}");
            }
            let before = runs.executed();
            let none = format!("{:?}", runs.run(w, PlatformKind::Teleport, Push::Nothing));
            let paper = format!("{:?}", runs.run(w, PlatformKind::Teleport, Push::Paper));
            assert_eq!(
                runs.executed() - before,
                2,
                "{w:?}: Teleport under two plans is two runs"
            );
            assert_ne!(none, paper, "{w:?}: Teleport pushes nothing under paper()");
        }
    }

    /// A Local rack ignores the cache ratio, so the table runs Local TPC-H
    /// once for both ratios, and that run equals one built at Fig 1b's.
    #[test]
    fn local_tpch_is_one_run_at_every_ratio() {
        let scale = Scale::quick();
        let mut runs = RunTable::new(scale);
        let tenth = format!(
            "{:?}",
            runs.run(
                Workload::Tpch(Ratio::Tenth),
                PlatformKind::Local,
                Push::Nothing
            )
        );
        let headline = format!(
            "{:?}",
            runs.run(
                Workload::Tpch(Ratio::Headline),
                PlatformKind::Local,
                Push::Paper
            )
        );
        assert_eq!(runs.executed(), 1, "Local TPC-H ran once per ratio");
        assert_eq!(tenth, headline);
        let data = TpchData::generate(scale.sf, scale.seed);
        let mut rt = runtime_for(PlatformKind::Local, data.working_set_bytes(), 0.10);
        let none = [(); 3].map(|_| PushdownPlan::none());
        let direct = format!("{:?}", Report::Tpch(run_queries(&mut rt, &data, &none)));
        assert_eq!(tenth, direct);
    }

    #[test]
    fn figures_1a_to_14_execute_21_runs() {
        let mut runs = RunTable::new(Scale::quick());
        let mut out = crate::Out::new();
        intro::fig1a(&mut runs, &mut out);
        intro::fig1b(&mut runs, &mut out);
        intro::fig3(&mut runs, &mut out);
        apps::fig10(&mut runs, &mut out);
        apps::fig13(&mut runs, &mut out);
        sensitivity::fig14(&mut runs, &mut out);
        assert_eq!(runs.executed(), 21);
    }
}
