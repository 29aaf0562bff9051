//! MapReduce engine vs oracle on every platform, split-boundary edge
//! cases, and the paper's performance shape.

use ddc_sim::{DdcConfig, MonolithicConfig};
use mapred::{grep_oracle, run, wordcount_oracle, Corpus, Grep, LoadedCorpus, MrPlan, WordCount};
use teleport::Runtime;

fn corpus() -> Corpus {
    Corpus::generate(2_000, 5_000, 31)
}

fn platforms(c: &Corpus) -> Vec<(&'static str, Runtime)> {
    let ws = c.bytes() * 3; // input + buffers + output
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

fn load(rt: &mut Runtime, c: &Corpus) -> LoadedCorpus {
    let input = LoadedCorpus::load(rt, c);
    if rt.kind() != teleport::PlatformKind::Local {
        rt.drop_cache();
    }
    rt.begin_timing();
    input
}

#[test]
fn wordcount_matches_oracle_on_all_platforms() {
    let c = corpus();
    let expected = wordcount_oracle(&c);
    for (name, mut rt) in platforms(&c) {
        let input = load(&mut rt, &c);
        let (got, rep) = run(&mut rt, &input, &WordCount, 8, 4, &MrPlan::paper());
        assert_eq!(got, expected, "{name}");
        assert!(rep.pairs_shuffled > 0);
    }
}

#[test]
fn grep_matches_oracle() {
    let c = corpus();
    for pattern in [1u32, 50, 4_999] {
        let expected = grep_oracle(&c, pattern);
        let (_, mut rt) = platforms(&c).pop().unwrap();
        let input = load(&mut rt, &c);
        let (got, _) = run(&mut rt, &input, &Grep { pattern }, 8, 4, &MrPlan::paper());
        let total: u64 = got.iter().map(|&(_, v)| v).sum();
        assert_eq!(total, expected, "pattern {pattern}");
        if expected > 0 {
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].0, pattern);
        } else {
            assert!(got.is_empty());
        }
    }
}

#[test]
fn results_are_independent_of_task_counts() {
    // Split boundaries must never lose or duplicate comments.
    let c = Corpus::generate(500, 300, 8);
    let expected = wordcount_oracle(&c);
    let (_, mut rt) = platforms(&c).pop().unwrap();
    let input = load(&mut rt, &c);
    for (maps, reduces) in [(1, 1), (2, 3), (7, 2), (16, 8), (64, 16)] {
        let (got, _) = run(&mut rt, &input, &WordCount, maps, reduces, &MrPlan::paper());
        assert_eq!(got, expected, "maps={maps} reduces={reduces}");
    }
}

#[test]
fn map_shuffle_dominates_map_time_on_base_ddc() {
    // §5.3: in a DDC, map-shuffle is ~95% of map time.
    let c = corpus();
    let ws = c.bytes() * 3;
    let mut rt = Runtime::base_ddc(DdcConfig::with_cache_ratio(ws, 0.02));
    let input = load(&mut rt, &c);
    let (_, rep) = run(&mut rt, &input, &WordCount, 8, 4, &MrPlan::none());
    let shuffle_share = rep.map_shuffle.time.as_secs_f64() / rep.map_time().as_secs_f64();
    assert!(
        shuffle_share > 0.6,
        "shuffle share of map time was {shuffle_share:.2}"
    );
    assert!(rep.map_shuffle.remote_bytes > rep.map_compute.remote_bytes);
}

#[test]
fn teleport_beats_base_ddc_on_wordcount() {
    let c = corpus();
    let ws = c.bytes() * 3;
    let cfg = DdcConfig::with_cache_ratio(ws, 0.02);

    let mut base = Runtime::base_ddc(cfg.clone());
    let input = load(&mut base, &c);
    let (_, rep_base) = run(&mut base, &input, &WordCount, 8, 4, &MrPlan::none());

    let mut tele = Runtime::teleport(cfg);
    let input = load(&mut tele, &c);
    let (_, rep_tele) = run(&mut tele, &input, &WordCount, 8, 4, &MrPlan::paper());

    let speedup = rep_base.total().ratio(rep_tele.total());
    assert!(
        speedup > 1.5,
        "TELEPORT WordCount speedup was only {speedup:.2}x (paper: 2.5x)"
    );
}

#[test]
fn tiny_corpora_and_degenerate_tasks() {
    let c = Corpus::generate(3, 10, 1);
    let expected = wordcount_oracle(&c);
    let (_, mut rt) = platforms(&c).pop().unwrap();
    let input = load(&mut rt, &c);
    let (got, _) = run(&mut rt, &input, &WordCount, 1, 1, &MrPlan::none());
    assert_eq!(got, expected);
}
