//! MapReduce on a disaggregated data center: WordCount and Grep over a
//! synthetic comment corpus, showing map-shuffle's dominance in a DDC and
//! the 28-line fix — pushing it down (paper §5.3).
//!
//! Run with: `cargo run --release --example wordcount`

use ddc_sim::{DdcConfig, MonolithicConfig};
use mapred::{grep_oracle, run, wordcount_oracle, Corpus, Grep, LoadedCorpus, MrPlan, WordCount};
use teleport::{PlatformKind, Runtime};

fn main() {
    let comments = 20_000;
    println!("generating {comments} synthetic comments (Zipf vocabulary)...");
    let corpus = Corpus::generate(comments, 50_000, 2015);
    println!(
        "  {} words, {} KB encoded\n",
        corpus.len(),
        corpus.bytes() >> 10
    );

    let ws = corpus.bytes() * 3;
    let ddc = DdcConfig::with_cache_ratio(ws, 0.02);
    let expected_wc = wordcount_oracle(&corpus);
    let pattern = 3u32; // a common word: the shuffle carries its matching lines
    let expected_grep = grep_oracle(&corpus, pattern);

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
        let input = LoadedCorpus::load(&mut rt, &corpus);
        if kind != PlatformKind::Local {
            rt.drop_cache();
        }
        rt.begin_timing();

        // Push map-shuffle only; off TELEPORT it runs compute-side.
        let plan = MrPlan::paper();

        let (wc, rep) = run(&mut rt, &input, &WordCount, 8, 4, &plan);
        assert_eq!(wc, expected_wc, "{kind:?} WordCount must match oracle");
        let t_wc = rep.total();

        let (grep, grep_rep) = run(&mut rt, &input, &Grep { pattern }, 8, 4, &plan);
        let hits: u64 = grep.iter().map(|&(_, v)| v).sum();
        assert_eq!(hits, expected_grep, "{kind:?} Grep must match oracle");
        let t_grep = grep_rep.total();

        println!("=== {} ===", kind.label());
        println!(
            "  WordCount {:>12}   map-compute {} | map-shuffle {} | reduce {} | merge {}",
            t_wc.to_string(),
            rep.map_compute.time,
            rep.map_shuffle.time,
            rep.reduce.time,
            rep.merge.time,
        );
        let shuffle_share =
            rep.map_shuffle.time.as_secs_f64() / rep.map_time().as_secs_f64() * 100.0;
        println!(
            "            map-shuffle is {shuffle_share:.0}% of map time, {:.1} MB remote",
            rep.map_shuffle.remote_bytes as f64 / 1e6
        );
        println!("  Grep      {:>12}\n", t_grep.to_string());
        totals.push((kind, t_wc, t_grep));
    }

    let (_, lwc, lgrep) = totals[0];
    println!("--- cost of scaling (normalized to local) ---");
    for (kind, t_wc, t_grep) in &totals {
        println!(
            "{:<22} WC {:>5.1}x   Grep {:>5.1}x",
            kind.label(),
            t_wc.ratio(lwc),
            t_grep.ratio(lgrep)
        );
    }
    println!(
        "\nTELEPORT speedup over base DDC: WC {:.1}x, Grep {:.1}x (paper: 2.5x / 4.7x)",
        totals[1].1.ratio(totals[2].1),
        totals[1].2.ratio(totals[2].2),
    );
}
