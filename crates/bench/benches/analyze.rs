//! Criterion benchmarks of the static-analysis pass itself: how many
//! source files and rule evaluations per wall-clock second the
//! six-rule `ddc-analyze` engine sustains over the real workspace.
//! The single-pass `Scan` reads every file from disk exactly once, so
//! `files` meters the full scan-plus-all-rules pipeline and `rules`
//! the same run denominated in (file × rule) evaluations. Run with
//! `TELEPORT_BENCH_JSON=BENCH_analyze.json cargo bench --bench analyze`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::path::PathBuf;

use ddc_analyze::{analyze_with_stats, AnalyzeConfig, ScanStats, RULES};

/// The workspace root, resolved from this crate's manifest directory.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("bench crate sits two levels under the workspace root")
        .to_path_buf()
}

/// One full analysis pass over the clean workspace; the finding count
/// is asserted zero so the bench doubles as a smoke check.
fn analyze_once(cfg: &AnalyzeConfig) -> ScanStats {
    let (findings, stats) = analyze_with_stats(cfg).expect("workspace analysis runs");
    assert!(
        findings.is_empty(),
        "bench must run against a clean workspace"
    );
    stats
}

fn bench_analyze_files(c: &mut Criterion) {
    let cfg = AnalyzeConfig::workspace(workspace_root());
    let stats = analyze_once(&cfg);
    assert!(stats.files > 0 && stats.lines > 0);
    let mut g = c.benchmark_group("analyze");
    g.sample_size(10)
        .throughput(Throughput::Elements(stats.files as u64));
    g.bench_function("files", |b| {
        b.iter(|| black_box(analyze_once(&cfg).files));
    });
    g.finish();
}

fn bench_analyze_rules(c: &mut Criterion) {
    let cfg = AnalyzeConfig::workspace(workspace_root());
    let stats = analyze_once(&cfg);
    let evals = (stats.files * RULES.len()) as u64;
    let mut g = c.benchmark_group("analyze");
    g.sample_size(10).throughput(Throughput::Elements(evals));
    g.bench_function("rules", |b| {
        b.iter(|| black_box(analyze_once(&cfg).files));
    });
    g.finish();
}

criterion_group!(benches, bench_analyze_files, bench_analyze_rules);
criterion_main!(benches);
