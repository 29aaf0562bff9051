//! Criterion microbenchmarks of the columnar operators running through the
//! metered access layer.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ddc_sim::DdcConfig;
use memdb::exec::{aggregate, hashjoin, select};
use teleport::{Mem, Runtime};

const N: usize = 100_000;

fn runtime_with_column() -> (Runtime, teleport::Region<i64>, teleport::Region<f64>) {
    let mut rt = Runtime::teleport(DdcConfig {
        compute_cache_bytes: 4 << 20,
        memory_pool_bytes: 256 << 20,
        ..Default::default()
    });
    let keys = rt.alloc_region::<i64>(N);
    let kvals: Vec<i64> = (1..=N as i64).collect();
    rt.write_range(&keys, 0, &kvals);
    let vals = rt.alloc_region::<f64>(N);
    let fvals: Vec<f64> = (0..N).map(|i| i as f64).collect();
    rt.write_range(&vals, 0, &fvals);
    rt.begin_timing();
    (rt, keys, vals)
}

fn bench_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("operators/selection");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("full_scan_100k", |b| {
        let (mut rt, keys, _vals) = runtime_with_column();
        b.iter(|| {
            black_box(select::select_where(&mut rt, &keys, N, None, |v| {
                v % 10 == 0
            }))
        });
    });
    g.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let mut g = c.benchmark_group("operators/aggregation");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("sum_100k", |b| {
        let (mut rt, _keys, vals) = runtime_with_column();
        b.iter(|| black_box(aggregate::sum_f64(&mut rt, &vals, N, None)));
    });
    g.finish();
}

fn bench_hash_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("operators/hashjoin");
    g.bench_function("build_10k", |b| {
        let (mut rt, ..) = runtime_with_column();
        let keys: Vec<i64> = (1..=10_000).collect();
        let rows: Vec<u32> = (0..10_000).collect();
        b.iter(|| {
            black_box(hashjoin::HashIndex::build(
                &mut rt,
                black_box(&keys),
                black_box(&rows),
            ))
        });
    });
    g.bench_function("probe_hit", |b| {
        let (mut rt, ..) = runtime_with_column();
        let keys: Vec<i64> = (1..=10_000).collect();
        let rows: Vec<u32> = (0..10_000).collect();
        let idx = hashjoin::HashIndex::build(&mut rt, &keys, &rows);
        let mut k = 1i64;
        b.iter(|| {
            k = k % 10_000 + 1;
            black_box(idx.probe(&mut rt, black_box(k)))
        });
    });
    // The same probes through an arm, as a pushed-down or local operator
    // runs them: every one charges `HASH_PROBE` cycles to the arm.
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("probe_hit_10k_in_arm", |b| {
        let (mut rt, ..) = runtime_with_column();
        let keys: Vec<i64> = (1..=10_000).collect();
        let rows: Vec<u32> = (0..10_000).collect();
        let idx = hashjoin::HashIndex::build(&mut rt, &keys, &rows);
        b.iter(|| {
            rt.run_local(|arm| {
                for k in 1..=10_000 {
                    black_box(idx.probe(arm, black_box(k)));
                }
            })
        });
    });
    // Q9's semi-join shape (lineitem ⋉ green parts) scaled down: 2 048
    // keys in the index, one slice of 16 384 probes of which about 5 % hit,
    // through the arm a compute-side operator runs in. The index stays
    // resident, so each call is one batch of hits.
    g.throughput(Throughput::Elements(SEMI_PROBES as u64));
    g.bench_function("probe_all_semijoin", |b| {
        let (mut rt, ..) = runtime_with_column();
        let keys: Vec<i64> = (1..=2_048).map(|k| k * 20).collect();
        let rows: Vec<u32> = (0..2_048).collect();
        let idx = hashjoin::HashIndex::build(&mut rt, &keys, &rows);
        let probes: Vec<i64> = (0..SEMI_PROBES as i64)
            .map(|i| (i * 0x9E37_79B9 % 40_960) + 1)
            .collect();
        b.iter(|| rt.run_local(|arm| black_box(idx.probe_all(arm, black_box(&probes)))));
    });
    g.finish();
}

/// Probes a `probe_all_semijoin` call makes: the slice Q9's semi-join
/// probes at a time.
const SEMI_PROBES: usize = 16_384;

criterion_group!(benches, bench_selection, bench_aggregation, bench_hash_join);
criterion_main!(benches);
