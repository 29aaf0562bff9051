//! Criterion microbenchmarks of the full `pushdown` syscall path: the
//! real-time cost of simulating steps ❶–❽ of paper Fig 5.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ddc_sim::{DdcConfig, PAGE_SIZE};
use teleport::{Mem, PushdownOpts, Runtime, SyncStrategy};

fn warm_runtime(pages: usize) -> (Runtime, teleport::Region<u64>) {
    let mut rt = Runtime::teleport(DdcConfig {
        compute_cache_bytes: (pages / 4).max(1) * PAGE_SIZE,
        memory_pool_bytes: pages * PAGE_SIZE * 2 + (16 << 20),
        ..Default::default()
    });
    let region = rt.alloc_region::<u64>(pages * PAGE_SIZE / 8);
    let vals: Vec<u64> = (0..region.len() as u64).collect();
    rt.write_range(&region, 0, &vals);
    rt.begin_timing();
    (rt, region)
}

fn bench_noop_pushdown(c: &mut Criterion) {
    c.bench_function("pushdown/noop_call", |b| {
        let (mut rt, _r) = warm_runtime(256);
        b.iter(|| {
            rt.pushdown(PushdownOpts::new(), |_m| black_box(0u64))
                .expect("ok")
        });
    });
}

fn bench_noop_pushdown_shuffled(c: &mut Criterion) {
    // The fixed path over a full 512-page cache whose residency is scattered
    // and whose slab is unsorted, as compute-side misses leave it
    // (`warm_runtime` fills in address order).
    c.bench_function("pushdown/noop_call_512_shuffled", |b| {
        let (pages, span) = (512, 1024);
        let mut rt = Runtime::teleport(DdcConfig {
            compute_cache_bytes: pages * PAGE_SIZE,
            memory_pool_bytes: span * PAGE_SIZE * 2,
            ..Default::default()
        });
        let region = rt.alloc_region::<u64>(span * PAGE_SIZE / 8);
        for i in 0..pages {
            rt.get(
                &region,
                i * 193 % span * PAGE_SIZE / 8,
                ddc_os::Pattern::Rand,
            );
        }
        assert_eq!(rt.dos().resident_view().len, pages);
        rt.begin_timing();
        b.iter(|| {
            rt.pushdown(PushdownOpts::new(), |_m| black_box(0u64))
                .expect("ok")
        });
    });
}

fn bench_miss_then_get_shuffled(c: &mut Criterion) {
    // The `serve` shape: over the same full, scattered 512-page cache, one
    // compute-side miss (which evicts a page, so the view is patched twice)
    // before each one-page memory-side lookup (`kvapp::get`'s body).
    c.bench_function("pushdown/miss_then_get_512_shuffled", |b| {
        let (pages, span) = (512, 1024);
        let mut rt = Runtime::teleport(DdcConfig {
            compute_cache_bytes: pages * PAGE_SIZE,
            memory_pool_bytes: span * PAGE_SIZE * 2,
            ..Default::default()
        });
        let region = rt.alloc_region::<u64>(span * PAGE_SIZE / 8);
        // Page `i * 193 % span` for i = 0, 1, 2, ...: a permutation of the
        // span, so once the cache holds the first 512 every next one is a
        // miss whose victim is the page visited 512 steps earlier.
        let page = |i: usize| i * 193 % span * PAGE_SIZE / 8;
        for i in 0..pages {
            rt.get(&region, page(i), ddc_os::Pattern::Rand);
        }
        rt.begin_timing();
        let mut i = pages;
        b.iter(|| {
            rt.get(&region, page(i), ddc_os::Pattern::Rand);
            let key = page(i * 7 + 3) + 5;
            i += 1;
            rt.pushdown(PushdownOpts::new(), |m| {
                m.charge_cycles(64);
                black_box(m.get(&region, key, ddc_os::Pattern::Seq))
            })
            .expect("ok")
        });
        assert_eq!(
            rt.dos().stats().cache_hits,
            0,
            "every compute-side get missed"
        );
    });
}

fn bench_pushdown_with_scan(c: &mut Criterion) {
    c.bench_function("pushdown/scan_64KB", |b| {
        let (mut rt, region) = warm_runtime(256);
        b.iter(|| {
            rt.pushdown(PushdownOpts::new(), |m| {
                let mut buf = Vec::new();
                m.read_range(&region, 0, 8_192, &mut buf);
                black_box(buf.iter().sum::<u64>())
            })
            .expect("ok")
        });
    });
}

fn bench_eager_vs_ondemand_real_cost(c: &mut Criterion) {
    // The *simulator's* cost of the two sync strategies (virtual-time
    // results are covered by `repro fig20`).
    let mut g = c.benchmark_group("pushdown/sync_strategy");
    for (name, sync) in [
        ("on_demand", SyncStrategy::OnDemand),
        ("eager", SyncStrategy::Eager),
    ] {
        g.bench_function(name, |b| {
            let (mut rt, region) = warm_runtime(512);
            // Warm the cache so both strategies have work to do.
            let _ = rt.get(&region, 0, ddc_os::Pattern::Rand);
            b.iter(|| {
                rt.pushdown(PushdownOpts::new().sync(sync), |m| {
                    black_box(m.get(&region, 100, ddc_os::Pattern::Rand))
                })
                .expect("ok")
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_noop_pushdown,
    bench_noop_pushdown_shuffled,
    bench_miss_then_get_shuffled,
    bench_pushdown_with_scan,
    bench_eager_vs_ondemand_real_cost
);
criterion_main!(benches);
