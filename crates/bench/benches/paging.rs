//! Criterion microbenchmarks of the disaggregated OS's paging fast paths.
//!
//! `BENCH_paging.json` at the repo root is this file's report:
//! `TELEPORT_BENCH_JSON=BENCH_paging.json cargo bench --bench paging`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ddc_os::{AddressSpace, Dos, MemoryPool, PageChecksum, PageId, Pattern};
use ddc_sim::{DdcConfig, SimDuration, PAGE_SIZE};
use teleport::{CoherenceMode, Mem, PushdownSession, Region, Runtime};

fn warm_dos(cache_pages: usize, data_pages: usize) -> (Dos, ddc_os::VAddr) {
    warm_dos_among(cache_pages, data_pages, 1)
}

/// [`warm_dos`] with its data in the last of `segments` live allocations
/// (the others one page each, never touched): a database has a segment per
/// column and per intermediate, and the address-space lookup runs on every
/// access, so a one-segment space cannot show what it costs.
fn warm_dos_among(cache_pages: usize, data_pages: usize, segments: usize) -> (Dos, ddc_os::VAddr) {
    let mut dos = Dos::new_disaggregated(DdcConfig {
        compute_cache_bytes: cache_pages * PAGE_SIZE,
        memory_pool_bytes: (data_pages + segments) * PAGE_SIZE * 2 + (16 << 20),
        ..Default::default()
    });
    for _ in 1..segments {
        dos.alloc(PAGE_SIZE);
    }
    let a = dos.alloc(data_pages * PAGE_SIZE);
    for p in 0..data_pages {
        dos.write_bytes(
            a.offset((p * PAGE_SIZE) as u64),
            &7u64.to_le_bytes(),
            Pattern::Seq,
        );
    }
    dos.begin_timing();
    (dos, a)
}

fn bench_cache_hit(c: &mut Criterion) {
    let mut g = c.benchmark_group("paging/hit");
    g.throughput(Throughput::Elements(1));
    for (name, segments) in [
        ("read_u64_hot_page", 1),
        ("read_u64_hot_page_64seg", 64),
        ("read_u64_hot_page_256seg", 256),
    ] {
        g.bench_function(name, |b| {
            let (mut dos, a) = warm_dos_among(64, 16, segments); // everything fits
            let _ = dos.read_u64(a, Pattern::Rand);
            b.iter(|| black_box(dos.read_u64(black_box(a), Pattern::Rand)));
        });
    }
    g.finish();
}

/// A runtime with `columns` warm `i64` regions of `rows` elements each, all
/// of them resident in the compute cache.
fn warm_columns(columns: usize, rows: usize) -> (Runtime, Vec<Region<i64>>) {
    let bytes = columns * (rows * 8).next_multiple_of(PAGE_SIZE);
    let mut rt = Runtime::teleport(DdcConfig {
        compute_cache_bytes: bytes + (1 << 20),
        memory_pool_bytes: 2 * bytes + (16 << 20),
        ..Default::default()
    });
    let regions: Vec<Region<i64>> = (0..columns).map(|_| rt.alloc_region(rows)).collect();
    let vals: Vec<i64> = (0..rows as i64).collect();
    for r in &regions {
        rt.write_range(r, 0, &vals);
    }
    rt.begin_timing();
    (rt, regions)
}

/// The typed accessors as an application calls them: through
/// `teleport::Mem`, from another crate (this one), so the app → `Mem` →
/// `Dos` → `AddressSpace` call chain is what is timed — `paging/hit` above
/// starts at `Dos`, inside `ddc-os`.
fn bench_typed_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("access");
    g.throughput(Throughput::Elements(1));
    // 64 columns of 16 pages; the walk lands on a different column each
    // step and every page is a cache hit.
    const ROWS: usize = 16 * PAGE_SIZE / 8;
    let mut step = 0usize;
    let mut next = move || {
        step = step
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((step >> 33) % 64, (step >> 40) % ROWS)
    };
    g.bench_function("get_i64_rand_64seg", |b| {
        let (mut rt, cols) = warm_columns(64, ROWS);
        b.iter(|| {
            let (c, i) = next();
            black_box(rt.get(&cols[c], i, Pattern::Rand))
        });
    });
    g.bench_function("set_i64_rand_64seg", |b| {
        let (mut rt, cols) = warm_columns(64, ROWS);
        b.iter(|| {
            let (c, i) = next();
            rt.set(&cols[c], i, black_box(i as i64), Pattern::Rand)
        });
    });
    // 65 536 rows of a warm 1M-row column, 32 to a page, gathered the way a
    // candidate-list operator does: in ascending order (a run of 32 rows a
    // page) and shuffled (a page run of about one row). Each beside the loop
    // of `get` that `Mem::gather` charges exactly like.
    const COLUMN_ROWS: usize = 1 << 20;
    let sorted: Vec<u32> = (0..65_536u32)
        .map(|i| i * 16 + (i.wrapping_mul(2_654_435_761) >> 28))
        .collect();
    let mut shuffled = sorted.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, walk(i, 1 << 16) % (i + 1));
    }
    g.throughput(Throughput::Elements(sorted.len() as u64));
    for (name, rows) in [("sorted", &sorted), ("shuffled", &shuffled)] {
        let (mut rt, cols) = warm_columns(1, COLUMN_ROWS);
        let mut out: Vec<i64> = Vec::with_capacity(rows.len());
        g.bench_function(format!("gather_{name}_65k"), |b| {
            b.iter(|| {
                out.clear();
                rt.gather(&cols[0], rows, Pattern::Rand, &mut out);
                black_box(out.len())
            });
        });
        g.bench_function(format!("gather_{name}_65k_get_loop"), |b| {
            b.iter(|| {
                out.clear();
                out.extend(
                    rows.iter()
                        .map(|&r| rt.get(&cols[0], r as usize, Pattern::Rand)),
                );
                black_box(out.len())
            });
        });
    }
    // One column streamed out and into another, 8 MB each way: what a
    // materialising operator does.
    let rows = 1usize << 20;
    g.throughput(Throughput::Bytes(2 * 8 * rows as u64));
    g.bench_function("copy_column_1M", |b| {
        let (mut rt, cols) = warm_columns(2, rows);
        let mut buf: Vec<i64> = Vec::with_capacity(rows);
        b.iter(|| {
            buf.clear();
            rt.read_range(&cols[0], 0, rows, &mut buf);
            rt.write_range(&cols[1], 0, &buf);
            black_box(buf.len())
        });
    });
    g.finish();
}

fn bench_fault_path(c: &mut Criterion) {
    // Thrashing access pattern: every read misses and evicts.
    let mut g = c.benchmark_group("paging/miss");
    g.throughput(Throughput::Elements(1));
    g.bench_function("read_u64_thrash", |b| {
        let (mut dos, a) = warm_dos(2, 64);
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) % 64;
            black_box(dos.read_u64(a.offset(p * PAGE_SIZE as u64), Pattern::Rand))
        });
    });
    // The same thrash over a 256 MB address space: the per-page tables no
    // longer fit in cache, so their footprint shows. The stride is coprime
    // with the page count and longer than the cache, so every read misses.
    g.bench_function("read_u64_64_of_65536", |b| {
        let pages = 65_536u64;
        let (mut dos, a) = warm_dos(64, pages as usize);
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 4099) % pages;
            black_box(dos.read_u64(a.offset(p * PAGE_SIZE as u64), Pattern::Rand))
        });
    });
    g.finish();
}

fn bench_memside(c: &mut Criterion) {
    // Pool-side touches of a fully resident pool: what pushed-down code
    // pays per access (no fabric, no storage).
    let mut g = c.benchmark_group("paging/memside");
    g.throughput(Throughput::Elements(1));
    g.bench_function("touch_u64_resident", |b| {
        let pages = 4096u64;
        let (mut dos, a) = warm_dos(64, pages as usize);
        dos.drop_cache();
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 61) % pages;
            dos.mem_touch_range(
                black_box(a.offset(p * PAGE_SIZE as u64)),
                8,
                false,
                Pattern::Rand,
            )
        });
    });
    g.finish();
}

fn bench_sequential_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("paging/seq_scan");
    let pages = 256usize;
    g.throughput(Throughput::Bytes((pages * PAGE_SIZE) as u64));
    g.bench_function("1MB_warm", |b| {
        let (mut dos, a) = warm_dos(512, pages);
        let _ = dos.read_bytes(a, pages * PAGE_SIZE, Pattern::Seq);
        b.iter(|| {
            black_box(
                dos.read_bytes(black_box(a), pages * PAGE_SIZE, Pattern::Seq)
                    .len(),
            )
        });
    });
    g.finish();
}

fn bench_resident_list(c: &mut Criterion) {
    let mut g = c.benchmark_group("paging/resident_list");
    for pages in [256usize, 4096] {
        g.throughput(Throughput::Elements(pages as u64));
        g.bench_function(format!("{pages}_cached_pages"), |b| {
            let (dos, _a) = warm_dos(pages, pages);
            b.iter(|| black_box(dos.resident_list().len()));
        });
    }
    g.finish();
}

/// The `i`-th page of a fixed walk over `span` pages (a power of two): it
/// visits every page once before it repeats, never two in address order for
/// long, so a cache filled along it is scattered and its slab unsorted, and
/// a cache of `span / 2` pages misses on every further step of it.
fn walk(i: usize, span: usize) -> usize {
    i * 193 % span
}

/// What the pushdown path asks of the cache, over residency as compute-side
/// misses leave it (the `*_cached_pages` rows above fill in address order,
/// which a collect-and-sort of the slab gets for nothing).
fn bench_resident_list_shuffled(c: &mut Criterion) {
    let mut g = c.benchmark_group("paging/resident_list");
    for pages in [512usize, 4096] {
        let span = 2 * pages;
        let shuffled = || {
            let (mut dos, a) = warm_dos(pages, span);
            for i in 0..pages {
                dos.read_u64(a.offset((walk(i, span) * PAGE_SIZE) as u64), Pattern::Rand);
            }
            assert_eq!(dos.cache_len(), pages);
            (dos, a)
        };
        g.throughput(Throughput::Elements(pages as u64));
        g.bench_function(format!("{pages}_shuffled_unchanged"), |b| {
            let (dos, _a) = shuffled();
            b.iter(|| black_box(dos.resident_list().len()));
        });
        g.bench_function(format!("{pages}_shuffled_one_miss_between_calls"), |b| {
            let (mut dos, a) = shuffled();
            let mut i = pages;
            b.iter(|| {
                dos.read_u64(a.offset((walk(i, span) * PAGE_SIZE) as u64), Pattern::Rand);
                i += 1;
                black_box(dos.resident_list().len())
            });
        });
    }
    g.finish();
}

/// The page seal: what an injected corruption pays twice — when it lands
/// (the page's sum is taken just before the edit) and when a fabric
/// delivery, SSD read, pool access or scrub pass verifies the page. `warm`
/// seals one page that stays in L1; `cold_page_of_16MB` walks a 16 MB image
/// with a stride, as scattered corruption meets its pages.
fn bench_seal_page(c: &mut Criterion) {
    let mut g = c.benchmark_group("integrity/seal_page_4k");
    g.throughput(Throughput::Bytes(PAGE_SIZE as u64));
    let pages = 4096usize;
    let image: Vec<u8> = (0..pages * PAGE_SIZE)
        .map(|i| ((i * 31) >> 3) as u8)
        .collect();
    g.bench_function("warm", |b| {
        let page = &image[..PAGE_SIZE];
        b.iter(|| black_box(PageChecksum::of(black_box(page))));
    });
    g.bench_function("cold_page_of_16MB", |b| {
        let mut p = 0usize;
        b.iter(|| {
            p = (p + 61) % pages;
            black_box(PageChecksum::of(black_box(
                &image[p * PAGE_SIZE..][..PAGE_SIZE],
            )))
        });
    });
    g.finish();
}

/// The two paths that change a page the pool holds, with the integrity
/// plane on and no corruption drawn: `dirty_writeback` writes a page of a
/// two-page cache, so every write faults its page in and evicts the dirty
/// one written before; `memside_put_then_get` writes a resident pool page
/// from inside the pool and reads it back. Sealing eagerly, each paid one
/// page seal an iteration (at the write-back; before the read); sealing on
/// demand, neither pays any until corruption lands.
fn bench_armed_rack(c: &mut Criterion) {
    let mut g = c.benchmark_group("integrity/armed_rack");
    g.throughput(Throughput::Elements(1));
    g.bench_function("dirty_writeback", |b| {
        let pages = 64u64;
        let (mut dos, a) = warm_dos(2, pages as usize);
        dos.enable_integrity();
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) % pages;
            dos.write_u64(black_box(a.offset(p * PAGE_SIZE as u64)), p, Pattern::Rand)
        });
    });
    g.bench_function("memside_put_then_get", |b| {
        let pages = 4096u64;
        let (mut dos, a) = warm_dos(64, pages as usize);
        dos.drop_cache();
        dos.enable_integrity();
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 61) % pages;
            let at = black_box(a.offset(p * PAGE_SIZE as u64));
            dos.mem_touch_range(at, 8, true, Pattern::Rand);
            dos.space_mut().write_u64(at, p);
            dos.mem_touch_range(at, 8, false, Pattern::Rand);
            black_box(dos.space().read_u64(at))
        });
    });
    g.finish();
}

/// Build an address space of 16 equal segments, write the first byte of
/// every page, drop it: what every rack costs the host before the simulation
/// does anything with it. `first` runs with nothing spare (an empty space is
/// dropped before each, outside the timing, which leaves the thread's spare
/// set empty), so every page is a fresh one from the OS and takes a fault at
/// its first touch (the unmapping is the next set-up's, not the timing's);
/// `replay` follows an identical space and takes its backing over
/// (`AddressSpace`, "Backing lifetime").
fn bench_space_lifecycle(c: &mut Criterion) {
    fn build_touch_drop(segment_bytes: usize) {
        let mut space = AddressSpace::new();
        for _ in 0..16 {
            let a = space.alloc(segment_bytes);
            for at in (0..segment_bytes).step_by(PAGE_SIZE) {
                space.bytes_mut(a.offset(at as u64), 1)[0] = 1;
            }
        }
        black_box(space.allocated_pages());
    }
    let mut g = c.benchmark_group("space/build_touch_drop");
    for mb in [8usize, 64, 256] {
        let segment_bytes = (mb << 20) / 16;
        g.throughput(Throughput::Bytes((mb << 20) as u64));
        g.bench_function(format!("{mb}MB_first"), |b| {
            b.iter_with_setup(
                || drop(AddressSpace::new()),
                |()| build_touch_drop(segment_bytes),
            );
        });
        g.bench_function(format!("{mb}MB_replay"), |b| {
            build_touch_drop(segment_bytes);
            b.iter(|| build_touch_drop(segment_bytes));
        });
    }
    g.finish();
}

/// Load one 8 MB column into a fresh rack and drop the rack: what every
/// platform run of a database pays for each column before its first query.
/// `first` has nothing spare, so the backing is fresh from the OS; `replay`
/// follows an identical rack and takes its buffer, which the column then
/// overwrites without zeroing it first.
fn bench_load_column(c: &mut Criterion) {
    let vals: Vec<i64> = (0..1i64 << 20).collect();
    let load = |vals: &[i64]| {
        let mut rt = Runtime::teleport(DdcConfig {
            memory_pool_bytes: 64 << 20,
            ..Default::default()
        });
        black_box(rt.alloc_region_from(vals).len())
    };
    let mut g = c.benchmark_group("space");
    g.throughput(Throughput::Bytes(8 << 20));
    g.bench_function("load_column_first", |b| {
        b.iter_with_setup(|| drop(AddressSpace::new()), |()| load(&vals));
    });
    g.bench_function("load_column_replay", |b| {
        load(&vals);
        b.iter(|| load(&vals));
    });
    g.finish();
}

/// The memory pool's recency bookkeeping over 65 536 pages, touched along a
/// scattered walk: `ensure_resident_shuffled_64k` with room for every page,
/// so no touch spills (what every rackbench rack does: its pool never
/// fills), and `spill_churn` with room for a tenth of them: the walk repeats,
/// LRU's worst case, so every touch reads its page from storage and spills
/// the least recently used one.
fn bench_pool_recency(c: &mut Criterion) {
    const PAGES: usize = 1 << 16;
    let order: Vec<PageId> = (0..PAGES)
        .map(|i| PageId(1 + walk(i, PAGES) as u64))
        .collect();
    let mut g = c.benchmark_group("pool");
    g.throughput(Throughput::Elements(PAGES as u64));
    for (name, capacity) in [
        ("ensure_resident_shuffled_64k", PAGES),
        ("spill_churn", PAGES / 10),
    ] {
        g.bench_function(name, |b| {
            let mut pool = MemoryPool::new(capacity);
            for p in 1..=PAGES as u64 {
                pool.register(PageId(p));
            }
            b.iter(|| {
                for &page in &order {
                    black_box(pool.ensure_resident(page));
                }
            });
        });
    }
    g.finish();
}

/// One pushdown session writing 4 096 pages of a 64 MB region in scattered
/// order, from set-up to drop: each write acquires its page (a lookup that
/// misses, then an insert into the session's touched pages) and touches it
/// in the pool.
fn bench_session_writes(c: &mut Criterion) {
    const WRITES: usize = 4096;
    let span = 4 * WRITES;
    let (mut dos, a) = warm_dos(64, span);
    dos.drop_cache();
    let addrs: Vec<_> = (0..WRITES)
        .map(|i| a.offset((walk(i, span) * PAGE_SIZE) as u64))
        .collect();
    let mut g = c.benchmark_group("coherence");
    g.throughput(Throughput::Elements(WRITES as u64));
    g.bench_function("mem_write_random_4k_pages", |b| {
        b.iter(|| {
            let mut s = PushdownSession::new(
                CoherenceMode::WriteInvalidate,
                &[],
                SimDuration::from_micros(10),
            );
            for &at in &addrs {
                s.mem_access(&mut dos, at, 8, true, Pattern::Rand);
            }
            black_box(s.stats.pages_written_memside)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cache_hit,
    bench_typed_access,
    bench_fault_path,
    bench_memside,
    bench_sequential_scan,
    bench_resident_list,
    bench_resident_list_shuffled,
    bench_seal_page,
    bench_armed_rack,
    bench_space_lifecycle,
    bench_load_column,
    bench_pool_recency,
    bench_session_writes
);
criterion_main!(benches);
