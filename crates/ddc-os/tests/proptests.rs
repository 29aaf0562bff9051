//! Property tests for the disaggregated OS: data integrity under arbitrary
//! access traces, residency invariants, and platform transparency.

use ddc_os::lru::LruList;
use ddc_os::{Dos, PageCache, PageId, Pattern, ResidentView};
use ddc_sim::{DdcConfig, MonolithicConfig, PAGE_SIZE};
use proptest::prelude::*;

/// One step of a random access trace over a fixed allocation.
#[derive(Debug, Clone)]
enum Op {
    Read { off: usize, len: usize },
    Write { off: usize, val: u8, len: usize },
}

fn op_strategy(alloc_bytes: usize) -> impl Strategy<Value = Op> {
    let reads = (0..alloc_bytes - 64, 1usize..64).prop_map(|(off, len)| Op::Read { off, len });
    let writes = (0..alloc_bytes - 64, any::<u8>(), 1usize..64)
        .prop_map(|(off, val, len)| Op::Write { off, val, len });
    prop_oneof![reads, writes]
}

const ALLOC: usize = 16 * PAGE_SIZE;

/// Page ids in two bands, one low and one around 100 000, so the page
/// tables grow mid-trace and freed slab slots are reused across bands. The
/// high band straddles a word of the resident view's table (32 pages a
/// word), so runs cross one.
fn page_id() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..24, 99_994u64..100_006]
}

/// The address-ordered `(page, writable)` list of a cache model kept as
/// `(page, writable, dirty)` rows.
fn model_list(model: &[(u64, bool, bool)]) -> Vec<(PageId, bool)> {
    let mut list: Vec<(PageId, bool)> = model.iter().map(|e| (PageId(e.0), e.1)).collect();
    list.sort_unstable();
    list
}

/// Runs of consecutive pages with one permission, counted the long way.
fn count_runs(list: &[(PageId, bool)]) -> usize {
    let mut runs = 0;
    let mut prev: Option<(PageId, bool)> = None;
    for &(page, writable) in list {
        if !prev.is_some_and(|(p, w)| p.0 + 1 == page.0 && w == writable) {
            runs += 1;
        }
        prev = Some((page, writable));
    }
    runs
}

fn run_trace(dos: &mut Dos, ops: &[Op]) -> Vec<u8> {
    let a = dos.alloc(ALLOC);
    let mut shadow = vec![0u8; ALLOC];
    for op in ops {
        match *op {
            Op::Read { off, len } => {
                let got = dos
                    .read_bytes(a.offset(off as u64), len, Pattern::Rand)
                    .to_vec();
                assert_eq!(got, shadow[off..off + len], "read mismatch at {off}");
            }
            Op::Write { off, val, len } => {
                let data = vec![val; len];
                dos.write_bytes(a.offset(off as u64), &data, Pattern::Rand);
                shadow[off..off + len].copy_from_slice(&data);
            }
        }
    }
    // Final full readback.
    dos.read_bytes(a, ALLOC, Pattern::Seq).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary traces on a thrashing DDC return exactly the bytes a
    /// shadow buffer predicts, and leave the bookkeeping consistent.
    #[test]
    fn ddc_data_integrity_under_thrash(ops in prop::collection::vec(op_strategy(ALLOC), 1..80)) {
        let mut dos = Dos::new_disaggregated(DdcConfig {
            compute_cache_bytes: 2 * PAGE_SIZE, // brutal thrashing
            memory_pool_bytes: 8 * PAGE_SIZE,   // forces storage spill too
            ..Default::default()
        });
        let final_state = run_trace(&mut dos, &ops);
        let stats = dos.stats();
        prop_assert!(dos.cache_len() <= 2, "cache over capacity");
        prop_assert!(stats.cache_hits + stats.cache_misses > 0);
        // Every miss moved a page in.
        prop_assert!(stats.remote_page_in >= stats.cache_misses);
        prop_assert_eq!(final_state.len(), ALLOC);
    }

    /// Identical traces on the monolithic and disaggregated platforms
    /// produce identical data (only cost differs), and the DDC is never
    /// cheaper than the monolith on the same trace.
    #[test]
    fn platforms_agree_on_data(ops in prop::collection::vec(op_strategy(ALLOC), 1..60)) {
        let mut mono = Dos::new_monolithic(MonolithicConfig {
            dram_bytes: ALLOC * 2,
            ..Default::default()
        });
        let mut ddc = Dos::new_disaggregated(DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: ALLOC * 2,
            ..Default::default()
        });
        let a = run_trace(&mut mono, &ops);
        let b = run_trace(&mut ddc, &ops);
        prop_assert_eq!(a, b);
        prop_assert!(ddc.clock().now() >= mono.clock().now());
    }

    /// The page cache never exceeds capacity, eviction victims are exactly
    /// the least-recently-used pages, and evict / downgrade / mark_clean /
    /// clear leave the same entries behind as a vector ordered MRU-first.
    /// Its page-indexed view, asked for at random points, walks in page
    /// order as the model sorted, with the run count a plain walk gives and
    /// the cache's length; a view taken earlier (or a cloned cache) is
    /// unmoved by what the cache did afterwards.
    #[test]
    fn page_cache_matches_reference_model(
        ops in prop::collection::vec((0u8..12, page_id(), any::<bool>(), any::<u8>()), 1..700),
        capacity in 1usize..12,
        view_gap in 1u8..6,
    ) {
        let mut cache = PageCache::new(capacity);
        // Reference: (page, writable, dirty), MRU first.
        let mut model: Vec<(u64, bool, bool)> = Vec::new();
        // Views kept while the cache moves on, with what each showed.
        let mut kept: Vec<(ResidentView, Vec<(PageId, bool)>)> = Vec::new();
        let listed = |view: &ResidentView| view.iter().collect::<Vec<_>>();
        let mut twin: Option<(PageCache, Vec<(PageId, bool)>)> = None;
        for (i, &(kind, page, write, roll)) in ops.iter().enumerate() {
            // The view is asked for every few ops in the first and the last
            // stretch of a long script and never in between: short scripts
            // stay under the cache's journal bound (patch), longer ones run
            // a few hundred notes past it (rebuild), the longest come back
            // under it (patch again, over a rebuilt list).
            if !(150..500).contains(&i) && roll % view_gap == 0 {
                let view = cache.resident_view();
                let want = model_list(&model);
                prop_assert_eq!(listed(&view), want.clone(), "view at op {}", i);
                prop_assert_eq!(view.runs, count_runs(&want), "run count at op {}", i);
                prop_assert_eq!(view.len, cache.len(), "length at op {}", i);
                // Keep one view in two: the cache patches an unshared list
                // in place and must copy a shared one first.
                if roll & 0x80 != 0 {
                    if twin.is_none() {
                        twin = Some((cache.clone(), want.clone()));
                    }
                    kept.push((view, want));
                }
            }
            let pid = PageId(page);
            let model_pos = model.iter().position(|&(p, _, _)| p == page);
            let model_entry = model_pos.map(|i| (model[i].1, model[i].2));
            match kind {
                // Accesses dominate, as they do in the kernel.
                0..=7 => {
                    let hit = cache.access(pid, write);
                    prop_assert_eq!(hit, model_pos.is_some(), "hit/miss divergence");
                    match model_pos {
                        Some(i) => {
                            let (p, w, d) = model.remove(i);
                            model.insert(0, (p, w || write, d || write));
                        }
                        None => {
                            let victim = cache.insert(pid, write);
                            if model.len() == capacity {
                                let (vp, _, vd) = model.pop().unwrap();
                                let v = victim.expect("model expected eviction");
                                prop_assert_eq!(v.page, PageId(vp));
                                prop_assert_eq!(v.dirty, vd);
                            } else {
                                prop_assert!(victim.is_none());
                            }
                            model.insert(0, (page, write, write));
                        }
                    }
                }
                8 => {
                    let got = cache.evict(pid).map(|e| (e.writable, e.dirty));
                    prop_assert_eq!(got, model_entry, "evict divergence");
                    if let Some(i) = model_pos {
                        model.remove(i);
                    }
                }
                9 => {
                    let got = cache.downgrade(pid).map(|e| (e.writable, e.dirty));
                    prop_assert_eq!(got, model_entry, "downgrade divergence");
                    if let Some(i) = model_pos {
                        model[i] = (page, false, false);
                    }
                }
                10 => {
                    cache.mark_clean(pid);
                    if let Some(i) = model_pos {
                        model[i].2 = false;
                    }
                }
                _ => {
                    // Rare enough (a few per thousand ops) that traces fill
                    // the cache, and overflow its view journal, between
                    // clears.
                    if write && roll % 16 == 0 {
                        let mut dirty: Vec<PageId> =
                            model.iter().filter(|e| e.2).map(|e| PageId(e.0)).collect();
                        dirty.sort_unstable();
                        prop_assert_eq!(cache.clear(), dirty);
                        model.clear();
                    }
                }
            }
            prop_assert!(cache.len() <= capacity);
            prop_assert_eq!(cache.len(), model.len());
            let probed = cache.probe(pid).map(|e| (e.writable, e.dirty));
            let expected = model.iter().find(|e| e.0 == page).map(|e| (e.1, e.2));
            prop_assert_eq!(probed, expected, "probe divergence");
        }
        // Resident and dirty sets agree, wherever the script stopped.
        let want = model_list(&model);
        let view = cache.resident_view();
        prop_assert_eq!(listed(&view), want.clone());
        prop_assert_eq!((view.runs, view.len), (count_runs(&want), cache.len()));
        let model_pages: Vec<PageId> = want.iter().map(|e| e.0).collect();
        prop_assert_eq!(cache.resident_sorted(), model_pages);
        for (view, showed) in &kept {
            prop_assert_eq!(&listed(view), showed, "a kept view moved");
            prop_assert_eq!((view.runs, view.len), (count_runs(showed), showed.len()));
        }
        if let Some((twin, showed)) = &twin {
            prop_assert_eq!(&listed(&twin.resident_view()), showed, "a cloned cache moved");
        }
        let mut model_dirty: Vec<PageId> =
            model.iter().filter(|e| e.2).map(|e| PageId(e.0)).collect();
        model_dirty.sort_unstable();
        prop_assert_eq!(cache.dirty_pages(), model_dirty);
    }

    /// `LruList` keeps exactly the order a vector kept MRU-first does under
    /// touch / remove / pop_lru.
    #[test]
    fn lru_iter_mru_matches_model(
        ops in prop::collection::vec((0u8..6, page_id()), 1..300),
    ) {
        let mut lru = LruList::new();
        let mut model: Vec<u64> = Vec::new();
        for &(kind, page) in &ops {
            let pos = model.iter().position(|&p| p == page);
            match kind {
                0..=3 => {
                    prop_assert_eq!(lru.touch(PageId(page)), pos.is_none());
                    if let Some(i) = pos {
                        model.remove(i);
                    }
                    model.insert(0, page);
                }
                4 => {
                    prop_assert_eq!(lru.remove(PageId(page)), pos.is_some());
                    if let Some(i) = pos {
                        model.remove(i);
                    }
                }
                _ => {
                    prop_assert_eq!(lru.peek_lru(), model.last().map(|&p| PageId(p)));
                    prop_assert_eq!(lru.pop_lru(), model.pop().map(PageId));
                }
            }
            prop_assert_eq!(lru.len(), model.len());
            prop_assert_eq!(lru.contains(PageId(page)), model.contains(&page));
            let order: Vec<u64> = lru.iter_mru().map(|p| p.0).collect();
            prop_assert_eq!(&order, &model);
        }
    }

    /// Allocations never overlap and are all independently addressable.
    #[test]
    fn allocations_are_disjoint(sizes in prop::collection::vec(1usize..3 * PAGE_SIZE, 1..12)) {
        let mut dos = Dos::new_monolithic(MonolithicConfig::default());
        let allocs: Vec<_> = sizes.iter().map(|&s| (dos.alloc(s), s)).collect();
        // Write a distinct tag at the start and end of each allocation.
        for (i, &(addr, size)) in allocs.iter().enumerate() {
            dos.write_bytes(addr, &[i as u8], Pattern::Rand);
            dos.write_bytes(addr.offset(size as u64 - 1), &[i as u8 ^ 0xFF], Pattern::Rand);
        }
        for (i, &(addr, size)) in allocs.iter().enumerate() {
            prop_assert_eq!(dos.read_bytes(addr, 1, Pattern::Rand)[0], i as u8);
            prop_assert_eq!(
                dos.read_bytes(addr.offset(size as u64 - 1), 1, Pattern::Rand)[0],
                i as u8 ^ 0xFF
            );
        }
    }

    /// syncmem is idempotent and clears all dirtiness.
    #[test]
    fn syncmem_idempotent(writes in prop::collection::vec((0usize..15, any::<u64>()), 1..30)) {
        let mut dos = Dos::new_disaggregated(DdcConfig {
            compute_cache_bytes: 32 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            ..Default::default()
        });
        let a = dos.alloc(16 * PAGE_SIZE);
        for &(page, val) in &writes {
            dos.write_u64(a.offset((page * PAGE_SIZE) as u64), val, Pattern::Rand);
        }
        let flushed = dos.syncmem();
        prop_assert!(flushed > 0);
        prop_assert_eq!(dos.syncmem(), 0);
        // Data survives.
        for &(page, _) in &writes {
            let _ = dos.read_u64(a.offset((page * PAGE_SIZE) as u64), Pattern::Rand);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Prefetching changes only time, never data: arbitrary traces return
    /// identical bytes with prefetch on and off.
    #[test]
    fn prefetch_is_data_transparent(ops in prop::collection::vec(op_strategy(ALLOC), 1..60)) {
        let mk = |prefetch: usize| {
            Dos::new_disaggregated(DdcConfig {
                compute_cache_bytes: 4 * PAGE_SIZE,
                memory_pool_bytes: ALLOC * 2,
                prefetch_pages: prefetch,
                ..Default::default()
            })
        };
        let mut plain = mk(0);
        let mut prefetched = mk(8);
        let a = run_trace(&mut plain, &ops);
        let b = run_trace(&mut prefetched, &ops);
        prop_assert_eq!(a, b);
        prop_assert!(prefetched.cache_len() <= 4);
    }
}
