//! Recency and permission bookkeeping against the explicit structures they
//! replace:
//!
//! - the memory pool, which keeps recency as a stamp and orders its pages
//!   only when it must spill, against a model holding an explicit LRU `Vec`
//!   (most recent first) over random scripts of `register`,
//!   `ensure_resident`, nested `pin` / `unpin` and `mark_dirty` at capacities
//!   of 1–8 pages: every `PoolFault`, and every page's residency and
//!   dirtiness after every step, must match;
//! - how often a pool orders its victims: never while it has room, once at
//!   its first spill, however many spills and hits follow;
//! - a pushdown session whose memory side touches hundreds of pages, so its
//!   touched-page table doubles several times, against a per-page model of
//!   what the temporary context holds and may take.

use ddc_os::{work_counters, Dos, MemoryPool, PageId, Pattern, PoolFault};
use ddc_sim::{DdcConfig, SimDuration, PAGE_SIZE};
use proptest::prelude::*;
use teleport::{CoherenceMode, Perm, PushdownSession};

/// One page of the model pool.
#[derive(Debug, Clone, Copy)]
struct ModelPage {
    id: u64,
    resident: bool,
    dirty: bool,
    pins: u32,
}

/// The model pool: every page it knows, and the resident unpinned ones
/// most-recently-used first.
#[derive(Debug, Default)]
struct ModelPool {
    pages: Vec<ModelPage>,
    lru: Vec<u64>,
}

impl ModelPool {
    fn page(&mut self, id: u64) -> Option<&mut ModelPage> {
        self.pages.iter_mut().find(|p| p.id == id)
    }

    /// Spill the last page of `lru` if the pool is full; `None` if it is
    /// full of pinned pages (the real pool would panic, so the step is
    /// skipped).
    fn make_room(&mut self, capacity: usize) -> Option<PoolFault> {
        let mut fault = PoolFault::default();
        if self.pages.iter().filter(|p| p.resident).count() == capacity {
            let victim = self.lru.pop()?;
            let v = self.page(victim).expect("an LRU page is known");
            fault.storage_writeback = v.dirty;
            v.resident = false;
            v.dirty = false;
        }
        Some(fault)
    }

    fn make_mru(&mut self, id: u64) {
        self.lru.retain(|&p| p != id);
        self.lru.insert(0, id);
    }
}

/// Page ids in a low band and a far one, so the pool's page table grows
/// mid-script.
fn page_id() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..12, 5_000u64..5_006]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn stamped_pool_spills_what_an_explicit_lru_spills(
        ops in prop::collection::vec((0u8..6, page_id()), 1..400),
        capacity in 1usize..=8,
    ) {
        let mut pool = MemoryPool::new(capacity);
        let mut model = ModelPool::default();
        for (step, &(kind, id)) in ops.iter().enumerate() {
            let pid = PageId(id);
            let known = model.page(id).map(|p| *p);
            match (kind, known) {
                // An unknown page registers whatever the step.
                (_, None) => {
                    let Some(fault) = model.make_room(capacity) else { continue };
                    prop_assert_eq!(pool.register(pid), fault, "register at step {}", step);
                    model.pages.push(ModelPage { id, resident: true, dirty: false, pins: 0 });
                    model.make_mru(id);
                }
                (0 | 1, Some(p)) => {
                    let fault = if p.resident {
                        PoolFault::default()
                    } else {
                        let Some(fault) = model.make_room(capacity) else { continue };
                        model.page(id).unwrap().resident = true;
                        PoolFault { storage_read: true, ..fault }
                    };
                    prop_assert_eq!(pool.ensure_resident(pid), fault, "ensure at step {}", step);
                    if model.page(id).unwrap().pins == 0 {
                        model.make_mru(id);
                    }
                }
                (2, Some(p)) if p.resident => {
                    pool.pin(pid);
                    model.page(id).unwrap().pins += 1;
                    model.lru.retain(|&q| q != id);
                }
                (3, Some(p)) if p.pins > 0 => {
                    pool.unpin(pid);
                    model.page(id).unwrap().pins -= 1;
                    if p.pins == 1 {
                        model.make_mru(id);
                    }
                }
                (4, Some(p)) if p.resident => {
                    pool.mark_dirty(pid);
                    model.page(id).unwrap().dirty = true;
                }
                _ => continue,
            }
            prop_assert_eq!(pool.mapped_len(), model.pages.len());
            prop_assert_eq!(
                pool.resident_pages(),
                model.pages.iter().filter(|p| p.resident).count()
            );
            for p in &model.pages {
                let pid = PageId(p.id);
                prop_assert_eq!(pool.is_resident(pid), p.resident, "residency of {} at step {}", p.id, step);
                prop_assert_eq!(pool.is_dirty(pid), p.dirty, "dirtiness of {} at step {}", p.id, step);
            }
        }
    }
}

#[test]
fn a_pool_orders_its_victims_once_at_its_first_spill() {
    let capacity = 64;
    let before = work_counters();
    let mut pool = MemoryPool::new(capacity);
    for p in 1..=capacity as u64 {
        pool.register(PageId(p));
    }
    for round in 0..3 {
        for p in 1..=capacity as u64 {
            assert!(!pool.ensure_resident(PageId(p)).any(), "round {round}");
        }
    }
    let roomy = work_counters().delta_since(&before).pool_victim_orders;
    assert_eq!(roomy, 0, "a pool with room orders nothing");
    // A cyclic scan over one page more than fits, so every step spills the
    // least recently used page, and a hit on the page just brought in: the
    // first spill orders the pool, and every stamp after it joins the order
    // as it is issued.
    let pages = capacity as u64 + 1;
    for i in capacity as u64..10 * pages {
        let page = PageId(1 + i % pages);
        let fault = match i < pages {
            true => pool.register(page),
            false => pool.ensure_resident(page),
        };
        assert_eq!(fault.storage_read, i >= pages, "step {i}");
        assert!(!pool.ensure_resident(page).any(), "step {i}");
    }
    let orders = work_counters().delta_since(&before).pool_victim_orders;
    assert_eq!(orders, 1);
}

/// Pages of the session world: enough that the touched-page table starts at
/// 16 slots and doubles five times.
const SESSION_PAGES: u64 = 320;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Memory-side reads and writes only, under write-invalidate: a page's
    /// hold is the most any access needed, and what it may take is the most
    /// of that and what the shipped list allowed (compute-writable nothing,
    /// compute-read-only read, unlisted write). Checked for every page after
    /// every 16 steps and at the end, one page past each end included.
    #[test]
    fn a_growing_session_table_holds_what_each_access_left(
        warm in prop::collection::vec((0..SESSION_PAGES, any::<bool>()), 0..48),
        steps in prop::collection::vec((0..SESSION_PAGES, any::<bool>()), 1..700),
    ) {
        let mut dos = Dos::new_disaggregated(DdcConfig {
            compute_cache_bytes: 32 * PAGE_SIZE,
            memory_pool_bytes: 2 * SESSION_PAGES as usize * PAGE_SIZE,
            ..Default::default()
        });
        let a = dos.alloc(SESSION_PAGES as usize * PAGE_SIZE);
        for &(page, write) in &warm {
            dos.touch_range(a.offset(page * PAGE_SIZE as u64), 8, write, Pattern::Rand);
        }
        let resident = dos.resident_list();
        let mut s = PushdownSession::new(
            CoherenceMode::WriteInvalidate,
            &resident,
            SimDuration::from_micros(10),
        );
        let first = a.page().0;
        let shipped = |pid: PageId| match resident.binary_search_by_key(&pid, |e| e.0) {
            Ok(i) if resident[i].1 => Perm::None,
            Ok(_) => Perm::Read,
            Err(_) => Perm::Write,
        };
        let mut held = vec![Perm::None; SESSION_PAGES as usize + 2];
        let check = |s: &PushdownSession, held: &[Perm], at: usize| {
            for (i, &h) in held.iter().enumerate() {
                let pid = PageId(first + i as u64 - 1);
                prop_assert_eq!(s.mem_perm(pid), h, "held on {:?} after step {}", pid, at);
                prop_assert_eq!(
                    s.mem_allowed(pid),
                    h.max(shipped(pid)),
                    "allowed on {:?} after step {}", pid, at
                );
            }
            Ok(())
        };
        for (i, &(page, write)) in steps.iter().enumerate() {
            s.mem_access(&mut dos, a.offset(page * PAGE_SIZE as u64), 8, write, Pattern::Rand);
            let need = if write { Perm::Write } else { Perm::Read };
            let h = &mut held[page as usize + 1];
            *h = (*h).max(need);
            if i % 16 == 15 {
                check(&s, &held, i)?;
            }
        }
        check(&s, &held, steps.len())?;
    }
}
