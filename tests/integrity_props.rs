//! Property tests for the end-to-end data-integrity plane.
//!
//! Four invariants, each quantified over fault seeds (and, where it
//! matters, corruption probabilities):
//!
//! 1. **Determinism** — the same seed produces the same corruption sites
//!    (page, offset pairs, in order) and a byte-identical trace digest,
//!    even with two corruption kinds layered on the same run.
//! 2. **Scrub freshness** — after a scrubber pass, compute-side reads
//!    never observe a stale checksum: every value is oracle-exact and no
//!    page is ever declared lost, because latent storage rot strikes clean
//!    pages whose intact image is re-readable.
//! 3. **Exactly-once repair** — every corrupted page is detected once and
//!    repaired once; re-reading the same data detects nothing new and
//!    repairs nothing twice.
//! 4. **Per-page bookkeeping** — through a random script of compute-side
//!    and pushed-down writes, reads, cache drops and scrubs under three
//!    corruption kinds, the detection ledger balances after every step and,
//!    after every step too, each page that was not lost is sealed over
//!    exactly the bytes the script wrote to it.

use ddc_os::{PageChecksum, Pattern};
use ddc_sim::{
    DdcConfig, EventKind, FaultPlan, ReplicationMode, ScrubConfig, SimDuration, SimTime,
    TraceEvent, FOREVER, PAGE_SIZE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teleport::{Mem, PushdownError, PushdownOpts, Region, Runtime};

const ELEMS: usize = 4096; // 8 pages of u64

/// Deterministic pseudo-random column content.
fn column_vals() -> Vec<u64> {
    (0..ELEMS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(21))
        .collect()
}

/// The shared corruption scenario: a replicated Teleport runtime loads a
/// column, the flush to the pool is exposed to scribbles, and the read
/// back crosses the fabric under bit flips. Everything is repairable
/// (synchronous replica), so the sum must match the oracle. Returns the
/// runtime and the corruption sites in emission order.
fn corruption_run(seed: u64) -> (Runtime, Vec<(u64, u64)>, u64) {
    let cfg = DdcConfig {
        replication: ReplicationMode::Synchronous,
        ..Default::default()
    };
    let mut rt = Runtime::teleport(cfg);
    rt.enable_tracing();
    let vals = column_vals();
    let col: Region<u64> = rt.alloc_region(ELEMS);
    rt.write_range(&col, 0, &vals);
    // Timing starts before the plan so the trace keeps the injection
    // events the drop-cache flush produces (begin_timing resets the
    // trace).
    rt.begin_timing();
    rt.install_fault_plan(
        FaultPlan::new(seed)
            .pool_scribbles(SimTime(0), FOREVER, 0.7)
            .fabric_bit_flips(SimTime(0), FOREVER, 0.5),
    );
    rt.drop_cache();
    let expected: u64 = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    let sum = rt
        .pushdown(PushdownOpts::new(), move |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, col.len(), &mut buf);
            buf.iter().fold(0u64, |a, &v| a.wrapping_add(v))
        })
        .expect("a synchronous replica repairs every corruption");
    assert_eq!(sum, expected, "repaired sum must match the oracle");
    let sites: Vec<(u64, u64)> = rt
        .trace()
        .events()
        .iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::CorruptionInjected { page, offset } => Some((page, offset)),
            _ => None,
        })
        .collect();
    let digest = rt.trace().digest();
    (rt, sites, digest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed ⇒ identical corruption sites and a byte-identical trace
    /// digest, across two independent runs.
    #[test]
    fn same_seed_means_identical_corruption_and_digest(seed in any::<u64>()) {
        let (rt_a, sites_a, digest_a) = corruption_run(seed);
        let (rt_b, sites_b, digest_b) = corruption_run(seed);
        prop_assert!(!sites_a.is_empty(), "the plan must corrupt something");
        prop_assert_eq!(&sites_a, &sites_b, "corruption sites differ");
        prop_assert_eq!(digest_a, digest_b, "trace digests differ");
        prop_assert_eq!(rt_a.trace().len(), rt_b.trace().len(), "event counts differ");
        prop_assert_eq!(rt_a.elapsed(), rt_b.elapsed(), "virtual time differs");
    }

    /// Scrub-then-read freshness: a pool squeezed to 16 pages spills the
    /// column to storage, latent sectors rot with probability `p`, one
    /// scrubber pass repairs whatever it finds, and every subsequent read
    /// is oracle-exact with zero data loss — clean spilled pages always
    /// have an intact storage image to re-read.
    #[test]
    fn scrub_then_read_never_observes_a_stale_checksum(
        seed in any::<u64>(),
        p_pct in 10u32..=100,
    ) {
        let p = f64::from(p_pct) / 100.0;
        let cfg = DdcConfig {
            memory_pool_bytes: 16 * PAGE_SIZE,
            ..Default::default()
        };
        let mut rt = Runtime::teleport(cfg);
        rt.enable_tracing();
        let vals = column_vals();
        let col: Region<u64> = rt.alloc_region(ELEMS);
        rt.write_range(&col, 0, &vals);
        rt.install_fault_plan(
            FaultPlan::new(seed).ssd_latent_sectors(SimTime(0), FOREVER, p),
        );
        rt.drop_cache();
        rt.begin_timing();
        let (scanned, _detected) = rt.scrub_now();
        prop_assert!(scanned > 0, "the scrub must walk the mapped pages");
        let mut back = Vec::new();
        rt.read_range(&col, 0, ELEMS, &mut back);
        prop_assert_eq!(&back, &vals, "post-scrub reads must be oracle-exact");
        prop_assert_eq!(rt.data_loss(), 0, "latent rot on clean pages never loses data");
        let m = rt.metrics();
        prop_assert_eq!(
            m.get("integrity.detected"),
            m.get("integrity.repaired"),
            "every detection must resolve to a repair"
        );
    }

    /// Exactly-once repair: under a p=1.0 scribble plan with a synchronous
    /// replica, every corrupted page is detected once and repaired once,
    /// and a second full read detects and repairs nothing further.
    #[test]
    fn repair_happens_exactly_once_per_corrupted_page(seed in any::<u64>()) {
        let cfg = DdcConfig {
            replication: ReplicationMode::Synchronous,
            ..Default::default()
        };
        let mut rt = Runtime::teleport(cfg);
        rt.enable_tracing();
        let vals = column_vals();
        let col: Region<u64> = rt.alloc_region(ELEMS);
        rt.write_range(&col, 0, &vals);
        rt.begin_timing(); // before the plan: keep the injection events
        rt.install_fault_plan(
            FaultPlan::new(seed).pool_scribbles(SimTime(0), FOREVER, 1.0),
        );
        rt.drop_cache();
        let mut back = Vec::new();
        rt.read_range(&col, 0, ELEMS, &mut back);
        prop_assert_eq!(&back, &vals, "repaired reads must be oracle-exact");
        let injected = rt.trace().count(EventKind::CorruptionInjected);
        let detected = rt.trace().count(EventKind::ChecksumMismatch);
        let repaired = rt.trace().count(EventKind::PageRepaired);
        prop_assert!(injected > 0, "the p=1.0 plan must corrupt every flushed page");
        prop_assert_eq!(detected, injected, "every corruption is detected exactly once");
        prop_assert_eq!(repaired, injected, "every corruption is repaired exactly once");
        // A second full read: nothing left to detect or repair.
        let mut again = Vec::new();
        rt.read_range(&col, 0, ELEMS, &mut again);
        prop_assert_eq!(&again, &vals);
        prop_assert_eq!(rt.trace().count(EventKind::ChecksumMismatch), detected);
        prop_assert_eq!(rt.trace().count(EventKind::PageRepaired), repaired);
        prop_assert_eq!(rt.data_loss(), 0);
    }
}

/// `integrity.detected`, `.repaired` and `.data_loss`, which must balance
/// whenever no access is in flight.
fn balanced_ledger(rt: &Runtime) -> (u64, u64, u64) {
    let m = rt.metrics();
    let get = |name| m.get(name).expect("the integrity plane is armed");
    let ledger = (
        get("integrity.detected"),
        get("integrity.repaired"),
        get("integrity.data_loss"),
    );
    assert_eq!(ledger.0, ledger.1 + ledger.2, "the ledger must balance");
    ledger
}

/// Every page of `col` that was never declared lost is sealed over the
/// bytes the script meant it to hold (`shadow`'s), whatever it holds now:
/// a page carrying undetected corruption answers with the sum taken just
/// before the corruption landed, any other page with the sum of its bytes —
/// which are then exactly the intended ones. A lost page keeps its corrupt
/// bytes on purpose.
fn assert_seals_are_fresh(rt: &Runtime, col: &Region<u64>, shadow: &[u64]) {
    let lost: Vec<u64> = rt
        .trace()
        .events()
        .iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::DataLoss { page } => Some(page),
            _ => None,
        })
        .collect();
    let dos = rt.dos();
    let per_page = PAGE_SIZE / 8;
    assert_eq!(
        dos.space().mapped_pages().len(),
        shadow.len().div_ceil(per_page),
        "the column is the whole address space"
    );
    for (k, vals) in shadow.chunks(per_page).enumerate() {
        let pid = col.at(k * per_page).page();
        if lost.contains(&pid.0) {
            continue;
        }
        let mut intended = vec![0u8; PAGE_SIZE];
        for (dst, v) in intended.chunks_exact_mut(8).zip(vals) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        assert_eq!(
            dos.page_checksum(pid),
            Some(PageChecksum::of(&intended)),
            "{pid} is sealed over bytes the script never wrote"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A random script over a column three times the compute cache and
    /// larger than the pool, so pages keep crossing the fabric and the SSD
    /// while scribbles, bit flips and latent sectors strike. With a
    /// synchronous replica everything is repairable and the column must
    /// end oracle-exact; without one, dirty pages are lost and the losses
    /// must be counted, never hidden.
    #[test]
    fn scripted_accesses_keep_the_ledger_balanced_and_the_seals_fresh(
        seed in any::<u64>(),
        replicated in any::<bool>(),
    ) {
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 16 * PAGE_SIZE,
            replication: if replicated {
                ReplicationMode::Synchronous
            } else {
                ReplicationMode::Off
            },
            ..Default::default()
        };
        let mut rt = Runtime::teleport(cfg);
        rt.enable_tracing();
        let mut shadow = column_vals();
        shadow.extend(column_vals());
        shadow.extend(column_vals());
        let col: Region<u64> = rt.alloc_region(shadow.len());
        rt.write_range(&col, 0, &shadow);
        rt.begin_timing(); // before the plan: keep every DataLoss event
        rt.install_fault_plan(
            FaultPlan::new(seed)
                .pool_scribbles(SimTime(0), FOREVER, 0.2)
                .fabric_bit_flips(SimTime(0), FOREVER, 0.2)
                .ssd_latent_sectors(SimTime(0), FOREVER, 0.2),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..120 {
            let i = rng.random_range(0..shadow.len());
            let v: u64 = rng.random();
            match rng.random_range(0..10u32) {
                0..=2 => {
                    rt.set(&col, i, v, Pattern::Rand);
                    shadow[i] = v;
                }
                3..=4 => {
                    // A pushed-down write lands (and marks its page stale)
                    // even when the call then reports a loss elsewhere.
                    let _ = rt.pushdown(PushdownOpts::new(), move |m| {
                        m.set(&col, i, v, Pattern::Rand)
                    });
                    shadow[i] = v;
                }
                5..=6 => {
                    let _ = rt.get(&col, i, Pattern::Rand);
                }
                7 => rt.drop_cache(),
                _ => {
                    let (scanned, _) = rt.scrub_now();
                    prop_assert!(scanned as usize >= shadow.len() * 8 / PAGE_SIZE);
                }
            }
            balanced_ledger(&rt);
            assert_seals_are_fresh(&rt, &col, &shadow);
        }
        rt.drop_cache();
        rt.scrub_now();
        assert_seals_are_fresh(&rt, &col, &shadow);
        let (detected, _, lost) = balanced_ledger(&rt);
        prop_assert!(detected > 0, "the plan must corrupt something that is then found");
        prop_assert_eq!(lost, rt.trace().count(EventKind::DataLoss));
        if replicated {
            prop_assert_eq!(lost, 0, "a synchronous replica repairs every dirty page");
            let mut back = Vec::new();
            rt.read_range(&col, 0, shadow.len(), &mut back);
            prop_assert_eq!(&back, &shadow, "repaired data must be oracle-exact");
        }
    }
}

/// The detection ledger balances on a mixed, partially-unrepairable run:
/// scribbles without a replica lose dirty pages, yet
/// `integrity.detected == integrity.repaired + integrity.data_loss` holds
/// and the loss surfaces as the typed error — never a wrong answer.
#[test]
fn detection_ledger_balances_even_through_data_loss() {
    let mut rt = Runtime::teleport(DdcConfig::default());
    rt.enable_tracing();
    let vals = column_vals();
    let col: Region<u64> = rt.alloc_region(ELEMS);
    rt.write_range(&col, 0, &vals);
    rt.install_fault_plan(FaultPlan::new(ddc_sim::env_seed(0xDEAD)).pool_scribbles(
        SimTime(0),
        FOREVER,
        1.0,
    ));
    rt.drop_cache();
    rt.begin_timing();
    let r = rt.pushdown(PushdownOpts::new(), move |m| {
        let mut buf = Vec::new();
        m.read_range(&col, 0, col.len(), &mut buf);
        buf.iter().fold(0u64, |a, &v| a.wrapping_add(v))
    });
    match r {
        Err(teleport::PushdownError::DataLoss { .. }) => {}
        other => panic!("expected typed DataLoss, got {other:?}"),
    }
    let m = rt.metrics();
    let detected = m.get("integrity.detected").unwrap();
    let repaired = m.get("integrity.repaired").unwrap();
    let lost = m.get("integrity.data_loss").unwrap();
    assert!(detected > 0);
    assert_eq!(detected, repaired + lost, "the ledger must balance");
    assert!(lost > 0, "unrepairable scribbles must be counted as losses");
    assert_eq!(m.get("trace.data_losses"), Some(lost));
    assert!(rt.is_alive(), "data loss is an error, not a crash");
}

/// Loss outranks every other verdict, on every platform: the scheduled
/// scrub at call entry finds a scribbled dirty page that no replica can
/// repair, and the fault plan replaces the same call's function with an
/// exception. The caller sees the loss, which caused the call's failure,
/// not the exception.
#[test]
fn data_loss_outranks_an_injected_exception_on_every_platform() {
    let cfg = DdcConfig {
        scrub: ScrubConfig {
            every: Some(SimDuration::from_micros(100)),
            ..Default::default()
        },
        ..Default::default()
    };
    for mut rt in [Runtime::base_ddc(cfg.clone()), Runtime::teleport(cfg)] {
        let col: Region<u64> = rt.alloc_region(PAGE_SIZE / 8);
        rt.set(&col, 0, 42, Pattern::Rand);
        rt.begin_timing();
        rt.install_fault_plan(
            FaultPlan::new(5)
                .pool_scribbles(SimTime(0), FOREVER, 1.0)
                .pushdown_exception(0),
        );
        rt.drop_cache(); // the dirty write-back lands scribbled
        rt.dos_mut().charge(SimDuration::from_millis(1)); // the scrub is due
        let r = rt.pushdown(PushdownOpts::new(), |m| m.get(&col, 0, Pattern::Rand));
        let page = col.addr().page().0;
        assert_eq!(r, Err(PushdownError::DataLoss { page }), "{:?}", rt.kind());
        assert_eq!(rt.data_loss(), 1);
    }
}
