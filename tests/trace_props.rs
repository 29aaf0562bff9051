//! Property tests for the trace layer: per-lane timestamp monotonicity,
//! digest determinism across identical runs, the coherence-tracing
//! contract (every SWMR-violating memory-side access under a coherent
//! mode emits a `CoherenceMsg`; disabled coherence emits none), and the
//! retained ring as a window that changes no result.

use std::cell::RefCell;
use std::rc::Rc;

use ddc_os::{Dos, Pattern};
use ddc_sim::{
    DdcConfig, EventKind, FaultPlan, SimDuration, SimTime, TraceRecord, FOREVER, PAGE_SIZE,
};
use proptest::prelude::*;
use teleport::{
    CoherenceMode, CoherenceStats, Mem, Perm, PushdownOpts, PushdownSession, ResiliencePolicy,
    Runtime,
};

const PAGES: u64 = 6;
const ELEMS_PER_PAGE: usize = PAGE_SIZE / 8;

#[derive(Debug, Clone)]
struct Op {
    page: u64,
    slot: usize,
    write: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0..PAGES, 0..ELEMS_PER_PAGE, any::<bool>()).prop_map(|(page, slot, write)| Op {
        page,
        slot,
        write,
    })
}

/// Replay `ops` on a fresh traced Teleport runtime (small cache so real
/// faults and evictions occur), finishing with a pushdown so every
/// instrumented layer appears in the stream.
fn traced_run(ops: &[Op]) -> Runtime {
    let mut rt = Runtime::teleport(DdcConfig {
        compute_cache_bytes: 3 * PAGE_SIZE,
        memory_pool_bytes: 64 * PAGE_SIZE,
        ..Default::default()
    });
    rt.enable_tracing();
    let region = rt.alloc_region::<u64>(PAGES as usize * ELEMS_PER_PAGE);
    rt.begin_timing();
    for op in ops {
        let i = op.page as usize * ELEMS_PER_PAGE + op.slot;
        if op.write {
            rt.set(&region, i, op.page + 1, Pattern::Rand);
        } else {
            let _ = rt.get(&region, i, Pattern::Rand);
        }
    }
    let n = region.len();
    rt.pushdown(PushdownOpts::new(), move |m| {
        let mut buf = Vec::new();
        m.read_range(&region, 0, n, &mut buf);
        buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
    })
    .unwrap();
    rt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequence numbers are strictly increasing and timestamps are
    /// non-decreasing — globally and within every lane — for arbitrary
    /// workloads: virtual time never runs backwards in the trace.
    #[test]
    fn timestamps_non_decreasing_per_lane(
        ops in prop::collection::vec(op_strategy(), 1..60)
    ) {
        let rt = traced_run(&ops);
        let events = rt.trace().events();
        prop_assert!(!events.is_empty());
        for w in events.windows(2) {
            prop_assert!(w[1].seq == w[0].seq + 1, "seq gap: {} -> {}", w[0], w[1]);
            prop_assert!(w[1].at >= w[0].at, "time ran backwards: {} -> {}", w[0], w[1]);
        }
        for lane in ddc_sim::trace::LANES {
            let stamps: Vec<_> =
                events.iter().filter(|r| r.lane == lane).map(|r| r.at).collect();
            for w in stamps.windows(2) {
                prop_assert!(w[1] >= w[0], "lane {lane} time ran backwards");
            }
        }
    }

    /// Identical seed + config ⇒ identical event stream: the digest (and
    /// length) of two independent replays of the same ops are equal.
    #[test]
    fn identical_runs_have_identical_digests(
        ops in prop::collection::vec(op_strategy(), 1..60)
    ) {
        let a = traced_run(&ops);
        let b = traced_run(&ops);
        prop_assert_eq!(a.trace().len(), b.trace().len());
        prop_assert_eq!(a.trace().digest(), b.trace().digest());
        // The digest covers payloads, not just counts: it must differ from
        // a run with one extra op (same length workloads can collide in
        // count space but the streams differ).
        let mut more = ops.clone();
        more.push(Op { page: 0, slot: 0, write: true });
        let c = traced_run(&more);
        if c.trace().len() != a.trace().len() {
            prop_assert_ne!(a.trace().digest(), c.trace().digest());
        }
    }

    /// Under write-invalidate, a memory-side access that violates SWMR
    /// (the compute pool holds a conflicting copy and the temporary
    /// context lacks the permission) emits exactly one `CoherenceMsg`;
    /// a non-violating access emits none.
    #[test]
    fn swmr_violations_emit_coherence_msgs(
        schedule in prop::collection::vec(
            (any::<bool>(), 0..PAGES, any::<bool>()), 1..80
        )
    ) {
        // Cache holds every page: no natural evictions, so the only
        // coherence activity is protocol messaging.
        let mut dos = Dos::new_disaggregated(DdcConfig {
            compute_cache_bytes: 32 * PAGE_SIZE,
            memory_pool_bytes: 256 * PAGE_SIZE,
            ..Default::default()
        });
        let a = dos.alloc(PAGES as usize * PAGE_SIZE);
        for p in 0..PAGES {
            dos.write_u64(a.offset(p * PAGE_SIZE as u64), p, Pattern::Rand);
        }
        dos.begin_timing();
        dos.tracer().enable();
        let resident = dos.resident_list();
        let mut s = PushdownSession::new(
            CoherenceMode::WriteInvalidate,
            &resident,
            SimDuration::from_micros(10),
        );
        for &(mem_side, page, write) in &schedule {
            let pid = a.offset(page * PAGE_SIZE as u64).page();
            let addr = a.offset(page * PAGE_SIZE as u64 + 32);
            let before = dos.tracer().count(EventKind::CoherenceMsg);
            if mem_side {
                let need = if write { Perm::Write } else { Perm::Read };
                let probe = dos.cache_probe(pid);
                let conflicting = if write {
                    probe.is_some()
                } else {
                    probe.map(|e| e.writable).unwrap_or(false)
                };
                let violates = s.mem_perm(pid) < need && conflicting;
                s.mem_access(&mut dos, addr, 8, write, Pattern::Rand);
                let emitted = dos.tracer().count(EventKind::CoherenceMsg) - before;
                prop_assert_eq!(
                    emitted,
                    violates as u64,
                    "page {} {} (mem perm {:?}, compute copy {:?})",
                    page,
                    if write { "write" } else { "read" },
                    s.mem_perm(pid),
                    dos.cache_probe(pid).map(|e| e.writable)
                );
            } else {
                s.compute_access(&mut dos, addr, 8, write, Pattern::Rand);
            }
            // The messaging keeps SWMR intact after every step.
            let compute_writable =
                dos.cache_probe(pid).map(|e| e.writable).unwrap_or(false);
            prop_assert!(!(compute_writable && s.mem_perm(pid) == Perm::Write));
            prop_assert!(!(dos.cache_probe(pid).is_some() && s.mem_perm(pid) == Perm::Write));
        }
        let _ = s.finish(&mut dos);
    }

    /// Disabled coherence never messages: zero `CoherenceMsg` events for
    /// any schedule, while the trace still carries the rest of the run.
    #[test]
    fn disabled_mode_emits_no_coherence_msgs(
        schedule in prop::collection::vec(
            (any::<bool>(), 0..PAGES, any::<bool>()), 1..80
        )
    ) {
        let mut dos = Dos::new_disaggregated(DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 256 * PAGE_SIZE,
            ..Default::default()
        });
        let a = dos.alloc(PAGES as usize * PAGE_SIZE);
        for p in 0..PAGES {
            dos.write_u64(a.offset(p * PAGE_SIZE as u64), p, Pattern::Rand);
        }
        dos.begin_timing();
        dos.tracer().enable();
        let resident = dos.resident_list();
        let mut s = PushdownSession::new(
            CoherenceMode::Disabled,
            &resident,
            SimDuration::from_micros(10),
        );
        for &(mem_side, page, write) in &schedule {
            let addr = a.offset(page * PAGE_SIZE as u64 + 32);
            if mem_side {
                s.mem_access(&mut dos, addr, 8, write, Pattern::Rand);
            } else {
                s.compute_access(&mut dos, addr, 8, write, Pattern::Rand);
            }
        }
        let _ = s.finish(&mut dos);
        prop_assert_eq!(dos.tracer().count(EventKind::CoherenceMsg), 0);
    }
}

/// `coherence.*` are window totals like every other windowed row: two
/// pushdowns that each message the compute pool report the sum of both,
/// `round_trips` is the stream's `CoherenceMsg` count, and a platform
/// that never ran a pushdown session reports all three as 0.
#[test]
fn coherence_metrics_sum_over_the_timed_window() {
    let mut rt = Runtime::teleport(DdcConfig {
        compute_cache_bytes: 8 * PAGE_SIZE,
        memory_pool_bytes: 64 * PAGE_SIZE,
        ..Default::default()
    });
    rt.enable_tracing();
    let region = rt.alloc_region::<u64>(4 * ELEMS_PER_PAGE);
    rt.begin_timing();
    let mut sum = CoherenceStats::default();
    for round in 0..2u64 {
        // Compute-side dirty copies, then memory-side writes to them.
        for p in 0..4 {
            rt.set(&region, p * ELEMS_PER_PAGE, round, Pattern::Rand);
        }
        rt.pushdown(PushdownOpts::new(), |m| {
            for p in 0..4 {
                m.set(&region, p * ELEMS_PER_PAGE + 1, round, Pattern::Rand);
            }
        })
        .unwrap();
        let call = rt.last_coherence_stats().expect("a session ran");
        assert!(call.round_trips > 0 && call.pages_written_memside > 0);
        sum.round_trips += call.round_trips;
        sum.backoffs += call.backoffs;
        sum.pages_written_memside += call.pages_written_memside;
    }
    let m = rt.metrics();
    assert_eq!(m.get("coherence.round_trips"), Some(sum.round_trips));
    assert_eq!(
        m.get("coherence.round_trips"),
        m.get("trace.coherence_msgs")
    );
    assert_eq!(m.get("coherence.backoffs"), Some(sum.backoffs));
    assert_eq!(
        m.get("coherence.pages_written_memside"),
        Some(sum.pages_written_memside)
    );
    let local = Runtime::local(Default::default()).metrics();
    for name in [
        "coherence.round_trips",
        "coherence.backoffs",
        "coherence.pages_written_memside",
    ] {
        assert_eq!(local.get(name), Some(0), "{name} on Local");
    }
}

/// Pages of the storm's column, and how many of them its cache holds.
const STORM_PAGES: usize = 64;
const STORM_CACHE: usize = 16;

/// A traced storm with the ring at `ring` records: the `chaos` example's
/// fault plan around resilient column sums, each after a compute-side sweep
/// that rewrites a word of every page through a cache a quarter the
/// column's size. Returns the runtime and every record a sink saw.
fn storm(ring: usize) -> (Runtime, Vec<TraceRecord>) {
    let mut rt = Runtime::teleport(DdcConfig {
        compute_cache_bytes: STORM_CACHE * PAGE_SIZE,
        ..Default::default()
    });
    rt.enable_tracing();
    rt.trace().set_ring_capacity(ring);
    let col = rt.alloc_region::<u64>(STORM_PAGES * ELEMS_PER_PAGE);
    let vals: Vec<u64> = (0..col.len() as u64).collect();
    rt.write_range(&col, 0, &vals);
    rt.begin_timing();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&seen);
    rt.trace()
        .set_sink(move |rec: &TraceRecord| sink.borrow_mut().push(*rec));
    rt.install_fault_plan(
        FaultPlan::new(0xC0FFEE)
            .fabric_latency_spike(SimTime(0), SimTime(200_000), SimDuration::from_micros(2))
            .ssd_latency_storm(SimTime(0), FOREVER, 8)
            .ssd_transient_errors(SimTime(0), FOREVER, 0.3)
            .heartbeat_flap(SimTime(0), SimTime(15_000_000))
            .pushdown_exceptions_prob(SimTime(0), FOREVER, 0.4),
    );
    let expected: u64 = vals.iter().sum();
    let policy = ResiliencePolicy::full();
    for call in 0..32 {
        for page in 0..STORM_PAGES {
            let i = page * ELEMS_PER_PAGE + call;
            let v = rt.get(&col, i, Pattern::Rand);
            rt.set(&col, i, v, Pattern::Rand);
        }
        let out = rt
            .pushdown_resilient(PushdownOpts::new(), &policy, move |m| {
                let mut buf = Vec::new();
                m.read_range(&col, 0, col.len(), &mut buf);
                buf.iter().sum::<u64>()
            })
            .expect("the full policy absorbs every injected exception");
        assert_eq!(out.value, expected);
    }
    rt.trace().clear_sink();
    let seen = seen.borrow().clone();
    (rt, seen)
}

/// The ring is a window onto the stream and nothing else: the same storm
/// with no ring, a one-record ring, the default 4 096 (which it wraps) and
/// 65 536 (which it does not) gives the same virtual time, digest, length,
/// per-kind counts and metrics, and each ring holds exactly the newest
/// records the sink saw, their seqs running on to the stream's end.
#[test]
fn ring_window_changes_no_result_of_a_traced_storm() {
    let runs: Vec<(usize, (Runtime, Vec<TraceRecord>))> = [0, 1, 4_096, 65_536]
        .into_iter()
        .map(|ring| (ring, storm(ring)))
        .collect();
    let (first, first_seen) = &runs[0].1;
    let len = first.trace().len();
    assert!(
        (2 * 4_096..65_536).contains(&len),
        "the storm's {len} records must wrap the default ring and not the largest"
    );
    for (ring, (rt, seen)) in &runs {
        let t = rt.trace();
        assert_eq!(
            (rt.elapsed(), t.digest(), t.len()),
            (first.elapsed(), first.trace().digest(), len),
            "ring {ring}: (elapsed, digest, len)"
        );
        for kind in EventKind::ALL {
            assert_eq!(
                t.count(kind),
                first.trace().count(kind),
                "ring {ring}: {kind:?}"
            );
        }
        assert_eq!(rt.metrics(), first.metrics(), "ring {ring}: metrics()");
        assert_eq!(seen, first_seen, "ring {ring}: the sink saw another stream");
        assert_eq!(seen.len() as u64, len);
        let events = t.events();
        let held = (*ring).min(seen.len());
        assert_eq!(events[..], seen[seen.len() - held..], "ring {ring}");
        for (k, rec) in events.iter().enumerate() {
            assert_eq!(rec.seq, len - held as u64 + k as u64, "ring {ring}: seq");
        }
    }
}
