//! Property tests for the multi-tenant serving plane: seed-determinism
//! (same seed ⇒ identical arrival schedules, admission decisions, and
//! trace digest), deficit-round-robin fairness (no tenant starves), and
//! the shed ledger invariant (arrived == completed + shed + failed +
//! in-flight, with nothing in flight once the plane drains).

use ddc_os::DrrQueue;
use ddc_sim::{env_seed, ArrivalProcess, DdcConfig, QosClass, SimDuration, QOS_CLASSES};
use proptest::prelude::*;
use teleport::{AdmissionPolicy, Runtime, ServeConfig, ServePlane, ServeReport, SessionOutcome};

const KV_KEYS: usize = 256;

/// A small mixed-class serving run: `tenants` KV tenants on Poisson
/// arrivals, classes striped across the QoS ladder. Returns the report
/// plus the trace digest — everything an identical rerun must reproduce.
fn kv_serve(
    seed: u64,
    tenants: usize,
    sessions: u64,
    mean_gap_us: u64,
    depth: usize,
    backlog_us: u64,
) -> (ServeReport, u64) {
    // Fold in the CI-pinned fault seed so the 3-seed sweep exercises
    // distinct serve schedules while staying reproducible per pin.
    let seed = seed ^ env_seed(0);
    let data = kvapp::KvData::generate(KV_KEYS, 7);
    let mut rt = Runtime::teleport(DdcConfig::with_cache_ratio(data.working_set_bytes(), 0.25));
    rt.enable_tracing();
    let store = kvapp::KvStore::load(&mut rt, &data);
    rt.drop_cache();
    rt.begin_timing();

    let mut plane = ServePlane::new(ServeConfig {
        seed,
        admission: AdmissionPolicy {
            max_queue_depth: depth,
            max_backlog: SimDuration::from_micros(backlog_us),
        },
        contexts: None,
    });
    for t in 0..tenants {
        let ks = kvapp::keys(seed ^ (t as u64 + 1), sessions as usize, KV_KEYS);
        plane.tenant(
            format!("t{t}"),
            QOS_CLASSES[t % QOS_CLASSES.len()],
            ArrivalProcess::poisson(SimDuration::from_micros(mean_gap_us)),
            sessions as usize,
            move |rt, s| kvapp::get(rt, &store, ks[s as usize]),
        );
    }
    let rep = plane.run(&mut rt);
    let digest = rt.trace().digest();
    (rep, digest)
}

/// The rerun-comparable surface of a report: counters, outcomes, and
/// latency samples per tenant (admission decisions are visible through
/// `shed`/`admitted`; values, latencies and errors through the outcomes).
type TenantFingerprint = (String, u64, u64, u64, u64, u64, Vec<SessionOutcome>, usize);

fn fingerprint(rep: &ServeReport) -> Vec<TenantFingerprint> {
    rep.tenants
        .iter()
        .enumerate()
        .map(|(t, tr)| {
            (
                tr.name.clone(),
                tr.arrived,
                tr.admitted,
                tr.completed,
                tr.shed,
                tr.failed,
                tr.outcomes.clone(),
                rep.latency.count(t),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed ⇒ the arrival schedule is reproduced event for event,
    /// for every process shape; different seeds diverge for the random
    /// processes; and schedules are monotone non-decreasing.
    #[test]
    fn arrival_schedules_are_seed_deterministic_and_monotone(
        seed in any::<u64>(),
        mean_us in 1u64..500,
        burst in 1usize..8,
        n in 1usize..64,
    ) {
        let procs = [
            ArrivalProcess::poisson(SimDuration::from_micros(mean_us)),
            ArrivalProcess::bursty(
                SimDuration::from_micros(mean_us * 4),
                burst,
                SimDuration::from_nanos(200),
            ),
            ArrivalProcess::uniform(SimDuration::from_micros(mean_us)),
        ];
        for p in procs {
            let a = p.schedule(seed, n);
            let b = p.schedule(seed, n);
            prop_assert_eq!(&a, &b, "same seed must reproduce {:?}", p);
            prop_assert_eq!(a.len(), n);
            prop_assert!(
                a.windows(2).all(|w| w[0] <= w[1]),
                "arrivals out of order for {:?}: {:?}", p, a
            );
        }
        // Poisson schedules with different seeds almost surely differ.
        if n >= 8 {
            let p = ArrivalProcess::poisson(SimDuration::from_micros(mean_us));
            prop_assert_ne!(p.schedule(seed, n), p.schedule(seed.wrapping_add(1), n));
        }
    }

    /// Same seed ⇒ identical admission decisions, outcomes, latency
    /// sample counts, and trace digest — the serving plane adds no
    /// nondeterminism of its own.
    #[test]
    fn same_seed_reproduces_admissions_outcomes_and_digest(
        seed in any::<u64>(),
        tenants in 1usize..5,
        sessions in 1u64..10,
        mean_gap_us in 5u64..120,
        depth in 0usize..4,
        backlog_us in 10u64..400,
    ) {
        let (rep_a, dig_a) = kv_serve(seed, tenants, sessions, mean_gap_us, depth, backlog_us);
        let (rep_b, dig_b) = kv_serve(seed, tenants, sessions, mean_gap_us, depth, backlog_us);
        prop_assert_eq!(dig_a, dig_b, "trace digest drifted across same-seed reruns");
        prop_assert_eq!(fingerprint(&rep_a), fingerprint(&rep_b));
    }

    /// Shed ledger invariant at drain: every arrived session is accounted
    /// for as completed, shed, or failed — and nothing is left in flight
    /// once `run` returns.
    #[test]
    fn shed_ledger_balances_at_drain(
        seed in any::<u64>(),
        tenants in 1usize..5,
        sessions in 1u64..10,
        mean_gap_us in 5u64..120,
        depth in 0usize..4,
        backlog_us in 10u64..400,
    ) {
        let (rep, _) = kv_serve(seed, tenants, sessions, mean_gap_us, depth, backlog_us);
        prop_assert!(rep.ledger_balances(), "per-tenant ledger out of balance");
        prop_assert_eq!(rep.arrived(), tenants as u64 * sessions);
        prop_assert_eq!(
            rep.completed() + rep.shed() + rep.failed(),
            rep.arrived(),
            "arrived sessions must be fully accounted at drain"
        );
        for tr in &rep.tenants {
            prop_assert_eq!(tr.in_flight(), 0, "tenant {} left sessions in flight", tr.name);
            prop_assert_eq!(tr.arrived, sessions);
        }
        // No faults installed: nothing may fail, only complete or shed.
        prop_assert_eq!(rep.failed(), 0);
        // Latency samples come only from completed sessions.
        let samples: usize = (0..rep.tenants.len()).map(|t| rep.latency.count(t)).sum();
        prop_assert_eq!(samples as u64, rep.completed());
    }

    /// DRR fairness: with lanes in cursor order, lane `i`'s first item is
    /// served within `sum(quantum[j] for j < i)` pops of the start — no
    /// tenant waits on more than one quantum round of the lanes ahead of
    /// it, and every queued item is eventually served in FIFO order.
    #[test]
    fn drr_never_starves_a_lane(
        quanta in prop::collection::vec(1u64..5, 1..6),
        lens in prop::collection::vec(1usize..8, 1..6),
    ) {
        let lanes = quanta.len().min(lens.len());
        let quanta = &quanta[..lanes];
        let lens = &lens[..lanes];
        let mut q: DrrQueue<(usize, usize)> = DrrQueue::new(quanta);
        for (t, &n) in lens.iter().enumerate() {
            for s in 0..n {
                q.push(t, (t, s));
            }
        }
        let total: usize = lens.iter().sum();
        let mut order = Vec::with_capacity(total);
        while let Some((lane, item)) = q.pop() {
            prop_assert_eq!(lane, item.0, "item served under the wrong lane");
            order.push(item);
        }
        prop_assert_eq!(order.len(), total, "DRR dropped items");
        for (t, &n) in lens.iter().enumerate() {
            // FIFO within the lane.
            let served: Vec<usize> =
                order.iter().filter(|(l, _)| *l == t).map(|&(_, s)| s).collect();
            prop_assert_eq!(&served, &(0..n).collect::<Vec<_>>());
            // Bounded first service: one quantum round of the lanes ahead.
            let first = order.iter().position(|&(l, _)| l == t).unwrap();
            let bound: u64 = quanta[..t].iter().sum();
            prop_assert!(
                first as u64 <= bound,
                "lane {t} first served at pop {first}, bound {bound}"
            );
        }
    }
}

/// Guaranteed-class admission dominates burstable dominates best-effort
/// for every load point — the nesting that makes "best-effort sheds
/// first" a structural property rather than a tuning accident.
#[test]
fn class_admission_limits_nest_across_the_ladder() {
    let policy = AdmissionPolicy {
        max_queue_depth: 3,
        max_backlog: SimDuration::from_micros(50),
    };
    for waiting in 0..40usize {
        for backlog_us in (0..400u64).step_by(25) {
            let backlog = SimDuration::from_micros(backlog_us);
            let g = policy.admits_class(QosClass::Guaranteed, waiting, backlog);
            let b = policy.admits_class(QosClass::Burstable, waiting, backlog);
            let e = policy.admits_class(QosClass::BestEffort, waiting, backlog);
            assert!(!e || b, "best-effort admitted where burstable is not");
            assert!(!b || g, "burstable admitted where guaranteed is not");
        }
    }
}
