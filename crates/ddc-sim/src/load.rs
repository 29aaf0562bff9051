//! Open-loop load generation for the multi-tenant serving plane.
//!
//! A production rack is never driven by one workload run to completion: it
//! serves thousands of concurrent sessions arriving on their own schedule,
//! whether the system keeps up or not (an *open-loop* client plane —
//! arrivals do not slow down when the rack saturates). This module provides
//! the deterministic ingredients the `teleport::serve` scheduler multiplexes:
//!
//! - [`ArrivalProcess`] — seeded Poisson / bursty / uniform arrival
//!   schedules in virtual time. Sampling uses the workspace's vendored
//!   xoshiro generator, so the same seed always produces the same schedule
//!   down to the nanosecond.
//! - [`QosClass`] — the three tenant service classes (guaranteed /
//!   burstable / best-effort) with their scheduling weights and admission
//!   headroom multipliers.
//! - [`LatencyRecorder`] — per-tenant virtual-time latency samples with
//!   nearest-rank percentile reporting (p50/p99/p999).
//!
//! Everything here is pure data + seeded sampling: no clock, no I/O, no
//! wall time. Determinism of a serve run reduces to determinism of these
//! schedules plus the single-threaded scheduler that consumes them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::{SimDuration, SimTime};

/// A tenant's service class, in strictly decreasing order of privilege.
///
/// The class feeds two mechanisms in the serving plane:
///
/// - **Admission headroom** ([`QosClass::headroom`]): the per-class
///   multiplier applied to the admission policy's queue-depth and backlog
///   limits. Best-effort runs at the nominal limits (sheds first),
///   burstable at 2×, guaranteed at 4× (sheds last). The limits are
///   nested, so at any instant an admitted best-effort request implies the
///   other classes would also have been admitted.
/// - **Scheduling weight** ([`QosClass::weight`]): the deficit-round-robin
///   quantum, in sessions per round, a tenant of this class receives when
///   the workqueue is contended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Production traffic: largest DRR quantum, sheds only past 4× the
    /// nominal admission limits.
    Guaranteed,
    /// Elastic traffic: nominal weight ×2, admission headroom ×2.
    Burstable,
    /// Scavenger traffic: nominal limits, first to shed under overload.
    BestEffort,
}

/// Every class, in privilege order (used by sweeps and reports).
pub const QOS_CLASSES: [QosClass; 3] = [
    QosClass::Guaranteed,
    QosClass::Burstable,
    QosClass::BestEffort,
];

impl QosClass {
    /// Deficit-round-robin quantum (sessions per round).
    pub fn weight(self) -> u64 {
        match self {
            QosClass::Guaranteed => 4,
            QosClass::Burstable => 2,
            QosClass::BestEffort => 1,
        }
    }

    /// Multiplier applied to the admission policy's limits for this class.
    pub fn headroom(self) -> u64 {
        match self {
            QosClass::Guaranteed => 4,
            QosClass::Burstable => 2,
            QosClass::BestEffort => 1,
        }
    }

    /// Stable kebab-case name (used by renders and golden tests).
    pub fn label(self) -> &'static str {
        match self {
            QosClass::Guaranteed => "guaranteed",
            QosClass::Burstable => "burstable",
            QosClass::BestEffort => "best-effort",
        }
    }

    /// Stable snake-case metric segment (`serve.<segment>.…`).
    pub fn metric_segment(self) -> &'static str {
        match self {
            QosClass::Guaranteed => "guaranteed",
            QosClass::Burstable => "burstable",
            QosClass::BestEffort => "best_effort",
        }
    }
}

/// How one tenant's sessions arrive, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: independent exponential inter-arrival gaps with
    /// the given mean (a Poisson process of rate `1 / mean_gap`).
    Poisson { mean_gap: SimDuration },
    /// Bursty arrivals: burst *starts* form a Poisson process with mean gap
    /// `mean_gap`; each burst then releases `burst` back-to-back sessions
    /// spaced `intra_gap` apart. Models thundering herds and synchronized
    /// client retries.
    Bursty {
        mean_gap: SimDuration,
        burst: usize,
        intra_gap: SimDuration,
    },
    /// Deterministic arrivals at `0, gap, 2·gap, …` regardless of seed.
    /// Used by golden tests and capacity planning sweeps.
    Uniform { gap: SimDuration },
}

impl ArrivalProcess {
    pub fn poisson(mean_gap: SimDuration) -> Self {
        ArrivalProcess::Poisson { mean_gap }
    }

    pub fn bursty(mean_gap: SimDuration, burst: usize, intra_gap: SimDuration) -> Self {
        assert!(burst >= 1, "a burst releases at least one session");
        ArrivalProcess::Bursty {
            mean_gap,
            burst,
            intra_gap,
        }
    }

    pub fn uniform(gap: SimDuration) -> Self {
        ArrivalProcess::Uniform { gap }
    }

    /// The first `n` arrival instants of this process, relative to virtual
    /// time zero, non-decreasing. Identical for identical `(self, seed, n)`.
    pub fn schedule(&self, seed: u64, n: usize) -> Vec<SimTime> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { mean_gap } => {
                let mut t = 0u64;
                for _ in 0..n {
                    t += exp_gap_ns(&mut rng, mean_gap);
                    out.push(SimTime(t));
                }
            }
            ArrivalProcess::Bursty {
                mean_gap,
                burst,
                intra_gap,
            } => {
                let mut burst_start = 0u64;
                let mut last = 0u64;
                'fill: loop {
                    // A short exponential gap may land the next burst start
                    // inside the previous burst's tail; clamp so the overall
                    // schedule stays non-decreasing (overlapping herds pile
                    // up rather than time-travel).
                    burst_start = (burst_start + exp_gap_ns(&mut rng, mean_gap)).max(last);
                    for k in 0..burst {
                        if out.len() == n {
                            break 'fill;
                        }
                        last = burst_start + k as u64 * intra_gap.as_nanos();
                        out.push(SimTime(last));
                    }
                    if out.len() == n {
                        break;
                    }
                }
            }
            ArrivalProcess::Uniform { gap } => {
                for k in 0..n {
                    out.push(SimTime(k as u64 * gap.as_nanos()));
                }
            }
        }
        out
    }
}

/// One exponential inter-arrival gap in whole nanoseconds (≥ 1 so arrival
/// sequences are strictly increasing within a tenant).
fn exp_gap_ns(rng: &mut StdRng, mean: SimDuration) -> u64 {
    let u: f64 = rng.random(); // uniform in [0, 1)
    let gap = -(1.0 - u).ln() * mean.as_nanos() as f64;
    (gap.round() as u64).max(1)
}

/// Per-tenant virtual-time latency samples with nearest-rank percentiles.
///
/// Latency here is always *session* latency — completion minus arrival in
/// virtual time, so it includes queueing delay, which is exactly what a
/// client of the rack would observe.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<Vec<u64>>,
}

impl LatencyRecorder {
    /// A recorder for `tenants` tenants (indices `0..tenants`).
    pub fn new(tenants: usize) -> Self {
        LatencyRecorder {
            samples: vec![Vec::new(); tenants],
        }
    }

    pub fn tenants(&self) -> usize {
        self.samples.len()
    }

    /// Record one completed session's latency for `tenant`.
    pub fn record(&mut self, tenant: usize, latency: SimDuration) {
        self.samples[tenant].push(latency.as_nanos());
    }

    /// Number of samples recorded for `tenant`.
    pub fn count(&self, tenant: usize) -> usize {
        self.samples[tenant].len()
    }

    /// Nearest-rank percentile (`q` in percent, e.g. `99.9`) of one
    /// tenant's latencies; `None` if the tenant completed nothing.
    pub fn percentile(&self, tenant: usize, q: f64) -> Option<SimDuration> {
        rank(self.samples[tenant].clone(), q)
    }

    pub fn p50(&self, tenant: usize) -> Option<SimDuration> {
        self.percentile(tenant, 50.0)
    }

    pub fn p99(&self, tenant: usize) -> Option<SimDuration> {
        self.percentile(tenant, 99.0)
    }

    pub fn p999(&self, tenant: usize) -> Option<SimDuration> {
        self.percentile(tenant, 99.9)
    }

    /// Largest recorded latency across all tenants.
    pub fn max(&self) -> Option<SimDuration> {
        self.samples
            .iter()
            .flatten()
            .copied()
            .max()
            .map(SimDuration::from_nanos)
    }
}

/// Nearest-rank percentile of `samples` (a copy the caller gives up):
/// selected in place in O(n), since only the one rank is wanted, not the
/// order of the rest.
fn rank(mut samples: Vec<u64>, q: f64) -> Option<SimDuration> {
    if samples.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&q), "percentile out of range: {q}");
    let n = samples.len();
    // Nearest-rank: the ⌈q·n/100⌉-th smallest sample, 1-based. Multiply
    // before dividing — `q / 100.0` is already inexact (0.999…), and the
    // extra rounding step is what let tiny-sample ranks drift. The clamp
    // then pins the two legitimate edges: q=0 ceils to rank 0 (the
    // minimum), and a high quantile of a tiny sample (p999 of <1000
    // observations) is the maximum, never an index past the buffer.
    let r = ((q * n as f64) / 100.0).ceil() as usize;
    let (_, &mut nth, _) = samples.select_nth_unstable(r.clamp(1, n) - 1);
    Some(SimDuration::from_nanos(nth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_schedule() {
        for proc in [
            ArrivalProcess::poisson(SimDuration::from_micros(50)),
            ArrivalProcess::bursty(
                SimDuration::from_micros(200),
                4,
                SimDuration::from_nanos(100),
            ),
            ArrivalProcess::uniform(SimDuration::from_micros(10)),
        ] {
            let a = proc.schedule(42, 100);
            let b = proc.schedule(42, 100);
            assert_eq!(a, b, "{proc:?}");
            assert_eq!(a.len(), 100);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        }
    }

    #[test]
    fn different_seeds_differ_for_random_processes() {
        let proc = ArrivalProcess::poisson(SimDuration::from_micros(50));
        assert_ne!(proc.schedule(1, 50), proc.schedule(2, 50));
        // Uniform ignores the seed by construction.
        let uni = ArrivalProcess::uniform(SimDuration::from_micros(10));
        assert_eq!(uni.schedule(1, 50), uni.schedule(2, 50));
    }

    #[test]
    fn poisson_mean_gap_is_roughly_honored() {
        let mean = SimDuration::from_micros(100);
        let sched = ArrivalProcess::poisson(mean).schedule(7, 2_000);
        let avg = sched.last().unwrap().0 / 2_000;
        // 2000 draws: the sample mean lands well within 2× either way.
        assert!(
            avg > mean.as_nanos() / 2 && avg < mean.as_nanos() * 2,
            "avg gap {avg}ns"
        );
    }

    #[test]
    fn bursty_packs_sessions_inside_bursts() {
        let sched =
            ArrivalProcess::bursty(SimDuration::from_millis(1), 4, SimDuration::from_nanos(10))
                .schedule(3, 8);
        // Sessions 0..4 and 4..8 are two bursts: tight inside, wide between.
        assert_eq!(sched[3].0 - sched[0].0, 30);
        assert_eq!(sched[7].0 - sched[4].0, 30);
        assert!(sched[4].0 - sched[3].0 > 30, "gap between bursts dominates");
    }

    #[test]
    fn qos_ordering_is_nested() {
        // Privilege must be monotone: weights and headroom strictly
        // decrease from guaranteed to best-effort, so admission windows
        // nest and the DRR quantum never starves a lower class to zero.
        for w in QOS_CLASSES.windows(2) {
            assert!(w[0].weight() > w[1].weight());
            assert!(w[0].headroom() > w[1].headroom());
        }
        assert_eq!(QosClass::BestEffort.weight(), 1);
        assert_eq!(QosClass::BestEffort.headroom(), 1);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut lat = LatencyRecorder::new(2);
        for ns in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            lat.record(0, SimDuration::from_nanos(ns));
        }
        assert_eq!(lat.p50(0), Some(SimDuration::from_nanos(50)));
        assert_eq!(lat.p99(0), Some(SimDuration::from_nanos(100)));
        assert_eq!(lat.p999(0), Some(SimDuration::from_nanos(100)));
        assert_eq!(lat.percentile(0, 10.0), Some(SimDuration::from_nanos(10)));
        assert_eq!(lat.p50(1), None, "empty tenant has no percentile");
        assert_eq!(lat.count(0), 10);
        assert_eq!(lat.max(), Some(SimDuration::from_nanos(100)));
    }

    #[test]
    fn tiny_sample_percentiles_clamp_to_the_extremes() {
        // One observation: every quantile is that observation.
        let mut one = LatencyRecorder::new(1);
        one.record(0, SimDuration::from_nanos(7));
        for q in [0.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(one.percentile(0, q), Some(SimDuration::from_nanos(7)));
        }

        // Fewer than 1000 observations: p999 is the maximum, never an
        // index past the sorted buffer.
        let mut few = LatencyRecorder::new(1);
        for ns in [30u64, 10, 20] {
            few.record(0, SimDuration::from_nanos(ns));
        }
        assert_eq!(few.p999(0), Some(SimDuration::from_nanos(30)));
        assert_eq!(few.percentile(0, 100.0), Some(SimDuration::from_nanos(30)));
        assert_eq!(few.percentile(0, 0.0), Some(SimDuration::from_nanos(10)));

        let mut ten = LatencyRecorder::new(1);
        for ns in 1..=10u64 {
            ten.record(0, SimDuration::from_nanos(ns));
        }
        assert_eq!(ten.p999(0), Some(SimDuration::from_nanos(10)));
    }

    #[test]
    fn large_sample_p999_is_not_the_max() {
        // At n=1000 the 99.9th nearest rank is the 999th smallest sample,
        // one below the maximum — the clamp must not flatten it to max.
        let mut lat = LatencyRecorder::new(1);
        for ns in 1..=1000u64 {
            lat.record(0, SimDuration::from_nanos(ns));
        }
        assert_eq!(lat.p999(0), Some(SimDuration::from_nanos(999)));
        assert_eq!(
            lat.percentile(0, 100.0),
            Some(SimDuration::from_nanos(1000))
        );
        assert_eq!(lat.p99(0), Some(SimDuration::from_nanos(990)));
    }

    /// Nearest rank by its definition: sort, then index.
    fn rank_by_sorting(samples: &[u64], q: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let r = ((q * sorted.len() as f64) / 100.0).ceil() as usize;
        sorted[r.clamp(1, sorted.len()) - 1]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Selection finds the value sorting would: with heavy duplicates
        /// (values drawn from four), with one sample, at the quantiles the
        /// serving plane reports, at both edges and at arbitrary ones.
        #[test]
        fn rank_by_selection_matches_sorting(
            samples in prop_oneof![
                prop::collection::vec(any::<u64>(), 1..2),
                prop::collection::vec(0u64..4, 1..300),
                prop::collection::vec(any::<u64>(), 1..300),
            ],
            q in prop_oneof![
                Just(0.0),
                Just(50.0),
                Just(99.0),
                Just(99.9),
                Just(100.0),
                0.0f64..100.0,
            ],
        ) {
            let want = rank_by_sorting(&samples, q);
            prop_assert_eq!(rank(samples, q), Some(SimDuration::from_nanos(want)));
        }
    }
}
