//! The one placement wrap, [`run_placed`], that memdb's operators and
//! graphproc's and mapred's phases run through (pushing a unit is "a single
//! wrapped call", §5), the [`Plan`] it reads, and what a unit cost,
//! [`WorkStat`] (§7.4's inputs to [`rank_by_intensity`] and [`Plan::auto`]).

use std::fmt;
use std::hash::Hash;
use std::ops::AddAssign;

use ddc_sim::SimDuration;

use crate::{Arm, PlatformKind, PushdownOpts, Runtime};

/// What one unit of work (an operator, a phase) cost, summed over its
/// invocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkStat {
    /// Virtual time the unit ran for.
    pub time: SimDuration,
    /// Remote page movements (in + out) while the unit ran.
    pub remote_accesses: u64,
    /// Bytes of that page traffic.
    pub remote_bytes: u64,
    /// How many times the unit ran.
    pub invocations: u64,
    /// How many of those runs were pushed to the memory pool.
    pub pushed: u64,
}

impl WorkStat {
    /// The §7.4 memory-intensity metric: remote memory accesses per second
    /// of execution, 0 for a unit that took no time. Units above the
    /// threshold are pushdown candidates.
    pub fn memory_intensity(&self) -> f64 {
        let secs = self.time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.remote_accesses as f64 / secs
        }
    }
}

impl AddAssign for WorkStat {
    fn add_assign(&mut self, o: WorkStat) {
        self.time += o.time;
        self.remote_accesses += o.remote_accesses;
        self.remote_bytes += o.remote_bytes;
        self.invocations += o.invocations;
        self.pushed += o.pushed;
    }
}

/// Which units of an application (memdb operators, graphproc or mapred
/// phases) run in the memory pool.
#[derive(Debug, Clone)]
#[allow(clippy::disallowed_types)] // only probed, never iterated: no order reaches a result
pub struct Plan<U> {
    pushed: std::collections::HashSet<U>,
}

/// A unit type with the paper's own choice of what to push (§5.2, §5.3).
pub trait PaperUnits: Sized + 'static {
    const PAPER: &'static [Self];
}

impl<U: Copy + Eq + Hash> Plan<U> {
    /// The 80 K RM/s split of §7.4.
    pub const PAPER_THRESHOLD_RM_S: f64 = 80_000.0;

    /// Nothing pushed: the base-DDC (or local) execution.
    pub fn none() -> Self {
        Self::of(&[])
    }

    /// Push the given units.
    pub fn of(units: &[U]) -> Self {
        let pushed = units.iter().copied().collect();
        Plan { pushed }
    }

    /// Push the first `k` of an intensity-ranked unit list (§7.4's "level
    /// of pushdown").
    pub fn top_k(ranking: &[U], k: usize) -> Self {
        Self::of(&ranking[..k.min(ranking.len())])
    }

    /// The paper's §7.4 threshold rule, automated: push every profiled
    /// entry whose memory intensity is strictly above `threshold` remote
    /// accesses per second, each entry judged on its own. The paper found
    /// 80 K RM/s a good split on its testbed; [`Plan::PAPER_THRESHOLD_RM_S`]
    /// carries that value.
    pub fn auto(profile: impl IntoIterator<Item = (U, WorkStat)>, threshold: f64) -> Self {
        let hot = profile
            .into_iter()
            .filter(|(_, s)| s.memory_intensity() > threshold);
        let pushed = hot.map(|(unit, _)| unit).collect();
        Plan { pushed }
    }

    pub fn is_pushed(&self, unit: U) -> bool {
        self.pushed.contains(&unit)
    }

    pub fn len(&self) -> usize {
        self.pushed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pushed.is_empty()
    }
}

impl<U: PaperUnits + Copy + Eq + Hash> Plan<U> {
    /// The paper's hand-picked plan, [`PaperUnits::PAPER`].
    pub fn paper() -> Self {
        Self::of(U::PAPER)
    }
}

/// Units ranked by descending memory intensity (§7.4's profiling step, run
/// on the base DDC), ties by `U`'s order. Every entry keeps its place; none
/// are merged by unit.
pub fn rank_by_intensity<U: Ord>(profile: impl IntoIterator<Item = (U, WorkStat)>) -> Vec<U> {
    let mut ranked: Vec<(U, WorkStat)> = profile.into_iter().collect();
    let intensity = |(_, s): &(U, WorkStat)| s.memory_intensity();
    ranked.sort_by(|a, b| intensity(b).total_cmp(&intensity(a)).then(a.0.cmp(&b.0)));
    ranked.into_iter().map(|(unit, _)| unit).collect()
}

/// Run `f` as one invocation of `unit`: as a pushdown if `plan` pushes it
/// and the runtime is Teleport, compute-side otherwise, adding the elapsed
/// time and page-in + page-out traffic around the call to `stat`. A failed
/// pushdown panics with a message naming `unit`.
pub fn run_placed<U: Copy + Eq + Hash + fmt::Debug, R>(
    rt: &mut Runtime,
    plan: &Plan<U>,
    unit: U,
    stat: &mut WorkStat,
    f: impl FnOnce(&mut Arm<'_>) -> R,
) -> R {
    let t0 = rt.elapsed();
    let l0 = rt.net_ledger();
    let pushed = plan.is_pushed(unit) && rt.kind() == PlatformKind::Teleport;
    let r = if pushed {
        rt.pushdown(PushdownOpts::new(), f)
            .unwrap_or_else(|e| panic!("pushdown of {unit:?} failed: {e}"))
    } else {
        rt.run_local(f)
    };
    let l1 = rt.net_ledger();
    *stat += WorkStat {
        time: rt.elapsed() - t0,
        remote_accesses: (l1.page_in.messages + l1.page_out.messages)
            - (l0.page_in.messages + l0.page_out.messages),
        remote_bytes: l1.page_bytes() - l0.page_bytes(),
        invocations: 1,
        pushed: u64::from(pushed),
    };
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mem, Region};
    use ddc_os::Pattern;
    use ddc_sim::{DdcConfig, FaultPlan, MonolithicConfig};
    use PlatformKind::{BaseDdc, Local, Teleport};

    /// A rack whose compute cache holds 4 pages, and a 64-page column.
    fn rack(kind: PlatformKind) -> (Runtime, Region<u64>) {
        let ddc = DdcConfig {
            compute_cache_bytes: 4 * 4096,
            ..Default::default()
        };
        let mut rt = match kind {
            Local => Runtime::local(MonolithicConfig::default()),
            BaseDdc => Runtime::base_ddc(ddc),
            Teleport => Runtime::teleport(ddc),
        };
        let col = rt.alloc_region(64 * 512);
        (rt, col)
    }

    /// Run a unit that adds 1 to one element on each of the column's pages
    /// (faults and dirty evictions off Local); return the sum it wrote.
    fn bump(rt: &mut Runtime, col: &Region<u64>, plan: &Plan<&str>, stat: &mut WorkStat) -> u64 {
        run_placed(rt, plan, "bump", stat, |m| {
            let mut sum = 0;
            for i in (0..col.len()).step_by(512) {
                let v = m.get(col, i, Pattern::Rand) + 1;
                m.set(col, i, v, Pattern::Rand);
                sum += v;
            }
            sum
        })
    }

    /// A unit the plan pushes is one pushdown on Teleport only. Elsewhere it
    /// runs compute-side and takes no call index, so call 0's injected
    /// exception never reaches it. Each call adds one invocation and the
    /// elapsed time and page-in + page-out traffic around it.
    #[test]
    fn push_is_a_pushdown_on_teleport_only_and_the_stat_is_the_deltas() {
        for kind in [Local, BaseDdc, Teleport] {
            let (mut rt, col) = rack(kind);
            if kind != Teleport {
                rt.install_fault_plan(FaultPlan::new(1).pushdown_exception(0));
            }
            let on_teleport = u64::from(kind == Teleport);
            let (mut stat, mut want) = (WorkStat::default(), WorkStat::default());
            for (push, sum) in [(true, 64), (false, 128)] {
                let plan = if push {
                    Plan::of(&["bump"])
                } else {
                    Plan::none()
                };
                let (t0, l0) = (rt.elapsed(), rt.net_ledger());
                assert_eq!(bump(&mut rt, &col, &plan, &mut stat), sum, "{kind:?}");
                let l1 = rt.net_ledger();
                want += WorkStat {
                    time: rt.elapsed() - t0,
                    remote_accesses: l1.page_in.messages - l0.page_in.messages
                        + (l1.page_out.messages - l0.page_out.messages),
                    remote_bytes: l1.page_bytes() - l0.page_bytes(),
                    invocations: 1,
                    pushed: u64::from(push) * on_teleport,
                };
                assert_eq!(stat, want, "{kind:?}, push {push}");
            }
            assert_eq!(rt.pushdown_calls(), on_teleport, "{kind:?}");
            assert_eq!((stat.invocations, stat.pushed), (2, on_teleport));
            assert!(kind == Local || rt.net_ledger().page_out.messages > 0);
        }
    }

    #[test]
    fn intensity_is_accesses_per_second_and_zero_at_zero_time() {
        let mut stat = WorkStat {
            remote_accesses: 8_000,
            ..WorkStat::default()
        };
        assert_eq!(stat.memory_intensity(), 0.0);
        stat.time = SimDuration::from_millis(100);
        assert_eq!(stat.memory_intensity(), 80_000.0);
    }

    #[test]
    #[should_panic(expected = "pushdown of \"bump\" failed")]
    fn a_failed_pushdown_panics_naming_the_unit() {
        let (mut rt, col) = rack(Teleport);
        rt.install_fault_plan(FaultPlan::new(1).pushdown_exception(0));
        bump(
            &mut rt,
            &col,
            &Plan::of(&["bump"]),
            &mut WorkStat::default(),
        );
    }

    fn stat(ms: u64, accesses: u64) -> WorkStat {
        WorkStat {
            time: SimDuration::from_millis(ms),
            remote_accesses: accesses,
            remote_bytes: accesses * 4096,
            ..WorkStat::default()
        }
    }

    #[test]
    fn intensity_ranking_orders_by_rm_per_second() {
        let profile = [
            ("cheap", stat(100, 10)),
            ("hot", stat(100, 10_000)),
            ("warm", stat(100, 1_000)),
        ];
        assert_eq!(rank_by_intensity(profile), vec!["hot", "warm", "cheap"]);
        assert!(profile[1].1.memory_intensity() > 1e4);
    }

    #[test]
    fn plan_top_k() {
        let ranking = vec!["a", "b", "c"];
        let plan = Plan::top_k(&ranking, 2);
        assert!(plan.is_pushed("a") && plan.is_pushed("b"));
        assert!(!plan.is_pushed("c"));
        assert_eq!(Plan::top_k(&ranking, 99).len(), 3);
        assert!(Plan::<&str>::none().is_empty());
    }

    #[test]
    fn auto_plan_uses_the_threshold() {
        let profile = [
            ("cold", stat(100, 100)),         // 1K RM/s
            ("hot", stat(100, 20_000)),       // 200K RM/s
            ("borderline", stat(100, 8_000)), // 80K RM/s exactly
        ];
        let plan = Plan::auto(profile, Plan::<&str>::PAPER_THRESHOLD_RM_S);
        assert!(plan.is_pushed("hot"));
        assert!(!plan.is_pushed("cold"));
        assert!(!plan.is_pushed("borderline"), "strictly above the split");
        assert_eq!(plan.len(), 1);
    }

    /// Equal intensities, zero-time units among them, rank by the unit's
    /// order, whatever order they were profiled in; and one rule picks the
    /// plan for names and phases alike.
    #[test]
    fn intensity_ties_rank_by_unit_order_for_names_and_phases() {
        let profile = [
            ("scan", stat(1_000, 100_000)),
            ("zero_b", stat(0, 0)),
            ("agg", stat(100, 50_000)),
            ("join", stat(2_000, 200_000)),
            ("zero_a", stat(0, 7)),
        ];
        let ranked = rank_by_intensity(profile);
        assert_eq!(ranked, ["agg", "join", "scan", "zero_a", "zero_b"]);

        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        enum Phase {
            Finalize,
            Gather,
            Apply,
            Scatter,
        }
        use Phase::*;
        let profile = [
            (Scatter, stat(1_000, 100_000)),
            (Apply, stat(0, 0)),
            (Gather, stat(2_000, 200_000)),
            (Finalize, stat(0, 3)),
        ];
        let ranked = rank_by_intensity(profile);
        assert_eq!(ranked, [Gather, Scatter, Finalize, Apply]);
        let top3 = Plan::top_k(&ranked, 3);
        let pushed = [Gather, Scatter, Finalize, Apply].map(|p| top3.is_pushed(p));
        assert_eq!(pushed, [true, true, true, false]);
        let auto = Plan::auto(profile, Plan::<Phase>::PAPER_THRESHOLD_RM_S);
        assert!(auto.is_pushed(Gather) && auto.is_pushed(Scatter));
        assert_eq!(auto.len(), 2);
    }
}
