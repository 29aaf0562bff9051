//! The one placement wrap, [`run_placed`], that memdb's operators and
//! graphproc's and mapred's phases run through (pushing a unit is "a single
//! wrapped call", §5), and what a unit cost, [`WorkStat`] (§7.4's inputs).

use std::fmt;
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

/// Run `f` as one invocation of `unit`: as a pushdown if `push` and the
/// runtime is Teleport, compute-side otherwise, adding the elapsed time and
/// page-in + page-out traffic around the call to `stat`. A failed pushdown
/// panics with a message naming `unit`.
pub fn run_placed<R>(
    rt: &mut Runtime,
    push: bool,
    unit: impl fmt::Debug,
    stat: &mut WorkStat,
    f: impl FnOnce(&mut Arm<'_>) -> R,
) -> R {
    let t0 = rt.elapsed();
    let l0 = rt.net_ledger();
    let pushed = push && rt.kind() == PlatformKind::Teleport;
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
    fn bump(rt: &mut Runtime, col: &Region<u64>, push: bool, stat: &mut WorkStat) -> u64 {
        run_placed(rt, push, "bump", stat, |m| {
            let mut sum = 0;
            for i in (0..col.len()).step_by(512) {
                let v = m.get(col, i, Pattern::Rand) + 1;
                m.set(col, i, v, Pattern::Rand);
                sum += v;
            }
            sum
        })
    }

    /// A unit marked "push" is one pushdown on Teleport only. Elsewhere it
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
                let (t0, l0) = (rt.elapsed(), rt.net_ledger());
                assert_eq!(bump(&mut rt, &col, push, &mut stat), sum, "{kind:?}");
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
        bump(&mut rt, &col, true, &mut WorkStat::default());
    }
}
