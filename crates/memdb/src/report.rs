//! Per-operator instrumentation of query execution.
//!
//! Every operator runs through [`teleport::run_placed`], the placement wrap
//! graphproc's and mapred's phases share, and records its [`WorkStat`] (the
//! per-operator quantities of Fig 10 and the input to §7.4's
//! memory-intensity metric) beside its output cardinality.

use std::collections::HashSet;
use std::fmt;

use ddc_sim::SimDuration;
use teleport::{run_placed, Arm, Runtime, WorkStat};

/// Measurements for one operator instance.
#[derive(Debug, Clone)]
pub struct OpReport {
    pub name: &'static str,
    /// Time, remote traffic and placement of the operator's one run.
    pub stat: WorkStat,
    /// Output cardinality, when the operator has one.
    pub rows_out: u64,
}

/// Measurements for a whole query.
#[derive(Debug, Clone, Default)]
pub struct QueryReport {
    pub query: &'static str,
    pub ops: Vec<OpReport>,
}

impl QueryReport {
    pub fn new(query: &'static str) -> Self {
        QueryReport {
            query,
            ops: Vec::new(),
        }
    }

    pub fn total(&self) -> SimDuration {
        self.ops.iter().map(|o| o.stat.time).sum()
    }

    pub fn op(&self, name: &str) -> Option<&OpReport> {
        self.ops.iter().find(|o| o.name == name)
    }

    /// Operator names ranked by descending memory intensity (§7.4's
    /// profiling step, run on the base DDC).
    pub fn rank_by_intensity(&self) -> Vec<&'static str> {
        let mut ranked: Vec<&OpReport> = self.ops.iter().collect();
        ranked.sort_by(|a, b| {
            b.stat
                .memory_intensity()
                .total_cmp(&a.stat.memory_intensity())
                .then(a.name.cmp(b.name))
        });
        ranked.iter().map(|o| o.name).collect()
    }

    /// Annotate the most recent operator with its output cardinality.
    pub fn note_rows(&mut self, rows: u64) {
        if let Some(last) = self.ops.last_mut() {
            last.rows_out = rows;
        }
    }
}

impl fmt::Display for QueryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: total {}", self.query, self.total())?;
        for op in &self.ops {
            writeln!(
                f,
                "  {}{:<24} {:>12}  remote {:>8} pages / {:>6.1} MB  rows {}",
                if op.stat.pushed > 0 { "*" } else { " " },
                op.name,
                op.stat.time.to_string(),
                op.stat.remote_accesses,
                op.stat.remote_bytes as f64 / 1e6,
                op.rows_out,
            )?;
        }
        Ok(())
    }
}

/// Which operators of a plan run in the memory pool.
#[derive(Debug, Clone, Default)]
pub struct PushdownPlan {
    pushed: HashSet<&'static str>,
}

impl PushdownPlan {
    /// Nothing pushed: the base-DDC (or local) execution.
    pub fn none() -> Self {
        Self::default()
    }

    /// Push the named operators.
    pub fn of(names: &[&'static str]) -> Self {
        PushdownPlan {
            pushed: names.iter().copied().collect(),
        }
    }

    /// Push the first `k` of an intensity-ranked operator list (§7.4's
    /// "level of pushdown").
    pub fn top_k(ranking: &[&'static str], k: usize) -> Self {
        Self::of(&ranking[..k.min(ranking.len())])
    }

    /// The paper's §7.4 threshold rule, automated: push every operator
    /// whose profiled memory intensity exceeds `threshold_rm_per_sec`.
    /// The paper found 80 K remote accesses per second a good split on its
    /// testbed; [`PushdownPlan::PAPER_THRESHOLD_RM_S`] carries that value.
    pub fn auto(profile: &QueryReport, threshold_rm_per_sec: f64) -> Self {
        let pushed = profile
            .ops
            .iter()
            .filter(|o| o.stat.memory_intensity() > threshold_rm_per_sec)
            .map(|o| o.name)
            .collect();
        PushdownPlan { pushed }
    }

    /// The 80 K RM/s split of §7.4.
    pub const PAPER_THRESHOLD_RM_S: f64 = 80_000.0;

    pub fn is_pushed(&self, name: &str) -> bool {
        self.pushed.contains(name)
    }

    pub fn len(&self) -> usize {
        self.pushed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pushed.is_empty()
    }
}

/// Run one operator under the plan's placement decision, recording its
/// measurements.
pub fn op<R>(
    rt: &mut Runtime,
    rep: &mut QueryReport,
    plan: &PushdownPlan,
    name: &'static str,
    f: impl FnOnce(&mut Arm<'_>) -> R,
) -> R {
    let mut stat = WorkStat::default();
    let r = run_placed(rt, plan.is_pushed(name), name, &mut stat, f);
    rep.ops.push(OpReport {
        name,
        stat,
        rows_out: 0,
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(name: &'static str, ms: u64, accesses: u64) -> OpReport {
        let stat = WorkStat {
            time: SimDuration::from_millis(ms),
            remote_accesses: accesses,
            remote_bytes: accesses * 4096,
            ..WorkStat::default()
        };
        OpReport {
            name,
            stat,
            rows_out: 0,
        }
    }

    #[test]
    fn intensity_ranking_orders_by_rm_per_second() {
        let mut rep = QueryReport::new("test");
        rep.ops.push(mk("cheap", 100, 10));
        rep.ops.push(mk("hot", 100, 10_000));
        rep.ops.push(mk("warm", 100, 1_000));
        assert_eq!(rep.rank_by_intensity(), vec!["hot", "warm", "cheap"]);
        assert!(rep.op("hot").unwrap().stat.memory_intensity() > 1e4);
    }

    #[test]
    fn plan_top_k() {
        let ranking = vec!["a", "b", "c"];
        let plan = PushdownPlan::top_k(&ranking, 2);
        assert!(plan.is_pushed("a") && plan.is_pushed("b"));
        assert!(!plan.is_pushed("c"));
        assert_eq!(PushdownPlan::top_k(&ranking, 99).len(), 3);
        assert!(PushdownPlan::none().is_empty());
    }

    #[test]
    fn auto_plan_uses_the_threshold() {
        let mut rep = QueryReport::new("t");
        rep.ops.push(mk("cold", 100, 100)); // 1K RM/s
        rep.ops.push(mk("hot", 100, 20_000)); // 200K RM/s
        rep.ops.push(mk("borderline", 100, 8_000)); // 80K RM/s exactly
        let plan = PushdownPlan::auto(&rep, PushdownPlan::PAPER_THRESHOLD_RM_S);
        assert!(plan.is_pushed("hot"));
        assert!(!plan.is_pushed("cold"));
        assert!(!plan.is_pushed("borderline"), "strictly above the split");
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn totals_and_note_rows() {
        let mut rep = QueryReport::new("t");
        rep.ops.push(mk("x", 5, 0));
        rep.note_rows(42);
        rep.ops.push(mk("y", 7, 0));
        assert_eq!(rep.total(), SimDuration::from_millis(12));
        assert_eq!(rep.op("x").unwrap().rows_out, 42);
    }
}
