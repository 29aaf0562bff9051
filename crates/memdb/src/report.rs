//! Per-operator instrumentation of query execution.
//!
//! Every operator runs through [`teleport::run_placed`], the placement wrap
//! graphproc's and mapred's phases share, under a [`PushdownPlan`] of
//! operator names, and records its [`WorkStat`] (the per-operator
//! quantities of Fig 10 and the input to §7.4's memory-intensity metric)
//! beside its output cardinality.

use std::fmt;

use ddc_sim::SimDuration;
use teleport::{run_placed, Arm, Plan, Runtime, WorkStat};

/// Which operators of a query run in the memory pool, by name.
pub type PushdownPlan = Plan<&'static str>;

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

    /// Each operator run's name and stat, in run order: the profile
    /// [`PushdownPlan::auto`] reads.
    pub fn units(&self) -> impl Iterator<Item = (&'static str, WorkStat)> + '_ {
        self.ops.iter().map(|o| (o.name, o.stat))
    }

    /// Operator names ranked by descending memory intensity (§7.4's
    /// profiling step, run on the base DDC), ties by name.
    pub fn rank_by_intensity(&self) -> Vec<&'static str> {
        teleport::rank_by_intensity(self.units())
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
    let r = run_placed(rt, plan, name, &mut stat, f);
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
    fn totals_and_note_rows() {
        let mut rep = QueryReport::new("t");
        rep.ops.push(mk("x", 5, 0));
        rep.note_rows(42);
        rep.ops.push(mk("y", 7, 0));
        assert_eq!(rep.total(), SimDuration::from_millis(12));
        assert_eq!(rep.op("x").unwrap().rows_out, 42);
    }
}
