//! Distributed-DBMS baselines for Fig 1b's "cost of scaling" comparison.
//!
//! The paper contrasts the DDC's cost of scaling against two distributed
//! in-memory DBMSs on monolithic servers: SparkSQL (1.2× over purely local
//! execution) and Vertica (2.3×). Neither codebase is reproducible here, so
//! this module prices a *shared-nothing distributed execution* of the same
//! physical plans from first principles:
//!
//! - per-operator compute parallelizes across nodes (local-time / N);
//! - exchange operators (joins, group-bys, sorts) repartition their inputs
//!   over the network and pay per-tuple (de)serialization;
//! - the *stage-materializing* profile additionally writes and re-reads
//!   every stage boundary (SparkSQL's shuffle files / unsafe rows);
//! - the *pipelined MPP* profile streams between operators but pays higher
//!   per-exchange coordination and per-tuple messaging costs.
//!
//! The model's purpose is the paper's *band*: distributed message-passing
//! scaling costs sit at a small constant factor (≈1–3×) over local
//! execution — far below an unmodified DDC's 5.4× — and TELEPORT brings
//! the DDC back into that band.

use ddc_sim::{CpuConfig, NetConfig, SimDuration};

use crate::report::QueryReport;

/// Which distributed engine style to price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistProfile {
    /// Stage-materializing dataflow (SparkSQL-like): cheap per-tuple path
    /// from whole-stage codegen, but every exchange is a full materialize.
    StageMaterializing,
    /// Pipelined columnar MPP (Vertica-like): streams between operators,
    /// heavier per-tuple exchange path and per-operator coordination.
    PipelinedMpp,
}

/// Cluster configuration for the distributed baselines.
#[derive(Debug, Clone)]
pub struct DistConfig {
    pub nodes: usize,
    pub net: NetConfig,
    pub cpu: CpuConfig,
    pub profile: DistProfile,
}

impl DistConfig {
    pub fn new(nodes: usize, profile: DistProfile) -> Self {
        DistConfig {
            nodes,
            net: NetConfig::default(),
            cpu: CpuConfig::new(2.1, 8),
            profile,
        }
    }
}

/// Average row width at an exchange, in bytes (key + a few value columns).
const EXCHANGE_ROW_BYTES: f64 = 32.0;

fn is_exchange(op_name: &str) -> bool {
    op_name.starts_with("HashJoin")
        || op_name.starts_with("MergeJoin")
        || op_name.starts_with("GroupAggregate")
        || op_name.starts_with("Sort")
        || op_name == "Aggregation" // final merge of partial aggregates
}

/// Price a distributed execution of the plan that produced `local_report`
/// (measured on the monolithic platform). Returns the estimated makespan.
///
/// Fig 1b's local baseline uses *the same total resources* in one server,
/// so distribution does not shrink compute — it only inserts message
/// passing (the paper's "cost of scaling"). The model therefore charges
/// the full local compute time scaled by an engine-efficiency factor, plus
/// exchange costs where the plan repartitions.
pub fn estimate(local_report: &QueryReport, cfg: &DistConfig) -> SimDuration {
    assert!(cfg.nodes >= 1);
    // (engine factor num/den, per-tuple exchange cycles, stage barrier,
    //  materializes stage boundaries?)
    let (ef_num, ef_den, ser_cycles, stage_overhead, materialize) = match cfg.profile {
        DistProfile::StageMaterializing => {
            (105u64, 100u64, 30u64, SimDuration::from_micros(500), true)
        }
        DistProfile::PipelinedMpp => (135, 100, 400, SimDuration::from_micros(100), false),
    };

    let mut total = SimDuration::ZERO;
    let mut prev_rows: u64 = 0;
    for op in &local_report.ops {
        total += op.stat.time * ef_num / ef_den;

        if is_exchange(op.name) && cfg.nodes > 1 {
            // An exchange repartitions the operator's *input*, which the
            // operator-at-a-time plan delivers as the previous operator's
            // output.
            let rows = prev_rows.max(op.rows_out).max(1);
            let bytes = rows as f64 * EXCHANGE_ROW_BYTES;
            // All-to-all repartitioning: the bisection carries bytes/N per
            // link in parallel.
            let wire = bytes / cfg.nodes as f64;
            total += cfg.net.transfer_time(wire as usize);
            // Per-tuple (de)serialization, parallel across nodes.
            total += cfg.cpu.cycles(2 * ser_cycles * rows / cfg.nodes as u64);
            total += stage_overhead;
            if materialize {
                // Write + read of the shuffle data at ~10 GB/s effective
                // memory bandwidth, parallel across nodes.
                total += SimDuration::from_nanos((2.0 * bytes * 0.1 / cfg.nodes as f64) as u64);
            }
        }
        prev_rows = op.rows_out;
    }
    total
}

/// The Fig 1b "cost of scaling": distributed time over purely-local time.
pub fn cost_of_scaling(local_report: &QueryReport, cfg: &DistConfig) -> f64 {
    estimate(local_report, cfg).ratio(local_report.total())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::OpReport;
    use teleport::WorkStat;

    fn fake_report() -> QueryReport {
        let mut rep = QueryReport::new("fake");
        let mk = |name: &'static str, ms: u64, rows: u64| OpReport {
            name,
            stat: WorkStat {
                time: SimDuration::from_millis(ms),
                ..WorkStat::default()
            },
            rows_out: rows,
        };
        rep.ops.push(mk("Selection", 400, 3_000_000));
        rep.ops.push(mk("HashJoin(part)", 600, 150_000));
        rep.ops.push(mk("Expression", 150, 150_000));
        rep.ops.push(mk("GroupAggregate", 200, 175));
        rep
    }

    #[test]
    fn single_node_pays_only_the_engine_factor() {
        let rep = fake_report();
        let cfg = DistConfig::new(1, DistProfile::StageMaterializing);
        let t = estimate(&rep, &cfg);
        assert!(t >= rep.total());
        assert!(t.ratio(rep.total()) < 1.1, "no exchanges on one node");
    }

    #[test]
    fn scaling_cost_lands_in_the_papers_band() {
        let rep = fake_report();
        for profile in [DistProfile::StageMaterializing, DistProfile::PipelinedMpp] {
            let cfg = DistConfig::new(4, profile);
            let cost = cost_of_scaling(&rep, &cfg);
            // Fig 1b: distributed engines scale at a small constant factor
            // over a same-total-resources local run (1.2x / 2.3x).
            assert!(
                (1.0..3.5).contains(&cost),
                "{profile:?} cost of scaling {cost:.2}"
            );
        }
    }

    #[test]
    fn mpp_pays_more_per_exchange_than_stage_dataflow_saves() {
        let rep = fake_report();
        let spark = cost_of_scaling(&rep, &DistConfig::new(4, DistProfile::StageMaterializing));
        let vertica = cost_of_scaling(&rep, &DistConfig::new(4, DistProfile::PipelinedMpp));
        assert!(
            vertica > spark,
            "pipelined MPP ({vertica:.2}) should cost more than stage dataflow ({spark:.2}) \
             on this exchange-heavy plan, as in Fig 1b"
        );
    }

    #[test]
    fn more_nodes_reduce_compute_share() {
        let rep = fake_report();
        let t2 = estimate(&rep, &DistConfig::new(2, DistProfile::StageMaterializing));
        let t8 = estimate(&rep, &DistConfig::new(8, DistProfile::StageMaterializing));
        assert!(t8 < t2);
    }
}
