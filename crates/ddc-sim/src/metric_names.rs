//! Central registry of every metric name used across the workspace.
//!
//! Counters in a [`MetricsRegistry`](crate::MetricsRegistry)
//! are addressed by `&'static str` literals scattered across `ddc-os`,
//! `core`, and the workloads. A typo in one of those literals silently
//! forks a new counter instead of updating the intended one, so
//! `ddc-analyze` cross-checks every metric-shaped string literal in
//! non-test source against this table. Adding a metric therefore means
//! adding it here first; the analyzer fails the build otherwise.
//!
//! Names follow `component.counter[.sub]` with lowercase snake-case
//! segments. Keep the table sorted so diffs stay reviewable.

/// Every metric name the workspace is allowed to emit.
pub const METRIC_NAMES: &[&str] = &[
    "admission.sheds",
    "coherence.backoffs",
    "coherence.pages_written_memside",
    "coherence.round_trips",
    "failover.cache_invalidations",
    "failover.count",
    "failover.epoch",
    "failover.lost_pages",
    "failover.pages_refetched",
    "failover.promotions",
    "faults.injected",
    "health.probe_ns",
    "health.probes",
    "health.quarantines",
    "health.reintegrations",
    "health.transitions",
    "hedge.credit_ns",
    "hedge.fired",
    "hedge.won",
    "integrity.data_loss",
    "integrity.detected",
    "integrity.pages_sealed",
    "integrity.repaired",
    "integrity.repaired_from_replica",
    "integrity.repaired_from_ssd",
    "net.coherence.bytes",
    "net.coherence.messages",
    "net.control.bytes",
    "net.control.messages",
    "net.page_in.bytes",
    "net.page_in.messages",
    "net.page_out.bytes",
    "net.page_out.messages",
    "net.replication.bytes",
    "net.replication.messages",
    "net.rpc_request.bytes",
    "net.rpc_request.messages",
    "net.rpc_response.bytes",
    "net.rpc_response.messages",
    "paging.cache_hits",
    "paging.cache_misses",
    "paging.evictions",
    "paging.mem_side_accesses",
    "paging.remote_page_in",
    "paging.remote_page_out",
    "paging.storage_page_in",
    "paging.storage_page_out",
    "pushdown.calls",
    "pushdown.deadline_misses",
    "recovery.crashes",
    "recovery.fenced_writes",
    "recovery.replayed_entries",
    "recovery.resilvered_pages",
    "recovery.restarts",
    "recovery.torn_tails",
    "replication.acks",
    "replication.journal_appends",
    "replication.pages_shipped",
    "replication.pending_entries",
    "replication.ship_messages",
    "resilience.fallbacks",
    "resilience.retries",
    "rpc.wakeups",
    "scrub.detected",
    "scrub.pages_scanned",
    "scrub.passes",
    "serve.admitted",
    "serve.arrived",
    "serve.availability_ppm",
    "serve.best_effort.completed",
    "serve.best_effort.shed",
    "serve.burstable.completed",
    "serve.burstable.shed",
    "serve.busy_ns",
    "serve.completed",
    "serve.contexts",
    "serve.deadline_misses",
    "serve.failed",
    "serve.guaranteed.completed",
    "serve.guaranteed.shed",
    "serve.hedge_wins",
    "serve.hedges",
    "serve.makespan_ns",
    "serve.queue_peak_depth",
    "serve.shed",
    "serve.tenants",
    "serve.utilization_ppm",
    "ssd.bulk_bytes_read",
    "ssd.bulk_reads",
    "ssd.page_reads",
    "ssd.page_writes",
    "topology.fanout_pushdowns",
    "topology.pools",
    "topology.routed_pushdowns",
    "trace.admission_sheds",
    "trace.cancels",
    "trace.cancels_declined",
    "trace.checksum_mismatches",
    "trace.coherence_msgs",
    "trace.corruptions_injected",
    "trace.data_losses",
    "trace.deadline_exceededs",
    "trace.evicts",
    "trace.fail_slows",
    "trace.fanout_merges",
    "trace.faults_injected",
    "trace.fenced_writes",
    "trace.health_transitions",
    "trace.hedges_fired",
    "trace.hedges_won",
    "trace.journal_replays",
    "trace.net_msgs",
    "trace.page_faults",
    "trace.pages_repaired",
    "trace.pool_crashes",
    "trace.pool_promotions",
    "trace.pool_reintegrations",
    "trace.pool_restarts",
    "trace.pool_routeds",
    "trace.pushdown_fanouts",
    "trace.pushdown_steps",
    "trace.races_detected",
    "trace.recoveries",
    "trace.replica_acks",
    "trace.replica_ships",
    "trace.resilver_completes",
    "trace.scrub_passes",
    "trace.session_admits",
    "trace.session_arrives",
    "trace.session_completes",
    "trace.ssd_ios",
    "trace.syncmems",
    "trace.tenant_throttleds",
    "trace.timeouts",
    "trace.torn_tails",
];

/// True if `name` is a registered metric name.
pub fn is_registered(name: &str) -> bool {
    METRIC_NAMES.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_unique() {
        for w in METRIC_NAMES.windows(2) {
            assert!(w[0] < w[1], "{} must sort before {}", w[0], w[1]);
        }
    }

    #[test]
    fn lookup_works() {
        assert!(is_registered("paging.cache_hits"));
        assert!(is_registered("trace.races_detected"));
        assert!(!is_registered("paging.cache_hitz"));
    }
}
