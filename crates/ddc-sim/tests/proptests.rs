//! Property tests for the simulation substrate.

use ddc_sim::{
    multiplex_makespan, Fabric, Interleaver, MsgClass, NetConfig, NetLedger, SimDuration, SimTime,
};
use proptest::prelude::*;

proptest! {
    /// Transfer time is monotone in message size and never below latency.
    #[test]
    fn transfer_time_monotone(a in 0usize..10_000_000, b in 0usize..10_000_000) {
        let net = NetConfig::default();
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(net.transfer_time(lo) <= net.transfer_time(hi));
        prop_assert!(net.transfer_time(lo) >= net.latency);
    }

    /// The fabric ledger exactly accounts every message and byte.
    #[test]
    fn ledger_accounts_all_traffic(sizes in prop::collection::vec(0usize..100_000, 0..50)) {
        let fab = Fabric::new(NetConfig::default());
        let mut bytes = 0u64;
        for (i, &sz) in sizes.iter().enumerate() {
            let class = match i % 3 {
                0 => MsgClass::PageIn,
                1 => MsgClass::PageOut,
                _ => MsgClass::RpcRequest,
            };
            let _ = fab.send(class, sz);
            bytes += sz as u64;
        }
        let ledger = fab.ledger();
        let [pi, po, rq] = [ledger.page_in, ledger.page_out, ledger.rpc_request];
        prop_assert_eq!(pi.messages + po.messages + rq.messages, sizes.len() as u64);
        prop_assert_eq!(pi.bytes + po.bytes + rq.bytes, bytes);
        // No other class holds a message or a byte.
        prop_assert_eq!(
            ledger,
            NetLedger { page_in: pi, page_out: po, rpc_request: rq, ..NetLedger::default() }
        );
    }

    /// The interleaver always steps the lane with the minimum clock, and
    /// the makespan equals the maximum lane clock.
    #[test]
    fn interleaver_min_clock_schedule(
        durations in prop::collection::vec(
            prop::collection::vec(1u64..1_000, 1..20),
            1..6,
        )
    ) {
        let mut il = Interleaver::new(durations.len());
        let mut queues: Vec<std::collections::VecDeque<u64>> =
            durations.iter().map(|d| d.iter().copied().collect()).collect();
        let mut expected_totals: Vec<u64> =
            durations.iter().map(|d| d.iter().sum()).collect();
        let mut finished = vec![false; durations.len()];
        while let Some(lane) = il.next_lane() {
            // The chosen lane's clock is minimal among unfinished lanes.
            for (other, &done) in finished.iter().enumerate() {
                if !done {
                    prop_assert!(il.clock_of(lane) <= il.clock_of(other));
                }
            }
            match queues[lane].pop_front() {
                Some(d) => il.advance(lane, SimDuration::from_nanos(d)),
                None => {
                    il.finish(lane);
                    finished[lane] = true;
                }
            }
        }
        let max_total = expected_totals.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(il.makespan().as_nanos(), max_total);
        expected_totals.clear();
    }

    /// Multiplexed makespan is bounded below by both the longest job and
    /// perfect parallelism over the real core count, and above by full
    /// serialization (plus nothing: overhead only slows concurrent modes,
    /// which are still bounded by the serial sum).
    #[test]
    fn multiplex_bounds(
        jobs_ns in prop::collection::vec(1_000u64..50_000_000, 1..16),
        contexts in 1usize..6,
        cores in 1usize..4,
    ) {
        let jobs: Vec<SimDuration> =
            jobs_ns.iter().map(|&n| SimDuration::from_nanos(n)).collect();
        let total: u64 = jobs_ns.iter().sum();
        let longest: u64 = jobs_ns.iter().copied().max().unwrap();
        let t = multiplex_makespan(
            &jobs,
            contexts,
            cores,
            SimDuration::from_micros(5),
            SimDuration::from_millis(1),
        );
        prop_assert!(t.as_nanos() >= longest);
        prop_assert!(t.as_nanos() * (contexts.min(cores) as u64) + 1_000 >= total / cores as u64);
        // Never slower than 2x serial (overhead factor is bounded).
        prop_assert!(t.as_nanos() <= total * 2 + 1_000);
    }

    /// SimTime/SimDuration arithmetic is consistent.
    #[test]
    fn time_arithmetic(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let t = SimTime(a) + SimDuration(b);
        prop_assert_eq!(t.since(SimTime(a)), SimDuration(b));
        prop_assert_eq!(SimTime(a).since(t), SimDuration::ZERO);
    }
}
