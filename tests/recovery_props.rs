//! Property tests for the crash-restart recovery plane.
//!
//! The invariants, in the order the tentpole demands them:
//!
//! 1. **Replay idempotency** — replaying a journal twice produces exactly
//!    the state one replay produces, both at the journal level (the
//!    replayable prefix is a pure function of the entries) and at the
//!    kernel level (a second crash+restart with no intervening writes
//!    changes nothing).
//! 2. **Fencing** — once a replica is promoted, no write from the dead
//!    epoch is ever observable: the zombie is fenced, the racing call
//!    surfaces [`PushdownError::Fenced`], and a retry lands on the new
//!    epoch with the oracle-exact value.
//! 3. **Bounded torn-tail loss** — a torn journal write loses at most the
//!    un-synced suffix, which the sync batch bounds.
//! 4. **Determinism** — same seed + same crash plan ⇒ identical trace
//!    story and byte-identical digest across two runs.
//! 5. **No crash plan panics** — up to three crashes per shard with
//!    overlapping outages, on one or two shards: every crash restarts,
//!    every zombie is fenced once, and a shard's epoch rises by one per
//!    crash.

use ddc_os::recovery::JOURNAL_SYNC_BATCH;
use ddc_os::{PageId, RecoveryJournal, ReplOp};
use ddc_sim::{
    DdcConfig, FaultPlan, PlacementPolicy, ReplicationMode, SimDuration, SimTime, TraceEvent,
};
use proptest::prelude::*;
use teleport::{
    ExecutionVia, Mem, Pattern, PushdownError, PushdownOpts, Region, ResiliencePolicy, Runtime,
};

const ELEMS: usize = 2048; // 4 pages of u64

fn column_vals(tag: u64) -> Vec<u64> {
    (0..ELEMS as u64)
        .map(|i| {
            (i ^ tag)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(13)
        })
        .collect()
}

/// Build a journal holding `synced` synced ops plus `tail` un-synced ones,
/// with op content derived from `tag`.
fn build_journal(synced: usize, tail: usize, tag: u64) -> RecoveryJournal {
    let mut j = RecoveryJournal::new(0);
    for i in 0..synced {
        j.append_synced(ReplOp::PageWrite(PageId(tag.wrapping_add(i as u64) % 64)));
    }
    // Un-synced entries ride `append` but stop short of the next sync
    // crossing, leaving them torn-able.
    for i in 0..tail {
        j.append(ReplOp::PageWrite(PageId(
            tag.wrapping_add(1000 + i as u64) % 64,
        )));
    }
    j
}

/// The end-to-end crash scenario: one shard, seeded content, a
/// `PoolCrashRestart` plan (optionally with a torn journal write), and a
/// resilient full-column sum issued into the crash. Returns
/// (digest, trace length, value, attempts, via, recovered runtime).
fn run_crash_scenario(
    seed: u64,
    replicated: bool,
    torn: bool,
) -> (u64, u64, u64, u32, ExecutionVia, Runtime) {
    let mut cfg = DdcConfig::with_cache_ratio(ELEMS * 8, 0.25);
    cfg.replication = if replicated {
        ReplicationMode::Synchronous
    } else {
        ReplicationMode::Off
    };
    let mut rt = Runtime::teleport(cfg);
    rt.enable_tracing();
    let vals = column_vals(seed);
    let col = rt.alloc_region::<u64>(ELEMS);
    rt.write_range(&col, 0, &vals);
    rt.begin_timing();
    let mut plan =
        FaultPlan::new(seed).pool_crash_restart(0, SimTime(0), SimDuration::from_nanos(200));
    if torn {
        plan = plan.torn_journal_write(0, SimTime(0));
    }
    rt.install_fault_plan(plan);

    let expected: u64 = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    let out = rt
        .pushdown_resilient(PushdownOpts::new(), &ResiliencePolicy::retry_only(), |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, col.len(), &mut buf);
            buf.iter().fold(0u64, |a, &v| a.wrapping_add(v))
        })
        .expect("retry rides out the crash");
    assert_eq!(out.value, expected, "post-crash sum matches the oracle");

    // A second pushdown: past the outage window, so a pending rejoin is
    // serviced; and a second chance to observe any stale zombie write.
    let again = rt
        .pushdown(PushdownOpts::new(), |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, col.len(), &mut buf);
            buf.iter().fold(0u64, |a, &v| a.wrapping_add(v))
        })
        .expect("steady state after recovery");
    assert_eq!(again, expected, "recovered steady state matches the oracle");

    let mut back = Vec::new();
    rt.read_range(&col, 0, ELEMS, &mut back);
    assert_eq!(back, vals, "every element reads back bit-identical");
    assert!(rt.is_alive(), "a crash-restart never kills the rack");
    (
        rt.trace().digest(),
        rt.trace().len(),
        out.value,
        out.attempts,
        out.via,
        rt,
    )
}

/// A loaded rack of `pools` shards (pages striped across them), traced,
/// with `crashes` as its fault plan: `(shard, at, down_for)` in µs.
fn crash_rack(
    pools: usize,
    replicated: bool,
    crashes: &[(usize, u64, u64)],
) -> (Runtime, Region<u64>, Vec<u64>) {
    let mut cfg = DdcConfig::with_cache_ratio(ELEMS * 8, 0.25);
    cfg.pools = pools;
    cfg.placement = PlacementPolicy::LoadBalance;
    if replicated {
        cfg.replication = ReplicationMode::Synchronous;
    }
    let mut rt = Runtime::teleport(cfg);
    rt.enable_tracing();
    let vals = column_vals(pools as u64);
    let col = rt.alloc_region::<u64>(ELEMS);
    rt.write_range(&col, 0, &vals);
    rt.begin_timing();
    let plan = crashes
        .iter()
        .fold(FaultPlan::new(7), |plan, &(pool, at, down_for)| {
            plan.pool_crash_restart(
                pool,
                SimTime(at * 1_000),
                SimDuration::from_micros(down_for),
            )
        });
    rt.install_fault_plan(plan);
    (rt, col, vals)
}

/// A pushed-down sum of the whole column.
fn sum_call(rt: &mut Runtime, col: &Region<u64>) -> Result<u64, PushdownError> {
    rt.pushdown(PushdownOpts::new(), |m| {
        let mut buf = Vec::new();
        m.read_range(col, 0, col.len(), &mut buf);
        buf.iter().fold(0u64, |a, &v| a.wrapping_add(v))
    })
}

/// A new timed window must not forget a failed-over primary that is still
/// asleep: it wakes on the reset clock, is fenced, and rejoins as the
/// standby exactly as it does when the window is left alone. Shard 0
/// crashes at the first call and sleeps 100 µs; fifty more calls follow,
/// 10 µs apart.
#[test]
fn begin_timing_keeps_a_scheduled_restart() {
    for reset_window in [false, true] {
        let (mut rt, col, _) = crash_rack(1, true, &[(0, 0, 100)]);
        let first = rt.pushdown(PushdownOpts::new(), |m| m.get(&col, 0, Pattern::Rand));
        assert_eq!(first, Err(PushdownError::Fenced { stale_epoch: 0 }));
        assert_eq!(rt.pending_restarts(), 1);
        if reset_window {
            rt.begin_timing();
            assert_eq!(rt.pending_restarts(), 1, "begin_timing dropped the restart");
        }
        for _ in 0..50 {
            rt.dos_mut().charge(SimDuration::from_micros(10));
            rt.pushdown(PushdownOpts::new(), |m| m.get(&col, 0, Pattern::Rand))
                .expect("the promoted primary serves");
        }
        let rec = rt.dos().recovery_counters();
        assert_eq!(rt.pending_restarts(), 0, "reset_window={reset_window}");
        assert_eq!(rec.restarts, 1, "reset_window={reset_window}: no rejoin");
        assert_eq!(rec.fenced_writes, 1, "reset_window={reset_window}");
        assert!(
            rt.dos().has_replica_for(0),
            "reset_window={reset_window}: the shard runs without a standby"
        );
    }
}

/// The promoted primary crashes while the primary it replaced still
/// sleeps: it has no backup, so it restarts in place, and the sleeping
/// zombie later wakes with the epoch *it* died at, is fenced and rejoins.
#[test]
fn a_second_crash_inside_the_first_outage_still_rejoins_the_zombie() {
    let (mut rt, col, vals) = crash_rack(1, true, &[(0, 0, 1_000), (0, 0, 1_000)]);
    let want = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));

    assert_eq!(
        sum_call(&mut rt, &col),
        Err(PushdownError::Fenced { stale_epoch: 0 })
    );
    assert_eq!(rt.dos().pool_epoch_for(0), 1, "the backup was promoted");
    assert!(!rt.dos().has_replica_for(0));

    assert_eq!(sum_call(&mut rt, &col), Ok(want), "waited out in place");
    assert_eq!(rt.dos().pool_epoch_for(0), 2, "the in-place restart");
    assert_eq!(rt.pending_restarts(), 1, "the first zombie still sleeps");

    assert_eq!(sum_call(&mut rt, &col), Ok(want), "the zombie rejoined");
    assert_eq!(rt.dos().pool_epoch_for(0), 2, "a standby rejoin keeps it");
    assert_eq!(rt.pending_restarts(), 0);
    assert!(rt.dos().has_replica_for(0), "the standby is back");
    assert_eq!(rt.failover_epochs(), &[1]);
    let rec = rt.dos().recovery_counters();
    assert_eq!((rec.crashes, rec.restarts, rec.fenced_writes), (2, 2, 1));
    let fenced = TraceEvent::FencedWrite {
        pool: 0,
        stale_epoch: 0,
    };
    assert!(rt.trace().events().iter().any(|r| r.event == fenced));
    let mut back = Vec::new();
    rt.read_range(&col, 0, ELEMS, &mut back);
    assert_eq!(back, vals);
}

/// Drive `crashes` to quiescence: calls 50 µs apart, each either the
/// oracle's sum or fenced by a crash, until every crash has fired and
/// every sleeping zombie has rejoined. Returns the runtime and its digest.
fn run_crash_plan(pools: usize, replicated: bool, crashes: &[(usize, u64, u64)]) -> (Runtime, u64) {
    let (mut rt, col, vals) = crash_rack(pools, replicated, crashes);
    let want = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    let mut epochs = vec![0u64; pools];
    for call in 0..40 {
        rt.dos_mut().charge(SimDuration::from_micros(50));
        match sum_call(&mut rt, &col) {
            Ok(sum) => assert_eq!(sum, want, "call {call}"),
            Err(PushdownError::Fenced { .. }) => {}
            Err(e) => panic!("call {call}: {e}"),
        }
        for (p, last) in epochs.iter_mut().enumerate() {
            let now = rt.dos().pool_epoch_for(p);
            assert!(now >= *last, "call {call}: shard {p} epoch {last} -> {now}");
            *last = now;
        }
    }
    assert!(rt.is_alive());
    assert_eq!(rt.pending_restarts(), 0, "a zombie never woke");
    let rec = rt.dos().recovery_counters();
    assert_eq!(rec.crashes, crashes.len() as u64, "a crash never fired");
    assert_eq!(rec.restarts, rec.crashes, "every crash restarts");
    assert_eq!(
        rec.fenced_writes,
        rt.failovers(),
        "every zombie fenced once"
    );
    for (p, &epoch) in epochs.iter().enumerate() {
        let died = crashes.iter().filter(|c| c.0 == p).count() as u64;
        assert_eq!(epoch, died, "shard {p}: one epoch per crash");
        assert_eq!(rt.dos().has_replica_for(p), replicated, "shard {p}");
    }
    let mut back = Vec::new();
    rt.read_range(&col, 0, ELEMS, &mut back);
    assert_eq!(back, vals, "every element reads back bit-identical");
    let digest = rt.trace().digest();
    (rt, digest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Journal-level idempotency: the replayable prefix is a pure
    /// function of the entries — computing it twice (even after a tear)
    /// yields the identical op list and ledger.
    #[test]
    fn replayable_prefix_is_idempotent(
        synced in 0usize..12,
        tail in 0usize..4,
        tag in any::<u64>(),
        tear in any::<bool>(),
    ) {
        let mut j = build_journal(synced, tail, tag);
        if tear {
            j.tear_tail();
        }
        let (ops_a, set_a) = j.replayable();
        let (ops_b, set_b) = j.replayable();
        prop_assert_eq!(&ops_a, &ops_b, "replay op list must be stable");
        prop_assert_eq!(set_a, set_b, "replay ledger must be stable");
        prop_assert_eq!(
            ops_a.len() as u64 + set_a.discarded_entries,
            j.len() as u64,
            "every entry is either replayed or discarded"
        );
    }

    /// Torn-tail loss is bounded: a tear never discards more than the
    /// un-synced suffix, and the sync batch bounds that suffix.
    #[test]
    fn torn_tail_loss_is_bounded_by_the_unsynced_batch(
        synced in 0usize..12,
        tail in 0usize..4,
        tag in any::<u64>(),
    ) {
        let mut j = build_journal(synced, tail, tag);
        let unsynced = j.unsynced_len();
        prop_assert!(unsynced < JOURNAL_SYNC_BATCH, "sync crossings drain the tail");
        j.tear_tail();
        let (_, set) = j.replayable();
        prop_assert_eq!(
            set.discarded_entries,
            unsynced as u64,
            "a tear costs exactly the un-synced suffix"
        );
        prop_assert!(
            set.discarded_entries <= JOURNAL_SYNC_BATCH as u64,
            "loss is bounded by the sync batch"
        );
    }

    /// Kernel-level idempotency: a second crash+restart with no writes in
    /// between replays to the identical state — bytes, epoch advance, and
    /// replay ledger all repeat.
    #[test]
    fn double_crash_restart_is_idempotent(seed in any::<u64>()) {
        let mut cfg = DdcConfig::with_cache_ratio(ELEMS * 8, 0.25);
        cfg.replication = ReplicationMode::Off;
        let mut rt = Runtime::teleport(cfg);
        let vals = column_vals(seed);
        let col = rt.alloc_region::<u64>(ELEMS);
        rt.write_range(&col, 0, &vals);
        rt.dos_mut().enable_recovery_journal();
        rt.begin_timing();

        rt.dos_mut().crash_pool(0).expect("shard 0 is up");
        let first = rt.dos_mut().restart_pool(0).expect("shard 0 is down");
        rt.dos_mut().crash_pool(0).expect("shard 0 is up again");
        let second = rt.dos_mut().restart_pool(0).expect("shard 0 is down");
        prop_assert_eq!(
            first.replay.applied_entries,
            second.replay.applied_entries,
            "an idle shard replays the same journal twice"
        );
        prop_assert_eq!(second.epoch, first.epoch + 1, "each recovery advances the epoch");

        let mut back = Vec::new();
        rt.read_range(&col, 0, ELEMS, &mut back);
        prop_assert_eq!(back, vals, "bytes survive repeated replay unchanged");
    }

    /// The fencing property: with a promoted replica, the zombie's stale
    /// epoch never lands a write — the racing call surfaces `Fenced`, one
    /// retry reaches the new epoch, and the recovered bytes equal the
    /// oracle on every seed.
    #[test]
    fn no_stale_epoch_write_is_ever_observable(seed in any::<u64>()) {
        let (_, _, _, attempts, via, rt) = run_crash_scenario(seed, true, false);
        prop_assert_eq!(via, ExecutionVia::Pushdown, "the retry lands remotely");
        prop_assert_eq!(attempts, 1, "one fenced call, one retry");
        prop_assert_eq!(rt.failovers(), 1, "the crash promoted the replica");
        let rec = rt.dos().recovery_counters();
        prop_assert_eq!(rec.crashes, 1);
        prop_assert_eq!(rec.restarts, 1, "the zombie hardware rejoined");
        prop_assert_eq!(rec.fenced_writes, 1, "its stale epoch was fenced exactly once");
        prop_assert!(rec.resilvered_pages > 0, "the standby was re-silvered");
        prop_assert!(rt.dos().has_replica_for(0), "the shard is replicated again");
    }

    /// Same seed ⇒ identical story: the crash scenario (both lives, torn
    /// or intact) reproduces the trace length and digest bit-for-bit.
    #[test]
    fn same_seed_same_story_and_digest(
        seed in any::<u64>(),
        replicated in any::<bool>(),
        torn in any::<bool>(),
    ) {
        let (d1, n1, v1, a1, via1, _) = run_crash_scenario(seed, replicated, torn);
        let (d2, n2, v2, a2, via2, _) = run_crash_scenario(seed, replicated, torn);
        prop_assert_eq!(n1, n2, "trace lengths differ");
        prop_assert_eq!(d1, d2, "trace digests differ");
        prop_assert_eq!(v1, v2);
        prop_assert_eq!(a1, a2);
        prop_assert_eq!(via1, via2);
    }

    /// One to three crashes per shard, at most 300 µs apart with outages
    /// of up to 500 µs, so they overlap freely: a crash inside another's
    /// outage, a crash of a freshly promoted primary. On one or two
    /// shards, with or without replicas, no plan panics, every crash
    /// restarts, every zombie is fenced once, each crash raises its
    /// shard's epoch by one, and the same plan replays to the same digest.
    #[test]
    fn overlapping_crash_plans_recover_every_shard(
        pools in 1usize..=2,
        replicated in any::<bool>(),
        per_shard in prop::collection::vec(
            prop::collection::vec((0u64..300, 50u64..500), 1..4),
            2..3,
        ),
    ) {
        let crashes: Vec<(usize, u64, u64)> = per_shard
            .iter()
            .take(pools)
            .enumerate()
            .flat_map(|(p, specs)| specs.iter().map(move |&(at, down)| (p, at, down)))
            .collect();
        let (_, first) = run_crash_plan(pools, replicated, &crashes);
        let (_, again) = run_crash_plan(pools, replicated, &crashes);
        prop_assert_eq!(first, again, "same plan, different story");
    }
}

/// The non-property anchor of invariant 2: the unreplicated crash is
/// absorbed in place (no fencing, no failover, zero retries) and the
/// torn-tail variant still reads back oracle-exact.
#[test]
fn unreplicated_crash_recovers_in_place() {
    for torn in [false, true] {
        let (_, _, _, attempts, via, rt) = run_crash_scenario(7, false, torn);
        assert_eq!(via, ExecutionVia::Pushdown);
        assert_eq!(attempts, 0, "the outage is waited out, not retried");
        assert_eq!(rt.failovers(), 0, "nothing to promote");
        let rec = rt.dos().recovery_counters();
        assert_eq!(rec.crashes, 1);
        assert_eq!(rec.restarts, 1);
        assert_eq!(rec.fenced_writes, 0, "no zombie without a promotion");
        if torn {
            assert!(rec.torn_tails <= 1, "at most the one injected tear");
        } else {
            assert_eq!(rec.torn_tails, 0);
        }
    }
}
