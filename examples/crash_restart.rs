//! Crash-restart walkthrough (DESIGN.md §13): a memory shard dies, its
//! volatile state is wiped, and the rack recovers —
//!
//! (a) **primary recovery**: no replica, so the outage is waited out in
//!     place; the shard rebuilds from the SSD-authoritative base plus an
//!     epoch-stamped, checksummed journal replay, and every byte reads
//!     back oracle-exact;
//! (b) **torn tail**: the crash catches a journal write in flight; replay
//!     verifies checksums, discards the corrupt un-synced suffix (loss
//!     bounded by the sync batch), and the bytes are still exact because
//!     storage stays authoritative;
//! (c) **fencing & rejoin**: with a synchronous replica the backup is
//!     promoted on the spot; the racing call is fenced (`Fenced`, nothing
//!     landed, at-most-once), one retry lands on the new epoch, and the
//!     woken zombie rejoins as a re-silvered standby;
//! (d) **determinism**: rerun the same seed and the trace digest
//!     reproduces bit-for-bit.
//!
//! Run with: `cargo run --release --example crash_restart`

use ddc_sim::{env_seed, DdcConfig, FaultPlan, ReplicationMode, SimDuration, SimTime};
use teleport::{Mem, PushdownOpts, ResiliencePolicy, Runtime};

const ELEMS: usize = 4096; // 8 pages of u64

fn column_vals() -> Vec<u64> {
    (0..ELEMS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(21))
        .collect()
}

/// Load a column on a single-shard rack with the recovery journal armed.
fn loaded_rt(mode: ReplicationMode) -> (Runtime, teleport::Region<u64>, Vec<u64>) {
    let mut cfg = DdcConfig::with_cache_ratio(ELEMS * 8, 0.25);
    cfg.replication = mode;
    let mut rt = Runtime::teleport(cfg);
    rt.enable_tracing();
    let vals = column_vals();
    let col = rt.alloc_region::<u64>(ELEMS);
    rt.write_range(&col, 0, &vals);
    rt.dos_mut().enable_recovery_journal();
    rt.begin_timing();
    (rt, col, vals)
}

fn check_bytes(rt: &mut Runtime, col: &teleport::Region<u64>, vals: &[u64]) {
    let mut back = Vec::new();
    rt.read_range(col, 0, ELEMS, &mut back);
    assert_eq!(back, vals, "recovered bytes must equal the host oracle");
}

fn main() {
    println!("== (a) primary recovery: crash, journal replay, oracle-exact bytes ==");
    let (mut rt, col, vals) = loaded_rt(ReplicationMode::Off);
    // Dirty a slice mid-window so the journal holds more than the base.
    rt.write_range(&col, 128, &vals[128..256]);
    let epoch = rt.dos_mut().crash_pool(0).expect("shard 0 is up");
    let report = rt.dos_mut().restart_pool(0).expect("shard 0 is down");
    println!(
        "  shard 0 died at epoch {epoch}; replayed {} entries / {} pages, discarded {}, new epoch {}",
        report.replay.applied_entries,
        report.replay.applied_pages,
        report.replay.discarded_entries,
        report.epoch,
    );
    check_bytes(&mut rt, &col, &vals);
    println!("  {} elements read back bit-identical\n", ELEMS);

    println!("== (b) torn tail: the corrupt un-synced suffix is discarded ==");
    let (mut rt, col, vals) = loaded_rt(ReplicationMode::Off);
    rt.write_range(&col, 0, &vals[0..64]); // leave an un-synced tail
    rt.dos_mut().tear_journal_tail(0);
    rt.dos_mut().crash_pool(0).expect("shard 0 is up");
    let report = rt.dos_mut().restart_pool(0).expect("shard 0 is down");
    println!(
        "  tear cost {} entries ({} pages) — bounded by the sync batch; replayed {}",
        report.replay.discarded_entries,
        report.replay.discarded_pages,
        report.replay.applied_entries,
    );
    check_bytes(&mut rt, &col, &vals);
    println!("  bytes still exact: storage stays authoritative\n");

    println!("== (c) fencing & rejoin: replica promoted, zombie re-silvered ==");
    let (mut rt, col, vals) = loaded_rt(ReplicationMode::Synchronous);
    rt.install_fault_plan(FaultPlan::new(env_seed(0xC4A5)).pool_crash_restart(
        0,
        SimTime(0),
        SimDuration::from_nanos(200),
    ));
    let expected: u64 = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    let out = rt
        .pushdown_resilient(PushdownOpts::new(), &ResiliencePolicy::retry_only(), |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, col.len(), &mut buf);
            buf.iter().fold(0u64, |a, &v| a.wrapping_add(v))
        })
        .expect("the retry rides out the fenced crash");
    assert_eq!(out.value, expected);
    // The next call services the scheduled rejoin of the dead hardware.
    rt.pushdown(PushdownOpts::new(), |m| m.charge_cycles(1))
        .unwrap();
    let rec = rt.dos().recovery_counters();
    println!(
        "  fenced call retried {} time(s); crashes {} restarts {} fenced {} resilvered {} pages",
        out.attempts, rec.crashes, rec.restarts, rec.fenced_writes, rec.resilvered_pages,
    );
    println!(
        "  shard 0 is primary at epoch {} with a standby replica again: {}\n",
        rt.dos().pool_epoch_for(0),
        rt.dos().has_replica_for(0),
    );
    let digest = rt.trace().digest();
    check_bytes(&mut rt, &col, &vals);

    println!("== (d) determinism: the fenced crash replays bit-for-bit ==");
    let (mut rt2, col2, _) = loaded_rt(ReplicationMode::Synchronous);
    rt2.install_fault_plan(FaultPlan::new(env_seed(0xC4A5)).pool_crash_restart(
        0,
        SimTime(0),
        SimDuration::from_nanos(200),
    ));
    let _ = rt2
        .pushdown_resilient(PushdownOpts::new(), &ResiliencePolicy::retry_only(), |m| {
            let mut buf = Vec::new();
            m.read_range(&col2, 0, col2.len(), &mut buf);
            buf.iter().fold(0u64, |a, &v| a.wrapping_add(v))
        })
        .expect("same story");
    rt2.pushdown(PushdownOpts::new(), |m| m.charge_cycles(1))
        .unwrap();
    assert_eq!(
        rt2.trace().digest(),
        digest,
        "same seed, same crash, same digest"
    );
    println!("  rerun digest {digest:#018x} reproduced — reproducible recovery");
}
