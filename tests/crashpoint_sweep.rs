//! The exhaustive crash-point sweep (the recovery plane's headline test).
//!
//! One fixed, seeded op script runs against a Teleport rack. Then, for
//! *every* boundary between two ops, a fresh same-seed run is interrupted
//! there: the shard's volatile state is wiped (`crash_pool`) and rebuilt
//! (`restart_pool`) from the SSD-authoritative base plus a checksummed
//! journal replay. After every crash point:
//!
//! - the surviving state is **bit-identical** to a host-memory shadow
//!   oracle that never crashed;
//! - every pushdown issued after the restart still matches the oracle;
//! - the run is **seed-deterministic**: repeating the same crash point
//!   with the same seed reproduces the trace digest bit-for-bit.
//!
//! Three sweeps cover the three recovery lives: primary recovery
//! (journal replay), torn-tail recovery (the un-synced suffix is
//! discarded, loss bounded by the sync batch), and the zombie path
//! (crash → failover → fenced rejoin as a re-silvered standby).

use ddc_os::recovery::JOURNAL_SYNC_BATCH;
use ddc_sim::{DdcConfig, ReplicationMode, PAGE_SIZE};
use teleport::{Mem, PushdownOpts, Runtime};

const PAGES: usize = 8;
const ELEMS: usize = PAGES * PAGE_SIZE / 8;
const OPS: usize = 24;

/// A tiny deterministic generator (no external RNG — the script must be
/// identical on every run and every platform).
fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// One step of the fixed workload script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Overwrite `len` elements at `at` with a value stream seeded `tag`.
    Write { at: usize, len: usize, tag: u64 },
    /// Pushdown a full-region wrapping sum and check it against the shadow.
    Sum,
    /// Flush dirty compute pages to the pool (`syncmem`), moving journal
    /// and write-back state so crash points land in varied cache states.
    Flush,
}

/// The fixed script: seeded, so every run (and every crash point's run)
/// replays the same op sequence.
fn script(seed: u64) -> Vec<Op> {
    let mut s = seed;
    (0..OPS)
        .map(|_| match lcg(&mut s) % 4 {
            0 | 1 => {
                let at = (lcg(&mut s) as usize) % (ELEMS - 64);
                let len = 1 + (lcg(&mut s) as usize) % 64;
                Op::Write {
                    at,
                    len,
                    tag: lcg(&mut s),
                }
            }
            2 => Op::Sum,
            _ => Op::Flush,
        })
        .collect()
}

fn apply(rt: &mut Runtime, region: &teleport::Region<u64>, shadow: &mut [u64], op: Op) {
    match op {
        Op::Write { at, len, tag } => {
            let vals: Vec<u64> = (0..len as u64).map(|j| tag ^ (j << 7)).collect();
            rt.write_range(region, at, &vals);
            shadow[at..at + len].copy_from_slice(&vals);
        }
        Op::Sum => {
            let n = region.len();
            let r = *region;
            let got = rt
                .pushdown(PushdownOpts::new(), move |m| {
                    let mut buf = Vec::new();
                    m.read_range(&r, 0, n, &mut buf);
                    buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
                })
                .expect("the scripted pushdown never faults");
            let want = shadow.iter().fold(0u64, |a, &b| a.wrapping_add(b));
            assert_eq!(got, want, "mid-script pushdown sum diverged from shadow");
        }
        Op::Flush => {
            rt.syncmem();
        }
    }
}

/// Which recovery life the sweep exercises at the crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Life {
    /// No failover while down: rebuild by journal replay.
    Primary,
    /// Primary, but the crash caught a journal write in flight: the
    /// un-synced tail is corrupt and must be discarded on replay.
    Torn,
    /// A standing replica is promoted while the shard is down; the woken
    /// zombie is fenced and rejoins as a re-silvered standby.
    Zombie,
}

/// Run the script, crashing shard 0 just before op `crash_at` (`None` =
/// crash-free baseline). Returns the trace digest after asserting the
/// final state is bit-identical to the shadow oracle.
fn run(seed: u64, crash_at: Option<usize>, life: Life) -> u64 {
    let mut ddc = DdcConfig::with_cache_ratio(PAGES * PAGE_SIZE, 0.25);
    ddc.replication = match life {
        Life::Zombie => ReplicationMode::Synchronous,
        _ => ReplicationMode::Off,
    };
    let mut rt = Runtime::teleport(ddc);
    rt.enable_tracing();
    let region = rt.alloc_region::<u64>(ELEMS);
    let mut shadow = vec![0u64; ELEMS];
    // Seed the region so every page exists before the journal snapshots
    // its base; writes after this point ride the journal.
    let init: Vec<u64> = (0..ELEMS as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
    rt.write_range(&region, 0, &init);
    shadow.copy_from_slice(&init);
    rt.dos_mut().enable_recovery_journal();
    rt.begin_timing();

    for (i, op) in script(seed).into_iter().enumerate() {
        if crash_at == Some(i) {
            crash_and_restart(&mut rt, life);
        }
        apply(&mut rt, &region, &mut shadow, op);
    }
    if crash_at == Some(OPS) {
        crash_and_restart(&mut rt, life);
    }

    // The recovered state must equal the never-crashed shadow oracle
    // bit-for-bit — both via the compute-side read path...
    let mut buf = Vec::new();
    rt.read_range(&region, 0, ELEMS, &mut buf);
    assert_eq!(buf, shadow, "recovered bytes diverged from the host oracle");
    // ...and via a fresh pushdown against the recovered shard.
    let n = region.len();
    let got = rt
        .pushdown(PushdownOpts::new(), move |m| {
            let mut b = Vec::new();
            m.read_range(&region, 0, n, &mut b);
            b.iter().fold(0u64, |a, &b| a.wrapping_add(b))
        })
        .expect("post-recovery pushdown");
    assert_eq!(
        got,
        shadow.iter().fold(0u64, |a, &b| a.wrapping_add(b)),
        "post-recovery pushdown sum diverged from the host oracle"
    );
    assert!(rt.is_alive(), "a crash-restart never kills the rack");
    rt.trace().digest()
}

fn crash_and_restart(rt: &mut Runtime, life: Life) {
    let dos = rt.dos_mut();
    if life == Life::Torn {
        // Model the crash catching a journal write in flight: the first
        // un-synced entry's checksum is corrupted before the wipe.
        dos.tear_journal_tail(0);
    }
    let stale = dos.crash_pool(0).expect("shard 0 is up");
    if life == Life::Zombie {
        let fo = dos
            .failover_to_replica_for(0)
            .expect("the zombie sweep runs with a synchronous replica");
        assert!(fo.new_epoch > stale, "promotion must advance the epoch");
    }
    let report = dos.restart_pool(0).expect("shard 0 just crashed");
    match life {
        Life::Primary | Life::Torn => {
            assert!(
                !report.rejoined_as_standby,
                "no failover happened, so the shard recovers as primary"
            );
            assert!(
                report.replay.applied_entries > 0,
                "the journal base snapshot always replays"
            );
            if life == Life::Primary {
                assert_eq!(
                    report.replay.discarded_entries, 0,
                    "an intact journal discards nothing"
                );
            } else {
                assert!(
                    report.replay.discarded_entries <= JOURNAL_SYNC_BATCH as u64,
                    "torn-tail loss is bounded by the un-synced batch"
                );
            }
        }
        Life::Zombie => {
            assert!(
                report.rejoined_as_standby,
                "a fenced zombie rejoins as standby"
            );
            assert_eq!(
                report.fenced_stale_epoch,
                Some(report.epoch - 1),
                "the fence names the epoch the zombie died holding"
            );
            assert!(
                dos.has_replica_for(0),
                "the rejoined standby backs the promoted primary"
            );
        }
    }
}

/// Primary recovery at every op boundary, each point run twice: the
/// recovered state matches the oracle and the digest is seed-stable.
#[test]
fn primary_recovery_at_every_crash_point() {
    let seed = 0x5EED_C4A5;
    let baseline = run(seed, None, Life::Primary);
    for k in 0..=OPS {
        let d1 = run(seed, Some(k), Life::Primary);
        let d2 = run(seed, Some(k), Life::Primary);
        assert_eq!(d1, d2, "crash point {k}: same seed must replay the digest");
        assert_ne!(
            d1, baseline,
            "crash point {k}: the crash must be visible in the trace"
        );
    }
}

/// Torn-tail recovery at every op boundary: the corrupt suffix is
/// discarded (bounded loss), and the surviving state still equals the
/// oracle because the SSD base is authoritative.
#[test]
fn torn_tail_recovery_at_every_crash_point() {
    let seed = 0x5EED_7042;
    for k in 0..=OPS {
        let d1 = run(seed, Some(k), Life::Torn);
        let d2 = run(seed, Some(k), Life::Torn);
        assert_eq!(d1, d2, "torn point {k}: same seed must replay the digest");
    }
}

/// The zombie path at every op boundary: crash, failover, fenced rejoin
/// as a re-silvered standby — while the script keeps running against the
/// promoted primary.
#[test]
fn zombie_rejoin_at_every_crash_point() {
    let seed = 0x5EED_F33D;
    for k in 0..=OPS {
        let d1 = run(seed, Some(k), Life::Zombie);
        let d2 = run(seed, Some(k), Life::Zombie);
        assert_eq!(d1, d2, "zombie point {k}: same seed must replay the digest");
    }
}
