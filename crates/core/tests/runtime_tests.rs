//! Integration tests for the `pushdown` lifecycle, platform semantics, and
//! failure handling.

use ddc_os::Pattern;
use ddc_sim::{
    CpuConfig, DdcConfig, EventKind, FaultPlan, HeartbeatConfig, MonolithicConfig, SimDuration,
    SimTime, FOREVER, PAGE_SIZE,
};
use teleport::{
    CoherenceMode, HedgeOutcome, HedgePolicy, Mem, PlatformKind, PushdownError, PushdownOpts,
    ResiliencePolicy, Runtime, SyncStrategy, TeleportConfig, TieBreak,
};

fn small_ddc() -> DdcConfig {
    DdcConfig {
        compute_cache_bytes: 64 * PAGE_SIZE,
        memory_pool_bytes: 4096 * PAGE_SIZE,
        ..Default::default()
    }
}

/// Run the same "sum a column" workload and return (result, elapsed).
fn sum_workload(rt: &mut Runtime, n: usize, push: bool) -> (u64, SimDuration) {
    let col = rt.alloc_region::<u64>(n);
    let vals: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
    rt.write_range(&col, 0, &vals);
    if rt.kind() != PlatformKind::Local {
        rt.drop_cache(); // queries start cold on the DDC platforms
    }
    rt.begin_timing();
    let body = move |m: &mut dyn FnMut(usize) -> u64| -> u64 { (0..n).map(m).sum() };
    let _ = body; // keep closure shape simple below
    let result = if push {
        rt.pushdown(PushdownOpts::new(), |arm| {
            let mut buf = Vec::new();
            arm.read_range(&col, 0, n, &mut buf);
            arm.charge_cycles(n as u64);
            buf.iter().sum::<u64>()
        })
        .expect("pushdown ok")
    } else {
        rt.run_local(|arm| {
            let mut buf = Vec::new();
            arm.read_range(&col, 0, n, &mut buf);
            arm.charge_cycles(n as u64);
            buf.iter().sum::<u64>()
        })
    };
    (result, rt.elapsed())
}

#[test]
fn identical_results_on_all_three_platforms() {
    let n = 50_000;
    let expected: u64 = (0..n as u64).map(|i| i * 3 + 1).sum();

    let mut local = Runtime::local(MonolithicConfig::default());
    let mut base = Runtime::base_ddc(small_ddc());
    let mut tele = Runtime::teleport(small_ddc());

    let (r_local, t_local) = sum_workload(&mut local, n, true);
    let (r_base, t_base) = sum_workload(&mut base, n, true);
    let (r_tele, t_tele) = sum_workload(&mut tele, n, true);

    assert_eq!(r_local, expected);
    assert_eq!(r_base, expected);
    assert_eq!(r_tele, expected);

    // Performance shape: local fastest; TELEPORT beats the base DDC on
    // this memory-bound scan.
    assert!(t_local < t_base, "local {t_local} vs base {t_base}");
    assert!(t_tele < t_base, "teleport {t_tele} vs base {t_base}");
}

#[test]
fn pushdown_records_a_full_breakdown() {
    let mut rt = Runtime::teleport(small_ddc());
    let col = rt.alloc_region::<u64>(10_000);
    let vals: Vec<u64> = (0..10_000).collect();
    rt.write_range(&col, 0, &vals);
    rt.begin_timing();

    assert!(rt.last_breakdown().is_none());
    let _ = rt
        .pushdown(PushdownOpts::new(), |arm| {
            let mut buf = Vec::new();
            arm.read_range(&col, 0, col.len(), &mut buf);
            buf.len()
        })
        .unwrap();

    let bd = rt.last_breakdown().expect("breakdown recorded");
    assert!(bd.request > SimDuration::ZERO, "RPC request was priced");
    assert!(bd.ctx_setup > SimDuration::ZERO, "context setup was priced");
    assert!(bd.exec > SimDuration::ZERO, "execution was priced");
    assert!(bd.response > SimDuration::ZERO, "response was priced");
    assert_eq!(rt.pushdown_calls(), 1);
    // The whole call is on the timeline.
    assert!(rt.elapsed() >= bd.total());
}

#[test]
fn eager_sync_is_slower_than_on_demand() {
    // Warm a large dirty cache, then push a function that touches little:
    // the strawman pays full flush + re-fetch, on-demand pays almost
    // nothing (Fig 20).
    let run = |sync: SyncStrategy| -> SimDuration {
        let mut rt = Runtime::teleport(small_ddc());
        let big = rt.alloc_region::<u64>(64 * PAGE_SIZE / 8); // fills the cache
        let vals: Vec<u64> = (0..big.len() as u64).collect();
        rt.write_range(&big, 0, &vals); // cache now full and dirty
        let small = rt.alloc_region::<u64>(16);
        rt.begin_timing();
        rt.pushdown(PushdownOpts::new().sync(sync), |arm| {
            arm.set(&small, 0, 42u64, Pattern::Rand);
        })
        .unwrap();
        rt.last_breakdown().unwrap().overhead()
    };
    let on_demand = run(SyncStrategy::OnDemand);
    let eager = run(SyncStrategy::Eager);
    assert!(
        eager.ratio(on_demand) > 5.0,
        "eager {eager} vs on-demand {on_demand}"
    );
}

#[test]
fn exceptions_propagate_back_to_the_compute_pool() {
    let mut rt = Runtime::teleport(small_ddc());
    rt.begin_timing();
    let r: Result<(), _> = rt.pushdown(PushdownOpts::new(), |_arm| {
        panic!("segfault in pushed code");
    });
    match r {
        Err(PushdownError::Exception(msg)) => assert!(msg.contains("segfault")),
        other => panic!("expected Exception, got {other:?}"),
    }
    // The runtime survives an exception; the next call works.
    let ok = rt.pushdown(PushdownOpts::new(), |_arm| 7).unwrap();
    assert_eq!(ok, 7);
}

#[test]
fn memory_pool_failure_is_a_kernel_panic() {
    let mut rt = Runtime::teleport(small_ddc());
    rt.inject_memory_pool_failure();
    let r = rt.pushdown(PushdownOpts::new(), |_arm| 1);
    assert_eq!(r.unwrap_err(), PushdownError::KernelPanic);
    assert!(!rt.is_alive());
    // The OS is dead: every further pushdown fails the same way.
    let r = rt.pushdown(PushdownOpts::new(), |_arm| 2);
    assert_eq!(r.unwrap_err(), PushdownError::KernelPanic);
}

#[test]
fn transient_heartbeat_flap_recovers_instead_of_panicking() {
    // A pool that stops answering for 15 ms (one beat short of the 3-miss
    // threshold at the default 10 ms interval) is a flap, not a death: the
    // heartbeat loop keeps probing, sees the pool come back, and the
    // pushdown proceeds.
    let mut rt = Runtime::teleport(small_ddc());
    let col = rt.alloc_region::<u64>(8);
    rt.set(&col, 2, 22, Pattern::Rand);
    rt.begin_timing();
    rt.install_fault_plan(
        FaultPlan::new(1).heartbeat_flap(SimTime(0), SimTime(15_000_000)), // [0, 15ms)
    );

    let v = rt
        .pushdown(PushdownOpts::new(), |m| m.get(&col, 2, Pattern::Rand))
        .expect("a transient flap is survivable");
    assert_eq!(v, 22);
    assert!(rt.is_alive());
    // Two missed beats were waited out at the 10 ms interval.
    assert!(
        rt.elapsed() >= SimDuration::from_millis(20),
        "{}",
        rt.elapsed()
    );
}

#[test]
fn permanent_heartbeat_death_is_a_kernel_panic() {
    let mut rt = Runtime::teleport(small_ddc());
    rt.begin_timing();
    rt.install_fault_plan(FaultPlan::new(1).memory_pool_death(SimTime(0)));
    let r = rt.pushdown(PushdownOpts::new(), |_m| 1);
    assert_eq!(r.unwrap_err(), PushdownError::KernelPanic);
    assert!(!rt.is_alive());
}

#[test]
fn heartbeat_loop_respects_a_threshold_above_three() {
    // Regression for the old fixed 3-iteration heartbeat loop: with a
    // 5-miss threshold and a dead pool, the loop used to give up probing
    // after 3 beats (misses 1 and 2) and fall through into the pushdown as
    // if the pool were healthy. The loop must keep beating until the
    // threshold declares a panic.
    let cfg = DdcConfig {
        heartbeat: HeartbeatConfig {
            interval: SimDuration::from_millis(10),
            missed_threshold: 5,
        },
        ..small_ddc()
    };
    let mut rt = Runtime::teleport(cfg);
    rt.begin_timing();
    rt.install_fault_plan(FaultPlan::new(1).memory_pool_death(SimTime(0)));
    let r = rt.pushdown(PushdownOpts::new(), |_m| 1);
    assert_eq!(r.unwrap_err(), PushdownError::KernelPanic);
    assert!(!rt.is_alive());
    // Four missed beats were waited out before the fifth declared death.
    assert!(
        rt.elapsed() >= SimDuration::from_millis(40),
        "{}",
        rt.elapsed()
    );
}

#[test]
fn timeout_while_queued_cancels_and_falls_back_locally() {
    // §3.2: cancellation is easy if the memory pool has not started the
    // request — it is removed from the workqueue and the application is
    // free to run the function in the compute pool instead.
    let mut rt = Runtime::teleport(small_ddc());
    let col = rt.alloc_region::<u64>(100);
    rt.set(&col, 7, 77, ddc_os::Pattern::Rand);
    rt.begin_timing();

    rt.inject_queue_backlog(SimDuration::from_millis(50));
    let r = rt.pushdown(
        PushdownOpts::new().timeout(SimDuration::from_millis(1)),
        |m| m.get(&col, 7, ddc_os::Pattern::Rand),
    );
    assert_eq!(r.unwrap_err(), PushdownError::CancelledBeforeStart);
    // The app waited out its timeout, not the whole backlog.
    assert!(rt.elapsed() >= SimDuration::from_millis(1));
    assert!(rt.elapsed() < SimDuration::from_millis(10));

    // Fallback: run it locally.
    let v = rt.run_local(|m| m.get(&col, 7, ddc_os::Pattern::Rand));
    assert_eq!(v, 77);
}

#[test]
fn pushdown_waits_out_a_backlog_when_it_can_afford_to() {
    let mut rt = Runtime::teleport(small_ddc());
    let col = rt.alloc_region::<u64>(100);
    rt.set(&col, 3, 33, ddc_os::Pattern::Rand);
    rt.begin_timing();

    rt.inject_queue_backlog(SimDuration::from_millis(5));
    // Generous timeout: the request waits and then runs normally.
    let v = rt
        .pushdown(
            PushdownOpts::new().timeout(SimDuration::from_secs(1)),
            |m| m.get(&col, 3, ddc_os::Pattern::Rand),
        )
        .unwrap();
    assert_eq!(v, 33);
    assert!(
        rt.elapsed() >= SimDuration::from_millis(5),
        "waited in queue"
    );

    // The backlog was consumed; the next call is fast.
    let t0 = rt.elapsed();
    let _ = rt.pushdown(PushdownOpts::new(), |_m| 0u8).unwrap();
    assert!(rt.elapsed() - t0 < SimDuration::from_millis(5));
}

/// Step ❸ charges the configured `wakeup`, not the default the RPC server
/// used to be built with: 50 µs instead of 5 µs moves `request` by 45 µs.
#[test]
fn custom_wakeup_is_charged_when_the_request_enqueues() {
    let request_with = |tcfg: TeleportConfig| {
        let mut rt = Runtime::teleport_with(small_ddc(), tcfg);
        rt.pushdown(PushdownOpts::new(), |_| ()).unwrap();
        rt.last_breakdown().expect("breakdown recorded").request
    };
    let default = request_with(TeleportConfig::default());
    let slow = request_with(TeleportConfig {
        wakeup: SimDuration::from_micros(50),
        ..Default::default()
    });
    assert_eq!(slow - default, SimDuration::from_micros(45));
}

#[test]
fn runaway_functions_are_killed() {
    let mut rt = Runtime::teleport_with(
        small_ddc(),
        TeleportConfig {
            kill_timeout: SimDuration::from_millis(1),
            ..Default::default()
        },
    );
    let r = rt.pushdown(PushdownOpts::new(), |arm| {
        // "Buggy" code that burns far past the kill timeout.
        arm.charge_cycles(1_000_000_000);
        1
    });
    match r {
        Err(PushdownError::Killed { ran_for }) => {
            assert!(ran_for > SimDuration::from_millis(1));
        }
        other => panic!("expected Killed, got {other:?}"),
    }
}

#[test]
fn syncmem_hint_avoids_online_coherence() {
    // §4.2: a preemptive syncmem for the pages the function will touch
    // replaces per-page coherence round trips during execution.
    let run = |hint: bool| -> (u64, SimDuration) {
        let mut rt = Runtime::teleport(small_ddc());
        let col = rt.alloc_region::<u64>(16 * 4096 / 8);
        // Dirty the whole region compute-side.
        let vals: Vec<u64> = (0..col.len() as u64).collect();
        rt.write_range(&col, 0, &vals);
        rt.begin_timing();
        let n = col.len();
        let body = move |m: &mut teleport::Arm<'_>| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, n, &mut buf);
            buf.iter().sum::<u64>()
        };
        let sum = if hint {
            rt.pushdown_with_hint(PushdownOpts::new(), &[(col.addr(), col.byte_len())], body)
                .unwrap()
        } else {
            rt.pushdown(PushdownOpts::new(), body).unwrap()
        };
        assert_eq!(sum, (0..n as u64).sum::<u64>());
        let cs = rt.last_coherence_stats().unwrap();
        (cs.round_trips, rt.last_breakdown().unwrap().online_sync)
    };
    let (rt_without, online_without) = run(false);
    let (rt_with, online_with) = run(true);
    assert!(
        rt_without > 0,
        "dirty pages force round trips without a hint"
    );
    assert_eq!(rt_with, 0, "hinted pages start (R,R): reads are silent");
    assert!(online_with < online_without);
}

#[test]
fn base_ddc_pushdown_runs_locally_with_no_teleport_overhead() {
    let mut rt = Runtime::base_ddc(small_ddc());
    let col = rt.alloc_region::<u64>(1000);
    rt.begin_timing();
    let v = rt
        .pushdown(PushdownOpts::new(), |arm| arm.get(&col, 0, Pattern::Rand))
        .unwrap();
    assert_eq!(v, 0);
    assert!(rt.last_breakdown().is_none(), "no pushdown machinery ran");
    assert_eq!(rt.pushdown_calls(), 0);
    assert_eq!(rt.net_ledger().rpc_request.messages, 0);
}

#[test]
fn disabled_coherence_leaves_stale_compute_reads_until_syncmem() {
    let mut rt = Runtime::teleport(small_ddc());
    let cell = rt.alloc_region::<u64>(8);
    rt.set(&cell, 0, 100, Pattern::Rand); // cached + dirty in compute
    rt.begin_timing();

    rt.pushdown(
        PushdownOpts::new().coherence(CoherenceMode::Disabled),
        |arm| {
            arm.set(&cell, 0, 999, Pattern::Rand);
        },
    )
    .unwrap();

    // Compute still sees its stale copy...
    assert_eq!(rt.get(&cell, 0, Pattern::Rand), 100);
    // ...and its own writes to other fields of the same page stay visible.
    rt.set(&cell, 1, 7, Pattern::Rand);
    assert_eq!(rt.get(&cell, 1, Pattern::Rand), 7);

    // A function run compute-side sees the same stale view...
    assert_eq!(rt.run_local(|arm| arm.get(&cell, 0, Pattern::Rand)), 100);
    // ...and its writes to the page stay visible to both readers.
    rt.run_local(|arm| arm.set(&cell, 2, 9, Pattern::Rand));
    assert_eq!(rt.get(&cell, 2, Pattern::Rand), 9);
    assert_eq!(rt.run_local(|arm| arm.get(&cell, 2, Pattern::Rand)), 9);

    // A second disabled pushdown over the page does not move the compute
    // view forward: the older snapshot stands.
    rt.pushdown(
        PushdownOpts::new().coherence(CoherenceMode::Disabled),
        |arm| {
            arm.set(&cell, 0, 1000, Pattern::Rand);
        },
    )
    .unwrap();
    assert_eq!(rt.get(&cell, 0, Pattern::Rand), 100);

    // After syncmem, the last memory-side write becomes visible.
    rt.syncmem();
    assert_eq!(rt.get(&cell, 0, Pattern::Rand), 1000);
}

#[test]
fn default_coherence_makes_memory_writes_immediately_visible() {
    let mut rt = Runtime::teleport(small_ddc());
    let cell = rt.alloc_region::<u64>(8);
    rt.set(&cell, 0, 100, Pattern::Rand);
    rt.begin_timing();
    rt.pushdown(PushdownOpts::new(), |arm| {
        arm.set(&cell, 0, 999, Pattern::Rand);
    })
    .unwrap();
    assert_eq!(rt.get(&cell, 0, Pattern::Rand), 999, "write-invalidate");
    let cs = rt.last_coherence_stats().unwrap();
    assert!(
        cs.round_trips >= 1,
        "the dirty compute page was invalidated"
    );
}

#[test]
fn weak_ordering_syncs_at_completion() {
    let mut rt = Runtime::teleport(small_ddc());
    let cell = rt.alloc_region::<u64>(8);
    rt.set(&cell, 0, 100, Pattern::Rand);
    rt.begin_timing();
    rt.pushdown(
        PushdownOpts::new().coherence(CoherenceMode::WeakOrdering),
        |arm| {
            arm.set(&cell, 0, 999, Pattern::Rand);
        },
    )
    .unwrap();
    // Completion is a synchronization point for Weak Ordering.
    assert_eq!(rt.get(&cell, 0, Pattern::Rand), 999);
}

#[test]
fn run_local_matches_pushdown_results_but_costs_differ() {
    let mut tele = Runtime::teleport(small_ddc());
    let n = 20_000;
    let (pushed, t_pushed) = sum_workload(&mut tele, n, true);

    let mut tele2 = Runtime::teleport(small_ddc());
    let (local, t_unpushed) = sum_workload(&mut tele2, n, false);

    assert_eq!(pushed, local, "placement never changes results");
    // The scan is memory-bound: pushing it wins on a DDC.
    assert!(
        t_pushed < t_unpushed,
        "pushed {t_pushed} vs unpushed {t_unpushed}"
    );
}

#[test]
fn region_typed_accessors_roundtrip() {
    let mut rt = Runtime::teleport(small_ddc());
    let a = rt.alloc_region::<i64>(100);
    let b = rt.alloc_region::<f64>(100);
    let c = rt.alloc_region::<i32>(100);
    rt.set(&a, 5, -12345i64, Pattern::Rand);
    rt.set(&b, 6, 2.75f64, Pattern::Rand);
    rt.set(&c, 7, -9i32, Pattern::Rand);
    assert_eq!(rt.get(&a, 5, Pattern::Rand), -12345i64);
    assert_eq!(rt.get(&b, 6, Pattern::Rand), 2.75f64);
    assert_eq!(rt.get(&c, 7, Pattern::Rand), -9i32);

    let vals: Vec<i64> = (0..100).map(|i| i - 50).collect();
    rt.write_range(&a, 0, &vals);
    let mut out = Vec::new();
    rt.read_range(&a, 0, 100, &mut out);
    assert_eq!(out, vals);
}

#[test]
fn pushdown_on_local_platform_is_the_identity() {
    let mut rt = Runtime::local(MonolithicConfig::default());
    let col = rt.alloc_region::<u64>(100);
    rt.set(&col, 3, 33, Pattern::Rand);
    let v = rt
        .pushdown(PushdownOpts::new(), |arm| arm.get(&col, 3, Pattern::Rand))
        .unwrap();
    assert_eq!(v, 33);
    assert_eq!(rt.kind(), PlatformKind::Local);
}

#[test]
fn rpc_traffic_is_visible_in_the_ledger() {
    let mut rt = Runtime::teleport(small_ddc());
    // Touch many contiguous pages so the resident list is non-trivial.
    let big = rt.alloc_region::<u64>(20 * PAGE_SIZE / 8);
    let vals: Vec<u64> = (0..big.len() as u64).collect();
    rt.write_range(&big, 0, &vals);
    rt.begin_timing();
    rt.pushdown(PushdownOpts::new(), |_arm| ()).unwrap();
    let ledger = rt.net_ledger();
    assert_eq!(ledger.rpc_request.messages, 1);
    assert_eq!(ledger.rpc_response.messages, 1);
    // RLE keeps the request small despite ~20 resident pages.
    assert!(ledger.rpc_request.bytes < 200);
}

#[test]
fn pushed_functions_use_open_files_and_skip_the_fabric_hop() {
    // §3.1: pushdown code gets "the capabilities of a local function" —
    // including the process's open files. A compute-side reader drags file
    // data across the fabric (storage -> memory pool -> compute); a pushed
    // reader stops at the memory pool.
    let mut rt = Runtime::teleport(small_ddc());
    let content: Vec<u8> = (0..1_048_576).map(|i| (i % 251) as u8).collect();
    let file = rt.create_file(content.clone());
    rt.begin_timing();

    // Compute-side read.
    let t0 = rt.elapsed();
    let compute_sum: u64 = rt.run_local(|m| {
        m.read_file(file, 0, 1_048_576)
            .iter()
            .map(|&b| b as u64)
            .sum()
    });
    let t_compute = rt.elapsed() - t0;
    let fabric_bytes = rt.net_ledger().page_in.bytes;
    assert!(fabric_bytes >= 1_048_576, "file data crossed the fabric");

    // Pushed read: same answer, no fabric hop for the payload.
    let t0 = rt.elapsed();
    let before = rt.net_ledger().page_in.bytes;
    let pushed_sum: u64 = rt
        .pushdown(PushdownOpts::new(), |m| {
            m.read_file(file, 0, 1_048_576)
                .iter()
                .map(|&b| b as u64)
                .sum()
        })
        .unwrap();
    let t_pushed = rt.elapsed() - t0;
    let after = rt.net_ledger().page_in.bytes;

    assert_eq!(compute_sum, pushed_sum);
    let expected: u64 = content.iter().map(|&b| b as u64).sum();
    assert_eq!(pushed_sum, expected);
    assert_eq!(after - before, 0, "pushed file read stays off the fabric");
    assert!(t_pushed < t_compute, "{t_pushed} vs {t_compute}");

    // Appends work from both sides and are visible everywhere.
    rt.run_local(|m| m.append_file(file, b"abc"));
    rt.pushdown(PushdownOpts::new(), |m| m.append_file(file, b"def"))
        .unwrap();
    let tail = rt.run_local(|m| m.read_file(file, 1_048_576, 6).to_vec());
    assert_eq!(&tail, b"abcdef");
}

#[test]
fn deadline_budget_judges_the_call_after_completion() {
    let mut rt = Runtime::teleport(small_ddc());
    let col = rt.alloc_region::<u64>(4096);
    rt.write_range(&col, 0, &vec![1u64; 4096]);
    rt.drop_cache();
    rt.begin_timing();

    // A generous budget passes untouched.
    let sum = rt
        .pushdown(
            PushdownOpts::new().deadline(SimDuration::from_secs(100)),
            |m| {
                let mut buf = Vec::new();
                m.read_range(&col, 0, 4096, &mut buf);
                buf.iter().sum::<u64>()
            },
        )
        .expect("within budget");
    assert_eq!(sum, 4096);
    assert_eq!(rt.deadline_misses(), 0);

    // A 1 ns budget cannot be met; the call still runs to completion and
    // only then is judged late.
    let calls_before = rt.metrics().get("pushdown.calls").unwrap_or(0);
    let err = rt
        .pushdown(
            PushdownOpts::new().deadline(SimDuration::from_nanos(1)),
            |m| {
                let mut buf = Vec::new();
                m.read_range(&col, 0, 4096, &mut buf);
                buf.iter().sum::<u64>()
            },
        )
        .expect_err("budget blown");
    match err {
        PushdownError::DeadlineExceeded { over } => assert!(over > SimDuration::ZERO),
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    assert_eq!(rt.deadline_misses(), 1);
    let m = rt.metrics();
    assert_eq!(m.get("pushdown.deadline_misses"), Some(1));
    assert_eq!(
        m.get("pushdown.calls"),
        Some(calls_before + 1),
        "the late call still executed end to end"
    );
}

#[test]
fn hedge_fires_once_and_beats_a_degraded_pool() {
    let n = 65_536usize; // 512 KiB: memory-side touches dominate the call
    let fill = vec![2u64; n];

    // Healthy baseline: how long the same pushdown takes with no fault.
    let healthy = {
        let mut rt = Runtime::teleport(small_ddc());
        let col = rt.alloc_region::<u64>(n);
        rt.write_range(&col, 0, &fill);
        rt.drop_cache();
        rt.begin_timing();
        let t0 = rt.elapsed();
        rt.pushdown(PushdownOpts::new(), |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, n, &mut buf);
            buf.iter().sum::<u64>()
        })
        .unwrap();
        rt.elapsed() - t0
    };

    let mut rt = Runtime::teleport(small_ddc());
    rt.enable_tracing();
    rt.install_fault_plan(FaultPlan::new(7).degraded_pool(0, SimTime::ZERO, FOREVER, 50));
    let col = rt.alloc_region::<u64>(n);
    rt.write_range(&col, 0, &fill);
    rt.drop_cache();
    rt.begin_timing();

    // Hedge once the call runs past 2x the healthy latency — a 50x-slow
    // pool blows through that line, a healthy one never reaches it.
    let policy = HedgePolicy {
        delay: healthy * 2,
        jitter: SimDuration::ZERO,
    };
    let hedged = rt
        .pushdown_hedged(PushdownOpts::new(), &policy, |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, n, &mut buf);
            buf.iter().sum::<u64>()
        })
        .expect("hedged call returns the value");
    assert_eq!(hedged.value, 2 * n as u64);
    assert_eq!(hedged.outcome, HedgeOutcome::HedgeWon);
    assert_eq!(rt.hedges_fired(), 1, "the hedge fires exactly once");
    assert_eq!(rt.hedges_won(), 1);
    // The modeled race completes well before the degraded primary: the
    // caller-visible latency is what keeps the serving tail bounded.
    assert!(
        hedged.latency < healthy * 25,
        "hedged latency {} vs healthy {healthy}",
        hedged.latency
    );
    let m = rt.metrics();
    assert_eq!(m.get("hedge.fired"), Some(1));
    assert_eq!(m.get("hedge.won"), Some(1));
    assert_eq!(m.get("trace.hedges_fired"), Some(1));
    assert_eq!(m.get("trace.hedges_won"), Some(1));
}

#[test]
fn hedge_never_fires_on_a_healthy_pool_or_off_teleport() {
    let policy = HedgePolicy {
        delay: SimDuration::from_secs(100),
        jitter: SimDuration::ZERO,
    };
    let mut tele = Runtime::teleport(small_ddc());
    let col = tele.alloc_region::<u64>(1024);
    tele.write_range(&col, 0, &vec![1u64; 1024]);
    let h = tele
        .pushdown_hedged(PushdownOpts::new(), &policy, |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, 1024, &mut buf);
            buf.iter().sum::<u64>()
        })
        .unwrap();
    assert_eq!(h.outcome, HedgeOutcome::NotFired);
    assert_eq!(tele.hedges_fired(), 0);

    // BaseDdc runs the function locally; even a zero hedge delay must not
    // fire — there is no remote leg to race.
    let eager = HedgePolicy {
        delay: SimDuration::ZERO,
        jitter: SimDuration::ZERO,
    };
    let mut base = Runtime::base_ddc(small_ddc());
    let col = base.alloc_region::<u64>(1024);
    base.write_range(&col, 0, &vec![3u64; 1024]);
    let h = base
        .pushdown_hedged(PushdownOpts::new(), &eager, |m| {
            let mut buf = Vec::new();
            m.read_range(&col, 0, 1024, &mut buf);
            buf.iter().sum::<u64>()
        })
        .unwrap();
    assert_eq!(h.value, 3 * 1024);
    assert_eq!(h.outcome, HedgeOutcome::NotFired);
    assert_eq!(base.hedges_fired(), 0);
}

#[test]
fn hedge_beating_a_primary_cancelled_in_the_queue_reports_its_clone() {
    // The primary's 1 ms timeout lapses behind a 5 ms backlog, so its
    // request is cancelled before it runs; the clone, fired at 100 µs,
    // spends 1 ms (2.1 M cycles at 2.1 GHz) and answers at delay + clone.
    let mut rt = Runtime::teleport(small_ddc());
    rt.enable_tracing();
    let cell = rt.alloc_region::<u64>(1);
    rt.set(&cell, 0, 7, Pattern::Rand);
    rt.begin_timing();
    rt.inject_queue_backlog(SimDuration::from_millis(5));
    let policy = HedgePolicy {
        delay: SimDuration::from_micros(100),
        jitter: SimDuration::ZERO,
    };
    let opts = PushdownOpts::new().timeout(SimDuration::from_millis(1));
    let control0 = rt.net_ledger().control.messages;
    let t0 = rt.elapsed();
    let h = rt
        .pushdown_hedged(opts, &policy, |m| {
            m.charge_cycles(2_100_000);
            m.get(&cell, 0, Pattern::Rand)
        })
        .expect("the clone answers for the cancelled primary");
    let wall = rt.elapsed() - t0;
    assert_eq!(h.value, 7);
    assert_eq!(h.outcome, HedgeOutcome::HedgeWon);
    let clone_done = policy.delay + SimDuration::from_millis(1);
    assert!(h.latency >= clone_done, "the clone answered: {}", h.latency);
    // The queued request was cancelled once; nothing of the primary ran,
    // so the winning hedge has nothing left to cancel.
    assert_eq!(rt.trace().count(EventKind::Cancel), 1);
    assert_eq!(rt.trace().count(EventKind::CancelDeclined), 0);
    assert_eq!(rt.net_ledger().control.messages - control0, 1);
    // The serving tier's credit is what the caller did not wait for.
    assert!(rt.hedge_credit() <= wall - clone_done);
}

#[test]
fn resilient_deadline_covers_the_whole_call_including_fallback() {
    // An exception-throwing pushdown under fallback-only resilience: the
    // local re-run succeeds, but the budget is judged against the *total*
    // elapsed time, so a too-tight budget surfaces as DeadlineExceeded
    // even though the fallback produced a value.
    let mut rt = Runtime::teleport(small_ddc());
    rt.install_fault_plan(FaultPlan::new(3).pushdown_exception(0));
    let col = rt.alloc_region::<u64>(1024);
    rt.write_range(&col, 0, &vec![5u64; 1024]);
    rt.begin_timing();
    let err = rt
        .pushdown_resilient(
            PushdownOpts::new().deadline(SimDuration::from_nanos(1)),
            &ResiliencePolicy::fallback_only(),
            |m| {
                let mut buf = Vec::new();
                m.read_range(&col, 0, 1024, &mut buf);
                buf.iter().sum::<u64>()
            },
        )
        .expect_err("budget covers retries and the fallback leg");
    assert!(matches!(err, PushdownError::DeadlineExceeded { .. }));

    // The same shape with a real budget recovers normally.
    let mut rt = Runtime::teleport(small_ddc());
    rt.install_fault_plan(FaultPlan::new(3).pushdown_exception(0));
    let col = rt.alloc_region::<u64>(1024);
    rt.write_range(&col, 0, &vec![5u64; 1024]);
    rt.begin_timing();
    let rec = rt
        .pushdown_resilient(
            PushdownOpts::new().deadline(SimDuration::from_secs(100)),
            &ResiliencePolicy::fallback_only(),
            |m| {
                let mut buf = Vec::new();
                m.read_range(&col, 0, 1024, &mut buf);
                buf.iter().sum::<u64>()
            },
        )
        .expect("recovered within budget");
    assert_eq!(rec.value, 5 * 1024);
}

#[test]
fn metrics_carry_one_trace_row_per_event_kind() {
    // Pinned as literals, in `EventKind` order: the names are generated
    // from the event table in `ddc_sim::trace`, and readers of the registry
    // key on them, so a row edit that renames one has to show up here.
    const NAMES: [&str; ddc_sim::trace::EVENT_KINDS] = [
        "trace.page_faults",
        "trace.evicts",
        "trace.net_msgs",
        "trace.ssd_ios",
        "trace.coherence_msgs",
        "trace.pushdown_steps",
        "trace.syncmems",
        "trace.cancels",
        "trace.timeouts",
        "trace.faults_injected",
        "trace.recoveries",
        "trace.cancels_declined",
        "trace.replica_ships",
        "trace.replica_acks",
        "trace.pool_promotions",
        "trace.admission_sheds",
        "trace.corruptions_injected",
        "trace.checksum_mismatches",
        "trace.pages_repaired",
        "trace.data_losses",
        "trace.scrub_passes",
        "trace.pool_routeds",
        "trace.pushdown_fanouts",
        "trace.fanout_merges",
        "trace.session_arrives",
        "trace.session_admits",
        "trace.session_completes",
        "trace.tenant_throttleds",
        "trace.fail_slows",
        "trace.health_transitions",
        "trace.hedges_fired",
        "trace.hedges_won",
        "trace.deadline_exceededs",
        "trace.pool_reintegrations",
        "trace.pool_crashes",
        "trace.journal_replays",
        "trace.torn_tails",
        "trace.pool_restarts",
        "trace.fenced_writes",
        "trace.resilver_completes",
    ];
    let mut rt = Runtime::teleport(small_ddc());
    rt.enable_tracing();
    sum_workload(&mut rt, 50_000, true);
    let metrics = rt.metrics();
    let mut reported: Vec<&str> = metrics.iter().map(|(name, _)| name).collect();
    reported.retain(|name| name.starts_with("trace."));
    let mut expected = NAMES;
    expected.sort_unstable();
    assert_eq!(reported, expected, "exactly one row per kind");
    for (kind, name) in EventKind::ALL.into_iter().zip(NAMES) {
        assert_eq!(kind.metric_name(), name);
        assert_eq!(metrics.get(name), Some(rt.trace().count(kind)), "{name}");
    }
    assert_eq!(metrics.get("trace.pushdown_steps"), Some(8));
    assert!(metrics.get("trace.net_msgs") > Some(0));
}

/// An element count whose byte size wraps `usize` is refused by name, not
/// turned into a small allocation a later access would overrun.
#[test]
#[should_panic(expected = "8-byte elements overflows")]
fn alloc_region_refuses_a_size_that_wraps() {
    let mut rt = Runtime::local(MonolithicConfig::default());
    // One element more than fits: the product wraps to 0 bytes.
    let _ = rt.alloc_region::<u64>(usize::MAX / 8 + 1);
}

/// A compute-pool thread writing a page the pushed function holds writable
/// is a §4.1 write-write tie, and `TeleportConfig::tiebreak` names who
/// waits: under `FavorMemory` the compute write backs off at once; under
/// `FavorCompute` the memory side owes the backoff and pays it on its next
/// conflicting write, so a call that makes none records no backoff.
#[test]
fn compute_thread_beside_a_pushdown_backs_off_on_the_side_the_tiebreak_names() {
    for tiebreak in [TieBreak::FavorMemory, TieBreak::FavorCompute] {
        for memory_writes_again in [false, true] {
            let tcfg = TeleportConfig {
                tiebreak,
                ..Default::default()
            };
            let mut rt = Runtime::teleport_with(small_ddc(), tcfg);
            let cell = rt.alloc_region::<u64>(PAGE_SIZE / 8);
            rt.set(&cell, 0, 1, Pattern::Rand);
            rt.drop_cache();
            rt.begin_timing();
            let (compute_wait, memory_wait) = rt
                .pushdown(PushdownOpts::new(), |arm| {
                    arm.set(&cell, 0, 2, Pattern::Rand);
                    let t0 = arm.now();
                    arm.compute_access(cell.at(1), 8, true, Pattern::Rand);
                    let compute_wait = arm.now().since(t0);
                    let t0 = arm.now();
                    if memory_writes_again {
                        arm.set(&cell, 2, 3, Pattern::Rand);
                    }
                    (compute_wait, arm.now().since(t0))
                })
                .unwrap();
            let backoffs = rt.metrics().get("coherence.backoffs");
            let at = format!("{tiebreak:?}, memory writes again: {memory_writes_again}");
            match tiebreak {
                TieBreak::FavorMemory => {
                    assert_eq!(backoffs, Some(1), "{at}");
                    assert!(compute_wait >= tcfg.backoff_t, "{at}: {compute_wait}");
                    assert!(memory_wait < tcfg.backoff_t, "{at}: {memory_wait}");
                }
                TieBreak::FavorCompute => {
                    assert_eq!(backoffs, Some(u64::from(memory_writes_again)), "{at}");
                    assert!(compute_wait < tcfg.backoff_t, "{at}: {compute_wait}");
                    assert_eq!(
                        memory_wait >= tcfg.backoff_t,
                        memory_writes_again,
                        "{at}: {memory_wait}"
                    );
                }
            }
        }
    }
}

/// On Local and BaseDdc a pushdown runs compute-side, so a thread beside
/// it is the runtime's own compute access; on every platform its cycles
/// bill the compute CPU, even inside a call running on the memory pool.
#[test]
fn compute_thread_beside_a_pushdown_is_a_compute_access() {
    let ops = |i: u64| (i * 7919 % 96, i.is_multiple_of(3));
    let setup = |rt: &mut Runtime| {
        let r = rt.alloc_region::<u64>(96 * PAGE_SIZE / 8);
        for p in 0..96 {
            rt.set(&r, p * PAGE_SIZE / 8, 1, Pattern::Seq);
        }
        if rt.kind() != PlatformKind::Local {
            rt.drop_cache();
        }
        rt.begin_timing();
        r
    };
    let racks: [fn() -> Runtime; 2] = [
        || Runtime::local(MonolithicConfig::default()),
        || Runtime::base_ddc(small_ddc()),
    ];
    for rack in racks {
        let (mut beside, mut plain) = (rack(), rack());
        let (rb, rp) = (setup(&mut beside), setup(&mut plain));
        beside
            .pushdown(PushdownOpts::new(), |arm| {
                for i in 0..400 {
                    let (page, write) = ops(i);
                    let at = rb.at(page as usize * PAGE_SIZE / 8);
                    arm.compute_access(at, 8, write, Pattern::Rand);
                }
            })
            .unwrap();
        for i in 0..400 {
            let (page, write) = ops(i);
            let at = rp.at(page as usize * PAGE_SIZE / 8);
            if write {
                plain.write_raw(at, &[0; 8], Pattern::Rand);
            } else {
                let _ = plain.read_raw(at, 8, Pattern::Rand);
            }
        }
        let kind = beside.kind();
        assert_eq!(beside.elapsed(), plain.elapsed(), "{kind:?}");
        assert_eq!(beside.paging_stats(), plain.paging_stats(), "{kind:?}");
    }

    let cfg = DdcConfig {
        memory_cpu: CpuConfig::new(1.0),
        ..small_ddc()
    };
    let want = cfg.compute_cpu.cycles(1_000_000);
    let mut rt = Runtime::teleport(cfg);
    let took = rt
        .pushdown(PushdownOpts::new(), |arm| {
            let t0 = arm.now();
            arm.compute_cycles(1_000_000);
            arm.now().since(t0)
        })
        .unwrap();
    assert_eq!(took, want, "compute cycles bill the compute CPU");
}
