//! Per-layer metrics, all taken from outside the program:
//!
//! - **probes** (`*_ns`): host ns per call of one layer's public function in
//!   isolation, in the fastest of 15 batches;
//! - **counts**: the program's own counters over one traced iteration;
//! - **shares**: probe × count ÷ the fastest untraced iteration's host time —
//!   where the iteration's time should be going if the probes are right, the
//!   unattributed rest reported as `apps.share`.
//!
//! A share is a prediction of how much of an iteration an optimisation of
//! that layer can save. A claimed `ops_per_s` gain larger than the share of
//! the layer that changed is suspect.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ddc_os::lru::LruList;
use ddc_os::{
    Dos, DrrQueue, HealthConfig, HealthMonitor, PageCache, PageChecksum, PageId, Pattern,
    RecoveryJournal, ReplOp, ReplicatedPool,
};
use ddc_sim::{
    fnv1a, ArrivalProcess, Clock, DdcConfig, Fabric, FaultInjector, Lane, LatencyRecorder,
    MsgClass, NetConfig, ReplicationMode, SimDuration, Ssd, SsdConfig, TraceEvent, Tracer,
    PAGE_SIZE,
};
use kvapp::KvData;
use teleport::{
    CoherenceMode, PushdownOpts, PushdownSession, ResidentList, ResiliencePolicy, RpcServer,
    Runtime, ServeConfig, ServePlane,
};

use crate::chaos;
use crate::serve::{self, CACHE_PAGES};
use crate::span::Spans;
use crate::workload::{Counters, Ctx};

/// Timed batches per probe and how long one batch of a steady-state probe
/// runs. A probe reports its *fastest* batch: on a shared machine a
/// neighbour can only add time to a 2 ms batch, and the median of a few
/// such batches moved by half from one run to the next where the fastest
/// moved by a tenth. (End-to-end timings are medians; those are of whole
/// iterations, which no quiet moment is long enough to hold.)
const BATCHES: usize = 15;
const BATCH_TARGET: Duration = Duration::from_millis(2);

/// Host ns per operation in the fastest of [`BATCHES`] batches. `batch` does
/// its own untimed set-up and returns the timed part's duration and op count.
fn per_op_ns(mut batch: impl FnMut() -> (Duration, usize)) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let (elapsed, ops) = batch();
            elapsed.as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Host ns per call of `op` in steady state: the call count per batch is
/// doubled until a batch fills [`BATCH_TARGET`], which also warms the caches.
fn steady(mut op: impl FnMut()) -> f64 {
    let mut calls = 16usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..calls {
            op();
        }
        if t0.elapsed() >= BATCH_TARGET || calls >= 1 << 24 {
            break;
        }
        calls *= 2;
    }
    per_op_ns(|| {
        let t0 = Instant::now();
        for _ in 0..calls {
            op();
        }
        (t0.elapsed(), calls)
    })
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed()
}

/// A disaggregated kernel with `data_pages` written pages behind a
/// `cache_pages` compute cache (the shape of `benches/paging.rs`).
fn paged_dos(cache_pages: usize, data_pages: usize) -> (Dos, ddc_os::VAddr) {
    let mut dos = Dos::new_disaggregated(DdcConfig {
        compute_cache_bytes: cache_pages * PAGE_SIZE,
        ..Default::default()
    });
    let a = dos.alloc(data_pages * PAGE_SIZE);
    for p in 0..data_pages {
        dos.write_u64(a.offset((p * PAGE_SIZE) as u64), p as u64, Pattern::Seq);
    }
    dos.drop_cache();
    dos.begin_timing();
    (dos, a)
}

fn page_addr(a: ddc_os::VAddr, p: usize) -> ddc_os::VAddr {
    a.offset((p * PAGE_SIZE) as u64)
}

/// The `serve` store behind a full 512-page compute cache; `chaos_rack`
/// arms every plane the way the `chaos` workload does, its fault windows
/// pushed out of reach so the probe measures the polling, not the faults.
fn kv_runtime(chaos_rack: bool) -> Runtime {
    let data = KvData::generate(1 << 19, 1);
    let mut spans = Spans::new(false);
    let mut ctx = Ctx::new(&mut spans, false);
    if chaos_rack {
        let (mut rt, _) = serve::warm_store(chaos::rack_config(1 << 30), &data, &mut ctx);
        rt.install_fault_plan(chaos::fault_plan(1, 1 << 30));
        rt
    } else {
        serve::warm_store(serve::rack_config(), &data, &mut ctx).0
    }
}

/// The probes [`probes`] takes, in the order it takes them.
pub const PROBES: [&str; 34] = [
    "ddc-os.cache.hit_ns",
    "ddc-os.cache.miss_ns",
    "ddc-os.lru.touch_ns",
    "ddc-os.kernel.read_hit_ns",
    "ddc-os.kernel.scan_page_ns",
    "ddc-os.kernel.fault_in_ns",
    "ddc-os.kernel.fault_dirty_ns",
    "ddc-sim.net.send_ns",
    "ddc-sim.net.send_armed_ns",
    "ddc-sim.ssd.read_page_ns",
    "ddc-sim.clock.advance_ns",
    "teleport.runtime.memside_page_ns",
    "teleport.runtime.pushdown_empty_ns",
    "teleport.runtime.pushdown_resident_ns",
    "ddc-os.kernel.resident_list_ns",
    "teleport.rle.encode_page_ns",
    "teleport.runtime.metrics_ns",
    "teleport.coherence.transition_ns",
    "teleport.rpc.roundtrip_ns",
    "teleport.serve.session_ns",
    "ddc-os.fair.dispatch_ns",
    "ddc-sim.load.schedule_ns",
    "ddc-sim.load.percentile_ns",
    "ddc-sim.faults.poll_ns",
    "ddc-os.health.observe_ns",
    "ddc-os.replica.ship_ns",
    "ddc-os.recovery.append_ns",
    "ddc-os.recovery.replay_entry_ns",
    "ddc-os.kernel.seal_page_ns",
    "ddc-sim.trace.fnv1a_page_ns",
    "ddc-os.kernel.scrub_page_ns",
    "teleport.runtime.pushdown_armed_ns",
    "ddc-sim.trace.emit_off_ns",
    "ddc-sim.trace.emit_on_ns",
];

/// Every probe, by per-layer metric name.
pub fn probes() -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let n = CACHE_PAGES;

    // --- ddc-os cache and LRU, alone and under the kernel.
    let mut cache = PageCache::new(n);
    for p in 0..n {
        cache.insert(PageId(p as u64), false);
    }
    let mut i = 0u64;
    out.insert(
        "ddc-os.cache.hit_ns",
        steady(|| {
            i = (i + 7) % n as u64;
            black_box(cache.access(PageId(i), false));
        }),
    );
    let mut next = n as u64;
    out.insert(
        "ddc-os.cache.miss_ns",
        steady(|| {
            next += 1;
            black_box(cache.access(PageId(next), false));
            black_box(cache.insert(PageId(next), false));
        }),
    );
    let mut lru = LruList::new();
    for p in 0..n {
        lru.touch(PageId(p as u64));
    }
    out.insert(
        "ddc-os.lru.touch_ns",
        steady(|| {
            i = (i + 7) % n as u64;
            black_box(lru.touch(PageId(i)));
        }),
    );
    let (mut dos, a) = paged_dos(n, n);
    let _ = dos.read_bytes(a, n * PAGE_SIZE, Pattern::Seq);
    let mut p = 0usize;
    out.insert(
        "ddc-os.kernel.read_hit_ns",
        steady(|| {
            p = (p + 7) % n;
            black_box(dos.read_u64(page_addr(a, p), Pattern::Rand));
        }),
    );
    out.insert(
        "ddc-os.kernel.scan_page_ns",
        steady(|| {
            black_box(dos.read_bytes(a, n * PAGE_SIZE, Pattern::Seq).len());
        }) / n as f64,
    );

    // --- Fault, writeback, fabric, SSD, clock.
    let (mut dos, a) = paged_dos(64, 1024);
    out.insert(
        "ddc-os.kernel.fault_in_ns",
        steady(|| {
            p = (p + 1) % 1024;
            black_box(dos.read_u64(page_addr(a, p), Pattern::Rand));
        }),
    );
    out.insert(
        "ddc-os.kernel.fault_dirty_ns",
        steady(|| {
            p = (p + 1) % 1024;
            dos.write_u64(page_addr(a, p), p as u64, Pattern::Rand);
        }),
    );
    let fabric = Fabric::new(NetConfig::default());
    out.insert(
        "ddc-sim.net.send_ns",
        steady(|| {
            black_box(fabric.send(MsgClass::PageIn, PAGE_SIZE));
        }),
    );
    let injector = || {
        let clock = Clock::new();
        FaultInjector::new(
            chaos::fault_plan(1, 1 << 30),
            clock.clone(),
            Tracer::new(clock),
        )
    };
    let armed = Fabric::new(NetConfig::default());
    armed.set_injector(injector());
    out.insert(
        "ddc-sim.net.send_armed_ns",
        steady(|| {
            black_box(armed.send(MsgClass::PageIn, PAGE_SIZE));
        }),
    );
    let ssd = Ssd::new(SsdConfig::default());
    out.insert(
        "ddc-sim.ssd.read_page_ns",
        steady(|| {
            black_box(ssd.read_page());
        }),
    );
    let clock = Clock::new();
    out.insert(
        "ddc-sim.clock.advance_ns",
        steady(|| clock.advance(black_box(SimDuration::from_nanos(100)))),
    );

    // --- Pool-side touch of a page the session already holds.
    let (mut dos, a) = paged_dos(64, 1024);
    let mut session = PushdownSession::new(
        CoherenceMode::WriteInvalidate,
        &[],
        SimDuration::from_micros(10),
    );
    out.insert(
        "teleport.runtime.memside_page_ns",
        steady(|| {
            p = (p + 1) % 1024;
            session.mem_access(&mut dos, page_addr(a, p), 8, false, Pattern::Rand);
        }),
    );

    // --- The pushdown fixed path and its parts.
    let mut rt = kv_runtime(false);
    rt.drop_cache();
    out.insert(
        "teleport.runtime.pushdown_empty_ns",
        steady(|| {
            black_box(rt.pushdown(PushdownOpts::new(), |_| 0u64)).expect("no-op pushdown");
        }),
    );
    let mut rt = kv_runtime(false);
    out.insert(
        "teleport.runtime.pushdown_resident_ns",
        steady(|| {
            black_box(rt.pushdown(PushdownOpts::new(), |_| 0u64)).expect("no-op pushdown");
        }),
    );
    out.insert(
        "ddc-os.kernel.resident_list_ns",
        steady(|| {
            black_box(rt.dos().resident_list().len());
        }),
    );
    let resident = rt.dos().resident_list();
    assert_eq!(resident.len(), n, "the probe's compute cache is full");
    out.insert(
        "teleport.rle.encode_page_ns",
        steady(|| {
            black_box(
                ResidentList::try_encode(&resident)
                    .expect("sorted")
                    .encoded_bytes(),
            );
        }) / n as f64,
    );
    out.insert(
        "teleport.runtime.metrics_ns",
        steady(|| {
            black_box(rt.metrics().len());
        }),
    );
    out.insert(
        "teleport.coherence.transition_ns",
        per_op_ns(|| {
            // Every page dirty in the compute cache: each pool-side write
            // must invalidate the compute copy and pull its bytes over.
            let (mut dos, a) = paged_dos(256, 256);
            for p in 0..256 {
                dos.write_u64(page_addr(a, p), 1, Pattern::Rand);
            }
            let resident = dos.resident_list();
            let mut s = PushdownSession::new(
                CoherenceMode::WriteInvalidate,
                &resident,
                SimDuration::from_micros(10),
            );
            let elapsed = timed(|| {
                for p in 0..256 {
                    s.mem_access(&mut dos, page_addr(a, p), 8, true, Pattern::Rand);
                }
            });
            (elapsed, 256)
        }),
    );
    let mut server = RpcServer::new(1, SimDuration::from_micros(5));
    out.insert(
        "teleport.rpc.roundtrip_ns",
        steady(|| {
            let (id, _) = server.enqueue();
            black_box(server.dequeue());
            server.complete(id);
        }),
    );

    // --- Serving plane, fair queue, load generation.
    out.insert(
        "teleport.serve.session_ns",
        per_op_ns(|| {
            let mut rt = Runtime::teleport(DdcConfig::default());
            let mut plane = ServePlane::new(ServeConfig::with_seed(1));
            for (t, class) in serve::TENANTS.into_iter().enumerate() {
                plane.tenant(
                    format!("t{t}"),
                    class,
                    ArrivalProcess::poisson(SimDuration::from_micros(50)),
                    1024,
                    |_, s| Ok(s),
                );
            }
            (timed(|| plane.run(&mut rt).completed()), 4096)
        }),
    );
    let quanta: Vec<u64> = serve::TENANTS.iter().map(|c| c.weight()).collect();
    let mut queue: DrrQueue<u64> = DrrQueue::new(&quanta);
    for lane in 0..quanta.len() {
        for k in 0..8 {
            queue.push(lane, k);
        }
    }
    out.insert(
        "ddc-os.fair.dispatch_ns",
        steady(|| {
            let (lane, item) = queue.pop().expect("the queue never drains");
            queue.push(lane, black_box(item));
        }),
    );
    let poisson = ArrivalProcess::poisson(SimDuration::from_micros(50));
    out.insert(
        "ddc-sim.load.schedule_ns",
        steady(|| {
            black_box(poisson.schedule(1, 4096).len());
        }) / 4096.0,
    );
    let mut recorder = LatencyRecorder::new(1);
    for at in poisson.schedule(2, 4096) {
        recorder.record(0, SimDuration::from_nanos(at.as_nanos() % 1_000_000));
    }
    out.insert(
        "ddc-sim.load.percentile_ns",
        steady(|| {
            black_box(recorder.p99(0));
        }),
    );

    // --- The planes.
    let inj = injector();
    out.insert(
        "ddc-sim.faults.poll_ns",
        steady(|| {
            black_box(inj.fabric_penalty());
        }),
    );
    let mut health = HealthMonitor::new(2, HealthConfig::default(), Tracer::disconnected());
    out.insert(
        "ddc-os.health.observe_ns",
        steady(|| health.observe_service(0, black_box(SimDuration::from_micros(1)))),
    );
    let (fabric, ssd, clock) = (
        Fabric::new(NetConfig::default()),
        Ssd::new(SsdConfig::default()),
        Clock::new(),
    );
    let tracer = Tracer::disconnected();
    let mut replica = ReplicatedPool::new(4096, ReplicationMode::Synchronous);
    replica.record(
        ReplOp::RegisterRange {
            first: PageId(0),
            count: 1024,
        },
        &fabric,
        &ssd,
        &clock,
        &tracer,
    );
    out.insert(
        "ddc-os.replica.ship_ns",
        steady(|| {
            i = (i + 1) % 1024;
            replica.record(ReplOp::PageWrite(PageId(i)), &fabric, &ssd, &clock, &tracer);
        }),
    );
    out.insert(
        "ddc-os.recovery.append_ns",
        per_op_ns(|| {
            let mut journal = RecoveryJournal::new(1);
            let elapsed = timed(|| {
                for p in 0..4096 {
                    journal.append(ReplOp::PageWrite(PageId(p)));
                }
            });
            (elapsed, 4096)
        }),
    );
    let mut journal = RecoveryJournal::new(1);
    for p in 0..4096 {
        journal.append_synced(ReplOp::PageWrite(PageId(p)));
    }
    out.insert(
        "ddc-os.recovery.replay_entry_ns",
        steady(|| {
            black_box(journal.replayable().0.len());
        }) / 4096.0,
    );
    let page: Vec<u8> = (0..PAGE_SIZE).map(|b| (b * 31) as u8).collect();
    out.insert(
        "ddc-os.kernel.seal_page_ns",
        steady(|| {
            black_box(PageChecksum::of(black_box(&page)));
        }),
    );
    out.insert(
        "ddc-sim.trace.fnv1a_page_ns",
        steady(|| {
            black_box(fnv1a(black_box(&page)));
        }),
    );
    let (mut dos, _) = paged_dos(64, 1024);
    dos.enable_integrity();
    out.insert(
        "ddc-os.kernel.scrub_page_ns",
        per_op_ns(|| {
            let mut scanned = 0;
            let elapsed = timed(|| scanned = dos.scrub_pass().0);
            (elapsed, scanned as usize)
        }),
    );
    let mut rt = kv_runtime(true);
    let retry = ResiliencePolicy::retry_only();
    out.insert(
        "teleport.runtime.pushdown_armed_ns",
        steady(|| {
            black_box(rt.pushdown_resilient(PushdownOpts::new(), &retry, |_| 0u64))
                .expect("no-op pushdown on a healthy armed rack");
        }),
    );

    // --- The program's tracer.
    let tracer = Tracer::new(Clock::new());
    let event = TraceEvent::PushdownStep { step: 1 };
    out.insert(
        "ddc-sim.trace.emit_off_ns",
        steady(|| tracer.emit(Lane::Compute, black_box(event))),
    );
    tracer.enable();
    out.insert(
        "ddc-sim.trace.emit_on_ns",
        steady(|| tracer.emit(Lane::Compute, black_box(event))),
    );
    assert!(
        out.len() == PROBES.len() && PROBES.iter().all(|name| out.contains_key(name)),
        "PROBES lists exactly the probes taken"
    );
    out
}

/// `(per-layer metric, program counters summed into it)`.
const COUNTS: [(&str, &[&str]); 27] = [
    ("ddc-os.cache.hits", &["paging.cache_hits"]),
    ("ddc-os.cache.misses", &["paging.cache_misses"]),
    ("ddc-os.cache.evictions", &["paging.evictions"]),
    ("ddc-os.kernel.remote_page_in", &["paging.remote_page_in"]),
    ("ddc-os.kernel.remote_page_out", &["paging.remote_page_out"]),
    (
        "ddc-sim.net.messages",
        &[
            "net.page_in.messages",
            "net.page_out.messages",
            "net.coherence.messages",
            "net.rpc_request.messages",
            "net.rpc_response.messages",
            "net.control.messages",
            "net.replication.messages",
        ],
    ),
    (
        "ddc-sim.net.bytes",
        &[
            "net.page_in.bytes",
            "net.page_out.bytes",
            "net.coherence.bytes",
            "net.rpc_request.bytes",
            "net.rpc_response.bytes",
            "net.control.bytes",
            "net.replication.bytes",
        ],
    ),
    ("ddc-sim.ssd.page_reads", &["ssd.page_reads"]),
    ("ddc-sim.ssd.page_writes", &["ssd.page_writes"]),
    (
        "ddc-os.kernel.mem_side_accesses",
        &["paging.mem_side_accesses"],
    ),
    ("teleport.runtime.pushdown_calls", &["pushdown.calls"]),
    ("teleport.coherence.messages", &["net.coherence.messages"]),
    (
        "teleport.runtime.sim_overhead_us",
        &["bench.pushdown_overhead_us"],
    ),
    ("teleport.serve.arrived", &["serve.arrived"]),
    ("teleport.serve.completed", &["serve.completed"]),
    ("teleport.serve.shed", &["serve.shed"]),
    ("teleport.serve.queue_peak", &["bench.serve_queue_peak"]),
    ("ddc-sim.faults.injected", &["faults.injected"]),
    ("ddc-os.health.transitions", &["health.transitions"]),
    ("ddc-os.health.probes", &["health.probes"]),
    (
        "ddc-os.replica.pages_shipped",
        &["replication.pages_shipped"],
    ),
    (
        "ddc-os.recovery.replayed_entries",
        &["recovery.replayed_entries"],
    ),
    (
        "ddc-os.recovery.resilvered_pages",
        &["recovery.resilvered_pages"],
    ),
    ("ddc-os.kernel.pages_sealed", &["integrity.pages_sealed"]),
    ("ddc-os.kernel.scrub_pages", &["scrub.pages_scanned"]),
    ("teleport.resilience.retries", &["resilience.retries"]),
    ("ddc-sim.trace.events", &["bench.trace_events"]),
];

/// The per-layer counts of one traced iteration.
pub fn counts(counters: &Counters) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = COUNTS
        .iter()
        .map(|(name, sources)| {
            let total: u64 = sources.iter().filter_map(|s| counters.get(*s)).sum();
            (*name, total as f64)
        })
        .collect();
    let (hits, misses) = (out["ddc-os.cache.hits"], out["ddc-os.cache.misses"]);
    let touched = hits + misses;
    out.insert(
        "ddc-os.cache.hit_ratio",
        if touched > 0.0 { hits / touched } else { 0.0 },
    );
    out
}

/// The shares [`shares`] reports.
pub const SHARES: [&str; 11] = [
    "ddc-os.cache.share",
    "ddc-os.kernel.fault.share",
    "ddc-sim.net.share",
    "ddc-os.kernel.memside.share",
    "teleport.runtime.pushdown.share",
    "teleport.serve.share",
    "planes.share",
    "ddc-sim.faults.share",
    "ddc-os.replica.share",
    "ddc-sim.trace.share",
    "apps.share",
];

/// Shares of one iteration's host time (`iter_ns`, the fastest untraced
/// iteration), each probe × count.
/// The nine top-level shares — cache, fault, net, memside, pushdown, serve,
/// planes, trace and apps — are disjoint and sum to 1: a fault's or a
/// pushdown's fabric sends are counted under `ddc-sim.net` only, and
/// `ddc-sim.faults.share` and `ddc-os.replica.share` are the two largest
/// parts *of* `planes.share`, not beside it.
pub fn shares(
    probes: &BTreeMap<&'static str, f64>,
    counts: &BTreeMap<&'static str, f64>,
    counters: &Counters,
    tracer_on: bool,
    iter_ns: f64,
) -> BTreeMap<&'static str, f64> {
    let p = |name: &str| probes[name];
    let c = |name: &str| counts[name];
    let raw = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let send = p("ddc-sim.net.send_ns");
    // The planes cost host time only where a fault plan was installed.
    let armed = if counters.contains_key("faults.injected") {
        1.0
    } else {
        0.0
    };
    let calls = c("teleport.runtime.pushdown_calls");

    let cache = c("ddc-os.cache.hits") * p("ddc-os.kernel.read_hit_ns");
    let fault_in = (p("ddc-os.kernel.fault_in_ns") - send).max(0.0);
    let writeback =
        (p("ddc-os.kernel.fault_dirty_ns") - p("ddc-os.kernel.fault_in_ns") - send).max(0.0);
    let fault = c("ddc-os.kernel.remote_page_in") * fault_in
        + c("ddc-os.kernel.remote_page_out") * writeback;
    let net = c("ddc-sim.net.messages") * send;
    let memside = c("ddc-os.kernel.mem_side_accesses") * p("teleport.runtime.memside_page_ns");
    let pushdown = calls * (p("teleport.runtime.pushdown_resident_ns") - 2.0 * send).max(0.0);
    let serve = c("teleport.serve.arrived") * p("teleport.serve.session_ns");
    let faults =
        armed * c("ddc-sim.net.messages") * (p("ddc-sim.net.send_armed_ns") - send).max(0.0);
    let replica =
        c("ddc-os.replica.pages_shipped") * (p("ddc-os.replica.ship_ns") - 2.0 * send).max(0.0);
    let armed_path = (p("teleport.runtime.pushdown_armed_ns")
        - p("teleport.runtime.pushdown_resident_ns"))
    .max(0.0);
    let planes = faults
        + replica
        + armed * calls * armed_path
        + raw("replication.journal_appends") * p("ddc-os.recovery.append_ns")
        + c("ddc-os.recovery.replayed_entries") * p("ddc-os.recovery.replay_entry_ns")
        + c("ddc-os.kernel.scrub_pages") * p("ddc-os.kernel.scrub_page_ns")
        // A page is resealed after every write that reaches the pool; the
        // program does not count reseals, pages shipped to the replica are
        // the same writes.
        + (c("ddc-os.replica.pages_shipped")
            + c("ddc-os.recovery.resilvered_pages")
            + raw("integrity.detected"))
            * p("ddc-os.kernel.seal_page_ns");
    let emit = if tracer_on {
        p("ddc-sim.trace.emit_on_ns")
    } else {
        p("ddc-sim.trace.emit_off_ns")
    };
    let trace = c("ddc-sim.trace.events") * emit;

    let mut out = BTreeMap::from([
        ("ddc-os.cache.share", cache),
        ("ddc-os.kernel.fault.share", fault),
        ("ddc-sim.net.share", net),
        ("ddc-os.kernel.memside.share", memside),
        ("teleport.runtime.pushdown.share", pushdown),
        ("teleport.serve.share", serve),
        ("planes.share", planes),
        ("ddc-sim.trace.share", trace),
    ]);
    out.values_mut().for_each(|ns| *ns /= iter_ns);
    let attributed: f64 = out.values().sum();
    out.insert("apps.share", 1.0 - attributed);
    out.insert("ddc-sim.faults.share", faults / iter_ns);
    out.insert("ddc-os.replica.share", replica / iter_ns);
    out
}

/// Busy milliseconds per job: `(per-layer metric, parent span, span)`; no
/// parent means every span of that name.
pub const APP_SPANS: [(&str, Option<&str>, &str); 25] = [
    ("memdb.generate_ms", Some("setup"), "memdb.generate"),
    ("memdb.load.local_ms", Some("local"), "memdb.load"),
    ("memdb.load.base_ms", Some("base"), "memdb.load"),
    ("memdb.load.teleport_ms", Some("teleport"), "memdb.load"),
    ("memdb.q9.local_ms", Some("local"), "memdb.q9"),
    ("memdb.q9.base_ms", Some("base"), "memdb.q9"),
    ("memdb.q9.teleport_ms", Some("teleport"), "memdb.q9"),
    ("memdb.q3.local_ms", Some("local"), "memdb.q3"),
    ("memdb.q3.base_ms", Some("base"), "memdb.q3"),
    ("memdb.q3.teleport_ms", Some("teleport"), "memdb.q3"),
    ("memdb.q6.local_ms", Some("local"), "memdb.q6"),
    ("memdb.q6.base_ms", Some("base"), "memdb.q6"),
    ("memdb.q6.teleport_ms", Some("teleport"), "memdb.q6"),
    ("graphproc.sssp.local_ms", Some("local"), "graphproc.sssp"),
    ("graphproc.sssp.base_ms", Some("base"), "graphproc.sssp"),
    (
        "graphproc.sssp.teleport_ms",
        Some("teleport"),
        "graphproc.sssp",
    ),
    (
        "mapred.wordcount.local_ms",
        Some("local"),
        "mapred.wordcount",
    ),
    ("mapred.wordcount.base_ms", Some("base"), "mapred.wordcount"),
    (
        "mapred.wordcount.teleport_ms",
        Some("teleport"),
        "mapred.wordcount",
    ),
    (
        "teleport.serve.run.rung1_ms",
        Some("teleport.serve.rung1"),
        "teleport.serve.run",
    ),
    (
        "teleport.serve.run.rung2_ms",
        Some("teleport.serve.rung2"),
        "teleport.serve.run",
    ),
    (
        "teleport.serve.run.rung3_ms",
        Some("teleport.serve.rung3"),
        "teleport.serve.run",
    ),
    (
        "teleport.serve.run.rung4_ms",
        Some("teleport.serve.rung4"),
        "teleport.serve.run",
    ),
    (
        "teleport.serve.run.rung5_ms",
        Some("teleport.serve.rung5"),
        "teleport.serve.run",
    ),
    ("kvapp.load_ms", None, "kvapp.load"),
];

/// Per-layer metrics measured around the traced iteration itself, and the
/// end-to-end metrics that exist on some workloads only (0 elsewhere): the
/// driver's `end_to_end` list can hold only metrics every workload has.
pub const MEASURED: [&str; 9] = [
    "ddc-os.cache.hit_ratio",
    "ddc-sim.trace.overhead_frac",
    "bench.span_overhead_frac",
    "bench.speedup_x",
    "bench.scale_cost_x",
    "bench.paper_err",
    "bench.sim_p99_us",
    "bench.sim_max_kqps",
    "bench.fail_frac",
];

/// The benchmark's full per-layer metric list; BENCHMARK.json's `per_layer`
/// lists exactly these.
pub fn per_layer_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = PROBES.to_vec();
    names.extend(COUNTS.iter().map(|(name, _)| *name));
    names.extend(MEASURED);
    names.extend(SHARES);
    names.extend(APP_SPANS.iter().map(|(name, _, _)| *name));
    names
}

/// The unit a per-layer metric's name implies.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ns") {
        "ns"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_us") {
        "sim_us"
    } else if name.ends_with(".share") || name.ends_with("_frac") || name.ends_with("_ratio") {
        "fraction"
    } else if name.ends_with("_x") || name.ends_with("_err") {
        "ratio"
    } else if name.ends_with("_kqps") {
        "k/sim_s"
    } else if name.ends_with(".bytes") {
        "bytes"
    } else {
        "count"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_are_disjoint_and_sum_to_one() {
        let probes: BTreeMap<&'static str, f64> = [
            ("ddc-sim.net.send_ns", 10.0),
            ("ddc-sim.net.send_armed_ns", 30.0),
            ("ddc-os.kernel.read_hit_ns", 20.0),
            ("ddc-os.kernel.fault_in_ns", 110.0),
            ("ddc-os.kernel.fault_dirty_ns", 220.0),
            ("teleport.runtime.memside_page_ns", 50.0),
            ("teleport.runtime.pushdown_resident_ns", 1_020.0),
            ("teleport.runtime.pushdown_armed_ns", 3_020.0),
            ("teleport.serve.session_ns", 100.0),
            ("ddc-os.replica.ship_ns", 120.0),
            ("ddc-os.recovery.append_ns", 5.0),
            ("ddc-os.recovery.replay_entry_ns", 5.0),
            ("ddc-os.kernel.scrub_page_ns", 1_000.0),
            ("ddc-os.kernel.seal_page_ns", 1_000.0),
            ("ddc-sim.trace.emit_on_ns", 40.0),
            ("ddc-sim.trace.emit_off_ns", 1.0),
        ]
        .into();
        let mut counters = Counters::new();
        for (k, v) in [
            ("paging.cache_hits", 1_000),
            ("paging.cache_misses", 100),
            ("paging.remote_page_in", 100),
            ("paging.remote_page_out", 50),
            ("net.page_in.messages", 100),
            ("net.page_out.messages", 50),
            ("pushdown.calls", 10),
            ("bench.trace_events", 500),
        ] {
            counters.insert(k.to_string(), v);
        }
        let counts = counts(&counters);
        assert_eq!(counts["ddc-sim.net.messages"], 150.0);
        assert!((counts["ddc-os.cache.hit_ratio"] - 1000.0 / 1100.0).abs() < 1e-12);

        let s = shares(&probes, &counts, &counters, false, 100_000.0);
        assert!((s["ddc-os.cache.share"] - 0.2).abs() < 1e-12);
        // 100 × (110 − 10) + 50 × (220 − 110 − 10): sends are net's.
        assert!((s["ddc-os.kernel.fault.share"] - 0.15).abs() < 1e-12);
        assert!((s["ddc-sim.net.share"] - 0.015).abs() < 1e-12);
        assert!((s["teleport.runtime.pushdown.share"] - 0.1).abs() < 1e-12);
        assert!((s["ddc-sim.trace.share"] - 0.005).abs() < 1e-12);
        // No fault plan was installed: the planes cost nothing.
        assert_eq!(s["planes.share"], 0.0);
        let top: f64 = s
            .iter()
            .filter(|(k, _)| !["ddc-sim.faults.share", "ddc-os.replica.share"].contains(k))
            .map(|(_, v)| v)
            .sum();
        assert!((top - 1.0).abs() < 1e-12);

        counters.insert("faults.injected".to_string(), 3);
        let armed = shares(&probes, &counts, &counters, true, 100_000.0);
        // 150 sends × 20 ns of polling + 10 calls × 2 000 ns of armed path.
        assert!((armed["ddc-sim.faults.share"] - 0.03).abs() < 1e-12);
        assert!((armed["planes.share"] - 0.23).abs() < 1e-12);
        assert!((armed["ddc-sim.trace.share"] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        let names = per_layer_names();
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn every_per_layer_name_has_a_unit() {
        assert_eq!(unit_of("ddc-os.cache.hit_ns"), "ns");
        assert_eq!(unit_of("memdb.q9.local_ms"), "ms");
        assert_eq!(unit_of("teleport.runtime.sim_overhead_us"), "sim_us");
        assert_eq!(unit_of("apps.share"), "fraction");
        assert_eq!(unit_of("ddc-os.cache.hit_ratio"), "fraction");
        assert_eq!(unit_of("ddc-sim.net.bytes"), "bytes");
        assert_eq!(unit_of("ddc-os.cache.hits"), "count");
        assert_eq!(unit_of("bench.sim_p99_us"), "sim_us");
        assert_eq!(unit_of("bench.speedup_x"), "ratio");
        assert_eq!(unit_of("bench.sim_max_kqps"), "k/sim_s");
    }
}
