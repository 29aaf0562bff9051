//! Criterion microbenchmark of the program's tracer with recording on.
//!
//! Rackbench's `ddc-sim.trace.emit_on_ns` emits one `PushdownStep` at time 0
//! over and over: every digest word is a single byte (the fold's best case),
//! and its slots are the 4 096 of the default ring, which it wraps many
//! times over. This row is what an armed run pays: a wrapped ring, ten event
//! kinds, payloads and a clock that grow. Its parent / change medians are in
//! `BENCH_paging.json`.

use criterion::{criterion_group, criterion_main, Criterion};

use ddc_sim::{
    Clock, CoherenceTransition, FaultLevel, InjectedFault, Lane, MsgClass, SimDuration, TraceEvent,
    Tracer,
};

/// The `i`-th record of the stream: kind, lane and payload all follow `i`.
fn record(i: u64) -> (Lane, TraceEvent) {
    match i % 10 {
        0 => (
            Lane::Compute,
            TraceEvent::PageFault {
                vaddr: i << 12,
                level: FaultLevel::Remote,
            },
        ),
        1 => (
            Lane::Net,
            TraceEvent::NetMsg {
                class: MsgClass::PageIn,
                bytes: 4096 + i % 4096,
            },
        ),
        2 => (
            Lane::Compute,
            TraceEvent::Evict {
                page: i,
                dirty: i % 4 == 2,
            },
        ),
        3 => (
            Lane::Storage,
            TraceEvent::SsdIo {
                write: true,
                bytes: 4096,
            },
        ),
        4 => (
            Lane::Net,
            TraceEvent::CoherenceMsg {
                page: i,
                transition: CoherenceTransition::InvalidateCompute,
            },
        ),
        5 => (
            Lane::Compute,
            TraceEvent::PushdownStep {
                step: (i % 8) as u8 + 1,
            },
        ),
        6 => (Lane::Memory, TraceEvent::ReplicaShip { seq: i, pages: 1 }),
        7 => (Lane::Memory, TraceEvent::ReplicaAck { seq: i }),
        8 => (
            Lane::Memory,
            TraceEvent::FaultInjected {
                fault: InjectedFault::FabricBitFlip,
                magnitude: i,
            },
        ),
        _ => (
            Lane::Compute,
            TraceEvent::SessionComplete {
                tenant: i % 4,
                latency_ns: 50_000 + i * 7 % 100_000,
            },
        ),
    }
}

fn bench_emit_on_varied(c: &mut Criterion) {
    c.bench_function("trace/emit_on_varied", |b| {
        let clock = Clock::new();
        let tracer = Tracer::new(clock.clone());
        tracer.enable();
        let mut i = 0u64;
        let mut emit = || {
            i += 1;
            clock.advance(SimDuration::from_nanos(137));
            let (lane, event) = record(i);
            tracer.emit(lane, event);
        };
        // Wrap the ring (4 096 slots by default, 128 KiB: it stays in L2),
        // so every timed record overwrites the oldest slot, as in any traced
        // run longer than the ring.
        for _ in 0..=tracer.ring_capacity() {
            emit();
        }
        b.iter(&mut emit);
    });
}

criterion_group!(benches, bench_emit_on_varied);
criterion_main!(benches);
