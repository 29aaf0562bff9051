//! The network fabric connecting resource pools.
//!
//! [`Fabric`] is a cloneable handle: the disaggregated OS, the TELEPORT
//! kernel, and the benchmark harness all account against the same message
//! ledger, which is how the paper's per-experiment network statistics
//! (remote memory accesses in Fig 10, coherence messages in Fig 22, message
//! sizes in §6) are regenerated.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::config::NetConfig;
use crate::faults::{FaultInjector, IntegrityError};
use crate::time::SimDuration;
use crate::trace::{page_seal, Lane, TraceEvent, Tracer};

/// Classification of fabric traffic, mirroring the message types the paper
/// distinguishes in its evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// A page moving from the memory pool into the compute-local cache.
    PageIn,
    /// A dirty page written back from the compute cache to the memory pool.
    PageOut,
    /// A coherence protocol control message (invalidate/downgrade/ack).
    Coherence,
    /// A pushdown RPC request (includes the RLE'd resident-page list).
    RpcRequest,
    /// A pushdown RPC response.
    RpcResponse,
    /// Control-plane traffic: heartbeats, cancellation, wakeups.
    Control,
    /// Memory-pool replication: journal shipments (page-table mutations and
    /// dirty-page images) from the primary pool to its backup.
    Replication,
}

/// `MsgClass` in declaration (= discriminant) order, written out: the trace
/// codec decodes a class through it and the round-trip test there walks it,
/// and [`Fabric`] keeps per-class state indexed by `class as usize`.
pub(crate) const MSG_CLASSES: [MsgClass; 7] = [
    MsgClass::PageIn,
    MsgClass::PageOut,
    MsgClass::Coherence,
    MsgClass::RpcRequest,
    MsgClass::RpcResponse,
    MsgClass::Control,
    MsgClass::Replication,
];

/// Aggregate counters for one traffic class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounters {
    pub messages: u64,
    pub bytes: u64,
}

/// Ledger of everything that crossed the fabric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetLedger {
    pub page_in: ClassCounters,
    pub page_out: ClassCounters,
    pub coherence: ClassCounters,
    pub rpc_request: ClassCounters,
    pub rpc_response: ClassCounters,
    pub control: ClassCounters,
    pub replication: ClassCounters,
}

impl NetLedger {
    fn class_mut(&mut self, class: MsgClass) -> &mut ClassCounters {
        match class {
            MsgClass::PageIn => &mut self.page_in,
            MsgClass::PageOut => &mut self.page_out,
            MsgClass::Coherence => &mut self.coherence,
            MsgClass::RpcRequest => &mut self.rpc_request,
            MsgClass::RpcResponse => &mut self.rpc_response,
            MsgClass::Control => &mut self.control,
            MsgClass::Replication => &mut self.replication,
        }
    }

    /// Bytes that moved *data pages* (what the paper reports as "remote
    /// memory accesses" in Fig 10).
    pub fn page_bytes(&self) -> u64 {
        self.page_in.bytes + self.page_out.bytes
    }
}

/// A cloneable handle to the simulated fabric.
#[derive(Debug, Clone)]
pub struct Fabric {
    cfg: NetConfig,
    /// Per [`MsgClass`], the last size sent and its `cfg.transfer_time`: a
    /// class sends the same size message after message (every page in or
    /// out, a request over an unchanged resident list, every response, every
    /// control message), so the division is taken once per change.
    last_time: [Cell<(usize, SimDuration)>; MSG_CLASSES.len()],
    ledger: Rc<RefCell<NetLedger>>,
    tracer: Tracer,
    injector: Rc<RefCell<Option<FaultInjector>>>,
}

impl Fabric {
    pub fn new(cfg: NetConfig) -> Self {
        Fabric::with_tracer(cfg, Tracer::disconnected())
    }

    /// A fabric whose sends are recorded as [`TraceEvent::NetMsg`] on the
    /// shared trace stream.
    pub fn with_tracer(cfg: NetConfig, tracer: Tracer) -> Self {
        Fabric {
            cfg,
            last_time: std::array::from_fn(|_| Cell::new((0, cfg.transfer_time(0)))),
            ledger: Rc::new(RefCell::new(NetLedger::default())),
            tracer,
            injector: Rc::new(RefCell::new(None)),
        }
    }

    /// Attach a fault injector: from now on, sends consult the injector's
    /// plan for latency spikes and partitions. Shared across all clones of
    /// this fabric.
    pub fn set_injector(&self, inj: FaultInjector) {
        *self.injector.borrow_mut() = Some(inj);
    }

    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Record a message of `bytes` in `class` and return the time it spends
    /// on the wire. The caller advances its own clock; the fabric itself is
    /// purely a cost model plus ledger (the 56 Gbps link never saturates at
    /// the scales simulated here, matching the paper's single-application
    /// runs).
    #[must_use]
    pub fn send(&self, class: MsgClass, bytes: usize) -> SimDuration {
        {
            let mut ledger = self.ledger.borrow_mut();
            let c = ledger.class_mut(class);
            c.messages += 1;
            c.bytes += bytes as u64;
        }
        self.tracer.emit(
            Lane::Net,
            TraceEvent::NetMsg {
                class,
                bytes: bytes as u64,
            },
        );
        let base = match class {
            MsgClass::Coherence => self.cfg.coherence_msg_latency,
            _ => {
                let last = &self.last_time[class as usize];
                match last.get() {
                    (size, time) if size == bytes => time,
                    _ => {
                        let time = self.cfg.transfer_time(bytes);
                        last.set((bytes, time));
                        time
                    }
                }
            }
        };
        // A lame link (fail-slow) scales the wire time itself, so larger
        // messages hurt more; spikes and partition stalls then add on top.
        let (slowdown, penalty) = match self.injector.borrow().as_ref() {
            Some(inj) => (inj.fabric_slowdown(), inj.fabric_penalty()),
            None => (1, SimDuration::ZERO),
        };
        base * slowdown as u64 + penalty
    }

    /// Verify a delivered page image against the checksum sealed before it
    /// crossed the wire. A mismatch means the fabric corrupted the page in
    /// flight (or it was already corrupt at the sender); the typed error is
    /// emitted as [`TraceEvent::ChecksumMismatch`] and handed to the kernel
    /// for repair.
    pub fn verify_delivery(
        &self,
        page: u64,
        bytes: &[u8],
        expected: u64,
    ) -> Result<(), IntegrityError> {
        if page_seal(bytes) == expected {
            return Ok(());
        }
        self.tracer
            .emit(Lane::Net, TraceEvent::ChecksumMismatch { page });
        Err(IntegrityError { page })
    }

    /// Snapshot of the ledger.
    pub fn ledger(&self) -> NetLedger {
        self.ledger.borrow().clone()
    }

    /// Reset all counters (used between experiment phases so per-phase
    /// traffic can be attributed, as in Fig 10).
    pub fn reset_ledger(&self) {
        *self.ledger.borrow_mut() = NetLedger::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PAGE_SIZE;

    #[test]
    fn send_records_and_prices_messages() {
        let fab = Fabric::new(NetConfig::default());
        let t = fab.send(MsgClass::PageIn, PAGE_SIZE);
        assert!(t.as_nanos() > 1_200, "page transfer exceeds raw latency");
        let ledger = fab.ledger();
        assert_eq!(ledger.page_in.messages, 1);
        assert_eq!(ledger.page_in.bytes, PAGE_SIZE as u64);
        assert_eq!(
            ledger,
            NetLedger {
                page_in: ledger.page_in,
                ..NetLedger::default()
            }
        );
        let _ = fab.send(MsgClass::PageOut, PAGE_SIZE);
        assert_eq!(fab.ledger().page_bytes(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn coherence_messages_use_measured_latency() {
        let fab = Fabric::new(NetConfig::default());
        let t = fab.send(MsgClass::Coherence, 64);
        assert_eq!(t.as_nanos(), 1_600, "paper measures 1.6us per message");
        assert_eq!(fab.ledger().coherence.messages, 1);
    }

    #[test]
    fn remembered_wire_times_are_the_ones_computed() {
        let cfg = NetConfig::default();
        let fab = Fabric::new(cfg);
        let sizes = [100, 100, 200, 0, PAGE_SIZE, 200, 4 * PAGE_SIZE, 100, 100];
        for class in MSG_CLASSES {
            for bytes in sizes {
                let want = match class {
                    MsgClass::Coherence => cfg.coherence_msg_latency,
                    _ => cfg.transfer_time(bytes),
                };
                assert_eq!(fab.send(class, bytes), want, "{class:?} {bytes} B");
            }
        }
    }

    #[test]
    fn handles_share_one_ledger() {
        let a = Fabric::new(NetConfig::default());
        let b = a.clone();
        let _ = a.send(MsgClass::RpcRequest, 100);
        let _ = b.send(MsgClass::RpcResponse, 50);
        let ledger = a.ledger();
        assert_eq!(ledger.rpc_request.messages, 1);
        assert_eq!(ledger.rpc_response.messages, 1);
        assert_eq!(ledger.rpc_request.bytes + ledger.rpc_response.bytes, 150);
        assert_eq!(
            ledger,
            NetLedger {
                rpc_request: ledger.rpc_request,
                rpc_response: ledger.rpc_response,
                ..NetLedger::default()
            }
        );
    }

    #[test]
    fn reset_clears_counters() {
        let fab = Fabric::new(NetConfig::default());
        let _ = fab.send(MsgClass::Control, 16);
        fab.reset_ledger();
        assert_eq!(fab.ledger(), NetLedger::default());
    }
}
