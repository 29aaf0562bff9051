//! # ddc-sim — simulation substrate for disaggregated data centers
//!
//! This crate provides the deterministic, virtual-time foundation on which
//! the rest of the TELEPORT reproduction is built:
//!
//! - [`time`] / [`clock`] — virtual nanosecond timelines. All reported
//!   performance is simulated time; wall-clock time never enters a result.
//! - [`config`] — the cost model of the disaggregated data center,
//!   calibrated from the paper's testbed (56 Gbps / 1.2 µs InfiniBand,
//!   2.1 GHz Xeons, NVMe SSD at 3 GB/s seq / 600 K IOPS).
//! - [`net`] — the fabric: prices messages and keeps a per-class ledger
//!   (page traffic, coherence messages, RPCs), which regenerates the paper's
//!   network statistics.
//! - [`ssd`] — the storage pool / swap device.
//! - [`event`] — deterministic interleaving of logical threads and the
//!   queueing model for parallel pushdown contexts.
//! - [`stats`] — small aggregation helpers for the harness.
//! - [`trace`] — deterministic structured event log (ring buffer, running
//!   digest, pluggable sink) threaded through every layer, plus the
//!   [`MetricsRegistry`] of named monotonic counters.
//! - [`faults`] — seeded, deterministic fault injection: a declarative
//!   [`FaultPlan`] of scheduled/probabilistic faults executed by a
//!   [`FaultInjector`] that the fabric, the SSD, and the runtime poll.
//!
//! Everything here is single-threaded and deterministic by construction:
//! shared components are `Rc`-based handles, and scheduling decisions break
//! ties by index. Running an experiment twice produces identical numbers.

#![deny(unsafe_code)]

pub mod clock;
pub mod config;
pub mod event;
pub mod faults;
pub mod load;
pub mod net;
pub mod ssd;
pub mod stats;
pub mod time;
pub mod trace;

pub use clock::Clock;
pub use config::{
    ConfigError, CpuConfig, DdcConfig, DramConfig, HeartbeatConfig, MonolithicConfig, NetConfig,
    PlacementPolicy, ReplicationMode, ScrubConfig, SsdConfig, PAGE_SIZE,
};
pub use event::{multiplex_makespan, Interleaver};
pub use faults::{
    env_seed, Corruption, CorruptionPoint, FaultEffect, FaultInjector, FaultPlan, FaultPlanError,
    FaultReport, FaultSpec, FaultTarget, FaultWhen, IntegrityError, PushdownDisruption,
    SsdDisruption, FOREVER,
};
pub use load::{ArrivalProcess, LatencyRecorder, QosClass, QOS_CLASSES};
pub use net::{Fabric, MsgClass, NetLedger};
pub use ssd::Ssd;
pub use stats::{geometric_mean, DurationStats};
pub use time::{SimDuration, SimTime};
pub use trace::{
    fault_label, fnv1a, fnv_fold, health_label, page_seal, recovery_label, repair_label,
    CoherenceTransition, EventKind, FaultLevel, InjectedFault, Lane, MetricsRegistry,
    PoolHealthState, RecoveryAction, RepairSource, TraceEvent, TraceRecord, TraceSink, Tracer,
    FNV_OFFSET, FNV_PRIME,
};
