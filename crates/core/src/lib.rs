//! # teleport — a compute pushdown primitive for disaggregated data centers
//!
//! A from-scratch Rust reproduction of **TELEPORT** (Zhang et al., SIGMOD
//! 2022): an OS kernel primitive that lets data-intensive systems running on
//! a disaggregated OS ship complete function calls to the memory pool, where
//! they execute against the process's own address space — pointers, complex
//! data structures and all — while a MESI-inspired page coherence protocol
//! keeps the compute-pool cache and the memory pool consistent.
//!
//! ## Quick tour
//!
//! ```
//! use teleport::{Mem, PushdownOpts, Runtime};
//! use ddc_sim::DdcConfig;
//!
//! // A disaggregated deployment with a small compute-local cache.
//! let mut rt = Runtime::teleport(DdcConfig::default());
//!
//! // Allocate a table in (remote) memory, filled as it is allocated.
//! let vals: Vec<u64> = (0..100_000u64).collect();
//! let col = rt.alloc_region_from(&vals);
//! rt.begin_timing();
//!
//! // Push an aggregation down to the memory pool: one call, no other
//! // application changes.
//! let sum = rt
//!     .pushdown(PushdownOpts::new(), |arm| {
//!         let mut acc = 0u64;
//!         let mut buf = Vec::new();
//!         arm.read_range(&col, 0, col.len(), &mut buf);
//!         for v in &buf {
//!             acc += v;
//!         }
//!         arm.charge_cycles(col.len() as u64); // ~1 cycle per element
//!         acc
//!     })
//!     .unwrap();
//! assert_eq!(sum, (0..100_000u64).sum());
//!
//! // The call is fully metered: where did the time go?
//! let bd = rt.last_breakdown().unwrap();
//! assert!(bd.total() > ddc_sim::SimDuration::ZERO);
//! ```
//!
//! ## Module map
//!
//! - [`runtime`] — platforms (Local / BaseDdc / Teleport), typed regions,
//!   the [`Mem`] access trait, and the `pushdown` call itself (paper §3);
//! - [`coherence`] — the two-sided page coherence protocol (paper §4,
//!   Figs 8–9) and its relaxations;
//! - [`flags`] — `pushdown` options: coherence modes and sync strategies;
//! - [`rle`] — run-length coding of resident-page lists (paper §6);
//! - [`rpc`] — the LITE-style RPC layer, memory-side workqueue, and
//!   admission control;
//! - [`breakdown`] — the six-part cost attribution (paper Figs 19–20);
//! - [`fault`] — exceptions, timeouts, cancellation (§3.2; the heartbeats
//!   are the kernel's, `ddc_os::Dos::pool_gate`);
//! - [`resilience`] — retry/local-fallback recovery policies on top of
//!   the §3.2 exception model;
//! - [`serve`] — the multi-tenant open-loop serving plane: seeded arrival
//!   schedules, QoS-class admission, DRR fairness, latency percentiles;
//! - [`microbench`] — the two-thread ablation and contention workloads
//!   (paper Figs 6, 7, 21, 22);
//! - [`for_each_ahead`] — the host look-ahead loop a kernel uses to
//!   prefetch its next items' bytes on the host, invisibly to the model;
//! - [`run_placed`] — the one placement wrap an application runs each
//!   operator or phase through: it pushes the unit when the [`Plan`] names
//!   it (on Teleport only) and measures it into a [`WorkStat`]; one
//!   [`rank_by_intensity`] and [`Plan::auto`] apply §7.4's rule to any
//!   application's units.

#![deny(unsafe_code)]

mod ahead;
pub mod breakdown;
pub mod coherence;
pub mod fault;
pub mod flags;
mod hits;
pub mod microbench;
mod placed;
pub mod resilience;
pub mod rle;
pub mod rpc;
pub mod runtime;
pub mod serve;

/// The access-pattern argument of every [`Mem`] accessor, re-exported so an
/// application needs no `ddc-os` dependency of its own to call them.
pub use ddc_os::Pattern;

pub use ahead::for_each_ahead;
pub use breakdown::Breakdown;
pub use coherence::{CoherenceStats, Perm, PushdownSession, TieBreak};
pub use fault::{CancelOutcome, PushdownError};
pub use flags::{CoherenceMode, PushdownOpts, SyncStrategy};
pub use hits::{HitBatch, RandReads};
pub use placed::{rank_by_intensity, run_placed, PaperUnits, Plan, WorkStat};
pub use resilience::{ExecutionVia, Recovered, ResiliencePolicy, RetryPolicy};
pub use rle::{ResidentList, UnsortedResidentList};
pub use rpc::{AdmissionPolicy, RpcServer};
pub use runtime::{
    Arm, HedgeOutcome, HedgePolicy, Hedged, Mem, PlatformKind, Region, RegionWriter, Runtime,
    Scalar, TeleportConfig, Unwritten,
};
pub use serve::{ServeConfig, ServePlane, ServeReport, SessionOutcome, TenantReport};
