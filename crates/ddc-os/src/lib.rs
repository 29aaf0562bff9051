//! # ddc-os — a LegoOS-style disaggregated operating system, simulated
//!
//! This crate reproduces the substrate the TELEPORT paper builds on: a
//! *disaggregated OS* in which a process's entire address space lives in the
//! memory pool, the compute pool's DRAM is only a page cache, and page
//! faults recurse compute → memory → storage (§2.1 of the paper). It also
//! provides the *monolithic* topology ("Linux" in the paper's figures),
//! where the same access paths hit local DRAM and spill to a local swap
//! device.
//!
//! Layering:
//!
//! - [`page`] — virtual addresses and page identities;
//! - [`addrspace`] — the authoritative backing bytes + bump allocation;
//! - [`lru`] / [`cache`] — the compute-local page cache;
//! - [`pool`] — the memory pool: finite capacity, LRU spill to storage;
//! - [`replica`] — memory-pool replication: a backup pool fed by an
//!   epoch-stamped journal, enabling crash-consistent failover;
//! - [`recovery`] — the pool-local crash-restart journal: epoch-stamped,
//!   checksummed entries replayed over the SSD-authoritative base, with
//!   torn tails detected and discarded;
//! - [`fair`] — deficit-round-robin fair queueing for the memory-side
//!   workqueue under multi-tenant load;
//! - [`kernel`] — [`Dos`], consumed by the `teleport` crate: the paging
//!   core (metered access paths, coherence hooks), with one private module
//!   per failure-domain plane — liveness (replication, failover, the
//!   per-shard gate of heartbeats, crashes and scheduled restarts, health
//!   probes) and page integrity (checksum seal/verify, detect-and-repair,
//!   background scrubbing);
//! - [`stats`] — paging counters;
//! - [`work`] — host-work counters (bytes zeroed, backings recycled, gather
//!   page runs), outside every digest and metric.
//!
//! Everything is deterministic; all costs land on a shared
//! [`ddc_sim::Clock`].

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod addrspace;
pub mod cache;
pub mod fair;
pub mod health;
pub mod kernel;
pub mod lru;
pub mod page;
pub mod pool;
pub mod recovery;
pub mod replica;
pub mod stats;
pub mod work;

pub use addrspace::{AddressSpace, HostSpan};
pub use cache::{CacheEntry, Evicted, PageCache, ResidentPages, ResidentTable, ResidentView};
pub use fair::DrrQueue;
pub use health::{HealthConfig, HealthMonitor};
pub use kernel::{Dos, FileId, Pattern, PoolLoss, ShardError};
pub use page::{page_chunks, pages_spanned, PageChecksum, PageId, VAddr};
pub use pool::{MemoryPool, PoolFault};
pub use recovery::{JournalEntry, RecoveryCounters, RecoveryJournal, RestartReport};
pub use replica::{FailoverReport, ReplOp, ReplicatedPool, ReplicationCounters};
pub use stats::{PagingStats, RoutingWindow};
pub use work::{work_counters, WorkCounters};
