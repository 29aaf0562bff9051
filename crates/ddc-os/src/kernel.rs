//! The disaggregated OS kernel: metered memory access across pools.
//!
//! [`Dos`] mediates every memory access of a simulated process, exactly as
//! LegoOS mediates them on real hardware (§2.1 of the paper):
//!
//! - a hit in the compute-local cache costs local DRAM time;
//! - a miss forwards a page fault to the memory pool controller and pulls
//!   the page over the fabric (possibly recursing to the storage pool if it
//!   was swapped out);
//! - cache evictions write dirty pages back to the memory pool;
//! - in the **monolithic** topology ("Linux" in the paper's figures) the
//!   same cache is the server's entire DRAM and misses go to the local swap
//!   device instead of the network.
//!
//! Correctness and cost are separated: the authoritative bytes live in one
//! [`AddressSpace`]; residency state drives only the virtual-time charges.

use ddc_sim::{
    Clock, ConfigError, Corruption, CorruptionPoint, DdcConfig, Fabric, FaultInjector, FaultLevel,
    Lane, MonolithicConfig, MsgClass, PlacementPolicy, RecoveryAction, RepairSource,
    ReplicationMode, ScrubConfig, SimDuration, SimTime, Ssd, TraceEvent, Tracer, PAGE_SIZE,
};

use std::collections::{BTreeMap, BTreeSet};

use crate::addrspace::AddressSpace;
use crate::cache::{CacheEntry, PageCache, ResidentView};
use crate::health::{HealthConfig, HealthMonitor};
use crate::page::{for_each_page, pages_spanned, PageChecksum, PageId, PageTable, VAddr};
use crate::pool::{MemoryPool, PoolFault};
use crate::recovery::{RecoveryCounters, RecoveryJournal, ReplaySet, RestartReport};
use crate::replica::{FailoverReport, ReplOp, ReplicatedPool, ReplicationCounters};
use crate::stats::{PagingStats, RoutingWindow};

/// Spatial locality of an access, which selects the DRAM cost model:
/// sequential streaming amortizes row hits and prefetching, random access
/// pays full latency per touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    Seq,
    Rand,
}

/// Which topology this kernel instance simulates.
#[derive(Debug, Clone)]
pub enum Topology {
    /// A single server: CPU, DRAM, and SSD on one motherboard.
    Monolithic(MonolithicConfig),
    /// A disaggregated data center: compute / memory / storage pools.
    Disaggregated(DdcConfig),
}

/// Identifier of an open simulated file in the storage pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub u32);

/// Payload bytes of one synthetic health probe (and of the modeled
/// heartbeat round trip the RTT estimator watches).
const HEALTH_PROBE_BYTES: usize = 16;

/// Random DRAM touches one probe performs on the target shard. Sized so
/// pool-side work dominates the control round trip — otherwise a grinding
/// shard could hide inside the wire time and pass its probes.
const HEALTH_PROBE_TOUCHES: u64 = 64;

/// The kernel's page-integrity plane: sealed checksums, pending (injected,
/// not-yet-detected) corruption, repair bookkeeping, and scrub progress.
/// While enabled it covers every mapped page (pages are never unmapped).
///
/// Disabled (and entirely free) unless the fault plan carries corruption
/// specs or a scrub schedule is configured — existing experiments see zero
/// behavioral or digest change.
#[derive(Debug, Default)]
struct Integrity {
    enabled: bool,
    /// Seal and state of every page the plane has seen.
    pages: PageTable<PageSeal>,
    /// Injected corruption not yet detected, as invertible XOR edits: one
    /// list per page whose [`PageSeal::pending`] is set, consulted only
    /// then (corruption is rare; the flag keeps this map off clean pages).
    edits: BTreeMap<PageId, Vec<Corruption>>,
    /// Most recent unrecoverable page (for the typed error).
    last_loss: Option<PageId>,
    /// Everything [`Dos::begin_timing`] zeroes; the fields above describe
    /// residency state and survive it.
    window: IntegrityWindow,
}

/// The integrity plane's per-timed-window state, grouped so that resetting
/// it is one assignment that cannot miss a field (or hit a seal).
#[derive(Debug, Default)]
struct IntegrityWindow {
    detected: u64,
    repaired: u64,
    repaired_ssd: u64,
    repaired_replica: u64,
    data_loss: u64,
    /// Virtual deadline of the next background scrub pass.
    next_scrub: Option<SimTime>,
    scrub_passes: u64,
    scrub_pages: u64,
    scrub_detected: u64,
}

/// What the integrity plane knows about one page.
///
/// Every mapped page is sealed while the plane is enabled, but its `sum` is
/// taken on demand: when injected corruption is about to land on a page
/// whose sum is not `fresh` ([`Dos::poll_corruption`]), over the bytes just
/// before the edit. Only a page with pending corruption is ever compared
/// against its sum, so that is the one instant a sum is needed.
#[derive(Debug, Clone, Copy, Default)]
struct PageSeal {
    /// Checksum over the page's full 4 KB image as it was before its
    /// corruption landed; meaningful only while `fresh`.
    sum: PageChecksum,
    /// `sum` was taken and no legitimate write has landed since. False
    /// until the first corruption hit takes it.
    fresh: bool,
    /// Has undetected injected corruption (its edits are in
    /// [`Integrity::edits`]).
    pending: bool,
    /// Declared unrecoverable; never re-detected, never re-polled.
    lost: bool,
}

impl Integrity {
    /// Forget `pid`'s pending corruption, handing back its edit list.
    fn take_edits(&mut self, pid: PageId) -> Option<Vec<Corruption>> {
        self.pages.get_mut(pid)?.pending = false;
        self.edits.remove(&pid)
    }
}

/// Per-pool integrity activity, reported as `integrity.pool{p}.*` metric
/// instances on multi-pool deployments.
#[derive(Debug, Default, Clone, Copy)]
struct PoolIntegrity {
    detected: u64,
    repaired: u64,
    data_loss: u64,
}

/// One memory-pool shard: the pool-side unit that owns its page table,
/// together with everything whose lifetime is tied to that one failure
/// domain — its replication companion, crash-recovery journal, epoch,
/// heartbeat misses, scheduled restart and per-shard ledgers. Keeping them
/// in one struct makes a misaligned per-pool vector unrepresentable.
struct PoolShard {
    pool: MemoryPool,
    /// Replication companion, when configured and not yet consumed by a
    /// failover.
    replica: Option<ReplicatedPool>,
    /// Epoch of the shard's current primary; bumped by its promotions and
    /// restarts.
    epoch: u64,
    /// Report + final replication counters of a completed failover.
    failover: Option<(FailoverReport, ReplicationCounters)>,
    /// Integrity counters (multi-pool reporting).
    integrity: PoolIntegrity,
    /// Crash-recovery journal, armed when the plan carries crash-restart
    /// specs (`None` otherwise — crash-free runs stay bit-identical with
    /// journaling disarmed).
    journal: Option<RecoveryJournal>,
    /// True while the shard's primary is crashed (volatile state wiped,
    /// in-place restart or failover pending).
    down: bool,
    /// The dead primary a failover replaced, asleep until its restart.
    /// It carries the epoch it held at death, so a later crash of the
    /// promoted primary cannot overwrite what the fence will compare.
    restart: Option<Restart>,
    /// Consecutive heartbeats the shard has left unanswered.
    missed_beats: u32,
    /// Memory-side page touches that landed here in the open routing
    /// window (multi-pool only).
    touched_pages: u64,
}

/// A failed-over primary's scheduled return: at `at` it wakes, its
/// resume-write carrying `stale_epoch` is fenced, and it rejoins as the
/// shard's standby.
#[derive(Debug, Clone, Copy)]
struct Restart {
    at: SimTime,
    stale_epoch: u64,
}

/// Why a pushdown may not proceed past [`Dos::pool_gate`]: a shard of the
/// rack was lost under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolLoss {
    /// A shard crashed and its backup was promoted: the call's
    /// acknowledgement carried the dead life's `stale_epoch` and was fenced.
    Fenced { stale_epoch: u64 },
    /// A shard missed its heartbeat threshold and its backup was promoted;
    /// the call was running against `lost_epoch`.
    FailedOver { lost_epoch: u64 },
    /// A shard with no backup missed its heartbeat threshold: main memory
    /// is gone.
    Dead,
}

impl PoolShard {
    fn new(capacity_pages: usize, replication: ReplicationMode) -> Self {
        PoolShard {
            pool: MemoryPool::new(capacity_pages),
            replica: match replication {
                ReplicationMode::Off => None,
                mode => Some(ReplicatedPool::new(capacity_pages, mode)),
            },
            epoch: 0,
            failover: None,
            integrity: PoolIntegrity::default(),
            journal: None,
            down: false,
            restart: None,
            missed_beats: 0,
            touched_pages: 0,
        }
    }
}

/// The disaggregated (or monolithic) OS kernel for one process.
pub struct Dos {
    topo: Topology,
    clock: Clock,
    fabric: Fabric,
    ssd: Ssd,
    tracer: Tracer,
    space: AddressSpace,
    cache: PageCache,
    /// The rack's memory-pool set: empty on a monolithic server, one shard
    /// per pool on a DDC. Single-pool deployments behave bit-for-bit like
    /// the pre-pool-set kernel.
    shards: Vec<PoolShard>,
    /// Page → owning shard, per page because `LoadBalance` stripes an
    /// allocation across shards. Populated only on multi-pool deployments
    /// (single-pool ownership is the identity); unmapped pages read as
    /// shard 0.
    owner: PageTable<u16>,
    /// Placement policy applied at allocation time.
    placement: PlacementPolicy,
    /// Allocations made so far (drives `PlacementPolicy::Locality`'s
    /// round-robin).
    alloc_seq: u64,
    /// Whether the page has a copy on the swap device (monolithic only).
    swapped: PageTable<bool>,
    stats: PagingStats,
    dram: ddc_sim::DramConfig,
    fault_overhead: SimDuration,
    /// Pages prefetched ahead of a sequential fault (0 = disabled).
    prefetch: usize,
    /// Open files in the storage pool (paper §3.1: pushed functions may
    /// use the process's open files like any local function).
    files: Vec<Vec<u8>>,
    /// The installed fault plan's executor (set by `install_faults`), the
    /// one handle every layer polls.
    injector: Option<FaultInjector>,
    /// Page-checksum integrity plane.
    integrity: Integrity,
    /// Background scrubber schedule.
    scrub: ScrubConfig,
    /// Gray-failure detector, armed by `install_faults` when the plan
    /// carries fail-slow specs (`None` otherwise — fault-free and
    /// fail-stop runs stay bit-identical).
    health: Option<HealthMonitor>,
    /// Recovery-plane activity, surfaced as the `recovery.*` metrics.
    recovery: RecoveryCounters,
    /// The epoch each promotion in the timed window promoted *to*, in
    /// order.
    failover_epochs: Vec<u64>,
}

impl Dos {
    /// A monolithic "Linux" server.
    pub fn new_monolithic(cfg: MonolithicConfig) -> Self {
        let cache_pages = (cfg.dram_bytes / PAGE_SIZE).max(1);
        let clock = Clock::new();
        let tracer = Tracer::new(clock.clone());
        Dos {
            clock,
            fabric: Fabric::with_tracer(Default::default(), tracer.clone()),
            ssd: Ssd::with_tracer(cfg.ssd, tracer.clone()),
            tracer,
            space: AddressSpace::new(),
            cache: PageCache::new(cache_pages),
            shards: Vec::new(),
            owner: PageTable::new(0),
            placement: PlacementPolicy::default(),
            alloc_seq: 0,
            swapped: PageTable::new(false),
            stats: PagingStats::default(),
            dram: cfg.dram_cost,
            fault_overhead: cfg.fault_overhead,
            prefetch: 0,
            files: Vec::new(),
            injector: None,
            integrity: Integrity::default(),
            scrub: ScrubConfig::default(),
            health: None,
            recovery: RecoveryCounters::default(),
            failover_epochs: Vec::new(),
            topo: Topology::Monolithic(cfg),
        }
    }

    /// A disaggregated deployment (LegoOS-style). Panics on a degenerate
    /// configuration; use [`Dos::try_new_disaggregated`] to handle the
    /// typed [`ConfigError`] instead.
    pub fn new_disaggregated(cfg: DdcConfig) -> Self {
        match Self::try_new_disaggregated(cfg) {
            Ok(dos) => dos,
            Err(e) => panic!("invalid DDC config: {e}"),
        }
    }

    /// A disaggregated deployment, validating the configuration first so
    /// multi-pool / multi-context mistakes surface as a typed error rather
    /// than a mid-run panic.
    pub fn try_new_disaggregated(cfg: DdcConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let clock = Clock::new();
        let tracer = Tracer::new(clock.clone());
        // Each shard owns an equal slice of the pool's page budget; a
        // single-pool deployment gets the whole budget, exactly as before.
        let shard_pages = cfg.pool_shard_pages();
        Ok(Dos {
            clock,
            fabric: Fabric::with_tracer(cfg.net, tracer.clone()),
            ssd: Ssd::with_tracer(cfg.ssd, tracer.clone()),
            tracer,
            space: AddressSpace::new(),
            cache: PageCache::new(cfg.cache_pages().max(1)),
            shards: (0..cfg.pools)
                .map(|_| PoolShard::new(shard_pages, cfg.replication))
                .collect(),
            owner: PageTable::new(0),
            placement: cfg.placement,
            alloc_seq: 0,
            swapped: PageTable::new(false),
            stats: PagingStats::default(),
            dram: cfg.dram,
            fault_overhead: cfg.fault_overhead,
            prefetch: cfg.prefetch_pages,
            files: Vec::new(),
            injector: None,
            integrity: Integrity {
                enabled: cfg.scrub.every.is_some(),
                ..Integrity::default()
            },
            scrub: cfg.scrub,
            health: None,
            recovery: RecoveryCounters::default(),
            failover_epochs: Vec::new(),
            topo: Topology::Disaggregated(cfg),
        })
    }

    /// Number of memory-pool shards (0 on a monolithic server).
    pub fn pool_count(&self) -> usize {
        self.shards.len()
    }

    /// The placement policy sharding allocations across pools.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// The shard owning `pid`. Single-pool ownership is the identity; on a
    /// multi-pool rack unmapped pages default to shard 0.
    #[inline]
    fn owner_of(&self, pid: PageId) -> usize {
        if self.shards.len() <= 1 {
            0
        } else {
            self.owner.get(pid) as usize
        }
    }

    /// Read-only view of one memory-pool shard, for tests and tooling.
    pub fn pool_at(&self, p: usize) -> &MemoryPool {
        &self.shards[p].pool
    }

    /// The shard owning `pid`, for tests and tooling. `None` on a
    /// monolithic server or for a page no pool has registered.
    pub fn pool_owner(&self, pid: PageId) -> Option<usize> {
        if self.shards.is_empty() {
            return None;
        }
        let p = self.owner_of(pid);
        self.shards[p].pool.is_mapped(pid).then_some(p)
    }

    /// Start a fresh routing window: subsequent memory-side accesses count
    /// on the shard they land on (multi-pool only; free otherwise).
    pub fn begin_pushdown_routing(&mut self) {
        self.end_pushdown_routing();
    }

    /// End the routing window, zeroing the shards' counts: what was touched
    /// since [`Dos::begin_pushdown_routing`]. One walk of the shards, last
    /// to first, so `primary` ends on the lowest-index shard touched.
    pub fn end_pushdown_routing(&mut self) -> RoutingWindow {
        let mut window = RoutingWindow::default();
        for (p, shard) in self.shards.iter_mut().enumerate().rev() {
            let pages = std::mem::take(&mut shard.touched_pages);
            if pages > 0 {
                window.primary = p;
                window.pools += 1;
                window.pages += pages;
            }
        }
        window
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn is_disaggregated(&self) -> bool {
        matches!(self.topo, Topology::Disaggregated(_))
    }

    /// The DDC configuration; panics on a monolithic kernel. Used by the
    /// TELEPORT layer, which only exists on disaggregated deployments.
    pub fn ddc_config(&self) -> &DdcConfig {
        match &self.topo {
            Topology::Disaggregated(c) => c,
            Topology::Monolithic(_) => panic!("not a disaggregated deployment"),
        }
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// Wire a fault injector into the devices this kernel owns: the fabric
    /// starts paying latency spikes/partitions and the SSD starts seeing
    /// transient errors/latency storms per the injector's plan. A plan that
    /// carries corruption specs also turns the integrity plane on, sealing
    /// a checksum over every page mapped so far.
    pub fn install_faults(&mut self, inj: &FaultInjector) {
        self.fabric.set_injector(inj.clone());
        self.ssd.set_injector(inj.clone());
        self.injector = Some(inj.clone());
        if inj.has_corruption_specs() {
            self.enable_integrity();
        }
        if inj.has_crash_restart_specs() {
            self.enable_recovery_journal();
        }
        // A restarted pool rejoins placement through the probation probe
        // streak, so crash plans arm the health plane too.
        if inj.has_fail_slow_specs() || (inj.has_crash_restart_specs() && self.health.is_none()) {
            self.health = Some(HealthMonitor::new(
                self.shards.len().max(1),
                HealthConfig::default(),
                self.tracer.clone(),
            ));
        }
    }

    /// The installed fault plan's injector, if any.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// The gray-failure monitor, when armed (fail-slow specs in the plan).
    pub fn health(&self) -> Option<&HealthMonitor> {
        self.health.as_ref()
    }

    /// Feed one pushdown's memory-side execution `window`, attributed to
    /// shard `pool`, to the gray-failure detector (a no-op while the plane
    /// is disarmed).
    pub fn observe_service(&mut self, pool: usize, window: SimDuration) {
        if let Some(h) = &mut self.health {
            h.observe_service(pool, window);
        }
    }

    /// One tick of the gray-failure plane, run once per pushdown after the
    /// heartbeat round (a no-op returning zero while the plane is
    /// disarmed): feed this beat's modeled control round trip to every
    /// shard's RTT estimator — a lame fabric link inflates it long before
    /// service times move — then fire the synthetic probe any quarantined
    /// or probationary shard is due for, judging each against the
    /// fault-free cost model. Returns the virtual time the probes charged:
    /// background work of the health plane that rides the calling pushdown's
    /// charge-out but is not that caller's latency.
    pub fn health_tick(&mut self) -> SimDuration {
        let mut probing = SimDuration::ZERO;
        if self.health.is_none() {
            return probing;
        }
        let rtt = self.control_rtt();
        let healthy = self.healthy_probe_cost();
        if let Some(h) = &mut self.health {
            for p in 0..h.pool_count() {
                h.observe_rtt(p, rtt);
            }
        }
        for p in 0..self.shards.len() {
            let now = self.clock.now();
            if !self.health.as_ref().is_some_and(|h| h.should_probe(p, now)) {
                continue;
            }
            let measured = self.probe_pool(p);
            let at = self.clock.now();
            if let Some(h) = &mut self.health {
                h.record_probe(p, at, measured, healthy);
            }
            probing += measured;
        }
        probing
    }

    /// Cost-model prediction of one fault-free synthetic health probe: a
    /// control round trip plus a burst of pool-side random DRAM touches.
    /// The health plane compares measured probes against this.
    fn healthy_probe_cost(&self) -> SimDuration {
        self.fabric.config().transfer_time(HEALTH_PROBE_BYTES) * 2
            + self.dram.random_access * HEALTH_PROBE_TOUCHES
    }

    /// Run one synthetic health probe against shard `p`, charging its real
    /// (possibly fail-slow-inflated) cost to virtual time: a control round
    /// trip over the fabric plus a burst of pool-side DRAM touches. Returns
    /// the measured duration for [`HealthMonitor::record_probe`] to judge.
    fn probe_pool(&mut self, p: usize) -> SimDuration {
        let start = self.clock.now();
        self.wire(MsgClass::Control, HEALTH_PROBE_BYTES);
        self.charge(
            self.dram.random_access * (HEALTH_PROBE_TOUCHES * self.pool_slowdown(p) as u64),
        );
        self.wire(MsgClass::Control, HEALTH_PROBE_BYTES);
        self.clock.now().since(start)
    }

    /// One heartbeat round trip's modeled wire time, for the health
    /// plane's RTT estimator — *observed*, never charged (the heartbeat
    /// budget is already part of the runtime's cost model). An active lame
    /// link inflates it, so fabric gray failures surface here first.
    fn control_rtt(&self) -> SimDuration {
        let base = self.fabric.config().transfer_time(HEALTH_PROBE_BYTES) * 2;
        match &self.injector {
            Some(inj) => base * inj.fabric_slowdown() as u64,
            None => base,
        }
    }

    /// The event-trace handle shared by this kernel, its fabric, and its
    /// SSD. Disabled (and free) by default; see [`ddc_sim::trace`].
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    pub fn stats(&self) -> PagingStats {
        self.stats
    }

    /// Compute-pool CPU (the server CPU in the monolithic topology).
    #[inline]
    pub fn compute_cpu(&self) -> ddc_sim::CpuConfig {
        match &self.topo {
            Topology::Monolithic(c) => c.cpu,
            Topology::Disaggregated(c) => c.compute_cpu,
        }
    }

    /// Charge `cycles` of compute-pool CPU work.
    #[inline]
    pub fn charge_compute_cycles(&mut self, cycles: u64) {
        self.charge(self.compute_cpu().cycles(cycles));
    }

    /// Charge an arbitrary duration (used by upper layers for modeled
    /// costs that are not memory accesses). The kernel's one door to the
    /// virtual clock: every charge in this file goes through here, and
    /// `clippy.toml` bans `Clock::advance` everywhere else in the crate.
    #[inline]
    #[allow(clippy::disallowed_methods)]
    pub fn charge(&mut self, d: SimDuration) {
        self.clock.advance(d);
    }

    // ------------------------------------------------------------------
    // Device charges — the one place each device cost is billed
    // ------------------------------------------------------------------

    /// One page read from the storage pool on the paging path: the device
    /// call (which traces the I/O), its time, and the paging ledger.
    #[inline]
    fn ssd_page_in(&mut self) {
        let d = self.ssd.read_page();
        self.charge(d);
        self.stats.storage_page_in += 1;
    }

    /// One page written to the storage pool on the paging path.
    #[inline]
    fn ssd_page_out(&mut self) {
        let d = self.ssd.write_page();
        self.charge(d);
        self.stats.storage_page_out += 1;
    }

    /// The recovery journal's own page I/O on the shard's durable media:
    /// charged like any device access, but not paging traffic.
    #[inline]
    fn journal_io(&mut self, write: bool) {
        let d = if write {
            self.ssd.write_page()
        } else {
            self.ssd.read_page()
        };
        self.charge(d);
    }

    /// One fabric message of `bytes` payload: the send (which traces and
    /// ledgers it) and its wire time.
    #[inline]
    fn wire(&mut self, class: MsgClass, bytes: usize) {
        let d = self.fabric.send(class, bytes);
        self.charge(d);
    }

    /// Bill the storage traffic one memory-pool fault caused — the
    /// recursive half of §2.1's fault path: the victim's write-back first,
    /// then the read of the faulting page.
    #[inline]
    fn charge_pool_fault(&mut self, fault: PoolFault) {
        if fault.storage_writeback {
            self.ssd_page_out();
        }
        if fault.storage_read {
            self.ssd_page_in();
        }
    }

    /// A dirty compute-cache page's image flows back to its owning shard:
    /// the page-out crosses the fabric and lands dirty in the pool, the
    /// write is journaled to the replica, and the landed copy is polled for
    /// a scribble — latent until the next read or scrub pass. (The write
    /// that dirtied the page already marked its seal stale, so a scribble
    /// here is sealed over the image the write-back carried.)
    #[inline]
    fn flush_dirty_to_pool(&mut self, pid: PageId) {
        self.wire(MsgClass::PageOut, PAGE_SIZE);
        self.stats.remote_page_out += 1;
        let p = self.owner_of(pid);
        self.shards[p].pool.mark_dirty(pid);
        self.replicate_for(p, ReplOp::PageWrite(pid));
        self.poll_corruption(CorruptionPoint::Pool, pid);
    }

    // ------------------------------------------------------------------
    // Allocation and experiment setup
    // ------------------------------------------------------------------

    /// Allocate `bytes` of zeroed process memory. In the disaggregated
    /// topology the pages materialize in the memory pool (spilling LRU
    /// pages to storage if the pool is full); nothing enters the compute
    /// cache until first touch.
    pub fn alloc(&mut self, bytes: usize) -> VAddr {
        let addr = self.space.alloc(bytes);
        self.place_pages(addr);
        addr
    }

    /// [`alloc`](Self::alloc) for a caller about to write every byte: placed
    /// and charged the same, but a recycled backing buffer is not zeroed
    /// first ([`AddressSpace::alloc_for_overwrite`]). What the caller leaves
    /// unwritten it must zero with [`Dos::zero_from`] before anything reads
    /// it.
    pub fn alloc_for_overwrite(&mut self, bytes: usize) -> VAddr {
        let addr = self.space.alloc_for_overwrite(bytes);
        self.place_pages(addr);
        addr
    }

    /// Map the pages of the new allocation at `addr` into the memory pool
    /// (nothing to do on a monolithic server).
    fn place_pages(&mut self, addr: VAddr) {
        if !self.shards.is_empty() {
            let pages: Vec<PageId> = self.space.pages_of(addr).collect();
            let owners = self.place_allocation(&pages);
            self.alloc_seq += 1;
            for (&pid, &p) in pages.iter().zip(&owners) {
                if self.shards.len() > 1 {
                    *self.owner.entry(pid) =
                        u16::try_from(p).expect("the owner table holds shard indices below 65536");
                }
                let fault = self.shards[p].pool.register(pid);
                self.charge_pool_fault(fault);
            }
            // One journal entry per maximal same-owner run (a single-pool
            // deployment journals the whole contiguous range, as before).
            let mut i = 0;
            for run in owners.chunk_by(|a, b| a == b) {
                self.replicate_for(
                    run[0],
                    ReplOp::RegisterRange {
                        first: pages[i],
                        count: run.len() as u64,
                    },
                );
                i += run.len();
            }
        }
    }

    /// Pick the owning shard for each page of a fresh allocation.
    ///
    /// - `FirstFit`: the whole allocation lands on the first shard whose
    ///   page table still has room for it, falling back to the shard with
    ///   the most free page-table slots (lowest index on ties);
    /// - `Locality`: whole allocations round-robin across shards, keeping
    ///   each data structure's pages on one pool;
    /// - `LoadBalance`: page-granular striping by page number, spreading
    ///   every structure across the rack (and creating cross-pool fan-out).
    ///
    /// On a single-pool deployment every policy is the identity.
    ///
    /// When the gray-failure plane is armed, quarantined shards are
    /// excluded: every policy runs over the placeable subset (falling back
    /// to the full rack if quarantine somehow emptied it — placement never
    /// strands an allocation). With the plane disarmed the subset is the
    /// identity, so placement stays bit-for-bit as before.
    fn place_allocation(&self, pages: &[PageId]) -> Vec<usize> {
        let n = self.shards.len();
        if n <= 1 {
            return vec![0; pages.len()];
        }
        let allowed: Vec<usize> = match &self.health {
            Some(h) => {
                let ok: Vec<usize> = (0..n).filter(|&p| h.is_placeable(p)).collect();
                if ok.is_empty() {
                    (0..n).collect()
                } else {
                    ok
                }
            }
            None => (0..n).collect(),
        };
        let k = allowed.len();
        match self.placement {
            PlacementPolicy::FirstFit => {
                let pool = |p: usize| &self.shards[p].pool;
                let fits = allowed
                    .iter()
                    .copied()
                    .find(|&p| pool(p).mapped_len() + pages.len() <= pool(p).capacity());
                let p = fits.unwrap_or_else(|| {
                    allowed
                        .iter()
                        .copied()
                        .max_by_key(|&p| {
                            let free = pool(p).capacity().saturating_sub(pool(p).mapped_len());
                            // Ties break toward the lowest index.
                            (free, n - p)
                        })
                        .expect("at least one pool")
                });
                vec![p; pages.len()]
            }
            PlacementPolicy::Locality => vec![allowed[(self.alloc_seq as usize) % k]; pages.len()],
            PlacementPolicy::LoadBalance => pages
                .iter()
                .map(|pid| allowed[(pid.0 as usize) % k])
                .collect(),
        }
    }

    /// Reset the clock and every metric ledger. Call after loading data so
    /// the timed run starts at zero with the residency state intact.
    pub fn begin_timing(&mut self) {
        let now = self.clock.now();
        self.clock.reset();
        self.stats = PagingStats::default();
        self.fabric.reset_ledger();
        self.ssd.reset_counters();
        self.tracer.reset();
        for shard in &mut self.shards {
            if let Some(rep) = &mut shard.replica {
                rep.reset_counters();
            }
            shard.failover = None;
            shard.integrity = PoolIntegrity::default();
            // A scheduled restart is residency state: it keeps what is
            // left of its outage on the reset clock.
            if let Some(r) = &mut shard.restart {
                r.at = SimTime(r.at.since(now).as_nanos());
            }
        }
        // Integrity counters cover the timed window; the seals, pending
        // corruption, and lost-page set describe residency state and stay.
        self.integrity.window = IntegrityWindow::default();
        self.recovery = RecoveryCounters::default();
        self.failover_epochs.clear();
    }

    /// Flush and drop the whole compute cache (dirty pages are written
    /// back). Gives experiments a deterministic cold start.
    pub fn drop_cache(&mut self) {
        self.flush_and_clear_cache();
    }

    // ------------------------------------------------------------------
    // Compute-side access path
    // ------------------------------------------------------------------

    /// Read `len` bytes at `addr`, charging the compute-side cost model.
    pub fn read_bytes(&mut self, addr: VAddr, len: usize, pat: Pattern) -> &[u8] {
        self.touch_range(addr, len, false, pat);
        self.space.bytes(addr, len)
    }

    /// Write `data` at `addr`, charging the compute-side cost model.
    pub fn write_bytes(&mut self, addr: VAddr, data: &[u8], pat: Pattern) {
        self.touch_range(addr, data.len(), true, pat);
        self.space.write(addr, data);
    }

    pub fn read_u64(&mut self, addr: VAddr, pat: Pattern) -> u64 {
        self.touch_range(addr, 8, false, pat);
        self.space.read_u64(addr)
    }

    pub fn write_u64(&mut self, addr: VAddr, v: u64, pat: Pattern) {
        self.touch_range(addr, 8, true, pat);
        self.space.write_u64(addr, v);
    }

    /// Charge for touching `[addr, addr+len)` from the compute pool,
    /// faulting pages in as needed.
    #[inline]
    // The one `debug_assert!` here catches an application-level addressing
    // bug on the hot access path, not cross-pool protocol state.
    #[allow(clippy::disallowed_macros)]
    pub fn touch_range(&mut self, addr: VAddr, len: usize, write: bool, pat: Pattern) {
        debug_assert!(self.space.is_mapped(addr), "touch of unmapped {addr}");
        for_each_page(addr, len, |pid, in_page| {
            self.touch_page(pid, in_page, write, pat)
        });
    }

    /// One page's share of [`Dos::touch_range`]: `in_page` bytes of `pid`.
    #[inline]
    fn touch_page(&mut self, pid: PageId, in_page: usize, write: bool, pat: Pattern) {
        if self.cache.access(pid, write) {
            self.stats.cache_hits += 1;
            if self.integrity.enabled {
                // The authoritative bytes are shared across pools, so a
                // latent scribble is observable even through a cache
                // hit; detect it before the access reads the page.
                self.check_page(pid, CorruptionPoint::Pool);
            }
        } else {
            self.fault_in(pid, write);
            if pat == Pattern::Seq && self.prefetch > 0 {
                self.prefetch_ahead(pid);
            }
        }
        if write {
            self.mark_stale(pid);
        }
        self.charge(self.dram_cost(pat, in_page));
    }

    /// Charge `hits` more compute-side reads of `len` bytes on `pid`, right
    /// after an access that left it most recently used, as the per-access
    /// path would: each one a cache hit that moves nothing in the LRU, plus
    /// its DRAM time. Returns `false`, charging nothing, where a repeated
    /// read is more than that sum: the integrity plane checks the page on
    /// every hit, and a page not at the head of the LRU (a sequential
    /// fault's prefetch went past it) would move.
    #[inline]
    pub fn repeat_reads(&mut self, pid: PageId, len: usize, pat: Pattern, hits: u64) -> bool {
        if self.integrity.enabled || !self.cache.is_mru(pid) {
            return false;
        }
        self.stats.cache_hits += hits;
        self.charge(self.dram_cost(pat, len) * hits);
        true
    }

    /// LegoOS-style sequential prefetch: after a sequential-pattern fault
    /// on `pid`, pull the next few mapped pages in one batched transfer
    /// (single message latency, streaming the pages' bytes).
    fn prefetch_ahead(&mut self, pid: PageId) {
        if self.shards.is_empty() {
            return; // swap readahead is already folded into the SSD model
        }
        let mut fetched = 0usize;
        for i in 1..=self.prefetch as u64 {
            let next = pid.offset(i);
            if !self.space.is_mapped(next.base()) {
                break;
            }
            if self.cache.probe(next).is_some() {
                continue;
            }
            let p = self.owner_of(next);
            let fault = self.shards[p].pool.ensure_resident(next);
            self.charge_pool_fault(fault);
            self.shards[p].pool.pin(next);
            if let Some(victim) = self.cache.insert(next, false) {
                self.write_back_evicted(victim.page, victim.dirty);
            }
            self.stats.remote_page_in += 1;
            fetched += 1;
        }
        if fetched > 0 {
            // One batched wire transfer for the whole prefetch window.
            self.wire(MsgClass::PageIn, fetched * PAGE_SIZE);
        }
    }

    #[inline]
    fn dram_cost(&self, pat: Pattern, touched: usize) -> SimDuration {
        match pat {
            Pattern::Rand => self.dram.random_access,
            Pattern::Seq => {
                let ns = self.dram.sequential_page.as_nanos() as u128 * touched as u128
                    / PAGE_SIZE as u128;
                SimDuration::from_nanos(ns as u64)
            }
        }
    }

    /// Handle a compute-side page fault on `pid`.
    fn fault_in(&mut self, pid: PageId, write: bool) {
        self.stats.cache_misses += 1;
        if self.tracer.is_enabled() {
            // Classify before `ensure_resident` pulls the page up a level.
            let level = if self.shards.is_empty() {
                if self.swapped.get(pid) {
                    FaultLevel::Storage
                } else {
                    FaultLevel::Cache
                }
            } else if self.shards[self.owner_of(pid)].pool.is_resident(pid) {
                FaultLevel::Remote
            } else {
                FaultLevel::Storage
            };
            self.tracer.emit(
                Lane::Compute,
                TraceEvent::PageFault {
                    vaddr: pid.base().0,
                    level,
                },
            );
        }
        self.charge(self.fault_overhead);
        if !self.shards.is_empty() {
            // Recursive fault: the owning memory pool pulls the page from
            // storage if it was swapped out.
            let p = self.owner_of(pid);
            let fault = self.shards[p].pool.ensure_resident(pid);
            self.charge_pool_fault(fault);
            // Page travels memory pool -> compute cache.
            self.wire(MsgClass::PageIn, PAGE_SIZE);
            self.stats.remote_page_in += 1;
            self.shards[p].pool.pin(pid);
            if self.integrity.enabled {
                if fault.storage_read {
                    self.poll_corruption(CorruptionPoint::Ssd, pid);
                    self.check_page(pid, CorruptionPoint::Ssd);
                }
                // The page just crossed the fabric; poll for an
                // in-flight bit flip and verify the delivery.
                self.poll_corruption(CorruptionPoint::Fabric, pid);
                self.check_page(pid, CorruptionPoint::Fabric);
            }
        } else {
            // Monolithic: first touch materializes a zero page for
            // free; a refault reads the swap copy.
            if self.swapped.get(pid) {
                self.ssd_page_in();
                if self.integrity.enabled {
                    self.poll_corruption(CorruptionPoint::Ssd, pid);
                    self.check_page(pid, CorruptionPoint::Ssd);
                }
            }
        }
        if let Some(victim) = self.cache.insert(pid, write) {
            self.write_back_evicted(victim.page, victim.dirty);
        }
    }

    /// Account for evicting `page` from the compute cache.
    fn write_back_evicted(&mut self, page: PageId, dirty: bool) {
        self.stats.evictions += 1;
        self.tracer.emit(
            Lane::Compute,
            TraceEvent::Evict {
                page: page.0,
                dirty,
            },
        );
        if !self.shards.is_empty() {
            let p = self.owner_of(page);
            self.shards[p].pool.unpin(page);
            if dirty {
                self.flush_dirty_to_pool(page);
            }
        } else if dirty {
            self.ssd_page_out();
            *self.swapped.entry(page) = true;
        }
    }

    // ------------------------------------------------------------------
    // Memory-side (pushdown) access path — used by the TELEPORT layer
    // ------------------------------------------------------------------

    /// Charge for touching `[addr, addr+len)` from *inside the memory
    /// pool*: pool-local DRAM cost, recursing to storage for swapped pages.
    /// Coherence with the compute cache is the TELEPORT layer's job and
    /// must be settled before calling this.
    pub fn mem_touch_range(&mut self, addr: VAddr, len: usize, write: bool, pat: Pattern) {
        // A memory-side access on a monolithic kernel is a cross-pool
        // protocol violation (there is no pool); in release it previously
        // surfaced as a confusing `expect` on the pool handle below, so
        // check it up front in every build.
        assert!(self.is_disaggregated(), "mem-side access on monolithic");
        for_each_page(addr, len, |pid, in_page| {
            self.mem_touch_page(pid, in_page, write, pat)
        });
    }

    /// One page's share of [`Dos::mem_touch_range`].
    #[inline]
    fn mem_touch_page(&mut self, pid: PageId, in_page: usize, write: bool, pat: Pattern) {
        self.stats.mem_side_accesses += 1;
        let p = self.owner_of(pid);
        if self.shards.len() > 1 {
            // Record the routing decision for the runtime's fan-out
            // accounting (free on single-pool deployments).
            self.shards[p].touched_pages += 1;
        }
        let fault = self.shards[p].pool.ensure_resident(pid);
        if fault.storage_read {
            // A memory-side fault never crosses the fabric: it either
            // hits pool DRAM (no event) or recurses to storage.
            self.tracer.emit(
                Lane::Memory,
                TraceEvent::PageFault {
                    vaddr: pid.base().0,
                    level: FaultLevel::Storage,
                },
            );
        }
        self.charge_pool_fault(fault);
        if self.integrity.enabled {
            if fault.storage_read {
                self.poll_corruption(CorruptionPoint::Ssd, pid);
                self.check_page(pid, CorruptionPoint::Ssd);
            } else {
                // Latent scribbles surface at the next in-pool access.
                self.check_page(pid, CorruptionPoint::Pool);
            }
        }
        if write {
            self.shards[p].pool.mark_dirty(pid);
            self.replicate_for(p, ReplOp::PageWrite(pid));
            self.mark_stale(pid);
        }
        self.charge(self.dram_cost(pat, in_page) * self.pool_slowdown(p) as u64);
    }

    /// The memory-side [`Dos::repeat_reads`]: `hits` more reads of `len`
    /// bytes on `pid` right after a [`Dos::mem_touch_range`] of it, which
    /// left the page pool-resident and at the head of its shard's LRU (or
    /// pinned), so each repeat is one memory-side access, its routing
    /// count and its DRAM time. Returns `false`, charging nothing, while
    /// the integrity plane (a check per access) or the health plane (a
    /// fail-slow multiplier read per access) is armed.
    #[inline]
    pub fn mem_repeat_reads(&mut self, pid: PageId, len: usize, pat: Pattern, hits: u64) -> bool {
        let p = self.owner_of(pid);
        let resident = self.shards.get(p).is_some_and(|s| s.pool.is_resident(pid));
        if self.integrity.enabled || self.health.is_some() || !resident {
            return false;
        }
        self.stats.mem_side_accesses += hits;
        if self.shards.len() > 1 {
            self.shards[p].touched_pages += hits;
        }
        self.charge(self.dram_cost(pat, len) * hits);
        true
    }

    /// Fail-slow multiplier for memory-side service on shard `p` (1 when
    /// the gray-failure plane is disarmed). Gated on the armed health
    /// plane so fault-free and fail-stop runs never poll the injector on
    /// this hot path.
    #[inline]
    fn pool_slowdown(&self, p: usize) -> u32 {
        if self.health.is_none() {
            return 1;
        }
        match &self.injector {
            Some(inj) => inj.pool_slowdown_for(p),
            None => 1,
        }
    }

    // ------------------------------------------------------------------
    // File I/O through the storage pool
    // ------------------------------------------------------------------

    /// Create a file with `content` in the storage pool (setup; callers
    /// normally `begin_timing` afterwards).
    pub fn create_file(&mut self, content: Vec<u8>) -> FileId {
        self.files.push(content);
        FileId(self.files.len() as u32 - 1)
    }

    /// Read `len` bytes of `file` at `offset`, charging the storage pool's
    /// streaming cost. On a DDC, file data flows storage → memory pool; a
    /// *compute-side* read additionally crosses the fabric (§2.1's
    /// recursive path), which a pushed-down reader avoids.
    pub fn file_read(
        &mut self,
        file: FileId,
        offset: usize,
        len: usize,
        memory_side: bool,
    ) -> &[u8] {
        let data = &self.files[file.0 as usize];
        assert!(offset + len <= data.len(), "file read out of bounds");
        let d = self.ssd.read_bulk(len);
        self.charge(d);
        self.stats.storage_page_in += len.div_ceil(PAGE_SIZE) as u64;
        if self.is_disaggregated() && !memory_side {
            self.wire(MsgClass::PageIn, len);
            self.stats.remote_page_in += len.div_ceil(PAGE_SIZE) as u64;
        }
        &self.files[file.0 as usize][offset..offset + len]
    }

    /// Append to a file, charging the streaming write cost (plus the
    /// fabric hop for compute-side writers on a DDC).
    pub fn file_append(&mut self, file: FileId, data: &[u8], memory_side: bool) {
        let d = self.ssd.read_bulk(data.len()); // same streaming cost model
        self.charge(d);
        self.stats.storage_page_out += data.len().div_ceil(PAGE_SIZE) as u64;
        if self.is_disaggregated() && !memory_side {
            self.wire(MsgClass::PageOut, data.len());
            self.stats.remote_page_out += data.len().div_ceil(PAGE_SIZE) as u64;
        }
        self.files[file.0 as usize].extend_from_slice(data);
    }

    /// Raw access to the backing bytes without any charge. Only for the
    /// TELEPORT layer (data movement that was already priced) and for test
    /// oracles.
    #[inline]
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable raw access; see [`Dos::space`].
    #[inline]
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    // ------------------------------------------------------------------
    // Coherence hooks — used by the TELEPORT layer
    // ------------------------------------------------------------------

    /// Pages currently resident in the compute cache together with their
    /// write permission, sorted by page id (the pushdown request ships this
    /// list, RLE-compressed): [`Dos::resident_view`]'s table listed in page
    /// order.
    pub fn resident_list(&self) -> Vec<(PageId, bool)> {
        self.cache.resident_view().to_list()
    }

    /// The compute cache's page-indexed view of itself, shared rather than
    /// copied, with its length and the run count its RLE encoding would
    /// have.
    pub fn resident_view(&self) -> ResidentView {
        self.cache.resident_view()
    }

    /// Cache metadata for one page.
    pub fn cache_probe(&self, pid: PageId) -> Option<CacheEntry> {
        self.cache.probe(pid)
    }

    /// Number of pages resident in the compute cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Coherence invalidation: the memory pool requested write access to
    /// `pid`. Removes the page from the compute cache; a dirty copy is
    /// flushed back to the pool (priced as a page-out). Returns the prior
    /// entry if the page was resident.
    pub fn coherence_evict(&mut self, pid: PageId) -> Option<CacheEntry> {
        let e = self.cache.evict(pid)?;
        assert!(!self.shards.is_empty(), "coherence on disaggregated only");
        self.write_back_evicted(pid, e.dirty);
        Some(e)
    }

    /// Coherence downgrade: the memory pool requested read access to `pid`.
    /// The compute copy stays resident but read-only; a dirty copy is
    /// flushed first. Returns the prior entry if the page was resident.
    pub fn coherence_downgrade(&mut self, pid: PageId) -> Option<CacheEntry> {
        let e = self.cache.downgrade(pid)?;
        if e.dirty {
            self.flush_dirty_to_pool(pid);
        }
        Some(e)
    }

    /// `syncmem`: flush every dirty page in the compute cache back to the
    /// memory pool (pages stay resident and writable). Returns how many
    /// pages were flushed.
    pub fn syncmem(&mut self) -> usize {
        let dirty = self.cache.dirty_pages();
        self.sync_pages(dirty)
    }

    /// `syncmem` restricted to the pages spanned by `[addr, addr+len)`.
    pub fn syncmem_range(&mut self, addr: VAddr, len: usize) -> usize {
        let dirty = pages_spanned(addr, len)
            .filter(|&pid| self.cache.probe(pid).is_some_and(|e| e.dirty))
            .collect();
        self.sync_pages(dirty)
    }

    /// Flush the given dirty cached pages (address order) and trace the
    /// synchronization point.
    fn sync_pages(&mut self, dirty: Vec<PageId>) -> usize {
        for &pid in &dirty {
            self.cache.mark_clean(pid);
            self.flush_dirty_to_pool(pid);
        }
        self.tracer.emit(
            Lane::Compute,
            TraceEvent::Syncmem {
                pages: dirty.len() as u64,
            },
        );
        dirty.len()
    }

    /// Eager-sync strawman support: flush and drop every cached page,
    /// returning the list of pages that were resident (so they can be
    /// re-fetched after pushdown).
    pub fn flush_and_clear_cache(&mut self) -> Vec<PageId> {
        let resident = self.cache.resident_sorted();
        for &pid in &resident {
            if let Some(e) = self.cache.evict(pid) {
                self.write_back_evicted(pid, e.dirty);
            }
        }
        resident
    }

    /// Eager-sync strawman support: page `pids` back into the compute
    /// cache (read-only), charging a page-in each.
    pub fn prefetch_pages(&mut self, pids: &[PageId]) {
        for &pid in pids {
            if self.cache.probe(pid).is_none() {
                self.fault_in(pid, false);
            }
        }
    }

    // ------------------------------------------------------------------
    // Replication & failover — used by the TELEPORT layer
    // ------------------------------------------------------------------

    /// Append one mutation to shard `p`'s replication journal (no-op
    /// without a replica). Shipping discipline is the configured
    /// `ReplicationMode`.
    fn replicate_for(&mut self, p: usize, op: ReplOp) {
        let shard = &mut self.shards[p];
        if let Some(rep) = &mut shard.replica {
            rep.record(op, &self.fabric, &self.ssd, &self.clock, &self.tracer);
        }
        if shard.journal.as_mut().is_some_and(|j| j.append(op)) {
            // Sync point: the batch lands on the shard's durable media.
            self.journal_io(true);
        }
    }

    /// True if shard `p` has a backup pool standing by (i.e. that shard's
    /// death is survivable). Becomes false once the backup has been
    /// consumed by a failover.
    pub fn has_replica_for(&self, p: usize) -> bool {
        self.shards.get(p).is_some_and(|s| s.replica.is_some())
    }

    /// Epoch of shard `p`'s current primary (0 until a promotion or
    /// restart happens).
    pub fn pool_epoch_for(&self, p: usize) -> u64 {
        self.shards.get(p).map_or(0, |s| s.epoch)
    }

    /// Replication activity so far, summed across shards: live counters
    /// while a replica stands by, the final pre-promotion counters after a
    /// failover. `None` when replication was never configured.
    pub fn replication_counters(&self) -> Option<ReplicationCounters> {
        let mut total: Option<ReplicationCounters> = None;
        for shard in &self.shards {
            let c = match (&shard.replica, &shard.failover) {
                (Some(rep), _) => rep.counters(),
                (None, Some((_, c))) => *c,
                (None, None) => continue,
            };
            let t = total.get_or_insert_with(ReplicationCounters::default);
            t.journal_appends += c.journal_appends;
            t.ship_messages += c.ship_messages;
            t.pages_shipped += c.pages_shipped;
            t.acks += c.acks;
        }
        total
    }

    /// What the first completed failover did, once one has happened (the
    /// lowest-index failed-over shard).
    pub fn failover_report(&self) -> Option<FailoverReport> {
        self.shards.iter().find_map(|s| s.failover.map(|(r, _)| r))
    }

    /// Promote shard `p`'s backup after that shard's primary died. Pages
    /// owned by other shards (and their cache copies) are untouched: a
    /// rack-scale deployment loses one shard at a time. Crash-consistency
    /// rules:
    ///
    /// - every page named by a still-pending (un-acked) journal entry is
    ///   *lost*: its backup copy is never trusted, and it is re-fetched
    ///   from the storage pool (one authoritative read per page);
    /// - compute-cache copies of lost pages are invalidated by epoch
    ///   comparison — their latest write-back died with the primary, so
    ///   they are dropped without a write-back and refault on next touch;
    /// - surviving cache pages are re-pinned in the promoted pool, so the
    ///   coherence session continues against a consistent page table.
    ///
    /// Consumes the backup: a second death of the shard is fatal again
    /// until a restart re-silvers a new standby. A crashed primary's
    /// hardware is scheduled to rejoin now (see [`Dos::restart_pool`]); one
    /// that died of missed heartbeats never returns. The promoted primary
    /// starts with no missed heartbeats on record. Returns `None` when no
    /// replica is standing by.
    pub fn failover_to_replica_for(&mut self, p: usize) -> Option<FailoverReport> {
        let shard = self.shards.get_mut(p)?;
        let (promoted, lost_list, counters) = shard.replica.take()?.promote();
        shard.pool = promoted;
        for &pid in &lost_list {
            let pool = &mut self.shards[p].pool;
            let fault = if pool.is_mapped(pid) {
                pool.ensure_resident(pid)
            } else {
                // The page's registration itself was still in flight.
                pool.register(pid)
            };
            // Exactly one authoritative storage read per lost page (it
            // subsumes any residency fault the pool reported).
            self.charge_pool_fault(PoolFault {
                storage_read: true,
                ..fault
            });
        }
        // Only this shard's cache pages reconcile; other shards' primaries
        // are healthy.
        let invalidations = self.reconcile_cache(p, &lost_list);
        let shard = &mut self.shards[p];
        let old_epoch = shard.epoch;
        shard.epoch += 1;
        let report = FailoverReport {
            old_epoch,
            new_epoch: shard.epoch,
            lost_pages: lost_list.len() as u64,
            refetched_pages: lost_list.len() as u64,
            cache_invalidations: invalidations,
        };
        shard.failover = Some((report, counters));
        // The shard is serving again (the dead primary's eventual wake-up
        // is fenced by the epoch bump above).
        if std::mem::take(&mut shard.down) {
            shard.restart = Some(Restart {
                at: self.clock.now(),
                stale_epoch: old_epoch,
            });
        }
        shard.missed_beats = 0;
        self.failover_epochs.push(report.new_epoch);
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::PoolPromoted {
                epoch: report.new_epoch,
                lost_pages: report.lost_pages,
            },
        );
        // The promoted primary starts a fresh journal life at the new epoch.
        self.reseed_journal(p);
        Some(report)
    }

    /// Reconcile the compute cache against shard `p`'s rebuilt or promoted
    /// page table. Cached copies of `lost_list` pages carry a stale epoch:
    /// their write-back lineage died with the old primary, so they are
    /// dropped silently (no write-back) and the next touch refaults the
    /// authoritative storage copy. Surviving copies re-pin. Returns the
    /// number of copies dropped.
    fn reconcile_cache(&mut self, p: usize, lost_list: &[PageId]) -> u64 {
        let lost_set: BTreeSet<PageId> = lost_list.iter().copied().collect();
        let mut invalidations = 0u64;
        for pid in self.cache.resident_sorted() {
            if self.owner_of(pid) != p {
                continue;
            }
            if lost_set.contains(&pid) {
                let _ = self.cache.evict(pid);
                invalidations += 1;
            } else {
                let fault = self.shards[p].pool.ensure_resident(pid);
                self.charge_pool_fault(fault);
                self.shards[p].pool.pin(pid);
            }
        }
        invalidations
    }

    // ------------------------------------------------------------------
    // Crash-restart recovery: journal, fencing, rejoin
    // ------------------------------------------------------------------

    /// Arm the per-shard crash-recovery journals, seeding each with a
    /// durable base snapshot of the pages its shard currently owns.
    /// Idempotent; armed automatically by `install_faults` when the plan
    /// carries crash-restart specs.
    pub fn enable_recovery_journal(&mut self) {
        if self.journal_armed() {
            return;
        }
        for p in 0..self.shards.len() {
            let shard = &mut self.shards[p];
            shard.journal = Some(RecoveryJournal::new(shard.epoch));
            self.reseed_journal(p);
        }
    }

    /// True once the recovery journals are armed.
    pub fn journal_armed(&self) -> bool {
        self.shards.iter().any(|s| s.journal.is_some())
    }

    /// Recovery-plane activity so far (crashes, restarts, replays,
    /// fencings), reset by `begin_timing`.
    pub fn recovery_counters(&self) -> RecoveryCounters {
        self.recovery
    }

    /// False while shard `p` is crashed (volatile state wiped, restart or
    /// failover pending).
    pub fn pool_available_for(&self, p: usize) -> bool {
        !self.shards.get(p).is_some_and(|s| s.down)
    }

    /// Corrupt the first un-synced entry of shard `p`'s journal, as a torn
    /// write would. Public so tests can model a tear without an injector;
    /// `FaultSpec::TornJournalWrite` routes here via `crash_pool`.
    pub fn tear_journal_tail(&mut self, p: usize) {
        if let Some(j) = self.shards.get_mut(p).and_then(|s| s.journal.as_mut()) {
            j.tear_tail();
        }
    }

    /// Kill shard `p`: its volatile state (page table, residency, pins)
    /// is wiped; the SSD keeps the authoritative swap copies and the
    /// recovery journal survives on durable media — possibly with a torn
    /// tail if the plan says the crash caught a write in flight. Returns
    /// the epoch the shard held at death (the zombie's fencing baseline).
    ///
    /// The shard is unavailable until `failover_to_replica_for` promotes
    /// its backup or `restart_pool` rebuilds it.
    pub fn crash_pool(&mut self, p: usize) -> u64 {
        assert!(
            self.pool_available_for(p),
            "shard {p} is already down; restart it before crashing it again"
        );
        let epoch = self.shards[p].epoch;
        self.recovery.crashes += 1;
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::PoolCrashed {
                pool: p as u64,
                epoch,
            },
        );
        if let Some(inj) = self.injector.clone() {
            if inj.torn_tail_for(p) {
                self.tear_journal_tail(p);
            }
        }
        let shard = &mut self.shards[p];
        shard.pool = MemoryPool::new(shard.pool.capacity());
        shard.down = true;
        epoch
    }

    /// Bring the dead shard's hardware back. Two lives are possible:
    ///
    /// - **primary recovery** — the shard is down and no failover replaced
    ///   it, so it rebuilds from the SSD-authoritative base plus a
    ///   checksummed journal replay (discarding a torn tail with a typed
    ///   event) and resumes as primary at a strictly higher epoch;
    /// - **zombie rejoin** — otherwise its replica was promoted while it
    ///   slept. Its resume-write carries the epoch it held at death,
    ///   fencing rejects it (`FencedWrite`; no stale write ever lands), and
    ///   it re-enters as a standby replica, caught up by costed
    ///   re-silvering traffic.
    ///
    /// Either way the shard re-enters placement through the health plane's
    /// Probation→Healthy probe streak when that plane is armed.
    pub fn restart_pool(&mut self, p: usize) -> RestartReport {
        let shard = &mut self.shards[p];
        let report = if std::mem::take(&mut shard.down) {
            self.recover_primary(p)
        } else {
            let Some(zombie) = shard.restart.take() else {
                panic!("shard {p} has no crash to restart from")
            };
            self.rejoin_as_standby(p, zombie.stale_epoch)
        };
        self.recovery.restarts += 1;
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::PoolRestarted {
                pool: p as u64,
                epoch: report.epoch,
            },
        );
        if let Some(h) = self.health.as_mut() {
            h.begin_probation(p);
        }
        self.reseed_journal(p);
        report
    }

    /// The zombie path of [`Dos::restart_pool`]: the old primary wakes
    /// after its replica was promoted and is fenced back to standby duty.
    fn rejoin_as_standby(&mut self, p: usize, stale: u64) -> RestartReport {
        // The zombie's first act is to resume as primary; the write/ack
        // carries the epoch it held at death and the fence rejects it.
        self.recovery.fenced_writes += 1;
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::FencedWrite {
                pool: p as u64,
                stale_epoch: stale,
            },
        );
        let mode = self.ddc_config().replication;
        let mut resilvered = 0u64;
        if mode != ReplicationMode::Off && self.shards[p].replica.is_none() {
            let mut rep = ReplicatedPool::new(self.shards[p].pool.capacity(), mode);
            let pages = self.owned_pages(p);
            rep.resilver_from(&pages, &self.fabric, &self.ssd, &self.clock);
            resilvered = pages.len() as u64;
            self.shards[p].replica = Some(rep);
            self.note_resilvered(p, resilvered);
        }
        RestartReport {
            pool: p,
            epoch: self.shards[p].epoch,
            replay: ReplaySet::default(),
            resilvered_pages: resilvered,
            rejoined_as_standby: true,
            fenced_stale_epoch: Some(stale),
        }
    }

    /// The resume-as-primary path of [`Dos::restart_pool`]: base rebuild
    /// plus idempotent journal replay, then an epoch bump.
    fn recover_primary(&mut self, p: usize) -> RestartReport {
        let (ops, replay, discarded) = match &self.shards[p].journal {
            Some(j) => {
                let (ops, set) = j.replayable();
                (ops, set, j.discarded_ops())
            }
            None => (Vec::new(), ReplaySet::default(), Vec::new()),
        };
        if replay.discarded_entries > 0 {
            self.recovery.torn_tails += 1;
            self.tracer.emit(
                Lane::Memory,
                TraceEvent::TornTailDiscarded {
                    entries: replay.discarded_entries,
                    pages: replay.discarded_pages,
                },
            );
        }
        // Reading the journal back from durable media: one page read per
        // entry examined. The torn suffix is read too — verifying (and
        // failing) its checksums is how the tear is detected.
        for _ in 0..(replay.applied_entries + replay.discarded_entries) {
            self.journal_io(false);
        }
        // Base rebuild: every owned page re-registers over the
        // SSD-authoritative base, so replay's residency ops always land on
        // a mapped page table — even when the page's own registration
        // entry died in the torn tail.
        for pid in self.owned_pages(p) {
            self.register_if_unmapped(p, pid);
        }
        // Replay, idempotent by construction: registration skips mapped
        // pages and residency ops skip resident ones, so replaying twice
        // equals replaying once.
        let mut replayed_writes: Vec<PageId> = Vec::new();
        for op in ops {
            match op {
                ReplOp::RegisterRange { .. } => {
                    for pid in op.pages() {
                        self.register_if_unmapped(p, pid);
                    }
                }
                ReplOp::PageWrite(pid) => {
                    let fault = self.shards[p].pool.ensure_resident(pid);
                    self.charge_pool_fault(fault);
                    self.shards[p].pool.mark_dirty(pid);
                    replayed_writes.push(pid);
                }
            }
        }
        self.recovery.replayed_entries += replay.applied_entries;
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::JournalReplayed {
                entries: replay.applied_entries,
                pages: replay.applied_pages,
            },
        );
        // Same reconcile as a failover: pages named only by the torn tail
        // are the lost set.
        let lost_list: Vec<PageId> = discarded.iter().flat_map(|op| op.pages()).collect();
        self.reconcile_cache(p, &lost_list);
        // A standing replica's un-acked shipping queue lived in the dead
        // primary's memory: drop it, then re-silver every page the replay
        // re-wrote so the backup's acked image tracks the rebuilt primary.
        if let Some(rep) = &mut self.shards[p].replica {
            rep.drop_pending();
            replayed_writes.sort_unstable();
            replayed_writes.dedup();
            rep.resilver_from(&replayed_writes, &self.fabric, &self.ssd, &self.clock);
            self.note_resilvered(p, replayed_writes.len() as u64);
        }
        // Restart bumps the epoch: every later life of the shard is
        // recognizably newer than any write or ack the dead one produced.
        self.shards[p].epoch += 1;
        RestartReport {
            pool: p,
            epoch: self.shards[p].epoch,
            replay,
            resilvered_pages: 0,
            rejoined_as_standby: false,
            fenced_stale_epoch: None,
        }
    }

    /// Register `pid` in shard `p`'s page table unless it is already
    /// mapped there, billing any spill the registration caused.
    fn register_if_unmapped(&mut self, p: usize, pid: PageId) {
        if !self.shards[p].pool.is_mapped(pid) {
            let fault = self.shards[p].pool.register(pid);
            self.charge_pool_fault(fault);
        }
    }

    /// Account for `pages` re-silvered onto shard `p`'s standby.
    fn note_resilvered(&mut self, p: usize, pages: u64) {
        self.recovery.resilvered_pages += pages;
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::ResilverComplete {
                pool: p as u64,
                pages,
            },
        );
    }

    /// Pages shard `p` currently owns, in address order (the base set a
    /// rebuild re-registers and a re-silver ships).
    fn owned_pages(&self, p: usize) -> Vec<PageId> {
        self.space
            .mapped_pages()
            .into_iter()
            .filter(|&pid| self.owner_of(pid) == p)
            .collect()
    }

    /// Start a fresh journal life for shard `p` at its current epoch:
    /// entries cleared, then a durable base snapshot of the owned set
    /// appended as maximal contiguous ranges (already on storage, so
    /// synced immediately). No-op while the journal is disarmed.
    fn reseed_journal(&mut self, p: usize) {
        if self.shards[p].journal.is_none() {
            return;
        }
        let pages = self.owned_pages(p);
        let shard = &mut self.shards[p];
        let j = shard.journal.as_mut().expect("checked above");
        j.restart(shard.epoch);
        for run in pages.chunk_by(|a, b| b.0 == a.0 + 1) {
            j.append_synced(ReplOp::RegisterRange {
                first: run[0],
                count: run.len() as u64,
            });
        }
    }

    // ------------------------------------------------------------------
    // Liveness gate: scheduled restarts, crash poll, heartbeats (§3.2)
    // ------------------------------------------------------------------

    /// The epoch each promotion since `begin_timing` promoted *to*, in
    /// order.
    pub fn failover_epochs(&self) -> &[u64] {
        &self.failover_epochs
    }

    /// Failed-over primaries still asleep (their outage has not elapsed).
    pub fn pending_restarts(&self) -> usize {
        self.shards.iter().filter(|s| s.restart.is_some()).count()
    }

    /// The gate every TELEPORT pushdown passes before it starts, in this
    /// order: restarts that have come due, the fault plan's crash poll,
    /// and one heartbeat round. `Err` is the shard loss the call ran into.
    pub fn pool_gate(&mut self) -> Result<(), PoolLoss> {
        // Several shards due in one window come back in `(time, shard)`
        // order, so recovery traffic stays seed-stable.
        let now = self.clock.now();
        while let Some((_, p)) = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(p, s)| s.restart.map(|r| (r.at, p)))
            .filter(|&(at, _)| at <= now)
            .min()
        {
            self.restart_pool(p);
        }
        // Without a fault plan no shard crashes or misses a beat.
        let Some(inj) = self.injector.clone() else {
            return Ok(());
        };
        self.poll_pool_crashes(&inj)?;
        self.heartbeat_round(&inj)
    }

    /// Crash every shard the fault plan kills now. With a standing replica
    /// the backup is promoted on the spot, the dead hardware sleeps out
    /// `down_for` before it rejoins, and the call is fenced: its
    /// acknowledgement carried the dead life's epoch, so nothing landed.
    /// Without one the call waits the outage out and the shard restarts in
    /// place by journal replay.
    fn poll_pool_crashes(&mut self, inj: &FaultInjector) -> Result<(), PoolLoss> {
        let mut fenced = None;
        for p in 0..self.shards.len() {
            let Some(down_for) = inj.pool_crash_now_for(p) else {
                continue;
            };
            let stale_epoch = self.crash_pool(p);
            if self.failover_to_replica_for(p).is_some() {
                let at = self.clock.now() + down_for;
                self.shards[p].restart = Some(Restart { at, stale_epoch });
                fenced.get_or_insert(PoolLoss::Fenced { stale_epoch });
            } else {
                self.charge(down_for);
                self.restart_pool(p);
            }
        }
        fenced.map_or(Ok(()), Err)
    }

    /// Heartbeat every shard, in index order so the wire and trace
    /// sequences stay seed-stable, and repeat each interval until all
    /// answer (a flap, possibly after missed beats) or one misses
    /// `missed_threshold` in a row. That shard's backup is promoted if it
    /// has one; without one the rack is dead.
    fn heartbeat_round(&mut self, inj: &FaultInjector) -> Result<(), PoolLoss> {
        loop {
            let mut all_alive = true;
            for p in 0..self.shards.len() {
                let missed = self.shards[p].missed_beats;
                if !inj.pool_down_now_for(p) {
                    if missed > 0 {
                        self.shards[p].missed_beats = 0;
                        self.tracer.emit(
                            Lane::Compute,
                            TraceEvent::Recovery {
                                action: RecoveryAction::HeartbeatRecovered,
                                attempt: missed,
                            },
                        );
                    }
                    continue;
                }
                all_alive = false;
                self.shards[p].missed_beats = missed + 1;
                if missed + 1 >= self.ddc_config().heartbeat.missed_threshold {
                    let Some(report) = self.failover_to_replica_for(p) else {
                        return Err(PoolLoss::Dead);
                    };
                    // The fault that killed the primary is consumed by the
                    // promotion.
                    inj.retire_pool_faults_for(p);
                    return Err(PoolLoss::FailedOver {
                        lost_epoch: report.old_epoch,
                    });
                }
            }
            if all_alive {
                return Ok(());
            }
            self.charge(self.ddc_config().heartbeat.interval);
        }
    }

    // ------------------------------------------------------------------
    // Integrity plane: seal / verify / repair / scrub
    // ------------------------------------------------------------------

    /// True once the integrity plane is active (the fault plan carries
    /// corruption specs, a scrub schedule is configured, or a scrub pass
    /// was requested explicitly).
    pub fn integrity_enabled(&self) -> bool {
        self.integrity.enabled
    }

    /// Turn the integrity plane on, sealing every page mapped now or later.
    /// Idempotent. A seal is no work at all: the sum is taken when
    /// corruption first lands on the page.
    pub fn enable_integrity(&mut self) {
        self.integrity.enabled = true;
    }

    /// The checksum the integrity plane holds for one page, if it covers
    /// it: the sum of the bytes the page should hold. For a page carrying
    /// undetected corruption that is the sum taken just before the
    /// corruption landed; for any other page it is computed here, over the
    /// bytes the page holds now. (A page declared lost keeps its corrupt
    /// bytes and, until it is written again, the sum from before the loss.)
    pub fn page_checksum(&self, pid: PageId) -> Option<PageChecksum> {
        if !self.integrity.enabled || !self.space.is_mapped(pid.base()) {
            return None;
        }
        let page = self.integrity.pages.get(pid);
        Some(if !page.fresh && !page.pending {
            PageChecksum::of(self.space.page_view(pid))
        } else {
            page.sum
        })
    }

    /// Unrecoverable-corruption events in the current timed window.
    pub fn data_loss_count(&self) -> u64 {
        self.integrity.window.data_loss
    }

    /// The page most recently declared unrecoverable, if any.
    pub fn last_data_loss(&self) -> Option<PageId> {
        self.integrity.last_loss
    }

    /// Record that a legitimate write invalidated `pid`'s checksum. O(1)
    /// per write; the sum is retaken only if corruption lands on the page.
    #[inline]
    fn mark_stale(&mut self, pid: PageId) {
        if self.integrity.enabled {
            self.integrity.pages.entry(pid).fresh = false;
        }
    }

    /// Zero the allocation at `start` from byte `from` to the end of its last
    /// page ([`AddressSpace::zero_from`]), uncharged, keeping the integrity
    /// plane where it would be had those bytes read zero all along — which
    /// is what a caller of [`Dos::alloc_for_overwrite`] stands in for. A
    /// page carrying undetected corruption is resealed over its clean image,
    /// its edits undone for the zeroing and redone after, and any other
    /// page's sum is retaken when corruption next lands. (A page declared
    /// lost has no clean image to keep: its stale bytes are zeroed too.)
    pub fn zero_from(&mut self, start: VAddr, from: usize) {
        if !self.integrity.enabled {
            self.space.zero_from(start, from);
            return;
        }
        let pages: Vec<PageId> = self.space.pages_of(start).skip(from / PAGE_SIZE).collect();
        for &pid in &pages {
            self.apply_edits(pid);
        }
        self.space.zero_from(start, from);
        for &pid in &pages {
            let sum = PageChecksum::of(self.space.page_view(pid));
            let page = self.integrity.pages.entry(pid);
            if page.pending {
                page.sum = sum;
            } else {
                page.fresh = false;
            }
            self.apply_edits(pid);
        }
    }

    /// XOR `pid`'s pending edits into its image: corrupts a clean image,
    /// restores a corrupted one.
    fn apply_edits(&mut self, pid: PageId) {
        if let Some(edits) = self.integrity.edits.get(&pid) {
            let view = self.space.page_view_mut(pid);
            for c in edits {
                view[c.offset] ^= c.mask;
            }
        }
    }

    /// Poll the fault plan for corruption of `pid` at `point`; on a hit,
    /// take the page's sum unless it is fresh, then XOR the drawn mask into the
    /// authoritative image and record the edit so a repair can invert it
    /// exactly. A page with pending corruption keeps the sum it has: every
    /// access path verifies before it writes, so its bytes have not been
    /// legitimately written since that sum was taken, and retaking it would
    /// bless the corruption already there.
    fn poll_corruption(&mut self, point: CorruptionPoint, pid: PageId) {
        if !self.integrity.enabled || self.integrity.pages.get(pid).lost {
            return;
        }
        let Some(inj) = self.injector.clone() else {
            return;
        };
        if let Some(c) = inj.corruption(point, pid.0) {
            let image = self.space.page_view_mut(pid);
            let page = self.integrity.pages.entry(pid);
            if !page.fresh && !page.pending {
                page.sum = PageChecksum::of(image);
                page.fresh = true;
            }
            image[c.offset] ^= c.mask;
            page.pending = true;
            self.integrity.edits.entry(pid).or_default().push(c);
        }
    }

    /// Verify `pid` against its sealed checksum at a pool boundary (`via`
    /// selects the device that reports the mismatch) and repair on failure.
    /// Pages without pending corruption are skipped: all corruption in the
    /// simulation flows through [`Dos::poll_corruption`], so the pending
    /// map is the ground truth the checksum mechanism is validated against
    /// — and skipping clean pages keeps the plane cheap.
    fn check_page(&mut self, pid: PageId, via: CorruptionPoint) {
        let page = self.integrity.pages.get(pid);
        if !self.integrity.enabled || page.lost || !page.pending {
            return;
        }
        let sum = page.sum;
        let mismatch = {
            let view = self.space.page_view(pid);
            match via {
                CorruptionPoint::Fabric => self.fabric.verify_delivery(pid.0, view, sum.0).is_err(),
                CorruptionPoint::Ssd => self.ssd.verify_read(pid.0, view, sum.0).is_err(),
                CorruptionPoint::Pool => {
                    let bad = !sum.matches(view);
                    if bad {
                        self.tracer
                            .emit(Lane::Memory, TraceEvent::ChecksumMismatch { page: pid.0 });
                    }
                    bad
                }
            }
        };
        if !mismatch {
            // Self-cancelling XOR edits left the image intact.
            self.integrity.take_edits(pid);
            return;
        }
        self.integrity.window.detected += 1;
        let p = self.owner_of(pid);
        if let Some(shard) = self.shards.get_mut(p) {
            shard.integrity.detected += 1;
        }
        self.repair_or_lose(pid);
    }

    /// The repair lattice: a clean page re-reads its authoritative storage
    /// copy; a dirty page falls back to the replica's acked journal copy;
    /// with neither, the page is unrecoverable — the loss is surfaced as a
    /// typed error by the runtime, never as a wrong answer.
    fn repair_or_lose(&mut self, pid: PageId) {
        let p = self.owner_of(pid);
        let shard = self.shards.get(p);
        let dirty = shard.is_some_and(|s| s.pool.is_dirty(pid));
        let source = if !dirty {
            self.ssd_page_in();
            Some(RepairSource::Ssd)
        } else if shard
            .and_then(|s| s.replica.as_ref())
            .is_some_and(|r| r.has_acked_copy(pid))
        {
            // Re-fetch the acked page image from the backup pool.
            self.wire(
                MsgClass::Replication,
                PAGE_SIZE + crate::replica::PAGE_WRITE_HEADER_BYTES,
            );
            Some(RepairSource::Replica)
        } else {
            None
        };
        match source {
            Some(source) => {
                // Invert every recorded XOR edit: the image is restored
                // bit-exactly and matches its sealed checksum again.
                self.apply_edits(pid);
                self.integrity.take_edits(pid);
                self.integrity.window.repaired += 1;
                if let Some(shard) = self.shards.get_mut(p) {
                    shard.integrity.repaired += 1;
                }
                match source {
                    RepairSource::Ssd => self.integrity.window.repaired_ssd += 1,
                    RepairSource::Replica => self.integrity.window.repaired_replica += 1,
                }
                self.tracer.emit(
                    Lane::Memory,
                    TraceEvent::PageRepaired {
                        page: pid.0,
                        source,
                    },
                );
            }
            None => {
                // The bytes stay corrupt (there is nothing to restore them
                // from); the lost set stops re-detection so the loss is
                // counted exactly once.
                self.integrity.window.data_loss += 1;
                if let Some(shard) = self.shards.get_mut(p) {
                    shard.integrity.data_loss += 1;
                }
                self.integrity.take_edits(pid);
                self.integrity.pages.entry(pid).lost = true;
                self.integrity.last_loss = Some(pid);
                self.tracer
                    .emit(Lane::Memory, TraceEvent::DataLoss { page: pid.0 });
            }
        }
    }

    /// One scrub pass over every mapped page, paced to the configured
    /// bytes-per-second budget. Pool- or cache-resident pages are verified
    /// with a streaming DRAM read; storage-resident pages pay a device read
    /// — which is also where latent sector rot is discovered before any
    /// foreground reader touches it. Returns `(pages_scanned, detected)`.
    pub fn scrub_pass(&mut self) -> (u64, u64) {
        self.enable_integrity();
        let pages = self.space.mapped_pages();
        let before = self.integrity.window.detected;
        if self.is_disaggregated() {
            // The compute side kicks the pass off with one control message.
            self.wire(MsgClass::Control, 16);
        }
        let floor_ns =
            (PAGE_SIZE as u128 * 1_000_000_000 / self.scrub.bytes_per_sec.max(1) as u128) as u64;
        for pid in pages.iter().copied() {
            let start = self.clock.now();
            let on_storage = if self.shards.is_empty() {
                self.swapped.get(pid) && self.cache.probe(pid).is_none()
            } else {
                let pool = &self.shards[self.owner_of(pid)].pool;
                pool.is_mapped(pid) && !pool.is_resident(pid)
            };
            if on_storage {
                self.ssd_page_in();
                self.poll_corruption(CorruptionPoint::Ssd, pid);
                self.check_page(pid, CorruptionPoint::Ssd);
            } else {
                self.charge(self.dram.sequential_page);
                self.check_page(pid, CorruptionPoint::Pool);
            }
            // Pace the walk so the scrubber never exceeds its budget.
            let spent = self.clock.now().since(start).as_nanos();
            if floor_ns > spent {
                self.charge(SimDuration::from_nanos(floor_ns - spent));
            }
        }
        let scanned = pages.len() as u64;
        let detected = self.integrity.window.detected - before;
        self.integrity.window.scrub_passes += 1;
        self.integrity.window.scrub_pages += scanned;
        self.integrity.window.scrub_detected += detected;
        self.tracer.emit(
            Lane::Memory,
            TraceEvent::ScrubPass {
                pages: scanned,
                detected,
            },
        );
        (scanned, detected)
    }

    /// Run a scrub pass if the configured schedule says one is due (no-op
    /// without a schedule). Reschedules from the pass's completion time.
    /// Returns true if a pass ran.
    pub fn scrub_if_due(&mut self) -> bool {
        let Some(every) = self.scrub.every else {
            return false;
        };
        let next = self
            .integrity
            .window
            .next_scrub
            .unwrap_or(SimTime(every.as_nanos()));
        if self.clock.now() < next {
            self.integrity.window.next_scrub = Some(next);
            return false;
        }
        self.scrub_pass();
        self.integrity.window.next_scrub =
            Some(SimTime(self.clock.now().as_nanos() + every.as_nanos()));
        true
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Snapshot every kernel-level ledger into one named-counter registry
    /// (`paging.*`, `net.*`, `ssd.*`). Upper layers extend the same
    /// registry with their own counters (see `Runtime::metrics`).
    pub fn metrics(&self) -> ddc_sim::MetricsRegistry {
        let mut m = ddc_sim::MetricsRegistry::new();
        let s = self.stats;
        m.set("paging.cache_hits", s.cache_hits);
        m.set("paging.cache_misses", s.cache_misses);
        m.set("paging.remote_page_in", s.remote_page_in);
        m.set("paging.remote_page_out", s.remote_page_out);
        m.set("paging.storage_page_in", s.storage_page_in);
        m.set("paging.storage_page_out", s.storage_page_out);
        m.set("paging.evictions", s.evictions);
        m.set("paging.mem_side_accesses", s.mem_side_accesses);
        let ledger = self.fabric.ledger();
        for (name_msgs, name_bytes, c) in [
            ("net.page_in.messages", "net.page_in.bytes", ledger.page_in),
            (
                "net.page_out.messages",
                "net.page_out.bytes",
                ledger.page_out,
            ),
            (
                "net.coherence.messages",
                "net.coherence.bytes",
                ledger.coherence,
            ),
            (
                "net.rpc_request.messages",
                "net.rpc_request.bytes",
                ledger.rpc_request,
            ),
            (
                "net.rpc_response.messages",
                "net.rpc_response.bytes",
                ledger.rpc_response,
            ),
            ("net.control.messages", "net.control.bytes", ledger.control),
            (
                "net.replication.messages",
                "net.replication.bytes",
                ledger.replication,
            ),
        ] {
            m.set(name_msgs, c.messages);
            m.set(name_bytes, c.bytes);
        }
        if let Some(c) = self.replication_counters() {
            m.set("replication.journal_appends", c.journal_appends);
            m.set("replication.ship_messages", c.ship_messages);
            m.set("replication.pages_shipped", c.pages_shipped);
            m.set("replication.acks", c.acks);
            m.set(
                "replication.pending_entries",
                self.shards
                    .iter()
                    .filter_map(|s| s.replica.as_ref())
                    .map(|r| r.pending_entries() as u64)
                    .sum::<u64>(),
            );
            m.set(
                "failover.count",
                self.shards.iter().filter(|s| s.failover.is_some()).count() as u64,
            );
        }
        if let Some(r) = self.failover_report() {
            m.set("failover.epoch", r.new_epoch);
            m.set("failover.lost_pages", r.lost_pages);
            m.set("failover.pages_refetched", r.refetched_pages);
            m.set("failover.cache_invalidations", r.cache_invalidations);
        }
        if self.shards.len() > 1 {
            // Per-shard instances, named dynamically so the registry stays
            // shard-count agnostic.
            for (p, shard) in self.shards.iter().enumerate() {
                if let Some((r, _)) = &shard.failover {
                    m.set(format!("failover.pool{p}.epoch"), r.new_epoch);
                    m.set(format!("failover.pool{p}.lost_pages"), r.lost_pages);
                }
            }
        }
        if let Some(h) = &self.health {
            m.set("health.transitions", h.transitions());
            m.set("health.quarantines", h.quarantines());
            m.set("health.reintegrations", h.reintegrations());
            m.set("health.probes", h.probes());
        }
        if self.journal_armed() || self.recovery.crashes > 0 {
            let r = &self.recovery;
            m.set("recovery.crashes", r.crashes);
            m.set("recovery.restarts", r.restarts);
            m.set("recovery.replayed_entries", r.replayed_entries);
            m.set("recovery.torn_tails", r.torn_tails);
            m.set("recovery.resilvered_pages", r.resilvered_pages);
            m.set("recovery.fenced_writes", r.fenced_writes);
        }
        let ssd = self.ssd.counters();
        m.set("ssd.page_reads", ssd.page_reads);
        m.set("ssd.page_writes", ssd.page_writes);
        m.set("ssd.bulk_reads", ssd.bulk_reads);
        m.set("ssd.bulk_bytes_read", ssd.bulk_bytes_read);
        if self.integrity.enabled {
            let i = &self.integrity.window;
            m.set("integrity.detected", i.detected);
            m.set("integrity.repaired", i.repaired);
            m.set("integrity.repaired_from_ssd", i.repaired_ssd);
            m.set("integrity.repaired_from_replica", i.repaired_replica);
            m.set("integrity.data_loss", i.data_loss);
            m.set(
                "integrity.pages_sealed",
                self.space.allocated_pages() as u64,
            );
            m.set("scrub.passes", i.scrub_passes);
            m.set("scrub.pages_scanned", i.scrub_pages);
            m.set("scrub.detected", i.scrub_detected);
            if self.shards.len() > 1 {
                for (p, pi) in self.shards.iter().map(|s| &s.integrity).enumerate() {
                    m.set(format!("integrity.pool{p}.detected"), pi.detected);
                    m.set(format!("integrity.pool{p}.repaired"), pi.repaired);
                    m.set(format!("integrity.pool{p}.data_loss"), pi.data_loss);
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_sim::DdcConfig;
    use proptest::prelude::*;

    fn tiny_ddc(cache_pages: usize, pool_pages: usize) -> Dos {
        let cfg = DdcConfig {
            compute_cache_bytes: cache_pages * PAGE_SIZE,
            memory_pool_bytes: pool_pages * PAGE_SIZE,
            ..Default::default()
        };
        Dos::new_disaggregated(cfg)
    }

    #[test]
    fn hit_is_cheap_miss_pays_fabric() {
        let mut dos = tiny_ddc(4, 64);
        let a = dos.alloc(PAGE_SIZE);
        dos.begin_timing();

        let t0 = dos.clock().now();
        let _ = dos.read_u64(a, Pattern::Rand); // miss
        let miss_cost = dos.clock().now().since(t0);

        let t1 = dos.clock().now();
        let _ = dos.read_u64(a, Pattern::Rand); // hit
        let hit_cost = dos.clock().now().since(t1);

        assert!(
            miss_cost.as_nanos() > 10 * hit_cost.as_nanos(),
            "miss {miss_cost} vs hit {hit_cost}"
        );
        let s = dos.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.remote_page_in, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut dos = tiny_ddc(1, 64);
        let a = dos.alloc(2 * PAGE_SIZE);
        dos.begin_timing();
        dos.write_u64(a, 7, Pattern::Rand); // page 0 dirty in cache
        let _ = dos.read_u64(a.offset(PAGE_SIZE as u64), Pattern::Rand); // evicts page 0
        let s = dos.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.remote_page_out, 1, "dirty page flowed back");
        assert_eq!(dos.fabric().ledger().page_out.messages, 1);
        // Data survives eviction.
        assert_eq!(dos.read_u64(a, Pattern::Rand), 7);
    }

    #[test]
    fn pool_overflow_spills_to_storage() {
        // Pool of 4 pages, cache of 1: allocate 8 pages, then touch them
        // all; early pages must come back from storage.
        let mut dos = tiny_ddc(1, 4);
        let a = dos.alloc(8 * PAGE_SIZE);
        dos.begin_timing();
        for i in 0..8u64 {
            dos.write_u64(a.offset(i * PAGE_SIZE as u64), i, Pattern::Rand);
        }
        let s = dos.stats();
        assert!(s.storage_page_in > 0, "some faults recursed to storage");
        // Values are still correct afterwards.
        for i in 0..8u64 {
            assert_eq!(
                dos.read_u64(a.offset(i * PAGE_SIZE as u64), Pattern::Rand),
                i
            );
        }
    }

    #[test]
    fn monolithic_first_touch_is_free_refault_reads_swap() {
        let cfg = MonolithicConfig {
            dram_bytes: PAGE_SIZE, // 1-page DRAM
            ..Default::default()
        };
        let mut dos = Dos::new_monolithic(cfg);
        let a = dos.alloc(2 * PAGE_SIZE);
        dos.begin_timing();
        dos.write_u64(a, 1, Pattern::Rand); // first touch page 0: no SSD read
        assert_eq!(dos.stats().storage_page_in, 0);
        dos.write_u64(a.offset(PAGE_SIZE as u64), 2, Pattern::Rand); // evicts dirty page 0
        assert_eq!(dos.stats().storage_page_out, 1);
        let _ = dos.read_u64(a, Pattern::Rand); // refault page 0 from swap
        assert_eq!(dos.stats().storage_page_in, 1);
        assert_eq!(dos.read_u64(a, Pattern::Rand), 1);
    }

    #[test]
    fn sequential_reads_charge_less_than_random() {
        let mut dos = tiny_ddc(64, 256);
        let bytes = 32 * PAGE_SIZE;
        let a = dos.alloc(bytes);
        // Warm the cache so only DRAM costs differ.
        let _ = dos.read_bytes(a, bytes, Pattern::Seq);
        dos.begin_timing();
        let (_, seq) = {
            let start = dos.clock().now();
            let _ = dos.read_bytes(a, bytes, Pattern::Seq);
            ((), dos.clock().now().since(start))
        };
        let start = dos.clock().now();
        for i in 0..(bytes / 8) {
            let _ = dos.read_u64(a.offset((i * 8) as u64), Pattern::Rand);
        }
        let rand = dos.clock().now().since(start);
        assert!(
            rand.as_nanos() > 20 * seq.as_nanos(),
            "rand {rand} vs seq {seq}"
        );
    }

    #[test]
    fn microbench_calibration_random_access_cost() {
        // LegoOS-class remote fault paths cost ~3-6us end to end; with the
        // calibrated fault overhead + wire time the model should land
        // around 3.4us per (mostly missing) random access.
        // Scale down: 512-page working set, 2% cache = 10 pages.
        let mut dos = tiny_ddc(10, 1024);
        let pages = 512u64;
        let a = dos.alloc(pages as usize * PAGE_SIZE);
        dos.begin_timing();
        // Deterministic pseudo-random page sequence.
        let mut x = 0x9e3779b97f4a7c15u64;
        let n = 20_000;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pg = x % pages;
            let _ = dos.read_u64(a.offset(pg * PAGE_SIZE as u64 + 8), Pattern::Rand);
        }
        let per_access = dos.clock().now().as_nanos() / n;
        assert!(
            (2_800..4_200).contains(&per_access),
            "per-access cost was {per_access}ns, expected ~3.4us"
        );
        let hit_rate = dos.stats().hit_rate().unwrap();
        assert!(hit_rate < 0.06, "hit rate was {hit_rate}");
    }

    #[test]
    fn syncmem_flushes_dirty_only() {
        let mut dos = tiny_ddc(8, 64);
        let a = dos.alloc(4 * PAGE_SIZE);
        dos.begin_timing();
        dos.write_u64(a, 1, Pattern::Rand);
        let _ = dos.read_u64(a.offset(PAGE_SIZE as u64), Pattern::Rand);
        dos.write_u64(a.offset(3 * PAGE_SIZE as u64), 2, Pattern::Rand);
        assert_eq!(dos.syncmem(), 2);
        assert_eq!(dos.stats().remote_page_out, 2);
        assert_eq!(dos.syncmem(), 0, "second sync finds nothing dirty");
        // Pages stay resident: all hits now.
        let before = dos.stats().cache_hits;
        let _ = dos.read_u64(a, Pattern::Rand);
        assert_eq!(dos.stats().cache_hits, before + 1);
    }

    #[test]
    fn coherence_evict_and_downgrade() {
        let mut dos = tiny_ddc(8, 64);
        let a = dos.alloc(2 * PAGE_SIZE);
        dos.begin_timing();
        dos.write_u64(a, 1, Pattern::Rand);
        let _ = dos.read_u64(a.offset(PAGE_SIZE as u64), Pattern::Rand);

        let pid0 = a.page();
        let pid1 = a.offset(PAGE_SIZE as u64).page();

        let e = dos.coherence_evict(pid0).unwrap();
        assert!(e.dirty);
        assert_eq!(dos.stats().remote_page_out, 1);
        assert!(dos.cache_probe(pid0).is_none());

        let e = dos.coherence_downgrade(pid1).unwrap();
        assert!(!e.dirty, "read-only page flushes nothing");
        assert_eq!(dos.stats().remote_page_out, 1);
        let after = dos.cache_probe(pid1).unwrap();
        assert!(!after.writable);

        assert!(dos.coherence_evict(PageId(999_999)).is_none());
    }

    #[test]
    fn page_far_past_every_table_is_absent() {
        // Tables grown to cover this id would need 2^52 slots each.
        let far = PageId(u64::MAX >> 12);
        for pools in [1, 2] {
            let mut dos = Dos::new_disaggregated(DdcConfig {
                compute_cache_bytes: 8 * PAGE_SIZE,
                memory_pool_bytes: 64 * PAGE_SIZE,
                pools,
                ..Default::default()
            });
            let a = dos.alloc(PAGE_SIZE);
            assert_eq!(dos.cache_probe(far), None);
            assert_eq!(dos.pool_owner(far), None);
            assert!(dos.pool_owner(a.page()).is_some());
        }
        let mono = Dos::new_monolithic(MonolithicConfig::default());
        assert_eq!(mono.cache_probe(far), None);
        assert_eq!(mono.pool_owner(far), None);
    }

    #[test]
    fn resident_list_is_sorted_with_permissions() {
        let mut dos = tiny_ddc(8, 64);
        let a = dos.alloc(3 * PAGE_SIZE);
        dos.begin_timing();
        dos.write_u64(a.offset(2 * PAGE_SIZE as u64), 5, Pattern::Rand);
        let _ = dos.read_u64(a, Pattern::Rand);
        let list = dos.resident_list();
        assert_eq!(list.len(), 2);
        assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(list[0], (a.page(), false));
        assert_eq!(list[1], (a.offset(2 * PAGE_SIZE as u64).page(), true));
    }

    #[test]
    fn flush_clear_and_prefetch_roundtrip() {
        let mut dos = tiny_ddc(8, 64);
        let a = dos.alloc(2 * PAGE_SIZE);
        dos.begin_timing();
        dos.write_u64(a, 1, Pattern::Rand);
        let resident = dos.flush_and_clear_cache();
        assert_eq!(resident.len(), 1);
        assert_eq!(dos.cache_len(), 0);
        assert_eq!(dos.stats().remote_page_out, 1);
        dos.prefetch_pages(&resident);
        assert_eq!(dos.cache_len(), 1);
        let before = dos.stats().cache_hits;
        let _ = dos.read_u64(a, Pattern::Rand);
        assert_eq!(dos.stats().cache_hits, before + 1);
    }

    #[test]
    fn prefetch_accelerates_sequential_scans_but_not_random_probes() {
        // §2.2: OS-level prefetching helps streaming but is "on its own,
        // insufficient" for the random accesses that dominate the paper's
        // workloads.
        let scan = |prefetch: usize, random: bool| -> SimDuration {
            let mut dos = Dos::new_disaggregated(DdcConfig {
                compute_cache_bytes: 16 * PAGE_SIZE,
                memory_pool_bytes: 1024 * PAGE_SIZE,
                prefetch_pages: prefetch,
                ..Default::default()
            });
            let pages = 256u64;
            let a = dos.alloc(pages as usize * PAGE_SIZE);
            dos.begin_timing();
            if random {
                let mut x = 0x243F_6A88u64;
                for _ in 0..pages {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let _ = dos.read_u64(a.offset((x % pages) * PAGE_SIZE as u64), Pattern::Rand);
                }
            } else {
                let _ = dos.read_bytes(a, pages as usize * PAGE_SIZE, Pattern::Seq);
            }
            dos.clock().now().since(ddc_sim::SimTime::ZERO)
        };
        let seq_off = scan(0, false);
        let seq_on = scan(8, false);
        assert!(
            seq_on.ratio(seq_off) < 0.7,
            "prefetch should cut sequential scan time: {seq_on} vs {seq_off}"
        );
        let rand_off = scan(0, true);
        let rand_on = scan(8, true);
        let delta = rand_on.ratio(rand_off);
        assert!(
            (0.9..1.5).contains(&delta),
            "prefetch must not help random probes: {delta:.2}"
        );
    }

    #[test]
    fn mem_side_access_skips_the_fabric() {
        let mut dos = tiny_ddc(8, 64);
        let a = dos.alloc(4 * PAGE_SIZE);
        dos.begin_timing();
        dos.mem_touch_range(a, 4 * PAGE_SIZE, false, Pattern::Seq);
        let ledger = dos.fabric().ledger();
        assert_eq!(ledger.total_messages(), 0, "in-pool access, no network");
        assert_eq!(dos.stats().mem_side_accesses, 4);
        assert_eq!(dos.stats().cache_misses, 0);
    }

    #[test]
    fn the_three_fault_paths_share_one_charge() {
        // Pages [X, T, V] in a 2-page pool: X resident and clean, T swapped
        // out, V resident, dirty and least recently used — so making T
        // resident costs exactly one victim write-back plus one read,
        // whichever path asks for it.
        let scene = || {
            let mut dos = Dos::new_disaggregated(DdcConfig {
                compute_cache_bytes: 4 * PAGE_SIZE,
                memory_pool_bytes: 2 * PAGE_SIZE,
                prefetch_pages: 1,
                ..Default::default()
            });
            let x = dos.alloc(3 * PAGE_SIZE);
            let (t, v) = (x.offset(PAGE_SIZE as u64), x.offset(2 * PAGE_SIZE as u64));
            dos.mem_touch_range(v, 8, true, Pattern::Rand);
            dos.mem_touch_range(x, 8, false, Pattern::Rand); // spills T, clean
            let pool = dos.pool_at(0);
            assert!(pool.is_resident(x.page()) && !pool.is_resident(t.page()));
            assert!(pool.is_dirty(v.page()));
            dos.begin_timing();
            (dos, x, t)
        };
        type Path = fn(&mut Dos, VAddr, VAddr);
        let paths: [(&str, Path); 3] = [
            ("compute fault", |dos, _, t| {
                let _ = dos.read_u64(t, Pattern::Rand);
            }),
            ("sequential prefetch", |dos, x, _| {
                let _ = dos.read_u64(x, Pattern::Seq);
            }),
            ("memory-side touch", |dos, _, t| {
                dos.mem_touch_range(t, 8, false, Pattern::Rand)
            }),
        ];
        let mut deltas = Vec::new();
        for (name, path) in paths {
            let (mut dos, x, t) = scene();
            path(&mut dos, x, t);
            assert!(dos.pool_at(0).is_resident(t.page()), "{name}: T came in");
            let s = dos.stats();
            deltas.push((
                name,
                (s.storage_page_out, s.storage_page_in),
                dos.ssd().counters(),
            ));
        }
        let (_, paging, device) = deltas[0];
        assert_eq!(paging, (1, 1), "one write-back, one read on the ledger");
        assert_eq!((device.page_writes, device.page_reads), (1, 1));
        for (name, p, d) in deltas {
            assert_eq!((p, d), (paging, device), "{name} billed differently");
        }
    }

    fn injector_for(dos: &Dos, plan: ddc_sim::FaultPlan) -> FaultInjector {
        FaultInjector::new(plan, dos.clock().clone(), dos.tracer().clone())
    }

    #[test]
    fn clean_page_corruption_repairs_from_storage() {
        let mut dos = tiny_ddc(4, 64);
        let a = dos.alloc(PAGE_SIZE);
        let plan =
            ddc_sim::FaultPlan::new(7).fabric_bit_flips(SimTime::ZERO, ddc_sim::FOREVER, 1.0);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        dos.begin_timing();
        // Never-written page: the fault-in delivery is corrupted in flight,
        // detected on arrival, and repaired from the storage copy.
        assert_eq!(dos.read_u64(a, Pattern::Rand), 0, "repair restored zeros");
        let m = dos.metrics();
        assert_eq!(m.get("integrity.detected"), Some(1));
        assert_eq!(m.get("integrity.repaired_from_ssd"), Some(1));
        assert_eq!(m.get("integrity.data_loss"), Some(0));
        assert_eq!(dos.data_loss_count(), 0);
    }

    #[test]
    fn dirty_page_corruption_without_replica_is_data_loss() {
        let mut dos = tiny_ddc(4, 64);
        let a = dos.alloc(PAGE_SIZE);
        let plan =
            ddc_sim::FaultPlan::new(7).fabric_bit_flips(SimTime::ZERO, ddc_sim::FOREVER, 1.0);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        dos.write_u64(a, 7, Pattern::Rand);
        dos.drop_cache(); // dirty write-back: the pool copy is now the only one
        dos.begin_timing();
        let _ = dos.read_u64(a, Pattern::Rand); // corrupted on re-delivery
        let m = dos.metrics();
        assert_eq!(m.get("integrity.detected"), Some(1));
        assert_eq!(m.get("integrity.repaired"), Some(0));
        assert_eq!(m.get("integrity.data_loss"), Some(1));
        assert_eq!(dos.last_data_loss(), Some(a.page()));
        // Exactly-once: re-reading the lost page does not re-detect.
        dos.drop_cache();
        let _ = dos.read_u64(a, Pattern::Rand);
        assert_eq!(dos.metrics().get("integrity.detected"), Some(1));
    }

    #[test]
    fn dirty_page_corruption_with_replica_repairs_from_journal() {
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            replication: ReplicationMode::Synchronous,
            ..Default::default()
        };
        let mut dos = Dos::new_disaggregated(cfg);
        let a = dos.alloc(PAGE_SIZE);
        let plan =
            ddc_sim::FaultPlan::new(7).fabric_bit_flips(SimTime::ZERO, ddc_sim::FOREVER, 1.0);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        dos.write_u64(a, 7, Pattern::Rand);
        dos.drop_cache(); // write-back journals an acked copy to the backup
        dos.begin_timing();
        assert_eq!(dos.read_u64(a, Pattern::Rand), 7, "repaired transparently");
        let m = dos.metrics();
        assert_eq!(m.get("integrity.detected"), Some(1));
        assert_eq!(m.get("integrity.repaired_from_replica"), Some(1));
        assert_eq!(m.get("integrity.data_loss"), Some(0));
    }

    #[test]
    fn pool_scribble_is_latent_until_the_next_access() {
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            replication: ReplicationMode::Synchronous,
            ..Default::default()
        };
        let mut dos = Dos::new_disaggregated(cfg);
        let a = dos.alloc(PAGE_SIZE);
        let plan = ddc_sim::FaultPlan::new(11).pool_scribbles(SimTime::ZERO, ddc_sim::FOREVER, 1.0);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        dos.write_u64(a, 42, Pattern::Rand);
        dos.drop_cache(); // the landed pool copy is scribbled, silently
        assert_eq!(dos.metrics().get("integrity.detected"), Some(0));
        dos.begin_timing();
        assert_eq!(dos.read_u64(a, Pattern::Rand), 42, "detected and repaired");
        let m = dos.metrics();
        assert_eq!(m.get("integrity.detected"), Some(1));
        assert_eq!(m.get("integrity.repaired_from_replica"), Some(1));
    }

    #[test]
    fn scrub_finds_latent_storage_rot_before_any_reader() {
        let mut dos = tiny_ddc(1, 2);
        let a = dos.alloc(4 * PAGE_SIZE); // 4 pages in a 2-page pool: spills
        for i in 0..4u64 {
            dos.write_u64(a.offset(i * PAGE_SIZE as u64), i + 1, Pattern::Rand);
        }
        dos.drop_cache();
        let plan =
            ddc_sim::FaultPlan::new(3).ssd_latent_sectors(SimTime::ZERO, ddc_sim::FOREVER, 1.0);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        dos.begin_timing();
        let t0 = dos.clock().now();
        let (scanned, detected) = dos.scrub_pass();
        assert_eq!(scanned, 4);
        assert!(detected > 0, "storage-resident pages were rotten");
        assert!(dos.clock().now() > t0, "scrubbing charges virtual time");
        let m = dos.metrics();
        assert_eq!(m.get("scrub.passes"), Some(1));
        assert_eq!(m.get("scrub.pages_scanned"), Some(4));
        assert_eq!(
            m.get("integrity.detected").unwrap(),
            m.get("integrity.repaired").unwrap() + m.get("integrity.data_loss").unwrap()
        );
        // Every value survives: rot was repaired from the device copy.
        for i in 0..4u64 {
            assert_eq!(
                dos.read_u64(a.offset(i * PAGE_SIZE as u64), Pattern::Rand),
                i + 1
            );
        }
        // A new timed window zeroes every integrity / scrub row but the
        // seal count, and the seals taken before it still verify.
        assert!(m.get("scrub.detected") > Some(0) && m.get("integrity.repaired") > Some(0));
        dos.begin_timing();
        let m = dos.metrics();
        let rows = || {
            m.iter()
                .filter(|(n, _)| n.starts_with("integrity.") || n.starts_with("scrub."))
        };
        assert_eq!(rows().count(), 9);
        for (name, v) in rows() {
            let want = if name == "integrity.pages_sealed" {
                4
            } else {
                0
            };
            assert_eq!(v, want, "{name} after begin_timing");
        }
        for pid in dos.space.mapped_pages() {
            let seal = dos.page_checksum(pid).expect("sealed before the reset");
            assert!(seal.matches(dos.space.page_view(pid)), "{pid:?}");
        }
    }

    #[test]
    fn scheduled_scrub_fires_on_the_virtual_clock() {
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            scrub: ScrubConfig {
                every: Some(SimDuration::from_micros(100)),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut dos = Dos::new_disaggregated(cfg);
        assert!(dos.integrity_enabled(), "scrub schedule enables the plane");
        let _a = dos.alloc(2 * PAGE_SIZE);
        dos.begin_timing();
        assert!(!dos.scrub_if_due(), "not due at t=0");
        dos.charge(SimDuration::from_micros(150));
        assert!(dos.scrub_if_due(), "due after the interval elapsed");
        assert!(!dos.scrub_if_due(), "rescheduled from completion");
        assert_eq!(dos.metrics().get("scrub.passes"), Some(1));
    }

    #[test]
    fn integrity_plane_is_absent_unless_enabled() {
        let mut dos = tiny_ddc(4, 64);
        let a = dos.alloc(PAGE_SIZE);
        dos.begin_timing();
        dos.write_u64(a, 9, Pattern::Rand);
        assert!(!dos.integrity_enabled());
        assert_eq!(dos.metrics().get("integrity.detected"), None);
        assert_eq!(dos.page_checksum(a.page()), None);
    }

    /// What eager sealing would hold, checked against the lazy seals: a
    /// page with pending corruption holds the sum of its image with every
    /// recorded edit undone (the bytes just before the first edit landed),
    /// and every other covered page not declared lost answers
    /// `page_checksum` with the sum of the bytes it holds.
    fn assert_seals_are_the_eager_ones(dos: &Dos) {
        for pid in dos.space.mapped_pages() {
            let page = dos.integrity.pages.get(pid);
            let image = dos.space.page_view(pid);
            assert!(dos.integrity.enabled, "{pid} is mapped but not covered");
            if page.pending {
                let mut before = image.to_vec();
                for c in &dos.integrity.edits[&pid] {
                    before[c.offset] ^= c.mask;
                }
                assert_eq!(
                    page.sum,
                    PageChecksum::of(&before),
                    "{pid} is pending over a sum of some other image"
                );
            } else if !page.lost {
                assert_eq!(
                    dos.page_checksum(pid),
                    Some(PageChecksum::of(image)),
                    "{pid} answers for bytes it does not hold"
                );
            }
        }
    }

    const SCRIPT_PAGES: u64 = 16;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random scripts of compute-side and memory-side reads and writes,
        /// cache drops and scrub passes over sixteen pages, four of which
        /// fit the compute cache and eight the pool, under scribbles, bit
        /// flips and latent sectors at `p` ≥ 0.5, with and without a
        /// replica: the seals are the eager ones after every step. The
        /// script ends by landing a latent scribble, so the pending half of
        /// the check is never vacuous.
        #[test]
        fn lazy_seals_equal_the_eager_ones_after_every_step(
            seed in any::<u64>(),
            replicated in any::<bool>(),
            p_pct in 50u32..=100,
            script in prop::collection::vec(
                (0u8..8, 0..SCRIPT_PAGES, any::<u64>()),
                1..120,
            ),
        ) {
            let mut dos = Dos::new_disaggregated(DdcConfig {
                compute_cache_bytes: 4 * PAGE_SIZE,
                memory_pool_bytes: 8 * PAGE_SIZE,
                replication: if replicated {
                    ReplicationMode::Synchronous
                } else {
                    ReplicationMode::Off
                },
                ..Default::default()
            });
            let a = dos.alloc(SCRIPT_PAGES as usize * PAGE_SIZE);
            let at = |pg: u64, v: u64| a.offset(pg * PAGE_SIZE as u64 + v % 512 * 8);
            for pg in 0..SCRIPT_PAGES {
                dos.write_u64(at(pg, pg), pg + 1, Pattern::Rand);
            }
            let p = f64::from(p_pct) / 100.0;
            let plan = ddc_sim::FaultPlan::new(seed)
                .pool_scribbles(SimTime::ZERO, ddc_sim::FOREVER, p)
                .fabric_bit_flips(SimTime::ZERO, ddc_sim::FOREVER, p)
                .ssd_latent_sectors(SimTime::ZERO, ddc_sim::FOREVER, p);
            let inj = injector_for(&dos, plan);
            dos.install_faults(&inj);
            assert_seals_are_the_eager_ones(&dos);
            for (op, pg, v) in script {
                let addr = at(pg, v);
                match op {
                    0 | 1 => {
                        dos.read_u64(addr, Pattern::Rand);
                    }
                    2 | 3 => dos.write_u64(addr, v, Pattern::Rand),
                    4 | 5 => {
                        // Pushed-down access: the compute copy goes first,
                        // as the coherence protocol would send it.
                        let write = op == 5;
                        dos.coherence_evict(addr.page());
                        dos.mem_touch_range(addr, 8, write, Pattern::Rand);
                        if write {
                            dos.space.write_u64(addr, v);
                        }
                    }
                    6 => dos.drop_cache(),
                    _ => {
                        dos.scrub_pass();
                    }
                }
                assert_seals_are_the_eager_ones(&dos);
            }
            for pg in (0..SCRIPT_PAGES).cycle().take(256) {
                if !dos.integrity.edits.is_empty() {
                    break;
                }
                let addr = at(pg, 0);
                if dos.integrity.pages.get(addr.page()).lost {
                    continue;
                }
                dos.write_u64(addr, pg, Pattern::Rand);
                dos.syncmem(); // the write-back is exposed to a scribble
                assert_seals_are_the_eager_ones(&dos);
            }
            prop_assert!(!dos.integrity.edits.is_empty(), "no scribble landed");
        }
    }

    #[test]
    fn mem_side_write_marks_pool_dirty_then_spills_to_storage() {
        let mut dos = tiny_ddc(1, 2);
        let a = dos.alloc(3 * PAGE_SIZE); // 3 pages in a 2-page pool
        dos.begin_timing();
        // Touch all three pages memory-side with writes; the pool must
        // spill dirty pages to storage.
        dos.mem_touch_range(a, 3 * PAGE_SIZE, true, Pattern::Seq);
        dos.mem_touch_range(a, 3 * PAGE_SIZE, true, Pattern::Seq);
        let s = dos.stats();
        assert!(s.storage_page_out > 0, "dirty spills occurred");
        assert!(s.storage_page_in > 0, "refaults from storage occurred");
    }

    #[test]
    fn degraded_shard_is_charged_and_quarantine_steers_placement() {
        use ddc_sim::PoolHealthState;
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            pools: 2,
            placement: PlacementPolicy::LoadBalance,
            ..Default::default()
        };
        let mut dos = Dos::new_disaggregated(cfg);
        let plan =
            ddc_sim::FaultPlan::new(11).degraded_pool(0, SimTime::ZERO, ddc_sim::FOREVER, 50);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        assert!(
            dos.health().is_some(),
            "fail-slow spec arms the health plane"
        );

        // LoadBalance stripes pages across the two shards; find one page on
        // each and compare memory-side touch costs.
        let a = dos.alloc(2 * PAGE_SIZE);
        dos.begin_timing();
        let (on_sick, on_healthy) = if dos.pool_owner(a.page()) == Some(0) {
            (a, a.offset(PAGE_SIZE as u64))
        } else {
            (a.offset(PAGE_SIZE as u64), a)
        };
        let t0 = dos.clock().now();
        dos.mem_touch_range(on_healthy, PAGE_SIZE, false, Pattern::Seq);
        let healthy_cost = dos.clock().now().since(t0);
        let t1 = dos.clock().now();
        dos.mem_touch_range(on_sick, PAGE_SIZE, false, Pattern::Seq);
        let sick_cost = dos.clock().now().since(t1);
        assert_eq!(sick_cost.as_nanos(), 50 * healthy_cost.as_nanos());
        assert_eq!(inj.injected_count(), 1, "onset noted once, not per touch");

        // Drive the detector with what the runtime would observe: shard 0's
        // service times sit 50x over its first-window baseline.
        let w = dos.health().expect("armed").config().window;
        for _ in 0..w {
            dos.observe_service(0, SimDuration::from_nanos(100));
        }
        for _ in 0..2 * w {
            dos.observe_service(0, SimDuration::from_nanos(5_000));
        }
        assert_eq!(
            dos.health().expect("armed").state(0),
            PoolHealthState::Quarantined
        );

        // Fresh allocations steer around the quarantined shard.
        let b = dos.alloc(4 * PAGE_SIZE);
        for i in 0..4u64 {
            assert_eq!(
                dos.pool_owner(b.offset(i * PAGE_SIZE as u64).page()),
                Some(1),
                "page {i} placed on the healthy shard"
            );
        }
        let m = dos.metrics();
        assert_eq!(m.get("health.quarantines"), Some(1));
        assert_eq!(m.get("health.transitions"), Some(2));
    }

    #[test]
    fn probe_pays_the_degraded_cost_the_healthy_model_predicts_without() {
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            pools: 2,
            ..Default::default()
        };
        let mut dos = Dos::new_disaggregated(cfg);
        let plan = ddc_sim::FaultPlan::new(3).degraded_pool(1, SimTime::ZERO, ddc_sim::FOREVER, 8);
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        dos.begin_timing();

        let healthy = dos.healthy_probe_cost();
        let clean = dos.probe_pool(0);
        let sick = dos.probe_pool(1);
        assert_eq!(clean, healthy, "cost model matches a clean probe exactly");
        assert!(
            sick.as_nanos() >= 2 * healthy.as_nanos(),
            "degraded probe {sick} clears the 2x verdict line over {healthy}"
        );
        // RTT observation is analytic: it never advances the clock.
        let before = dos.clock().now();
        let rtt = dos.control_rtt();
        assert_eq!(dos.clock().now(), before);
        assert!(rtt.as_nanos() > 0);
    }

    #[test]
    fn heartbeat_healthy_pool_never_fails_the_gate() {
        let mut dos = tiny_ddc(4, 64);
        // A plan that never touches the pool: every round beats it.
        let inj = injector_for(&dos, ddc_sim::FaultPlan::new(1));
        dos.install_faults(&inj);
        for _ in 0..100 {
            assert_eq!(dos.pool_gate(), Ok(()));
        }
        assert_eq!(dos.clock().now(), SimTime::ZERO, "no beat waited out");
        assert_eq!(dos.shards[0].missed_beats, 0);
    }

    #[test]
    fn heartbeat_failure_is_declared_after_the_threshold() {
        // Three misses at 10 ms: a 15 ms flap is survived after two.
        let hb = DdcConfig::default().heartbeat;
        assert_eq!(hb.missed_threshold, 3);
        let beat = hb.interval.as_nanos();
        let mut dos = tiny_ddc(4, 64);
        dos.tracer().enable();
        let plan = ddc_sim::FaultPlan::new(1).heartbeat_flap(SimTime::ZERO, SimTime(beat * 3 / 2));
        let inj = injector_for(&dos, plan);
        dos.install_faults(&inj);
        assert_eq!(dos.pool_gate(), Ok(()));
        assert_eq!(dos.clock().now(), SimTime(2 * beat));
        let recovered = TraceEvent::Recovery {
            action: RecoveryAction::HeartbeatRecovered,
            attempt: 2,
        };
        assert!(dos.tracer().events().iter().any(|r| r.event == recovered));

        // A death is declared on the third consecutive miss.
        inj.add_spec(ddc_sim::FaultSpec::HeartbeatFlap {
            from: dos.clock().now(),
            until: ddc_sim::FOREVER,
        });
        assert_eq!(dos.pool_gate(), Err(PoolLoss::Dead));
        assert_eq!(dos.clock().now(), SimTime(4 * beat));
        assert_eq!(dos.shards[0].missed_beats, 3);
    }

    #[test]
    fn recovery_metrics_stay_absent_until_the_plane_arms() {
        let dos = tiny_ddc(4, 64);
        assert_eq!(dos.metrics().get("recovery.crashes"), None);
        assert!(!dos.journal_armed());
    }

    #[test]
    fn crash_restart_replays_the_journal_and_preserves_every_byte() {
        let mut dos = tiny_ddc(4, 64);
        dos.enable_recovery_journal();
        let a = dos.alloc(8 * PAGE_SIZE);
        for i in 0..8u64 {
            dos.write_u64(a.offset(i * PAGE_SIZE as u64), 100 + i, Pattern::Rand);
        }
        dos.drop_cache(); // the write-backs land in the journal
        let epoch_before = dos.pool_epoch_for(0);
        let stale = dos.crash_pool(0);
        assert_eq!(stale, epoch_before);
        assert!(!dos.pool_available_for(0), "down until restarted");
        let report = dos.restart_pool(0);
        assert!(dos.pool_available_for(0));
        assert!(!report.rejoined_as_standby);
        assert!(report.replay.applied_entries > 0, "the journal replayed");
        assert_eq!(report.replay.discarded_entries, 0, "intact tail");
        assert_eq!(report.epoch, epoch_before + 1, "restart bumps the epoch");
        for i in 0..8u64 {
            assert_eq!(
                dos.read_u64(a.offset(i * PAGE_SIZE as u64), Pattern::Rand),
                100 + i
            );
        }
        let m = dos.metrics();
        assert_eq!(m.get("recovery.crashes"), Some(1));
        assert_eq!(m.get("recovery.restarts"), Some(1));
        assert_eq!(m.get("recovery.torn_tails"), Some(0));
    }

    #[test]
    fn torn_tail_restart_discards_bounded_loss_with_a_typed_event() {
        let mut dos = tiny_ddc(4, 64);
        dos.enable_recovery_journal();
        let a = dos.alloc(6 * PAGE_SIZE);
        for i in 0..6u64 {
            dos.write_u64(a.offset(i * PAGE_SIZE as u64), i, Pattern::Rand);
        }
        dos.drop_cache();
        let unsynced = dos.shards[0]
            .journal
            .as_ref()
            .expect("armed")
            .unsynced_len();
        assert!(unsynced > 0, "test needs an un-synced tail to tear");
        dos.tear_journal_tail(0);
        dos.crash_pool(0);
        let report = dos.restart_pool(0);
        assert!(report.replay.discarded_entries > 0, "the tear was detected");
        assert!(
            report.replay.discarded_entries <= crate::recovery::JOURNAL_SYNC_BATCH as u64,
            "loss is bounded by the sync batch"
        );
        assert_eq!(report.replay.discarded_entries, unsynced as u64);
        // The authoritative bytes never lived in the torn tail.
        for i in 0..6u64 {
            assert_eq!(
                dos.read_u64(a.offset(i * PAGE_SIZE as u64), Pattern::Rand),
                i
            );
        }
        assert_eq!(dos.metrics().get("recovery.torn_tails"), Some(1));
    }

    #[test]
    fn zombie_primary_is_fenced_and_rejoins_as_standby() {
        let cfg = DdcConfig {
            compute_cache_bytes: 4 * PAGE_SIZE,
            memory_pool_bytes: 64 * PAGE_SIZE,
            replication: ReplicationMode::Synchronous,
            ..Default::default()
        };
        let mut dos = Dos::new_disaggregated(cfg);
        dos.enable_recovery_journal();
        let a = dos.alloc(4 * PAGE_SIZE);
        for i in 0..4u64 {
            dos.write_u64(a.offset(i * PAGE_SIZE as u64), 7 + i, Pattern::Rand);
        }
        dos.drop_cache();
        let stale = dos.crash_pool(0);
        let fo = dos.failover_to_replica_for(0).expect("replica standing by");
        assert!(dos.pool_available_for(0), "promotion restores service");
        assert_eq!(fo.new_epoch, stale + 1);
        assert!(!dos.has_replica_for(0), "the backup was consumed");

        // The dead hardware wakes with the pre-crash epoch: fenced.
        let report = dos.restart_pool(0);
        assert!(report.rejoined_as_standby);
        assert_eq!(report.fenced_stale_epoch, Some(stale));
        assert_eq!(
            report.epoch, fo.new_epoch,
            "a standby rejoin never bumps the primary's epoch"
        );
        assert!(
            report.resilvered_pages >= 4,
            "catch-up shipped the live set"
        );
        assert!(dos.has_replica_for(0), "redundancy is restored");
        for i in 0..4u64 {
            assert_eq!(
                dos.read_u64(a.offset(i * PAGE_SIZE as u64), Pattern::Rand),
                7 + i
            );
        }
        let m = dos.metrics();
        assert_eq!(m.get("recovery.fenced_writes"), Some(1));
        assert!(m.get("recovery.resilvered_pages").unwrap() >= 4);
        assert!(
            dos.fabric().ledger().replication.bytes > 4 * PAGE_SIZE as u64,
            "re-silvering is costed replication traffic"
        );
    }

    #[test]
    fn epochs_stay_strictly_monotone_when_a_pool_dies_twice() {
        let mut dos = tiny_ddc(4, 64);
        dos.enable_recovery_journal();
        let a = dos.alloc(4 * PAGE_SIZE);
        dos.write_u64(a, 1, Pattern::Rand);
        dos.drop_cache();
        let mut last = dos.pool_epoch_for(0);
        for round in 0..2u64 {
            dos.crash_pool(0);
            let r = dos.restart_pool(0);
            assert!(
                r.epoch > last,
                "life {round} regressed {last} -> {}",
                r.epoch
            );
            last = r.epoch;
            dos.write_u64(a, 2 + round, Pattern::Rand);
            dos.drop_cache();
        }
        assert_eq!(dos.pool_epoch_for(0), 2, "two restarts, two bumps");
        assert_eq!(dos.read_u64(a, Pattern::Rand), 3);
        let m = dos.metrics();
        assert_eq!(m.get("recovery.crashes"), Some(2));
        assert_eq!(m.get("recovery.restarts"), Some(2));
    }
}
