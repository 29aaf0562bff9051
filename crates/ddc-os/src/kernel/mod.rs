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
//!
//! This file is the paging core. Each failure domain's plane lives in its
//! own module and owns its state behind private fields: `integrity` (page
//! seals, detect-and-repair, scrubbing) and `liveness` (replication,
//! failover, crash-restart, the pushdown gate, the health plane). The core
//! reaches a plane only through a few `#[inline]` verbs, each a no-op while
//! its plane is disarmed, so no path here asks whether a plane is armed.

mod integrity;
mod liveness;

pub use liveness::{PoolLoss, ShardError};

use ddc_sim::{
    Clock, ConfigError, CorruptionPoint, DdcConfig, EventKind, Fabric, FaultInjector, FaultLevel,
    Lane, MonolithicConfig, MsgClass, PlacementPolicy, SimDuration, Ssd, TraceEvent, Tracer,
    PAGE_SIZE,
};

use crate::addrspace::AddressSpace;
use crate::cache::{CacheEntry, PageCache, ResidentView};
use crate::page::{for_each_page, pages_spanned, PageId, PageTable, VAddr};
use crate::pool::{MemoryPool, PoolFault};
use crate::replica::ReplOp;
use crate::stats::{PagingStats, RoutingWindow};

use integrity::{Integrity, PoolIntegrity};
use liveness::{Liveness, ShardLiveness};

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
enum Topology {
    /// A single server: CPU, DRAM, and SSD on one motherboard.
    Monolithic(MonolithicConfig),
    /// A disaggregated data center: compute / memory / storage pools.
    Disaggregated(DdcConfig),
}

/// Identifier of an open simulated file in the storage pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub u32);

/// One memory-pool shard: the pool-side unit that owns its page table,
/// together with everything whose lifetime is tied to that one failure
/// domain — its liveness state (replication companion, crash-recovery
/// journal, epoch, heartbeat misses, scheduled restart) and its integrity
/// ledger. Keeping them in one struct makes a misaligned per-pool vector
/// unrepresentable; keeping each plane's part private to its module keeps
/// the paging core out of it.
struct PoolShard {
    pool: MemoryPool,
    /// Memory-side page touches that landed here in the open routing
    /// window (multi-pool only).
    touched_pages: u64,
    live: ShardLiveness,
    integrity: PoolIntegrity,
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
    /// Allocations made so far (drives `PlacementPolicy::Locality`'s
    /// round-robin).
    alloc_seq: u64,
    /// Whether the page has a copy on the swap device (monolithic only).
    swapped: PageTable<bool>,
    /// Paging counters, but for `evictions`, which nothing increments:
    /// [`Dos::stats`] reads the tracer's `Evict` count into it.
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
    /// Page-checksum integrity plane and its scrub schedule.
    integrity: Integrity,
    /// The rack-wide half of the liveness plane: health monitor, recovery
    /// counters, promotion epochs.
    live: Liveness,
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
            alloc_seq: 0,
            swapped: PageTable::new(false),
            stats: PagingStats::default(),
            dram: cfg.dram_cost,
            fault_overhead: cfg.fault_overhead,
            prefetch: 0,
            files: Vec::new(),
            injector: None,
            integrity: Integrity::default(),
            live: Liveness::default(),
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
                .map(|_| PoolShard {
                    pool: MemoryPool::new(shard_pages),
                    touched_pages: 0,
                    live: ShardLiveness::new(shard_pages, cfg.replication),
                    integrity: PoolIntegrity::default(),
                })
                .collect(),
            owner: PageTable::new(0),
            alloc_seq: 0,
            swapped: PageTable::new(false),
            stats: PagingStats::default(),
            dram: cfg.dram,
            fault_overhead: cfg.fault_overhead,
            prefetch: cfg.prefetch_pages,
            files: Vec::new(),
            injector: None,
            integrity: Integrity::new(cfg.scrub),
            live: Liveness::default(),
            topo: Topology::Disaggregated(cfg),
        })
    }

    /// Number of memory-pool shards (0 on a monolithic server).
    pub fn pool_count(&self) -> usize {
        self.shards.len()
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
    /// a checksum over every page mapped so far; crash-restart and
    /// fail-slow specs arm the liveness plane's journal and health monitor.
    pub fn install_faults(&mut self, inj: &FaultInjector) {
        self.fabric.set_injector(inj.clone());
        self.ssd.set_injector(inj.clone());
        self.injector = Some(inj.clone());
        if inj.has_corruption_specs() {
            self.enable_integrity();
        }
        self.arm_liveness_for(inj);
    }

    /// The installed fault plan's injector, if any.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// The event-trace handle shared by this kernel, its fabric, and its
    /// SSD. It counts every event; recording is off by default (see
    /// [`ddc_sim::trace`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The paging counters since `begin_timing`. `evictions` is the
    /// tracer's `Evict` count.
    pub fn stats(&self) -> PagingStats {
        PagingStats {
            evictions: self.tracer.count(EventKind::Evict),
            ..self.stats
        }
    }

    /// Compute-pool CPU (the server CPU in the monolithic topology).
    #[inline]
    pub fn compute_cpu(&self) -> ddc_sim::CpuConfig {
        match &self.topo {
            Topology::Monolithic(c) => c.cpu,
            Topology::Disaggregated(c) => c.compute_cpu,
        }
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
        self.on_write_back(pid);
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
        let allowed = self.placeable_pools();
        let k = allowed.len();
        match self.ddc_config().placement {
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
        self.begin_integrity_window();
        self.begin_liveness_window(now);
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
        for_each_page(addr, len, |at, in_page| {
            self.touch_page(at, in_page, write, pat)
        });
    }

    /// One page's share of [`Dos::touch_range`]: `in_page` bytes from `at`.
    #[inline]
    fn touch_page(&mut self, at: VAddr, in_page: usize, write: bool, pat: Pattern) {
        let pid = at.page();
        if self.cache.access(pid, write) {
            self.stats.cache_hits += 1;
            self.on_read(pid, CorruptionPoint::Pool);
        } else {
            // The host fetches the bytes while the fault is modeled.
            self.space.prefetch(at);
            self.fault_in(pid, write);
            if pat == Pattern::Seq && self.prefetch > 0 {
                self.prefetch_ahead(pid);
            }
        }
        if write {
            self.on_write(pid);
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
        if !self.allows_batched_rereads() || !self.cache.is_mru(pid) {
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

    /// The `PageFault` record of a compute-side fault on `pid`, classified
    /// by where it will be satisfied.
    fn fault_event(&self, pid: PageId) -> TraceEvent {
        let level = match self.shards.is_empty() {
            true if self.swapped.get(pid) => FaultLevel::Storage,
            true => FaultLevel::Cache,
            false if self.shards[self.owner_of(pid)].pool.is_resident(pid) => FaultLevel::Remote,
            false => FaultLevel::Storage,
        };
        TraceEvent::PageFault {
            vaddr: pid.base().0,
            level,
        }
    }

    /// Handle a compute-side page fault on `pid`.
    fn fault_in(&mut self, pid: PageId, write: bool) {
        self.stats.cache_misses += 1;
        // Counted always; classified only when recorded, and before
        // `ensure_resident` pulls the page up a level.
        let fault = || self.fault_event(pid);
        self.tracer
            .emit_with(Lane::Compute, EventKind::PageFault, fault);
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
            if fault.storage_read {
                self.on_read(pid, CorruptionPoint::Ssd);
            }
            self.on_read(pid, CorruptionPoint::Fabric);
        } else if self.swapped.get(pid) {
            // Monolithic: first touch materializes a zero page for
            // free; a refault reads the swap copy.
            self.ssd_page_in();
            self.on_read(pid, CorruptionPoint::Ssd);
        }
        if let Some(victim) = self.cache.insert(pid, write) {
            self.write_back_evicted(victim.page, victim.dirty);
        }
    }

    /// Account for evicting `page` from the compute cache.
    fn write_back_evicted(&mut self, page: PageId, dirty: bool) {
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
        for_each_page(addr, len, |at, in_page| {
            self.mem_touch_page(at.page(), in_page, write, pat)
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
        let via = if fault.storage_read {
            CorruptionPoint::Ssd
        } else {
            CorruptionPoint::Pool
        };
        self.on_read(pid, via);
        if write {
            self.shards[p].pool.mark_dirty(pid);
            self.replicate_for(p, ReplOp::PageWrite(pid));
            self.on_write(pid);
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
        if !self.allows_batched_rereads() || !self.steady_pool_service() || !resident {
            return false;
        }
        self.stats.mem_side_accesses += hits;
        if self.shards.len() > 1 {
            self.shards[p].touched_pages += hits;
        }
        self.charge(self.dram_cost(pat, len) * hits);
        true
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
    /// pages were flushed — none on a monolithic server, which has no pool
    /// to synchronize with.
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
    /// synchronization point. A monolithic server flushes nothing.
    fn sync_pages(&mut self, mut dirty: Vec<PageId>) -> usize {
        if self.shards.is_empty() {
            dirty.clear();
        }
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
    // Metrics
    // ------------------------------------------------------------------

    /// Snapshot every kernel-level ledger into one named-counter registry
    /// (`paging.*`, `net.*`, `ssd.*`, and the rows each armed plane adds).
    /// Upper layers extend the same registry with their own counters (see
    /// `Runtime::metrics`).
    pub fn metrics(&self) -> ddc_sim::MetricsRegistry {
        let mut m = ddc_sim::MetricsRegistry::new();
        let s = self.stats();
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
        self.liveness_metrics(&mut m);
        let ssd = self.ssd.counters();
        m.set("ssd.page_reads", ssd.page_reads);
        m.set("ssd.page_writes", ssd.page_writes);
        m.set("ssd.bulk_reads", ssd.bulk_reads);
        m.set("ssd.bulk_bytes_read", ssd.bulk_bytes_read);
        self.integrity_metrics(&mut m);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_sim::FaultPlan;

    pub(super) fn tiny_ddc(cache_pages: usize, pool_pages: usize) -> Dos {
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
        let s = dos.stats();
        let hit_rate = s.cache_hits as f64 / (s.cache_hits + s.cache_misses) as f64;
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
        assert_eq!(dos.resident_view().len, 0);
        assert_eq!(dos.stats().remote_page_out, 1);
        dos.prefetch_pages(&resident);
        assert_eq!(dos.resident_view().len, 1);
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
        assert_eq!(
            ledger,
            ddc_sim::NetLedger::default(),
            "in-pool access, no network"
        );
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

    pub(super) fn injector_for(dos: &Dos, plan: FaultPlan) -> FaultInjector {
        FaultInjector::new(plan, dos.clock().clone(), dos.tracer().clone())
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
}
