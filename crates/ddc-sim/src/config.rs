//! Configuration of the simulated disaggregated data center.
//!
//! Default constants are calibrated from the paper's testbed (§7):
//! Mellanox ConnectX-3 InfiniBand at 56 Gbps with 1.2 µs latency, 1.6 µs
//! coherence-message latency, Xeon E5-2630L cores at 2.1 GHz, a 1 GB
//! compute-local cache in front of a 128 GB memory pool, and a 1 TB NVMe SSD
//! (3 GB/s sequential). Experiments scale the *capacities*
//! down while keeping the paper's ratios (e.g. cache ≈ 2% of the working
//! set), which preserves paging behavior.

use crate::time::SimDuration;

/// Size of a virtual memory page. The paper (and LegoOS) use x86-64 4 KB
/// pages; the whole repository assumes this constant.
pub const PAGE_SIZE: usize = 4096;

/// Network fabric parameters (RDMA over InfiniBand in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// One-way latency of an RDMA message.
    pub latency: SimDuration,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Latency of a single coherence protocol message. The paper measures
    /// 1.6 µs, slightly above raw network latency, due to handler overhead.
    pub coherence_msg_latency: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: SimDuration::from_nanos(1_200),
            bandwidth_bytes_per_sec: 56.0e9 / 8.0, // 56 Gbps
            coherence_msg_latency: SimDuration::from_nanos(1_600),
        }
    }
}

impl NetConfig {
    /// Time to move `bytes` across the fabric in a single message.
    #[inline]
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        let wire = bytes as f64 / self.bandwidth_bytes_per_sec * 1e9;
        self.latency + SimDuration::from_nanos(wire as u64)
    }
}

/// NVMe SSD model for the storage pool (and for monolithic-server swap).
///
/// Swap-style 4 KB paging runs at queue depth 1 through the kernel block
/// layer, so each page-in pays the device latency rather than the streaming
/// bandwidth — this is why the paper sees 10–80× gaps between SSD spill and
/// remote-memory paging despite the SSD's 3 GB/s headline number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdConfig {
    /// Queue-depth-1 access latency for a 4 KB random read/write.
    pub qd1_latency: SimDuration,
    /// Sequential throughput in bytes per second (paper: 3 GB/s).
    pub seq_bandwidth_bytes_per_sec: f64,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            qd1_latency: SimDuration::from_micros(70),
            seq_bandwidth_bytes_per_sec: 3.0e9,
        }
    }
}

impl SsdConfig {
    /// Cost of paging one 4 KB page in or out via the swap path.
    #[inline]
    pub fn page_io_time(&self) -> SimDuration {
        let stream = PAGE_SIZE as f64 / self.seq_bandwidth_bytes_per_sec * 1e9;
        self.qd1_latency + SimDuration::from_nanos(stream as u64)
    }

    /// Cost of a large sequential transfer of `bytes` (single latency, then
    /// streaming at full bandwidth). Used for bulk load, not for swap.
    #[inline]
    pub fn sequential_time(&self, bytes: usize) -> SimDuration {
        let stream = bytes as f64 / self.seq_bandwidth_bytes_per_sec * 1e9;
        self.qd1_latency + SimDuration::from_nanos(stream as u64)
    }
}

/// DRAM cost model, shared by the compute-local cache and the memory pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// A random (cache-missing) access to one element.
    pub random_access: SimDuration,
    /// Streaming one full 4 KB page (sequential access amortizes row hits
    /// and hardware prefetch).
    pub sequential_page: SimDuration,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            random_access: SimDuration::from_nanos(100),
            sequential_page: SimDuration::from_nanos(250),
        }
    }
}

/// CPU parameters of one pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Core clock in GHz. The paper's testbed runs 2.1 GHz; §7.3 throttles
    /// the memory pool down to 0.4 GHz.
    pub clock_ghz: f64,
}

impl CpuConfig {
    pub fn new(clock_ghz: f64) -> Self {
        CpuConfig { clock_ghz }
    }

    /// Time to retire `cycles` cycles on one core of this pool, rounded to
    /// the nearest nanosecond (halves up). This is `.round() as u64` without
    /// the call into libm, which a hash probe would make once per charge:
    /// the quotient is never negative, so truncating and comparing the
    /// remainder rounds the same way, and `as u64` saturates alike.
    #[inline]
    pub fn cycles(&self, cycles: u64) -> SimDuration {
        let ns = cycles as f64 / self.clock_ghz;
        let whole = ns as u64;
        let up = ns - whole as f64 >= 0.5;
        SimDuration::from_nanos(whole.saturating_add(u64::from(up)))
    }
}

/// Where a fresh allocation's pages land when the rack has more than one
/// memory pool (`DdcConfig::pools > 1`).
///
/// Placement is decided once, at allocation time, from state that is itself
/// deterministic (capacities, page counts, an allocation counter) — so the
/// same program against the same config always produces the same shard map,
/// and the trace digest stays a meaningful determinism oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The whole allocation goes to the first pool whose shard still has
    /// room for it (falling back to the emptiest shard when none does).
    #[default]
    FirstFit,
    /// Whole allocations rotate round-robin across pools, keeping each
    /// allocation's pages co-located in one shard.
    Locality,
    /// Pages stripe across pools by page number (`page % pools`), spreading
    /// load at the cost of cross-pool fan-out for range operations.
    LoadBalance,
}

impl PlacementPolicy {
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::Locality => "locality",
            PlacementPolicy::LoadBalance => "load-balance",
        }
    }
}

/// A structurally invalid [`DdcConfig`], reported by
/// [`DdcConfig::validate`] instead of a panic deep inside the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `pools == 0`: a rack needs at least one memory pool.
    NoPools,
    /// `memory_contexts == 0`: the memory side needs at least one TELEPORT
    /// user context to execute pushdowns.
    NoContexts,
    /// The pool capacity does not give every shard at least one page.
    PoolTooSmall { pool_pages: usize, pools: usize },
    /// The compute cache cannot hold even a single page.
    CacheTooSmall { cache_bytes: usize },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoPools => write!(f, "pools must be >= 1"),
            ConfigError::NoContexts => write!(f, "memory_contexts must be >= 1"),
            ConfigError::PoolTooSmall { pool_pages, pools } => write!(
                f,
                "memory pool of {pool_pages} pages cannot shard across {pools} pools"
            ),
            ConfigError::CacheTooSmall { cache_bytes } => write!(
                f,
                "compute cache of {cache_bytes} bytes holds no whole page"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How (and whether) the memory pool is replicated to a backup pool.
///
/// Replication ships every page-table mutation and dirty-page write-back
/// over the fabric to a second pool so that losing the primary is
/// survivable: the heartbeat loop promotes the backup instead of
/// kernel-panicking. Replication traffic is metered like any other fabric
/// traffic (`MsgClass::Replication`), so its cost is visible, not free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationMode {
    /// No backup pool: losing the memory pool is a kernel panic (§3.2).
    #[default]
    Off,
    /// Every journal entry ships (and is acknowledged) immediately: a
    /// failover loses nothing, at one fabric message per mutation.
    Synchronous,
    /// Journal entries accumulate and ship once `batch_pages` page images
    /// are pending. Cheaper on the wire; the un-shipped tail is the lost
    /// window a failover must re-fetch from storage.
    LogShipped { batch_pages: usize },
}

/// Background integrity scrubber schedule. The disaggregated OS walks every
/// allocated page on the virtual-time clock, re-verifying checksums and
/// repairing what it can, at a bytes-per-second budget charged to the
/// DRAM/SSD cost models — so scrubbing visibly competes with foreground
/// traffic instead of being free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubConfig {
    /// Virtual-time interval between scrub passes. `None` (the default)
    /// disables the background scrubber; explicit `scrub_now` calls still
    /// work.
    pub every: Option<SimDuration>,
    /// Scrub bandwidth budget. Each scanned page is paced to at least
    /// `PAGE_SIZE / bytes_per_sec`, on top of the modeled access cost.
    pub bytes_per_sec: u64,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            every: None,
            bytes_per_sec: 256 << 20, // 256 MB/s: a background trickle
        }
    }
}

/// Heartbeat protocol between the compute pool and the memory pool. The
/// runtime declares the pool dead (a kernel panic for the application)
/// only after `missed_threshold` consecutive unanswered beats, so a flap
/// shorter than `(missed_threshold - 1) × interval` is survivable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Spacing between heartbeat probes.
    pub interval: SimDuration,
    /// Consecutive missed beats before the pool is declared dead.
    pub missed_threshold: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: SimDuration::from_millis(10),
            missed_threshold: 3,
        }
    }
}

/// Full configuration of a simulated DDC deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct DdcConfig {
    /// Compute-local DRAM cache capacity in bytes (the paper's default is
    /// 1 GB, ≈2% of a 50 GB working set; experiments here scale it with the
    /// workload to hold that ratio).
    pub compute_cache_bytes: usize,
    /// Memory pool capacity in bytes. Allocations beyond this spill to the
    /// storage pool. With `pools > 1` this is the *aggregate* rack
    /// capacity, split evenly into per-pool shards.
    pub memory_pool_bytes: usize,
    /// Number of memory pools in the rack. 1 (the default) reproduces the
    /// paper's single-pool topology bit-for-bit; larger values shard the
    /// page table across pools per [`PlacementPolicy`].
    pub pools: usize,
    /// Where new allocations land when `pools > 1`. Ignored (identity) for
    /// a single pool.
    pub placement: PlacementPolicy,
    /// Compute pool CPU.
    pub compute_cpu: CpuConfig,
    /// Memory pool controller CPU (low-power in a real DDC; §7.3 varies it).
    pub memory_cpu: CpuConfig,
    /// Number of parallel TELEPORT user contexts in the memory pool
    /// (1 serializes concurrent pushdowns; §7.3 varies it).
    pub memory_contexts: usize,
    /// Software overhead of one page-fault round trip (trap, forward to the
    /// memory controller, page-table update, TLB shootdown). Together with
    /// the page transfer this calibrates the ~3.4 µs effective remote-page
    /// cost that LegoOS-class fault paths exhibit (their measured 4 KB
    /// fault round trips run 3–6 µs end to end).
    pub fault_overhead: SimDuration,
    /// Pages to prefetch ahead of a sequential-pattern fault (LegoOS-style
    /// OS-level prefetching; §2.2 notes such optimizations are "on their
    /// own, insufficient"). 0 disables prefetching — the default, matching
    /// the configuration the paper's figures assume.
    pub prefetch_pages: usize,
    /// Liveness protocol against the memory pool.
    pub heartbeat: HeartbeatConfig,
    /// Memory-pool replication for crash-consistent failover. `Off` (the
    /// default) preserves the paper's semantics: pool loss is fatal.
    pub replication: ReplicationMode,
    /// Background integrity-scrub schedule (disabled by default).
    pub scrub: ScrubConfig,
    pub net: NetConfig,
    pub ssd: SsdConfig,
    pub dram: DramConfig,
}

impl Default for DdcConfig {
    fn default() -> Self {
        DdcConfig {
            compute_cache_bytes: 64 << 20, // 64 MB: scaled-down "1 GB"
            memory_pool_bytes: 8 << 30,    // scaled-down "128 GB"
            pools: 1,
            placement: PlacementPolicy::FirstFit,
            compute_cpu: CpuConfig::new(2.1),
            memory_cpu: CpuConfig::new(2.1),
            memory_contexts: 1,
            fault_overhead: SimDuration::from_nanos(1_500),
            prefetch_pages: 0,
            heartbeat: HeartbeatConfig::default(),
            replication: ReplicationMode::Off,
            scrub: ScrubConfig::default(),
            net: NetConfig::default(),
            ssd: SsdConfig::default(),
            dram: DramConfig::default(),
        }
    }
}

impl DdcConfig {
    /// Convenience: a config whose compute cache holds `ratio` of
    /// `working_set_bytes` (the paper's headline setting is 2%, or 10% in
    /// Fig 1b), rounded up to whole pages.
    pub fn with_cache_ratio(working_set_bytes: usize, ratio: f64) -> Self {
        let cache = ((working_set_bytes as f64 * ratio) as usize).max(PAGE_SIZE);
        let cache = cache.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        DdcConfig {
            compute_cache_bytes: cache,
            ..Default::default()
        }
    }

    /// Cache capacity in whole pages.
    pub fn cache_pages(&self) -> usize {
        self.compute_cache_bytes / PAGE_SIZE
    }

    /// Memory pool capacity in whole pages.
    pub fn memory_pool_pages(&self) -> usize {
        self.memory_pool_bytes / PAGE_SIZE
    }

    /// Capacity of one pool shard in whole pages: the aggregate capacity
    /// split evenly, with every shard guaranteed at least one page. For
    /// `pools = 1` this equals [`memory_pool_pages`](Self::memory_pool_pages)
    /// exactly, preserving single-pool behavior bit-for-bit.
    pub fn pool_shard_pages(&self) -> usize {
        (self.memory_pool_pages() / self.pools.max(1)).max(1)
    }

    /// Structural validation, replacing the old hard asserts: a config that
    /// cannot describe a working rack comes back as a typed
    /// [`ConfigError`] the caller can surface gracefully instead of a
    /// panic deep inside pool construction.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pools == 0 {
            return Err(ConfigError::NoPools);
        }
        if self.memory_contexts == 0 {
            return Err(ConfigError::NoContexts);
        }
        if self.memory_pool_pages() < self.pools {
            return Err(ConfigError::PoolTooSmall {
                pool_pages: self.memory_pool_pages(),
                pools: self.pools,
            });
        }
        if self.compute_cache_bytes < PAGE_SIZE {
            return Err(ConfigError::CacheTooSmall {
                cache_bytes: self.compute_cache_bytes,
            });
        }
        Ok(())
    }
}

/// Monolithic-server ("Linux") configuration used by the paper's local
/// baselines: all resources on one motherboard, spilling to a local SSD when
/// DRAM is exhausted.
#[derive(Debug, Clone, PartialEq)]
pub struct MonolithicConfig {
    /// DRAM available to the application before it must swap.
    pub dram_bytes: usize,
    pub cpu: CpuConfig,
    pub ssd: SsdConfig,
    pub dram_cost: DramConfig,
    /// Software overhead of a swap fault (trap + block layer entry).
    pub fault_overhead: SimDuration,
}

impl Default for MonolithicConfig {
    fn default() -> Self {
        MonolithicConfig {
            dram_bytes: 4 << 30,
            cpu: CpuConfig::new(2.1),
            ssd: SsdConfig::default(),
            dram_cost: DramConfig::default(),
            fault_overhead: SimDuration::from_nanos(500),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn network_transfer_time_matches_paper_constants() {
        let net = NetConfig::default();
        // Latency-only for a zero-byte message.
        assert_eq!(net.transfer_time(0).as_nanos(), 1_200);
        // A 4 KB page: 1.2 us + 4096 B / 7 GB/s ~= 1.785 us.
        let page = net.transfer_time(PAGE_SIZE);
        assert!(
            (1_700..1_900).contains(&page.as_nanos()),
            "page transfer was {page}"
        );
    }

    #[test]
    fn ssd_page_io_dwarfs_remote_memory() {
        let cfg = DdcConfig::default();
        let ssd = cfg.ssd.page_io_time();
        let remote = cfg.net.transfer_time(PAGE_SIZE);
        let gap = ssd.ratio(remote);
        // The paper's Fig 14 observes 10-80x between SSD spill and DDC
        // paging; the model should land in that band.
        assert!((10.0..80.0).contains(&gap), "SSD/remote gap was {gap:.1}x");
    }

    #[test]
    fn cpu_cycles_scale_with_clock() {
        let fast = CpuConfig::new(2.1);
        let slow = CpuConfig::new(0.42); // 20% of compute clock (Fig 16)
        assert_eq!(fast.cycles(2_100).as_nanos(), 1_000);
        assert_eq!(slow.cycles(2_100).as_nanos(), 5_000);
    }

    /// Clocks `cycles` is compared with libm's rounding at: the ones the
    /// configurations use, and the degenerate ones.
    const CLOCKS: [f64; 11] = [
        2.1,
        1.05,
        2.4,
        3.0,
        0.5,
        1.0,
        1e-9,
        7.3,
        1e9,
        f64::INFINITY,
        0.0,
    ];

    fn assert_cycles_round_like_libm(cycles: u64, clock_ghz: f64) {
        let expect = (cycles as f64 / clock_ghz).round() as u64;
        let got = CpuConfig::new(clock_ghz).cycles(cycles).as_nanos();
        assert_eq!(got, expect, "{cycles} cycles at {clock_ghz} GHz");
    }

    /// Every count up to 200 000, then the powers of two and their
    /// neighbours: 2^53 is where `f64` stops holding halves, 2^63 and
    /// `u64::MAX` where `as u64` saturates.
    #[test]
    fn cycles_round_like_libm_at_the_edges() {
        let edges = (0..64)
            .map(|bit| 1u64 << bit)
            .flat_map(|p| [p - 1, p, p + 1])
            .chain([u64::MAX - 1, u64::MAX]);
        for cycles in (0..=200_000).chain(edges) {
            for clock_ghz in CLOCKS {
                assert_cycles_round_like_libm(cycles, clock_ghz);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Random counts at every magnitude (a random word shifted right by
        /// a random amount) and random clocks beside the fixed ones.
        #[test]
        fn cycles_round_like_libm(
            word in any::<u64>(),
            shift in 0u32..64,
            clock_ghz in prop_oneof![0.05f64..8.0, 1e-6f64..1e6],
        ) {
            let cycles = word >> shift;
            assert_cycles_round_like_libm(cycles, clock_ghz);
            for fixed in CLOCKS {
                assert_cycles_round_like_libm(cycles, fixed);
            }
        }
    }

    #[test]
    fn cache_ratio_rounds_to_pages() {
        let cfg = DdcConfig::with_cache_ratio(1_000_000, 0.02);
        assert_eq!(cfg.compute_cache_bytes % PAGE_SIZE, 0);
        assert!(cfg.compute_cache_bytes >= 20_000);
        assert!(cfg.cache_pages() >= 5);
    }

    #[test]
    fn default_config_is_self_consistent() {
        let cfg = DdcConfig::default();
        assert!(cfg.compute_cache_bytes < cfg.memory_pool_bytes);
        assert_eq!(
            cfg.memory_cpu, cfg.compute_cpu,
            "one CPU model in both pools (§7)"
        );
        assert_eq!(cfg.memory_contexts, 1, "paper default serializes pushdowns");
        assert_eq!(cfg.pools, 1, "paper default is a single memory pool");
        cfg.validate().expect("default config validates");
    }

    #[test]
    fn validate_accepts_multi_pool_and_multi_context_configs() {
        // What used to trip the hard `memory_contexts == 1` assert is now a
        // perfectly valid configuration: validation only rejects configs
        // that cannot describe a working rack at all.
        let cfg = DdcConfig {
            pools: 4,
            placement: PlacementPolicy::LoadBalance,
            memory_contexts: 8,
            ..Default::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.pool_shard_pages(), cfg.memory_pool_pages() / 4);
    }

    #[test]
    fn validate_rejects_degenerate_configs_with_typed_errors() {
        let no_pools = DdcConfig {
            pools: 0,
            ..Default::default()
        };
        assert_eq!(no_pools.validate(), Err(ConfigError::NoPools));

        let no_ctx = DdcConfig {
            memory_contexts: 0,
            ..Default::default()
        };
        assert_eq!(no_ctx.validate(), Err(ConfigError::NoContexts));

        let tiny_pool = DdcConfig {
            memory_pool_bytes: 2 * PAGE_SIZE,
            pools: 4,
            ..Default::default()
        };
        assert_eq!(
            tiny_pool.validate(),
            Err(ConfigError::PoolTooSmall {
                pool_pages: 2,
                pools: 4
            })
        );

        let tiny_cache = DdcConfig {
            compute_cache_bytes: 100,
            ..Default::default()
        };
        assert_eq!(
            tiny_cache.validate(),
            Err(ConfigError::CacheTooSmall { cache_bytes: 100 })
        );
        // Errors render as readable diagnostics, not Debug dumps.
        assert!(tiny_cache
            .validate()
            .unwrap_err()
            .to_string()
            .contains("100"));
    }

    #[test]
    fn shard_capacity_is_exact_for_one_pool_and_floors_at_one_page() {
        let one = DdcConfig::default();
        assert_eq!(one.pool_shard_pages(), one.memory_pool_pages());
        let four = DdcConfig {
            pools: 4,
            ..Default::default()
        };
        assert_eq!(four.pool_shard_pages(), four.memory_pool_pages() / 4);
    }

    #[test]
    fn sequential_ssd_beats_paged_ssd() {
        let ssd = SsdConfig::default();
        let bulk = ssd.sequential_time(1 << 20); // 1 MB in one go
        let paged = ssd.page_io_time() * ((1usize << 20) / PAGE_SIZE) as u64;
        assert!(bulk < paged / 10, "bulk {bulk} vs paged {paged}");
    }
}
