//! Paging statistics for one simulated run, and what one pushdown's routing
//! window saw.

/// Counters accumulated by the kernel's access paths. These regenerate the
/// paper's per-phase "remote memory accesses" annotations (Fig 10) and the
/// memory-intensity metric of §7.4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Accesses satisfied by the compute-local cache (or local DRAM in the
    /// monolithic topology).
    pub cache_hits: u64,
    /// Accesses that required a page fault.
    pub cache_misses: u64,
    /// Pages fetched from the memory pool over the fabric.
    pub remote_page_in: u64,
    /// Dirty pages written back to the memory pool over the fabric.
    pub remote_page_out: u64,
    /// Pages read from the storage pool (or swap device).
    pub storage_page_in: u64,
    /// Pages written to the storage pool (or swap device).
    pub storage_page_out: u64,
    /// Cache evictions (clean or dirty).
    pub evictions: u64,
    /// Accesses performed memory-side by pushdown code.
    pub mem_side_accesses: u64,
}

impl PagingStats {
    /// Total page faults taken by the compute side.
    pub fn faults(&self) -> u64 {
        self.cache_misses
    }

    /// Total remote (fabric) page movements, the paper's "remote memory
    /// accesses".
    pub fn remote_accesses(&self) -> u64 {
        self.remote_page_in + self.remote_page_out
    }

    /// Field-wise difference `self - earlier` for phase attribution.
    pub fn delta_since(&self, earlier: &PagingStats) -> PagingStats {
        PagingStats {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            remote_page_in: self.remote_page_in - earlier.remote_page_in,
            remote_page_out: self.remote_page_out - earlier.remote_page_out,
            storage_page_in: self.storage_page_in - earlier.storage_page_in,
            storage_page_out: self.storage_page_out - earlier.storage_page_out,
            evictions: self.evictions - earlier.evictions,
            mem_side_accesses: self.mem_side_accesses - earlier.mem_side_accesses,
        }
    }
}

/// What one pushdown's routing window saw (`Dos::end_pushdown_routing`;
/// multi-pool racks only): which shards its memory-side accesses landed on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingWindow {
    /// The lowest-index shard touched; 0 when none was.
    pub primary: usize,
    /// How many shards were touched.
    pub pools: u64,
    /// Memory-side page touches routed.
    pub pages: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = PagingStats {
            cache_hits: 3,
            cache_misses: 1,
            remote_page_in: 1,
            remote_page_out: 2,
            ..Default::default()
        };
        assert_eq!(s.faults(), 1);
        assert_eq!(s.remote_accesses(), 3);
    }

    #[test]
    fn delta_isolates_a_phase() {
        let mut s = PagingStats {
            cache_hits: 10,
            ..Default::default()
        };
        let snapshot = s;
        s.cache_hits += 5;
        s.remote_page_in += 2;
        let d = s.delta_since(&snapshot);
        assert_eq!(d.cache_hits, 5);
        assert_eq!(d.remote_page_in, 2);
        assert_eq!(d.cache_misses, 0);
    }
}
