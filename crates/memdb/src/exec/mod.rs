//! Physical operators of the columnar engine.
//!
//! MonetDB-style operator-at-a-time execution: every operator consumes
//! whole columns (or candidate lists from previous selections), materializes
//! its result, and hands it to the next operator. All data movement runs
//! through the [`Mem`] trait, so each operator's memory behavior — the
//! thing the paper's Fig 10 per-operator breakdown measures — is metered
//! regardless of which pool it executes in.

pub mod aggregate;
pub mod expr;
pub mod hashjoin;
pub mod mergejoin;
pub mod project;
pub mod select;
pub mod sort;

use teleport::{Mem, Region};

/// Per-tuple CPU cost constants (cycles), in line with vectorized columnar
/// engines: cheap predicates and arithmetic, pricier hashing.
pub mod cost {
    /// Evaluate a selection predicate on one tuple.
    pub const FILTER: u64 = 2;
    /// Gather one value through a candidate list.
    pub const GATHER: u64 = 3;
    /// Fold one value into a simple aggregate.
    pub const AGG: u64 = 1;
    /// Hash-aggregate one tuple into a group table.
    pub const GROUP: u64 = 6;
    /// Insert one tuple into a join hash table.
    pub const HASH_BUILD: u64 = 16;
    /// Probe the hash table with one key (excluding the memory reads,
    /// which are charged by the access layer).
    pub const HASH_PROBE: u64 = 10;
    /// One step of a merge join.
    pub const MERGE: u64 = 3;
    /// Evaluate one arithmetic expression.
    pub const EXPR: u64 = 2;
    /// Per-comparison sorting cost.
    pub const SORT: u64 = 3;
}

/// A materialized candidate list (MonetDB's `candlist`): row indices that
/// survived previous selections, stored in simulated memory like any other
/// intermediate.
#[derive(Debug, Clone, Copy)]
pub struct CandList {
    pub rows: Region<u32>,
    pub len: usize,
}

impl CandList {
    /// Materialize `rows` into simulated memory.
    pub fn materialize<M: Mem>(m: &mut M, rows: &[u32]) -> CandList {
        CandList {
            rows: m.alloc_region_from(rows),
            len: rows.len(),
        }
    }

    /// Read the list back (sequential scan of the intermediate).
    pub fn read<M: Mem>(&self, m: &mut M) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        m.read_range(&self.rows, 0, self.len, &mut out);
        out
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use ddc_sim::DdcConfig;
    use teleport::Runtime;

    /// A roomy DDC runtime for operator unit tests.
    pub fn test_rt() -> Runtime {
        Runtime::teleport(DdcConfig {
            compute_cache_bytes: 1 << 20,
            memory_pool_bytes: 256 << 20,
            ..Default::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::test_rt;

    #[test]
    fn candlist_roundtrip() {
        let mut rt = test_rt();
        let rows = vec![3u32, 5, 8, 13, 21];
        let cand = CandList::materialize(&mut rt, &rows);
        assert_eq!(cand.len, 5);
        assert_eq!(cand.read(&mut rt), rows);
    }

    #[test]
    fn empty_candlist() {
        let mut rt = test_rt();
        let cand = CandList::materialize(&mut rt, &[]);
        assert!(cand.is_empty());
        assert!(cand.read(&mut rt).is_empty());
    }
}
