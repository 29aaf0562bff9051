//! Hash join: build a linear-probing hash index in (simulated) memory over
//! the inner relation, probe it with the outer relation.
//!
//! The probe phase is the paper's canonical memory-bound victim (§2.2):
//! random accesses into an index far larger than the compute-local cache
//! miss constantly in a DDC, which is why Q9's hash joins dominate its
//! disaggregated execution (Fig 10) and are prime pushdown candidates.
//!
//! The simulator pays the same misses on the host: the index's backing is
//! host memory too, and each simulated access runs a long chain of
//! bookkeeping the CPU cannot overlap with the next key's load. So
//! [`HashIndex::build`] and [`HashIndex::probe_all`] run through
//! [`teleport::for_each_ahead`]: its `place` computes a key's home slot and
//! prefetches the key and value slots there on the host
//! ([`Mem::host_span`]), eight keys before the `body` that inserts or
//! probes from that slot. A prefetch is a hint to the host CPU only, so
//! every simulated access, charge and trace record is the one a plain loop
//! of [`HashIndex::probe`] makes, in the same order.
//!
//! A probe only reads, so its body is written once against
//! [`RandReads`]. When every page of the index is resident in the compute
//! cache and a compute-side read of it is a pure hit, [`HashIndex::probe_all`]
//! runs it through a [`teleport::HitBatch`] ([`Mem::hit_batch`]), which reads
//! the slots' host bytes and bills the batch's hits, LRU moves and cycles in
//! one settle; otherwise through `m` itself, read by read. The two leave the
//! same state.

use teleport::{for_each_ahead, Mem, RandReads, Region, Scalar};

use super::cost;

/// An open-addressing (linear probing) hash index living in simulated
/// memory: a key array and an aligned payload array of inner row ids.
/// Key 0 marks an empty slot — TPC-H keys are ≥ 1; composite keys add 1.
#[derive(Debug, Clone, Copy)]
pub struct HashIndex {
    keys: Region<i64>,
    vals: Region<u32>,
    mask: u64,
    pub entries: usize,
}

impl HashIndex {
    /// Build an index mapping `keys[i] -> rows[i]`. Keys must be non-zero
    /// and unique (all TPC-H primary-key joins used here are).
    pub fn build<M: Mem>(m: &mut M, keys: &[i64], rows: &[u32]) -> HashIndex {
        assert_eq!(keys.len(), rows.len());
        let capacity = (keys.len().max(1) * 2).next_power_of_two();
        let idx = HashIndex {
            keys: m.alloc_region(capacity),
            vals: m.alloc_region(capacity),
            mask: capacity as u64 - 1,
            entries: keys.len(),
        };
        let home = idx.placer(m);
        let place = |i: usize| home(keys[i]);
        // Insertions are random writes into the table — the memory traffic
        // of a real hash build.
        for_each_ahead(0..keys.len(), place, |i, mut slot| {
            let (k, r) = (keys[i], rows[i]);
            assert!(k != 0, "key 0 is the empty sentinel");
            loop {
                let existing = m.get(&idx.keys, slot, ddc_os::Pattern::Rand);
                if existing == 0 {
                    m.set(&idx.keys, slot, k, ddc_os::Pattern::Rand);
                    m.set(&idx.vals, slot, r, ddc_os::Pattern::Rand);
                    break;
                }
                assert!(existing != k, "duplicate key {k} at input {i}");
                slot = (slot + 1) & idx.mask as usize;
            }
        });
        m.charge_cycles(cost::HASH_BUILD * keys.len() as u64);
        idx
    }

    /// The slot where `key`'s probe sequence starts.
    #[inline]
    fn home(&self, key: i64) -> usize {
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & self.mask) as usize
    }

    /// The `place` half of a look-ahead loop over keys: a key's home slot,
    /// with its key and value slots prefetched on the host.
    fn placer<M: Mem>(self, m: &M) -> impl Fn(i64) -> usize {
        let (keys, vals) = (m.host_span(&self.keys), m.host_span(&self.vals));
        move |key| {
            let slot = self.home(key);
            keys.prefetch(slot * i64::BYTES);
            vals.prefetch(slot * u32::BYTES);
            slot
        }
    }

    /// Probe one key; returns the inner row id if present.
    pub fn probe<M: Mem>(&self, m: &mut M, key: i64) -> Option<u32> {
        self.probe_from(m, key, self.home(key))
    }

    /// [`probe`](Self::probe) from `key`'s home slot `slot`.
    fn probe_from<R: RandReads>(&self, m: &mut R, key: i64, mut slot: usize) -> Option<u32> {
        m.bill_cycles(cost::HASH_PROBE);
        if key == 0 {
            return None;
        }
        loop {
            let k = m.read(&self.keys, slot);
            if k == key {
                return Some(m.read(&self.vals, slot));
            }
            if k == 0 {
                return None;
            }
            slot = (slot + 1) & self.mask as usize;
        }
    }

    /// Probe a batch of keys; returns `(outer_position, inner_row)` for
    /// every match, preserving outer order (an inner join against a
    /// unique-key inner relation).
    pub fn probe_all<M: Mem>(&self, m: &mut M, probe_keys: &[i64]) -> Vec<(u32, u32)> {
        let home = self.placer(m);
        let spans = [
            (self.keys.addr(), self.keys.byte_len()),
            (self.vals.addr(), self.vals.byte_len()),
        ];
        m.hit_batch(&spans, |batch| self.probe_each(batch, probe_keys, &home))
            .unwrap_or_else(|| self.probe_each(m, probe_keys, &home))
    }

    /// [`probe_all`](Self::probe_all)'s loop, through `m`, with `home`
    /// placing each key.
    fn probe_each<R: RandReads>(
        &self,
        m: &mut R,
        probe_keys: &[i64],
        home: &impl Fn(i64) -> usize,
    ) -> Vec<(u32, u32)> {
        let place = |i: usize| home(probe_keys[i]);
        let mut out = Vec::new();
        for_each_ahead(0..probe_keys.len(), place, |i, slot| {
            if let Some(row) = self.probe_from(m, probe_keys[i], slot) {
                out.push((i as u32, row));
            }
        });
        out
    }
}

/// Compose a `(partkey, suppkey)` pair into a single join key, as the
/// engine does for partsupp lookups. Injective for `0 <= suppkey <
/// 100_000` (TPC-H suppkeys stay below 10 000 × SF); offsets by 1 so the
/// result is never the empty sentinel.
#[inline]
pub fn composite_key(partkey: i64, suppkey: i64) -> i64 {
    debug_assert!((0..100_000).contains(&suppkey));
    partkey * 100_000 + suppkey + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::test_rt;

    #[test]
    fn build_and_probe_hits_and_misses() {
        let mut rt = test_rt();
        let keys: Vec<i64> = vec![10, 20, 30, 40];
        let rows: Vec<u32> = vec![0, 1, 2, 3];
        let idx = HashIndex::build(&mut rt, &keys, &rows);
        assert_eq!(idx.entries, 4);
        assert_eq!(idx.probe(&mut rt, 30), Some(2));
        assert_eq!(idx.probe(&mut rt, 35), None);
        assert_eq!(idx.probe(&mut rt, 0), None);
    }

    #[test]
    fn probe_all_preserves_outer_order() {
        let mut rt = test_rt();
        let idx = HashIndex::build(&mut rt, &[5, 7, 9], &[50, 70, 90]);
        let matches = idx.probe_all(&mut rt, &[9, 6, 5, 7, 7]);
        assert_eq!(matches, vec![(0, 90), (2, 50), (3, 70), (4, 70)]);
    }

    #[test]
    fn survives_heavy_collisions() {
        // Keys chosen to collide in a small table exercise linear probing.
        let mut rt = test_rt();
        let n = 1000usize;
        let keys: Vec<i64> = (1..=n as i64).collect();
        let rows: Vec<u32> = (0..n as u32).collect();
        let idx = HashIndex::build(&mut rt, &keys, &rows);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.probe(&mut rt, k), Some(i as u32));
        }
        assert_eq!(idx.probe(&mut rt, n as i64 + 1), None);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_keys_are_rejected() {
        let mut rt = test_rt();
        let _ = HashIndex::build(&mut rt, &[4, 4], &[0, 1]);
    }

    #[test]
    fn composite_keys_are_injective_and_nonzero() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for pk in 0..50 {
            for sk in 0..50 {
                let k = composite_key(pk, sk);
                assert_ne!(k, 0);
                assert!(seen.insert(k), "collision at ({pk},{sk})");
            }
        }
        assert_ne!(composite_key(7, 13), composite_key(13, 7));
    }

    #[test]
    fn probing_is_memory_bound_on_ddc() {
        // A probe storm over an index larger than the cache must generate
        // remote traffic — this is the Fig 10 HashJoin story.
        let mut rt = test_rt();
        let n = 50_000usize;
        let keys: Vec<i64> = (1..=n as i64).collect();
        let rows: Vec<u32> = (0..n as u32).collect();
        let idx = HashIndex::build(&mut rt, &keys, &rows);
        rt.drop_cache();
        rt.begin_timing();
        let mut hits = 0;
        for i in (1..=n as i64).step_by(17) {
            if idx.probe(&mut rt, i).is_some() {
                hits += 1;
            }
        }
        assert!(hits > 0);
        let stats = rt.paging_stats();
        assert!(
            stats.remote_page_in > (hits / 2) as u64,
            "probes should fault: {} pages for {hits} probes",
            stats.remote_page_in
        );
    }
}
