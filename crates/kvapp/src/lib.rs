//! # kvapp — a key-value point-lookup workload on disaggregated memory
//!
//! The fourth application of the reproduction, built for the multi-tenant
//! serving plane (`teleport::serve`): where memdb scans columns, graphproc
//! iterates frontiers, and mapred shuffles corpora, a production rack's
//! dominant traffic is millions of tiny *point lookups* — a memcached /
//! session-store shape. Each session touches one value: a single page of
//! the working set, a handful of cycles of compute, latency bounded by the
//! fabric rather than bandwidth.
//!
//! That shape is exactly where TELEPORT's trade-offs invert. A scan
//! amortizes one pushdown RPC over thousands of pages; a point lookup
//! moves *less* data than the RPC costs unless the page is remote and
//! cold, which under a multi-tenant cache-thrashing mix it usually is.
//! Serving matrices therefore use kvapp as the latency-sensitive
//! guaranteed-class tenant: small, constant service time, sensitive to
//! queueing — the tenant whose p99 the QoS plane must protect.
//!
//! Layout: values are a dense `Region<u64>` indexed by key (`0..n`). The
//! "hash table" indirection is charged as cycles, not modeled as pointer
//! chases, keeping each lookup a one-page working set.

#![deny(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teleport::{Mem, Pattern, PushdownError, PushdownOpts, Region, Runtime};

/// Host-side generated store content (the oracle's ground truth).
#[derive(Debug, Clone)]
pub struct KvData {
    pub vals: Vec<u64>,
}

impl KvData {
    /// `n` values, seeded. Value bits mix the key so wrong-index bugs are
    /// always visible to the oracle comparison.
    pub fn generate(n: usize, seed: u64) -> KvData {
        let mut rng = StdRng::seed_from_u64(seed);
        KvData {
            vals: (0..n)
                .map(|k| (k as u64) ^ rng.random::<u64>().rotate_left(17))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.vals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Bytes of simulated memory the loaded store occupies.
    pub fn working_set_bytes(&self) -> usize {
        self.vals.len() * std::mem::size_of::<u64>()
    }
}

/// Host-side reference results.
pub mod oracle {
    use super::KvData;

    /// The value a correct `get` must return.
    pub fn get(data: &KvData, key: u64) -> u64 {
        data.vals[key as usize]
    }
}

/// Cycles charged per lookup for the hash + bucket walk the dense layout
/// abstracts away (a couple of cache-line probes at ~2 GHz).
const LOOKUP_CYCLES: u64 = 64;

/// The store loaded into simulated (disaggregated) memory.
#[derive(Debug, Clone, Copy)]
pub struct KvStore {
    pub n: usize,
    pub vals: Region<u64>,
}

impl KvStore {
    /// Load the generated values into `m`'s address space. Typically
    /// followed by `drop_cache()` + `begin_timing()`.
    pub fn load<M: Mem>(m: &mut M, data: &KvData) -> KvStore {
        KvStore {
            n: data.vals.len(),
            vals: m.alloc_region_from(&data.vals),
        }
    }
}

/// One point lookup, pushed down: the memory pool probes the value in
/// place and returns eight bytes, instead of faulting the value's page
/// across the fabric into the compute cache.
pub fn get(rt: &mut Runtime, store: &KvStore, key: u64) -> Result<u64, PushdownError> {
    assert!((key as usize) < store.n, "key {key} out of range");
    let vals = store.vals;
    // The host fetches the value's line while steps ❶–❹ are modeled.
    rt.host_span(&vals)
        .prefetch(key as usize * std::mem::size_of::<u64>());
    rt.pushdown(PushdownOpts::new(), move |m| {
        m.charge_cycles(LOOKUP_CYCLES);
        m.get(&vals, key as usize, Pattern::Seq)
    })
}

/// A seeded stream of `count` lookup keys over `0..n` (the serving plane's
/// per-session key schedule). Uniform, not Zipf: every page of the store
/// stays warm-able, which is the harder case for the compute cache.
pub fn keys(seed: u64, count: usize, n: usize) -> Vec<u64> {
    assert!(n > 0, "empty store has no keys");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.random_range(0..n as u64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_sim::DdcConfig;

    #[test]
    fn pushdown_get_matches_oracle_on_every_platform() {
        let data = KvData::generate(4_096, 7);
        let ks = keys(11, 64, data.len());
        for rt in [
            &mut Runtime::local(Default::default()),
            &mut Runtime::base_ddc(DdcConfig::with_cache_ratio(data.working_set_bytes(), 0.25)),
            &mut Runtime::teleport(DdcConfig::with_cache_ratio(data.working_set_bytes(), 0.25)),
        ] {
            let store = KvStore::load(rt, &data);
            rt.drop_cache();
            rt.begin_timing();
            for &k in &ks {
                assert_eq!(get(rt, &store, k).unwrap(), oracle::get(&data, k));
            }
        }
    }

    /// `get` as it was before it prefetched the value's line on the host.
    fn get_unhinted(rt: &mut Runtime, store: &KvStore, key: u64) -> Result<u64, PushdownError> {
        assert!((key as usize) < store.n, "key {key} out of range");
        let vals = store.vals;
        rt.pushdown(PushdownOpts::new(), move |m| {
            m.charge_cycles(LOOKUP_CYCLES);
            m.get(&vals, key as usize, Pattern::Seq)
        })
    }

    /// The host hint is invisible to the model: 2 000 lookups over a 4 MiB
    /// store (larger than a host L2), hinted and not, on every platform,
    /// read the same values, virtual time, paging counters, metrics and
    /// trace.
    #[test]
    fn hinted_get_equals_the_unhinted_pushdown() {
        let data = KvData::generate(1 << 19, 5);
        let ks = keys(13, 2_000, data.len());
        let ddc = || DdcConfig::with_cache_ratio(data.working_set_bytes(), 0.25);
        for platform in ["local", "base_ddc", "teleport"] {
            let run = |hinted: bool| {
                let mut rt = match platform {
                    "local" => Runtime::local(Default::default()),
                    "base_ddc" => Runtime::base_ddc(ddc()),
                    _ => Runtime::teleport(ddc()),
                };
                rt.enable_tracing();
                let store = KvStore::load(&mut rt, &data);
                rt.drop_cache();
                rt.begin_timing();
                let values: Vec<u64> = ks
                    .iter()
                    .map(|&k| match hinted {
                        true => get(&mut rt, &store, k),
                        false => get_unhinted(&mut rt, &store, k),
                    })
                    .map(|v| v.expect("a healthy rack runs the pushdown"))
                    .collect();
                let trace = (rt.trace().digest(), rt.trace().len());
                (values, rt.elapsed(), rt.paging_stats(), rt.metrics(), trace)
            };
            let (got, want) = (run(true), run(false));
            assert!(got.0 == want.0, "{platform}: values differ");
            assert_eq!(got.1, want.1, "{platform}: elapsed");
            assert_eq!(got.2, want.2, "{platform}: paging_stats");
            assert!(got.3 == want.3, "{platform}: metrics differ");
            assert_eq!(got.4, want.4, "{platform}: trace");
        }
    }

    #[test]
    fn generation_and_key_streams_are_seed_deterministic() {
        assert_eq!(KvData::generate(100, 3).vals, KvData::generate(100, 3).vals);
        assert_ne!(KvData::generate(100, 3).vals, KvData::generate(100, 4).vals);
        assert_eq!(keys(5, 32, 100), keys(5, 32, 100));
        assert!(keys(5, 1_000, 64).iter().all(|&k| k < 64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_key_is_a_caller_bug() {
        let data = KvData::generate(8, 0);
        let mut rt = Runtime::local(Default::default());
        let store = KvStore::load(&mut rt, &data);
        let _ = get(&mut rt, &store, 8);
    }
}
