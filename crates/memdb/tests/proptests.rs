//! Property tests for the columnar engine: every operator against a naive
//! host-memory model, plus calendar and plan invariants.

use ddc_sim::DdcConfig;
use memdb::exec::{aggregate, hashjoin, mergejoin, project, select, CandList};
use memdb::types::Date;
use memdb::{oracle, q6, Database, PushdownPlan, QueryParams, TpchData};
use proptest::prelude::*;
use teleport::{Mem, Runtime};

fn rt() -> Runtime {
    Runtime::teleport(DdcConfig {
        compute_cache_bytes: 1 << 20,
        memory_pool_bytes: 128 << 20,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Selection matches `Vec::filter` for arbitrary data and bounds,
    /// chained through an arbitrary candidate prefix.
    #[test]
    fn selection_matches_filter(
        vals in prop::collection::vec(-1000i64..1000, 1..2000),
        bound in -1000i64..1000,
        second_bound in -1000i64..1000,
    ) {
        let mut rt = rt();
        let col = rt.alloc_region::<i64>(vals.len());
        rt.write_range(&col, 0, &vals);

        let cand = select::select_where(&mut rt, &col, vals.len(), None, |v| v < bound);
        let expected: Vec<u32> = vals.iter().enumerate()
            .filter(|(_, &v)| v < bound).map(|(i, _)| i as u32).collect();
        prop_assert_eq!(cand.read(&mut rt), expected.clone());

        // Chained selection narrows correctly.
        let chained = select::select_where(&mut rt, &col, vals.len(), Some(&cand), |v| v >= second_bound);
        let expected2: Vec<u32> = expected.into_iter()
            .filter(|&r| vals[r as usize] >= second_bound).collect();
        prop_assert_eq!(chained.read(&mut rt), expected2);
    }

    /// Gather + sum matches the host computation.
    #[test]
    fn gather_and_sum_match(
        vals in prop::collection::vec(-1e6f64..1e6, 1..1500),
        pick in prop::collection::vec(any::<prop::sample::Index>(), 0..200),
    ) {
        let mut rt = rt();
        let col = rt.alloc_region::<f64>(vals.len());
        rt.write_range(&col, 0, &vals);
        let rows: Vec<u32> = pick.iter().map(|ix| ix.index(vals.len()) as u32).collect();
        let gathered = project::gather(&mut rt, &col, &rows);
        let got = project::fetch(&mut rt, &gathered, rows.len());
        let expected: Vec<f64> = rows.iter().map(|&r| vals[r as usize]).collect();
        prop_assert_eq!(got, expected.clone());

        let cand = CandList::materialize(&mut rt, &rows);
        let sum = aggregate::sum_f64(&mut rt, &col, vals.len(), Some(&cand));
        let esum: f64 = expected.iter().sum();
        prop_assert!((sum - esum).abs() <= 1e-9 * esum.abs().max(1.0));
    }

    /// The hash index finds exactly the inserted keys.
    #[test]
    fn hash_index_total_and_sound(
        keys in prop::collection::btree_set(1i64..1_000_000, 1..400),
        probes in prop::collection::vec(1i64..1_000_000, 0..200),
    ) {
        let mut rt = rt();
        let keys: Vec<i64> = keys.into_iter().collect();
        let rows: Vec<u32> = (0..keys.len() as u32).collect();
        let idx = hashjoin::HashIndex::build(&mut rt, &keys, &rows);
        for (i, &k) in keys.iter().enumerate() {
            prop_assert_eq!(idx.probe(&mut rt, k), Some(i as u32));
        }
        let keyset: std::collections::HashSet<i64> = keys.iter().copied().collect();
        for &p in &probes {
            let hit = idx.probe(&mut rt, p);
            prop_assert_eq!(hit.is_some(), keyset.contains(&p));
        }
    }

    /// Merge join agrees with a binary-search join for sorted inputs.
    #[test]
    fn merge_join_matches_binary_search(
        inner_set in prop::collection::btree_set(0i64..10_000, 1..500),
        outer_raw in prop::collection::vec(0i64..10_000, 0..300),
    ) {
        let mut rt = rt();
        let inner: Vec<i64> = inner_set.into_iter().collect();
        let mut outer = outer_raw;
        outer.sort_unstable();
        let ireg = rt.alloc_region::<i64>(inner.len());
        rt.write_range(&ireg, 0, &inner);
        let joined = mergejoin::merge_join(&mut rt, &outer, &ireg, inner.len());
        for (i, &k) in outer.iter().enumerate() {
            let expected = inner.binary_search(&k).ok().map(|p| p as u32);
            prop_assert_eq!(joined[i], expected, "key {}", k);
        }
    }

    /// Q6 on the simulator equals the oracle for arbitrary generator seeds
    /// and date parameters.
    #[test]
    fn q6_matches_oracle_for_any_seed(seed in 0u64..1000, year_off in 0i32..5) {
        let data = TpchData::generate(0.001, seed);
        let params = QueryParams {
            q6_shipdate_lo: Date::from_ymd(1993 + year_off, 1, 1),
            ..Default::default()
        };
        let expected = oracle::q6(&data, &params);
        let mut rt = rt();
        let db = Database::load(&mut rt, &data);
        rt.begin_timing();
        let (got, _) = q6(&mut rt, &db, &PushdownPlan::none(), &params);
        prop_assert!((got - expected).abs() <= 1e-6 * expected.abs().max(1.0));
    }

    /// Candidate lists round-trip arbitrary row sets.
    #[test]
    fn candlist_roundtrip(rows in prop::collection::vec(any::<u32>(), 0..2000)) {
        let mut rt = rt();
        let cand = CandList::materialize(&mut rt, &rows);
        prop_assert_eq!(cand.read(&mut rt), rows);
    }
}
