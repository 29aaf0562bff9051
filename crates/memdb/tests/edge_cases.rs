//! Edge cases: empty results, degenerate parameters, tiny tables, and the
//! external sort operator.

use ddc_sim::DdcConfig;
use memdb::exec::{project, sort};
use memdb::types::Date;
use memdb::{oracle, q3, q6, q9, Database, PushdownPlan, QueryParams, TpchData};
use teleport::{Mem, Runtime};

fn rt() -> Runtime {
    Runtime::teleport(DdcConfig {
        compute_cache_bytes: 1 << 20,
        memory_pool_bytes: 256 << 20,
        ..Default::default()
    })
}

#[test]
fn queries_with_empty_results_agree_with_the_oracle() {
    let data = TpchData::generate(0.002, 13);
    let params = QueryParams {
        // A Q3 cutoff before any order exists: empty everything.
        q3_date: Date::from_ymd(1990, 1, 1),
        // Q6 on a year outside the data window.
        q6_shipdate_lo: Date::from_ymd(1970, 1, 1),
        ..Default::default()
    };

    let mut rt = rt();
    let db = Database::load(&mut rt, &data);
    rt.begin_timing();

    let (rows, _) = q3(&mut rt, &db, &PushdownPlan::none(), &params);
    assert_eq!(rows, oracle::q3(&data, &params));
    assert!(rows.is_empty());

    let (total, _) = q6(&mut rt, &db, &PushdownPlan::none(), &params);
    assert_eq!(total, oracle::q6(&data, &params));
    assert_eq!(total, 0.0);
}

#[test]
fn q9_with_an_unpopular_color_still_matches() {
    // Whatever the rarest color matches (possibly very few parts), the
    // simulated plan and the oracle must agree.
    let data = TpchData::generate(0.002, 21);
    let params = QueryParams {
        q9_color: "azure",
        ..Default::default()
    };
    let mut rt = rt();
    let db = Database::load(&mut rt, &data);
    rt.begin_timing();
    let (rows, _) = q9(&mut rt, &db, &PushdownPlan::none(), &params);
    let expected = oracle::q9(&data, &params);
    assert_eq!(rows.len(), expected.len());
    for (g, e) in rows.iter().zip(&expected) {
        assert_eq!((&g.nation, g.year), (&e.nation, e.year));
    }
}

#[test]
fn tiny_scale_factor_is_well_formed() {
    // The generator clamps to minimum cardinalities; everything still runs.
    let data = TpchData::generate(0.000001, 1);
    assert!(data.part.len() >= 64);
    assert!(data.orders.len() >= 64);
    let mut rt = rt();
    let db = Database::load(&mut rt, &data);
    rt.begin_timing();
    let (rows, _) = q9(&mut rt, &db, &PushdownPlan::none(), &QueryParams::default());
    let expected = oracle::q9(&data, &QueryParams::default());
    assert_eq!(rows.len(), expected.len());
}

#[test]
fn external_sort_matches_host_sort() {
    let mut rt = rt();
    let n = 10_000usize;
    let keys_host: Vec<i64> = (0..n)
        .map(|i| ((i * 2_654_435_761) % 100_000) as i64)
        .collect();
    let payload_host: Vec<u32> = (0..n as u32).collect();
    let keys = rt.alloc_region::<i64>(n);
    let payload = rt.alloc_region::<u32>(n);
    rt.write_range(&keys, 0, &keys_host);
    rt.write_range(&payload, 0, &payload_host);
    rt.begin_timing();

    let (sk, sp) = sort::external_sort_by_key(&mut rt, &keys, &payload, n, 1_000);
    let got_k = project::fetch(&mut rt, &sk, n);
    let got_p = project::fetch(&mut rt, &sp, n);

    let mut expected: Vec<(i64, u32)> = keys_host.into_iter().zip(payload_host).collect();
    expected.sort_unstable();
    assert_eq!(got_k, expected.iter().map(|&(k, _)| k).collect::<Vec<_>>());
    assert_eq!(got_p, expected.iter().map(|&(_, p)| p).collect::<Vec<_>>());
}

#[test]
fn external_sort_edge_shapes() {
    let mut rt = rt();
    // Empty input.
    let keys = rt.alloc_region::<i64>(1);
    let payload = rt.alloc_region::<u32>(1);
    let (sk, _) = sort::external_sort_by_key(&mut rt, &keys, &payload, 0, 16);
    assert!(sk.is_empty());

    // Single run (n < run size), already sorted, and reverse-sorted.
    for input in [vec![1i64, 2, 3], vec![3i64, 2, 1], vec![5i64; 7]] {
        let n = input.len();
        let keys = rt.alloc_region::<i64>(n);
        let payload = rt.alloc_region::<u32>(n);
        rt.write_range(&keys, 0, &input);
        let pl: Vec<u32> = (0..n as u32).collect();
        rt.write_range(&payload, 0, &pl);
        let (sk, _) = sort::external_sort_by_key(&mut rt, &keys, &payload, n, 16);
        let got = project::fetch(&mut rt, &sk, n);
        let mut expected = input.clone();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }
}

#[test]
fn external_sort_charges_more_than_in_place_reads() {
    // The sort's virtual cost includes run writes and merge reads.
    let mut rt = rt();
    let n = 50_000usize;
    let keys_host: Vec<i64> = (0..n).rev().map(|i| i as i64).collect();
    let keys = rt.alloc_region::<i64>(n);
    let payload = rt.alloc_region::<u32>(n);
    rt.write_range(&keys, 0, &keys_host);
    rt.drop_cache();
    rt.begin_timing();
    let t0 = rt.elapsed();
    let _ = sort::external_sort_by_key(&mut rt, &keys, &payload, n, 8_192);
    let sort_time = rt.elapsed() - t0;

    let t0 = rt.elapsed();
    let mut buf = Vec::new();
    rt.read_range(&keys, 0, n, &mut buf);
    let scan_time = rt.elapsed() - t0;
    assert!(
        sort_time.as_nanos() > 3 * scan_time.as_nanos(),
        "sort {sort_time} vs scan {scan_time}"
    );
}
