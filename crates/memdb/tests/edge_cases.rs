//! Edge cases: empty results, degenerate parameters and tiny tables.

use ddc_sim::DdcConfig;
use memdb::types::Date;
use memdb::{oracle, q3, q6, q9, Database, PushdownPlan, QueryParams, TpchData};
use teleport::Runtime;

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
