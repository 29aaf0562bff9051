//! TPC-H analytics on three platforms: a monolithic Linux server, an
//! unmodified disaggregated OS (LegoOS-style), and TELEPORT.
//!
//! Loads a generated TPC-H database, runs Q6 and Q9, prints per-operator
//! breakdowns (the paper's Fig 10 view), and shows how the §7.4
//! memory-intensity profile picks the operators worth pushing.
//!
//! Run with: `cargo run --release --example tpch_analytics`

use ddc_sim::{DdcConfig, MonolithicConfig};
use memdb::{oracle, q6, q9, Database, PushdownPlan, QueryParams, TpchData};
use teleport::{PlatformKind, Runtime};

fn main() {
    let sf = 0.01;
    println!("generating TPC-H data at SF {sf}...");
    let data = TpchData::generate(sf, 7);
    let params = QueryParams::default();
    println!(
        "  lineitem {} rows, orders {} rows, working set ~{} MB",
        data.lineitem.len(),
        data.orders.len(),
        data.working_set_bytes() >> 20
    );

    let ws = data.working_set_bytes();
    let ddc = DdcConfig::with_cache_ratio(ws, 0.02);
    println!(
        "  compute-local cache: {} KB (2% of working set)\n",
        ddc.compute_cache_bytes >> 10
    );

    let mut results = Vec::new();
    for kind in [
        PlatformKind::Local,
        PlatformKind::BaseDdc,
        PlatformKind::Teleport,
    ] {
        let mut rt = match kind {
            PlatformKind::Local => Runtime::local(MonolithicConfig {
                dram_bytes: ws * 4,
                ..Default::default()
            }),
            PlatformKind::BaseDdc => Runtime::base_ddc(ddc.clone()),
            PlatformKind::Teleport => Runtime::teleport(ddc.clone()),
        };
        let db = Database::load(&mut rt, &data);
        if kind != PlatformKind::Local {
            rt.drop_cache();
        }
        rt.begin_timing();

        // On TELEPORT, profile first (on paper: on the base DDC), then
        // push the top-4 operators by memory intensity.
        let plan = if kind == PlatformKind::Teleport {
            let mut profiler = Runtime::base_ddc(ddc.clone());
            let pdb = Database::load(&mut profiler, &data);
            profiler.drop_cache();
            profiler.begin_timing();
            let (_, prof) = q9(&mut profiler, &pdb, &PushdownPlan::none(), &params);
            let ranking = prof.rank_by_intensity();
            println!("memory-intensity ranking (profiled on base DDC):");
            for name in &ranking {
                let op = prof.op(name).unwrap();
                println!(
                    "  {name:<22} {:>10.0} remote accesses/s",
                    op.stat.memory_intensity()
                );
            }
            println!();
            PushdownPlan::top_k(&ranking, 4)
        } else {
            PushdownPlan::none()
        };

        let (r6, rep6) = q6(&mut rt, &db, &plan, &params);
        let (r9, rep9) = q9(&mut rt, &db, &plan, &params);

        println!("=== {} ===", kind.label());
        println!("{rep6}");
        println!("{rep9}");
        results.push((kind, rep6.total(), rep9.total(), r6, r9.len()));
    }

    // Validate against the oracle and summarize.
    let expect6 = oracle::q6(&data, &params);
    for (kind, _, _, r6, _) in &results {
        assert!(
            (r6 - expect6).abs() < 1e-6 * expect6.abs(),
            "{kind:?} Q6 mismatch"
        );
    }

    println!("--- summary (normalized to local, as in the paper's Fig 13) ---");
    let (_, l6, l9, ..) = results[0];
    for (kind, t6, t9, ..) in &results {
        println!(
            "{:<22} Q6 {:>8}  ({:>5.1}x local)   Q9 {:>8}  ({:>5.1}x local)",
            kind.label(),
            t6.to_string(),
            t6.ratio(l6),
            t9.to_string(),
            t9.ratio(l9),
        );
    }
}
