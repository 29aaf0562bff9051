//! Pushdown planning: profile on the base DDC, rank operators by memory
//! intensity (§7.4's RM/s metric), and compare fixed top-k levels against
//! the automatic 80 K RM/s threshold rule — including the "too aggressive
//! backfires" regime with a throttled memory-pool CPU (Fig 18).
//!
//! Run with: `cargo run --release --example pushdown_planning`

use ddc_sim::DdcConfig;
use memdb::{q9, Database, PushdownPlan, QueryParams, TpchData};
use teleport::Runtime;

fn load(rt: &mut Runtime, data: &TpchData) -> Database {
    let db = Database::load(rt, data);
    rt.drop_cache();
    rt.begin_timing();
    db
}

fn main() {
    let sf = 0.02;
    println!("generating TPC-H at SF {sf} and profiling Q9 on the base DDC...");
    let data = TpchData::generate(sf, 11);
    let params = QueryParams::default();
    let ws = data.working_set_bytes();
    let cfg = DdcConfig::with_cache_ratio(ws, 0.02);

    // 1. Profile on the unmodified DDC.
    let mut base = Runtime::base_ddc(cfg.clone());
    let db = load(&mut base, &data);
    let (_, profile) = q9(&mut base, &db, &PushdownPlan::none(), &params);
    println!("\noperator profile (the §7.4 memory-intensity metric):");
    for op in &profile.ops {
        println!(
            "  {:<22} {:>10}  {:>8.0}K RM/s {}",
            op.name,
            op.stat.time.to_string(),
            op.stat.memory_intensity() / 1e3,
            if op.stat.memory_intensity() > PushdownPlan::PAPER_THRESHOLD_RM_S {
                "  <- push (above 80K)"
            } else {
                ""
            }
        );
    }
    let ranking = profile.rank_by_intensity();
    let base_time = profile.total();

    // 2. Sweep pushdown levels with a half-speed memory pool (Fig 18).
    println!("\nQ9 with a 50%-clock memory pool, by pushdown level:");
    let mut throttled = cfg.clone();
    throttled.memory_cpu.clock_ghz *= 0.5;
    for (label, plan) in [
        ("none".to_string(), PushdownPlan::none()),
        ("top-1".to_string(), PushdownPlan::top_k(&ranking, 1)),
        ("top-4".to_string(), PushdownPlan::top_k(&ranking, 4)),
        (
            format!(
                "auto >80K RM/s ({} ops)",
                PushdownPlan::auto(profile.units(), PushdownPlan::PAPER_THRESHOLD_RM_S).len()
            ),
            PushdownPlan::auto(profile.units(), PushdownPlan::PAPER_THRESHOLD_RM_S),
        ),
        ("all".to_string(), PushdownPlan::top_k(&ranking, 8)),
    ] {
        let t = if plan.is_empty() {
            base_time
        } else {
            let mut rt = Runtime::teleport_with(throttled.clone(), Default::default());
            let db = load(&mut rt, &data);
            let (_, rep) = q9(&mut rt, &db, &plan, &params);
            rep.total()
        };
        println!(
            "  {label:<24} {:>10}   ({:.1}x vs none)",
            t.to_string(),
            base_time.ratio(t)
        );
    }
    println!(
        "\nThe paper's guidance (§7.4): push the operators above the intensity \
         split, not everything — the optimum depends on the memory pool's compute."
    );
}
