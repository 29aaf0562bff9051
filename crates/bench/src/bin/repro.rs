//! `repro` — regenerate the TELEPORT paper's tables and figures.
//!
//! ```text
//! repro <figure> [--quick] [--out FILE]
//!
//! figures: fig1a fig1b fig3 fig6 fig7 fig10 fig11 fig12 fig13
//!          fig14 fig15 fig16 fig17 fig18 fig20 fig21 fig22 all
//! flags:   --quick     smaller workloads (smoke test)
//!          --out FILE  also write the markdown tables to FILE
//! ```
//!
//! All numbers are simulated virtual time from the deterministic DDC model
//! (see DESIGN.md §1); shapes — who wins, by what factor, where crossovers
//! fall — are the reproduction target, not absolute seconds.

use std::process::ExitCode;

use teleport_bench::figs::{ablations, apps, intro, micro, sensitivity, suite, RunTable};
use teleport_bench::{Out, Scale};

type FigFn = fn(&mut RunTable, &mut Out);

const FIGURES: &[(&str, FigFn, &str)] = &[
    (
        "fig1a",
        intro::fig1a as FigFn,
        "DDC benefit over NVMe SSD spill",
    ),
    (
        "fig1b",
        intro::fig1b,
        "cost of scaling vs distributed DBMSs",
    ),
    (
        "fig3",
        intro::fig3,
        "DDC overhead across all eight workloads",
    ),
    ("fig6", micro::fig6, "data synchronization ablation"),
    ("fig7", micro::fig7, "false sharing: coherence vs syncmem"),
    ("fig10", apps::fig10, "per-operator breakdown, local vs DDC"),
    ("fig11", apps::fig11, "code-change table"),
    ("fig12", apps::fig12, "Q_filter operator pushdown"),
    ("fig13", apps::fig13, "TELEPORT on all eight workloads"),
    ("fig14", sensitivity::fig14, "absolute times vs SSD spill"),
    ("fig15", sensitivity::fig15, "memory pool size sweep"),
    ("fig16", sensitivity::fig16, "memory-pool clock sweep"),
    ("fig17", sensitivity::fig17, "parallel pushdown contexts"),
    ("fig18", sensitivity::fig18, "level of pushdown"),
    ("fig19", micro::fig19, "pushdown request components (table)"),
    ("fig20", micro::fig20, "eager vs on-demand sync breakdown"),
    ("fig21", micro::fig21, "contention sweep: execution time"),
    (
        "fig22",
        micro::fig22,
        "contention sweep: coherence messages",
    ),
    (
        "ablations",
        ablations::all,
        "design-choice ablations (planner, tie-break, RLE)",
    ),
    (
        "suite",
        suite::suite,
        "extended TPC-H suite with auto-planned pushdown",
    ),
];

fn usage() -> ExitCode {
    eprintln!("usage: repro <figure|all> [--quick] [--out FILE]\n");
    eprintln!("figures:");
    for (name, _, desc) in FIGURES {
        eprintln!("  {name:<7} {desc}");
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut quick = false;
    let mut out_file: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(f) => out_file = Some(f),
                None => return usage(),
            },
            "-h" | "--help" => return usage(),
            name if which.is_none() => which = Some(name.to_string()),
            _ => return usage(),
        }
    }
    let Some(which) = which else { return usage() };
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::standard()
    };

    let mut out = Out::new();
    out.line(&format!(
        "# TELEPORT reproduction — {} scale (sf={}, graph n={}, comments={})",
        if quick { "quick" } else { "standard" },
        scale.sf,
        scale.graph_n,
        scale.comments
    ));

    let started = std::time::Instant::now();
    let mut runs = RunTable::new(scale);
    if which == "all" {
        for (name, f, _) in FIGURES {
            eprintln!("[repro] running {name}...");
            f(&mut runs, &mut out);
        }
    } else {
        match FIGURES.iter().find(|(name, ..)| *name == which) {
            Some((_, f, _)) => f(&mut runs, &mut out),
            None => return usage(),
        }
    }
    eprintln!(
        "[repro] done in {:.1}s wall time, {} application runs executed",
        started.elapsed().as_secs_f64(),
        runs.executed()
    );

    if let Some(path) = out_file {
        if let Err(e) = std::fs::write(&path, out.markdown()) {
            eprintln!("[repro] failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[repro] wrote {path}");
    }
    ExitCode::SUCCESS
}
