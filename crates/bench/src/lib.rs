//! # teleport-bench — the experiment harness
//!
//! Regenerates every table and figure of the TELEPORT paper's evaluation.
//! The `repro` binary hands one [`figs::RunTable`] to every figure it runs:
//! the figures read their application runs from it, so a run two figures
//! share executes once. It dispatches to one module per figure group:
//!
//! - [`figs::intro`] — Fig 1a, Fig 1b, Fig 3 (the motivation numbers);
//! - [`figs::micro`] — Fig 6, Fig 7, Fig 20, Fig 21, Fig 22 (the
//!   synchronization/coherence microbenchmarks);
//! - [`figs::apps`] — Fig 10, Fig 11, Fig 12, Fig 13 (the three systems);
//! - [`figs::sensitivity`] — Fig 14, Fig 15, Fig 16, Fig 17, Fig 18 (the
//!   disaggregation-degree and pushdown-level sweeps).
//!
//! `cargo bench` additionally runs Criterion microbenchmarks of the
//! *implementation itself* (coherence transitions, RLE codec, the pushdown
//! syscall path, columnar operators, the paging fast path).

#![deny(unsafe_code)]

pub mod figs;

use ddc_sim::{DdcConfig, MonolithicConfig, SimDuration};
use memdb::{Database, TpchData};
use teleport::{PlatformKind, Runtime};

/// Workload sizes. The paper runs SF 50–200 on 64 GB machines; the
/// defaults here keep every figure within seconds of real time while
/// preserving the cache:working-set ratios that drive the results.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub sf: f64,
    pub graph_n: usize,
    pub graph_deg: usize,
    pub comments: usize,
    pub vocab: u32,
    pub seed: u64,
}

impl Scale {
    /// Fast sizes for smoke tests.
    pub fn quick() -> Scale {
        Scale {
            sf: 0.002,
            graph_n: 2_000,
            graph_deg: 4,
            comments: 1_500,
            vocab: 5_000,
            seed: 42,
        }
    }

    /// The default reproduction scale. Chosen so the join indexes and
    /// working sets exceed the compute-local cache at the paper's ratios
    /// (at much smaller scales the indexes fit in cache and the DDC
    /// slowdowns collapse, which the paper's SF 50 never allows).
    pub fn standard() -> Scale {
        Scale {
            sf: 0.05,
            graph_n: 30_000,
            graph_deg: 10,
            comments: 50_000,
            vocab: 80_000,
            seed: 42,
        }
    }
}

/// The paper's compute-local-cache ratio for the headline experiments
/// (1 GB against a ~50 GB working set).
pub const CACHE_RATIO: f64 = 0.02;

/// Build a runtime of the given kind sized for working set `ws`.
/// `Local` gets ample DRAM (the paper's "purely local execution").
pub fn runtime_for(kind: PlatformKind, ws: usize, cache_ratio: f64) -> Runtime {
    let ddc = DdcConfig::with_cache_ratio(ws, cache_ratio);
    match kind {
        PlatformKind::Local => Runtime::local(MonolithicConfig {
            dram_bytes: ws * 4 + (64 << 20),
            ..Default::default()
        }),
        PlatformKind::BaseDdc => Runtime::base_ddc(ddc),
        PlatformKind::Teleport => Runtime::teleport(ddc),
    }
}

/// A memory-constrained monolithic server that must spill to its NVMe SSD
/// (the paper's "Linux with SSDs" baseline in Figs 1a/14/15).
pub fn constrained_local(dram_bytes: usize) -> Runtime {
    Runtime::local(MonolithicConfig {
        dram_bytes,
        ..Default::default()
    })
}

/// Reset timing after a workload's input is loaded, with a cold cache on
/// the DDC platforms.
pub(crate) fn begin_cold(rt: &mut Runtime) {
    if rt.kind() != PlatformKind::Local {
        rt.drop_cache();
    }
    rt.begin_timing();
}

/// Load the TPC-H database and reset timing (cold cache on DDC platforms).
pub fn load_db(rt: &mut Runtime, data: &TpchData) -> Database {
    let db = Database::load(rt, data);
    begin_cold(rt);
    db
}

/// Collects figure output: echoes to stdout and accumulates markdown for
/// `EXPERIMENTS.md`.
#[derive(Debug, Default)]
pub struct Out {
    md: String,
}

impl Out {
    pub fn new() -> Out {
        Out::default()
    }

    pub fn section(&mut self, title: &str) {
        println!("\n## {title}");
        self.md.push_str(&format!("\n## {title}\n\n"));
    }

    pub fn line(&mut self, s: &str) {
        println!("{s}");
        self.md.push_str(s);
        self.md.push('\n');
    }

    /// Render a markdown table (also printed to stdout).
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) {
        let head = format!("| {} |", headers.join(" | "));
        let sep = format!(
            "|{}|",
            headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        self.line(&head);
        self.line(&sep);
        for row in rows {
            let line = format!("| {} |", row.join(" | "));
            self.line(&line);
        }
    }

    pub fn markdown(&self) -> &str {
        &self.md
    }
}

/// Format a simulated duration for a table cell.
pub fn fmt_t(d: SimDuration) -> String {
    d.to_string()
}

/// Format a speedup/ratio for a table cell.
pub fn fmt_x(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}x")
    } else {
        format!("{x:.1}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_accumulates_markdown() {
        let mut out = Out::new();
        out.section("Fig X");
        out.table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let md = out.markdown();
        assert!(md.contains("## Fig X"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::quick().sf < Scale::standard().sf);
        assert!(Scale::quick().graph_n < Scale::standard().graph_n);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_x(3.15), "3.1x");
        assert_eq!(fmt_x(312.0), "312x");
        assert_eq!(fmt_t(SimDuration::from_millis(5)), "5.00ms");
    }
}
