//! `rackbench` — end-to-end and per-layer benchmark of the TELEPORT rack
//! simulator. See `README.md` beside this file for the workloads, the metric
//! definitions and how to read the output.
//!
//! ```text
//! rackbench run     --workload <w> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! rackbench trace   --workload <w> [--seed N]
//! rackbench layers
//! rackbench all     [--seed N]
//! rackbench compare A.json B.json
//! ```

mod calib;
mod chaos;
mod compare;
mod harness;
mod json;
mod layers;
mod scatter;
mod serve;
mod span;
mod stats;
mod tpch;
mod workload;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match harness::cli(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("rackbench: {msg}");
            ExitCode::from(2)
        }
    }
}
