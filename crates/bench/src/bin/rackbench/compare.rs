//! The end-to-end metric definitions (unit, direction, bound) and
//! `rackbench compare`, which holds two result files against them.

use crate::json::Json;
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base value.
    Rel(f64),
    /// An absolute amount, for metrics whose base may be 0.
    Abs(f64),
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

/// The ten end-to-end metrics. Host-time metrics measure the simulator and
/// are noisy; `sim_*`, the ratios and `paper_err` are virtual time, measure
/// the modelled rack, and repeat exactly for a given seed.
///
/// The first four exist on every workload and are the ones BENCHMARK.json
/// lists, with these bounds. Those bounds are sized to what ten runs on ten
/// seeds spread over on the 2-core sandbox (README.md, "Noise"): host time
/// drifts by 10–20 % over minutes there, `peak_rss_mb` of `tpch` falls into
/// one of two allocator regimes 10 % apart depending on the seed, and
/// `sim_s` of `chaos` moves 3 % with the seed.
pub const END_TO_END: [Def; 10] = [
    def("setup_s", "s", Better::Lower, Bound::Rel(0.25)),
    def("ops_per_s", "ops/s", Better::Higher, Bound::Rel(0.25)),
    def("peak_rss_mb", "MB", Better::Lower, Bound::Rel(0.20)),
    def("sim_s", "sim_s", Better::Lower, Bound::Rel(0.10)),
    def("speedup_x", "ratio", Better::Higher, Bound::Rel(0.05)),
    def("scale_cost_x", "ratio", Better::Lower, Bound::Rel(0.05)),
    def("paper_err", "ln-ratio", Better::Lower, Bound::Abs(0.05)),
    def("sim_p99_us", "sim_us", Better::Lower, Bound::Rel(0.05)),
    // One rung down is a regression, whatever its size.
    def("sim_max_kqps", "k/sim_s", Better::Higher, Bound::Rel(0.0)),
    def("fail_frac", "fraction", Better::Lower, Bound::Abs(0.001)),
];

const fn def(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of one side is wider than the bound, so the
    /// two medians cannot be told apart at that resolution.
    Unresolved,
}

impl Def {
    fn allowance(&self, base: f64) -> f64 {
        match self.bound {
            Bound::Rel(share) => share * base.abs(),
            Bound::Abs(amount) => amount,
        }
    }

    /// Judge `new` against `base`; `spreads` are each side's inter-quartile
    /// spread as a share of its median (0 for values that repeat exactly).
    pub fn verdict(&self, base: f64, new: f64, spreads: (f64, f64)) -> Verdict {
        if let Bound::Rel(share) = self.bound {
            if share > 0.0 && (spreads.0 > share || spreads.1 > share) {
                return Verdict::Unresolved;
            }
        }
        let gain = match self.better {
            Better::Higher => new - base,
            Better::Lower => base - new,
        };
        let allowance = self.allowance(base);
        if gain < -allowance {
            Verdict::Worse
        } else if gain > allowance {
            Verdict::Better
        } else {
            Verdict::Same
        }
    }
}

/// `(value, spread)` of one metric in a results file: the value is the
/// reported one, the spread comes from the per-iteration samples if any
/// (only `ops_per_s` carries them).
fn read_metric(workload: &Json, name: &str) -> Option<(f64, f64)> {
    let m = workload.get("end_to_end")?.get(name)?;
    let value = m.get("value")?.as_f64()?;
    let samples: Vec<f64> = m
        .get("samples")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    let spread = if samples.len() >= 2 {
        quartiles(&samples).spread()
    } else {
        0.0
    };
    Some((value, spread))
}

/// One end-to-end metric of one workload, judged.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub def: Def,
    pub base: f64,
    pub new: f64,
    pub verdict: Verdict,
    /// `fail_frac` rose at all, even within its bound.
    pub fails_more: bool,
}

/// Judge every end-to-end metric × workload of `new` against `base`.
pub fn judge(base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let workloads = base
        .get("workloads")
        .ok_or("base file has no \"workloads\"")?;
    let mut rows = Vec::new();
    for (name, base_w) in workloads.fields() {
        let new_w = new
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("new file has no workload {name:?}"))?;
        for def in END_TO_END {
            let (Some((b, b_spread)), Some((n, n_spread))) =
                (read_metric(base_w, def.name), read_metric(new_w, def.name))
            else {
                continue;
            };
            rows.push(Row {
                workload: name.clone(),
                def,
                base: b,
                new: n,
                verdict: def.verdict(b, n, (b_spread, n_spread)),
                fails_more: def.name == "fail_frac" && n > b,
            });
        }
    }
    Ok(rows)
}

/// Compare two `results.json` files: print one row per end-to-end metric ×
/// workload and return whether `new` is acceptable — no `worse`, and no
/// workload failing more of its operations than before.
pub fn compare(base: &Json, new: &Json) -> Result<bool, String> {
    let rows = judge(base, new)?;
    println!(
        "{:<9} {:<14} {:>16} {:>16} {:>8} {:>10}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    for r in &rows {
        let bound = match r.def.bound {
            Bound::Rel(s) => format!("{:.0}% rel", s * 100.0),
            Bound::Abs(a) => format!("{a} abs"),
        };
        println!(
            "{:<9} {:<14} {:>16.6} {:>16.6} {:>8.4} {bound:>10}  {}{}",
            r.workload,
            r.def.name,
            r.base,
            r.new,
            if r.base != 0.0 {
                r.new / r.base
            } else {
                f64::NAN
            },
            format!("{:?}", r.verdict).to_lowercase(),
            if r.fails_more { " (fails more)" } else { "" },
        );
    }
    Ok(rows
        .iter()
        .all(|r| r.verdict != Verdict::Worse && !r.fails_more))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_name(name: &str) -> Def {
        *END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let ops = by_name("ops_per_s");
        assert_eq!(ops.verdict(100.0, 80.0, (0.0, 0.0)), Verdict::Same);
        assert_eq!(ops.verdict(100.0, 74.0, (0.0, 0.0)), Verdict::Worse);
        assert_eq!(ops.verdict(100.0, 126.0, (0.0, 0.0)), Verdict::Better);
        assert_eq!(ops.verdict(100.0, 74.0, (0.02, 0.3)), Verdict::Unresolved);
        let rss = by_name("peak_rss_mb");
        assert_eq!(rss.verdict(100.0, 121.0, (0.0, 0.0)), Verdict::Worse);
        assert_eq!(rss.verdict(100.0, 79.0, (0.0, 0.0)), Verdict::Better);
        // Absolute bounds work from a base of zero.
        let fail = by_name("fail_frac");
        assert_eq!(fail.verdict(0.0, 0.0005, (0.0, 0.0)), Verdict::Same);
        assert_eq!(fail.verdict(0.0, 0.002, (0.0, 0.0)), Verdict::Worse);
        // One rung down is worse; the same rung is the same.
        let rung = by_name("sim_max_kqps");
        assert_eq!(rung.verdict(16.0, 13.33, (0.0, 0.0)), Verdict::Worse);
        assert_eq!(rung.verdict(16.0, 16.0, (0.0, 0.0)), Verdict::Same);
        assert_eq!(rung.verdict(16.0, 20.0, (0.0, 0.0)), Verdict::Better);
    }

    /// A results file with one workload: `setup_s`, `ops_per_s` with its
    /// samples, and `fail_frac`.
    fn results(ops: f64, samples: &[f64], fail: f64) -> Json {
        let metric = |value: f64, samples: &[f64]| {
            Json::obj([
                ("value", Json::Num(value)),
                (
                    "samples",
                    Json::Arr(samples.iter().map(|s| Json::Num(*s)).collect()),
                ),
            ])
        };
        Json::obj([(
            "workloads",
            Json::obj([(
                "serve",
                Json::obj([(
                    "end_to_end",
                    Json::obj([
                        ("setup_s", metric(2.0, &[])),
                        ("ops_per_s", metric(ops, samples)),
                        ("fail_frac", metric(fail, &[])),
                    ]),
                )]),
            )]),
        )])
    }

    #[test]
    fn compare_rejects_worse_and_failing_more() {
        let base = results(100.0, &[99.0, 100.0, 101.0], 0.0);
        assert_eq!(compare(&base, &base), Ok(true));
        // Two sets of runs of one commit: nothing worse, nothing unresolved.
        let rows = judge(&base, &base).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Same));
        let slower = results(70.0, &[69.0, 70.0, 71.0], 0.0);
        assert_eq!(compare(&base, &slower), Ok(false));
        // Within the absolute bound, yet more operations fail than before.
        let failing = results(100.0, &[99.0, 100.0, 101.0], 0.0005);
        assert_eq!(compare(&base, &failing), Ok(false));
        // Too noisy to call: unresolved is reported but is not a rejection.
        let noisy = results(70.0, &[40.0, 70.0, 100.0], 0.0);
        assert_eq!(compare(&base, &noisy), Ok(true));
        let rows = judge(&base, &noisy).unwrap();
        assert_eq!(rows[1].def.name, "ops_per_s");
        assert_eq!(rows[1].verdict, Verdict::Unresolved);
        assert!(compare(&Json::Null, &base).is_err());
    }
}
