//! `rtm-benchmark compare A.json B.json`: applies the bounds in
//! `BENCHMARK.json` to two result files (A is the baseline).
//!
//! One row per workload × end-to-end metric: both medians, the ratio B/A
//! with its base, the bound and a verdict. A metric whose own run-to-run
//! spread on either side exceeds its bound is *unresolved*, not unchanged —
//! unless every run of B reads better than every run of A. The comparison
//! fails on a regression, on a workload or metric missing from either
//! file, or when B's failed share is higher than A's.

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::Better;
use crate::stats::{median, sorted, spread};

/// The outcome of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The table, ready to print.
    pub report: String,
    /// Rows that regressed, went missing, or failed more.
    pub failures: usize,
    /// Rows whose spread exceeds their bound.
    pub unresolved: usize,
}

/// End-to-end values of `metric` on `workload` across a file's runs.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .items()
        .iter()
        .filter(|r| r.get("workload").str() == workload && r.get("trace").num() == 0.0)
        .filter_map(|r| r.get("metrics").get(metric).get("value").as_f64())
        .collect()
}

/// Failed operations as a share of attempted, over a workload's runs.
fn failed_share(file: &Json, workload: &str) -> f64 {
    let (mut failed, mut attempted) = (0.0, 0.0);
    for r in file.get("runs").items() {
        if r.get("workload").str() == workload {
            failed += r.get("failed").as_f64().unwrap_or(0.0);
            attempted += r.get("attempted").as_f64().unwrap_or(0.0);
        }
    }
    if attempted > 0.0 {
        failed / attempted
    } else {
        0.0
    }
}

/// Compares result file `b` against baseline `a` under `spec`
/// (`BENCHMARK.json`).
///
/// # Errors
///
/// Returns a message when `spec` lacks the workload or metric lists.
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<Comparison, String> {
    let workloads = spec.get("workloads").items();
    let metrics = spec.get("end_to_end").items();
    if workloads.is_empty() || metrics.is_empty() {
        return Err("the spec has no workloads or no end_to_end metrics".to_string());
    }
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{:<20} {:<22} {:>14} {:>14} {:>18} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let (mut failures, mut unresolved) = (0, 0);
    for w in workloads {
        let wname = w.get("name").str();
        for m in metrics {
            let name = m.get("name").str();
            let bound = m
                .get("bound")
                .as_f64()
                .ok_or_else(|| format!("metric {name} has no bound"))?;
            let better = Better::parse(m.get("better").str())
                .ok_or_else(|| format!("metric {name} has no direction"))?;
            let (va, vb) = (
                sorted(values(a, wname, name)),
                sorted(values(b, wname, name)),
            );
            if va.is_empty() || vb.is_empty() {
                failures += 1;
                let _ = writeln!(report, "{wname:<20} {name:<22} missing from a result file");
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = match better {
                Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
            };
            let noise = spread(&va).max(spread(&vb));
            let all_better = match better {
                Better::Lower => vb[vb.len() - 1] < va[0],
                Better::Higher => vb[0] > va[va.len() - 1],
            };
            let verdict = if noise > bound && !all_better {
                unresolved += 1;
                format!("unresolved (spread {:.1} % > bound)", 100.0 * noise)
            } else if worse_by > bound {
                failures += 1;
                format!("REGRESSION ({:+.1} % worse)", 100.0 * worse_by)
            } else {
                "ok".to_string()
            };
            let _ = writeln!(
                report,
                "{wname:<20} {name:<22} {ma:>14.4} {mb:>14.4} {:>9.4} of {ma:<6.4e} {:>5.0}%  {verdict}",
                mb / ma,
                100.0 * bound,
            );
        }
        let (fa, fb) = (failed_share(a, wname), failed_share(b, wname));
        if fb > fa {
            failures += 1;
            let _ = writeln!(
                report,
                "{wname:<20} failed share rose from {fa:.6} to {fb:.6}"
            );
        }
    }
    let first = (workloads[0].get("name").str(), metrics[0].get("name").str());
    let runs = |file: &Json| values(file, first.0, first.1).len();
    let _ = writeln!(
        report,
        "{failures} failing, {unresolved} unresolved (n = {} vs {} runs per workload)",
        runs(a),
        runs(b),
    );
    Ok(Comparison {
        report,
        failures,
        unresolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [
            {"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
            {"name": "fps", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

    fn file(runs: &[(f64, f64, u64)]) -> Json {
        let rows: Vec<String> = runs
            .iter()
            .map(|(lat, fps, failed)| {
                format!(
                    r#"{{"workload": "w", "trace": 0, "attempted": 100, "failed": {failed},
                        "metrics": {{"lat": {{"value": {lat}, "unit": "us"}},
                                     "fps": {{"value": {fps}, "unit": "1/s"}}}}}}"#
                )
            })
            .collect();
        Json::parse(&format!(r#"{{"runs": [{}]}}"#, rows.join(","))).expect("valid")
    }

    fn run(a: &[(f64, f64, u64)], b: &[(f64, f64, u64)]) -> Comparison {
        let spec = Json::parse(SPEC).expect("valid spec");
        compare(&spec, &file(a), &file(b)).expect("comparable")
    }

    #[test]
    fn same_numbers_pass_and_a_slowdown_past_the_bound_fails() {
        let base = [(100.0, 50.0, 0), (101.0, 50.5, 0), (99.0, 49.5, 0)];
        assert_eq!(run(&base, &base).failures, 0);
        let slow = [(120.0, 50.0, 0), (121.0, 50.5, 0), (119.0, 49.5, 0)];
        let c = run(&base, &slow);
        assert_eq!((c.failures, c.unresolved), (1, 0), "{}", c.report);
        assert!(c.report.contains("REGRESSION"));
        // Higher-is-better regresses downwards.
        let starved = [(100.0, 40.0, 0), (101.0, 40.5, 0), (99.0, 39.5, 0)];
        assert_eq!(run(&base, &starved).failures, 1);
        // Within the bound is fine.
        let close = [(105.0, 50.0, 0), (106.0, 50.5, 0), (104.0, 49.5, 0)];
        assert_eq!(run(&base, &close).failures, 0);
    }

    #[test]
    fn noisy_sides_are_unresolved_unless_every_run_is_better() {
        let base = [(100.0, 50.0, 0), (140.0, 50.0, 0), (60.0, 50.0, 0)];
        let c = run(&base, &base);
        assert_eq!((c.failures, c.unresolved), (0, 1), "{}", c.report);
        let faster = [(30.0, 50.0, 0), (50.0, 50.0, 0), (40.0, 50.0, 0)];
        let c = run(&base, &faster);
        assert_eq!((c.failures, c.unresolved), (0, 0), "{}", c.report);
    }

    #[test]
    fn more_failures_or_missing_rows_fail() {
        let base = [(100.0, 50.0, 0), (100.0, 50.0, 0)];
        let failing = [(100.0, 50.0, 1), (100.0, 50.0, 0)];
        assert_eq!(run(&base, &failing).failures, 1);
        assert_eq!(run(&failing, &base).failures, 0, "fewer failures is fine");
        let c = run(&base, &[]);
        assert_eq!(c.failures, 2, "both metrics missing: {}", c.report);
    }
}
