//! Series files and the comparison of two of them.
//!
//! Every end-to-end run appends one entry to a series file: its
//! provenance and, per metric, the median of the `repro` runs it made.
//! Comparing two series takes, per (workload, metric), the median and
//! quartiles of those per-run medians on each side.

use crate::json::Json;
use crate::stats::Summary;
use crate::{Better, E2E};
use std::collections::BTreeMap;

/// Outcome of one (workload, metric) comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// One side's interquartile spread exceeds the bound, so the runs
    /// cannot tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: Summary,
    pub cur: Summary,
    /// Change of the median as a share of the baseline median; positive
    /// is worse.
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Per-run medians of each end-to-end metric, keyed by (workload, metric).
pub fn run_medians(series: &Json) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let runs = series.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    for run in runs {
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(median) = m.get("median").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(median);
            }
        }
    }
    out
}

/// Compare `cur` against `base` for every (workload, end-to-end metric)
/// pair both series hold.
pub fn compare(base: &Json, cur: &Json) -> Vec<Row> {
    let base = run_medians(base);
    let cur = run_medians(cur);
    let mut rows = Vec::new();
    for w in crate::WORKLOADS.iter().map(|w| w.name) {
        for m in &E2E {
            let key = (w.to_string(), m.name.to_string());
            let (Some(b), Some(c)) = (
                base.get(&key).and_then(|v| Summary::of(v)),
                cur.get(&key).and_then(|v| Summary::of(v)),
            ) else {
                continue;
            };
            let change = (c.median - b.median) / b.median;
            let worse_by = match m.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let verdict = if b.spread() > m.bound || c.spread() > m.bound {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Regression
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: m.name,
                base: b,
                cur: c,
                worse_by,
                verdict,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(workload: &str, wall: &[f64]) -> Json {
        let runs = wall
            .iter()
            .map(|&w| {
                Json::obj([
                    ("workload", Json::Str(workload.into())),
                    (
                        "metrics",
                        Json::obj([("wall_s", Json::obj([("median", Json::Num(w))]))]),
                    ),
                ])
            })
            .collect();
        Json::obj([("runs", Json::Arr(runs))])
    }

    #[test]
    fn flags_a_slowdown_beyond_the_bound() {
        let base = series("paper", &[10.0, 10.1, 9.9, 10.0, 10.05]);
        // wall_s has a 25% bound.
        let slow = series("paper", &[13.0, 13.1, 12.9, 13.0, 13.05]);
        let rows = compare(&base, &slow);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regression);
        assert!((rows[0].worse_by - 0.30).abs() < 1e-9);

        let same = series("paper", &[10.2, 10.0, 9.9, 10.1, 10.0]);
        assert_eq!(compare(&base, &same)[0].verdict, Verdict::Ok);
        // Faster is never a regression.
        let fast = series("paper", &[8.0, 8.1, 7.9, 8.0, 8.05]);
        assert_eq!(compare(&base, &fast)[0].verdict, Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_is_unresolved() {
        let base = series("paper", &[10.0, 10.1, 9.9, 10.0, 10.05]);
        let noisy = series("paper", &[8.0, 14.0, 10.0, 12.0, 9.0]);
        assert_eq!(compare(&base, &noisy)[0].verdict, Verdict::Unresolved);
    }

    #[test]
    fn pairs_only_workloads_both_sides_ran() {
        let base = series("paper", &[10.0]);
        let cur = series("chaos", &[10.0]);
        assert!(compare(&base, &cur).is_empty());
    }
}
