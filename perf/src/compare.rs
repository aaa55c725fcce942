//! Summaries of repeated runs and the comparison of two result sets.

use crate::report::ResultFile;
use crate::spec::BenchmarkSpec;
use crate::stats::{median, quartiles, relative_spread};
use serde::{Deserialize, Serialize};

/// One metric on one workload over the runs of a result set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// (q3 - q1) / median: what the driver holds against the bound.
    pub spread: f64,
}

fn values(file: &ResultFile, workload: &str, metric: &str, traced: bool) -> Vec<f64> {
    file.records
        .iter()
        .filter(|r| r.workload == workload && r.trace == traced)
        .filter_map(|r| r.metric(metric))
        .map(|m| m.value)
        .collect()
}

/// Median, quartiles and relative spread of every end-to-end metric on every
/// workload the file has untraced runs of.
pub fn summarize(file: &ResultFile, spec: &BenchmarkSpec) -> Vec<Summary> {
    let mut out = Vec::new();
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let v = values(file, &w.name, &m.name, false);
            if v.is_empty() {
                continue;
            }
            // One run has no quartiles: it is its own, and has no spread.
            let ((q1, q3), spread) = if v.len() >= 2 {
                (quartiles(&v), relative_spread(&v))
            } else {
                ((v[0], v[0]), 0.0)
            };
            out.push(Summary {
                workload: w.name.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                n: v.len(),
                median: median(&v),
                q1,
                q3,
                spread,
            });
        }
    }
    out
}

/// One metric on one workload in two result sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Difference {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a`; negative = better.
    pub worse_by: f64,
    /// The bound from `BENCHMARK.json`; `None` for per-layer metrics, which
    /// are reported and never gated.
    pub bound: Option<f64>,
    pub within: bool,
}

fn difference(
    workload: &str,
    metric: &str,
    unit: &str,
    better: &str,
    bound: Option<f64>,
    a: &[f64],
    b: &[f64],
) -> Option<Difference> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = if better == "lower" { change } else { -change };
    Some(Difference {
        workload: workload.to_string(),
        metric: metric.to_string(),
        unit: unit.to_string(),
        a: ma,
        b: mb,
        worse_by,
        bound,
        // Two result sets of one commit must agree in both directions.
        within: bound.is_none_or(|bound| change.abs() <= bound),
    })
}

/// Medians of `a` against medians of `b`: every end-to-end metric with its
/// bound, then every per-layer metric both files have traced runs of.
pub fn compare(a: &ResultFile, b: &ResultFile, spec: &BenchmarkSpec) -> Vec<Difference> {
    let mut out = Vec::new();
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (
                values(a, &w.name, &m.name, false),
                values(b, &w.name, &m.name, false),
            );
            out.extend(difference(
                &w.name,
                &m.name,
                &m.unit,
                &m.better,
                Some(m.bound),
                &va,
                &vb,
            ));
        }
        for m in &spec.per_layer {
            let (va, vb) = (
                values(a, &w.name, &m.name, true),
                values(b, &w.name, &m.name, true),
            );
            out.extend(difference(
                &w.name, &m.name, &m.unit, &m.better, None, &va, &vb,
            ));
        }
    }
    out
}

pub fn difference_table(rows: &[Difference]) -> String {
    let mut out = String::new();
    for d in rows {
        let verdict = match (d.bound, d.within) {
            (None, _) => "reported".to_string(),
            (Some(b), true) => format!("within {:.0} %", b * 100.0),
            (Some(b), false) => format!("OUTSIDE {:.0} %", b * 100.0),
        };
        out.push_str(&format!(
            "{:<14} {:<40} {:>14.4} -> {:>14.4} {:<8} worse by {:>+7.2} %  {verdict}\n",
            d.workload,
            d.metric,
            d.a,
            d.b,
            d.unit,
            d.worse_by * 100.0
        ));
    }
    out
}

/// The record `calibrate` writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    pub host: crate::report::Host,
    pub seconds: f64,
    pub threads: usize,
    pub seeds: Vec<u64>,
    /// One summary list per set of runs.
    pub sets: Vec<Vec<Summary>>,
    /// The first set against each later one, end-to-end metrics only.
    pub agreement: Vec<Difference>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Host, Metric, RunRecord};

    fn record(workload: &str, trace: bool, metrics: &[(&str, f64)]) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            seed: 1,
            seconds: 1.0,
            threads: 2,
            trace,
            smoke: false,
            params: Default::default(),
            correct: true,
            attempted: 1,
            failed: 0,
            failures: vec![],
            checks: Default::default(),
            metrics: metrics
                .iter()
                .map(|(n, v)| Metric {
                    name: n.to_string(),
                    unit: "s".into(),
                    value: *v,
                    n: 1,
                })
                .collect(),
        }
    }

    fn file(records: Vec<RunRecord>) -> ResultFile {
        ResultFile {
            host: Host {
                nproc: 2,
                cpu_model: "x".into(),
                rustc: "r".into(),
                git_commit: "g".into(),
            },
            records,
        }
    }

    #[test]
    fn end_to_end_metrics_are_gated_both_ways_and_layers_only_reported() {
        let spec = BenchmarkSpec::embedded();
        let w = spec.workloads[0].name.as_str();
        let lower = spec
            .end_to_end
            .iter()
            .find(|m| m.better == "lower")
            .unwrap();
        let higher = spec
            .end_to_end
            .iter()
            .find(|m| m.better == "higher")
            .unwrap();
        let layer = spec.per_layer[0].name.as_str();
        let base = file(vec![
            record(w, false, &[(&lower.name, 10.0), (&higher.name, 100.0)]),
            record(w, true, &[(layer, 1.0)]),
        ]);
        let same = compare(&base, &base, &spec);
        assert_eq!(same.len(), 3);
        assert!(same.iter().all(|d| d.within && d.worse_by == 0.0));

        // Just inside and just outside the bound, in the worse direction.
        let inside = lower.bound * 0.9;
        let outside = lower.bound * 1.1;
        for (shift, ok) in [(inside, true), (outside, false), (-outside, false)] {
            let other = file(vec![record(
                w,
                false,
                &[(&lower.name, 10.0 * (1.0 + shift)), (&higher.name, 100.0)],
            )]);
            let rows = compare(&base, &other, &spec);
            let d = rows.iter().find(|d| d.metric == lower.name).unwrap();
            assert_eq!(d.within, ok, "shift {shift}");
            assert!((d.worse_by - shift).abs() < 1e-12);
        }
        // For a higher-is-better metric a drop is "worse".
        let other = file(vec![record(
            w,
            false,
            &[(&lower.name, 10.0), (&higher.name, 50.0)],
        )]);
        let d = compare(&base, &other, &spec)
            .into_iter()
            .find(|d| d.metric == higher.name)
            .unwrap();
        assert!((d.worse_by - 0.5).abs() < 1e-12 && !d.within);
        // A per-layer metric can move by any amount without failing.
        let other = file(vec![record(w, true, &[(layer, 100.0)])]);
        let d = compare(&base, &other, &spec)
            .into_iter()
            .find(|d| d.metric == layer)
            .unwrap();
        assert!(d.within && d.bound.is_none());
    }

    #[test]
    fn summaries_use_the_drivers_quartiles() {
        let spec = BenchmarkSpec::embedded();
        let w = spec.workloads[0].name.as_str();
        let m = spec.end_to_end[0].name.as_str();
        let records = (1..=10)
            .map(|i| record(w, false, &[(m, f64::from(i))]))
            .collect();
        let s = summarize(&file(records), &spec);
        assert_eq!(s.len(), 1);
        assert_eq!(
            (s[0].n, s[0].median, s[0].q1, s[0].q3),
            (10, 5.5, 2.75, 8.25)
        );
        assert!((s[0].spread - 1.0).abs() < 1e-12);
    }
}
