//! Golden-run regression harness: a small end-to-end pipeline on fixed
//! seeds, checked against `tests/golden/small_pipeline.json`. The pipeline
//! is deterministic and the workspace has one dependency configuration, so
//! every metric is held to the file's printed precision: any change in
//! what the pipeline computes fails here and is regenerated on purpose.
//!
//! Regenerate after an intentional behaviour change with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p mphpc-core --test golden
//! ```
//!
//! The JSON is read by a deliberately tiny scanner rather than serde so
//! the golden format stays flat and greppable; the update path writes the
//! exact same shape back.

use std::path::PathBuf;

use mphpc_core::prelude::*;
use mphpc_sched::engine::{simulate, SimConfig};
use mphpc_sched::sample_jobs_indexed;
use mphpc_sched::strategy::ModelBased;

const SEED: u64 = 2024;

#[derive(Debug, Clone, PartialEq)]
struct GoldenMetric {
    name: String,
    value: f64,
    tol: f64,
}

fn golden_path() -> PathBuf {
    match option_env!("CARGO_MANIFEST_DIR") {
        // crates/core → repo root is two levels up.
        Some(dir) => PathBuf::from(dir).join("../../tests/golden/small_pipeline.json"),
        None => PathBuf::from("tests/golden/small_pipeline.json"),
    }
}

/// Run the golden pipeline and return (name, value, update-policy tol).
///
/// Sizing notes: 8 apps × 3 inputs × 2 reps = 576 rows is the smallest
/// collection whose test-split R² is stable across seeds (a 288-row run
/// occasionally draws a pathological 10 % split); 8 000 jobs at arrival
/// rate 0 is the smallest batch that actually queues on the Table-I
/// cluster, so `mean_wait` measures contention rather than zero.
fn compute_metrics() -> Vec<GoldenMetric> {
    let d = collect(&CollectionConfig::small(8, 3, 2, SEED)).expect("collection");
    let evals =
        evaluate_models(&d, &[ModelKind::Gbt(Default::default())], SEED).expect("evaluation");
    let e = &evals[0];

    let p = train_predictor(&d, ModelKind::Gbt(Default::default()), SEED).expect("training");
    let templates = templates_from_dataset(&d, &p).expect("templates");
    let (jobs, _) = sample_jobs_indexed(&templates, 8_000, 0.0, SEED).expect("jobs");
    let mut strategy = ModelBased::new();
    let r = simulate(&jobs, &mut strategy, &SimConfig::default()).expect("simulation");
    let mean_wait =
        r.records.iter().map(|j| j.start - j.submit).sum::<f64>() / r.records.len() as f64;

    // The file prints six decimals: R² and MAE tolerances are absolute
    // (their scale is fixed), time-like metrics relative to their value.
    let exact = |name: &str, value: f64, scale: f64| GoldenMetric {
        name: name.into(),
        value,
        tol: scale * 1e-6,
    };
    let mut m = vec![
        exact("pooled_r2", e.test.r2, 1.0),
        exact("test_mae", e.test.mae, 1.0),
    ];
    for (i, r2) in e.test.r2_per_output.iter().enumerate() {
        m.push(exact(&format!("r2_output_{i}"), *r2, 1.0));
    }
    m.push(exact("makespan", r.makespan, r.makespan));
    m.push(exact("mean_wait", mean_wait, mean_wait));
    m
}

/// Minimal scanner for the flat golden format: one
/// `{"name": ..., "value": ..., "tol": ...}` object per line.
fn parse_goldens(text: &str) -> Vec<GoldenMetric> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = field_str(line, "name") else {
            continue;
        };
        let value = field_num(line, "value")
            .unwrap_or_else(|| panic!("golden line missing \"value\": {line}"));
        let tol =
            field_num(line, "tol").unwrap_or_else(|| panic!("golden line missing \"tol\": {line}"));
        out.push(GoldenMetric { name, value, tol });
    }
    out
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let rest = after_key(line, key)?;
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = after_key(line, key)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn after_key<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    Some(line[at..].trim_start())
}

fn render_goldens(metrics: &[GoldenMetric]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"description\": \"Golden metrics for the small end-to-end pipeline (seed {SEED}).\",\n"
    ));
    s.push_str("  \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"value\": {:.6}, \"tol\": {:.6}}}{sep}\n",
            m.name, m.value, m.tol
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[test]
fn small_pipeline_matches_goldens() {
    let actual = compute_metrics();
    let path = golden_path();

    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&path, render_goldens(&actual))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("golden file regenerated: {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e} (run with GOLDEN_UPDATE=1)", path.display()));
    let expected = parse_goldens(&text);
    assert!(
        !expected.is_empty(),
        "no metrics parsed from {}",
        path.display()
    );
    let expected_names: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
    let actual_names: Vec<&str> = actual.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        expected_names, actual_names,
        "golden metric set changed — run with GOLDEN_UPDATE=1"
    );

    let mut failures = Vec::new();
    for (want, got) in expected.iter().zip(&actual) {
        let err = (got.value - want.value).abs();
        // NaN fails too.
        if err.partial_cmp(&want.tol).map_or(true, |o| o.is_gt()) {
            failures.push(format!(
                "{}: got {:.6}, golden {:.6} ± {:.6} (off by {:.6})",
                want.name, got.value, want.value, want.tol, err
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden regression in {} metric(s):\n  {}",
        failures.len(),
        failures.join("\n  ")
    );

    // Absolute floors, independent of the golden file: even a maximally
    // drifted-but-passing run must still be a working pipeline.
    let get = |n: &str| actual.iter().find(|m| m.name == n).unwrap().value;
    assert!(get("pooled_r2") > 0.5, "pooled R² collapsed");
    assert!(get("makespan") > 0.0 && get("mean_wait") >= 0.0);
}
