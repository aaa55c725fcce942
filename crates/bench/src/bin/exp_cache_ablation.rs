//! Design-choice ablation (DESIGN.md §5): trace-driven set-associative
//! cache simulation vs the closed-form analytic stack-distance model.
//!
//! The trace model captures conflict misses and set-geometry effects; the
//! analytic model is a fully-associative approximation that is orders of
//! magnitude faster. This experiment builds the dataset both ways and
//! compares the downstream model quality — quantifying what the extra
//! fidelity buys.

use mphpc_archsim::cache::CacheModel;
use mphpc_bench::{print_table, ExpArgs};
use mphpc_core::pipeline::evaluate_models;
use mphpc_dataset::build_dataset_with_model;
use mphpc_ml::ModelKind;
use mphpc_telemetry::TelemetryMode;

fn main() -> std::process::ExitCode {
    mphpc_bench::run(body)
}

/// `archsim.cache.{first_touches, refs}` as counted so far.
fn cache_counters() -> [u64; 2] {
    let report = mphpc_telemetry::capture();
    ["archsim.cache.first_touches", "archsim.cache.refs"].map(|n| report.counter(n).unwrap_or(0))
}

fn body() -> Result<(), mphpc_errors::MphpcError> {
    let args = ExpArgs::from_env();
    let specs = args.size.config(args.seed).specs();

    // The first-touch share is read off the `archsim.cache.*` counters, which
    // count only while telemetry is on: without `--telemetry`, switch it on
    // for the builds and drop what it recorded.
    let quiet = !mphpc_telemetry::enabled();
    if quiet {
        mphpc_telemetry::set_mode(TelemetryMode::Summary);
    }
    let mut rows = Vec::new();
    for (label, model) in [
        ("trace-driven", CacheModel::Trace),
        ("analytic", CacheModel::Analytic),
    ] {
        eprintln!("[collect] building dataset with the {label} cache model ...");
        let before = cache_counters();
        let start = std::time::Instant::now();
        let dataset = build_dataset_with_model(&specs, args.seed, model)?;
        let build_secs = start.elapsed().as_secs_f64();
        let after = cache_counters();
        let (first_touches, refs) = (after[0] - before[0], after[1] - before[1]);
        let evals = evaluate_models(&dataset, &[ModelKind::Gbt(Default::default())], args.seed)?;
        rows.push(vec![
            label.to_string(),
            format!("{:.1}s", build_secs),
            // Compulsory misses the trace model charges without simulating.
            match first_touches {
                0 => "–".to_string(),
                n => format!("{:.1}%", 100.0 * n as f64 / refs as f64),
            },
            format!("{:.4}", evals[0].test_mae),
            format!("{:.4}", evals[0].test_sos),
        ]);
    }
    if quiet {
        mphpc_telemetry::reset();
        mphpc_telemetry::set_mode(TelemetryMode::Off);
    }
    print_table(
        "Ablation — cache-model backend vs dataset build time and model quality",
        &[
            "cache model",
            "build time",
            "first touches",
            "XGBoost MAE",
            "XGBoost SOS",
        ],
        &rows,
    );
    println!(
        "\nexpected: analytic is much faster to build with mildly different (often similar) MAE"
    );
    Ok(())
}
