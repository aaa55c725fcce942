//! The in-process RPV provider predicts each distinct row once, and says so
//! in telemetry: over one `run_scale_comparison`, `sched.predict.rows`
//! counts every lookup of every strategy while `sched.predict.model_rows`
//! counts only the rows that reached the model. Telemetry mode is
//! process-global, hence one `#[test]` in a file of its own.

use std::collections::HashSet;

use mphpc_core::prelude::*;
use mphpc_sched::sample_jobs_indexed;
use mphpc_telemetry::TelemetryMode;

fn counter(name: &str) -> u64 {
    mphpc_telemetry::capture().counter(name).unwrap_or(0)
}

#[test]
fn model_rows_count_distinct_sampled_rows() {
    let d = collect(&CollectionConfig::small(5, 2, 1, 31)).unwrap();
    let p = train_predictor(&d, ModelKind::Gbt(Default::default()), 3).unwrap();
    let (templates, features) = templates_from_dataset_raw(&d).unwrap();
    let (jobs, rate, seed) = (2_000usize, 0.5, 9);

    // The comparison samples with exactly this call.
    let (_, indices) = sample_jobs_indexed(&templates, jobs, rate, seed).unwrap();
    let distinct: HashSet<[u64; 21]> = indices
        .iter()
        .map(|&t| features[t].map(f64::to_bits))
        .collect();
    assert!(distinct.len() < jobs, "the sample must repeat rows");

    mphpc_telemetry::set_mode(TelemetryMode::Summary);
    mphpc_telemetry::reset();
    let mut provider = PredictorRpv::new(&p);
    let outcomes =
        run_scale_comparison(&templates, &features, &mut provider, jobs, rate, seed).unwrap();
    let (rows, model_rows) = (
        counter("sched.predict.rows"),
        counter("sched.predict.model_rows"),
    );
    mphpc_telemetry::set_mode(TelemetryMode::Off);
    mphpc_telemetry::reset();

    assert_eq!(outcomes.len(), 5);
    assert_eq!(rows, 5 * jobs as u64, "every job asked for, per strategy");
    assert_eq!(
        model_rows,
        distinct.len() as u64,
        "each distinct row predicted once"
    );
}
