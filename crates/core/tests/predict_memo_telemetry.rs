//! The in-process RPV provider predicts each distinct row once, and says so
//! in telemetry: over one `run_scale_comparison`, `sched.predict.rows`
//! counts every lookup of every strategy while `sched.predict.model_rows`
//! counts only the rows that reached the model, and
//! `sched.predict.nonpositive` the jobs scheduled on an RPV entry ≤ 0.
//! Telemetry mode is process-global, hence one `#[test]` in a file of its
//! own.

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

    // One comparison under `p`, telemetry on: (rows, model rows, jobs on
    // an RPV entry ≤ 0).
    let counted = |p: &PerfPredictor| {
        mphpc_telemetry::set_mode(TelemetryMode::Summary);
        mphpc_telemetry::reset();
        let mut provider = PredictorRpv::new(p);
        let outcomes =
            run_scale_comparison(&templates, &features, &mut provider, jobs, rate, seed).unwrap();
        assert_eq!(outcomes.len(), 5);
        let counters = (
            counter("sched.predict.rows"),
            counter("sched.predict.model_rows"),
            counter("sched.predict.nonpositive"),
        );
        mphpc_telemetry::set_mode(TelemetryMode::Off);
        mphpc_telemetry::reset();
        counters
    };

    let (rows, model_rows, _) = counted(&p);
    assert_eq!(rows, 5 * jobs as u64, "every job asked for, per strategy");
    assert_eq!(
        model_rows,
        distinct.len() as u64,
        "each distinct row predicted once"
    );

    // A linear model answers entries ≤ 0 for some sampled jobs: they are
    // scheduled, and counted once per job per strategy.
    let linear = train_predictor(&d, ModelKind::Linear(Default::default()), 3).unwrap();
    let sampled: Vec<[f64; 21]> = indices.iter().map(|&t| features[t]).collect();
    let low = linear
        .predict_features(&sampled)
        .unwrap()
        .iter()
        .filter(|rpv| rpv.iter().any(|v| *v <= 0.0))
        .count() as u64;
    assert!(low > 0, "the sample must hold an RPV entry ≤ 0");
    assert_eq!(counted(&linear).2, 5 * low);
}
