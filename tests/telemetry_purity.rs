//! Differential telemetry purity: instrumentation must observe, never
//! perturb. The same pipeline — collection → model evaluation → training →
//! strategy comparison — is run with telemetry off and at `trace` (the
//! most intrusive mode, which records every span event), and every output
//! must be bit-identical. Repeated at 1, 2, and 8 threads so the check
//! also covers the per-thread event buffers, and combined with
//! `mphpc_par`'s determinism contract: results must not depend on the
//! thread count either.
//!
//! A single `#[test]` because the telemetry mode and the thread override
//! are process-global.

use mphpc_core::prelude::*;
use mphpc_telemetry::{set_mode, TelemetryMode};

type PipelineOutput = (
    mphpc_frame::Frame,
    Vec<mphpc_core::pipeline::ModelEvaluation>,
    Vec<StrategyOutcome>,
);

fn run_pipeline() -> PipelineOutput {
    let d = collect(&CollectionConfig::small(3, 1, 1, 42)).expect("collection");
    let evals = evaluate_models(&d, &[ModelKind::Gbt(Default::default())], 7).expect("evaluation");
    let p = train_predictor(&d, ModelKind::Gbt(Default::default()), 7).expect("training");
    let (t, f) = templates_from_dataset_raw(&d).expect("templates");
    let outcomes = run_scale_comparison(&t, &f, &mut PredictorRpv::new(&p), 400, 0.5, 3);
    let outcomes = outcomes.expect("strategies").into_iter().map(|o| o.outcome);
    (d.frame, evals, outcomes.collect())
}

#[test]
fn trace_telemetry_is_bit_identical_to_off_at_1_2_8_threads() {
    let mut baseline: Option<PipelineOutput> = None;
    for threads in [1usize, 2, 8] {
        mphpc_par::set_thread_override(Some(threads));

        set_mode(TelemetryMode::Off);
        mphpc_telemetry::reset();
        let quiet = run_pipeline();

        set_mode(TelemetryMode::Trace);
        mphpc_telemetry::reset();
        let traced = run_pipeline();
        let events = mphpc_telemetry::events_recorded();
        set_mode(TelemetryMode::Off);
        mphpc_telemetry::reset();

        assert!(
            events > 0,
            "trace mode at {threads} threads recorded no span events — \
             the differential test is not exercising telemetry"
        );
        assert_eq!(
            quiet, traced,
            "telemetry trace mode changed pipeline results at {threads} threads"
        );
        // Thread-count invariance: the same contract the par crate promises,
        // re-checked here with instrumentation in the loop.
        match &baseline {
            None => baseline = Some(quiet),
            Some(b) => assert_eq!(
                b, &quiet,
                "pipeline results changed between 1 and {threads} threads"
            ),
        }
    }
    mphpc_par::set_thread_override(None);
}
