//! End-to-end integration: collection → dataset → training → prediction →
//! scheduling, across all workspace crates.

use mphpc_core::prelude::*;

fn dataset() -> MpHpcDataset {
    collect(&CollectionConfig::small(4, 2, 1, 1234)).expect("collection")
}

#[test]
fn full_pipeline_produces_usable_predictor() {
    let d = dataset();
    assert_eq!(d.n_rows(), 4 * 2 * 3 * 4);
    assert_eq!(d.incomplete_groups, 0);

    let evals = evaluate_models(&d, &ModelKind::paper_lineup(), 1).expect("evaluation");
    assert_eq!(evals.len(), 4);
    let mean = evals.iter().find(|e| e.model == "Mean").unwrap();
    let gbt = evals.iter().find(|e| e.model == "XGBoost").unwrap();
    assert!(
        gbt.test.mae < mean.test.mae,
        "learned model must beat the mean baseline"
    );

    let predictor = train_predictor(&d, ModelKind::Gbt(Default::default()), 1).unwrap();
    // Predict for every (app, machine) pair of the collected matrix.
    for app in [
        AppKind::Amg,
        AppKind::Candle,
        AppKind::CoMd,
        AppKind::CosmoFlow,
    ] {
        for sys in SystemId::TABLE1 {
            let profile =
                mphpc_core::pipeline::profile_one(app, "-s 1", Scale::OneNode, sys, 9).unwrap();
            let rpv = predictor.predict_rpv(&profile).unwrap();
            assert!(
                rpv.iter().all(|v| v.is_finite() && *v > 0.0),
                "{app:?} on {sys:?}: {rpv:?}"
            );
        }
    }

    // Feed the predictions into the scheduler.
    let templates = templates_from_dataset(&d, &predictor).unwrap();
    let outcomes = run_strategy_comparison(&templates, 500, 0.0, 3).unwrap();
    assert_eq!(outcomes.len(), 5);
    for o in &outcomes {
        assert!(o.makespan > 0.0);
        assert_eq!(o.jobs_per_machine.iter().sum::<u64>(), 500);
    }
}

#[test]
fn collection_is_deterministic_end_to_end() {
    let cfg = CollectionConfig::small(2, 1, 1, 777);
    let a = collect(&cfg).unwrap();
    let b = collect(&cfg).unwrap();
    assert_eq!(a.frame, b.frame);
    // Different seed → different dataset values.
    let c = collect(&CollectionConfig::small(2, 1, 1, 778)).unwrap();
    assert_ne!(a.frame, c.frame);
}

#[test]
fn predictor_self_component_near_one() {
    let d = dataset();
    let predictor = train_predictor(&d, ModelKind::Gbt(Default::default()), 5).unwrap();
    // The RPV component of the profile's own system is 1 by construction;
    // a trained model should learn that within a loose tolerance.
    let mut total_err = 0.0;
    let mut n = 0;
    for sys in SystemId::TABLE1 {
        let p = mphpc_core::pipeline::profile_one(AppKind::Amg, "-s 2", Scale::OneNode, sys, 13)
            .unwrap();
        let rpv = predictor.predict_rpv(&p).unwrap();
        total_err += (rpv[sys.table1_index().unwrap()] - 1.0).abs();
        n += 1;
    }
    let mean_err = total_err / n as f64;
    assert!(mean_err < 0.35, "mean |self-rpv − 1| too high: {mean_err}");
}

#[test]
fn feature_selection_integrates() {
    let d = collect(&CollectionConfig::small(4, 2, 1, 55)).unwrap();
    let report = feature_selection_study(&d, 8, 2).unwrap();
    assert_eq!(report.selected_features.len(), 8);
    assert_eq!(report.entries.len(), 4);
}
