//! End-to-end integration: collection → dataset → training → prediction →
//! scheduling, across all workspace crates and through the `mphpc` binary.

use mphpc_core::prelude::*;
use std::process::Command;

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
    let (templates, features) = templates_from_dataset_raw(&d).unwrap();
    let provider = &mut PredictorRpv::new(&predictor);
    let outcomes = run_scale_comparison(&templates, &features, provider, 500, 0.0, 3).unwrap();
    assert_eq!(outcomes.len(), 5);
    for o in outcomes.iter().map(|o| &o.outcome) {
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

/// `mphpc sched` prints the outcomes of `run_scale_comparison` on the
/// dataset and model files it reads back.
#[test]
fn sched_command_prints_the_scale_comparison() {
    let dir = std::env::temp_dir().join(format!("mphpc_sched_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, json) = (dir.join("d.csv"), dir.join("m.json"));
    let d = collect(&CollectionConfig::small(2, 2, 1, 7)).unwrap();
    d.write_csv(&csv).unwrap();
    let p = train_predictor(&d, ModelKind::Gbt(Default::default()), 7).unwrap();
    std::fs::write(&json, p.to_json().unwrap()).unwrap();
    let p = PerfPredictor::from_json(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let (t, f) = templates_from_dataset_raw(&MpHpcDataset::read_csv(&csv).unwrap()).unwrap();
    let (csv, json) = (csv.to_str().unwrap(), json.to_str().unwrap());
    for (rate, flag) in [(0.0, "0"), (0.05, "0.05")] {
        let run = Command::new(env!("CARGO_BIN_EXE_mphpc"))
            .args(["sched", "--dataset", csv, "--model", json])
            .args(["--jobs", "300", "--seed", "5", "--rate", flag])
            .output()
            .expect("mphpc runs");
        assert!(run.status.success(), "{run:?}");
        let outcomes = run_scale_comparison(&t, &f, &mut PredictorRpv::new(&p), 300, rate, 5);
        let mut want = "strategy       makespan (h)   avg bounded slowdown\n".to_string();
        for o in outcomes.unwrap().iter().map(|o| &o.outcome) {
            let (h, slowdown) = (o.makespan / 3600.0, o.avg_bounded_slowdown);
            want += &format!("{:<14} {h:>12.3} {slowdown:>22.2}\n", o.strategy);
        }
        assert_eq!(String::from_utf8_lossy(&run.stdout), want, "rate {flag}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
