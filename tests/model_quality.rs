//! Model-quality integration: the paper's headline claims at reduced scale.
//!
//! These tests assert the *shape* of §VIII's results on a small-but-real
//! dataset through the experiment registry: each runs an entry of
//! `mphpc_bench::REGISTRY` on this dataset and asserts the entry's own
//! claims, so a figure's shape is stated once — for `mphpc_exp`, CI's claim
//! gate and these tests.

use mphpc_bench::{experiment, run_experiments, Ctx, ExpSize};
use mphpc_core::prelude::*;

fn dataset() -> MpHpcDataset {
    // 10 apps (mix of CPU-only / GPU / ML), 3 inputs, 2 reps.
    collect(&CollectionConfig {
        apps: Some(vec![
            AppKind::Amg,
            AppKind::Candle,
            AppKind::CoMd,
            AppKind::Ember,
            AppKind::Laghos,
            AppKind::MiniVite,
            AppKind::DeepCam,
            AppKind::Sw4Lite,
            AppKind::Swfft,
            AppKind::XsBench,
        ]),
        inputs_per_app: Some(3),
        reps: 2,
        seed: 3141,
    })
    .expect("collection")
}

/// Run registry entry `id` on the 10-app dataset with `seed`; every claim
/// of its that a medium campaign can express must hold.
fn assert_claims(id: &str, seed: u64) {
    let ctx = Ctx::with_dataset(dataset(), ExpSize::Medium, seed);
    let entry = experiment(id).expect("registry entry");
    assert!(run_experiments(&ctx, &[entry]), "a claim of {id} is false");
}

#[test]
fn fig2_shape_model_ordering() {
    // XGBoost ≲ forest < linear < mean on MAE, trees above linear on SOS,
    // and the headline improvement over the mean baseline.
    assert_claims("models", 17);
}

#[test]
fn fig3_shape_cpu_sources_beat_amd_gpu_source() {
    assert_claims("arch_ablation", 23);
}

#[test]
fn fig5_shape_ml_apps_hardest_to_predict() {
    assert_claims("app_ablation", 3141);
}

#[test]
fn figs4_6_documented_deviations_are_pinned() {
    // One-core MAE ≫ two-node MAE; uses_gpu first, branch_intensity ≈ 0.
    assert_claims("scale_ablation", 3141);
    assert_claims("importance", 3141);
}

#[test]
fn sos_is_strong_even_when_magnitudes_drift() {
    // §VIII-A: SOS measures ordering only; a model with decent MAE must
    // order the four systems correctly for most samples.
    let d = dataset();
    let (tr, te) = mphpc_dataset::split::random_split(&d, 0.1, 29).unwrap();
    let score = evaluate_split(&d, ModelKind::Gbt(Default::default()), &tr, &te).unwrap();
    assert!(score.sos > 0.55, "SOS {}", score.sos);
}
