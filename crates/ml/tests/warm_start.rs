//! Warm-start equivalence battery (ISSUE 9, satellite 1).
//!
//! The online-learning loop continues training from a serialized model,
//! so a continuation must replay the *exact* stream the original training
//! run would have produced — anything less and the watch daemon's
//! candidates silently drift from what offline training would build.
//!
//! Proven here:
//! * GBT continued for `k` extra rounds from a serialized booster is
//!   bit-identical to training `base + k` rounds in one process, at
//!   1/2/8 threads (round randomness is a pure function of
//!   `(seed, output, round)`).
//! * Forest growth is seed-deterministic per tree index: `b` trees plus
//!   `m` warm-started trees equals `b + m` trees grown at once.
//! * Continuations on *appended* data are deterministic and keep the
//!   original model's prefix intact.

use mphpc_ml::matrix::Matrix;
use mphpc_ml::{
    ForestParams, ForestRegressor, GbtParams, GbtRegressor, MlDataset, ModelKind, Regressor,
    TrainedModel, TreeParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// y0 = 2·x0 − x1, y1 = x1² plus an irrelevant feature — the same
/// synthetic family the unit tests train on.
fn synthetic(n: usize, seed: u64) -> MlDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xr = Vec::with_capacity(n);
    let mut yr = Vec::with_capacity(n);
    for _ in 0..n {
        let x0: f64 = rng.gen_range(-1.0..1.0);
        let x1: f64 = rng.gen_range(-1.0..1.0);
        let noise: f64 = rng.gen_range(-0.01..0.01);
        xr.push(vec![x0, x1, rng.gen_range(-1.0..1.0)]);
        yr.push(vec![2.0 * x0 - x1 + noise, x1 * x1 + noise]);
    }
    MlDataset::new(
        Matrix::from_rows(&xr),
        Matrix::from_rows(&yr),
        vec!["x0".into(), "x1".into(), "junk".into()],
    )
    .unwrap()
}

fn gbt_params(n_rounds: usize) -> GbtParams {
    GbtParams {
        n_rounds,
        ..GbtParams::default()
    }
}

fn forest_params(n_trees: usize) -> ForestParams {
    ForestParams {
        n_trees,
        tree: TreeParams {
            max_depth: 8,
            ..ForestParams::default().tree
        },
        ..ForestParams::default()
    }
}

/// Run `f` under an explicit worker-thread override, restoring the
/// default afterwards even on panic.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            mphpc_par::set_thread_override(None);
        }
    }
    let _reset = Reset;
    mphpc_par::set_thread_override(Some(n));
    f()
}

#[test]
fn gbt_continuation_is_bit_identical_across_thread_counts() {
    let train = synthetic(600, 41);
    let probe = synthetic(64, 42);
    let full = GbtRegressor::fit(&train, gbt_params(30)).unwrap();
    for threads in [1usize, 2, 8] {
        let continued = with_threads(threads, || {
            let base = GbtRegressor::fit(&train, gbt_params(18)).unwrap();
            base.warm_start(&train, 12).unwrap()
        });
        assert_eq!(
            continued, full,
            "threads={threads}: 18+12 continued rounds must equal 30 straight rounds"
        );
        assert_eq!(
            continued.predict(&probe.x).unwrap(),
            full.predict(&probe.x).unwrap(),
            "threads={threads}: predictions must be bit-identical"
        );
    }
}

#[test]
fn continuation_from_serialized_models_matches_one_process_training() {
    // The watch daemon always continues from a *serialized* model: prove
    // the JSON round-trip changes nothing about the continuation stream.
    // (Offline-harness caveat: the serde_json stub cannot deserialize, so
    // this test only runs to completion under real cargo — like every
    // other `from_json` round-trip test in this crate.)
    let train = synthetic(400, 53);
    let gbt_full = GbtRegressor::fit(&train, gbt_params(20)).unwrap();
    let gbt_base = GbtRegressor::fit(&train, gbt_params(12)).unwrap();
    let gbt_back: GbtRegressor =
        serde_json::from_str(&serde_json::to_string(&gbt_base).unwrap()).unwrap();
    assert_eq!(gbt_back.warm_start(&train, 8).unwrap(), gbt_full);

    let f_full = ForestRegressor::fit(&train, forest_params(30)).unwrap();
    let f_base = ForestRegressor::fit(&train, forest_params(21)).unwrap();
    let f_back: ForestRegressor =
        serde_json::from_str(&serde_json::to_string(&f_base).unwrap()).unwrap();
    assert_eq!(f_back.warm_start(&train, 9).unwrap(), f_full);
}

#[test]
fn gbt_continuation_preserves_importance_bits() {
    // booster_stats are folded per output in round order, so even the
    // f64 importance accumulators match a single longer run exactly.
    let train = synthetic(400, 43);
    let full = GbtRegressor::fit(&train, gbt_params(24)).unwrap();
    let two_step = GbtRegressor::fit(&train, gbt_params(9))
        .unwrap()
        .warm_start(&train, 15)
        .unwrap();
    let a = full.feature_importance();
    let b = two_step.feature_importance();
    for name in ["x0", "x1", "junk"] {
        assert_eq!(a.gain_of(name).unwrap(), b.gain_of(name).unwrap(), "{name}");
    }
}

#[test]
fn gbt_chained_continuations_compose() {
    // (((6 rounds) + 6) + 6) == 18 rounds: continuation is associative
    // because each round's randomness ignores training history.
    let train = synthetic(300, 44);
    let full = GbtRegressor::fit(&train, gbt_params(18)).unwrap();
    let chained = GbtRegressor::fit(&train, gbt_params(6))
        .unwrap()
        .warm_start(&train, 6)
        .unwrap()
        .warm_start(&train, 6)
        .unwrap();
    assert_eq!(chained, full);
}

#[test]
fn forest_incremental_growth_is_seed_deterministic() {
    let train = synthetic(500, 45);
    let probe = synthetic(64, 46);
    let full = ForestRegressor::fit(&train, forest_params(40)).unwrap();
    for threads in [1usize, 2, 8] {
        let grown = with_threads(threads, || {
            let base = ForestRegressor::fit(&train, forest_params(25)).unwrap();
            base.warm_start(&train, 15).unwrap()
        });
        assert_eq!(
            grown, full,
            "threads={threads}: 25+15 grown trees must equal 40 straight trees"
        );
        assert_eq!(
            grown.predict(&probe.x).unwrap(),
            full.predict(&probe.x).unwrap(),
            "threads={threads}: predictions must be bit-identical"
        );
    }
}

#[test]
fn warm_start_on_grown_data_is_deterministic_and_keeps_prefix() {
    let initial = synthetic(300, 47);
    let mut grown = initial.clone();
    grown.append(&synthetic(150, 48)).unwrap();
    assert_eq!(grown.n_samples(), 450);

    // Two identical continuations on the grown data must agree bit-for-bit.
    let base = GbtRegressor::fit(&initial, gbt_params(10)).unwrap();
    let c1 = base.warm_start(&grown, 8).unwrap();
    let c2 = base.warm_start(&grown, 8).unwrap();
    assert_eq!(
        c1, c2,
        "continuation on appended data must be deterministic"
    );
    assert_eq!(c1.n_trees(), (10 + 8) * 2, "8 extra rounds × 2 outputs");

    // The forest keeps its original trees: predictions of the base
    // ensemble are recoverable as the first 25 trees' average, so the
    // grown forest must differ from a cold refit on the grown data
    // (different trees) while staying deterministic itself.
    let fbase = ForestRegressor::fit(&initial, forest_params(25)).unwrap();
    let f1 = fbase.warm_start(&grown, 10).unwrap();
    let f2 = fbase.warm_start(&grown, 10).unwrap();
    assert_eq!(f1, f2);
    assert_eq!(f1.n_trees(), 35);
}

#[test]
fn warm_start_rejects_schema_mismatch() {
    let train = synthetic(100, 49);
    let gbt = GbtRegressor::fit(&train, gbt_params(4)).unwrap();
    let forest = ForestRegressor::fit(&train, forest_params(4)).unwrap();

    let mut renamed = train.clone();
    renamed.feature_names[2] = "renamed".into();
    assert!(gbt.warm_start(&renamed, 2).is_err());
    assert!(forest.warm_start(&renamed, 2).is_err());

    let narrow = MlDataset::new(
        train.x.clone(),
        Matrix::zeros(train.n_samples(), 1),
        train.feature_names.clone(),
    )
    .unwrap();
    assert!(gbt.warm_start(&narrow, 2).is_err());
    assert!(forest.warm_start(&narrow, 2).is_err());
}

#[test]
fn trained_model_warm_start_covers_all_families() {
    let initial = synthetic(250, 50);
    let mut grown = initial.clone();
    grown.append(&synthetic(100, 51)).unwrap();
    let probe = synthetic(16, 52);

    for kind in ModelKind::paper_lineup() {
        let base = kind.fit(&initial).unwrap();
        let cont = base.warm_start(&grown, 5).unwrap();
        let again = base.warm_start(&grown, 5).unwrap();
        assert_eq!(
            cont.predict(&probe.x).unwrap(),
            again.predict(&probe.x).unwrap(),
            "{}: warm start must be deterministic",
            kind.name()
        );
    }

    // Closed-form families refit: their continuation equals a cold fit on
    // the grown data.
    let mean = ModelKind::Mean.fit(&initial).unwrap();
    assert_eq!(
        mean.warm_start(&grown, 0).unwrap(),
        ModelKind::Mean.fit(&grown).unwrap()
    );

    // Tree families really continue: the trained ensemble grows.
    let forest = ModelKind::Forest(forest_params(10)).fit(&initial).unwrap();
    match forest.warm_start(&grown, 7).unwrap() {
        TrainedModel::Forest(f) => assert_eq!(f.n_trees(), 17),
        other => panic!("forest continuation changed family: {other:?}"),
    }
}

#[test]
fn repeated_warm_starts_on_fresh_data_reach_the_u16_engine_and_stay_exact() {
    // Each warm start refits a fresh `QuantileBinner`, so the promoted
    // model of a long `watch` session holds thresholds from many binners:
    // more than 255 distinct ones on a feature (the u16 bin ids), which
    // no single binner's ≤ `max_bins` cuts can cover — why the engine
    // derives its cuts from the thresholds rather than from a binner.
    let params = gbt_params(6);
    let mut sets = vec![synthetic(400, 60)];
    let mut model = GbtRegressor::fit(&sets[0], params).unwrap();
    while model.quantized().unwrap().bin_bits() == 8 {
        assert!(sets.len() < 40, "warm starts stopped adding thresholds");
        sets.push(synthetic(400, 60 + sets.len() as u64));
        model = model.warm_start(sets.last().unwrap(), 6).unwrap();
    }
    let cuts = model.quantized().unwrap().cuts();
    let f = (0..cuts.len()).max_by_key(|&f| cuts[f].len()).unwrap();
    assert!(cuts[f].len() > 255, "{} thresholds", cuts[f].len());
    for set in &sets {
        let binner = mphpc_ml::binning::QuantileBinner::fit(&set.x, params.max_bins);
        assert!(
            cuts[f].iter().any(|t| !binner.cuts[f].contains(t)),
            "one binner's cuts cover every threshold of feature {f}"
        );
    }

    let pool = synthetic(65, 99);
    for rows in [1usize, 7, 8, 65] {
        let sub: Vec<Vec<f64>> = (0..rows).map(|i| pool.x.row(i).to_vec()).collect();
        let x = Matrix::from_rows(&sub);
        let reference = model.predict_reference(&x).unwrap();
        for threads in [1usize, 2, 8] {
            assert_eq!(
                with_threads(threads, || model.predict(&x).unwrap()),
                reference,
                "rows={rows} threads={threads}"
            );
        }
    }
}
