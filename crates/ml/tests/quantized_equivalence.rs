//! Quantized-engine equivalence: the bin-indexed integer engine behind
//! `predict` must be **bit-identical** to the reference per-row enum-tree
//! traversal — for GBT and forest, at 1/2/8 worker threads, across single
//! rows, lane-partial batches, multi-block batches, NaN/±inf probes, and
//! degenerate constant-feature training sets — and structurally invalid
//! model JSON must be refused at load.

use mphpc_ml::{
    ForestParams, ForestRegressor, GbtParams, GbtRegressor, Matrix, MlDataset, ModelKind,
    Regressor, TrainedModel, TreeParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn synthetic(n: usize, p: usize, k: usize, seed: u64) -> MlDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Matrix::zeros(n, p);
    let mut y = Matrix::zeros(n, k);
    for i in 0..n {
        for j in 0..p {
            x.set(i, j, rng.gen_range(-1.0..1.0));
        }
        for j in 0..k {
            let v =
                x.get(i, j % p) * 2.0 + x.get(i, (j + 1) % p).powi(2) + rng.gen_range(-0.01..0.01);
            y.set(i, j, v);
        }
    }
    MlDataset::new(x, y, (0..p).map(|j| format!("f{j}")).collect()).unwrap()
}

fn small_gbt() -> GbtParams {
    GbtParams {
        n_rounds: 10,
        tree: TreeParams {
            max_depth: 4,
            ..TreeParams::default()
        },
        ..GbtParams::default()
    }
}

fn small_forest() -> ForestParams {
    ForestParams {
        n_trees: 24,
        ..ForestParams::default()
    }
}

/// Probe batch: ordinary rows plus non-finite edge cases. NaN must route
/// right at every split it reaches (the reference's `!(v <= t)`), and
/// ±inf must pin to the extreme bins.
fn probe_rows(p: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..p).map(|_| rng.gen_range(-1.5..1.5)).collect())
        .collect();
    if !rows.is_empty() {
        rows[0][0] = f64::NAN;
    }
    if rows.len() > 1 {
        rows[1] = vec![f64::NAN; p];
    }
    if rows.len() > 2 {
        rows[2][p - 1] = f64::INFINITY;
        rows[2][0] = f64::NEG_INFINITY;
    }
    rows
}

/// The whole thread sweep lives in one `#[test]` so the global override
/// never races a sibling test (same pattern as `determinism.rs`).
#[test]
fn quantized_is_bit_identical_to_reference_at_all_thread_counts() {
    let train = synthetic(700, 6, 2, 11);
    let gbt = GbtRegressor::fit(&train, small_gbt()).unwrap();
    let forest = ForestRegressor::fit(&train, small_forest()).unwrap();

    // 1 row (interleaved single-row path), lane-partial (< 8), exactly
    // one lane group, one block (64), block+tail, and a multi-block
    // batch that spans the parallel chunking.
    for rows in [1usize, 3, 8, 64, 77, 517] {
        let x = Matrix::from_rows(&probe_rows(6, rows, 200 + rows as u64));
        let gbt_ref = gbt.predict_reference(&x).unwrap();
        let forest_ref = forest.predict_reference(&x).unwrap();
        for threads in [1usize, 2, 8] {
            mphpc_par::set_thread_override(Some(threads));
            assert_eq!(
                gbt.predict(&x).unwrap(),
                gbt_ref,
                "quantized gbt rows={rows} threads={threads}"
            );
            assert_eq!(
                forest.predict(&x).unwrap(),
                forest_ref,
                "quantized forest rows={rows} threads={threads}"
            );
        }
        mphpc_par::set_thread_override(None);
    }
}

#[test]
fn single_row_path_agrees_with_batch_path() {
    let train = synthetic(500, 5, 2, 13);
    let gbt = GbtRegressor::fit(&train, small_gbt()).unwrap();
    let forest = ForestRegressor::fit(&train, small_forest()).unwrap();
    let rows = probe_rows(5, 96, 17);
    let batch = Matrix::from_rows(&rows);
    let gbt_batch = gbt.predict(&batch).unwrap();
    let forest_batch = forest.predict(&batch).unwrap();
    for (i, row) in rows.iter().enumerate() {
        let one = Matrix::from_rows(std::slice::from_ref(row));
        let g = gbt.predict(&one).unwrap();
        let f = forest.predict(&one).unwrap();
        for j in 0..g.cols() {
            assert_eq!(g.get(0, j), gbt_batch.get(i, j), "gbt row {i} out {j}");
            assert_eq!(
                f.get(0, j),
                forest_batch.get(i, j),
                "forest row {i} out {j}"
            );
        }
    }
}

#[test]
fn degenerate_constant_features_still_exact() {
    // Every feature constant: no split can separate anything, so trees
    // collapse to leaves and the quantized engine has zero cuts on every
    // feature. Predictions (the target mean / boosted base) must still be
    // bit-identical, including on NaN probes.
    let n = 80;
    let x = Matrix::from_rows(&vec![vec![2.5, -1.0, 0.0]; n]);
    let mut y = Matrix::zeros(n, 2);
    for i in 0..n {
        y.set(i, 0, 3.0);
        y.set(i, 1, -1.5);
    }
    let names = vec!["a".into(), "b".into(), "c".into()];
    let train = MlDataset::new(x, y, names).unwrap();
    let gbt = GbtRegressor::fit(&train, small_gbt()).unwrap();
    let forest = ForestRegressor::fit(&train, small_forest()).unwrap();

    let probes = vec![
        vec![2.5, -1.0, 0.0],
        vec![9.0, 9.0, 9.0],
        vec![f64::NAN, f64::NAN, f64::NAN],
    ];
    let px = Matrix::from_rows(&probes);
    assert_eq!(
        gbt.predict(&px).unwrap(),
        gbt.predict_reference(&px).unwrap()
    );
    assert_eq!(
        forest.predict(&px).unwrap(),
        forest.predict_reference(&px).unwrap()
    );

    // Mixed case: one informative feature among constants (single cut).
    let mut x = Matrix::zeros(n, 3);
    let mut y = Matrix::zeros(n, 1);
    for i in 0..n {
        x.set(i, 0, 1.0);
        x.set(i, 1, if i % 2 == 0 { -1.0 } else { 1.0 });
        x.set(i, 2, 42.0);
        y.set(i, 0, if i % 2 == 0 { 0.0 } else { 10.0 });
    }
    let names = vec!["a".into(), "b".into(), "c".into()];
    let train = MlDataset::new(x, y, names).unwrap();
    let gbt = GbtRegressor::fit(&train, small_gbt()).unwrap();
    let px = Matrix::from_rows(&probe_rows(3, 33, 23));
    assert_eq!(
        gbt.predict(&px).unwrap(),
        gbt.predict_reference(&px).unwrap()
    );
}

/// JSON round-trip: a deserialized model has an empty engine cache, so
/// loading lowers the stored trees again — and must reproduce the
/// original bit-for-bit, both through `TrainedModel::from_json` (lowers
/// at load) and through plain serde (lowers on first `predict`).
#[test]
fn json_round_trip_rebuilds_identical_quantized_engine() {
    let train = synthetic(400, 5, 2, 29);
    let probe = Matrix::from_rows(&probe_rows(5, 40, 31));
    for kind in [
        ModelKind::Gbt(small_gbt()),
        ModelKind::Forest(small_forest()),
    ] {
        let model = kind.fit(&train).unwrap();
        let expected = model.predict_reference(&probe).unwrap();
        assert_eq!(model.predict(&probe).unwrap(), expected);
        let json = model.to_json().unwrap();
        let revived = TrainedModel::from_json(&json).unwrap();
        let lazy: TrainedModel = serde_json::from_str(&json).unwrap();
        for (how, back) in [("from_json", revived), ("serde", lazy)] {
            assert_eq!(
                back.predict(&probe).unwrap(),
                expected,
                "{} after JSON round-trip via {how}",
                kind.name()
            );
        }
    }
}
