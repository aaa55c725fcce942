//! Thread-count invariance: training with the same seed must produce
//! bit-identical serialized models whether `mphpc_par` runs its drivers
//! on 1, 2, or 8 worker threads — and the inference engine must
//! produce bit-identical predictions across the same sweep.
//!
//! This holds because every parallel reduction in the training path is
//! performed in input order (ordered `par_map` results folded
//! sequentially), including the histogram engine's feature-parallel split
//! search, and because the inference engine's row blocks write disjoint
//! output slices with per-row accumulation in tree order. The whole sweep
//! lives in one `#[test]` so the global thread override never races a
//! sibling test.

use mphpc_ml::{
    ForestParams, ForestRegressor, GbtParams, GbtRegressor, Matrix, MlDataset, TreeParams,
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

#[test]
fn same_seed_models_identical_across_thread_counts() {
    // Narrow dataset: exercises the sequential split-search path.
    let narrow = synthetic(600, 6, 2, 41);
    // Wide dataset: enough candidate features per node to cross the
    // histogram engine's parallel split-search gate at every node.
    let wide = synthetic(400, mphpc_ml::hist::PAR_SPLIT_MIN_FEATURES + 16, 1, 43);

    let gbt_params = GbtParams {
        n_rounds: 12,
        subsample: 0.8,
        tree: TreeParams {
            max_depth: 4,
            colsample: 0.8,
            ..TreeParams::default()
        },
        ..GbtParams::default()
    };
    let forest_params = ForestParams {
        n_trees: 16,
        ..ForestParams::default()
    };

    let fit_all = || {
        (
            serde_json::to_string(&GbtRegressor::fit(&narrow, gbt_params).unwrap()).unwrap(),
            serde_json::to_string(&GbtRegressor::fit(&wide, gbt_params).unwrap()).unwrap(),
            serde_json::to_string(&ForestRegressor::fit(&narrow, forest_params).unwrap()).unwrap(),
        )
    };

    mphpc_par::set_thread_override(Some(1));
    let baseline = fit_all();
    for threads in [2usize, 8] {
        mphpc_par::set_thread_override(Some(threads));
        let run = fit_all();
        assert_eq!(
            baseline.0, run.0,
            "GbtRegressor (narrow) at {threads} threads"
        );
        assert_eq!(
            baseline.1, run.1,
            "GbtRegressor (wide) at {threads} threads"
        );
        assert_eq!(baseline.2, run.2, "ForestRegressor at {threads} threads");
    }

    // Inference sweep: the engine must match the reference
    // per-row traversal bit-for-bit at every worker count (the batch is
    // sized to span many row blocks, with a partial tail block).
    let gbt = GbtRegressor::fit(&narrow, gbt_params).unwrap();
    let forest = ForestRegressor::fit(&narrow, forest_params).unwrap();
    let batch = synthetic(1543, 6, 2, 47);
    let gbt_ref = gbt.predict_reference(&batch.x).unwrap();
    let forest_ref = forest.predict_reference(&batch.x).unwrap();
    for threads in [1usize, 2, 8] {
        mphpc_par::set_thread_override(Some(threads));
        assert_eq!(
            gbt.predict(&batch.x).unwrap(),
            gbt_ref,
            "GBT inference at {threads} threads"
        );
        assert_eq!(
            forest.predict(&batch.x).unwrap(),
            forest_ref,
            "forest inference at {threads} threads"
        );
    }
    mphpc_par::set_thread_override(None);
}
