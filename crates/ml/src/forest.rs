//! Bagged decision forest with multi-output variance-reduction trees — the
//! stand-in for the paper's scikit-learn decision-forest baseline.

use crate::data::{check_feature_count, validate_training_data, MlDataset};
use crate::hist::Variance;
use crate::importance::FeatureImportance;
use crate::matrix::Matrix;
use crate::quantized::{LazyQuantized, QuantizedEnsemble};
use crate::tree::{grow, SplitStats, TrainingView, Tree, TreeParams};
use mphpc_errors::MphpcError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Tree-level parameters (`min_child_weight` acts as min samples per
    /// leaf; `colsample` as the per-split feature subsample).
    pub tree: TreeParams,
    /// Bootstrap sample size as a fraction of the training set.
    pub bootstrap: f64,
    /// Quantile bins per feature.
    pub max_bins: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        Self {
            n_trees: 100,
            tree: TreeParams {
                max_depth: 12,
                lambda: 0.0,
                gamma: 0.0,
                min_child_weight: 2.0,
                colsample: 0.6,
            },
            bootstrap: 1.0,
            max_bins: 64,
            seed: 0xF04E57,
        }
    }
}

/// A trained decision forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForestRegressor {
    /// Hyper-parameters the forest was grown with; kept on the model so a
    /// warm-started continuation derives tree seeds the same way `fit`
    /// did.
    params: ForestParams,
    trees: Vec<Tree>,
    n_outputs: usize,
    stats: SplitStats,
    feature_names: Vec<String>,
    /// Lazily-built inference engine (derived; rebuilt after
    /// deserialisation or cloning on first predict).
    #[serde(skip)]
    quantized: LazyQuantized,
}

impl ForestRegressor {
    /// Train on a dataset.
    pub fn fit(dataset: &MlDataset, params: ForestParams) -> Result<Self, MphpcError> {
        validate_training_data(dataset, "ForestRegressor::fit")?;
        if params.n_trees == 0 {
            return Err(MphpcError::InvalidArgument(
                "ForestRegressor::fit: n_trees must be at least 1".into(),
            ));
        }
        let _span = mphpc_telemetry::span!(
            "forest.fit",
            rows = dataset.n_samples(),
            trees = params.n_trees
        );
        let empty = Self {
            params: ForestParams {
                n_trees: 0,
                ..params
            },
            trees: Vec::new(),
            n_outputs: dataset.n_outputs(),
            stats: SplitStats::new(dataset.n_features()),
            feature_names: dataset.feature_names.clone(),
            quantized: LazyQuantized::default(),
        };
        Ok(empty.grown(dataset, params.n_trees))
    }

    /// Grow `extra_trees` additional trees on `dataset`, returning the
    /// extended forest (`self` is unchanged).
    ///
    /// Every tree's randomness is a pure function of `(seed, tree index)`,
    /// so on an unchanged dataset a forest of `b` trees continued by `m`
    /// is bit-identical to one grown with `b + m` trees in a single
    /// process, at any thread count. On a grown dataset the new trees
    /// bootstrap from the current rows — the forest stays an average of
    /// trees, each pinned to the data snapshot it was grown on.
    pub fn warm_start(&self, dataset: &MlDataset, extra_trees: usize) -> Result<Self, MphpcError> {
        validate_training_data(dataset, "ForestRegressor::warm_start")?;
        if dataset.feature_names != self.feature_names {
            return Err(MphpcError::InvalidArgument(format!(
                "ForestRegressor::warm_start: dataset features {:?} do not match the model's {:?}",
                dataset.feature_names, self.feature_names
            )));
        }
        if dataset.n_outputs() != self.n_outputs {
            return Err(MphpcError::DimensionMismatch {
                context: "ForestRegressor::warm_start: output count",
                expected: self.n_outputs,
                found: dataset.n_outputs(),
            });
        }
        let _span = mphpc_telemetry::span!(
            "forest.warm_start",
            rows = dataset.n_samples(),
            extra = extra_trees
        );
        mphpc_telemetry::counter_add("ml.forest.warm_starts", 1);
        Ok(self.grown(dataset, extra_trees))
    }

    /// This forest plus `count` trees grown on `dataset`, each seeded
    /// purely by its index in the forest, their split stats folded in tree
    /// order. Shared by [`ForestRegressor::fit`] (from the empty forest)
    /// and [`ForestRegressor::warm_start`].
    fn grown(&self, dataset: &MlDataset, count: usize) -> Self {
        let params = self.params;
        let n = dataset.n_samples();
        // One binned view serves every tree grown here.
        let view = TrainingView::fit(&dataset.x, params.max_bins);
        let crit = Variance::new(&dataset.y, &params.tree);
        let tree_ids: Vec<usize> = (self.trees.len()..self.trees.len() + count).collect();
        let built = mphpc_par::par_map(&tree_ids, |_, &t| {
            let mut rng = StdRng::seed_from_u64(params.seed ^ (t as u64).wrapping_mul(0x517CC1B7));
            let sample_size = ((n as f64 * params.bootstrap).round() as usize).clamp(1, n * 2);
            // Bootstrap: sample with replacement.
            let rows: Vec<u32> = (0..sample_size)
                .map(|_| rng.gen_range(0..n) as u32)
                .collect();
            grow(
                &view,
                rows,
                Vec::new(),
                &crit,
                &params.tree,
                &mut rng,
                |_, _, _| {},
            )
        });
        let mut stats = self.stats.clone();
        let mut trees = self.trees.clone();
        for (tree, s) in built {
            stats.merge(&s);
            trees.push(tree);
        }
        Self {
            params: ForestParams {
                n_trees: params.n_trees + count,
                ..params
            },
            trees,
            n_outputs: self.n_outputs,
            stats,
            feature_names: self.feature_names.clone(),
            quantized: LazyQuantized::default(),
        }
    }

    /// Predict by averaging tree outputs.
    ///
    /// Runs on the quantized bin-indexed engine ([`crate::quantized`])
    /// for every batch size: small batches take its interleaved
    /// single-row path, larger ones the blocked lane kernel. Output is
    /// bit-identical to [`ForestRegressor::predict_reference`] at any
    /// thread count.
    pub fn predict(&self, x: &Matrix) -> Result<Matrix, MphpcError> {
        check_feature_count("ForestRegressor::predict", self.feature_names.len(), x)?;
        Ok(self.quantized()?.predict(x))
    }

    /// Reference per-row enum-tree traversal, kept as the oracle the
    /// engine is tested against.
    pub fn predict_reference(&self, x: &Matrix) -> Result<Matrix, MphpcError> {
        check_feature_count(
            "ForestRegressor::predict_reference",
            self.feature_names.len(),
            x,
        )?;
        let mut out = Matrix::zeros(x.rows(), self.n_outputs);
        let inv = 1.0 / self.trees.len().max(1) as f64;
        for i in 0..x.rows() {
            let row = x.row(i);
            let acc = out.row_mut(i);
            for tree in &self.trees {
                for (a, &v) in acc.iter_mut().zip(tree.predict_row(row)) {
                    *a += v;
                }
            }
            for a in acc.iter_mut() {
                *a *= inv;
            }
        }
        Ok(out)
    }

    /// The inference engine, lowering the trees on first use. Models
    /// built by `fit` / `warm_start` always lower; the error is for
    /// deserialised trees that are structurally invalid.
    pub fn quantized(&self) -> Result<&QuantizedEnsemble, MphpcError> {
        self.quantized.get_or_build(|| {
            QuantizedEnsemble::from_forest(&self.trees, self.n_outputs, self.feature_names.len())
        })
    }

    /// Gain-based feature importance.
    pub fn feature_importance(&self) -> FeatureImportance {
        FeatureImportance::from_stats(&self.feature_names, &self.stats)
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Hyper-parameters the forest was grown with.
    pub fn params(&self) -> &ForestParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mae;

    fn synthetic(n: usize, seed: u64) -> MlDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xr = Vec::with_capacity(n);
        let mut yr = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.gen_range(-1.0..1.0);
            let x1: f64 = rng.gen_range(-1.0..1.0);
            xr.push(vec![x0, x1]);
            yr.push(vec![x0.signum() + x1, x0 * x1]);
        }
        MlDataset::new(
            Matrix::from_rows(&xr),
            Matrix::from_rows(&yr),
            vec!["x0".into(), "x1".into()],
        )
        .unwrap()
    }

    #[test]
    fn fits_multi_output_function() {
        let train = synthetic(2000, 1);
        let test = synthetic(300, 2);
        let model = ForestRegressor::fit(&train, ForestParams::default()).unwrap();
        let err = mae(&model.predict(&test.x).unwrap(), &test.y).unwrap();
        assert!(err < 0.15, "forest MAE {err}");
    }

    #[test]
    fn more_trees_reduce_variance() {
        let train = synthetic(800, 3);
        let test = synthetic(200, 4);
        let one = ForestRegressor::fit(
            &train,
            ForestParams {
                n_trees: 1,
                ..ForestParams::default()
            },
        )
        .unwrap();
        let many = ForestRegressor::fit(
            &train,
            ForestParams {
                n_trees: 80,
                ..ForestParams::default()
            },
        )
        .unwrap();
        assert!(
            mae(&many.predict(&test.x).unwrap(), &test.y).unwrap()
                <= mae(&one.predict(&test.x).unwrap(), &test.y).unwrap(),
            "averaging should not hurt"
        );
    }

    #[test]
    fn zero_trees_rejected_at_fit() {
        // A forest with no trees cannot predict or round-trip through JSON;
        // refuse to build one.
        let params = ForestParams {
            n_trees: 0,
            ..ForestParams::default()
        };
        assert!(matches!(
            ForestRegressor::fit(&synthetic(50, 10), params),
            Err(MphpcError::InvalidArgument(_))
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let train = synthetic(300, 5);
        let a = ForestRegressor::fit(&train, ForestParams::default()).unwrap();
        let b = ForestRegressor::fit(&train, ForestParams::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn importance_positive_for_used_features() {
        let train = synthetic(800, 6);
        let model = ForestRegressor::fit(&train, ForestParams::default()).unwrap();
        let imp = model.feature_importance();
        assert!(imp.gain_of("x0").unwrap() > 0.0);
        assert!(imp.gain_of("x1").unwrap() > 0.0);
    }

    #[test]
    fn small_batches_run_quantized_and_stay_bit_identical() {
        // Every batch size (including a single row, which takes the
        // engine's interleaved pack path) must match the reference
        // oracle exactly.
        let train = synthetic(400, 8);
        let model = ForestRegressor::fit(&train, ForestParams::default()).unwrap();
        let pool = synthetic(16, 9);
        for rows in [1usize, 2, 7, 8, 11] {
            let sub: Vec<Vec<f64>> = (0..rows).map(|i| pool.x.row(i).to_vec()).collect();
            let sub = Matrix::from_rows(&sub);
            let routed = model.predict(&sub).unwrap();
            assert_eq!(
                routed,
                model.predict_reference(&sub).unwrap(),
                "rows={rows}"
            );
        }
    }

    #[test]
    fn predictions_within_target_hull() {
        // Averaged leaf means can never exceed observed target extremes.
        let train = synthetic(500, 7);
        let model = ForestRegressor::fit(&train, ForestParams::default()).unwrap();
        let pred = model.predict(&train.x).unwrap();
        for j in 0..train.n_outputs() {
            let col = train.y.col(j);
            let lo = col.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for i in 0..pred.rows() {
                let v = pred.get(i, j);
                assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            }
        }
    }
}
