//! Gradient-boosted trees in the XGBoost formulation (§VI-A of the paper).
//!
//! Squared-error objective with second-order updates: for round `t`, the
//! gradient of `½(ŷ−y)²` is `ŷ−y` and the hessian is `1`, so each tree fits
//! the regularised residual. Vector targets (RPVs) are handled the way the
//! XGBoost the paper used (v1.7) handles them: one booster chain per output
//! dimension; feature importance is averaged across outputs (§VI-B: "when
//! there are multiple regression targets the gain is averaged over each
//! output").

use crate::data::{check_feature_count, validate_training_data, MlDataset};
use crate::hist::GradHess;
use crate::importance::FeatureImportance;
use crate::matrix::Matrix;
use crate::quantized::{LazyQuantized, QuantizedEnsemble};
use crate::tree::{grow, SplitStats, TrainingView, Tree, TreeParams};
use mphpc_errors::MphpcError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the boosted ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbtParams {
    /// Boosting rounds per output.
    pub n_rounds: usize,
    /// Shrinkage (XGBoost `eta`).
    pub learning_rate: f64,
    /// Tree-level parameters.
    pub tree: TreeParams,
    /// Row subsample fraction per round.
    pub subsample: f64,
    /// Quantile bins per feature.
    pub max_bins: usize,
    /// RNG seed for subsampling.
    pub seed: u64,
    /// Stop a booster early when its held-out MAE has not improved for
    /// this many rounds (`None` = train all rounds). The holdout is
    /// `validation_fraction` of the training rows, split off per output.
    pub early_stopping_rounds: Option<usize>,
    /// Fraction of training rows held out for early stopping.
    pub validation_fraction: f64,
}

impl Default for GbtParams {
    fn default() -> Self {
        Self {
            n_rounds: 120,
            learning_rate: 0.08,
            tree: TreeParams {
                max_depth: 9,
                lambda: 1.0,
                gamma: 0.0,
                min_child_weight: 2.0,
                colsample: 0.9,
            },
            subsample: 0.85,
            max_bins: 64,
            seed: 0x9B00573,
            early_stopping_rounds: None,
            validation_fraction: 0.1,
        }
    }
}

/// A trained boosted ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbtRegressor {
    params: GbtParams,
    /// `boosters[k]` is the tree chain for output dimension `k`.
    boosters: Vec<Vec<Tree>>,
    /// Per-output base score (training-set mean).
    base_scores: Vec<f64>,
    /// Per-output split statistics, accumulated in round order. Kept
    /// per-booster (not pre-aggregated) so a warm-started continuation
    /// extends each accumulator in the same fold order a single
    /// longer training run would have used — bit-identical importances.
    booster_stats: Vec<SplitStats>,
    feature_names: Vec<String>,
    /// Lazily-built inference engine (derived; rebuilt after
    /// deserialisation or cloning on first predict).
    #[serde(skip)]
    quantized: LazyQuantized,
}

impl GbtRegressor {
    /// Train on a dataset.
    pub fn fit(dataset: &MlDataset, params: GbtParams) -> Result<Self, MphpcError> {
        validate_training_data(dataset, "GbtRegressor::fit")?;
        let n = dataset.n_samples();
        let k = dataset.n_outputs();
        let _fit_span = mphpc_telemetry::span!("gbt.fit", rows = n, outputs = k);
        // One binned view serves every round of every booster chain.
        let view = TrainingView::fit(&dataset.x, params.max_bins);

        let base_scores: Vec<f64> = (0..k)
            .map(|j| dataset.y.col(j).iter().sum::<f64>() / n as f64)
            .collect();

        // Outputs are independent boosters — train them in parallel.
        let outputs: Vec<usize> = (0..k).collect();
        let trained: Vec<(Vec<Tree>, SplitStats)> = mphpc_par::par_map(&outputs, |_, &j| {
            let _booster_span = mphpc_telemetry::span!("gbt.fit.booster", output = j);
            let targets = dataset.y.col(j);

            // Early-stopping holdout: the last `validation_fraction` of a
            // seeded shuffle is never used to fit trees. The shuffle has
            // its own derived RNG so round randomness stays a pure
            // function of (seed, output, round).
            let (fit_rows, valid_rows): (Vec<u32>, Vec<u32>) = match params.early_stopping_rounds {
                Some(_) if n >= 20 => {
                    let mut rng = holdout_rng(params.seed, j);
                    let mut order: Vec<u32> = (0..n as u32).collect();
                    use rand::seq::SliceRandom;
                    order.shuffle(&mut rng);
                    let n_valid = ((n as f64 * params.validation_fraction.clamp(0.05, 0.5)).round()
                        as usize)
                        .clamp(1, n - 1);
                    let valid = order.split_off(n - n_valid);
                    (order, valid)
                }
                _ => ((0..n as u32).collect(), Vec::new()),
            };

            let mut pred = vec![base_scores[j]; n];
            let mut trees = Vec::with_capacity(params.n_rounds);
            let mut stats = SplitStats::new(dataset.n_features());
            boost_rounds(
                &view,
                &params,
                j,
                &targets,
                &fit_rows,
                &valid_rows,
                0,
                params.n_rounds,
                &mut pred,
                &mut trees,
                &mut stats,
            );
            (trees, stats)
        });

        let (boosters, booster_stats) = trained.into_iter().unzip();
        Ok(Self {
            params,
            boosters,
            base_scores,
            booster_stats,
            feature_names: dataset.feature_names.clone(),
            quantized: LazyQuantized::default(),
        })
    }

    /// Continue boosting every output chain for `extra_rounds` more rounds
    /// on `dataset`, returning the extended model (`self` is unchanged).
    ///
    /// Per-round randomness is a pure function of `(seed, output, round)`,
    /// so on an unchanged dataset — and with early stopping disabled — a
    /// model trained for `b` rounds and continued for `k` is bit-identical
    /// to one trained for `b + k` rounds in a single process, at any
    /// thread count. On a grown dataset the continuation is still fully
    /// deterministic: base scores and the feature schema stay pinned by
    /// the original model while the new trees fit the current residuals.
    ///
    /// The early-stopping holdout is a fit-time concern and does not apply
    /// to continuations: all rows train, all `extra_rounds` run.
    pub fn warm_start(&self, dataset: &MlDataset, extra_rounds: usize) -> Result<Self, MphpcError> {
        validate_training_data(dataset, "GbtRegressor::warm_start")?;
        if dataset.feature_names != self.feature_names {
            return Err(MphpcError::InvalidArgument(format!(
                "GbtRegressor::warm_start: dataset features {:?} do not match the model's {:?}",
                dataset.feature_names, self.feature_names
            )));
        }
        if dataset.n_outputs() != self.boosters.len() {
            return Err(MphpcError::DimensionMismatch {
                context: "GbtRegressor::warm_start: output count",
                expected: self.boosters.len(),
                found: dataset.n_outputs(),
            });
        }
        let n = dataset.n_samples();
        let k = self.boosters.len();
        let params = self.params;
        let _span = mphpc_telemetry::span!("gbt.warm_start", rows = n, extra = extra_rounds);
        let view = TrainingView::fit(&dataset.x, params.max_bins);

        let outputs: Vec<usize> = (0..k).collect();
        let continued: Vec<(Vec<Tree>, SplitStats)> = mphpc_par::par_map(&outputs, |_, &j| {
            let _booster_span = mphpc_telemetry::span!("gbt.warm_start.booster", output = j);
            let targets = dataset.y.col(j);
            let mut trees = self.boosters[j].clone();
            let mut stats = self.booster_stats[j].clone();
            // Rebuild the running prediction exactly as training left it:
            // base score plus η·leaf per tree, accumulated in round order
            // (the same additions fit performed, so the f64 bits match).
            let mut pred: Vec<f64> = (0..n)
                .map(|i| {
                    let row = dataset.x.row(i);
                    let mut v = self.base_scores[j];
                    for tree in &trees {
                        v += params.learning_rate * tree.predict_row(row)[0];
                    }
                    v
                })
                .collect();
            let fit_rows: Vec<u32> = (0..n as u32).collect();
            let start = trees.len();
            boost_rounds(
                &view,
                &params,
                j,
                &targets,
                &fit_rows,
                &[],
                start,
                extra_rounds,
                &mut pred,
                &mut trees,
                &mut stats,
            );
            (trees, stats)
        });

        let (boosters, booster_stats) = continued.into_iter().unzip();
        mphpc_telemetry::counter_add("ml.gbt.warm_starts", 1);
        Ok(Self {
            params: GbtParams {
                n_rounds: params.n_rounds + extra_rounds,
                ..params
            },
            boosters,
            base_scores: self.base_scores.clone(),
            booster_stats,
            feature_names: self.feature_names.clone(),
            quantized: LazyQuantized::default(),
        })
    }

    /// Predict the target matrix for a feature matrix.
    ///
    /// Runs on the quantized bin-indexed engine ([`crate::quantized`]):
    /// rows are pre-binned once, node compares are integer tests, the
    /// learning-rate multiply is hoisted into lowering-time leaf
    /// pre-scaling, and `base_scores` is applied once per row. Output is
    /// bit-identical to [`GbtRegressor::predict_reference`] at any thread
    /// count.
    pub fn predict(&self, x: &Matrix) -> Result<Matrix, MphpcError> {
        check_feature_count("GbtRegressor::predict", self.feature_names.len(), x)?;
        Ok(self.quantized()?.predict(x))
    }

    /// Reference per-row enum-tree traversal, kept as the oracle the
    /// engine is tested against.
    pub fn predict_reference(&self, x: &Matrix) -> Result<Matrix, MphpcError> {
        check_feature_count(
            "GbtRegressor::predict_reference",
            self.feature_names.len(),
            x,
        )?;
        let k = self.boosters.len();
        let mut out = Matrix::zeros(x.rows(), k);
        for i in 0..x.rows() {
            let row = x.row(i);
            for (j, trees) in self.boosters.iter().enumerate() {
                let mut v = self.base_scores[j];
                for tree in trees {
                    v += self.params.learning_rate * tree.predict_row(row)[0];
                }
                out.set(i, j, v);
            }
        }
        Ok(out)
    }

    /// The inference engine, lowering the trees on first use. Models
    /// built by `fit` / `warm_start` always lower; the error is for
    /// deserialised trees that are structurally invalid.
    pub fn quantized(&self) -> Result<&QuantizedEnsemble, MphpcError> {
        self.quantized.get_or_build(|| {
            QuantizedEnsemble::from_gbt(
                &self.boosters,
                &self.base_scores,
                self.params.learning_rate,
                self.feature_names.len(),
            )
        })
    }

    /// Gain-based feature importance, averaged over splits (and outputs).
    pub fn feature_importance(&self) -> FeatureImportance {
        let mut stats = SplitStats::new(self.feature_names.len());
        for s in &self.booster_stats {
            stats.merge(s);
        }
        FeatureImportance::from_stats(&self.feature_names, &stats)
    }

    /// Trained hyper-parameters.
    pub fn params(&self) -> &GbtParams {
        &self.params
    }

    /// Total number of trees across all output chains.
    pub fn n_trees(&self) -> usize {
        self.boosters.iter().map(Vec::len).sum()
    }
}

/// RNG for one boosting round of one output chain. A pure function of
/// `(seed, output, round)` — never of how many rounds ran before — so a
/// warm-started continuation draws the identical stream a single longer
/// training run would have drawn.
fn round_rng(seed: u64, output: usize, round: usize) -> StdRng {
    let s = seed
        ^ (output as u64).wrapping_mul(0x9E37_79B9)
        ^ (round as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    StdRng::seed_from_u64(s)
}

/// RNG for the early-stopping holdout shuffle of one output chain.
/// Separate from the round stream so the shuffle (which only happens at
/// fit time) cannot shift round randomness.
fn holdout_rng(seed: u64, output: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (output as u64).wrapping_mul(0x9E37_79B9) ^ 0x51AC_DEED)
}

/// Run boosting rounds `start..start + budget` for output chain `output`,
/// appending trees and folding split stats in round order. Shared by
/// [`GbtRegressor::fit`] (`start = 0`) and [`GbtRegressor::warm_start`]
/// (`start` = rounds already trained), which is what makes the two paths
/// bit-identical.
#[allow(clippy::too_many_arguments)]
fn boost_rounds(
    view: &TrainingView,
    params: &GbtParams,
    output: usize,
    targets: &[f64],
    fit_rows: &[u32],
    valid_rows: &[u32],
    start: usize,
    budget: usize,
    pred: &mut [f64],
    trees: &mut Vec<Tree>,
    stats: &mut SplitStats,
) {
    let n = pred.len();
    let mut grad = vec![0.0; n];
    let hess = vec![1.0; n];
    let mut in_sample = vec![false; n];
    let mut best_valid = f64::INFINITY;
    let mut best_len = trees.len();
    let mut stale = 0usize;
    for round in start..start + budget {
        let _round_span = mphpc_telemetry::span!("gbt.fit.round", round = round);
        let mut rng = round_rng(params.seed, output, round);
        for i in 0..n {
            grad[i] = pred[i] - targets[i];
        }
        let rows = subsample_rows_of(fit_rows, params.subsample, &mut rng);
        // Rows outside the round's subsample (including the
        // early-stopping holdout) are routed down the tree during
        // construction, so `pred` is updated leaf-by-leaf with no
        // post-hoc re-traversal of the finished tree.
        in_sample.iter_mut().for_each(|v| *v = false);
        for &r in &rows {
            in_sample[r as usize] = true;
        }
        let extra_rows: Vec<u32> = (0..n as u32).filter(|&r| !in_sample[r as usize]).collect();
        let crit = GradHess {
            grad: &grad,
            hess: &hess,
            params: &params.tree,
        };
        let (tree, tree_stats) = grow(
            view,
            rows,
            extra_rows,
            &crit,
            &params.tree,
            &mut rng,
            |rows, extra, leaf| {
                for &r in rows.iter().chain(extra) {
                    pred[r as usize] += params.learning_rate * leaf[0];
                }
            },
        );
        stats.merge(&tree_stats);
        trees.push(tree);
        if let Some(patience) = params.early_stopping_rounds {
            if !valid_rows.is_empty() {
                let mae: f64 = valid_rows
                    .iter()
                    .map(|&r| (pred[r as usize] - targets[r as usize]).abs())
                    .sum::<f64>()
                    / valid_rows.len() as f64;
                if mae + 1e-12 < best_valid {
                    best_valid = mae;
                    best_len = trees.len();
                    stale = 0;
                } else {
                    stale += 1;
                    if stale >= patience {
                        trees.truncate(best_len.max(1));
                        mphpc_telemetry::counter_add("ml.gbt.early_stops", 1);
                        break;
                    }
                }
            }
        }
    }
    mphpc_telemetry::counter_add("ml.gbt.rounds", (trees.len() - start) as u64);
}

fn subsample_rows_of(rows: &[u32], fraction: f64, rng: &mut impl Rng) -> Vec<u32> {
    if fraction >= 1.0 {
        return rows.to_vec();
    }
    let keep = ((rows.len() as f64 * fraction).round() as usize).clamp(1, rows.len());
    rand::seq::index::sample(rng, rows.len(), keep)
        .into_iter()
        .map(|i| rows[i])
        .collect()
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::metrics::mae;

    /// y0 = 2·x0 − x1, y1 = x1² (nonlinear), plus an irrelevant feature.
    pub(super) fn synthetic(n: usize, seed: u64) -> MlDataset {
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

    #[test]
    fn fits_nonlinear_vector_targets() {
        let train = synthetic(2000, 1);
        let test = synthetic(300, 2);
        let model = GbtRegressor::fit(&train, GbtParams::default()).unwrap();
        let pred = model.predict(&test.x).unwrap();
        let err = mae(&pred, &test.y).unwrap();
        assert!(
            err < 0.08,
            "GBT should fit the synthetic function, MAE {err}"
        );
    }

    #[test]
    fn beats_constant_prediction() {
        let train = synthetic(1000, 3);
        let test = synthetic(200, 4);
        let model = GbtRegressor::fit(&train, GbtParams::default()).unwrap();
        let pred = model.predict(&test.x).unwrap();
        let mean_rows: Vec<Vec<f64>> = (0..test.n_samples())
            .map(|_| {
                (0..2)
                    .map(|j| train.y.col(j).iter().sum::<f64>() / train.n_samples() as f64)
                    .collect()
            })
            .collect();
        let mean_pred = Matrix::from_rows(&mean_rows);
        assert!(mae(&pred, &test.y).unwrap() < 0.3 * mae(&mean_pred, &test.y).unwrap());
    }

    #[test]
    fn importance_ranks_informative_features() {
        let train = synthetic(1500, 5);
        let model = GbtRegressor::fit(&train, GbtParams::default()).unwrap();
        let imp = model.feature_importance();
        let junk = imp.gain_of("junk").unwrap();
        assert!(imp.gain_of("x0").unwrap() > junk * 5.0);
        assert!(imp.gain_of("x1").unwrap() > junk * 5.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = synthetic(400, 6);
        let m1 = GbtRegressor::fit(&train, GbtParams::default()).unwrap();
        let m2 = GbtRegressor::fit(&train, GbtParams::default()).unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn more_rounds_fit_better() {
        let train = synthetic(1000, 7);
        let test = synthetic(200, 8);
        let short = GbtRegressor::fit(
            &train,
            GbtParams {
                n_rounds: 5,
                ..GbtParams::default()
            },
        )
        .unwrap();
        let long = GbtRegressor::fit(
            &train,
            GbtParams {
                n_rounds: 150,
                ..GbtParams::default()
            },
        )
        .unwrap();
        assert!(
            mae(&long.predict(&test.x).unwrap(), &test.y).unwrap()
                < mae(&short.predict(&test.x).unwrap(), &test.y).unwrap(),
            "boosting must reduce test error on a clean problem"
        );
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let train = synthetic(300, 9);
        let model = GbtRegressor::fit(
            &train,
            GbtParams {
                n_rounds: 20,
                ..GbtParams::default()
            },
        )
        .unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: GbtRegressor = serde_json::from_str(&json).unwrap();
        let p1 = model.predict(&train.x).unwrap();
        let p2 = back.predict(&train.x).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn early_stopping_truncates_boosters() {
        let train = synthetic(800, 12);
        let unlimited = GbtRegressor::fit(
            &train,
            GbtParams {
                n_rounds: 200,
                ..GbtParams::default()
            },
        )
        .unwrap();
        let stopped = GbtRegressor::fit(
            &train,
            GbtParams {
                n_rounds: 200,
                early_stopping_rounds: Some(5),
                ..GbtParams::default()
            },
        )
        .unwrap();
        assert!(
            stopped.n_trees() < unlimited.n_trees(),
            "patience 5 must stop before 200 rounds ({} vs {})",
            stopped.n_trees(),
            unlimited.n_trees()
        );
        // Quality stays comparable on fresh data.
        let test = synthetic(200, 13);
        let e_stop = mae(&stopped.predict(&test.x).unwrap(), &test.y).unwrap();
        let e_full = mae(&unlimited.predict(&test.x).unwrap(), &test.y).unwrap();
        assert!(e_stop < e_full * 2.0 + 0.05, "{e_stop} vs {e_full}");
    }

    #[test]
    fn early_stopping_is_deterministic() {
        let train = synthetic(400, 14);
        let params = GbtParams {
            n_rounds: 80,
            early_stopping_rounds: Some(4),
            ..GbtParams::default()
        };
        assert_eq!(
            GbtRegressor::fit(&train, params).unwrap(),
            GbtRegressor::fit(&train, params).unwrap()
        );
    }

    #[test]
    fn n_trees_counts_all_outputs() {
        let train = synthetic(200, 10);
        let model = GbtRegressor::fit(
            &train,
            GbtParams {
                n_rounds: 7,
                ..GbtParams::default()
            },
        )
        .unwrap();
        assert_eq!(model.n_trees(), 7 * 2);
    }
}

#[cfg(test)]
mod debug_serde {
    use super::*;
    #[test]
    fn model_equality_after_json() {
        let train = tests::synthetic(300, 9);
        let model = GbtRegressor::fit(
            &train,
            GbtParams {
                n_rounds: 20,
                ..GbtParams::default()
            },
        )
        .unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: GbtRegressor = serde_json::from_str(&json).unwrap();
        assert_eq!(model.base_scores, back.base_scores, "base");
        assert_eq!(model.params, back.params, "params");
        for (a, b) in model.boosters.iter().zip(&back.boosters) {
            for (ta, tb) in a.iter().zip(b) {
                assert_eq!(ta, tb, "tree");
            }
        }
    }
}
