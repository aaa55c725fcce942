//! Uniform model interface and the exportable trained-model container.
//!
//! The paper's pipeline trains four model families on identical splits
//! (Fig. 2) and exports the winner for use in the scheduler (§VI-A). The
//! [`ModelKind`] enum names a family + hyper-parameters; [`TrainedModel`]
//! is the serialisable result that predicts RPVs and can be written to /
//! read from JSON.
//!
//! Fitting and prediction are fallible: empty or non-finite training data
//! and feature-count mismatches return [`MphpcError`] instead of
//! panicking inside the numeric kernels.

use crate::data::MlDataset;
use crate::forest::{ForestParams, ForestRegressor};
use crate::gbt::{GbtParams, GbtRegressor};
use crate::importance::FeatureImportance;
use crate::linear::{LinearParams, LinearRegressor};
use crate::matrix::Matrix;
use crate::mean::MeanRegressor;
use mphpc_errors::{MphpcError, ResultExt};
use serde::{Deserialize, Serialize};

/// Common behaviour of every trained regressor.
pub trait Regressor {
    /// Predict the `n × k` target matrix for `n` feature rows. Errors if
    /// `x` does not match the feature count the model was trained with.
    fn predict(&self, x: &Matrix) -> Result<Matrix, MphpcError>;
    /// Short display name ("XGBoost", "Linear", ...).
    fn model_name(&self) -> &'static str;
}

/// A model family plus its hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Mean-RPV baseline.
    Mean,
    /// Ridge linear regression.
    Linear(LinearParams),
    /// Bagged decision forest.
    Forest(ForestParams),
    /// Gradient-boosted trees (the paper's XGBoost).
    Gbt(GbtParams),
}

impl ModelKind {
    /// The four families at their default settings, in the paper's Fig. 2
    /// order.
    pub fn paper_lineup() -> Vec<ModelKind> {
        vec![
            ModelKind::Mean,
            ModelKind::Linear(LinearParams::default()),
            ModelKind::Forest(ForestParams::default()),
            ModelKind::Gbt(GbtParams::default()),
        ]
    }

    /// Display name (matching the paper's figure labels).
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Mean => "Mean",
            ModelKind::Linear(_) => "Linear",
            ModelKind::Forest(_) => "Decision Forest",
            ModelKind::Gbt(_) => "XGBoost",
        }
    }

    /// Train this family on a dataset.
    pub fn fit(&self, dataset: &MlDataset) -> Result<TrainedModel, MphpcError> {
        let fitted = match self {
            ModelKind::Mean => TrainedModel::Mean(MeanRegressor::fit(dataset)?),
            ModelKind::Linear(p) => TrainedModel::Linear(LinearRegressor::fit(dataset, *p)?),
            ModelKind::Forest(p) => TrainedModel::Forest(ForestRegressor::fit(dataset, *p)?),
            ModelKind::Gbt(p) => TrainedModel::Gbt(GbtRegressor::fit(dataset, *p)?),
        };
        Ok(fitted)
    }
}

/// A trained, serialisable model of any family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum TrainedModel {
    /// Mean baseline.
    Mean(MeanRegressor),
    /// Ridge regression.
    Linear(LinearRegressor),
    /// Decision forest.
    Forest(ForestRegressor),
    /// Gradient-boosted trees.
    Gbt(GbtRegressor),
}

impl TrainedModel {
    /// Feature importance, if the family exposes one (tree ensembles only —
    /// §VI-B selects features "using those reported by XGBoost and the
    /// decision forest, since these models expose feature importances").
    pub fn feature_importance(&self) -> Option<FeatureImportance> {
        match self {
            TrainedModel::Forest(m) => Some(m.feature_importance()),
            TrainedModel::Gbt(m) => Some(m.feature_importance()),
            _ => None,
        }
    }

    /// Predict with the reference traversal where one exists. Tree
    /// ensembles route to their per-row enum-tree oracle; mean/linear
    /// models have a single implementation, so this equals
    /// [`Regressor::predict`]. Used by equivalence tests for the
    /// inference engine ([`crate::quantized`]).
    pub fn predict_reference(&self, x: &Matrix) -> Result<Matrix, MphpcError> {
        match self {
            TrainedModel::Forest(m) => m.predict_reference(x),
            TrainedModel::Gbt(m) => m.predict_reference(x),
            other => other.predict(x),
        }
    }

    /// Warm-start continuation on (usually grown) training data.
    ///
    /// Tree ensembles extend their existing ensemble: the forest grows
    /// `extra` more trees, the GBT continues boosting for `extra` more
    /// rounds — both deterministic, and bit-identical to one longer
    /// training run when the dataset is unchanged (see
    /// [`GbtRegressor::warm_start`] / [`ForestRegressor::warm_start`]).
    /// Mean and linear models have cheap closed-form fits with nothing to
    /// continue, so they refit from scratch with their stored
    /// hyper-parameters.
    pub fn warm_start(
        &self,
        dataset: &MlDataset,
        extra: usize,
    ) -> Result<TrainedModel, MphpcError> {
        match self {
            TrainedModel::Mean(_) => Ok(TrainedModel::Mean(MeanRegressor::fit(dataset)?)),
            TrainedModel::Linear(m) => Ok(TrainedModel::Linear(LinearRegressor::fit(
                dataset,
                *m.params(),
            )?)),
            TrainedModel::Forest(m) => Ok(TrainedModel::Forest(m.warm_start(dataset, extra)?)),
            TrainedModel::Gbt(m) => Ok(TrainedModel::Gbt(m.warm_start(dataset, extra)?)),
        }
    }

    /// Serialise to JSON (the paper's "model is exported" step).
    pub fn to_json(&self) -> Result<String, MphpcError> {
        serde_json::to_string(self)
            .map_err(MphpcError::serde)
            .context("exporting trained model to JSON")
    }

    /// Load a model previously exported with [`TrainedModel::to_json`].
    ///
    /// Tree ensembles are lowered to the inference engine here rather
    /// than on the first prediction, so JSON whose trees are structurally
    /// invalid (dangling or cyclic child links, out-of-range split
    /// features, wrong leaf widths, ...) is an error at load time.
    pub fn from_json(json: &str) -> Result<Self, MphpcError> {
        let load = || {
            let model: Self = serde_json::from_str(json).map_err(MphpcError::serde)?;
            match &model {
                TrainedModel::Forest(m) => drop(m.quantized()?),
                TrainedModel::Gbt(m) => drop(m.quantized()?),
                TrainedModel::Mean(_) | TrainedModel::Linear(_) => {}
            }
            Ok::<_, MphpcError>(model)
        };
        load().context("loading trained model from JSON")
    }
}

impl Regressor for TrainedModel {
    fn predict(&self, x: &Matrix) -> Result<Matrix, MphpcError> {
        match self {
            TrainedModel::Mean(m) => m.predict(x),
            TrainedModel::Linear(m) => m.predict(x),
            TrainedModel::Forest(m) => m.predict(x),
            TrainedModel::Gbt(m) => m.predict(x),
        }
    }

    fn model_name(&self) -> &'static str {
        match self {
            TrainedModel::Mean(_) => "Mean",
            TrainedModel::Linear(_) => "Linear",
            TrainedModel::Forest(_) => "Decision Forest",
            TrainedModel::Gbt(_) => "XGBoost",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mae;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn data(n: usize, seed: u64) -> MlDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let ys: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| vec![r[0] + r[1], r[0] - r[1]])
            .collect();
        MlDataset::new(
            Matrix::from_rows(&rows),
            Matrix::from_rows(&ys),
            vec!["u".into(), "v".into()],
        )
        .unwrap()
    }

    #[test]
    fn lineup_has_four_families() {
        let lineup = ModelKind::paper_lineup();
        assert_eq!(lineup.len(), 4);
        let names: Vec<&str> = lineup.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["Mean", "Linear", "Decision Forest", "XGBoost"]);
    }

    #[test]
    fn every_family_trains_and_predicts() {
        let train = data(400, 1);
        let test = data(50, 2);
        for kind in ModelKind::paper_lineup() {
            let model = kind.fit(&train).unwrap();
            let pred = model.predict(&test.x).unwrap();
            assert_eq!(pred.rows(), 50);
            assert_eq!(pred.cols(), 2);
            assert_eq!(model.model_name(), kind.name());
        }
    }

    #[test]
    fn every_family_rejects_empty_training_data() {
        let empty = data(10, 1).take(&[]);
        for kind in ModelKind::paper_lineup() {
            assert!(kind.fit(&empty).is_err(), "{} must reject", kind.name());
        }
    }

    #[test]
    fn every_family_rejects_nan_training_data() {
        let mut d = data(50, 2);
        d.x.set(7, 0, f64::NAN);
        for kind in ModelKind::paper_lineup() {
            let err = kind.fit(&d).unwrap_err();
            assert!(
                matches!(err.root_cause(), MphpcError::NonFinite { .. }),
                "{}: {err}",
                kind.name()
            );
        }
    }

    #[test]
    fn every_family_rejects_wrong_feature_count() {
        let train = data(100, 3);
        let wide = Matrix::zeros(5, 7);
        for kind in ModelKind::paper_lineup() {
            let model = kind.fit(&train).unwrap();
            if matches!(kind, ModelKind::Mean) {
                // The mean baseline ignores features entirely; any width is
                // accepted by design.
                assert!(model.predict(&wide).is_ok());
                continue;
            }
            let err = model.predict(&wide).unwrap_err();
            assert!(
                matches!(
                    err.root_cause(),
                    MphpcError::DimensionMismatch {
                        expected: 2,
                        found: 7,
                        ..
                    }
                ),
                "{}: {err}",
                kind.name()
            );
        }
    }

    #[test]
    fn learned_models_beat_mean() {
        let train = data(600, 3);
        let test = data(100, 4);
        let mean_err = mae(
            &ModelKind::Mean
                .fit(&train)
                .unwrap()
                .predict(&test.x)
                .unwrap(),
            &test.y,
        )
        .unwrap();
        for kind in [
            ModelKind::Linear(LinearParams::default()),
            ModelKind::Forest(ForestParams::default()),
            ModelKind::Gbt(GbtParams::default()),
        ] {
            let err = mae(
                &kind.fit(&train).unwrap().predict(&test.x).unwrap(),
                &test.y,
            )
            .unwrap();
            assert!(
                err < mean_err,
                "{} ({err}) must beat mean ({mean_err})",
                kind.name()
            );
        }
    }

    #[test]
    fn importance_only_for_tree_models() {
        let train = data(200, 5);
        assert!(ModelKind::Mean
            .fit(&train)
            .unwrap()
            .feature_importance()
            .is_none());
        assert!(ModelKind::Linear(LinearParams::default())
            .fit(&train)
            .unwrap()
            .feature_importance()
            .is_none());
        assert!(ModelKind::Forest(ForestParams::default())
            .fit(&train)
            .unwrap()
            .feature_importance()
            .is_some());
        assert!(ModelKind::Gbt(GbtParams::default())
            .fit(&train)
            .unwrap()
            .feature_importance()
            .is_some());
    }

    #[test]
    fn json_export_round_trips_all_families() {
        let train = data(150, 6);
        let probe = data(10, 7);
        for kind in ModelKind::paper_lineup() {
            let model = kind.fit(&train).unwrap();
            let back = TrainedModel::from_json(&model.to_json().unwrap()).unwrap();
            assert_eq!(
                model.predict(&probe.x).unwrap(),
                back.predict(&probe.x).unwrap()
            );
        }
        assert!(TrainedModel::from_json("not json").is_err());
    }

    /// Replace the value after the last `"key":` in compact JSON (a
    /// scalar, or a whole `[...]` array).
    fn set_last(json: &str, key: &str, value: &str) -> String {
        let key = format!("\"{key}\":");
        let start = json.rfind(&key).expect("key present") + key.len();
        let rest = &json[start..];
        let end = if rest.starts_with('[') {
            let mut depth = 0;
            let close = |(i, c): (usize, char)| {
                depth += i32::from(c == '[') - i32::from(c == ']');
                (depth == 0).then_some(i + 1)
            };
            rest.char_indices().find_map(close).expect("balanced array")
        } else {
            rest.find([',', '}', ']']).expect("value end")
        };
        format!("{}{value}{}", &json[..start], &rest[end..])
    }

    #[test]
    fn from_json_rejects_structurally_invalid_trees() {
        // Stumps only, so every tree is `[Split{left: 1, right: 2}, Leaf,
        // Leaf]` and each edit hits the model's last tree: tree 3 of the
        // GBT (2 outputs × 2 rounds), tree 1 of the forest.
        let train = data(120, 8);
        let stump = crate::tree::TreeParams {
            max_depth: 1,
            ..GbtParams::default().tree
        };
        let export = |kind: ModelKind| {
            let json = kind.fit(&train).unwrap().to_json().unwrap();
            TrainedModel::from_json(&json).expect("the unedited export loads");
            json
        };
        let gbt = export(ModelKind::Gbt(GbtParams {
            n_rounds: 2,
            tree: stump,
            ..GbtParams::default()
        }));
        let forest = export(ModelKind::Forest(ForestParams {
            n_trees: 2,
            tree: stump,
            ..ForestParams::default()
        }));
        let refused = |json: &str, key: &str, value: &str, want: &str| {
            let err = TrainedModel::from_json(&set_last(json, key, value))
                .expect_err("malformed model must not load")
                .render_chain();
            assert!(err.contains(want), "{key}={value}: {err}");
        };
        for (json, last) in [(&gbt, 3), (&forest, 1)] {
            for (key, value, want) in [
                ("nodes", "[]", "has no nodes"),
                ("left", "0", "node 0: left child 0 is reached twice"),
                ("right", "1", "node 0: right child 1 is reached twice"),
                ("right", "3", "node 0: right child 3 out of range"),
                ("feature", "2", "node 0: split feature 2 out of range"),
            ] {
                refused(json, key, value, &format!("tree {last} {want}"));
            }
            // Out of f64 range: the JSON parser or the lowering refuses it.
            refused(json, "threshold", "1e999", "");
        }
        let narrow = "tree 1 node 2: leaf holds 1 values, expected 2";
        let wide = "tree 3 node 2: leaf holds 2 values, expected 1";
        refused(&gbt, "Leaf", "[1.0,2.0]", wide);
        refused(&gbt, "base_scores", "[0.5]", "2 booster chains but 1 base");
        refused(&forest, "Leaf", "[1.0]", narrow);
        refused(
            &forest,
            "n_outputs",
            "3",
            "tree 0 node 1: leaf holds 2 values",
        );
    }
}
