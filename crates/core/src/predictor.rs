//! The deployable predictor: profile in, RPV out.
//!
//! Packages a trained model with its fitted normaliser so inference uses
//! exactly the training-time feature transform. Serialisable to JSON —
//! the paper's "model is exported and used in downstream relative
//! performance prediction tasks such as cross-architecture scheduling".
//!
//! Tree-ensemble predictors serve from the quantized bin-indexed
//! inference engine (`mphpc_ml::quantized`): the model lowers itself
//! into integer struct-of-arrays form on its first prediction, or in
//! [`PerfPredictor::from_json`] when it is loaded — the engine is derived
//! data that is never part of the JSON, and lowering is where
//! structurally invalid trees are refused — and every later
//! [`PerfPredictor::predict_rpv`] / [`PerfPredictor::predict_features`]
//! call reuses it. Single-row calls take the interleaved-pack path;
//! both are bit-identical to the reference traversal.

use mphpc_dataset::features::{derive_features, FEATURE_NAMES};
use mphpc_dataset::Normalizer;
use mphpc_errors::MphpcError;
use mphpc_ml::{Matrix, Regressor, TrainedModel};
use mphpc_profiler::RawProfile;
use serde::{Deserialize, Serialize};

/// A trained cross-architecture performance predictor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfPredictor {
    model: TrainedModel,
    normalizer: Normalizer,
}

impl PerfPredictor {
    /// Package a trained model with its normaliser.
    pub fn new(model: TrainedModel, normalizer: Normalizer) -> Self {
        Self { model, normalizer }
    }

    /// Predict the RPV (relative runtimes across the four Table-I systems,
    /// relative to the profile's own system) for one profile.
    pub fn predict_rpv(&self, profile: &RawProfile) -> Result<[f64; 4], MphpcError> {
        let mut features = derive_features(profile);
        self.normalizer
            .transform_row(&FEATURE_NAMES, &mut features)?;
        let x = Matrix::from_vec(features.to_vec(), 1, FEATURE_NAMES.len());
        let y = self.model.predict(&x)?;
        Ok([y.get(0, 0), y.get(0, 1), y.get(0, 2), y.get(0, 3)])
    }

    /// Predict RPVs for a batch of pre-derived raw feature rows.
    pub fn predict_features(&self, raw_rows: &[[f64; 21]]) -> Result<Vec<[f64; 4]>, MphpcError> {
        let mut data = Vec::with_capacity(raw_rows.len() * FEATURE_NAMES.len());
        for row in raw_rows {
            let mut r = *row;
            self.normalizer.transform_row(&FEATURE_NAMES, &mut r)?;
            data.extend_from_slice(&r);
        }
        let x = Matrix::from_vec(data, raw_rows.len(), FEATURE_NAMES.len());
        let y = self.model.predict(&x)?;
        Ok((0..raw_rows.len())
            .map(|i| [y.get(i, 0), y.get(i, 1), y.get(i, 2), y.get(i, 3)])
            .collect())
    }

    /// The wrapped model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The fitted feature normaliser (frozen at training time; warm
    /// starts must reuse it so the existing trees keep seeing the same
    /// feature transform).
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Export to JSON.
    pub fn to_json(&self) -> Result<String, MphpcError> {
        serde_json::to_string(self).map_err(MphpcError::serde)
    }

    /// Load from JSON.
    ///
    /// One probe row is predicted before the predictor is handed out:
    /// that lowers a tree ensemble now, so structurally invalid trees are
    /// an error here instead of a panic in whichever thread predicts
    /// first, and it checks the 21-features-in / 4-outputs-out shape that
    /// [`PerfPredictor::predict_rpv`] and
    /// [`PerfPredictor::predict_features`] index without looking.
    pub fn from_json(json: &str) -> Result<Self, MphpcError> {
        let predictor: Self = serde_json::from_str(json).map_err(MphpcError::serde)?;
        let probe = Matrix::zeros(1, FEATURE_NAMES.len());
        let outputs = predictor.model.predict(&probe)?.cols();
        if outputs != 4 {
            return Err(MphpcError::DimensionMismatch {
                context: "PerfPredictor::from_json: RPV outputs",
                expected: 4,
                found: outputs,
            });
        }
        Ok(predictor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{collect, profile_one, train_predictor, CollectionConfig};
    use mphpc_archsim::SystemId;
    use mphpc_ml::ModelKind;
    use mphpc_workloads::{AppKind, Scale};

    #[test]
    fn json_round_trip_preserves_predictions() {
        let d = collect(&CollectionConfig::small(2, 2, 1, 21)).unwrap();
        let p = train_predictor(&d, ModelKind::Linear(Default::default()), 1).unwrap();
        let back = PerfPredictor::from_json(&p.to_json().unwrap()).unwrap();
        let profile =
            profile_one(AppKind::Amg, "-s 2", Scale::OneCore, SystemId::Quartz, 5).unwrap();
        assert_eq!(
            p.predict_rpv(&profile).unwrap(),
            back.predict_rpv(&profile).unwrap()
        );
        assert!(PerfPredictor::from_json("{").is_err());
    }

    #[test]
    fn from_json_rejects_models_of_another_shape() {
        // Such models would index out of `predict_rpv`'s 21-in / 4-out
        // contract: too few features, then too few outputs. (Invalid trees
        // are refused by the same probe: `mphpc-serve`'s robustness test
        // uploads one through this function.)
        use mphpc_ml::MlDataset;
        let d = collect(&CollectionConfig::small(2, 2, 1, 24)).unwrap();
        let p = train_predictor(&d, ModelKind::Mean, 1).unwrap();
        let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0], vec![2.0, 2.0]]);
        let names = vec!["a".to_string(), "b".to_string()];
        let narrow = MlDataset::new(x.clone(), Matrix::zeros(3, 4), names.clone()).unwrap();
        let short = MlDataset::new(x, Matrix::zeros(3, 2), names).unwrap();
        for (model, what) in [
            (
                ModelKind::Linear(Default::default()).fit(&narrow),
                "features",
            ),
            (ModelKind::Mean.fit(&short), "outputs"),
        ] {
            let odd = PerfPredictor::new(model.unwrap(), p.normalizer().clone());
            let err = PerfPredictor::from_json(&odd.to_json().unwrap()).unwrap_err();
            assert!(
                matches!(err.root_cause(), MphpcError::DimensionMismatch { .. }),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn batch_and_single_predictions_agree() {
        let d = collect(&CollectionConfig::small(2, 2, 1, 22)).unwrap();
        let p = train_predictor(&d, ModelKind::Gbt(Default::default()), 1).unwrap();
        let profile =
            profile_one(AppKind::CoMd, "-s 2", Scale::OneNode, SystemId::Lassen, 5).unwrap();
        let single = p.predict_rpv(&profile).unwrap();
        let features = mphpc_dataset::features::derive_features(&profile);
        let batch = p.predict_features(&[features]).unwrap();
        assert_eq!(single, batch[0]);
    }

    #[test]
    fn deserialised_predictor_compiles_and_matches_reference() {
        // The lower-after-deserialise path: a predictor loaded from
        // JSON carries no engine, lowers its trees again at load, and
        // must agree bit-for-bit with the reference traversal of the
        // original model — for both tree-ensemble families, at several
        // worker counts.
        let d = collect(&CollectionConfig::small(3, 2, 1, 23)).unwrap();
        let seeds: Vec<[f64; 21]> = [
            (AppKind::Amg, "-s 2", Scale::OneCore, SystemId::Quartz),
            (AppKind::CoMd, "-s 2", Scale::OneNode, SystemId::Lassen),
            (AppKind::Amg, "-s 3", Scale::TwoNodes, SystemId::Corona),
        ]
        .into_iter()
        .map(|(app, input, scale, sys)| {
            let profile = profile_one(app, input, scale, sys, 7).unwrap();
            mphpc_dataset::features::derive_features(&profile)
        })
        .collect();
        // Tile the probes past one traversal block so the parallel batch
        // path (not just the inline small-batch path) is exercised.
        let probe: Vec<[f64; 21]> = seeds.iter().cycle().take(200).copied().collect();
        for kind in [
            ModelKind::Gbt(Default::default()),
            ModelKind::Forest(Default::default()),
        ] {
            let p = train_predictor(&d, kind, 1).unwrap();
            let back = PerfPredictor::from_json(&p.to_json().unwrap()).unwrap();
            assert_eq!(p, back, "round trip must preserve the model");
            // Reference oracle: the original model's per-row enum-tree
            // traversal over the normalised feature matrix.
            let mut data = Vec::with_capacity(probe.len() * FEATURE_NAMES.len());
            for row in &probe {
                let mut r = *row;
                p.normalizer.transform_row(&FEATURE_NAMES, &mut r).unwrap();
                data.extend_from_slice(&r);
            }
            let x = Matrix::from_vec(data, probe.len(), FEATURE_NAMES.len());
            let reference = p.model().predict_reference(&x).unwrap();
            let expected_rpvs = p.predict_features(&probe).unwrap();
            for threads in [1usize, 2, 8] {
                mphpc_par::set_thread_override(Some(threads));
                assert_eq!(
                    back.model().predict(&x).unwrap(),
                    reference,
                    "{} lowered-after-deserialise vs reference at {threads} threads",
                    kind.name()
                );
                assert_eq!(
                    back.predict_features(&probe).unwrap(),
                    expected_rpvs,
                    "{} predict_features at {threads} threads",
                    kind.name()
                );
            }
            mphpc_par::set_thread_override(None);
            // Single-row serving path: each distinct probe through the
            // quantized interleaved-pack kernel must match its batched
            // counterpart exactly.
            for (i, row) in probe.iter().take(seeds.len()).enumerate() {
                assert_eq!(
                    back.predict_features(std::slice::from_ref(row)).unwrap()[0],
                    expected_rpvs[i],
                    "{} single-row vs batch for probe {i}",
                    kind.name()
                );
            }
        }
    }
}
