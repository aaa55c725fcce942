//! Feature selection and top-k retraining (§VI-B).
//!
//! "To select the best model and feature set, we first train all the models
//! on all the features. After training we select the best set of features
//! using those reported by XGBoost and the decision forest ... These
//! features are then used to re-train all the models again."

use crate::pipeline::split_to_ml;
use mphpc_dataset::split::random_split;
use mphpc_dataset::MpHpcDataset;
use mphpc_errors::{MphpcError, ResultExt};
use mphpc_ml::{mae, same_order_score, FeatureImportance, ModelKind, Regressor};
use serde::{Deserialize, Serialize};

/// One row of the selection study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionEntry {
    /// Model family.
    pub model: String,
    /// Test MAE with all 21 features.
    pub mae_all_features: f64,
    /// Test MAE after top-k selection.
    pub mae_selected: f64,
    /// Test SOS with all features.
    pub sos_all_features: f64,
    /// Test SOS after selection.
    pub sos_selected: f64,
}

/// The study's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionReport {
    /// Names of the selected features, in importance order.
    pub selected_features: Vec<String>,
    /// XGBoost's full importance ranking (Fig. 6's data).
    pub importance: FeatureImportance,
    /// Per-model before/after metrics.
    pub entries: Vec<SelectionEntry>,
}

/// Run the §VI-B study: train everything on all features, rank features by
/// the union of XGBoost's and the forest's gain importances, keep the top
/// `k`, and retrain everything on the reduced set.
pub fn feature_selection_study(
    dataset: &MpHpcDataset,
    k: usize,
    seed: u64,
) -> Result<SelectionReport, MphpcError> {
    if dataset.n_rows() < 20 {
        return Err(MphpcError::InvalidDataset(format!(
            "feature_selection_study needs at least 20 rows, got {}",
            dataset.n_rows()
        )));
    }
    let (train_rows, test_rows) = random_split(dataset, 0.1, seed)?;
    let (train, test) = split_to_ml(dataset, &train_rows, &test_rows)?;

    let kinds = ModelKind::paper_lineup();
    // Full-feature pass.
    let full_models: Vec<_> = kinds
        .iter()
        .map(|kind| {
            kind.fit(&train)
                .context(format!("fitting {} on all features", kind.name()))
        })
        .collect::<Result<_, MphpcError>>()?;

    // Importances from the tree ensembles; average the two rankings.
    let gbt_imp = full_models
        .iter()
        .find_map(|m| match m {
            mphpc_ml::TrainedModel::Gbt(_) => m.feature_importance(),
            _ => None,
        })
        .ok_or_else(|| MphpcError::InvalidDataset("lineup must include XGBoost".into()))?;
    let forest_imp = full_models
        .iter()
        .find_map(|m| match m {
            mphpc_ml::TrainedModel::Forest(_) => m.feature_importance(),
            _ => None,
        })
        .ok_or_else(|| {
            MphpcError::InvalidDataset("lineup must include the decision forest".into())
        })?;
    let combined: Vec<f64> = gbt_imp
        .scores
        .iter()
        .zip(&forest_imp.scores)
        .map(|(a, b)| (a + b) / 2.0)
        .collect();
    let mut order: Vec<usize> = (0..combined.len()).collect();
    order.sort_by(|&a, &b| {
        combined[b]
            .partial_cmp(&combined[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let k = k.clamp(1, order.len());
    let mut selected: Vec<usize> = order[..k].to_vec();
    selected.sort_unstable();

    let train_sel = train.select_features(&selected);
    let test_sel = test.select_features(&selected);

    let mut entries = Vec::with_capacity(kinds.len());
    for (kind, full_model) in kinds.iter().zip(&full_models) {
        let full_pred = full_model.predict(&test.x)?;
        let sel_model = kind
            .fit(&train_sel)
            .context(format!("refitting {} on selected features", kind.name()))?;
        let sel_pred = sel_model.predict(&test_sel.x)?;
        entries.push(SelectionEntry {
            model: kind.name().to_string(),
            mae_all_features: mae(&full_pred, &test.y)?,
            mae_selected: mae(&sel_pred, &test_sel.y)?,
            sos_all_features: same_order_score(&full_pred, &test.y)?,
            sos_selected: same_order_score(&sel_pred, &test_sel.y)?,
        });
    }

    Ok(SelectionReport {
        selected_features: selected
            .iter()
            .map(|&i| train.feature_names[i].clone())
            .collect(),
        importance: gbt_imp,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{collect, CollectionConfig};

    #[test]
    fn study_selects_and_retrains() {
        let d = collect(&CollectionConfig::small(4, 2, 2, 41)).unwrap();
        let report = feature_selection_study(&d, 10, 5).unwrap();
        assert_eq!(report.selected_features.len(), 10);
        assert_eq!(report.entries.len(), 4);
        assert_eq!(report.importance.names.len(), 21);
        // Selected features exist in the feature list.
        for f in &report.selected_features {
            assert!(report.importance.names.contains(f), "{f}");
        }
        // Selection should not catastrophically hurt the tree models.
        let gbt = report
            .entries
            .iter()
            .find(|e| e.model == "XGBoost")
            .unwrap();
        assert!(gbt.mae_selected < gbt.mae_all_features * 2.5 + 0.05);
    }

    #[test]
    fn k_is_clamped() {
        let d = collect(&CollectionConfig::small(3, 2, 1, 43)).unwrap();
        let report = feature_selection_study(&d, 500, 1).unwrap();
        assert_eq!(report.selected_features.len(), 21);
    }

    #[test]
    fn tiny_dataset_rejected() {
        let d = collect(&CollectionConfig::small(1, 1, 1, 44)).unwrap();
        assert!(feature_selection_study(&d, 5, 1).is_err());
    }
}
