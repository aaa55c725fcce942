//! Train/test splitting and k-fold cross-validation (§VI-A: 90-10 split
//! with 5-fold CV inside the training portion).
//!
//! `kfold` caps `k` at the sample count so no fold ever has an empty test
//! side, and refuses datasets with fewer than two rows — combined with the
//! metrics layer rejecting empty inputs, a degenerate fold is now a typed
//! error instead of a silently "perfect" score of 0.0.

use crate::data::MlDataset;
use crate::metrics::{mae, same_order_score};
use crate::model::{ModelKind, Regressor};
use mphpc_errors::{MphpcError, ResultExt};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A seeded random permutation split into train/test index sets.
pub fn train_test_split(n: usize, test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let n_test = ((n as f64 * test_fraction).round() as usize)
        .clamp(usize::from(n > 1), n.saturating_sub(1));
    let test = idx.split_off(n - n_test);
    (idx, test)
}

/// K non-overlapping folds covering `0..n` (sizes differ by at most 1).
///
/// `k` is capped at `n` so every fold's test side is non-empty; fewer than
/// two samples cannot be cross-validated at all and is an error.
pub fn kfold(n: usize, k: usize, seed: u64) -> Result<Vec<(Vec<usize>, Vec<usize>)>, MphpcError> {
    if n < 2 {
        return Err(MphpcError::InvalidDataset(format!(
            "k-fold cross-validation needs at least 2 samples, got {n}"
        )));
    }
    let k = k.clamp(2, n);
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &row) in idx.iter().enumerate() {
        folds[i % k].push(row);
    }
    Ok((0..k)
        .map(|f| {
            let test = folds[f].clone();
            let train: Vec<usize> = (0..k)
                .filter(|&g| g != f)
                .flat_map(|g| folds[g].iter().copied())
                .collect();
            (train, test)
        })
        .collect())
}

/// Per-fold and aggregate metrics of a cross-validation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CvReport {
    /// MAE per fold.
    pub fold_mae: Vec<f64>,
    /// SOS per fold.
    pub fold_sos: Vec<f64>,
    /// Mean MAE across folds.
    pub mean_mae: f64,
    /// Mean SOS across folds.
    pub mean_sos: f64,
}

/// Cross-validate a model family on a dataset; folds train in parallel.
/// Fold evaluation predicts through the inference engine
/// ([`crate::quantized`]) for tree families, so held-out scoring is
/// batch traversal rather than per-row pointer chasing.
pub fn cross_validate(
    kind: ModelKind,
    dataset: &MlDataset,
    k: usize,
    seed: u64,
) -> Result<CvReport, MphpcError> {
    let folds = kfold(dataset.n_samples(), k, seed)?;
    let results: Vec<Result<(f64, f64), MphpcError>> =
        mphpc_par::par_map(&folds, |fold, (train_idx, test_idx)| {
            let train = dataset.take(train_idx);
            let test = dataset.take(test_idx);
            let model = kind.fit(&train).context(format!("fitting fold {fold}"))?;
            let pred = model.predict(&test.x)?;
            Ok((mae(&pred, &test.y)?, same_order_score(&pred, &test.y)?))
        });
    let results: Vec<(f64, f64)> = results
        .into_iter()
        .collect::<Result<_, _>>()
        .context("cross-validation")?;
    let fold_mae: Vec<f64> = results.iter().map(|r| r.0).collect();
    let fold_sos: Vec<f64> = results.iter().map(|r| r.1).collect();
    let mean_mae = fold_mae.iter().sum::<f64>() / fold_mae.len() as f64;
    let mean_sos = fold_sos.iter().sum::<f64>() / fold_sos.len() as f64;
    Ok(CvReport {
        fold_mae,
        fold_sos,
        mean_mae,
        mean_sos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::Rng;

    #[test]
    fn split_is_disjoint_and_complete() {
        let (train, test) = train_test_split(100, 0.1, 7);
        assert_eq!(test.len(), 10);
        assert_eq!(train.len(), 90);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_deterministic_per_seed() {
        assert_eq!(train_test_split(50, 0.2, 1), train_test_split(50, 0.2, 1));
        assert_ne!(
            train_test_split(50, 0.2, 1).1,
            train_test_split(50, 0.2, 2).1
        );
    }

    #[test]
    fn split_never_empties_either_side() {
        let (train, test) = train_test_split(5, 0.999, 3);
        assert!(!train.is_empty());
        assert!(!test.is_empty());
        let (train2, test2) = train_test_split(5, 0.0001, 3);
        assert!(!train2.is_empty());
        assert!(!test2.is_empty());
    }

    #[test]
    fn kfold_partitions_exactly() {
        let folds = kfold(103, 5, 11).unwrap();
        assert_eq!(folds.len(), 5);
        let mut seen = vec![0u32; 103];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 103);
            for &t in test {
                seen[t] += 1;
            }
            let test_set: std::collections::HashSet<_> = test.iter().collect();
            assert!(train.iter().all(|i| !test_set.contains(i)));
        }
        assert!(seen.iter().all(|&c| c == 1), "each row tests exactly once");
    }

    #[test]
    fn kfold_caps_k_at_n() {
        // n < k: every fold must still have a non-empty test side.
        let folds = kfold(3, 10, 5).unwrap();
        assert_eq!(folds.len(), 3);
        for (train, test) in &folds {
            assert_eq!(test.len(), 1, "no empty test folds");
            assert_eq!(train.len(), 2);
        }
    }

    #[test]
    fn kfold_rejects_degenerate_n() {
        assert!(kfold(0, 5, 1).is_err());
        assert!(kfold(1, 5, 1).is_err());
    }

    #[test]
    fn cross_validation_reports_sane_metrics() {
        let mut rng = StdRng::seed_from_u64(4);
        let rows: Vec<Vec<f64>> = (0..300).map(|_| vec![rng.gen_range(-1.0..1.0)]).collect();
        let ys: Vec<Vec<f64>> = rows.iter().map(|r| vec![r[0], 2.0 * r[0]]).collect();
        let d = MlDataset::new(
            Matrix::from_rows(&rows),
            Matrix::from_rows(&ys),
            vec!["x".into()],
        )
        .unwrap();
        let report = cross_validate(ModelKind::Linear(Default::default()), &d, 5, 9).unwrap();
        assert_eq!(report.fold_mae.len(), 5);
        assert!(
            report.mean_mae < 1e-4,
            "exact linear fit: {}",
            report.mean_mae
        );
        assert!(report.mean_sos > 0.99);
    }

    #[test]
    fn cross_validation_with_n_below_k_still_covers_every_row() {
        let rows: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let ys: Vec<Vec<f64>> = rows.iter().map(|r| vec![r[0], 1.0 - r[0]]).collect();
        let d = MlDataset::new(
            Matrix::from_rows(&rows),
            Matrix::from_rows(&ys),
            vec!["x".into()],
        )
        .unwrap();
        // k = 10 > n = 4: capped to 4 leave-one-out folds, no vacuous 0.0s.
        let report = cross_validate(ModelKind::Mean, &d, 10, 3).unwrap();
        assert_eq!(report.fold_mae.len(), 4);
        assert!(report.fold_mae.iter().all(|&m| m > 0.0));
    }

    #[test]
    fn cross_validation_rejects_single_sample() {
        let d = MlDataset::new(
            Matrix::from_rows(&[vec![1.0]]),
            Matrix::from_rows(&[vec![1.0]]),
            vec!["x".into()],
        )
        .unwrap();
        assert!(cross_validate(ModelKind::Mean, &d, 5, 1).is_err());
    }
}
