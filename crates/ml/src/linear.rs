//! Multi-output ridge regression (the paper's linear-regression baseline).
//!
//! Features are standardised and targets centred internally; weights are
//! obtained from the normal equations `(XᵀX + λI)·W = XᵀY` via Cholesky.

use crate::data::{check_feature_count, validate_training_data, MlDataset};
use crate::matrix::Matrix;
use mphpc_errors::MphpcError;
use serde::{Deserialize, Serialize};

/// Ridge hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearParams {
    /// L2 penalty λ (0 = ordinary least squares; a small positive value
    /// keeps the Gram matrix positive definite with one-hot features).
    pub ridge: f64,
}

impl Default for LinearParams {
    fn default() -> Self {
        Self { ridge: 1e-3 }
    }
}

/// A trained ridge model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearRegressor {
    /// Hyper-parameters the model was fit with, kept so an online refresh
    /// (which refits closed-form models from scratch) reuses the same λ.
    #[serde(default)]
    params: LinearParams,
    /// `p × k` weights over standardised features.
    weights: Matrix,
    /// Per-feature standardisation mean.
    x_mean: Vec<f64>,
    /// Per-feature standardisation scale (1 for constant features).
    x_scale: Vec<f64>,
    /// Per-output intercepts (target means).
    y_mean: Vec<f64>,
}

impl LinearRegressor {
    /// Train on a dataset.
    pub fn fit(dataset: &MlDataset, params: LinearParams) -> Result<Self, MphpcError> {
        validate_training_data(dataset, "LinearRegressor::fit")?;
        let n = dataset.n_samples();
        let p = dataset.n_features();
        let k = dataset.n_outputs();

        let mut x_mean = vec![0.0; p];
        let mut x_scale = vec![0.0; p];
        for j in 0..p {
            let col = dataset.x.col(j);
            let m = col.iter().sum::<f64>() / n as f64;
            let var = col.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / n as f64;
            x_mean[j] = m;
            x_scale[j] = if var.sqrt() > 1e-12 { var.sqrt() } else { 1.0 };
        }
        let y_mean: Vec<f64> = (0..k)
            .map(|j| dataset.y.col(j).iter().sum::<f64>() / n as f64)
            .collect();

        let mut xs = Matrix::zeros(n, p);
        for i in 0..n {
            let row = dataset.x.row(i);
            for j in 0..p {
                xs.set(i, j, (row[j] - x_mean[j]) / x_scale[j]);
            }
        }
        let mut yc = Matrix::zeros(n, k);
        for i in 0..n {
            let row = dataset.y.row(i);
            for j in 0..k {
                yc.set(i, j, row[j] - y_mean[j]);
            }
        }

        let gram = xs.gram_ridge(params.ridge.max(1e-9));
        let xty = xs.t_mul(&yc);
        let weights = gram.solve_spd(&xty).ok_or_else(|| MphpcError::NonFinite {
            context: "LinearRegressor::fit: ridge-regularised Gram matrix is not SPD".into(),
        })?;

        Ok(Self {
            params,
            weights,
            x_mean,
            x_scale,
            y_mean,
        })
    }

    /// Hyper-parameters the model was fit with.
    pub fn params(&self) -> &LinearParams {
        &self.params
    }

    /// Predict the target matrix for a feature matrix.
    pub fn predict(&self, x: &Matrix) -> Result<Matrix, MphpcError> {
        let p = self.x_mean.len();
        let k = self.y_mean.len();
        check_feature_count("LinearRegressor::predict", p, x)?;
        let mut out = Matrix::zeros(x.rows(), k);
        for i in 0..x.rows() {
            let row = x.row(i);
            for j in 0..k {
                let mut v = self.y_mean[j];
                for (f, &xf) in row.iter().enumerate() {
                    let z = (xf - self.x_mean[f]) / self.x_scale[f];
                    v += z * self.weights.get(f, j);
                }
                out.set(i, j, v);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mae;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn linear_data(n: usize, seed: u64) -> MlDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xr = Vec::with_capacity(n);
        let mut yr = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-2.0..2.0);
            let b: f64 = rng.gen_range(-2.0..2.0);
            xr.push(vec![a, b]);
            yr.push(vec![3.0 * a - b + 0.5, a + 2.0 * b - 1.0]);
        }
        MlDataset::new(
            Matrix::from_rows(&xr),
            Matrix::from_rows(&yr),
            vec!["a".into(), "b".into()],
        )
        .unwrap()
    }

    #[test]
    fn recovers_exact_linear_relationship() {
        let train = linear_data(500, 1);
        let test = linear_data(100, 2);
        let model = LinearRegressor::fit(&train, LinearParams::default()).unwrap();
        let err = mae(&model.predict(&test.x).unwrap(), &test.y).unwrap();
        assert!(err < 1e-3, "exact linear data, MAE {err}");
    }

    #[test]
    fn handles_constant_features() {
        let x = Matrix::from_rows(&[vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]]);
        let y = Matrix::from_rows(&[vec![2.0], vec![4.0], vec![6.0]]);
        let d = MlDataset::new(x, y, vec!["v".into(), "const".into()]).unwrap();
        let model = LinearRegressor::fit(&d, LinearParams { ridge: 1e-9 }).unwrap();
        let pred = model.predict(&d.x).unwrap();
        for i in 0..3 {
            assert!((pred.get(i, 0) - d.y.get(i, 0)).abs() < 1e-6);
        }
    }

    #[test]
    fn heavy_ridge_shrinks_towards_mean() {
        let train = linear_data(200, 3);
        let soft = LinearRegressor::fit(&train, LinearParams { ridge: 1e-3 }).unwrap();
        let hard = LinearRegressor::fit(&train, LinearParams { ridge: 1e9 }).unwrap();
        let probe = Matrix::from_rows(&[vec![2.0, -2.0]]);
        let mean0 = train.y.col(0).iter().sum::<f64>() / train.n_samples() as f64;
        let p_soft = soft.predict(&probe).unwrap().get(0, 0);
        let p_hard = hard.predict(&probe).unwrap().get(0, 0);
        assert!((p_hard - mean0).abs() < (p_soft - mean0).abs());
    }

    #[test]
    fn predict_shape_checked() {
        let train = linear_data(50, 5);
        let model = LinearRegressor::fit(&train, LinearParams::default()).unwrap();
        let err = model.predict(&Matrix::zeros(1, 3)).unwrap_err();
        assert!(matches!(
            err,
            MphpcError::DimensionMismatch {
                expected: 2,
                found: 3,
                ..
            }
        ));
    }
}
