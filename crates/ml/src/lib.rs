//! From-scratch machine-learning substrate for relative-performance-vector
//! regression.
//!
//! The paper trains an **XGBoost** regressor and compares it against linear
//! regression, a decision forest, and a mean predictor (Fig. 2). This crate
//! implements all four:
//!
//! * [`gbt`] — second-order gradient tree boosting in the XGBoost
//!   formulation: regularised objective `Σ l(ŷ,y) + γT + ½λ‖w‖²`,
//!   histogram-based exact-greedy splits over quantile bins ([`binning`])
//!   via the pooled single-pass histogram engine with sibling subtraction
//!   ([`hist`]), shrinkage, row/column subsampling, leaf-routed
//!   prediction updates, and gain-based feature importance
//!   ([`importance`]) exactly as §VI-B describes (average gain across
//!   splits, averaged over the vector outputs).
//! * [`forest`] — bagged multi-output CART trees with variance-reduction
//!   splits (the scikit-learn `RandomForestRegressor` stand-in).
//! * [`linear`] — multi-output ridge regression via normal equations and
//!   Cholesky factorisation ([`matrix`]).
//! * [`mean`] — predicts the training-set mean RPV (the paper's baseline).
//!
//! Supporting machinery: [`metrics`] (MAE, MSE, R², and the paper's
//! Same-Order Score), [`cv`] (seeded train/test splits and k-fold
//! cross-validation, parallelised with `mphpc-par`), [`model`] (a
//! common [`model::Regressor`] trait plus a serialisable [`model::TrainedModel`]
//! for export to the scheduler, as §VI-A's "model is exported" step),
//! and [`quantized`] (the one inference engine both tree ensembles lower
//! into lazily, in a single checked pass: flat struct-of-arrays nodes,
//! thresholds re-indexed as integer bin ids, rows pre-binned once,
//! blocked parallel batches with branchless 8-lane traversal, and
//! interleaved tree packing for single-row latency — bit-identical to
//! the reference traversal).
//!
//! Everything is deterministic given seeds and free of external ML
//! dependencies.

#![warn(missing_docs)]

pub mod binning;
pub mod cv;
pub mod data;
pub mod forest;
pub mod gbt;
pub mod hist;
pub mod importance;
pub mod linear;
pub mod matrix;
pub mod mean;
pub mod metrics;
pub mod model;
pub mod quantized;
pub mod tree;

pub use data::MlDataset;
pub use forest::{ForestParams, ForestRegressor};
pub use gbt::{GbtParams, GbtRegressor};
pub use importance::FeatureImportance;
pub use linear::{LinearParams, LinearRegressor};
pub use matrix::Matrix;
pub use mean::MeanRegressor;
pub use metrics::{mae, mse, r2, r2_per_output, same_order_score};
pub use model::{ModelKind, Regressor, TrainedModel};
pub use quantized::QuantizedEnsemble;
pub use tree::TreeParams;
