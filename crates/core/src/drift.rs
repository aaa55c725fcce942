//! Streaming drift detection over the serving feature distribution
//! (DESIGN.md §16).
//!
//! The online-learning loop needs a cheap, deterministic answer to "has
//! the traffic the model serves moved away from the data it was trained
//! on?". This module freezes a [`DriftReference`] from a training
//! feature matrix — per-feature mean, standard deviation, and 31
//! interior quantile edges (32 equal-mass buckets) — then streams
//! serving rows through a [`DriftDetector`] that maintains per-feature
//! Welford mean/variance and bucket counts over a fixed-size window.
//! At each window boundary three tests run per feature:
//!
//! * **mean shift** — `|mean_w − mean_ref| > mean_sigmas · σ_ref`;
//! * **variance ratio** — `var_w / var_ref` outside `[1/r, r]`;
//! * **quantile distance** — the max CDF difference at the reference
//!   bucket edges (a binned Kolmogorov–Smirnov statistic) above
//!   `max_cdf_diff`.
//!
//! A fourth, distribution-free channel counts serving errors reported
//! via [`DriftDetector::note_serving_errors`]: any window with at least
//! `error_threshold` of them fires regardless of feature statistics.
//!
//! Thresholds default to values far outside sampling noise at the
//! default 256-row window (the stationary proptest drives 10k windows
//! without a single firing), while firing reliably on a 1σ mean shift,
//! a ×3 variance change, or a same-mean/same-variance shape change.
//! All state is serde round-trippable so a restarted watch daemon
//! resumes mid-window.

use mphpc_errors::MphpcError;
use mphpc_ml::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Equal-mass histogram buckets per feature (edges = `BUCKETS − 1`).
pub const BUCKETS: usize = 32;

/// Drift thresholds and window size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Rows per evaluation window.
    pub window: usize,
    /// Mean-shift trigger, in units of the reference σ.
    pub mean_sigmas: f64,
    /// Variance-ratio trigger: fire outside `[1/var_ratio, var_ratio]`.
    pub var_ratio: f64,
    /// Binned-KS trigger: max CDF difference at the reference edges.
    pub max_cdf_diff: f64,
    /// Serving errors within one window at which the error channel
    /// fires.
    pub error_threshold: u64,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            window: 256,
            mean_sigmas: 0.75,
            var_ratio: 2.0,
            max_cdf_diff: 0.2,
            error_threshold: 1,
        }
    }
}

/// Frozen per-feature statistics of the training distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureReference {
    /// Training mean.
    pub mean: f64,
    /// Training standard deviation (population).
    pub std: f64,
    /// 31 interior quantile edges, ascending (ties allowed for discrete
    /// features).
    pub edges: Vec<f64>,
    /// Empirical training CDF at each edge (fraction of values ≤ edge).
    pub cdf: Vec<f64>,
}

/// The frozen training distribution, one entry per feature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReference {
    features: Vec<FeatureReference>,
}

impl DriftReference {
    /// Freeze a reference from a training feature matrix.
    pub fn fit(x: &Matrix) -> Result<DriftReference, MphpcError> {
        let n = x.rows();
        if n < BUCKETS {
            return Err(MphpcError::InvalidArgument(format!(
                "drift reference needs at least {BUCKETS} rows, got {n}"
            )));
        }
        let mut features = Vec::with_capacity(x.cols());
        for j in 0..x.cols() {
            let col = x.col(j);
            if col.iter().any(|v| !v.is_finite()) {
                return Err(MphpcError::NonFinite {
                    context: format!("drift reference feature {j}"),
                });
            }
            let mean = col.iter().sum::<f64>() / n as f64;
            let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
            let mut sorted = col.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let mut edges = Vec::with_capacity(BUCKETS - 1);
            for b in 1..BUCKETS {
                let idx = (b * n / BUCKETS).min(n - 1);
                edges.push(sorted[idx]);
            }
            let cdf = edges
                .iter()
                .map(|e| sorted.partition_point(|v| v <= e) as f64 / n as f64)
                .collect();
            features.push(FeatureReference {
                mean,
                std: var.sqrt(),
                edges,
                cdf,
            });
        }
        Ok(DriftReference { features })
    }

    /// Features the reference was fit on.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Per-feature statistics.
    pub fn features(&self) -> &[FeatureReference] {
        &self.features
    }
}

/// Per-feature streaming window state: Welford accumulator + bucket
/// counts against the reference edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WindowAccum {
    count: u64,
    mean: f64,
    m2: f64,
    buckets: Vec<u64>,
}

impl WindowAccum {
    fn new() -> WindowAccum {
        WindowAccum {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            buckets: vec![0; BUCKETS],
        }
    }

    fn push(&mut self, value: f64, edges: &[f64]) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        // Bucket index = number of edges < value, so "value ≤ edge[j]"
        // ⇔ "bucket ≤ j" and cumulative bucket counts at edge j equal
        // the window's empirical CDF there.
        let bucket = edges.partition_point(|e| *e < value);
        self.buckets[bucket] += 1;
    }
}

/// One feature's window-boundary evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureDrift {
    /// Feature index.
    pub feature: usize,
    /// `|mean_w − mean_ref| / σ_ref`.
    pub mean_shift_sigmas: f64,
    /// `var_w / var_ref` (∞ when the reference is constant but the
    /// window is not).
    pub var_ratio: f64,
    /// Max CDF difference at the reference edges.
    pub max_cdf_diff: f64,
    /// Which tests fired.
    pub mean_fired: bool,
    /// Variance-ratio test fired.
    pub var_fired: bool,
    /// Quantile-distance test fired.
    pub cdf_fired: bool,
}

impl FeatureDrift {
    /// True when any of the three tests fired.
    pub fn fired(&self) -> bool {
        self.mean_fired || self.var_fired || self.cdf_fired
    }
}

/// One window-boundary report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// 1-based index of the evaluated window.
    pub window_index: u64,
    /// Rows in the window (always `config.window`).
    pub rows: u64,
    /// Serving errors noted during the window.
    pub errors: u64,
    /// The error channel fired.
    pub error_spike: bool,
    /// Per-feature evaluations.
    pub features: Vec<FeatureDrift>,
}

impl DriftReport {
    /// True when any channel (feature statistics or serving errors)
    /// fired — the watch loop's retrain trigger.
    pub fn drifted(&self) -> bool {
        self.error_spike || self.features.iter().any(FeatureDrift::fired)
    }

    /// Indices of features whose statistics fired.
    pub fn drifted_features(&self) -> Vec<usize> {
        self.features
            .iter()
            .filter(|f| f.fired())
            .map(|f| f.feature)
            .collect()
    }
}

/// Streaming drift detector: feed serving rows, get a [`DriftReport`]
/// at every window boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftDetector {
    config: DriftConfig,
    reference: DriftReference,
    window: Vec<WindowAccum>,
    rows_in_window: u64,
    errors_in_window: u64,
    windows_evaluated: u64,
}

impl DriftDetector {
    /// A detector streaming against `reference` with `config`
    /// thresholds.
    pub fn new(reference: DriftReference, config: DriftConfig) -> Result<Self, MphpcError> {
        if config.window == 0 {
            return Err(MphpcError::InvalidArgument(
                "drift window must be nonzero".to_string(),
            ));
        }
        let window = (0..reference.n_features())
            .map(|_| WindowAccum::new())
            .collect();
        Ok(DriftDetector {
            config,
            reference,
            window,
            rows_in_window: 0,
            errors_in_window: 0,
            windows_evaluated: 0,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Windows evaluated so far.
    pub fn windows_evaluated(&self) -> u64 {
        self.windows_evaluated
    }

    /// Rows accumulated toward the next window boundary.
    pub fn rows_in_window(&self) -> u64 {
        self.rows_in_window
    }

    /// Report serving errors (failed predictions, expired requests)
    /// observed since the last call — the distribution-free drift
    /// channel.
    pub fn note_serving_errors(&mut self, n: u64) {
        self.errors_in_window += n;
    }

    /// Stream one serving row. Returns a report exactly at window
    /// boundaries (every `config.window` rows), `None` otherwise.
    /// Non-finite values are rejected — upstream the server already
    /// refuses them, so one here indicates a bug, not drift.
    pub fn push_row(&mut self, row: &[f64]) -> Result<Option<DriftReport>, MphpcError> {
        if row.len() != self.reference.n_features() {
            return Err(MphpcError::DimensionMismatch {
                context: "DriftDetector::push_row",
                expected: self.reference.n_features(),
                found: row.len(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            // Checked before any accumulator is touched, so a rejected
            // row leaves the window state unchanged.
            return Err(MphpcError::NonFinite {
                context: "DriftDetector::push_row".to_string(),
            });
        }
        for (accum, (value, reference)) in self
            .window
            .iter_mut()
            .zip(row.iter().zip(&self.reference.features))
        {
            accum.push(*value, &reference.edges);
        }
        self.rows_in_window += 1;
        if self.rows_in_window < self.config.window as u64 {
            return Ok(None);
        }
        Ok(Some(self.evaluate_window()))
    }

    fn evaluate_window(&mut self) -> DriftReport {
        self.windows_evaluated += 1;
        let n = self.rows_in_window;
        let mut features = Vec::with_capacity(self.window.len());
        for (j, (accum, reference)) in self.window.iter().zip(&self.reference.features).enumerate()
        {
            let sigma = reference.std.max(1e-12);
            let mean_shift_sigmas = (accum.mean - reference.mean).abs() / sigma;
            let var_w = accum.m2 / n as f64;
            let var_ref = reference.std * reference.std;
            let var_ratio = if var_ref > 0.0 {
                var_w / var_ref
            } else if var_w > 0.0 {
                f64::INFINITY
            } else {
                1.0
            };
            let mut cum = 0u64;
            let mut max_cdf_diff = 0.0f64;
            for (bucket, ref_cdf) in accum.buckets.iter().zip(&reference.cdf) {
                cum += bucket;
                let diff = (cum as f64 / n as f64 - ref_cdf).abs();
                if diff > max_cdf_diff {
                    max_cdf_diff = diff;
                }
            }
            features.push(FeatureDrift {
                feature: j,
                mean_shift_sigmas,
                var_ratio,
                max_cdf_diff,
                mean_fired: mean_shift_sigmas > self.config.mean_sigmas,
                var_fired: var_ratio > self.config.var_ratio
                    || var_ratio < 1.0 / self.config.var_ratio,
                cdf_fired: max_cdf_diff > self.config.max_cdf_diff,
            });
        }
        let errors = self.errors_in_window;
        let report = DriftReport {
            window_index: self.windows_evaluated,
            rows: n,
            errors,
            error_spike: errors >= self.config.error_threshold,
            features,
        };
        for accum in &mut self.window {
            *accum = WindowAccum::new();
        }
        self.rows_in_window = 0;
        self.errors_in_window = 0;
        mphpc_telemetry::counter_add("drift.windows", 1);
        if report.drifted() {
            mphpc_telemetry::counter_add("drift.fired", 1);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform_matrix(n: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = 3.0f64.sqrt(); // uniform[-√3, √3]: mean 0, var 1
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..cols).map(|_| rng.gen_range(-s..s)).collect())
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn reference_edges_are_sorted_quantiles() {
        let x = uniform_matrix(4096, 2, 7);
        let reference = DriftReference::fit(&x).unwrap();
        for f in reference.features() {
            assert_eq!(f.edges.len(), BUCKETS - 1);
            assert!(f.edges.windows(2).all(|w| w[0] <= w[1]));
            assert!(f.cdf.windows(2).all(|w| w[0] <= w[1]));
            assert!((f.mean).abs() < 0.1);
            assert!((f.std - 1.0).abs() < 0.1);
            // Equal-mass buckets: each edge's CDF is near (j+1)/32.
            for (j, c) in f.cdf.iter().enumerate() {
                assert!(
                    (c - (j + 1) as f64 / BUCKETS as f64).abs() < 0.02,
                    "edge {j} cdf {c}"
                );
            }
        }
    }

    #[test]
    fn reference_rejects_tiny_or_nonfinite_input() {
        assert!(DriftReference::fit(&uniform_matrix(BUCKETS - 1, 1, 0)).is_err());
        let mut x = uniform_matrix(64, 1, 0);
        x.set(5, 0, f64::NAN);
        assert!(DriftReference::fit(&x).is_err());
    }

    fn run_stream(
        detector: &mut DriftDetector,
        n: usize,
        seed: u64,
        gen: impl Fn(&mut StdRng) -> f64,
    ) -> Vec<DriftReport> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reports = Vec::new();
        for _ in 0..n {
            if let Some(r) = detector.push_row(&[gen(&mut rng)]).unwrap() {
                reports.push(r);
            }
        }
        reports
    }

    fn detector_for(seed: u64) -> DriftDetector {
        let reference = DriftReference::fit(&uniform_matrix(4096, 1, seed)).unwrap();
        DriftDetector::new(reference, DriftConfig::default()).unwrap()
    }

    #[test]
    fn mean_shift_fires_at_documented_threshold() {
        let mut detector = detector_for(11);
        let s = 3.0f64.sqrt();
        // 1σ shift: well past the 0.75σ trigger.
        let reports = run_stream(&mut detector, 256, 12, |rng| rng.gen_range(-s..s) + 1.0);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].drifted());
        assert!(reports[0].features[0].mean_fired);
        assert_eq!(reports[0].drifted_features(), [0]);
    }

    #[test]
    fn variance_shift_fires_without_mean_shift() {
        let mut detector = detector_for(13);
        let s = 3.0f64.sqrt();
        // Same mean, ×3 variance: ratio 3 > 2.
        let reports = run_stream(&mut detector, 256, 14, |rng| {
            rng.gen_range(-s..s) * 3.0f64.sqrt()
        });
        assert_eq!(reports.len(), 1);
        let f = &reports[0].features[0];
        assert!(f.var_fired, "var ratio {}", f.var_ratio);
        assert!(!f.mean_fired, "mean shift {}", f.mean_shift_sigmas);
    }

    #[test]
    fn shape_shift_with_matched_moments_fires_the_cdf_test() {
        let mut detector = detector_for(15);
        // Two-point ±1 has mean 0 and variance 1, exactly matching the
        // uniform reference moments; only the quantile channel can see
        // it (binned KS ≈ 0.28 > 0.2).
        let reports = run_stream(&mut detector, 256, 16, |rng| {
            if rng.gen_range(0.0..1.0) < 0.5 {
                -1.0
            } else {
                1.0
            }
        });
        assert_eq!(reports.len(), 1);
        let f = &reports[0].features[0];
        assert!(f.cdf_fired, "cdf diff {}", f.max_cdf_diff);
        assert!(!f.mean_fired);
        assert!(!f.var_fired);
    }

    #[test]
    fn error_channel_fires_regardless_of_features() {
        let mut detector = detector_for(17);
        let s = 3.0f64.sqrt();
        detector.note_serving_errors(1);
        let reports = run_stream(&mut detector, 256, 18, |rng| rng.gen_range(-s..s));
        assert_eq!(reports.len(), 1);
        assert!(reports[0].error_spike);
        assert!(reports[0].drifted());
        assert!(reports[0].drifted_features().is_empty());
        // The counter resets with the window.
        let reports = run_stream(&mut detector, 256, 19, |rng| rng.gen_range(-s..s));
        assert!(!reports[0].error_spike);
        assert!(!reports[0].drifted());
    }

    #[test]
    fn window_boundaries_are_exact_and_state_resets() {
        let mut detector = detector_for(21);
        let s = 3.0f64.sqrt();
        let reports = run_stream(&mut detector, 256 * 3 + 100, 22, |rng| rng.gen_range(-s..s));
        assert_eq!(reports.len(), 3);
        assert_eq!(detector.rows_in_window(), 100);
        assert_eq!(detector.windows_evaluated(), 3);
        assert_eq!(
            reports.iter().map(|r| r.window_index).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert!(reports.iter().all(|r| r.rows == 256));
    }

    #[test]
    fn shape_checks_are_enforced() {
        let mut detector = detector_for(23);
        assert!(detector.push_row(&[0.0, 1.0]).is_err());
        assert!(detector.push_row(&[f64::NAN]).is_err());
        assert!(DriftDetector::new(
            DriftReference::fit(&uniform_matrix(64, 1, 0)).unwrap(),
            DriftConfig {
                window: 0,
                ..DriftConfig::default()
            }
        )
        .is_err());
    }
}
