//! Column statistics used by the dataset normalisation step (§V-D of the
//! paper: "normalized by subtracting that feature's mean ... and dividing
//! them by its standard deviation").

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation; NaN for an empty slice, 0 for length 1.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// Per-feature normalisation parameters fitted on a training set and applied
/// to both train and test data (avoids test-set leakage).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ZScore {
    /// Fitted mean.
    pub mean: f64,
    /// Fitted standard deviation (clamped away from 0 at transform time).
    pub std: f64,
}

impl ZScore {
    /// Fit on a sample.
    pub fn fit(values: &[f64]) -> Self {
        Self {
            mean: mean(values),
            std: std_dev(values),
        }
    }

    /// Standardise a single value. Degenerate (zero/NaN std) features map to
    /// 0 so constant columns don't produce NaNs downstream.
    pub fn transform(&self, value: f64) -> f64 {
        if !self.std.is_finite() || self.std < 1e-12 {
            return 0.0;
        }
        (value - self.mean) / self.std
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_std_basics() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn zscore_constant_column_maps_to_zero() {
        let z = ZScore::fit(&[3.0, 3.0, 3.0]);
        assert_eq!(z.transform(3.0), 0.0);
    }

    proptest! {
        #[test]
        fn standardised_sample_has_zero_mean_unit_std(values in proptest::collection::vec(-1e3f64..1e3, 8..128)) {
            let z = ZScore::fit(&values);
            prop_assume!(z.std > 1e-9);
            let t: Vec<f64> = values.iter().map(|&v| z.transform(v)).collect();
            prop_assert!(mean(&t).abs() < 1e-9);
            prop_assert!((std_dev(&t) - 1.0).abs() < 1e-9);
        }
    }
}
