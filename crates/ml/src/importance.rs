//! Gain-based feature importance (§VI-B).
//!
//! XGBoost's "gain" importance: for each feature, the average improvement
//! in the objective across all splits on that feature, normalised to sum
//! to 1 over the feature set. Averaging over splits (rather than counting
//! split frequency) avoids the bias towards high-cardinality numeric
//! features that the paper calls out.

use crate::tree::SplitStats;
use serde::{Deserialize, Serialize};

/// Normalised per-feature importance scores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureImportance {
    /// Feature names.
    pub names: Vec<String>,
    /// Normalised average gain per feature (sums to 1 if any splits exist).
    pub scores: Vec<f64>,
}

impl FeatureImportance {
    /// Compute average-gain importance from split statistics.
    pub fn from_stats(names: &[String], stats: &SplitStats) -> Self {
        let avg: Vec<f64> = stats
            .gains
            .iter()
            .zip(&stats.counts)
            .map(|(&g, &c)| if c > 0 { g / c as f64 } else { 0.0 })
            .collect();
        let total: f64 = avg.iter().sum();
        let scores = if total > 0.0 {
            avg.iter().map(|&a| a / total).collect()
        } else {
            avg
        };
        Self {
            names: names.to_vec(),
            scores,
        }
    }

    /// Importance of a feature by name.
    pub fn gain_of(&self, name: &str) -> Option<f64> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.scores[i])
    }

    /// `(name, score)` pairs sorted descending by score.
    pub fn ranked(&self) -> Vec<(String, f64)> {
        let mut pairs: Vec<(String, f64)> = self
            .names
            .iter()
            .cloned()
            .zip(self.scores.iter().copied())
            .collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SplitStats {
        SplitStats {
            gains: vec![10.0, 40.0, 0.0],
            counts: vec![2, 4, 0],
        }
    }

    fn names() -> Vec<String> {
        vec!["a".into(), "b".into(), "c".into()]
    }

    #[test]
    fn average_gain_normalised() {
        let imp = FeatureImportance::from_stats(&names(), &stats());
        // avg gains: 5, 10, 0 => normalised 1/3, 2/3, 0.
        assert!((imp.gain_of("a").unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((imp.gain_of("b").unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(imp.gain_of("c").unwrap(), 0.0);
        assert!((imp.scores.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranked_sorts_descending() {
        let imp = FeatureImportance::from_stats(&names(), &stats());
        let ranked = imp.ranked();
        assert_eq!(ranked[0].0, "b");
        assert_eq!(ranked[1].0, "a");
    }

    #[test]
    fn no_splits_yields_zeros() {
        let imp = FeatureImportance::from_stats(&names(), &SplitStats::new(3));
        assert!(imp.scores.iter().all(|&s| s == 0.0));
    }
}
