//! Across-rank aggregation (§V-B: "for multi-process and multi-GPU runs, we
//! record the mean value of the counters across all processes").

/// Mean of per-rank measurements; NaN-free (empty input → 0).
pub fn mean_across_ranks(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean_across_ranks(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean_across_ranks(&[]), 0.0);
    }
}
