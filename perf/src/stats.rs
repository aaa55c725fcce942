//! Order statistics for timings: medians, quartile spread, and the tail rule
//! the benchmark reports p99 under.

/// The `q`-quantile (0..=1) of an already sorted slice, nearest rank.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the "exclusive" method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (q3 - q1) / m.abs()
}

/// Fewest windows a tail is taken over, and fewest samples per window.
pub const TAIL_WINDOWS: usize = 10;
pub const TAIL_WINDOW_SAMPLES: usize = 1000;

/// A tail latency and how it was obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile actually reported (0.99 unless samples were too few).
    pub percentile: f64,
    /// Windows the value is taken over (1 when too few samples).
    pub windows: usize,
}

/// The highest percentile of `n` samples that still has at least ten samples
/// beyond it, capped at p99.
pub fn highest_supported_percentile(n: usize) -> f64 {
    if n <= 10 {
        return 0.0;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// p99 of samples in arrival order, robust to stalls of the host: the samples
/// are cut into as many equal consecutive windows of at least
/// [`TAIL_WINDOW_SAMPLES`] as they allow (so ten samples lie beyond each
/// window's p99), and the result is the *lower quartile* of the per-window
/// p99s — the tail in the quieter windows.
///
/// On the reference host a stall of the hypervisor spoils about every second
/// window, so the median over windows repeats only to within 40 %, the lower
/// quartile to within 20 % (README, "Steadiness"). Something the program
/// itself does to its tail shows in every window and so in this figure too.
/// With fewer than [`TAIL_WINDOWS`] windows' worth of samples, falls back to
/// one window and the highest percentile that has ten samples beyond it.
pub fn tail_p99(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let n = samples.len();
    if n < TAIL_WINDOWS * TAIL_WINDOW_SAMPLES {
        let percentile = highest_supported_percentile(n);
        return Tail {
            value: quantile_sorted(&sorted(samples), percentile),
            percentile,
            windows: 1,
        };
    }
    let windows = n / TAIL_WINDOW_SAMPLES;
    let len = n / windows;
    let per_window: Vec<f64> = samples
        .chunks_exact(len)
        .take(windows)
        .map(|w| quantile_sorted(&sorted(w), 0.99))
        .collect();
    Tail {
        value: quantile_sorted(&sorted(&per_window), 0.25),
        percentile: 0.99,
        windows,
    }
}

fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 64-bit FNV-1a, the checksum printed for outputs that must repeat exactly.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_bytes(bytes.iter().copied())
}

/// FNV-1a over the bit patterns of floats.
pub fn fnv1a_f64(values: impl IntoIterator<Item = f64>) -> u64 {
    fnv1a_bytes(values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_is_the_lower_quartile_of_window_p99s() {
        // 12 windows of 1000: window w holds 989 ones and eleven values of
        // 100+w, so its p99 (rank 990) is 100+w with ten samples beyond it.
        let mut samples = Vec::new();
        for w in 0..12 {
            samples.extend(std::iter::repeat_n(1.0, 989));
            samples.extend(std::iter::repeat_n(100.0 + w as f64, 11));
        }
        let t = tail_p99(&samples);
        assert_eq!((t.windows, t.percentile), (12, 0.99));
        // Lower quartile (nearest rank 3 of 12) of 100..=111.
        assert_eq!(t.value, 102.0);
        // Stalls that spoil half the windows move a median over windows (and
        // a pooled p99 far more) but not the lower quartile.
        for w in (0..12).step_by(2) {
            for s in &mut samples[w * 1000..w * 1000 + 500] {
                *s = 1e6;
            }
        }
        // The quiet windows are 101, 103, .., 111; the spoiled ones sort last.
        assert_eq!(tail_p99(&samples).value, 105.0);
        // A tail the program itself has in every window does show.
        for w in 0..12 {
            for s in &mut samples[w * 1000 + 600..w * 1000 + 620] {
                *s = 5e5;
            }
        }
        assert!(tail_p99(&samples).value >= 5e5);
    }

    #[test]
    fn too_few_samples_lower_the_percentile_until_ten_lie_beyond() {
        assert_eq!(highest_supported_percentile(10), 0.0);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(1000), 0.99);
        assert_eq!(highest_supported_percentile(1_000_000), 0.99);
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail_p99(&samples);
        assert_eq!((t.windows, t.percentile), (1, 0.95));
        assert_eq!(t.value, 190.0);
        let beyond = samples.iter().filter(|&&s| s > t.value).count();
        assert_eq!(beyond, 10);
        // Just under ten full windows still falls back; at ten it does not.
        assert_eq!(tail_p99(&vec![1.0; 9_999]).windows, 1);
        assert_eq!(tail_p99(&vec![1.0; 10_000]).windows, 10);
        assert_eq!(tail_p99(&vec![1.0; 60_500]).windows, 60);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_f64([1.0]), fnv1a(&1.0f64.to_bits().to_le_bytes()));
    }
}
