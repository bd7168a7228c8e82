//! Order statistics for the benchmark's reports.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples
//! rank above it, so a tail figure always rests on a tail.

/// Samples that must rank above a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentile levels tried, highest first, by [`highest_percentile`].
const LEVELS: [(f64, &str); 3] = [(0.99, "p99"), (0.90, "p90"), (0.50, "p50")];

/// Sorted copy of `xs` (total order, so NaNs cannot scramble it).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of level `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    // the epsilon keeps exact products (0.9 × 100) from rounding up
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` (0 < q < 1) of `xs`, or `None` when
/// fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile level must lie in (0, 1)");
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let r = rank(q, n);
    if n - r < MIN_BEYOND {
        return None;
    }
    Some(sorted(xs)[r - 1])
}

/// The highest of p99, p90 and p50 that [`percentile`] will report for
/// `xs`, as `(label, value)`.
pub fn highest_percentile(xs: &[f64]) -> Option<(&'static str, f64)> {
    LEVELS
        .iter()
        .find_map(|&(q, label)| percentile(xs, q).map(|v| (label, v)))
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // descending, so the functions must sort
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p50 of 20 samples: rank 10, ten above it
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        // p50 of 19 samples: rank 10, only nine above it
        assert_eq!(percentile(&ramp(19), 0.5), None);
        // p90 first qualifies at 100 samples, p99 at 1000
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_percentile_falls_back_by_sample_count() {
        assert_eq!(highest_percentile(&ramp(1000)), Some(("p99", 990.0)));
        assert_eq!(highest_percentile(&ramp(150)), Some(("p90", 135.0)));
        assert_eq!(highest_percentile(&ramp(40)), Some(("p50", 20.0)));
        assert_eq!(highest_percentile(&ramp(5)), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
