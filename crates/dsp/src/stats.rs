//! Error-rate counters and empirical distributions for the evaluation
//! harness.
//!
//! The paper reports packet error rate (Fig. 10), chirp-symbol error rate
//! (Figs. 11 and 15), bit error rate (Fig. 12) and a CDF of programming
//! time (Fig. 14). These are the shared accumulator types behind those
//! plots.
//!
//! Two distribution accumulators implement the [`Distribution`] trait:
//! the exact [`Ecdf`] (every sample retained, paper-scale figures) and
//! the bounded-memory [`QuantileSketch`](crate::sketch::QuantileSketch)
//! (million-node campaigns). Both share the same non-finite-sample
//! policy: `NaN`/`±inf` observations are a bug in the producer, so they
//! trip a `debug_assert!` in debug builds and are silently dropped in
//! release builds — a dropped sample shifts a quantile by one rank,
//! while an admitted `NaN` would corrupt `max` and every high quantile
//! through the `total_cmp` sort order.

/// Streaming error-rate counter (bits, symbols or packets alike).
#[derive(Debug, Clone, Copy, Default)]
pub struct ErrorRate {
    trials: u64,
    errors: u64,
}

impl ErrorRate {
    /// Fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one trial with its outcome.
    #[inline]
    pub fn record(&mut self, error: bool) {
        self.trials += 1;
        if error {
            self.errors += 1;
        }
    }

    /// Record a batch: `errors` failures out of `trials`.
    pub fn record_batch(&mut self, errors: u64, trials: u64) {
        assert!(errors <= trials, "more errors than trials");
        self.trials += trials;
        self.errors += errors;
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &ErrorRate) {
        self.trials += other.trials;
        self.errors += other.errors;
    }

    /// Number of trials recorded.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of errors recorded.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Error rate in `[0, 1]`; 0 for no trials.
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.errors as f64 / self.trials as f64
        }
    }

    /// Error rate as a percentage (paper's y-axes use %).
    pub fn percent(&self) -> f64 {
        self.rate() * 100.0
    }

    /// 95% Wilson confidence interval half-width, useful to decide whether
    /// a sweep point has enough trials.
    pub fn wilson_halfwidth(&self) -> f64 {
        if self.trials == 0 {
            return 1.0;
        }
        self.wilson(1.96).1
    }

    /// Wilson score interval `(lo, hi)` for the error rate at two-sided
    /// normal quantile `z` (1.96 → 95%, 3.2905 → 99.9%); `(0, 1)` for no
    /// trials.
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let (center, half) = self.wilson(z);
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// Wilson score interval as `(center, half-width)`; needs trials.
    fn wilson(&self, z: f64) -> (f64, f64) {
        let n = self.trials as f64;
        let p = self.rate();
        let denom = 1.0 + z * z / n;
        let half = z * ((p * (1.0 - p) + z * z / (4.0 * n)) / n).sqrt() / denom;
        ((p + z * z / (2.0 * n)) / denom, half)
    }
}

/// Two-sided p-value of Fisher's exact test that two counters of equal
/// trials measure one error rate.
///
/// Given the `k` errors the two counters hold together, `a`'s share of
/// them is hypergeometric under that hypothesis: `a.errors()` is the
/// number of errors among `n` trials drawn from `2n` that hold `k`. The
/// p-value is the probability of every split at most as likely as the
/// observed one. The pmf is walked out from its mode by the recurrence
/// `P(x + 1) / P(x) = (n − x)(k − x) / ((x + 1)(n − k + x + 1))` until it
/// underflows; a split beyond that has p-value 0. Both runs carry noise,
/// so neither is taken as the truth, as a Wilson interval around one of
/// them would.
///
/// # Panics
/// Panics if the two counters' trials differ.
pub fn fisher_exact_p(a: &ErrorRate, b: &ErrorRate) -> f64 {
    assert_eq!(
        a.trials, b.trials,
        "Fisher's exact test compares counters of equal trials"
    );
    let (n, k) = (a.trials, a.errors + b.errors);
    let (lo, hi) = (k.saturating_sub(n), k.min(n));
    let ratio = |x: u64| {
        let (n, k, x) = (n as f64, k as f64, x as f64);
        (n - x) * (k - x) / ((x + 1.0) * (n - k + x + 1.0))
    };
    // the pmf relative to its mode, `⌈k / 2⌉` at equal trials
    let mode = k.div_ceil(2);
    let mut weights = vec![(mode, 1.0)];
    let mut w = 1.0;
    for x in mode..hi {
        w *= ratio(x);
        if w < f64::MIN_POSITIVE {
            break;
        }
        weights.push((x + 1, w));
    }
    w = 1.0;
    for x in (lo..mode).rev() {
        w /= ratio(x);
        if w < f64::MIN_POSITIVE {
            break;
        }
        weights.push((x, w));
    }
    let observed = weights
        .iter()
        .find(|&&(x, _)| x == a.errors)
        .map_or(0.0, |&(_, w)| w);
    // a relative slack so that rounding cannot split equal-probability
    // splits, as the symmetric ones are
    let cut = observed * (1.0 + 1e-7);
    let total: f64 = weights.iter().map(|&(_, w)| w).sum();
    let tail: f64 = weights
        .iter()
        .filter(|&&(_, w)| w <= cut)
        .map(|&(_, w)| w)
        .sum();
    (tail / total).min(1.0)
}

/// Count differing bits between two equal-length byte slices.
pub fn bit_errors(a: &[u8], b: &[u8]) -> u64 {
    assert_eq!(a.len(), b.len(), "bit_errors: length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x ^ y).count_ones() as u64)
        .sum()
}

/// Common interface over distribution accumulators: the exact [`Ecdf`]
/// and the bounded-memory
/// [`QuantileSketch`](crate::sketch::QuantileSketch).
///
/// Campaign code is written against this trait so the retention policy
/// (exact samples vs. logarithmic buckets) is a configuration choice,
/// not a code path. Implementations must keep `merge` equivalent to
/// pushing the other side's observations — the reduction step when
/// per-shard accumulators from a parallel campaign are combined — and
/// must follow the crate's non-finite-sample policy (debug-assert,
/// drop in release).
pub trait Distribution {
    /// Add one observation.
    fn push(&mut self, x: f64);

    /// Fold another accumulator of the same kind into this one.
    fn merge(&mut self, other: &Self)
    where
        Self: Sized;

    /// Number of observations recorded.
    fn len(&self) -> usize;

    /// `true` if no observations were recorded.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `P[X <= x]`; 0 for an empty distribution.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile `q` in `[0,1]` (nearest-rank), `None` if empty.
    fn quantile(&self, q: f64) -> Option<f64>;

    /// Median, `None` if empty.
    fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean, `None` if empty.
    fn mean(&self) -> Option<f64>;

    /// Minimum observation, `None` if empty.
    fn min(&self) -> Option<f64>;

    /// Maximum observation, `None` if empty.
    fn max(&self) -> Option<f64>;

    /// Bytes of heap + inline state this accumulator currently holds.
    /// Deterministic: a function of the logical state, not allocator
    /// behaviour (lengths, not capacities).
    fn memory_bytes(&self) -> usize;
}

/// Empirical CDF over `f64` observations.
///
/// The sample vector is kept **sorted at all times** (by
/// `f64::total_cmp`), so every read accessor takes `&self`. `push` is a
/// binary-search insert (`O(n)` worst-case memmove — fine at paper
/// scale; million-node campaigns use the sketch instead), `extend` is
/// append + one sort, and `merge` is an `O(n + m)` sorted-run merge.
///
/// Non-finite observations are rejected per the module policy
/// (debug-assert, dropped in release).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ecdf {
    samples: Vec<f64>,
}

impl Ecdf {
    /// Fresh, empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation. Non-finite values are rejected (see module
    /// docs).
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "Ecdf::push: non-finite sample {x}");
        if !x.is_finite() {
            return;
        }
        let at = self.samples.partition_point(|v| v.total_cmp(&x).is_lt());
        self.samples.insert(at, x);
    }

    /// Add many observations. Non-finite values are rejected (see module
    /// docs).
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        let before = self.samples.len();
        for x in xs {
            debug_assert!(x.is_finite(), "Ecdf::extend: non-finite sample {x}");
            if x.is_finite() {
                self.samples.push(x);
            }
        }
        if self.samples.len() != before {
            self.samples.sort_by(|a, b| a.total_cmp(b));
        }
    }

    /// Merge another distribution into this one (mirror of
    /// [`ErrorRate::merge`]) — the reduction step when per-shard ECDFs
    /// from a parallel campaign are combined. Both sides are always
    /// sorted, so this is an `O(n + m)` sorted-run merge.
    pub fn merge(&mut self, other: &Ecdf) {
        if other.samples.is_empty() {
            return;
        }
        if self.samples.is_empty() {
            self.samples = other.samples.clone();
            return;
        }
        let a = std::mem::take(&mut self.samples);
        let b = &other.samples;
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.samples = merged;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sorted observations, ascending — the serialization surface
    /// for campaign checkpoints.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Rebuild from samples that are **already sorted ascending** (by
    /// `total_cmp`) and finite — the checkpoint-reader fast path.
    ///
    /// # Panics
    /// Panics if the samples are out of order or non-finite; a
    /// checkpoint that fails this was corrupted and must not be trusted.
    pub fn from_sorted_samples(samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "Ecdf::from_sorted_samples: non-finite sample"
        );
        assert!(
            samples.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            "Ecdf::from_sorted_samples: samples not sorted"
        );
        Self { samples }
    }

    /// `P[X <= x]`; 0 for an empty distribution (no mass anywhere).
    pub fn cdf(&self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let count = self.samples.partition_point(|&v| v <= x);
        count as f64 / self.samples.len() as f64
    }

    /// Quantile `q` in `[0,1]` (nearest-rank), `None` if no observations
    /// were recorded.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(self.samples[idx])
    }

    /// Median, `None` if empty.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean, `None` if empty (an empty campaign must not
    /// masquerade as a zero-duration one).
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// Minimum observation, `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.first().copied()
    }

    /// Maximum observation, `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.last().copied()
    }

    /// Bytes of state held: one `f64` per retained sample. Grows
    /// linearly with observations — the quantity the sketch bounds.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.samples.len() * std::mem::size_of::<f64>()
    }

    /// `(x, P[X<=x])` series for plotting a CDF like the paper's Fig. 14.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let n = self.samples.len() as f64;
        self.samples
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }
}

impl Distribution for Ecdf {
    fn push(&mut self, x: f64) {
        Ecdf::push(self, x);
    }

    fn merge(&mut self, other: &Self) {
        Ecdf::merge(self, other);
    }

    fn len(&self) -> usize {
        Ecdf::len(self)
    }

    fn cdf(&self, x: f64) -> f64 {
        Ecdf::cdf(self, x)
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        Ecdf::quantile(self, q)
    }

    fn mean(&self) -> Option<f64> {
        Ecdf::mean(self)
    }

    fn min(&self) -> Option<f64> {
        Ecdf::min(self)
    }

    fn max(&self) -> Option<f64> {
        Ecdf::max(self)
    }

    fn memory_bytes(&self) -> usize {
        Ecdf::memory_bytes(self)
    }
}

/// Find the sensitivity threshold: the smallest x (assumed sorted
/// ascending) where the error-rate series crosses *below* `threshold`.
///
/// `points` are `(x_dbm, error_rate)` pairs with error rate decreasing as
/// x grows (more power → fewer errors). Linear interpolation between the
/// two bracketing points. Returns `None` if the series never crosses.
pub fn threshold_crossing(points: &[(f64, f64)], threshold: f64) -> Option<f64> {
    for w in points.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if y0 > threshold && y1 <= threshold {
            if (y0 - y1).abs() < 1e-30 {
                return Some(x1);
            }
            let t = (y0 - threshold) / (y0 - y1);
            return Some(x0 + t * (x1 - x0));
        }
        if y0 <= threshold {
            return Some(x0);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_rate_accumulates() {
        let mut er = ErrorRate::new();
        for i in 0..100 {
            er.record(i % 4 == 0);
        }
        assert_eq!(er.trials(), 100);
        assert_eq!(er.errors(), 25);
        assert!((er.rate() - 0.25).abs() < 1e-12);
        assert!((er.percent() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn error_rate_merge_and_batch() {
        let mut a = ErrorRate::new();
        a.record_batch(5, 50);
        let mut b = ErrorRate::new();
        b.record_batch(15, 50);
        a.merge(&b);
        assert!((a.rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn wilson_shrinks_with_trials() {
        let mut small = ErrorRate::new();
        small.record_batch(5, 10);
        let mut big = ErrorRate::new();
        big.record_batch(500, 1000);
        assert!(big.wilson_halfwidth() < small.wilson_halfwidth());
    }

    #[test]
    fn wilson_interval_brackets_the_rate_and_stays_in_unit_range() {
        assert_eq!(ErrorRate::new().wilson_interval(1.96), (0.0, 1.0));
        let mut r = ErrorRate::new();
        r.record_batch(30, 100);
        let (lo, hi) = r.wilson_interval(1.96);
        assert!(lo < 0.3 && 0.3 < hi);
        assert!(((hi - lo) / 2.0 - r.wilson_halfwidth()).abs() < 1e-12);
        // a wider quantile widens the interval
        let (lo3, hi3) = r.wilson_interval(3.2905);
        assert!(lo3 < lo && hi < hi3);
        // zero errors: lower end clamps to 0, upper end stays positive
        let mut clean = ErrorRate::new();
        clean.record_batch(0, 1000);
        let (lo0, hi0) = clean.wilson_interval(3.2905);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0 && hi0 < 0.02);
    }

    fn counts(errors: u64, trials: u64) -> ErrorRate {
        let mut r = ErrorRate::new();
        r.record_batch(errors, trials);
        r
    }

    #[test]
    fn fisher_exact_p_matches_the_exact_sums() {
        // `(errors a, errors b, trials, p)`, the p-values summed over the
        // hypergeometric pmf in exact rational arithmetic
        let cases = [
            (3, 9, 10, 0.019766611097880447),
            (0, 5, 20, 0.04712404712404712),
            (12, 30, 100, 0.002866560763284443),
            (500, 560, 1000, 0.008193461025460338),
            (40, 40, 100, 1.0),
            (41, 40, 100, 1.0),
            (10, 10, 10, 1.0),
            (1, 0, 1, 1.0),
            (0, 0, 5, 1.0),
            (0, 0, 0, 1.0),
        ];
        for (x, y, n, want) in cases {
            for (a, b) in [(x, y), (y, x)] {
                let p = fisher_exact_p(&counts(a, n), &counts(b, n));
                assert!(
                    (p - want).abs() <= 1e-9 * want,
                    "{a} vs {b} of {n}: p {p} against {want}"
                );
            }
        }
    }

    #[test]
    fn fisher_exact_p_reaches_the_far_tail_at_many_trials() {
        // 100 000 bits: a 2.5σ split sits near the normal tail, and a
        // split past the pmf's underflow reads 0
        let (n, k) = (100_000u64, 10_000u64);
        let sd = (k as f64 / 4.0 * (2 * n - k) as f64 / (2 * n - 1) as f64).sqrt();
        let off = (2.5 * sd).round() as u64;
        let p = fisher_exact_p(&counts(k / 2 + off, n), &counts(k / 2 - off, n));
        let normal = 2.0 * crate::math::q_func((off as f64 - 0.5) / sd);
        assert!((p / normal - 1.0).abs() < 0.05, "p {p} against {normal}");
        assert_eq!(fisher_exact_p(&counts(k, n), &counts(0, n)), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal trials")]
    fn fisher_exact_p_rejects_unequal_trials() {
        fisher_exact_p(&counts(1, 10), &counts(1, 11));
    }

    #[test]
    fn bit_error_count() {
        assert_eq!(bit_errors(&[0xFF], &[0x00]), 8);
        assert_eq!(bit_errors(&[0b1010_1010], &[0b1010_1000]), 1);
        assert_eq!(bit_errors(&[1, 2, 3], &[1, 2, 3]), 0);
    }

    #[test]
    fn ecdf_quantiles() {
        let mut e = Ecdf::new();
        e.extend((1..=100).map(|i| i as f64));
        assert_eq!(e.len(), 100);
        assert!((e.median().unwrap() - 50.0).abs() <= 1.0);
        assert_eq!(e.quantile(1.0), Some(100.0));
        assert_eq!(e.min(), Some(1.0));
        assert_eq!(e.max(), Some(100.0));
        assert!((e.cdf(25.0) - 0.25).abs() < 0.01);
        assert!((e.mean().unwrap() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_ecdf_is_explicit_not_a_panic() {
        // regression: min/max/quantile used to panic via `expect` and
        // mean silently returned 0.0 on an empty distribution
        let e = Ecdf::new();
        assert!(e.is_empty());
        assert_eq!(e.min(), None);
        assert_eq!(e.max(), None);
        assert_eq!(e.median(), None);
        assert_eq!(e.quantile(0.99), None);
        assert_eq!(e.mean(), None);
        assert_eq!(e.cdf(0.0), 0.0);
        assert!(e.curve().is_empty());
    }

    #[test]
    fn ecdf_accessors_are_shared_refs() {
        // regression (PR 7): accessors used to take `&mut self` because
        // sorting was lazy; reports could not be read through `&self`
        let mut e = Ecdf::new();
        e.extend([3.0, 1.0, 2.0]);
        let r: &Ecdf = &e;
        assert_eq!(r.min(), Some(1.0));
        assert_eq!(r.max(), Some(3.0));
        assert_eq!(r.median(), Some(2.0));
        assert_eq!(r.curve().len(), 3);
        assert!((r.cdf(2.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_push_keeps_samples_sorted() {
        let mut e = Ecdf::new();
        for x in [5.0, -1.0, 3.0, 3.0, 0.0, 9.0, -2.5] {
            e.push(x);
        }
        let s = e.samples();
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(e.len(), 7);
        assert_eq!(e.min(), Some(-2.5));
        assert_eq!(e.max(), Some(9.0));
    }

    #[test]
    fn ecdf_rejects_non_finite_in_release() {
        // the debug_assert path is exercised by debug builds; this pins
        // the documented release behaviour: the sample is dropped, max
        // and quantiles stay finite
        let mut e = Ecdf::new();
        e.extend([1.0, 2.0]);
        if cfg!(not(debug_assertions)) {
            e.push(f64::NAN);
            e.push(f64::INFINITY);
            e.extend([f64::NEG_INFINITY, 3.0]);
            assert_eq!(e.len(), 3);
            assert_eq!(e.max(), Some(3.0));
            assert_eq!(e.quantile(1.0), Some(3.0));
        }
    }

    #[test]
    fn ecdf_round_trips_through_sorted_samples() {
        let mut e = Ecdf::new();
        e.extend([4.0, 1.0, 3.0, 2.0]);
        let back = Ecdf::from_sorted_samples(e.samples().to_vec());
        assert_eq!(back, e);
        assert!(e.memory_bytes() >= 4 * std::mem::size_of::<f64>());
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn ecdf_from_unsorted_samples_panics() {
        let _ = Ecdf::from_sorted_samples(vec![2.0, 1.0]);
    }

    #[test]
    fn ecdf_merge_matches_extend() {
        let xs: Vec<f64> = (0..50).map(|i| ((i * 37) % 19) as f64).collect();
        let (left, right) = xs.split_at(20);
        let mut merged = Ecdf::new();
        merged.extend(left.iter().copied());
        let mut shard = Ecdf::new();
        shard.extend(right.iter().copied());
        merged.merge(&shard);
        let mut whole = Ecdf::new();
        whole.extend(xs.iter().copied());
        assert_eq!(merged.len(), whole.len());
        assert_eq!(merged.curve(), whole.curve());
        assert_eq!(merged.median(), whole.median());
    }

    #[test]
    fn ecdf_merge_of_sorted_sides_stays_sorted() {
        let mut a = Ecdf::new();
        a.extend([5.0, 1.0, 3.0]);
        let mut b = Ecdf::new();
        b.extend([4.0, 2.0, 6.0]);
        a.merge(&b);
        assert!(
            a.samples().windows(2).all(|w| w[0] <= w[1]),
            "sorted runs must merge into a sorted run"
        );
        assert_eq!(
            a.curve().iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
        // merging an empty side is a no-op; merging into empty adopts
        let mut empty = Ecdf::new();
        empty.merge(&a);
        assert_eq!(empty.len(), 6);
        a.merge(&Ecdf::new());
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn ecdf_curve_monotone() {
        let mut e = Ecdf::new();
        e.extend([3.0, 1.0, 2.0, 5.0, 4.0]);
        let c = e.curve();
        assert_eq!(c.len(), 5);
        for w in c.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert!((c.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distribution_trait_is_object_safe_enough_for_generics() {
        fn summarize<D: Distribution>(d: &D) -> (usize, Option<f64>) {
            (d.len(), d.median())
        }
        let mut e = Ecdf::new();
        e.extend([1.0, 2.0, 3.0]);
        assert_eq!(summarize(&e), (3, Some(2.0)));
    }

    #[test]
    fn sensitivity_interpolation() {
        // PER falls from 100% to 0 between -128 and -124 dBm
        let pts = vec![
            (-130.0, 1.0),
            (-128.0, 1.0),
            (-126.0, 0.5),
            (-124.0, 0.0),
            (-120.0, 0.0),
        ];
        // 10% PER crossing sits between -126 and -124
        let s = threshold_crossing(&pts, 0.10).unwrap();
        assert!(s > -126.0 && s < -124.0, "crossing {s}");
        // never crossing below 0 → first point at threshold works
        assert!(threshold_crossing(&[(-130.0, 1.0)], 0.1).is_none());
    }
}
