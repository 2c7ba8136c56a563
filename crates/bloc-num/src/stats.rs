//! Descriptive statistics for the evaluation harness.
//!
//! Everything the paper's evaluation section reports — median errors,
//! 90th-percentile errors, CDFs (Figs. 9, 12), standard-deviation error bars
//! (Fig. 10) and the per-location RMSE map (Fig. 13) — is computed with the
//! functions in this module.

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; `NaN` for an empty slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    (xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Root-mean-square of a sample (used for the Fig. 13 per-cell RMSE map).
pub fn rms(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|&x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
}

/// `p`-th percentile (0–100) with linear interpolation between order
/// statistics; `NaN` for an empty slice. The caller must pass data
/// without NaNs (a NaN among two or more samples panics).
///
/// Runs in O(n): it selects the two order statistics it interpolates
/// between instead of sorting, and returns the same value as
/// [`percentile_sorted`] on the sorted sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.len() < 2 {
        return percentile_sorted(xs, p);
    }
    let (lo, hi, frac) = interpolation_ranks(xs.len(), p);
    let mut v = xs.to_vec();
    let (_, &mut lo_v, upper) = v.select_nth_unstable_by(lo, |a, b| {
        a.partial_cmp(b).expect("percentile input must be finite")
    });
    // Everything above rank `lo` sits in `upper`, so the next order
    // statistic is its minimum.
    let hi_v = if hi == lo {
        lo_v
    } else {
        upper.iter().copied().fold(f64::INFINITY, f64::min)
    };
    lo_v + (hi_v - lo_v) * frac
}

/// The two order statistics (`lo`, `hi`) the `p`-th percentile of `n ≥ 2`
/// samples interpolates between, and the weight `frac` of `hi`.
fn interpolation_ranks(n: usize, p: f64) -> (usize, usize, f64) {
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

/// Percentile on data already sorted ascending.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let (lo, hi, frac) = interpolation_ranks(sorted.len(), p);
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// One point of an empirical CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CdfPoint {
    /// Sample value (for us: localization error, metres).
    pub value: f64,
    /// Cumulative probability in `(0, 1]`.
    pub probability: f64,
}

/// An empirical cumulative distribution function over a finite sample.
///
/// This is the object each CDF figure in the paper (Figs. 9a–c, 12) plots.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample; the sample must be finite.
    pub fn new(mut xs: Vec<f64>) -> Self {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("ECDF input must be finite"));
        Self { sorted: xs }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the ECDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Quantile function: the smallest sample value `v` with
    /// `P(X ≤ v) ≥ q` (`q` in `(0, 1]`).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let n = self.sorted.len();
        let k = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[k - 1]
    }

    /// Median via interpolated percentile (matches [`median`]).
    pub fn median(&self) -> f64 {
        percentile_sorted(&self.sorted, 50.0)
    }

    /// Interpolated percentile (0–100).
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p)
    }

    /// All step points of the ECDF, ready to print as a figure series.
    pub fn points(&self) -> Vec<CdfPoint> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| CdfPoint {
                value: v,
                probability: (i + 1) as f64 / n,
            })
            .collect()
    }

    /// Samples the ECDF at `bins` evenly-spaced values across `[lo, hi]` —
    /// the compact form the figure binaries print.
    pub fn sample_curve(&self, lo: f64, hi: f64, bins: usize) -> Vec<CdfPoint> {
        (0..bins)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (bins.max(2) - 1) as f64;
                CdfPoint {
                    value: x,
                    probability: self.eval(x),
                }
            })
            .collect()
    }

    /// Immutable view of the sorted sample.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }
}

/// Online accumulator for mean/variance (Welford) — used by the parallel
/// sweep runner to aggregate errors without storing every sample twice.
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Running population variance (`NaN` when empty).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Running population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.mean += d * other.n as f64 / n as f64;
        self.n = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 25.0), 2.5);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
    }

    #[test]
    fn empty_inputs_are_nan() {
        assert!(mean(&[]).is_nan());
        assert!(median(&[]).is_nan());
        assert!(std_dev(&[]).is_nan());
        assert!(rms(&[]).is_nan());
    }

    #[test]
    fn ecdf_eval_and_quantile() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(2.0), 0.5);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.quantile(0.5), 2.0);
        assert_eq!(e.quantile(1.0), 4.0);
    }

    #[test]
    fn ecdf_points_monotone() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0]);
        let pts = e.points();
        assert_eq!(pts.len(), 3);
        for w in pts.windows(2) {
            assert!(w[1].value >= w[0].value);
            assert!(w[1].probability > w[0].probability);
        }
        assert_eq!(pts.last().unwrap().probability, 1.0);
    }

    #[test]
    fn ecdf_sample_curve_covers_range() {
        let e = Ecdf::new(vec![0.5, 1.5, 2.5]);
        let c = e.sample_curve(0.0, 3.0, 7);
        assert_eq!(c.len(), 7);
        assert_eq!(c[0].probability, 0.0);
        assert_eq!(c.last().unwrap().probability, 1.0);
    }

    #[test]
    fn welford_matches_batch() {
        let xs = [1.0, 2.0, 3.5, -1.0, 0.25];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - mean(&xs)).abs() < 1e-12);
        assert!((w.std_dev() - std_dev(&xs)).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 5.0).collect();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert!((a.mean() - mean(&xs)).abs() < 1e-12);
        assert!((a.std_dev() - std_dev(&xs)).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "percentile input must be finite")]
    fn percentile_panics_on_nan() {
        percentile(&[1.0, f64::NAN, 3.0], 50.0);
    }

    #[test]
    fn percentile_panics_on_nan_anywhere() {
        for n in [2usize, 3, 17, 40] {
            for at in [0, n / 2, n - 1] {
                for p in [0.0, 50.0, 100.0] {
                    let mut xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
                    xs[at] = f64::NAN;
                    let r = std::panic::catch_unwind(|| percentile(&xs, p));
                    assert!(r.is_err(), "n {n}, NaN at {at}, p {p} must panic");
                }
            }
        }
    }

    /// Ranks the selection-based [`percentile`] is pinned at, plus a
    /// random one (selector 6).
    const PINNED_P: [f64; 6] = [0.0, 25.0, 50.0, 90.0, 99.0, 100.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn prop_percentile_equals_sorted_definition(
            raw in proptest::collection::vec((-4i8..5, -50.0..50.0f64, 0u8..8), 1..301),
            which in 0usize..7,
            random_p in 0.0..100.0f64,
        ) {
            // Mostly a few repeated values (−1.0 … 1.0 in quarters, with
            // both signed zeros), sometimes an arbitrary one.
            let xs: Vec<f64> = raw
                .iter()
                .map(|&(k, x, kind)| match kind {
                    0 => x,
                    1 if k == 0 => -0.0,
                    _ => k as f64 * 0.25,
                })
                .collect();
            let p = PINNED_P.get(which).copied().unwrap_or(random_p);
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let want = percentile_sorted(&sorted, p);
            let got = percentile(&xs, p);
            let signed_zeros = xs.iter().any(|&x| x == 0.0 && x.is_sign_negative());
            if signed_zeros {
                prop_assert_eq!(got, want, "n {} p {}", xs.len(), p);
            } else {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "n {} p {}: {} vs {}", xs.len(), p, got, want);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_percentile_within_range(xs in proptest::collection::vec(-100.0..100.0f64, 1..50),
                                        p in 0.0..100.0f64) {
            let v = percentile(&xs, p);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }

        #[test]
        fn prop_ecdf_monotone(xs in proptest::collection::vec(-10.0..10.0f64, 1..40),
                              a in -12.0..12.0f64, b in -12.0..12.0f64) {
            let e = Ecdf::new(xs);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(e.eval(lo) <= e.eval(hi) + 1e-12);
        }

        #[test]
        fn prop_welford_merge_any_split(xs in proptest::collection::vec(-50.0..50.0f64, 2..60),
                                        split in 0usize..60) {
            let split = split.min(xs.len());
            let mut a = Welford::new();
            let mut b = Welford::new();
            for &x in &xs[..split] { a.push(x); }
            for &x in &xs[split..] { b.push(x); }
            a.merge(&b);
            prop_assert!((a.mean() - mean(&xs)).abs() < 1e-9);
            prop_assert!((a.variance() - std_dev(&xs).powi(2)).abs() < 1e-7);
        }
    }
}
