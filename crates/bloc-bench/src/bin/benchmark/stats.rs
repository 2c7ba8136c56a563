//! Order statistics with the benchmark's reporting discipline.
//!
//! Medians and interpolated percentiles come from [`bloc_num::stats`]; this
//! module adds the rule that a tail percentile is only reported when at
//! least [`MIN_BEYOND`] samples lie beyond it. With fewer, the value is a
//! single sample in disguise, so it prints `skipped (n=…)` instead.

use std::fmt;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile, or the reason it was not reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    /// The interpolated percentile.
    Value(f64),
    /// Too few samples lie beyond the percentile; `n` is the sample count.
    Skipped {
        /// Samples available.
        n: usize,
        /// The interpolated percentile, kept for machine output only.
        raw: f64,
    },
}

impl Tail {
    /// The number to report, reported or not.
    pub fn raw(self) -> f64 {
        match self {
            Tail::Value(v) | Tail::Skipped { raw: v, .. } => v,
        }
    }
}

impl fmt::Display for Tail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tail::Value(v) => write!(f, "{v:.4}"),
            Tail::Skipped { n, .. } => write!(f, "skipped (n={n})"),
        }
    }
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - ((n as f64 * p / 100.0).ceil() as usize).min(n)
}

/// The `p`-th percentile of `xs`, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(xs: &[f64], p: f64) -> Tail {
    let raw = bloc_num::stats::percentile(xs, p);
    if beyond(xs.len(), p) >= MIN_BEYOND {
        Tail::Value(raw)
    } else {
        Tail::Skipped { n: xs.len(), raw }
    }
}

/// First quartile, median and third quartile.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    [25.0, 50.0, 75.0].map(|p| bloc_num::stats::percentile(xs, p))
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let xs = [7.0, 1.0, 3.0, 5.0];
        assert_eq!(bloc_num::stats::median(&xs), 4.0);
        assert_eq!(quartiles(&xs), [2.5, 4.0, 5.5]);
        let odd = [2.0, 9.0, 4.0];
        assert_eq!(quartiles(&odd), [3.0, 4.0, 6.5]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(0, 95.0), 0);
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(matches!(tail(&many, 95.0), Tail::Value(v) if (v - 189.05).abs() < 1e-9));
        let few: Vec<f64> = (0..199).map(f64::from).collect();
        let t = tail(&few, 95.0);
        assert_eq!(t.to_string(), "skipped (n=199)");
        assert!((t.raw() - 188.1).abs() < 1e-9);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
