//! Shannon entropy and the *negentropy sharpness* measure of BLoc's
//! multipath-rejection score.
//!
//! Paper §5.4: "for each peak in the likelihood distribution, we compute the
//! entropy of the likelihood distribution in its immediate neighborhood. If
//! the likelihood distribution is almost flat, the entropy will be low and
//! hence, the path is more likely a reflected path."
//!
//! Taken literally with Shannon entropy this is inverted — a *flat*
//! normalized distribution has *maximal* Shannon entropy. The quantity that
//! matches the paper's prose (low for flat, high for peaky) is the
//! **negentropy** `H = ln(N) − H_shannon`, i.e. the divergence of the
//! neighborhood from uniform. We adopt that reading (recorded in DESIGN.md)
//! so the published score `s_x = p_x·e^{bH − aΣd}` and the published weights
//! `a = 0.1`, `b = 0.05` apply as written: direct paths (peaky ⇒ high H) are
//! rewarded, scattered reflections (flat ⇒ low H) are penalized.

/// Shannon entropy (nats) of a non-negative weight vector, normalizing it
/// to a probability distribution first. Returns 0 for an empty or all-zero
/// input.
pub(crate) fn shannon(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &w in weights {
        if w > 0.0 && w.is_finite() {
            let p = w / total;
            h -= p * p.ln();
        }
    }
    h
}

/// Negentropy sharpness: `ln(N) − shannon(weights)` where `N` is the number
/// of strictly positive weights. Zero for a flat patch, `ln(N)` in the limit
/// of all mass on one cell. This is the `H` of paper Eq. 18 under our
/// interpretation.
pub fn negentropy(weights: &[f64]) -> f64 {
    let n = weights
        .iter()
        .filter(|w| w.is_finite() && **w > 0.0)
        .count();
    if n <= 1 {
        // A single positive cell is maximally peaky but ln(1) = 0; treat a
        // degenerate window as neutral rather than inventing sharpness.
        return 0.0;
    }
    ((n as f64).ln() - shannon(weights)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn flat_patch_has_zero_negentropy() {
        let w = vec![0.7; 37];
        assert!(shannon(&w) > 3.6e0 - 0.1); // ln 37 ≈ 3.61
        assert!(negentropy(&w).abs() < 1e-12);
    }

    #[test]
    fn peaky_patch_has_high_negentropy() {
        let mut w = vec![1e-6; 37];
        w[18] = 1.0;
        let h = negentropy(&w);
        assert!(
            h > 3.0,
            "near-delta patch should approach ln 37 ≈ 3.61, got {h}"
        );
    }

    #[test]
    fn negentropy_ranks_sharpness() {
        // Direct path (peaky) must out-score a scattered reflection (spread).
        let peaky: Vec<f64> = (0..37)
            .map(|i| (-((i as f64 - 18.0).powi(2)) / 2.0).exp())
            .collect();
        let spread: Vec<f64> = (0..37)
            .map(|i| (-((i as f64 - 18.0).powi(2)) / 200.0).exp())
            .collect();
        assert!(negentropy(&peaky) > negentropy(&spread));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(shannon(&[]), 0.0);
        assert_eq!(shannon(&[0.0, 0.0]), 0.0);
        assert_eq!(negentropy(&[]), 0.0);
        assert_eq!(negentropy(&[5.0]), 0.0);
        assert_eq!(negentropy(&[0.0, 3.0]), 0.0); // one positive cell
    }

    #[test]
    fn scale_invariance() {
        let w = [0.2, 0.5, 0.1, 0.9];
        let w10: Vec<f64> = w.iter().map(|x| x * 10.0).collect();
        assert!((shannon(&w) - shannon(&w10)).abs() < 1e-12);
        assert!((negentropy(&w) - negentropy(&w10)).abs() < 1e-12);
    }

    #[test]
    fn ignores_nonfinite_weights() {
        let w = [1.0, f64::NAN, 2.0, f64::INFINITY];
        let clean = [1.0, 2.0];
        assert!((shannon(&w) - shannon(&clean)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_shannon_bounds(w in proptest::collection::vec(0.0..10.0f64, 1..50)) {
            let n = w.iter().filter(|x| **x > 0.0).count();
            let h = shannon(&w);
            prop_assert!(h >= -1e-12);
            prop_assert!(h <= (n.max(1) as f64).ln() + 1e-9);
        }

        #[test]
        fn prop_negentropy_nonnegative(w in proptest::collection::vec(0.0..10.0f64, 1..50)) {
            prop_assert!(negentropy(&w) >= 0.0);
        }
    }
}
