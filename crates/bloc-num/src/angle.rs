//! Angle hygiene: wrapping, unwrapping and conversions.
//!
//! Channel phases are only ever observed modulo 2π; both the phase-stability
//! microbenchmark (paper Fig. 8a) and the linear-phase-versus-subband check
//! (Fig. 8b) need a careful 1-D phase unwrap, and AoA work needs principled
//! wrapping.

use std::f64::consts::PI;

/// Two π, for readability in phase arithmetic.
pub(crate) const TAU: f64 = 2.0 * PI;

/// Wraps an angle to `(−π, π]`.
#[cfg(test)]
fn wrap_to_pi(theta: f64) -> f64 {
    let mut t = theta.rem_euclid(TAU);
    if t > PI {
        t -= TAU;
    }
    t
}

/// Radians → degrees.
#[inline]
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / PI
}

/// Unwraps a phase sequence in place: successive samples are adjusted by
/// multiples of 2π so that no step exceeds π in magnitude.
///
/// This mirrors the classic `unwrap` of numerical environments and is what
/// lets us display the *linear* phase-versus-frequency trend of corrected
/// channels (paper Fig. 8b) without modular jumps.
pub(crate) fn unwrap_in_place(phases: &mut [f64]) {
    let mut offset = 0.0;
    for i in 1..phases.len() {
        let raw = phases[i] + offset;
        let prev = phases[i - 1];
        let mut d = raw - prev;
        while d > PI {
            offset -= TAU;
            d -= TAU;
        }
        while d <= -PI {
            offset += TAU;
            d += TAU;
        }
        phases[i] = prev + d;
    }
}

/// Returns an unwrapped copy of a phase sequence.
pub fn unwrap(phases: &[f64]) -> Vec<f64> {
    let mut v = phases.to_vec();
    unwrap_in_place(&mut v);
    v
}

/// Circular mean of a set of angles (radians), the right way to average
/// phases: `atan2(Σ sin, Σ cos)`.
///
/// Used when combining the per-band h₀/h₁ measurements into one channel
/// value per band ("averaging the channel amplitude and channel phase
/// separately", paper §5 preamble).
pub fn circular_mean(angles: &[f64]) -> f64 {
    let (mut s, mut c) = (0.0, 0.0);
    for &a in angles {
        let (si, ci) = a.sin_cos();
        s += si;
        c += ci;
    }
    s.atan2(c)
}

/// Circular variance in `[0, 1]`: 0 for perfectly aligned phases, →1 for
/// uniformly scattered ones. Used by CSI-stability diagnostics.
pub fn circular_variance(angles: &[f64]) -> f64 {
    if angles.is_empty() {
        return 0.0;
    }
    let (mut s, mut c) = (0.0, 0.0);
    for &a in angles {
        let (si, ci) = a.sin_cos();
        s += si;
        c += ci;
    }
    let r = (s * s + c * c).sqrt() / angles.len() as f64;
    1.0 - r
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wrap_examples() {
        assert!((wrap_to_pi(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_to_pi(-3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_to_pi(0.5) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn unwrap_recovers_linear_ramp() {
        // A linear phase ramp (the signature of a single dominant path,
        // Fig. 8b) wrapped into (−π, π] must unwrap back to a line.
        let true_phases: Vec<f64> = (0..50).map(|k| 0.9 * k as f64).collect();
        let wrapped: Vec<f64> = true_phases.iter().map(|&p| wrap_to_pi(p)).collect();
        let un = unwrap(&wrapped);
        for (u, t) in un.iter().zip(&true_phases) {
            // Unwrap is only defined up to a global 2π multiple of the start.
            assert!(((u - t) - (un[0] - true_phases[0])).abs() < 1e-9);
        }
    }

    #[test]
    fn circular_mean_handles_wraparound() {
        // Angles straddling the ±π cut: naive mean would give ~0, circular
        // mean must give ~π.
        let m = circular_mean(&[PI - 0.1, -PI + 0.1]);
        assert!((wrap_to_pi(m - PI)).abs() < 1e-9, "mean = {m}");
    }

    #[test]
    fn circular_variance_bounds() {
        assert!(circular_variance(&[1.0, 1.0, 1.0]) < 1e-12);
        let spread = circular_variance(&[0.0, PI / 2.0, PI, 3.0 * PI / 2.0]);
        assert!(spread > 0.99, "uniform four-point spread, var = {spread}");
    }

    proptest! {
        #[test]
        fn prop_wrap_range(t in -100.0..100.0f64) {
            let w = wrap_to_pi(t);
            prop_assert!(w > -PI - 1e-12 && w <= PI + 1e-12);
            // Wrapping preserves the angle modulo 2π.
            prop_assert!(((t - w).rem_euclid(TAU)).min(TAU - (t - w).rem_euclid(TAU)) < 1e-9);
        }

        #[test]
        fn prop_unwrap_steps_bounded(phs in proptest::collection::vec(-50.0..50.0f64, 2..60)) {
            let wrapped: Vec<f64> = phs.iter().map(|&p| wrap_to_pi(p)).collect();
            let un = unwrap(&wrapped);
            for w in un.windows(2) {
                prop_assert!((w[1] - w[0]).abs() <= PI + 1e-9);
            }
        }
    }
}
