//! A radix-2 decimation-in-time FFT.
//!
//! The localization pipeline itself never needs an FFT (Eqs. 15–17 are
//! direct matched-filter correlations over a handful of antennas and bands),
//! but the GFSK PHY does: spectral sanity checks of the modulator (the
//! Gaussian filter must suppress out-of-band energy, paper §4) and
//! instantaneous-frequency diagnostics. Power-of-two sizes only; callers
//! zero-pad.

use crate::complex::{C64, ZERO};

/// In-place forward FFT. `x.len()` must be a power of two (1 is allowed).
///
/// # Panics
/// Panics if the length is not a power of two.
pub(crate) fn fft_in_place(x: &mut [C64]) {
    transform(x);
}

/// Convenience: forward FFT of a slice into a new vector.
#[cfg(test)]
fn fft(x: &[C64]) -> Vec<C64> {
    let mut v = x.to_vec();
    fft_in_place(&mut v);
    v
}

/// Power spectrum `|X_k|²` of a signal, zero-padded to the next power of
/// two of at least `min_len`.
pub fn power_spectrum(x: &[C64], min_len: usize) -> Vec<f64> {
    let n = x.len().max(min_len).max(1).next_power_of_two();
    let mut v = vec![ZERO; n];
    v[..x.len()].copy_from_slice(x);
    fft_in_place(&mut v);
    v.into_iter().map(|z| z.norm_sq()).collect()
}

fn transform(x: &mut [C64]) {
    let n = x.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            x.swap(i, j);
        }
    }

    // Iterative butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = C64::cis(ang);
        for chunk in x.chunks_mut(len) {
            let mut w = C64::new(1.0, 0.0);
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    #[test]
    fn impulse_transforms_to_flat() {
        let mut x = vec![ZERO; 8];
        x[0] = C64::real(1.0);
        fft_in_place(&mut x);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k = 5;
        let x: Vec<C64> = (0..n)
            .map(|i| C64::cis(2.0 * PI * k as f64 * i as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (i, z) in spec.iter().enumerate() {
            if i == k {
                assert!((z.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "bin {i} leaked {}", z.abs());
            }
        }
    }

    #[test]
    fn parseval_holds() {
        let x: Vec<C64> = (0..32)
            .map(|i| C64::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let spec = fft(&x);
        let t: f64 = x.iter().map(|z| z.norm_sq()).sum();
        let f: f64 = spec.iter().map(|z| z.norm_sq()).sum::<f64>() / 32.0;
        assert!((t - f).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut x = vec![ZERO; 6];
        fft_in_place(&mut x);
    }

    #[test]
    fn length_one_is_identity() {
        let mut x = vec![C64::new(3.0, -2.0)];
        fft_in_place(&mut x);
        assert_eq!(x[0], C64::new(3.0, -2.0));
    }

    #[test]
    fn power_spectrum_pads() {
        let x = vec![C64::real(1.0); 5];
        let ps = power_spectrum(&x, 16);
        assert_eq!(ps.len(), 16);
    }

    proptest! {
        #[test]
        fn prop_fft_linearity(
            xs in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 16),
            ys in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 16),
            a in -3.0..3.0f64,
        ) {
            let x: Vec<C64> = xs.iter().map(|&(r, i)| C64::new(r, i)).collect();
            let y: Vec<C64> = ys.iter().map(|&(r, i)| C64::new(r, i)).collect();
            let combo: Vec<C64> = x.iter().zip(&y).map(|(&u, &v)| u * a + v).collect();
            let lhs = fft(&combo);
            let fx = fft(&x);
            let fy = fft(&y);
            for k in 0..16 {
                let rhs = fx[k] * a + fy[k];
                prop_assert!((lhs[k] - rhs).abs() < 1e-8);
            }
        }
    }
}
