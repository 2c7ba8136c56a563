//! Channel impairments applied at IQ level.
//!
//! The over-the-air effects the paper's testbed suffers and BLoc's
//! algorithms must survive: complex channel gain (attenuation + phase,
//! Eq. 1), multipath superposition (Eq. 2), additive white Gaussian noise,
//! carrier frequency offset, and the per-retune oscillator phase offsets
//! (§5.1: "every time this oscillator is used to tune the frequency, it
//! incurs a random phase offset").

use rand::Rng;

use bloc_num::C64;

/// Multiplies every sample by a complex channel gain `h` (single-tap
/// narrowband channel — for a 2 MHz BLE band, indoor delay spread ≪ symbol
/// time, so a one-tap model is exact to first order).
pub fn apply_channel_gain(iq: &mut [C64], h: C64) {
    for z in iq.iter_mut() {
        *z *= h;
    }
}

/// Superimposes multipath: `y[n] = Σ_p h_p · x[n − d_p]` with per-path
/// complex gains and integer sample delays. Samples before the first
/// arrival are zero (the receiver's capture window).
pub fn apply_multipath(iq: &[C64], paths: &[(C64, usize)]) -> Vec<C64> {
    let mut out = vec![bloc_num::complex::ZERO; iq.len()];
    for &(h, delay) in paths {
        for n in delay..iq.len() {
            out[n] += h * iq[n - delay];
        }
    }
    out
}

/// Adds complex AWGN at the given SNR (dB) relative to the mean power of
/// the signal currently in `iq`.
pub fn awgn<R: Rng + ?Sized>(iq: &mut [C64], snr_db: f64, rng: &mut R) {
    if iq.is_empty() {
        return;
    }
    let power: f64 = iq.iter().map(|z| z.norm_sq()).sum::<f64>() / iq.len() as f64;
    let noise_power = power / 10f64.powf(snr_db / 10.0);
    let sigma = (noise_power / 2.0).sqrt();
    for z in iq.iter_mut() {
        *z += C64::new(sigma * gaussian(rng), sigma * gaussian(rng));
    }
}

/// Applies a carrier frequency offset of `cfo_hz` at sample rate `fs`.
pub fn apply_cfo(iq: &mut [C64], cfo_hz: f64, fs: f64) {
    let dphi = 2.0 * std::f64::consts::PI * cfo_hz / fs;
    for (n, z) in iq.iter_mut().enumerate() {
        *z *= C64::cis(dphi * n as f64);
    }
}

/// Applies a constant oscillator phase offset (what a retune inflicts; the
/// quantity BLoc's Eq. 10 cancels).
pub fn apply_phase_offset(iq: &mut [C64], phi: f64) {
    apply_channel_gain(iq, C64::cis(phi));
}

/// A standard-normal sample via Box–Muller (keeps the crate independent of
/// `rand_distr`).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn tone(n: usize) -> Vec<C64> {
        (0..n).map(|i| C64::cis(0.1 * i as f64)).collect()
    }

    #[test]
    fn gain_scales_power() {
        let mut iq = tone(100);
        apply_channel_gain(&mut iq, C64::from_polar(0.5, 1.0));
        let p: f64 = iq.iter().map(|z| z.norm_sq()).sum::<f64>() / 100.0;
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn multipath_single_path_is_gain_and_delay() {
        let iq = tone(32);
        let h = C64::from_polar(0.7, -0.3);
        let out = apply_multipath(&iq, &[(h, 3)]);
        assert_eq!(out[0], bloc_num::complex::ZERO);
        for n in 3..32 {
            let expect = h * iq[n - 3];
            assert!((out[n] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn multipath_superposition_is_linear() {
        let iq = tone(64);
        let p1 = (C64::from_polar(1.0, 0.0), 0usize);
        let p2 = (C64::from_polar(0.5, 1.5), 5usize);
        let both = apply_multipath(&iq, &[p1, p2]);
        let a = apply_multipath(&iq, &[p1]);
        let b = apply_multipath(&iq, &[p2]);
        for n in 0..64 {
            assert!((both[n] - (a[n] + b[n])).abs() < 1e-12);
        }
    }

    #[test]
    fn awgn_hits_requested_snr() {
        let mut rng = StdRng::seed_from_u64(1);
        let clean = tone(20_000);
        let mut noisy = clean.clone();
        awgn(&mut noisy, 10.0, &mut rng);
        let noise_p: f64 = noisy
            .iter()
            .zip(&clean)
            .map(|(a, b)| (*a - *b).norm_sq())
            .sum::<f64>()
            / 20_000.0;
        let signal_p: f64 = clean.iter().map(|z| z.norm_sq()).sum::<f64>() / 20_000.0;
        let snr_db = 10.0 * (signal_p / noise_p).log10();
        assert!((snr_db - 10.0).abs() < 0.3, "measured SNR {snr_db} dB");
    }

    #[test]
    fn awgn_on_empty_is_noop() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut iq: Vec<C64> = Vec::new();
        awgn(&mut iq, 10.0, &mut rng);
        assert!(iq.is_empty());
    }

    #[test]
    fn cfo_rotates_linearly() {
        let mut iq = vec![C64::real(1.0); 10];
        apply_cfo(&mut iq, 1000.0, 8e6);
        let step = (iq[1] * iq[0].conj()).arg();
        let expected = 2.0 * std::f64::consts::PI * 1000.0 / 8e6;
        assert!((step - expected).abs() < 1e-12);
    }

    #[test]
    fn phase_offset_preserves_magnitude() {
        let mut iq = tone(50);
        apply_phase_offset(&mut iq, 1.234);
        for (z, orig) in iq.iter().zip(tone(50)) {
            assert!((z.abs() - orig.abs()).abs() < 1e-12);
            assert!(
                ((z.arg() - orig.arg() - 1.234 + std::f64::consts::PI)
                    .rem_euclid(2.0 * std::f64::consts::PI)
                    - std::f64::consts::PI)
                    .abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..50_000).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
