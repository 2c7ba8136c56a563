//! The Gaussian frequency pulse of GFSK.
//!
//! BLE smooths its FSK bit stream with a Gaussian filter (BT = 0.5) "to
//! avoid frequent jumps in frequency (and out-of-band noise)" — which is
//! precisely what makes CSI measurement hard (paper §4, Fig. 4a): the
//! instantaneous frequency only *converges* to the tone when several equal
//! bits are sent back-to-back (Fig. 4b).
//!
//! The frequency pulse is the convolution of a one-symbol rectangle with a
//! Gaussian low-pass of 3 dB bandwidth `B = BT / T`:
//!
//! `g(t) = rect_T(t) * h_G(t)`, `h_G(t) = √(2π/ln2)·B·exp(−2π²B²t²/ln2)`
//!
//! sampled at `sps` samples per symbol over a span of ±`span` symbols and
//! normalized to unit area (so a long run of +1 bits drives the shaped
//! waveform to exactly +1).

/// A sampled Gaussian frequency pulse.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct GaussianPulse {
    taps: Vec<f64>,
    sps: usize,
    span: usize,
}

impl GaussianPulse {
    /// Builds the pulse for bandwidth-time product `bt`, `sps` samples per
    /// symbol, spanning ±`span` symbols.
    ///
    /// # Panics
    /// Panics for `sps == 0`, `span == 0` or non-positive `bt`.
    pub fn new(bt: f64, sps: usize, span: usize) -> Self {
        assert!(sps > 0 && span > 0, "pulse needs sps > 0 and span > 0");
        assert!(bt > 0.0, "BT product must be positive");

        let ln2 = std::f64::consts::LN_2;
        let b = bt; // bandwidth in 1/T units; time below is in symbols
        let gauss = |t: f64| {
            (2.0 * std::f64::consts::PI / ln2).sqrt()
                * b
                * (-2.0 * std::f64::consts::PI.powi(2) * b * b * t * t / ln2).exp()
        };

        // g(t) = ∫_{t-1/2}^{t+1/2} h_G(u) du, evaluated by fine quadrature.
        let n = 2 * span * sps + 1;
        let mut taps = Vec::with_capacity(n);
        let quad_steps = 64;
        for i in 0..n {
            let t = (i as f64 - (n - 1) as f64 / 2.0) / sps as f64;
            let mut acc = 0.0;
            for q in 0..quad_steps {
                let u = t - 0.5 + (q as f64 + 0.5) / quad_steps as f64;
                acc += gauss(u);
            }
            taps.push(acc / quad_steps as f64);
        }
        // Normalize to unit area first, then fix up the symbol-spaced comb
        // sum so a constant bit stream settles at exactly ±1.
        let sum: f64 = taps.iter().sum();
        for tap in &mut taps {
            *tap /= sum;
        }
        let mut p = Self { taps, sps, span };
        p.renormalize_comb();
        p
    }

    /// Adjusts taps so that the sum over a symbol-spaced comb equals 1
    /// (exactness matters: it makes long runs settle at exactly ±1).
    fn renormalize_comb(&mut self) {
        // Sum taps at stride sps starting from the centre.
        let mut comb = 0.0;
        let centre = self.taps.len() / 2;
        let mut i = centre as isize;
        while i >= 0 {
            comb += self.taps[i as usize];
            i -= self.sps as isize;
        }
        let mut i = centre + self.sps;
        while i < self.taps.len() {
            comb += self.taps[i];
            i += self.sps;
        }
        if comb > 0.0 {
            for t in &mut self.taps {
                *t /= comb;
            }
        }
    }

    /// The filter taps.
    #[cfg(test)]
    pub(crate) fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Shapes a bit sequence into the normalized frequency waveform
    /// (−1 … +1), `sps` samples per input bit.
    ///
    /// Bits are treated as NRZ impulses (±1) at symbol centres, convolved
    /// with the pulse. The output has `bits.len() · sps` samples aligned so
    /// sample `k·sps + sps/2` sits at the centre of bit `k`; the filter's
    /// group delay is compensated internally. Edge bits are extended (the
    /// first/last bit value is held) so the waveform starts and ends
    /// settled, matching a radio that idles at the last tone.
    pub(crate) fn shape(&self, bits: &[bool]) -> Vec<f64> {
        if bits.is_empty() {
            return Vec::new();
        }
        let n_out = bits.len() * self.sps;
        let half = (self.taps.len() - 1) / 2; // group delay in samples
        let mut out = vec![0.0; n_out];

        // Symbol value at (possibly out-of-range) bit index, clamped.
        let bit_val = |idx: isize| -> f64 {
            let idx = idx.clamp(0, bits.len() as isize - 1) as usize;
            if bits[idx] {
                1.0
            } else {
                -1.0
            }
        };

        // out[n] = Σ_k bit(k) · taps[n + half − sps/2 − k·sps] — an impulse
        // train through the (rect⊗gauss) pulse, with bit k's pulse centre
        // landing at sample k·sps + sps/2 (the bit centre).
        for (n, sample) in out.iter_mut().enumerate() {
            let centre_sample = n as isize + half as isize - (self.sps / 2) as isize;
            let k_min =
                (centre_sample - self.taps.len() as isize + 1).div_euclid(self.sps as isize);
            let k_max = centre_sample.div_euclid(self.sps as isize);
            let mut acc = 0.0;
            for k in k_min..=k_max {
                let tap_idx = centre_sample - k * self.sps as isize;
                if tap_idx >= 0 && (tap_idx as usize) < self.taps.len() {
                    acc += bit_val(k) * self.taps[tap_idx as usize];
                }
            }
            *sample = acc;
        }
        out
    }
}

/// The BLE-standard pulse: BT = 0.5 at the given oversampling, ±2-symbol
/// span.
pub(crate) fn ble_pulse(sps: usize) -> GaussianPulse {
    GaussianPulse::new(bloc_num::constants::BLE_GAUSSIAN_BT, sps, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn taps_are_symmetric_and_positive() {
        let p = ble_pulse(8);
        let taps = p.taps();
        for (a, b) in taps.iter().zip(taps.iter().rev()) {
            assert!((a - b).abs() < 1e-12, "pulse must be symmetric");
        }
        assert!(taps.iter().all(|&t| t >= 0.0));
        let centre = taps[taps.len() / 2];
        assert!(
            taps.iter().all(|&t| t <= centre + 1e-12),
            "centre tap must be max"
        );
    }

    #[test]
    fn long_run_settles_at_plus_minus_one() {
        // Paper Fig. 4(b): long equal-bit runs drive the frequency to the
        // tone. With comb normalization the settle value is exactly ±1.
        let p = ble_pulse(8);
        let bits = vec![true; 12];
        let w = p.shape(&bits);
        let mid = &w[5 * 8..7 * 8];
        for &v in mid {
            assert!((v - 1.0).abs() < 1e-9, "settled value {v}");
        }
        let bits = vec![false; 12];
        let w = p.shape(&bits);
        for &v in &w[5 * 8..7 * 8] {
            assert!((v + 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn alternating_bits_never_settle() {
        // Paper Fig. 4(a): random/alternating data keeps the frequency in
        // permanent transition — |f| stays well below the tone.
        let p = ble_pulse(8);
        let bits: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let w = p.shape(&bits);
        let interior = &w[4 * 8..16 * 8];
        let max = interior.iter().cloned().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(
            max < 0.9,
            "alternating bits reached {max}, should stay below tone"
        );
    }

    #[test]
    fn transition_is_smooth() {
        // The Gaussian filter bounds the per-sample slope; a raw FSK switch
        // would jump by 2.0 in one sample.
        let p = ble_pulse(8);
        let mut bits = vec![false; 8];
        bits.extend(vec![true; 8]);
        let w = p.shape(&bits);
        for pair in w.windows(2) {
            assert!(
                (pair[1] - pair[0]).abs() < 0.5,
                "jump {}",
                (pair[1] - pair[0]).abs()
            );
        }
    }

    #[test]
    fn output_length_and_alignment() {
        let p = ble_pulse(4);
        let bits = vec![true, false, true];
        let w = p.shape(&bits);
        assert_eq!(w.len(), 12);
        // Bit centres carry the right sign even for single bits.
        assert!(w[2 + 4] < 0.0, "centre of bit 1 (false) must be negative");
    }

    #[test]
    fn empty_bits_empty_waveform() {
        assert!(ble_pulse(8).shape(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "sps > 0")]
    fn zero_sps_panics() {
        GaussianPulse::new(0.5, 0, 2);
    }

    #[test]
    fn settling_time_grows_as_bt_shrinks() {
        // Tighter filters (smaller BT) need longer runs to settle — the
        // physical reason BLoc needs *long* 0/1 sequences.
        let settle_samples = |bt: f64| {
            let p = GaussianPulse::new(bt, 8, 4);
            let mut bits = vec![false; 10];
            bits.extend(vec![true; 10]);
            let w = p.shape(&bits);
            // First sample after the transition point where w > 0.99:
            w.iter()
                .skip(10 * 8)
                .position(|&v| v > 0.99)
                .unwrap_or(usize::MAX)
        };
        assert!(settle_samples(0.3) > settle_samples(1.0));
    }

    proptest! {
        #[test]
        fn prop_waveform_bounded(bits in proptest::collection::vec(any::<bool>(), 1..64)) {
            let p = ble_pulse(8);
            for v in p.shape(&bits) {
                prop_assert!(v.abs() <= 1.0 + 1e-9);
            }
        }

        #[test]
        fn prop_polarity_symmetry(bits in proptest::collection::vec(any::<bool>(), 1..32)) {
            // Inverting every bit negates the waveform.
            let p = ble_pulse(4);
            let w1 = p.shape(&bits);
            let inv: Vec<bool> = bits.iter().map(|b| !b).collect();
            let w2 = p.shape(&inv);
            for (a, b) in w1.iter().zip(&w2) {
                prop_assert!((a + b).abs() < 1e-9);
            }
        }
    }
}
