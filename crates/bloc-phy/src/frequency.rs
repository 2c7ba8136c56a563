//! Instantaneous-frequency estimation and tone-settling detection.
//!
//! Paper Fig. 4 is about exactly this observable: with random data the
//! instantaneous frequency never settles (4a); with BLoc's long 0/1 runs it
//! converges to the f₀/f₁ tones for measurable stretches (4b). The CSI
//! extractor uses [`settled_regions`] both as a diagnostic and as a guard
//! that the stable windows advertised by the link layer really are stable
//! at the PHY output.

use bloc_num::C64;

/// Per-sample instantaneous frequency (hertz) from the phase increments of
/// an IQ stream at sample rate `fs`. Output length is `iq.len() − 1`.
pub(crate) fn instantaneous_frequency(iq: &[C64], fs: f64) -> Vec<f64> {
    iq.windows(2)
        .map(|w| (w[1] * w[0].conj()).arg() * fs / (2.0 * std::f64::consts::PI))
        .collect()
}

/// A maximal region of samples whose instantaneous frequency stays within
/// `tolerance_hz` of a constant.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SettledRegion {
    /// First sample index of the region (into the IQ stream).
    pub start: usize,
    /// Region length in samples.
    pub len: usize,
    /// Mean frequency of the region, hertz.
    pub freq_hz: f64,
}

/// Finds regions of at least `min_len` samples where the instantaneous
/// frequency varies by at most ±`tolerance_hz` around its running mean.
pub fn settled_regions(
    iq: &[C64],
    fs: f64,
    tolerance_hz: f64,
    min_len: usize,
) -> Vec<SettledRegion> {
    let inst = instantaneous_frequency(iq, fs);
    let mut regions = Vec::new();
    let mut i = 0;
    while i < inst.len() {
        // Grow a region greedily while every sample stays within tolerance
        // of the region's running mean.
        let mut j = i;
        let mut sum = 0.0;
        while j < inst.len() {
            let candidate_mean = (sum + inst[j]) / (j - i + 1) as f64;
            let ok = inst[i..=j]
                .iter()
                .all(|&f| (f - candidate_mean).abs() <= tolerance_hz);
            if ok {
                sum += inst[j];
                j += 1;
            } else {
                break;
            }
        }
        let len = j - i;
        if len >= min_len {
            regions.push(SettledRegion {
                start: i,
                len,
                freq_hz: sum / len as f64,
            });
            i = j;
        } else {
            i += 1;
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulator::{GfskModulator, ModulatorConfig};

    /// Classifies a settled region as the f₀ tone (−deviation), the f₁ tone
    /// (+deviation), or neither, with a ±30 % acceptance band.
    fn classify_tone(region: &SettledRegion, deviation_hz: f64) -> Option<bool> {
        let rel = region.freq_hz / deviation_hz;
        if (rel - 1.0).abs() < 0.3 {
            Some(true)
        } else if (rel + 1.0).abs() < 0.3 {
            Some(false)
        } else {
            None
        }
    }

    fn modem() -> GfskModulator {
        GfskModulator::new(ModulatorConfig::default())
    }

    #[test]
    fn pure_tone_frequency_estimated() {
        let fs = 8e6;
        let f = 250e3;
        let iq: Vec<C64> = (0..100)
            .map(|n| C64::cis(2.0 * std::f64::consts::PI * f * n as f64 / fs))
            .collect();
        for est in instantaneous_frequency(&iq, fs) {
            assert!((est - f).abs() < 1.0);
        }
    }

    #[test]
    fn run_pattern_settles_random_data_does_not() {
        // The Fig. 4 contrast, asserted numerically.
        let m = modem();
        let fs = m.config().sample_rate();

        // (a) pseudo-random bits: no settled region of a full symbol.
        let random_bits: Vec<bool> = (0..64).map(|i| ((i * 37 + 11) % 64) % 2 == 0).collect();
        // make sure it has no run longer than 2
        let iq = m.modulate(&random_bits);
        let regions = settled_regions(&iq, fs, 5e3, 3 * 8);
        // alternating data may settle briefly; require: far fewer settled
        // samples than the run pattern achieves.
        let settled_random: usize = regions.iter().map(|r| r.len).sum();

        // (b) BLoc run pattern: long settled stretches at both tones.
        let mut run_bits = vec![false; 16];
        run_bits.extend(vec![true; 16]);
        run_bits.extend(vec![false; 16]);
        run_bits.extend(vec![true; 16]);
        let iq = m.modulate(&run_bits);
        let regions = settled_regions(&iq, fs, 5e3, 3 * 8);
        let settled_runs: usize = regions.iter().map(|r| r.len).sum();

        assert!(
            settled_runs > 4 * settled_random + 8,
            "runs settled {settled_runs} vs random {settled_random}"
        );
        // Both tones observed:
        let tones: Vec<Option<bool>> = regions.iter().map(|r| classify_tone(r, 250e3)).collect();
        assert!(
            tones.contains(&Some(true)) && tones.contains(&Some(false)),
            "{tones:?}"
        );
    }

    #[test]
    fn settled_region_frequencies_match_tones() {
        let m = modem();
        let fs = m.config().sample_rate();
        let mut bits = vec![false; 12];
        bits.extend(vec![true; 12]);
        let iq = m.modulate(&bits);
        let regions = settled_regions(&iq, fs, 2e3, 2 * 8);
        assert!(
            regions.len() >= 2,
            "expected two tone regions, got {regions:?}"
        );
        assert_eq!(classify_tone(&regions[0], 250e3), Some(false));
        assert_eq!(classify_tone(regions.last().unwrap(), 250e3), Some(true));
    }

    #[test]
    fn empty_and_single_sample() {
        assert!(instantaneous_frequency(&[], 8e6).is_empty());
        assert!(instantaneous_frequency(&[C64::real(1.0)], 8e6).is_empty());
        assert!(settled_regions(&[], 8e6, 1e3, 4).is_empty());
    }
}
