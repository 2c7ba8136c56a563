//! GFSK demodulation: IQ samples → bits, via quadrature discriminator.
//!
//! The discriminator computes the per-sample phase increment
//! `Δφ[n] = ∠(y[n]·y*[n−1])` (proportional to instantaneous frequency) and
//! decides each bit from the sign of the increment averaged over the
//! symbol. The simulation is sample-aligned, so no timing recovery is
//! needed — the anchors in the paper's testbed are likewise driven from a
//! shared clock (§7).

use bloc_num::C64;

/// Demodulates sample-aligned GFSK IQ into bits (`sps` samples per symbol).
///
/// Robust to constant complex channel gain, carrier phase and amplitude
/// scaling (the discriminator only sees phase *differences*), and to
/// moderate noise (the per-symbol average integrates over `sps` samples).
pub fn demodulate(iq: &[C64], sps: usize) -> Vec<bool> {
    assert!(sps > 0, "sps must be positive");
    let n_sym = iq.len() / sps;
    let mut bits = Vec::with_capacity(n_sym);
    for s in 0..n_sym {
        let start = s * sps;
        let mut acc = 0.0;
        for n in start.max(1)..start + sps {
            acc += (iq[n] * iq[n - 1].conj()).arg();
        }
        bits.push(acc > 0.0);
    }
    bits
}

/// Counts bit errors between a transmitted and received sequence (shorter
/// length wins; extra bits in either are ignored).
pub fn bit_errors(tx: &[bool], rx: &[bool]) -> usize {
    tx.iter().zip(rx).filter(|(a, b)| a != b).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impairments::{apply_channel_gain, awgn};
    use crate::modulator::{GfskModulator, ModulatorConfig};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn modem() -> GfskModulator {
        GfskModulator::new(ModulatorConfig::default())
    }

    #[test]
    fn clean_roundtrip() {
        let m = modem();
        let bits: Vec<bool> = (0..64).map(|i| (i * 5 + 1) % 3 == 0).collect();
        let iq = m.modulate(&bits);
        let rx = demodulate(&iq, 8);
        assert_eq!(bit_errors(&bits, &rx), 0, "noiseless demod must be perfect");
    }

    #[test]
    fn roundtrip_with_channel_gain_and_phase() {
        let m = modem();
        let bits: Vec<bool> = (0..64).map(|i| i % 7 < 3).collect();
        let mut iq = m.modulate(&bits);
        apply_channel_gain(&mut iq, C64::from_polar(0.05, 2.1));
        let rx = demodulate(&iq, 8);
        assert_eq!(
            bit_errors(&bits, &rx),
            0,
            "discriminator must ignore complex gain"
        );
    }

    #[test]
    fn roundtrip_at_moderate_snr() {
        let m = modem();
        let mut rng = StdRng::seed_from_u64(5);
        let bits: Vec<bool> = (0..256).map(|i| (i * 11) % 4 < 2).collect();
        let mut iq = m.modulate(&bits);
        awgn(&mut iq, 15.0, &mut rng); // 15 dB SNR
        let rx = demodulate(&iq, 8);
        let errs = bit_errors(&bits, &rx);
        assert!(
            errs <= 2,
            "15 dB SNR should be near error-free, got {errs} errors"
        );
    }

    #[test]
    fn degrades_gracefully_at_low_snr() {
        let m = modem();
        let mut rng = StdRng::seed_from_u64(6);
        let bits: Vec<bool> = (0..512).map(|i| i % 2 == 0).collect();
        let mut iq = m.modulate(&bits);
        awgn(&mut iq, -10.0, &mut rng);
        let rx = demodulate(&iq, 8);
        let errs = bit_errors(&bits, &rx);
        // At −10 dB the demod is near chance but must not be systematically
        // inverted either.
        assert!(errs > 50 && errs < 462, "errors at -10 dB: {errs}/512");
    }

    #[test]
    fn empty_input() {
        assert!(demodulate(&[], 8).is_empty());
    }

    proptest! {
        #[test]
        fn prop_noiseless_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..128)) {
            let m = modem();
            let iq = m.modulate(&bits);
            let rx = demodulate(&iq, 8);
            prop_assert_eq!(bit_errors(&bits, &rx), 0);
        }

        #[test]
        fn prop_gain_invariance(bits in proptest::collection::vec(any::<bool>(), 1..64),
                                r in 0.01..10.0f64, theta in -3.0..3.0f64) {
            let m = modem();
            let mut iq = m.modulate(&bits);
            apply_channel_gain(&mut iq, C64::from_polar(r, theta));
            prop_assert_eq!(bit_errors(&bits, &demodulate(&iq, 8)), 0);
        }
    }
}
