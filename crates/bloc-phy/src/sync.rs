//! Packet detection and timing synchronization.
//!
//! The simulator hands the CSI extractor sample-aligned packets, but a
//! real anchor (like the paper's USRP receive chain) sees a continuous
//! sample stream and must *find* each packet first. This module provides
//! the standard mechanism: correlate the stream against the modulated
//! preamble + access address (40 known bits — the sync word BLoc's
//! overhearing anchors already know from the `CONNECT_IND`), take the
//! normalized correlation peak as the packet start, and gate on a
//! threshold so noise does not trigger.
//!
//! The correlation is magnitude-based, so it is immune to the unknown
//! channel gain, carrier phase, and the oscillator offsets that BLoc
//! later cancels.

use bloc_ble::access_address::AccessAddress;
use bloc_ble::packet::bytes_to_bits;
use bloc_num::{complex, C64};

use crate::modulator::GfskModulator;

/// A detected packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Sample index of the packet start (the first preamble sample).
    pub offset: usize,
    /// Normalized correlation at the peak, in `[0, 1]`.
    pub quality: f64,
}

/// The modulated reference waveform of `preamble ‖ access address` — the
/// 40-bit sync pattern every frame with this address begins with.
pub(crate) fn sync_reference(aa: AccessAddress, modem: &GfskModulator) -> Vec<C64> {
    let mut bytes = vec![aa.preamble()];
    bytes.extend_from_slice(&aa.to_bytes());
    modem.modulate(&bytes_to_bits(&bytes))
}

/// Normalized cross-correlation magnitude of `reference` against every
/// alignment of `stream`: output k = |⟨stream[k..], ref⟩| / (‖stream
/// window‖·‖ref‖). Output length is `stream.len() − reference.len() + 1`
/// (empty if the stream is shorter than the reference). A window that
/// holds a non-finite sample (a NaN or infinite reading from the radio)
/// scores NaN; the samples outside it keep every other window finite.
pub(crate) fn normalized_correlation(stream: &[C64], reference: &[C64]) -> Vec<f64> {
    let n = reference.len();
    if n == 0 || stream.len() < n {
        return Vec::new();
    }
    let ref_energy: f64 = reference.iter().map(|z| z.norm_sq()).sum();
    let ref_norm = ref_energy.sqrt();

    // Running window energy for the normalization. A non-finite sample
    // adds nothing to it and is counted instead; while the count is
    // non-zero the window scores NaN.
    let finite_energy = |z: &C64| Some(z.norm_sq()).filter(|e| e.is_finite());
    let mut window_energy: f64 = stream[..n].iter().filter_map(finite_energy).sum();
    let mut blind = stream[..n]
        .iter()
        .filter(|z| finite_energy(z).is_none())
        .count();
    let mut out = Vec::with_capacity(stream.len() - n + 1);
    for k in 0..=stream.len() - n {
        if k > 0 {
            let entering = finite_energy(&stream[k + n - 1]);
            let leaving = finite_energy(&stream[k - 1]);
            blind = blind + usize::from(entering.is_none()) - usize::from(leaving.is_none());
            window_energy += entering.unwrap_or(0.0) - leaving.unwrap_or(0.0);
            if !window_energy.is_finite() {
                // Finite samples whose energies overflow the sum: start
                // the sum afresh rather than carry an infinity forward.
                window_energy = stream[k..k + n].iter().filter_map(finite_energy).sum();
            }
        }
        if blind > 0 {
            out.push(f64::NAN);
            continue;
        }
        let mut acc = complex::ZERO;
        for (s, r) in stream[k..k + n].iter().zip(reference) {
            acc += *s * r.conj();
        }
        let denom = (window_energy.max(0.0).sqrt() * ref_norm).max(f64::MIN_POSITIVE);
        out.push(acc.abs() / denom);
    }
    out
}

/// Scans a sample stream for a packet with the given access address.
/// Returns the best detection at or above `threshold` (0.5–0.8 is a
/// sensible range: a perfect match scores 1.0, noise scores ≪ 0.5).
/// Windows that hold a non-finite sample are skipped, so a corrupt reading
/// hides only the packets it overlaps.
pub fn detect_packet(
    stream: &[C64],
    aa: AccessAddress,
    modem: &GfskModulator,
    threshold: f64,
) -> Option<Detection> {
    let reference = sync_reference(aa, modem);
    let corr = normalized_correlation(stream, &reference);
    let (offset, &quality) = corr
        .iter()
        .enumerate()
        .filter(|(_, q)| q.is_finite())
        .max_by(|a, b| a.1.total_cmp(b.1))?;
    (quality >= threshold).then_some(Detection { offset, quality })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impairments::apply_channel_gain;
    use crate::modulator::{GfskModulator, ModulatorConfig};
    use bloc_ble::channels::Channel;
    use bloc_ble::locpacket::LocalizationPacket;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn modem() -> GfskModulator {
        GfskModulator::new(ModulatorConfig::default())
    }

    fn noise(rng: &mut StdRng, n: usize, sigma: f64) -> Vec<C64> {
        (0..n)
            .map(|_| {
                let g = |rng: &mut StdRng| {
                    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    let u2: f64 = rng.gen();
                    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                };
                C64::new(sigma * g(rng), sigma * g(rng))
            })
            .collect()
    }

    /// A stream with a modulated localization packet buried at `offset`.
    fn stream_with_packet(
        rng: &mut StdRng,
        aa: AccessAddress,
        offset: usize,
        gain: C64,
        snr_db: f64,
    ) -> Vec<C64> {
        let packet =
            LocalizationPacket::build(Channel::data(5).unwrap(), aa, 0x555555, 8, 4).unwrap();
        let mut iq = modem().modulate(&packet.air_bits());
        apply_channel_gain(&mut iq, gain);
        let noise_sigma = gain.abs() / 10f64.powf(snr_db / 20.0) / 2f64.sqrt();
        let total = offset + iq.len() + 300;
        let mut stream = noise(rng, total, noise_sigma);
        for (k, z) in iq.iter().enumerate() {
            stream[offset + k] += *z;
        }
        stream
    }

    #[test]
    fn finds_packet_at_exact_offset() {
        let mut rng = StdRng::seed_from_u64(1);
        let aa = AccessAddress::generate(&mut rng);
        for offset in [0usize, 137, 500] {
            let stream = stream_with_packet(&mut rng, aa, offset, C64::from_polar(0.03, 1.2), 15.0);
            let det = detect_packet(&stream, aa, &modem(), 0.6).expect("packet present");
            assert_eq!(det.offset, offset, "wrong sync position");
            assert!(det.quality > 0.8, "quality {}", det.quality);
        }
    }

    #[test]
    fn gain_and_phase_invariant() {
        let mut rng = StdRng::seed_from_u64(2);
        let aa = AccessAddress::generate(&mut rng);
        for gain in [C64::from_polar(1.0, 0.0), C64::from_polar(1e-3, 2.7)] {
            let stream = stream_with_packet(&mut rng, aa, 64, gain, 20.0);
            let det = detect_packet(&stream, aa, &modem(), 0.6).expect("detect");
            assert_eq!(det.offset, 64);
        }
    }

    #[test]
    fn pure_noise_does_not_trigger() {
        let mut rng = StdRng::seed_from_u64(3);
        let aa = AccessAddress::generate(&mut rng);
        let stream = noise(&mut rng, 4000, 1.0);
        assert!(detect_packet(&stream, aa, &modem(), 0.6).is_none());
    }

    #[test]
    fn wrong_access_address_scores_low() {
        let mut rng = StdRng::seed_from_u64(4);
        let aa = AccessAddress::generate(&mut rng);
        let other = AccessAddress::generate(&mut rng);
        assert_ne!(aa, other);
        let stream = stream_with_packet(&mut rng, aa, 100, C64::from_polar(0.05, 0.0), 25.0);
        // Correlating for the wrong address must not lock onto this packet
        // with high quality.
        if let Some(det) = detect_packet(&stream, other, &modem(), 0.6) {
            assert!(det.quality < 0.75, "wrong-AA quality {}", det.quality);
        }
    }

    #[test]
    fn a_non_finite_sample_blinds_only_its_windows() {
        for bad in [C64::new(f64::NAN, 0.0), C64::new(f64::INFINITY, 0.0)] {
            let mut rng = StdRng::seed_from_u64(8);
            let aa = AccessAddress::generate(&mut rng);
            let mut stream =
                stream_with_packet(&mut rng, aa, 500, C64::from_polar(0.05, 0.4), 20.0);
            stream.truncate(1000);
            stream[100] = bad;
            let det =
                detect_packet(&stream, aa, &modem(), 0.6).expect("packet after the bad sample");
            assert_eq!(det.offset, 500, "{bad:?}");
            let corr = normalized_correlation(&stream, &sync_reference(aa, &modem()));
            assert!(corr[100].is_nan() && corr[101].is_finite(), "{bad:?}");
        }
    }

    #[test]
    fn a_non_finite_sample_inside_the_packet_does_not_panic() {
        let mut rng = StdRng::seed_from_u64(9);
        let aa = AccessAddress::generate(&mut rng);
        let mut stream = stream_with_packet(&mut rng, aa, 500, C64::from_polar(0.05, 0.4), 20.0);
        stream[520] = C64::new(f64::NAN, f64::NAN);
        if let Some(det) = detect_packet(&stream, aa, &modem(), 0.6) {
            assert!(det.quality.is_finite());
            assert!(det.offset > 520 || det.offset + sync_reference(aa, &modem()).len() <= 520);
        }
        let all_bad = vec![C64::new(f64::NAN, 0.0); 1000];
        assert!(detect_packet(&all_bad, aa, &modem(), 0.0).is_none());
    }

    #[test]
    fn short_stream_is_empty() {
        let mut rng = StdRng::seed_from_u64(6);
        let aa = AccessAddress::generate(&mut rng);
        let stream = noise(&mut rng, 10, 1.0);
        assert!(normalized_correlation(&stream, &sync_reference(aa, &modem())).is_empty());
        assert!(detect_packet(&stream, aa, &modem(), 0.5).is_none());
    }

    #[test]
    fn synced_packet_decodes_end_to_end() {
        // Detection → slice at the detected offset → demodulate → frame
        // decode: the full receive path a real anchor runs.
        let mut rng = StdRng::seed_from_u64(7);
        let aa = AccessAddress::generate(&mut rng);
        let channel = Channel::data(5).unwrap();
        let packet = LocalizationPacket::build(channel, aa, 0x555555, 8, 4).unwrap();
        let offset = 333;
        let stream = stream_with_packet(&mut rng, aa, offset, C64::from_polar(0.05, 0.9), 25.0);

        let det = detect_packet(&stream, aa, &modem(), 0.6).unwrap();
        let n_samples = packet.air_bits().len() * 8;
        let slice = &stream[det.offset..det.offset + n_samples];
        let bits = crate::demodulator::demodulate(slice, 8);
        let frame = bloc_ble::packet::Frame::decode_bits(&bits, channel, 0x555555)
            .expect("synced packet must decode");
        assert_eq!(frame, packet.frame);
    }
}
