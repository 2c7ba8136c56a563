//! Phase-offset cancellation across anchors — paper §5.2, Eqs. 7–14 —
//! with degradation-aware masking.
//!
//! Every frequency hop leaves each device's oscillator at a random phase,
//! so the measured channels are `ĥ^f_ij = h^f_ij·e^{ι(φT−φRi)}` etc. BLoc's
//! insight: the slave anchors overhear *both* directions of the
//! master↔tag exchange, and the product
//!
//! `α^f_ij = ĥ^f_ij · Ĥ^{f*}_i0 · ĥ^{f*}_00`
//!
//! cancels every offset (Eq. 10) because
//! `(φT−φRi) − (φR0−φRi) − (φT−φR0) = 0`. Geometrically (Eq. 14) the
//! corrected channel's phase encodes the *relative* distance
//! `d^ij_T − d^00_T − d^{i0}_{00}`, where the last term (master-to-anchor
//! spacing) is known from deployment.
//!
//! The master anchor itself needs no inter-anchor correction: all its
//! antennas share one oscillator, so `α^f_0j = ĥ^f_0j · ĥ^{f*}_00` is
//! already offset-free with reference distance `d^00_T`.
//!
//! ## Masking lost measurements
//!
//! Eq. 10 needs all three measurements of a triple. Real deployments lose
//! packets (`bloc_chan::faults` injects exactly these losses as
//! exactly-zero measurements), and a zero factor would silently poison the
//! product — worse, a *normalized* zero would fabricate a unit-magnitude
//! phase out of nothing. [`correct`] therefore masks instead of computing:
//!
//! * `ĥ00 = 0` (master missed the tag packet) ⇒ the whole band is
//!   **dropped** — no alpha on any anchor can be formed for it.
//! * `Ĥ_i0 = 0` (slave `i` missed the master response) ⇒ anchor `i`'s
//!   row is masked for that band.
//! * `ĥ_ij = 0` (a lost tag packet or dead antenna) ⇒ that entry is
//!   masked.
//! * Non-finite measurements are masked the same way and tallied
//!   separately.
//!
//! Masked entries are stored as **exact zeros**: a zero term contributes
//! nothing to the coherent sums of Eq. 17, so the likelihood stage
//! degrades gracefully for free, and [`CorrectedChannels::surviving`]
//! records how much evidence each anchor still carries so the joint
//! likelihood can weight anchors accordingly. The [`MaskingSummary`]
//! reports every masked hole; the `soak` binary's `fault` row reconciles
//! its totals against the injected-fault census.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bloc_chan::sounder::{BandSounding, SoundingData};
use bloc_chan::AnchorArray;
use bloc_num::{C64, P2};

use crate::error::LocalizeError;

/// Corrected channels for one frequency band.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CorrectedBand {
    /// Band centre frequency, hertz.
    pub freq_hz: f64,
    /// `alpha[i][j]` = corrected channel `α^f_ij`. Masked entries are
    /// exact zeros.
    pub alpha: Vec<Vec<C64>>,
}

/// What the masking pass discarded while correcting one sounding.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MaskingSummary {
    /// Bands in the input sounding.
    pub bands_total: usize,
    /// Bands dropped entirely (missing/non-finite `ĥ00`, or malformed
    /// shape).
    pub bands_dropped: usize,
    /// Exactly-zero input measurements absorbed (lost tag packets plus
    /// lost master responses) — reconciles with
    /// `bloc_chan::FaultCensus::holes`.
    pub holes_masked: usize,
    /// Non-finite input measurements absorbed.
    pub nonfinite_masked: usize,
    /// Frequency span (hertz) of the bands that survived — the effective
    /// stitched bandwidth of §5.1 after degradation.
    pub effective_span_hz: f64,
}

/// The full corrected-channel tensor plus the geometry needed to interpret
/// it.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CorrectedChannels {
    /// Per-band corrected channels for the bands that survived masking,
    /// in sounding order.
    pub bands: Vec<CorrectedBand>,
    /// Anchor geometry (anchor 0 is the master).
    pub anchors: Vec<AnchorArray>,
    /// `d^{i0}_{00}`: distance from master antenna 0 to anchor *i* antenna
    /// 0, measured once at deployment (paper §5.3: "a fixed distance known
    /// a priori"). Entry 0 is 0.
    pub master_anchor_dist: Vec<f64>,
    /// Per-anchor count of unmasked `(band, antenna)` alpha entries — the
    /// evidence each anchor still contributes. An anchor at 0 is dead and
    /// must be excluded from the joint likelihood.
    pub surviving: Vec<usize>,
    /// What masking discarded to produce this tensor.
    pub masking: MaskingSummary,
}

impl CorrectedChannels {
    /// Number of anchors.
    pub fn n_anchors(&self) -> usize {
        self.anchors.len()
    }

    /// Indices of anchors with at least one surviving measurement.
    pub fn usable_anchors(&self) -> Vec<usize> {
        (0..self.n_anchors())
            .filter(|&i| self.surviving[i] > 0)
            .collect()
    }

    /// The fraction of anchor `i`'s possible `(band, antenna)` entries
    /// that survived masking, in `[0, 1]` (1 when nothing was masked; 0
    /// for a dead anchor or when no band survived).
    pub fn surviving_fraction(&self, i: usize) -> f64 {
        let possible = self.bands.len() * self.anchors[i].n_antennas;
        if possible == 0 {
            0.0
        } else {
            self.surviving[i] as f64 / possible as f64
        }
    }

    /// The reference phase argument for anchor `i`, antenna `j`, at a
    /// hypothetical tag position `x`: the relative path length
    /// `Δ_ij(x) = d_ij(x) − d_00(x) − d^{i0}_{00}` whose phase
    /// `−2πfΔ/c` a corrected channel would carry if the tag were at `x`
    /// (Eq. 14).
    pub fn relative_distance(&self, i: usize, j: usize, x: P2) -> f64 {
        let d_ij = x.dist(self.anchors[i].antenna(j));
        let d_00 = x.dist(self.anchors[0].antenna(0));
        d_ij - d_00 - self.master_anchor_dist[i]
    }
}

/// A measurement is a hole when a packet never arrived: the sounder (and
/// `bloc_chan::faults`) materialize losses as exact zeros.
fn is_hole(h: C64) -> bool {
    h.norm_sq() == 0.0
}

fn is_nonfinite(h: C64) -> bool {
    !(h.re.is_finite() && h.im.is_finite())
}

/// Tallies every hole / non-finite measurement present in one raw band,
/// independent of whether its band survives — the injected/recovered
/// reconciliation counts *measurements*, not usable alphas.
fn tally_band(band: &BandSounding, summary: &mut MaskingSummary) {
    for h in band.tag_to_anchor.iter().flatten() {
        if is_hole(*h) {
            summary.holes_masked += 1;
        } else if is_nonfinite(*h) {
            summary.nonfinite_masked += 1;
        }
    }
    for h in band.master_to_anchor.iter().skip(1) {
        if is_hole(*h) {
            summary.holes_masked += 1;
        } else if is_nonfinite(*h) {
            summary.nonfinite_masked += 1;
        }
    }
}

/// Whether a band's measurement tensors have the shape the deployment
/// promises. Malformed bands are dropped, not panicked on — shape is a
/// property of (possibly corrupted) input data, not of our code.
fn band_shape_ok(band: &BandSounding, anchors: &[AnchorArray]) -> bool {
    band.tag_to_anchor.len() == anchors.len()
        && band.master_to_anchor.len() == anchors.len()
        && band
            .tag_to_anchor
            .iter()
            .zip(anchors)
            .all(|(row, a)| row.len() == a.n_antennas)
}

/// Applies BLoc's offset cancellation to a sounding, masking measurement
/// holes instead of propagating them.
///
/// When `normalize` is true each corrected channel is scaled to unit
/// magnitude: Eq. 17's correlation then weighs every (antenna, band)
/// observation equally instead of by the product of three link amplitudes.
/// The pipeline defaults to `true` (see `BlocConfig`); the raw Eq.-10 form
/// is available for ablation. Masked entries stay exact zeros either way.
///
/// # Errors
///
/// [`LocalizeError::EmptySounding`] when the sounding has no bands and
/// [`LocalizeError::NoAnchors`] when it has no anchors. A sounding whose
/// bands are all *dropped by masking* is still `Ok` — with empty
/// [`CorrectedChannels::bands`] and the full [`MaskingSummary`] — so
/// callers can report what was absorbed before refusing to localize.
pub fn correct(data: &SoundingData, normalize: bool) -> Result<CorrectedChannels, LocalizeError> {
    if data.anchors.is_empty() {
        return Err(LocalizeError::NoAnchors);
    }
    if data.bands.is_empty() {
        return Err(LocalizeError::EmptySounding);
    }
    let anchors = data.anchors.clone();
    let master0 = anchors[0].antenna(0);
    let master_anchor_dist: Vec<f64> = anchors.iter().map(|a| a.antenna(0).dist(master0)).collect();

    let mut summary = MaskingSummary {
        bands_total: data.bands.len(),
        ..Default::default()
    };
    let mut surviving = vec![0usize; anchors.len()];
    let mut bands = Vec::with_capacity(data.bands.len());

    for band in &data.bands {
        tally_band(band, &mut summary);
        if !band_shape_ok(band, &anchors) {
            summary.bands_dropped += 1;
            continue;
        }
        let h00 = band.tag_to_master0();
        if is_hole(h00) || is_nonfinite(h00) {
            // No tag measurement at the master: Eq. 10's ĥ₀₀* factor is
            // undefined for every anchor — the band carries no usable
            // relative-phase information at all.
            summary.bands_dropped += 1;
            continue;
        }

        let alpha: Vec<Vec<C64>> = band
            .tag_to_anchor
            .iter()
            .enumerate()
            .map(|(i, row)| {
                // A slave without the master response cannot cancel its
                // oscillator offset on any antenna.
                let master_link = if i == 0 {
                    None
                } else {
                    let m = band.master_to_anchor[i];
                    if is_hole(m) || is_nonfinite(m) {
                        return vec![bloc_num::complex::ZERO; row.len()];
                    }
                    Some(m)
                };
                row.iter()
                    .map(|&h_ij| {
                        if is_hole(h_ij) || is_nonfinite(h_ij) {
                            return bloc_num::complex::ZERO;
                        }
                        // Master (i = 0): within-anchor reference only.
                        // Slaves: the full three-term product of Eq. 10.
                        let a = match master_link {
                            None => h_ij * h00.conj(),
                            Some(m) => h_ij * m.conj() * h00.conj(),
                        };
                        if is_nonfinite(a) {
                            return bloc_num::complex::ZERO;
                        }
                        if normalize {
                            a.normalize()
                        } else {
                            a
                        }
                    })
                    .collect()
            })
            .collect();

        for (i, row) in alpha.iter().enumerate() {
            surviving[i] += row.iter().filter(|a| !is_hole(**a)).count();
        }
        bands.push(CorrectedBand {
            freq_hz: band.freq_hz,
            alpha,
        });
    }

    summary.effective_span_hz = span_hz(&bands);

    Ok(CorrectedChannels {
        bands,
        anchors,
        master_anchor_dist,
        surviving,
        masking: summary,
    })
}

/// Frequency span of the surviving bands.
fn span_hz(bands: &[CorrectedBand]) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for b in bands {
        lo = lo.min(b.freq_hz);
        hi = hi.max(b.freq_hz);
    }
    if hi >= lo {
        hi - lo
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use bloc_chan::geometry::Room;
    use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
    use bloc_chan::{Environment, FaultPlan};
    use bloc_num::angle::unwrap;
    use bloc_num::constants::SPEED_OF_LIGHT;
    use bloc_num::linalg::linear_fit;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn anchors(room: &Room) -> Vec<AnchorArray> {
        room.wall_midpoints()
            .iter()
            .zip(room.walls().iter())
            .enumerate()
            .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
            .collect()
    }

    /// Free-space, noiseless soundings with random offsets.
    fn sound_free_space(seed: u64) -> (SoundingData, P2) {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                csi_snr_db: 300.0,
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let tag = P2::new(1.7, 2.3);
        (sounder.sound(tag, &all_data_channels(), &mut rng), tag)
    }

    #[test]
    fn corrected_phase_is_linear_in_frequency() {
        // The headline microbenchmark (paper Fig. 8b): raw measured phase
        // is random across subbands; corrected phase is linear.
        let (data, _) = sound_free_space(1);
        let corrected = correct(&data, true).unwrap();

        let freqs: Vec<f64> = corrected.bands.iter().map(|b| b.freq_hz).collect();

        // Raw phases: garbled.
        let raw: Vec<f64> = data
            .bands
            .iter()
            .map(|b| b.tag_to_anchor[1][2].arg())
            .collect();
        let (_, _, r2_raw) = linear_fit(&freqs, &unwrap(&raw)).unwrap();

        // Corrected phases: linear with slope −2πΔ/c.
        let cor: Vec<f64> = corrected
            .bands
            .iter()
            .map(|b| b.alpha[1][2].arg())
            .collect();
        let (slope, _, r2_cor) = linear_fit(&freqs, &unwrap(&cor)).unwrap();

        assert!(
            r2_cor > 0.999,
            "corrected phase must be linear, r² = {r2_cor}"
        );
        assert!(r2_raw < 0.95, "raw phase must stay garbled, r² = {r2_raw}");

        let (_, tag) = sound_free_space(1);
        let delta = corrected.relative_distance(1, 2, tag);
        let expected_slope = -std::f64::consts::TAU * delta / SPEED_OF_LIGHT;
        assert!(
            (slope - expected_slope).abs() / expected_slope.abs().max(1e-9) < 1e-2,
            "slope {slope} vs expected {expected_slope}"
        );
    }

    #[test]
    fn correction_is_exactly_offset_free() {
        // Same environment sounded with and without offsets: α must agree.
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let cfg = SounderConfig {
            csi_snr_db: 300.0,
            antenna_phase_err_std: 0.0,
            ..Default::default()
        };
        let sounder = Sounder::new(&env, &anchors, cfg);
        let tag = P2::new(3.1, 4.2);
        let chans = all_data_channels();

        let mut rng = StdRng::seed_from_u64(2);
        let garbled = correct(&sounder.sound(tag, &chans, &mut rng), false).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let ideal = correct(&sounder.sound_ideal(tag, &chans, &mut rng), false).unwrap();

        for (bg, bi) in garbled.bands.iter().zip(&ideal.bands) {
            for i in 0..4 {
                for j in 0..4 {
                    let g = bg.alpha[i][j];
                    let c = bi.alpha[i][j];
                    assert!(
                        (g - c).abs() < 1e-6 * c.abs().max(1e-12),
                        "band {} anchor {i} ant {j}: {g:?} vs {c:?}",
                        bg.freq_hz
                    );
                }
            }
        }
    }

    #[test]
    fn master_alpha_reference_is_own_antenna_zero() {
        let (data, _) = sound_free_space(4);
        let corrected = correct(&data, false).unwrap();
        for b in &corrected.bands {
            // α_00 = |ĥ00|² is real and positive.
            let a00 = b.alpha[0][0];
            assert!(a00.im.abs() < 1e-12 * a00.re.max(1e-12));
            assert!(a00.re > 0.0);
        }
    }

    #[test]
    fn relative_distance_geometry() {
        let (data, tag) = sound_free_space(5);
        let c = correct(&data, true).unwrap();
        // i = 0, j = 0: Δ = 0 by construction.
        assert!(c.relative_distance(0, 0, tag).abs() < 1e-12);
        // Reconstruction: Δ_ij = d_ij − d_00 − d_i0.
        let d = c.relative_distance(2, 3, tag);
        let manual = tag.dist(c.anchors[2].antenna(3))
            - tag.dist(c.anchors[0].antenna(0))
            - c.anchors[2].antenna(0).dist(c.anchors[0].antenna(0));
        assert!((d - manual).abs() < 1e-12);
    }

    #[test]
    fn normalization_gives_unit_magnitudes() {
        let (data, _) = sound_free_space(6);
        let c = correct(&data, true).unwrap();
        for b in &c.bands {
            for row in &b.alpha {
                for a in row {
                    assert!((a.abs() - 1.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn clean_sounding_masks_nothing() {
        let (data, _) = sound_free_space(8);
        let c = correct(&data, true).unwrap();
        assert_eq!(c.masking.bands_dropped, 0);
        assert_eq!(c.masking.holes_masked, 0);
        assert_eq!(c.masking.nonfinite_masked, 0);
        assert_eq!(c.masking.bands_total, data.bands.len());
        assert!(
            c.masking.effective_span_hz > 70e6,
            "37 channels span ~78 MHz"
        );
        assert_eq!(c.usable_anchors(), vec![0, 1, 2, 3]);
        for i in 0..4 {
            assert_eq!(c.surviving[i], data.bands.len() * 4);
            assert!((c.surviving_fraction(i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn structural_errors_are_typed() {
        let room = Room::new(5.0, 6.0);
        let empty_bands = SoundingData {
            bands: Vec::new(),
            anchors: anchors(&room),
        };
        assert_eq!(
            correct(&empty_bands, true).unwrap_err(),
            LocalizeError::EmptySounding
        );
        let (data, _) = sound_free_space(9);
        let no_anchors = SoundingData {
            bands: data.bands.clone(),
            anchors: Vec::new(),
        };
        assert_eq!(
            correct(&no_anchors, true).unwrap_err(),
            LocalizeError::NoAnchors
        );
    }

    #[test]
    fn masked_holes_reconcile_with_injected_census() {
        // The contract the fault soak depends on: the masking pass
        // absorbs exactly the holes the fault plan punched.
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let plan = FaultPlan {
            seed: 42,
            tag_loss: 0.3,
            master_loss: 0.1,
            dropouts: vec![bloc_chan::AnchorDropout {
                anchor: 2,
                bands: 4..12,
            }],
            dead_antennas: vec![(1, 1)],
            ..Default::default()
        };
        let sounder =
            Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan.clone());
        let mut rng = StdRng::seed_from_u64(10);
        let data = sounder.sound(P2::new(2.0, 3.0), &all_data_channels(), &mut rng);
        let census = plan.census(&all_data_channels(), &anchors);

        let c = correct(&data, true).unwrap();
        assert_eq!(c.masking.holes_masked, census.holes());
        assert_eq!(c.masking.bands_dropped, census.master_tag_lost_bands);
        assert_eq!(c.masking.nonfinite_masked, 0);
        assert_eq!(c.bands.len() + c.masking.bands_dropped, data.bands.len());
    }

    #[test]
    fn masked_alpha_entries_are_exact_zeros() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let plan = FaultPlan {
            seed: 3,
            tag_loss: 0.4,
            master_loss: 0.2,
            ..Default::default()
        };
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan);
        let mut rng = StdRng::seed_from_u64(11);
        let data = sounder.sound(P2::new(1.5, 2.5), &all_data_channels(), &mut rng);
        let c = correct(&data, true).unwrap();

        // Normalization must never turn a hole into a fake unit phasor.
        let mut masked = 0usize;
        for b in &c.bands {
            for row in &b.alpha {
                for a in row {
                    let mag = a.abs();
                    assert!(
                        mag == 0.0 || (mag - 1.0).abs() < 1e-9,
                        "alpha magnitude {mag} is neither masked nor unit"
                    );
                    masked += (mag == 0.0) as usize;
                }
            }
        }
        assert!(masked > 0, "a 40% loss plan must mask something");
        // surviving[] agrees with the zeros actually present.
        for i in 0..4 {
            let nonzero: usize = c
                .bands
                .iter()
                .map(|b| b.alpha[i].iter().filter(|a| a.abs() > 0.0).count())
                .sum();
            assert_eq!(c.surviving[i], nonzero);
        }
    }

    #[test]
    fn dead_anchor_survives_as_zero_evidence() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let n_bands = all_data_channels().len();
        let plan = FaultPlan {
            seed: 1,
            dropouts: vec![bloc_chan::AnchorDropout {
                anchor: 3,
                bands: 0..n_bands,
            }],
            ..Default::default()
        };
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan);
        let mut rng = StdRng::seed_from_u64(12);
        let data = sounder.sound(P2::new(2.0, 2.0), &all_data_channels(), &mut rng);
        let c = correct(&data, true).unwrap();
        assert_eq!(c.surviving[3], 0);
        assert_eq!(c.usable_anchors(), vec![0, 1, 2]);
        assert_eq!(c.surviving_fraction(3), 0.0);
    }

    #[test]
    fn nonfinite_measurements_are_masked_not_propagated() {
        let (mut data, _) = sound_free_space(13);
        data.bands[2].tag_to_anchor[1][3] = C64::new(f64::NAN, 0.0);
        data.bands[5].master_to_anchor[2] = C64::new(f64::INFINITY, 1.0);
        let c = correct(&data, true).unwrap();
        assert_eq!(c.masking.nonfinite_masked, 2);
        assert!(is_hole(c.bands[2].alpha[1][3]));
        // The whole row of anchor 2 in band 5 lost its master link.
        assert!(c.bands[5].alpha[2].iter().all(|a| is_hole(*a)));
        for b in &c.bands {
            for a in b.alpha.iter().flatten() {
                assert!(a.re.is_finite() && a.im.is_finite());
            }
        }
    }

    #[test]
    fn malformed_band_is_dropped_not_panicked_on() {
        let (mut data, _) = sound_free_space(14);
        data.bands[7].tag_to_anchor.pop(); // lost an anchor row in transit
        let n = data.bands.len();
        let c = correct(&data, true).unwrap();
        assert_eq!(c.masking.bands_dropped, 1);
        assert_eq!(c.bands.len(), n - 1);
    }

    #[test]
    fn all_bands_dropped_is_ok_with_empty_tensor() {
        // Every master tag measurement lost ⇒ no usable band, but correct()
        // still reports what it absorbed instead of failing.
        let (mut data, _) = sound_free_space(15);
        for b in &mut data.bands {
            for h in &mut b.tag_to_anchor[0] {
                *h = bloc_num::complex::ZERO;
            }
            for h in b.master_to_anchor.iter_mut().skip(1) {
                *h = bloc_num::complex::ZERO;
            }
        }
        let c = correct(&data, true).unwrap();
        assert!(c.bands.is_empty());
        assert_eq!(c.masking.bands_dropped, c.masking.bands_total);
        assert_eq!(c.masking.effective_span_hz, 0.0);
        assert_eq!(c.masking.holes_masked, data.bands.len() * 7); // 4 + 3 per band
        assert!(c.usable_anchors().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_offsets_cancel_for_any_tag_position(tx in 0.6..4.4f64, ty in 0.6..5.4f64,
                                                    seed in 0u64..1000) {
            // Eq. 10 must hold for arbitrary geometry: garbled and ideal
            // soundings yield identical corrected channels.
            let room = Room::new(5.0, 6.0);
            let env = Environment::free_space();
            let anchors = anchors(&room);
            let cfg = SounderConfig {
                csi_snr_db: 300.0,
                antenna_phase_err_std: 0.0,
                ..Default::default()
            };
            let sounder = Sounder::new(&env, &anchors, cfg);
            let tag = P2::new(tx, ty);
            let chans = &all_data_channels()[..6];

            let mut rng = StdRng::seed_from_u64(seed);
            let garbled = correct(&sounder.sound(tag, chans, &mut rng), false).unwrap();
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
            let ideal = correct(&sounder.sound_ideal(tag, chans, &mut rng), false).unwrap();
            for (bg, bi) in garbled.bands.iter().zip(&ideal.bands) {
                for i in 0..4 {
                    for j in 0..4 {
                        let d = (bg.alpha[i][j] - bi.alpha[i][j]).abs();
                        prop_assert!(d < 1e-6 * bi.alpha[i][j].abs().max(1e-15));
                    }
                }
            }
        }
    }

    #[test]
    fn antenna_relative_phases_preserved_within_anchor() {
        // Correction multiplies all antennas of an anchor by the same
        // factor, so within-anchor phase differences (the AoA information,
        // §5.3 "Effect on Angle Measurements") are untouched.
        let (data, _) = sound_free_space(7);
        let c = correct(&data, false).unwrap();
        for (braw, bcor) in data.bands.iter().zip(&c.bands) {
            for i in 0..4 {
                for j in 1..4 {
                    let raw_rel =
                        (braw.tag_to_anchor[i][j] * braw.tag_to_anchor[i][0].conj()).arg();
                    let cor_rel = (bcor.alpha[i][j] * bcor.alpha[i][0].conj()).arg();
                    assert!(
                        (raw_rel - cor_rel).abs() < 1e-9,
                        "anchor {i} antenna {j}: {raw_rel} vs {cor_rel}"
                    );
                }
            }
        }
    }
}
