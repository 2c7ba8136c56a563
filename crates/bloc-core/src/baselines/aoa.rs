//! The AoA-combining baseline (paper §7: "we take AoA-combining as a
//! baseline comparison … least ToF based AoA localization systems
//! [21, 42], which is the state-of-the-art", implemented with "the same
//! number of antennas and the same set of channel measurements").
//!
//! Per anchor, the classic Bartlett angle spectrum (paper Eq. 3) is
//! computed from the *raw* measured channels — AoA needs only
//! within-anchor relative phases, which per-hop oscillator offsets do not
//! disturb (they are common to all antennas of an anchor, footnote 3).
//! Spectra are summed non-coherently across all sounded bands (cross-band
//! phase is garbled without BLoc's correction, so *coherent* combining is
//! impossible — that is the point of the paper).
//!
//! **Direct-path selection**, SpotFi-style \[21\]: among the spectrum's
//! peaks, pick the one with the smallest time-of-flight. On Wi-Fi that ToF
//! comes from 40 MHz of bandwidth; on BLE the only offset-free intra-band
//! observable is the phase difference between the two GFSK tones —
//! 500 kHz apart, measured ~16 µs apart in the packet, so the tag's
//! carrier-frequency offset rotates it by radians (see
//! `bloc_chan::sounder::SounderConfig::tag_cfo_max_hz`). The resulting
//! pseudo-ToF is noise beyond repair, the least-ToF selection picks among
//! multipath peaks near-arbitrarily, and the baseline lands at the
//! paper's metres-scale error. [`PeakSelection::Strongest`] is available
//! as the (stronger-than-paper) ablation.

use bloc_chan::sounder::{SoundingData, TONE_OFFSET_HZ};
use bloc_num::constants::SPEED_OF_LIGHT;
use bloc_num::linalg::{intersect_bearings, Ray};
use bloc_num::{C64, P2};

/// How the baseline chooses the direct path among spectrum peaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PeakSelection {
    /// Paper-faithful "least ToF": rank candidate peaks by the intra-band
    /// tone-pair pseudo-ToF.
    LeastPseudoTof,
    /// Strongest spectrum peak (a stronger baseline than the paper ran;
    /// kept for ablation).
    Strongest,
}

/// Configuration of the AoA baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AoaConfig {
    /// Number of grid points across `sin θ ∈ [−1, 1]`.
    pub n_angles: usize,
    /// Direct-path selection rule.
    pub selection: PeakSelection,
    /// Candidate peaks must reach this fraction of the spectrum maximum.
    pub min_rel_peak: f64,
}

impl Default for AoaConfig {
    fn default() -> Self {
        Self {
            n_angles: 181,
            selection: PeakSelection::LeastPseudoTof,
            min_rel_peak: 0.35,
        }
    }
}

/// One anchor's angle estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct Bearing {
    /// The anchor that produced it.
    pub anchor_id: usize,
    /// `sin θ` of the strongest spectrum peak (θ from boresight).
    pub sin_theta: f64,
    /// World-frame unit direction of the bearing.
    pub direction: P2,
    /// Spectrum value at the peak (the triangulation weight).
    pub weight: f64,
}

/// The Bartlett angle spectrum of anchor `i`: `spectrum[q]` is the
/// likelihood of arrival from `sin θ = −1 + 2q/(n−1)`, summed over bands.
pub(crate) fn angle_spectrum(data: &SoundingData, i: usize, config: &AoaConfig) -> Vec<f64> {
    let anchor = &data.anchors[i];
    let n = config.n_angles.max(2);
    let mut spectrum = vec![0.0; n];
    for band in &data.bands {
        let lambda_inv = band.freq_hz / SPEED_OF_LIGHT;
        for (q, s) in spectrum.iter_mut().enumerate() {
            let sin_theta = -1.0 + 2.0 * q as f64 / (n - 1) as f64;
            let mut acc = bloc_num::complex::ZERO;
            for (j, &h) in band.tag_to_anchor[i].iter().enumerate() {
                // Antenna j is *closer* to a target at sin θ > 0 (θ from
                // boresight towards the array axis) by j·l·sinθ, so its
                // channel carries phase +2πjl·sinθ/λ; correlate with the
                // conjugate steering phase.
                let phase =
                    -std::f64::consts::TAU * j as f64 * anchor.spacing * sin_theta * lambda_inv;
                acc += h * C64::cis(phase);
            }
            *s += acc.abs();
        }
    }
    spectrum
}

/// Local maxima of a 1-D spectrum at least `min_rel` of the global max,
/// as `(index, value)` pairs.
fn spectrum_peaks(spectrum: &[f64], min_rel: f64) -> Vec<(usize, f64)> {
    let max = spectrum.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if max <= 0.0 || max.is_nan() {
        return Vec::new();
    }
    let floor = max * min_rel;
    let n = spectrum.len();
    (0..n)
        .filter(|&q| {
            let v = spectrum[q];
            v >= floor && (q == 0 || spectrum[q - 1] < v) && (q == n - 1 || spectrum[q + 1] <= v)
        })
        .map(|q| (q, spectrum[q]))
        .collect()
}

/// The tone-pair pseudo-range (metres, wrapped into `[0, c/Δf)`) of the
/// arrival at spectrum bin `q` for anchor `i`: beamform both tones toward
/// the bin's bearing, accumulate `y₁·y₀*` across bands (the intra-band
/// tone difference is oscillator-offset-free, so this sum is legitimate
/// without BLoc's correction), and convert the residual phase to distance.
/// CFO contamination makes the result effectively random — the mechanism
/// behind the baseline's failure.
fn pseudo_range(data: &SoundingData, i: usize, sin_theta: f64) -> f64 {
    let anchor = &data.anchors[i];
    let tone_sep = 2.0 * TONE_OFFSET_HZ;
    let mut acc = bloc_num::complex::ZERO;
    for band in &data.bands {
        let lambda_inv = band.freq_hz / SPEED_OF_LIGHT;
        let mut y = [bloc_num::complex::ZERO; 2];
        for (j, tones) in band.tag_to_anchor_tones[i].iter().enumerate() {
            let steer = C64::cis(
                -std::f64::consts::TAU * j as f64 * anchor.spacing * sin_theta * lambda_inv,
            );
            y[0] += tones[0] * steer;
            y[1] += tones[1] * steer;
        }
        acc += y[1] * y[0].conj();
    }
    // φ(f₁) − φ(f₀) = −2π·Δf·d/c (+ CFO) ⇒ d = −φ·c/(2π·Δf), wrapped.
    let d = -acc.arg() * SPEED_OF_LIGHT / (std::f64::consts::TAU * tone_sep);
    d.rem_euclid(SPEED_OF_LIGHT / tone_sep)
}

/// The baseline's chosen bearing for anchor `i`, per the configured
/// direct-path selection rule.
pub(crate) fn best_bearing(data: &SoundingData, i: usize, config: &AoaConfig) -> Option<Bearing> {
    let spectrum = angle_spectrum(data, i, config);
    let n = spectrum.len();
    let peaks = spectrum_peaks(&spectrum, config.min_rel_peak);
    if peaks.is_empty() {
        return None;
    }

    let bin_to_sin = |q: usize| -1.0 + 2.0 * q as f64 / (n - 1) as f64;
    let (q, weight) = match config.selection {
        PeakSelection::Strongest => peaks
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("spectrum finite"))
            .expect("non-empty"),
        PeakSelection::LeastPseudoTof => peaks
            .into_iter()
            .min_by(|a, b| {
                let ra = pseudo_range(data, i, bin_to_sin(a.0));
                let rb = pseudo_range(data, i, bin_to_sin(b.0));
                ra.partial_cmp(&rb).expect("pseudo-range finite")
            })
            .expect("non-empty"),
    };
    if weight <= 0.0 {
        return None;
    }
    // Once a peak has been *selected* as the direct path, the baseline
    // commits to it: bearings enter the triangulation equally. (Weighting
    // by spectrum value would let strong-but-wrong reflections dominate or
    // weak-but-chosen peaks be ignored — neither is what a least-ToF
    // system does.)
    let weight = match config.selection {
        PeakSelection::LeastPseudoTof => 1.0,
        PeakSelection::Strongest => weight,
    };
    let sin_theta = bin_to_sin(q);
    let anchor = &data.anchors[i];
    let cos_theta = (1.0 - sin_theta * sin_theta).max(0.0).sqrt();
    // Boresight points into the room for wall-mounted anchors, resolving
    // the linear array's front-back ambiguity.
    let direction = (anchor.boresight() * cos_theta + anchor.axis * sin_theta).normalize();
    Some(Bearing {
        anchor_id: anchor.id,
        sin_theta,
        direction,
        weight,
    })
}

/// Localizes by intersecting the per-anchor strongest bearings. Returns
/// `None` with fewer than two usable bearings or degenerate geometry.
pub fn localize(data: &SoundingData, config: &AoaConfig) -> Option<P2> {
    let rays: Vec<(Ray, f64)> = (0..data.anchors.len())
        .filter_map(|i| {
            best_bearing(data, i, config).map(|b| {
                (
                    Ray {
                        origin: data.anchors[i].center(),
                        dir: b.direction,
                    },
                    b.weight,
                )
            })
        })
        .collect();
    intersect_bearings(&rays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloc_chan::geometry::Room;
    use bloc_chan::materials::Material;
    use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
    use bloc_chan::{AnchorArray, Environment};
    use rand::{rngs::StdRng, SeedableRng};

    /// Free-space correctness tests exercise the algebra, not hardware
    /// realism: zero calibration error.
    fn clean() -> SounderConfig {
        SounderConfig {
            antenna_phase_err_std: 0.0,
            ..Default::default()
        }
    }

    fn anchors(room: &Room) -> Vec<AnchorArray> {
        room.wall_midpoints()
            .iter()
            .zip(room.walls().iter())
            .enumerate()
            .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
            .collect()
    }

    #[test]
    fn free_space_bearing_points_at_tag() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(&env, &anchors, clean());
        let mut rng = StdRng::seed_from_u64(31);
        let tag = P2::new(2.0, 3.5);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);

        for (i, anchor) in anchors.iter().enumerate() {
            let b = best_bearing(&data, i, &AoaConfig::default()).unwrap();
            let truth = (tag - anchor.center()).normalize();
            let cos = b.direction.dot(truth);
            assert!(
                cos > 0.995,
                "anchor {i}: bearing {:?} vs truth {truth:?}",
                b.direction
            );
        }
    }

    #[test]
    fn free_space_triangulation_is_accurate() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(&env, &anchors, clean());
        let mut rng = StdRng::seed_from_u64(32);
        let tag = P2::new(3.1, 2.4);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        let est = localize(&data, &AoaConfig::default()).unwrap();
        // With 4 antennas, the angular grid and beamwidth limit precision
        // to a few tens of centimetres even in free space.
        assert!(
            est.dist(tag) < 0.5,
            "AoA free-space error {}",
            est.dist(tag)
        );
    }

    #[test]
    fn offsets_do_not_hurt_aoa() {
        // AoA works on raw channels because offsets are common per anchor.
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(&env, &anchors, clean());
        let tag = P2::new(1.5, 4.0);
        let chans = all_data_channels();

        let mut rng = StdRng::seed_from_u64(33);
        let garbled = sounder.sound(tag, &chans, &mut rng);
        let mut rng = StdRng::seed_from_u64(34);
        let ideal = sounder.sound_ideal(tag, &chans, &mut rng);

        let bg = best_bearing(&garbled, 2, &AoaConfig::default()).unwrap();
        let bi = best_bearing(&ideal, 2, &AoaConfig::default()).unwrap();
        assert!((bg.sin_theta - bi.sin_theta).abs() < 0.05);
    }

    #[test]
    fn multipath_degrades_aoa_more_than_free_space() {
        let room = Room::new(5.0, 6.0);
        let anchors = anchors(&room);
        let mut rng = StdRng::seed_from_u64(35);
        let env_mp = Environment::in_room(room)
            .with_walls(Material::metal(), &mut rng)
            .unwrap();
        let env_fs = Environment::free_space();

        let err_in = |env: &Environment, seed: u64| {
            let sounder = Sounder::new(env, &anchors, clean());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut errs = Vec::new();
            for k in 0..8 {
                let tag = P2::new(1.0 + 0.4 * k as f64, 1.2 + 0.5 * k as f64 % 4.0);
                let data = sounder.sound(tag, &all_data_channels(), &mut rng);
                if let Some(est) = localize(&data, &AoaConfig::default()) {
                    errs.push(est.dist(tag));
                }
            }
            bloc_num::stats::median(&errs)
        };

        let fs = err_in(&env_fs, 40);
        let mp = err_in(&env_mp, 41);
        assert!(
            mp > fs,
            "multipath ({mp}) must be worse than free space ({fs})"
        );
    }

    #[test]
    fn too_few_anchors_is_none() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let all = anchors(&room);
        let one = &all[..1];
        let sounder = Sounder::new(&env, one, clean());
        let mut rng = StdRng::seed_from_u64(36);
        let data = sounder.sound(P2::new(2.0, 2.0), &all_data_channels()[..3], &mut rng);
        assert!(localize(&data, &AoaConfig::default()).is_none());
    }

    #[test]
    fn spectrum_length_and_positivity() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(&env, &anchors, clean());
        let mut rng = StdRng::seed_from_u64(37);
        let data = sounder.sound(P2::new(2.0, 2.0), &all_data_channels()[..5], &mut rng);
        let s = angle_spectrum(
            &data,
            0,
            &AoaConfig {
                n_angles: 91,
                ..Default::default()
            },
        );
        assert_eq!(s.len(), 91);
        assert!(s.iter().all(|&v| v >= 0.0 && v.is_finite()));
    }
}
