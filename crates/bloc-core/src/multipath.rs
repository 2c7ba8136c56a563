//! Multipath rejection: peak scoring by distance and spatial entropy —
//! paper §5.4, Eq. 18.
//!
//! The joint likelihood has one peak per resolvable path (direct +
//! reflections), and "the direct path may not always be the strongest"
//! (§5.4). BLoc scores every peak `x` with
//!
//! `s_x = p_x · e^{bH − aΣ_i d_i}`
//!
//! where `p_x` is the peak's likelihood, `d_i` its distance from anchor
//! `i`, and `H` the spatial entropy of the likelihood in a 7×7 circular
//! neighborhood. Two physical facts justify the two exponent terms:
//! direct paths are *shorter* than reflections (the `−aΣd` term), and
//! direct paths are *peaky* while reflections off non-ideal scattering
//! surfaces are spread out (the `+bH` term; `H` here is negentropy — see
//! `bloc_num::entropy` and DESIGN.md for the sign interpretation).
//! The published weights are `a = 0.1`, `b = 0.05` (§7).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bloc_num::entropy::negentropy;
use bloc_num::peaks::{find_peaks, Peak, PeakOptions};
use bloc_num::{Grid2D, GridPatch, GridSpec, P2};
use std::borrow::Borrow;

/// Parameters of the multipath-rejection score.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ScoreConfig {
    /// Distance weight `a` (per metre of summed anchor distance).
    pub a: f64,
    /// Entropy weight `b` (per nat of neighborhood negentropy).
    pub b: f64,
    /// Radius (metres) of the circular entropy window. The paper uses a
    /// "7 × 7 circular neighborhood window" at its (unstated) grid
    /// resolution; what matters physically is that the window spans the
    /// likelihood lobe scale, ~0.5 m in a BLE deployment — so the radius
    /// is kept in metres and converted to cells at the grid in use.
    pub entropy_radius_m: f64,
    /// Peak-extraction options.
    pub peaks: PeakOptions,
}

impl Default for ScoreConfig {
    fn default() -> Self {
        Self {
            a: 0.1,
            b: 0.05,
            entropy_radius_m: 0.5,
            peaks: PeakOptions::default(),
        }
    }
}

/// A likelihood peak with its multipath-rejection score breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ScoredPeak {
    /// The underlying likelihood peak.
    pub peak: Peak,
    /// Summed distance to all anchors, metres (`Σ_i d_i`).
    pub sum_anchor_dist: f64,
    /// Neighborhood negentropy `H`, nats.
    pub entropy: f64,
    /// The final score `s_x` (Eq. 18).
    pub score: f64,
}

/// Scores every peak of a (peak-normalized) joint likelihood and returns
/// them sorted by score, best first: `score_windows` with the whole
/// grid as its one window.
///
/// `anchor_refs` are the positions the `d_i` distances are measured to —
/// the anchor array centres in the standard pipeline.
pub(crate) fn score_peaks(
    grid: &Grid2D,
    anchor_refs: &[P2],
    config: &ScoreConfig,
) -> Vec<ScoredPeak> {
    let whole = [(GridPatch::whole(grid.spec()), grid)];
    score_windows(&whole, grid.spec(), grid, anchor_refs, config, 0, false)
}

/// Eq. 18 over `windows` of the `parent` grid, under the `score_peaks`
/// span — the one way a fix is scored. `p_x` is measured between
/// `surface`'s median background and the windows' common maximum: the
/// joint likelihood carries a diffuse non-zero floor (incoherent
/// correlation background), and measuring above it keeps Eq. 18 in the
/// regime the paper intends, where `p_x` separates strong and weak peaks.
/// Each window's local maxima above the peak floor and at least `keep`
/// cells clear of its interior border (a border that is not the
/// parent's) are scored against `anchor_refs` and rebased onto `parent`.
/// `merged` windows (a hierarchy's refinement patches) each keep every
/// local maximum above the floor and the union keeps the best by score.
/// The whole parent is the window with no interior border that rebases
/// onto itself. Returns the peaks best first; empty when no window has a
/// positive cell.
pub(crate) fn score_windows<G: Borrow<Grid2D>>(
    windows: &[(GridPatch, G)],
    parent: GridSpec,
    surface: &Grid2D,
    anchor_refs: &[P2],
    config: &ScoreConfig,
    keep: usize,
    merged: bool,
) -> Vec<ScoredPeak> {
    let _span = bloc_obs::span("score_peaks");
    let max_v = (windows.iter())
        .filter_map(|(_, joint)| joint.borrow().argmax().map(|(_, _, v)| v))
        .fold(0.0f64, f64::max);
    if max_v <= 0.0 {
        return Vec::new();
    }
    let background = bloc_num::stats::median(surface.data()).min(max_v);
    let opts = match merged {
        true => PeakOptions {
            min_rel_height: 0.0,
            max_peaks: 32,
            ..config.peaks
        },
        false => config.peaks,
    };
    let floor = config.peaks.min_rel_height * max_v;
    let mut peaks: Vec<ScoredPeak> = Vec::new();
    let mut dominance_checks = 0;
    for (patch, joint) in windows {
        let joint = joint.borrow();
        let scan = find_peaks(joint, &opts);
        dominance_checks += scan.dominance_checks;
        let mut kept = scan.peaks;
        kept.retain(|p| {
            p.value >= floor && patch.interior_border_dist(&parent, p.ix, p.iy) >= keep
        });
        for s in score_candidates(joint, &kept, anchor_refs, config, background, max_v) {
            let s = remap_to_parent(s, patch, parent);
            // Overlapping patches rediscover the same cell with the same
            // value and score (windows are complete by the border
            // filter): keep the first sighting.
            if !(peaks.iter()).any(|p| (p.peak.ix, p.peak.iy) == (s.peak.ix, s.peak.iy)) {
                peaks.push(s);
            }
        }
    }
    bloc_obs::counter("multipath.dominance_checks").add(dominance_checks as u64);
    if merged {
        peaks.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| (a.peak.iy, a.peak.ix).cmp(&(b.peak.iy, b.peak.ix)))
        });
        peaks.truncate(config.peaks.max_peaks);
    }
    peaks
}

/// Rebases a window-local scored peak onto the parent grid, snapping the
/// position to the parent's cell centre so agreement on the winning cell
/// means bit-identical positions.
fn remap_to_parent(s: ScoredPeak, patch: &GridPatch, parent: GridSpec) -> ScoredPeak {
    let (ix, iy) = patch.to_parent(s.peak.ix, s.peak.iy);
    ScoredPeak {
        peak: Peak {
            ix,
            iy,
            position: parent.cell_center(ix, iy),
            value: s.peak.value,
        },
        ..s
    }
}

/// The Eq. 18 scoring core with the normalization statistics made
/// explicit: `background` is the diffuse correlation pedestal and `max_v`
/// the reference peak height that `p_x` is measured against. Peaks are
/// evaluated on `grid` (entropy windows are read from it) but may be
/// normalized against statistics computed elsewhere — the hierarchical
/// solver scores fine-patch peaks against the *venue-global* background
/// and maximum so candidates from different patches rank on one scale,
/// exactly as a dense sweep would rank them. Returns the peaks sorted by
/// score, best first.
fn score_candidates(
    grid: &Grid2D,
    peaks: &[Peak],
    anchor_refs: &[P2],
    config: &ScoreConfig,
    background: f64,
    max_v: f64,
) -> Vec<ScoredPeak> {
    let span = (max_v - background).max(f64::MIN_POSITIVE);
    let radius_cells = ((config.entropy_radius_m / grid.spec().resolution).round() as usize).max(1);
    let mut scored: Vec<ScoredPeak> = peaks
        .iter()
        .map(|&peak| {
            // The diffuse correlation pedestal sits under every window and
            // would flatten the distribution regardless of lobe shape;
            // measure the entropy of the *above-background* likelihood.
            let window: Vec<f64> = grid
                .circular_window(peak.ix, peak.iy, radius_cells)
                .into_iter()
                .map(|v| (v - background).max(0.0))
                .collect();
            let entropy = negentropy(&window);
            let sum_anchor_dist: f64 = anchor_refs.iter().map(|&a| peak.position.dist(a)).sum();
            let p_x = ((peak.value - background) / span).max(0.0);
            let score = p_x * (config.b * entropy - config.a * sum_anchor_dist).exp();
            ScoredPeak {
                peak,
                sum_anchor_dist,
                entropy,
                score,
            }
        })
        .collect();
    // total_cmp instead of a panicking partial_cmp: a NaN score (conceivable
    // on pathological degraded input) sorts last instead of killing the
    // pipeline mid-fix.
    scored.sort_by(|x, y| y.score.total_cmp(&x.score));
    scored.retain(|s| s.score.is_finite());
    scored
}

/// The naive §8.7 baseline: among the peaks, pick the one with the
/// smallest summed anchor distance ("just picks the shortest distance path
/// as the direct path"), ignoring likelihood and entropy.
pub(crate) fn shortest_distance_peak(
    grid: &Grid2D,
    anchor_refs: &[P2],
    peaks: &PeakOptions,
) -> Option<Peak> {
    find_peaks(grid, peaks).peaks.into_iter().min_by(|a, b| {
        let da: f64 = anchor_refs.iter().map(|&r| a.position.dist(r)).sum();
        let db: f64 = anchor_refs.iter().map(|&r| b.position.dist(r)).sum();
        da.total_cmp(&db)
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use bloc_num::GridSpec;

    fn spec() -> GridSpec {
        GridSpec {
            origin: P2::ORIGIN,
            resolution: 0.1,
            nx: 60,
            ny: 60,
        }
    }

    /// Gaussian bump helper.
    fn bump(p: P2, c: P2, a: f64, s: f64) -> f64 {
        a * (-p.dist_sq(c) / (2.0 * s * s)).exp()
    }

    fn anchors() -> Vec<P2> {
        vec![
            P2::new(3.0, 0.0),
            P2::new(6.0, 3.0),
            P2::new(3.0, 6.0),
            P2::new(0.0, 3.0),
        ]
    }

    #[test]
    fn entropy_breaks_ties_toward_peaky_direct_path() {
        // Two peaks with equal amplitude and (by symmetry about the anchor
        // centroid (3, 3)) equal summed anchor distance — only their spatial
        // spread differs. The entropy term must prefer the peaky one.
        // With the paper's b = 0.05 the term is a deliberate tie-breaker,
        // not a override of likelihood or distance.
        let direct = P2::new(2.05, 2.05); // tight
        let reflection = P2::new(3.95, 3.95); // spread, mirror position
        let g = Grid2D::from_fn(spec(), |p| {
            bump(p, direct, 1.0, 0.12) + bump(p, reflection, 1.0, 0.55)
        });
        let scored = score_peaks(&g, &anchors(), &ScoreConfig::default());
        assert!(scored.len() >= 2);
        assert!(
            scored[0].peak.position.dist(direct) < 0.2,
            "entropy scoring must pick the peaky direct path, picked {:?}",
            scored[0].peak.position
        );
        let best = &scored[0];
        let second = &scored[1];
        assert!(
            best.entropy > second.entropy,
            "winner must be the sharper peak"
        );
        assert!(
            (best.sum_anchor_dist - second.sum_anchor_dist).abs() < 0.5,
            "distances comparable"
        );
    }

    #[test]
    fn distance_term_penalizes_far_ghosts() {
        // Two equally-shaped peaks; the farther one (larger Σd) must lose.
        let near = P2::new(2.55, 2.55); // near the anchor centroid
        let far = P2::new(5.55, 5.55);
        let g = Grid2D::from_fn(spec(), |p| bump(p, near, 1.0, 0.2) + bump(p, far, 1.0, 0.2));
        let scored = score_peaks(&g, &anchors(), &ScoreConfig::default());
        assert!(scored[0].peak.position.dist(near) < 0.2);
        assert!(scored[0].sum_anchor_dist < scored[1].sum_anchor_dist);
    }

    #[test]
    fn score_formula_matches_definition() {
        let c = P2::new(3.05, 3.05);
        let g = Grid2D::from_fn(spec(), |p| bump(p, c, 2.0, 0.3));
        let cfg = ScoreConfig::default();
        let scored = score_peaks(&g, &anchors(), &cfg);
        let s = &scored[0];
        let background = bloc_num::stats::median(g.data());
        let p_x = (s.peak.value - background) / (2.0 - background);
        let manual = p_x * (cfg.b * s.entropy - cfg.a * s.sum_anchor_dist).exp();
        assert!((s.score - manual).abs() < 1e-9, "{} vs {}", s.score, manual);
    }

    #[test]
    fn empty_grid_no_peaks() {
        let g = Grid2D::zeros(spec());
        assert!(score_peaks(&g, &anchors(), &ScoreConfig::default()).is_empty());
        assert!(shortest_distance_peak(&g, &anchors(), &PeakOptions::default()).is_none());
    }

    #[test]
    fn shortest_distance_baseline_ignores_shape() {
        // The baseline picks the near peak even when it is clearly the
        // spread (reflection-like) one — that is exactly its failure mode.
        let near_spread = P2::new(2.05, 2.05);
        let far_peaky = P2::new(4.55, 4.55);
        let g = Grid2D::from_fn(spec(), |p| {
            bump(p, near_spread, 0.9, 0.6) + bump(p, far_peaky, 1.0, 0.15)
        });
        let pick = shortest_distance_peak(&g, &anchors(), &PeakOptions::default()).unwrap();
        assert!(pick.position.dist(near_spread) < 0.3);
    }

    #[test]
    fn zero_weights_reduce_to_max_likelihood() {
        let a_pos = P2::new(2.05, 2.05);
        let b_pos = P2::new(4.05, 4.05);
        let g = Grid2D::from_fn(spec(), |p| {
            bump(p, a_pos, 0.7, 0.3) + bump(p, b_pos, 1.0, 0.3)
        });
        let cfg = ScoreConfig {
            a: 0.0,
            b: 0.0,
            ..Default::default()
        };
        let scored = score_peaks(&g, &anchors(), &cfg);
        assert!(
            scored[0].peak.position.dist(b_pos) < 0.2,
            "a=b=0 must pick the strongest peak"
        );
    }

    #[test]
    fn scores_sorted_descending() {
        let g = Grid2D::from_fn(spec(), |p| {
            bump(p, P2::new(1.55, 1.55), 1.0, 0.2)
                + bump(p, P2::new(3.55, 3.55), 0.8, 0.3)
                + bump(p, P2::new(5.05, 1.55), 0.6, 0.25)
        });
        let scored = score_peaks(&g, &anchors(), &ScoreConfig::default());
        assert!(scored.windows(2).all(|w| w[0].score >= w[1].score));
    }
}
