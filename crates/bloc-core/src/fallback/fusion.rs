//! Degradation-weighted fusion of the CSI likelihood with the fallback
//! estimators.
//!
//! The weights are a convex combination `(csi, fingerprint, counts)`
//! derived from the [`crate::DegradationReport`]'s survival fraction and
//! the breaker open fraction: a healthy round snaps to pure CSI (the
//! cm-class estimate must not be perturbed by metre-class priors), while
//! a collapsing round shifts mass onto the fallbacks so *some* spatial
//! evidence always reaches the peak scorer.

use bloc_num::{Grid2D, GridSpec, P2};

use crate::error::DegradationReport;

/// How fusion weights are derived from round health.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FusionPolicy {
    /// Health at or above this snaps to pure CSI (`csi = 1.0` exactly).
    pub healthy_threshold: f64,
    /// Of the non-CSI weight, the share given to the fingerprint prior
    /// (the remainder goes to the packet-count prior).
    pub fingerprint_affinity: f64,
}

impl Default for FusionPolicy {
    fn default() -> Self {
        Self {
            healthy_threshold: 0.9,
            fingerprint_affinity: 0.7,
        }
    }
}

/// A convex weighting of the three spatial evidence sources.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FusionWeights {
    /// Weight on the CSI joint likelihood (Eq. 17).
    pub csi: f64,
    /// Weight on the RSSI fingerprint prior.
    pub fingerprint: f64,
    /// Weight on the packet-count reception prior.
    pub counts: f64,
}

impl FusionWeights {
    /// Pure CSI — the healthy-round weights.
    pub fn pure_csi() -> Self {
        Self {
            csi: 1.0,
            fingerprint: 0.0,
            counts: 0.0,
        }
    }

    /// Fallback-only weights (no usable CSI this round): the non-CSI
    /// split from `policy`.
    pub(crate) fn fallback_only(policy: &FusionPolicy) -> Self {
        let fp = policy.fingerprint_affinity.clamp(0.0, 1.0);
        Self {
            csi: 0.0,
            fingerprint: fp,
            counts: 1.0 - fp,
        }
    }

    /// Derives weights from a degradation report and the fraction of
    /// slave anchors currently quarantined by open breakers.
    ///
    /// `health = survival_fraction × (1 − open_frac)`. At or above the
    /// healthy threshold the CSI weight snaps to exactly 1.0 — a healthy
    /// fix is byte-for-byte the pure-CSI fix. Below it, CSI weight falls
    /// quadratically with health (gentle near the threshold, steep near
    /// collapse) and the remainder is split by `fingerprint_affinity`.
    pub fn from_degradation(
        report: &DegradationReport,
        open_frac: f64,
        policy: &FusionPolicy,
    ) -> Self {
        let health = report.survival_fraction() * (1.0 - open_frac.clamp(0.0, 1.0));
        let threshold = policy.healthy_threshold.clamp(f64::MIN_POSITIVE, 1.0);
        if health >= threshold {
            return Self::pure_csi();
        }
        let ratio = (health / threshold).clamp(0.0, 1.0);
        let csi = ratio * ratio;
        let rest = 1.0 - csi;
        let fp = policy.fingerprint_affinity.clamp(0.0, 1.0);
        Self {
            csi,
            fingerprint: rest * fp,
            counts: rest * (1.0 - fp),
        }
    }

    /// Renormalizes after dropping unavailable sources: the weights of
    /// sources flagged `false` move proportionally onto the survivors.
    /// With no source available, returns all-zero weights (the caller
    /// must treat that as "nothing to fuse").
    pub fn restrict(self, csi: bool, fingerprint: bool, counts: bool) -> Self {
        let w = Self {
            csi: if csi { self.csi } else { 0.0 },
            fingerprint: if fingerprint { self.fingerprint } else { 0.0 },
            counts: if counts { self.counts } else { 0.0 },
        };
        let total = w.csi + w.fingerprint + w.counts;
        if total <= 0.0 {
            // Degenerate: the surviving sources all had zero weight.
            // Split evenly over whatever is available.
            let n = [csi, fingerprint, counts].iter().filter(|&&b| b).count();
            if n == 0 {
                return Self {
                    csi: 0.0,
                    fingerprint: 0.0,
                    counts: 0.0,
                };
            }
            let each = 1.0 / n as f64;
            return Self {
                csi: if csi { each } else { 0.0 },
                fingerprint: if fingerprint { each } else { 0.0 },
                counts: if counts { each } else { 0.0 },
            };
        }
        Self {
            csi: w.csi / total,
            fingerprint: w.fingerprint / total,
            counts: w.counts / total,
        }
    }
}

/// Fuses likelihood surfaces as a weighted sum of mass-normalized grids.
/// Grids whose spec disagrees with the first entry are skipped (defensive
/// — the callers construct everything on one spec); zero-weight and
/// zero-mass grids contribute nothing. Returns `None` when no grid
/// contributes.
pub(crate) fn fuse_mass(parts: &[(&Grid2D, f64)]) -> Option<Grid2D> {
    let spec = parts.first().map(|(g, _)| g.spec())?;
    let mut out = Grid2D::zeros(spec);
    let mut contributed = false;
    for (grid, weight) in parts {
        if *weight <= 0.0 || grid.spec() != spec {
            continue;
        }
        let mass = grid.sum();
        if mass <= 0.0 || !mass.is_finite() {
            continue;
        }
        let scale = *weight / mass;
        for (o, v) in out.data_mut().iter_mut().zip(grid.data()) {
            *o += scale * v;
        }
        contributed = true;
    }
    contributed.then_some(out)
}

/// An isotropic Gaussian bump over the grid — turns a point estimate
/// (e.g. a KNN position with its spread) into a spatial prior the fusion
/// sum can consume.
pub(crate) fn gaussian_bump(spec: GridSpec, center: P2, sigma_m: f64) -> Grid2D {
    let sigma = sigma_m.max(spec.resolution.max(1e-3));
    let inv_two_sq = 1.0 / (2.0 * sigma * sigma);
    let mut g = Grid2D::from_fn(spec, |p| (-p.dist_sq(center) * inv_two_sq).exp());
    g.normalize_mass();
    g
}

/// Mass-weighted RMS distance of a likelihood surface about `center` —
/// the spatial spread backing a fused estimate's reported sigma.
pub(crate) fn grid_spread(grid: &Grid2D, center: P2) -> f64 {
    let spec = grid.spec();
    let mass = grid.sum();
    if mass <= 0.0 || !mass.is_finite() {
        return 0.0;
    }
    let mut acc = 0.0;
    for ix in 0..spec.nx {
        for iy in 0..spec.ny {
            acc += grid.get(ix, iy) * spec.cell_center(ix, iy).dist_sq(center);
        }
    }
    (acc / mass).sqrt()
}
