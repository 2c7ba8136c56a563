//! Anchor antenna arrays.
//!
//! The paper's anchors are "four 4-antenna BLE anchor points … all antennas
//! on one anchor point are driven by the same clock" (§7). Each anchor here
//! is a uniform linear array: antenna 0 at one end, spacing `l` (default
//! λ/2 at mid-band), oriented along a given direction (for wall-mounted
//! anchors, along the wall).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bloc_num::constants::wavelength;
use bloc_num::P2;

/// Half-wavelength spacing at the BLE mid-band (2.44 GHz), metres — the
/// classic unambiguous AoA spacing.
pub(crate) fn half_wavelength_spacing() -> f64 {
    wavelength(2.44e9) / 2.0
}

/// A uniform linear antenna array (one BLoc anchor).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AnchorArray {
    /// Anchor identifier (its index in the deployment).
    pub id: usize,
    /// Position of antenna 0.
    pub origin: P2,
    /// Unit vector along the array (antenna j at `origin + j·spacing·axis`).
    pub axis: P2,
    /// Antenna spacing `l`, metres.
    pub spacing: f64,
    /// Number of antennas `J`.
    pub n_antennas: usize,
}

impl AnchorArray {
    /// Builds an array with λ/2 spacing whose *centre* sits at `center`,
    /// extending along `axis` (normalized internally).
    ///
    /// # Panics
    /// Panics for zero antennas or a zero axis.
    pub fn centered(id: usize, center: P2, axis: P2, n_antennas: usize) -> Self {
        assert!(n_antennas > 0, "anchor needs at least one antenna");
        let axis = axis.normalize();
        assert!(axis.norm() > 0.0, "axis must be non-zero");
        let spacing = half_wavelength_spacing();
        let half_extent = spacing * (n_antennas - 1) as f64 / 2.0;
        Self {
            id,
            origin: center - axis * half_extent,
            axis,
            spacing,
            n_antennas,
        }
    }

    /// Position of antenna `j`.
    ///
    /// # Panics
    /// Panics for `j ≥ n_antennas`.
    pub fn antenna(&self, j: usize) -> P2 {
        assert!(
            j < self.n_antennas,
            "antenna {j} out of range {}",
            self.n_antennas
        );
        self.origin + self.axis * (self.spacing * j as f64)
    }

    /// All antenna positions, in order.
    pub fn antennas(&self) -> Vec<P2> {
        (0..self.n_antennas).map(|j| self.antenna(j)).collect()
    }

    /// The array centre.
    pub fn center(&self) -> P2 {
        self.origin + self.axis * (self.spacing * (self.n_antennas - 1) as f64 / 2.0)
    }

    /// The boresight (normal) direction: perpendicular to the axis,
    /// counter-clockwise. Wall-mounted arrays should have this pointing
    /// into the room.
    pub fn boresight(&self) -> P2 {
        self.axis.perp()
    }

    /// A copy restricted to the first `n` antennas (the Fig. 9c
    /// antenna-count ablation).
    ///
    /// # Panics
    /// Panics when `n` is zero or exceeds the current count.
    pub(crate) fn truncated(&self, n: usize) -> Self {
        assert!(
            n > 0 && n <= self.n_antennas,
            "cannot truncate {} antennas to {n}",
            self.n_antennas
        );
        Self {
            n_antennas: n,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn spacing_is_half_wavelength() {
        let l = half_wavelength_spacing();
        assert!(
            (l - 0.0614).abs() < 1e-3,
            "λ/2 at 2.44 GHz ≈ 6.14 cm, got {l}"
        );
    }

    #[test]
    fn centered_array_is_centered() {
        let c = P2::new(2.5, 0.0);
        let a = AnchorArray::centered(0, c, P2::new(1.0, 0.0), 4);
        assert!(a.center().dist(c) < 1e-12);
        let ants = a.antennas();
        assert_eq!(ants.len(), 4);
        // symmetric about the centre
        assert!((ants[0].dist(c) - ants[3].dist(c)).abs() < 1e-12);
        assert!((ants[1].dist(c) - ants[2].dist(c)).abs() < 1e-12);
    }

    #[test]
    fn antenna_positions_evenly_spaced() {
        let a = AnchorArray::centered(1, P2::new(0.0, 3.0), P2::new(0.0, 1.0), 4);
        let ants = a.antennas();
        for w in ants.windows(2) {
            assert!((w[0].dist(w[1]) - a.spacing).abs() < 1e-12);
        }
    }

    #[test]
    fn boresight_perpendicular() {
        let a = AnchorArray::centered(2, P2::ORIGIN, P2::new(1.0, 0.0), 4);
        assert_eq!(a.boresight().dot(a.axis), 0.0);
    }

    #[test]
    fn truncation_keeps_prefix() {
        let a = AnchorArray::centered(0, P2::new(1.0, 1.0), P2::new(1.0, 0.0), 4);
        let t = a.truncated(3);
        assert_eq!(t.n_antennas, 3);
        for j in 0..3 {
            assert_eq!(t.antenna(j), a.antenna(j));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn antenna_index_checked() {
        AnchorArray::centered(0, P2::ORIGIN, P2::new(1.0, 0.0), 4).antenna(4);
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn truncation_checked() {
        AnchorArray::centered(0, P2::ORIGIN, P2::new(1.0, 0.0), 4).truncated(5);
    }

    #[test]
    fn normalizes_axis() {
        let a = AnchorArray::centered(0, P2::ORIGIN, P2::new(3.0, 4.0), 2);
        assert!((a.axis.norm() - 1.0).abs() < 1e-12);
    }
}
