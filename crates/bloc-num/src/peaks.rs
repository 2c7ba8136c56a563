//! Local-maximum extraction on 2-D grids.
//!
//! BLoc's multipath rejection (paper §5.4) operates on "each peak in the
//! likelihood profile": it scores every local maximum of the combined
//! spatial likelihood and then picks the best-scoring one as the direct
//! path. This module finds those peaks.

use crate::grid::Grid2D;
use crate::point::P2;

/// A local maximum of a likelihood grid.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Peak {
    /// Cell x index.
    pub ix: usize,
    /// Cell y index.
    pub iy: usize,
    /// World coordinates of the cell centre.
    pub position: P2,
    /// Likelihood value at the peak (`p_x` in paper Eq. 18).
    pub value: f64,
}

/// Options controlling peak extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PeakOptions {
    /// Neighborhood radius (cells) within which a peak must dominate. 1 is
    /// the classic 8-neighbour local maximum; larger values suppress
    /// shoulder peaks riding on a bigger lobe.
    pub dominance_radius: usize,
    /// Discard peaks below `min_rel_height · max(grid)`. The paper's score
    /// already down-weights weak peaks, so this is a pre-filter that keeps
    /// the candidate list short.
    pub min_rel_height: f64,
    /// Keep at most this many peaks (strongest first). `usize::MAX` keeps
    /// all.
    pub max_peaks: usize,
}

impl Default for PeakOptions {
    fn default() -> Self {
        Self {
            dominance_radius: 2,
            min_rel_height: 0.35,
            max_peaks: 8,
        }
    }
}

/// Finds local maxima of `grid` under the given options, strongest first.
///
/// A cell is a peak when it is strictly greater than every other cell in
/// the square neighborhood of `dominance_radius` (ties broken towards the
/// lexicographically smaller index so plateaus yield one peak, not many).
/// A NaN cell is never a peak.
pub fn find_peaks(grid: &Grid2D, opts: &PeakOptions) -> Vec<Peak> {
    let spec = grid.spec();
    let Some((_, _, max_v)) = grid.argmax() else {
        return Vec::new();
    };
    if max_v <= 0.0 || max_v.is_nan() {
        return Vec::new();
    }
    let floor = max_v * opts.min_rel_height;
    let r = opts.dominance_radius as isize;

    let mut peaks = Vec::new();
    for iy in 0..spec.ny {
        for ix in 0..spec.nx {
            let v = grid.get(ix, iy);
            // A NaN cell is never a peak: it compares false against the
            // floor and against every neighbour.
            if v.is_nan() || v < floor {
                continue;
            }
            if is_dominant(grid, ix, iy, r) {
                peaks.push(Peak {
                    ix,
                    iy,
                    position: spec.cell_center(ix, iy),
                    value: v,
                });
            }
        }
    }
    peaks.sort_by(|a, b| {
        b.value
            .partial_cmp(&a.value)
            .expect("likelihoods must be finite")
    });
    peaks.truncate(opts.max_peaks);
    peaks
}

/// True when `(ix, iy)` dominates its square neighborhood of radius `r`.
fn is_dominant(grid: &Grid2D, ix: usize, iy: usize, r: isize) -> bool {
    let spec = grid.spec();
    let v = grid.get(ix, iy);
    for dy in -r..=r {
        for dx in -r..=r {
            if dx == 0 && dy == 0 {
                continue;
            }
            let x = ix as isize + dx;
            let y = iy as isize + dy;
            if x < 0 || y < 0 || x as usize >= spec.nx || y as usize >= spec.ny {
                continue;
            }
            let w = grid.get(x as usize, y as usize);
            if w > v {
                return false;
            }
            // Plateau tie-break: defer to the smaller flat index.
            if w == v && spec.flat(x as usize, y as usize) < spec.flat(ix, iy) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use proptest::prelude::*;

    fn spec() -> GridSpec {
        GridSpec {
            origin: P2::ORIGIN,
            resolution: 0.1,
            nx: 40,
            ny: 40,
        }
    }

    /// A Gaussian bump centred at `c` with amplitude `a` and width `s`.
    fn bump(p: P2, c: P2, a: f64, s: f64) -> f64 {
        a * (-p.dist_sq(c) / (2.0 * s * s)).exp()
    }

    #[test]
    fn single_bump_single_peak() {
        let c = P2::new(2.05, 1.55);
        let g = Grid2D::from_fn(spec(), |p| bump(p, c, 1.0, 0.3));
        let peaks = find_peaks(&g, &PeakOptions::default());
        assert_eq!(peaks.len(), 1);
        assert!(peaks[0].position.dist(c) < 0.1);
    }

    #[test]
    fn two_bumps_sorted_by_strength() {
        let c1 = P2::new(1.05, 1.05);
        let c2 = P2::new(3.05, 3.05);
        let g = Grid2D::from_fn(spec(), |p| bump(p, c1, 1.0, 0.25) + bump(p, c2, 0.6, 0.25));
        let peaks = find_peaks(&g, &PeakOptions::default());
        assert_eq!(peaks.len(), 2);
        assert!(peaks[0].position.dist(c1) < 0.1);
        assert!(peaks[1].position.dist(c2) < 0.1);
        assert!(peaks[0].value > peaks[1].value);
    }

    #[test]
    fn weak_peaks_filtered() {
        let c1 = P2::new(1.05, 1.05);
        let c2 = P2::new(3.05, 3.05);
        let g = Grid2D::from_fn(spec(), |p| bump(p, c1, 1.0, 0.25) + bump(p, c2, 0.05, 0.25));
        let peaks = find_peaks(
            &g,
            &PeakOptions {
                min_rel_height: 0.2,
                ..Default::default()
            },
        );
        assert_eq!(peaks.len(), 1);
    }

    #[test]
    fn plateau_yields_one_peak() {
        let g = Grid2D::from_fn(spec(), |_| 1.0);
        let peaks = find_peaks(
            &g,
            &PeakOptions {
                max_peaks: usize::MAX,
                ..Default::default()
            },
        );
        assert_eq!(peaks.len(), 1, "a constant grid is one plateau, one peak");
    }

    #[test]
    fn nan_cell_beside_a_peak_is_skipped() {
        let spec = GridSpec {
            nx: 10,
            ny: 10,
            ..spec()
        };
        let mut g = Grid2D::zeros(spec);
        g.set(4, 4, 1.0);
        g.set(5, 4, f64::NAN);
        let peaks = find_peaks(&g, &PeakOptions::default());
        assert_eq!(peaks.len(), 1);
        assert_eq!((peaks[0].ix, peaks[0].iy, peaks[0].value), (4, 4, 1.0));
    }

    #[test]
    fn all_zero_grid_has_no_peaks() {
        let g = Grid2D::zeros(spec());
        assert!(find_peaks(&g, &PeakOptions::default()).is_empty());
    }

    #[test]
    fn max_peaks_truncates() {
        let mut g = Grid2D::zeros(spec());
        for k in 0..10 {
            g.set(4 * k + 2, 2, 1.0 + k as f64 * 0.01);
        }
        let peaks = find_peaks(
            &g,
            &PeakOptions {
                dominance_radius: 1,
                min_rel_height: 0.0,
                max_peaks: 3,
            },
        );
        assert_eq!(peaks.len(), 3);
    }

    proptest! {
        #[test]
        fn prop_peaks_are_local_maxima(seed_x in 0.5..3.5f64, seed_y in 0.5..3.5f64,
                                       amp in 0.5..2.0f64, width in 0.15..0.6f64) {
            let c = P2::new(seed_x, seed_y);
            let g = Grid2D::from_fn(spec(), |p| bump(p, c, amp, width));
            let peaks = find_peaks(&g, &PeakOptions::default());
            prop_assert!(!peaks.is_empty());
            for pk in &peaks {
                // every reported peak dominates its 8-neighborhood
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let x = pk.ix as i64 + dx;
                        let y = pk.iy as i64 + dy;
                        if x < 0 || y < 0 || x >= 40 || y >= 40 || (dx == 0 && dy == 0) {
                            continue;
                        }
                        prop_assert!(g.get(x as usize, y as usize) <= pk.value);
                    }
                }
            }
        }
    }
}
