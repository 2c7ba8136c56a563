//! Local-maximum extraction on 2-D grids.
//!
//! BLoc's multipath rejection (paper §5.4) operates on "each peak in the
//! likelihood profile": it scores every local maximum of the combined
//! spatial likelihood and then picks the best-scoring one as the direct
//! path. This module finds those peaks.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

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

/// The local maxima of one grid and the work their search took.
#[derive(Debug, Clone, PartialEq)]
pub struct PeakScan {
    /// The peaks, strongest first.
    pub peaks: Vec<Peak>,
    /// The cells given the exact dominance test: those at or above the
    /// floor and at least their neighborhood's maximum.
    pub dominance_checks: usize,
}

/// Finds local maxima of `grid` under the given options, strongest first.
///
/// A cell is a peak when it is strictly greater than every other cell in
/// the square neighborhood of `dominance_radius` (ties broken towards the
/// lexicographically smaller index so plateaus yield one peak, not many).
/// A NaN cell is never a peak, and a NaN neighbour never stops one.
///
/// A separable maximum prefilters the exact test: a column pass, then a
/// row pass, gives every cell its neighborhood's largest non-NaN value
/// (a `>`-max, so NaN never wins), and only a cell at or above the floor
/// and at least that maximum can dominate. Those cells alone take the
/// exact test, so the peaks are the ones a test of every cell above the
/// floor finds. The scan allocates two rows of buffers per call, none
/// per cell.
pub fn find_peaks(grid: &Grid2D, opts: &PeakOptions) -> PeakScan {
    let mut scan = PeakScan {
        peaks: Vec::new(),
        dominance_checks: 0,
    };
    let spec = grid.spec();
    let Some((_, _, max_v)) = grid.argmax() else {
        return scan;
    };
    if max_v <= 0.0 || max_v.is_nan() {
        return scan;
    }
    let floor = max_v * opts.min_rel_height;
    let r = opts.dominance_radius;
    let (nx, ny) = (spec.nx, spec.ny);
    let data = grid.data();
    // Row `iy`'s column maxima over rows `iy ± r`, then their maxima over
    // columns `ix ± r`.
    let mut column = vec![f64::NEG_INFINITY; nx];
    let mut square = vec![f64::NEG_INFINITY; nx];
    for iy in 0..ny {
        column.fill(f64::NEG_INFINITY);
        for y in iy.saturating_sub(r)..=(iy + r).min(ny - 1) {
            for (m, &w) in column.iter_mut().zip(&data[y * nx..(y + 1) * nx]) {
                *m = gt_max(*m, w);
            }
        }
        square.copy_from_slice(&column);
        for d in 1..=r.min(nx - 1) {
            for (m, &w) in square[..nx - d].iter_mut().zip(&column[d..]) {
                *m = gt_max(*m, w);
            }
            for (m, &w) in square[d..].iter_mut().zip(&column[..nx - d]) {
                *m = gt_max(*m, w);
            }
        }
        let row = &data[iy * nx..(iy + 1) * nx];
        for (ix, (&v, &around)) in row.iter().zip(&square).enumerate() {
            // A NaN cell is never a peak: it compares false against the
            // floor. A cell below a neighbour cannot dominate.
            if v.is_nan() || v < floor || v < around {
                continue;
            }
            scan.dominance_checks += 1;
            if is_dominant(grid, ix, iy, r as isize) {
                scan.peaks.push(Peak {
                    ix,
                    iy,
                    position: spec.cell_center(ix, iy),
                    value: v,
                });
            }
        }
    }
    // NaN cells never become peaks, so this is the descending numeric
    // order; `total_cmp` keeps the sort total without a panic path.
    scan.peaks.sort_by(|a, b| b.value.total_cmp(&a.value));
    scan.peaks.truncate(opts.max_peaks);
    scan
}

/// `w` when it exceeds `m`, else `m`: a NaN `w` never wins.
#[inline(always)]
fn gt_max(m: f64, w: f64) -> f64 {
    if w > m {
        w
    } else {
        m
    }
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
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

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
        let peaks = find_peaks(&g, &PeakOptions::default()).peaks;
        assert_eq!(peaks.len(), 1);
        assert!(peaks[0].position.dist(c) < 0.1);
    }

    #[test]
    fn two_bumps_sorted_by_strength() {
        let c1 = P2::new(1.05, 1.05);
        let c2 = P2::new(3.05, 3.05);
        let g = Grid2D::from_fn(spec(), |p| bump(p, c1, 1.0, 0.25) + bump(p, c2, 0.6, 0.25));
        let peaks = find_peaks(&g, &PeakOptions::default()).peaks;
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
        )
        .peaks;
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
        )
        .peaks;
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
        let peaks = find_peaks(&g, &PeakOptions::default()).peaks;
        assert_eq!(peaks.len(), 1);
        assert_eq!((peaks[0].ix, peaks[0].iy, peaks[0].value), (4, 4, 1.0));
    }

    #[test]
    fn all_zero_grid_has_no_peaks() {
        let g = Grid2D::zeros(spec());
        assert!(find_peaks(&g, &PeakOptions::default()).peaks.is_empty());
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
        )
        .peaks;
        assert_eq!(peaks.len(), 3);
    }

    /// The scan without its prefilter: the exact test on every cell at
    /// or above the floor, with the number of cells tested — the oracle
    /// `find_peaks` must agree with.
    fn exhaustive_scan(grid: &Grid2D, opts: &PeakOptions) -> PeakScan {
        let spec = grid.spec();
        let mut scan = PeakScan {
            peaks: Vec::new(),
            dominance_checks: 0,
        };
        let Some((_, _, max_v)) = grid.argmax() else {
            return scan;
        };
        if max_v <= 0.0 || max_v.is_nan() {
            return scan;
        }
        let floor = max_v * opts.min_rel_height;
        for iy in 0..spec.ny {
            for ix in 0..spec.nx {
                let v = grid.get(ix, iy);
                if v.is_nan() || v < floor {
                    continue;
                }
                scan.dominance_checks += 1;
                if is_dominant(grid, ix, iy, opts.dominance_radius as isize) {
                    scan.peaks.push(Peak {
                        ix,
                        iy,
                        position: spec.cell_center(ix, iy),
                        value: v,
                    });
                }
            }
        }
        scan.peaks.sort_by(|a, b| b.value.total_cmp(&a.value));
        scan.peaks.truncate(opts.max_peaks);
        scan
    }

    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// An `nx`×`ny` grid in one of four styles: few levels (plateaus
    /// and ties), few levels with NaN and ±0 cells, a pedestal that puts
    /// every cell above the floor with ties on top, and continuous noise.
    fn styled_grid(nx: usize, ny: usize, style: u64, seed: u64) -> Grid2D {
        let spec = GridSpec { nx, ny, ..spec() };
        let mut g = Grid2D::zeros(spec);
        for (k, v) in g.data_mut().iter_mut().enumerate() {
            let h = mix(seed ^ (k as u64).wrapping_mul(0x1_0000_0001));
            let level = [0.0, 1.0, 2.0, 3.0][(h % 4) as usize];
            *v = match style % 4 {
                0 => level,
                1 => [f64::NAN, 0.0, -0.0, 1.0, 2.0, 2.0][(h % 6) as usize],
                2 => 10.0 + level * 0.5,
                _ => (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 0.5,
            };
        }
        g
    }

    /// Asserts the prefiltered scan finds the exhaustive scan's peaks,
    /// testing no more cells.
    fn assert_scans_agree(g: &Grid2D, opts: &PeakOptions) {
        let (fast, slow) = (find_peaks(g, opts), exhaustive_scan(g, opts));
        assert_eq!(fast.peaks, slow.peaks, "{opts:?} on {:?}", g.data());
        assert!(fast.dominance_checks <= slow.dominance_checks);
        // Every peak was tested, and so was every cell that ties it.
        assert!(fast.dominance_checks >= fast.peaks.len());
    }

    #[test]
    fn prefilter_matches_the_exhaustive_scan_on_grids_smaller_than_the_radius() {
        for (nx, ny) in [(1, 1), (1, 5), (5, 1), (2, 2), (3, 2)] {
            for dominance_radius in 0..=3 {
                for style in 0..4 {
                    for seed in 0..16 {
                        let g = styled_grid(nx, ny, style, seed);
                        for min_rel_height in [0.0, 0.35] {
                            let opts = PeakOptions {
                                dominance_radius,
                                min_rel_height,
                                max_peaks: usize::MAX,
                            };
                            assert_scans_agree(&g, &opts);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pedestal_cells_skip_the_exact_test() {
        // Every cell of a pedestalled bump is above the floor, so the
        // exhaustive scan tests them all; the prefilter tests only the
        // cells that reach their neighbourhood's maximum, and a row of
        // NaN cells (which never win the maximum) adds none.
        let c = P2::new(2.05, 1.55);
        let mut g = Grid2D::from_fn(spec(), |p| 5.0 + bump(p, c, 1.0, 0.3));
        for ix in 0..40 {
            g.set(ix, 30, f64::NAN);
        }
        let opts = PeakOptions::default();
        let (fast, slow) = (find_peaks(&g, &opts), exhaustive_scan(&g, &opts));
        assert_eq!(fast.peaks, slow.peaks);
        assert_eq!(slow.dominance_checks, 39 * 40);
        assert_eq!(fast.peaks.len(), 1);
        assert!(
            fast.dominance_checks < 40,
            "{} cells tested",
            fast.dominance_checks
        );
    }

    proptest! {
        #[test]
        fn prop_prefilter_matches_the_exhaustive_scan(
            nx in 1usize..12,
            ny in 1usize..12,
            dominance_radius in 0usize..=3,
            style in 0u64..4,
            seed in any::<u64>(),
            floored in any::<bool>(),
            max_peaks in 0usize..4,
        ) {
            let g = styled_grid(nx, ny, style, seed);
            let opts = PeakOptions {
                dominance_radius,
                min_rel_height: if floored { 0.35 } else { 0.0 },
                // 0 keeps every peak.
                max_peaks: if max_peaks == 0 { usize::MAX } else { max_peaks },
            };
            assert_scans_agree(&g, &opts);
        }

        #[test]
        fn prop_peaks_are_local_maxima(seed_x in 0.5..3.5f64, seed_y in 0.5..3.5f64,
                                       amp in 0.5..2.0f64, width in 0.15..0.6f64) {
            let c = P2::new(seed_x, seed_y);
            let g = Grid2D::from_fn(spec(), |p| bump(p, c, amp, width));
            let peaks = find_peaks(&g, &PeakOptions::default()).peaks;
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
