//! Small dense linear algebra: 2×2 solves, least squares, bearing-line
//! intersection.
//!
//! The AoA-combining baseline (the paper's comparison system, §7/§8.2)
//! turns one bearing per anchor into a position by intersecting the bearing
//! lines in the least-squares sense; the RSSI baseline trilaterates with a
//! Gauss–Newton step. Both need only the tiny solvers in this module.

use crate::point::P2;

/// Solves the 2×2 system `[[a, b], [c, d]]·x = rhs`.
///
/// Returns `None` when the matrix is singular (determinant below 1e-12 of
/// its scale).
pub(crate) fn solve2(a: f64, b: f64, c: f64, d: f64, rhs: P2) -> Option<P2> {
    let det = a * d - b * c;
    let scale = (a.abs() + b.abs() + c.abs() + d.abs()).max(1e-300);
    if det.abs() < 1e-12 * scale * scale {
        return None;
    }
    Some(P2::new(
        (rhs.x * d - rhs.y * b) / det,
        (a * rhs.y - c * rhs.x) / det,
    ))
}

/// A ray in the plane: origin plus unit direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Ray origin (an anchor position for AoA).
    pub origin: P2,
    /// Unit direction of the bearing.
    pub dir: P2,
}

impl Ray {
    /// Builds a ray from an origin and an angle from the +x axis.
    #[cfg(test)]
    fn from_angle(origin: P2, theta: f64) -> Self {
        Self {
            origin,
            dir: P2::from_angle(theta),
        }
    }
}

/// Least-squares intersection of a set of bearing lines: the point
/// minimizing the sum of squared perpendicular distances to each line.
///
/// This is the classical AoA triangulation step. Weights let the caller
/// trust confident bearings more (we pass the AoA spectrum peak value).
/// Returns `None` for fewer than two rays or a degenerate (all-parallel)
/// geometry.
pub fn intersect_bearings(rays: &[(Ray, f64)]) -> Option<P2> {
    if rays.len() < 2 {
        return None;
    }
    // For a line through o with unit direction u, the normal projector is
    // N = I − u·uᵀ. Minimize Σ w‖N(p − o)‖² ⇒ (Σ wN)p = Σ wN o.
    let (mut a, mut b, mut d) = (0.0, 0.0, 0.0); // symmetric [[a, b], [b, d]]
    let mut rhs = P2::ORIGIN;
    for &(ray, w) in rays {
        let u = ray.dir;
        let nxx = w * (1.0 - u.x * u.x);
        let nxy = w * (-u.x * u.y);
        let nyy = w * (1.0 - u.y * u.y);
        a += nxx;
        b += nxy;
        d += nyy;
        rhs += P2::new(
            nxx * ray.origin.x + nxy * ray.origin.y,
            nxy * ray.origin.x + nyy * ray.origin.y,
        );
    }
    solve2(a, b, b, d, rhs)
}

/// One Gauss–Newton refinement step for range-based trilateration:
/// given anchors `a_i` and measured ranges `r_i`, improves `p` by
/// linearizing `‖p − a_i‖ − r_i` around `p`.
///
/// Returns the updated point, or `None` when the normal equations are
/// singular (e.g. collinear anchors with the point on the line).
pub(crate) fn trilaterate_step(p: P2, anchors_ranges: &[(P2, f64)]) -> Option<P2> {
    // Normal equations JᵀJ Δ = −Jᵀr with J row i = (p − a_i)ᵀ/‖p − a_i‖.
    let (mut a, mut b, mut d) = (0.0, 0.0, 0.0);
    let mut g = P2::ORIGIN;
    for &(anchor, range) in anchors_ranges {
        let v = p - anchor;
        let dist = v.norm().max(1e-9);
        let u = v / dist;
        let resid = dist - range;
        a += u.x * u.x;
        b += u.x * u.y;
        d += u.y * u.y;
        g += u * resid;
    }
    let delta = solve2(a, b, b, d, -g)?;
    Some(p + delta)
}

/// Full trilateration: iterates `trilaterate_step` from an initial guess
/// until the update falls below `tol` metres or `max_iter` is reached.
pub fn trilaterate(
    initial: P2,
    anchors_ranges: &[(P2, f64)],
    tol: f64,
    max_iter: usize,
) -> Option<P2> {
    if anchors_ranges.len() < 2 {
        return None;
    }
    let mut p = initial;
    for _ in 0..max_iter {
        let next = trilaterate_step(p, anchors_ranges)?;
        let moved = p.dist(next);
        p = next;
        if moved < tol {
            break;
        }
    }
    Some(p)
}

/// Simple linear regression `y = slope·x + intercept` (used to check the
/// corrected channels' phase is linear in frequency, Fig. 8b).
///
/// Returns `(slope, intercept, r²)`; `None` for fewer than 2 points or a
/// degenerate x spread.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<(f64, f64, f64)> {
    let n = xs.len();
    if n < 2 || n != ys.len() {
        return None;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let sxx: f64 = xs.iter().map(|&x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(&x, &y)| (x - mx) * (y - my)).sum();
    let syy: f64 = ys.iter().map(|&y| (y - my) * (y - my)).sum();
    if sxx < 1e-30 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy < 1e-30 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some((slope, intercept, r2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn solve2_basic() {
        let x = solve2(2.0, 1.0, 1.0, 3.0, P2::new(5.0, 10.0)).unwrap();
        assert!((2.0 * x.x + 1.0 * x.y - 5.0).abs() < 1e-12);
        assert!((1.0 * x.x + 3.0 * x.y - 10.0).abs() < 1e-12);
    }

    #[test]
    fn solve2_singular_is_none() {
        assert!(solve2(1.0, 2.0, 2.0, 4.0, P2::new(1.0, 1.0)).is_none());
    }

    #[test]
    fn bearings_intersect_at_target() {
        let target = P2::new(2.0, 3.0);
        let anchors = [P2::new(0.0, 0.0), P2::new(5.0, 0.0), P2::new(0.0, 6.0)];
        let rays: Vec<(Ray, f64)> = anchors
            .iter()
            .map(|&a| (Ray::from_angle(a, (target - a).angle()), 1.0))
            .collect();
        let p = intersect_bearings(&rays).unwrap();
        assert!(p.dist(target) < 1e-9);
    }

    #[test]
    fn parallel_bearings_are_degenerate() {
        let rays = [
            (Ray::from_angle(P2::new(0.0, 0.0), FRAC_PI_2), 1.0),
            (Ray::from_angle(P2::new(1.0, 0.0), FRAC_PI_2), 1.0),
        ];
        assert!(intersect_bearings(&rays).is_none());
    }

    #[test]
    fn weighting_pulls_toward_trusted_bearing() {
        // Two noisy bearings to a target plus one wildly wrong but
        // down-weighted bearing: the estimate stays near the target.
        let target = P2::new(2.0, 2.0);
        let good1 = Ray::from_angle(P2::new(0.0, 0.0), (target - P2::new(0.0, 0.0)).angle());
        let good2 = Ray::from_angle(P2::new(5.0, 0.0), (target - P2::new(5.0, 0.0)).angle());
        let bad = Ray::from_angle(P2::new(0.0, 5.0), 0.0);
        let p = intersect_bearings(&[(good1, 1.0), (good2, 1.0), (bad, 1e-6)]).unwrap();
        assert!(
            p.dist(target) < 1e-3,
            "estimate {p} should be near {target}"
        );
    }

    #[test]
    fn trilateration_converges() {
        let target = P2::new(1.5, 2.5);
        let anchors = [P2::new(0.0, 0.0), P2::new(5.0, 0.0), P2::new(2.5, 6.0)];
        let ar: Vec<(P2, f64)> = anchors.iter().map(|&a| (a, a.dist(target))).collect();
        let p = trilaterate(P2::new(2.0, 2.0), &ar, 1e-10, 50).unwrap();
        assert!(p.dist(target) < 1e-6);
    }

    #[test]
    fn trilateration_too_few_anchors() {
        assert!(trilaterate(P2::ORIGIN, &[(P2::new(1.0, 0.0), 1.0)], 1e-6, 10).is_none());
    }

    #[test]
    fn linear_fit_recovers_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x - 7.0).collect();
        let (m, b, r2) = linear_fit(&xs, &ys).unwrap();
        assert!((m - 3.0).abs() < 1e-12);
        assert!((b + 7.0).abs() < 1e-10);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[2.0, 2.0], &[1.0, 3.0]).is_none());
    }

    proptest! {
        #[test]
        fn prop_bearing_intersection_exact(tx in 0.5..5.5f64, ty in 0.5..5.5f64) {
            let target = P2::new(tx, ty);
            let anchors = [P2::new(0.0, -1.0), P2::new(6.0, -1.0), P2::new(6.0, 7.0), P2::new(0.0, 7.0)];
            let rays: Vec<(Ray, f64)> = anchors.iter()
                .map(|&a| (Ray::from_angle(a, (target - a).angle()), 1.0))
                .collect();
            let p = intersect_bearings(&rays).unwrap();
            prop_assert!(p.dist(target) < 1e-6);
        }

        #[test]
        fn prop_trilateration_exact_ranges(tx in 0.5..4.5f64, ty in 0.5..5.5f64) {
            let target = P2::new(tx, ty);
            let anchors = [P2::new(2.5, 0.0), P2::new(5.0, 3.0), P2::new(2.5, 6.0), P2::new(0.0, 3.0)];
            let ar: Vec<(P2, f64)> = anchors.iter().map(|&a| (a, a.dist(target))).collect();
            let p = trilaterate(P2::new(2.5, 3.0), &ar, 1e-12, 100).unwrap();
            prop_assert!(p.dist(target) < 1e-5);
        }
    }
}
