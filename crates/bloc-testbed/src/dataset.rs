//! The evaluation dataset: tag positions in the room.
//!
//! Paper §7: "we measure the ground truth of channels in 1700 different
//! locations … The 1700 points cover the entire space. The average
//! separation between two nearest neighbors is 10 cm." Positions here are
//! seeded pseudo-random over the room interior (0.4 m wall margin keeps
//! the tag out of the anchors' near field), which reproduces the coverage
//! and density; the simulator's exact coordinates replace the VICON ground
//! truth (DESIGN.md §2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bloc_chan::geometry::Room;
use bloc_num::P2;

/// The paper's dataset size.
pub const PAPER_DATASET_SIZE: usize = 1700;

/// Margin kept between sampled positions and the walls, metres.
pub(crate) const WALL_MARGIN: f64 = 0.4;

/// Samples `n` tag positions uniformly over the room interior.
pub fn sample_positions(room: &Room, n: usize, seed: u64) -> Vec<P2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (origin, extent) = room.interior(WALL_MARGIN);
    (0..n)
        .map(|_| {
            P2::new(
                origin.x + rng.gen::<f64>() * extent.x,
                origin.y + rng.gen::<f64>() * extent.y,
            )
        })
        .collect()
}

/// Mean nearest-neighbour separation of a point set (the paper quotes
/// ≈10 cm for its 1700 points) — O(n²), used by tests and reports.
pub fn mean_nearest_neighbor(points: &[P2]) -> f64 {
    if points.len() < 2 {
        return f64::NAN;
    }
    let mut total = 0.0;
    for (i, &p) in points.iter().enumerate() {
        let nn = points
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &q)| p.dist(q))
            .fold(f64::INFINITY, f64::min);
        total += nn;
    }
    total / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_stay_inside_margin() {
        let room = Room::new(5.0, 6.0);
        for p in sample_positions(&room, 500, 1) {
            assert!(p.x >= WALL_MARGIN && p.x <= room.width - WALL_MARGIN);
            assert!(p.y >= WALL_MARGIN && p.y <= room.height - WALL_MARGIN);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let room = Room::new(5.0, 6.0);
        assert_eq!(
            sample_positions(&room, 50, 9),
            sample_positions(&room, 50, 9)
        );
        assert_ne!(
            sample_positions(&room, 50, 9),
            sample_positions(&room, 50, 10)
        );
    }

    #[test]
    fn paper_dataset_density_matches_quote() {
        // 1700 uniform points on a (5−0.8)×(6−0.8) m area: mean NN spacing
        // ≈ 0.5/√(n/A) ≈ 6–10 cm — same density regime as the paper's 10 cm.
        let room = Room::new(5.0, 6.0);
        let pts = sample_positions(&room, PAPER_DATASET_SIZE, 42);
        assert_eq!(pts.len(), PAPER_DATASET_SIZE);
        let nn = mean_nearest_neighbor(&pts[..600]); // subsample for O(n²) speed
        assert!(nn > 0.03 && nn < 0.25, "nearest-neighbour spacing {nn} m");
    }

    #[test]
    fn coverage_spans_the_room() {
        let room = Room::new(5.0, 6.0);
        let pts = sample_positions(&room, 400, 3);
        // Every 1×1 m interior cell is hit.
        for cx in 0..4 {
            for cy in 0..5 {
                let hit = pts.iter().any(|p| {
                    (p.x - 0.5 - cx as f64).abs() < 0.5 && (p.y - 0.5 - cy as f64).abs() < 0.5
                });
                assert!(hit, "cell ({cx},{cy}) never sampled");
            }
        }
    }

    #[test]
    fn nn_degenerate_cases() {
        assert!(mean_nearest_neighbor(&[]).is_nan());
        assert!(mean_nearest_neighbor(&[P2::new(1.0, 1.0)]).is_nan());
        let two = [P2::new(0.0, 0.0), P2::new(3.0, 4.0)];
        assert_eq!(mean_nearest_neighbor(&two), 5.0);
    }
}
