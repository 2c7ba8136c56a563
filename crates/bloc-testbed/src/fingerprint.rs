//! Offline fingerprint survey: builds the RSSI [`FingerprintDb`] the
//! degraded-mode localizer falls back on.
//!
//! The survey walks a uniform position grid over the room (the classic
//! site-survey pass of RSSI fingerprinting systems), sounds every
//! position with a clean sounder, and stores the per-(band, anchor) dB
//! features. The pass is **bit-identical across worker thread counts**:
//! each position's sounding RNG is seeded from a pure hash of
//! `(survey seed, position index)`, feature extraction runs on
//! [`bloc_num::par`] with index-addressed output slots, and insertion
//! happens sequentially in index order afterwards — the same discipline
//! every deterministic fan-out in this workspace follows.

use rand::rngs::StdRng;
use rand::SeedableRng;

use bloc_chan::geometry::Room;
use bloc_chan::sounder::{all_data_channels, SounderConfig};
use bloc_core::FingerprintDb;
use bloc_num::{par, P2};

use crate::scenario::Scenario;

/// The splitmix64 finalizer (same as `bloc_chan::faults`): per-position
/// RNG seeds are pure hashes, never stream draws.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The survey grid: uniform `spacing` over the room, inset by `margin`
/// from the walls (fingerprints against a wall are dominated by the
/// nearest anchor and add little).
pub fn survey_positions(room: &Room, spacing: f64, margin: f64) -> Vec<P2> {
    assert!(spacing > 0.0, "survey spacing must be positive");
    let mut out = Vec::new();
    let mut y = margin;
    while y <= room.height - margin + 1e-9 {
        let mut x = margin;
        while x <= room.width - margin + 1e-9 {
            out.push(P2::new(x, y));
            x += spacing;
        }
        y += spacing;
    }
    out
}

/// Surveys `scenario` on a `spacing`-metre grid and returns the trained
/// fingerprint database. Deterministic in `(scenario, spacing, seed)`
/// and bit-identical for any `threads` value.
pub fn train_fingerprint_db(
    scenario: &Scenario,
    spacing: f64,
    seed: u64,
    threads: usize,
) -> FingerprintDb {
    let channels = all_data_channels();
    let positions = survey_positions(&scenario.room, spacing, 0.5);
    let sounder = scenario.sounder(SounderConfig::default());
    // A survey point is one full sounding; two per shard amortizes the
    // spawn while keeping small surveys serial.
    let threads = par::tuned_threads(positions.len(), threads, 2);
    let rows = par::map_named("fingerprint.survey", positions.len(), threads, |i| {
        let mut rng = StdRng::seed_from_u64(splitmix(
            seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        ));
        let data = sounder.sound(positions[i], &channels, &mut rng);
        let (values, _) = FingerprintDb::features_of(&data);
        values
    });
    let mut db = FingerprintDb::new(channels.len(), scenario.anchors.len());
    for (pos, row) in positions.iter().zip(&rows) {
        db.insert_features(*pos, row)
            .expect("survey rows always match the database shape");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survey_grid_covers_the_room() {
        let room = Room::new(5.0, 6.0);
        let pts = survey_positions(&room, 1.0, 0.5);
        assert!(!pts.is_empty());
        assert!(pts
            .iter()
            .all(|p| p.x >= 0.5 && p.x <= 4.5 && p.y >= 0.5 && p.y <= 5.5));
    }

    #[test]
    fn fingerprint_build_is_bit_identical_across_thread_counts() {
        let scenario = Scenario::clean_los(11);
        let reference = train_fingerprint_db(&scenario, 1.5, 42, 1);
        assert!(reference.len() > 4, "survey must cover the room");
        for threads in [2, 4] {
            let db = train_fingerprint_db(&scenario, 1.5, 42, threads);
            assert_eq!(db.positions(), reference.positions(), "{threads} threads");
            assert_eq!(
                db.features()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                reference
                    .features()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "feature matrix must be bit-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn trained_db_localizes_a_clean_query_coarsely() {
        use rand::Rng;
        let scenario = Scenario::clean_los(12);
        let db = train_fingerprint_db(&scenario, 1.0, 7, 2);
        let sounder = scenario.sounder(SounderConfig::default());
        let channels = all_data_channels();
        let mut rng = StdRng::seed_from_u64(99);
        let truth = P2::new(2.3, 3.1);
        let _ = rng.gen::<u64>();
        let data = sounder.sound(truth, &channels, &mut rng);
        let est = db
            .query(&bloc_core::FallbackEvidence::from_sounding(&data), 4)
            .expect("clean query succeeds");
        assert!(
            est.position.dist(truth) < 1.5,
            "KNN is metre-class: {} m",
            est.position.dist(truth)
        );
    }
}
