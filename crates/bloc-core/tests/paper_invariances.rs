//! Invariances the paper promises, checked end to end.
//!
//! Eq. 10/14 offset cancellation (§5.2): every retune draws fresh local
//! oscillator phases at the tag and at each anchor, and the tag carries a
//! carrier-frequency offset. Eq. 10 multiplies each tag→anchor channel by
//! the conjugate tag→master channel and the master→anchor response, so
//! every one of those offsets cancels. Two soundings of one tag that
//! differ only in those draws must therefore correct to the same
//! `α^f_ij`, and localize to the same fix.

use bloc_chan::geometry::Room;
use bloc_chan::materials::Material;
use bloc_chan::sounder::{all_data_channels, SounderConfig};
use bloc_chan::{AnchorArray, Environment, Sounder};
use bloc_core::correction::correct;
use bloc_core::localizer::{BlocConfig, BlocLocalizer};
use bloc_num::P2;
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn redrawn_oscillator_offsets_cancel_in_corrected_channels_and_fix() {
    let room = Room::new(6.0, 5.0);
    let mut rng = StdRng::seed_from_u64(5);
    let env = Environment::in_room(room)
        .with_walls(Material::concrete(), &mut rng)
        .unwrap();
    let (mids, walls) = (room.wall_midpoints(), room.walls());
    let anchors: Vec<AnchorArray> = (0..4)
        .map(|i| AnchorArray::centered(i, mids[i], walls[i].direction(), 4))
        .collect();
    // No measurement noise and no calibration error: what is left to
    // differ between two soundings is the per-retune oscillator phases
    // and the tag's CFO (common and per-band jitter), drawn per seed.
    let config = SounderConfig {
        csi_snr_db: f64::INFINITY,
        antenna_phase_err_std: 0.0,
        ..Default::default()
    };
    let sounder = Sounder::new(&env, &anchors, config);
    let channels = all_data_channels();
    let tag = P2::new(2.3, 3.1);
    let sound = |seed: u64| sounder.sound(tag, &channels, &mut StdRng::seed_from_u64(seed));
    let (a, b) = (sound(1), sound(2));

    // The raw channels differ by the offsets the two draws put in them…
    let raw = |s: &bloc_chan::sounder::SoundingData| s.bands[0].tag_to_anchor[1][0];
    assert!((raw(&a) - raw(&b)).abs() > 1e-3 * raw(&a).abs());

    // …and Eq. 10 cancels every one of them.
    for normalize in [false, true] {
        let (ca, cb) = (
            correct(&a, normalize).unwrap(),
            correct(&b, normalize).unwrap(),
        );
        assert_eq!(ca.bands.len(), channels.len());
        assert_eq!(cb.bands.len(), channels.len());
        for (band_a, band_b) in ca.bands.iter().zip(&cb.bands) {
            assert_eq!(band_a.freq_hz, band_b.freq_hz);
            for (row_a, row_b) in band_a.alpha.iter().zip(&band_b.alpha) {
                for (&x, &y) in row_a.iter().zip(row_b) {
                    assert!(
                        (x - y).abs() <= 1e-9 * x.abs().max(1e-12),
                        "{normalize}: band {} α {x:?} vs {y:?}",
                        band_a.freq_hz
                    );
                }
            }
        }
    }

    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let (fa, fb) = (
        localizer.localize(&a).unwrap(),
        localizer.localize(&b).unwrap(),
    );
    assert!(
        fa.position.dist(fb.position) <= 1e-9,
        "the fix moved: {} vs {}",
        fa.position,
        fb.position
    );
    assert!(
        fa.position.dist(tag) < 0.5,
        "fix {} for tag {tag}",
        fa.position
    );
}
