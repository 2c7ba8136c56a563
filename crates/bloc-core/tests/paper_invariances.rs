//! Invariances the paper promises, checked end to end.
//!
//! Eq. 10/14 offset cancellation (§5.2): every retune draws fresh local
//! oscillator phases at the tag and at each anchor, and the tag carries a
//! carrier-frequency offset. Eq. 10 multiplies each tag→anchor channel by
//! the conjugate tag→master channel and the master→anchor response, so
//! every one of those offsets cancels. Two soundings of one tag that
//! differ only in those draws must therefore correct to the same
//! `α^f_ij`, and localize to the same fix.
//!
//! Free-space peak value (§5.3): with no multipath and no noise, every
//! phasor of anchor `i`'s coherent Eq. 17 sum lines up at the tag, so the
//! map's value there is `Σ_jk |α^{f_k}_ij|`, the Cauchy–Schwarz maximum.
//! That oracle needs neither kernel, so it checks both.
//!
//! Rigid motion (§5): Eqs. 10–18 read only distances and the angles
//! between anchor axes and bearings, so moving the whole scene — walls,
//! anchors, tags and search grid — by one translation or rotation moves
//! every fix by the same transform.

use bloc_chan::geometry::{Room, Segment};
use bloc_chan::materials::Material;
use bloc_chan::reflector::Reflector;
use bloc_chan::sounder::{all_data_channels, SounderConfig};
use bloc_chan::{AnchorArray, Environment, Sounder};
use bloc_core::correction::correct;
use bloc_core::engine::LikelihoodEngine;
use bloc_core::likelihood::{anchor_likelihood_reference, AntennaCombining};
use bloc_core::localizer::{BlocConfig, BlocLocalizer};
use bloc_num::{GridSpec, P2};
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

/// Eq. 17 sums one term per slave anchor, and every slave is corrected
/// against the master alone (Eq. 10), so the order the slaves are listed
/// in cannot move the fix. Permuting them in one sounding must give the
/// same position.
#[test]
fn permuting_the_slave_anchors_leaves_the_fix_in_place() {
    let room = Room::new(6.0, 5.0);
    let mut rng = StdRng::seed_from_u64(9);
    let env = Environment::in_room(room)
        .with_walls(Material::concrete(), &mut rng)
        .unwrap();
    let (mids, walls) = (room.wall_midpoints(), room.walls());
    let anchors: Vec<AnchorArray> = (0..4)
        .map(|i| AnchorArray::centered(i, mids[i], walls[i].direction(), 4))
        .collect();
    let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
    let channels = all_data_channels();
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    for (k, tag) in [P2::new(1.2, 1.1), P2::new(2.3, 3.1), P2::new(4.6, 2.2)]
        .into_iter()
        .enumerate()
    {
        let data = sounder.sound(tag, &channels, &mut StdRng::seed_from_u64(k as u64));
        let fix = localizer.localize(&data).unwrap().position;
        for order in [[0, 3, 1, 2], [0, 2, 3, 1], [0, 3, 2, 1]] {
            let permuted = localizer
                .localize(&data.with_anchor_subset(&order))
                .unwrap()
                .position;
            assert!(
                fix.dist(permuted) <= 1e-9,
                "tag {tag}, slaves {order:?}: {fix} vs {permuted}"
            );
        }
    }
}

/// With no multipath and no noise, a tag on a cell centre puts every
/// term of anchor `i`'s coherent Eq. 17 sum in phase at its own cell, so
/// the map's value there is `Σ_jk |α^{f_k}_ij|` and no cell exceeds it —
/// for the range-profile kernel and the reference kernel alike.
#[test]
fn free_space_coherent_peak_is_the_sum_of_channel_magnitudes() {
    let room = Room::new(6.0, 5.0);
    let env = Environment::free_space();
    let (mids, walls) = (room.wall_midpoints(), room.walls());
    let anchors: Vec<AnchorArray> = (0..4)
        .map(|i| AnchorArray::centered(i, mids[i], walls[i].direction(), 4))
        .collect();
    let config = SounderConfig {
        csi_snr_db: f64::INFINITY,
        antenna_phase_err_std: 0.0,
        ..Default::default()
    };
    let sounder = Sounder::new(&env, &anchors, config);
    let spec = BlocConfig::for_room(&room).grid;
    for (k, (ix, iy)) in [(20, 30), (47, 18), (61, 52)].into_iter().enumerate() {
        let tag = spec.cell_center(ix, iy);
        let data = sounder.sound(
            tag,
            &all_data_channels(),
            &mut StdRng::seed_from_u64(k as u64),
        );
        let corrected = correct(&data, true).unwrap();
        let engine = LikelihoodEngine::default();
        let coherent = AntennaCombining::Coherent;
        for i in 0..corrected.n_anchors() {
            let sum: f64 = corrected
                .bands
                .iter()
                .flat_map(|b| b.alpha[i].iter())
                .map(|a| a.abs())
                .sum();
            for (name, map) in [
                (
                    "range profile",
                    engine.anchor_likelihood(&corrected, i, spec, coherent),
                ),
                (
                    "reference",
                    anchor_likelihood_reference(&corrected, i, spec, coherent),
                ),
            ] {
                let peak = map.get(ix, iy);
                assert!(
                    (peak - sum).abs() <= 1e-9 * sum,
                    "{name} tag {tag} anchor {i}: peak {peak} vs Σ|α| {sum}"
                );
                let (mx, my, _) = map.argmax().unwrap();
                assert_eq!(
                    (mx, my),
                    (ix, iy),
                    "{name} tag {tag} anchor {i}: the maximum is elsewhere"
                );
            }
        }
    }
}

#[test]
fn rigid_motion_moves_the_fix_with_the_scene() {
    // A 6 × 5 m room of concrete walls, anchors at the wall midpoints, and
    // a search grid with a 0.5 m margin, all built through `place`.
    let room = Room::new(6.0, 5.0);
    let tags = [P2::new(1.2, 1.1), P2::new(2.3, 3.1), P2::new(4.6, 2.2)];
    let fixes = |place: &dyn Fn(P2) -> P2, turn: &dyn Fn(P2) -> P2, grid: GridSpec| {
        let mut env = Environment::free_space();
        let mut rng = StdRng::seed_from_u64(11);
        for wall in room.walls() {
            let face = Segment::new(place(wall.a), place(wall.b));
            env.add_reflector(Reflector::new(face, Material::concrete(), &mut rng));
        }
        let (mids, walls) = (room.wall_midpoints(), room.walls());
        let anchors: Vec<AnchorArray> = (0..4)
            .map(|i| AnchorArray::centered(i, place(mids[i]), turn(walls[i].direction()), 4))
            .collect();
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut config = BlocConfig::for_room(&room);
        config.grid = grid;
        let localizer = BlocLocalizer::new(config);
        tags.iter()
            .enumerate()
            .map(|(k, &tag)| {
                let mut rng = StdRng::seed_from_u64(100 + k as u64);
                let data = sounder.sound(place(tag), &all_data_channels(), &mut rng);
                localizer.localize(&data).unwrap().position
            })
            .collect::<Vec<P2>>()
    };
    let grid = |origin: P2, extent: P2| GridSpec::covering(origin, extent, 0.08);
    let same = |p: P2| p;
    let base = fixes(&same, &same, grid(P2::new(-0.5, -0.5), P2::new(7.0, 6.0)));

    let quarter = |p: P2| P2::new(-p.y, p.x);
    let unturn = |p: P2| P2::new(p.y, -p.x);
    for shift in [P2::new(3.7, -2.1), P2::new(-41.3, 17.9)] {
        let moved = fixes(
            &|p: P2| p + shift,
            &same,
            grid(P2::new(-0.5, -0.5) + shift, P2::new(7.0, 6.0)),
        );
        for ((m, b), tag) in moved.iter().zip(&base).zip(&tags) {
            let back = *m - shift;
            assert!(
                back.dist(*b) <= 0.08,
                "shift {shift} tag {tag}: {back} vs {b}"
            );
        }
    }
    let turned = fixes(
        &quarter,
        &quarter,
        grid(P2::new(-5.5, -0.5), P2::new(6.0, 7.0)),
    );
    for ((t, b), tag) in turned.iter().zip(&base).zip(&tags) {
        let back = unturn(*t);
        assert!(
            back.dist(*b) <= 0.08,
            "quarter turn tag {tag}: {back} vs {b}"
        );
    }
}
