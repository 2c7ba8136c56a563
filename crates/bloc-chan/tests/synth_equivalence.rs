//! Equivalence gates for the fast channel-synthesis engine (DESIGN.md §10).
//!
//! Three families, mirroring the kernel-equivalence suite of `bloc-core`:
//!
//! 1. **Fast vs reference synthesis** — the comb-sweep phasor recurrence
//!    ([`bloc_chan::PathSet::sweep_tones_with`]) and the cached per-band path
//!    ([`bloc_chan::PathSet::channel_at`]) must match the reference
//!    [`bloc_chan::Environment::channel`] to ≤ 1e-12 relative error on
//!    randomized rooms — walls on/off, obstructions on/off.
//! 2. **Fault composition** — a [`FaultPlan`]-degraded fast sounding's
//!    census must be byte-identical to the reference engine's census and
//!    to the plan's data-free replay, with masked entries exactly zero.
//! 3. **Parallel determinism** — `sound()` must be bit-identical across
//!    worker-thread counts (soundings fanned out on one shared sounder)
//!    and across cold/warm path caches.

use bloc_chan::environment::Obstruction;
use bloc_chan::geometry::{Room, Segment};
use bloc_chan::materials::Material;
use bloc_chan::reflector::Reflector;
use bloc_chan::sounder::{all_data_channels, SounderConfig, TONE_OFFSET_HZ};
use bloc_chan::{AnchorArray, Environment, FaultPlan, FreqComb, InterferenceBurst, Sounder};
use bloc_num::sweep::ToneSweepScratch;
use bloc_num::{C64, P2};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Builds a randomized room from `seed`: random dimensions, 1–3 random
/// free-standing reflectors of random materials, optional obstruction,
/// optional walls.
fn random_room(seed: u64) -> Environment {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = 4.0 + rng.gen::<f64>() * 4.0;
    let h = 4.0 + rng.gen::<f64>() * 4.0;
    let mut env = Environment::in_room(Room::new(w, h));

    if seed.is_multiple_of(2) {
        let mat =
            [Material::concrete(), Material::drywall(), Material::glass()][(seed % 3) as usize];
        env = env.with_walls(mat, &mut rng).unwrap();
    }
    let n_extra = 1 + (seed % 3) as usize;
    for _ in 0..n_extra {
        let a = P2::new(
            0.5 + rng.gen::<f64>() * (w - 1.0),
            0.5 + rng.gen::<f64>() * (h - 1.0),
        );
        let b = P2::new(
            (a.x + 0.3 + rng.gen::<f64>()).min(w - 0.1),
            (a.y + 0.3 + rng.gen::<f64>()).min(h - 0.1),
        );
        let mat = if rng.gen::<f64>() < 0.5 {
            Material::metal()
        } else {
            Material::drywall()
        };
        env.add_reflector(Reflector::new(Segment::new(a, b), mat, &mut rng));
    }
    if seed.is_multiple_of(3) {
        env.add_obstruction(Obstruction {
            blocker: Segment::new(P2::new(w * 0.4, 0.2), P2::new(w * 0.4, h - 0.2)),
            loss_db: 6.0 + rng.gen::<f64>() * 10.0,
        });
    }
    env
}

fn anchors_for(env: &Environment) -> Vec<AnchorArray> {
    let room = env.room.unwrap();
    let mids = room.wall_midpoints();
    let walls = room.walls();
    (0..4)
        .map(|i| AnchorArray::centered(i, mids[i], walls[i].direction(), 4))
        .collect()
}

/// Relative error of `got` vs `want`, normalized by the largest reference
/// magnitude over the sweep (deep fades make naive per-band relative
/// error meaningless).
fn rel_err(got: C64, want: C64, scale: f64) -> f64 {
    (got - want).abs() / scale.max(1e-30)
}

#[test]
fn fast_synthesis_matches_reference_on_randomized_rooms() {
    let channels = all_data_channels();
    let comb = FreqComb::for_channels(&channels);
    assert!(
        comb.plan().is_uniform_comb(),
        "the 37 data channels form a 2 MHz comb"
    );

    for seed in 0..10u64 {
        let env = random_room(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let room = env.room.unwrap();
        let tx = P2::new(
            0.5 + rng.gen::<f64>() * (room.width - 1.0),
            0.5 + rng.gen::<f64>() * (room.height - 1.0),
        );
        let rx = P2::new(
            0.5 + rng.gen::<f64>() * (room.width - 1.0),
            0.5 + rng.gen::<f64>() * (room.height - 1.0),
        );

        let mut set = bloc_chan::PathSet::new();
        env.path_set_into(tx, rx, &mut set);
        assert!(set.len() <= env.path_capacity(), "capacity hint is exact");

        let mut out = vec![[bloc_num::complex::ZERO; 2]; channels.len()];
        set.sweep_tones_with(&comb, &mut ToneSweepScratch::new(), &mut out);

        // Scale: the largest reference tone magnitude over the sweep.
        let mut scale = 0.0f64;
        let mut reference = Vec::with_capacity(channels.len());
        for &ch in &channels {
            let f = ch.freq_hz();
            let lo = env.channel(tx, rx, f - TONE_OFFSET_HZ);
            let hi = env.channel(tx, rx, f + TONE_OFFSET_HZ);
            scale = scale.max(lo.abs()).max(hi.abs());
            reference.push([lo, hi]);
        }

        for (slot, (&got, want)) in out.iter().zip(&reference).enumerate() {
            for (tone, (&g, &w)) in got.iter().zip(want).enumerate() {
                let e = rel_err(g, w, scale);
                assert!(
                    e <= 1e-12,
                    "room {seed} slot {slot} tone {tone}: rel err {e:.3e}"
                );
            }
        }

        // The per-band cached path agrees with the reference too, at an
        // arbitrary off-comb frequency.
        let f = 2.441e9 + 137.0;
        let e = rel_err(set.channel_at(f), env.channel(tx, rx, f), scale);
        assert!(e <= 1e-12, "room {seed} channel_at: rel err {e:.3e}");
    }
}

#[test]
fn ideal_fast_sounding_matches_direct_channel_queries() {
    // With zero offsets/CFO, no calibration error and vanishing noise the
    // fast engine's per-tone measurements are the physical channels.
    let env = random_room(2);
    let anchors = anchors_for(&env);
    let config = SounderConfig {
        csi_snr_db: 300.0,
        antenna_phase_err_std: 0.0,
        ..SounderConfig::default()
    };
    let sounder = Sounder::new(&env, &anchors, config);
    let channels = all_data_channels();
    let tag = P2::new(2.0, 3.1);
    let mut rng = StdRng::seed_from_u64(5);
    let data = sounder.sound_ideal(tag, &channels, &mut rng);

    let mut scale = 0.0f64;
    for band in &data.bands {
        for row in &band.tag_to_anchor_tones {
            for t in row {
                scale = scale.max(t[0].abs()).max(t[1].abs());
            }
        }
    }
    for band in &data.bands {
        let f = band.freq_hz;
        for (i, anchor) in anchors.iter().enumerate() {
            for j in 0..anchor.n_antennas {
                let want = [
                    env.channel(tag, anchor.antenna(j), f - TONE_OFFSET_HZ),
                    env.channel(tag, anchor.antenna(j), f + TONE_OFFSET_HZ),
                ];
                let got = band.tag_to_anchor_tones[i][j];
                for (tone, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    let e = rel_err(g, w, scale);
                    assert!(e <= 1e-12, "anchor {i} antenna {j} tone {tone}: {e:.3e}");
                }
            }
        }
    }
}

fn degraded_plan() -> FaultPlan {
    FaultPlan {
        tag_loss: 0.25,
        master_loss: 0.15,
        dead_antennas: vec![(2, 1)],
        interference: vec![InterferenceBurst {
            freq_lo: 10,
            freq_hi: 20,
            noise_rel: 1.0,
        }],
        ..FaultPlan::default()
    }
    .with_seed(0xFA57)
}

#[test]
fn degraded_census_is_byte_identical_across_engines_and_replay() {
    let env = random_room(1);
    let anchors = anchors_for(&env);
    let plan = degraded_plan();
    let sounder = Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan.clone());
    let channels = all_data_channels();
    let tag = P2::new(1.5, 2.5);

    let mut rng = StdRng::seed_from_u64(11);
    let (fast, fast_census) = sounder.sound_censused(tag, &channels, &mut rng);
    let mut rng = StdRng::seed_from_u64(11);
    let (_, reference_census) = sounder.sound_censused_reference(tag, &channels, &mut rng);

    // The census is value-independent: fast, reference and the data-free
    // replay all agree exactly.
    assert_eq!(fast_census, reference_census);
    assert_eq!(fast_census, plan.census(&channels, &anchors));
    assert!(fast_census.holes() > 0, "the plan must actually degrade");
    assert!(fast_census.interfered > 0);

    // Every hole the replay predicts is an exact zero in the fast data.
    let mut holes = 0usize;
    for band in &fast.bands {
        for row in &band.tag_to_anchor {
            holes += row
                .iter()
                .filter(|h| **h == bloc_num::complex::ZERO)
                .count();
        }
        holes += band
            .master_to_anchor
            .iter()
            .skip(1)
            .filter(|h| **h == bloc_num::complex::ZERO)
            .count();
    }
    assert_eq!(holes, fast_census.holes());
}

#[test]
fn parallel_sounding_is_bit_identical_across_thread_counts() {
    // Soundings fan out across worker threads on one shared sounder (and
    // so one path cache): any worker count gives every sounding the bits
    // a fresh sounder gives it alone.
    let env = random_room(4);
    let anchors = anchors_for(&env);
    let plan = degraded_plan();
    let channels = all_data_channels();
    let tags = [P2::new(2.2, 1.8), P2::new(1.1, 2.6), P2::new(3.0, 0.9)];
    let sound_at = |sounder: &Sounder, k: usize| {
        let mut rng = StdRng::seed_from_u64(42 + k as u64);
        sounder.sound(tags[k], &channels, &mut rng)
    };
    let sounder =
        || Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan.clone());
    let alone: Vec<_> = (0..tags.len()).map(|k| sound_at(&sounder(), k)).collect();
    for threads in [2, 4] {
        let shared = sounder();
        let fanned = bloc_num::par::map_named("test.soundings", tags.len(), threads, |k| {
            sound_at(&shared, k)
        });
        assert_eq!(fanned, alone, "{threads} worker threads changed a sounding");
        // Spot-check true bit-identity (PartialEq on f64 admits 0.0 == -0.0).
        let a = alone[0].bands[17].tag_to_anchor_tones[1][2][1];
        let b = fanned[0].bands[17].tag_to_anchor_tones[1][2][1];
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }
}

#[test]
fn warm_cache_reuse_is_bit_identical_to_cold() {
    let env = random_room(6);
    let anchors = anchors_for(&env);
    let channels = all_data_channels();
    let tag = P2::new(2.0, 2.0);

    let cold = {
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        sounder.sound(tag, &channels, &mut rng)
    };
    // One sounder, two soundings: the second reuses every cached PathSet.
    let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(3);
    let first = sounder.sound(tag, &channels, &mut rng);
    assert!(
        !sounder.path_cache().is_empty(),
        "the sweep must populate the cache"
    );
    let mut rng = StdRng::seed_from_u64(3);
    let warm = sounder.sound(tag, &channels, &mut rng);

    assert_eq!(cold, first);
    assert_eq!(first, warm, "warm-cache soundings must be bit-identical");
}
