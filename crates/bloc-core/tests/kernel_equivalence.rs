//! Equivalence suite for the fast likelihood engine: every layer — range
//! profiles, SoA channel layout, cached steering geometry, windows and
//! sounding batches — must reproduce the naive reference implementation
//! to ≤ 1e-9 relative error on randomized soundings, including degraded
//! ones, and a window or batch must never change a cell's bits.

use std::sync::Arc;

use bloc_chan::geometry::Room;
use bloc_chan::materials::Material;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
use bloc_chan::{AnchorArray, AnchorDropout, Environment, FaultPlan};
use bloc_core::correction::{correct, CorrectedChannels};
use bloc_core::engine::{LikelihoodEngine, SoaChannels};
use bloc_core::likelihood::{
    anchor_likelihood_reference, joint_likelihood, joint_likelihood_reference, AntennaCombining,
};
use bloc_core::{BlocConfig, BlocLocalizer, HierarchicalConfig, HierarchicalLocalizer};
use bloc_num::sweep::PROFILE_TOLERANCE;
use bloc_num::{Grid2D, GridPatch, GridSpec, P2};
use rand::{rngs::StdRng, SeedableRng};

fn anchors(room: &Room) -> Vec<AnchorArray> {
    room.wall_midpoints()
        .iter()
        .zip(room.walls().iter())
        .enumerate()
        .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
        .collect()
}

/// A coarse grid keeps the whole battery fast while still covering
/// thousands of cells.
fn spec(room: &Room) -> GridSpec {
    GridSpec::covering(
        P2::new(-0.5, -0.5),
        P2::new(room.width + 1.0, room.height + 1.0),
        0.2,
    )
}

fn corrected_for(
    env: &Environment,
    tag: P2,
    seed: u64,
    faults: Option<FaultPlan>,
) -> CorrectedChannels {
    let room = Room::new(5.0, 6.0);
    let deployment = anchors(&room);
    let mut sounder = Sounder::new(env, &deployment, SounderConfig::default());
    if let Some(plan) = faults {
        sounder = sounder.with_faults(plan);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    correct(&sounder.sound(tag, &all_data_channels(), &mut rng), true)
        .expect("sounding must correct")
}

/// Asserts `a` and `b` agree per cell to ≤ `tol` relative to the larger
/// grid's peak (the ISSUE's equivalence budget).
fn assert_grids_close(a: &Grid2D, b: &Grid2D, tol: f64, what: &str) {
    assert_eq!(a.spec(), b.spec());
    let peak = a
        .data()
        .iter()
        .chain(b.data())
        .fold(0.0f64, |m, &v| m.max(v.abs()));
    let scale = peak.max(f64::MIN_POSITIVE);
    for (k, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
        let rel = (x - y).abs() / scale;
        assert!(
            rel <= tol,
            "{what}: cell {k} differs by {rel:.3e} rel (lhs {x}, rhs {y}, peak {peak})"
        );
    }
}

fn environments(seed: u64) -> Vec<(&'static str, Environment)> {
    let room = Room::new(5.0, 6.0);
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        ("free_space", Environment::free_space()),
        (
            "concrete_room",
            Environment::in_room(room)
                .with_walls(Material::concrete(), &mut rng)
                .unwrap(),
        ),
    ]
}

#[test]
fn recurrence_matches_reference_on_randomized_soundings() {
    let room = Room::new(5.0, 6.0);
    let spec = spec(&room);
    let engine = LikelihoodEngine::default();
    let tags = [P2::new(1.3, 1.8), P2::new(3.7, 4.4), P2::new(2.5, 0.6)];
    for (name, env) in environments(100) {
        for (t, &tag) in tags.iter().enumerate() {
            let corrected = corrected_for(&env, tag, 200 + t as u64, None);
            for combining in [
                AntennaCombining::Coherent,
                AntennaCombining::NoncoherentAntennas,
                AntennaCombining::Hybrid,
            ] {
                for i in 0..corrected.n_anchors() {
                    let fast = engine.anchor_likelihood(&corrected, i, spec, combining);
                    let reference = anchor_likelihood_reference(&corrected, i, spec, combining);
                    assert_grids_close(
                        &fast,
                        &reference,
                        1e-9,
                        &format!("{name} tag {tag} anchor {i} {combining:?}"),
                    );
                }
                let fast = engine.joint_likelihood(&corrected, spec, combining);
                let reference = joint_likelihood_reference(&corrected, spec, combining);
                assert_grids_close(
                    &fast,
                    &reference,
                    1e-9,
                    &format!("{name} tag {tag} joint {combining:?}"),
                );
            }
        }
    }
}

#[test]
fn recurrence_matches_reference_under_fault_degradation() {
    let room = Room::new(5.0, 6.0);
    let spec = spec(&room);
    let engine = LikelihoodEngine::default();
    let chans = all_data_channels();
    let plans = [
        FaultPlan {
            seed: 7,
            tag_loss: 0.35,
            master_loss: 0.1,
            ..Default::default()
        },
        FaultPlan {
            seed: 8,
            dropouts: vec![AnchorDropout {
                anchor: 2,
                bands: 0..chans.len(),
            }],
            dead_antennas: vec![(1, 0), (3, 2)],
            ..Default::default()
        },
        FaultPlan {
            seed: 9,
            tag_loss: 0.6,
            dead_antennas: vec![(0, 3)],
            dropouts: vec![AnchorDropout {
                anchor: 1,
                bands: 5..20,
            }],
            ..Default::default()
        },
    ];
    for (p, plan) in plans.into_iter().enumerate() {
        let corrected = corrected_for(
            &Environment::free_space(),
            P2::new(2.4, 3.1),
            300 + p as u64,
            Some(plan),
        );
        let fast = engine.joint_likelihood(&corrected, spec, AntennaCombining::default());
        let reference = joint_likelihood_reference(&corrected, spec, AntennaCombining::default());
        assert_grids_close(&fast, &reference, 1e-9, &format!("fault plan {p}"));
        // Masking dropped whole bands: the surviving sub-comb is planned
        // to the same remainder bound as the whole comb.
        let soa = SoaChannels::build(&corrected);
        assert!(
            soa.plan.remainder_bound() <= PROFILE_TOLERANCE * (1.0 + 1e-12),
            "surviving bands of plan {p} must keep the profile's error bound"
        );
    }
}

#[test]
fn thread_count_never_changes_the_result() {
    // Fixes fan out across worker threads on one engine (clones share the
    // steering cache, whose tiles the workers race to fill): any worker
    // count gives every sounding the bits it gets alone.
    let room = Room::new(5.0, 6.0);
    let spec = spec(&room);
    let env = environments(42).pop().expect("environments").1;
    let tags = [
        P2::new(3.1, 2.2),
        P2::new(1.4, 4.7),
        P2::new(2.6, 0.9),
        P2::new(4.2, 3.8),
    ];
    let soundings: Vec<CorrectedChannels> = (0..tags.len())
        .map(|k| corrected_for(&env, tags[k], 400 + k as u64, None))
        .collect();
    let joint = |engine: &LikelihoodEngine, k: usize| {
        let g = engine.joint_likelihood(&soundings[k], spec, AntennaCombining::default());
        g.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    let alone: Vec<_> = (0..tags.len())
        .map(|k| joint(&LikelihoodEngine::default(), k))
        .collect();
    for threads in [2, 4] {
        let engine = LikelihoodEngine::default();
        let fanned = bloc_num::par::map_named("test.fixes", tags.len(), threads, |k| {
            joint(&engine.clone(), k)
        });
        assert_eq!(
            fanned, alone,
            "{threads} worker threads changed cell values"
        );
    }
}

#[test]
fn public_free_functions_route_through_the_fast_path() {
    // `likelihood::joint_likelihood` is now the engine: it must stay
    // within the equivalence budget of the reference.
    let room = Room::new(5.0, 6.0);
    let spec = spec(&room);
    let corrected = corrected_for(&Environment::free_space(), P2::new(2.2, 2.9), 600, None);
    let fast = joint_likelihood(&corrected, spec, AntennaCombining::default());
    let reference = joint_likelihood_reference(&corrected, spec, AntennaCombining::default());
    assert_grids_close(&fast, &reference, 1e-9, "public joint_likelihood");
}

#[test]
fn off_comb_bands_still_match_reference() {
    let room = Room::new(5.0, 6.0);
    let spec = spec(&room);
    let mut corrected = corrected_for(&Environment::free_space(), P2::new(2.8, 1.7), 800, None);
    // Push one band half a channel off BLE's 2 MHz grid…
    corrected.bands[10].freq_hz += 1.0e6;
    let slot = (corrected.bands[10].freq_hz - 2.402e9) / 2.0e6;
    assert_ne!(slot, slot.round(), "band 10 must sit off the 2 MHz grid");
    // …and the range profile, which takes any band set, still matches
    // the reference.
    let fast =
        LikelihoodEngine::default().joint_likelihood(&corrected, spec, AntennaCombining::default());
    let reference = joint_likelihood_reference(&corrected, spec, AntennaCombining::default());
    assert_grids_close(&fast, &reference, 1e-9, "off-comb bands");
}

#[test]
fn localizer_clones_share_one_steering_cache() {
    let room = Room::new(5.0, 6.0);
    let corrected = corrected_for(&Environment::free_space(), P2::new(2.0, 2.0), 900, None);
    let engine = LikelihoodEngine::default();
    let clone = engine.clone();
    let spec = spec(&room);
    let _ = engine.joint_likelihood(&corrected, spec, AntennaCombining::default());
    let _ = clone.joint_likelihood(&corrected, spec, AntennaCombining::default());
    assert_eq!(
        engine.cache().len(),
        1,
        "clone must reuse the cached geometry"
    );
    let carrier = SoaChannels::build(&corrected).plan.carrier_hz;
    let a = engine.cache().tables(
        spec,
        &corrected.anchors,
        &corrected.master_anchor_dist,
        carrier,
    );
    let b = clone.cache().tables(
        spec,
        &corrected.anchors,
        &corrected.master_anchor_dist,
        carrier,
    );
    assert!(Arc::ptr_eq(&a, &b));
}

#[test]
fn simd_dispatch_paths_are_bit_identical_on_degraded_inputs() {
    // Every compiled kernel backend (scalar always, AVX2 and
    // AVX-512 when the host has them) must produce byte-for-byte
    // identical profiles and sweeps, not merely close ones — including on
    // FaultPlan-degraded alpha tensors whose dead antennas and dropped
    // bands exercise the zero-weight lanes. The backends share one
    // generic body over exact or IEEE correctly-rounded ops, so this is
    // exact, and `BLOC_NO_SIMD=1` (which forces the scalar level at
    // dispatch) can never change a result.
    use bloc_num::sweep::{
        self, CellRows, CellSweep, Combine, Lattice, ProfilePlan, ProfileWeights,
    };

    let levels = sweep::levels_to_test();
    let corrected = corrected_for(
        &Environment::free_space(),
        P2::new(2.4, 3.1),
        1100,
        Some(FaultPlan {
            seed: 13,
            tag_loss: 0.4,
            dead_antennas: vec![(0, 1), (2, 3)],
            dropouts: vec![AnchorDropout {
                anchor: 1,
                bands: 8..17,
            }],
            ..Default::default()
        }),
    );
    assert!(corrected.masking.bands_dropped > 0, "bands must be dropped");
    let freqs: Vec<f64> = corrected.bands.iter().map(|b| b.freq_hz).collect();
    let plan = ProfilePlan::build(&freqs);
    let n_cells = 64usize;
    const C: f64 = 299_792_458.0;
    for i in 0..corrected.n_anchors() {
        let nj = corrected.anchors[i].n_antennas;
        let nl = nj.div_ceil(4).max(1) * 4;
        let nb = freqs.len();
        // Synthetic but deterministic per-(cell, antenna) path deltas:
        // the kernel is the unit under test here, not the steering
        // geometry (the engine-level equivalence tests cover that).
        let mut delta = vec![0.0; n_cells * nl];
        let mut carrier_re = vec![1.0; n_cells * nl];
        let mut carrier_im = vec![0.0; n_cells * nl];
        for cell in 0..n_cells {
            for j in 0..nl {
                let d = 0.31 + 0.073 * cell as f64 + 0.0117 * j.min(nj - 1) as f64;
                let w = std::f64::consts::TAU * plan.carrier_hz * d / C;
                let k = cell * nl + j;
                (delta[k], carrier_re[k], carrier_im[k]) = (d, w.cos(), w.sin());
            }
        }
        // Degraded alpha tensor in band-major padded layout, straight
        // from the corrected sounding (dead lanes stay exactly zero).
        let mut alpha_re = vec![0.0; nb * nl];
        let mut alpha_im = vec![0.0; nb * nl];
        for (k, band) in corrected.bands.iter().enumerate() {
            for (j, &a) in band.alpha[i].iter().enumerate() {
                alpha_re[k * nl + j] = a.re;
                alpha_im[k * nl + j] = a.im;
            }
        }
        let weights = ProfileWeights {
            alpha_re: &alpha_re,
            alpha_im: &alpha_im,
            n_lanes: nl,
        };
        let lattice = Lattice::covering(plan.step_m, delta.iter().copied());
        let profile_at = |level| {
            let mut profile = vec![0.0; lattice.profile_len(nl)];
            sweep::build_profiles_at(level, &plan, &lattice, &[weights], &mut [&mut profile]);
            profile
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let profile = profile_at(levels[0]);
        let s = CellSweep {
            delta: &delta,
            carrier_re: &carrier_re,
            carrier_im: &carrier_im,
            n_lanes: nl,
            lattice,
            profile: &profile,
        };
        for &level in &levels[1..] {
            assert_eq!(
                bits(&profile_at(level)),
                bits(&profile),
                "anchor {i}: {level:?} profile"
            );
        }
        for combine in [Combine::Coherent, Combine::Noncoherent, Combine::Hybrid] {
            let mut baseline = vec![0.0; n_cells];
            sweep::write_profile_cells_batch_at(
                levels[0],
                &[s],
                combine,
                CellRows::run(0, n_cells),
                &mut [baseline.as_mut_slice()],
            );
            assert!(baseline.iter().all(|v| v.is_finite() && *v >= 0.0));
            for &level in &levels[1..] {
                let mut out = vec![0.0; n_cells];
                sweep::write_profile_cells_batch_at(
                    level,
                    &[s],
                    combine,
                    CellRows::run(0, n_cells),
                    &mut [out.as_mut_slice()],
                );
                assert_eq!(
                    bits(&baseline),
                    bits(&out),
                    "anchor {i} {combine:?}: {level:?} diverged from {:?}",
                    levels[0]
                );
            }
        }
    }
}

/// The window of `nx`×`ny` cells at parent cell `(x0, y0)` of `parent`,
/// laid out as [`GridSpec::patch`] lays its patches out.
fn window(parent: GridSpec, x0: usize, y0: usize, nx: usize, ny: usize) -> GridPatch {
    assert!(x0 + nx <= parent.nx && y0 + ny <= parent.ny);
    GridPatch {
        spec: GridSpec {
            origin: P2::new(
                parent.origin.x + x0 as f64 * parent.resolution,
                parent.origin.y + y0 as f64 * parent.resolution,
            ),
            nx,
            ny,
            ..parent
        },
        x0,
        y0,
    }
}

#[test]
fn patch_windows_equal_the_dense_map_cell_for_cell() {
    // Hierarchical patches are windows into the fine grid: every window
    // cell must carry the dense map's value for the same parent cell, bit
    // for bit. The 8 cm lattice from −0.5 m is the one
    // where a patch's own rounded origin moves some cell centres by an
    // ulp, so a patch evaluated on its own spec would not pass.
    let room = Room::new(5.0, 6.0);
    let config = BlocConfig::for_room(&room);
    let fine = config.grid;
    let (nx, ny) = (fine.nx, fine.ny);
    let hier =
        HierarchicalLocalizer::new(BlocLocalizer::new(config), HierarchicalConfig::default());
    let seeded_margin = config.score.entropy_radius_m
        + (config.score.peaks.dominance_radius + 1) as f64 * fine.resolution;
    let patches = [
        ("seeded", fine.patch(P2::new(2.2, 3.6), 1.0 + seeded_margin)),
        (
            "refine",
            fine.patch(P2::new(1.3, 1.8), hier.refine_half_extent_m()),
        ),
        ("last column", window(fine, nx - 1, 0, 1, ny)),
        ("last row", window(fine, 0, ny - 1, nx, 1)),
        ("last corner", window(fine, nx - 9, ny - 6, 9, 6)),
        ("one cell", window(fine, 37, 41, 1, 1)),
        ("odd width", window(fine, 5, 12, 13, 9)),
        ("odd width, odd start", window(fine, 22, 3, 31, 4)),
        // Rows 1..=2, 7..=8 and 15..=16 straddle the boundaries of
        // strips of any height that divides 16.
        ("strip boundary", window(fine, 10, 1, 17, 2)),
        ("strip boundary, 8", window(fine, 3, 7, 40, 2)),
        ("strip boundary, 16", window(fine, 30, 15, 45, 2)),
        // The corridor's coarse grid is 74×23 cells.
        ("corridor-shaped", window(fine, 1, 30, 74, 23)),
    ];
    let shifted = patches
        .iter()
        .flat_map(|(_, p)| (0..p.spec.nx).map(move |ix| (p, ix)))
        .filter(|(p, ix)| p.spec.cell_center(*ix, 0).x != fine.cell_center(ix + p.x0, 0).x)
        .count();
    assert!(shifted > 0, "the patches must include ulp-shifted centres");

    let corrected = corrected_for(&Environment::free_space(), P2::new(2.2, 3.6), 1100, None);
    let combining = AntennaCombining::default();
    let engine = LikelihoodEngine::default();
    let dense = engine.anchor_maps(&corrected, fine, &GridPatch::whole(fine), combining);
    assert_eq!(dense.len(), corrected.n_anchors());
    for (name, patch) in &patches {
        let windowed = engine.anchor_maps(&corrected, fine, patch, combining);
        assert_eq!(windowed.len(), dense.len());
        for ((i, win), (j, full)) in windowed.iter().zip(&dense) {
            assert_eq!(i, j);
            assert_eq!(win.spec(), patch.spec);
            assert!(
                win == &full.extract(patch),
                "{name} patch, anchor {i}: windowed map differs from the dense cells"
            );
        }
    }

    // The same windows through the bare kernel on every vector level
    // this host runs: the window's rows of the whole grid's tables, at
    // the grid's row stride and over the window's own lattice, equal the
    // dense sweep's cells on that level.
    use bloc_num::sweep::{
        self, CellRows, CellSweep, Combine, Lattice, ProfilePlan, ProfileWeights,
    };
    let freqs: Vec<f64> = corrected.bands.iter().map(|b| b.freq_hz).collect();
    let plan = ProfilePlan::build(&freqs);
    let geometry = bloc_core::engine::SteeringTables::empty(
        fine,
        &corrected.anchors,
        &corrected.master_anchor_dist,
        plan.carrier_hz,
    );
    let phase_per_m = std::f64::consts::TAU / 299_792_458.0 * plan.carrier_hz;
    for i in 0..corrected.n_anchors() {
        let nl = corrected.anchors[i].n_antennas.div_ceil(4) * 4;
        let [mut delta, mut cre, mut cim] = [0.0, 1.0, 0.0].map(|v| vec![v; fine.len() * nl]);
        for cell in 0..fine.len() {
            let ds = geometry.cell_deltas(i, cell);
            for j in 0..nl {
                let d = ds[j.min(ds.len() - 1)];
                let c = bloc_num::C64::cis(phase_per_m * d);
                (delta[cell * nl + j], cre[cell * nl + j], cim[cell * nl + j]) = (d, c.re, c.im);
            }
        }
        let (mut alpha_re, mut alpha_im) =
            (vec![0.0; freqs.len() * nl], vec![0.0; freqs.len() * nl]);
        for (k, band) in corrected.bands.iter().enumerate() {
            for (j, a) in band.alpha[i].iter().enumerate() {
                (alpha_re[k * nl + j], alpha_im[k * nl + j]) = (a.re, a.im);
            }
        }
        let weights = ProfileWeights {
            alpha_re: &alpha_re,
            alpha_im: &alpha_im,
            n_lanes: nl,
        };
        // Anchor `i`'s map over `patch` on `level`, from its own lattice.
        let sweep_at = |level, patch: &GridPatch| {
            let lattice = Lattice::covering(
                plan.step_m,
                (0..patch.spec.ny).flat_map(|r| {
                    let first = (patch.y0 + r) * nx + patch.x0;
                    delta[first * nl..(first + patch.spec.nx) * nl]
                        .iter()
                        .copied()
                }),
            );
            let mut profile = vec![0.0; lattice.profile_len(nl)];
            sweep::build_profiles_at(level, &plan, &lattice, &[weights], &mut [&mut profile]);
            let tag = CellSweep {
                delta: &delta,
                carrier_re: &cre,
                carrier_im: &cim,
                n_lanes: nl,
                lattice,
                profile: &profile,
            };
            let rows = CellRows {
                first_cell: patch.y0 * nx + patch.x0,
                width: patch.spec.nx,
                stride: nx,
            };
            let mut out = vec![0.0; patch.spec.len()];
            sweep::write_profile_cells_batch_at(
                level,
                &[tag],
                Combine::Hybrid,
                rows,
                &mut [&mut out],
            );
            out
        };
        for level in sweep::levels_to_test() {
            let mut full = Grid2D::zeros(fine);
            full.data_mut()
                .copy_from_slice(&sweep_at(level, &GridPatch::whole(fine)));
            for (name, patch) in &patches {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&sweep_at(level, patch)),
                    bits(full.extract(patch).data()),
                    "{name} window, anchor {i}, {level:?}"
                );
            }
        }
    }
}

#[test]
fn batched_soundings_equal_their_own_joints_bit_for_bit() {
    // One batch mixing a clean sounding, one whose master missed whole
    // bands (another comb walk), one with an excluded anchor (another
    // alive set), a duplicate of the clean one, and enough further clean
    // soundings to overflow one kernel batch: however the engine groups
    // them, every joint and raw map must be the sounding's own.
    let room = Room::new(5.0, 6.0);
    let spec = spec(&room);
    let chans = all_data_channels();
    let envs = environments(1300);
    let env = &envs[1].1;
    let clean = corrected_for(env, P2::new(2.4, 3.1), 1301, None);
    let dropped = corrected_for(
        env,
        P2::new(1.1, 4.2),
        1302,
        Some(FaultPlan {
            seed: 13,
            tag_loss: 0.35,
            ..Default::default()
        }),
    );
    assert!(dropped.masking.bands_dropped > 0, "bands must be dropped");
    let excluded = corrected_for(
        env,
        P2::new(3.3, 1.7),
        1303,
        Some(FaultPlan {
            seed: 14,
            dropouts: vec![AnchorDropout {
                anchor: 2,
                bands: 0..chans.len(),
            }],
            ..Default::default()
        }),
    );
    assert_eq!(excluded.surviving[2], 0, "anchor 2 must be excluded");
    let more: Vec<CorrectedChannels> = (0..5)
        .map(|k| corrected_for(env, P2::new(0.6 + 0.9 * k as f64, 2.2), 1310 + k, None))
        .collect();
    let batch: Vec<&CorrectedChannels> = [&clean, &dropped, &excluded, &clean]
        .into_iter()
        .chain(&more)
        .collect();
    let combining = AntennaCombining::default();
    let bits = |g: &Grid2D| g.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let patch = spec.patch(P2::new(2.0, 2.5), 1.3);
    let engine = LikelihoodEngine::default();
    let out = engine.likelihood_batch(&batch, spec, &GridPatch::whole(spec), combining, true);
    assert_eq!(out.len(), batch.len());
    for (k, (corrected, maps)) in batch.iter().zip(&out).enumerate() {
        let alone = joint_likelihood(corrected, spec, combining);
        assert_eq!(bits(&maps.joint), bits(&alone), "joint {k}");
        let own = engine.anchor_maps(corrected, spec, &GridPatch::whole(spec), combining);
        assert_eq!(maps.anchor_maps.len(), own.len(), "maps {k}");
        for ((i, got), (j, want)) in maps.anchor_maps.iter().zip(&own) {
            assert_eq!(i, j);
            assert_eq!(bits(got), bits(want), "sounding {k} anchor {i}");
        }
    }
    // A window batches the same way, and joints only keep no maps.
    let windowed = engine.likelihood_batch(&batch, spec, &patch, combining, false);
    for (k, (corrected, maps)) in batch.iter().zip(&windowed).enumerate() {
        let alone = engine.likelihood_batch(&[*corrected], spec, &patch, combining, false);
        let alone = &alone[0].joint;
        assert_eq!(bits(&maps.joint), bits(alone), "window joint {k}");
        assert!(maps.anchor_maps.is_empty());
    }
}
