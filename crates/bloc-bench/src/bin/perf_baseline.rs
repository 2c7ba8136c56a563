//! The performance baseline: verifies the fast likelihood engine and the
//! fast channel-synthesis engine against their naive references, times
//! every configuration at the default testbed problem in one process, and
//! gates the ratios between those timings.
//!
//! ```text
//! cargo run --release -p bloc-bench --bin perf_baseline [iters] [--hier-only] [--trace]
//! ```
//!
//! With `--trace` the run also records span and executor-shard edges
//! into the bounded trace ring and exports
//! `target/reports/perf_baseline-trace.json` — Chrome trace-event JSON,
//! loadable in Perfetto — showing each timed stage and the hierarchical
//! section's localize spans on one timeline.
//!
//! No gate here reads an absolute wall time: how fast the host is is the
//! repository benchmark's question (`BENCHMARK.json`). Exit status is
//! nonzero when a floor fails: fast/reference equivalence and bit-identity
//! of every SIMD level and of the tag batch (always), nonzero throughput
//! (always), and — on release builds only, debug timings are
//! meaningless — the same-process speedup floors: ≥ 5× over the
//! reference likelihood, ≥ 4× over the reference sounder, ≥ 1.1× for
//! a batch of [`sweep::MAX_TAGS`] tags over sweeping them one at a time,
//! and the bare kernel's least share of the warm engine's time over the
//! same window ([`WINDOW_SHARE_FLOORS`]).
//! Every row runs on one thread, as a fix does. The closing line names
//! every floor it skipped.
//!
//! The bare cell kernel is timed at every SIMD level the host executes
//! (each run's output must equal the scalar level's bit for bit); a level
//! the host lacks is printed as skipped. The rates are for reading: which
//! level the kernel dispatches to is pinned by `bloc_num::simd`'s unit
//! tests, not by a timing.
//!
//! The hierarchical section (`--hier-only` runs it alone) is a pure count
//! and equality verdict; see [`hierarchical_baseline`].

use std::time::Instant;

use bloc_chan::sounder::{all_data_channels, SounderConfig, TONE_OFFSET_HZ};
use bloc_core::correction::{correct, CorrectedChannels};
use bloc_core::engine::{LikelihoodEngine, SteeringTables};
use bloc_core::likelihood::{joint_likelihood_reference, AntennaCombining};
use bloc_core::localizer::BlocLocalizer;
use bloc_core::{HierarchicalConfig, HierarchicalLocalizer};
use bloc_num::simd::{SimdLevel, LEVEL_LABELS};
use bloc_num::sweep::{self, CellRows, CellSweep, Combine, Lattice, ProfilePlan, ProfileWeights};
use bloc_num::{GridPatch, GridSpec, C64, P2};
use bloc_testbed::scenario::Scenario;
use rand::{rngs::StdRng, SeedableRng};

/// Least speedup of a [`sweep::MAX_TAGS`]-tag batched kernel call
/// (profile builds and cell sweep) over sweeping the same tags one at a
/// time: a batch shares each cell's lattice index, Hermite weights and
/// carrier, and the phasor matrix. Measured 1.31–1.32× on AVX-512,
/// best of 15; the floor keeps the same one-sixth margin below it.
const TAG_BATCH_FLOOR: f64 = 1.1;

/// Least share of the warm engine's time over a window that the bare
/// kernel (profile build and cell sweep, same cells, contiguous tables)
/// takes, for the dense paper room and for a 79×79 corridor patch: what
/// is left is the engine's per-window work (steering lookup, lattice,
/// strided strip sweeps, weighted joint). Measured 0.88–0.93 (dense) and
/// 0.69–0.75 (corridor patch) on AVX-512 over six runs of best of 15 on
/// a shared 2-vCPU host; each floor keeps the tag-batch floor's
/// one-sixth margin below the lowest.
const WINDOW_SHARE_FLOORS: [f64; 2] = [0.73, 0.57];

/// Best-of-N wall time of one call, seconds.
fn time_best(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The bare Eq. 17 cell kernel's inputs over every cell of a grid window
/// for every anchor, laid out contiguously: per anchor, the lane stride,
/// the `Δ` and carrier tables of the deployment's steering geometry, the
/// lattice bracketing the window's `Δ`, and every tag's channel weights.
struct KernelBench {
    cells: usize,
    plan: ProfilePlan,
    anchors: Vec<AnchorBench>,
}

/// One anchor's kernel inputs.
struct AnchorBench {
    n_lanes: usize,
    /// `Δ`, carrier re, carrier im.
    tables: [Vec<f64>; 3],
    lattice: Lattice,
    /// Per tag: α re/im.
    weights: Vec<[Vec<f64>; 2]>,
}

impl KernelBench {
    /// Inputs for `tags`, soundings of one deployment on one band set,
    /// over `window` of `spec`.
    fn build(tags: &[CorrectedChannels], spec: GridSpec, window: &GridPatch) -> Self {
        let corrected = &tags[0];
        let freqs: Vec<f64> = corrected.bands.iter().map(|b| b.freq_hz).collect();
        let plan = ProfilePlan::build(&freqs);
        // `cell_deltas` computes from the geometry: no tile need fill.
        let geometry = SteeringTables::empty(
            spec,
            &corrected.anchors,
            &corrected.master_anchor_dist,
            plan.carrier_hz,
        );
        let cells = window.spec.len();
        let phase = std::f64::consts::TAU / bloc_num::constants::SPEED_OF_LIGHT;
        let anchors = (0..corrected.n_anchors())
            .map(|i| {
                let nl = corrected.anchors[i].n_antennas.div_ceil(4) * 4;
                let [mut delta, mut cre, mut cim] = [0.0, 1.0, 0.0].map(|v| vec![v; cells * nl]);
                for cell in 0..cells {
                    let (ix, iy) = (cell % window.spec.nx, cell / window.spec.nx);
                    let ds = geometry.cell_deltas(i, spec.flat(window.x0 + ix, window.y0 + iy));
                    for j in 0..nl {
                        // Padding lanes copy antenna 0, as the engine's do.
                        let d = ds[if j < ds.len() { j } else { 0 }];
                        let c = C64::cis(phase * d * plan.carrier_hz);
                        let k = cell * nl + j;
                        (delta[k], cre[k], cim[k]) = (d, c.re, c.im);
                    }
                }
                let lattice = Lattice::covering(plan.step_m, delta.iter().copied());
                let weights = tags
                    .iter()
                    .map(|tag| {
                        let freqs: Vec<f64> = tag.bands.iter().map(|b| b.freq_hz).collect();
                        assert_eq!(ProfilePlan::build(&freqs), plan, "tags share one band set");
                        let (mut are, mut aim) =
                            (vec![0.0; freqs.len() * nl], vec![0.0; freqs.len() * nl]);
                        for (k, band) in tag.bands.iter().enumerate() {
                            for (j, a) in band.alpha[i].iter().enumerate() {
                                (are[k * nl + j], aim[k * nl + j]) = (a.re, a.im);
                            }
                        }
                        [are, aim]
                    })
                    .collect();
                AnchorBench {
                    n_lanes: nl,
                    tables: [delta, cre, cim],
                    lattice,
                    weights,
                }
            })
            .collect();
        Self {
            cells,
            plan,
            anchors,
        }
    }

    /// Anchor `a`'s map for each of `tags` on `level` — what one
    /// sounding batch costs: the tags' profiles, then the cell sweep —
    /// into `outs` (one per tag).
    fn run(&self, level: SimdLevel, a: usize, tags: &[usize], outs: &mut [&mut [f64]]) {
        let bench = &self.anchors[a];
        let len = bench.lattice.profile_len(bench.n_lanes);
        let mut profiles = vec![0.0; tags.len() * len];
        let weights: Vec<ProfileWeights<'_>> = tags
            .iter()
            .map(|&t| {
                let [are, aim] = &bench.weights[t];
                ProfileWeights {
                    alpha_re: are,
                    alpha_im: aim,
                    n_lanes: bench.n_lanes,
                }
            })
            .collect();
        let mut views: Vec<&mut [f64]> = profiles.chunks_mut(len).collect();
        sweep::build_profiles_at(level, &self.plan, &bench.lattice, &weights, &mut views);
        let [delta, cre, cim] = &bench.tables;
        let sweeps: Vec<CellSweep<'_>> = profiles
            .chunks(len)
            .map(|profile| CellSweep {
                delta,
                carrier_re: cre,
                carrier_im: cim,
                n_lanes: bench.n_lanes,
                lattice: bench.lattice,
                profile,
            })
            .collect();
        let rows = CellRows::run(0, self.cells);
        sweep::write_profile_cells_batch_at(level, &sweeps, Combine::Hybrid, rows, outs);
    }

    /// One output buffer per anchor.
    fn outputs(&self) -> Vec<Vec<f64>> {
        vec![vec![0.0; self.cells]; self.anchors.len()]
    }
}

/// Best-of-`iters` warm single-thread time of the bare Eq. 17 cell kernel
/// (profile build and cell sweep) on tag 0 at each level the host
/// executes. Also reports whether every level's output equals the scalar
/// level's bit for bit.
fn kernel_level_rows(bench: &KernelBench, iters: usize) -> (Vec<(SimdLevel, f64)>, bool) {
    let run = |level: SimdLevel, out: &mut [Vec<f64>]| {
        for (a, out) in out.iter_mut().enumerate() {
            bench.run(level, a, &[0], &mut [out]);
        }
    };
    let levels = sweep::levels_to_test();
    let mut scalar = bench.outputs();
    run(levels[0], &mut scalar);
    let mut identical = true;
    let rows = levels
        .iter()
        .map(|&level| {
            let mut out = bench.outputs();
            run(level, &mut out);
            identical &= out
                .iter()
                .flatten()
                .zip(scalar.iter().flatten())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            let _span = bloc_obs::span("perf.kernel_level");
            (level, time_best(iters, || run(level, &mut out)))
        })
        .collect();
    (rows, identical)
}

/// The tag-batch row: best-of-`iters` times of the dispatched cell kernel
/// sweeping every tag of `bench` one at a time, and all of them in one
/// batched call, interleaved so host drift hits both alike. Also reports
/// whether every tag's batched output equals its single-tag output bit
/// for bit.
fn tag_batch_row(bench: &KernelBench, iters: usize) -> (f64, f64, bool) {
    let level = bloc_num::simd::cell_level();
    let n_tags = bench.anchors[0].weights.len();
    let mut single = vec![bench.outputs(); n_tags];
    let mut batched = vec![bench.outputs(); n_tags];
    let (mut t_single, mut t_batch) = (f64::INFINITY, f64::INFINITY);
    let _span = bloc_obs::span("perf.tag_batch");
    let all: Vec<usize> = (0..n_tags).collect();
    for _ in 0..iters.max(1) {
        t_single = t_single.min(time_best(1, || {
            for (t, outs) in single.iter_mut().enumerate() {
                for (a, out) in outs.iter_mut().enumerate() {
                    bench.run(level, a, &[t], &mut [out]);
                }
            }
        }));
        t_batch = t_batch.min(time_best(1, || {
            for a in 0..bench.anchors.len() {
                let mut outs: Vec<&mut [f64]> =
                    batched.iter_mut().map(|o| o[a].as_mut_slice()).collect();
                bench.run(level, a, &all, &mut outs);
            }
        }));
    }
    let identical = single
        .iter()
        .flatten()
        .flatten()
        .zip(batched.iter().flatten().flatten())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    (t_single, t_batch, identical)
}

/// The window-overhead row: best-of-`iters` times of the warm engine
/// over `window` of `spec` (one sounding: every anchor's map and the
/// weighted joint, Hybrid combining) and of the bare kernel — profile
/// build and cell sweep at `simd::cell_level`, contiguous tables — over
/// the same cells, interleaved so host drift hits both alike. Returns
/// `(engine, bare)` seconds.
fn window_overhead_row(
    corrected: &CorrectedChannels,
    spec: GridSpec,
    window: &GridPatch,
    iters: usize,
) -> (f64, f64) {
    let bench = KernelBench::build(std::slice::from_ref(corrected), spec, window);
    let level = bloc_num::simd::cell_level();
    let mut outs = bench.outputs();
    let engine = LikelihoodEngine::default();
    let sweep_window = || {
        let maps =
            engine.likelihood_batch(&[corrected], spec, window, AntennaCombining::Hybrid, false);
        std::hint::black_box(maps);
    };
    sweep_window();
    let _span = bloc_obs::span("perf.window_overhead");
    let (mut t_engine, mut t_bare) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..iters.max(1) {
        t_engine = t_engine.min(time_best(1, sweep_window));
        t_bare = t_bare.min(time_best(1, || {
            for (a, out) in outs.iter_mut().enumerate() {
                bench.run(level, a, &[0], &mut [out]);
            }
        }));
    }
    (t_engine, t_bare)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iters: usize = args.iter().find_map(|s| s.parse().ok()).unwrap_or(5);
    // `--hier-only`: just the hierarchical coarse-to-fine gates. The
    // scalar-dispatch leg in scripts/check.sh uses this — the cell-eval
    // reduction, parity and bit-identity verdicts are kernel-independent,
    // so the cheap leg re-proves them through the portable sweep without
    // re-timing everything else.
    if args.iter().any(|a| a == "--hier-only") {
        bloc_bench::maybe_start_trace();
        let obs_before = bloc_obs::Registry::global().snapshot();
        let failed = hierarchical_baseline();
        bloc_bench::emit_run_report("perf_baseline-hier", &obs_before);
        bloc_bench::maybe_finish_trace("perf_baseline-hier");
        if failed {
            std::process::exit(1);
        }
        println!("all hierarchical floors passed");
        return;
    }
    // The likelihood rows run the cell kernel's level, the sounding rows
    // the 4-lane level its tone kernel runs.
    let simd_level = bloc_num::simd::active_level().label();
    let cell_simd_level = bloc_num::simd::cell_level().label();
    println!(
        "=== Likelihood engine perf baseline (best of {iters}, simd {simd_level}, cell kernel {cell_simd_level}) ==="
    );
    bloc_bench::maybe_start_trace();
    let obs_before = bloc_obs::Registry::global().snapshot();

    // The default testbed deployment: paper room, 4×4 anchors, 37 bands,
    // 8 cm grid.
    let scenario = Scenario::paper_testbed(2018);
    let sounder = scenario.sounder(SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(3);
    let tag = P2::new(2.1, 3.2);
    let data = sounder.sound(tag, &all_data_channels(), &mut rng);
    let corrected = correct(&data, true).expect("clean testbed sounding");
    let spec = scenario.bloc_config().grid;
    let combining = AntennaCombining::Hybrid;
    let cells = spec.nx * spec.ny;
    let n_anchors = corrected.n_anchors();
    let n_bands = corrected.bands.len();
    let cell_evals = (cells * n_anchors) as f64;
    println!(
        "grid {}x{} = {cells} cells · {n_anchors} anchors · {n_bands} bands",
        spec.nx, spec.ny
    );

    // -- Equivalence gate: the fast engine must reproduce the naive
    // reference before any of its timings mean anything.
    let reference_grid = joint_likelihood_reference(&corrected, spec, combining);
    let fast_grid = LikelihoodEngine::default().joint_likelihood(&corrected, spec, combining);
    let peak = reference_grid
        .data()
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    let max_rel_err = reference_grid
        .data()
        .iter()
        .zip(fast_grid.data())
        .fold(0.0f64, |m, (&a, &b)| m.max((a - b).abs() / peak));
    let tol = 1e-9;
    let equivalent = max_rel_err <= tol;
    println!(
        "equivalence: max rel err {max_rel_err:.3e} (tol {tol:.0e}) → {}",
        if equivalent { "PASS" } else { "FAIL" }
    );

    // -- Timings. Each stage under its own bloc-obs span so the run
    // report carries the same breakdown as the printed rows.
    let t_reference = {
        let _span = bloc_obs::span("perf.reference");
        time_best(iters, || {
            std::hint::black_box(joint_likelihood_reference(&corrected, spec, combining));
        })
    };
    // Cold: a fresh engine per call pays SoA repack + steering-table
    // build + kernel. This is the first-sounding-of-a-deployment cost.
    let t_cold = {
        let _span = bloc_obs::span("perf.recurrence_cold");
        time_best(iters, || {
            let engine = LikelihoodEngine::default();
            std::hint::black_box(engine.joint_likelihood(&corrected, spec, combining));
        })
    };
    // Warm: one engine, geometry cached — the steady-state per-sounding
    // cost every tracker/sweep call pays.
    let warm_engine = LikelihoodEngine::default();
    let _ = warm_engine.joint_likelihood(&corrected, spec, combining);
    let t_warm = {
        let _span = bloc_obs::span("perf.recurrence_warm");
        time_best(iters, || {
            std::hint::black_box(warm_engine.joint_likelihood(&corrected, spec, combining));
        })
    };
    // The bare kernel on this sounding plus three more tags of the same
    // deployment: the per-level rows sweep the first, the batch row all.
    let batch_tags: Vec<CorrectedChannels> = std::iter::once(corrected.clone())
        .chain(
            [P2::new(1.2, 4.1), P2::new(3.6, 1.5), P2::new(4.1, 4.4)].map(|p| {
                let data = sounder.sound(p, &all_data_channels(), &mut rng);
                correct(&data, true).expect("clean testbed sounding")
            }),
        )
        .collect();
    assert_eq!(batch_tags.len(), sweep::MAX_TAGS);
    let kernel_bench = KernelBench::build(&batch_tags, spec, &GridPatch::whole(spec));
    let (level_rows, levels_identical) = kernel_level_rows(&kernel_bench, iters);
    let (t_tags_single, t_tags_batch, batch_identical) = tag_batch_row(&kernel_bench, iters);
    let batch_ratio = t_tags_single / t_tags_batch;
    // The window-overhead rows: the dense paper room, and a seeded
    // tracking patch of 79×79 cells on the corridor's 8 cm grid.
    let corridor = Scenario::corridor(2026);
    let corridor_spec = corridor.bloc_config().grid;
    let corridor_tag = P2::new(16.8, 4.95);
    let corridor_patch = corridor_spec.patch(corridor_tag, 3.1);
    assert_eq!((corridor_patch.spec.nx, corridor_patch.spec.ny), (79, 79));
    let corridor_corrected = correct(
        &corridor.sounder(SounderConfig::default()).sound(
            corridor_tag,
            &all_data_channels(),
            &mut rng,
        ),
        true,
    )
    .expect("clean corridor sounding");
    let overhead_rows = [
        (
            format!("dense paper room {}×{}", spec.nx, spec.ny),
            window_overhead_row(&corrected, spec, &GridPatch::whole(spec), iters),
            WINDOW_SHARE_FLOORS[0],
        ),
        (
            "corridor patch 79×79".to_string(),
            window_overhead_row(&corridor_corrected, corridor_spec, &corridor_patch, iters),
            WINDOW_SHARE_FLOORS[1],
        ),
    ];

    let throughput = |secs: f64| cell_evals / secs;
    let speedup = t_reference / t_warm;
    println!(
        "reference         {:>9.1} ms  {:>12.0} cell-evals/s",
        t_reference * 1e3,
        throughput(t_reference)
    );
    println!(
        "recurrence cold   {:>9.1} ms  {:>12.0} cell-evals/s",
        t_cold * 1e3,
        throughput(t_cold)
    );
    println!(
        "recurrence warm   {:>9.1} ms  {:>12.0} cell-evals/s",
        t_warm * 1e3,
        throughput(t_warm)
    );
    println!("single-thread speedup over reference: {speedup:.1}×");
    for label in LEVEL_LABELS {
        match level_rows.iter().find(|(l, _)| l.label() == label) {
            Some((_, t)) => println!(
                "bare kernel, {label:<7}{:>9.1} ms  {:>12.0} cell-evals/s",
                t * 1e3,
                throughput(*t)
            ),
            None => println!("bare kernel, {label:<7}  skipped (host lacks it)"),
        }
    }
    println!(
        "bare kernel levels bit-identical to scalar: {}",
        if levels_identical { "PASS" } else { "FAIL" }
    );
    let n_tags = sweep::MAX_TAGS;
    println!(
        "bare kernel, {n_tags} tags one at a time {:>9.1} ms, batched {:>9.1} ms ({cell_simd_level}): {batch_ratio:.2}× (floor {TAG_BATCH_FLOOR}×), batch bit-identical: {}",
        t_tags_single * 1e3,
        t_tags_batch * 1e3,
        if batch_identical { "PASS" } else { "FAIL" }
    );
    for (name, (t_engine, t_bare), floor) in &overhead_rows {
        let share = t_bare / t_engine;
        let verdict = if cfg!(debug_assertions) {
            "skipped (debug build)".to_string()
        } else {
            format!("floor {floor}")
        };
        println!(
            "window overhead, {name}: engine {:.3} ms, bare kernel {:.3} ms ({cell_simd_level}): {:.2}×, kernel share {share:.2} ({verdict})",
            t_engine * 1e3,
            t_bare * 1e3,
            t_engine / t_bare
        );
    }

    // ===== Channel-synthesis engine (DESIGN.md §10) =====
    println!("\n=== Sounding engine perf baseline (best of {iters}) ===");
    let channels = all_data_channels();
    let n_links =
        scenario.anchors.iter().map(|a| a.n_antennas).sum::<usize>() + scenario.anchors.len() - 1;
    let measurements = (n_links * channels.len() * 2) as f64;
    println!(
        "{n_links} links · {} bands · 2 tones = {measurements} measurements/sounding",
        channels.len()
    );

    // -- Equivalence gate: with ideal hardware (zero offsets/CFO, no
    // calibration error, vanishing noise) every per-tone measurement the
    // fast engine produces must be the reference Environment::channel
    // value. Scale by the largest reference magnitude — deep multipath
    // fades make naive per-band relative error meaningless.
    let ideal_sounder = scenario.sounder(SounderConfig {
        csi_snr_db: 300.0,
        antenna_phase_err_std: 0.0,
        ..SounderConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(9);
    let ideal = ideal_sounder.sound_ideal(tag, &channels, &mut rng);
    let mut snd_scale = f64::MIN_POSITIVE;
    let mut snd_max_err = 0.0f64;
    let mut errs = Vec::new();
    for band in &ideal.bands {
        for (i, anchor) in scenario.anchors.iter().enumerate() {
            for j in 0..anchor.n_antennas {
                let got = band.tag_to_anchor_tones[i][j];
                let want = [
                    scenario
                        .env
                        .channel(tag, anchor.antenna(j), band.freq_hz - TONE_OFFSET_HZ),
                    scenario
                        .env
                        .channel(tag, anchor.antenna(j), band.freq_hz + TONE_OFFSET_HZ),
                ];
                for tone in 0..2 {
                    snd_scale = snd_scale.max(want[tone].abs());
                    errs.push((got[tone] - want[tone]).abs());
                }
            }
        }
    }
    for e in errs {
        snd_max_err = snd_max_err.max(e / snd_scale);
    }
    let snd_tol = 1e-12;
    let snd_equivalent = snd_max_err <= snd_tol;
    println!(
        "equivalence: max rel err {snd_max_err:.3e} (tol {snd_tol:.0e}) → {}",
        if snd_equivalent { "PASS" } else { "FAIL" }
    );

    // -- Timings under the realistic default config.
    let seed = 21u64;
    // Reference: the per-band sequential path (two Environment::channel
    // path rebuilds per link × band).
    let ref_sounder = scenario.sounder(SounderConfig::default());
    let t_snd_reference = {
        let _span = bloc_obs::span("perf.sound_reference");
        time_best(iters, || {
            let mut rng = StdRng::seed_from_u64(seed);
            std::hint::black_box(ref_sounder.sound_censused_reference(tag, &channels, &mut rng));
        })
    };
    // Cold: a fresh sounder per call pays path extraction for every link.
    let t_snd_cold = {
        let _span = bloc_obs::span("perf.sound_cold");
        time_best(iters, || {
            let sounder = scenario.sounder(SounderConfig::default());
            let mut rng = StdRng::seed_from_u64(seed);
            std::hint::black_box(sounder.sound(tag, &channels, &mut rng));
        })
    };
    // Warm: one sounder, static PathSets cached — the steady-state
    // per-sounding cost of a sweep (static links shared across
    // locations, tag links traced per sounding).
    let warm_sounder = scenario.sounder(SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = warm_sounder.sound(tag, &channels, &mut rng);
    let t_snd_warm = {
        let _span = bloc_obs::span("perf.sound_warm");
        time_best(iters, || {
            let mut rng = StdRng::seed_from_u64(seed);
            std::hint::black_box(warm_sounder.sound(tag, &channels, &mut rng));
        })
    };
    let snd_throughput = |secs: f64| measurements / secs;
    let snd_speedup = t_snd_reference / t_snd_warm;
    println!(
        "reference         {:>9.2} ms  {:>12.0} measurements/s",
        t_snd_reference * 1e3,
        snd_throughput(t_snd_reference)
    );
    println!(
        "fast, cold cache  {:>9.2} ms  {:>12.0} measurements/s",
        t_snd_cold * 1e3,
        snd_throughput(t_snd_cold)
    );
    println!(
        "fast, warm cache  {:>9.2} ms  {:>12.0} measurements/s",
        t_snd_warm * 1e3,
        snd_throughput(t_snd_warm)
    );
    println!("single-thread sounding speedup over reference: {snd_speedup:.1}×");

    // ===== Hierarchical coarse-to-fine localization (DESIGN.md §14) =====
    let hier_failed = hierarchical_baseline();

    bloc_bench::emit_run_report("perf_baseline", &obs_before);
    bloc_bench::maybe_finish_trace("perf_baseline");

    // -- Sanity floors.
    let mut failed = hier_failed;
    if !equivalent {
        eprintln!("FLOOR FAILED: recurrence engine diverges from reference ({max_rel_err:.3e} > {tol:.0e})");
        failed = true;
    }
    if !snd_equivalent {
        eprintln!(
            "FLOOR FAILED: fast sounding diverges from reference ({snd_max_err:.3e} > {snd_tol:.0e})"
        );
        failed = true;
    }
    if !levels_identical {
        eprintln!("FLOOR FAILED: a SIMD level's bare kernel output differs from scalar");
        failed = true;
    }
    if !batch_identical {
        eprintln!("FLOOR FAILED: a batched tag's bare kernel output differs from its own sweep");
        failed = true;
    }
    if !(t_warm.is_finite() && t_warm > 0.0 && throughput(t_warm) > 0.0) {
        eprintln!("FLOOR FAILED: warm throughput is not positive");
        failed = true;
    }
    if !(t_snd_warm.is_finite() && t_snd_warm > 0.0 && snd_throughput(t_snd_warm) > 0.0) {
        eprintln!("FLOOR FAILED: warm sounding throughput is not positive");
        failed = true;
    }
    // Floors that did not run, named in the closing line.
    let mut skipped: Vec<String> = Vec::new();
    if cfg!(debug_assertions) {
        println!("debug build: speedup floors not enforced (timings are unrepresentative)");
        skipped.push("every speedup floor (debug build)".into());
    } else {
        if speedup < 5.0 {
            eprintln!("FLOOR FAILED: single-thread speedup {speedup:.2}× < 5× over reference");
            failed = true;
        }
        // Same-process ratio: sweeping a deployment's tags in one batch
        // (one lattice index, weights and carrier per cell, one phasor
        // matrix, for all of them) against one at a time, on the
        // dispatched level.
        if batch_ratio < TAG_BATCH_FLOOR {
            eprintln!(
                "FLOOR FAILED: {n_tags}-tag batch {batch_ratio:.2}× < {TAG_BATCH_FLOOR}× over single-tag sweeps ({cell_simd_level})"
            );
            failed = true;
        }
        // Same-process ratio: the bare kernel's share of the warm
        // engine's time over the same window, on the dispatched level.
        for (name, (t_engine, t_bare), floor) in &overhead_rows {
            let share = t_bare / t_engine;
            if share < *floor {
                eprintln!(
                    "FLOOR FAILED: window overhead, {name}: kernel share {share:.2} < {floor} of the warm engine ({cell_simd_level})"
                );
                failed = true;
            }
        }
        if snd_speedup < 4.0 {
            eprintln!(
                "FLOOR FAILED: single-thread sounding speedup {snd_speedup:.2}× < 4× over reference"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    if skipped.is_empty() {
        println!("all floors passed");
    } else {
        println!(
            "every floor that ran passed; skipped: {}",
            skipped.join(", ")
        );
    }
}

/// The hierarchical coarse-to-fine baseline on the 34.3 m × 9.9 m
/// corridor venue: dense-vs-hierarchy accuracy parity and the ≥ 8×
/// cell-eval reduction gate, the seeded-tracking
/// ≤ 10% budget with exact `engine.cells_evaluated` counter
/// reconciliation and no steering-cache miss or capacity eviction after
/// the first round. Every gate here is a *cell-count or equality*
/// verdict — deterministic in debug and release alike — so unlike the
/// timing floors above, all of them are always enforced. Returns true
/// when any gate failed.
fn hierarchical_baseline() -> bool {
    let mut failed = false;
    println!("\n=== Hierarchical coarse-to-fine baseline (corridor) ===");
    let scenario = Scenario::corridor(2026);
    let config = scenario.bloc_config();
    let one_cell = config.grid.resolution * std::f64::consts::SQRT_2 + 1e-9;
    let fine_cells = config.grid.nx * config.grid.ny;
    let dense = BlocLocalizer::new(config);
    let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
    println!(
        "corridor {:.1} m × {:.1} m: fine {}×{} = {fine_cells} cells, {} coarse cells, {} anchors",
        scenario.room.width,
        scenario.room.height,
        config.grid.nx,
        config.grid.ny,
        hier.coarse_spec().len(),
        scenario.anchors.len()
    );

    let sounder = scenario.sounder(SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(5);
    let tags = [P2::new(6.0, 4.2), P2::new(16.8, 6.1), P2::new(28.4, 3.5)];
    let soundings: Vec<_> = tags
        .iter()
        .map(|&t| sounder.sound(t, &all_data_channels(), &mut rng))
        .collect();

    // -- Accuracy parity and cell-eval reduction, per localize.
    let mut parity = Vec::new();
    let mut reductions = Vec::new();
    for (tag, data) in tags.iter().zip(&soundings) {
        let d = dense.localize(data).expect("dense corridor fix");
        let h = hier.localize(data).expect("hierarchical corridor fix");
        let dist = h.estimate.position.dist(d.position);
        parity.push(dist);
        reductions.push(h.reduction());
        println!(
            "tag {tag}: dense err {:.2} m, hier err {:.2} m, parity {dist:.3} m, cells {} of {} ({:.1}×, {} patches)",
            d.position.dist(*tag),
            h.estimate.position.dist(*tag),
            h.cells_evaluated,
            h.dense_cells_evaluated,
            h.reduction(),
            h.candidates_refined
        );
    }
    let parity_median = bloc_num::stats::median(&parity);
    let reduction_median = bloc_num::stats::median(&reductions);
    println!(
        "median parity {parity_median:.3} m (gate ≤ {one_cell:.3} m), median reduction {reduction_median:.1}× (gate ≥ 8×)"
    );
    if parity_median > one_cell {
        eprintln!(
            "FLOOR FAILED: hierarchical median parity {parity_median:.3} m exceeds one fine cell ({one_cell:.3} m)"
        );
        failed = true;
    }
    if reduction_median < 8.0 {
        eprintln!("FLOOR FAILED: hierarchical cell-eval reduction {reduction_median:.1}× < 8×");
        failed = true;
    }

    // -- Seeded tracking: a tag walking the aisle. After the first full
    // coarse→fine fix, every seeded round must stay on the fast path and
    // cost ≤ 10% of a dense sweep; and the `engine.cells_evaluated`
    // counter delta must reconcile *exactly* with the estimate's own
    // accounting. Low-noise soundings pin the steady state down (the
    // regime the tracker's innovation gate maintains in production).
    let track_sounder = scenario.sounder(SounderConfig {
        csi_snr_db: 30.0,
        antenna_phase_err_std: 0.0,
        ..SounderConfig::default()
    });
    let mut pos = P2::new(10.0, 4.8);
    let mut seed_pos: Option<P2> = None;
    let mut worst_fraction = 0.0f64;
    for round in 0..5 {
        let data = track_sounder.sound(pos, &all_data_channels(), &mut rng);
        let before = bloc_obs::Registry::global().snapshot();
        let est = match seed_pos {
            None => hier.localize(&data).expect("first tracking fix"),
            Some(p) => hier
                .localize_seeded(&data, p, 1.0)
                .expect("seeded tracking fix"),
        };
        let delta = bloc_obs::Registry::global().snapshot().diff(&before);
        let counted = delta
            .counters
            .get("engine.cells_evaluated")
            .copied()
            .unwrap_or(0);
        if counted != est.cells_evaluated as u64 {
            eprintln!(
                "FLOOR FAILED: round {round} engine.cells_evaluated counted {counted} but the estimate accounts {}",
                est.cells_evaluated
            );
            failed = true;
        }
        if round > 0 {
            // A seeded patch is a window into the fine grid's one
            // steering table: moving it must never build a table or push
            // another geometry out of the cache.
            for name in [
                "cache.steering.misses",
                "cache.steering.invalidations.capacity",
            ] {
                let added = delta.counters.get(name).copied().unwrap_or(0);
                if added > 0 {
                    eprintln!("FLOOR FAILED: seeded round {round} added {added} to {name}");
                    failed = true;
                }
            }
            let fraction = est.cells_evaluated as f64 / est.dense_cells_evaluated.max(1) as f64;
            worst_fraction = worst_fraction.max(fraction);
            if let Some(escape) = est.escape {
                eprintln!(
                    "FLOOR FAILED: seeded round {round} escaped the fast path ({})",
                    escape.reason()
                );
                failed = true;
            }
        }
        seed_pos = Some(est.estimate.position);
        pos += P2::new(0.3, 0.04);
    }
    println!(
        "seeded tracking: worst round {:.1}% of a dense sweep (gate ≤ 10%)",
        worst_fraction * 100.0
    );
    if worst_fraction > 0.10 {
        eprintln!(
            "FLOOR FAILED: seeded tracking round spent {:.1}% of a dense sweep (> 10%)",
            worst_fraction * 100.0
        );
        failed = true;
    }
    failed
}
