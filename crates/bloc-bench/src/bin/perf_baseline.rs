//! The performance baseline: verifies the fast likelihood engine and the
//! fast channel-synthesis engine against their naive references, times
//! every configuration at the default testbed problem in one process, and
//! gates the ratios between those timings.
//!
//! ```text
//! cargo run --release -p bloc-bench --bin perf_baseline [iters] [--hier-only] [--trace]
//! ```
//!
//! With `--trace` (or `BLOC_TRACE=1`) the run also records span and
//! executor-shard edges into the bounded trace ring and exports
//! `target/reports/perf_baseline-trace.json` — Chrome trace-event JSON,
//! loadable in Perfetto — showing the sound/correct/localize stages and
//! the `par.*` worker lanes on a shared timeline.
//!
//! No gate here reads an absolute wall time: how fast the host is is the
//! repository benchmark's question (`BENCHMARK.json`). Exit status is
//! nonzero when a floor fails: fast/reference equivalence and bit-identity
//! of every SIMD level and of the tag batch (always), nonzero throughput
//! (always), and — on release builds only, debug timings are
//! meaningless — the same-process speedup floors: ≥ 5× single-thread
//! over the reference likelihood, ≥ 4× over the reference sounder,
//! ≥ 1.25× for a batch of [`sweep::MAX_TAGS`] tags over sweeping them
//! one at a time, and the thread-scaling floor — ≥ 2× at 4 threads for
//! both engines when the host has ≥ 4 cores. On smaller hosts the
//! threaded rows oversubscribe (production callers route through
//! `bloc_num::par::tuned_threads` and never do), so the scaling floor is
//! reported as skipped and a pathology guard runs instead: threaded rows
//! within 2× of warm serial. The closing line names every floor it
//! skipped.
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
use bloc_core::engine::{BandPlan, LikelihoodEngine, SteeringTables};
use bloc_core::likelihood::{joint_likelihood_reference, AntennaCombining};
use bloc_core::localizer::BlocLocalizer;
use bloc_core::{HierarchicalConfig, HierarchicalLocalizer};
use bloc_num::simd::{SimdLevel, LEVEL_LABELS};
use bloc_num::sweep::{self, CellSweep, Combine};
use bloc_num::{GridSpec, C64, P2};
use bloc_testbed::scenario::Scenario;
use rand::{rngs::StdRng, SeedableRng};

/// Least speedup of a [`sweep::MAX_TAGS`]-tag batched kernel call over
/// sweeping the same tags one at a time (measured 1.55× on AVX-512 and
/// AVX2).
const TAG_BATCH_FLOOR: f64 = 1.25;

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

/// The bare Eq. 17 cell kernel's inputs over every grid cell of every
/// anchor, laid out the way the engine lays them out (one channel-weight
/// row per absolute comb slot): per anchor, the lane stride, the seed and
/// step tables of the deployment's steering geometry, and the channel
/// weights of every tag.
struct KernelBench {
    cells: usize,
    gaps: Vec<u32>,
    anchors: Vec<AnchorBench>,
}

/// One anchor's kernel inputs: lane stride, seed re/im and step re/im
/// tables, and every tag's alpha re/im.
type AnchorBench = (usize, [Vec<f64>; 4], Vec<[Vec<f64>; 2]>);

impl KernelBench {
    /// Inputs for `tags`, soundings of one deployment on one comb.
    fn build(tags: &[CorrectedChannels], spec: GridSpec) -> Self {
        let corrected = &tags[0];
        let freqs: Vec<f64> = corrected.bands.iter().map(|b| b.freq_hz).collect();
        let plan = BandPlan::build(&freqs);
        assert!(
            plan.is_uniform_comb(),
            "clean testbed sounding is on the comb"
        );
        let span = plan.span();
        let geometry = SteeringTables::build(
            spec,
            &corrected.anchors,
            &corrected.master_anchor_dist,
            plan.base_hz,
            plan.step_hz,
        );
        let cells = spec.nx * spec.ny;
        let phase = std::f64::consts::TAU / bloc_num::constants::SPEED_OF_LIGHT;
        let anchors = (0..corrected.n_anchors())
            .map(|i| {
                let nj = corrected.anchors[i].n_antennas;
                let nl = nj.div_ceil(4) * 4;
                let [mut sre, mut sim, mut tre, mut tim] =
                    [1.0, 0.0, 1.0, 0.0].map(|v| vec![v; cells * nl]);
                for cell in 0..cells {
                    for (j, d) in geometry.cell_deltas(i, cell).into_iter().enumerate() {
                        let seed = C64::cis(phase * d * plan.base_hz);
                        let step = C64::cis(phase * d * plan.step_hz);
                        let k = cell * nl + j;
                        (sre[k], sim[k], tre[k], tim[k]) = (seed.re, seed.im, step.re, step.im);
                    }
                }
                let alphas = tags
                    .iter()
                    .map(|tag| {
                        let freqs: Vec<f64> = tag.bands.iter().map(|b| b.freq_hz).collect();
                        assert_eq!(BandPlan::build(&freqs), plan, "tags share one comb");
                        let (mut are, mut aim) = (vec![0.0; span * nl], vec![0.0; span * nl]);
                        for (k, &b) in plan.order.iter().enumerate() {
                            let row = plan.slots[k] as usize * nl;
                            for (j, a) in tag.bands[b].alpha[i].iter().enumerate() {
                                (are[row + j], aim[row + j]) = (a.re, a.im);
                            }
                        }
                        [are, aim]
                    })
                    .collect();
                (nl, [sre, sim, tre, tim], alphas)
            })
            .collect();
        Self {
            cells,
            gaps: (0..span).map(|r| u32::from(r > 0)).collect(),
            anchors,
        }
    }

    /// Anchor `a`'s kernel view for tag `t`.
    fn sweep(&self, a: usize, t: usize) -> CellSweep<'_> {
        let (nl, [sre, sim, tre, tim], alphas) = &self.anchors[a];
        let [are, aim] = &alphas[t];
        CellSweep {
            seed_re: sre,
            seed_im: sim,
            step_re: tre,
            step_im: tim,
            alpha_re: are,
            alpha_im: aim,
            n_lanes: *nl,
            gaps: &self.gaps,
        }
    }

    /// One output buffer per anchor.
    fn outputs(&self) -> Vec<Vec<f64>> {
        vec![vec![0.0; self.cells]; self.anchors.len()]
    }
}

/// Best-of-`iters` warm single-thread time of the bare Eq. 17 cell kernel
/// on tag 0 at each level the host executes. Also reports whether every
/// level's output equals the scalar level's bit for bit.
fn kernel_level_rows(bench: &KernelBench, iters: usize) -> (Vec<(SimdLevel, f64)>, bool) {
    let run = |level: SimdLevel, out: &mut [Vec<f64>]| {
        for (a, out) in out.iter_mut().enumerate() {
            sweep::write_comb_cells_at(level, &bench.sweep(a, 0), Combine::Hybrid, 0, out);
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
    let n_tags = bench.anchors[0].2.len();
    let mut single = vec![bench.outputs(); n_tags];
    let mut batched = vec![bench.outputs(); n_tags];
    let (mut t_single, mut t_batch) = (f64::INFINITY, f64::INFINITY);
    let _span = bloc_obs::span("perf.tag_batch");
    for _ in 0..iters.max(1) {
        t_single = t_single.min(time_best(1, || {
            for (t, outs) in single.iter_mut().enumerate() {
                for (a, out) in outs.iter_mut().enumerate() {
                    sweep::write_comb_cells(&bench.sweep(a, t), Combine::Hybrid, 0, out);
                }
            }
        }));
        t_batch = t_batch.min(time_best(1, || {
            for a in 0..bench.anchors.len() {
                let tags: Vec<CellSweep<'_>> = (0..n_tags).map(|t| bench.sweep(a, t)).collect();
                let mut outs: Vec<&mut [f64]> =
                    batched.iter_mut().map(|o| o[a].as_mut_slice()).collect();
                sweep::write_comb_cells_batch(&tags, Combine::Hybrid, 0, &mut outs);
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
    let fast_grid = LikelihoodEngine::recurrence().joint_likelihood(&corrected, spec, combining);
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
            let engine = LikelihoodEngine::recurrence();
            std::hint::black_box(engine.joint_likelihood(&corrected, spec, combining));
        })
    };
    // Warm: one engine, geometry cached — the steady-state per-sounding
    // cost every tracker/sweep call pays.
    let warm_engine = LikelihoodEngine::recurrence();
    let _ = warm_engine.joint_likelihood(&corrected, spec, combining);
    let t_warm = {
        let _span = bloc_obs::span("perf.recurrence_warm");
        time_best(iters, || {
            std::hint::black_box(warm_engine.joint_likelihood(&corrected, spec, combining));
        })
    };
    let mut thread_rows = Vec::new();
    for threads in [2usize, 4] {
        let engine = LikelihoodEngine::recurrence().with_threads(threads);
        let _ = engine.joint_likelihood(&corrected, spec, combining);
        let t = {
            let _span = bloc_obs::span("perf.recurrence_threads");
            time_best(iters, || {
                std::hint::black_box(engine.joint_likelihood(&corrected, spec, combining));
            })
        };
        thread_rows.push((threads, t));
    }

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
    let kernel_bench = KernelBench::build(&batch_tags, spec);
    let (level_rows, levels_identical) = kernel_level_rows(&kernel_bench, iters);
    let (t_tags_single, t_tags_batch, batch_identical) = tag_batch_row(&kernel_bench, iters);
    let batch_ratio = t_tags_single / t_tags_batch;

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
    for (threads, t) in &thread_rows {
        println!(
            "warm, {threads} threads   {:>9.1} ms  {:>12.0} cell-evals/s",
            t * 1e3,
            throughput(*t)
        );
    }
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // Warm serial time over warm 4-thread time: the thread-scaling
    // figure the release gate enforces (≥ 2× when the host has ≥ 4
    // cores; on smaller hosts `tuned_threads` clamps the fan-out, so
    // the ratio only proves threads are not a pessimization).
    let scaling_4t = thread_rows
        .iter()
        .find(|(n, _)| *n == 4)
        .map(|(_, t)| t_warm / t)
        .unwrap_or(1.0);
    println!(
        "single-thread speedup over reference: {speedup:.1}×  (host has {host_threads} core(s))"
    );
    println!("4-thread scaling over warm serial: {scaling_4t:.2}×");
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
    // Warm: one sounder, PathSets cached — the steady-state per-sounding
    // cost of a sweep (static links shared across locations, tag links
    // shared across retries of one location).
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
    let mut snd_thread_rows = Vec::new();
    for threads in [2usize, 4] {
        let sounder = scenario
            .sounder(SounderConfig::default())
            .with_threads(threads);
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = sounder.sound(tag, &channels, &mut rng);
        let t = {
            let _span = bloc_obs::span("perf.sound_threads");
            time_best(iters, || {
                let mut rng = StdRng::seed_from_u64(seed);
                std::hint::black_box(sounder.sound(tag, &channels, &mut rng));
            })
        };
        snd_thread_rows.push((threads, t));
    }

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
    for (threads, t) in &snd_thread_rows {
        println!(
            "warm, {threads} threads   {:>9.2} ms  {:>12.0} measurements/s",
            t * 1e3,
            snd_throughput(*t)
        );
    }
    let snd_scaling_4t = snd_thread_rows
        .iter()
        .find(|(n, _)| *n == 4)
        .map(|(_, t)| t_snd_warm / t)
        .unwrap_or(1.0);
    println!("single-thread sounding speedup over reference: {snd_speedup:.1}×");
    println!("4-thread sounding scaling over warm serial: {snd_scaling_4t:.2}×");

    // ===== Hierarchical coarse-to-fine localization (DESIGN.md §14) =====
    let hier_failed = hierarchical_baseline();

    // -- One end-to-end localization round, so the run report (and a
    // `--trace` timeline) carries the full §5 pipeline spans — sound,
    // localize/correct, localize/likelihood, localize/score_peaks — on
    // top of the kernel microbench spans above.
    {
        let e2e_sounder = scenario.sounder(SounderConfig::default()).with_threads(2);
        let localizer = BlocLocalizer::new(scenario.bloc_config())
            .with_engine(LikelihoodEngine::recurrence().with_threads(2));
        let mut rng = StdRng::seed_from_u64(27);
        let e2e_data = e2e_sounder.sound(tag, &channels, &mut rng);
        match localizer.localize(&e2e_data) {
            Ok(est) => {
                std::hint::black_box(&est);
                println!("end-to-end round: localized (full pipeline spans recorded)");
            }
            Err(e) => eprintln!("warning: end-to-end round produced no fix: {e:?}"),
        }
    }

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
        skipped.push("every speedup and scaling floor (debug build)".into());
    } else {
        if speedup < 5.0 {
            eprintln!("FLOOR FAILED: single-thread speedup {speedup:.2}× < 5× over reference");
            failed = true;
        }
        // Same-process ratio: sweeping a deployment's tags in one batch
        // (one rotation chain per cell for all of them) against one at a
        // time, on the dispatched level.
        if batch_ratio < TAG_BATCH_FLOOR {
            eprintln!(
                "FLOOR FAILED: {n_tags}-tag batch {batch_ratio:.2}× < {TAG_BATCH_FLOOR}× over single-tag sweeps ({cell_simd_level})"
            );
            failed = true;
        }
        if snd_speedup < 4.0 {
            eprintln!(
                "FLOOR FAILED: single-thread sounding speedup {snd_speedup:.2}× < 4× over reference"
            );
            failed = true;
        }
        // Thread scaling. On a host with ≥ 4 cores the coarse-grained
        // fan-out must buy ≥ 2× at 4 threads for both engines. On
        // smaller hosts these rows *oversubscribe* the scheduler
        // (production callers tune through `bloc_num::par::tuned_threads`
        // and never request more workers than cores), so honest scaling
        // cannot show up: that floor is skipped, and a pathology guard
        // runs instead — a threaded row more than 2× slower than warm
        // serial means real serialization (a lock on the hot path), not
        // scheduler churn.
        if host_threads >= 4 {
            if scaling_4t < 2.0 {
                eprintln!(
                    "FLOOR FAILED: likelihood 4-thread scaling {scaling_4t:.2}× < 2× on a {host_threads}-core host"
                );
                failed = true;
            }
            if snd_scaling_4t < 2.0 {
                eprintln!(
                    "FLOOR FAILED: sounding 4-thread scaling {snd_scaling_4t:.2}× < 2× on a {host_threads}-core host"
                );
                failed = true;
            }
        } else {
            println!(
                "4-thread scaling floor (≥ 2×): skipped ({host_threads}-core host); running the thread pathology guard (threaded rows within 2× of warm serial) instead"
            );
            skipped.push(format!("≥ 2× 4-thread scaling ({host_threads}-core host)"));
            type Leg<'a> = (&'a str, &'a [(usize, f64)], f64);
            let legs: [Leg; 2] = [
                ("likelihood", &thread_rows, t_warm),
                ("sounding", &snd_thread_rows, t_snd_warm),
            ];
            for (what, rows, serial) in legs {
                for (threads, t) in rows {
                    if *t > serial * 2.0 {
                        eprintln!(
                            "FLOOR FAILED: {what} at {threads} threads ({t:.6}s) more than 2× warm serial ({serial:.6}s) on a {host_threads}-core host — hot path serialized?"
                        );
                        failed = true;
                    }
                }
            }
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
/// cell-eval reduction gate, 2/4-thread bit-identity, the seeded-tracking
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
    let dense = BlocLocalizer::new(config).with_engine(LikelihoodEngine::recurrence());
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

    // -- Thread bit-identity: the 2- and 4-thread hierarchies must
    // reproduce the 1-thread fix to the bit (same cells spent, same
    // peaks, same position).
    let base = hier
        .localize(&soundings[1])
        .expect("hierarchical corridor fix");
    for threads in [2usize, 4] {
        let engine = LikelihoodEngine::recurrence().with_threads(threads);
        let h_t = HierarchicalLocalizer::new(
            BlocLocalizer::new(config).with_engine(engine),
            HierarchicalConfig::default(),
        );
        let est = h_t
            .localize(&soundings[1])
            .expect("hierarchical corridor fix");
        let identical = est.estimate.position == base.estimate.position
            && est.estimate.peaks == base.estimate.peaks
            && est.cells_evaluated == base.cells_evaluated;
        println!(
            "threads {threads}: {}",
            if identical {
                "bit-identical to serial"
            } else {
                "DIVERGED from serial"
            }
        );
        if !identical {
            eprintln!("FLOOR FAILED: hierarchical fix at {threads} threads is not bit-identical");
            failed = true;
        }
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
