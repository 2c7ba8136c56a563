//! The parallel location sweep: evaluate localization methods over many
//! tag positions.
//!
//! The paper's procedure (§7): move the tag to a location, measure
//! channels at every anchor, estimate, compare with ground truth, repeat
//! 1700 times. Here each location is sounded once and every method under
//! test consumes the *same* sounding — exactly the paper's "using the same
//! number of antennas and the same set of channel measurements" comparison
//! discipline. Locations fan out across all CPU cores through
//! [`bloc_num::par::sharded_map`]; each worker owns its stats accumulator
//! and sounder, and results come back in dataset order by construction.
//!
//! Locations run in batches of [`BATCH`] consecutive ones. A batch's
//! first attempt sounds every location under its own panic guard, then
//! localizes them together ([`BlocLocalizer::localize_batch`]), so their
//! Eq. 17 sweeps share each cell's rotation chain. A panic is still
//! isolated per location: if the batch's localization panics, each
//! location is localized again alone under its own guard. Retries stay
//! per location. Every record equals what a location-by-location sweep
//! produces, bit for bit.
//!
//! Every worker localizes through the scenario's [`Scenario::localizer`],
//! which runs on the engine the scenario owns. The deployment's steering
//! tables are therefore built by the first sweep over a scenario (or any
//! clone of it) and reused by every later one; only a transform that
//! changes the anchor geometry or the frequency comb builds new ones.

use std::sync::Arc;

use bloc_obs::local::LocalStats;
use serde::{Deserialize, Serialize};

use bloc_ble::channels::Channel;
use bloc_chan::sounder::{SounderConfig, SoundingData};
use bloc_core::baselines::{aoa, rssi};
use bloc_core::{BlocLocalizer, DegradationReport, Estimate, LocalizeError, RetryPolicy};
use bloc_num::P2;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::ErrorStats;
use crate::scenario::Scenario;

/// A localization method under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Full BLoc: correction + joint likelihood + entropy/distance scoring.
    Bloc,
    /// BLoc with the naive shortest-distance peak pick (Fig. 12 baseline).
    BlocShortestDistance,
    /// BLoc with raw likelihood argmax (no peak analysis; §5.4's "naive
    /// way").
    BlocArgmax,
    /// The AoA-combining baseline (Figs. 9a–c).
    AoaBaseline,
    /// RSSI log-distance trilateration (§2.2 context).
    RssiBaseline,
}

impl Method {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Bloc => "BLoc",
            Self::BlocShortestDistance => "Shortest-Distance Baseline",
            Self::BlocArgmax => "Likelihood-Argmax",
            Self::AoaBaseline => "AoA-baseline",
            Self::RssiBaseline => "RSSI-baseline",
        }
    }
}

/// One evaluated location.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocRecord {
    /// Ground-truth tag position (the simulator's coordinates stand in for
    /// the paper's VICON truth).
    pub truth: P2,
    /// The method's estimate, if it produced one.
    pub estimate: Option<P2>,
    /// Euclidean error, metres (`NaN` when the method failed).
    pub error: f64,
    /// The masking summary of the attempt that actually produced the
    /// estimate (BLoc only — baselines have no masking stage). Retries
    /// draw fresh faults, so the summary must travel with its estimate:
    /// attempt 0's report describes attempt 0's fault draw, not the
    /// retry's.
    pub degradation: Option<DegradationReport>,
}

/// A method's results over the whole sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// The evaluated method.
    pub method: Method,
    /// Per-location records, in dataset order.
    pub records: Vec<LocRecord>,
    /// Error statistics over the successful estimates.
    pub stats: ErrorStats,
    /// Locations where the method produced no estimate.
    pub failures: usize,
}

/// A sweep specification.
#[derive(Clone)]
pub struct SweepSpec<'a> {
    /// The deployment to evaluate in.
    pub scenario: &'a Scenario,
    /// Tag positions (ground truth).
    pub positions: &'a [P2],
    /// Channels sounded per location.
    pub channels: Vec<Channel>,
    /// Sounder configuration.
    pub sounder_config: SounderConfig,
    /// Methods to evaluate (all consume the same per-location sounding).
    pub methods: Vec<Method>,
    /// Base seed; each location derives its own deterministic stream.
    pub seed: u64,
    /// Optional sounding transform applied before evaluation — band
    /// subsets (Figs. 10/11), anchor subsets (9b), antenna subsets (9c).
    pub transform: Option<Arc<dyn Fn(SoundingData) -> SoundingData + Send + Sync + 'a>>,
    /// Optional fault plan composed into the sounder. Reseeded per
    /// location (and per retry attempt) so every sounding draws an
    /// independent fault pattern at the plan's rates.
    pub fault_plan: Option<bloc_chan::FaultPlan>,
    /// Re-sounding policy per location: when no method under test
    /// produces an estimate (or the location's evaluation panics), the
    /// location is re-sounded with a fresh fault/noise draw under this
    /// jittered exponential-backoff schedule — the testbed equivalent of
    /// a tracker waiting for the next hop cycle (~25 ms at BLE's ~40 full
    /// sweeps/s, paper §6). The schedule is a pure hash of (seed,
    /// location, attempt), so sweeps stay bit-reproducible; the simulator
    /// records rather than sleeps the delays (`sweep.backoff_us`).
    pub retry: RetryPolicy,
}

impl<'a> SweepSpec<'a> {
    /// A spec with the standard 37-channel plan, default sounder and no
    /// transform.
    pub fn standard(
        scenario: &'a Scenario,
        positions: &'a [P2],
        methods: Vec<Method>,
        seed: u64,
    ) -> Self {
        Self {
            scenario,
            positions,
            channels: bloc_chan::sounder::all_data_channels(),
            sounder_config: SounderConfig::default(),
            methods,
            seed,
            transform: None,
            fault_plan: None,
            retry: RetryPolicy::with_retries(0),
        }
    }

    /// Returns a copy with a fault plan and a retry budget (a default
    /// backoff policy with `max_retries` retries).
    pub fn with_faults(mut self, plan: bloc_chan::FaultPlan, max_retries: usize) -> Self {
        self.fault_plan = Some(plan);
        self.retry = RetryPolicy::with_retries(max_retries);
        self
    }
}

/// Consecutive locations a sweep localizes as one batch: one per tag the
/// Eq. 17 cell kernel sweeps together.
pub const BATCH: usize = bloc_num::sweep::MAX_TAGS;

/// Runs the sweep across all CPU cores. Returns one outcome per requested
/// method, in the order requested; records are in dataset order regardless
/// of scheduling.
pub fn sweep(spec: &SweepSpec<'_>) -> Vec<SweepOutcome> {
    let n = spec.positions.len();
    let n_methods = spec.methods.len();
    let localizer = spec.scenario.localizer();
    let evaluate = |batch: &[&SoundingData]| evaluate_methods(&spec.methods, &localizer, batch);

    let _span = bloc_obs::span("sweep");
    bloc_obs::counter("sweep.runs").inc();

    // Per-worker state: a stats accumulator (samples hit the shared
    // registry once, at join) and a private sounder. Batches are sharded
    // by stride and reassembled in dataset order by the executor. One
    // batch is up to four full soundings + localizations — coarse enough
    // that a single one justifies a worker.
    let n_batches = n.div_ceil(BATCH);
    let threads = bloc_num::par::tuned_threads(n_batches, bloc_num::par::max_threads(), 1);
    let per_batch: Vec<Vec<Vec<Option<Eval>>>> = bloc_num::par::sharded_map_named(
        "sweep",
        n_batches,
        threads,
        |_t| {
            (
                LocalStats::new(),
                spec.scenario.sounder(spec.sounder_config),
            )
        },
        |(stats, sounder), b| {
            let locations = b * BATCH..(b * BATCH + BATCH).min(n);
            let sounded: Vec<Option<SoundingData>> = locations
                .clone()
                .map(|idx| sound_attempt(spec, stats, sounder, idx, 0))
                .collect();
            let first = evaluate_first_attempt(stats, &evaluate, &sounded);
            locations
                .zip(first)
                .map(|(idx, first)| retry_location(spec, &evaluate, stats, sounder, idx, first))
                .collect()
        },
        |(mut stats, _sounder)| stats.merge_into(bloc_obs::Registry::global()),
    );
    let per_location = per_batch.into_iter().flatten();

    let mut per_method: Vec<Vec<LocRecord>> = vec![
        vec![
            LocRecord {
                truth: P2::ORIGIN,
                estimate: None,
                error: f64::NAN,
                degradation: None,
            };
            n
        ];
        n_methods
    ];
    for (idx, estimates) in per_location.enumerate() {
        let truth = spec.positions[idx];
        for (m, est) in estimates.into_iter().enumerate() {
            let position = est.as_ref().map(|e| e.position);
            per_method[m][idx] = LocRecord {
                truth,
                estimate: position,
                error: position.map(|e| e.dist(truth)).unwrap_or(f64::NAN),
                degradation: est.and_then(|e| e.degradation),
            };
        }
    }

    per_method
        .into_iter()
        .zip(&spec.methods)
        .map(|(records, &method)| {
            let errors: Vec<f64> = records
                .iter()
                .filter(|r| r.estimate.is_some())
                .map(|r| r.error)
                .collect();
            let failures = records.len() - errors.len();
            SweepOutcome {
                method,
                stats: ErrorStats::from_errors(errors),
                records,
                failures,
            }
        })
        .collect()
}

/// Sounds location `idx` for `attempt` under its own panic guard: a
/// fresh fault/noise draw, then the spec's transform. `None` (counted in
/// `sweep.panics_caught`) when either panicked.
fn sound_attempt(
    spec: &SweepSpec<'_>,
    stats: &mut LocalStats,
    sounder: &bloc_chan::Sounder,
    idx: usize,
    attempt: usize,
) -> Option<SoundingData> {
    let backoff = spec.retry.delay_us(idx as u64, attempt);
    if backoff > 0 {
        // The simulator records the scheduled wait instead of sleeping
        // it; determinism tests replay the schedule.
        stats.record("sweep.backoff_us", backoff);
    }
    // Deterministic per-(location, attempt) stream, independent of the
    // thread count and the batching. Attempt 0 keeps the historical
    // derivation so fault-free sweeps reproduce earlier results bit for
    // bit.
    let attempt_seed = (spec.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((attempt as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut rng = StdRng::seed_from_u64(attempt_seed);
    let faulted;
    let active = match &spec.fault_plan {
        Some(plan) => {
            faulted = sounder.clone().with_faults(plan.with_seed(attempt_seed));
            &faulted
        }
        None => sounder,
    };
    // One bad location must not take down the sweep — isolate it, count
    // it, and let the retry budget (or a blank record) absorb it.
    let sounded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let data = stats.time("sweep.sound_us", || {
            active.sound(spec.positions[idx], &spec.channels, &mut rng)
        });
        match &spec.transform {
            Some(transform) => transform(data),
            None => data,
        }
    }));
    if sounded.is_err() {
        stats.inc("sweep.panics_caught");
    }
    sounded.ok()
}

/// Evaluates every method under test on a batch of soundings: per
/// sounding, one output per method.
type Evaluate<'e> = dyn Fn(&[&SoundingData]) -> Vec<Vec<Option<Eval>>> + 'e;

/// `evaluate` on one location's sounding under its own panic guard;
/// `None` (counted in `sweep.panics_caught`) when evaluation panicked.
fn evaluate_alone(
    stats: &mut LocalStats,
    evaluate: &Evaluate<'_>,
    data: &SoundingData,
) -> Option<Vec<Option<Eval>>> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stats.time("sweep.location_us", || evaluate(&[data]).pop())
    }));
    if outcome.is_err() {
        stats.inc("sweep.panics_caught");
    }
    outcome.ok().flatten()
}

/// A batch's attempt 0: the sounded locations evaluated together, each
/// location's `sweep.location_us` sample its share of the batch's time.
/// A panicking batch is redone one location at a time, so the panic is
/// charged to the location that raised it. `None` for a location whose
/// sounding or evaluation panicked.
fn evaluate_first_attempt(
    stats: &mut LocalStats,
    evaluate: &Evaluate<'_>,
    sounded: &[Option<SoundingData>],
) -> Vec<Option<Vec<Option<Eval>>>> {
    let batch: Vec<&SoundingData> = sounded.iter().flatten().collect();
    let start = std::time::Instant::now();
    let together = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| evaluate(&batch)));
    match together {
        Ok(evals) => {
            let share = start.elapsed().as_micros() as u64 / batch.len().max(1) as u64;
            let mut evals = evals.into_iter();
            sounded
                .iter()
                .map(|data| {
                    data.as_ref()?;
                    stats.record("sweep.location_us", share);
                    evals.next()
                })
                .collect()
        }
        Err(_) => sounded
            .iter()
            .map(|data| evaluate_alone(stats, evaluate, data.as_ref()?))
            .collect(),
    }
}

/// Finishes location `idx` from its attempt-0 `first` evaluation: while
/// no method has an estimate and the retry budget lasts, the location is
/// re-sounded with a fresh fault/noise draw and evaluated alone.
fn retry_location(
    spec: &SweepSpec<'_>,
    evaluate: &Evaluate<'_>,
    stats: &mut LocalStats,
    sounder: &bloc_chan::Sounder,
    idx: usize,
    first: Option<Vec<Option<Eval>>>,
) -> Vec<Option<Eval>> {
    let mut estimates: Vec<Option<Eval>> = first.unwrap_or_else(|| vec![None; spec.methods.len()]);
    for attempt in 0..spec.retry.attempts() {
        if attempt > 0 {
            // Estimates are replaced wholesale: each estimate's masking
            // summary describes *this* attempt's fault draw, never a
            // stale earlier one.
            if let Some(evals) = sound_attempt(spec, stats, sounder, idx, attempt)
                .and_then(|data| evaluate_alone(stats, evaluate, &data))
            {
                estimates = evals;
            }
        }
        if estimates.iter().any(|e| e.is_some()) {
            if attempt > 0 {
                stats.inc("sweep.retry_recovered");
            }
            break;
        }
        if attempt + 1 < spec.retry.attempts() {
            stats.inc("sweep.resound_retries");
        }
    }
    stats.inc("sweep.locations");
    stats.add(
        "sweep.estimate_failures",
        estimates.iter().filter(|e| e.is_none()).count() as u64,
    );
    estimates
}

/// One method's output for one attempt: the (clamped) position plus the
/// masking summary of the localize that produced it, when the method has
/// one (the full BLoc path; baselines have no masking stage).
#[derive(Debug, Clone)]
struct Eval {
    position: P2,
    degradation: Option<DegradationReport>,
}

/// Every method on every sounding of a batch: per sounding, one output
/// per method in `methods` order. `Method::Bloc` localizes the batch in
/// one [`BlocLocalizer::localize_batch`] call; the others run per
/// sounding.
fn evaluate_methods(
    methods: &[Method],
    localizer: &BlocLocalizer,
    batch: &[&SoundingData],
) -> Vec<Vec<Option<Eval>>> {
    let bloc = methods
        .contains(&Method::Bloc)
        .then(|| localizer.localize_batch(batch));
    batch
        .iter()
        .enumerate()
        .map(|(k, data)| {
            let fix = bloc.as_ref().map(|fixes| &fixes[k]);
            methods
                .iter()
                .map(|&m| evaluate_with(m, localizer, data, fix))
                .collect()
        })
        .collect()
}

/// One method's output on `data`; `Method::Bloc` reads its fix from
/// `fix`, the sounding's [`BlocLocalizer::localize`] result.
fn evaluate_with(
    method: Method,
    localizer: &BlocLocalizer,
    data: &SoundingData,
    fix: Option<&Result<Estimate, LocalizeError>>,
) -> Option<Eval> {
    let (estimate, degradation) = match method {
        Method::Bloc => match fix {
            Some(Ok(e)) => (Some(e.position), Some(e.degradation.clone())),
            _ => (None, None),
        },
        Method::BlocShortestDistance => (
            localizer
                .localize_shortest_distance(data)
                .map(|e| e.position),
            None,
        ),
        Method::BlocArgmax => (localizer.localize_argmax(data).map(|e| e.position), None),
        Method::AoaBaseline => (aoa::localize(data, &aoa::AoaConfig::default()), None),
        Method::RssiBaseline => (rssi::localize(data, &rssi::RssiConfig::default()), None),
    };
    // Every method knows the deployment region (BLoc searches only inside
    // it); clamping the open-form baselines' estimates into the same
    // region keeps the comparison fair when a degenerate triangulation
    // shoots a fix far outside the building.
    let spec = localizer.config().grid;
    estimate.map(|p| Eval {
        position: P2::new(
            p.x.clamp(
                spec.origin.x,
                spec.origin.x + spec.nx as f64 * spec.resolution,
            ),
            p.y.clamp(
                spec.origin.y,
                spec.origin.y + spec.ny as f64 * spec.resolution,
            ),
        ),
        degradation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::sample_positions;
    use crate::scenario::Clutter;

    /// One method's output on one sounding, localized alone.
    fn evaluate(method: Method, localizer: &BlocLocalizer, data: &SoundingData) -> Option<Eval> {
        evaluate_methods(&[method], localizer, &[data])
            .pop()
            .and_then(|mut evals| evals.pop())
            .flatten()
    }

    #[test]
    fn sweep_shapes_and_determinism() {
        let scenario = Scenario::build(Clutter::None, 5);
        let positions = sample_positions(&scenario.room, 6, 1);
        let spec = SweepSpec {
            channels: bloc_chan::sounder::all_data_channels()[..9].to_vec(),
            ..SweepSpec::standard(
                &scenario,
                &positions,
                vec![Method::Bloc, Method::RssiBaseline],
                3,
            )
        };
        let a = sweep(&spec);
        let b = sweep(&spec);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].records.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.records, y.records,
                "sweep must be thread-count independent"
            );
        }
    }

    /// The full-geometry steering tables of `scenario`'s cache for the
    /// comb `data` was sounded on (a hit once a sweep has built them).
    fn full_geometry_tables(
        scenario: &Scenario,
        data: &SoundingData,
    ) -> Arc<bloc_core::engine::SteeringTables> {
        let corrected = bloc_core::correction::correct(data, true).expect("clean sounding");
        let plan = bloc_core::engine::SoaChannels::build(&corrected).plan;
        scenario.engine().cache().tables(
            scenario.bloc_config().grid,
            &corrected.anchors,
            &corrected.master_anchor_dist,
            plan.base_hz,
            plan.step_hz,
        )
    }

    #[test]
    fn sweeps_reuse_the_scenario_steering_tables() {
        fn spec_in<'a>(scenario: &'a Scenario, positions: &'a [P2], seed: u64) -> SweepSpec<'a> {
            SweepSpec {
                channels: bloc_chan::sounder::all_data_channels()[..9].to_vec(),
                ..SweepSpec::standard(scenario, positions, vec![Method::Bloc], seed)
            }
        }
        let fresh = |seed| Scenario::build(Clutter::WallsOnly, seed);
        let scenario = fresh(31);
        let first_positions = sample_positions(&scenario.room, 4, 31);
        let second_positions = sample_positions(&scenario.room, 5, 32);

        // Two back-to-back sweeps on one scenario equal the same sweeps
        // on fresh scenarios, record for record.
        let first = sweep(&spec_in(&scenario, &first_positions, 7));
        let second = sweep(&spec_in(&scenario, &second_positions, 8));
        let first_fresh = sweep(&spec_in(&fresh(31), &first_positions, 7));
        let second_fresh = sweep(&spec_in(&fresh(31), &second_positions, 8));
        assert_eq!(first[0].records, first_fresh[0].records);
        assert_eq!(second[0].records, second_fresh[0].records);

        // Both sweeps (and a clone of the scenario) share one entry.
        let cache = scenario.engine().cache();
        assert_eq!(cache.len(), 1, "one deployment, one comb: one entry");
        assert_eq!(scenario.clone().engine().cache().len(), 1);
        let probe = scenario.sounder(SounderConfig::default()).sound(
            first_positions[0],
            &bloc_chan::sounder::all_data_channels()[..9],
            &mut StdRng::seed_from_u64(1),
        );
        let tables = full_geometry_tables(&scenario, &probe);
        assert_eq!(cache.len(), 1, "the probe must hit the sweeps' entry");

        // An antenna subset is another geometry: a second entry, and the
        // full-geometry one stays resident, untouched.
        let subset = SweepSpec {
            transform: Some(Arc::new(|d: SoundingData| d.with_antenna_subset(2))),
            ..spec_in(&scenario, &first_positions, 7)
        };
        sweep(&subset);
        assert_eq!(cache.len(), 2);
        assert!(Arc::ptr_eq(
            &tables,
            &full_geometry_tables(&scenario, &probe)
        ));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn free_space_sweep_is_accurate() {
        let scenario = Scenario::build(Clutter::None, 6);
        let positions = sample_positions(&scenario.room, 8, 2);
        let spec = SweepSpec {
            sounder_config: bloc_chan::sounder::SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
            ..SweepSpec::standard(&scenario, &positions, vec![Method::Bloc], 4)
        };
        let out = sweep(&spec);
        assert_eq!(out[0].failures, 0);
        assert!(
            out[0].stats.median < 0.25,
            "free-space median {} should be near grid resolution",
            out[0].stats.median
        );
    }

    #[test]
    fn transform_is_applied() {
        let scenario = Scenario::build(Clutter::None, 7);
        let positions = sample_positions(&scenario.room, 3, 3);
        let mut spec = SweepSpec::standard(&scenario, &positions, vec![Method::Bloc], 5);
        // Keep one band only: accuracy must visibly degrade vs all bands.
        let full = sweep(&spec);
        spec.transform = Some(Arc::new(|d: SoundingData| {
            d.with_bands_where(|b| b.channel.index() == 0)
        }));
        let one_band = sweep(&spec);
        assert!(one_band[0].stats.median >= full[0].stats.median);
    }

    #[test]
    fn sweep_populates_the_global_run_report() {
        let scenario = Scenario::build(Clutter::None, 9);
        let positions = sample_positions(&scenario.room, 5, 9);
        let spec = SweepSpec {
            channels: bloc_chan::sounder::all_data_channels()[..9].to_vec(),
            ..SweepSpec::standard(&scenario, &positions, vec![Method::Bloc], 9)
        };
        let registry = bloc_obs::Registry::global();
        let before = registry.snapshot();
        sweep(&spec);
        let run = registry.snapshot().diff(&before);

        // ≥ rather than ==: other tests in this process share the global
        // registry and may be running concurrently.
        let counter = |name: &str| run.counters.get(name).copied().unwrap_or(0);
        assert!(counter("sweep.runs") >= 1);
        assert!(
            counter("sweep.locations") >= 5,
            "locations: {}",
            counter("sweep.locations")
        );
        assert!(counter("localize.calls") >= 5);
        assert!(counter("likelihood.grid_cells") > 0);
        let span = &run.histograms["span.sweep"];
        assert!(span.count >= 1);
        let per_loc = &run.histograms["sweep.location_us"];
        assert!(per_loc.count >= 5);
        assert!(per_loc.sum > 0, "localizing cannot take zero time");

        // The report the bench bins write must survive a JSONL round trip.
        let dir = std::env::temp_dir().join("bloc-obs-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("run-{}.jsonl", std::process::id()));
        run.write_jsonl(&path).unwrap();
        let back = bloc_obs::RunReport::read_jsonl(&path).unwrap();
        assert_eq!(run, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn faulted_sweep_never_panics_and_mostly_fixes() {
        // 30% hop loss plus a scheduled anchor dropout: the sweep must
        // complete, and most locations must still produce an estimate.
        let scenario = Scenario::build(Clutter::None, 11);
        let positions = sample_positions(&scenario.room, 10, 11);
        let n_chans = bloc_chan::sounder::all_data_channels().len();
        let plan = bloc_chan::FaultPlan {
            tag_loss: 0.3,
            master_loss: 0.1,
            dropouts: vec![bloc_chan::AnchorDropout {
                anchor: 2,
                bands: 0..n_chans / 2,
            }],
            ..Default::default()
        };
        let spec =
            SweepSpec::standard(&scenario, &positions, vec![Method::Bloc], 11).with_faults(plan, 2);
        let out = sweep(&spec);
        assert_eq!(out[0].records.len(), 10);
        assert!(
            out[0].failures <= 2,
            "lossy free space should still mostly fix, {} failures",
            out[0].failures
        );
        assert!(out[0].stats.median < 1.0, "median {}", out[0].stats.median);
    }

    #[test]
    fn faulted_sweep_is_deterministic() {
        let scenario = Scenario::build(Clutter::None, 12);
        let positions = sample_positions(&scenario.room, 6, 12);
        let plan = bloc_chan::FaultPlan {
            tag_loss: 0.4,
            master_loss: 0.2,
            ..Default::default()
        };
        let spec = SweepSpec {
            channels: bloc_chan::sounder::all_data_channels()[..12].to_vec(),
            ..SweepSpec::standard(&scenario, &positions, vec![Method::Bloc], 13)
                .with_faults(plan, 1)
        };
        let a = sweep(&spec);
        let b = sweep(&spec);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.records, y.records, "fault draws must be deterministic");
        }
    }

    #[test]
    fn retries_recover_master_blackouts() {
        // A fault rate that sometimes kills every band of a sounding:
        // with a retry budget the location recovers on a fresh draw.
        let scenario = Scenario::build(Clutter::None, 13);
        let positions = sample_positions(&scenario.room, 8, 13);
        let plan = bloc_chan::FaultPlan {
            tag_loss: 0.85,
            ..Default::default()
        };
        let base = SweepSpec {
            channels: bloc_chan::sounder::all_data_channels()[..6].to_vec(),
            ..SweepSpec::standard(&scenario, &positions, vec![Method::Bloc], 17)
        };
        let registry = bloc_obs::Registry::global();
        let no_retry = sweep(&SweepSpec {
            retry: RetryPolicy::with_retries(0),
            fault_plan: Some(plan.clone()),
            ..base.clone()
        });
        let before = registry.snapshot();
        let with_retry = sweep(&SweepSpec {
            retry: RetryPolicy::with_retries(4),
            fault_plan: Some(plan),
            ..base
        });
        let run = registry.snapshot().diff(&before);
        assert!(
            with_retry[0].failures <= no_retry[0].failures,
            "retries must not lose fixes ({} vs {})",
            with_retry[0].failures,
            no_retry[0].failures
        );
        if with_retry[0].failures < no_retry[0].failures {
            assert!(
                run.counters
                    .get("sweep.retry_recovered")
                    .copied()
                    .unwrap_or(0)
                    > 0,
                "recoveries must be counted"
            );
        }
    }

    #[test]
    fn retry_summary_comes_from_the_producing_attempt() {
        // Regression: the retry loop draws fresh faults per attempt, so a
        // record's masking summary must describe the attempt that actually
        // produced its estimate — not attempt 0's stale draw. Mirror the
        // runner's per-attempt derivation sequentially and require the
        // (estimate, summary) pair to match the first succeeding attempt.
        let scenario = Scenario::build(Clutter::None, 21);
        let positions = sample_positions(&scenario.room, 8, 21);
        let channels = bloc_chan::sounder::all_data_channels()[..6].to_vec();
        let plan = bloc_chan::FaultPlan {
            tag_loss: 0.85,
            ..Default::default()
        };
        let spec = SweepSpec {
            channels: channels.clone(),
            ..SweepSpec::standard(&scenario, &positions, vec![Method::Bloc], 17)
                .with_faults(plan.clone(), 4)
        };
        let out = sweep(&spec);

        let sounder = scenario.sounder(spec.sounder_config);
        let localizer = BlocLocalizer::new(scenario.bloc_config());
        let mut recovered_late = 0;
        for (idx, rec) in out[0].records.iter().enumerate() {
            let mut expected: Option<(usize, Eval)> = None;
            for attempt in 0..spec.retry.attempts() {
                let attempt_seed = (spec.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add((attempt as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                let mut rng = StdRng::seed_from_u64(attempt_seed);
                let data = sounder
                    .clone()
                    .with_faults(plan.with_seed(attempt_seed))
                    .sound(rec.truth, &channels, &mut rng);
                if let Some(eval) = evaluate(Method::Bloc, &localizer, &data) {
                    expected = Some((attempt, eval));
                    break;
                }
            }
            match (&expected, &rec.estimate) {
                (Some((attempt, eval)), Some(est)) => {
                    assert_eq!(eval.position, *est, "location {idx}");
                    assert_eq!(
                        eval.degradation, rec.degradation,
                        "location {idx}: summary must come from attempt {attempt}"
                    );
                    if *attempt > 0 {
                        recovered_late += 1;
                    }
                }
                (None, None) => {}
                (e, r) => panic!("location {idx}: replay {e:?} vs sweep {r:?}"),
            }
        }
        assert!(
            recovered_late > 0,
            "the plan must force at least one location to fix on a retry"
        );
    }

    /// The bits of every tag measurement: identifies one sounding.
    fn fingerprint(d: &SoundingData) -> Vec<[u64; 2]> {
        d.bands
            .iter()
            .flat_map(|b| b.tag_to_anchor.iter().flatten())
            .map(|h| [h.re.to_bits(), h.im.to_bits()])
            .collect()
    }

    #[test]
    fn batched_sweep_equals_location_by_location_localize() {
        // 37 locations: nine full batches and a ragged one of one, under
        // a lossy fault plan with retries, and a transform that panics
        // while sounding one location's first attempt. Every record must
        // equal localizing its location alone with the same seeds.
        let scenario = Scenario::build(Clutter::WallsOnly, 23);
        let positions = sample_positions(&scenario.room, 37, 23);
        let channels = bloc_chan::sounder::all_data_channels()[..6].to_vec();
        let plan = bloc_chan::FaultPlan {
            tag_loss: 0.8,
            ..Default::default()
        };
        let methods = vec![Method::Bloc, Method::BlocArgmax];
        let base = SweepSpec {
            channels: channels.clone(),
            ..SweepSpec::standard(&scenario, &positions, methods.clone(), 29)
                .with_faults(plan.clone(), 2)
        };
        let sounder = scenario.sounder(base.sounder_config);
        let sound = |idx: usize, attempt: usize| {
            let attempt_seed = (base.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((attempt as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            sounder
                .clone()
                .with_faults(plan.with_seed(attempt_seed))
                .sound(
                    positions[idx],
                    &channels,
                    &mut StdRng::seed_from_u64(attempt_seed),
                )
        };
        let panics = fingerprint(&sound(5, 0));
        let spec = SweepSpec {
            transform: Some(Arc::new(move |d: SoundingData| {
                if fingerprint(&d) == panics {
                    panic!("injected sounding panic");
                }
                d
            })),
            ..base.clone()
        };
        let out = sweep(&spec);

        let transform = spec.transform.clone().expect("set above");
        let localizer = scenario.localizer();
        let (mut transform_panics, mut late) = (0, 0);
        for idx in 0..positions.len() {
            let mut expected: Vec<Option<Eval>> = vec![None; methods.len()];
            for attempt in 0..spec.retry.attempts() {
                let data = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    transform(sound(idx, attempt))
                }));
                let Ok(data) = data else {
                    transform_panics += 1;
                    continue;
                };
                expected = methods
                    .iter()
                    .map(|&m| evaluate(m, &localizer, &data))
                    .collect();
                if expected.iter().any(Option::is_some) {
                    late += usize::from(attempt > 0);
                    break;
                }
            }
            for (outcome, want) in out.iter().zip(&expected) {
                let rec = &outcome.records[idx];
                let what = format!("location {idx}, {:?}", outcome.method);
                assert_eq!(rec.estimate, want.as_ref().map(|e| e.position), "{what}");
                assert_eq!(
                    rec.degradation,
                    want.as_ref().and_then(|e| e.degradation.clone()),
                    "{what}"
                );
            }
        }
        assert_eq!(transform_panics, 1, "one sounding panics");
        assert!(late > 0, "the plan must force a fix on a retry");
        assert!(
            out[0].records.iter().any(|r| r.estimate.is_none()),
            "the plan must leave a location without a fix"
        );
    }

    #[test]
    fn a_panicking_batch_is_redone_location_by_location() {
        // An evaluation that panics whenever location 2 is among its
        // soundings takes the whole batch down: every location is then
        // evaluated alone, so only location 2 loses its estimates, the
        // rest equal their own evaluation, and one panic is counted. A
        // location whose sounding panicked stays blank.
        let scenario = Scenario::build(Clutter::None, 15);
        let positions = sample_positions(&scenario.room, 4, 15);
        let channels = bloc_chan::sounder::all_data_channels()[..6].to_vec();
        let sounder = scenario.sounder(SounderConfig::default());
        let mut rng = StdRng::seed_from_u64(15);
        let sounded: Vec<Option<SoundingData>> = positions
            .iter()
            .enumerate()
            .map(|(k, &p)| (k != 1).then(|| sounder.sound(p, &channels, &mut rng)))
            .collect();
        let localizer = scenario.localizer();
        let target = fingerprint(sounded[2].as_ref().expect("sounded"));
        let evaluate_batch = |batch: &[&SoundingData]| {
            if batch.iter().any(|d| fingerprint(d) == target) {
                panic!("injected evaluation panic");
            }
            evaluate_methods(&[Method::Bloc], &localizer, batch)
        };
        let mut stats = LocalStats::new();
        let first = evaluate_first_attempt(&mut stats, &evaluate_batch, &sounded);
        assert_eq!(first.len(), 4);
        assert!(first[1].is_none() && first[2].is_none());
        for k in [0, 3] {
            let data = sounded[k].as_ref().expect("sounded");
            let alone = evaluate(Method::Bloc, &localizer, data).map(|e| e.position);
            let got = first[k].as_ref().expect("evaluated")[0]
                .as_ref()
                .map(|e| e.position);
            assert_eq!(got, alone, "location {k}");
            assert!(got.is_some());
        }
        let registry = bloc_obs::Registry::new();
        stats.merge_into(&registry);
        assert_eq!(registry.snapshot().counters["sweep.panics_caught"], 1);
    }

    #[test]
    fn panicking_location_is_caught_not_fatal() {
        let scenario = Scenario::build(Clutter::None, 14);
        let positions = sample_positions(&scenario.room, 4, 14);
        let mut spec = SweepSpec {
            channels: bloc_chan::sounder::all_data_channels()[..6].to_vec(),
            ..SweepSpec::standard(&scenario, &positions, vec![Method::Bloc], 19)
        };
        // A transform that panics on exactly one sounding: the counter is
        // shared across workers, so precisely one location takes the hit
        // (no retries configured) and loses its estimates.
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let hits_in = std::sync::Arc::clone(&hits);
        spec.transform = Some(Arc::new(move |d: SoundingData| {
            if hits_in.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 2 {
                panic!("injected test panic");
            }
            d
        }));
        let registry = bloc_obs::Registry::global();
        let before = registry.snapshot();
        let out = sweep(&spec);
        let run = registry.snapshot().diff(&before);
        assert_eq!(out[0].records.len(), 4);
        assert!(
            run.counters
                .get("sweep.panics_caught")
                .copied()
                .unwrap_or(0)
                >= 1,
            "the injected panic must be counted"
        );
        // Exactly one location lost its estimate to the panic (no retries
        // configured), the rest are intact.
        assert_eq!(out[0].failures, 1);
    }

    #[test]
    fn methods_share_the_same_sounding() {
        // BlocArgmax and Bloc in clean conditions must give identical
        // estimates — they consume the same measurement.
        let scenario = Scenario::build(Clutter::None, 8);
        let positions = sample_positions(&scenario.room, 4, 4);
        let spec = SweepSpec {
            sounder_config: bloc_chan::sounder::SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
            ..SweepSpec::standard(
                &scenario,
                &positions,
                vec![Method::Bloc, Method::BlocArgmax],
                6,
            )
        };
        let out = sweep(&spec);
        for (a, b) in out[0].records.iter().zip(&out[1].records) {
            assert!(a.estimate.unwrap().dist(b.estimate.unwrap()) < 0.3);
        }
    }
}
