//! The parallel location sweep: evaluate localization methods over many
//! tag positions.
//!
//! The paper's procedure (§7): move the tag to a location, measure
//! channels at every anchor, estimate, compare with ground truth, repeat
//! 1700 times. Here each location is sounded once and every method under
//! test consumes the *same* sounding — exactly the paper's "using the same
//! number of antennas and the same set of channel measurements" comparison
//! discipline. Locations fan out across all CPU cores through
//! [`bloc_num::par::sharded_map_named`] (the `sweep` region); each worker
//! owns its sounder and runs its fixes on its own thread, every worker
//! records into the same `sweep.*` metrics (resolved once per sweep), and
//! results come back in dataset order by construction.
//!
//! Locations run in batches of `BATCH` consecutive ones. A batch's
//! first attempt sounds every location under its own panic guard, then
//! localizes them together ([`BlocLocalizer::localize_batch`]), so their
//! Eq. 17 sweeps share each cell's lattice lookup. A panic is still
//! isolated per location: if the batch's localization panics, each
//! location is localized again alone under its own guard. Every record
//! equals what a location-by-location sweep produces, bit for bit.
//!
//! Every worker localizes through the scenario's [`Scenario::localizer`],
//! which runs on the engine the scenario owns. The deployment's steering
//! tables are therefore built by the first sweep over a scenario (or any
//! clone of it) and reused by every later one; only a transform that
//! changes the anchor geometry or the frequency comb builds new ones.

use std::sync::Arc;
use std::time::Instant;

use bloc_obs::{Counter, Histogram, Registry};
use serde::{Deserialize, Serialize};

use bloc_ble::channels::Channel;
use bloc_chan::sounder::{SounderConfig, SoundingData};
use bloc_core::baselines::{aoa, rssi};
use bloc_core::{BlocLocalizer, Estimate, LocalizeError};
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
        }
    }
}

/// Consecutive locations a sweep localizes as one batch: one per tag the
/// Eq. 17 cell kernel sweeps together.
pub(crate) const BATCH: usize = bloc_num::sweep::MAX_TAGS;

/// The sweep's metrics on one registry, resolved once per sweep and
/// shared by every worker.
struct SweepStats {
    /// `sweep.locations`: locations evaluated (the benchmark reconciles it).
    locations: Arc<Counter>,
    /// `sweep.sound_us`: one sounding's time (`all_figures` reads it).
    sound_us: Arc<Histogram>,
    /// `sweep.panics_caught`: soundings or evaluations that panicked.
    panics_caught: Arc<Counter>,
}

impl SweepStats {
    fn on(registry: &Registry) -> Self {
        Self {
            locations: registry.counter("sweep.locations"),
            sound_us: registry.histogram("sweep.sound_us"),
            panics_caught: registry.counter("sweep.panics_caught"),
        }
    }
}

/// Runs the sweep across all CPU cores. Returns one outcome per requested
/// method, in the order requested; records are in dataset order regardless
/// of scheduling.
pub fn sweep(spec: &SweepSpec<'_>) -> Vec<SweepOutcome> {
    let n = spec.positions.len();
    let n_methods = spec.methods.len();
    let localizer = spec.scenario.localizer();
    let evaluate = |batch: &[&SoundingData]| evaluate_methods(&spec.methods, &localizer, batch);

    let _span = bloc_obs::span("sweep");
    let stats = SweepStats::on(Registry::global());

    // Per-worker state: a private sounder. Batches are sharded by stride
    // and reassembled in dataset order by the executor. One batch is up
    // to four full soundings + localizations — coarse enough that a
    // single one justifies a worker.
    let n_batches = n.div_ceil(BATCH);
    let threads = bloc_num::par::tuned_threads(n_batches, bloc_num::par::max_threads(), 1);
    let per_batch: Vec<Vec<Vec<Option<P2>>>> = bloc_num::par::sharded_map_named(
        "sweep",
        n_batches,
        threads,
        |_t| spec.scenario.sounder(spec.sounder_config),
        |sounder, b| {
            let locations = b * BATCH..(b * BATCH + BATCH).min(n);
            let sounded: Vec<Option<SoundingData>> = locations
                .map(|idx| sound_location(spec, &stats, sounder, idx))
                .collect();
            evaluate_batch(&stats, &evaluate, &sounded)
                .into_iter()
                .map(|evals| {
                    stats.locations.inc();
                    evals.unwrap_or_else(|| vec![None; n_methods])
                })
                .collect()
        },
    );
    let per_location = per_batch.into_iter().flatten();

    let mut per_method: Vec<Vec<LocRecord>> = vec![
        vec![
            LocRecord {
                truth: P2::ORIGIN,
                estimate: None,
                error: f64::NAN,
            };
            n
        ];
        n_methods
    ];
    for (idx, estimates) in per_location.enumerate() {
        let truth = spec.positions[idx];
        for (m, position) in estimates.into_iter().enumerate() {
            per_method[m][idx] = LocRecord {
                truth,
                estimate: position,
                error: position.map(|e| e.dist(truth)).unwrap_or(f64::NAN),
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

/// Sounds location `idx` under its own panic guard: its noise draw, then
/// the spec's transform. `None` (counted in `sweep.panics_caught`) when
/// either panicked.
fn sound_location(
    spec: &SweepSpec<'_>,
    stats: &SweepStats,
    sounder: &bloc_chan::Sounder,
    idx: usize,
) -> Option<SoundingData> {
    // Deterministic per-location stream, independent of the thread count
    // and the batching.
    let mut rng = StdRng::seed_from_u64(location_seed(spec.seed, idx));
    // One bad location must not take down the sweep — isolate it, count
    // it, and leave its record blank.
    let sounded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let start = Instant::now();
        let data = sounder.sound(spec.positions[idx], &spec.channels, &mut rng);
        stats
            .sound_us
            .record(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        match &spec.transform {
            Some(transform) => transform(data),
            None => data,
        }
    }));
    if sounded.is_err() {
        stats.panics_caught.inc();
    }
    sounded.ok()
}

/// The noise seed of location `idx` in a sweep seeded with `seed`.
fn location_seed(seed: u64, idx: usize) -> u64 {
    seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Evaluates every method under test on a batch of soundings: per
/// sounding, one output per method.
type Evaluate<'e> = dyn Fn(&[&SoundingData]) -> Vec<Vec<Option<P2>>> + 'e;

/// `evaluate` on one location's sounding under its own panic guard;
/// `None` (counted in `sweep.panics_caught`) when evaluation panicked.
fn evaluate_alone(
    stats: &SweepStats,
    evaluate: &Evaluate<'_>,
    data: &SoundingData,
) -> Option<Vec<Option<P2>>> {
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| evaluate(&[data]).pop()));
    if outcome.is_err() {
        stats.panics_caught.inc();
    }
    outcome.ok().flatten()
}

/// A batch's sounded locations evaluated together. A panicking batch is
/// redone one location at a time, so the panic is charged to the
/// location that raised it. `None` for a location whose sounding or
/// evaluation panicked.
fn evaluate_batch(
    stats: &SweepStats,
    evaluate: &Evaluate<'_>,
    sounded: &[Option<SoundingData>],
) -> Vec<Option<Vec<Option<P2>>>> {
    let batch: Vec<&SoundingData> = sounded.iter().flatten().collect();
    let together = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| evaluate(&batch)));
    match together {
        Ok(evals) => {
            let mut evals = evals.into_iter();
            sounded
                .iter()
                .map(|data| {
                    data.as_ref()?;
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

/// Every method on every sounding of a batch: per sounding, one output
/// per method in `methods` order. `Method::Bloc` localizes the batch in
/// one [`BlocLocalizer::localize_batch`] call; the others run per
/// sounding.
fn evaluate_methods(
    methods: &[Method],
    localizer: &BlocLocalizer,
    batch: &[&SoundingData],
) -> Vec<Vec<Option<P2>>> {
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
) -> Option<P2> {
    let estimate = match method {
        Method::Bloc => fix.and_then(|f| f.as_ref().ok()).map(|e| e.position),
        Method::BlocShortestDistance => localizer
            .localize_shortest_distance(data)
            .map(|e| e.position),
        Method::BlocArgmax => localizer.localize_argmax(data).map(|e| e.position),
        Method::AoaBaseline => aoa::localize(data, &aoa::AoaConfig::default()),
        Method::RssiBaseline => rssi::localize(data, &rssi::RssiConfig::default()),
    };
    // Every method knows the deployment region (BLoc searches only inside
    // it); clamping the open-form baselines' estimates into the same
    // region keeps the comparison fair when a degenerate triangulation
    // shoots a fix far outside the building.
    let spec = localizer.config().grid;
    estimate.map(|p| {
        P2::new(
            p.x.clamp(
                spec.origin.x,
                spec.origin.x + spec.nx as f64 * spec.resolution,
            ),
            p.y.clamp(
                spec.origin.y,
                spec.origin.y + spec.ny as f64 * spec.resolution,
            ),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::sample_positions;
    use crate::scenario::Clutter;

    /// One method's output on one sounding, localized alone.
    fn evaluate(method: Method, localizer: &BlocLocalizer, data: &SoundingData) -> Option<P2> {
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
    /// carrier of the bands `data` was sounded on (a hit once a sweep has built them).
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
            plan.carrier_hz,
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
        assert!(
            counter("sweep.locations") >= 5,
            "locations: {}",
            counter("sweep.locations")
        );
        assert!(counter("localize.calls") >= 5);
        assert!(counter("engine.cells_evaluated") > 0);
        let span = &run.histograms["span.sweep"];
        assert!(span.count >= 1);
        let sound = &run.histograms["sweep.sound_us"];
        assert!(sound.count >= 5);
        assert!(sound.sum > 0, "sounding cannot take zero time");

        // The report the bench bins write must survive a JSONL round trip.
        let dir = std::env::temp_dir().join("bloc-obs-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("run-{}.jsonl", std::process::id()));
        run.write_jsonl(&path).unwrap();
        let back = bloc_obs::RunReport::read_jsonl(&path).unwrap();
        assert_eq!(run, back);
        std::fs::remove_file(&path).ok();
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
        // 37 locations: nine full batches and a ragged one of one, and a
        // transform that panics while sounding one location. Every record
        // must equal localizing its location alone with the same seed,
        // and the panicking location's record stays blank.
        let scenario = Scenario::build(Clutter::WallsOnly, 23);
        let positions = sample_positions(&scenario.room, 37, 23);
        let channels = bloc_chan::sounder::all_data_channels()[..6].to_vec();
        let methods = vec![Method::Bloc, Method::BlocArgmax];
        let base = SweepSpec {
            channels: channels.clone(),
            ..SweepSpec::standard(&scenario, &positions, methods.clone(), 29)
        };
        let sounder = scenario.sounder(base.sounder_config);
        let sound = |idx: usize| {
            sounder.sound(
                positions[idx],
                &channels,
                &mut StdRng::seed_from_u64(location_seed(base.seed, idx)),
            )
        };
        let panics = fingerprint(&sound(5));
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
        let mut transform_panics = 0;
        for idx in 0..positions.len() {
            let data =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| transform(sound(idx))));
            let expected: Vec<Option<P2>> = match data {
                Ok(data) => methods
                    .iter()
                    .map(|&m| evaluate(m, &localizer, &data))
                    .collect(),
                Err(_) => {
                    transform_panics += 1;
                    vec![None; methods.len()]
                }
            };
            for (outcome, want) in out.iter().zip(&expected) {
                let what = format!("location {idx}, {:?}", outcome.method);
                assert_eq!(outcome.records[idx].estimate, *want, "{what}");
            }
        }
        assert_eq!(transform_panics, 1, "one sounding panics");
        assert!(out.iter().all(|o| o.records[5].estimate.is_none()));
        assert!(
            out[0]
                .records
                .iter()
                .filter(|r| r.estimate.is_some())
                .count()
                > 30,
            "a fault-free sweep fixes the other locations"
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
        let evaluate_panicking = |batch: &[&SoundingData]| {
            if batch.iter().any(|d| fingerprint(d) == target) {
                panic!("injected evaluation panic");
            }
            evaluate_methods(&[Method::Bloc], &localizer, batch)
        };
        let registry = bloc_obs::Registry::new();
        let evals = evaluate_batch(&SweepStats::on(&registry), &evaluate_panicking, &sounded);
        assert_eq!(evals.len(), 4);
        assert!(evals[1].is_none() && evals[2].is_none());
        for k in [0, 3] {
            let data = sounded[k].as_ref().expect("sounded");
            let alone = evaluate(Method::Bloc, &localizer, data);
            let got = evals[k].as_ref().expect("evaluated")[0];
            assert_eq!(got, alone, "location {k}");
            assert!(got.is_some());
        }
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
        // and loses its estimates.
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
        // Exactly one location lost its estimate to the panic, the rest
        // are intact.
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
