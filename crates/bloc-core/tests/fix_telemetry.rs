//! Per-fix telemetry contract: every localization entry point records a
//! fix's outcome exactly once, so the registry's families reconcile
//! whichever entry point ran.
//!
//! * `fault.recovered.*` mirrors `fault.injected.*` for multi-burst fixes
//!   too: every hole the fault plan punched into any burst is counted as
//!   masked.
//! * A hierarchical fix that fails counts one `localize.no_fix`, exactly
//!   like a dense one.
//! * A dense fix, a seeded hierarchical fix and a supervised round record
//!   exactly the names something reads.
//!
//! These tests read counter deltas on the process-wide registry, so they
//! live in their own test binary and serialize on one lock.

use std::sync::Mutex;

use bloc_chan::geometry::Room;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
use bloc_chan::{AnchorArray, AnchorDropout, Environment, FaultPlan, RangeLoss};
use bloc_core::{
    BlocConfig, BlocLocalizer, EscapeReason, FallbackConfig, FallbackStack, FingerprintDb,
    HierarchicalConfig, HierarchicalEstimate, HierarchicalLocalizer, LocalizeError,
    PacketCountModel, RoundOutcome, RuntimeConfig, SessionSupervisor,
};
use bloc_num::P2;
use rand::rngs::StdRng;
use rand::SeedableRng;

static REGISTRY: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    bloc_obs::counter(name).get()
}

fn anchors(room: &Room) -> Vec<AnchorArray> {
    room.wall_midpoints()
        .iter()
        .zip(room.walls().iter())
        .enumerate()
        .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
        .collect()
}

#[test]
fn multi_burst_fix_recovers_every_injected_hole() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let chans = all_data_channels();
    let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
    let plan = FaultPlan {
        seed: 31,
        tag_loss: 0.3,
        master_loss: 0.05,
        ..Default::default()
    };
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let mut rng = StdRng::seed_from_u64(32);

    let injected_before = counter("fault.injected.holes");
    let recovered_before = counter("fault.recovered.holes");
    let bursts: Vec<_> = (0..4u64)
        .map(|k| {
            sounder.clone().with_faults(plan.with_seed(31 + k)).sound(
                P2::new(2.3, 3.1),
                &chans,
                &mut rng,
            )
        })
        .collect();
    let injected = counter("fault.injected.holes") - injected_before;
    assert!(injected > 0, "the plan must punch holes");

    let est = localizer
        .localize_fused(&bursts)
        .expect("lossy bursts still fix");
    let recovered = counter("fault.recovered.holes") - recovered_before;
    assert_eq!(recovered, injected, "every injected hole is recovered once");
    assert_eq!(est.degradation.holes_masked as u64, injected);
}

#[test]
fn failed_hierarchical_fix_counts_one_no_fix() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let chans = all_data_channels();
    // Every slave dark for the whole sweep: only the master survives,
    // so no solver can fix.
    let plan = FaultPlan {
        seed: 33,
        dropouts: (1..anchors.len())
            .map(|anchor| AnchorDropout {
                anchor,
                bands: 0..chans.len(),
            })
            .collect(),
        ..Default::default()
    };
    let sounder = Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan);
    let hier = HierarchicalLocalizer::new(
        BlocLocalizer::new(BlocConfig::for_room(&room)),
        HierarchicalConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(34);
    let data = sounder.sound(P2::new(2.0, 3.0), &chans, &mut rng);

    let before = counter("localize.no_fix");
    assert!(hier.localize(&data).is_err());
    assert_eq!(counter("localize.no_fix") - before, 1);

    let before = counter("localize.no_fix");
    assert!(hier.localize_seeded(&data, P2::new(2.0, 3.0), 0.5).is_err());
    assert_eq!(counter("localize.no_fix") - before, 1);
}

/// A multi-burst fix that cannot stand is refused on its corrected
/// evidence, before the Eq. 17 sweep: no cell is evaluated for it.
#[test]
fn fused_fix_refuses_before_sweeping() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let chans = all_data_channels();
    // Every slave dark for the whole sweep in every burst: only the
    // master survives.
    let plan = FaultPlan {
        seed: 35,
        dropouts: (1..anchors.len())
            .map(|anchor| AnchorDropout {
                anchor,
                bands: 0..chans.len(),
            })
            .collect(),
        ..Default::default()
    };
    let sounder = Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan);
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let mut rng = StdRng::seed_from_u64(36);
    let bursts: Vec<_> = (0..4)
        .map(|_| sounder.sound(P2::new(2.0, 3.0), &chans, &mut rng))
        .collect();

    let before = counter("engine.cells_evaluated");
    assert_eq!(
        localizer.localize_fused(&bursts).unwrap_err(),
        LocalizeError::TooFewUsableAnchors {
            usable: 1,
            total: 4
        }
    );
    assert_eq!(
        counter("engine.cells_evaluated") - before,
        0,
        "a refused fix sweeps nothing"
    );
}

/// One dense fix in the paper testbed's room (5 m × 6 m, 8 cm grid, four
/// 4-antenna anchors at the wall midpoints) charges exactly its 75×88
/// grid cells once per anchor: 26,400 `engine.cells_evaluated`. A search
/// that sweeps a cell twice, or a sweep that stops counting, fails here.
/// Its four lattices hold 3,776 profile rows × lanes
/// (`engine.profile_rows`): a lattice that widened, or a profile built
/// twice, fails here too.
#[test]
fn dense_paper_room_fix_charges_26400_cells() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let grid = localizer.config().grid;
    assert_eq!((grid.nx, grid.ny), (75, 88));
    let mut rng = StdRng::seed_from_u64(41);
    let data = sounder.sound(P2::new(2.1, 3.2), &all_data_channels(), &mut rng);

    let before = counter("engine.cells_evaluated");
    let rows_before = counter("engine.profile_rows");
    let checks_before = counter("multipath.dominance_checks");
    let est = localizer.localize(&data).expect("clean fix");
    assert!(est.degradation.anchors_excluded.is_empty());
    assert_eq!(counter("engine.cells_evaluated") - before, 26_400);
    assert_eq!(counter("engine.profile_rows") - rows_before, 3_776);
    assert_eq!(counter("multipath.dominance_checks") - checks_before, 9);
}

/// A seeded hierarchical fix in the paper room (the fixture
/// `each_fix_records_exactly_the_names_that_are_read` runs) sweeps one
/// 33×33 patch per anchor — 4,356 cells — over lattices of 2,016 profile
/// rows × lanes: the patch's own `Δ` range, not the grid's.
#[test]
fn seeded_fix_builds_only_its_patch_lattices() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
    let tag = P2::new(2.1, 3.2);
    let mut rng = StdRng::seed_from_u64(61);
    let data = sounder.sound(tag, &all_data_channels(), &mut rng);
    let hier = HierarchicalLocalizer::new(
        BlocLocalizer::new(BlocConfig::for_room(&room)),
        HierarchicalConfig::default(),
    );

    let (cells, rows, checks) = (
        counter("engine.cells_evaluated"),
        counter("engine.profile_rows"),
        counter("multipath.dominance_checks"),
    );
    let h = hier.localize_seeded(&data, tag, 0.5).expect("seeded fix");
    assert_eq!((h.escape, h.seeded), (None, true));
    assert_eq!(counter("engine.cells_evaluated") - cells, 4_356);
    assert_eq!(counter("engine.profile_rows") - rows, 2_016);
    assert_eq!(counter("multipath.dominance_checks") - checks, 2);
}

/// A dense fix sweeps each alive anchor once, inside one
/// `par.likelihood` region: four regions for the paper room's four
/// anchors. A 4-tag batch shares each anchor's sweep, so it runs four
/// regions too. The benchmark divides the regions' summed wall time by
/// their count for `engine.us_per_call`, so a region split or merged
/// here moves that figure.
#[test]
fn likelihood_regions_run_once_per_alive_anchor() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let chans = all_data_channels();
    let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let mut rng = StdRng::seed_from_u64(43);
    let tags = [(2.1, 3.2), (1.2, 4.1), (3.6, 1.5), (4.1, 4.4)];
    let soundings: Vec<_> = tags
        .iter()
        .map(|&(x, y)| sounder.sound(P2::new(x, y), &chans, &mut rng))
        .collect();
    let regions = |fix: &dyn Fn()| {
        let before = bloc_obs::Registry::global().snapshot();
        fix();
        let run = bloc_obs::Registry::global().snapshot().diff(&before);
        run.histograms["par.likelihood.wall_us"].count
    };

    let dense = regions(&|| {
        let est = localizer.localize(&soundings[0]).expect("clean fix");
        assert!(est.degradation.anchors_excluded.is_empty());
    });
    assert_eq!(dense, 4, "one region per alive anchor");
    let batch = regions(&|| {
        let batch: Vec<_> = soundings.iter().collect();
        for fix in localizer.localize_batch(&batch) {
            fix.expect("clean fix");
        }
    });
    assert_eq!(batch, 4, "a 4-tag batch shares each anchor's region");
}

/// Every path through the search loop charges its estimate's cell ledger
/// exactly what the engine counted: the small-grid start, the coarse→fine
/// search, the seeded fast path, and the seeded escapes (including the
/// cells of the abandoned patch). A dense fix costs the grid's cells once
/// per alive anchor.
#[test]
fn cell_ledger_reconciles_on_every_path() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let sounder = Sounder::new(
        &env,
        &anchors,
        SounderConfig {
            antenna_phase_err_std: 0.0,
            ..Default::default()
        },
    );
    let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
    let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
    let small = HierarchicalLocalizer::new(
        BlocLocalizer::new(BlocConfig::for_room(&room).with_resolution(0.3)),
        HierarchicalConfig::default(),
    );
    // The sounding `bad_seed_escapes_to_full_flow` escapes on.
    let mut rng = StdRng::seed_from_u64(54);
    let tag = P2::new(4.0, 4.5);
    let data = sounder.sound(tag, &all_data_channels(), &mut rng);

    let ledger = |path: &str, fix: &dyn Fn() -> Result<HierarchicalEstimate, LocalizeError>| {
        let before = counter("engine.cells_evaluated");
        let h = fix().unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(
            counter("engine.cells_evaluated") - before,
            h.cells_evaluated as u64,
            "{path}: engine counter vs estimate ledger"
        );
        h
    };

    let h = ledger("small grid", &|| small.localize(&data));
    assert_eq!(h.escape, Some(EscapeReason::SmallGrid));

    let full = ledger("coarse→fine", &|| hier.localize(&data));
    assert_eq!((full.escape, full.seeded), (None, false));
    assert!(full.candidates_refined > 0);

    let h = ledger("seeded", &|| {
        hier.localize_seeded(&data, full.estimate.position, 0.5)
    });
    assert_eq!((h.escape, h.seeded), (None, true));

    let h = ledger("patch too large", &|| {
        hier.localize_seeded(&data, tag, 50.0)
    });
    assert_eq!(h.escape, Some(EscapeReason::PatchTooLarge));

    let h = ledger("bad seed", &|| {
        hier.localize_seeded(&data, P2::new(2.8, 3.3), 0.2)
    });
    assert!(
        matches!(
            h.escape,
            Some(EscapeReason::PeakAtBoundary) | Some(EscapeReason::NoLocalPeak)
        ),
        "{:?}",
        h.escape
    );
    assert!(
        h.cells_evaluated > full.cells_evaluated,
        "the patch is charged too"
    );

    let before = counter("engine.cells_evaluated");
    let est = dense.localize(&data).expect("dense fix");
    let alive = est.degradation.anchors_total - est.degradation.anchors_excluded.len();
    assert_eq!(
        counter("engine.cells_evaluated") - before,
        (dense.config().grid.len() * alive) as u64
    );
}

/// Asserts that `fix` records exactly the `counters` and `histograms`
/// named in the global registry.
fn assert_records(what: &str, counters: &[&str], histograms: &[&str], fix: impl FnOnce()) {
    let before = bloc_obs::Registry::global().snapshot();
    fix();
    let run = bloc_obs::Registry::global().snapshot().diff(&before);
    assert_eq!(
        run.counters.keys().collect::<Vec<_>>(),
        counters,
        "{what}: counters"
    );
    assert_eq!(
        run.histograms.keys().collect::<Vec<_>>(),
        histograms,
        "{what}: histograms"
    );
}

/// Every name one fix records has a reader (a gate, a soak row, a figure
/// binary, a reconciling test or the benchmark): a dense fix, a seeded
/// hierarchical fix and a supervised round with a fallback stack record
/// exactly these counters and histograms, so a name added without a
/// reader fails here.
#[test]
fn each_fix_records_exactly_the_names_that_are_read() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let chans = all_data_channels();
    let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
    let tag = P2::new(2.1, 3.2);
    let mut rng = StdRng::seed_from_u64(61);
    let data = sounder.sound(tag, &chans, &mut rng);

    let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
    assert_records(
        "dense fix",
        &[
            "cache.steering.misses",
            "engine.cells_evaluated",
            "engine.profile_rows",
            "localize.calls",
            "multipath.dominance_checks",
        ],
        &[
            "par.likelihood.busy_us",
            "par.likelihood.wall_us",
            "span.localize",
            "span.localize/correct",
            "span.localize/likelihood",
            "span.localize/score_peaks",
        ],
        || {
            dense.localize(&data).expect("clean fix");
        },
    );

    let hier = HierarchicalLocalizer::new(
        BlocLocalizer::new(BlocConfig::for_room(&room)),
        HierarchicalConfig::default(),
    );
    assert_records(
        "seeded hierarchical fix",
        &[
            "cache.steering.misses",
            "engine.cells_evaluated",
            "engine.profile_rows",
            "hier.localize.seeded",
            "multipath.dominance_checks",
        ],
        &[
            "par.likelihood.busy_us",
            "par.likelihood.wall_us",
            "span.hier.localize_seeded",
            "span.hier.localize_seeded/correct",
            "span.hier.localize_seeded/likelihood",
            "span.hier.localize_seeded/score_peaks",
        ],
        || {
            hier.localize_seeded(&data, tag, 0.5).expect("seeded fix");
        },
    );

    let mut db = FingerprintDb::new(chans.len(), anchors.len());
    for yi in 0..3 {
        for xi in 0..3 {
            let pos = P2::new(1.0 + xi as f64 * 1.5, 1.0 + yi as f64 * 2.0);
            db.insert(pos, &sounder.sound(pos, &chans, &mut rng))
                .expect("survey shapes agree");
        }
    }
    let stack = FallbackStack::new(FallbackConfig::default())
        .with_fingerprints(db)
        .with_counts(PacketCountModel::new(
            0.0,
            RangeLoss {
                d0: 1.0,
                per_m: 0.12,
                max: 0.8,
            },
        ));
    let mut sup = SessionSupervisor::new(
        BlocLocalizer::new(BlocConfig::for_room(&room)),
        anchors.len(),
        RuntimeConfig::default(),
    )
    .with_fallback(stack);
    let lossy = sounder
        .clone()
        .with_faults(FaultPlan {
            seed: 62,
            tag_loss: 0.3,
            ..Default::default()
        })
        .sound(tag, &chans, &mut rng);
    // The lossy fix is refined with the fallback priors.
    assert_records(
        "supervised round",
        &[
            "cache.steering.misses",
            "engine.cells_evaluated",
            "engine.profile_rows",
            "fallback.counts.localizations",
            "fallback.knn.queries",
            "fallback.refined_fixes",
            "fault.recovered.bands_dropped",
            "fault.recovered.holes",
            "localize.calls",
            "multipath.dominance_checks",
            "runtime.rounds",
            "runtime.rounds.fixed",
        ],
        &[
            "par.likelihood.busy_us",
            "par.likelihood.wall_us",
            "span.localize",
            "span.localize/correct",
            "span.localize/likelihood",
            "span.localize/score_peaks",
            "span.score_peaks",
        ],
        || {
            let out = sup.run_round(0.5, |_| lossy.clone());
            assert!(matches!(out, RoundOutcome::Fix(_)));
        },
    );
}
