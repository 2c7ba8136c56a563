//! Per-fix telemetry contract: every localization entry point records a
//! fix's outcome exactly once, so the registry's families reconcile
//! whichever entry point ran.
//!
//! * `fault.recovered.*` mirrors `fault.injected.*` for multi-burst fixes
//!   too: every hole the fault plan punched into any burst is counted as
//!   masked.
//! * A hierarchical fix that fails counts one `localize.no_fix`, exactly
//!   like a dense one.
//!
//! These tests read counter deltas on the process-wide registry, so they
//! live in their own test binary and serialize on one lock.

use std::sync::Mutex;

use bloc_chan::geometry::Room;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
use bloc_chan::{AnchorArray, AnchorDropout, Environment, FaultPlan};
use bloc_core::{
    BlocConfig, BlocLocalizer, EscapeReason, HierarchicalConfig, HierarchicalEstimate,
    HierarchicalLocalizer, LocalizeError,
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
