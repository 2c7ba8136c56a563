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
use bloc_core::{BlocConfig, BlocLocalizer, HierarchicalConfig, HierarchicalLocalizer};
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
