//! `fault` row: bare [`bloc_core::BlocLocalizer::localize`] under every
//! fault class at once — the background menu plus anchor 2 dark for the
//! first half of the sweep — over 100 locations, one sounding each.
//!
//! Fails unless: no location panics; every location returns a fix with a
//! populated `DegradationReport` or a typed `LocalizeError`; each fix's
//! report masked exactly the holes its plan's census predicts; and the
//! books reconcile, injected holes == masked holes.

use bloc_chan::sounder::all_data_channels;
use bloc_chan::AnchorDropout;
use bloc_num::stats;
use bloc_testbed::dataset::sample_positions;
use bloc_testbed::scenario::Scenario;

use crate::{background_faults, banner, guarded, reconcile, seed_at, sound, SEED};

/// Locations swept.
const LOCATIONS: usize = 100;

pub fn run() -> bool {
    banner("Fault-injection soak", LOCATIONS);
    let scenario = Scenario::paper_testbed(SEED);
    let positions = sample_positions(&scenario.room, LOCATIONS, SEED ^ 0xFA);
    let channels = all_data_channels();
    let localizer = scenario.localizer();
    let sounder = scenario.sounder(Default::default());
    // The dropout and the dead antenna are scheduled, not drawn, so every
    // sounding is degraded and every fix must carry a populated report.
    let plan = bloc_chan::FaultPlan {
        dropouts: vec![AnchorDropout {
            anchor: 2,
            bands: 0..channels.len() / 2,
        }],
        ..background_faults()
    };

    let books = reconcile::open();
    let (mut panics, mut clean_reports, mut typed_errors, mut mismatches) = (0, 0, 0, 0);
    let mut errs: Vec<f64> = Vec::new();
    for (idx, &truth) in positions.iter().enumerate() {
        let seed = seed_at(idx as u64, 0);
        match guarded(&mut panics, || {
            localizer.localize(&sound(&sounder, &plan, truth, seed))
        }) {
            None => {}
            Some(Ok(est)) => {
                clean_reports += usize::from(est.degradation.is_clean());
                let census = plan.with_seed(seed).census(&channels, &scenario.anchors);
                mismatches += usize::from(est.degradation.holes_masked != census.holes());
                errs.push(est.position.dist(truth));
            }
            Some(Err(e)) => {
                typed_errors += 1;
                println!("  location {idx:3}: typed refusal — {e}");
            }
        }
    }
    let mut books = books.close();

    println!(
        "  {LOCATIONS} locations: {} fixes (median {:.2} m, p90 {:.2} m), {typed_errors} typed errors, {panics} panics",
        errs.len(),
        stats::median(&errs),
        stats::percentile(&errs, 90.0),
    );
    println!(
        "  ledger: {} holes injected, {} masked; {} bands dropped, {} anchors excluded, {} interfered, {} clipped",
        books.counter("fault.injected.holes"),
        books.counter("fault.recovered.holes"),
        books.counter("fault.recovered.bands_dropped"),
        books.counter("fault.recovered.anchors_excluded"),
        books.counter("fault.injected.interfered"),
        books.counter("fault.injected.clipped"),
    );

    books.check(panics == 0, || format!("{panics} locations panicked"));
    books.check(errs.len() + typed_errors + panics == LOCATIONS, || {
        "locations unaccounted for".into()
    });
    books.check(clean_reports == 0, || {
        format!(
            "{clean_reports} estimates report no degradation under a plan with scheduled faults"
        )
    });
    books.check(mismatches == 0, || {
        format!("{mismatches} fixes masked other holes than their plan's census")
    });
    books.holes();
    books.verdict("fault", "no panics, every fault accounted for")
}
