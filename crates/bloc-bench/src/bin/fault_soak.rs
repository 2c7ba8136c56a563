//! Deterministic fault-injection soak: a seeded [`FaultPlan`] combining
//! every fault class (30% hop loss, master-response loss, one scheduled
//! anchor dropout, a dead RF chain, frontend clipping, a WiFi-width
//! interference burst) applied across a location sweep.
//!
//! The run **fails** (non-zero exit) unless all of the following hold:
//!
//! * zero panics — every location is wrapped in `catch_unwind`;
//! * every location returns `Ok(Estimate)` with a *populated*
//!   `DegradationReport`, or a typed `LocalizeError`;
//! * the observability ledger reconciles exactly:
//!   `fault.injected.holes == fault.recovered.holes` — every hole the
//!   plan punched into a sounding was seen and masked by the correction
//!   stage, none silently absorbed.
//!
//! One `sound()` per `localize()` keeps the ledger one-to-one. Fully
//! deterministic: same seed, same verdict. `scripts/check.sh` runs this
//! at 100 locations.
//!
//! ```text
//! cargo run --release -p bloc-bench --bin fault_soak [locations]
//! ```

use bloc_chan::{AnchorDropout, FaultPlan, InterferenceBurst};
use bloc_num::stats;
use bloc_testbed::dataset::sample_positions;
use bloc_testbed::scenario::Scenario;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let size = bloc_bench::size_from_args();
    let n = size.locations.min(100);
    bloc_bench::banner(
        "Fault-injection soak",
        &bloc_testbed::experiments::ExperimentSize {
            locations: n,
            seed: size.seed,
        },
    );

    let scenario = Scenario::paper_testbed(size.seed);
    let positions = sample_positions(&scenario.room, n, size.seed ^ 0xFA);
    let channels = bloc_chan::sounder::all_data_channels();
    let localizer = scenario.localizer();
    let sounder = scenario.sounder(Default::default());

    // Every fault class at once. The dropout and the dead antenna are
    // scheduled (not probabilistic), so *every* sounding is degraded and
    // every Ok estimate must carry a populated report.
    let plan = FaultPlan {
        tag_loss: 0.30,
        master_loss: 0.05,
        dropouts: vec![AnchorDropout {
            anchor: 2,
            bands: 0..channels.len() / 2,
        }],
        dead_antennas: vec![(1, 3)],
        clip_level: Some(6e-3),
        interference: vec![InterferenceBurst {
            freq_lo: 10,
            freq_hi: 19,
            noise_rel: 1.0,
        }],
        ..Default::default()
    };

    let registry = bloc_obs::Registry::global();
    let before = registry.snapshot();

    let mut panics = 0usize;
    let mut clean_reports = 0usize;
    let mut typed_errors = 0usize;
    let mut errs: Vec<f64> = Vec::new();
    for (idx, &truth) in positions.iter().enumerate() {
        let loc_seed = size.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = StdRng::seed_from_u64(loc_seed);
            let data = sounder
                .clone()
                .with_faults(plan.with_seed(loc_seed))
                .sound(truth, &channels, &mut rng);
            localizer.localize(&data)
        }));
        match outcome {
            Err(_) => panics += 1,
            Ok(Ok(est)) => {
                if est.degradation.is_clean() {
                    clean_reports += 1;
                }
                errs.push(est.position.dist(truth));
            }
            Ok(Err(e)) => {
                typed_errors += 1;
                println!("  location {idx:3}: typed refusal — {e}");
            }
        }
    }

    let run = registry.snapshot().diff(&before);
    let counter = |name: &str| run.counters.get(name).copied().unwrap_or(0);
    let injected = counter("fault.injected.holes");
    let recovered = counter("fault.recovered.holes");

    println!(
        "  {} locations: {} fixes (median {:.2} m, p90 {:.2} m), {} typed errors, {} panics",
        n,
        errs.len(),
        stats::median(&errs),
        stats::percentile(&errs, 90.0),
        typed_errors,
        panics
    );
    println!(
        "  ledger: {injected} holes injected, {recovered} masked; {} bands dropped, {} anchors excluded, {} interfered, {} clipped",
        counter("fault.recovered.bands_dropped"),
        counter("fault.recovered.anchors_excluded"),
        counter("fault.injected.interfered"),
        counter("fault.injected.clipped"),
    );

    let mut violations = Vec::new();
    if panics != 0 {
        violations.push(format!("{panics} locations panicked"));
    }
    if errs.len() + typed_errors + panics != n {
        violations.push("locations unaccounted for".into());
    }
    if clean_reports != 0 {
        violations.push(format!(
            "{clean_reports} estimates report no degradation under a plan with scheduled faults"
        ));
    }
    if injected == 0 {
        violations.push("the plan injected nothing".into());
    }
    if injected != recovered {
        violations.push(format!(
            "ledger mismatch: {injected} holes injected vs {recovered} masked"
        ));
    }
    if violations.is_empty() {
        println!("  soak PASS: no panics, every fault accounted for");
    } else {
        for v in &violations {
            println!("  soak FAIL: {v}");
        }
        std::process::exit(1);
    }
}
