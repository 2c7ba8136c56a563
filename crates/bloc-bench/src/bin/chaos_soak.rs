//! Chaos soak: the supervised runtime ([`bloc_core::runtime`]) driven for
//! hundreds of rounds under combined faults — 30% hop loss, master-response
//! loss, a dead RF chain, frontend clipping, a WiFi-width interference
//! burst — plus two *scheduled* full blackouts of anchor 2 and a mid-run
//! anchor geometry swap (every array shifted along its wall, as a
//! re-deployment would).
//!
//! The run **fails** (non-zero exit) unless all of the following hold:
//!
//! * zero panics across all rounds;
//! * ≥ 90% of rounds yield a valid (non-`Deferred`) estimate;
//! * the supervisor's breaker ledger reconciles *exactly* with the
//!   `runtime.breaker` obs events and counters — same transitions, same
//!   order, same anchors and rounds;
//! * every breaker opening falls inside a scheduled blackout window, the
//!   breaker re-closes after each window, and no healthy anchor's breaker
//!   ever moves;
//! * the supervised track's median error beats the unsupervised
//!   fixed-retry path (the PR 2 baseline) on the *same* per-round fault
//!   and noise draws.
//!
//! Fully deterministic: same seed, same verdict. `scripts/check.sh` runs
//! this at 200 rounds.
//!
//! ```text
//! cargo run --release -p bloc-bench --bin chaos_soak [rounds] [--trace]
//! ```
//!
//! With `--trace` (or `BLOC_TRACE=1`) the run exports
//! `target/reports/chaos_soak-trace.json`, a Perfetto-loadable timeline
//! of the supervised rounds (spans + `par.*` worker shards).

use std::sync::{Arc, Mutex};

use bloc_chan::sounder::{all_data_channels, Sounder, SoundingData};
use bloc_chan::{AnchorArray, AnchorDropout, FaultPlan, InterferenceBurst};
use bloc_core::runtime::{BreakerState, RoundOutcome, RuntimeConfig, SessionSupervisor};
use bloc_num::{stats, P2};
use bloc_obs::{Event, Sink};
use bloc_testbed::scenario::Scenario;
use rand::{rngs::StdRng, SeedableRng};

/// Captures `runtime.breaker` events for exact ledger reconciliation.
struct BreakerEventLog(Arc<Mutex<Vec<String>>>);

impl Sink for BreakerEventLog {
    fn record(&self, event: &Event) {
        if event.kind != "runtime.breaker" {
            return;
        }
        let get = |key: &str| {
            event
                .fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| format!("{v}"))
                .unwrap_or_default()
        };
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(format!(
                "{} anchor={} round={}",
                event.name,
                get("anchor"),
                get("round")
            ));
    }
}

fn main() {
    let size = bloc_bench::size_from_args();
    let rounds = (size.locations as u64).min(200);
    bloc_bench::banner(
        "Chaos soak (supervised runtime)",
        &bloc_testbed::experiments::ExperimentSize {
            locations: rounds as usize,
            seed: size.seed,
        },
    );

    let scenario = Scenario::paper_testbed(size.seed);
    let channels = all_data_channels();
    let dt = 0.5;

    // Two deployments: the original, and the mid-run re-deployment with
    // every array shifted 0.5 m along its wall.
    let swapped: Vec<AnchorArray> = scenario
        .anchors
        .iter()
        .map(|a| {
            let mut moved = *a;
            moved.origin = a.origin + a.axis * 0.5;
            moved
        })
        .collect();
    let sounder_a = scenario.sounder(Default::default());
    let sounder_b = Sounder::new(&scenario.env, &swapped, Default::default());

    // Background chaos, every round: hop loss, master loss, a dead RF
    // chain on anchor 1, clipping, interference over BLE 10–19.
    let base = FaultPlan {
        tag_loss: 0.30,
        master_loss: 0.05,
        dead_antennas: vec![(1, 3)],
        clip_level: Some(6e-3),
        interference: vec![InterferenceBurst {
            freq_lo: 10,
            freq_hi: 19,
            noise_rel: 1.0,
        }],
        ..Default::default()
    };
    // Scheduled blackout windows: anchor 2 fully dark on every band.
    let blackout = FaultPlan {
        dropouts: vec![AnchorDropout {
            anchor: 2,
            bands: 0..channels.len(),
        }],
        ..base.clone()
    };
    let swap_round = rounds / 2;
    let windows = [
        (rounds / 10, rounds * 3 / 10),
        (rounds * 11 / 20, rounds * 3 / 4),
    ];
    let in_window = |r: u64| windows.iter().any(|&(a, b)| (a..b).contains(&r));

    // The tag walks a slow diagonal through the room.
    let truth_at = |r: u64| {
        let f = r as f64 / (rounds - 1).max(1) as f64;
        P2::new(1.0 + 3.0 * f, 1.2 + 3.4 * f)
    };
    // One deterministic sounding per (round, attempt): both the
    // supervised and the unsupervised path replay the exact same draws.
    let sound_at = |round: u64, attempt: usize| -> SoundingData {
        let s = size.seed
            ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (attempt as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        let mut rng = StdRng::seed_from_u64(s);
        let plan = if in_window(round) { &blackout } else { &base };
        let snd = if round < swap_round {
            &sounder_a
        } else {
            &sounder_b
        };
        snd.clone()
            .with_faults(plan.with_seed(s))
            .sound(truth_at(round), &channels, &mut rng)
    };

    let events = Arc::new(Mutex::new(Vec::new()));
    let registry = bloc_obs::Registry::global();
    registry.add_sink(Box::new(BreakerEventLog(Arc::clone(&events))));
    bloc_bench::maybe_start_trace();
    let before = registry.snapshot();

    // ---- Supervised path -------------------------------------------------
    let localizer = scenario.localizer();
    let mut sup =
        SessionSupervisor::new(localizer, scenario.anchors.len(), RuntimeConfig::default());
    let mut panics = 0usize;
    let mut deferred = 0usize;
    let mut sup_errs: Vec<f64> = Vec::new();
    for round in 0..rounds {
        if round == swap_round {
            // Re-deployment: retire every steering table of the old
            // geometry (full set and the quarantine-era subset) through
            // the public invalidation hook.
            let cache = sup.pipeline().localizer().engine().cache();
            let subset: Vec<AnchorArray> = [0usize, 1, 3]
                .iter()
                .map(|&i| scenario.anchors[i])
                .collect();
            let removed =
                cache.invalidate_geometry(&scenario.anchors) + cache.invalidate_geometry(&subset);
            println!("  round {round}: geometry swap, {removed} steering tables invalidated");
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sup.run_round(dt, |attempt| sound_at(round, attempt))
        }));
        match outcome {
            Err(_) => panics += 1,
            Ok(RoundOutcome::Fix(fix)) => {
                sup_errs.push(fix.track.position.dist(truth_at(round)));
            }
            Ok(RoundOutcome::Degraded(d)) => {
                // No fallback stack is attached in this soak, so a
                // degraded outcome would be a supervisor bug.
                panic!(
                    "round {round}: degraded outcome without a fallback stack: {}",
                    d.reason
                );
            }
            Ok(RoundOutcome::Deferred(reason)) => {
                deferred += 1;
                println!("  round {round}: deferred — {reason}");
            }
        }
    }

    // ---- Unsupervised baseline (PR 2 fixed-retry path), same draws ------
    let unsup = scenario.localizer();
    let mut unsup_errs: Vec<f64> = Vec::new();
    let mut unsup_failures = 0usize;
    for round in 0..rounds {
        let mut got = None;
        for attempt in 0..3 {
            if let Ok(est) = unsup.localize(&sound_at(round, attempt)) {
                got = Some(est.position);
                break;
            }
        }
        match got {
            Some(p) => unsup_errs.push(p.dist(truth_at(round))),
            None => unsup_failures += 1,
        }
    }

    // ---- Reconciliation --------------------------------------------------
    let run = registry.snapshot().diff(&before);
    let counter = |name: &str| run.counters.get(name).copied().unwrap_or(0);
    let ledger = sup.breaker_ledger();
    let ledger_rendered: Vec<String> = ledger
        .iter()
        .map(|t| format!("{} anchor={} round={}", t.to.name(), t.anchor, t.round))
        .collect();
    let events = events.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let count_to = |s: BreakerState| ledger.iter().filter(|t| t.to == s).count() as u64;

    let sup_median = stats::median(&sup_errs);
    let unsup_median = stats::median(&unsup_errs);
    println!(
        "  supervised:   {} fixes / {} rounds (median {:.3} m, p90 {:.3} m), {} deferred, {} panics",
        sup_errs.len(),
        rounds,
        sup_median,
        stats::percentile(&sup_errs, 90.0),
        deferred,
        panics
    );
    println!(
        "  unsupervised: {} fixes / {} rounds (median {:.3} m, p90 {:.3} m), {} failures",
        unsup_errs.len(),
        rounds,
        unsup_median,
        stats::percentile(&unsup_errs, 90.0),
        unsup_failures
    );
    println!(
        "  breaker: {} transitions ({} open, {} half-open, {} close); hop resyncs {}; retries {}",
        ledger.len(),
        count_to(BreakerState::Open),
        count_to(BreakerState::HalfOpen),
        count_to(BreakerState::Closed),
        counter("runtime.hop.resyncs"),
        counter("runtime.retries"),
    );

    let mut violations = Vec::new();
    if panics != 0 {
        violations.push(format!("{panics} rounds panicked"));
    }
    if sup_errs.len() + deferred + panics != rounds as usize {
        violations.push("rounds unaccounted for".into());
    }
    if (sup_errs.len() as f64) < 0.9 * rounds as f64 {
        violations.push(format!(
            "only {} of {rounds} rounds produced a valid estimate (need 90%)",
            sup_errs.len()
        ));
    }
    if events != ledger_rendered {
        violations.push(format!(
            "breaker ledger and obs events disagree: {} events vs {} ledger entries",
            events.len(),
            ledger_rendered.len()
        ));
    }
    for (state, name) in [
        (BreakerState::Open, "runtime.breaker.open"),
        (BreakerState::HalfOpen, "runtime.breaker.half_open"),
        (BreakerState::Closed, "runtime.breaker.closed"),
    ] {
        if count_to(state) != counter(name) {
            violations.push(format!(
                "{name} counter ({}) disagrees with the ledger ({})",
                counter(name),
                count_to(state)
            ));
        }
    }
    if ledger.iter().any(|t| t.anchor != 2) {
        violations.push("a breaker moved for an anchor with no scheduled blackout".into());
    }
    if let Some(t) = ledger
        .iter()
        .find(|t| t.to == BreakerState::Open && !in_window(t.round))
    {
        violations.push(format!(
            "breaker opened at round {} outside every blackout window",
            t.round
        ));
    }
    for (i, &(a, b)) in windows.iter().enumerate() {
        if !ledger
            .iter()
            .any(|t| t.to == BreakerState::Open && (a..b).contains(&t.round))
        {
            violations.push(format!("blackout window {i} ({a}..{b}) opened no breaker"));
        }
    }
    if rounds >= 100 && sup.breaker_state(2) != BreakerState::Closed {
        violations.push(format!(
            "anchor 2 did not recover after the last window (state {:?})",
            sup.breaker_state(2)
        ));
    }
    if ledger.is_empty() {
        violations.push("the blackout windows injected nothing".into());
    }
    if sup_median.partial_cmp(&unsup_median) != Some(std::cmp::Ordering::Less) {
        violations.push(format!(
            "supervised median {sup_median:.3} m is not better than unsupervised {unsup_median:.3} m"
        ));
    }

    bloc_bench::maybe_finish_trace("chaos_soak");
    if violations.is_empty() {
        println!("  chaos soak PASS: supervised runtime recovered every scheduled fault");
    } else {
        for v in &violations {
            println!("  chaos soak FAIL: {v}");
        }
        std::process::exit(1);
    }
}
