//! `degraded` row: the supervised runtime with the fallback stack
//! ([`bloc_core::fallback`]) through a fault ramp, 20 rounds a stage,
//! from a healthy deployment to 60% tag-packet loss with three of four
//! anchors dark. Deferrals must become degraded fixes: accuracy falls
//! from the CSI regime into the RSSI / packet-count regime (De et al.,
//! arXiv 1708.08144), never off a cliff.
//!
//! Fails unless: no round panics; no round returns a bare `Deferred`;
//! each heavy stage (≥ 50% loss plus dark anchors) takes the degraded
//! path at least once; the healthy median stays sub-metre, no stage
//! median leaves the 3.7 m RSSI-baseline regime, and no stage beats the
//! one before by more than 0.75 m; and the books reconcile —
//! `runtime.rounds.degraded` with the outcome tally, the
//! `fallback.census.*` counters with the plans' predicted reception.

use bloc_chan::sounder::all_data_channels;
use bloc_chan::{AnchorDropout, FaultPlan, RangeLoss};
use bloc_core::runtime::{RoundOutcome, RuntimeConfig, SessionSupervisor};
use bloc_core::{FallbackConfig, FallbackStack, PacketCountModel, RetryPolicy};
use bloc_num::stats;
use bloc_testbed::scenario::Scenario;
use bloc_testbed::train_fingerprint_db;

use crate::{banner, diagonal, guarded, reconcile, seed_at, sound, SEED};

/// The fault ramp, one stage per rung: per-packet tag loss on every
/// link (on top of range loss), and the slave anchors dark on every band.
/// The master stays up: losing it is a different failure class.
const STAGES: [(f64, &[usize]); 6] = [
    (0.00, &[]),
    (0.20, &[]),
    (0.35, &[2]),
    (0.50, &[1, 2]),
    (0.60, &[1, 2]),
    (0.60, &[1, 2, 3]),
];

/// Rounds per stage.
const PER_STAGE: u64 = 20;
/// Rounds in the ramp.
const ROUNDS: u64 = PER_STAGE * STAGES.len() as u64;
/// Round period, seconds.
const DT: f64 = 0.5;
/// How far a stage's median may dip below the previous stage's (fault
/// draws are stochastic per round); a larger dip means the ramp is not
/// ramping.
const MONOTONE_TOL_M: f64 = 0.75;
/// The healthy stage must stay in the CSI regime: the paper testbed's
/// BLoc median is ~0.86 m (Fig. 9a), well clear of the 3.7 m RSSI
/// baseline.
const HEALTHY_MEDIAN_M: f64 = 1.0;
/// No stage may leave the RSSI-class regime (paper Fig. 10 baseline).
const FALLBACK_MEDIAN_M: f64 = 3.7;

pub fn run() -> bool {
    banner("Degraded-mode soak (fallback stack)", ROUNDS as usize);
    let scenario = Scenario::paper_testbed(SEED);
    let channels = all_data_channels();
    let n_anchors = scenario.anchors.len();
    let range = RangeLoss {
        d0: 1.0,
        per_m: 0.08,
        max: 0.5,
    };
    // One site survey, shared by every stage.
    let db = train_fingerprint_db(&scenario, 0.75, SEED ^ 0xF1F0, 4);
    println!("  fingerprint survey: {} positions", db.len());
    let sounder = scenario.sounder(Default::default());

    let books = reconcile::open();
    let (mut panics, mut deferred, mut degraded_total) = (0, 0, 0);
    let mut stage_medians = Vec::new();
    let mut stage_degraded = Vec::new();
    // What the plans predict the fallback's census saw: attempt 0's
    // reception on every round that took the degraded path.
    let mut predicted = (0u64, 0u64);
    for (si, &(tag_loss, dropped)) in STAGES.iter().enumerate() {
        let plan = FaultPlan {
            tag_loss,
            range_loss: Some(range),
            dropouts: dropped
                .iter()
                .map(|&anchor| AnchorDropout {
                    anchor,
                    bands: 0..channels.len(),
                })
                .collect(),
            ..Default::default()
        };
        // Attempt 0 only: a retry would re-draw the fault dice and break
        // the exact census, and a degraded round should use what arrived
        // instead of spending airtime.
        let config = RuntimeConfig {
            retry: RetryPolicy::with_retries(0),
            ..Default::default()
        };
        let stack = FallbackStack::new(FallbackConfig::default())
            .with_fingerprints(db.clone())
            .with_counts(PacketCountModel::new(tag_loss, range));
        let mut sup =
            SessionSupervisor::new(scenario.localizer(), n_anchors, config).with_fallback(stack);

        let mut errs = Vec::new();
        let mut n_degraded = 0;
        for round in si as u64 * PER_STAGE..(si as u64 + 1) * PER_STAGE {
            let truth = diagonal(round, ROUNDS);
            let outcome = guarded(&mut panics, || {
                sup.run_round(DT, |attempt| {
                    sound(&sounder, &plan, truth, seed_at(round, attempt))
                })
            });
            let took_degraded_path = match outcome {
                None => false,
                Some(RoundOutcome::Fix(fix)) => {
                    errs.push(fix.estimate.position.dist(truth));
                    false
                }
                Some(RoundOutcome::Degraded(d)) => {
                    errs.push(d.estimate.position.dist(truth));
                    n_degraded += 1;
                    true
                }
                Some(RoundOutcome::Deferred(reason)) => {
                    deferred += 1;
                    println!("  stage {si} round {round}: DEFERRED — {reason}");
                    // The stack always has estimators here, so the census
                    // was recorded before the fallback gave up.
                    true
                }
            };
            if took_degraded_path {
                let reception = plan.with_seed(seed_at(round, 0)).predict_reception(
                    &channels,
                    &scenario.anchors,
                    Some(truth),
                );
                predicted.0 += reception.total_received() as u64;
                predicted.1 += (reception.expected * n_anchors) as u64;
            }
        }
        let median = stats::median(&errs);
        println!(
            "  stage {si}: loss {:>3.0}% + {} dark — median {:>6.3} m, p90 {:>6.3} m, {} fixed / {} degraded / {PER_STAGE} rounds",
            tag_loss * 100.0,
            dropped.len(),
            median,
            stats::percentile(&errs, 90.0),
            errs.len() - n_degraded,
            n_degraded,
        );
        degraded_total += n_degraded;
        stage_medians.push(median);
        stage_degraded.push(n_degraded);
    }
    let mut books = books.close();

    books.check(panics == 0, || format!("{panics} rounds panicked"));
    books.check(deferred == 0, || {
        format!("{deferred} rounds returned bare Deferred with a fallback stack attached")
    });
    books.check(stage_medians[0] <= HEALTHY_MEDIAN_M, || {
        format!(
            "healthy stage median {:.3} m is not cm-class (limit {HEALTHY_MEDIAN_M} m)",
            stage_medians[0]
        )
    });
    for (si, &m) in stage_medians.iter().enumerate() {
        books.check(m.is_finite() && m <= FALLBACK_MEDIAN_M, || {
            format!("stage {si} median {m:.3} m leaves the RSSI-class regime (limit {FALLBACK_MEDIAN_M} m)")
        });
    }
    for (i, pair) in stage_medians.windows(2).enumerate() {
        books.check(pair[1] >= pair[0] - MONOTONE_TOL_M, || {
            format!(
                "median fell {:.3} → {:.3} m between stages {i} and {} — the ramp is not ramping",
                pair[0],
                pair[1],
                i + 1
            )
        });
    }
    for (si, &(tag_loss, dropped)) in STAGES.iter().enumerate() {
        let heavy = tag_loss >= 0.5 && !dropped.is_empty();
        books.check(!heavy || stage_degraded[si] > 0, || {
            format!("heavy-fault stage {si} never took the degraded path")
        });
    }
    books.census(predicted);
    books.tally([("runtime.rounds.degraded", degraded_total as u64)]);
    println!(
        "  census: observed {}/{} received/expected over {} degraded-path rounds (reconciled)",
        books.counter("fallback.census.received"),
        books.counter("fallback.census.expected"),
        degraded_total + deferred
    );
    println!(
        "  fallback: {} knn queries, {} count localizations, {} refined fixes",
        books.counter("fallback.knn.queries"),
        books.counter("fallback.counts.localizations"),
        books.counter("fallback.refined_fixes"),
    );
    // Search cost per round from the engine's own cell ledger, directly
    // comparable with `perf_baseline`'s hierarchical figures.
    println!(
        "  search cost: {} cell evals over {ROUNDS} rounds — {} cells/round",
        books.counter("engine.cells_evaluated"),
        books.counter("engine.cells_evaluated") / ROUNDS,
    );
    books.verdict(
        "degraded",
        "every round yielded an estimate across the fault ramp",
    )
}
