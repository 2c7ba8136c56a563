//! `chaos` row: the supervised runtime ([`bloc_core::runtime`]) for 200
//! rounds under the background fault menu, plus two scheduled full
//! blackouts of anchor 2 and a mid-run geometry swap (every array moved
//! 0.5 m along its wall, as a re-deployment would).
//!
//! Fails unless: no round panics; ≥ 90% of rounds fix; the breaker
//! ledger equals the `runtime.breaker` events and counters — same
//! transitions, same order, same anchors and rounds; every opening falls
//! in a blackout window, each window opens a breaker, anchor 2 re-closes
//! after the last, and no healthy anchor's breaker moves; and the
//! supervised median beats the unsupervised fixed-retry path on the same
//! per-round draws.

use std::sync::{Arc, Mutex};

use bloc_chan::{AnchorArray, AnchorDropout, FaultPlan, Sounder};
use bloc_core::runtime::{BreakerState, RoundOutcome, RuntimeConfig, SessionSupervisor};
use bloc_num::stats;
use bloc_obs::{Event, Registry, Sink};
use bloc_testbed::scenario::Scenario;

use crate::{background_faults, banner, diagonal, guarded, reconcile, seed_at, sound, SEED};

/// Supervised rounds.
const ROUNDS: u64 = 200;
/// Round period, seconds.
const DT: f64 = 0.5;
/// The round the geometry swaps at.
const SWAP_ROUND: u64 = ROUNDS / 2;
/// Anchor 2's blackout windows, `[from, to)` rounds.
const WINDOWS: [(u64, u64); 2] = [
    (ROUNDS / 10, ROUNDS * 3 / 10),
    (ROUNDS * 11 / 20, ROUNDS * 3 / 4),
];

fn in_window(round: u64) -> bool {
    WINDOWS.iter().any(|&(a, b)| (a..b).contains(&round))
}

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

pub fn run() -> bool {
    banner("Chaos soak (supervised runtime)", ROUNDS as usize);
    let scenario = Scenario::paper_testbed(SEED);
    let swapped: Vec<AnchorArray> = scenario
        .anchors
        .iter()
        .map(|a| AnchorArray {
            origin: a.origin + a.axis * 0.5,
            ..*a
        })
        .collect();
    let sounder_a = scenario.sounder(Default::default());
    let sounder_b = Sounder::new(&scenario.env, &swapped, Default::default());
    let base = background_faults();
    let blackout = FaultPlan {
        dropouts: vec![AnchorDropout {
            anchor: 2,
            bands: 0..bloc_chan::sounder::all_data_channels().len(),
        }],
        ..base.clone()
    };
    // One sounding per (round, attempt): the supervised and the
    // unsupervised path replay the exact same draws.
    let sound_at = |round: u64, attempt: usize| {
        let plan = if in_window(round) { &blackout } else { &base };
        let sounder = if round < SWAP_ROUND {
            &sounder_a
        } else {
            &sounder_b
        };
        sound(
            sounder,
            plan,
            diagonal(round, ROUNDS),
            seed_at(round, attempt),
        )
    };

    let events = Arc::new(Mutex::new(Vec::new()));
    Registry::global().add_sink(Box::new(BreakerEventLog(Arc::clone(&events))));
    let books = reconcile::open();

    let mut sup = SessionSupervisor::new(
        scenario.localizer(),
        scenario.anchors.len(),
        RuntimeConfig::default(),
    );
    let (mut panics, mut deferred) = (0, 0);
    let mut sup_errs: Vec<f64> = Vec::new();
    for round in 0..ROUNDS {
        if round == SWAP_ROUND {
            // Re-deployment: retire every steering table of the old
            // geometry (full set and the quarantine-era subset) through
            // the public invalidation hook.
            let cache = sup.localizer().engine().cache();
            let subset: Vec<AnchorArray> = [0, 1, 3].map(|i| scenario.anchors[i]).to_vec();
            let removed =
                cache.invalidate_geometry(&scenario.anchors) + cache.invalidate_geometry(&subset);
            println!("  round {round}: geometry swap, {removed} steering tables invalidated");
        }
        match guarded(&mut panics, || {
            sup.run_round(DT, |attempt| sound_at(round, attempt))
        }) {
            None => {}
            Some(RoundOutcome::Fix(fix)) => {
                sup_errs.push(fix.track.position.dist(diagonal(round, ROUNDS)));
            }
            // No fallback stack is attached, so a degraded outcome would
            // be a supervisor bug.
            Some(RoundOutcome::Degraded(d)) => panic!(
                "round {round}: degraded outcome without a fallback stack: {}",
                d.reason
            ),
            Some(RoundOutcome::Deferred(reason)) => {
                deferred += 1;
                println!("  round {round}: deferred — {reason}");
            }
        }
    }

    // The unsupervised baseline: up to three attempts of bare localize.
    let unsup = scenario.localizer();
    let mut unsup_errs: Vec<f64> = Vec::new();
    for round in 0..ROUNDS {
        if let Some(est) = (0..3).find_map(|attempt| unsup.localize(&sound_at(round, attempt)).ok())
        {
            unsup_errs.push(est.position.dist(diagonal(round, ROUNDS)));
        }
    }
    let mut books = books.close();
    Registry::global().clear_sinks();

    let ledger = sup.breaker_ledger();
    let count_to = |s: BreakerState| ledger.iter().filter(|t| t.to == s).count() as u64;
    let (sup_median, unsup_median) = (stats::median(&sup_errs), stats::median(&unsup_errs));
    println!(
        "  supervised:   {} fixes / {ROUNDS} rounds (median {sup_median:.3} m, p90 {:.3} m), {deferred} deferred, {panics} panics",
        sup_errs.len(),
        stats::percentile(&sup_errs, 90.0),
    );
    println!(
        "  unsupervised: {} fixes / {ROUNDS} rounds (median {unsup_median:.3} m, p90 {:.3} m), {} failures",
        unsup_errs.len(),
        stats::percentile(&unsup_errs, 90.0),
        ROUNDS as usize - unsup_errs.len(),
    );
    println!(
        "  breaker: {} transitions ({} open, {} half-open, {} close); retries {}",
        ledger.len(),
        count_to(BreakerState::Open),
        count_to(BreakerState::HalfOpen),
        count_to(BreakerState::Closed),
        books.counter("runtime.retries"),
    );

    books.check(panics == 0, || format!("{panics} rounds panicked"));
    books.check(
        sup_errs.len() + deferred + panics == ROUNDS as usize,
        || "rounds unaccounted for".into(),
    );
    books.check(sup_errs.len() * 10 >= ROUNDS as usize * 9, || {
        format!(
            "only {} of {ROUNDS} rounds produced a valid estimate (need 90%)",
            sup_errs.len()
        )
    });
    let rendered: Vec<String> = ledger
        .iter()
        .map(|t| format!("{} anchor={} round={}", t.to.name(), t.anchor, t.round))
        .collect();
    let events = events.lock().unwrap_or_else(|e| e.into_inner()).clone();
    books.check(events == rendered, || {
        format!(
            "breaker ledger and obs events disagree: {} events vs {} ledger entries",
            events.len(),
            rendered.len()
        )
    });
    let counters = [
        "runtime.breaker.open",
        "runtime.breaker.half_open",
        "runtime.breaker.closed",
    ];
    books.tally(counters.into_iter().zip([
        count_to(BreakerState::Open),
        count_to(BreakerState::HalfOpen),
        count_to(BreakerState::Closed),
    ]));
    books.ledger("breaker", ledger.total(), &counters);
    books.check(!ledger.is_empty(), || {
        "the blackout windows injected nothing".into()
    });
    books.check(ledger.iter().all(|t| t.anchor == 2), || {
        "a breaker moved for an anchor with no scheduled blackout".into()
    });
    if let Some(t) = ledger
        .iter()
        .find(|t| t.to == BreakerState::Open && !in_window(t.round))
    {
        books.check(false, || {
            format!(
                "breaker opened at round {} outside every blackout window",
                t.round
            )
        });
    }
    for (i, &(a, b)) in WINDOWS.iter().enumerate() {
        let opened = ledger
            .iter()
            .any(|t| t.to == BreakerState::Open && (a..b).contains(&t.round));
        books.check(opened, || {
            format!("blackout window {i} ({a}..{b}) opened no breaker")
        });
    }
    books.check(sup.breaker_state(2) == BreakerState::Closed, || {
        format!(
            "anchor 2 did not recover after the last window (state {:?})",
            sup.breaker_state(2)
        )
    });
    books.check(sup_median < unsup_median, || {
        format!("supervised median {sup_median:.3} m is not better than unsupervised {unsup_median:.3} m")
    });
    books.verdict(
        "chaos",
        "supervised runtime recovered every scheduled fault",
    )
}
