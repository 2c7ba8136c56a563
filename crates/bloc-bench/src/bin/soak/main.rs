//! The fault soaks: one binary, four rows, one verdict.
//!
//! BLoc's protocol has no retransmissions (paper §6): a lost hop is a
//! missing Eq. 17 term, a dark anchor a missing anchor. Each row drives
//! one layer of the stack through seeded faults and proves it degrades
//! safely, with its books reconciled exactly ([`reconcile`]):
//!
//! * `fault` — bare `localize` under every fault class at once;
//! * `chaos` — the supervised runtime through anchor blackouts and a
//!   mid-run geometry swap;
//! * `degraded` — the supervised runtime with the fallback stack through
//!   a fault ramp to three dark anchors;
//! * `fleet` — the fleet supervisor over 4 sites with injected panics,
//!   deadline violations and an overload burst.
//!
//! Every row is fully deterministic at seed 2018: same build, same
//! figures, same verdict. The process exits non-zero when any row fails.
//!
//! ```text
//! cargo run --release -p bloc-bench --bin soak [fault|chaos|degraded|fleet]... [--trace]
//! ```
//!
//! With no row named, all four run. With `--trace` the run exports
//! `target/reports/soak-trace.json`, a Perfetto-loadable timeline of the
//! rows (spans + `par.*` worker shards).

mod chaos;
mod degraded;
mod fault;
mod fleet;
mod reconcile;

use bloc_chan::sounder::{all_data_channels, Sounder, SoundingData};
use bloc_chan::{FaultPlan, InterferenceBurst};
use bloc_num::P2;
use rand::{rngs::StdRng, SeedableRng};

/// The master seed of every row.
const SEED: u64 = 2018;

/// A row: runs, prints its figures and verdict, and returns whether it
/// passed.
type Row = fn() -> bool;

/// The rows, in the order a bare `soak` runs them.
const ROWS: [(&str, Row); 4] = [
    ("fault", fault::run),
    ("chaos", chaos::run),
    ("degraded", degraded::run),
    ("fleet", fleet::run),
];

fn main() {
    let mut rows = Vec::new();
    for arg in std::env::args().skip(1).filter(|a| a != "--trace") {
        match ROWS.iter().find(|(name, _)| *name == arg) {
            Some(row) => rows.push(row),
            None => {
                eprintln!("soak: unknown row {arg:?}; usage: soak [fault|chaos|degraded|fleet]... [--trace]");
                std::process::exit(2);
            }
        }
    }
    if rows.is_empty() {
        rows = ROWS.iter().collect();
    }
    bloc_bench::maybe_start_trace();
    let failed: Vec<&str> = rows
        .into_iter()
        .filter(|(_, run)| !run())
        .map(|(name, _)| *name)
        .collect();
    bloc_bench::maybe_finish_trace("soak");
    if !failed.is_empty() {
        eprintln!("soak: {} failed", failed.join(", "));
        std::process::exit(1);
    }
}

/// Prints a row's header: its title and its size.
fn banner(title: &str, size: usize) {
    bloc_bench::banner(
        title,
        &bloc_testbed::experiments::ExperimentSize {
            locations: size,
            seed: SEED,
        },
    );
}

/// The seed of one (round, attempt) sounding: its fault draw and its
/// noise. A row that replays a round replays its exact draws.
fn seed_at(round: u64, attempt: usize) -> u64 {
    SEED ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (attempt as u64).wrapping_mul(0xA24B_AED4_963E_E407)
}

/// The tag's slow diagonal walk through the paper room: where it is at
/// `round` of `rounds`.
fn diagonal(round: u64, rounds: u64) -> P2 {
    let f = round as f64 / (rounds - 1).max(1) as f64;
    P2::new(1.0 + 3.0 * f, 1.2 + 3.4 * f)
}

/// The background fault menu: 30% hop loss, 5% master-response loss, a
/// dead RF chain on anchor 1, frontend clipping, and a WiFi-width
/// interference burst over BLE 10–19.
fn background_faults() -> FaultPlan {
    FaultPlan {
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
    }
}

/// One sounding of `truth` on every data channel under `plan`, its
/// faults and noise both drawn from `seed`.
fn sound(sounder: &Sounder, plan: &FaultPlan, truth: P2, seed: u64) -> SoundingData {
    sounder.clone().with_faults(plan.with_seed(seed)).sound(
        truth,
        &all_data_channels(),
        &mut StdRng::seed_from_u64(seed),
    )
}

/// Runs `f` under a panic guard: `None`, counted in `panics`, when it
/// panicked.
fn guarded<T>(panics: &mut usize, f: impl FnOnce() -> T) -> Option<T> {
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok();
    *panics += usize::from(out.is_none());
    out
}
