//! The three workloads, how many steps a pass runs, and what one pass
//! records.
//!
//! Every workload is a closed loop: the next call starts when the previous
//! one returns. Venues are fixed per workload; `--seed` drives everything
//! else (tag positions, walks, sounding noise, fault draws, retry jitter),
//! and a pass runs a fixed number of steps, so one seed always produces
//! the same inputs and the same outputs on any host.

mod corridor_track;
mod fleet_faulted;
mod paper_sweep;

use std::time::Instant;

use bloc_num::{GridSpec, P2};
use bloc_obs::{Registry, RunReport};

use crate::stats::{tail, Tail};

pub use corridor_track::CorridorTrack;
pub use fleet_faulted::FleetFaulted;
pub use paper_sweep::PaperSweep;

/// Timed calls a full-size pass makes at least: enough that
/// [`crate::stats::tail`] can report a p95 with ten samples beyond it.
pub const MIN_CALLS: usize = 200;

/// The percentile of the step times that throughput is taken at.
pub const QUIET_PERCENTILE: f64 = 1.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `runner::sweep` batches over the paper's testbed room.
    PaperSweep,
    /// Supervised hierarchical tracking of tags walking a corridor.
    CorridorTrack,
    /// A four-site fleet under the site fault menu.
    FleetFaulted,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::CorridorTrack,
        Workload::FleetFaulted,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::CorridorTrack => "corridor_track",
            Workload::FleetFaulted => "fleet_faulted",
        }
    }

    /// The workload with this command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one timed call is.
    pub fn call(self) -> &'static str {
        match self {
            Workload::PaperSweep => "runner::sweep batch",
            Workload::CorridorTrack => "SessionSupervisor::run_round",
            Workload::FleetFaulted => "FleetSupervisor::run_batch",
        }
    }

    /// Loop steps per second on the reference host (see README.md). A
    /// step is one sweep batch, one round of every corridor tag, or one
    /// fleet batch.
    fn nominal_steps_per_s(self) -> f64 {
        match self {
            Workload::PaperSweep => 12.0,
            Workload::CorridorTrack => 10.0,
            Workload::FleetFaulted => 15.0,
        }
    }

    /// The steps a full-size pass runs for `--seconds`: about that long on
    /// the reference host, and never fewer than [`MIN_CALLS`] timed calls.
    /// The count depends on `seconds` alone, never on how fast the host
    /// is, so the outputs of a seed are fixed.
    pub fn steps(self, seconds: f64) -> usize {
        let calls_per_step = match self {
            Workload::CorridorTrack => Size::FULL.corridor_tags,
            Workload::PaperSweep | Workload::FleetFaulted => 1,
        };
        let nominal = (seconds * self.nominal_steps_per_s()).ceil() as usize;
        nominal.max(MIN_CALLS.div_ceil(calls_per_step))
    }
}

/// Per-workload problem sizes. [`Size::FULL`] is the benchmark; the smoke
/// test shrinks it without changing the code path.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Locations per `runner::sweep` call.
    pub paper_batch: usize,
    /// Tags walking the corridor.
    pub corridor_tags: usize,
    /// Tags registered at each fleet site.
    pub fleet_tags_per_site: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub const FULL: Size = Size {
        paper_batch: 32,
        corridor_tags: 8,
        fleet_tags_per_site: 24,
    };
}

/// What one pass of a workload produced.
#[derive(Debug)]
pub struct Pass {
    /// Steps the pass runs.
    steps: usize,
    /// Wall time of every timed call, ms.
    pub call_ms: Vec<f64>,
    /// Timed wall time of every step, ms: the sum of its calls.
    pub step_ms: Vec<f64>,
    /// Locations, rounds or tag-rounds attempted.
    pub attempted: u64,
    /// Attempts that returned no position.
    pub failed: u64,
    /// Error of every position, metres, by venue.
    pub errors_m: Vec<Vec<f64>>,
    /// Hash of the bits of every output, in order.
    pub digest: u64,
    /// Per-tag slice latency of every supervised fleet round, µs.
    pub tag_us: Vec<f64>,
    /// Failed output checks.
    pub violations: Vec<String>,
    /// Registry deltas accrued during the pass.
    pub report: RunReport,
}

impl Pass {
    /// An empty pass that will run `steps` steps.
    pub fn new(steps: usize) -> Self {
        Self {
            steps,
            call_ms: Vec::new(),
            step_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            errors_m: Vec::new(),
            digest: 0,
            tag_us: Vec::new(),
            violations: Vec::new(),
            report: RunReport::new(),
        }
    }

    /// True while steps remain.
    fn more(&self) -> bool {
        self.step_ms.len() < self.steps
    }

    /// Records the timed calls of one step.
    fn end_step(&mut self, calls_ms: &[f64]) {
        self.call_ms.extend_from_slice(calls_ms);
        self.step_ms.push(calls_ms.iter().sum());
    }

    /// Summed wall time of the timed calls, seconds.
    pub fn timed_s(&self) -> f64 {
        self.step_ms.iter().sum::<f64>() / 1e3
    }

    /// The 1st-percentile step time, ms. A shared host only ever adds
    /// time, in spells that slow whole steps by a quarter or more, and
    /// every step makes the same number of attempts, so this is a step the
    /// host left alone. It is not the minimum, so one step that was
    /// cheaper than the rest does not set it.
    pub fn quiet_step_ms(&self) -> f64 {
        bloc_num::stats::percentile(&self.step_ms, QUIET_PERCENTILE)
    }

    /// The `p`-th percentile of the position errors, taken per venue and
    /// averaged over venues, so each venue weighs the same however the
    /// venues' error distributions interleave.
    pub fn error_percentile(&self, p: f64) -> Tail {
        let per_venue: Vec<Tail> = (self.errors_m.iter())
            .filter(|e| !e.is_empty())
            .map(|e| tail(e, p))
            .collect();
        let mean = per_venue.iter().map(|t| t.raw()).sum::<f64>() / per_venue.len() as f64;
        match per_venue.iter().find(|t| matches!(t, Tail::Skipped { .. })) {
            Some(&Tail::Skipped { n, .. }) => Tail::Skipped { n, raw: mean },
            _ => Tail::Value(mean),
        }
    }

    fn fold(&mut self, word: u64) {
        self.digest = bloc_num::seed::splitmix64(self.digest ^ word);
    }

    /// Records one attempt: checks the position is a finite point of the
    /// venue grid, scores it against the truth and folds its bits into
    /// the digest.
    fn record(&mut self, venue: usize, position: Option<P2>, truth: P2, grid: &GridSpec) {
        self.attempted += 1;
        let Some(p) = position else {
            self.failed += 1;
            self.fold(u64::MAX);
            return;
        };
        let on_grid = p.x.is_finite() && p.y.is_finite() && grid.cell_of(p).is_some();
        if !on_grid {
            self.violations.push(format!(
                "position {p} is not a finite point of the venue grid"
            ));
        }
        if self.errors_m.len() <= venue {
            self.errors_m.resize(venue + 1, Vec::new());
        }
        self.errors_m[venue].push(p.dist(truth));
        self.fold(p.x.to_bits());
        self.fold(p.y.to_bits());
    }
}

/// A workload after set-up and warm-up, ready for a timed pass.
pub enum Bench {
    /// See [`PaperSweep`].
    Paper(PaperSweep),
    /// See [`CorridorTrack`].
    Corridor(CorridorTrack),
    /// See [`FleetFaulted`].
    Fleet(Box<FleetFaulted>),
}

impl Bench {
    /// Builds the workload's state for `seed` and warms it up.
    pub fn setup(workload: Workload, seed: u64, size: Size) -> Self {
        match workload {
            Workload::PaperSweep => Bench::Paper(PaperSweep::setup(seed, size.paper_batch)),
            Workload::CorridorTrack => {
                Bench::Corridor(CorridorTrack::setup(seed, size.corridor_tags))
            }
            Workload::FleetFaulted => Bench::Fleet(Box::new(FleetFaulted::setup(
                seed,
                size.fleet_tags_per_site,
            ))),
        }
    }

    /// Runs `steps` steps, then checks the registry counters against what
    /// the pass observed. With `traced`, every call into the workspace is
    /// wrapped in a `bench.<layer>` span.
    pub fn run(&mut self, steps: usize, traced: bool) -> Pass {
        let mut pass = Pass::new(steps);
        let before = Registry::global().snapshot();
        let observed = match self {
            Bench::Paper(w) => w.run(traced, &mut pass),
            Bench::Corridor(w) => w.run(traced, &mut pass),
            Bench::Fleet(w) => w.run(traced, &mut pass),
        };
        pass.report = Registry::global().snapshot().diff(&before);
        for (counter, expected) in observed {
            let counted = match counter.strip_suffix('*') {
                Some(prefix) => (pass.report.counters.iter())
                    .filter(|(name, _)| name.starts_with(prefix))
                    .map(|(_, n)| n)
                    .sum(),
                None => pass.report.counters.get(&counter).copied().unwrap_or(0),
            };
            if counted != expected {
                pass.violations.push(format!(
                    "{counter} moved by {counted}, but the pass observed {expected}"
                ));
            }
        }
        pass
    }
}

/// Counter deltas a pass must reproduce exactly: `(counter, observed)`. A
/// name ending in `*` stands for the sum over every counter it prefixes.
type Observed = Vec<(String, u64)>;

/// The span wrapping a benchmark call when the pass is traced.
fn bench_span(traced: bool, name: &'static str) -> Option<bloc_obs::SpanGuard<'static>> {
    traced.then(|| bloc_obs::span(name))
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
