//! Per-layer attribution of a traced pass.
//!
//! Nothing here instruments the workspace: it reads the registry deltas the
//! crates already record (`span.*`, `par.*`, `cache.*`, `engine.*`,
//! `hier.*`, `runtime.*`, `fallback.*`, `track.*`) plus the `bench.<layer>`
//! spans the benchmark wraps around its own calls.
//!
//! Busy time is the time threads spent on the workload: the serial part of
//! the outermost call plus the busy time of its worker shards. Each span
//! the crates record is owned by one layer, which is charged the span's
//! self time (its duration minus its direct child spans). The Eq. 17
//! kernel runs inside `par.likelihood` regions; where no `likelihood` span
//! encloses them (the hierarchical solver's levels), their wall time moves
//! from the enclosing hierarchical span to the engine. Whatever busy time
//! no span covers belongs to the layer that drives the loop: the runner
//! for `paper_sweep`, the runtime (supervision, tracker and fallback) for
//! the other two. The fleet layer is the serial part of `run_batch`:
//! admission and the post-join step.

use std::collections::BTreeMap;

use bloc_obs::RunReport;

use crate::stats::{ratio, tail};
use crate::workloads::{Pass, Workload};

/// The layers busy time is attributed to, named after their modules.
pub const LAYERS: [&str; 9] = [
    "runner",
    "sounder",
    "correction",
    "engine",
    "multipath",
    "localizer",
    "hierarchical",
    "runtime",
    "fleet",
];

/// Shares must sum to 1 within this tolerance.
pub const SHARE_TOLERANCE: f64 = 0.05;

/// The layer owning a workspace span, by the span's innermost name.
fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "sound" => "sounder",
        "correct" => "correction",
        "likelihood" => "engine",
        "score_peaks" => "multipath",
        "localize" | "localize_fused" => "localizer",
        "hier.localize" | "hier.localize_seeded" => "hierarchical",
        _ => return None,
    })
}

fn hist_sum(report: &RunReport, name: &str) -> f64 {
    report.histograms.get(name).map_or(0.0, |h| h.sum as f64)
}

fn hist_count(report: &RunReport, name: &str) -> f64 {
    report.histograms.get(name).map_or(0.0, |h| h.count as f64)
}

fn counter(report: &RunReport, name: &str) -> f64 {
    report.counters.get(name).copied().unwrap_or(0) as f64
}

/// `(Σ duration µs, calls)` over every span whose innermost name is `last`.
fn span_totals(report: &RunReport, last: &str) -> (f64, f64) {
    report
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let path = name.strip_prefix("span.")?;
            (path.rsplit('/').next() == Some(last)).then_some((h.sum as f64, h.count as f64))
        })
        .fold((0.0, 0.0), |(s, c), (hs, hc)| (s + hs, c + hc))
}

/// Busy time of one traced pass, split by layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Thread-busy time of the pass, µs.
    pub busy_us: f64,
    /// Busy time charged to each of [`LAYERS`], µs.
    pub self_us: BTreeMap<&'static str, f64>,
}

impl Attribution {
    /// Attributes `report`, the registry deltas of a traced pass.
    pub fn of(workload: Workload, report: &RunReport) -> Self {
        let mut self_us: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        let mut charge = |layer: &'static str, us: f64| {
            if let Some(v) = self_us.get_mut(layer) {
                *v += us;
            }
        };
        for name in report.histograms.keys() {
            let Some(path) = name.strip_prefix("span.") else {
                continue;
            };
            if let Some(layer) = path.rsplit('/').next().and_then(layer_of) {
                charge(layer, report.span_self_time(name) as f64);
            }
        }
        let kernel_us = hist_sum(report, "par.likelihood.wall_us");
        let unspanned_kernel = (kernel_us - span_totals(report, "likelihood").0).max(0.0);
        charge("engine", unspanned_kernel);
        charge("hierarchical", -unspanned_kernel);

        let span = |name: &str| hist_sum(report, &format!("span.{name}"));
        let region = |name: &str| {
            (
                hist_sum(report, &format!("par.{name}.wall_us")),
                hist_sum(report, &format!("par.{name}.busy_us")),
            )
        };
        let (busy_us, owner) = match workload {
            Workload::PaperSweep => {
                let (wall, busy) = region("sweep");
                (span("bench.runner") - wall + busy, "runner")
            }
            Workload::CorridorTrack => (span("bench.runtime") + span("bench.sounder"), "runtime"),
            Workload::FleetFaulted => {
                let (wall, busy) = region("fleet.tags");
                let serial = span("bench.fleet") - wall;
                charge("fleet", serial);
                (serial + busy, "runtime")
            }
        };
        let attributed: f64 = self_us.values().sum();
        if let Some(v) = self_us.get_mut(owner) {
            *v += busy_us - attributed;
        }
        Self { busy_us, self_us }
    }

    /// A layer's share of busy time.
    pub fn share(&self, layer: &str) -> f64 {
        ratio(
            self.self_us.get(layer).copied().unwrap_or(0.0),
            self.busy_us,
        )
    }

    /// The shares summed with negative ones clamped to zero: 1 unless some
    /// layer's spans claim more time than the pass was busy.
    pub fn shares_sum(&self) -> f64 {
        LAYERS.iter().map(|l| self.share(l).max(0.0)).sum()
    }
}

/// A per-layer metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// Every per-layer metric of a traced pass, in `BENCHMARK.json` order.
pub fn per_layer(traced: &Pass, attribution: &Attribution, overhead_pct: f64) -> Vec<Metric> {
    let r = &traced.report;
    let c = |name: &str| counter(r, name);
    let share = |layer: &str| attribution.share(layer);
    let mean_us = |last: &str| {
        let (sum, n) = span_totals(r, last);
        ratio(sum, n)
    };
    let utilization = |region: &str| {
        let (wall, busy) = (
            format!("par.{region}.wall_us"),
            format!("par.{region}.busy_us"),
        );
        let threads = ratio(hist_count(r, &busy), hist_count(r, &wall));
        ratio(hist_sum(r, &busy), hist_sum(r, &wall) * threads)
    };
    let kernel_us = hist_sum(r, "par.likelihood.wall_us");
    let fixes = ["localize", "hier.localize", "hier.localize_seeded"]
        .iter()
        .map(|s| span_totals(r, s).1)
        .sum::<f64>();
    let escapes: f64 = (r.counters.iter())
        .filter(|(name, _)| name.starts_with("hier.escape."))
        .map(|(_, &n)| n as f64)
        .sum();
    vec![
        ("runner.share", "ratio", share("runner")),
        ("runner.parallel_util", "ratio", utilization("sweep")),
        ("sounder.us_per_call", "us", mean_us("sound")),
        ("sounder.share", "ratio", share("sounder")),
        (
            "sounder.path_hit_ratio",
            "ratio",
            ratio(
                c("cache.path.hits"),
                c("cache.path.hits") + c("cache.path.misses"),
            ),
        ),
        ("correction.us_per_call", "us", mean_us("correct")),
        ("correction.share", "ratio", share("correction")),
        (
            "engine.us_per_call",
            "us",
            ratio(kernel_us, hist_count(r, "par.likelihood.wall_us")),
        ),
        (
            "engine.cell_evals_per_s",
            "1/s",
            ratio(c("engine.cells_evaluated"), kernel_us / 1e6),
        ),
        ("engine.share", "ratio", share("engine")),
        (
            "engine.cells_per_fix",
            "count",
            ratio(c("engine.cells_evaluated"), fixes),
        ),
        (
            "engine.steering_miss_per_fix",
            "count",
            ratio(c("cache.steering.misses"), fixes),
        ),
        ("multipath.share", "ratio", share("multipath")),
        ("localizer.share", "ratio", share("localizer")),
        ("hierarchical.share", "ratio", share("hierarchical")),
        (
            "hierarchical.escape_ratio",
            "ratio",
            ratio(
                escapes,
                c("hier.localize.calls") + c("hier.localize.seeded"),
            ),
        ),
        (
            "tracker.gated_ratio",
            "ratio",
            ratio(
                c("track.gated"),
                c("runtime.rounds.fixed") + c("runtime.rounds.degraded"),
            ),
        ),
        ("runtime.share", "ratio", share("runtime")),
        (
            "runtime.attempts_per_round",
            "count",
            ratio(
                c("runtime.rounds") + c("runtime.retries"),
                c("runtime.rounds"),
            ),
        ),
        (
            "fallback.refined_ratio",
            "ratio",
            ratio(c("fallback.refined_fixes"), c("runtime.rounds.fixed")),
        ),
        (
            "fallback.knn_queries_per_round",
            "count",
            ratio(c("fallback.knn.queries"), c("runtime.rounds")),
        ),
        ("fleet.share", "ratio", share("fleet")),
        ("fleet.parallel_util", "ratio", utilization("fleet.tags")),
        (
            "fleet.tag_tail_ratio",
            "ratio",
            ratio(
                tail(&traced.tag_us, 99.0).raw(),
                bloc_num::stats::median(&traced.tag_us),
            ),
        ),
        ("trace.overhead_pct", "%", overhead_pct),
    ]
}
