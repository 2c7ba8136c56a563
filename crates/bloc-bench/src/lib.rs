//! # bloc-bench — figure regeneration, soaks and gates
//!
//! Three kinds of binaries live here:
//!
//! * **Figure binaries** (`cargo run --release -p bloc-bench --bin figNN`):
//!   one per paper table/figure; each reruns the corresponding
//!   `bloc-testbed::experiments` module and prints the same series the
//!   paper plots. `--bin all_figures` runs the lot (EXPERIMENTS.md is its
//!   output), `--bin ablations` sweeps the design choices DESIGN.md §6
//!   calls out.
//! * **Soaks and gates** (`soak`, `perf_baseline`, `obs_report`): the
//!   verdicts `scripts/check.sh` runs. `soak` runs the fault soaks as
//!   rows — `fault`, `chaos`, `degraded`, `fleet` — on one
//!   reconciliation library. They gate on counts, equalities and ratios
//!   measured within one process, never on absolute wall time.
//! * **The repository benchmark** (`--bin benchmark`, declared by
//!   `BENCHMARK.json`): the one place wall time is judged.
//!
//! Every figure binary accepts the number of evaluated locations as its
//! first argument; the default is the paper's 1700.

use bloc_testbed::experiments::ExperimentSize;

/// Resolves the experiment size from argv\[1\], defaulting to the
/// paper's 1700 locations.
pub fn size_from_args() -> ExperimentSize {
    let n = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(bloc_testbed::dataset::PAPER_DATASET_SIZE);
    ExperimentSize {
        locations: n,
        seed: 2018,
    }
}

/// Prints a standard experiment header.
pub fn banner(fig: &str, size: &ExperimentSize) {
    println!(
        "=== {fig} (locations = {}, seed = {}) ===",
        size.locations, size.seed
    );
}

/// The directory every run artifact lands in (`target/reports/`),
/// created on first use: the per-run obs reports and Chrome traces.
/// Gitignored with the rest of `target/`.
pub fn reports_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new("target").join("reports");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// True when the invocation asked for a Chrome-trace timeline: any
/// `--trace` argument.
pub(crate) fn trace_requested() -> bool {
    std::env::args().any(|a| a == "--trace")
}

/// Switches the global [`bloc_obs::Tracer`] on (default ring capacity)
/// when `trace_requested` — call once, before the timed work.
pub fn maybe_start_trace() {
    if trace_requested() {
        bloc_obs::Tracer::global().enable(bloc_obs::trace::DEFAULT_CAPACITY);
        println!("trace: recording span/shard edges (--trace)");
    }
}

/// Exports the recorded timeline to `target/reports/<name>-trace.json`
/// (Chrome trace-event format — load it in Perfetto or `chrome://tracing`)
/// when tracing was requested. No-op otherwise.
pub fn maybe_finish_trace(name: &str) {
    let tracer = bloc_obs::Tracer::global();
    if !tracer.is_enabled() {
        return;
    }
    tracer.disable();
    let path = reports_dir().join(format!("{name}-trace.json"));
    match tracer.write_chrome_trace(&path) {
        Ok(stats) => println!(
            "trace: {} ({} spans on {} threads{}{})",
            path.display(),
            stats.spans,
            stats.threads,
            if stats.unmatched > 0 {
                format!(", {} unmatched edges dropped", stats.unmatched)
            } else {
                String::new()
            },
            if stats.wrapped > 0 {
                ", ring wrapped (oldest edges lost)"
            } else {
                ""
            },
        ),
        Err(e) => eprintln!("warning: trace not written: {e}"),
    }
}

/// Prints the per-stage timing/counter breakdown accrued on the global
/// registry since `before`, writes it to
/// `target/reports/<name>-obs-report.jsonl`, and re-reads the file to
/// prove the trail is parseable.
pub fn emit_run_report(name: &str, before: &bloc_obs::RunReport) {
    let run = bloc_obs::Registry::global().snapshot().diff(before);
    println!("\n== observability: per-stage breakdown ({name}) ==");
    print!("{}", run.render());
    let path = reports_dir().join(format!("{name}-obs-report.jsonl"));
    match run
        .write_jsonl(&path)
        .and_then(|()| bloc_obs::RunReport::read_jsonl(&path))
    {
        Ok(back) if back == run => println!(
            "run report: {} ({} counters, {} histograms; verified parseable)",
            path.display(),
            run.counters.len(),
            run.histograms.len()
        ),
        Ok(_) => eprintln!(
            "warning: run report at {} did not round-trip",
            path.display()
        ),
        Err(e) => eprintln!("warning: run report not written: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_size_is_paper_scale() {
        // argv of the test harness has no numeric argv[1]
        assert_eq!(size_from_args().locations, 1700);
    }
}
