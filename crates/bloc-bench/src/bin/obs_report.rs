//! The observability self-audit: proves the performance observatory is
//! honest.
//!
//! ```text
//! cargo run --release -p bloc-bench --bin obs_report
//! ```
//!
//! Two gates (all printed, failures exit nonzero):
//!
//! 1. **Executor coverage** — a controlled compute-bound calibration
//!    region run through [`bloc_num::par::map_named`]: every shard records
//!    one busy sample, and the `par.*` shard busy histograms must account
//!    for ≥ 95% of `wall × threads` (a ratio within one region; enforced
//!    in release builds, advisory in debug builds).
//! 2. **Trace export** — records two traced fixes run side by side on a
//!    2-thread `par::map_named` region (the one level the workspace
//!    parallelizes at: whole fixes), exports Chrome trace-event JSON,
//!    re-parses it with the same hand-rolled parser, and checks there are
//!    at least two thread lanes, each with balanced, name-matched
//!    begin/end pairs.
//!
//! What the instrumentation costs in wall time is not gated here: the
//! repository benchmark (`BENCHMARK.json`) runs with the registry enabled
//! and reports `trace.overhead_pct` for its traced run.

use std::collections::HashMap;

use bloc_chan::sounder::{all_data_channels, SounderConfig};
use bloc_core::localizer::BlocLocalizer;
use bloc_num::P2;
use bloc_obs::json::Json;
use bloc_obs::{Registry, Tracer};
use bloc_testbed::scenario::Scenario;
use rand::{rngs::StdRng, SeedableRng};

/// Deterministic compute-bound work: `iters` dependent integer ops.
fn spin(stream: usize, iters: u64) -> u64 {
    let mut acc = stream as u64 ^ 0x9E37_79B9_7F4A_7C15;
    for k in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k | 1);
    }
    acc
}

/// Sum + count of a named histogram in a report delta (0s when absent).
fn hist(delta: &bloc_obs::RunReport, name: &str) -> (u64, u64) {
    delta
        .histograms
        .get(name)
        .map(|h| (h.sum, h.count))
        .unwrap_or((0, 0))
}

fn main() {
    let strict = !cfg!(debug_assertions);
    let mut failures: Vec<String> = Vec::new();
    println!("=== obs_report: instrumentation self-audit ===");
    if !strict {
        println!("debug build: the coverage floor is advisory only");
    }

    // Shared fixture: the default testbed problem, same as perf_baseline.
    let scenario = Scenario::paper_testbed(2018);
    let channels = all_data_channels();
    let tag = P2::new(2.1, 3.2);

    // ---- 1. Executor coverage gate --------------------------------------
    // Calibrate at the host's *real* parallelism: oversubscribing a small
    // box (threads > cores) makes worker start/stop stagger a scheduling
    // artifact, not a telemetry gap. Best of 5 sheds one-off jitter.
    let threads = bloc_num::par::max_threads().clamp(1, 4);
    let spin_iters: u64 = 4_000_000;
    let items = threads * 8;
    let mut best = (0.0f64, 0u64, 0u64, 0u64); // coverage, busy, wall, samples
    for _ in 0..5 {
        let before = Registry::global().snapshot();
        let out = bloc_num::par::map_named("calibration", items, threads, |i| spin(i, spin_iters));
        std::hint::black_box(out);
        let delta = Registry::global().snapshot().diff(&before);
        let (busy_sum, busy_n) = hist(&delta, "par.calibration.busy_us");
        let (wall_sum, _) = hist(&delta, "par.calibration.wall_us");
        let coverage = busy_sum as f64 / (wall_sum as f64 * threads as f64).max(1.0);
        if coverage > best.0 {
            best = (coverage, busy_sum, wall_sum, busy_n);
        }
    }
    let (coverage, busy_sum, wall_sum, busy_n) = best;
    println!(
        "par coverage (calibration, {threads} threads × {} items, best of 5): busy {busy_sum} µs over wall {wall_sum} µs ⇒ {:.1}% of wall×threads (gate ≥ 95%)",
        items,
        coverage * 100.0
    );
    if busy_n != threads as u64 {
        failures.push(format!(
            "calibration region recorded {busy_n} shard busy samples, expected {threads}"
        ));
    }
    if strict && coverage < 0.95 {
        failures.push(format!(
            "par.* telemetry accounts for only {:.1}% of calibration wall time",
            coverage * 100.0
        ));
    }

    // ---- 2. Trace export gate -------------------------------------------
    let tracer = Tracer::global();
    tracer.enable(bloc_obs::trace::DEFAULT_CAPACITY);
    {
        let sounder = scenario.sounder(SounderConfig::default());
        let localizer = BlocLocalizer::new(scenario.bloc_config());
        let fixes = bloc_num::par::map_named("fixes", 2, 2, |k| {
            let mut rng = StdRng::seed_from_u64(13 + k as u64);
            let data = sounder.sound(tag, &channels, &mut rng);
            localizer.localize(&data).expect("traced fix")
        });
        std::hint::black_box(fixes);
    }
    tracer.disable();
    let trace_path = bloc_bench::reports_dir().join("obs_report-trace.json");
    match tracer.write_chrome_trace(&trace_path) {
        Err(e) => failures.push(format!("trace export failed: {e}")),
        Ok(stats) => {
            println!(
                "\ntrace: {} ({} spans, {} thread lanes, {} unmatched edges dropped)",
                trace_path.display(),
                stats.spans,
                stats.threads,
                stats.unmatched
            );
            if stats.spans == 0 {
                failures.push("trace recorded no spans".into());
            }
            if stats.threads < 2 {
                failures.push(format!(
                    "traced 2-thread fixes produced {} thread lane(s); worker shards missing",
                    stats.threads
                ));
            }
            match std::fs::read_to_string(&trace_path)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
            {
                Err(e) => failures.push(format!("exported trace does not re-parse: {e}")),
                Ok(doc) => match validate_trace(&doc, stats.spans) {
                    Ok(events) => {
                        println!("trace: re-parsed OK, {events} events, all lanes balanced")
                    }
                    Err(e) => failures.push(format!("trace validation: {e}")),
                },
            }
        }
    }

    // ---- Verdict ---------------------------------------------------------
    if failures.is_empty() {
        let coverage_gate = if strict {
            "par coverage ≥ 95%"
        } else {
            "par coverage (advisory in debug)"
        };
        println!("\nobs_report PASS: shard count, {coverage_gate} and trace export gates green");
    } else {
        for f in &failures {
            eprintln!("obs_report FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// Walks the parsed Chrome trace: every event well-formed, every lane's
/// B/E edges nested and name-matched, totals consistent with `spans`.
fn validate_trace(doc: &Json, spans: usize) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or("no traceEvents array")?;
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut begins = 0usize;
    let mut ends = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = ev
            .get("tid")
            .and_then(|t| t.as_u64())
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let name = ev
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?;
        ev.get("ts")
            .and_then(|t| t.as_f64())
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => {
                begins += 1;
                stack.push(name.to_string());
            }
            "E" => {
                ends += 1;
                match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "event {i}: tid {tid} closes '{name}' but '{open}' is open"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: tid {tid} closes '{name}' with empty stack"
                        ))
                    }
                }
            }
            other => return Err(format!("event {i}: unexpected phase '{other}'")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid} left {} span(s) open: {stack:?}",
                stack.len()
            ));
        }
    }
    if begins != spans || ends != spans {
        return Err(format!(
            "exporter reported {spans} spans but JSON has {begins} begins / {ends} ends"
        ));
    }
    Ok(events.len())
}
