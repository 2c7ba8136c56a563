//! `benchmark` — the BLoc repository benchmark.
//!
//! One invocation runs one workload in its own process, so caches and the
//! peak heap belong to that workload:
//!
//! ```text
//! benchmark --workload <paper_sweep|corridor_track|fleet_faulted> --seed <n>
//!           [--seconds <s>] [--trace [0|1]]
//! ```
//!
//! The plain run runs a fixed number of timed steps, sized by `--seconds`
//! (see [`Workload::steps`]), times the workload's set-up (with warm-up)
//! several times before and after them, and prints every end-to-end
//! metric. `--trace` instead runs the same inputs twice, each for half as
//! many steps — untraced, then with the global `Tracer` on and every call
//! wrapped in a `bench.<layer>` span — and prints the per-layer metrics,
//! writing the timeline to `target/reports/benchmark-<workload>-trace.json`.
//!
//! Every run checks its outputs and exits non-zero if a check fails; the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod attribution;
mod heap;
mod host;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use bloc_obs::json::Json;
use bloc_obs::Tracer;

use attribution::{Attribution, Metric, SHARE_TOLERANCE};
use host::Host;
use stats::{quartiles, tail, Tail};
use workloads::{Bench, Pass, Size, Workload, QUIET_PERCENTILE};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-ups timed before the timed pass, and again after it; `setup_s` is
/// the median of all of them.
const SETUPS: usize = 9;
/// Nominal seconds of timed steps when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;
/// The median error above which a workload is considered broken, metres.
const MAX_MEDIAN_ERR_M: f64 = 3.0;

/// The end-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("fixes_per_s", "1/s"),
    ("round_p95_ms", "ms"),
    ("median_err_m", "m"),
    ("p90_err_m", "m"),
    ("peak_heap_mb", "MB"),
];

const USAGE: &str = "usage: benchmark --workload <paper_sweep|corridor_track|fleet_faulted> \
                     --seed <n> [--seconds <s>] [--trace [0|1]]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    /// Steps per pass: a traced run makes two passes of half the length.
    fn steps(&self) -> usize {
        let seconds = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        self.workload.steps(seconds)
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = args.into_iter().peekable();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, DEFAULT_SECONDS, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = !matches!(args.next_if(|v| v == "0" || v == "1").as_deref(), Some("0"))
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// What a run reports: the JSON result plus the checks that failed.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    violations: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    println!(
        "benchmark {} --seed {} ({} steps of {} calls{})",
        args.workload.name(),
        args.seed,
        args.steps(),
        args.workload.call(),
        if args.trace {
            ", untraced then traced"
        } else {
            ""
        }
    );
    println!("host: {}", host.render());
    let outcome = if args.trace {
        traced_run(&args, &host)
    } else {
        plain_run(&args)
    };
    let mut violations = outcome.violations;
    for &(name, _, value) in &outcome.metrics {
        if !value.is_finite() {
            violations.push(format!("{name} is {value}"));
        }
    }
    let correct = violations.is_empty();
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, unit, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    for v in violations.iter().take(10) {
        println!("CHECK FAILED: {v}");
    }
    if violations.len() > 10 {
        println!("CHECK FAILED: … {} more", violations.len() - 10);
    }
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks every workload shares: outputs on the grid (already checked per
/// position), counters reconciled (already checked per pass), and sane
/// accuracy.
fn sanity(pass: &Pass) -> Vec<String> {
    let mut v = pass.violations.clone();
    if pass.failed * 2 > pass.attempted {
        v.push(format!(
            "{} of {} attempts returned no position",
            pass.failed, pass.attempted
        ));
    }
    let median = pass.error_percentile(50.0).raw();
    if median.is_nan() || median >= MAX_MEDIAN_ERR_M {
        v.push(format!(
            "median error {median:.3} m exceeds {MAX_MEDIAN_ERR_M} m"
        ));
    }
    v
}

fn print_metric(name: &str, unit: &str, value: impl std::fmt::Display) {
    println!("  {name:<32} {value:>14} {unit}");
}

/// The plain run: one timed pass between two groups of timed set-ups, and
/// the end-to-end metrics.
fn plain_run(args: &Args) -> Outcome {
    // The timed pass lies between the groups, so the median set-up spans
    // the run rather than one moment of a host whose speed drifts.
    let mut setup_s = Vec::with_capacity(2 * SETUPS);
    let mut setup = || {
        let t = Instant::now();
        let bench = Bench::setup(args.workload, args.seed, Size::FULL);
        setup_s.push(t.elapsed().as_secs_f64());
        bench
    };
    for _ in 1..SETUPS {
        drop(setup());
    }
    let mut bench = setup();
    let pass = bench.run(args.steps(), false);
    // Read before the second group, which runs with the pass's state gone.
    let peak_heap_mb = heap::peak_mb();
    drop(bench);
    for _ in 0..SETUPS {
        drop(setup());
    }
    let mut violations = sanity(&pass);

    // Throughput is taken at the quiet step time; the step quartiles, the
    // median call and the mean are printed for context.
    let steps = pass.step_ms.len() as f64;
    let per_step = pass.attempted as f64 / steps;
    let quiet = pass.quiet_step_ms();
    let [q1, p50, q3] = quartiles(&pass.step_ms);
    let p95 = tail(&pass.call_ms, 95.0);
    let p90_err = pass.error_percentile(90.0);
    for (name, t) in [("round_p95_ms", p95), ("p90_err_m", p90_err)] {
        if let Tail::Skipped { n, .. } = t {
            violations.push(format!("{name} skipped: only {n} samples"));
        }
    }
    println!(
        "{steps} steps of {per_step} attempts, {} calls ({} failed) in {:.2} s timed; digest {:016x}",
        pass.call_ms.len(),
        pass.failed,
        pass.timed_s(),
        pass.digest
    );
    println!(
        "  context: step p{QUIET_PERCENTILE} {quiet:.3} / q1 {q1:.3} / p50 {p50:.3} / q3 {q3:.3} ms; call p50 {:.3} ms; mean {:.2} attempts/s; VmHWM {}",
        bloc_num::stats::median(&pass.call_ms),
        pass.attempted as f64 / pass.timed_s(),
        host::peak_rss_mb().map_or("unreadable".into(), |mb| format!("{mb:.2} MB")),
    );
    let values = [
        Tail::Value(bloc_num::stats::median(&setup_s)),
        Tail::Value(per_step / (quiet / 1e3)),
        p95,
        pass.error_percentile(50.0),
        p90_err,
        Tail::Value(peak_heap_mb),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| {
            print_metric(name, unit, value);
            (name, unit, value.raw())
        })
        .collect();
    Outcome {
        attempted: pass.attempted,
        failed: pass.failed,
        metrics,
        violations,
    }
}

/// The traced run: an untraced pass, then the same calls on a fresh set-up
/// with the tracer on; per-layer metrics come from the traced pass. Each
/// pass runs for half of `--seconds`, so the run takes about as long as a
/// plain one.
fn traced_run(args: &Args, host: &Host) -> Outcome {
    let steps = args.steps();
    let plain = Bench::setup(args.workload, args.seed, Size::FULL).run(steps, false);
    let tracer = Tracer::global();
    let mut bench = Bench::setup(args.workload, args.seed, Size::FULL);
    tracer.enable(bloc_obs::trace::DEFAULT_CAPACITY);
    let traced = bench.run(steps, true);
    tracer.disable();

    let mut violations = sanity(&plain);
    violations.extend(traced.violations.iter().cloned());
    if (traced.digest, traced.attempted) != (plain.digest, plain.attempted) {
        violations.push(format!(
            "traced digest {:016x} over {} attempts differs from untraced {:016x} over {}",
            traced.digest, traced.attempted, plain.digest, plain.attempted
        ));
    }
    let overhead_pct = (traced.quiet_step_ms() / plain.quiet_step_ms() - 1.0) * 100.0;
    let attribution = Attribution::of(args.workload, &traced.report);
    let sum = attribution.shares_sum();
    if (sum - 1.0).abs() > SHARE_TOLERANCE {
        violations.push(format!(
            "layer shares sum to {sum:.4}, not 1 ± {SHARE_TOLERANCE}"
        ));
    }
    let metrics = attribution::per_layer(&traced, &attribution, overhead_pct);

    println!(
        "{} steps traced, digest {:016x}; busy {:.1} ms, shares sum to {sum:.4}",
        traced.step_ms.len(),
        traced.digest,
        attribution.busy_us / 1e3
    );
    for (layer, us) in &attribution.self_us {
        println!(
            "  {layer:<14} {:>12.1} ms busy  {:>6.1}%",
            us / 1e3,
            100.0 * attribution.share(layer)
        );
    }
    for &(name, unit, value) in &metrics {
        print_metric(name, unit, format!("{value:.4}"));
    }
    if let Err(e) = write_trace(args, host, &metrics, &attribution) {
        violations.push(format!("trace not written: {e}"));
    }
    Outcome {
        attempted: traced.attempted,
        failed: traced.failed,
        metrics,
        violations,
    }
}

/// Writes the Chrome trace with the run's host, metrics and attribution
/// under the format's `otherData` key.
fn write_trace(
    args: &Args,
    host: &Host,
    metrics: &[Metric],
    attribution: &Attribution,
) -> std::io::Result<()> {
    let dir = std::path::Path::new("target").join("reports");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("benchmark-{}-trace.json", args.workload.name()));
    let export = Tracer::global().write_chrome_trace(&path)?;
    let invalid = |e: bloc_obs::json::JsonError| std::io::Error::other(e.to_string());
    let Json::Obj(mut trace) = Json::parse(&std::fs::read_to_string(&path)?).map_err(invalid)?
    else {
        return Err(std::io::Error::other("the trace is not a JSON object"));
    };
    let layer_ms = attribution
        .self_us
        .iter()
        .map(|(l, us)| (l.to_string(), Json::Num(us / 1e3)))
        .collect();
    let metrics = metrics
        .iter()
        .map(|&(name, _, v)| (name.to_string(), Json::Num(v)))
        .collect();
    trace.insert(
        "otherData".into(),
        Json::obj([
            ("workload", Json::Str(args.workload.name().into())),
            ("seed", Json::Num(args.seed as f64)),
            ("host", host.to_json()),
            ("busy_ms", Json::Num(attribution.busy_us / 1e3)),
            ("layer_busy_ms", Json::Obj(layer_ms)),
            ("per_layer", Json::Obj(metrics)),
        ]),
    );
    std::fs::write(&path, Json::Obj(trace).render())?;
    println!(
        "trace: {} ({} spans on {} threads)",
        path.display(),
        export.spans,
        export.threads
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line_forms() {
        let a = args("--workload fleet_faulted --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::FleetFaulted,
                seed: 7,
                seconds: 10.0,
                trace: false
            }
        );
        assert!(
            args("--trace 1 --workload paper_sweep --seed 1")
                .unwrap()
                .trace
        );
        let bare = args("--workload corridor_track --seed 3 --trace").unwrap();
        assert!(bare.trace);
        assert_eq!(bare.seconds, DEFAULT_SECONDS);
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload paper_sweep").is_err());
        assert!(args("--workload paper_sweep --seed x").is_err());
        assert!(args("--workload paper_sweep --seed 1 --seconds -1").is_err());
        assert!(args("--workload paper_sweep --seed 1 --bogus").is_err());
    }

    /// Every workload at a tiny size through the same set-up, loop and
    /// checks as the benchmark, then a replay with the benchmark's spans
    /// that must match bit for bit and attribute cleanly. One test, so
    /// nothing else in this process moves the global registry while a
    /// pass reconciles its counters.
    #[test]
    fn smoke_every_workload() {
        let size = Size {
            paper_batch: 10,
            corridor_tags: 2,
            fleet_tags_per_site: 1,
        };
        for (workload, steps, calls, attempts) in [
            (Workload::PaperSweep, 2, 2, 20),
            (Workload::CorridorTrack, 3, 6, 6),
            (Workload::FleetFaulted, 2, 2, 8),
        ] {
            let mut bench = Bench::setup(workload, 11, size);
            let pass = bench.run(steps, false);
            assert_eq!(pass.step_ms.len(), steps, "{}", workload.name());
            assert_eq!(pass.call_ms.len(), calls, "{}", workload.name());
            assert_eq!(pass.attempted, attempts, "{}", workload.name());
            assert!(
                sanity(&pass).is_empty(),
                "{}: {:?}",
                workload.name(),
                sanity(&pass)
            );
            assert!(matches!(tail(&pass.call_ms, 95.0), Tail::Skipped { .. }));

            let replay = Bench::setup(workload, 11, size).run(steps, true);
            assert_eq!(replay.digest, pass.digest, "{} replays", workload.name());
            let attribution = Attribution::of(workload, &replay.report);
            assert!(
                (attribution.shares_sum() - 1.0).abs() <= SHARE_TOLERANCE,
                "{}: {attribution:?}",
                workload.name()
            );
            let metrics = attribution::per_layer(&replay, &attribution, 0.0);
            assert!(metrics.iter().all(|m| m.2.is_finite()));
        }
    }

    #[test]
    fn steps_are_fixed_by_the_seconds() {
        assert_eq!(Workload::PaperSweep.steps(25.0), 300);
        assert_eq!(Workload::CorridorTrack.steps(25.0), 250);
        assert_eq!(Workload::FleetFaulted.steps(25.0), 375);
        assert!(Workload::ALL.iter().all(|w| w.steps(0.0) > 0));
        // The floor keeps ten samples beyond the p95 of the calls.
        assert_eq!(Workload::PaperSweep.steps(1.0), workloads::MIN_CALLS);
        assert_eq!(
            Workload::CorridorTrack.steps(1.0) * Size::FULL.corridor_tags,
            workloads::MIN_CALLS
        );
    }

    #[test]
    fn benchmark_json_lists_what_the_program_prints() {
        // The repository root is an ancestor of either package's manifest.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|path| path.exists())
            .expect("BENCHMARK.json at the repository root");
        let text = std::fs::read_to_string(path).unwrap();
        let spec = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(names("workloads"), workloads);
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.into()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let empty = Pass::new(0);
        let layers: Vec<String> = attribution::per_layer(
            &empty,
            &Attribution::of(Workload::PaperSweep, &empty.report),
            0.0,
        )
        .iter()
        .map(|m| m.0.to_string())
        .collect();
        assert_eq!(names("per_layer"), layers);
    }
}
