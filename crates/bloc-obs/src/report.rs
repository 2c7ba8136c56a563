//! Per-run metric snapshots: diffable, renderable, JSONL-serializable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use crate::json::{Json, JsonError};
use crate::metrics::{HistogramSnapshot, N_BUCKETS};

/// A point-in-time snapshot of every metric in a [`crate::Registry`].
///
/// The canonical workflow brackets a pipeline run:
/// `let before = reg.snapshot(); …work…; let run = reg.snapshot().diff(&before);`
/// The diff isolates exactly the counts and samples accrued by that run,
/// so two runs of the same workload produce directly comparable reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name (last value wins, not accumulated).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Metric-wise saturating difference `self − earlier`. Counters and
    /// histograms absent from `earlier` pass through unchanged; those
    /// that accrued nothing in the window are dropped. A diff carries no
    /// gauges: a level is not a window quantity, and a level read at the
    /// window's end depends on whatever ran before it.
    pub fn diff(&self, earlier: &RunReport) -> RunReport {
        let counters = self
            .counters
            .iter()
            .map(|(name, &v)| {
                (
                    name.clone(),
                    v.saturating_sub(earlier.counters.get(name).copied().unwrap_or(0)),
                )
            })
            .filter(|(_, v)| *v > 0)
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let delta = match earlier.histograms.get(name) {
                    Some(prev) => h.diff(prev),
                    None => h.clone(),
                };
                (name.clone(), delta)
            })
            .filter(|(_, h): &(_, HistogramSnapshot)| !h.is_empty())
            .collect();
        RunReport {
            counters,
            gauges: BTreeMap::new(),
            histograms,
        }
    }

    /// Renders a human-readable breakdown: stage timings first (the
    /// `span.*` histograms, as count / inclusive total / exclusive self /
    /// mean / p50 / p95), then value histograms, then gauges and
    /// counters.
    ///
    /// The `self` column is the *exclusive* stage time: the span's
    /// inclusive total minus the inclusive totals of its direct children
    /// (`localize` minus `localize/likelihood` + `localize/correct` + …),
    /// so summing the column never double-counts nested stages.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let spans: Vec<_> = self
            .histograms
            .iter()
            .filter(|(n, _)| n.starts_with("span."))
            .collect();
        if !spans.is_empty() {
            out.push_str("stage timings (µs):\n");
            let _ = writeln!(
                out,
                "  {:<40} {:>9} {:>12} {:>12} {:>10} {:>10} {:>10}",
                "span", "count", "total", "self", "mean", "~p50", "~p95"
            );
            for (name, h) in &spans {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>9} {:>12} {:>12} {:>10.1} {:>10.0} {:>10.0}",
                    &name["span.".len()..],
                    h.count,
                    h.sum,
                    self.span_self_time(name),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.95),
                );
            }
        }
        let values: Vec<_> = self
            .histograms
            .iter()
            .filter(|(n, _)| !n.starts_with("span."))
            .collect();
        if !values.is_empty() {
            out.push_str("value histograms:\n");
            let _ = writeln!(
                out,
                "  {:<40} {:>9} {:>12} {:>10} {:>10} {:>10}",
                "histogram", "count", "sum", "mean", "~p50", "~p95"
            );
            for (name, h) in &values {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>9} {:>12} {:>10.1} {:>10.0} {:>10.0}",
                    name,
                    h.count,
                    h.sum,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.95),
                );
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<40} {v:>9.4}");
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {v:>9}");
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Exclusive (self) time of the span histogram named `full_name`
    /// (with its `span.` prefix): its inclusive sum minus the inclusive
    /// sums of its *direct* children (`span.<path>/<leaf>` with no
    /// further `/`). Saturates at zero — children recorded on worker
    /// threads can overlap the parent's wall clock.
    pub fn span_self_time(&self, full_name: &str) -> u64 {
        let prefix = format!("{full_name}/");
        let children: u64 = self
            .histograms
            .range(prefix.clone()..)
            .take_while(|(n, _)| n.starts_with(&prefix))
            .filter(|(n, _)| !n[prefix.len()..].contains('/'))
            .map(|(_, h)| h.sum)
            .sum();
        self.histograms
            .get(full_name)
            .map(|h| h.sum.saturating_sub(children))
            .unwrap_or(0)
    }

    /// Serializes to JSON Lines: one object per metric, sorted by name.
    pub(crate) fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let line = Json::obj([
                ("type", Json::Str("counter".into())),
                ("name", Json::Str(name.clone())),
                ("value", Json::Num(v_to_f64(*v))),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for (name, v) in &self.gauges {
            let line = Json::obj([
                ("type", Json::Str("gauge".into())),
                ("name", Json::Str(name.clone())),
                ("value", Json::Num(*v)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            // Sparse bucket encoding: [index, count] pairs.
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| Json::Arr(vec![Json::Num(i as f64), Json::Num(v_to_f64(n))]))
                .collect();
            let line = Json::obj([
                ("type", Json::Str("histogram".into())),
                ("name", Json::Str(name.clone())),
                ("count", Json::Num(v_to_f64(h.count))),
                ("sum", Json::Num(v_to_f64(h.sum))),
                ("buckets", Json::Arr(buckets)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }

    /// Parses the [`RunReport::to_jsonl`] format. Blank lines are
    /// skipped; unknown `type`s are rejected.
    pub(crate) fn from_jsonl(text: &str) -> Result<RunReport, JsonError> {
        let mut report = RunReport::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let bad = |message: &str| JsonError {
                message: format!("line {}: {message}", lineno + 1),
                at: 0,
            };
            let obj = Json::parse(line).map_err(|e| JsonError {
                message: format!("line {}: {}", lineno + 1, e.message),
                at: e.at,
            })?;
            let name = obj
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing \"name\""))?
                .to_string();
            match obj.get("type").and_then(Json::as_str) {
                Some("counter") => {
                    let value = obj
                        .get("value")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("counter without integer \"value\""))?;
                    report.counters.insert(name, value);
                }
                Some("gauge") => {
                    let value = obj
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad("gauge without numeric \"value\""))?;
                    report.gauges.insert(name, value);
                }
                Some("histogram") => {
                    let mut snap = HistogramSnapshot::empty();
                    snap.count = obj
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("histogram without \"count\""))?;
                    snap.sum = obj
                        .get("sum")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("histogram without \"sum\""))?;
                    let buckets = obj
                        .get("buckets")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| bad("histogram without \"buckets\""))?;
                    for pair in buckets {
                        let pair = pair
                            .as_arr()
                            .ok_or_else(|| bad("bucket entry not a pair"))?;
                        let (i, n) = match pair {
                            [i, n] => (
                                i.as_u64()
                                    .ok_or_else(|| bad("bucket index not an integer"))?,
                                n.as_u64()
                                    .ok_or_else(|| bad("bucket count not an integer"))?,
                            ),
                            _ => return Err(bad("bucket entry not a pair")),
                        };
                        if i as usize >= N_BUCKETS {
                            return Err(bad(&format!("bucket index {i} out of range")));
                        }
                        snap.buckets[i as usize] = n;
                    }
                    report.histograms.insert(name, snap);
                }
                _ => return Err(bad("unknown or missing \"type\"")),
            }
        }
        Ok(report)
    }

    /// Writes the report to `path` in the JSONL format.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_jsonl().as_bytes())?;
        file.flush()
    }

    /// Reads a report previously written with [`RunReport::write_jsonl`].
    pub fn read_jsonl(path: impl AsRef<Path>) -> std::io::Result<RunReport> {
        let file = std::fs::File::open(path)?;
        let mut text = String::new();
        let mut reader = BufReader::new(file);
        loop {
            let n = reader.read_line(&mut text)?;
            if n == 0 {
                break;
            }
        }
        RunReport::from_jsonl(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Counters are u64 but JSON numbers are f64; metrics beyond 2⁵³ would
/// lose precision. No BLoc run gets near that, but saturate defensively.
fn v_to_f64(v: u64) -> f64 {
    const MAX_EXACT: u64 = 1 << 53;
    v.min(MAX_EXACT) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_report() -> RunReport {
        let reg = Registry::new();
        reg.counter("engine.cells_evaluated").add(4800);
        reg.counter("localize.no_fix").add(3);
        reg.gauge("cache.steering.resident_entries").set(0.8125);
        reg.histogram("par.likelihood.busy_us").record(1500);
        reg.histogram("par.likelihood.busy_us").record(2300);
        reg.histogram("span.localize").record(2000);
        reg.snapshot()
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let report = sample_report();
        let text = report.to_jsonl();
        let back = RunReport::from_jsonl(&text).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn file_round_trip_is_exact() {
        let dir = std::env::temp_dir().join("bloc-obs-test-report");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("report-{}.jsonl", std::process::id()));
        let report = sample_report();
        report.write_jsonl(&path).unwrap();
        let back = RunReport::read_jsonl(&path).unwrap();
        assert_eq!(report, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn diff_isolates_one_run() {
        let reg = Registry::new();
        reg.counter("c").add(5);
        reg.histogram("h").record(100);
        let before = reg.snapshot();
        reg.counter("c").add(2);
        reg.histogram("h").record(900);
        let run = reg.snapshot().diff(&before);
        assert_eq!(run.counters["c"], 2);
        assert_eq!(run.histograms["h"].count, 1);
        assert_eq!(run.histograms["h"].sum, 900);
        // A second identical window diffs to an equal report.
        let before2 = reg.snapshot();
        reg.counter("c").add(2);
        reg.histogram("h").record(900);
        let run2 = reg.snapshot().diff(&before2);
        assert_eq!(run, run2);
    }

    #[test]
    fn diff_drops_quiet_metrics() {
        let reg = Registry::new();
        reg.counter("busy").inc();
        reg.counter("quiet").inc();
        reg.gauge("level.moved").set(0.25);
        reg.gauge("level.steady").set(1.0);
        let before = reg.snapshot();
        reg.counter("busy").inc();
        reg.gauge("level.moved").set(0.5);
        let run = reg.snapshot().diff(&before);
        assert_eq!(run.counters.get("busy"), Some(&1));
        assert!(!run.counters.contains_key("quiet"));
        // Gauges are levels, not window quantities.
        assert!(run.gauges.is_empty());
    }

    /// Two identical windows diff equal whatever ran before them: a
    /// gauge written in both windows, and before only one of them,
    /// appears in neither diff.
    #[test]
    fn diff_is_independent_of_earlier_history() {
        let window = |reg: &Registry| {
            let before = reg.snapshot();
            reg.counter("c").inc();
            reg.gauge("level").set(0.0);
            reg.snapshot().diff(&before)
        };
        let fresh = Registry::new();
        let primed = Registry::new();
        primed.gauge("level").set(0.0);
        assert_eq!(window(&fresh), window(&primed));
    }

    #[test]
    fn render_mentions_every_metric() {
        let text = sample_report().render();
        assert!(text.contains("stage timings"));
        assert!(text.contains("localize")); // span name with prefix stripped
        assert!(text.contains("engine.cells_evaluated"));
        assert!(text.contains("par.likelihood.busy_us"));
        // Gauges get their own section, not a row in the stage table.
        assert!(text.contains("gauges:"));
        assert!(text.contains("cache.steering.resident_entries"));
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let reg = Registry::new();
        reg.histogram("span.localize").record(1000);
        reg.histogram("span.localize/likelihood").record(700);
        reg.histogram("span.localize/correct").record(100);
        // A grandchild must not be subtracted from the grandparent (its
        // time is already inside `localize/likelihood`).
        reg.histogram("span.localize/likelihood/steering")
            .record(600);
        reg.histogram("span.other").record(50);
        let snap = reg.snapshot();
        assert_eq!(snap.span_self_time("span.localize"), 200);
        assert_eq!(snap.span_self_time("span.localize/likelihood"), 100);
        assert_eq!(snap.span_self_time("span.localize/correct"), 100);
        assert_eq!(snap.span_self_time("span.other"), 50);
        assert_eq!(snap.span_self_time("span.absent"), 0);
        // Children bigger than the parent (parallel workers) saturate.
        reg.histogram("span.par").record(10);
        reg.histogram("span.par/shard").record(40);
        assert_eq!(reg.snapshot().span_self_time("span.par"), 0);
        // The rendered table carries the column.
        let text = snap.render();
        let localize_row = text
            .lines()
            .find(|l| l.trim_start().starts_with("localize "))
            .expect("localize row");
        assert!(localize_row.contains("200"), "self column: {localize_row}");
    }

    #[test]
    fn from_jsonl_rejects_malformed_lines() {
        assert!(RunReport::from_jsonl("{\"type\":\"counter\"}").is_err());
        assert!(RunReport::from_jsonl("{\"type\":\"widget\",\"name\":\"x\"}").is_err());
        assert!(RunReport::from_jsonl("not json").is_err());
        // Blank lines are fine.
        let ok = RunReport::from_jsonl("\n\n");
        assert_eq!(ok.unwrap(), RunReport::new());
    }
}
