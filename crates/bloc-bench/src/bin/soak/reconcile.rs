//! The soaks' reconciliation library: a row's books, and the equalities
//! every row closes them with.
//!
//! The books are the counters the row moved on the global registry,
//! diffed from the row's own opening snapshot, so rows sharing one
//! process never read each other's counts. The equalities:
//!
//! * [`Books::holes`] — every hole a fault plan punched was masked;
//! * [`Books::ledger`] — a bounded ledger's `total()` equals the sum of
//!   the counters its transitions bump;
//! * [`Books::tally`] — counters equal the outcomes the row tallied;
//! * [`Books::census`] — the fallback's reception census equals
//!   [`bloc_chan::FaultPlan::predict_reception`].

use bloc_obs::{Registry, RunReport};

/// The registry as a row found it.
pub struct Opening(RunReport);

/// Opens a row's books: snapshots the global registry.
pub fn open() -> Opening {
    Opening(Registry::global().snapshot())
}

impl Opening {
    /// Closes the books on every counter the row moved since [`open`].
    pub fn close(self) -> Books {
        let run = Registry::global().snapshot().diff(&self.0);
        Books {
            before: self.0,
            run,
            violations: Vec::new(),
        }
    }
}

/// One row's counter diff and the violations found so far.
pub struct Books {
    before: RunReport,
    run: RunReport,
    violations: Vec<String>,
}

impl Books {
    /// How far the row moved counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.run.counters.get(name).copied().unwrap_or(0)
    }

    /// Records `violation` unless `ok`.
    pub fn check(&mut self, ok: bool, violation: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(violation());
        }
    }

    /// The plans injected holes, and the correction stage masked every
    /// one: `fault.injected.holes == fault.recovered.holes`.
    pub fn holes(&mut self) {
        let injected = self.counter("fault.injected.holes");
        let recovered = self.counter("fault.recovered.holes");
        self.check(injected > 0, || "the plan injected nothing".into());
        self.check(injected == recovered, || {
            format!("ledger mismatch: {injected} holes injected vs {recovered} masked")
        });
    }

    /// The `what` ledger's `total()` (evictions included) equals the sum
    /// of `counters`.
    pub fn ledger(&mut self, what: &str, total: u64, counters: &[&str]) {
        let counted: u64 = counters.iter().map(|c| self.counter(c)).sum();
        self.check(total == counted, || {
            format!(
                "{what} ledger total ({total}) vs {} ({counted})",
                counters.join(" + ")
            )
        });
    }

    /// Each named counter equals the count the row tallied itself.
    pub fn tally<S: AsRef<str>>(&mut self, tally: impl IntoIterator<Item = (S, u64)>) {
        for (name, n) in tally {
            let (name, c) = (name.as_ref(), self.counter(name.as_ref()));
            self.check(c == n, || {
                format!("{name} counter ({c}) disagrees with the tally ({n})")
            });
        }
    }

    /// The `fallback.census.*` counters equal the plans' predicted
    /// `(received, expected)` tag packets.
    pub fn census(&mut self, predicted: (u64, u64)) {
        let observed = (
            self.counter("fallback.census.received"),
            self.counter("fallback.census.expected"),
        );
        self.check(observed == predicted, || {
            format!(
                "census ledger mismatch: observed {}/{} vs predicted {}/{} (received/expected)",
                observed.0, observed.1, predicted.0, predicted.1
            )
        });
    }

    /// Prints and writes the row's observability report (see
    /// [`bloc_bench::emit_run_report`]).
    pub fn report(&self, name: &str) {
        bloc_bench::emit_run_report(name, &self.before);
    }

    /// Prints the `row` verdict — PASS with `summary`, or one FAIL line
    /// per violation — and returns whether it passed.
    pub fn verdict(self, row: &str, summary: &str) -> bool {
        for v in &self.violations {
            println!("  {row} soak FAIL: {v}");
        }
        if self.violations.is_empty() {
            println!("  {row} soak PASS: {summary}");
        }
        self.violations.is_empty()
    }
}
