//! Hierarchical RAII stage timers.
//!
//! A [`SpanGuard`] measures the wall-clock time between its creation and
//! its drop on a monotonic [`Instant`] clock, and records the duration
//! (in µs) into a histogram named `span.<path>` on its registry.
//!
//! `<path>` is hierarchical: a per-thread stack of active span names is
//! joined with `/`, so the likelihood stage timed *inside* `localize`
//! lands in `span.localize/likelihood` while a direct call to
//! `likelihood()` lands in `span.likelihood`. The two are different
//! measurements (the first excludes no shared work but attributes it to
//! the outer pipeline) and keeping them distinct is what makes the
//! per-stage breakdown in [`crate::report::RunReport::render`] add up.
//!
//! The stack is thread-local and shared by all registries: span nesting
//! reflects the call tree, which is a property of the thread, not of
//! where the numbers are recorded.

use std::cell::RefCell;
use std::time::Instant;

use crate::registry::Registry;
use crate::trace::Tracer;

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// An open timing span; records its duration on drop.
///
/// Guards must drop in reverse creation order (the natural RAII order).
/// Holding one across a thread boundary is impossible (`!Send` via the
/// interior `*const` marker is not needed — the thread-local pop checks
/// the name instead and skips recording on mismatch rather than
/// corrupting the stack).
#[must_use = "a span records its duration when dropped; binding it to _ drops immediately"]
pub struct SpanGuard<'a> {
    registry: &'a Registry,
    name: &'static str,
    /// Full `/`-joined path, computed at open so drop is cheap.
    path: String,
    start: Instant,
    /// Stack depth at open; used to detect out-of-order drops.
    depth: usize,
    /// Interned trace name when the global [`Tracer`] was recording at
    /// open; drop records the matching end edge.
    trace_id: Option<u32>,
}

impl<'a> SpanGuard<'a> {
    /// Opens a span on `registry`; called via [`Registry::span`].
    pub(crate) fn open(registry: &'a Registry, name: &'static str) -> Self {
        let (path, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            (stack.join("/"), stack.len())
        });
        let trace_id = Tracer::global().begin(&path);
        Self {
            registry,
            name,
            path,
            start: Instant::now(),
            depth,
            trace_id,
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let elapsed_us = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Only pop if the stack still looks like it did at open —
            // guards leaked or dropped out of order must not unwind
            // someone else's frame.
            if stack.len() == self.depth && stack.last() == Some(&self.name) {
                stack.pop();
            }
        });
        if let Some(id) = self.trace_id {
            Tracer::global().end(id);
        }
        self.registry
            .histogram(&format!("span.{}", self.path))
            .record(elapsed_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_compose_paths() {
        let reg = Registry::new();
        {
            let outer = reg.span("localize");
            assert_eq!(outer.path, "localize");
            {
                let inner = reg.span("likelihood");
                assert_eq!(inner.path, "localize/likelihood");
            }
        }
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["span.localize"].count, 1);
        assert_eq!(snap.histograms["span.localize/likelihood"].count, 1);
        assert!(!snap.histograms.contains_key("span.likelihood"));
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let reg = Registry::new();
        {
            let _a = reg.span("correct");
        }
        {
            let _b = reg.span("likelihood");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["span.correct"].count, 1);
        assert_eq!(snap.histograms["span.likelihood"].count, 1);
    }

    #[test]
    fn span_nesting_is_per_thread() {
        let reg = Registry::new();
        let _outer = reg.span("outer");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // A fresh thread starts with an empty stack: no "outer/".
                let inner = reg.span("worker");
                assert_eq!(inner.path, "worker");
            });
        });
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["span.worker"].count, 1);
    }

    #[test]
    fn durations_are_plausible() {
        let reg = Registry::new();
        {
            let _s = reg.span("sleepy");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let snap = reg.snapshot();
        let h = &snap.histograms["span.sleepy"];
        assert_eq!(h.count, 1);
        assert!(
            h.sum >= 5_000,
            "5 ms sleep should record ≥ 5000 µs, got {}",
            h.sum
        );
    }
}
