//! The metric registry: named counters, histograms, and event sinks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::event::{Event, Sink};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::report::RunReport;
use crate::span::SpanGuard;

/// A collection of named metrics plus registered event sinks.
///
/// The pipeline records into [`Registry::global`]; tests and multi-tenant
/// servers can instead instantiate private registries with
/// [`Registry::new`] — the two behave identically.
///
/// Metric handles are `Arc`s: call sites resolve a name once (read-locked
/// map lookup) and then increment lock-free. The common fast path —
/// emitting with no sinks attached — is one relaxed atomic load.
///
/// A registry can be switched off wholesale with
/// [`Registry::set_enabled`]: name lookups then return detached "void"
/// metrics that absorb increments without appearing in snapshots, spans
/// become no-ops, and events are dropped. This is the honest baseline the
/// `obs_report` overhead gate measures instrumentation against — the
/// call sites still run, the recording does not. Handles resolved *while
/// disabled* stay detached even after re-enabling; the workspace resolves
/// hot-path handles per call or per construction, so nothing long-lived
/// is resolved in the disabled window.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
    /// Mirror of `sinks.len()` readable without the lock.
    n_sinks: AtomicUsize,
    /// Inverted so `Default` (false) means enabled.
    disabled: std::sync::atomic::AtomicBool,
    /// Detached sinks for disabled-mode lookups, created lazily; never in
    /// the maps, so snapshots cannot see anything recorded through them.
    void_counter: OnceLock<Arc<Counter>>,
    void_gauge: OnceLock<Arc<Gauge>>,
    void_histogram: OnceLock<Arc<Histogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide shared registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Turns recording on (the default) or off. Disabling swaps every
    /// subsequent lookup to a detached void metric and makes spans and
    /// events no-ops; metrics already recorded stay readable.
    pub fn set_enabled(&self, on: bool) {
        self.disabled.store(!on, Ordering::Release);
    }

    /// True while the registry is recording.
    pub fn is_enabled(&self) -> bool {
        !self.disabled.load(Ordering::Relaxed)
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if !self.is_enabled() {
            return Arc::clone(self.void_counter.get_or_init(Default::default));
        }
        if let Some(c) = self.counters.read().expect("counter map").get(name) {
            return Arc::clone(c);
        }
        let mut map = self.counters.write().expect("counter map");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge registered under `name`, created on first use (at 0.0).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if !self.is_enabled() {
            return Arc::clone(self.void_gauge.get_or_init(Default::default));
        }
        if let Some(g) = self.gauges.read().expect("gauge map").get(name) {
            return Arc::clone(g);
        }
        let mut map = self.gauges.write().expect("gauge map");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if !self.is_enabled() {
            return Arc::clone(self.void_histogram.get_or_init(Default::default));
        }
        if let Some(h) = self.histograms.read().expect("histogram map").get(name) {
            return Arc::clone(h);
        }
        let mut map = self.histograms.write().expect("histogram map");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Opens a hierarchical timing span (see [`crate::span()`]); the
    /// duration is recorded into `span.<path>` when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard::open(self, name)
    }

    /// Attaches an event sink; every subsequent [`Registry::emit`] call
    /// reaches it.
    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        let mut sinks = self.sinks.lock().expect("sink list");
        sinks.push(sink);
        self.n_sinks.store(sinks.len(), Ordering::Release);
    }

    /// Removes all sinks, flushing each first. Returns how many were
    /// detached.
    pub fn clear_sinks(&self) -> usize {
        let mut sinks = self.sinks.lock().expect("sink list");
        self.n_sinks.store(0, Ordering::Release);
        for sink in sinks.iter() {
            sink.flush();
        }
        let n = sinks.len();
        sinks.clear();
        n
    }

    /// True when at least one sink is attached. Event producers can use
    /// this to skip building expensive payloads nobody will see.
    pub fn has_sinks(&self) -> bool {
        self.n_sinks.load(Ordering::Acquire) > 0
    }

    /// Delivers `event` to every attached sink (no-op without sinks or
    /// while disabled).
    pub fn emit(&self, event: Event) {
        if !self.has_sinks() || !self.is_enabled() {
            return;
        }
        let sinks = self.sinks.lock().expect("sink list");
        for sink in sinks.iter() {
            sink.record(&event);
        }
    }

    /// Flushes every attached sink.
    pub fn flush(&self) {
        let sinks = self.sinks.lock().expect("sink list");
        for sink in sinks.iter() {
            sink.flush();
        }
    }

    /// A point-in-time [`RunReport`] of every registered metric.
    pub fn snapshot(&self) -> RunReport {
        let counters = self
            .counters
            .read()
            .expect("counter map")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("gauge map")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("histogram map")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        RunReport {
            counters,
            gauges,
            histograms,
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field(
                "counters",
                &self.counters.read().expect("counter map").len(),
            )
            .field("gauges", &self.gauges.read().expect("gauge map").len())
            .field(
                "histograms",
                &self.histograms.read().expect("histogram map").len(),
            )
            .field("sinks", &self.n_sinks.load(Ordering::Acquire))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn get_or_create_returns_the_same_metric() {
        let reg = Registry::new();
        reg.counter("a").inc();
        reg.counter("a").add(2);
        assert_eq!(reg.counter("a").get(), 3);
        reg.histogram("h").record(5);
        assert_eq!(reg.histogram("h").snapshot().count, 1);
    }

    #[test]
    fn concurrent_get_or_create_is_consistent() {
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..100u64 {
                        reg.counter(&format!("c{}", i % 7)).inc();
                    }
                });
            }
        });
        let total: u64 = (0..7).map(|i| reg.counter(&format!("c{i}")).get()).sum();
        assert_eq!(total, 800);
    }

    struct CountingSink(AtomicU64);
    impl Sink for CountingSink {
        fn record(&self, _event: &Event) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn emit_reaches_sinks_and_clear_detaches() {
        let reg = Registry::new();
        assert!(!reg.has_sinks());
        reg.emit(Event::new("test", "dropped")); // no sinks: silently dropped
        let sink = Arc::new(CountingSink(AtomicU64::new(0)));
        struct Fwd(Arc<CountingSink>);
        impl Sink for Fwd {
            fn record(&self, event: &Event) {
                self.0.record(event);
            }
        }
        reg.add_sink(Box::new(Fwd(Arc::clone(&sink))));
        assert!(reg.has_sinks());
        reg.emit(Event::new("test", "seen"));
        reg.emit(Event::new("test", "seen"));
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
        assert_eq!(reg.clear_sinks(), 1);
        reg.emit(Event::new("test", "dropped"));
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn disabled_registry_records_nothing_and_reenables() {
        let reg = Registry::new();
        assert!(reg.is_enabled());
        reg.counter("kept").inc();
        reg.set_enabled(false);
        assert!(!reg.is_enabled());
        reg.counter("void").add(100);
        reg.gauge("void").set(1.0);
        reg.histogram("void").record(5);
        {
            let _s = reg.span("void_span");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("kept"), Some(&1));
        assert!(!snap.counters.contains_key("void"));
        assert!(!snap.gauges.contains_key("void"));
        assert!(!snap.histograms.contains_key("void"));
        assert!(!snap.histograms.contains_key("span.void_span"));
        // Disabled-mode emits are dropped even with a sink attached.
        let seen = Arc::new(AtomicU64::new(0));
        struct CountFwd(Arc<AtomicU64>);
        impl Sink for CountFwd {
            fn record(&self, _event: &Event) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        reg.add_sink(Box::new(CountFwd(Arc::clone(&seen))));
        reg.emit(Event::new("test", "dropped"));
        assert_eq!(seen.load(Ordering::Relaxed), 0);
        // Re-enabling restores recording into the named metrics.
        reg.set_enabled(true);
        reg.counter("kept").inc();
        reg.emit(Event::new("test", "seen"));
        assert_eq!(reg.snapshot().counters["kept"], 2);
        assert_eq!(seen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn snapshot_captures_all_metrics() {
        let reg = Registry::new();
        reg.counter("x").add(4);
        reg.gauge("g").set(0.5);
        reg.histogram("y").record(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["x"], 4);
        assert_eq!(snap.gauges["g"], 0.5);
        assert_eq!(snap.histograms["y"].sum, 10);
    }
}
