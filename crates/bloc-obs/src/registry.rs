//! The metric registry: named counters, histograms, and event sinks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

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
/// A panic while a lock is held (a sink that panics in
/// [`Sink::record`]) poisons nothing for later callers: every lock is
/// taken through [`PoisonError::into_inner`], since each guarded map or
/// list is valid after any partial update.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
    /// Mirror of `sinks.len()` readable without the lock.
    n_sinks: AtomicUsize,
}

/// The named metric in `map`, created on first use.
fn get_or_create<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().unwrap_or_else(PoisonError::into_inner).get(name) {
        return Arc::clone(m);
    }
    let mut map = map.write().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// Every metric in `map`, read through `get`.
fn read_all<T, V>(
    map: &RwLock<HashMap<String, Arc<T>>>,
    get: impl Fn(&T) -> V,
) -> std::collections::BTreeMap<String, V> {
    (map.read().unwrap_or_else(PoisonError::into_inner).iter())
        .map(|(name, m)| (name.clone(), get(m)))
        .collect()
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

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The gauge registered under `name`, created on first use (at 0.0).
    pub(crate) fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Opens a hierarchical timing span (see [`crate::span()`]); the
    /// duration is recorded into `span.<path>` when the guard drops.
    pub(crate) fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard::open(self, name)
    }

    fn sinks(&self) -> MutexGuard<'_, Vec<Box<dyn Sink>>> {
        self.sinks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attaches an event sink; every subsequent `Registry::emit` call
    /// reaches it.
    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        let mut sinks = self.sinks();
        sinks.push(sink);
        self.n_sinks.store(sinks.len(), Ordering::Release);
    }

    /// Removes all sinks. Returns how many were detached.
    pub fn clear_sinks(&self) -> usize {
        let mut sinks = self.sinks();
        self.n_sinks.store(0, Ordering::Release);
        let n = sinks.len();
        sinks.clear();
        n
    }

    /// True when at least one sink is attached. Event producers can use
    /// this to skip building expensive payloads nobody will see.
    pub(crate) fn has_sinks(&self) -> bool {
        self.n_sinks.load(Ordering::Acquire) > 0
    }

    /// Delivers `event` to every attached sink (no-op without sinks).
    pub(crate) fn emit(&self, event: Event) {
        if !self.has_sinks() {
            return;
        }
        for sink in self.sinks().iter() {
            sink.record(&event);
        }
    }

    /// A point-in-time [`RunReport`] of every registered metric.
    pub fn snapshot(&self) -> RunReport {
        RunReport {
            counters: read_all(&self.counters, Counter::get),
            gauges: read_all(&self.gauges, Gauge::get),
            histograms: read_all(&self.histograms, Histogram::snapshot),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Registry")
            .field("counters", &snap.counters.len())
            .field("gauges", &snap.gauges.len())
            .field("histograms", &snap.histograms.len())
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

    /// Forwards to a shared [`CountingSink`] the test keeps reading.
    struct Fwd(Arc<CountingSink>);
    impl Sink for Fwd {
        fn record(&self, event: &Event) {
            self.0.record(event);
        }
    }

    #[test]
    fn emit_reaches_sinks_and_clear_detaches() {
        let reg = Registry::new();
        assert!(!reg.has_sinks());
        reg.emit(Event::new("test", "dropped")); // no sinks: silently dropped
        let sink = Arc::new(CountingSink(AtomicU64::new(0)));
        reg.add_sink(Box::new(Fwd(Arc::clone(&sink))));
        assert!(reg.has_sinks());
        reg.emit(Event::new("test", "seen"));
        reg.emit(Event::new("test", "seen"));
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
        assert_eq!(reg.clear_sinks(), 1);
        reg.emit(Event::new("test", "dropped"));
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }

    /// A sink that panics while `emit` holds the sink list must not
    /// poison the registry for every later caller.
    #[test]
    fn a_panicking_sink_leaves_the_registry_usable() {
        struct PanicOnce(std::sync::atomic::AtomicBool);
        impl Sink for PanicOnce {
            fn record(&self, _event: &Event) {
                if !self.0.swap(true, Ordering::Relaxed) {
                    panic!("sink failure");
                }
            }
        }
        let reg = Registry::new();
        reg.add_sink(Box::new(PanicOnce(Default::default())));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.emit(Event::new("test", "boom"));
        }));
        assert!(caught.is_err());
        reg.emit(Event::new("test", "after"));
        reg.counter("after").inc();
        let sink = Arc::new(CountingSink(AtomicU64::new(0)));
        reg.add_sink(Box::new(Fwd(Arc::clone(&sink))));
        reg.emit(Event::new("test", "seen"));
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
        assert_eq!(reg.snapshot().counters["after"], 1);
        assert_eq!(reg.clear_sinks(), 2);
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
