//! The workspace-wide cache telemetry convention.
//!
//! Every shared cache (the steering-table memo in `bloc-core`, the path
//! memo in `bloc-chan`, whatever comes next) reports through one naming
//! scheme so dashboards and soak gates never chase per-crate spellings:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `cache.<name>.hits` | counter | lookups served from the cache |
//! | `cache.<name>.misses` | counter | lookups that had to compute |
//! | `cache.<name>.invalidations` | counter | invalidation *events* |
//! | `cache.<name>.invalidations.<cause>` | counter | same, by cause |
//! | `cache.<name>.evicted` | counter | *entries* dropped by those events |
//! | `cache.<name>.resident_entries` | gauge | entries resident right now |
//! | `cache.<name>.resident_bytes` | gauge | approximate resident bytes |
//!
//! Causes are short static labels chosen by the caller — the workspace
//! uses `revision` (environment revision bump), `geometry` (deployment
//! geometry swap), `breaker` (supervisor membership change), `site`
//! (fleet site outage or recovery) and `manual`.
//!
//! [`CacheStats`] binds the global registry — the one every production
//! cache records to — and resolves the hot-path counter handles once at
//! construction, so per-lookup accounting is a single lock-free
//! increment. Cause-attributed invalidation counters are resolved per
//! event (invalidations are rare; lookups are not).

use std::sync::Arc;

use crate::metrics::{Counter, Gauge};
use crate::registry::Registry;

/// Pre-resolved `cache.<name>.*` metric handles on the global registry.
#[derive(Debug, Clone)]
pub struct CacheStats {
    name: &'static str,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidations: Arc<Counter>,
    evicted: Arc<Counter>,
    resident_entries: Arc<Gauge>,
    resident_bytes: Arc<Gauge>,
}

impl CacheStats {
    /// Handles for `cache.<name>.*` on the global registry.
    pub fn global(name: &'static str) -> Self {
        let reg = Registry::global();
        let metric = |suffix: &str| reg.counter(&format!("cache.{name}.{suffix}"));
        Self {
            name,
            hits: metric("hits"),
            misses: metric("misses"),
            invalidations: metric("invalidations"),
            evicted: metric("evicted"),
            resident_entries: reg.gauge(&format!("cache.{name}.resident_entries")),
            resident_bytes: reg.gauge(&format!("cache.{name}.resident_bytes")),
        }
    }

    /// One lookup served from the cache.
    pub fn hit(&self) {
        self.hits.inc();
    }

    /// One lookup that had to compute its entry.
    pub fn miss(&self) {
        self.misses.inc();
    }

    /// One invalidation event attributed to `cause`, dropping `evicted`
    /// entries. Recorded even when `evicted == 0` — an invalidation of an
    /// empty cache is still an event worth seeing in a soak trail.
    pub fn invalidated(&self, cause: &'static str, evicted: usize) {
        self.invalidations.inc();
        crate::counter(&format!("cache.{}.invalidations.{cause}", self.name)).inc();
        if evicted > 0 {
            self.evicted.add(evicted as u64);
        }
    }

    /// Publishes the current residency levels.
    pub fn resident(&self, entries: usize, approx_bytes: usize) {
        self.resident_entries.set(entries as f64);
        self.resident_bytes.set(approx_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_convention() {
        // Unique cache name: the global registry is shared by every test
        // in the process, so reads are by-handle, not by-snapshot.
        let stats = CacheStats::global("obs-selftest");
        let reg = Registry::global();
        stats.hit();
        stats.hit();
        stats.miss();
        stats.invalidated("revision", 3);
        stats.invalidated("manual", 0);
        stats.resident(7, 1024);
        assert_eq!(reg.counter("cache.obs-selftest.hits").get(), 2);
        assert_eq!(reg.counter("cache.obs-selftest.misses").get(), 1);
        assert_eq!(reg.counter("cache.obs-selftest.invalidations").get(), 2);
        assert_eq!(
            reg.counter("cache.obs-selftest.invalidations.revision")
                .get(),
            1
        );
        assert_eq!(
            reg.counter("cache.obs-selftest.invalidations.manual").get(),
            1
        );
        assert_eq!(reg.counter("cache.obs-selftest.evicted").get(), 3);
        assert_eq!(reg.gauge("cache.obs-selftest.resident_entries").get(), 7.0);
        assert_eq!(reg.gauge("cache.obs-selftest.resident_bytes").get(), 1024.0);
    }

    #[test]
    fn handles_are_shared_with_later_lookups() {
        let stats = CacheStats::global("obs-selftest-shared");
        stats.hit();
        Registry::global()
            .counter("cache.obs-selftest-shared.hits")
            .add(4);
        assert_eq!(
            Registry::global()
                .counter("cache.obs-selftest-shared.hits")
                .get(),
            5
        );
    }
}
