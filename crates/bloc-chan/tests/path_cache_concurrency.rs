//! Shared path-cache concurrency: a fleet site shares one `PathCache`
//! across every tag's synthesis, so warm reads must survive the site
//! aggregator's invalidation racing them, a cold link must be traced
//! exactly once under a stampede, and `cache.path.*` hit/miss counters
//! must conserve.
//!
//! This binary is the only one asserting *exact* `cache.path`
//! conservation, so it keeps a single test touching those counters.

use std::sync::{Arc, Barrier};
use std::thread;

use bloc_chan::{Environment, PathCache};
use bloc_num::P2;

#[test]
fn warm_reads_survive_invalidation_and_trace_exactly_once() {
    let cache = PathCache::new();
    let env = Environment::free_space();
    // A small fixed link set: four static anchor↔anchor links.
    let links = [
        (P2::new(0.0, 3.0), P2::new(2.5, 0.0)),
        (P2::new(0.0, 3.0), P2::new(5.0, 3.0)),
        (P2::new(0.0, 3.0), P2::new(2.5, 6.0)),
        (P2::new(2.5, 0.0), P2::new(5.0, 3.0)),
    ];

    let hits0 = bloc_obs::counter("cache.path.hits").get();
    let miss0 = bloc_obs::counter("cache.path.misses").get();
    let site0 = bloc_obs::counter("cache.path.invalidations.site").get();

    // Phase 1: 8 readers loop over the link set while an invalidator
    // repeatedly flushes everything under the fleet's `site` cause.
    const READERS: usize = 8;
    const ROUNDS: usize = 100;
    const INVALIDATIONS: usize = 40;
    thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    for &(tx, rx) in &links {
                        let set = cache.path_set(&env, tx, rx);
                        assert!(!set.is_empty(), "free space always has the LOS path");
                    }
                }
            });
        }
        s.spawn(|| {
            for _ in 0..INVALIDATIONS {
                cache.invalidate_with_cause("site");
                thread::yield_now();
            }
        });
    });

    // Conservation: every lookup was a hit or a counted trace.
    let hits = bloc_obs::counter("cache.path.hits").get() - hits0;
    let misses = bloc_obs::counter("cache.path.misses").get() - miss0;
    let total = (READERS * ROUNDS * links.len()) as u64;
    assert_eq!(
        hits + misses,
        total,
        "hits ({hits}) + misses ({misses}) must equal the {total} lookups"
    );
    // Each flush forces at most one re-trace per link (plus the cold
    // start); misses bound the thrash.
    assert!(
        misses >= links.len() as u64 && misses <= ((INVALIDATIONS + 1) * links.len()) as u64,
        "misses ({misses}) must stay within the invalidation budget"
    );
    assert!(
        bloc_obs::counter("cache.path.invalidations.site").get() - site0 >= INVALIDATIONS as u64,
        "every flush must be attributed to the site cause"
    );

    // Phase 2: one more flush, then a same-link stampede must trace
    // exactly once and share the Arc (the lock is held across the
    // trace).
    cache.invalidate_with_cause("site");
    let miss1 = bloc_obs::counter("cache.path.misses").get();
    let barrier = Arc::new(Barrier::new(READERS));
    let (tx, rx) = links[0];
    let (cache_ref, env_ref) = (&cache, &env);
    let sets: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    cache_ref.path_set(env_ref, tx, rx)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader must not panic"))
            .collect()
    });
    assert!(
        sets.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
        "a cold-link stampede must share one trace"
    );
    assert_eq!(
        bloc_obs::counter("cache.path.misses").get() - miss1,
        1,
        "the stampede must trace exactly once"
    );
    assert_eq!(cache.len(), 1, "one link resident after the storm");
}
