//! Shared steering-cache concurrency: the fleet serves many tags off
//! one `SteeringCache`, so warm reads must survive breaker-driven
//! invalidation racing them, a cold key must be built exactly once no
//! matter how many tags ask at once, and the `cache.steering.*`
//! counters must conserve across the storm.
//!
//! This binary is the only one asserting *exact* `cache.steering`
//! hit/miss conservation. Tests within one binary share the
//! process-global registry, so every test here holds [`serial`] while it
//! touches those counters.

use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread;

use bloc_chan::geometry::Room;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
use bloc_chan::{AnchorArray, Environment};
use bloc_core::correction::correct;
use bloc_core::engine::{LikelihoodEngine, SteeringCache, SteeringTables};
use bloc_core::likelihood::AntennaCombining;
use bloc_core::BlocConfig;
use bloc_num::P2;
use rand::{rngs::StdRng, SeedableRng};

/// Serializes the tests of this binary around the global counters.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn deployment() -> (Room, Vec<AnchorArray>) {
    let room = Room::new(5.0, 6.0);
    let anchors: Vec<AnchorArray> = room
        .wall_midpoints()
        .iter()
        .zip(room.walls().iter())
        .enumerate()
        .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
        .collect();
    (room, anchors)
}

#[test]
fn warm_reads_survive_invalidation_and_rebuild_exactly_once() {
    let _serial = serial();
    let cache = SteeringCache::new();
    let (room, anchors) = deployment();
    let spec = BlocConfig::for_room(&room).grid;
    let master: Vec<f64> = anchors
        .iter()
        .map(|a| a.center().dist(anchors[0].center()))
        .collect();
    let carrier_hz = 2.441e9;

    let hits0 = bloc_obs::counter("cache.steering.hits").get();
    let miss0 = bloc_obs::counter("cache.steering.misses").get();
    let inv0 = bloc_obs::counter("cache.steering.invalidations.breaker").get();

    // Phase 1: 8 readers hammer the same key while an invalidator
    // repeatedly retires it under the breaker cause. Every read must
    // return a structurally sound table (never a torn or half-built
    // one), whether it raced a hit, a rebuild, or an eviction.
    const READERS: usize = 8;
    const READS: usize = 200;
    const INVALIDATIONS: usize = 50;
    thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                for _ in 0..READS {
                    let t = cache.tables(spec, &anchors, &master, carrier_hz);
                    assert_eq!(t.spec(), spec, "steering table must match its key");
                    assert!(t.approx_bytes() > 0, "table must be fully built");
                }
            });
        }
        s.spawn(|| {
            for _ in 0..INVALIDATIONS {
                cache.invalidate_geometry_with_cause(&anchors, "breaker");
                thread::yield_now();
            }
        });
    });

    // Conservation: every read was either a hit or a (counted) build —
    // nothing double-counted, nothing lost in the race.
    let hits = bloc_obs::counter("cache.steering.hits").get() - hits0;
    let misses = bloc_obs::counter("cache.steering.misses").get() - miss0;
    let total = (READERS * READS) as u64;
    assert_eq!(
        hits + misses,
        total,
        "hits ({hits}) + misses ({misses}) must equal the {total} reads"
    );
    // A rebuild can only follow an invalidation (plus the initial cold
    // build); misses bound the thrash.
    assert!(
        misses >= 1 && misses <= INVALIDATIONS as u64 + 1,
        "misses ({misses}) must stay within the invalidation budget"
    );
    assert!(
        bloc_obs::counter("cache.steering.invalidations.breaker").get() - inv0
            >= INVALIDATIONS as u64,
        "every invalidation must be attributed to its cause"
    );

    // Phase 2: after one more invalidation, a stampede of concurrent
    // same-key readers must produce exactly one build — the lock is
    // held across the build, so latecomers block and share the Arc.
    cache.invalidate_geometry_with_cause(&anchors, "breaker");
    let miss1 = bloc_obs::counter("cache.steering.misses").get();
    let barrier = Arc::new(Barrier::new(READERS));
    let (cache_ref, anchors_ref, master_ref) = (&cache, &anchors, &master);
    let tables: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    cache_ref.tables(spec, anchors_ref, master_ref, carrier_hz)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader must not panic"))
            .collect()
    });
    assert!(
        tables.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
        "a cold-key stampede must share one build"
    );
    assert_eq!(
        bloc_obs::counter("cache.steering.misses").get() - miss1,
        1,
        "the stampede must rebuild exactly once"
    );
    assert_eq!(cache.len(), 1, "one deployment resident after the storm");
}

#[test]
fn concurrent_window_fills_compute_each_tile_once() {
    let _serial = serial();
    let cache = SteeringCache::new();
    let (room, anchors) = deployment();
    let spec = BlocConfig::for_room(&room).grid;
    let master: Vec<f64> = anchors
        .iter()
        .map(|a| a.center().dist(anchors[0].center()))
        .collect();
    let carrier_hz = 2.441e9;
    // Four overlapping patch windows of one key, as four tags tracked
    // side by side would ask for them.
    let windows: Vec<_> = [(1.8, 2.6), (2.3, 2.9), (2.0, 3.4), (2.6, 3.1)]
        .iter()
        .map(|&(x, y)| spec.patch(P2::new(x, y), 1.1))
        .collect();

    let miss0 = bloc_obs::counter("cache.steering.misses").get();
    let barrier = Barrier::new(windows.len());
    let tables: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = windows
            .iter()
            .map(|w| {
                let (cache, anchors, master, barrier) = (&cache, &anchors, &master, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    cache.window(spec, anchors, master, carrier_hz, w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("filler must not panic"))
            .collect()
    });
    assert_eq!(
        bloc_obs::counter("cache.steering.misses").get() - miss0,
        1,
        "one key, one miss, however many windows fill it"
    );
    assert!(
        tables.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
        "every filler must share the one entry"
    );

    // The same windows filled one after another compute each tile of
    // their union exactly once; the racing fill must have computed
    // exactly as many bytes — a tile computed twice would count twice.
    let serial_fill = SteeringTables::empty(spec, &anchors, &master, carrier_hz);
    let tiles: usize = windows.iter().map(|w| serial_fill.fill(w)).sum();
    assert!(tiles > 0);
    assert_eq!(
        windows.iter().map(|w| serial_fill.fill(w)).sum::<usize>(),
        0
    );
    assert_eq!(tables[0].approx_bytes(), serial_fill.approx_bytes());
    assert!(tables[0].approx_bytes() > 0);

    // And the racing fill's values are the whole-grid build's.
    let whole = SteeringTables::build(spec, &anchors, &master, carrier_hz);
    for w in &windows {
        for iy in w.y0..w.y0 + w.spec.ny {
            for ix in w.x0..w.x0 + w.spec.nx {
                let cell = spec.flat(ix, iy);
                for i in 0..anchors.len() {
                    let bits = |t: &SteeringTables| -> Vec<u64> {
                        t.cell_deltas(i, cell).iter().map(|d| d.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(&tables[0]),
                        bits(&whole),
                        "cell ({ix},{iy}) anchor {i}"
                    );
                }
            }
        }
    }
    assert_eq!(cache.len(), 1);
}

#[test]
fn racing_window_fills_feed_the_kernel_the_whole_build_bits() {
    let _serial = serial();
    let (room, anchors) = deployment();
    let spec = BlocConfig::for_room(&room).grid;
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(31);
    let corrected = correct(
        &sounder.sound(P2::new(2.4, 2.9), &all_data_channels(), &mut rng),
        true,
    )
    .expect("sounding must correct");
    let combining = AntennaCombining::Hybrid;
    // Overlapping patch windows sharing tiles and storage blocks, as
    // four tags tracked side by side would ask for them.
    let windows: Vec<_> = [(1.8, 2.6), (2.3, 2.9), (2.0, 3.4), (2.6, 3.1)]
        .iter()
        .map(|&(x, y)| spec.patch(P2::new(x, y), 1.1))
        .collect();

    // Four threads fill their windows of one cold entry at once, each
    // sweeping its window straight off the tiles the race left.
    let racing = LikelihoodEngine::default();
    let barrier = Barrier::new(windows.len());
    let raced: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = windows
            .iter()
            .map(|w| {
                let (racing, corrected, barrier) = (&racing, &corrected, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    racing.anchor_maps(corrected, spec, w, combining)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("filler must not panic"))
            .collect()
    });
    assert_eq!(racing.cache().len(), 1, "one key, one entry");

    // The kernel reads the seed and step phasors the race stored: its
    // maps, during the race and after it, are those of a whole-grid
    // build bit for bit.
    let whole = LikelihoodEngine::default();
    let _ = whole.joint_likelihood(&corrected, spec, combining);
    let bits = |maps: &[(usize, bloc_num::Grid2D)]| -> Vec<(usize, Vec<u64>)> {
        maps.iter()
            .map(|(i, m)| (*i, m.data().iter().map(|v| v.to_bits()).collect()))
            .collect()
    };
    for (w, during) in windows.iter().zip(&raced) {
        let expected = bits(&whole.anchor_maps(&corrected, spec, w, combining));
        assert!(!expected.is_empty());
        assert_eq!(bits(during), expected, "window at ({}, {})", w.x0, w.y0);
        assert_eq!(
            bits(&racing.anchor_maps(&corrected, spec, w, combining)),
            expected,
            "window at ({}, {}) after the race",
            w.x0,
            w.y0
        );
    }
}
