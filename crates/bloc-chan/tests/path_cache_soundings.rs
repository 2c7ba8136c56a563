//! A fleet site's sounders share one `PathCache` across worker threads.
//! The cache holds only the static master→anchor links; every sounding
//! traces its tag→antenna links into worker scratch. Soundings of moving
//! tags from several threads therefore leave exact `cache.path.*` counts
//! that do not depend on thread scheduling: one miss per static link,
//! hits for every later lookup, and no eviction.
//!
//! This binary pins exact global counters, so it holds a single test.

use std::thread;

use bloc_chan::geometry::Room;
use bloc_chan::materials::Material;
use bloc_chan::sounder::{all_data_channels, SounderConfig};
use bloc_chan::{AnchorArray, Environment, PathCache, Sounder};
use bloc_num::P2;
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn soundings_from_two_threads_leave_exact_path_cache_counts() {
    let room = Room::new(6.0, 5.0);
    let mut rng = StdRng::seed_from_u64(17);
    let env = Environment::in_room(room)
        .with_walls(Material::concrete(), &mut rng)
        .unwrap();
    let (mids, walls) = (room.wall_midpoints(), room.walls());
    let anchors: Vec<AnchorArray> = (0..4)
        .map(|i| AnchorArray::centered(i, mids[i], walls[i].direction(), 4))
        .collect();
    let channels = all_data_channels();
    let cache = PathCache::new();
    let sounder =
        Sounder::new(&env, &anchors, SounderConfig::default()).with_path_cache(cache.clone());

    let counter = |name: &str| bloc_obs::counter(&format!("cache.path.{name}")).get();
    let names = ["hits", "misses", "invalidations", "evicted"];
    let before = names.map(counter);
    let tag_move = counter("invalidations.tag_move");

    // Two threads, each walking its own tag through five positions.
    const SOUNDINGS: usize = 5;
    let tag = |thread: usize, k: usize| P2::new(1.0 + 0.7 * k as f64, 1.0 + 2.5 * thread as f64);
    let soundings: Vec<Vec<_>> = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let sounder = &sounder;
                let channels = &channels;
                s.spawn(move || {
                    (0..SOUNDINGS)
                        .map(|k| {
                            let mut rng = StdRng::seed_from_u64((t * SOUNDINGS + k) as u64);
                            sounder.sound(tag(t, k), channels, &mut rng)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let static_links = anchors.len() - 1;
    let lookups = (2 * SOUNDINGS * static_links) as u64;
    let [hits, misses, invalidations, evicted] =
        std::array::from_fn(|k| counter(names[k]) - before[k]);
    assert_eq!(misses, static_links as u64, "each static link traced once");
    assert_eq!(hits, lookups - misses, "every later lookup hits");
    assert_eq!((invalidations, evicted), (0, 0), "nothing is evicted");
    assert_eq!(counter("invalidations.tag_move"), tag_move);
    assert_eq!(cache.len(), static_links, "only static links are resident");
    assert_eq!(
        bloc_obs::gauge("cache.path.resident_entries").get(),
        static_links as f64
    );

    // Tracing tag links per sounding changes no bit: a cold sounder gives
    // the same soundings.
    let cold = Sounder::new(&env, &anchors, SounderConfig::default());
    for (t, walk) in soundings.iter().enumerate() {
        for (k, sounding) in walk.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((t * SOUNDINGS + k) as u64);
            assert_eq!(sounding, &cold.sound(tag(t, k), &channels, &mut rng));
        }
    }
}
