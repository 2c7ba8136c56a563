//! `corridor_track` — supervised hierarchical tracking in a large venue.
//!
//! Tags walk the aisles of `Scenario::corridor` at 0.3 m per round, each
//! under its own `SessionSupervisor` running the coarse-to-fine solver
//! seeded from the live track. One timed call is one tag's `run_round`;
//! one step is a round of every tag, one after another on one thread. The
//! round's soundings are generated before the timed calls, and the time a
//! retry spends sounding is taken out of its call, so the timing holds
//! supervision, the hierarchy and the tracker, not the channel simulator.
//! The tags share one likelihood engine, as a venue's sessions do; seeded
//! patches move every round, so its steering cache misses and builds
//! tables every round.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use bloc_chan::sounder::{all_data_channels, SounderConfig};
use bloc_core::engine::LikelihoodEngine;
use bloc_core::{BlocLocalizer, HierarchicalConfig, RuntimeConfig, SessionSupervisor};
use bloc_num::seed::stream_seed;
use bloc_num::P2;
use bloc_testbed::Scenario;

use super::{bench_span, ms_since, Observed, Pass};

/// The corridor's seed: the venue is fixed, `--seed` picks the walks.
pub const VENUE_SEED: u64 = 2026;

/// Distance a tag walks per round, metres.
const STEP_M: f64 = 0.3;
/// Round period, seconds (0.3 m per 0.25 s is a 1.2 m/s walk).
const DT_S: f64 = 0.25;
/// Aisle lanes clear of the pillar rows at y = 3.4 m and y = 6.5 m.
const LANES_Y: [f64; 3] = [1.7, 4.95, 8.2];
/// Walks turn around this far from the short walls, metres.
const END_MARGIN_M: f64 = 1.0;

/// Seed-stream axes.
const WALK: u64 = 1;
const SOUND: u64 = 2;
const RETRY: u64 = 3;

/// A tag pacing one aisle lane back and forth.
struct Walker {
    position: P2,
    heading: f64,
    x_max: f64,
}

impl Walker {
    /// Tag `tag` of `n_tags`: lanes are dealt round-robin and each tag
    /// starts in its own stretch of the aisle, jittered by the seed, so
    /// every seed covers the venue alike.
    fn new(seed: u64, tag: u64, n_tags: u64, corridor_width: f64) -> Self {
        let h = stream_seed(seed, WALK, tag, 0);
        let jitter = (h >> 11) as f64 / (1u64 << 53) as f64;
        let x_max = corridor_width - END_MARGIN_M;
        let stretch = (tag as f64 + jitter) / n_tags as f64;
        Self {
            position: P2::new(
                END_MARGIN_M + stretch * (x_max - END_MARGIN_M),
                LANES_Y[tag as usize % LANES_Y.len()],
            ),
            heading: if h & 1 == 0 { 1.0 } else { -1.0 },
            x_max,
        }
    }

    /// Advances one round and returns the new position.
    fn step(&mut self) -> P2 {
        let mut x = self.position.x + self.heading * STEP_M;
        if x > self.x_max || x < END_MARGIN_M {
            self.heading = -self.heading;
            x = self.position.x + self.heading * STEP_M;
        }
        self.position.x = x;
        self.position
    }
}

/// Set-up state: the venue and one walker plus supervisor per tag.
pub struct CorridorTrack {
    scenario: Scenario,
    seed: u64,
    tags: Vec<(Walker, SessionSupervisor)>,
    /// The next round.
    round: u64,
}

impl CorridorTrack {
    /// Builds the venue and the supervisors, which share one engine and so
    /// one steering cache, then runs every tag's acquisition round (the
    /// full coarse-to-fine search that starts a track and fills the coarse
    /// steering tables) outside the timing.
    pub fn setup(seed: u64, n_tags: usize) -> Self {
        let scenario = Scenario::corridor(VENUE_SEED);
        let config = scenario.bloc_config();
        let engine = LikelihoodEngine::default();
        let tags = (0..n_tags as u64)
            .map(|k| {
                let mut runtime = RuntimeConfig {
                    hierarchical: Some(HierarchicalConfig::default()),
                    ..RuntimeConfig::default()
                };
                runtime.retry.seed = stream_seed(seed, RETRY, k, 0);
                let sup = SessionSupervisor::new(
                    BlocLocalizer::new(config).with_engine(engine.clone()),
                    scenario.anchors.len(),
                    runtime,
                );
                (
                    Walker::new(seed, k, n_tags as u64, scenario.room.width),
                    sup,
                )
            })
            .collect();
        let mut bench = Self {
            scenario,
            seed,
            tags,
            round: 0,
        };
        bench.run(false, &mut Pass::new(1));
        bench
    }

    pub(super) fn run(&mut self, traced: bool, pass: &mut Pass) -> Observed {
        let sounder = self.scenario.sounder(SounderConfig::default());
        let channels = all_data_channels();
        let grid = self.scenario.bloc_config().grid;
        let mut rounds = 0;
        while pass.more() {
            let stream = |tag: usize, attempt: usize| {
                let s = stream_seed(self.seed ^ SOUND, tag as u64, self.round, attempt as u64);
                StdRng::seed_from_u64(s)
            };
            let soundings: Vec<_> = (self.tags.iter_mut().enumerate())
                .map(|(k, (walker, _))| {
                    let truth = walker.step();
                    let _span = bench_span(traced, "bench.sounder");
                    (truth, sounder.sound(truth, &channels, &mut stream(k, 0)))
                })
                .collect();
            let mut calls_ms = Vec::with_capacity(self.tags.len());
            let outcomes: Vec<_> = (self.tags.iter_mut().zip(soundings).enumerate())
                .map(|(k, ((_, sup), (truth, first)))| {
                    let mut first = Some(first);
                    let mut retry_ms = 0.0;
                    let t = Instant::now();
                    let outcome = {
                        let _span = bench_span(traced, "bench.runtime");
                        sup.run_round(DT_S, |attempt| {
                            first.take().unwrap_or_else(|| {
                                let t = Instant::now();
                                let data = sounder.sound(truth, &channels, &mut stream(k, attempt));
                                retry_ms += ms_since(t);
                                data
                            })
                        })
                    };
                    calls_ms.push(ms_since(t) - retry_ms);
                    (truth, outcome)
                })
                .collect();
            pass.end_step(&calls_ms);
            for (truth, outcome) in outcomes {
                rounds += 1;
                pass.record(0, outcome.position(), truth, &grid);
            }
            self.round += 1;
        }
        vec![("runtime.rounds".into(), rounds)]
    }
}
