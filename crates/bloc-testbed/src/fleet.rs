//! Multi-site fleet testbed: deterministic scenarios, fault menus and a
//! [`FleetDriver`] implementation for exercising
//! [`bloc_core::FleetSupervisor`] end to end.
//!
//! Each site is a full [`Scenario`] with its own shared
//! [`bloc_chan::PathCache`] and its own slice of the fault-plan menu
//! (packet loss, dead antennas + clipping, interference + a scheduled
//! anchor outage window, range-dependent loss), so a fleet run covers
//! every injection class the `bloc-chan` fault layer offers. Soundings
//! are pure functions of `(fleet seed, site, tag, round, attempt)` via
//! [`bloc_core::fleet::sounding_seed`], so a fleet batch and a solo
//! [`bloc_core::SessionSupervisor`] replay of one tag see bit-identical
//! measurements — the foundation of the `soak fleet` cross-tag
//! contamination gate.

use rand::rngs::StdRng;
use rand::SeedableRng;

use bloc_ble::channels::Channel;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig, SoundingData};
use bloc_chan::{AnchorDropout, FaultPlan, InterferenceBurst, PathCache, RangeLoss};
use bloc_core::fleet::{sounding_seed, FleetDriver, SiteId, SiteSpec, TagId};
use bloc_core::{FallbackConfig, FallbackStack, PacketCountModel};
use bloc_num::seed::splitmix64;
use bloc_num::{GridSpec, P2};

use crate::scenario::Scenario;
use crate::train_fingerprint_db;

/// The scheduled anchor-outage window on interference sites (site index
/// ≡ 2 mod 4): anchor 2 is fully dark for fleet rounds in this range,
/// long enough for per-tag breakers to open and the site aggregator to
/// declare (and later recover from) a site-level outage.
pub const OUTAGE_ANCHOR: usize = 2;
/// First round of the scheduled outage window.
pub const OUTAGE_FROM: u64 = 4;
/// One past the last round of the scheduled outage window.
pub const OUTAGE_TO: u64 = 10;

/// A deterministic multi-site deployment for fleet serving runs.
pub struct FleetTestbed {
    /// One scenario per site.
    pub scenarios: Vec<Scenario>,
    /// One shared synthesis path cache per site (clones share storage).
    pub path_caches: Vec<PathCache>,
    /// The sounded channel set (shared by every site).
    pub channels: Vec<Channel>,
    /// The fleet master seed.
    pub seed: u64,
    /// Whether site specs carry a trained fingerprint database (the
    /// survey costs a few hundred soundings per site — on for soaks,
    /// off for quick integration tests).
    pub with_fingerprints: bool,
}

impl FleetTestbed {
    /// The standard 4-site soak deployment: two multipath-rich rooms
    /// and two clean rooms, full channel set, fingerprints surveyed.
    pub fn standard(seed: u64) -> Self {
        let scenarios = vec![
            Scenario::paper_testbed(seed),
            Scenario::clean_los(seed ^ 1),
            Scenario::paper_testbed(seed ^ 2),
            Scenario::clean_los(seed ^ 3),
        ];
        let path_caches = scenarios.iter().map(|_| PathCache::new()).collect();
        Self {
            scenarios,
            path_caches,
            channels: all_data_channels(),
            seed,
            with_fingerprints: true,
        }
    }

    /// A cheap 2-site deployment for integration tests: clean rooms, 12
    /// channels, no fingerprint survey.
    pub fn small(seed: u64) -> Self {
        let scenarios = vec![Scenario::clean_los(seed), Scenario::clean_los(seed ^ 1)];
        let path_caches = scenarios.iter().map(|_| PathCache::new()).collect();
        Self {
            scenarios,
            path_caches,
            channels: all_data_channels()[..12].to_vec(),
            seed,
            with_fingerprints: false,
        }
    }

    /// Builds the per-site [`SiteSpec`]s: localization config (optionally
    /// at a coarser `resolution`), fallback stack, shared path cache.
    pub fn site_specs(&self, resolution: Option<f64>) -> Vec<SiteSpec> {
        self.scenarios
            .iter()
            .zip(self.path_caches.iter())
            .enumerate()
            .map(|(i, (scenario, path_cache))| {
                let mut bloc = scenario.bloc_config();
                if let Some(res) = resolution {
                    bloc.grid = GridSpec::covering(
                        P2::new(-0.5, -0.5),
                        P2::new(scenario.room.width + 1.0, scenario.room.height + 1.0),
                        res,
                    );
                }
                let mut fallback = FallbackStack::new(FallbackConfig::default()).with_counts(
                    PacketCountModel::new(
                        0.1,
                        RangeLoss {
                            d0: 1.0,
                            per_m: 0.08,
                            max: 0.5,
                        },
                    ),
                );
                if self.with_fingerprints {
                    let db = train_fingerprint_db(scenario, 0.75, self.seed ^ 0xF1F0 ^ i as u64, 4);
                    fallback = fallback.with_fingerprints(db);
                }
                SiteSpec {
                    bloc,
                    anchors: scenario.anchors.clone(),
                    fallback,
                    path_cache: path_cache.clone(),
                }
            })
            .collect()
    }

    /// A driver over this testbed (borrows the scenarios).
    pub fn driver(&self) -> FleetTestbedDriver<'_> {
        let sounders = self
            .scenarios
            .iter()
            .zip(self.path_caches.iter())
            .map(|(s, cache)| {
                s.sounder(SounderConfig::default())
                    .with_path_cache(cache.clone())
            })
            .collect();
        FleetTestbedDriver {
            sounders,
            channels: &self.channels,
            seed: self.seed,
            panics: Vec::new(),
            latencies: Vec::new(),
        }
    }
}

/// The testbed's [`FleetDriver`]: deterministic soundings under each
/// site's fault menu, plus injectable per-tag panics and declared
/// latencies.
pub struct FleetTestbedDriver<'a> {
    sounders: Vec<Sounder<'a>>,
    channels: &'a [Channel],
    seed: u64,
    panics: Vec<(SiteId, TagId, u64)>,
    latencies: Vec<(SiteId, TagId, u64, u64)>,
}

impl FleetTestbedDriver<'_> {
    /// Schedules an injected panic: this tag's sounding panics at this
    /// fleet round (modelling a faulty per-tag pipeline).
    pub fn with_panic(mut self, site: SiteId, tag: TagId, round: u64) -> Self {
        self.panics.push((site, tag, round));
        self
    }

    /// Declares an external latency (µs) for this tag's round — charged
    /// against the round's deadline budget before any work runs.
    pub fn with_latency(mut self, site: SiteId, tag: TagId, round: u64, us: u64) -> Self {
        self.latencies.push((site, tag, round, us));
        self
    }

    /// The fault plan a site applies at `round` — one injection class
    /// per site index (mod 4), covering the full `bloc-chan` menu:
    ///
    /// * `0` — tag + master packet loss;
    /// * `1` — dead RF chains + frontend clipping;
    /// * `2` — an interference burst, plus the scheduled
    ///   [`OUTAGE_ANCHOR`] blackout during
    ///   [`OUTAGE_FROM`]`..`[`OUTAGE_TO`];
    /// * `3` — distance-dependent reception loss.
    pub fn plan_for(&self, site: SiteId, round: u64) -> FaultPlan {
        match site.0 % 4 {
            0 => FaultPlan {
                tag_loss: 0.15,
                master_loss: 0.05,
                ..Default::default()
            },
            1 => FaultPlan {
                dead_antennas: vec![(1, 0), (3, 2)],
                clip_level: Some(0.005),
                ..Default::default()
            },
            2 => {
                let mut plan = FaultPlan {
                    interference: vec![InterferenceBurst {
                        freq_lo: 10,
                        freq_hi: 20,
                        noise_rel: 0.8,
                    }],
                    ..Default::default()
                };
                if (OUTAGE_FROM..OUTAGE_TO).contains(&round) {
                    plan.dropouts.push(AnchorDropout {
                        anchor: OUTAGE_ANCHOR,
                        bands: 0..self.channels.len(),
                    });
                }
                plan
            }
            _ => FaultPlan {
                range_loss: Some(RangeLoss {
                    d0: 1.0,
                    per_m: 0.08,
                    max: 0.5,
                }),
                ..Default::default()
            },
        }
    }

    /// The tag's true position at `round`: a deterministic per-tag
    /// anchor point (hashed from the fleet seed) plus a slow orbit, kept
    /// inside the room with margin.
    pub fn truth(&self, site: SiteId, tag: TagId, round: u64) -> P2 {
        let h = bloc_num::seed::stream_seed(self.seed ^ 0x7275_7468, site.0 as u64, tag.0, 0);
        let fx = (h >> 11) as f64 / (1u64 << 53) as f64;
        let fy = (splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64;
        let x0 = 0.8 + 3.4 * fx;
        let y0 = 0.8 + 4.4 * fy;
        let angle = round as f64 * 0.37 + fx * std::f64::consts::TAU;
        P2::new(x0 + 0.2 * angle.cos(), y0 + 0.2 * angle.sin())
    }
}

impl FleetDriver for FleetTestbedDriver<'_> {
    fn sound(&self, site: SiteId, tag: TagId, round: u64, attempt: usize) -> SoundingData {
        if self.panics.contains(&(site, tag, round)) {
            panic!("injected tag fault: {site}/{tag} at round {round}");
        }
        let s = sounding_seed(self.seed, site, tag, round, attempt);
        let plan = self.plan_for(site, round).with_seed(s);
        let mut rng = StdRng::seed_from_u64(s);
        self.sounders[site.0].clone().with_faults(plan).sound(
            self.truth(site, tag, round),
            self.channels,
            &mut rng,
        )
    }

    fn round_latency_us(&self, site: SiteId, tag: TagId, round: u64) -> u64 {
        self.latencies
            .iter()
            .find(|&&(s, t, r, _)| (s, t, r) == (site, tag, round))
            .map_or(0, |&(_, _, _, us)| us)
    }
}
