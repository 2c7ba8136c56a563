//! The end-to-end BLoc localizer: sounding → correction → likelihood →
//! multipath rejection → position.
//!
//! Every fix runs one loop, `locate` (in this module's `locate`
//! submodule): Eq. 10 correction of the tag's bursts, the Eq. 17 sweep of
//! a search level, Eq. 18 scoring of that level's windows, and widening
//! to the next level when the level cannot be trusted.
//! [`BlocLocalizer::localize`], [`BlocLocalizer::localize_batch`] and
//! [`BlocLocalizer::localize_fused`] are searches that start on the whole
//! fine grid — the dense fix is the one-level hierarchy — and
//! [`crate::hierarchical`]'s entry points start on the coarse grid or a
//! seeded patch.
//!
//! The pipeline is degradation-aware end to end: measurement holes are
//! masked in [`crate::correction`], starved anchors are down-weighted or
//! excluded in [`crate::likelihood`], and [`BlocLocalizer::localize`]
//! returns a typed [`LocalizeError`] instead of panicking (or silently
//! degrading) when a sounding cannot support a fix. Every successful
//! [`Estimate`] carries a [`DegradationReport`] describing what was
//! discarded on the way.
//!
//! The localizer reads CSI only. Degraded-mode evidence — the
//! fingerprint and packet-count priors of [`crate::fallback`] — enters
//! in the supervised round ([`crate::runtime::SessionSupervisor`]),
//! which refines an unhealthy fix on its likelihood surface and makes
//! fallback-only estimates after its retries and quorum checks.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bloc_chan::geometry::Room;
use bloc_chan::sounder::SoundingData;
use bloc_num::{Grid2D, GridSpec, P2};

use crate::correction::{correct, CorrectedChannels};
use crate::engine::LikelihoodEngine;
use crate::error::{DegradationReport, LocalizeError};
use crate::likelihood::AntennaCombining;
use crate::multipath::{ScoreConfig, ScoredPeak};

mod locate;
pub(crate) use locate::Level;

/// End-to-end pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BlocConfig {
    /// The spatial grid the likelihood is evaluated on.
    pub grid: GridSpec,
    /// Multipath-rejection score parameters (paper §7: `a = 0.1`,
    /// `b = 0.05`, 7×7 circular window).
    pub score: ScoreConfig,
    /// Normalize corrected channels to unit magnitude before correlating
    /// (default true; see [`crate::correction::correct`]).
    pub normalize_alpha: bool,
    /// How antennas combine in the per-anchor likelihood (default:
    /// non-coherent across antennas, robust to array calibration error).
    pub combining: AntennaCombining,
}

impl BlocConfig {
    /// A configuration covering `room` plus a 0.5 m margin at 8 cm
    /// resolution — the workspace default for the paper's 5 m × 6 m room.
    pub fn for_room(room: &Room) -> Self {
        Self::for_region(
            P2::new(-0.5, -0.5),
            P2::new(room.width + 1.0, room.height + 1.0),
        )
    }

    /// A configuration covering an arbitrary region at 8 cm resolution.
    pub fn for_region(origin: P2, extent: P2) -> Self {
        Self {
            grid: GridSpec::covering(origin, extent, 0.08),
            score: ScoreConfig::default(),
            normalize_alpha: true,
            combining: AntennaCombining::default(),
        }
    }

    /// Returns a copy with a different grid resolution.
    pub fn with_resolution(mut self, resolution: f64) -> Self {
        let extent = P2::new(
            self.grid.nx as f64 * self.grid.resolution,
            self.grid.ny as f64 * self.grid.resolution,
        );
        self.grid = GridSpec::covering(self.grid.origin, extent, resolution);
        self
    }

    /// Returns a copy with different score weights (ablations).
    pub fn with_score_weights(mut self, a: f64, b: f64) -> Self {
        self.score.a = a;
        self.score.b = b;
        self
    }
}

/// A localization estimate with its full evidence trail.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Estimate {
    /// The chosen tag position.
    pub position: P2,
    /// All scored likelihood peaks, best first.
    pub peaks: Vec<ScoredPeak>,
    /// The joint spatial likelihood (Fig. 8c material).
    pub likelihood: Grid2D,
    /// What the pipeline discarded to produce this fix. `is_clean()` on a
    /// healthy sounding.
    pub degradation: DegradationReport,
}

impl Estimate {
    /// A confidence proxy in `[0, 1]`: the score margin of the chosen peak
    /// over the runner-up, `1 − s₂/s₁`. Near 0 means two locations were
    /// almost equally plausible (deep multipath ambiguity); near 1 means
    /// the chosen peak dominated. A single-peak profile is fully
    /// confident. Returns 0 when produced by a decider that keeps no peak
    /// list (`localize_shortest_distance` / `localize_argmax`).
    pub fn confidence(&self) -> f64 {
        match self.peaks.as_slice() {
            [] => 0.0,
            [_] => 1.0,
            [best, second, ..] => {
                if best.score <= 0.0 {
                    0.0
                } else {
                    (1.0 - second.score / best.score).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// The one way a scored fix is finished: `position` is the best of
    /// the Eq. 18 `peaks` (best first) and `degradation.confidence` their
    /// margin. `None` when scoring found no peak.
    pub(crate) fn from_scored(
        peaks: Vec<ScoredPeak>,
        likelihood: Grid2D,
        degradation: DegradationReport,
    ) -> Option<Self> {
        let position = peaks.first()?.peak.position;
        let mut est = Self {
            position,
            peaks,
            likelihood,
            degradation,
        };
        est.degradation.confidence = est.confidence();
        Some(est)
    }
}

/// The anchor reference points Eq. 18's distance penalty is taken from.
pub(crate) fn anchor_refs(data: &SoundingData) -> Vec<P2> {
    data.anchors.iter().map(|a| a.center()).collect()
}

/// Runs one fix attempt under `span`, counted in `calls` when given, and
/// counts a failure in `localize.no_fix` — the one way every entry point
/// (dense, batched, multi-burst, hierarchical, seeded) records a fix.
pub(crate) fn observe_fix<T>(
    span: &'static str,
    calls: Option<&str>,
    fix: impl FnOnce() -> Result<T, LocalizeError>,
) -> Result<T, LocalizeError> {
    let _span = bloc_obs::span(span);
    if let Some(calls) = calls {
        bloc_obs::counter(calls).inc();
    }
    let result = fix();
    if result.is_err() {
        bloc_obs::counter("localize.no_fix").inc();
    }
    result
}

/// The BLoc localization pipeline.
///
/// Likelihood evaluation runs on a [`LikelihoodEngine`] (phasor-recurrence
/// kernel + steering-geometry cache); cloning the localizer shares the
/// cache, so per-worker clones in a sweep compute each deployment's
/// geometry once.
#[derive(Debug, Clone)]
pub struct BlocLocalizer {
    config: BlocConfig,
    engine: LikelihoodEngine,
}

impl BlocLocalizer {
    /// Builds a localizer on the default (recurrence) engine.
    pub fn new(config: BlocConfig) -> Self {
        Self {
            config,
            engine: LikelihoodEngine::default(),
        }
    }

    /// Replaces the likelihood engine (and with it the steering cache).
    pub fn with_engine(mut self, engine: LikelihoodEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The likelihood engine in force.
    pub fn engine(&self) -> &LikelihoodEngine {
        &self.engine
    }

    /// The configuration in force.
    pub fn config(&self) -> &BlocConfig {
        &self.config
    }

    /// Eq. 10 offset correction under the `correct` span.
    fn correct(&self, data: &SoundingData) -> Result<CorrectedChannels, LocalizeError> {
        let _span = bloc_obs::span("correct");
        correct(data, self.config.normalize_alpha)
    }

    /// Full localization.
    ///
    /// # Errors
    ///
    /// A [`LocalizeError`] describing exactly why no fix was possible:
    /// structurally empty input, every band dropped by masking, fewer than
    /// two surviving anchors, or a peakless likelihood.
    pub fn localize(&self, data: &SoundingData) -> Result<Estimate, LocalizeError> {
        self.localize_batch(&[data])
            .pop()
            .unwrap_or(Err(LocalizeError::EmptySounding))
    }

    /// Full localization of many soundings against this localizer's
    /// deployment: one result per sounding, in input order, each exactly
    /// what [`Self::localize`] returns for it alone.
    ///
    /// The soundings are one search on the whole fine grid: every
    /// sounding is corrected first, then the usable ones share one batched
    /// Eq. 17 sweep ([`LikelihoodEngine::likelihood_batch`]), so soundings
    /// of one deployment share each cell's lattice lookup per group of up
    /// to [`bloc_num::sweep::MAX_TAGS`]. Each fix keeps its own `localize`
    /// span and `localize.calls` increment; the batch's work runs inside
    /// the first fix's span.
    pub fn localize_batch(
        &self,
        soundings: &[&SoundingData],
    ) -> Vec<Result<Estimate, LocalizeError>> {
        let tags: Vec<&[SoundingData]> =
            soundings.iter().map(|&d| std::slice::from_ref(d)).collect();
        let mut fixes = Vec::new().into_iter();
        (0..tags.len())
            .map(|k| {
                observe_fix("localize", Some("localize.calls"), || {
                    if k == 0 {
                        fixes = self.locate(&tags, Level::Whole, 0).into_iter();
                    }
                    let fix = fixes.next().unwrap_or(Err(LocalizeError::EmptySounding));
                    fix.map(|h| h.estimate)
                })
            })
            .collect()
    }

    /// Multi-burst localization: fuses several soundings of the *same*
    /// (static) tag by summing their joint likelihood maps before peak
    /// scoring. BLE completes a full hop cycle ~40×/s (paper §6), so a
    /// tracker can afford several bursts per fix; fusion averages out
    /// per-burst noise and per-epoch offset artifacts that survive
    /// correction. The returned [`DegradationReport`] aggregates across
    /// bursts (an anchor counts as excluded only when it survived in *no*
    /// burst), and the fix is refused on it before anything is swept.
    ///
    /// # Errors
    ///
    /// When no burst was structurally sound, the first burst's correction
    /// error ([`LocalizeError::EmptySounding`] for no bursts at all);
    /// otherwise the same failures as [`Self::localize`] evaluated on the
    /// fused evidence.
    pub fn localize_fused(&self, soundings: &[SoundingData]) -> Result<Estimate, LocalizeError> {
        observe_fix("localize_fused", None, || {
            let fix = self.locate(&[soundings], Level::Whole, 0).pop();
            fix.unwrap_or(Err(LocalizeError::EmptySounding))
                .map(|h| h.estimate)
        })
    }

    /// Localization with multipath rejection replaced by the naive
    /// shortest-distance peak pick — the paper's Fig. 12 baseline. Kept on
    /// the `Option` interface: it is an ablation, not a production path.
    pub fn localize_shortest_distance(&self, data: &SoundingData) -> Option<Estimate> {
        let (grid, degradation) = self.ablation_surface(data)?;
        let pick = crate::multipath::shortest_distance_peak(
            &grid,
            &anchor_refs(data),
            &self.config.score.peaks,
        )?;
        Some(Estimate {
            position: pick.position,
            peaks: Vec::new(),
            likelihood: grid,
            degradation,
        })
    }

    /// Localization by raw argmax of the joint likelihood (no peak
    /// analysis at all) — the "naive way" of §5.4, exposed for ablations.
    pub fn localize_argmax(&self, data: &SoundingData) -> Option<Estimate> {
        let (grid, degradation) = self.ablation_surface(data)?;
        let (ix, iy, max) = grid.argmax()?;
        if max <= 0.0 {
            return None;
        }
        Some(Estimate {
            position: grid.spec().cell_center(ix, iy),
            peaks: Vec::new(),
            likelihood: grid,
            degradation,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use bloc_chan::materials::Material;
    use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
    use bloc_chan::{AnchorArray, AnchorDropout, Environment, FaultPlan};
    use rand::{rngs::StdRng, SeedableRng};

    fn anchors(room: &Room) -> Vec<AnchorArray> {
        room.wall_midpoints()
            .iter()
            .zip(room.walls().iter())
            .enumerate()
            .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
            .collect()
    }

    #[test]
    fn free_space_localization_is_tight() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(21);
        for tag in [P2::new(1.0, 1.5), P2::new(2.5, 3.0), P2::new(4.0, 4.5)] {
            let data = sounder.sound(tag, &all_data_channels(), &mut rng);
            let est = localizer.localize(&data).unwrap();
            assert!(
                est.position.dist(tag) < 0.2,
                "free-space error {} at {tag}",
                est.position.dist(tag)
            );
            assert!(est.degradation.is_clean(), "{:?}", est.degradation);
        }
    }

    #[test]
    fn multipath_localization_stays_submeter() {
        let room = Room::new(5.0, 6.0);
        let mut rng = StdRng::seed_from_u64(22);
        let env = Environment::in_room(room)
            .with_walls(Material::concrete(), &mut rng)
            .unwrap();
        let anchors = anchors(&room);
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let tag = P2::new(2.2, 3.6);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        let est = localizer.localize(&data).unwrap();
        assert!(
            est.position.dist(tag) < 1.0,
            "multipath error {}",
            est.position.dist(tag)
        );
    }

    #[test]
    fn empty_sounding_is_a_typed_error() {
        let room = Room::new(5.0, 6.0);
        let data = SoundingData {
            bands: Vec::new(),
            anchors: anchors(&room),
        };
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        assert_eq!(
            localizer.localize(&data).unwrap_err(),
            LocalizeError::EmptySounding
        );
        assert!(localizer.localize_shortest_distance(&data).is_none());
        assert!(localizer.localize_argmax(&data).is_none());
    }

    #[test]
    fn estimate_carries_evidence() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(23);
        let data = sounder.sound(P2::new(2.0, 2.0), &all_data_channels(), &mut rng);
        let est = localizer.localize(&data).unwrap();
        assert!(!est.peaks.is_empty());
        assert_eq!(est.position, est.peaks[0].peak.position);
        assert_eq!(est.likelihood.spec(), localizer.config().grid);
        assert_eq!(est.degradation.confidence, est.confidence());
        assert_eq!(est.degradation.anchors_total, 4);
    }

    #[test]
    fn confidence_reflects_peak_margin() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(31);
        let data = sounder.sound(P2::new(2.5, 3.0), &all_data_channels(), &mut rng);
        let est = localizer.localize(&data).unwrap();
        let c = est.confidence();
        assert!((0.0..=1.0).contains(&c));
        // Free space: the true peak should clearly dominate.
        assert!(c > 0.2, "free-space confidence {c}");
        // Deciders without peak lists report zero confidence.
        let sd = localizer.localize_shortest_distance(&data).unwrap();
        assert_eq!(sd.confidence(), 0.0);
    }

    #[test]
    fn config_builders() {
        let room = Room::new(5.0, 6.0);
        let c = BlocConfig::for_room(&room)
            .with_resolution(0.16)
            .with_score_weights(0.2, 0.1);
        assert_eq!(c.score.a, 0.2);
        assert_eq!(c.score.b, 0.1);
        assert!((c.grid.resolution - 0.16).abs() < 1e-12);
        // Region still covers the room + margins.
        assert!(c.grid.nx as f64 * c.grid.resolution >= room.width + 1.0 - 1e-9);
    }

    #[test]
    fn fusion_is_at_least_as_good_as_single_bursts() {
        // In the cluttered room, fusing several bursts should not be worse
        // than the median single burst (it averages per-epoch noise).
        let room = Room::new(5.0, 6.0);
        let mut rng = StdRng::seed_from_u64(77);
        let env = Environment::in_room(room)
            .with_walls(Material::concrete(), &mut rng)
            .unwrap();
        let anchors = anchors(&room);
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));

        let tag = P2::new(1.7, 3.9);
        let bursts: Vec<_> = (0..4)
            .map(|_| sounder.sound(tag, &all_data_channels(), &mut rng))
            .collect();

        let single_errs: Vec<f64> = bursts
            .iter()
            .filter_map(|b| localizer.localize(b).ok().map(|e| e.position.dist(tag)))
            .collect();
        let fused = localizer
            .localize_fused(&bursts)
            .unwrap()
            .position
            .dist(tag);
        let med_single = bloc_num::stats::median(&single_errs);
        assert!(
            fused <= med_single + 0.15,
            "fused {fused} vs median single {med_single}"
        );
    }

    #[test]
    fn fusion_handles_empty_and_degenerate() {
        let room = Room::new(5.0, 6.0);
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        assert_eq!(
            localizer.localize_fused(&[]).unwrap_err(),
            LocalizeError::EmptySounding
        );
        let empty = SoundingData {
            bands: Vec::new(),
            anchors: anchors(&room),
        };
        assert_eq!(
            localizer.localize_fused(&[empty]).unwrap_err(),
            LocalizeError::EmptySounding
        );
    }

    #[test]
    fn single_burst_fusion_is_exactly_localize() {
        // One burst through the multi-burst entry point is the dense fix,
        // bit for bit: position, peaks, likelihood and degradation.
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let chans = all_data_channels();
        let plan = FaultPlan {
            seed: 12,
            tag_loss: 0.25,
            dropouts: vec![AnchorDropout {
                anchor: 3,
                bands: 0..chans.len(),
            }],
            ..Default::default()
        };
        let clean = Sounder::new(&env, &anchors, SounderConfig::default());
        let faulted = clean.clone().with_faults(plan);
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(25);
        let tag = P2::new(3.1, 2.4);
        for sounder in [&clean, &faulted] {
            let data = sounder.sound(tag, &chans, &mut rng);
            let single = localizer.localize(&data).unwrap();
            let fused = localizer
                .localize_fused(std::slice::from_ref(&data))
                .unwrap();
            assert_eq!(fused.position, single.position);
            assert_eq!(fused.peaks, single.peaks);
            assert_eq!(fused.likelihood, single.likelihood);
            assert_eq!(fused.degradation, single.degradation);
        }
    }

    #[test]
    fn variants_agree_in_clean_conditions() {
        // With no multipath, all three deciders land on the tag.
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(24);
        let tag = P2::new(3.3, 2.1);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        for est in [
            localizer.localize(&data).unwrap(),
            localizer.localize_shortest_distance(&data).unwrap(),
            localizer.localize_argmax(&data).unwrap(),
        ] {
            assert!(est.position.dist(tag) < 0.25, "{:?}", est.position);
        }
    }

    #[test]
    fn lossy_sounding_localizes_with_populated_report() {
        // 30% hop loss + a dropped-out anchor: still a fix, and the report
        // says exactly what was absorbed.
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let chans = all_data_channels();
        let plan = FaultPlan {
            seed: 99,
            tag_loss: 0.3,
            master_loss: 0.1,
            dropouts: vec![AnchorDropout {
                anchor: 2,
                bands: 0..chans.len(),
            }],
            ..Default::default()
        };
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        )
        .with_faults(plan.clone());
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(40);
        let tag = P2::new(2.8, 3.3);
        let data = sounder.sound(tag, &chans, &mut rng);
        let est = localizer.localize(&data).unwrap();

        let census = plan.census(&chans, &anchors);
        assert_eq!(est.degradation.holes_masked, census.holes());
        assert_eq!(est.degradation.bands_dropped, census.master_tag_lost_bands);
        assert_eq!(est.degradation.anchors_excluded, vec![2]);
        assert!(!est.degradation.is_clean());
        assert!(
            est.position.dist(tag) < 0.6,
            "degraded free-space error {}",
            est.position.dist(tag)
        );
    }

    #[test]
    fn too_few_anchors_is_a_typed_error() {
        // Drop every slave for the whole sweep: only the master survives.
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let chans = all_data_channels();
        let plan = FaultPlan {
            seed: 5,
            dropouts: (1..4)
                .map(|a| AnchorDropout {
                    anchor: a,
                    bands: 0..chans.len(),
                })
                .collect(),
            ..Default::default()
        };
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan);
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(41);
        let data = sounder.sound(P2::new(2.0, 3.0), &chans, &mut rng);
        assert_eq!(
            localizer.localize(&data).unwrap_err(),
            LocalizeError::TooFewUsableAnchors {
                usable: 1,
                total: 4
            }
        );
    }

    #[test]
    fn total_master_loss_is_a_typed_error() {
        // tag_loss = 1 at the master kills ĥ00 on every band: nothing to
        // correct against, ever.
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let plan = FaultPlan {
            seed: 6,
            tag_loss: 1.0,
            ..Default::default()
        };
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan);
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(42);
        let chans = all_data_channels();
        let data = sounder.sound(P2::new(2.0, 3.0), &chans, &mut rng);
        assert_eq!(
            localizer.localize(&data).unwrap_err(),
            LocalizeError::NoUsableBands {
                total: chans.len(),
                dropped: chans.len()
            }
        );
    }
}
