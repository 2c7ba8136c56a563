//! The one localization loop every fix runs: correct → sweep → score →
//! widen.
//!
//! Dense, batched, multi-burst, hierarchical and seeded fixes all call
//! [`BlocLocalizer::locate`]. A *tag* is one or more bursts of a static
//! tag. Every tag of one call searches the same levels, only ever
//! widening:
//!
//! * [`Level::Seeded`] — one fine patch around one tag's predicted
//!   position;
//! * [`Level::Coarse`] — the coarse sweep, then one fine patch per
//!   candidate lobe;
//! * [`Level::Whole`] — the fine grid as a single window: the dense fix.
//!
//! 1. **Evidence.** Each tag's bursts are corrected once (Eq. 10), the
//!    masking is recorded under `fault.recovered.*` and folded into one
//!    [`DegradationReport`], and the band and anchor quorum refuses the
//!    tag before anything is swept.
//! 2. **Sweep.** At a level, every burst of every tag still searching goes
//!    into one batched Eq. 17 call per window
//!    ([`crate::engine::LikelihoodEngine::likelihood_batch`]) under the
//!    `likelihood` span, and each tag's bursts are summed in input order.
//! 3. **Score.** [`crate::multipath::score_windows`] reads the level's
//!    windows under the `score_peaks` span.
//! 4. **Widen.** A level that cannot be trusted hands the tag to the next
//!    one with a typed [`EscapeReason`], counted under
//!    `hier.escape.<reason>`. Two checks skip a level before it is swept:
//!    a small fine grid goes straight to `Whole` (`SmallGrid`), and a
//!    seeded patch that is too large to win goes to `Coarse`
//!    (`PatchTooLarge`). After the sweep, a seeded patch with no positive
//!    local peak or with its best cell on its border widens to `Coarse`,
//!    and a coarse level whose patches lost every scored candidate widens
//!    to `Whole` (`DenseFallback`). A coarse level with no positive
//!    candidate, and the whole grid without a peak, fail with
//!    [`LocalizeError::NoPeak`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bloc_chan::sounder::SoundingData;
use bloc_num::peaks::{find_peaks, PeakOptions};
use bloc_num::{Grid2D, GridPatch, GridSpec, P2};

use super::{BlocConfig, BlocLocalizer, Estimate};
use crate::correction::CorrectedChannels;
use crate::engine::SoundingMaps;
use crate::error::{DegradationReport, LocalizeError};
use crate::hierarchical::{
    coarse_grid, refine_half_extent_m, EscapeReason, HierarchicalEstimate, COARSE_DOMINANCE_RADIUS,
    COARSE_MIN_REL_HEIGHT, MAX_CANDIDATES, SEED_ESCAPE_FRACTION,
};
use crate::likelihood::{alive_anchors, anchor_weights};
use crate::multipath::score_windows;

/// A search level. Searches only widen: `Seeded` → `Coarse` → `Whole`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Level {
    /// One fine patch of half-extent `radius_m` (plus scoring margins)
    /// around `seed`, one tag's predicted position.
    Seeded { seed: P2, radius_m: f64 },
    /// The coarse sweep, then one fine patch per candidate lobe.
    Coarse,
    /// The fine grid as a single window: the dense fix.
    Whole,
}

impl Level {
    /// The level a search widens to when this one cannot fix it.
    fn next(self) -> Option<Level> {
        match self {
            Level::Seeded { .. } => Some(Level::Coarse),
            Level::Coarse => Some(Level::Whole),
            Level::Whole => None,
        }
    }
}

/// One tag's search: its corrected evidence and what it has spent.
struct Search {
    /// The bursts that kept at least one band, in input order; dropped
    /// once the search has its fix.
    bursts: Vec<CorrectedChannels>,
    /// Alive anchors summed over `bursts`: the cells one sweep spends per
    /// window cell.
    alive: usize,
    degradation: DegradationReport,
    /// The first reason the search widened.
    escape: Option<EscapeReason>,
    cells: usize,
    fix: Option<Result<HierarchicalEstimate, LocalizeError>>,
}

impl Search {
    fn widen(&mut self, reason: EscapeReason) {
        bloc_obs::counter(&format!("hier.escape.{}", reason.reason())).inc();
        self.escape.get_or_insert(reason);
    }
}

/// What one level swept for one tag: the windows Eq. 18 scores, and the
/// coarse joint when the level has one. Without it, the level's single
/// window is the surface the estimate carries.
type Swept = (Vec<(GridPatch, Grid2D)>, Option<Grid2D>);

impl BlocLocalizer {
    /// Localizes each of `tags` (one or more bursts each), starting the
    /// search at `start`; a fine grid of at most `small_grid_cells` cells
    /// starts a `Seeded` or `Coarse` search at `Whole`. A `Seeded` start
    /// is one tag's prediction, so it takes one tag. One result per tag,
    /// in input order.
    pub(crate) fn locate(
        &self,
        tags: &[&[SoundingData]],
        start: Level,
        small_grid_cells: usize,
    ) -> Vec<Result<HierarchicalEstimate, LocalizeError>> {
        debug_assert!(tags.len() <= 1 || !matches!(start, Level::Seeded { .. }));
        let seeded = matches!(start, Level::Seeded { .. });
        let mut searches: Vec<_> = tags.iter().map(|b| self.evidence(b)).collect();
        let mut level = Some(start);
        while let Some(at) = level {
            let mut here: Vec<&mut Search> = (searches.iter_mut().flatten())
                .filter(|s| s.fix.is_none())
                .collect();
            if here.is_empty() {
                break;
            }
            if let Some(reason) = self.skip(at, small_grid_cells) {
                here.iter_mut().for_each(|s| s.widen(reason));
                level = match reason {
                    EscapeReason::SmallGrid => Some(Level::Whole),
                    _ => at.next(),
                };
                continue;
            }
            let swept = match at {
                Level::Coarse => self.coarse_level(&mut here),
                _ => self.window_level(at, &mut here),
            };
            for (s, swept) in here.iter_mut().zip(swept) {
                match self.fix(at, swept, s, seeded) {
                    Ok(fix) => s.fix = Some(Ok(fix)),
                    Err(Some(reason)) => s.widen(reason),
                    Err(None) => s.fix = Some(Err(LocalizeError::NoPeak)),
                }
                if s.fix.is_some() {
                    s.bursts = Vec::new();
                }
            }
            level = at.next();
        }
        (searches.into_iter())
            .map(|s| s.and_then(|s| s.fix.unwrap_or(Err(LocalizeError::NoPeak))))
            .collect()
    }

    /// The evidence step: Eq. 10 correction of one tag's bursts. Every
    /// structurally sound burst's masking is recorded under
    /// `fault.recovered.*` and folded into one [`DegradationReport`]
    /// (counts summed, the widest span kept, an anchor excluded only when
    /// it survived in no burst); bursts left without a band are not
    /// swept. The tag is refused, before any sweep, when no burst is
    /// structurally sound (the first burst's error), no band survived, or
    /// fewer than two anchors did. For one burst the report is exactly
    /// that burst's.
    fn evidence(&self, bursts: &[SoundingData]) -> Result<Search, LocalizeError> {
        let mut first_error = None;
        let mut degradation = DegradationReport::default();
        let mut surviving: Vec<usize> = Vec::new();
        let mut swept: Vec<CorrectedChannels> = Vec::new();
        for data in bursts {
            let corrected = match self.correct(data) {
                Ok(c) => c,
                Err(e) => {
                    first_error.get_or_insert(e);
                    continue;
                }
            };
            record_recovered(&corrected);
            let m = &corrected.masking;
            degradation.bands_total += m.bands_total;
            degradation.bands_dropped += m.bands_dropped;
            degradation.holes_masked += m.holes_masked;
            degradation.nonfinite_masked += m.nonfinite_masked;
            degradation.effective_span_hz = degradation.effective_span_hz.max(m.effective_span_hz);
            if surviving.len() < corrected.surviving.len() {
                surviving.resize(corrected.surviving.len(), 0);
            }
            for (acc, &s) in surviving.iter_mut().zip(&corrected.surviving) {
                *acc += s;
            }
            if !corrected.bands.is_empty() {
                if swept.is_empty() {
                    degradation.anchors_total = corrected.n_anchors();
                }
                swept.push(corrected);
            }
        }
        // A corrected burst always has an anchor: none means no burst was
        // structurally sound.
        if surviving.is_empty() {
            return Err(first_error.unwrap_or(LocalizeError::EmptySounding));
        }
        if swept.is_empty() {
            return Err(LocalizeError::NoUsableBands {
                total: degradation.bands_total,
                dropped: degradation.bands_dropped,
            });
        }
        degradation.anchors_excluded = (0..surviving.len())
            .filter(|&i| surviving[i] == 0)
            .collect();
        let usable = surviving.len() - degradation.anchors_excluded.len();
        if usable < 2 {
            return Err(LocalizeError::TooFewUsableAnchors {
                usable,
                total: surviving.len(),
            });
        }
        Ok(Search {
            alive: swept.iter().map(|c| alive_anchors(c).len()).sum(),
            bursts: swept,
            degradation,
            escape: None,
            cells: 0,
            fix: None,
        })
    }

    /// The Fig. 12 ablations' front half: `data`'s evidence step and its
    /// whole-grid joint, `None` when the evidence step refuses it.
    pub(super) fn ablation_surface(
        &self,
        data: &SoundingData,
    ) -> Option<(Grid2D, DegradationReport)> {
        let mut s = self.evidence(std::slice::from_ref(data)).ok()?;
        let (mut windows, _) = self.window_level(Level::Whole, &mut [&mut s]).pop()?;
        Some((windows.pop()?.1, s.degradation))
    }

    /// Why level `at` cannot win before anything is swept there: a fine
    /// grid of at most `small_grid_cells` is swept whole, and a seeded
    /// patch covering [`SEED_ESCAPE_FRACTION`] of it costs more than the
    /// coarse search.
    fn skip(&self, at: Level, small_grid_cells: usize) -> Option<EscapeReason> {
        let fine = self.config.grid;
        match at {
            Level::Whole => None,
            _ if fine.len() <= small_grid_cells => Some(EscapeReason::SmallGrid),
            Level::Seeded { seed, radius_m } => {
                let escape_cells = ((SEED_ESCAPE_FRACTION * fine.len() as f64) as usize).max(1);
                let too_large = self.seeded_patch(seed, radius_m).spec.len() >= escape_cells;
                too_large.then_some(EscapeReason::PatchTooLarge)
            }
            Level::Coarse => None,
        }
    }

    /// The fine patch a seeded search sweeps: half-extent `radius_m` plus
    /// the scoring margins around `seed`.
    fn seeded_patch(&self, seed: P2, radius_m: f64) -> GridPatch {
        let (cfg, fine) = (&self.config.score, self.config.grid);
        let margin =
            cfg.entropy_radius_m + (cfg.peaks.dominance_radius + 1) as f64 * fine.resolution;
        fine.patch(seed, radius_m.max(0.0) + margin)
    }

    /// A one-window level for every search at it: the seeded patch or the
    /// whole fine grid.
    fn window_level(&self, at: Level, here: &mut [&mut Search]) -> Vec<Swept> {
        let fine = self.config.grid;
        let window = match at {
            Level::Seeded { seed, radius_m } => self.seeded_patch(seed, radius_m),
            _ => GridPatch::whole(fine),
        };
        (self.sweep(here, fine, &window, false).into_iter())
            .map(|maps| (vec![(window, summed(maps, window.spec))], None))
            .collect()
    }

    /// The coarse level for every search at it: one coarse sweep, then
    /// each search's candidate lobes, each refined on an index-aligned
    /// patch of the fine grid. Each alive anchor's patch maps are scaled
    /// by its weight over its **coarse** maximum — one normalizer per
    /// anchor shared by every patch, so candidates from different patches
    /// rank on one scale (the dense normalizer is unknowable without a
    /// dense sweep).
    fn coarse_level(&self, here: &mut [&mut Search]) -> Vec<Swept> {
        let fine = self.config.grid;
        let coarse = coarse_grid(fine);
        let half = refine_half_extent_m(&self.config);
        let levels = self.sweep(here, coarse, &GridPatch::whole(coarse), true);
        let mut swept = Vec::with_capacity(here.len());
        for (s, maps) in here.iter_mut().zip(levels) {
            let scales: Vec<Vec<(f64, f64)>> = (s.bursts.iter().zip(&maps))
                .map(|(c, m)| {
                    let weights = anchor_weights(c);
                    (m.anchor_maps.iter())
                        .map(|(i, map)| (map.argmax().map_or(0.0, |(_, _, v)| v), weights[*i]))
                        .collect()
                })
                .collect();
            let surface = summed(maps, coarse);
            let candidates = find_peaks(
                &surface,
                &PeakOptions {
                    dominance_radius: COARSE_DOMINANCE_RADIUS,
                    min_rel_height: COARSE_MIN_REL_HEIGHT,
                    max_peaks: MAX_CANDIDATES,
                },
            )
            .peaks;
            let mut windows = Vec::with_capacity(candidates.len());
            for c in &candidates {
                let patch = fine.patch(c.position, half);
                let mut joint = Grid2D::zeros(patch.spec);
                let maps = self.sweep(std::slice::from_mut(s), fine, &patch, true);
                for (m, scales) in maps.into_iter().flatten().zip(&scales) {
                    for ((_, mut map), &(max, weight)) in m.anchor_maps.into_iter().zip(scales) {
                        if max > 0.0 {
                            map.scale(1.0 / max);
                        }
                        map.scale(weight);
                        joint.add_assign(&map);
                    }
                }
                windows.push((patch, joint));
            }
            swept.push((windows, Some(surface)));
        }
        swept
    }

    /// A search's fix from what level `at` swept for it; otherwise the
    /// reason to widen, or `None` when the search fails with
    /// [`LocalizeError::NoPeak`]. A seeded patch must first pass its
    /// checks — best cell positive and clear of the patch's interior
    /// border — and a coarse level needs a positive candidate patch.
    fn fix(
        &self,
        at: Level,
        (mut windows, coarse): Swept,
        s: &Search,
        seeded: bool,
    ) -> Result<HierarchicalEstimate, Option<EscapeReason>> {
        let fine = self.config.grid;
        let keep = keep_dist(&self.config);
        let positive = |j: &Grid2D| j.argmax().filter(|&(_, _, v)| v > 0.0);
        // What a level without a scored peak means for the search.
        let lost = match at {
            Level::Seeded { .. } => Some(EscapeReason::NoLocalPeak),
            Level::Coarse if windows.iter().any(|(_, j)| positive(j).is_some()) => {
                Some(EscapeReason::DenseFallback)
            }
            _ => None,
        };
        if let (Level::Seeded { .. }, [(patch, joint)]) = (at, windows.as_slice()) {
            match positive(joint) {
                None => return Err(lost),
                Some((ax, ay, _)) if patch.interior_border_dist(&fine, ax, ay) < keep => {
                    return Err(Some(EscapeReason::PeakAtBoundary));
                }
                Some(_) => {}
            }
        }
        let refs: Vec<P2> = match s.bursts.first() {
            Some(c) => c.anchors.iter().map(|a| a.center()).collect(),
            None => Vec::new(),
        };
        let surface = coarse.as_ref().or(windows.first().map(|(_, j)| j));
        let peaks = match surface {
            Some(surface) => {
                let merged = coarse.is_some();
                let cfg = &self.config.score;
                score_windows(&windows, fine, surface, &refs, cfg, keep, merged)
            }
            None => Vec::new(),
        };
        let refined = if at == Level::Whole { 0 } else { windows.len() };
        let likelihood = coarse
            .or_else(|| windows.pop().map(|(_, j)| j))
            .ok_or(lost)?;
        let estimate =
            Estimate::from_scored(peaks, likelihood, s.degradation.clone()).ok_or(lost)?;
        Ok(HierarchicalEstimate {
            estimate,
            cells_evaluated: s.cells,
            dense_cells_evaluated: fine.len() * s.alive,
            candidates_refined: refined,
            seeded,
            escape: s.escape,
        })
    }

    /// The Eq. 17 sweep: every burst of every search over `window` of
    /// `spec` in one batched engine call under the `likelihood` span, each
    /// search's cell ledger charged for it. Returns each search's bursts'
    /// maps, in input order.
    fn sweep(
        &self,
        here: &mut [&mut Search],
        spec: GridSpec,
        window: &GridPatch,
        keep_maps: bool,
    ) -> Vec<Vec<SoundingMaps>> {
        let _span = bloc_obs::span("likelihood");
        let bursts: Vec<&CorrectedChannels> = here.iter().flat_map(|s| &s.bursts).collect();
        let mut maps = (self.engine)
            .likelihood_batch(&bursts, spec, window, self.config.combining, keep_maps)
            .into_iter();
        (here.iter_mut())
            .map(|s| {
                s.cells += window.spec.len() * s.alive;
                maps.by_ref().take(s.bursts.len()).collect()
            })
            .collect()
    }
}

/// A tag's bursts' joints summed in input order.
fn summed(maps: Vec<SoundingMaps>, spec: GridSpec) -> Grid2D {
    (maps.into_iter().map(|m| m.joint))
        .reduce(|mut sum, joint| {
            sum.add_assign(&joint);
            sum
        })
        .unwrap_or_else(|| Grid2D::zeros(spec))
}

/// Records what the masking pass absorbed under `fault.recovered.*` — the
/// mirror of `fault.injected.*` (which `bloc_chan::FaultPlan` records at
/// sounding time). Counted once per corrected burst, so the two families
/// reconcile exactly for single- and multi-burst fixes alike.
fn record_recovered(corrected: &CorrectedChannels) {
    let m = &corrected.masking;
    if m.holes_masked > 0 {
        bloc_obs::counter("fault.recovered.holes").add(m.holes_masked as u64);
    }
    if m.bands_dropped > 0 {
        bloc_obs::counter("fault.recovered.bands_dropped").add(m.bands_dropped as u64);
    }
    let excluded = corrected.surviving.iter().filter(|&&s| s == 0).count();
    if excluded > 0 {
        bloc_obs::counter("fault.recovered.anchors_excluded").add(excluded as u64);
    }
}

/// Minimum distance (fine cells) a window peak must keep from any window
/// border that is *not* a real grid border: far enough that both its
/// dominance neighborhood and its entropy window are fully inside the
/// window, i.e. identical to what a dense sweep would see.
fn keep_dist(config: &BlocConfig) -> usize {
    let entropy_cells =
        ((config.score.entropy_radius_m / config.grid.resolution).round() as usize).max(1);
    config.score.peaks.dominance_radius.max(entropy_cells)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::localizer::BlocConfig;
    use bloc_chan::geometry::Room;
    use bloc_chan::materials::Material;
    use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
    use bloc_chan::{AnchorArray, Environment};
    use rand::{rngs::StdRng, SeedableRng};

    /// Three soundings in the multipath room and a localizer on its grid.
    fn setup() -> (BlocLocalizer, Vec<SoundingData>) {
        let room = Room::new(5.0, 6.0);
        let mut rng = StdRng::seed_from_u64(61);
        let env = Environment::in_room(room)
            .with_walls(Material::concrete(), &mut rng)
            .unwrap();
        let anchors: Vec<AnchorArray> = (room.wall_midpoints().iter())
            .zip(room.walls().iter())
            .enumerate()
            .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
            .collect();
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let soundings = [P2::new(1.2, 1.9), P2::new(3.6, 4.1), P2::new(2.4, 3.0)]
            .iter()
            .map(|&tag| sounder.sound(tag, &all_data_channels(), &mut rng))
            .collect();
        (BlocLocalizer::new(BlocConfig::for_room(&room)), soundings)
    }

    #[test]
    fn batched_searches_equal_searches_alone() {
        // Tags searched together share each level's sweeps; every result,
        // ledger included, is the tag's own search.
        let (localizer, soundings) = setup();
        let tags: Vec<&[SoundingData]> = soundings.iter().map(std::slice::from_ref).collect();
        for start in [Level::Whole, Level::Coarse] {
            let together = localizer.locate(&tags, start, 0);
            for (tag, fix) in tags.iter().zip(together) {
                let alone = localizer.locate(&[tag], start, 0).pop().unwrap();
                assert_eq!(fix, alone, "{start:?}");
            }
        }
    }

    #[test]
    fn a_repeated_burst_doubles_the_sweep_not_the_fix() {
        // Two copies of one burst sum to exactly twice its surfaces at
        // every level, which Eq. 18 cannot tell apart: the same fix at
        // twice the cells.
        let (localizer, soundings) = setup();
        let once = &soundings[..1];
        let twice = [soundings[0].clone(), soundings[0].clone()];
        for start in [Level::Whole, Level::Coarse] {
            let one = localizer.locate(&[once], start, 0).pop().unwrap().unwrap();
            let two = localizer
                .locate(&[&twice], start, 0)
                .pop()
                .unwrap()
                .unwrap();
            assert_eq!(two.estimate.position, one.estimate.position, "{start:?}");
            assert_eq!(two.cells_evaluated, 2 * one.cells_evaluated, "{start:?}");
            assert_eq!(two.escape, one.escape, "{start:?}");
        }
    }
}
