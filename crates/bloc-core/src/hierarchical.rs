//! Hierarchical coarse-to-fine localization — the large-venue solver.
//!
//! The dense pipeline ([`crate::localizer::BlocLocalizer`]) evaluates
//! Eq. 17 on every cell of the 8 cm grid. In the paper's 5 m × 6 m room
//! that is ~6.6 k cells; in a warehouse corridor it is tens of thousands,
//! and the sweep — not correction or scoring — dominates the fix latency.
//! The likelihood surface itself does not need that treatment: away from
//! its lobes it is a diffuse correlation pedestal, and the lobes are
//! ~0.5 m wide (the same physical scale that sizes the Eq. 18 entropy
//! window). A coarse sweep finds the lobes; only the lobes need native
//! resolution.
//!
//! [`HierarchicalLocalizer`] therefore runs the *same* SIMD kernel in two
//! passes:
//!
//! 1. **Coarse** — per-anchor likelihoods on the grid coarsened by
//!    [`HierarchicalConfig::coarse_factor`] (48 cm at the default 8 cm
//!    fine grid), assembled into the weighted joint under exactly the
//!    dense-pipeline contract. Non-maximum suppression over this surface
//!    picks up to [`HierarchicalConfig::max_candidates`] candidate lobes.
//!    Candidate selection sees CSI evidence only: fallback priors, when
//!    the runtime blends them, enter after the fix, on the estimate's own
//!    surface (see `BlocLocalizer::localize_with_fallback`).
//! 2. **Fine** — an index-aligned patch of the native grid around each
//!    candidate, sized so a true peak's dominance neighborhood *and*
//!    entropy window fit inside. Patch joints are normalized by the
//!    per-anchor **coarse** maxima (the dense normalizer is unknowable
//!    without a dense sweep; the coarse maximum is its lobe-scale
//!    estimate, and using one shared constant per anchor keeps every
//!    patch on a single comparable scale). The §5.4 multipath score
//!    (Eq. 18) runs only here, at the finest level, against venue-global
//!    statistics — candidates from different patches rank exactly as one
//!    dense profile would rank them.
//!
//! Both levels read their grid's one steering table through the engine:
//! the coarse level is the whole-grid window of the coarse grid, and each
//! patch is a window of the fine grid
//! ([`crate::engine::LikelihoodEngine::anchor_maps`]), so every patch cell
//! carries the dense map's value for that cell bit for bit, and a patch
//! that moves every round creates no cache entry — it only fills the
//! fine-grid tiles no earlier window touched. Chosen positions are
//! snapped to parent-grid cell centres, so when the hierarchical and
//! dense solvers agree on the winning cell the reported positions are
//! **bit-identical**. When refinement loses every candidate
//! (pathological surfaces), the solver escapes to the dense fix the dense
//! localizer itself runs rather than degrade accuracy — see
//! [`EscapeReason`].
//!
//! [`HierarchicalLocalizer::localize_seeded`] is the tracking fast path:
//! one fine patch around the tracker's prediction, no coarse sweep at
//! all, with typed escapes back to the full coarse→fine flow whenever the
//! patch cannot be trusted (peak on the patch border, no local peak, or a
//! patch so large the hierarchy is cheaper).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashSet;

use bloc_chan::sounder::SoundingData;
use bloc_num::peaks::{find_peaks, Peak, PeakOptions};
use bloc_num::{Grid2D, GridPatch, GridSpec, P2};

use crate::correction::CorrectedChannels;
use crate::error::LocalizeError;
use crate::likelihood::{alive_anchors, anchor_weights};
use crate::localizer::{anchor_refs, observe_fix, BlocLocalizer, Estimate};
use crate::multipath::{record_scored, score_candidates, ScoredPeak};

/// Configuration of the coarse-to-fine hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HierarchicalConfig {
    /// Coarsening factor of the candidate-selection grid (6 → 48 cm cells
    /// over the default 8 cm fine grid, matching the ~0.5 m lobe scale).
    pub coarse_factor: usize,
    /// Maximum number of coarse candidate lobes refined at fine
    /// resolution.
    pub max_candidates: usize,
    /// `min_rel_height` of the coarse candidate NMS: lobes below this
    /// fraction of the coarse maximum are not worth a fine patch. Kept
    /// lower than the dense pipeline's 0.35 because coarse sampling can
    /// understate an off-cell-centre lobe.
    pub coarse_min_rel_height: f64,
    /// Dominance radius (coarse cells) of the candidate NMS. 1 coarse
    /// cell ≈ the fine dominance neighborhood at the default factors.
    pub coarse_dominance_radius: usize,
    /// Below this many fine cells the hierarchy cannot win: localize
    /// densely (recorded as [`EscapeReason::SmallGrid`]).
    pub small_grid_cells: usize,
    /// A seeded patch covering at least this fraction of the fine grid
    /// escapes to the full coarse→fine flow instead (the hierarchy is
    /// already cheaper at that size).
    pub seed_escape_fraction: f64,
    /// Resident-byte budget installed on the engine's steering cache (the
    /// hierarchy caches one geometry per level — coarse and fine — and
    /// patches are windows into the fine one, whose tiles fill as patches
    /// touch them; LRU eviction keeps long-running fleets bounded).
    /// `None` leaves the cache unbounded.
    pub cache_budget_bytes: Option<usize>,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        Self {
            coarse_factor: 6,
            max_candidates: 4,
            coarse_min_rel_height: 0.4,
            coarse_dominance_radius: 1,
            small_grid_cells: 2048,
            seed_escape_fraction: 0.35,
            cache_budget_bytes: Some(256 << 20),
        }
    }
}

/// Why the hierarchy stepped off its fast path. Every variant is counted
/// under `hier.escape.<reason>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum EscapeReason {
    /// The fine grid is at most [`HierarchicalConfig::small_grid_cells`]:
    /// localized densely.
    SmallGrid,
    /// A seeded patch reached [`HierarchicalConfig::seed_escape_fraction`]
    /// of the fine grid: the full coarse→fine flow ran instead.
    PatchTooLarge,
    /// The seeded patch held no usable local maximum: the tag is not
    /// where the seed claimed.
    NoLocalPeak,
    /// The seeded patch's best peak sat against the patch border, so its
    /// local-max status is unverified — the true peak may lie outside.
    PeakAtBoundary,
    /// Fine refinement lost every candidate; the full dense sweep ran as
    /// a correctness safety net.
    DenseFallback,
}

impl EscapeReason {
    /// Stable snake_case label (counter suffix / log field).
    pub fn reason(&self) -> &'static str {
        match self {
            EscapeReason::SmallGrid => "small_grid",
            EscapeReason::PatchTooLarge => "patch_too_large",
            EscapeReason::NoLocalPeak => "no_local_peak",
            EscapeReason::PeakAtBoundary => "peak_at_boundary",
            EscapeReason::DenseFallback => "dense_fallback",
        }
    }
}

fn record_escape(reason: EscapeReason) {
    bloc_obs::counter(&format!("hier.escape.{}", reason.reason())).inc();
}

/// A fix with its hierarchy cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalEstimate {
    /// The fix itself, shaped exactly like a dense-pipeline estimate.
    /// `peaks` are indexed on the **fine** grid (positions snapped to
    /// fine cell centres); `likelihood` is the coarse candidate-selection
    /// joint for the full flow, the fine patch surface for the seeded
    /// fast path, and the fine grid on the dense escapes. The runtime's
    /// fallback priors are evaluated on whichever of these it carries.
    pub estimate: Estimate,
    /// Cell evaluations actually spent (summed over anchors and levels).
    pub cells_evaluated: usize,
    /// What a dense fine sweep would have spent on the same sounding
    /// (fine cells × alive anchors).
    pub dense_cells_evaluated: usize,
    /// Fine patches evaluated (0 on the dense escape paths).
    pub candidates_refined: usize,
    /// True when produced by [`HierarchicalLocalizer::localize_seeded`]
    /// (including its escapes).
    pub seeded: bool,
    /// How (and whether) the fast path was abandoned.
    pub escape: Option<EscapeReason>,
}

impl HierarchicalEstimate {
    /// Cell-evaluation reduction vs the dense sweep (> 1 is a win).
    pub fn reduction(&self) -> f64 {
        if self.cells_evaluated == 0 {
            1.0
        } else {
            self.dense_cells_evaluated as f64 / self.cells_evaluated as f64
        }
    }
}

/// An alive anchor's weight and coarse-level normalizer.
#[derive(Debug, Clone, Copy)]
struct AliveAnchor {
    index: usize,
    weight: f64,
    /// Maximum of this anchor's likelihood over the coarse grid — the
    /// shared normalization constant for its fine patches.
    coarse_max: f64,
}

/// The coarse-to-fine solver. Wraps a [`BlocLocalizer`] (whose grid is
/// the *fine* level) and shares its engine, steering cache and scoring
/// configuration.
#[derive(Debug, Clone)]
pub struct HierarchicalLocalizer {
    localizer: BlocLocalizer,
    config: HierarchicalConfig,
    coarse: GridSpec,
}

impl HierarchicalLocalizer {
    /// Wraps `localizer`, derives the coarse grid, and installs the
    /// configured steering-cache byte budget on its engine.
    pub fn new(localizer: BlocLocalizer, config: HierarchicalConfig) -> Self {
        let coarse = localizer.config().grid.coarsen(config.coarse_factor.max(1));
        if let Some(budget) = config.cache_budget_bytes {
            localizer.engine().cache().set_byte_budget(Some(budget));
        }
        Self {
            localizer,
            config,
            coarse,
        }
    }

    /// The wrapped dense pipeline (fine grid, engine, scoring).
    pub fn localizer(&self) -> &BlocLocalizer {
        &self.localizer
    }

    /// The hierarchy configuration in force.
    pub fn config(&self) -> &HierarchicalConfig {
        &self.config
    }

    /// The coarse candidate-selection grid.
    pub fn coarse_spec(&self) -> GridSpec {
        self.coarse
    }

    /// Half-extent (metres) of a fine refinement patch: one coarse cell
    /// of candidate-position uncertainty, plus the entropy window, plus
    /// the fine dominance neighborhood — so a true peak near the
    /// candidate scores on complete windows.
    pub fn refine_half_extent_m(&self) -> f64 {
        let cfg = self.localizer.config();
        self.coarse.resolution
            + cfg.score.entropy_radius_m
            + (cfg.score.peaks.dominance_radius + 1) as f64 * cfg.grid.resolution
    }

    /// Minimum distance (fine cells) a patch peak must keep from any
    /// patch border that is *not* a real grid border: far enough that
    /// both its dominance neighborhood and its entropy window are fully
    /// inside the patch, i.e. identical to what a dense sweep would see.
    fn keep_dist(&self) -> usize {
        let cfg = self.localizer.config();
        let entropy_cells =
            ((cfg.score.entropy_radius_m / cfg.grid.resolution).round() as usize).max(1);
        cfg.score.peaks.dominance_radius.max(entropy_cells)
    }

    /// Coarse-to-fine localization.
    ///
    /// # Errors
    ///
    /// The same typed failures as [`BlocLocalizer::localize`].
    pub fn localize(&self, data: &SoundingData) -> Result<HierarchicalEstimate, LocalizeError> {
        observe_fix("hier.localize", "hier.localize.calls", || {
            self.fix(data, None)
        })
    }

    /// Tracking fast path: one fine patch of half-extent `radius_m`
    /// (plus scoring margins) around `seed` — typically the tracker's
    /// prediction with its gate radius. No coarse sweep runs unless the
    /// patch cannot be trusted, in which case the solver escapes to the
    /// full coarse→fine flow and says so in the returned
    /// [`HierarchicalEstimate::escape`].
    ///
    /// # Errors
    ///
    /// The same typed failures as [`BlocLocalizer::localize`].
    pub fn localize_seeded(
        &self,
        data: &SoundingData,
        seed: P2,
        radius_m: f64,
    ) -> Result<HierarchicalEstimate, LocalizeError> {
        observe_fix("hier.localize_seeded", "hier.localize.seeded", || {
            self.fix(data, Some((seed, radius_m)))
        })
    }

    /// One hierarchical fix: correction, then the dense fix on a small
    /// grid, the seeded patch when a `(seed, radius_m)` is given, and the
    /// full coarse→fine flow otherwise.
    fn fix(
        &self,
        data: &SoundingData,
        seed: Option<(P2, f64)>,
    ) -> Result<HierarchicalEstimate, LocalizeError> {
        let corrected = self.localizer.correct_usable(data)?;
        if self.localizer.config().grid.len() <= self.config.small_grid_cells {
            let mut h = self.dense_estimate(data, &corrected, EscapeReason::SmallGrid, 0)?;
            h.seeded = seed.is_some();
            return Ok(h);
        }
        match seed {
            Some((seed, radius_m)) => self.seeded_patch(data, &corrected, seed, radius_m),
            None => self.refine_full(data, &corrected),
        }
    }

    /// The seeded patch on already-corrected channels, escaping to the
    /// full flow whenever the patch cannot be trusted.
    fn seeded_patch(
        &self,
        data: &SoundingData,
        corrected: &CorrectedChannels,
        seed: P2,
        radius_m: f64,
    ) -> Result<HierarchicalEstimate, LocalizeError> {
        let cfg = self.localizer.config();
        let fine = cfg.grid;
        let margin = cfg.score.entropy_radius_m
            + (cfg.score.peaks.dominance_radius + 1) as f64 * fine.resolution;
        let patch = fine.patch(seed, radius_m.max(0.0) + margin);
        let escape_cells = ((self.config.seed_escape_fraction * fine.len() as f64) as usize).max(1);
        if patch.spec.len() >= escape_cells {
            return self.escape_to_full(data, corrected, EscapeReason::PatchTooLarge, 0);
        }
        // Patch-local normalization: the dense joint evaluated on the
        // patch window of the fine grid, so a seeded fix equals a dense
        // fix whose grid *is* the patch.
        let joint = self
            .localizer
            .engine()
            .joint_window(corrected, fine, &patch, cfg.combining);
        let alive = alive_anchors(corrected).len();
        let cells = patch.spec.len() * alive;
        let Some((ax, ay, max_v)) = joint.argmax() else {
            return self.escape_to_full(data, corrected, EscapeReason::NoLocalPeak, cells);
        };
        if max_v <= 0.0 {
            return self.escape_to_full(data, corrected, EscapeReason::NoLocalPeak, cells);
        }
        let keep = self.keep_dist();
        if patch.interior_border_dist(&fine, ax, ay) < keep {
            return self.escape_to_full(data, corrected, EscapeReason::PeakAtBoundary, cells);
        }
        let kept: Vec<Peak> = find_peaks(&joint, &cfg.score.peaks)
            .into_iter()
            .filter(|p| patch.interior_border_dist(&fine, p.ix, p.iy) >= keep)
            .collect();
        let background = bloc_num::stats::median(joint.data());
        let scored: Vec<ScoredPeak> = score_candidates(
            &joint,
            &kept,
            &anchor_refs(data),
            &cfg.score,
            background,
            max_v,
        )
        .into_iter()
        .map(|s| remap_to_parent(s, &patch, fine))
        .collect();
        let degradation = BlocLocalizer::degradation_of(corrected);
        let Some(estimate) = Estimate::from_scored(scored, joint, degradation) else {
            return self.escape_to_full(data, corrected, EscapeReason::NoLocalPeak, cells);
        };
        record_scored(&estimate.peaks);
        Ok(HierarchicalEstimate {
            estimate,
            cells_evaluated: cells,
            dense_cells_evaluated: fine.len() * alive,
            candidates_refined: 1,
            seeded: true,
            escape: None,
        })
    }

    /// The full coarse→fine flow on already-corrected channels.
    fn refine_full(
        &self,
        data: &SoundingData,
        corrected: &CorrectedChannels,
    ) -> Result<HierarchicalEstimate, LocalizeError> {
        let cfg = self.localizer.config();
        let fine = cfg.grid;
        let mut cells = 0usize;

        // Coarse level: per-anchor maps, their maxima (the fine-patch
        // normalizers), and the weighted joint under the dense contract.
        let weights = anchor_weights(corrected);
        let mut alive: Vec<AliveAnchor> = Vec::new();
        let mut coarse_joint = Grid2D::zeros(self.coarse);
        let maps = self.localizer.engine().anchor_maps(
            corrected,
            self.coarse,
            &GridPatch::whole(self.coarse),
            cfg.combining,
        );
        for (index, mut map) in maps {
            cells += self.coarse.len();
            let coarse_max = map.argmax().map(|(_, _, v)| v).unwrap_or(0.0);
            let weight = weights[index];
            map.normalize_peak();
            map.scale(weight);
            coarse_joint.add_assign(&map);
            alive.push(AliveAnchor {
                index,
                weight,
                coarse_max,
            });
        }
        let dense_cells = fine.len() * alive.len();

        let candidates = find_peaks(
            &coarse_joint,
            &PeakOptions {
                dominance_radius: self.config.coarse_dominance_radius,
                min_rel_height: self.config.coarse_min_rel_height,
                max_peaks: self.config.max_candidates.max(1),
            },
        );
        if candidates.is_empty() {
            return Err(LocalizeError::NoPeak);
        }

        // Fine level: an index-aligned patch per candidate, normalized by
        // the coarse maxima so all patches share one scale.
        let half = self.refine_half_extent_m();
        let mut patches: Vec<(GridPatch, Grid2D)> = Vec::with_capacity(candidates.len());
        for c in &candidates {
            let patch = fine.patch(c.position, half);
            let joint = self.patch_joint(corrected, &patch, &alive, &mut cells);
            patches.push((patch, joint));
        }
        bloc_obs::counter("hier.candidates").add(patches.len() as u64);

        let max_v = patches
            .iter()
            .filter_map(|(_, j)| j.argmax().map(|(_, _, v)| v))
            .fold(0.0f64, f64::max);
        if max_v <= 0.0 {
            return Err(LocalizeError::NoPeak);
        }

        // Finest-level-only Eq. 18 scoring, against venue-global
        // statistics: the coarse background pedestal and the global patch
        // maximum put every candidate on one dense-equivalent scale.
        let background = bloc_num::stats::median(coarse_joint.data()).min(max_v);
        let anchor_refs = anchor_refs(data);
        let keep = self.keep_dist();
        let floor = cfg.score.peaks.min_rel_height * max_v;
        let mut merged: Vec<ScoredPeak> = Vec::new();
        let mut taken: HashSet<(usize, usize)> = HashSet::new();
        for (patch, joint) in &patches {
            let kept: Vec<Peak> = find_peaks(
                joint,
                &PeakOptions {
                    dominance_radius: cfg.score.peaks.dominance_radius,
                    min_rel_height: 0.0,
                    max_peaks: 32,
                },
            )
            .into_iter()
            .filter(|p| p.value >= floor && patch.interior_border_dist(&fine, p.ix, p.iy) >= keep)
            .collect();
            for s in score_candidates(joint, &kept, &anchor_refs, &cfg.score, background, max_v) {
                let s = remap_to_parent(s, patch, fine);
                // Overlapping patches rediscover the same cell with the
                // same value and score (windows are complete by the
                // border filter): keep the first sighting.
                if taken.insert((s.peak.ix, s.peak.iy)) {
                    merged.push(s);
                }
            }
        }
        merged.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| (a.peak.iy, a.peak.ix).cmp(&(b.peak.iy, b.peak.ix)))
        });
        merged.truncate(cfg.score.peaks.max_peaks);
        let degradation = BlocLocalizer::degradation_of(corrected);
        let Some(estimate) = Estimate::from_scored(merged, coarse_joint, degradation) else {
            // Refinement lost every candidate: correctness beats speed.
            return self.dense_estimate(data, corrected, EscapeReason::DenseFallback, cells);
        };
        record_scored(&estimate.peaks);
        Ok(HierarchicalEstimate {
            estimate,
            cells_evaluated: cells,
            dense_cells_evaluated: dense_cells,
            candidates_refined: patches.len(),
            seeded: false,
            escape: None,
        })
    }

    /// The weighted joint on one fine patch, a window of the fine grid:
    /// each alive anchor's map is scaled by `weight / coarse_max`, the
    /// shared cross-patch normalization.
    fn patch_joint(
        &self,
        corrected: &CorrectedChannels,
        patch: &GridPatch,
        alive: &[AliveAnchor],
        cells: &mut usize,
    ) -> Grid2D {
        let cfg = self.localizer.config();
        let mut joint = Grid2D::zeros(patch.spec);
        let maps = self
            .localizer
            .engine()
            .anchor_maps(corrected, cfg.grid, patch, cfg.combining);
        for ((index, mut map), a) in maps.into_iter().zip(alive) {
            debug_assert_eq!(index, a.index);
            *cells += patch.spec.len();
            if a.coarse_max > 0.0 {
                map.scale(1.0 / a.coarse_max);
            }
            map.scale(a.weight);
            joint.add_assign(&map);
        }
        joint
    }

    /// Full-flow escape from the seeded path: runs the coarse→fine flow
    /// and stamps the estimate with the escape provenance and the cells
    /// already spent on the abandoned patch.
    fn escape_to_full(
        &self,
        data: &SoundingData,
        corrected: &CorrectedChannels,
        reason: EscapeReason,
        prespent: usize,
    ) -> Result<HierarchicalEstimate, LocalizeError> {
        record_escape(reason);
        let mut h = self.refine_full(data, corrected)?;
        h.cells_evaluated += prespent;
        h.seeded = true;
        h.escape = Some(reason);
        Ok(h)
    }

    /// The dense fix ([`BlocLocalizer`]'s own), dressed as a hierarchical
    /// estimate — the small-grid path and the lost-every-candidate safety
    /// net.
    fn dense_estimate(
        &self,
        data: &SoundingData,
        corrected: &CorrectedChannels,
        escape: EscapeReason,
        prespent: usize,
    ) -> Result<HierarchicalEstimate, LocalizeError> {
        record_escape(escape);
        let estimate = self.localizer.dense_fix(data, corrected)?;
        let dense_cells = self.localizer.config().grid.len() * alive_anchors(corrected).len();
        Ok(HierarchicalEstimate {
            estimate,
            cells_evaluated: prespent + dense_cells,
            dense_cells_evaluated: dense_cells,
            candidates_refined: 0,
            seeded: false,
            escape: Some(escape),
        })
    }
}

/// Rebases a patch-local scored peak onto the parent grid, snapping the
/// position to the parent's cell centre so agreement on the winning cell
/// means bit-identical positions.
fn remap_to_parent(s: ScoredPeak, patch: &GridPatch, parent: GridSpec) -> ScoredPeak {
    let (ix, iy) = patch.to_parent(s.peak.ix, s.peak.iy);
    ScoredPeak {
        peak: Peak {
            ix,
            iy,
            position: parent.cell_center(ix, iy),
            value: s.peak.value,
        },
        ..s
    }
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

    fn anchors(room: &Room) -> Vec<AnchorArray> {
        room.wall_midpoints()
            .iter()
            .zip(room.walls().iter())
            .enumerate()
            .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
            .collect()
    }

    fn room_setup(clean: bool) -> (Room, Vec<AnchorArray>, Environment) {
        let room = Room::new(5.0, 6.0);
        let anchors = anchors(&room);
        let mut rng = StdRng::seed_from_u64(9);
        let env = if clean {
            Environment::free_space()
        } else {
            Environment::in_room(room)
                .with_walls(Material::concrete(), &mut rng)
                .unwrap()
        };
        (room, anchors, env)
    }

    fn mk_sounder<'a>(env: &'a Environment, anchors: &'a [AnchorArray]) -> Sounder<'a> {
        Sounder::new(
            env,
            anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn clean_room_matches_dense_exactly_with_fewer_cells() {
        let (room, anchors, env) = room_setup(true);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
        let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
        let mut rng = StdRng::seed_from_u64(51);
        for tag in [P2::new(1.0, 1.5), P2::new(2.5, 3.0), P2::new(4.0, 4.5)] {
            let data = sounder.sound(tag, &all_data_channels(), &mut rng);
            let d = dense.localize(&data).unwrap();
            let h = hier.localize(&data).unwrap();
            assert_eq!(h.escape, None, "clean room must stay on the fast path");
            assert_eq!(
                h.estimate.position, d.position,
                "unambiguous peak must be bit-identical to dense"
            );
            assert!(
                h.cells_evaluated < h.dense_cells_evaluated,
                "hierarchy spent {} vs dense {}",
                h.cells_evaluated,
                h.dense_cells_evaluated
            );
            assert_eq!(h.estimate.degradation.confidence, h.estimate.confidence());
        }
    }

    #[test]
    fn multipath_room_stays_within_one_fine_cell_of_dense() {
        let (room, anchors, env) = room_setup(false);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
        let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
        let res = dense.config().grid.resolution;
        let mut rng = StdRng::seed_from_u64(52);
        for tag in [P2::new(2.2, 3.6), P2::new(1.3, 4.4)] {
            let data = sounder.sound(tag, &all_data_channels(), &mut rng);
            let d = dense.localize(&data).unwrap();
            let h = hier.localize(&data).unwrap();
            assert!(
                h.estimate.position.dist(d.position) <= res * std::f64::consts::SQRT_2 + 1e-12,
                "hier {} vs dense {} differ by {}",
                h.estimate.position,
                d.position,
                h.estimate.position.dist(d.position)
            );
        }
    }

    #[test]
    fn seeded_patch_matches_and_is_much_cheaper() {
        let (room, anchors, env) = room_setup(false);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
        let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
        let mut rng = StdRng::seed_from_u64(53);
        let tag = P2::new(2.2, 3.6);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        let d = dense.localize(&data).unwrap();
        let h = hier.localize_seeded(&data, d.position, 0.5).unwrap();
        assert!(h.seeded);
        assert_eq!(h.escape, None);
        let res = dense.config().grid.resolution;
        assert!(
            h.estimate.position.dist(d.position) <= res * std::f64::consts::SQRT_2 + 1e-12,
            "seeded drifted {} m",
            h.estimate.position.dist(d.position)
        );
        assert!(
            h.cells_evaluated * 4 < h.dense_cells_evaluated,
            "seeded patch spent {} of dense {}",
            h.cells_evaluated,
            h.dense_cells_evaluated
        );
    }

    #[test]
    fn bad_seed_escapes_to_full_flow() {
        let (room, anchors, env) = room_setup(true);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
        let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
        let mut rng = StdRng::seed_from_u64(54);
        let tag = P2::new(4.0, 4.5);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        // Seed short of the tag with a window too small to reach it: the
        // likelihood rises toward the true peak, the patch argmax rides
        // the border, and the solver must escape and still deliver the
        // dense answer.
        let h = hier.localize_seeded(&data, P2::new(2.8, 3.3), 0.2).unwrap();
        assert!(h.seeded);
        assert!(matches!(
            h.escape,
            Some(EscapeReason::PeakAtBoundary) | Some(EscapeReason::NoLocalPeak)
        ));
        let d = dense.localize(&data).unwrap();
        assert_eq!(h.estimate.position, d.position);
    }

    #[test]
    fn oversized_seed_radius_escapes_patch_too_large() {
        let (room, anchors, env) = room_setup(true);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
        let hier = HierarchicalLocalizer::new(dense, HierarchicalConfig::default());
        let mut rng = StdRng::seed_from_u64(55);
        let data = sounder.sound(P2::new(2.0, 2.0), &all_data_channels(), &mut rng);
        let h = hier
            .localize_seeded(&data, P2::new(2.0, 2.0), 50.0)
            .unwrap();
        assert_eq!(h.escape, Some(EscapeReason::PatchTooLarge));
    }

    #[test]
    fn small_grid_localizes_densely() {
        let (room, anchors, env) = room_setup(true);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room).with_resolution(0.3));
        let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
        assert!(dense.config().grid.len() <= HierarchicalConfig::default().small_grid_cells);
        let mut rng = StdRng::seed_from_u64(56);
        let data = sounder.sound(P2::new(2.0, 2.0), &all_data_channels(), &mut rng);
        let h = hier.localize(&data).unwrap();
        assert_eq!(h.escape, Some(EscapeReason::SmallGrid));
        // The small-grid escape *is* the dense fix: the whole estimate,
        // not just its position.
        assert_eq!(h.estimate, dense.localize(&data).unwrap());
    }

    #[test]
    fn typed_errors_pass_through() {
        let room = Room::new(5.0, 6.0);
        let hier = HierarchicalLocalizer::new(
            BlocLocalizer::new(BlocConfig::for_room(&room)),
            HierarchicalConfig::default(),
        );
        let empty = SoundingData {
            bands: Vec::new(),
            anchors: anchors(&room),
        };
        assert_eq!(
            hier.localize(&empty).unwrap_err(),
            LocalizeError::EmptySounding
        );
        assert_eq!(
            hier.localize_seeded(&empty, P2::new(1.0, 1.0), 0.5)
                .unwrap_err(),
            LocalizeError::EmptySounding
        );
    }
}
