//! Hierarchical coarse-to-fine localization — the large-venue solver.
//!
//! The dense fix evaluates Eq. 17 on every cell of the 8 cm grid. In the
//! paper's 5 m × 6 m room that is ~6.6 k cells; in a warehouse corridor it
//! is tens of thousands, and the sweep — not correction or scoring —
//! dominates the fix latency. The likelihood surface itself does not need
//! that treatment: away from its lobes it is a diffuse correlation
//! pedestal, and the lobes are ~0.5 m wide (the same physical scale that
//! sizes the Eq. 18 entropy window). A coarse sweep finds the lobes; only
//! the lobes need native resolution.
//!
//! [`HierarchicalLocalizer`] is a handle on the one localization loop every
//! fix runs (`locate`, in [`crate::localizer`]), started one or two levels
//! above the dense fix. The loop runs the *same* SIMD kernel at every
//! level and only ever widens:
//!
//! 1. **Seeded** ([`HierarchicalLocalizer::localize_seeded`]) — the
//!    tracking fast path: one fine patch around the tracker's prediction,
//!    no coarse sweep. Its joint is normalized on the patch, so a seeded
//!    fix equals a dense fix whose grid *is* the patch. It widens to the
//!    coarse level when the patch cannot be trusted: too large
//!    (`SEED_ESCAPE_FRACTION` of the fine grid), no positive local peak,
//!    or its best cell on the patch border.
//! 2. **Coarse** ([`HierarchicalLocalizer::localize`]) — per-anchor
//!    likelihoods on the grid coarsened by `COARSE_FACTOR` (48 cm at the
//!    default 8 cm fine grid), assembled into the weighted joint under
//!    exactly the dense contract. Non-maximum suppression over it picks up
//!    to `MAX_CANDIDATES` candidate lobes, each refined on an
//!    index-aligned patch of the fine grid sized so a true peak's
//!    dominance neighborhood *and* entropy window fit inside. Patch joints
//!    are normalized by the per-anchor **coarse** maxima, so every patch
//!    sits on one comparable scale, and Eq. 18 runs only on the patches,
//!    against venue-global statistics — candidates from different patches
//!    rank exactly as one dense profile would rank them. Candidate
//!    selection sees CSI evidence only: fallback priors, when the runtime
//!    blends them, enter after the fix, on the estimate's own surface.
//!    When refinement loses every candidate the search widens to the
//!    dense fix rather than degrade accuracy.
//! 3. **Whole** — the dense fix itself; a fine grid of at most
//!    [`HierarchicalConfig::small_grid_cells`] cells starts here.
//!
//! Every widening is a typed [`EscapeReason`], counted under
//! `hier.escape.<reason>`. Each level reads its grid's one steering table
//! through the engine: the coarse level is the whole-grid window of the
//! coarse grid, and each patch is a window of the fine grid
//! ([`crate::engine::LikelihoodEngine::likelihood_batch`]), so every patch
//! cell carries the dense map's value for that cell bit for bit, and a
//! patch that moves every round creates no cache entry. Chosen positions
//! are snapped to fine-grid cell centres, so when the hierarchical and
//! dense solvers agree on the winning cell the reported positions are
//! **bit-identical**.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bloc_chan::sounder::SoundingData;
use bloc_num::{GridSpec, P2};

use crate::error::LocalizeError;
use crate::localizer::{observe_fix, BlocConfig, BlocLocalizer, Estimate, Level};

/// Coarsening factor of the candidate-selection grid (6 → 48 cm cells
/// over the default 8 cm fine grid, matching the ~0.5 m lobe scale).
pub(crate) const COARSE_FACTOR: usize = 6;

/// Coarse candidate lobes refined at fine resolution, at most.
pub(crate) const MAX_CANDIDATES: usize = 4;

/// `min_rel_height` of the coarse candidate NMS: lobes below this fraction
/// of the coarse maximum are not worth a fine patch. Lower than the dense
/// pipeline's 0.35 because coarse sampling can understate an
/// off-cell-centre lobe.
pub(crate) const COARSE_MIN_REL_HEIGHT: f64 = 0.4;

/// Dominance radius (coarse cells) of the candidate NMS: 1 coarse cell ≈
/// the fine dominance neighborhood at the default factors.
pub(crate) const COARSE_DOMINANCE_RADIUS: usize = 1;

/// A seeded patch covering at least this fraction of the fine grid widens
/// to the coarse level instead (the hierarchy is already cheaper at that
/// size).
pub(crate) const SEED_ESCAPE_FRACTION: f64 = 0.35;

/// Resident-byte budget a hierarchical localizer installs on its
/// engine's steering cache: 256 MiB. The hierarchy caches one geometry
/// per level — coarse and fine — and patches are windows into the fine
/// one, whose tiles fill as patches touch them; LRU eviction keeps
/// long-running fleets bounded.
pub const CACHE_BUDGET_BYTES: usize = 256 << 20;

/// Installs [`CACHE_BUDGET_BYTES`] on `localizer`'s steering cache.
pub(crate) fn install_budget(localizer: &BlocLocalizer) {
    localizer
        .engine()
        .cache()
        .set_byte_budget(Some(CACHE_BUDGET_BYTES));
}

/// Configuration of the coarse-to-fine hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HierarchicalConfig {
    /// Below this many fine cells the hierarchy cannot win: localize
    /// densely (recorded as [`EscapeReason::SmallGrid`]).
    pub small_grid_cells: usize,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        Self {
            small_grid_cells: 2048,
        }
    }
}

impl HierarchicalConfig {
    /// One hierarchical fix of `data` on `localizer`, under its entry
    /// point's span and counter: the seeded patch around `seed`'s
    /// `(centre, radius_m)` when given, the coarse→fine search otherwise.
    pub(crate) fn fix(
        &self,
        localizer: &BlocLocalizer,
        data: &SoundingData,
        seed: Option<(P2, f64)>,
    ) -> Result<HierarchicalEstimate, LocalizeError> {
        let (span, calls, start) = match seed {
            Some((seed, radius_m)) => (
                "hier.localize_seeded",
                "hier.localize.seeded",
                Level::Seeded { seed, radius_m },
            ),
            None => ("hier.localize", "hier.localize.calls", Level::Coarse),
        };
        observe_fix(span, Some(calls), || {
            let fix = localizer.locate(&[std::slice::from_ref(data)], start, self.small_grid_cells);
            fix.into_iter()
                .next()
                .unwrap_or(Err(LocalizeError::EmptySounding))
        })
    }
}

/// The candidate-selection grid over `fine`.
pub(crate) fn coarse_grid(fine: GridSpec) -> GridSpec {
    fine.coarsen(COARSE_FACTOR)
}

/// Half-extent (metres) of a fine refinement patch: one coarse cell of
/// candidate-position uncertainty, plus the entropy window, plus the fine
/// dominance neighborhood — so a true peak near the candidate scores on
/// complete windows.
pub(crate) fn refine_half_extent_m(config: &BlocConfig) -> f64 {
    coarse_grid(config.grid).resolution
        + config.score.entropy_radius_m
        + (config.score.peaks.dominance_radius + 1) as f64 * config.grid.resolution
}

/// Why a search stepped off its level. Every variant is counted under
/// `hier.escape.<reason>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum EscapeReason {
    /// The fine grid is at most [`HierarchicalConfig::small_grid_cells`]:
    /// localized densely.
    SmallGrid,
    /// A seeded patch reached `SEED_ESCAPE_FRACTION` of the fine grid:
    /// the coarse→fine search ran instead.
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

/// A fix with its hierarchy cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalEstimate {
    /// The fix itself, shaped exactly like a dense-pipeline estimate.
    /// `peaks` are indexed on the **fine** grid (positions snapped to
    /// fine cell centres); `likelihood` is the coarse candidate-selection
    /// joint for the coarse→fine search, the fine patch surface for the
    /// seeded fast path, and the fine grid when the search ended on the
    /// whole grid. The runtime's fallback priors are evaluated on
    /// whichever of these it carries.
    pub estimate: Estimate,
    /// Cell evaluations actually spent (summed over anchors and levels).
    pub cells_evaluated: usize,
    /// What a dense fine sweep would have spent on the same sounding
    /// (fine cells × alive anchors).
    pub dense_cells_evaluated: usize,
    /// Fine patches evaluated at the level that fixed (0 when the search
    /// ended on the whole grid).
    pub candidates_refined: usize,
    /// True when produced by [`HierarchicalLocalizer::localize_seeded`]
    /// (including its escapes).
    pub seeded: bool,
    /// The first level the search stepped off, and why.
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

/// The coarse-to-fine solver: a [`BlocLocalizer`] (whose grid is the
/// *fine* level, and whose engine, steering cache and scoring it uses)
/// and the hierarchy configuration.
#[derive(Debug, Clone)]
pub struct HierarchicalLocalizer {
    localizer: BlocLocalizer,
    config: HierarchicalConfig,
}

impl HierarchicalLocalizer {
    /// Wraps `localizer` and installs the steering-cache byte budget
    /// ([`CACHE_BUDGET_BYTES`]) on its engine.
    pub fn new(localizer: BlocLocalizer, config: HierarchicalConfig) -> Self {
        install_budget(&localizer);
        Self { localizer, config }
    }

    /// The coarse candidate-selection grid.
    pub fn coarse_spec(&self) -> GridSpec {
        coarse_grid(self.localizer.config().grid)
    }

    /// Half-extent (metres) of a fine refinement patch: one coarse cell
    /// of candidate-position uncertainty, plus the entropy window, plus
    /// the fine dominance neighborhood.
    pub fn refine_half_extent_m(&self) -> f64 {
        refine_half_extent_m(self.localizer.config())
    }

    /// Coarse-to-fine localization.
    ///
    /// # Errors
    ///
    /// The same typed failures as [`BlocLocalizer::localize`].
    pub fn localize(&self, data: &SoundingData) -> Result<HierarchicalEstimate, LocalizeError> {
        self.config.fix(&self.localizer, data, None)
    }

    /// Tracking fast path: one fine patch of half-extent `radius_m`
    /// (plus scoring margins) around `seed` — typically the tracker's
    /// prediction with its gate radius. No coarse sweep runs unless the
    /// patch cannot be trusted, in which case the search widens to the
    /// coarse→fine flow and says so in the returned
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
        self.config
            .fix(&self.localizer, data, Some((seed, radius_m)))
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
