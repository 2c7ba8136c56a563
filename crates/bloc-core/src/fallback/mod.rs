//! Degraded-mode localization: fallback estimators that still produce a
//! position when the CSI pipeline cannot.
//!
//! BLoc's joint likelihood (Eq. 17) is cm-class but fragile: it needs the
//! per-band tag/master/anchor measurement triple to survive, and under
//! heavy packet loss or anchor dropouts the supervised runtime defers
//! round after round. This module supplies the two classic coarse
//! estimators that degrade *gracefully* instead:
//!
//! * [`fingerprint::FingerprintDb`] — offline-surveyed RSSI fingerprints
//!   queried with masked, distance-weighted KNN (metre-class; needs
//!   amplitudes only, tolerates arbitrary hole patterns);
//! * [`packet_count::PacketCountModel`] — a binomial
//!   reception-probability likelihood over the grid fed purely by
//!   per-anchor packet tallies (needs *no* CSI at all — the De/Vasisht
//!   packet-count regime);
//! * [`fusion`] — degradation-weighted convex blending so CSI dominates
//!   exactly when healthy and the fallbacks take over as it collapses.
//!
//! [`FallbackStack`] bundles the two estimators plus policy; the runtime
//! ([`crate::runtime::SessionSupervisor`]) consults it whenever a round
//! would otherwise defer, turning `Deferred` into
//! [`crate::runtime::RoundOutcome::Degraded`] with explicit mode
//! provenance and widened confidence. The estimators read a round's
//! sounding through one [`FallbackEvidence`] snapshot, taken when the
//! round's first attempt is sounded, so the sounding itself is never
//! kept.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod fingerprint;
pub mod fusion;
pub mod packet_count;

pub use fingerprint::{FingerprintDb, KnnEstimate};
pub use fusion::{FusionPolicy, FusionWeights};
pub use packet_count::{CountTable, CountsEstimate, PacketCountModel};

use std::fmt;
use std::sync::Arc;

use bloc_chan::faults::ReceptionCensus;
use bloc_chan::sounder::SoundingData;
use bloc_num::{Grid2D, GridSpec, P2};

use packet_count::CountTableSlot;

/// Why a fallback estimator could not produce an estimate. These are
/// *evidence* problems, typed so the runtime can distinguish "fallback
/// has nothing to work with" from programmer error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum FallbackError {
    /// The fingerprint database has no surveyed positions.
    EmptyDatabase,
    /// A sounding's band/anchor shape disagrees with the database.
    ShapeMismatch {
        /// Feature dimensions the database expects.
        expected: usize,
        /// Dimensions the sounding produced.
        got: usize,
    },
    /// Every feature dimension of the query was masked out by faults.
    NoSurvivingFeatures,
    /// Every anchor was all-silent — packet counts carry no evidence.
    NoInformativeAnchors,
    /// No estimator in the stack could produce anything.
    NoEstimator,
}

impl fmt::Display for FallbackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyDatabase => write!(f, "fingerprint database is empty"),
            Self::ShapeMismatch { expected, got } => write!(
                f,
                "sounding shape mismatch: database expects {expected} feature dims, got {got}"
            ),
            Self::NoSurvivingFeatures => {
                write!(f, "every feature dimension of the query was masked")
            }
            Self::NoInformativeAnchors => {
                write!(f, "no anchor decoded any packet; counts carry no evidence")
            }
            Self::NoEstimator => write!(f, "no fallback estimator produced an estimate"),
        }
    }
}

impl std::error::Error for FallbackError {}

/// Which evidence produced an estimate — the provenance every degraded
/// fix must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum EstimateMode {
    /// Pure CSI joint likelihood (healthy round).
    Csi,
    /// CSI refined with fallback priors (degraded but localizable round).
    CsiFused,
    /// RSSI fingerprint KNN only.
    Fingerprint,
    /// Packet-count reception likelihood only.
    Counts,
    /// Fingerprint and counts fused (no usable CSI).
    FallbackFused,
}

/// Policy knobs for the fallback stack.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FallbackConfig {
    /// Neighbours per KNN query.
    pub k: usize,
    /// How fusion weights derive from round health.
    pub policy: FusionPolicy,
    /// Floor on the reported uncertainty of any fallback estimate, metres
    /// — metre-class estimators must not report cm-class confidence.
    pub min_sigma_m: f64,
}

impl Default for FallbackConfig {
    fn default() -> Self {
        Self {
            k: 4,
            policy: FusionPolicy::default(),
            min_sigma_m: 0.35,
        }
    }
}

/// A fallback-only estimate: where, how sure, and from which evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackEstimate {
    /// The estimated tag position.
    pub position: P2,
    /// Which estimator(s) produced it.
    pub mode: EstimateMode,
    /// The convex weights used (restricted to available sources).
    pub weights: FusionWeights,
    /// Reported uncertainty, metres (≥ `FallbackConfig::min_sigma_m`).
    pub sigma_m: f64,
    /// The fused (or single-source) likelihood surface, unit mass.
    pub likelihood: Grid2D,
    /// Feature dimensions surviving in the KNN query, when one ran.
    pub surviving_dims: Option<usize>,
    /// Anchors informing the counts likelihood, when it ran.
    pub counts_anchors: Option<usize>,
}

/// What the fallback estimators read from one full-deployment sounding:
/// its masked RSSI features ([`FingerprintDb::features_of`]), its
/// reception census, its anchor centres and its hole count. Five heap
/// blocks (~1.5 KB for 37 bands × 4 anchors) where the sounding holds
/// every band's channel rows in ~400, so a session keeps the snapshot of
/// its latest attempt-0 sounding instead of the sounding itself.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackEvidence {
    features: Vec<f64>,
    mask: Vec<bool>,
    census: ReceptionCensus,
    anchors: Vec<P2>,
    holes: usize,
}

impl FallbackEvidence {
    /// Takes the snapshot of `data`.
    pub fn from_sounding(data: &SoundingData) -> Self {
        let (features, mask) = FingerprintDb::features_of(data);
        let holes = data
            .bands
            .iter()
            .flat_map(|b| b.tag_to_anchor.iter())
            .flat_map(|row| row.iter())
            .filter(|h| h.abs() == 0.0)
            .count();
        Self {
            features,
            mask,
            census: ReceptionCensus::from_sounding(data),
            anchors: data.anchors.iter().map(|a| a.center()).collect(),
            holes,
        }
    }

    /// Per-(band, anchor) dB features, band-major, and their survival
    /// mask (false where no antenna of the anchor heard the band).
    pub(crate) fn features(&self) -> (&[f64], &[bool]) {
        (&self.features, &self.mask)
    }

    /// Per-anchor reception tallies.
    pub(crate) fn census(&self) -> &ReceptionCensus {
        &self.census
    }

    /// Anchor centres, in deployment order.
    pub(crate) fn anchors(&self) -> &[P2] {
        &self.anchors
    }

    /// Band slots sounded.
    pub(crate) fn bands(&self) -> usize {
        self.census.expected
    }

    /// Tag-to-anchor measurements that are exact-zero holes.
    pub(crate) fn holes(&self) -> usize {
        self.holes
    }
}

/// The runtime's bundle of fallback estimators plus policy. Clones share
/// the fingerprint survey and the packet-count table, so every tag of a
/// fleet site reads one copy of each.
#[derive(Debug, Clone, Default)]
pub struct FallbackStack {
    db: Option<Arc<FingerprintDb>>,
    counts: Option<(PacketCountModel, Arc<CountTableSlot>)>,
    /// Stack policy (public so benches can tune `k` in place).
    pub config: FallbackConfig,
}

impl FallbackStack {
    /// An empty stack (no estimators — [`FallbackStack::estimate`] always
    /// fails with [`FallbackError::NoEstimator`]).
    pub fn new(config: FallbackConfig) -> Self {
        Self {
            db: None,
            counts: None,
            config,
        }
    }

    /// Attaches an offline-surveyed fingerprint database.
    pub fn with_fingerprints(mut self, db: FingerprintDb) -> Self {
        self.db = Some(Arc::new(db));
        self
    }

    /// Attaches a packet-count reception model.
    pub fn with_counts(mut self, model: PacketCountModel) -> Self {
        self.counts = Some((model, Arc::default()));
        self
    }

    /// The attached fingerprint database, if any (one allocation for the
    /// stack and all its clones).
    pub fn fingerprints(&self) -> Option<&FingerprintDb> {
        self.db.as_deref()
    }

    /// True when at least one estimator is attached.
    pub fn has_estimators(&self) -> bool {
        self.db.is_some() || self.counts.is_some()
    }

    /// Evaluates every available fallback prior against `evidence` on
    /// `spec`. Estimator failures are skipped, not propagated: a prior
    /// that cannot run simply contributes nothing.
    pub fn priors(
        &self,
        evidence: &FallbackEvidence,
        spec: GridSpec,
    ) -> (Option<(Grid2D, KnnEstimate)>, Option<CountsEstimate>) {
        let fp = self.db.as_ref().and_then(|db| {
            let est = db.query(evidence, self.config.k).ok()?;
            let sigma = est.spread_m.max(self.config.min_sigma_m);
            let bump = fusion::gaussian_bump(spec, est.position, sigma);
            Some((bump, est))
        });
        let counts = self.counts.as_ref().and_then(|(model, slot)| {
            let table = slot.get(model, spec, evidence.anchors());
            model.localize(evidence.census(), &table).ok()
        });
        (fp, counts)
    }

    /// Produces a fallback-only estimate (no CSI available this round):
    /// runs every attached estimator, fuses the survivors with the
    /// policy's non-CSI split renormalized over what actually ran, and
    /// reports the argmax with a spread-derived (floored) sigma.
    ///
    /// # Errors
    ///
    /// [`FallbackError::NoEstimator`] when nothing is attached or every
    /// attached estimator failed on this evidence.
    pub fn estimate(
        &self,
        evidence: &FallbackEvidence,
        spec: GridSpec,
    ) -> Result<FallbackEstimate, FallbackError> {
        let (fp, counts) = self.priors(evidence, spec);
        let weights = FusionWeights::fallback_only(&self.config.policy).restrict(
            false,
            fp.is_some(),
            counts.is_some(),
        );
        let mode = match (&fp, &counts) {
            (Some(_), Some(_)) => EstimateMode::FallbackFused,
            (Some(_), None) => EstimateMode::Fingerprint,
            (None, Some(_)) => EstimateMode::Counts,
            (None, None) => return Err(FallbackError::NoEstimator),
        };
        let parts = prior_parts(&fp, &counts, &weights);
        let mut fused = fusion::fuse_mass(&parts).ok_or(FallbackError::NoEstimator)?;
        fused.normalize_mass();
        let (ix, iy, _) = fused.argmax().ok_or(FallbackError::NoEstimator)?;
        let position = spec.cell_center(ix, iy);
        let sigma_m = fusion::grid_spread(&fused, position).max(self.config.min_sigma_m);
        Ok(FallbackEstimate {
            position,
            mode,
            weights,
            sigma_m,
            likelihood: fused,
            surviving_dims: fp.as_ref().map(|(_, e)| e.surviving_dims),
            counts_anchors: counts.as_ref().map(|c| c.anchors_used),
        })
    }
}

/// The evaluated priors of [`FallbackStack::priors`] as mass-fusion
/// `(surface, weight)` parts under `weights`.
pub(crate) fn prior_parts<'a>(
    fp: &'a Option<(Grid2D, KnnEstimate)>,
    counts: &'a Option<CountsEstimate>,
    weights: &FusionWeights,
) -> Vec<(&'a Grid2D, f64)> {
    let fp = fp.iter().map(|(bump, _)| (bump, weights.fingerprint));
    fp.chain(counts.iter().map(|c| (&c.likelihood, weights.counts)))
        .collect()
}
