//! Packet-count localization: a reception-probability likelihood over the
//! grid that needs **no CSI at all** — only how many of the sounded slots
//! each anchor actually heard.
//!
//! When range-dependent loss is active ([`bloc_chan::RangeLoss`]), the
//! probability that anchor `i` decodes a tag packet falls with the
//! tag–anchor distance, so the per-anchor reception tally `r_i / n`
//! carries genuine location information (the packet-count /
//! reception-probability regime of De et al. and Vasisht et al. — see
//! DESIGN.md §11). The model evaluates, per candidate cell `x`, the
//! binomial log-likelihood of the observed tallies:
//!
//! ```text
//! ℓ(x) = Σ_i  r_i · ln p_i(x)  +  (n − r_i) · ln(1 − p_i(x))
//! p_i(x) = (1 − base_loss) · (1 − p_loss(‖x − a_i‖))
//! ```
//!
//! `ln p_i(x)` and `ln(1 − p_i(x))` depend only on the grid and the
//! deployment, so a stack tabulates them once for the (grid, anchors) it
//! is asked about ([`CountTable`]) and a round's evaluation is two
//! multiply-adds per (cell, informative anchor).
//!
//! Anchors that heard *nothing* are excluded: an all-silent anchor is
//! indistinguishable from a scheduled dropout (breaker-quarantined or
//! blacked out), and treating its silence as range evidence would drag
//! every estimate toward "infinitely far from that anchor".

use std::sync::{Arc, Mutex, PoisonError};

use bloc_chan::faults::{RangeLoss, ReceptionCensus};
use bloc_num::{Grid2D, GridSpec, P2};

use super::FallbackError;

/// Probability clamp: keeps `ln p` and `ln (1−p)` finite even at cells
/// the model considers (nearly) impossible.
const P_CLAMP: f64 = 1e-4;

/// The reception-probability likelihood model. Construction mirrors the
/// *injection truth* of the scenario's [`bloc_chan::FaultPlan`]: the model
/// is the estimator's calibrated belief about the channel's loss physics,
/// exactly as a fielded system would calibrate path-loss coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PacketCountModel {
    /// Distance-independent loss floor (interference, collisions).
    pub base_loss: f64,
    /// The distance-dependent loss ramp.
    pub range: RangeLoss,
}

/// A packet-count position estimate with its normalized likelihood.
#[derive(Debug, Clone, PartialEq)]
pub struct CountsEstimate {
    /// Argmax cell center of the likelihood.
    pub position: P2,
    /// Mass-normalized reception-probability likelihood over the grid.
    pub likelihood: Grid2D,
    /// Anchors whose tallies informed the likelihood (all-silent anchors
    /// are excluded).
    pub anchors_used: usize,
}

impl PacketCountModel {
    /// The model matching a fault environment with the given
    /// distance-independent loss floor and range ramp.
    pub fn new(base_loss: f64, range: RangeLoss) -> Self {
        Self { base_loss, range }
    }

    /// Reception probability at distance `d` from an anchor.
    pub fn p_receive(&self, d: f64) -> f64 {
        self.range
            .p_receive(d, self.base_loss)
            .clamp(P_CLAMP, 1.0 - P_CLAMP)
    }

    /// The model's log reception probabilities over `spec` for every
    /// anchor in `anchors` (cell centres as [`Grid2D::from_fn`]
    /// evaluates them): the part of [`Self::localize`] that depends only
    /// on the grid and the deployment, computed once and shared.
    pub fn table(&self, spec: GridSpec, anchors: &[P2]) -> CountTable {
        let mut ln = Vec::with_capacity(anchors.len() * spec.len());
        for &a in anchors {
            let p = Grid2D::from_fn(spec, |x| self.p_receive(x.dist(a)));
            ln.extend(p.data().iter().map(|&pr| [pr.ln(), (1.0 - pr).ln()]));
        }
        CountTable {
            model: *self,
            spec,
            anchors: anchors.to_vec(),
            ln,
        }
    }

    /// Evaluates the binomial reception log-likelihood of `census` over
    /// `table`'s grid, exp-normalizes it into a likelihood surface, and
    /// returns the argmax-cell estimate. Per cell it sums, over the
    /// anchors that heard something, `r · ln p + (n − r) · ln(1 − p)`
    /// from the table in anchor order — the same operations as evaluating
    /// `p_receive` in place, so the surface is bit-identical to it.
    /// `table` must be one this model built ([`Self::table`]).
    ///
    /// # Errors
    ///
    /// [`FallbackError::NoInformativeAnchors`] when every anchor was
    /// all-silent (or the census is empty) — there is no count evidence
    /// to localize on.
    pub fn localize(
        &self,
        census: &ReceptionCensus,
        table: &CountTable,
    ) -> Result<CountsEstimate, FallbackError> {
        debug_assert_eq!(table.model, *self, "a count table of another model");
        let n = census.expected;
        let cells = table.spec.len();
        // Anchors with at least one decoded slot: silence could be a
        // scheduled dropout, so only positive tallies are evidence.
        let informative: Vec<(&[[f64; 2]], f64)> = census
            .received
            .iter()
            .take(table.anchors.len())
            .enumerate()
            .filter(|&(_, &r)| r > 0)
            .map(|(i, &r)| (&table.ln[i * cells..][..cells], r as f64))
            .collect();
        if informative.is_empty() || n == 0 {
            return Err(FallbackError::NoInformativeAnchors);
        }
        bloc_obs::counter("fallback.counts.localizations").inc();

        let n_f = n as f64;
        let mut ll = Grid2D::zeros(table.spec);
        for (cell, v) in ll.data_mut().iter_mut().enumerate() {
            let mut acc = 0.0;
            for &(ln, r) in &informative {
                let [ln_p, ln_q] = ln[cell];
                acc += r * ln_p + (n_f - r) * ln_q;
            }
            *v = acc;
        }

        // Exp-normalize: subtract the max log-likelihood before exp so
        // the surface is numerically tame, then normalize to unit mass.
        let (ix, iy, max_ll) = match ll.argmax() {
            Some(m) => m,
            None => return Err(FallbackError::NoInformativeAnchors),
        };
        let position = table.spec.cell_center(ix, iy);
        for v in ll.data_mut() {
            *v = (*v - max_ll).exp();
        }
        ll.normalize_mass();
        Ok(CountsEstimate {
            position,
            likelihood: ll,
            anchors_used: informative.len(),
        })
    }
}

/// `ln p_i(x)` and `ln(1 − p_i(x))` of one [`PacketCountModel`] for every
/// anchor `i` of one deployment and every cell `x` of one grid. They
/// depend on nothing a round observes, so a [`super::FallbackStack`]
/// keeps one and every round — and every tag sharing the stack — reads
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct CountTable {
    model: PacketCountModel,
    spec: GridSpec,
    anchors: Vec<P2>,
    /// Anchor-major, cells in flat order: `[ln p, ln(1 − p)]`.
    ln: Vec<[f64; 2]>,
}

impl CountTable {
    fn serves(&self, model: &PacketCountModel, spec: GridSpec, anchors: &[P2]) -> bool {
        self.model == *model && self.spec == spec && self.anchors == anchors
    }
}

/// The [`CountTable`] one fallback stack keeps, shared by its clones. A
/// fleet site asks for one (grid, anchors) key every round; a request for
/// another key builds that key's table and replaces the kept one.
#[derive(Debug, Default)]
pub(crate) struct CountTableSlot(Mutex<Option<Arc<CountTable>>>);

impl CountTableSlot {
    /// The table of `model` over `spec` and `anchors`, built on a miss.
    pub(crate) fn get(
        &self,
        model: &PacketCountModel,
        spec: GridSpec,
        anchors: &[P2],
    ) -> Arc<CountTable> {
        // The slot holds a whole table or none, so a guard poisoned by a
        // panicking tag elsewhere still guards a sound slot.
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        match slot.as_ref() {
            Some(kept) if kept.serves(model, spec, anchors) => Arc::clone(kept),
            _ => Arc::clone(slot.insert(Arc::new(model.table(spec, anchors)))),
        }
    }
}
