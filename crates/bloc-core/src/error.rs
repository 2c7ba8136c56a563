//! Typed pipeline failures and the degradation evidence trail.
//!
//! `localize()` used to answer with a bare `Option`: a `None` said nothing
//! about *why* a fix failed, and any malformed measurement reaching the
//! hot path panicked. Production ingestion needs both fixed: a typed
//! [`LocalizeError`] for every way a sounding can be unusable, and a
//! [`DegradationReport`] attached to every successful estimate describing
//! what the pipeline had to discard to produce it (paper context: Eq. 10
//! needs a complete tag/master/anchor measurement triple per band; §5.1's
//! bandwidth stitching shrinks with every band lost; §7's interference
//! study shows whole channels can be garbage).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt;

/// Why localization produced no estimate. Reserved for *measurement*
/// problems — programmer errors (impossible shapes built in code) still
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum LocalizeError {
    /// The sounding carried no bands at all.
    EmptySounding,
    /// The sounding carried no anchors (anchor 0 is the required master).
    NoAnchors,
    /// Every band was dropped by masking — typically every master tag
    /// measurement (`ĥ00`) was lost, leaving Eq. 10 undefined everywhere.
    NoUsableBands {
        /// Bands present in the sounding.
        total: usize,
        /// Bands dropped by masking (equals `total` here by definition).
        dropped: usize,
    },
    /// After excluding dead anchors, fewer than two remained — a single
    /// anchor's likelihood is an unresolvable wedge/hyperbola (paper
    /// Fig. 6), not a fix.
    TooFewUsableAnchors {
        /// Anchors that still had surviving measurements.
        usable: usize,
        /// Anchors in the deployment.
        total: usize,
    },
    /// The joint likelihood had no extractable peak.
    NoPeak,
}

impl fmt::Display for LocalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptySounding => write!(f, "sounding has no bands"),
            Self::NoAnchors => write!(f, "sounding has no anchors (anchor 0 must be the master)"),
            Self::NoUsableBands { total, dropped } => write!(
                f,
                "all bands unusable: {dropped} of {total} dropped by masking"
            ),
            Self::TooFewUsableAnchors { usable, total } => write!(
                f,
                "only {usable} of {total} anchors have surviving measurements (need 2)"
            ),
            Self::NoPeak => write!(f, "joint likelihood has no extractable peak"),
        }
    }
}

impl std::error::Error for LocalizeError {}

/// Why the runtime supervisor declined to attempt (or accept) a localize
/// this round. A deferral is not a failure: it is the supervisor's typed
/// statement that conditions were below its admission policy and the
/// round should be retried later, against [`LocalizeError`] which reports
/// a localize that was attempted and produced nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum DeferReason {
    /// Too few anchors were admitted (live and not quarantined by the
    /// circuit breaker) to meet the quorum policy.
    AnchorQuorum {
        /// Anchors admitted this round.
        live: usize,
        /// The policy minimum.
        required: usize,
    },
    /// The sounding survived with fewer bands than the quorum policy
    /// requires for a trustworthy stitch (paper §5.1: span — hence band
    /// count — sets the relative-distance resolution).
    BandQuorum {
        /// Bands that survived masking.
        surviving: usize,
        /// The policy minimum.
        required: usize,
    },
    /// Every backoff-scheduled attempt of the round failed; the last
    /// typed failure is carried for diagnosis.
    RetriesExhausted {
        /// Attempts made (initial + retries).
        attempts: usize,
        /// The failure of the final attempt.
        last: LocalizeError,
    },
    /// The round's time budget ([`bloc_num::par::Deadline`]) ran out
    /// before an estimate was produced: the round defers itself instead
    /// of stalling the batch it is part of (fleet serving's per-round
    /// deadline bulkhead).
    DeadlineExceeded {
        /// The configured budget, µs.
        budget_us: u64,
        /// Cost charged by the time the deadline was observed, µs.
        spent_us: u64,
    },
}

impl fmt::Display for DeferReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::AnchorQuorum { live, required } => {
                write!(f, "anchor quorum not met: {live} live, need {required}")
            }
            Self::BandQuorum {
                surviving,
                required,
            } => write!(
                f,
                "band quorum not met: {surviving} surviving, need {required}"
            ),
            Self::RetriesExhausted { attempts, last } => {
                write!(f, "all {attempts} attempts failed; last: {last}")
            }
            Self::DeadlineExceeded {
                budget_us,
                spent_us,
            } => write!(
                f,
                "round deadline exceeded: {spent_us} µs spent of a {budget_us} µs budget"
            ),
        }
    }
}

/// What the pipeline discarded on the way to an estimate — the evidence
/// that a fix produced under degraded conditions *is* degraded, and by how
/// much.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DegradationReport {
    /// Bands in the input sounding.
    pub bands_total: usize,
    /// Bands dropped entirely (master tag measurement `ĥ00` missing or
    /// non-finite, or the band was malformed).
    pub bands_dropped: usize,
    /// Exactly-zero measurement holes masked (lost tag packets and lost
    /// master responses). Reconciles with `fault.injected.holes` when the
    /// sounding came from a faulted `Sounder`.
    pub holes_masked: usize,
    /// Non-finite measurements masked.
    pub nonfinite_masked: usize,
    /// Anchors in the deployment.
    pub anchors_total: usize,
    /// Anchors excluded from the joint likelihood because no measurement
    /// of theirs survived masking.
    pub anchors_excluded: Vec<usize>,
    /// Frequency span of the surviving bands, Hz — the *effective*
    /// stitched bandwidth after masking (paper §5.1: span sets the
    /// relative-distance resolution).
    pub effective_span_hz: f64,
    /// Peak-margin confidence of the chosen estimate, `[0, 1]` (the
    /// `crate::Estimate::confidence` value at estimation time).
    pub confidence: f64,
}

impl DegradationReport {
    /// True when nothing was masked, dropped or excluded — the sounding
    /// was consumed whole.
    pub fn is_clean(&self) -> bool {
        self.bands_dropped == 0
            && self.holes_masked == 0
            && self.nonfinite_masked == 0
            && self.anchors_excluded.is_empty()
    }

    /// Bands that actually fed the likelihood.
    pub(crate) fn bands_used(&self) -> usize {
        self.bands_total - self.bands_dropped
    }

    /// Anchors that actually fed the likelihood.
    pub(crate) fn anchors_used(&self) -> usize {
        self.anchors_total - self.anchors_excluded.len()
    }

    /// The fraction of the sounding's evidence that actually fed the
    /// likelihood, in `[0, 1]`: (bands used / bands total) × (anchors
    /// used / anchors total), with empty totals counting as fully
    /// surviving. This is the health signal the degraded-mode fusion
    /// weights ([`crate::fallback::FusionWeights`]) are derived from.
    pub fn survival_fraction(&self) -> f64 {
        let frac = |used: usize, total: usize| {
            if total == 0 {
                1.0
            } else {
                used as f64 / total as f64
            }
        };
        (frac(self.bands_used(), self.bands_total) * frac(self.anchors_used(), self.anchors_total))
            .clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn clean_report_is_clean() {
        let r = DegradationReport {
            bands_total: 37,
            anchors_total: 4,
            effective_span_hz: 80e6,
            confidence: 0.9,
            ..Default::default()
        };
        assert!(r.is_clean());
        assert_eq!(r.bands_used(), 37);
        assert_eq!(r.anchors_used(), 4);
    }

    #[test]
    fn degraded_report_is_not_clean() {
        let r = DegradationReport {
            bands_total: 37,
            bands_dropped: 5,
            holes_masked: 40,
            anchors_total: 4,
            anchors_excluded: vec![2],
            ..Default::default()
        };
        assert!(!r.is_clean());
        assert_eq!(r.bands_used(), 32);
        assert_eq!(r.anchors_used(), 3);
    }
}
