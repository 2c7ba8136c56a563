//! Deterministic fault injection for the channel sounder.
//!
//! Real BLE deployments are lossy: anchors miss packets (BLE has no link
//! layer retransmission for overheard traffic), whole anchors drop off the
//! backhaul for a stretch of hops, antennas die, cheap frontends saturate,
//! and WiFi bursts bury entire 2 MHz channels in interference (the paper's
//! §7 interference study, Fig. 11). A [`FaultPlan`] injects exactly these
//! failures into a [`crate::sounder::Sounder`]'s output so the pipeline's
//! graceful-degradation path can be exercised — and *audited*.
//!
//! Two properties make the injection auditable:
//!
//! * **Determinism** — every probabilistic decision is a pure hash of
//!   `(seed, fault kind, band slot, anchor, antenna)`. The same plan over
//!   the same sounding shape always injects the same faults, independent
//!   of the caller's RNG state or thread schedule.
//! * **Replayable census** — [`FaultPlan::census`] re-runs the decision
//!   procedure *without any measurement data* and predicts exactly which
//!   holes the plan punches. Downstream, `bloc-core`'s masking pass
//!   reports how many holes it absorbed; the two totals must reconcile
//!   exactly (the `soak` binary's `fault` row asserts this).
//!
//! Lost packets materialize as **exactly-zero** measurements — the
//! convention the correction stage masks on as a hole.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::array::AnchorArray;
use crate::sounder::{BandSounding, SoundingData};
use bloc_ble::channels::Channel;
use bloc_num::{C64, P2};
use std::ops::Range;

/// A whole-anchor outage spanning a range of band slots: the anchor
/// neither reports tag measurements nor (for slaves) a master-response
/// measurement while it is out — a crashed reporting daemon or a backhaul
/// partition.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AnchorDropout {
    /// The anchor that goes dark.
    pub anchor: usize,
    /// Band slots (indices into the sounding's hop order) it misses.
    pub bands: Range<usize>,
}

/// A contiguous stretch of BLE frequency indices buried under an
/// interferer (a 20 MHz WiFi transmission covers ~10 BLE channels — the
/// Fig. 11 regime). Measurements on affected channels survive but carry
/// heavy additive noise.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct InterferenceBurst {
    /// Lowest affected BLE frequency index (0–39).
    pub freq_lo: u8,
    /// Highest affected BLE frequency index, inclusive.
    pub freq_hi: u8,
    /// Interference amplitude relative to each measurement's own
    /// amplitude: `1.0` means the interferer is as strong as the signal
    /// (0 dB signal-to-interference).
    pub noise_rel: f64,
}

impl InterferenceBurst {
    /// Whether this burst covers `channel`.
    pub fn covers(&self, channel: Channel) -> bool {
        let f = channel.freq_index();
        f >= usize::from(self.freq_lo) && f <= usize::from(self.freq_hi)
    }
}

/// Distance-dependent tag-packet loss — the De/Vasisht reception-
/// probability regime, where loss rate itself carries location
/// information. The per-hop loss probability for an anchor at distance
/// `d` from the tag is `min(max, per_m · max(0, d − d0))`: free below
/// the reference distance `d0`, then climbing linearly with range. This
/// is *on top of* the range-independent [`FaultPlan::tag_loss`].
///
/// Range loss needs the tag→anchor distances, which only the sounder
/// knows. [`FaultPlan::census`] (no tag position) therefore cannot
/// predict it — use [`FaultPlan::census_at`] with the true tag position
/// for exact reconciliation.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RangeLoss {
    /// Reference distance (m) below which range adds no loss.
    pub d0: f64,
    /// Added loss probability per metre beyond `d0`.
    pub per_m: f64,
    /// Ceiling on the range-induced loss probability.
    pub max: f64,
}

impl RangeLoss {
    /// Loss probability contributed by range `d` (metres).
    pub fn p_loss(&self, d: f64) -> f64 {
        (self.per_m * (d - self.d0).max(0.0)).clamp(0.0, self.max)
    }

    /// Reception probability at range `d` when composed with a
    /// range-independent per-hop loss `base_loss` (losses independent).
    pub fn p_receive(&self, d: f64, base_loss: f64) -> f64 {
        (1.0 - base_loss.clamp(0.0, 1.0)) * (1.0 - self.p_loss(d))
    }
}

/// A deterministic, seedable fault schedule applied to every sounding a
/// [`crate::sounder::Sounder`] produces.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FaultPlan {
    /// Seed for all probabilistic decisions. Reseeding (see
    /// [`FaultPlan::with_seed`]) yields an independent fault draw with the
    /// same rates — the sweep runner reseeds per location and per retry.
    pub seed: u64,
    /// Per-(band, anchor) probability that the anchor misses the tag's
    /// localization packet that hop. A missed packet zeroes the anchor's
    /// whole antenna row. When the *master* misses the tag packet it also
    /// sends no response, so every slave's master-response measurement for
    /// that band is lost with it.
    pub tag_loss: f64,
    /// Per-(band, slave anchor) probability that the slave misses the
    /// master's response packet (the `Ĥ^f_i0` measurement of Eq. 10).
    pub master_loss: f64,
    /// Scheduled whole-anchor outages.
    pub dropouts: Vec<AnchorDropout>,
    /// Permanently dead `(anchor, antenna)` RF chains.
    pub dead_antennas: Vec<(usize, usize)>,
    /// Saturating frontend clip amplitude: any measurement with `|h|`
    /// above this is clipped to this amplitude (phase preserved).
    pub clip_level: Option<f64>,
    /// Interference bursts by frequency index.
    pub interference: Vec<InterferenceBurst>,
    /// Optional distance-dependent tag-packet loss (the De/Vasisht
    /// reception-probability regime). Only the sounder can apply it (it
    /// knows the tag→anchor distances); [`FaultPlan::census`] without a
    /// tag position ignores it — see [`FaultPlan::census_at`].
    pub range_loss: Option<RangeLoss>,
}

/// What one plan application actually injected, by kind. Counts are in
/// *measurements* (matrix entries), except where noted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FaultCensus {
    /// Zeroed tag→anchor measurements (all hole causes combined, each
    /// entry counted once even when several faults overlap on it).
    pub tag_holes: usize,
    /// Zeroed master→anchor measurements.
    pub master_holes: usize,
    /// Bands whose master tag measurement `ĥ00` was zeroed — the bands
    /// Eq. 10 cannot be evaluated on at all.
    pub master_tag_lost_bands: usize,
    /// Bands covered by an interference burst.
    pub interference_bands: usize,
    /// Measurements that received interference noise.
    pub interfered: usize,
    /// Measurements clipped by the saturating frontend. Only meaningful
    /// on [`FaultPlan::apply_to_band_at`] output (clipping depends on the
    /// measured amplitudes); [`FaultPlan::census`] leaves it zero.
    pub clipped: usize,
}

impl FaultCensus {
    /// Total punched holes — the number `bloc-core`'s masking pass must
    /// report back for the injected/recovered reconciliation.
    pub fn holes(&self) -> usize {
        self.tag_holes + self.master_holes
    }

    /// Accumulates another census (per-band → per-sounding totals).
    pub fn absorb(&mut self, other: &FaultCensus) {
        self.tag_holes += other.tag_holes;
        self.master_holes += other.master_holes;
        self.master_tag_lost_bands += other.master_tag_lost_bands;
        self.interference_bands += other.interference_bands;
        self.interfered += other.interfered;
        self.clipped += other.clipped;
    }
}

/// The hole/interference decisions for one band: `tag[i][j]` marks
/// tag→anchor entry (i, j) for zeroing, `master[i]` the master-response
/// link of anchor `i` (index 0 unused). Exposed crate-internally so the
/// fast sounding path can skip synthesizing measurements the plan is
/// about to punch out anyway.
#[derive(Debug, Clone)]
pub(crate) struct BandMasks {
    pub(crate) tag: Vec<Vec<bool>>,
    pub(crate) master: Vec<bool>,
    pub(crate) interfered: bool,
}

/// Fault kinds, used as hash domains so each decision stream is
/// independent.
#[derive(Clone, Copy)]
enum Domain {
    TagLoss = 1,
    MasterLoss = 2,
    Noise = 3,
    RangeLoss = 4,
}

impl FaultPlan {
    /// The same plan under a different decision seed — an independent
    /// fault draw at identical rates.
    pub fn with_seed(&self, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..self.clone()
        }
    }

    /// The plan reseeded for sounding round `round`: the same fault mix,
    /// but fresh (and still fully deterministic) loss decisions. Rounds
    /// decorrelate — a link lost in round `r` is not automatically lost
    /// in `r + 1` — yet any round can be replayed in isolation, e.g.
    /// `plan.for_round(r).census(…)` predicts round `r`'s injection.
    pub fn for_round(&self, round: u64) -> FaultPlan {
        self.with_seed(splitmix(
            self.seed ^ round.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// True when the plan can inject nothing.
    pub fn is_empty(&self) -> bool {
        self.tag_loss <= 0.0
            && self.master_loss <= 0.0
            && self.dropouts.is_empty()
            && self.dead_antennas.is_empty()
            && self.clip_level.is_none()
            && self.interference.is_empty()
            && self.range_loss.is_none()
    }

    /// A uniform [0, 1) decision from the plan seed and a decision key —
    /// splitmix64 finalization, so adjacent keys decorrelate fully.
    fn decide(&self, domain: Domain, slot: usize, anchor: usize, antenna: usize) -> f64 {
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((domain as u64) << 48)
            .wrapping_add((slot as u64) << 24)
            .wrapping_add((anchor as u64) << 12)
            .wrapping_add(antenna as u64);
        (splitmix(key) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether `anchor` is dark during band slot `slot`.
    fn dropped_out(&self, anchor: usize, slot: usize) -> bool {
        self.dropouts
            .iter()
            .any(|d| d.anchor == anchor && d.bands.contains(&slot))
    }

    /// Computes the per-band fault decisions for a sounding of
    /// `n_antennas[i]` antennas per anchor at band slot `slot` on
    /// `channel`. This single function backs both [`Self::apply_to_band_at`]
    /// and [`Self::census`], so injection and prediction cannot diverge.
    /// `link_dists[i]` is the tag→anchor-centre distance, needed only
    /// when [`FaultPlan::range_loss`] is set; `None` skips range loss.
    pub(crate) fn band_masks(
        &self,
        slot: usize,
        channel: Channel,
        n_antennas: &[usize],
        link_dists: Option<&[f64]>,
    ) -> BandMasks {
        let n = n_antennas.len();
        let mut tag: Vec<Vec<bool>> = n_antennas.iter().map(|&na| vec![false; na]).collect();
        let mut master = vec![false; n];

        // Whole-anchor causes first: dropouts and tag-packet loss.
        let mut master_heard_tag = true;
        for i in 0..n {
            let out = self.dropped_out(i, slot);
            let lost_tag = self.decide(Domain::TagLoss, slot, i, 0) < self.tag_loss;
            let lost_range = match (self.range_loss, link_dists.and_then(|d| d.get(i))) {
                (Some(rl), Some(&d)) => self.decide(Domain::RangeLoss, slot, i, 0) < rl.p_loss(d),
                _ => false,
            };
            if out || lost_tag || lost_range {
                for m in tag[i].iter_mut() {
                    *m = true;
                }
                if i > 0 && out {
                    master[i] = true;
                }
                if i == 0 {
                    master_heard_tag = false;
                }
            }
        }
        // No tag packet at the master ⇒ no response packet on air ⇒ every
        // slave's master measurement is gone with it.
        if !master_heard_tag {
            for m in master.iter_mut().skip(1) {
                *m = true;
            }
        }
        // Per-link master-response loss.
        for (i, m) in master.iter_mut().enumerate().skip(1) {
            if self.decide(Domain::MasterLoss, slot, i, 0) < self.master_loss {
                *m = true;
            }
        }
        // Dead RF chains.
        for &(i, j) in &self.dead_antennas {
            if let Some(row) = tag.get_mut(i) {
                if let Some(m) = row.get_mut(j) {
                    *m = true;
                }
            }
            // A dead antenna 0 also kills the master-response measurement,
            // which is taken on antenna 0.
            if j == 0 && i > 0 && i < n {
                master[i] = true;
            }
        }

        let interfered = self.interference.iter().any(|b| b.covers(channel));
        BandMasks {
            tag,
            master,
            interfered,
        }
    }

    /// Injects this plan's faults into one band (at hop slot `slot`),
    /// mutating it in place, and returns the per-band census of what was
    /// injected. `link_dists[i]` is the tag→anchor-centre distance, so
    /// distance-dependent [`RangeLoss`] decisions apply; `None` skips
    /// range loss.
    pub fn apply_to_band_at(
        &self,
        slot: usize,
        band: &mut BandSounding,
        link_dists: Option<&[f64]>,
    ) -> FaultCensus {
        let n_antennas: Vec<usize> = band.tag_to_anchor.iter().map(|r| r.len()).collect();
        let masks = self.band_masks(slot, band.channel, &n_antennas, link_dists);
        let mut census = FaultCensus::default();

        for (i, row) in band.tag_to_anchor.iter_mut().enumerate() {
            for (j, h) in row.iter_mut().enumerate() {
                if masks.tag[i][j] {
                    *h = bloc_num::complex::ZERO;
                    if let Some(t) = band
                        .tag_to_anchor_tones
                        .get_mut(i)
                        .and_then(|r| r.get_mut(j))
                    {
                        *t = [bloc_num::complex::ZERO; 2];
                    }
                    census.tag_holes += 1;
                }
            }
        }
        if masks.tag.first().is_some_and(|r| r.iter().all(|&m| m)) && !masks.tag[0].is_empty() {
            census.master_tag_lost_bands += 1;
        }
        for (i, h) in band.master_to_anchor.iter_mut().enumerate().skip(1) {
            if masks.master[i] {
                *h = bloc_num::complex::ZERO;
                census.master_holes += 1;
            }
        }

        if masks.interfered {
            census.interference_bands = 1;
            for (i, row) in band.tag_to_anchor.iter_mut().enumerate() {
                for (j, h) in row.iter_mut().enumerate() {
                    if masks.tag[i][j] {
                        continue; // a hole stays a hole
                    }
                    *h = self.interfere(*h, slot, i, j);
                    census.interfered += 1;
                }
            }
            for (i, h) in band.master_to_anchor.iter_mut().enumerate().skip(1) {
                if !masks.master[i] {
                    *h = self.interfere(*h, slot, i, usize::MAX);
                    census.interfered += 1;
                }
            }
        }

        if let Some(clip) = self.clip_level {
            for row in band.tag_to_anchor.iter_mut() {
                for h in row.iter_mut() {
                    census.clipped += clip_measurement(h, clip) as usize;
                }
            }
            for h in band.master_to_anchor.iter_mut().skip(1) {
                census.clipped += clip_measurement(h, clip) as usize;
            }
        }

        census
    }

    /// Adds deterministic interference noise to one measurement. Noise is
    /// a complex Gaussian of amplitude `noise_rel·|h|` drawn purely from
    /// the plan seed and the measurement's coordinates.
    fn interfere(&self, h: C64, slot: usize, anchor: usize, antenna: usize) -> C64 {
        let rel: f64 = self
            .interference
            .iter()
            .map(|b| b.noise_rel)
            .fold(0.0, f64::max);
        let sigma = h.abs() * rel / 2f64.sqrt();
        let u1 = self.decide(Domain::Noise, slot, anchor, antenna.wrapping_mul(2));
        let u2 = self.decide(
            Domain::Noise,
            slot,
            anchor,
            antenna.wrapping_mul(2).wrapping_add(1),
        );
        let r = (-2.0 * u1.max(f64::MIN_POSITIVE).ln()).sqrt();
        let (s, c) = (std::f64::consts::TAU * u2).sin_cos();
        h + C64::new(sigma * r * c, sigma * r * s)
    }

    /// Predicts, without any measurement data, exactly which holes and
    /// interference hits this plan injects into a sounding of `channels`
    /// (in hop order) measured by `anchors`. `clipped` stays zero —
    /// clipping depends on the measured amplitudes. [`RangeLoss`] is
    /// ignored (the tag position is unknown); use [`Self::census_at`].
    pub fn census(&self, channels: &[Channel], anchors: &[AnchorArray]) -> FaultCensus {
        self.census_at(channels, anchors, None)
    }

    /// [`Self::census`] with an optional true tag position, so
    /// distance-dependent [`RangeLoss`] holes are predicted too. With
    /// `tag = None` this is exactly [`Self::census`].
    pub fn census_at(
        &self,
        channels: &[Channel],
        anchors: &[AnchorArray],
        tag: Option<P2>,
    ) -> FaultCensus {
        let n_antennas: Vec<usize> = anchors.iter().map(|a| a.n_antennas).collect();
        let dists = tag.map(|t| link_distances(anchors, t));
        let mut total = FaultCensus::default();
        for (slot, &channel) in channels.iter().enumerate() {
            let masks = self.band_masks(slot, channel, &n_antennas, dists.as_deref());
            let mut census = FaultCensus::default();
            for row in &masks.tag {
                census.tag_holes += row.iter().filter(|&&m| m).count();
            }
            if masks.tag.first().is_some_and(|r| r.iter().all(|&m| m)) && !masks.tag[0].is_empty() {
                census.master_tag_lost_bands += 1;
            }
            census.master_holes += masks.master.iter().skip(1).filter(|&&m| m).count();
            if masks.interfered {
                census.interference_bands = 1;
                census.interfered = masks.tag.iter().flatten().filter(|&&m| !m).count()
                    + masks.master.iter().skip(1).filter(|&&m| !m).count();
            }
            total.absorb(&census);
        }
        total
    }

    /// Records an injection census on the global `bloc-obs` registry
    /// under `fault.injected.*`.
    pub fn record(census: &FaultCensus) {
        bloc_obs::counter("fault.injected.tag_holes").add(census.tag_holes as u64);
        bloc_obs::counter("fault.injected.master_holes").add(census.master_holes as u64);
        bloc_obs::counter("fault.injected.holes").add(census.holes() as u64);
        bloc_obs::counter("fault.injected.master_tag_lost_bands")
            .add(census.master_tag_lost_bands as u64);
        bloc_obs::counter("fault.injected.interference_bands")
            .add(census.interference_bands as u64);
        bloc_obs::counter("fault.injected.interfered").add(census.interfered as u64);
        bloc_obs::counter("fault.injected.clipped").add(census.clipped as u64);
    }

    /// Predicts, per anchor, how many band slots lose the tag packet —
    /// the plan-side ledger the packet-count fallback's observed
    /// [`ReceptionCensus`] must reconcile with exactly. Supply the true
    /// tag position when the plan carries [`RangeLoss`].
    pub fn predict_reception(
        &self,
        channels: &[Channel],
        anchors: &[AnchorArray],
        tag: Option<P2>,
    ) -> ReceptionCensus {
        let n_antennas: Vec<usize> = anchors.iter().map(|a| a.n_antennas).collect();
        let dists = tag.map(|t| link_distances(anchors, t));
        let mut received = vec![0usize; anchors.len()];
        let mut master_received = vec![0usize; anchors.len()];
        for (slot, &channel) in channels.iter().enumerate() {
            let masks = self.band_masks(slot, channel, &n_antennas, dists.as_deref());
            for (i, row) in masks.tag.iter().enumerate() {
                if !row.is_empty() && !row.iter().all(|&m| m) {
                    received[i] += 1;
                }
            }
            for (i, &m) in masks.master.iter().enumerate().skip(1) {
                if !m {
                    master_received[i] += 1;
                }
            }
        }
        ReceptionCensus {
            expected: channels.len(),
            received,
            master_received,
        }
    }
}

/// Tag→anchor-centre distances, in anchor order.
pub(crate) fn link_distances(anchors: &[AnchorArray], tag: P2) -> Vec<f64> {
    anchors.iter().map(|a| a.center().dist(tag)).collect()
}

/// Per-anchor packet-reception tally over one sounding — the measurement
/// the packet-count fallback localizes on, and the observable side of the
/// fault ledger. An anchor "received" a band's tag packet iff its antenna
/// row holds any nonzero entry (tag loss zeroes whole rows, and lost
/// packets are exactly-zero by convention), so this tally reconciles
/// exactly with [`FaultPlan::predict_reception`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ReceptionCensus {
    /// Band slots sounded (the per-anchor expectation).
    pub expected: usize,
    /// Per anchor: slots whose tag packet was decoded (≥ 1 live entry).
    pub received: Vec<usize>,
    /// Per slave anchor: master responses heard (index 0 unused).
    pub master_received: Vec<usize>,
}

impl ReceptionCensus {
    /// Tallies the reception counts actually present in a sounding.
    pub fn from_sounding(data: &SoundingData) -> ReceptionCensus {
        let n = data.anchors.len();
        let mut received = vec![0usize; n];
        let mut master_received = vec![0usize; n];
        for band in &data.bands {
            for (i, row) in band.tag_to_anchor.iter().enumerate().take(n) {
                if !row.is_empty() && row.iter().any(|h| h.norm_sq() != 0.0) {
                    received[i] += 1;
                }
            }
            for (i, h) in band.master_to_anchor.iter().enumerate().take(n).skip(1) {
                if h.norm_sq() != 0.0 {
                    master_received[i] += 1;
                }
            }
        }
        ReceptionCensus {
            expected: data.bands.len(),
            received,
            master_received,
        }
    }

    /// Total tag packets lost across all anchors.
    pub fn lost(&self) -> usize {
        self.received
            .iter()
            .map(|&r| self.expected.saturating_sub(r))
            .sum()
    }

    /// Total tag packets received across all anchors.
    pub fn total_received(&self) -> usize {
        self.received.iter().sum()
    }
}

/// Clips one measurement to `clip` amplitude; returns whether it clipped.
fn clip_measurement(h: &mut C64, clip: f64) -> bool {
    let a = h.abs();
    if a > clip {
        *h = h.scale(clip / a);
        true
    } else {
        false
    }
}

/// splitmix64 finalizer.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::environment::Environment;
    use crate::geometry::Room;
    use crate::sounder::{all_data_channels, Sounder, SounderConfig};
    use bloc_num::P2;
    use rand::{rngs::StdRng, SeedableRng};

    fn deployment() -> (Environment, Vec<AnchorArray>) {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = room
            .wall_midpoints()
            .iter()
            .zip(room.walls().iter())
            .enumerate()
            .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
            .collect();
        (env, anchors)
    }

    fn sound_with(plan: &FaultPlan, seed: u64) -> crate::sounder::SoundingData {
        let (env, anchors) = deployment();
        let sounder =
            Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        sounder.sound(P2::new(2.0, 3.0), &all_data_channels(), &mut rng)
    }

    /// Counts the exact-zero holes actually present in a sounding.
    fn count_holes(data: &crate::sounder::SoundingData) -> (usize, usize) {
        let mut tag = 0;
        let mut master = 0;
        for b in &data.bands {
            tag += b
                .tag_to_anchor
                .iter()
                .flatten()
                .filter(|h| h.norm_sq() == 0.0)
                .count();
            master += b
                .master_to_anchor
                .iter()
                .skip(1)
                .filter(|h| h.norm_sq() == 0.0)
                .count();
        }
        (tag, master)
    }

    #[test]
    fn census_matches_injected_holes_exactly() {
        let plan = FaultPlan {
            seed: 0xF00D,
            tag_loss: 0.3,
            master_loss: 0.15,
            dropouts: vec![AnchorDropout {
                anchor: 2,
                bands: 5..14,
            }],
            dead_antennas: vec![(1, 3), (3, 0)],
            clip_level: None,
            interference: vec![InterferenceBurst {
                freq_lo: 10,
                freq_hi: 19,
                noise_rel: 1.0,
            }],
            range_loss: None,
        };
        let data = sound_with(&plan, 1);
        let (_, anchors) = deployment();
        let census = plan.census(&all_data_channels(), &anchors);
        let (tag, master) = count_holes(&data);
        assert_eq!(census.tag_holes, tag, "tag holes must match census");
        assert_eq!(
            census.master_holes, master,
            "master holes must match census"
        );
        assert!(census.holes() > 0, "a 30% plan must inject something");
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 7,
            tag_loss: 0.4,
            master_loss: 0.2,
            ..Default::default()
        };
        let a = sound_with(&plan, 3);
        let b = sound_with(&plan, 3);
        assert_eq!(a, b, "same plan + same rng seed ⇒ identical sounding");
        let c = sound_with(&plan.with_seed(8), 3);
        assert_ne!(
            count_holes(&a),
            count_holes(&c),
            "reseeding must redraw the faults"
        );
    }

    #[test]
    fn tag_loss_zeroes_whole_rows() {
        let plan = FaultPlan {
            seed: 11,
            tag_loss: 0.5,
            ..Default::default()
        };
        let data = sound_with(&plan, 4);
        let mut saw_hole = false;
        for b in &data.bands {
            for row in &b.tag_to_anchor {
                let zeros = row.iter().filter(|h| h.norm_sq() == 0.0).count();
                assert!(
                    zeros == 0 || zeros == row.len(),
                    "a lost packet loses every antenna of the row"
                );
                saw_hole |= zeros > 0;
            }
        }
        assert!(saw_hole);
    }

    #[test]
    fn master_tag_loss_kills_the_response_too() {
        let plan = FaultPlan {
            seed: 5,
            tag_loss: 0.5,
            ..Default::default()
        };
        let data = sound_with(&plan, 5);
        let mut verified = 0;
        for b in &data.bands {
            if b.tag_to_anchor[0].iter().all(|h| h.norm_sq() == 0.0) {
                assert!(
                    b.master_to_anchor
                        .iter()
                        .skip(1)
                        .all(|h| h.norm_sq() == 0.0),
                    "no tag packet at the master ⇒ no response on air"
                );
                verified += 1;
            }
        }
        assert!(verified > 0, "50% loss must hit the master sometimes");
    }

    #[test]
    fn dropout_spans_exactly_its_bands() {
        let plan = FaultPlan {
            seed: 1,
            dropouts: vec![AnchorDropout {
                anchor: 1,
                bands: 3..9,
            }],
            ..Default::default()
        };
        let data = sound_with(&plan, 6);
        for (s, b) in data.bands.iter().enumerate() {
            let dark = b.tag_to_anchor[1].iter().all(|h| h.norm_sq() == 0.0);
            assert_eq!(dark, (3..9).contains(&s), "slot {s}");
            assert_eq!(b.master_to_anchor[1].norm_sq() == 0.0, (3..9).contains(&s));
        }
    }

    #[test]
    fn dead_antenna_is_dead_everywhere() {
        let plan = FaultPlan {
            seed: 1,
            dead_antennas: vec![(2, 1)],
            ..Default::default()
        };
        let data = sound_with(&plan, 7);
        for b in &data.bands {
            assert_eq!(b.tag_to_anchor[2][1].norm_sq(), 0.0);
            assert!(b.tag_to_anchor[2][0].norm_sq() > 0.0);
        }
    }

    #[test]
    fn clipping_saturates_amplitude_and_keeps_phase() {
        let clip = 1e-4;
        let plan = FaultPlan {
            seed: 1,
            clip_level: Some(clip),
            ..Default::default()
        };
        let clean = sound_with(&FaultPlan::default(), 8);
        let clipped = sound_with(&plan, 8);
        let mut saw_clip = false;
        for (bc, bf) in clean.bands.iter().zip(&clipped.bands) {
            for (rc, rf) in bc.tag_to_anchor.iter().zip(&bf.tag_to_anchor) {
                for (hc, hf) in rc.iter().zip(rf) {
                    assert!(hf.abs() <= clip * (1.0 + 1e-12));
                    if hc.abs() > clip {
                        saw_clip = true;
                        assert!(
                            (hf.arg() - hc.arg()).abs() < 1e-9,
                            "clipping must preserve phase"
                        );
                    }
                }
            }
        }
        assert!(saw_clip, "clip level must actually bite");
    }

    #[test]
    fn interference_perturbs_only_its_channels() {
        let plan = FaultPlan {
            seed: 1,
            interference: vec![InterferenceBurst {
                freq_lo: 0,
                freq_hi: 9,
                noise_rel: 2.0,
            }],
            ..Default::default()
        };
        let clean = sound_with(&FaultPlan::default(), 9);
        let noisy = sound_with(&plan, 9);
        for (bc, bn) in clean.bands.iter().zip(&noisy.bands) {
            let inside = bc.channel.freq_index() <= 9;
            let moved = (bn.tag_to_anchor[1][0] - bc.tag_to_anchor[1][0]).abs()
                > 0.1 * bc.tag_to_anchor[1][0].abs();
            assert_eq!(
                moved,
                inside,
                "channel freq_index {} must move iff inside the burst",
                bc.channel.freq_index()
            );
        }
    }

    #[test]
    fn range_loss_reception_reconciles_and_biases_with_distance() {
        let (env, anchors) = deployment();
        let plan = FaultPlan {
            seed: 0xBEEF,
            tag_loss: 0.1,
            range_loss: Some(RangeLoss {
                d0: 1.0,
                per_m: 0.25,
                max: 0.9,
            }),
            ..Default::default()
        };
        let tag = P2::new(0.7, 3.0); // near anchor 3 (west wall), far from 1
        let sounder =
            Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan.clone());
        let mut rng = StdRng::seed_from_u64(42);
        let chans = all_data_channels();
        let data = sounder.sound(tag, &chans, &mut rng);

        let observed = ReceptionCensus::from_sounding(&data);
        let predicted = plan.predict_reception(&chans, &anchors, Some(tag));
        assert_eq!(observed, predicted, "reception ledger must reconcile");

        // Without the tag position the census under-predicts the holes.
        let blind = plan.census(&chans, &anchors);
        let sighted = plan.census_at(&chans, &anchors, Some(tag));
        assert!(sighted.tag_holes > blind.tag_holes);

        // The near anchor must hear more than the farthest one.
        let dists = link_distances(&anchors, tag);
        let near = dists
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        let far = dists
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        assert!(
            observed.received[near] > observed.received[far],
            "range loss must bias reception with distance ({} vs {})",
            observed.received[near],
            observed.received[far]
        );
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        let (env, anchors) = deployment();
        let base = Sounder::new(&env, &anchors, SounderConfig::default());
        let faulted = base.clone().with_faults(plan);
        let mut r1 = StdRng::seed_from_u64(2);
        let mut r2 = StdRng::seed_from_u64(2);
        let chans = all_data_channels();
        assert_eq!(
            base.sound(P2::new(1.0, 1.0), &chans, &mut r1),
            faulted.sound(P2::new(1.0, 1.0), &chans, &mut r2)
        );
    }
}
