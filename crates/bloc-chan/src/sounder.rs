//! The channel sounder: produces exactly the measurements BLoc's anchors
//! collect (paper §3, Fig. 5).
//!
//! For every sounded frequency band, three families of channels are
//! measured, each garbled by that hop's oscillator offsets:
//!
//! * `ĥ^f_ij` — tag → anchor *i*, antenna *j* (offset `φ_T − φ_Ri`), from
//!   overhearing the tag's packet;
//! * `Ĥ^f_i0` — master anchor antenna 0 → anchor *i* antenna 0 (offset
//!   `φ_R0 − φ_Ri`), from overhearing the master's response;
//! * `ĥ^f_00` — tag → master antenna 0 (a special case of the first).
//!
//! Two fidelity modes produce these:
//!
//! * **Analytic** — channels synthesized directly from the environment
//!   (Eq. 2), offsets applied as phasors, complex AWGN added at the
//!   configured measurement SNR. Fast enough for 1700-location sweeps.
//! * **Phy** — the transmission is actually modulated by `bloc-phy`
//!   (localization packet → GFSK IQ), passed through the multipath channel
//!   at IQ level, noised, and the CSI re-extracted from the stable 0/1
//!   runs. Slow; used by microbenchmarks and the analytic-vs-phy parity
//!   check.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::array::AnchorArray;
use crate::environment::Environment;
use crate::oscillator::{Device, TuningEpoch};
use crate::synth::{splitmix, FreqComb, PathCache, PathSet};
use bloc_ble::access_address::AccessAddress;
use bloc_ble::channels::Channel;
use bloc_ble::locpacket::LocalizationPacket;
use bloc_num::{C64, P2};
use bloc_phy::impairments;
use bloc_phy::modulator::{GfskModulator, ModulatorConfig};
use rand::{Rng, SeedableRng};

/// How channels are measured.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Fidelity {
    /// Direct synthesis from the path model (fast).
    Analytic,
    /// Full GFSK IQ chain through `bloc-phy` (slow, maximally faithful).
    Phy {
        /// Samples per symbol for the IQ simulation.
        sps: usize,
    },
}

/// Offset of each GFSK tone from the band centre, hertz (±250 kHz — the
/// f₀/f₁ tones of the 1M PHY).
pub const TONE_OFFSET_HZ: f64 = 250e3;

/// Time between the h₀ and h₁ measurements within one localization packet
/// (one 0-run followed by one 1-run ≈ 16 µs at 1 Mb/s, paper §6).
pub const TONE_INTERVAL_S: f64 = 16e-6;

/// Sounder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SounderConfig {
    /// Per-measurement CSI SNR, dB (noise relative to each link's own
    /// signal power). BLE tags are low-power transmitters; 10–15 dB
    /// per-tone CSI SNR is the realistic indoor regime, and it is the
    /// averaging over many bands (paper §5.1) that turns these noisy
    /// per-band snapshots into a precise estimate.
    pub csi_snr_db: f64,
    /// Measurement fidelity.
    pub fidelity: Fidelity,
    /// Run length (bits) of localization packets (Phy mode).
    pub run_bits: usize,
    /// Number of 0-run/1-run pairs per packet (Phy mode).
    pub pairs: usize,
    /// Maximum tag carrier-frequency offset, hertz; each sounding draws a
    /// CFO uniformly in `±tag_cfo_max_hz` (BLE tolerates up to ±150 kHz).
    /// Over the [`TONE_INTERVAL_S`] between the two tone measurements the
    /// CFO rotates h₁ against h₀ by `2π·f_cfo·Δt` — radians-scale, which
    /// is what makes intra-band (2 MHz) pseudo-ToF useless for multipath
    /// rejection (the paper's §5.1 bandwidth argument). BLoc's Eq. 10
    /// correction cancels the common part exactly.
    pub tag_cfo_max_hz: f64,
    /// Standard deviation of the per-packet CFO jitter, hertz: the tag's
    /// free-running oscillator drifts between packets (BLE permits tens of
    /// kHz of drift), so each band's measurement sees a slightly different
    /// CFO. This jitter decorrelates the intra-band tone difference across
    /// bands, burying the ~0.02 rad mean-delay signal a least-ToF baseline
    /// would need.
    pub tag_cfo_jitter_hz: f64,
    /// Standard deviation (radians) of the **static per-antenna phase
    /// calibration error** of each anchor's RF chains. Same-clock USRP
    /// frontends still differ by cable lengths and frontend group delay;
    /// calibration leaves residual error. The error is frozen per
    /// (anchor, antenna) from `cal_seed`, identical across bands — so it
    /// blurs *angle* information (for BLoc and baselines alike) while
    /// leaving each antenna's cross-band delay structure intact, which is
    /// precisely why bandwidth stitching pays off (paper Fig. 10).
    pub antenna_phase_err_std: f64,
    /// Seed freezing the per-antenna calibration errors of a deployment.
    pub cal_seed: u64,
}

impl Default for SounderConfig {
    fn default() -> Self {
        Self {
            csi_snr_db: 18.0,
            fidelity: Fidelity::Analytic,
            run_bits: 8,
            pairs: 8,
            tag_cfo_max_hz: 15e3,
            tag_cfo_jitter_hz: 3e3,
            antenna_phase_err_std: 0.8,
            cal_seed: 0xCA11,
        }
    }
}

/// All channel measurements for one frequency band (one hop).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BandSounding {
    /// The BLE channel sounded.
    pub channel: Channel,
    /// Its centre frequency, hertz.
    pub freq_hz: f64,
    /// `ĥ^f_ij`: `tag_to_anchor[i][j]` is the measured channel from the tag
    /// to antenna `j` of anchor `i` — the per-band *combined* value
    /// (amplitude/phase-averaged over the two tones, paper §5 preamble).
    pub tag_to_anchor: Vec<Vec<C64>>,
    /// The raw per-tone measurements behind each combined value:
    /// `tag_to_anchor_tones[i][j] = [ĥ(f₀), ĥ(f₁)]`. The h₁ entry includes
    /// the tag-CFO rotation accumulated over [`TONE_INTERVAL_S`]; baselines
    /// that attempt intra-band ToF consume these.
    pub tag_to_anchor_tones: Vec<Vec<[C64; 2]>>,
    /// `Ĥ^f_i0`: `master_to_anchor[i]` is the measured channel from the
    /// master's antenna 0 to anchor `i`'s antenna 0. Index 0 (master to
    /// itself) is set to 1.
    pub master_to_anchor: Vec<C64>,
}

impl BandSounding {
    /// `ĥ^f_00`: the tag → master-antenna-0 measurement.
    pub fn tag_to_master0(&self) -> C64 {
        self.tag_to_anchor[0][0]
    }

    /// Number of anchors in the sounding.
    pub fn n_anchors(&self) -> usize {
        self.tag_to_anchor.len()
    }
}

/// A complete multi-band sounding of one tag position: the input to the
/// localization pipeline.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SoundingData {
    /// Per-band measurements, in sounding (hop) order.
    pub bands: Vec<BandSounding>,
    /// The anchor geometry (needed by Eq. 14's known `d^{i0}_{00}` term and
    /// by the spatial likelihood).
    pub anchors: Vec<AnchorArray>,
}

impl SoundingData {
    /// Restricts to the anchors `keep`, in that order — the anchor-count
    /// ablation (paper Fig. 9b). Eq. 10 corrects every anchor against
    /// the first one, so `keep` must start with anchor 0 (the master).
    ///
    /// # Panics
    /// Panics when `keep` is empty, does not start with anchor 0, or
    /// names an anchor the sounding does not have.
    pub fn with_anchor_subset(&self, keep: &[usize]) -> SoundingData {
        assert!(!keep.is_empty(), "need at least one anchor");
        assert!(
            keep[0] == 0,
            "anchor 0 (master) must come first: Eq. 10 references ĥ00"
        );
        let bands = self
            .bands
            .iter()
            .map(|b| BandSounding {
                channel: b.channel,
                freq_hz: b.freq_hz,
                tag_to_anchor: keep.iter().map(|&i| b.tag_to_anchor[i].clone()).collect(),
                tag_to_anchor_tones: keep
                    .iter()
                    .map(|&i| b.tag_to_anchor_tones[i].clone())
                    .collect(),
                master_to_anchor: keep.iter().map(|&i| b.master_to_anchor[i]).collect(),
            })
            .collect();
        let anchors = keep.iter().map(|&i| self.anchors[i]).collect();
        SoundingData { bands, anchors }
    }

    /// Restricts every anchor to its first `n` antennas — the antenna-count
    /// ablation (paper Fig. 9c).
    pub fn with_antenna_subset(&self, n: usize) -> SoundingData {
        let bands = self
            .bands
            .iter()
            .map(|b| BandSounding {
                channel: b.channel,
                freq_hz: b.freq_hz,
                tag_to_anchor: b
                    .tag_to_anchor
                    .iter()
                    .map(|a| a[..n.min(a.len())].to_vec())
                    .collect(),
                tag_to_anchor_tones: b
                    .tag_to_anchor_tones
                    .iter()
                    .map(|a| a[..n.min(a.len())].to_vec())
                    .collect(),
                master_to_anchor: b.master_to_anchor.clone(),
            })
            .collect();
        let anchors = self
            .anchors
            .iter()
            .map(|a| a.truncated(n.min(a.n_antennas)))
            .collect();
        SoundingData { bands, anchors }
    }

    /// Restricts to a subset of bands by predicate — bandwidth (Fig. 10)
    /// and interference-subsampling (Fig. 11) ablations.
    pub fn with_bands_where(&self, mut keep: impl FnMut(&BandSounding) -> bool) -> SoundingData {
        SoundingData {
            bands: self.bands.iter().filter(|b| keep(b)).cloned().collect(),
            anchors: self.anchors.clone(),
        }
    }
}

/// The sounder: environment + anchors + configuration, with an optional
/// fault plan injected into everything [`Sounder::sound`] produces.
///
/// Analytic soundings run on the fast path: per-link
/// [`crate::synth::PathSet`]s (the static master links from a shared
/// [`PathCache`] — clones share it, so per-retry clones and every
/// sounding of a static deployment stay warm), the whole band comb swept
/// per link by the exact phasor recurrence, and each band assembled from
/// its own RNG stream, split deterministically from the caller's seed.
/// A sounding runs on the calling thread; callers that sound many tags
/// fan out across soundings.
#[derive(Debug, Clone)]
pub struct Sounder<'a> {
    env: &'a Environment,
    anchors: &'a [AnchorArray],
    config: SounderConfig,
    faults: Option<crate::faults::FaultPlan>,
    cache: PathCache,
}

impl<'a> Sounder<'a> {
    /// Builds a sounder.
    ///
    /// # Panics
    /// Panics with no anchors (anchor 0 is the master).
    pub fn new(env: &'a Environment, anchors: &'a [AnchorArray], config: SounderConfig) -> Self {
        assert!(
            !anchors.is_empty(),
            "deployment needs at least the master anchor"
        );
        Self {
            env,
            anchors,
            config,
            faults: None,
            cache: PathCache::new(),
        }
    }

    /// Replaces the sounder's path cache with `cache`, sharing its
    /// storage — the hook a session supervisor uses to own invalidation
    /// across geometry swaps (the PR 4 cache-invalidation pattern).
    pub fn with_path_cache(mut self, cache: PathCache) -> Self {
        self.cache = cache;
        self
    }

    /// The path cache in use (clones of it share storage).
    pub fn path_cache(&self) -> &PathCache {
        &self.cache
    }

    /// Composes a fault plan into the sounder: every sounding produced by
    /// [`Sounder::sound`] passes through the plan's injection pass, and
    /// the injected faults are counted on the global `bloc-obs` registry
    /// under `fault.injected.*`. The ideal/repeated sounding paths stay
    /// clean — they exist to isolate the algebra, not the link layer.
    pub fn with_faults(mut self, plan: crate::faults::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sounds every channel in `channels` for a tag at `tag`, drawing fresh
    /// oscillator offsets per hop (that is the whole problem!) and one tag
    /// CFO for the whole sounding. When a fault plan is composed in, its
    /// faults are injected per band and censused.
    pub fn sound<R: Rng + ?Sized>(
        &self,
        tag: P2,
        channels: &[Channel],
        rng: &mut R,
    ) -> SoundingData {
        self.sound_censused(tag, channels, rng).0
    }

    /// Like [`Sounder::sound`], but also hands back the
    /// [`crate::faults::FaultCensus`] of what the composed plan actually
    /// injected into this sounding (empty when no plan is composed in).
    /// Round supervisors feed per-anchor health from this census instead
    /// of re-deriving loss from the data.
    pub fn sound_censused<R: Rng + ?Sized>(
        &self,
        tag: P2,
        channels: &[Channel],
        rng: &mut R,
    ) -> (SoundingData, crate::faults::FaultCensus) {
        match self.config.fidelity {
            Fidelity::Analytic => {
                let cfo = (rng.gen::<f64>() * 2.0 - 1.0) * self.config.tag_cfo_max_hz;
                let seed: u64 = rng.gen();
                self.sound_analytic(tag, channels, cfo, seed, false)
            }
            Fidelity::Phy { .. } => self.sound_censused_reference(tag, channels, rng),
        }
    }

    /// The reference sounding path: per band, per link, two
    /// `Environment::channel` queries (each rebuilding the path list from
    /// scratch), with noise drawn sequentially from `rng`. This is the
    /// implementation the fast engine is verified against
    /// (`synth_equivalence.rs`, `perf_baseline`), and the only path Phy
    /// fidelity takes.
    pub fn sound_censused_reference<R: Rng + ?Sized>(
        &self,
        tag: P2,
        channels: &[Channel],
        rng: &mut R,
    ) -> (SoundingData, crate::faults::FaultCensus) {
        let cfo = (rng.gen::<f64>() * 2.0 - 1.0) * self.config.tag_cfo_max_hz;
        let mut bands: Vec<BandSounding> = channels
            .iter()
            .map(|&ch| {
                let cfo_band = cfo + self.config.tag_cfo_jitter_hz * gaussian_sample(rng);
                self.sound_band(
                    tag,
                    ch,
                    &TuningEpoch::draw(self.anchors.len(), rng),
                    cfo_band,
                    rng,
                )
            })
            .collect();
        let mut census = crate::faults::FaultCensus::default();
        if let Some(plan) = &self.faults {
            let dists = crate::faults::link_distances(self.anchors, tag);
            for (slot, band) in bands.iter_mut().enumerate() {
                census.absorb(&plan.apply_to_band_at(slot, band, Some(&dists)));
            }
            crate::faults::FaultPlan::record(&census);
        }
        (
            SoundingData {
                bands,
                anchors: self.anchors.to_vec(),
            },
            census,
        )
    }

    /// Sounds with **zeroed** oscillator offsets and zero CFO — ideal
    /// hardware, used by tests to isolate the offset-cancellation algebra.
    pub fn sound_ideal<R: Rng + ?Sized>(
        &self,
        tag: P2,
        channels: &[Channel],
        rng: &mut R,
    ) -> SoundingData {
        if matches!(self.config.fidelity, Fidelity::Analytic) {
            let seed: u64 = rng.gen();
            return self.sound_analytic(tag, channels, 0.0, seed, true).0;
        }
        let epoch = TuningEpoch::zero(self.anchors.len());
        let bands = channels
            .iter()
            .map(|&ch| self.sound_band(tag, ch, &epoch, 0.0, rng))
            .collect();
        SoundingData {
            bands,
            anchors: self.anchors.to_vec(),
        }
    }

    /// Repeated soundings of a single channel within one tuning epoch
    /// (the dwell stays on one band, so offsets are fixed and only noise
    /// varies) — the Fig. 8(a) CSI-stability microbenchmark.
    pub fn sound_repeated<R: Rng + ?Sized>(
        &self,
        tag: P2,
        channel: Channel,
        repeats: usize,
        rng: &mut R,
    ) -> Vec<BandSounding> {
        let cfo = (rng.gen::<f64>() * 2.0 - 1.0) * self.config.tag_cfo_max_hz;
        let epoch = TuningEpoch::draw(self.anchors.len(), rng);
        (0..repeats)
            .map(|_| self.sound_band(tag, channel, &epoch, cfo, rng))
            .collect()
    }

    /// The fast analytic sounding engine (DESIGN.md §10).
    ///
    /// Phase A (link-major): every directed link's
    /// [`crate::synth::PathSet`] — traced afresh for the tag's links, from
    /// the [`PathCache`] for the static master links — is swept
    /// across the whole comb by the exact phasor recurrence — clean
    /// per-tone channels for all links × bands in one pass per link.
    /// Phase B (band-major): per band, oscillator offsets, CFO and noise
    /// are applied as phasors. All randomness derives from `seed` via
    /// per-band and per-measurement splitmix streams, so the output is
    /// independent of which measurements a fault plan masks; masked
    /// entries short-circuit to exact zeros before
    /// [`crate::faults::FaultPlan::apply_to_band_at`] runs as the census
    /// (and interference/clip) source of truth.
    fn sound_analytic(
        &self,
        tag: P2,
        channels: &[Channel],
        cfo: f64,
        seed: u64,
        ideal: bool,
    ) -> (SoundingData, crate::faults::FaultCensus) {
        let _span = bloc_obs::span("sound");
        let n_anchors = self.anchors.len();
        let comb = FreqComb::for_channels(channels);

        // Directed link table: tag → every (anchor, antenna), then the
        // static master0 → anchor links (antenna 0), in measurement order.
        let total_antennas: usize = self.anchors.iter().map(|a| a.n_antennas).sum();
        let mut links: Vec<(P2, P2)> = Vec::with_capacity(total_antennas + n_anchors - 1);
        for anchor in self.anchors {
            for j in 0..anchor.n_antennas {
                links.push((tag, anchor.antenna(j)));
            }
        }
        let master0 = self.anchors[0].antenna(0);
        for anchor in &self.anchors[1..] {
            links.push((master0, anchor.antenna(0)));
        }

        // Phase A: sweep every link across all bands × tones, each a full
        // comb sweep. One tone-sweep scratch and one path set serve every
        // link: tag links are traced into that set outside any lock,
        // static links come from the shared cache, and warm sweeps
        // allocate no accumulators.
        let mut scratch = bloc_num::sweep::ToneSweepScratch::new();
        let mut tag_set = PathSet::new();
        let clean: Vec<Vec<[C64; 2]>> = links
            .iter()
            .enumerate()
            .map(|(l, &(tx, rx))| {
                let mut out = vec![[bloc_num::complex::ZERO; 2]; channels.len()];
                if l < total_antennas {
                    self.env.path_set_into(tx, rx, &mut tag_set);
                    tag_set.sweep_tones_with(&comb, &mut scratch, &mut out);
                } else {
                    let set = self.cache.path_set(self.env, tx, rx);
                    set.sweep_tones_with(&comb, &mut scratch, &mut out);
                }
                out
            })
            .collect();

        // Phase B: per-band impairments, band by band. The
        // calibration phasors (one per link, in link order) and the noise
        // amplitude divisor depend only on the config, so they are
        // computed once per sounding.
        let n_antennas: Vec<usize> = self.anchors.iter().map(|a| a.n_antennas).collect();
        let link_cal: Vec<C64> = n_antennas
            .iter()
            .enumerate()
            .flat_map(|(i, &na)| (0..na).map(move |j| (i, j)))
            .chain((1..n_anchors).map(|i| (i, 0)))
            .map(|(i, j)| C64::cis(self.cal_error(i, j)))
            .collect();
        let noise_div = 10f64.powf(self.config.csi_snr_db / 20.0);
        let plan = if ideal {
            None
        } else {
            self.faults.as_ref().filter(|p| !p.is_empty())
        };
        // Tag→anchor-centre distances, for distance-dependent range loss.
        let dists = plan
            .filter(|p| p.range_loss.is_some())
            .map(|_| crate::faults::link_distances(self.anchors, tag));
        let mut bands: Vec<BandSounding> = channels
            .iter()
            .enumerate()
            .map(|(slot, &channel)| {
                self.assemble_band(
                    slot,
                    channel,
                    &clean,
                    &n_antennas,
                    &link_cal,
                    noise_div,
                    cfo,
                    seed,
                    ideal,
                    plan,
                    dists.as_deref(),
                )
            })
            .collect();

        let mut census = crate::faults::FaultCensus::default();
        if !ideal {
            if let Some(p) = &self.faults {
                let dists = crate::faults::link_distances(self.anchors, tag);
                for (slot, band) in bands.iter_mut().enumerate() {
                    census.absorb(&p.apply_to_band_at(slot, band, Some(&dists)));
                }
                crate::faults::FaultPlan::record(&census);
            }
        }
        (
            SoundingData {
                bands,
                anchors: self.anchors.to_vec(),
            },
            census,
        )
    }

    /// Assembles one band of a fast analytic sounding from the Phase A
    /// clean channels — the band-major half of [`Sounder::sound_analytic`].
    /// `link_cal` holds each link's calibration phasor in link order and
    /// `noise_div` is the configured SNR as an amplitude ratio.
    #[allow(clippy::too_many_arguments)] // internal assembly plumbing
    fn assemble_band(
        &self,
        slot: usize,
        channel: Channel,
        clean: &[Vec<[C64; 2]>],
        n_antennas: &[usize],
        link_cal: &[C64],
        noise_div: f64,
        cfo: f64,
        seed: u64,
        ideal: bool,
        plan: Option<&crate::faults::FaultPlan>,
        link_dists: Option<&[f64]>,
    ) -> BandSounding {
        let band_seed = splitmix(seed ^ (slot as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (epoch, cfo_band) = if ideal {
            (TuningEpoch::zero(n_antennas.len()), 0.0)
        } else {
            // One private, deterministically-seeded stream per band: the
            // per-hop retune draws don't depend on how many bands precede
            // them.
            let mut brng = rand::rngs::StdRng::seed_from_u64(band_seed);
            let cfo_band = cfo + self.config.tag_cfo_jitter_hz * gaussian_sample(&mut brng);
            (TuningEpoch::draw(n_antennas.len(), &mut brng), cfo_band)
        };
        let masks = plan.map(|p| p.band_masks(slot, channel, n_antennas, link_dists));
        let cfo_rot = C64::cis(std::f64::consts::TAU * cfo_band * TONE_INTERVAL_S);

        let mut link_idx = 0usize;
        let mut tag_to_anchor = Vec::with_capacity(n_antennas.len());
        let mut tag_to_anchor_tones = Vec::with_capacity(n_antennas.len());
        for (i, &na) in n_antennas.iter().enumerate() {
            let rot = C64::cis(epoch.measurement_offset(Device::Tag, Device::Anchor(i)));
            let mut row = Vec::with_capacity(na);
            let mut tones_row = Vec::with_capacity(na);
            for j in 0..na {
                if masks.as_ref().is_some_and(|m| m.tag[i][j]) {
                    // The plan punches this hole anyway: skip the
                    // impairment work and write the exact zero directly.
                    row.push(bloc_num::complex::ZERO);
                    tones_row.push([bloc_num::complex::ZERO; 2]);
                    link_idx += 1;
                    continue;
                }
                let cal = link_cal[link_idx];
                let [c0, c1] = clean[link_idx][slot];
                let mut tones = [c0 * rot, c1 * rot * cfo_rot];
                tones[0] = add_noise_hashed(tones[0], noise_div, band_seed, link_idx as u64, 0);
                tones[1] = add_noise_hashed(tones[1], noise_div, band_seed, link_idx as u64, 1);
                tones[0] *= cal;
                tones[1] *= cal;
                row.push(combine_tones(tones));
                tones_row.push(tones);
                link_idx += 1;
            }
            tag_to_anchor.push(row);
            tag_to_anchor_tones.push(tones_row);
        }

        let mut master_to_anchor = Vec::with_capacity(n_antennas.len());
        master_to_anchor.push(bloc_num::complex::ONE);
        for i in 1..n_antennas.len() {
            if masks.as_ref().is_some_and(|m| m.master[i]) {
                master_to_anchor.push(bloc_num::complex::ZERO);
                link_idx += 1;
                continue;
            }
            let rot = C64::cis(epoch.measurement_offset(Device::Anchor(0), Device::Anchor(i)));
            // Anchors are frequency-disciplined relative to each other far
            // better than the free-running tag: no CFO on this link.
            let cal = link_cal[link_idx];
            let [c0, c1] = clean[link_idx][slot];
            let mut tones = [c0 * rot, c1 * rot];
            tones[0] = add_noise_hashed(tones[0], noise_div, band_seed, link_idx as u64, 0);
            tones[1] = add_noise_hashed(tones[1], noise_div, band_seed, link_idx as u64, 1);
            tones[0] *= cal;
            tones[1] *= cal;
            master_to_anchor.push(combine_tones(tones));
            link_idx += 1;
        }

        BandSounding {
            channel,
            freq_hz: channel.freq_hz(),
            tag_to_anchor,
            tag_to_anchor_tones,
            master_to_anchor,
        }
    }

    fn sound_band<R: Rng + ?Sized>(
        &self,
        tag: P2,
        channel: Channel,
        epoch: &TuningEpoch,
        tag_cfo_hz: f64,
        rng: &mut R,
    ) -> BandSounding {
        let f = channel.freq_hz();
        let n_anchors = self.anchors.len();

        let mut tag_to_anchor = Vec::with_capacity(n_anchors);
        let mut tag_to_anchor_tones = Vec::with_capacity(n_anchors);
        for (i, anchor) in self.anchors.iter().enumerate() {
            let offset = epoch.measurement_offset(Device::Tag, Device::Anchor(i));
            let mut row = Vec::with_capacity(anchor.n_antennas);
            let mut tones_row = Vec::with_capacity(anchor.n_antennas);
            for j in 0..anchor.n_antennas {
                let cal = C64::cis(self.cal_error(i, j));
                let mut tones =
                    self.measure_link(tag, anchor.antenna(j), channel, f, offset, tag_cfo_hz, rng);
                tones[0] *= cal;
                tones[1] *= cal;
                row.push(combine_tones(tones));
                tones_row.push(tones);
            }
            tag_to_anchor.push(row);
            tag_to_anchor_tones.push(tones_row);
        }

        let master0 = self.anchors[0].antenna(0);
        let mut master_to_anchor = Vec::with_capacity(n_anchors);
        master_to_anchor.push(bloc_num::complex::ONE);
        for (i, anchor) in self.anchors.iter().enumerate().skip(1) {
            let offset = epoch.measurement_offset(Device::Anchor(0), Device::Anchor(i));
            // Anchors are frequency-disciplined relative to each other far
            // better than the free-running tag: no CFO on this link.
            let cal = C64::cis(self.cal_error(i, 0));
            let mut tones =
                self.measure_link(master0, anchor.antenna(0), channel, f, offset, 0.0, rng);
            tones[0] *= cal;
            tones[1] *= cal;
            master_to_anchor.push(combine_tones(tones));
        }

        BandSounding {
            channel,
            freq_hz: f,
            tag_to_anchor,
            tag_to_anchor_tones,
            master_to_anchor,
        }
    }

    /// The frozen calibration phase error of (anchor `i`, antenna `j`).
    fn cal_error(&self, i: usize, j: usize) -> f64 {
        if self.config.antenna_phase_err_std == 0.0 {
            return 0.0;
        }
        // splitmix64 over (seed, anchor, antenna) → deterministic gaussian.
        let mut z = self
            .config
            .cal_seed
            .wrapping_add((i as u64) << 32)
            .wrapping_add(j as u64 + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (x ^ (x >> 31)) as f64 / u64::MAX as f64
        };
        let u1 = next().max(f64::MIN_POSITIVE);
        let u2 = next();
        self.config.antenna_phase_err_std
            * (-2.0 * u1.ln()).sqrt()
            * (std::f64::consts::TAU * u2).cos()
    }

    /// Measures one directed link tx → rx on `channel`: the pair of tone
    /// channels `[ĥ(f₀), ĥ(f₁)]` with the epoch offset, the transmitter
    /// CFO rotation on the later tone, and measurement noise.
    #[allow(clippy::too_many_arguments)] // mirrors the physical signal chain
    fn measure_link<R: Rng + ?Sized>(
        &self,
        tx: P2,
        rx: P2,
        channel: Channel,
        f_hz: f64,
        offset_phase: f64,
        cfo_hz: f64,
        rng: &mut R,
    ) -> [C64; 2] {
        match self.config.fidelity {
            Fidelity::Analytic => {
                let rot = C64::cis(offset_phase);
                let cfo_rot = C64::cis(std::f64::consts::TAU * cfo_hz * TONE_INTERVAL_S);
                let h0 = self.env.channel(tx, rx, f_hz - TONE_OFFSET_HZ) * rot;
                let h1 = self.env.channel(tx, rx, f_hz + TONE_OFFSET_HZ) * rot * cfo_rot;
                [
                    add_measurement_noise(h0, self.config.csi_snr_db, rng),
                    add_measurement_noise(h1, self.config.csi_snr_db, rng),
                ]
            }
            Fidelity::Phy { sps } => {
                self.measure_link_phy(tx, rx, channel, f_hz, offset_phase, cfo_hz, sps, rng)
            }
        }
    }

    /// Full IQ-level measurement: modulate a localization packet, push it
    /// through the multipath channel, apply CFO and offsets at IQ level,
    /// add noise, re-extract the per-tone CSI from the stable runs.
    #[allow(clippy::too_many_arguments)] // mirrors the physical signal chain
    fn measure_link_phy<R: Rng + ?Sized>(
        &self,
        tx: P2,
        rx: P2,
        channel: Channel,
        f_hz: f64,
        offset_phase: f64,
        cfo_hz: f64,
        sps: usize,
        rng: &mut R,
    ) -> [C64; 2] {
        let modem = GfskModulator::new(ModulatorConfig {
            sps,
            ..ModulatorConfig::default()
        });
        let fs = modem.config().sample_rate();
        let aa = AccessAddress::generate(rng);
        // Invariant, not input: the config's run/pair counts always fit a
        // PDU, so a failure here is a programming error worth a loud stop.
        #[allow(clippy::expect_used)]
        let packet = LocalizationPacket::build(
            channel,
            aa,
            0x555555,
            self.config.run_bits,
            self.config.pairs,
        )
        .expect("run pattern fits a PDU");

        let tx_iq = modem.modulate(&packet.air_bits());

        // Per-path IQ gains: the carrier phase −2πfd/c and spreading loss
        // live in the complex gain; baseband delays are a sample or less
        // for indoor path differences at BLE sample rates, kept anyway.
        let paths = self.env.paths(tx, rx);
        let min_len = paths.iter().map(|p| p.length).fold(f64::INFINITY, f64::min);
        let iq_paths: Vec<(C64, usize)> = paths
            .iter()
            .map(|p| {
                let gain = p.channel_at(f_hz);
                let delay = (((p.length - min_len) / bloc_num::constants::SPEED_OF_LIGHT) * fs)
                    .round() as usize;
                (gain, delay)
            })
            .collect();
        let mut rx_iq = impairments::apply_multipath(&tx_iq, &iq_paths);
        impairments::apply_phase_offset(&mut rx_iq, offset_phase);
        impairments::apply_cfo(&mut rx_iq, cfo_hz, fs);
        impairments::awgn(&mut rx_iq, self.config.csi_snr_db, rng);

        bloc_phy::csi::measure_band_csi(&packet, &rx_iq, &modem, bloc_ble::locpacket::SETTLE_BITS)
            .map(|c| [c.h0, c.h1])
            .unwrap_or([bloc_num::complex::ZERO; 2])
    }
}

/// Combines the two tone measurements into one per-band channel value by
/// averaging amplitude and phase separately (paper §5 preamble) — the same
/// rule the PHY's `BandCsi::combined` applies.
fn combine_tones(tones: [C64; 2]) -> C64 {
    let amp = (tones[0].abs() + tones[1].abs()) / 2.0;
    let phase = bloc_num::angle::circular_mean(&[tones[0].arg(), tones[1].arg()]);
    C64::from_polar(amp, phase)
}

/// A standard-normal sample via Box–Muller.
fn gaussian_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Adds complex Gaussian measurement noise at the SNR whose amplitude
/// ratio `10^(snr_db/20)` is `noise_div`, relative to `h`'s own power, drawn
/// from a splitmix stream keyed by (band seed, link, tone) — the fast
/// path's replacement for the reference path's sequential draws. Keying
/// per measurement (instead of consuming a shared stream) is what keeps
/// soundings bit-identical across fault plans that skip masked entries.
fn add_noise_hashed(h: C64, noise_div: f64, band_seed: u64, link: u64, tone: u64) -> C64 {
    let noise_amp = h.abs() / noise_div;
    let sigma = noise_amp / 2f64.sqrt();
    let key = band_seed
        ^ link.wrapping_mul(0xA24B_AED4_963E_E407)
        ^ tone.wrapping_mul(0x9E6D_62D0_6F6A_9A9B);
    let u1 = (splitmix(key) >> 11) as f64 / (1u64 << 53) as f64;
    let u2 = (splitmix(key ^ 0x6A09_E667_F3BC_C909) >> 11) as f64 / (1u64 << 53) as f64;
    // Box–Muller from the two hashed uniforms.
    let r = (-2.0 * u1.max(f64::MIN_POSITIVE).ln()).sqrt();
    let (s, c) = (std::f64::consts::TAU * u2).sin_cos();
    h + C64::new(sigma * r * c, sigma * r * s)
}

/// Adds complex Gaussian measurement noise at `snr_db` relative to `h`'s
/// own power.
fn add_measurement_noise<R: Rng + ?Sized>(h: C64, snr_db: f64, rng: &mut R) -> C64 {
    let noise_amp = h.abs() / 10f64.powf(snr_db / 20.0);
    let sigma = noise_amp / 2f64.sqrt();
    let g = |rng: &mut R| {
        // Box–Muller
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    h + C64::new(sigma * g(rng), sigma * g(rng))
}

/// The standard sounding plan: all 37 data channels in link-layer order
/// (one full hop cycle visits each exactly once — paper §2.1).
pub fn all_data_channels() -> Vec<Channel> {
    Channel::all_data().collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::geometry::Room;
    use crate::materials::Material;
    use rand::{rngs::StdRng, SeedableRng};

    fn deployment() -> (Environment, Vec<AnchorArray>) {
        let room = Room::new(5.0, 6.0);
        let mut rng = StdRng::seed_from_u64(99);
        let env = Environment::in_room(room)
            .with_walls(Material::concrete(), &mut rng)
            .unwrap();
        let anchors = standard_anchors(&room);
        (env, anchors)
    }

    fn standard_anchors(room: &Room) -> Vec<AnchorArray> {
        let mids = room.wall_midpoints();
        let walls = room.walls();
        (0..4)
            .map(|i| AnchorArray::centered(i, mids[i], walls[i].direction(), 4))
            .collect()
    }

    #[test]
    fn sounding_shape() {
        let (env, anchors) = deployment();
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let data = sounder.sound(P2::new(2.0, 3.0), &all_data_channels(), &mut rng);
        assert_eq!(data.bands.len(), 37);
        for b in &data.bands {
            assert_eq!(b.tag_to_anchor.len(), 4);
            assert!(b.tag_to_anchor.iter().all(|row| row.len() == 4));
            assert_eq!(b.master_to_anchor.len(), 4);
            assert_eq!(b.master_to_anchor[0], bloc_num::complex::ONE);
            assert_eq!(b.tag_to_master0(), b.tag_to_anchor[0][0]);
        }
    }

    #[test]
    fn ideal_sounding_has_clean_phase_structure() {
        // With zero offsets and no noise the measured ĥ equals the true
        // channel: its phase across bands is the (multipath-garbled but
        // offset-free) physical phase.
        let (_, anchors) = deployment();
        let env = Environment::free_space();
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                csi_snr_db: 300.0,
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(2);
        let tag = P2::new(2.5, 3.0);
        let data = sounder.sound_ideal(tag, &all_data_channels(), &mut rng);
        for b in &data.bands {
            let expect = env.channel(tag, anchors[1].antenna(2), b.freq_hz);
            let got = b.tag_to_anchor[1][2];
            assert!((got - expect).abs() < 1e-6 * expect.abs().max(1e-9));
        }
    }

    #[test]
    fn offsets_garble_phase_but_not_amplitude() {
        let (_, anchors) = deployment();
        let env = Environment::free_space();
        let cfg = SounderConfig {
            csi_snr_db: 300.0,
            ..Default::default()
        };
        let sounder = Sounder::new(&env, &anchors, cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let tag = P2::new(1.5, 2.0);
        let chans = all_data_channels();
        let garbled = sounder.sound(tag, &chans, &mut rng);
        for b in &garbled.bands {
            let truth = env.channel(tag, anchors[2].antenna(1), b.freq_hz);
            let meas = b.tag_to_anchor[2][1];
            assert!(
                (meas.abs() - truth.abs()).abs() < 1e-6,
                "offset must not change |h|"
            );
        }
        // ...but phases across bands are not the physical ones: the
        // unwrapped phase is no longer near-linear in frequency.
        let phases: Vec<f64> = garbled
            .bands
            .iter()
            .map(|b| b.tag_to_anchor[2][1].arg())
            .collect();
        let freqs: Vec<f64> = garbled.bands.iter().map(|b| b.freq_hz).collect();
        let unwrapped = bloc_num::angle::unwrap(&phases);
        let (_, _, r2) = bloc_num::linalg::linear_fit(&freqs, &unwrapped).unwrap();
        assert!(
            r2 < 0.9,
            "random per-hop offsets must destroy phase linearity, r² = {r2}"
        );
    }

    #[test]
    fn repeated_sounding_keeps_offsets_fixed() {
        // Fig. 8(a): within one dwell, phase is stable across repeats.
        let (env, anchors) = deployment();
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let reps =
            sounder.sound_repeated(P2::new(2.0, 2.0), Channel::data(6).unwrap(), 10, &mut rng);
        assert_eq!(reps.len(), 10);
        let phases: Vec<f64> = reps.iter().map(|b| b.tag_to_anchor[1][0].arg()).collect();
        let spread = bloc_num::angle::circular_variance(&phases);
        assert!(spread < 0.01, "within-dwell phase spread {spread}");
    }

    #[test]
    fn separate_soundings_draw_fresh_offsets() {
        let (env, anchors) = deployment();
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                csi_snr_db: 300.0,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        let ch = [Channel::data(6).unwrap()];
        let a = sounder.sound(P2::new(2.0, 2.0), &ch, &mut rng);
        let b = sounder.sound(P2::new(2.0, 2.0), &ch, &mut rng);
        let pa = a.bands[0].tag_to_anchor[1][0].arg();
        let pb = b.bands[0].tag_to_anchor[1][0].arg();
        assert!(
            (pa - pb).abs() > 1e-3,
            "fresh epochs must give different offsets"
        );
    }

    #[test]
    fn anchor_subset_preserves_master() {
        let (env, anchors) = deployment();
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let data = sounder.sound(P2::new(2.0, 3.0), &all_data_channels()[..5], &mut rng);
        let sub = data.with_anchor_subset(&[0, 2, 3]);
        assert_eq!(sub.anchors.len(), 3);
        assert_eq!(sub.bands[0].tag_to_anchor.len(), 3);
        assert_eq!(
            sub.bands[0].tag_to_anchor[1],
            data.bands[0].tag_to_anchor[2]
        );
        assert_eq!(sub.anchors[0].id, 0);
    }

    #[test]
    #[should_panic(expected = "master")]
    fn anchor_subset_requires_master() {
        let (env, anchors) = deployment();
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let data = sounder.sound(P2::new(2.0, 3.0), &all_data_channels()[..2], &mut rng);
        let _ = data.with_anchor_subset(&[1, 2]);
    }

    #[test]
    #[should_panic(expected = "master")]
    fn anchor_subset_requires_master_first() {
        // Retained but not first, anchor 1 would silently become Eq. 10's
        // reference and the fix would land metres off.
        let (env, anchors) = deployment();
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let data = sounder.sound(P2::new(2.0, 3.0), &all_data_channels()[..2], &mut rng);
        let _ = data.with_anchor_subset(&[1, 0, 2, 3]);
    }

    #[test]
    fn antenna_subset_truncates() {
        let (env, anchors) = deployment();
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut rng = StdRng::seed_from_u64(8);
        let data = sounder.sound(P2::new(2.0, 3.0), &all_data_channels()[..3], &mut rng);
        let sub = data.with_antenna_subset(3);
        assert!(sub
            .bands
            .iter()
            .all(|b| b.tag_to_anchor.iter().all(|r| r.len() == 3)));
        assert!(sub.anchors.iter().all(|a| a.n_antennas == 3));
    }

    #[test]
    fn band_filter_works() {
        let (env, anchors) = deployment();
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut rng = StdRng::seed_from_u64(9);
        let data = sounder.sound(P2::new(2.0, 3.0), &all_data_channels(), &mut rng);
        let sub = data.with_bands_where(|b| b.channel.freq_index() % 2 == 0);
        assert!(sub.bands.len() < data.bands.len());
        assert!(sub.bands.iter().all(|b| b.channel.freq_index() % 2 == 0));
    }

    #[test]
    fn phy_fidelity_matches_analytic_in_free_space() {
        // The parity check: the full IQ chain must reproduce the analytic
        // channel (same geometry, no noise) to sub-percent accuracy.
        let anchors = vec![
            AnchorArray::centered(0, P2::new(2.5, 0.0), P2::new(1.0, 0.0), 2),
            AnchorArray::centered(1, P2::new(0.0, 3.0), P2::new(0.0, 1.0), 2),
        ];
        let env = Environment::free_space();
        let tag = P2::new(2.0, 2.0);
        let ch = [Channel::data(10).unwrap()];

        let analytic = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                csi_snr_db: 300.0,
                fidelity: Fidelity::Analytic,
                ..Default::default()
            },
        );
        let phy = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                csi_snr_db: 300.0,
                fidelity: Fidelity::Phy { sps: 8 },
                ..Default::default()
            },
        );

        let mut rng = StdRng::seed_from_u64(10);
        let da = analytic.sound_ideal(tag, &ch, &mut rng);
        let dp = phy.sound_ideal(tag, &ch, &mut rng);
        for i in 0..2 {
            for j in 0..2 {
                let a = da.bands[0].tag_to_anchor[i][j];
                let p = dp.bands[0].tag_to_anchor[i][j];
                let rel = (a - p).abs() / a.abs();
                assert!(
                    rel < 0.01,
                    "anchor {i} ant {j}: analytic {a:?} vs phy {p:?} (rel {rel})"
                );
            }
        }
    }
}
