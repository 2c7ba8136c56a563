//! The unified phasor-sweep core shared by the likelihood engine
//! (`bloc-core`, paper Eq. 17) and the channel-synthesis engine
//! (`bloc-chan`, paper Eq. 2).
//!
//! Both hot loops in the workspace are the same computation: a phase that
//! is **linear in frequency** (`φ(f) = w·f` with `w = ±2πd/c`) evaluated
//! over one sounding's band comb. On BLE's uniform 2 MHz comb the phasor
//! at band `k` follows from band `k−1` by one exact complex rotation, so
//! the whole sweep costs two `cis` calls (seed + step) and then pure
//! multiply-adds. [`CombPlan`] detects the comb once; the two kernels
//! below walk it:
//!
//! * [`write_comb_cells`] — the likelihood recurrence: SIMD lanes are
//!   **antenna rotation chains** of one (cell, anchor) pair; each cell
//!   reduces to the Eq. 17 coherent/non-coherent combining value. On the
//!   AVX-512 level one vector carries **two consecutive cells** × 4
//!   antenna lanes (the channel-weight rows broadcast into both halves);
//!   an odd last cell runs the one-cell AVX2 instantiation.
//! * [`sweep_tones_into`] — the synthesis recurrence: SIMD lanes are
//!   **four consecutive comb slots** of one propagation path; all paths
//!   accumulate into a dense slot buffer that is scattered back to
//!   sounding order. It stays 4 lanes wide on the AVX-512 level too: an
//!   8-slot body would advance each path by `step⁸` instead of `step⁴`,
//!   a different rounding chain, and so change the sounding's bits.
//!
//! Each kernel is one generic body instantiated for every [`simd`] vector
//! implementation it runs on and runtime-dispatched ([`simd::cell_level`]
//! for the cell kernel, [`simd::active_level`] for the tone kernel), so
//! the scalar fallback, the AVX2 path and the AVX-512 path are
//! bit-identical by construction. Off-comb band sets
//! fall back to per-band `cis` — still exact, just not
//! recurrence-accelerated, and scalar on every level.

use crate::complex::{self, C64};
use crate::simd::{self, CellLanes, Cx, F64x4, Level, ScalarX4, SimdLevel};

/// How far (in hertz) a band may sit off the comb and still count as on
/// it. BLE channel centres are exact megahertz multiples, so any real
/// deviation is a unit-test fabrication, not measurement noise.
pub const COMB_TOLERANCE_HZ: f64 = 1.0;

/// The frequency walk a recurrence kernel takes across surviving bands —
/// the one comb detector shared by the likelihood engine (`BandPlan`'s
/// former role) and the channel synthesizer (`FreqComb`'s former role).
///
/// Bands are visited in ascending frequency. When every band offset from
/// the lowest frequency is an integer multiple of one comb spacing (BLE:
/// 2 MHz), `gaps[k]` holds how many comb slots to advance from band
/// `k−1` to band `k` (first entry 0) and the rotation recurrence is
/// exact. Otherwise `step_hz` is 0 and kernels fall back to per-band
/// `cis`. Degenerate inputs (zero or one distinct frequency) are valid
/// but not a comb: the fallback handles them exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CombPlan {
    /// Indices into the caller's band order, ascending frequency.
    pub order: Vec<usize>,
    /// Frequencies in plan (ascending) order, hertz.
    pub freqs: Vec<f64>,
    /// The lowest surviving frequency, hertz.
    pub base_hz: f64,
    /// Comb spacing, hertz; 0 when the bands are not on a uniform comb.
    pub step_hz: f64,
    /// Comb slots to advance per planned band; empty when `step_hz == 0`.
    pub gaps: Vec<u32>,
    /// Absolute comb slot of each planned band (`slots[k] = Σ gaps[..=k]`);
    /// empty when `step_hz == 0`. Lets the dense tone kernel scatter.
    pub slots: Vec<u32>,
}

impl CombPlan {
    /// Plans the walk for bands with the given centre frequencies (in
    /// their stored order).
    pub fn build(freqs_in_order: &[f64]) -> Self {
        let mut order: Vec<usize> = (0..freqs_in_order.len()).collect();
        order.sort_by(|&a, &b| freqs_in_order[a].total_cmp(&freqs_in_order[b]));
        let freqs: Vec<f64> = order.iter().map(|&k| freqs_in_order[k]).collect();
        let base_hz = freqs.first().copied().unwrap_or(0.0);

        // Candidate comb spacing: the smallest positive adjacent gap.
        let mut step_hz = f64::INFINITY;
        for w in freqs.windows(2) {
            let d = w[1] - w[0];
            if d > 0.0 {
                step_hz = step_hz.min(d);
            }
        }
        if !step_hz.is_finite() {
            // Zero or one distinct frequency: a degenerate (but valid)
            // comb — every gap is zero slots, and no recurrence applies.
            return Self {
                gaps: vec![0; freqs.len()],
                slots: vec![0; freqs.len()],
                order,
                freqs,
                base_hz,
                step_hz: 0.0,
            };
        }

        let mut gaps = Vec::with_capacity(freqs.len());
        let mut slots = Vec::with_capacity(freqs.len());
        let mut prev_slot: i64 = 0;
        for &f in &freqs {
            let raw = (f - base_hz) / step_hz;
            let rounded = raw.round();
            if ((f - base_hz) - rounded * step_hz).abs() > COMB_TOLERANCE_HZ
                || rounded < 0.0
                || rounded > u32::MAX as f64
            {
                // Off-comb band: no exact recurrence exists.
                return Self {
                    order,
                    freqs,
                    base_hz,
                    step_hz: 0.0,
                    gaps: Vec::new(),
                    slots: Vec::new(),
                };
            }
            let slot = rounded as i64;
            gaps.push((slot - prev_slot) as u32);
            slots.push(rounded as u32);
            prev_slot = slot;
        }
        Self {
            order,
            freqs,
            base_hz,
            step_hz,
            gaps,
            slots,
        }
    }

    /// True when the exact rotation recurrence applies.
    pub fn is_uniform_comb(&self) -> bool {
        self.step_hz > 0.0 && !self.gaps.is_empty()
    }

    /// Number of planned bands.
    pub fn n_bands(&self) -> usize {
        self.freqs.len()
    }

    /// Total comb slots spanned (highest slot + 1); 0 when off-comb.
    pub fn span(&self) -> usize {
        if !self.is_uniform_comb() {
            return 0;
        }
        self.slots.last().map_or(0, |&s| s as usize + 1)
    }

    /// True when every planned band advances exactly one comb slot (the
    /// BLE 37-channel case): the dense kernels skip the gap loop.
    pub fn is_dense(&self) -> bool {
        self.is_uniform_comb()
            && self.gaps.first() == Some(&0)
            && self.gaps[1..].iter().all(|&g| g == 1)
    }
}

/// How the per-lane accumulators of one cell reduce to its likelihood
/// value — mirrors `bloc_core::likelihood::AntennaCombining` without the
/// dependency (lanes are antennas on the likelihood side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// `|Σ lanes|` — lanes sum coherently.
    Coherent,
    /// `Σ |lane|` — each lane contributes its magnitude.
    Noncoherent,
    /// `|Σ| + 0.5·Σ|·|` — the workspace's hybrid combining.
    Hybrid,
}

#[inline(always)]
fn combine_value(combine: Combine, coh_re: f64, coh_im: f64, non: f64) -> f64 {
    // `sqrt(re² + im²)` instead of `hypot`: the libm `hypot` guards
    // against overflow the likelihood magnitudes can't reach, and costs
    // more than the whole 37-band recurrence per cell.
    let coherent = (coh_re * coh_re + coh_im * coh_im).sqrt();
    match combine {
        Combine::Coherent => coherent,
        Combine::Noncoherent => non,
        Combine::Hybrid => coherent + 0.5 * non,
    }
}

/// Borrowed inputs for the likelihood cell kernel: one anchor's steering
/// phasors (cell-major) and channel weights (slot-major), both padded to
/// `n_lanes` (a multiple of 4) with neutral lanes — weight 0, phasor 1 —
/// so padding contributes exact zeros.
#[derive(Debug, Clone, Copy)]
pub struct CellSweep<'a> {
    /// `e^{ιw·f_base}` real parts, `seed_re[cell·n_lanes + lane]`.
    pub seed_re: &'a [f64],
    /// Seed imaginary parts, same indexing.
    pub seed_im: &'a [f64],
    /// Comb-step rotation real parts, same indexing.
    pub step_re: &'a [f64],
    /// Step imaginary parts, same indexing.
    pub step_im: &'a [f64],
    /// Channel weights `α`, `alpha_re[slot·n_lanes + lane]`.
    pub alpha_re: &'a [f64],
    /// Weight imaginary parts, same indexing.
    pub alpha_im: &'a [f64],
    /// Lane stride — antennas rounded up to a multiple of 4.
    pub n_lanes: usize,
    /// Comb-slot advances per planned band ([`CombPlan::gaps`]).
    pub gaps: &'a [u32],
}

/// One lane block of `V::CELLS` cells over a dense comb (every gap after
/// the first is one slot): two interleaved rotation chains advanced by
/// `step²` halve the serial complex-multiply latency the pipeline must
/// hide.
#[inline(always)]
fn dense_block<V: CellLanes>(
    seed: Cx<V>,
    step: Cx<V>,
    alpha_re: &[f64],
    alpha_im: &[f64],
    n_lanes: usize,
    lane0: usize,
    n_bands: usize,
) -> Cx<V> {
    let step2 = step.mul(step);
    let mut rot_e = seed; // bands 0, 2, 4, …
    let mut rot_o = seed.mul(step); // bands 1, 3, 5, …
    let mut acc_e = Cx::<V>::zero();
    let mut acc_o = Cx::<V>::zero();
    let pairs = n_bands / 2;
    for p in 0..pairs {
        let e = (2 * p) * n_lanes + lane0;
        let o = e + n_lanes;
        let a_e = Cx {
            re: V::load_row(&alpha_re[e..]),
            im: V::load_row(&alpha_im[e..]),
        };
        let a_o = Cx {
            re: V::load_row(&alpha_re[o..]),
            im: V::load_row(&alpha_im[o..]),
        };
        acc_e = acc_e.add(a_e.mul(rot_e));
        acc_o = acc_o.add(a_o.mul(rot_o));
        rot_e = rot_e.mul(step2);
        rot_o = rot_o.mul(step2);
    }
    if n_bands % 2 == 1 {
        let s = (n_bands - 1) * n_lanes + lane0;
        let a = Cx {
            re: V::load_row(&alpha_re[s..]),
            im: V::load_row(&alpha_im[s..]),
        };
        acc_e = acc_e.add(a.mul(rot_e));
    }
    acc_e.add(acc_o)
}

/// One lane block of `V::CELLS` cells over a general uniform comb: single
/// rotation chain, `gaps[k]` step multiplies per band.
#[inline(always)]
fn gap_block<V: CellLanes>(
    seed: Cx<V>,
    step: Cx<V>,
    alpha_re: &[f64],
    alpha_im: &[f64],
    n_lanes: usize,
    lane0: usize,
    gaps: &[u32],
) -> Cx<V> {
    let mut rot = seed;
    let mut acc = Cx::<V>::zero();
    for (slot, &gap) in gaps.iter().enumerate() {
        for _ in 0..gap {
            rot = rot.mul(step);
        }
        let s = slot * n_lanes + lane0;
        let a = Cx {
            re: V::load_row(&alpha_re[s..]),
            im: V::load_row(&alpha_im[s..]),
        };
        acc = acc.add(a.mul(rot));
    }
    acc
}

/// The Eq. 17 cell kernel, `V::CELLS` consecutive cells per vector:
/// `out.len()` must be a multiple of `V::CELLS`.
#[inline(always)]
fn comb_cells_body<V: CellLanes>(
    s: &CellSweep<'_>,
    combine: Combine,
    first_cell: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len() % V::CELLS, 0);
    let nl = s.n_lanes;
    let nb = s.gaps.len();
    let dense = s.gaps.first() == Some(&0) && s.gaps[1..].iter().all(|&g| g == 1);
    let add_cells = |acc: &mut V::Sums, sums: V::Sums| {
        for (a, v) in acc.as_mut().iter_mut().zip(sums.as_ref()) {
            *a += v;
        }
    };
    for (k, values) in out.chunks_exact_mut(V::CELLS).enumerate() {
        let cell = first_cell + k * V::CELLS;
        let mut coh_re = V::Sums::default();
        let mut coh_im = V::Sums::default();
        let mut non = V::Sums::default();
        for lane0 in (0..nl).step_by(4) {
            let base = cell * nl + lane0;
            let seed = Cx {
                re: V::load_cells(&s.seed_re[base..], nl),
                im: V::load_cells(&s.seed_im[base..], nl),
            };
            let step = Cx {
                re: V::load_cells(&s.step_re[base..], nl),
                im: V::load_cells(&s.step_im[base..], nl),
            };
            let acc = if dense {
                dense_block::<V>(seed, step, s.alpha_re, s.alpha_im, nl, lane0, nb)
            } else {
                gap_block::<V>(seed, step, s.alpha_re, s.alpha_im, nl, lane0, s.gaps)
            };
            add_cells(&mut coh_re, acc.re.hsum_cells());
            add_cells(&mut coh_im, acc.im.hsum_cells());
            add_cells(&mut non, acc.abs().hsum_cells());
        }
        for (c, v) in values.iter_mut().enumerate() {
            *v = combine_value(
                combine,
                coh_re.as_ref()[c],
                coh_im.as_ref()[c],
                non.as_ref()[c],
            );
        }
    }
}

fn comb_cells_scalar(s: &CellSweep<'_>, combine: Combine, first_cell: usize, out: &mut [f64]) {
    comb_cells_body::<ScalarX4>(s, combine, first_cell, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn comb_cells_avx2(s: &CellSweep<'_>, combine: Combine, first_cell: usize, out: &mut [f64]) {
    comb_cells_body::<simd::AvxX4>(s, combine, first_cell, out);
}

/// Whole cell pairs on the two-cell AVX-512 vector; an odd last cell on
/// the one-cell AVX2 instantiation of the same body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2")]
fn comb_cells_avx512(s: &CellSweep<'_>, combine: Combine, first_cell: usize, out: &mut [f64]) {
    let paired = out.len() - out.len() % simd::Avx512X8::CELLS;
    let (pairs, tail) = out.split_at_mut(paired);
    comb_cells_body::<simd::Avx512X8>(s, combine, first_cell, pairs);
    comb_cells_body::<simd::AvxX4>(s, combine, first_cell + paired, tail);
}

/// [`write_comb_cells`] on an explicit vector level — what the
/// dispatch-equivalence tests drive so they never mutate process state.
/// Sound for any `level` safe code can hold: levels only come from CPU
/// detection ([`simd::host_levels`]).
#[allow(unsafe_code)]
pub fn write_comb_cells_at(
    level: SimdLevel,
    s: &CellSweep<'_>,
    combine: Combine,
    first_cell: usize,
    out: &mut [f64],
) {
    assert!(
        s.n_lanes >= 4 && s.n_lanes.is_multiple_of(4),
        "lane stride must be a positive multiple of 4"
    );
    let needed = (first_cell + out.len()) * s.n_lanes;
    assert!(
        s.seed_re.len() >= needed
            && s.seed_im.len() >= needed
            && s.step_re.len() >= needed
            && s.step_im.len() >= needed,
        "steering tables shorter than the requested cell range"
    );
    let alpha_needed = s.gaps.len() * s.n_lanes;
    assert!(s.alpha_re.len() >= alpha_needed && s.alpha_im.len() >= alpha_needed);
    match level.0 {
        Level::Scalar => comb_cells_scalar(s, combine, first_cell, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the AVX2 level only comes from `simd::host_levels`,
        // which constructs it behind `is_x86_feature_detected!("avx2")`.
        Level::Avx2 => unsafe { comb_cells_avx2(s, combine, first_cell, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the AVX-512 level only comes from `simd::host_levels`,
        // which constructs it behind `avx512f` and `avx2` detection.
        Level::Avx512 => unsafe { comb_cells_avx512(s, combine, first_cell, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 | Level::Avx512 => comb_cells_scalar(s, combine, first_cell, out),
    }
}

/// Evaluates the Eq. 17 recurrence for cells `first_cell ..
/// first_cell + out.len()` of one anchor map, writing each cell's
/// combined likelihood value. Lanes are antenna rotation chains; the
/// vector path is chosen once per call via [`simd::cell_level`].
pub fn write_comb_cells(s: &CellSweep<'_>, combine: Combine, first_cell: usize, out: &mut [f64]) {
    write_comb_cells_at(simd::cell_level(), s, combine, first_cell, out);
}

/// Borrowed inputs for the off-comb fallback: per-cell relative distances
/// instead of phasor tables (the phase is rebuilt per band with `cis` —
/// exact for any frequency set, just not recurrence-accelerated).
#[derive(Debug, Clone, Copy)]
pub struct OffCombSweep<'a> {
    /// Relative distances, `delta[cell·n_lanes + lane]`, metres; padding
    /// lanes hold 0.
    pub delta: &'a [f64],
    /// Channel weights `α`, `alpha_re[slot·n_lanes + lane]`; padding
    /// lanes hold 0.
    pub alpha_re: &'a [f64],
    /// Weight imaginary parts, same indexing.
    pub alpha_im: &'a [f64],
    /// Lane stride — antennas rounded up to a multiple of 4.
    pub n_lanes: usize,
    /// Band frequencies in plan order, hertz.
    pub freqs: &'a [f64],
    /// Phase slope per (metre · hertz): `±2π/c`.
    pub phase_per_hz: f64,
}

/// Evaluates the off-comb per-band-`cis` fallback over a cell range with
/// the same combining semantics as [`write_comb_cells`]. Scalar on every
/// dispatch level (the transcendental dominates, not the arithmetic).
pub fn write_offcomb_cells(
    s: &OffCombSweep<'_>,
    combine: Combine,
    first_cell: usize,
    out: &mut [f64],
) {
    let nl = s.n_lanes;
    debug_assert!(s.alpha_re.len() >= s.freqs.len() * nl);
    let mut acc = vec![complex::ZERO; nl];
    for (k, v) in out.iter_mut().enumerate() {
        let cell = first_cell + k;
        let deltas = &s.delta[cell * nl..(cell + 1) * nl];
        for a in acc.iter_mut() {
            *a = complex::ZERO;
        }
        for (slot, &f) in s.freqs.iter().enumerate() {
            let row = slot * nl;
            for (j, &d) in deltas.iter().enumerate() {
                let a = C64::new(s.alpha_re[row + j], s.alpha_im[row + j]);
                acc[j] += a * C64::cis(s.phase_per_hz * d * f);
            }
        }
        let mut coh = complex::ZERO;
        let mut non = 0.0;
        for &a in &acc {
            coh += a;
            non += (a.re * a.re + a.im * a.im).sqrt();
        }
        *v = combine_value(combine, coh.re, coh.im, non);
    }
}

/// Reusable dense slot accumulators for [`sweep_tones_into`] — hold them
/// in the caller's scratch arena so warm sweeps allocate nothing.
#[derive(Debug, Default)]
pub struct ToneSweepScratch {
    lo_re: Vec<f64>,
    lo_im: Vec<f64>,
    hi_re: Vec<f64>,
    hi_im: Vec<f64>,
}

impl ToneSweepScratch {
    /// Empty scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, lanes: usize) {
        for buf in [
            &mut self.lo_re,
            &mut self.lo_im,
            &mut self.hi_re,
            &mut self.hi_im,
        ] {
            buf.clear();
            buf.resize(lanes, 0.0);
        }
    }
}

/// When a uniform comb's dense span exceeds this multiple of its band
/// count, the dense-slot kernel would mostly rotate through empty slots;
/// the per-band gap walk is used instead.
const DENSE_SPAN_FACTOR: usize = 4;

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tone_paths_body<V: F64x4>(
    lengths: &[f64],
    gains: &[C64],
    base_hz: f64,
    step_hz: f64,
    tone_offset_hz: f64,
    phase_per_metre_hz: f64,
    scratch: &mut ToneSweepScratch,
    n_quads: usize,
) {
    for (&len, &gain) in lengths.iter().zip(gains) {
        let w = phase_per_metre_hz * len;
        let step = C64::cis(w * step_hz);
        let tone = C64::cis(w * tone_offset_hz);
        let rot0 = C64::cis(w * base_hz);
        let lo = gain * tone.conj();
        let hi = gain * tone;
        // Lane seed: four consecutive comb slots of this path.
        let r1 = rot0 * step;
        let r2 = r1 * step;
        let r3 = r2 * step;
        let mut rot = Cx::<V> {
            re: V::load(&[rot0.re, r1.re, r2.re, r3.re]),
            im: V::load(&[rot0.im, r1.im, r2.im, r3.im]),
        };
        let s2 = step * step;
        let s4 = s2 * s2;
        let step4 = Cx::<V>::broadcast(s4.re, s4.im);
        let lo4 = Cx::<V>::broadcast(lo.re, lo.im);
        let hi4 = Cx::<V>::broadcast(hi.re, hi.im);
        for q in 0..n_quads {
            let at = q * 4;
            let lo_acc = Cx {
                re: V::load(&scratch.lo_re[at..]),
                im: V::load(&scratch.lo_im[at..]),
            };
            let hi_acc = Cx {
                re: V::load(&scratch.hi_re[at..]),
                im: V::load(&scratch.hi_im[at..]),
            };
            let lo_next = lo_acc.add(lo4.mul(rot));
            let hi_next = hi_acc.add(hi4.mul(rot));
            lo_next.re.store(&mut scratch.lo_re[at..]);
            lo_next.im.store(&mut scratch.lo_im[at..]);
            hi_next.re.store(&mut scratch.hi_re[at..]);
            hi_next.im.store(&mut scratch.hi_im[at..]);
            rot = rot.mul(step4);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn tone_paths_scalar(
    lengths: &[f64],
    gains: &[C64],
    base_hz: f64,
    step_hz: f64,
    tone_offset_hz: f64,
    phase_per_metre_hz: f64,
    scratch: &mut ToneSweepScratch,
    n_quads: usize,
) {
    tone_paths_body::<ScalarX4>(
        lengths,
        gains,
        base_hz,
        step_hz,
        tone_offset_hz,
        phase_per_metre_hz,
        scratch,
        n_quads,
    );
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn tone_paths_avx2(
    lengths: &[f64],
    gains: &[C64],
    base_hz: f64,
    step_hz: f64,
    tone_offset_hz: f64,
    phase_per_metre_hz: f64,
    scratch: &mut ToneSweepScratch,
    n_quads: usize,
) {
    tone_paths_body::<simd::AvxX4>(
        lengths,
        gains,
        base_hz,
        step_hz,
        tone_offset_hz,
        phase_per_metre_hz,
        scratch,
        n_quads,
    );
}

/// [`sweep_tones_into`] on an explicit vector level (for the dispatch
/// equivalence tests). The AVX-512 level runs the 4-wide AVX2 body: see
/// the module docs for why this kernel does not widen.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
pub fn sweep_tones_into_at(
    level: SimdLevel,
    plan: &CombPlan,
    tone_offset_hz: f64,
    phase_per_metre_hz: f64,
    lengths: &[f64],
    gains: &[C64],
    scratch: &mut ToneSweepScratch,
    out: &mut [[C64; 2]],
) {
    assert_eq!(lengths.len(), gains.len(), "path SoA arrays must match");
    assert_eq!(
        out.len(),
        plan.n_bands(),
        "out must hold one entry per band"
    );
    for v in out.iter_mut() {
        *v = [complex::ZERO; 2];
    }
    if !plan.is_uniform_comb() {
        // Off-comb (or degenerate) bands: exact per-band `cis`.
        for (&len, &gain) in lengths.iter().zip(gains) {
            let w = phase_per_metre_hz * len;
            for (k, &f) in plan.freqs.iter().enumerate() {
                let slot = &mut out[plan.order[k]];
                slot[0] += gain * C64::cis(w * (f - tone_offset_hz));
                slot[1] += gain * C64::cis(w * (f + tone_offset_hz));
            }
        }
        return;
    }
    let span = plan.span();
    if span > DENSE_SPAN_FACTOR * plan.n_bands().max(1) {
        // Too sparse for dense lanes: walk the gaps per path instead.
        for (&len, &gain) in lengths.iter().zip(gains) {
            let w = phase_per_metre_hz * len;
            let step = C64::cis(w * plan.step_hz);
            let tone = C64::cis(w * tone_offset_hz);
            let mut rot = C64::cis(w * plan.base_hz);
            let lo = gain * tone.conj();
            let hi = gain * tone;
            for (slot, &gap) in plan.gaps.iter().enumerate() {
                for _ in 0..gap {
                    rot *= step;
                }
                let o = &mut out[plan.order[slot]];
                o[0] += lo * rot;
                o[1] += hi * rot;
            }
        }
        return;
    }
    let n_quads = span.div_ceil(4);
    scratch.reset(n_quads * 4);
    match level.0 {
        Level::Scalar => tone_paths_scalar(
            lengths,
            gains,
            plan.base_hz,
            plan.step_hz,
            tone_offset_hz,
            phase_per_metre_hz,
            scratch,
            n_quads,
        ),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: both levels only come from `simd::host_levels`, which
        // constructs them behind `is_x86_feature_detected!("avx2")`.
        Level::Avx2 | Level::Avx512 => unsafe {
            tone_paths_avx2(
                lengths,
                gains,
                plan.base_hz,
                plan.step_hz,
                tone_offset_hz,
                phase_per_metre_hz,
                scratch,
                n_quads,
            )
        },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 | Level::Avx512 => tone_paths_scalar(
            lengths,
            gains,
            plan.base_hz,
            plan.step_hz,
            tone_offset_hz,
            phase_per_metre_hz,
            scratch,
            n_quads,
        ),
    }
    // Scatter dense slots back to the caller's sounding order (duplicate
    // frequencies land on the same dense slot and get identical values).
    for (k, &slot) in plan.slots.iter().enumerate() {
        let d = slot as usize;
        out[plan.order[k]] = [
            C64::new(scratch.lo_re[d], scratch.lo_im[d]),
            C64::new(scratch.hi_re[d], scratch.hi_im[d]),
        ];
    }
}

/// The vector levels this host can actually execute, narrowest first
/// ([`simd::host_levels`]) — what equivalence suites iterate over.
pub fn levels_to_test() -> Vec<SimdLevel> {
    simd::host_levels().to_vec()
}

/// Evaluates the two GFSK tone channels `[h(f−δ), h(f+δ)]` of every band
/// for a whole path set (Eq. 2 with the geometry hoisted out): lanes are
/// four consecutive dense comb slots, every path's rotation chain
/// advances four slots per complex multiply, and the dense accumulators
/// scatter back to sounding order. `phase_per_metre_hz` is the phase
/// slope `w/d` (`bloc-chan` passes `−2π/c`).
pub fn sweep_tones_into(
    plan: &CombPlan,
    tone_offset_hz: f64,
    phase_per_metre_hz: f64,
    lengths: &[f64],
    gains: &[C64],
    scratch: &mut ToneSweepScratch,
    out: &mut [[C64; 2]],
) {
    sweep_tones_into_at(
        simd::active_level(),
        plan,
        tone_offset_hz,
        phase_per_metre_hz,
        lengths,
        gains,
        scratch,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn rand_unit(seed: u64) -> f64 {
        (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn comb_plan_detects_the_ble_comb() {
        let freqs: Vec<f64> = (0..10).map(|k| 2.402e9 + 2e6 * k as f64).collect();
        let plan = CombPlan::build(&freqs);
        assert!(plan.is_uniform_comb());
        assert!(plan.is_dense());
        assert_eq!(plan.base_hz, 2.402e9);
        assert_eq!(plan.step_hz, 2e6);
        assert_eq!(plan.gaps[0], 0);
        assert!(plan.gaps[1..].iter().all(|&g| g == 1));
        assert_eq!(plan.span(), 10);
    }

    #[test]
    fn comb_plan_sorts_and_rejects_non_combs() {
        let freqs = [2.410e9, 2.402e9, 2.416e9];
        let plan = CombPlan::build(&freqs);
        assert_eq!(plan.order, vec![1, 0, 2]);
        // 8 and 6 MHz adjacent gaps: 6 MHz does not divide 8 MHz.
        assert!(!plan.is_uniform_comb());
    }

    #[test]
    fn comb_plan_multi_slot_gaps() {
        let plan = CombPlan::build(&[2.402e9, 2.404e9, 2.412e9]);
        assert!(plan.is_uniform_comb());
        assert!(!plan.is_dense());
        assert_eq!(plan.gaps, vec![0, 1, 4]);
        assert_eq!(plan.slots, vec![0, 1, 5]);
        assert_eq!(plan.span(), 6);
    }

    #[test]
    fn comb_plan_degenerate_sizes() {
        assert!(!CombPlan::build(&[]).is_uniform_comb());
        let one = CombPlan::build(&[2.44e9]);
        assert!(!one.is_uniform_comb());
        assert_eq!(one.gaps, vec![0]);
        assert_eq!(one.base_hz, 2.44e9);
        // Duplicates of one frequency are degenerate too.
        assert!(!CombPlan::build(&[2.44e9, 2.44e9]).is_uniform_comb());
    }

    /// A randomized likelihood fixture: `cells` cells × `n_ant` antennas
    /// over the BLE comb, with the reference value computed per cell by
    /// naive per-band `cis`.
    struct Fixture {
        sweep_tables: (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>),
        alpha: (Vec<f64>, Vec<f64>),
        n_lanes: usize,
        n_ant: usize,
        gaps: Vec<u32>,
        freqs: Vec<f64>,
        deltas: Vec<f64>,
        base_hz: f64,
        step_hz: f64,
    }

    fn fixture(seed: u64, cells: usize, n_ant: usize, nb: usize) -> Fixture {
        let slots: Vec<u32> = (0..nb as u32).collect();
        fixture_on_slots(seed, cells, n_ant, &slots)
    }

    /// [`fixture`] over the ascending comb slots `slots` (first slot 0);
    /// skipped slots make a non-dense comb the gap walk handles.
    fn fixture_on_slots(seed: u64, cells: usize, n_ant: usize, slots: &[u32]) -> Fixture {
        let nb = slots.len();
        let n_lanes = n_ant.div_ceil(4) * 4;
        let base_hz = 2.402e9;
        let step_hz = 2e6;
        let freqs: Vec<f64> = slots
            .iter()
            .map(|&k| base_hz + step_hz * f64::from(k))
            .collect();
        let gaps: Vec<u32> = (0..nb)
            .map(|k| if k == 0 { 0 } else { slots[k] - slots[k - 1] })
            .collect();
        let tau_over_c = std::f64::consts::TAU / 299_792_458.0;
        let mut deltas = vec![0.0; cells * n_lanes];
        let (mut sre, mut sim) = (vec![1.0; cells * n_lanes], vec![0.0; cells * n_lanes]);
        let (mut tre, mut tim) = (vec![1.0; cells * n_lanes], vec![0.0; cells * n_lanes]);
        for c in 0..cells {
            for j in 0..n_ant {
                let d = rand_unit(seed ^ (c * 131 + j) as u64) * 20.0 - 10.0;
                let k = c * n_lanes + j;
                deltas[k] = d;
                let seed_p = C64::cis(tau_over_c * d * base_hz);
                let step_p = C64::cis(tau_over_c * d * step_hz);
                sre[k] = seed_p.re;
                sim[k] = seed_p.im;
                tre[k] = step_p.re;
                tim[k] = step_p.im;
            }
        }
        let mut are = vec![0.0; nb * n_lanes];
        let mut aim = vec![0.0; nb * n_lanes];
        for s in 0..nb {
            for j in 0..n_ant {
                are[s * n_lanes + j] = rand_unit(seed ^ (s * 977 + j + 3) as u64) * 2.0 - 1.0;
                aim[s * n_lanes + j] = rand_unit(seed ^ (s * 977 + j + 71) as u64) * 2.0 - 1.0;
            }
        }
        Fixture {
            sweep_tables: (sre, sim, tre, tim),
            alpha: (are, aim),
            n_lanes,
            n_ant,
            gaps,
            freqs,
            deltas,
            base_hz,
            step_hz,
        }
    }

    impl Fixture {
        fn cell_sweep(&self) -> CellSweep<'_> {
            CellSweep {
                seed_re: &self.sweep_tables.0,
                seed_im: &self.sweep_tables.1,
                step_re: &self.sweep_tables.2,
                step_im: &self.sweep_tables.3,
                alpha_re: &self.alpha.0,
                alpha_im: &self.alpha.1,
                n_lanes: self.n_lanes,
                gaps: &self.gaps,
            }
        }

        /// Naive per-(cell, antenna, band) `cis` reference.
        fn reference(&self, combine: Combine, cell: usize) -> f64 {
            let tau_over_c = std::f64::consts::TAU / 299_792_458.0;
            let mut coh = complex::ZERO;
            let mut non = 0.0;
            for j in 0..self.n_ant {
                let d = self.deltas[cell * self.n_lanes + j];
                let mut acc = complex::ZERO;
                for (s, &f) in self.freqs.iter().enumerate() {
                    let a = C64::new(
                        self.alpha.0[s * self.n_lanes + j],
                        self.alpha.1[s * self.n_lanes + j],
                    );
                    acc += a * C64::cis(tau_over_c * d * f);
                }
                coh += acc;
                non += acc.abs();
            }
            match combine {
                Combine::Coherent => coh.abs(),
                Combine::Noncoherent => non,
                Combine::Hybrid => coh.abs() + 0.5 * non,
            }
        }
    }

    #[test]
    fn comb_cells_match_reference_for_all_combinings() {
        let fx = fixture(11, 40, 4, 37);
        let sweep = fx.cell_sweep();
        for combine in [Combine::Coherent, Combine::Noncoherent, Combine::Hybrid] {
            let mut out = vec![0.0; 40];
            write_comb_cells(&sweep, combine, 0, &mut out);
            for (cell, &got) in out.iter().enumerate() {
                let want = fx.reference(combine, cell);
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "cell {cell} {combine:?}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn comb_cells_handle_non_multiple_of_four_antennas() {
        for n_ant in [1, 2, 3, 5, 6] {
            let fx = fixture(n_ant as u64 * 7 + 1, 12, n_ant, 21);
            let mut out = vec![0.0; 12];
            write_comb_cells(&fx.cell_sweep(), Combine::Hybrid, 0, &mut out);
            for (cell, &got) in out.iter().enumerate() {
                let want = fx.reference(Combine::Hybrid, cell);
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "n_ant {n_ant} cell {cell}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn dispatch_paths_are_bit_identical() {
        let levels = levels_to_test();
        let fx = fixture(23, 64, 4, 37);
        let mut reference: Option<Vec<u64>> = None;
        for &level in &levels {
            let mut out = vec![0.0; 64];
            write_comb_cells_at(level, &fx.cell_sweep(), Combine::Hybrid, 0, &mut out);
            let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(want) => assert_eq!(&bits, want, "level {level:?} diverged"),
            }
        }
    }

    #[test]
    fn avx512_cell_pairs_are_bit_identical_to_scalar() {
        // The two-cell AVX-512 path splits a call into cell pairs plus an
        // odd tail cell, loads a pair's lanes with stride `n_lanes`, and
        // broadcasts each channel-weight row into both cells. Every shape
        // that exercises one of those steps must match Scalar bit for bit
        // on every level this host runs.
        let levels = levels_to_test();
        if !levels.iter().any(|l| l.0 == Level::Avx512) {
            println!("skipped (no avx512f)");
        }
        let dense: Vec<u32> = (0..37).collect();
        // Dropped bands: a uniform comb with multi-slot gaps.
        let gapped: Vec<u32> = vec![0, 1, 2, 5, 6, 7, 8, 12, 13, 15, 16, 17, 20, 21, 30, 31, 32];
        let cases = [
            ("dense, 4 antennas", fixture_on_slots(41, 24, 4, &dense)),
            (
                "dense, 5 antennas (n_lanes 8)",
                fixture_on_slots(43, 24, 5, &dense),
            ),
            (
                "dense, 8 antennas (n_lanes 8)",
                fixture_on_slots(47, 24, 8, &dense),
            ),
            (
                "dense, odd band count",
                fixture_on_slots(53, 24, 4, &dense[..20]),
            ),
            ("gap comb, 4 antennas", fixture_on_slots(59, 24, 4, &gapped)),
            (
                "gap comb, 7 antennas (n_lanes 8)",
                fixture_on_slots(61, 24, 7, &gapped),
            ),
        ];
        // (first_cell, cells): even and odd counts from even and odd
        // starts, the whole range, and every one-cell segment.
        let mut ranges = vec![(0, 24), (0, 23), (1, 23), (3, 8), (5, 7), (2, 1)];
        ranges.extend((0..24).map(|c| (c, 1)));
        for (name, fx) in &cases {
            let sweep = fx.cell_sweep();
            for combine in [Combine::Coherent, Combine::Noncoherent, Combine::Hybrid] {
                for &(first, n) in &ranges {
                    let mut want = vec![0.0; n];
                    write_comb_cells_at(levels[0], &sweep, combine, first, &mut want);
                    for &level in &levels[1..] {
                        let mut got = vec![0.0; n];
                        write_comb_cells_at(level, &sweep, combine, first, &mut got);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{name}, {combine:?}, cells {first}..{}: {level:?}",
                            first + n
                        );
                    }
                }
            }
            // The reference pins the values themselves, not just agreement.
            let mut out = vec![0.0; 24];
            write_comb_cells(&sweep, Combine::Hybrid, 0, &mut out);
            for (cell, &got) in out.iter().enumerate() {
                let want = fx.reference(Combine::Hybrid, cell);
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "{name} cell {cell}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn offcomb_cells_match_reference() {
        let fx = fixture(31, 20, 4, 15);
        let off = OffCombSweep {
            delta: &fx.deltas,
            alpha_re: &fx.alpha.0,
            alpha_im: &fx.alpha.1,
            n_lanes: fx.n_lanes,
            freqs: &fx.freqs,
            phase_per_hz: std::f64::consts::TAU / 299_792_458.0,
        };
        let mut out = vec![0.0; 20];
        write_offcomb_cells(&off, Combine::Hybrid, 0, &mut out);
        for (cell, &got) in out.iter().enumerate() {
            let want = fx.reference(Combine::Hybrid, cell);
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "cell {cell}: {got} vs {want}"
            );
        }
        let _ = fx.base_hz + fx.step_hz; // fields exercised elsewhere
    }

    fn tone_reference(
        lengths: &[f64],
        gains: &[C64],
        freqs: &[f64],
        tone: f64,
        w_per_m: f64,
    ) -> Vec<[C64; 2]> {
        freqs
            .iter()
            .map(|&f| {
                let mut lo = complex::ZERO;
                let mut hi = complex::ZERO;
                for (&len, &g) in lengths.iter().zip(gains) {
                    lo += g * C64::cis(w_per_m * len * (f - tone));
                    hi += g * C64::cis(w_per_m * len * (f + tone));
                }
                [lo, hi]
            })
            .collect()
    }

    fn tone_fixture(seed: u64, n_paths: usize) -> (Vec<f64>, Vec<C64>) {
        let lengths: Vec<f64> = (0..n_paths)
            .map(|p| 1.0 + rand_unit(seed ^ p as u64) * 30.0)
            .collect();
        let gains: Vec<C64> = (0..n_paths)
            .map(|p| {
                C64::new(
                    rand_unit(seed ^ (p + 100) as u64) * 2.0 - 1.0,
                    rand_unit(seed ^ (p + 200) as u64) * 2.0 - 1.0,
                )
            })
            .collect();
        (lengths, gains)
    }

    #[test]
    fn tone_sweep_matches_per_band_cis() {
        let (lengths, gains) = tone_fixture(5, 24);
        // Sounding order shuffled, with a duplicate channel.
        let freqs = [2.426e9, 2.402e9, 2.480e9, 2.402e9, 2.404e9];
        let plan = CombPlan::build(&freqs);
        assert!(plan.is_uniform_comb());
        let w = -std::f64::consts::TAU / 299_792_458.0;
        let mut scratch = ToneSweepScratch::new();
        let mut out = vec![[complex::ZERO; 2]; freqs.len()];
        sweep_tones_into(&plan, 250e3, w, &lengths, &gains, &mut scratch, &mut out);
        let want = tone_reference(&lengths, &gains, &freqs, 250e3, w);
        let scale: f64 = want
            .iter()
            .flatten()
            .map(|h| h.abs())
            .fold(f64::MIN_POSITIVE, f64::max);
        for (k, (got, want)) in out.iter().zip(&want).enumerate() {
            for t in 0..2 {
                assert!(
                    (got[t] - want[t]).abs() <= 1e-12 * scale,
                    "band {k} tone {t}: {:?} vs {:?}",
                    got[t],
                    want[t]
                );
            }
        }
        assert_eq!(out[1], out[3], "duplicate channels get identical sweeps");
    }

    #[test]
    fn tone_sweep_off_comb_and_degenerate_fall_back() {
        let (lengths, gains) = tone_fixture(9, 7);
        let w = -std::f64::consts::TAU / 299_792_458.0;
        for freqs in [
            vec![2.402e9, 2.402e9 + 1.37e6, 2.402e9 + 3.91e6],
            vec![],
            vec![2.44e9],
            vec![2.44e9, 2.44e9],
        ] {
            let plan = CombPlan::build(&freqs);
            let mut scratch = ToneSweepScratch::new();
            let mut out = vec![[complex::ZERO; 2]; freqs.len()];
            sweep_tones_into(&plan, 250e3, w, &lengths, &gains, &mut scratch, &mut out);
            let want = tone_reference(&lengths, &gains, &freqs, 250e3, w);
            for (k, (got, want)) in out.iter().zip(&want).enumerate() {
                for t in 0..2 {
                    assert!(
                        (got[t] - want[t]).abs() <= 1e-9 * want[t].abs().max(1e-12),
                        "band {k} tone {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn tone_sweep_sparse_comb_uses_gap_walk_and_matches() {
        let (lengths, gains) = tone_fixture(13, 11);
        // Uniform 2 MHz comb but very sparse: span ≫ 4 × bands.
        let freqs = [2.402e9, 2.404e9, 2.480e9];
        let plan = CombPlan::build(&freqs);
        assert!(plan.is_uniform_comb());
        assert!(plan.span() > DENSE_SPAN_FACTOR * plan.n_bands());
        let w = -std::f64::consts::TAU / 299_792_458.0;
        let mut scratch = ToneSweepScratch::new();
        let mut out = vec![[complex::ZERO; 2]; freqs.len()];
        sweep_tones_into(&plan, 250e3, w, &lengths, &gains, &mut scratch, &mut out);
        let want = tone_reference(&lengths, &gains, &freqs, 250e3, w);
        for (k, (got, want)) in out.iter().zip(&want).enumerate() {
            for t in 0..2 {
                assert!(
                    (got[t] - want[t]).abs() <= 1e-12 * want[t].abs().max(1e-12),
                    "band {k} tone {t}"
                );
            }
        }
    }

    #[test]
    fn tone_sweep_dispatch_paths_are_bit_identical() {
        let (lengths, gains) = tone_fixture(17, 40);
        let freqs: Vec<f64> = (0..37).map(|k| 2.402e9 + 2e6 * k as f64).collect();
        let plan = CombPlan::build(&freqs);
        let w = -std::f64::consts::TAU / 299_792_458.0;
        let mut reference: Option<Vec<[C64; 2]>> = None;
        for &level in &levels_to_test() {
            let mut scratch = ToneSweepScratch::new();
            let mut out = vec![[complex::ZERO; 2]; freqs.len()];
            sweep_tones_into_at(
                level,
                &plan,
                250e3,
                w,
                &lengths,
                &gains,
                &mut scratch,
                &mut out,
            );
            match &reference {
                None => reference = Some(out),
                Some(want) => {
                    for (k, (got, want)) in out.iter().zip(want).enumerate() {
                        for t in 0..2 {
                            assert_eq!(
                                got[t].re.to_bits(),
                                want[t].re.to_bits(),
                                "band {k} tone {t} re ({level:?})"
                            );
                            assert_eq!(
                                got[t].im.to_bits(),
                                want[t].im.to_bits(),
                                "band {k} tone {t} im ({level:?})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tone_scratch_reuses_buffers() {
        let (lengths, gains) = tone_fixture(21, 5);
        let freqs: Vec<f64> = (0..37).map(|k| 2.402e9 + 2e6 * k as f64).collect();
        let plan = CombPlan::build(&freqs);
        let w = -std::f64::consts::TAU / 299_792_458.0;
        let mut scratch = ToneSweepScratch::new();
        let mut out = vec![[complex::ZERO; 2]; freqs.len()];
        sweep_tones_into(&plan, 250e3, w, &lengths, &gains, &mut scratch, &mut out);
        let cap = scratch.lo_re.capacity();
        let first = out.clone();
        sweep_tones_into(&plan, 250e3, w, &lengths, &gains, &mut scratch, &mut out);
        assert_eq!(scratch.lo_re.capacity(), cap, "warm sweep must not regrow");
        assert_eq!(out, first, "repeat sweep is bit-identical");
    }
}
