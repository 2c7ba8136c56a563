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
//! * [`write_comb_cells_batch`] (and [`write_comb_cells`], its batch of
//!   one) — the likelihood recurrence: SIMD lanes are **antenna rotation
//!   chains** of one (cell, anchor) pair; each cell reduces to the Eq. 17
//!   coherent/non-coherent combining value. On the AVX-512 level one
//!   vector carries **two consecutive cells** × 4 antenna lanes (the
//!   channel-weight rows broadcast into both halves); an odd last cell
//!   runs the one-cell AVX2 instantiation. A chain `seed·stepᵏ` depends
//!   only on the geometry and the comb, never on the tag, so one call
//!   sweeps up to [`MAX_TAGS`] tags of one deployment: the chain (two
//!   interleaved rotations and `step²`) is advanced once and shared, and
//!   each tag keeps its own even/odd accumulators fed by its own channel
//!   weights. The kernel runs on fused multiply-add: a band's complex
//!   multiply-accumulate is four fused ops (not four multiplies and four
//!   adds) and a chain step two multiplies and two fused ops (not four
//!   multiplies and two adds). Per band a batch saves the chain step — 4
//!   of the 8 vector ops of a one-tag sweep — for every tag after the
//!   first.
//!   Each tag's accumulators see exactly the IEEE operations of a sweep of
//!   its own, so a batched tag is bit-identical to a single one; the
//!   batch size is a const generic, and the one-tag entry points are the
//!   `T = 1` instantiation of the same body.
//! * [`sweep_tones_into`] — the synthesis recurrence: SIMD lanes are
//!   **four consecutive comb slots** of one propagation path; all paths
//!   accumulate into a dense slot buffer that is scattered back to
//!   sounding order. It stays 4 lanes wide on the AVX-512 level too: an
//!   8-slot body would advance each path by `step⁸` instead of `step⁴`,
//!   a different rounding chain, and so change the sounding's bits. For
//!   the same reason it stays unfused (`Cx::mul` then `Cx::add`).
//!
//! Each kernel is one generic body instantiated for every [`simd`] vector
//! implementation it runs on and runtime-dispatched ([`simd::cell_level`]
//! for the cell kernel, [`simd::active_level`] for the tone kernel), so
//! the scalar fallback, the AVX2 path and the AVX-512 path are
//! bit-identical by construction: every op, fused ones included, is one
//! correctly rounded IEEE-754 operation. Off-comb band sets
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

/// Most tags one cell-kernel call sweeps together.
///
/// A cell's rotation chain `seed·stepᵏ` depends only on the geometry and
/// the comb, never on the tag; only the channel weights `α` are per tag.
/// A batch therefore advances each chain once and feeds it to every
/// tag's accumulators. Four tags fit AVX-512's 32 vector registers: 16
/// accumulators (even/odd × re/im per tag) plus the 6-register shared
/// chain (`rot_e`, `rot_o`, `step²`). Eight tags gain little over four
/// and double the batch's map heap.
pub const MAX_TAGS: usize = 4;

/// Borrowed inputs for the likelihood cell kernel: one anchor's steering
/// phasors (cell-major) and channel weights (slot-major), both padded to
/// `n_lanes` (a multiple of 4) with neutral lanes — weight 0, phasor 1 —
/// so padding contributes exact zeros.
///
/// A batch ([`write_comb_cells_batch`]) is one of these per tag, all
/// sharing the same steering tables, lane stride and comb walk; only the
/// weights differ.
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

/// One tag's channel weights `(re, im)`, each cut to the same length so
/// the bounds checks of every tag's row loads fold into one.
type Weights<'a> = (&'a [f64], &'a [f64]);

/// The channel-weight row starting at `at`, broadcast into every cell of
/// the vector.
#[inline(always)]
fn alpha_row<V: CellLanes>(w: &Weights<'_>, at: usize) -> Cx<V> {
    Cx {
        re: V::load_row(&w.0[at..]),
        im: V::load_row(&w.1[at..]),
    }
}

/// One lane block of `V::CELLS` cells over a dense comb (every gap after
/// the first is one slot), for each of `T` tags: two interleaved rotation
/// chains advanced by `step²` halve the serial complex-multiply latency
/// the pipeline must hide, and every tag's even/odd accumulators read the
/// same chains.
#[inline(always)]
fn dense_block<V: CellLanes, const T: usize>(
    seed: Cx<V>,
    step: Cx<V>,
    tags: &[Weights<'_>; T],
    n_lanes: usize,
    lane0: usize,
    n_bands: usize,
) -> [Cx<V>; T] {
    let step2 = step.rotate(step);
    let mut rot_e = seed; // bands 0, 2, 4, …
    let mut rot_o = seed.rotate(step); // bands 1, 3, 5, …
    let mut acc_e = [Cx::<V>::zero(); T];
    let mut acc_o = [Cx::<V>::zero(); T];
    let pairs = n_bands / 2;
    for p in 0..pairs {
        let e = (2 * p) * n_lanes + lane0;
        let o = e + n_lanes;
        for t in 0..T {
            acc_e[t] = alpha_row::<V>(&tags[t], e).mul_add(rot_e, acc_e[t]);
            acc_o[t] = alpha_row::<V>(&tags[t], o).mul_add(rot_o, acc_o[t]);
        }
        rot_e = rot_e.rotate(step2);
        rot_o = rot_o.rotate(step2);
    }
    if n_bands % 2 == 1 {
        let s = (n_bands - 1) * n_lanes + lane0;
        for t in 0..T {
            acc_e[t] = alpha_row::<V>(&tags[t], s).mul_add(rot_e, acc_e[t]);
        }
    }
    std::array::from_fn(|t| acc_e[t].add(acc_o[t]))
}

/// One lane block of `V::CELLS` cells over a general uniform comb, for
/// each of `T` tags: one shared rotation chain, `gaps[k]` step multiplies
/// per band.
#[inline(always)]
fn gap_block<V: CellLanes, const T: usize>(
    seed: Cx<V>,
    step: Cx<V>,
    tags: &[Weights<'_>; T],
    n_lanes: usize,
    lane0: usize,
    gaps: &[u32],
) -> [Cx<V>; T] {
    let mut rot = seed;
    let mut acc = [Cx::<V>::zero(); T];
    for (slot, &gap) in gaps.iter().enumerate() {
        for _ in 0..gap {
            rot = rot.rotate(step);
        }
        let s = slot * n_lanes + lane0;
        for t in 0..T {
            acc[t] = alpha_row::<V>(&tags[t], s).mul_add(rot, acc[t]);
        }
    }
    acc
}

/// The Eq. 17 cell kernel for `T` tags, `V::CELLS` consecutive cells per
/// vector: writes `outs[t][k]` for every `k` in `range` (whose length
/// must be a multiple of `V::CELLS`), cell `first_cell + k`. The steering
/// tables and comb walk are `tags[0]`'s, shared by every tag.
#[inline(always)]
fn comb_cells_body<V: CellLanes, const T: usize>(
    tags: &[CellSweep<'_>; T],
    combine: Combine,
    first_cell: usize,
    outs: &mut [&mut [f64]; T],
    range: std::ops::Range<usize>,
) {
    debug_assert_eq!(range.len() % V::CELLS, 0);
    let s = &tags[0];
    let nl = s.n_lanes;
    let nb = s.gaps.len();
    let dense = s.gaps.first() == Some(&0) && s.gaps[1..].iter().all(|&g| g == 1);
    let weights: [Weights<'_>; T] =
        std::array::from_fn(|t| (&tags[t].alpha_re[..nb * nl], &tags[t].alpha_im[..nb * nl]));
    let add_cells = |acc: &mut V::Sums, sums: V::Sums| {
        for (a, v) in acc.as_mut().iter_mut().zip(sums.as_ref()) {
            *a += v;
        }
    };
    for k in range.step_by(V::CELLS) {
        let cell = first_cell + k;
        let mut coh_re = [V::Sums::default(); T];
        let mut coh_im = [V::Sums::default(); T];
        let mut non = [V::Sums::default(); T];
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
                dense_block::<V, T>(seed, step, &weights, nl, lane0, nb)
            } else {
                gap_block::<V, T>(seed, step, &weights, nl, lane0, s.gaps)
            };
            for t in 0..T {
                add_cells(&mut coh_re[t], acc[t].re.hsum_cells());
                add_cells(&mut coh_im[t], acc[t].im.hsum_cells());
                add_cells(&mut non[t], acc[t].abs().hsum_cells());
            }
        }
        for t in 0..T {
            for c in 0..V::CELLS {
                outs[t][k + c] = combine_value(
                    combine,
                    coh_re[t].as_ref()[c],
                    coh_im[t].as_ref()[c],
                    non[t].as_ref()[c],
                );
            }
        }
    }
}

/// The portable twin: on a CPU without FMA hardware each fused op is a
/// correctly rounded libm `fma` call — slow, but bit-identical.
fn comb_cells_scalar<const T: usize>(
    tags: &[CellSweep<'_>; T],
    combine: Combine,
    first_cell: usize,
    outs: &mut [&mut [f64]; T],
) {
    let n = outs[0].len();
    comb_cells_body::<ScalarX4, T>(tags, combine, first_cell, outs, 0..n);
}

/// The scalar level on a CPU with FMA: the same body compiled so each
/// `f64::mul_add` is one `vfmadd` instruction rather than a libm call.
/// (`fma` implies AVX, so the compiler may also vectorize the four lanes;
/// every lane still runs the same correctly rounded ops.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
fn comb_cells_scalar_fma<const T: usize>(
    tags: &[CellSweep<'_>; T],
    combine: Combine,
    first_cell: usize,
    outs: &mut [&mut [f64]; T],
) {
    let n = outs[0].len();
    comb_cells_body::<ScalarX4, T>(tags, combine, first_cell, outs, 0..n);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn comb_cells_avx2<const T: usize>(
    tags: &[CellSweep<'_>; T],
    combine: Combine,
    first_cell: usize,
    outs: &mut [&mut [f64]; T],
) {
    let n = outs[0].len();
    comb_cells_body::<simd::AvxX4, T>(tags, combine, first_cell, outs, 0..n);
}

/// Whole cell pairs on the two-cell AVX-512 vector; an odd last cell on
/// the one-cell AVX2 instantiation of the same body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn comb_cells_avx512<const T: usize>(
    tags: &[CellSweep<'_>; T],
    combine: Combine,
    first_cell: usize,
    outs: &mut [&mut [f64]; T],
) {
    let n = outs[0].len();
    let paired = n - n % simd::Avx512X8::CELLS;
    comb_cells_body::<simd::Avx512X8, T>(tags, combine, first_cell, outs, 0..paired);
    comb_cells_body::<simd::AvxX4, T>(tags, combine, first_cell, outs, paired..n);
}

/// The `T`-tag kernel on `level`.
#[allow(unsafe_code)]
fn comb_cells_at<const T: usize>(
    level: SimdLevel,
    tags: &[CellSweep<'_>],
    combine: Combine,
    first_cell: usize,
    outs: &mut [&mut [f64]],
) {
    let (Ok(tags), Ok(outs)) = (
        <&[CellSweep<'_>; T]>::try_from(tags),
        <&mut [&mut [f64]; T]>::try_from(outs),
    ) else {
        unreachable!("the caller matched the batch size");
    };
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `has_fma` just detected the `fma` feature.
        Level::Scalar if simd::has_fma() => unsafe {
            comb_cells_scalar_fma(tags, combine, first_cell, outs)
        },
        Level::Scalar => comb_cells_scalar(tags, combine, first_cell, outs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the AVX2 level only comes from `simd::host_levels`,
        // which constructs it behind `avx2` and `fma` detection.
        Level::Avx2 => unsafe { comb_cells_avx2(tags, combine, first_cell, outs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the AVX-512 level only comes from `simd::host_levels`,
        // which constructs it behind `avx512f`, `avx2` and `fma` detection.
        Level::Avx512 => unsafe { comb_cells_avx512(tags, combine, first_cell, outs) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 | Level::Avx512 => comb_cells_scalar(tags, combine, first_cell, outs),
    }
}

/// [`write_comb_cells_batch`] on an explicit vector level — what the
/// dispatch-equivalence tests drive so they never mutate process state.
/// Sound for any `level` safe code can hold: levels only come from CPU
/// detection ([`simd::host_levels`]).
pub fn write_comb_cells_batch_at(
    level: SimdLevel,
    tags: &[CellSweep<'_>],
    combine: Combine,
    first_cell: usize,
    outs: &mut [&mut [f64]],
) {
    assert!(
        (1..=MAX_TAGS).contains(&tags.len()),
        "a batch holds 1..=MAX_TAGS tags"
    );
    assert_eq!(outs.len(), tags.len(), "one output per tag");
    let s = &tags[0];
    let n = outs[0].len();
    assert!(
        outs.iter().all(|o| o.len() == n),
        "every tag's output covers the same cells"
    );
    assert!(
        s.n_lanes >= 4 && s.n_lanes.is_multiple_of(4),
        "lane stride must be a positive multiple of 4"
    );
    let needed = (first_cell + n) * s.n_lanes;
    assert!(
        s.seed_re.len() >= needed
            && s.seed_im.len() >= needed
            && s.step_re.len() >= needed
            && s.step_im.len() >= needed,
        "steering tables shorter than the requested cell range"
    );
    let alpha_needed = s.gaps.len() * s.n_lanes;
    for t in tags {
        assert!(
            std::ptr::eq(t.seed_re, s.seed_re)
                && std::ptr::eq(t.seed_im, s.seed_im)
                && std::ptr::eq(t.step_re, s.step_re)
                && std::ptr::eq(t.step_im, s.step_im)
                && t.n_lanes == s.n_lanes
                && t.gaps == s.gaps,
            "a batch shares one set of steering tables and one comb walk"
        );
        assert!(t.alpha_re.len() >= alpha_needed && t.alpha_im.len() >= alpha_needed);
    }
    match tags.len() {
        1 => comb_cells_at::<1>(level, tags, combine, first_cell, outs),
        2 => comb_cells_at::<2>(level, tags, combine, first_cell, outs),
        3 => comb_cells_at::<3>(level, tags, combine, first_cell, outs),
        _ => comb_cells_at::<MAX_TAGS>(level, tags, combine, first_cell, outs),
    }
}

/// Evaluates the Eq. 17 recurrence for cells `first_cell ..
/// first_cell + n` of one anchor map for up to [`MAX_TAGS`] tags at once,
/// writing tag `t`'s combined values into `outs[t]` (each `n` long).
/// Every tag's values are bit-identical to a [`write_comb_cells`] call
/// of its own: its accumulators see the same IEEE operations in the same
/// order, and the shared rotation chain is the same sequence whoever
/// reads it. The vector path is chosen once per call via
/// [`simd::cell_level`].
pub fn write_comb_cells_batch(
    tags: &[CellSweep<'_>],
    combine: Combine,
    first_cell: usize,
    outs: &mut [&mut [f64]],
) {
    write_comb_cells_batch_at(simd::cell_level(), tags, combine, first_cell, outs);
}

/// [`write_comb_cells`] on an explicit vector level: the batch of one.
pub fn write_comb_cells_at(
    level: SimdLevel,
    s: &CellSweep<'_>,
    combine: Combine,
    first_cell: usize,
    out: &mut [f64],
) {
    write_comb_cells_batch_at(
        level,
        std::slice::from_ref(s),
        combine,
        first_cell,
        &mut [out],
    );
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
        Fixture {
            sweep_tables: (sre, sim, tre, tim),
            alpha: random_alpha(seed, nb, n_ant, n_lanes),
            n_lanes,
            n_ant,
            gaps,
            freqs,
            deltas,
            base_hz,
            step_hz,
        }
    }

    /// Random channel weights `(re, im)` for `nb` bands × `n_ant`
    /// antennas, padding lanes zero.
    fn random_alpha(seed: u64, nb: usize, n_ant: usize, n_lanes: usize) -> (Vec<f64>, Vec<f64>) {
        let mut are = vec![0.0; nb * n_lanes];
        let mut aim = vec![0.0; nb * n_lanes];
        for s in 0..nb {
            for j in 0..n_ant {
                are[s * n_lanes + j] = rand_unit(seed ^ (s * 977 + j + 3) as u64) * 2.0 - 1.0;
                aim[s * n_lanes + j] = rand_unit(seed ^ (s * 977 + j + 71) as u64) * 2.0 - 1.0;
            }
        }
        (are, aim)
    }

    impl Fixture {
        fn cell_sweep(&self) -> CellSweep<'_> {
            self.tag_sweep(&self.alpha)
        }

        /// Another tag's channel weights over this fixture's comb and
        /// lanes.
        fn tag_alpha(&self, seed: u64) -> (Vec<f64>, Vec<f64>) {
            random_alpha(seed, self.gaps.len(), self.n_ant, self.n_lanes)
        }

        /// The sweep of a tag with weights `alpha` over this fixture's
        /// steering tables — what every tag of a batch shares.
        fn tag_sweep<'a>(&'a self, alpha: &'a (Vec<f64>, Vec<f64>)) -> CellSweep<'a> {
            CellSweep {
                seed_re: &self.sweep_tables.0,
                seed_im: &self.sweep_tables.1,
                step_re: &self.sweep_tables.2,
                step_im: &self.sweep_tables.3,
                alpha_re: &alpha.0,
                alpha_im: &alpha.1,
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
    fn tag_batches_are_bit_identical_to_single_tags() {
        // Every tag of a batch must read exactly its own single-tag
        // values, on every level this host runs, for every batch size:
        // dense and gap combs, 4/5/8 antennas (lane strides 4 and 8),
        // even and odd cell counts from even and odd starts, all three
        // combinings.
        let levels = levels_to_test();
        let dense: Vec<u32> = (0..37).collect();
        let gapped: Vec<u32> = vec![0, 1, 2, 5, 6, 7, 8, 12, 13, 15, 16, 17, 20, 21, 30, 31, 32];
        let ranges = [(0, 24), (0, 23), (1, 23), (3, 8), (5, 7), (2, 1)];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (k, (slots, n_ant)) in [(&dense, 4), (&dense, 5), (&dense, 8)]
            .into_iter()
            .chain([(&gapped, 4), (&gapped, 5), (&gapped, 8)])
            .enumerate()
        {
            let fx = fixture_on_slots(71 + k as u64, 24, n_ant, slots);
            let alphas: Vec<_> = (0..MAX_TAGS as u64)
                .map(|t| fx.tag_alpha(1000 * (k as u64 + 1) + t))
                .collect();
            let tags: Vec<CellSweep<'_>> = alphas.iter().map(|a| fx.tag_sweep(a)).collect();
            for combine in [Combine::Coherent, Combine::Noncoherent, Combine::Hybrid] {
                for &(first, n) in &ranges {
                    let single = |level: SimdLevel, tag: &CellSweep<'_>| {
                        let mut out = vec![0.0; n];
                        write_comb_cells_at(level, tag, combine, first, &mut out);
                        bits(&out)
                    };
                    let scalar: Vec<_> = tags.iter().map(|t| single(levels[0], t)).collect();
                    for &level in &levels {
                        let at_level: Vec<_> = tags.iter().map(|t| single(level, t)).collect();
                        assert_eq!(at_level, scalar, "single tags at {level:?}");
                        for size in 1..=MAX_TAGS {
                            let mut outs = vec![vec![0.0; n]; size];
                            let mut views: Vec<&mut [f64]> =
                                outs.iter_mut().map(|o| o.as_mut_slice()).collect();
                            write_comb_cells_batch_at(
                                level,
                                &tags[..size],
                                combine,
                                first,
                                &mut views,
                            );
                            for (t, out) in outs.iter().enumerate() {
                                assert_eq!(
                                    bits(out),
                                    scalar[t],
                                    "{n_ant} antennas, slots {slots:?}, {combine:?}, \
                                     cells {first}..{}, {level:?}: tag {t} of {size}",
                                    first + n
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shares one set of steering tables")]
    fn batches_refuse_tags_on_different_tables() {
        let (a, b) = (fixture(5, 8, 4, 37), fixture(6, 8, 4, 37));
        let mut outs = [vec![0.0; 8], vec![0.0; 8]];
        let [x, y] = &mut outs;
        write_comb_cells_batch(
            &[a.cell_sweep(), b.cell_sweep()],
            Combine::Hybrid,
            0,
            &mut [x.as_mut_slice(), y.as_mut_slice()],
        );
    }

    #[test]
    fn scalar_twins_are_bit_identical() {
        // The scalar level runs the `fma`-compiled twin where the CPU has
        // FMA; the portable twin, whose fused ops are libm `fma` calls,
        // must give the same bits — one correctly rounded op either way.
        let dense: Vec<u32> = (0..37).collect();
        let gapped: Vec<u32> = vec![0, 1, 2, 5, 6, 7, 8, 12, 13, 15, 16, 17, 20, 21, 30, 31, 32];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (k, slots) in [&dense, &gapped].into_iter().enumerate() {
            let fx = fixture_on_slots(89 + k as u64, 9, 5, slots);
            let alphas: Vec<_> = (0..MAX_TAGS as u64)
                .map(|t| fx.tag_alpha(500 + t))
                .collect();
            let tags: [CellSweep<'_>; MAX_TAGS] = std::array::from_fn(|t| fx.tag_sweep(&alphas[t]));
            for combine in [Combine::Coherent, Combine::Noncoherent, Combine::Hybrid] {
                let mut portable = vec![vec![0.0; 8]; MAX_TAGS];
                let mut views: Vec<&mut [f64]> =
                    portable.iter_mut().map(|o| o.as_mut_slice()).collect();
                let Ok(views) = <&mut [&mut [f64]; MAX_TAGS]>::try_from(views.as_mut_slice())
                else {
                    unreachable!("one view per tag");
                };
                comb_cells_scalar(&tags, combine, 1, views);
                for (t, tag) in tags.iter().enumerate() {
                    let mut dispatched = vec![0.0; 8];
                    write_comb_cells_at(levels_to_test()[0], tag, combine, 1, &mut dispatched);
                    assert_eq!(bits(&dispatched), bits(&portable[t]), "{combine:?} tag {t}");
                }
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
