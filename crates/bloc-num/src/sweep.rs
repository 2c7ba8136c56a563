//! The phasor-sum kernels of the workspace: the likelihood engine's
//! (`bloc-core`, paper Eq. 17) and the channel-synthesis engine's
//! (`bloc-chan`, paper Eq. 2). Both sum phasors whose phase is **linear
//! in frequency** (`φ(f) = w·f` with `w = ±2πd/c`), and both run on one
//! primitive: the **envelope GEMM** (`Gemm`), a small complex matrix
//! product of a phasor matrix `e^{iw_k·step·m}` (rows `m` on a uniform
//! lattice, one column per "band" `k`: one rotation per band along the
//! rows, re-seeded exactly every 256 rows) with per-lane weights, the
//! accumulators in registers.
//!
//! * The Eq. 17 cell kernel is a **range-profile lookup**. Per antenna,
//!   Eq. 17's band sum `S(Δ) = Σ_k α_k e^{iω_kΔ}` (`ω_k = 2πf_k/c`)
//!   depends on the cell only through the Eq. 14 relative distance `Δ`.
//!   Factored as `S(Δ) = e^{iω_cΔ}·E(Δ)` around the centre `f_c` of the
//!   band span (on a 10 MHz grid, [`ProfilePlan`]), the carrier
//!   `e^{iω_cΔ}` is geometry only — the steering tables cache it per
//!   cell, beside `Δ` — and the
//!   envelope `E(Δ) = Σ_k α_k e^{i(ω_k−ω_c)Δ}` is band-limited to the
//!   half-span, so it varies on a metre scale. Per sounding,
//!   [`build_profiles`] samples `E` and `h·E′` on a lattice of step `h`
//!   over the window's `Δ` range ([`Lattice`]): `E` is the envelope GEMM
//!   (rows are lattice rows, bands are bands, lanes are antennas, each
//!   weighted by its `α`), and the profile's record step adds `h·E′`, a
//!   sixth-order central difference of the `E` samples. Per cell and
//!   antenna,
//!   [`write_profile_cells_batch`] then computes one lattice index and
//!   the four cubic-Hermite weights, gathers `E` and `h·E′` at the two
//!   bracketing rows, and multiplies by the cached carrier; each cell's
//!   lanes reduce in registers and combine on the vector to its Eq. 17
//!   value. `h` is not a setting: it follows from the half-span by the
//!   Hermite remainder bound
//!   `(h·ω_max)⁴/384·Σ|α|` held to [`PROFILE_TOLERANCE`]. The lattice
//!   works for any band set: a comb, a masked sub-comb or off-comb bands.
//!   SIMD lanes are antennas; on the AVX-512 level one vector carries
//!   **two consecutive cells** × 4 antenna lanes, and an odd last cell
//!   runs the one-cell AVX2 instantiation. One call sweeps up to
//!   [`MAX_TAGS`] tags of one deployment and band set: the index, the
//!   weights, the carrier and the phasor matrix are shared, and each tag
//!   gathers from its own profile.
//! * [`sweep_tones`] — Eq. 2 synthesis, the envelope GEMM with the roles
//!   swapped. Every BLE RF channel sits on one 2 MHz grid from 2402 to
//!   2480 MHz, so the rows are the channels' frequency indices (no guard
//!   rows, no record step), the "bands" are a link's propagation paths
//!   (wavenumber `−2π·len/c` per hertz) and the two lanes are the GFSK
//!   tones: each lane weight is the path gain rotated to its phase at
//!   2402 MHz and by ∓250 kHz. Any channel list works — one channel, a
//!   masked set, link-layer order, duplicates.
//!
//! Each kernel is one generic body instantiated for every [`simd`] vector
//! implementation and runtime-dispatched on [`simd::cell_level`], so the
//! scalar fallback, the AVX2 path and the AVX-512 path are bit-identical
//! by construction: every op — fused ones, `floor` and the gathers
//! included — is exact or one correctly rounded IEEE-754 operation, and
//! the GEMM's phasor rotation is the same lane-wise op on every level.

use crate::complex::C64;
use crate::constants::{BLE_CHANNEL_WIDTH_HZ, BLE_GFSK_DEVIATION_HZ, SPEED_OF_LIGHT};
use crate::simd::{self, CellLanes, Cx, Level, ScalarX4, SimdLevel};

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

/// The Hermite remainder a range profile is held to, per unit `Σ|α|`:
/// the lattice step `h` of a band set is the largest with
/// `(h·ω_max)⁴/384 ≤ PROFILE_TOLERANCE`, `ω_max` the largest
/// `|ω_k − ω_c|` — 3.1 cm on the BLE data comb. Per antenna, the
/// cubic-Hermite profile then stays within this fraction of `Σ_k|α_k|`
/// of the exact band sum: the likelihood engine's 1e-9 equivalence
/// budget. The bound is loose; measured errors sit about ten times
/// below it.
pub const PROFILE_TOLERANCE: f64 = 1e-9;

/// The longest lattice step, metres: the step of a band set without
/// span (one frequency), whose envelope is constant.
const MAX_STEP_M: f64 = 1.0;

/// The grid the carrier sits on, hertz. The carrier keys the steering
/// tables, so a sounding that lost an edge band keeps its deployment's
/// tables instead of building another entry (the BLE data comb's span
/// centre, 2441 MHz, and its neighbours all take 2440 MHz); the lattice
/// step then covers the band furthest from the carrier.
const CARRIER_GRID_HZ: f64 = 10e6;

/// Lattice rows per block: the lattice starts and ends on block
/// boundaries, and the profile build computes one block of phasors at a
/// time for every band.
const ROW_BLOCK: usize = 8;

/// Lattice rows per exact phasor seed: the first row block of every
/// seed block of this many rows takes its phasors from `cis` (then
/// seven single-row rotations), and each later row block rotates the
/// previous one by eight rows. So a row's phasors depend on its index
/// alone, never on where a window's lattice starts, and a patch's
/// profile rows equal the dense map's bit for bit. 32 block rotations
/// cost about 32 ulp of phase; a lattice starting mid-block advances up
/// to 31 of them before its first row.
const SEED_ROWS: usize = 256;

/// The range-profile plan of one band set: the carrier, the lattice step
/// and each band's baseband wavenumber.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilePlan {
    /// The carrier `f_c`, hertz: the centre of the band span, on a
    /// 10 MHz grid.
    pub carrier_hz: f64,
    /// The lattice step `h`, metres (see [`PROFILE_TOLERANCE`]).
    pub step_m: f64,
    /// `ω_k − ω_c = 2π(f_k − f_c)/c` per band, in the caller's band
    /// order, radians per metre.
    pub wavenumbers: Vec<f64>,
}

impl ProfilePlan {
    /// Plans the profile of bands with the given centre frequencies (in
    /// their stored order; any order, spacing or count).
    pub fn build(freqs: &[f64]) -> Self {
        let lo = freqs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = freqs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let carrier_hz = if lo <= hi {
            (0.5 * (lo + hi) / CARRIER_GRID_HZ).round() * CARRIER_GRID_HZ
        } else {
            0.0
        };
        let per_hz = std::f64::consts::TAU / SPEED_OF_LIGHT;
        let wavenumbers: Vec<f64> = freqs.iter().map(|&f| per_hz * (f - carrier_hz)).collect();
        let w_max = wavenumbers.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        let step_m = ((384.0 * PROFILE_TOLERANCE).sqrt().sqrt() / w_max).min(MAX_STEP_M);
        Self {
            carrier_hz,
            step_m,
            wavenumbers,
        }
    }

    /// The Hermite remainder bound `(h·ω_max)⁴/384` of this plan, per
    /// unit `Σ|α|`: at most [`PROFILE_TOLERANCE`].
    pub fn remainder_bound(&self) -> f64 {
        let w_max = self.wavenumbers.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        (self.step_m * w_max).powi(4) / 384.0
    }
}

/// The lattice rows one window reads: row `r` samples the profile at
/// `Δ = (first_row + r)·h`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lattice {
    /// The global index of row 0 (an integer, a multiple of the row
    /// block).
    pub first_row: f64,
    /// Rows per antenna lane (a positive multiple of the row block).
    pub rows: usize,
    /// The step `h`, metres.
    pub step_m: f64,
    /// `1/h`: a cell at `Δ` reads rows `⌊Δ·(1/h)⌋` and the next.
    pub inv_step: f64,
}

impl Lattice {
    /// The smallest lattice of step `step_m` whose rows bracket every
    /// finite `Δ` of `deltas`, computing each row index exactly as the
    /// cell kernel does. No `Δ` at all gives one row block at 0.
    pub fn covering(step_m: f64, deltas: impl IntoIterator<Item = f64>) -> Self {
        let inv_step = 1.0 / step_m;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for d in deltas {
            let m = (d * inv_step).floor();
            if m.is_finite() {
                lo = lo.min(m);
                hi = hi.max(m);
            }
        }
        if lo > hi {
            (lo, hi) = (0.0, 0.0);
        }
        let block = ROW_BLOCK as f64;
        let first_row = (lo / block).floor() * block;
        // The top row's cells also read the row above it.
        let rows = ((hi - first_row) as usize + 2).next_multiple_of(ROW_BLOCK);
        Self {
            first_row,
            rows,
            step_m,
            inv_step,
        }
    }

    /// Length of one tag's profile of `n_lanes` lanes over this lattice:
    /// a record of four samples (`E` re/im, `h·E′` re/im) per lane and
    /// row, `profile[4·(lane·rows + row) + sample]`, so the two rows a
    /// cell reads are eight consecutive values.
    pub fn profile_len(&self, n_lanes: usize) -> usize {
        4 * n_lanes * self.rows
    }
}

/// Most tags one cell-kernel call sweeps together.
///
/// A tag batch shares everything but the gathers: the lattice index and
/// the Hermite weights of each (cell, antenna), its cached carrier, and
/// the profile build's phasor matrix. Each tag gathers from its own
/// profile and keeps its own accumulators.
pub const MAX_TAGS: usize = 4;

/// One tag's channel weights `α` for [`build_profiles`], band-major in
/// the plan's band order, padded to `n_lanes` lanes (a multiple of 4)
/// with zeros. The tone sweep fills one internally: its bands are paths
/// and its two lanes the GFSK tones.
#[derive(Debug, Clone, Copy)]
pub struct ProfileWeights<'a> {
    /// `α` real parts, `alpha_re[band·n_lanes + lane]`.
    pub alpha_re: &'a [f64],
    /// `α` imaginary parts, same indexing.
    pub alpha_im: &'a [f64],
    /// Lane stride — antennas rounded up to a multiple of 4.
    pub n_lanes: usize,
}

/// The central-difference weights of `h·E′(Δ_m)` from the envelope
/// samples at rows `m ± 1`, `m ± 2`, `m ± 3` (sixth order). On an
/// envelope band-limited to `ω_max` the truncation error is about
/// `(h·ω_max)⁷/140·Σ|α|` — 4e-14·Σ|α| at [`PROFILE_TOLERANCE`] — so the
/// derivative samples cost a few adds per row instead of a second GEMM.
const DIFF: [f64; 3] = [3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0];

/// Envelope rows computed beyond each end of a lattice, for the
/// central differences of its first and last rows.
const GUARD: usize = ROW_BLOCK;

/// Scratch per band in [`envelope_body`]: the current row block's
/// phasors (eight real parts, eight imaginary), the eight-row rotation
/// and the one-row rotation (real, imaginary each).
const BAND_SCRATCH: usize = 2 * ROW_BLOCK + 4;

/// Writes the phasors of wavenumber `w` at the row block starting at row
/// `m` (a multiple of the row block) and its rotations into `band`: the
/// block rotated from the exact seed block of `m`'s seed row.
#[inline(always)]
fn seed_block<V: CellLanes>(w: f64, step_m: f64, m: f64, band: &mut [f64]) {
    let s = C64::cis(w * step_m);
    let s2 = s * s;
    let s4 = s2 * s2;
    let s8 = s4 * s4;
    band[2 * ROW_BLOCK..].copy_from_slice(&[s8.re, s8.im, s.re, s.im]);
    let seed_row = (m / SEED_ROWS as f64).floor() * SEED_ROWS as f64;
    reseed_block(w, step_m, seed_row, band);
    for _ in 0..((m - seed_row) as usize) / ROW_BLOCK {
        advance_block::<V>(band);
    }
}

/// Writes the exact phasor block at seed row `m` into `band`, from one
/// `cis` and seven one-row rotations.
#[inline(always)]
fn reseed_block(w: f64, step_m: f64, m: f64, band: &mut [f64]) {
    let s = C64::new(band[2 * ROW_BLOCK + 2], band[2 * ROW_BLOCK + 3]);
    let mut p = C64::cis(w * (m * step_m));
    for r in 0..ROW_BLOCK {
        (band[r], band[ROW_BLOCK + r]) = (p.re, p.im);
        p *= s;
    }
}

/// Rotates a band's phasor block by eight rows, `4·V::CELLS` rows per
/// vector — the same lane-wise op at every width.
#[inline(always)]
fn advance_block<V: CellLanes>(band: &mut [f64]) {
    let step = Cx::<V>::broadcast(band[2 * ROW_BLOCK], band[2 * ROW_BLOCK + 1]);
    for half in (0..ROW_BLOCK).step_by(4 * V::CELLS) {
        let p = Cx {
            re: V::load_cells(&band[half..], 4),
            im: V::load_cells(&band[ROW_BLOCK + half..], 4),
        }
        .rotate(step);
        p.re.store_cells(&mut band[half..], 4);
        p.im.store_cells(&mut band[ROW_BLOCK + half..], 4);
    }
}

/// `h·E′` at samples `c .. c + 4·V::CELLS` of one envelope part, from
/// the samples three either side.
#[inline(always)]
fn central_difference<V: CellLanes>(part: &[f64], c: usize, diff: &[V; 3]) -> V {
    let d = diff[2].mul(V::load_cells(&part[c + 3..], 4).sub(V::load_cells(&part[c - 3..], 4)));
    let d = diff[1].mul_add(
        V::load_cells(&part[c + 2..], 4).sub(V::load_cells(&part[c - 2..], 4)),
        d,
    );
    diff[0].mul_add(
        V::load_cells(&part[c + 1..], 4).sub(V::load_cells(&part[c - 1..], 4)),
        d,
    )
}

/// One envelope GEMM: the sums `Σ_k weight_k·e^{iw_k·step·m}` of every
/// lane of every tag at the rows `m` from `first_row` on.
struct Gemm<'a, const T: usize> {
    /// `w_k` per band, radians per unit of `step`.
    wavenumbers: &'a [f64],
    /// The row step: metres for a range profile, hertz for a tone sweep.
    step: f64,
    /// The global index of the first row (a multiple of the row block).
    first_row: f64,
    /// Rows computed (a multiple of the row block).
    rows: usize,
    /// Each tag's band-major lane weights.
    weights: &'a [ProfileWeights<'a>; T],
}

/// The envelope GEMM, one row block at a time: for each tag and each
/// group of `L` lanes, the product of the block's phasors (every band)
/// with the weights, `4·V::CELLS` rows per vector with the group's `L`
/// complex accumulators in registers; then every band's phasors rotate
/// to the next block. Writes tag `t`, lane `j`, part `c` (re, im) at row
/// `r` to `envelope[((t·n_lanes + j)·2 + c)·rows + r]`.
#[inline(always)]
fn envelope_body<V: CellLanes, const T: usize, const L: usize>(
    gemm: &Gemm<'_, T>,
    phasors: &mut [f64],
    envelope: &mut [f64],
) {
    let nb = gemm.wavenumbers.len();
    let nl = gemm.weights[0].n_lanes;
    let span = gemm.rows;
    for (band, &w) in phasors.chunks_exact_mut(BAND_SCRATCH).zip(gemm.wavenumbers) {
        seed_block::<V>(w, gemm.step, gemm.first_row, band);
    }
    for rb in 0..span / ROW_BLOCK {
        for (t, w) in gemm.weights.iter().enumerate() {
            let weights = [w.alpha_re, w.alpha_im].map(|v| &v[..nb * nl]);
            for lane0 in (0..nl).step_by(L) {
                for half in (0..ROW_BLOCK).step_by(4 * V::CELLS) {
                    let mut e = [Cx::<V>::zero(); L];
                    for (k, band) in phasors.chunks_exact(BAND_SCRATCH).enumerate() {
                        let p = Cx {
                            re: V::load_cells(&band[half..], 4),
                            im: V::load_cells(&band[ROW_BLOCK + half..], 4),
                        };
                        let row = k * nl + lane0;
                        let [are, aim] = weights.map(|v| &v[row..row + L]);
                        for j in 0..L {
                            e[j] = Cx::<V>::broadcast(are[j], aim[j]).mul_add(p, e[j]);
                        }
                    }
                    for (j, e) in e.iter().enumerate() {
                        let at = ((t * nl + lane0 + j) * 2) * span + rb * ROW_BLOCK + half;
                        e.re.store_cells(&mut envelope[at..], 4);
                        e.im.store_cells(&mut envelope[at + span..], 4);
                    }
                }
            }
        }
        let next = gemm.first_row + ((rb + 1) * ROW_BLOCK) as f64;
        let reseed = (next as i64).rem_euclid(SEED_ROWS as i64) == 0;
        for (band, &w) in phasors.chunks_exact_mut(BAND_SCRATCH).zip(gemm.wavenumbers) {
            if reseed {
                reseed_block(w, gemm.step, next, band);
            } else {
                advance_block::<V>(band);
            }
        }
    }
}

/// The profile's record step: per tag and lane, `E` at every lattice row
/// and the central difference `h·E′`, from an `envelope` of `span` rows
/// that reaches one guard block beyond each end of the lattice.
#[inline(always)]
fn record_body<V: CellLanes, const T: usize>(
    envelope: &[f64],
    n_lanes: usize,
    span: usize,
    outs: &mut [&mut [f64]; T],
) {
    let rows = span - 2 * GUARD;
    let diff = DIFF.map(V::splat);
    for (t, out) in outs.iter_mut().enumerate() {
        for lane in 0..n_lanes {
            let at = (t * n_lanes + lane) * 2 * span;
            let (re, im) = envelope[at..at + 2 * span].split_at(span);
            for r in (0..rows).step_by(4 * V::CELLS) {
                let c = r + GUARD;
                let record = [
                    V::load_cells(&re[c..], 4),
                    V::load_cells(&im[c..], 4),
                    central_difference(re, c, &diff),
                    central_difference(im, c, &diff),
                ];
                V::store_records(record, &mut out[(lane * rows + r) * 4..]);
            }
        }
    }
}

/// The envelope GEMM over `L`-lane groups into `scratch` (the phasor
/// blocks, then the envelope), followed by the record step when
/// `records` holds the tags' profiles.
#[inline(always)]
fn phasor_body<V: CellLanes, const T: usize, const L: usize>(
    gemm: &Gemm<'_, T>,
    records: Option<&mut [&mut [f64]; T]>,
    scratch: &mut [f64],
) {
    let (phasors, envelope) = scratch.split_at_mut(gemm.wavenumbers.len() * BAND_SCRATCH);
    envelope_body::<V, T, L>(gemm, phasors, envelope);
    if let Some(outs) = records {
        record_body::<V, T>(envelope, gemm.weights[0].n_lanes, gemm.rows, outs);
    }
}

/// One tag's inputs to the Eq. 17 cell kernel: one anchor's steering
/// tables (cell-major, lane-padded) and the tag's range profile over
/// `lattice`.
///
/// A batch ([`write_profile_cells_batch`]) is one of these per tag, all
/// sharing the same steering tables and lattice; only the profiles
/// differ.
#[derive(Debug, Clone, Copy)]
pub struct CellSweep<'a> {
    /// The Eq. 14 relative distances `Δ`, metres,
    /// `delta[cell·n_lanes + lane]`; a padding lane holds a real lane's
    /// `Δ`, so it reads inside the lattice (and its zero profile).
    pub delta: &'a [f64],
    /// Carrier `e^{iω_cΔ}` real parts, same indexing.
    pub carrier_re: &'a [f64],
    /// Carrier imaginary parts, same indexing.
    pub carrier_im: &'a [f64],
    /// Lane stride — antennas rounded up to a multiple of 4.
    pub n_lanes: usize,
    /// The rows the profile holds; they bracket every `Δ` of the cells
    /// swept.
    pub lattice: Lattice,
    /// The tag's profile ([`build_profiles`]).
    pub profile: &'a [f64],
}

/// The Eq. 17 cell kernel for `T` tags, `V::CELLS` consecutive cells per
/// vector: writes `outs[t][k]` for every `k` in `range` (whose length
/// must be a multiple of `V::CELLS`), cell `first_cell + k`. The steering
/// tables and lattice are `tags[0]`'s, shared by every tag.
#[inline(always)]
fn cells_body<V: CellLanes, const T: usize>(
    tags: &[CellSweep<'_>; T],
    combine: Combine,
    first_cell: usize,
    outs: &mut [&mut [f64]; T],
    range: std::ops::Range<usize>,
) {
    debug_assert_eq!(range.len() % V::CELLS, 0);
    let s = &tags[0];
    let nl = s.n_lanes;
    let lat = s.lattice;
    let len = lat.profile_len(nl);
    let profiles: [&[f64]; T] = std::array::from_fn(|t| &tags[t].profile[..len]);
    let inv_step = V::splat(lat.inv_step);
    let lane_rows = V::load_row(&[0.0, 1.0, 2.0, 3.0].map(|l| l * lat.rows as f64));
    let (one, two, three, four) = (V::splat(1.0), V::splat(2.0), V::splat(3.0), V::splat(4.0));
    for k in range.step_by(V::CELLS) {
        let cell = first_cell + k;
        // Each tag's per-cell sums, totalled lane group by lane group from
        // +0.0 in registers.
        let mut sums = [V::splat(0.0); T];
        for lane0 in (0..nl).step_by(4) {
            let base = cell * nl + lane0;
            let carrier = Cx {
                re: V::load_cells(&s.carrier_re[base..], nl),
                im: V::load_cells(&s.carrier_im[base..], nl),
            };
            let u = V::load_cells(&s.delta[base..], nl).mul(inv_step);
            let m = u.floor();
            let t = u.sub(m);
            // Lane `j` reads the records of rows `m` and `m + 1` from
            // `profile[4·(j·rows + m − first_row) ..][..8]`.
            let first = V::splat(lat.first_row - (lane0 * lat.rows) as f64);
            let idx = four.mul(m.sub(first).add(lane_rows)).index(len - 8);
            // Cubic Hermite basis on [row m, row m + 1].
            let (s1, t2) = (one.sub(t), t.mul(t));
            let s2 = s1.mul(s1);
            let w00 = s2.mul(two.mul_add(t, one));
            let w10 = t.mul(s2);
            let w01 = t2.mul(two.neg_mul_add(t, three));
            let w11 = t2.mul(t.sub(one));
            for tag in 0..T {
                let [er0, ei0, dr0, di0, er1, ei1, dr1, di1] = V::gather_rows(profiles[tag], idx);
                let interp = |e0: V, d0: V, e1: V, d1: V| {
                    w11.mul_add(d1, w01.mul_add(e1, w10.mul_add(d0, w00.mul(e0))))
                };
                let envelope = Cx {
                    re: interp(er0, dr0, er1, dr1),
                    im: interp(ei0, di0, ei1, di1),
                };
                let sig = envelope.rotate(carrier);
                sums[tag] = sums[tag].add(V::reduce_cells(sig.re, sig.im, sig.abs()));
            }
        }
        for (sums, out) in sums.iter().zip(outs.iter_mut()) {
            sums.store_combined(combine, &mut out[k..]);
        }
    }
}

/// The cells one cell-kernel call sweeps: rows of `width` cells, row `r`
/// at table cells `first_cell + r·stride ..` and at output cells
/// `r·width ..`. A window of a grid's tables is its rows at the grid's
/// row stride; a contiguous run is one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRows {
    /// The table cell of row 0's first cell.
    pub first_cell: usize,
    /// Cells per row.
    pub width: usize,
    /// Table cells from one row's first cell to the next's (`≥ width`).
    pub stride: usize,
}

impl CellRows {
    /// One row of `n` cells from table cell `first_cell`.
    pub fn run(first_cell: usize, n: usize) -> Self {
        Self {
            first_cell,
            width: n,
            stride: n,
        }
    }
}

/// The cell kernel over `rows` (as many as `outs[0]` holds): each row's
/// whole `V` vectors, then its last cells on `W` — the one-cell level of
/// the same body, or `V` itself when `V` holds one cell.
#[inline(always)]
fn rows_body<V: CellLanes, W: CellLanes, const T: usize>(
    tags: &[CellSweep<'_>; T],
    combine: Combine,
    rows: CellRows,
    outs: &mut [&mut [f64]; T],
) {
    let width = rows.width;
    let whole = width - width % V::CELLS;
    for r in 0..outs[0].len().checked_div(width).unwrap_or(0) {
        // Output cell `k` of row `r` reads table cell `first + k`.
        let (out0, first) = (r * width, rows.first_cell + r * (rows.stride - width));
        cells_body::<V, T>(tags, combine, first, outs, out0..out0 + whole);
        if whole < width {
            cells_body::<W, T>(tags, combine, first, outs, out0 + whole..out0 + width);
        }
    }
}

/// The portable twins: on a CPU without FMA hardware each fused op is a
/// correctly rounded libm `fma` call — slow, but bit-identical.
fn phasors_scalar<const T: usize, const L: usize>(
    gemm: &Gemm<'_, T>,
    records: Option<&mut [&mut [f64]; T]>,
    scratch: &mut [f64],
) {
    phasor_body::<ScalarX4, T, L>(gemm, records, scratch);
}

fn cells_scalar<const T: usize>(
    tags: &[CellSweep<'_>; T],
    combine: Combine,
    rows: CellRows,
    outs: &mut [&mut [f64]; T],
) {
    rows_body::<ScalarX4, ScalarX4, T>(tags, combine, rows, outs);
}

/// The scalar level on a CPU with FMA: the same bodies compiled so each
/// `f64::mul_add` is one `vfmadd` instruction rather than a libm call.
/// (`fma` implies AVX, so the compiler may also vectorize the four lanes;
/// every lane still runs the same correctly rounded ops.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
fn phasors_scalar_fma<const T: usize, const L: usize>(
    gemm: &Gemm<'_, T>,
    records: Option<&mut [&mut [f64]; T]>,
    scratch: &mut [f64],
) {
    phasor_body::<ScalarX4, T, L>(gemm, records, scratch);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
fn cells_scalar_fma<const T: usize>(
    tags: &[CellSweep<'_>; T],
    combine: Combine,
    rows: CellRows,
    outs: &mut [&mut [f64]; T],
) {
    rows_body::<ScalarX4, ScalarX4, T>(tags, combine, rows, outs);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn phasors_avx2<const T: usize, const L: usize>(
    gemm: &Gemm<'_, T>,
    records: Option<&mut [&mut [f64]; T]>,
    scratch: &mut [f64],
) {
    phasor_body::<simd::AvxX4, T, L>(gemm, records, scratch);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn cells_avx2<const T: usize>(
    tags: &[CellSweep<'_>; T],
    combine: Combine,
    rows: CellRows,
    outs: &mut [&mut [f64]; T],
) {
    rows_body::<simd::AvxX4, simd::AvxX4, T>(tags, combine, rows, outs);
}

/// Eight rows per vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn phasors_avx512<const T: usize, const L: usize>(
    gemm: &Gemm<'_, T>,
    records: Option<&mut [&mut [f64]; T]>,
    scratch: &mut [f64],
) {
    phasor_body::<simd::Avx512X8, T, L>(gemm, records, scratch);
}

/// Each row's whole cell pairs on the two-cell AVX-512 vector; an odd
/// last cell on the one-cell AVX2 instantiation of the same body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn cells_avx512<const T: usize>(
    tags: &[CellSweep<'_>; T],
    combine: Combine,
    rows: CellRows,
    outs: &mut [&mut [f64]; T],
) {
    rows_body::<simd::Avx512X8, simd::AvxX4, T>(tags, combine, rows, outs);
}

/// `T`-tag views of a batch the caller sized.
fn batch_of<'s, 'o, A, B, const T: usize>(
    tags: &'s [A],
    outs: &'o mut [B],
) -> (&'s [A; T], &'o mut [B; T]) {
    let (Ok(tags), Ok(outs)) = (<&[A; T]>::try_from(tags), <&mut [B; T]>::try_from(outs)) else {
        unreachable!("the caller matched the batch size");
    };
    (tags, outs)
}

/// The envelope GEMM over `L`-lane groups, and the record step when
/// `records` holds the profiles, on `level`.
#[allow(unsafe_code)]
fn phasors_at<const T: usize, const L: usize>(
    level: SimdLevel,
    gemm: &Gemm<'_, T>,
    records: Option<&mut [&mut [f64]; T]>,
    s: &mut [f64],
) {
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `has_fma` just detected the `fma` feature.
        Level::Scalar if simd::has_fma() => unsafe { phasors_scalar_fma::<T, L>(gemm, records, s) },
        Level::Scalar => phasors_scalar::<T, L>(gemm, records, s),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the AVX2 level only comes from `simd::host_levels`,
        // which constructs it behind `avx2` and `fma` detection.
        Level::Avx2 => unsafe { phasors_avx2::<T, L>(gemm, records, s) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the AVX-512 level only comes from `simd::host_levels`,
        // which constructs it behind `avx512f`, `avx2` and `fma` detection.
        Level::Avx512 => unsafe { phasors_avx512::<T, L>(gemm, records, s) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 | Level::Avx512 => phasors_scalar::<T, L>(gemm, records, s),
    }
}

thread_local! {
    /// This thread's last profile build or tone sweep scratch — phasor
    /// blocks, envelope samples and a sweep's path weights — kept so a
    /// warm call allocates nothing.
    static PHASOR_SCRATCH: std::cell::Cell<Vec<f64>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Runs `f` on this thread's phasor scratch, `len` zeros long.
fn with_scratch(len: usize, f: impl FnOnce(&mut [f64])) {
    let mut scratch = PHASOR_SCRATCH.take();
    scratch.clear();
    scratch.resize(len, 0.0);
    f(&mut scratch);
    PHASOR_SCRATCH.set(scratch);
}

/// The `T`-tag profile build on `level`: the envelope from one guard
/// block below the lattice to one above, then the records.
fn profiles_at<const T: usize>(
    level: SimdLevel,
    plan: &ProfilePlan,
    lat: &Lattice,
    tags: &[ProfileWeights<'_>],
    outs: &mut [&mut [f64]],
) {
    let (tags, outs) = batch_of::<_, _, T>(tags, outs);
    let gemm = Gemm {
        wavenumbers: &plan.wavenumbers,
        step: lat.step_m,
        first_row: lat.first_row - GUARD as f64,
        rows: lat.rows + 2 * GUARD,
        weights: tags,
    };
    let len = plan.wavenumbers.len() * BAND_SCRATCH + T * tags[0].n_lanes * 2 * gemm.rows;
    with_scratch(len, |s| phasors_at::<T, 4>(level, &gemm, Some(outs), s));
}

/// [`build_profiles`] on an explicit vector level — what the
/// dispatch-equivalence tests drive so they never mutate process state.
/// Sound for any `level` safe code can hold: levels only come from CPU
/// detection (`simd::host_levels`).
pub fn build_profiles_at(
    level: SimdLevel,
    plan: &ProfilePlan,
    lattice: &Lattice,
    tags: &[ProfileWeights<'_>],
    outs: &mut [&mut [f64]],
) {
    assert!(
        (1..=MAX_TAGS).contains(&tags.len()),
        "a batch holds 1..=MAX_TAGS tags"
    );
    assert_eq!(outs.len(), tags.len(), "one profile per tag");
    let nl = tags[0].n_lanes;
    assert!(
        nl >= 4 && nl.is_multiple_of(4),
        "lane stride must be a positive multiple of 4"
    );
    assert!(
        lattice.rows >= ROW_BLOCK
            && lattice.rows.is_multiple_of(ROW_BLOCK)
            && (lattice.first_row / ROW_BLOCK as f64).fract() == 0.0,
        "a lattice spans whole row blocks"
    );
    let weights = plan.wavenumbers.len() * nl;
    for (w, out) in tags.iter().zip(outs.iter()) {
        assert!(
            w.n_lanes == nl && w.alpha_re.len() >= weights && w.alpha_im.len() >= weights,
            "every tag weights every band of the plan on one lane stride"
        );
        assert!(out.len() >= lattice.profile_len(nl), "profile too short");
    }
    match tags.len() {
        1 => profiles_at::<1>(level, plan, lattice, tags, outs),
        2 => profiles_at::<2>(level, plan, lattice, tags, outs),
        3 => profiles_at::<3>(level, plan, lattice, tags, outs),
        _ => profiles_at::<MAX_TAGS>(level, plan, lattice, tags, outs),
    }
}

/// Samples each tag's envelope `E` and `h·E′` at every row of `lattice`
/// for every lane, into `outs[t]` (at least
/// [`Lattice::profile_len`] long). A row's samples depend only on its
/// index, the plan and the tag's weights, so any window's lattice holds
/// the same bits at the rows it shares with another's. The vector path
/// is chosen once per call via [`simd::cell_level`].
pub fn build_profiles(
    plan: &ProfilePlan,
    lattice: &Lattice,
    tags: &[ProfileWeights<'_>],
    outs: &mut [&mut [f64]],
) {
    build_profiles_at(simd::cell_level(), plan, lattice, tags, outs);
}

/// The `T`-tag cell kernel on `level`.
#[allow(unsafe_code)]
fn cells_at<const T: usize>(
    level: SimdLevel,
    tags: &[CellSweep<'_>],
    combine: Combine,
    rows: CellRows,
    outs: &mut [&mut [f64]],
) {
    let (tags, outs) = batch_of::<_, _, T>(tags, outs);
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `has_fma` just detected the `fma` feature.
        Level::Scalar if simd::has_fma() => unsafe { cells_scalar_fma(tags, combine, rows, outs) },
        Level::Scalar => cells_scalar(tags, combine, rows, outs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the AVX2 level only comes from `simd::host_levels`,
        // which constructs it behind `avx2` and `fma` detection.
        Level::Avx2 => unsafe { cells_avx2(tags, combine, rows, outs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the AVX-512 level only comes from `simd::host_levels`,
        // which constructs it behind `avx512f`, `avx2` and `fma` detection.
        Level::Avx512 => unsafe { cells_avx512(tags, combine, rows, outs) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 | Level::Avx512 => cells_scalar(tags, combine, rows, outs),
    }
}

/// [`write_profile_cells_batch`] on an explicit vector level — what the
/// dispatch-equivalence tests drive so they never mutate process state.
/// Sound for any `level` safe code can hold: levels only come from CPU
/// detection (`simd::host_levels`).
pub fn write_profile_cells_batch_at(
    level: SimdLevel,
    tags: &[CellSweep<'_>],
    combine: Combine,
    rows: CellRows,
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
    let n_rows = n.checked_div(rows.width).unwrap_or(0);
    assert!(
        n == n_rows * rows.width && rows.width <= rows.stride,
        "outputs hold whole rows, and rows do not overlap"
    );
    let needed = n_rows.checked_sub(1).map_or(0, |last| {
        (rows.first_cell + last * rows.stride + rows.width) * s.n_lanes
    });
    assert!(
        s.delta.len() >= needed && s.carrier_re.len() >= needed && s.carrier_im.len() >= needed,
        "steering tables shorter than the requested cell rows"
    );
    assert!(s.lattice.rows >= 2, "a lattice brackets its cells");
    for t in tags {
        assert!(
            std::ptr::eq(t.delta, s.delta)
                && std::ptr::eq(t.carrier_re, s.carrier_re)
                && std::ptr::eq(t.carrier_im, s.carrier_im)
                && t.n_lanes == s.n_lanes
                && t.lattice == s.lattice,
            "a batch shares one set of steering tables and one lattice"
        );
        assert!(
            t.profile.len() >= s.lattice.profile_len(s.n_lanes),
            "profile shorter than its lattice"
        );
    }
    match tags.len() {
        1 => cells_at::<1>(level, tags, combine, rows, outs),
        2 => cells_at::<2>(level, tags, combine, rows, outs),
        3 => cells_at::<3>(level, tags, combine, rows, outs),
        _ => cells_at::<MAX_TAGS>(level, tags, combine, rows, outs),
    }
}

/// Evaluates Eq. 17 over the cell `rows` of one anchor map for up to
/// [`MAX_TAGS`] tags at once, writing tag `t`'s combined values into
/// `outs[t]` (row after row, `width` cells each). Every tag's values are
/// bit-identical to a call of its own, and every cell's to a call over
/// any other rows holding it: the shared index, weights and carrier are
/// the same values whoever reads them, and each cell's accumulators see
/// the same IEEE operations in the same order. The vector path is chosen
/// once per call via [`simd::cell_level`].
pub fn write_profile_cells_batch(
    tags: &[CellSweep<'_>],
    combine: Combine,
    rows: CellRows,
    outs: &mut [&mut [f64]],
) {
    write_profile_cells_batch_at(simd::cell_level(), tags, combine, rows, outs);
}

/// The centre of BLE RF channel frequency index 0 (advertising channel
/// 37), hertz: row 0 of a tone sweep.
const TONE_ROW0_HZ: f64 = 2.402e9;

/// Path weights per path in a tone sweep's scratch: the wavenumber, then
/// each tone's weight (re, im).
const PATH_SCRATCH: usize = 5;

/// [`sweep_tones`] with the envelope GEMM run by `run` on the sweep's
/// lane weights and the rest of its scratch.
fn tone_sweep<I>(
    lengths: &[f64],
    gains: &[C64],
    rows: I,
    out: &mut [[C64; 2]],
    run: impl FnOnce(&Gemm<'_, 1>, &mut [f64]),
) where
    I: Iterator<Item = usize> + Clone,
{
    assert_eq!(lengths.len(), gains.len(), "path SoA arrays must match");
    let (n, lo, hi) = rows.clone().fold((0, usize::MAX, 0), |(n, lo, hi), r| {
        (n + 1, lo.min(r), hi.max(r))
    });
    assert_eq!(n, out.len(), "one output per row");
    if n == 0 {
        return;
    }
    let first = lo - lo % ROW_BLOCK;
    let span = (hi + 1 - first).next_multiple_of(ROW_BLOCK);
    let np = lengths.len();
    with_scratch(np * (PATH_SCRATCH + BAND_SCRATCH) + 4 * span, |s| {
        let (wavenumbers, s) = s.split_at_mut(np);
        let (alpha_re, s) = s.split_at_mut(2 * np);
        let (alpha_im, s) = s.split_at_mut(2 * np);
        let per_hz = -std::f64::consts::TAU / SPEED_OF_LIGHT;
        for (p, (&len, &gain)) in lengths.iter().zip(gains).enumerate() {
            let w = per_hz * len;
            let g = gain * C64::cis(w * TONE_ROW0_HZ);
            let tone = C64::cis(w * BLE_GFSK_DEVIATION_HZ);
            wavenumbers[p] = w;
            for (lane, a) in [g * tone.conj(), g * tone].into_iter().enumerate() {
                (alpha_re[2 * p + lane], alpha_im[2 * p + lane]) = (a.re, a.im);
            }
        }
        let weights = [ProfileWeights {
            alpha_re,
            alpha_im,
            n_lanes: 2,
        }];
        let gemm = Gemm {
            wavenumbers,
            step: BLE_CHANNEL_WIDTH_HZ,
            first_row: first as f64,
            rows: span,
            weights: &weights,
        };
        run(&gemm, s);
        // Each tone's real parts, then its imaginary parts, `span` each.
        let (lower, upper) = s[np * BAND_SCRATCH..].split_at(2 * span);
        for (o, r) in out.iter_mut().zip(rows) {
            let at = r - first;
            *o = [lower, upper].map(|t| C64::new(t[at], t[span + at]));
        }
    });
}

/// [`sweep_tones`] on an explicit vector level — what the
/// dispatch-equivalence tests drive so they never mutate process state.
/// Sound for any `level` safe code can hold: levels only come from CPU
/// detection (`simd::host_levels`).
fn sweep_tones_at<I>(
    level: SimdLevel,
    lengths: &[f64],
    gains: &[C64],
    rows: I,
    out: &mut [[C64; 2]],
) where
    I: Iterator<Item = usize> + Clone,
{
    tone_sweep(lengths, gains, rows, out, |gemm, s| {
        phasors_at::<1, 2>(level, gemm, None, s)
    });
}

/// Evaluates the two GFSK tone channels `[h(f−δ), h(f+δ)]` of Eq. 2,
/// `h(f) = Σ_p gain_p·e^{−i2πf·len_p/c}`, for a whole path set at the
/// BLE channels of frequency indices `rows` (`f = 2402 MHz + 2 MHz·row`,
/// `δ = 250 kHz`), into `out` in the order of `rows`: the envelope GEMM
/// with rows on the 2 MHz channel grid, paths as bands and the two tones
/// as lanes. A row's value depends only on its index and the paths, so
/// duplicates, any order and any subset of the 40 rows agree bit for
/// bit. The vector path is chosen once per call via [`simd::cell_level`].
pub fn sweep_tones<I>(lengths: &[f64], gains: &[C64], rows: I, out: &mut [[C64; 2]])
where
    I: Iterator<Item = usize> + Clone,
{
    sweep_tones_at(simd::cell_level(), lengths, gains, rows, out);
}

/// The vector levels this host can actually execute, narrowest first
/// (`simd::host_levels`) — what equivalence suites iterate over.
pub fn levels_to_test() -> Vec<SimdLevel> {
    simd::host_levels().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex;

    /// One tag's contiguous run on the dispatched level.
    fn write_profile_cells(
        s: &CellSweep<'_>,
        combine: Combine,
        first_cell: usize,
        out: &mut [f64],
    ) {
        let rows = CellRows::run(first_cell, out.len());
        write_profile_cells_batch(&[*s], combine, rows, &mut [out]);
    }

    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn rand_unit(seed: u64) -> f64 {
        (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Frequencies of comb slots `slots` above 2402 MHz, 2 MHz apart.
    fn comb(slots: &[u32]) -> Vec<f64> {
        slots
            .iter()
            .map(|&k| 2.402e9 + 2e6 * f64::from(k))
            .collect()
    }

    /// The 37 BLE data channels: 2404–2424 and 2428–2478 MHz.
    fn data_channels() -> Vec<f64> {
        comb(&(1..=38).filter(|&k| k != 12).collect::<Vec<_>>())
    }

    /// A masked sub-comb of the data channels: every band whose slot is
    /// not a multiple of 3 or 7, so holes of one and two slots.
    fn masked_comb() -> Vec<f64> {
        comb(
            &(1..=38)
                .filter(|&k| k != 12 && k % 3 != 0 && k % 7 != 0)
                .collect::<Vec<_>>(),
        )
    }

    /// Bands on no comb: irregular spacing across the ISM band.
    fn off_comb() -> Vec<f64> {
        (0..19)
            .map(|k| 2.4021e9 + 4.13e6 * k as f64 + 0.37e6 * ((k * k) % 5) as f64)
            .collect()
    }

    /// A span wider than BLE's: 2.40–2.50 GHz every 2.5 MHz.
    fn wide_span() -> Vec<f64> {
        (0..41).map(|k| 2.4e9 + 2.5e6 * k as f64).collect()
    }

    /// A randomized likelihood fixture: `cells` cells × `n_ant` antennas
    /// at random `Δ` over the bands `freqs`, with their steering tables,
    /// lattice and one tag's channel weights.
    struct Fixture {
        freqs: Vec<f64>,
        plan: ProfilePlan,
        n_ant: usize,
        n_lanes: usize,
        delta: Vec<f64>,
        carrier: (Vec<f64>, Vec<f64>),
        lattice: Lattice,
        alpha: (Vec<f64>, Vec<f64>),
    }

    fn fixture(seed: u64, cells: usize, n_ant: usize, nb: usize) -> Fixture {
        let slots: Vec<u32> = (0..nb as u32).collect();
        fixture_on(seed, cells, n_ant, &comb(&slots))
    }

    /// [`fixture`] over the bands `freqs`.
    fn fixture_on(seed: u64, cells: usize, n_ant: usize, freqs: &[f64]) -> Fixture {
        let plan = ProfilePlan::build(freqs);
        let n_lanes = n_ant.div_ceil(4) * 4;
        let tau_over_c = std::f64::consts::TAU / SPEED_OF_LIGHT;
        let mut delta = vec![0.0; cells * n_lanes];
        let (mut cre, mut cim) = (vec![1.0; cells * n_lanes], vec![0.0; cells * n_lanes]);
        for c in 0..cells {
            for j in 0..n_lanes {
                // Padding lanes copy lane 0, as the engine's tables do.
                let k = c * n_lanes + j;
                delta[k] = if j < n_ant {
                    rand_unit(seed ^ (c * 131 + j) as u64) * 20.0 - 10.0
                } else {
                    delta[c * n_lanes]
                };
                let p = C64::cis(tau_over_c * delta[k] * plan.carrier_hz);
                (cre[k], cim[k]) = (p.re, p.im);
            }
        }
        Fixture {
            lattice: Lattice::covering(plan.step_m, delta.iter().copied()),
            alpha: random_alpha(seed, freqs.len(), n_ant, n_lanes),
            freqs: freqs.to_vec(),
            plan,
            n_ant,
            n_lanes,
            delta,
            carrier: (cre, cim),
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

    type Alpha = (Vec<f64>, Vec<f64>);

    impl Fixture {
        /// Another tag's channel weights over this fixture's bands and
        /// lanes.
        fn tag_alpha(&self, seed: u64) -> Alpha {
            random_alpha(seed, self.freqs.len(), self.n_ant, self.n_lanes)
        }

        /// The profile of a tag with weights `alpha`, built on `level`.
        fn profile_at(&self, level: SimdLevel, alpha: &Alpha) -> Vec<f64> {
            let w = ProfileWeights {
                alpha_re: &alpha.0,
                alpha_im: &alpha.1,
                n_lanes: self.n_lanes,
            };
            let mut out = vec![f64::NAN; self.lattice.profile_len(self.n_lanes)];
            build_profiles_at(level, &self.plan, &self.lattice, &[w], &mut [&mut out]);
            out
        }

        /// The profile of this fixture's own tag.
        fn profile(&self) -> Vec<f64> {
            self.profile_at(levels_to_test()[0], &self.alpha)
        }

        /// The sweep of a tag with profile `profile` over this fixture's
        /// steering tables — what every tag of a batch shares.
        fn sweep<'a>(&'a self, profile: &'a [f64]) -> CellSweep<'a> {
            CellSweep {
                delta: &self.delta,
                carrier_re: &self.carrier.0,
                carrier_im: &self.carrier.1,
                n_lanes: self.n_lanes,
                lattice: self.lattice,
                profile,
            }
        }

        /// Antenna `j`'s exact band sum `Σ_k α_k e^{iω_kΔ}` at `Δ = d`.
        fn band_sum(&self, alpha: &Alpha, j: usize, d: f64) -> C64 {
            let tau_over_c = std::f64::consts::TAU / SPEED_OF_LIGHT;
            let mut acc = complex::ZERO;
            for (s, &f) in self.freqs.iter().enumerate() {
                let a = C64::new(alpha.0[s * self.n_lanes + j], alpha.1[s * self.n_lanes + j]);
                acc += a * C64::cis(tau_over_c * d * f);
            }
            acc
        }

        /// Naive per-(cell, antenna, band) `cis` reference.
        fn reference(&self, combine: Combine, cell: usize) -> f64 {
            let mut coh = complex::ZERO;
            let mut non = 0.0;
            for j in 0..self.n_ant {
                let acc = self.band_sum(&self.alpha, j, self.delta[cell * self.n_lanes + j]);
                coh += acc;
                non += acc.abs();
            }
            match combine {
                Combine::Coherent => coh.abs(),
                Combine::Noncoherent => non,
                Combine::Hybrid => coh.abs() + 0.5 * non,
            }
        }

        /// How far the profile may put a cell's combined value from the
        /// reference: the Hermite remainder per antenna (the hybrid
        /// combining counts it 1.5 times) plus rounding.
        fn tolerance(&self) -> f64 {
            let sum: f64 = self
                .alpha
                .0
                .iter()
                .zip(&self.alpha.1)
                .map(|(&re, &im)| C64::new(re, im).abs())
                .sum();
            (1.5 * self.plan.remainder_bound() + 1e-13) * sum
        }

        fn assert_matches_reference(
            &self,
            combine: Combine,
            first: usize,
            out: &[f64],
            what: &str,
        ) {
            for (k, &got) in out.iter().enumerate() {
                let want = self.reference(combine, first + k);
                assert!(
                    (got - want).abs() <= self.tolerance(),
                    "{what} cell {} {combine:?}: {got} vs {want}",
                    first + k
                );
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn comb_cells_match_reference_for_all_combinings() {
        let fx = fixture(11, 40, 4, 37);
        let profile = fx.profile();
        let sweep = fx.sweep(&profile);
        for combine in [Combine::Coherent, Combine::Noncoherent, Combine::Hybrid] {
            let mut out = vec![0.0; 40];
            write_profile_cells(&sweep, combine, 0, &mut out);
            fx.assert_matches_reference(combine, 0, &out, "comb");
        }
    }

    #[test]
    fn comb_cells_handle_non_multiple_of_four_antennas() {
        for n_ant in [1, 2, 3, 5, 6] {
            let fx = fixture(n_ant as u64 * 7 + 1, 12, n_ant, 21);
            let profile = fx.profile();
            let mut out = vec![0.0; 12];
            write_profile_cells(&fx.sweep(&profile), Combine::Hybrid, 0, &mut out);
            fx.assert_matches_reference(Combine::Hybrid, 0, &out, &format!("{n_ant} antennas"));
        }
    }

    #[test]
    fn offcomb_cells_match_reference() {
        let fx = fixture_on(31, 20, 4, &off_comb());
        let profile = fx.profile();
        let mut out = vec![0.0; 20];
        write_profile_cells(&fx.sweep(&profile), Combine::Hybrid, 0, &mut out);
        fx.assert_matches_reference(Combine::Hybrid, 0, &out, "off-comb");
    }

    #[test]
    fn profile_error_is_within_the_remainder_bound() {
        // Random α and Δ on four band sets. The lattice samples must be
        // the exact envelope and its scaled derivative; the cubic Hermite
        // interpolant between them must stay within the remainder bound
        // `(h·ω_max)⁴/384·Σ|α|` that set `h`, and so must the kernel's
        // value of every cell.
        let tau_over_c = std::f64::consts::TAU / SPEED_OF_LIGHT;
        for (name, freqs) in [
            ("data channels", data_channels()),
            ("masked sub-comb", masked_comb()),
            ("off-comb", off_comb()),
            ("wider span", wide_span()),
        ] {
            let fx = fixture_on(97, 400, 1, &freqs);
            let (plan, lat) = (&fx.plan, fx.lattice);
            assert!(plan.remainder_bound() <= PROFILE_TOLERANCE * (1.0 + 1e-12));
            let profile = fx.profile();
            let sum: f64 = (0..freqs.len())
                .map(|s| C64::new(fx.alpha.0[s * 4], fx.alpha.1[s * 4]).abs())
                .sum();
            let sample = |r: usize| {
                let at = |q: usize| profile[4 * r + q];
                (C64::new(at(0), at(1)), C64::new(at(2), at(3)))
            };
            // The samples: `E` and `h·E′` at `Δ_m = m·h`.
            for r in 0..lat.rows {
                let d = (lat.first_row + r as f64) * lat.step_m;
                let (mut e, mut de) = (complex::ZERO, complex::ZERO);
                for (s, &w) in plan.wavenumbers.iter().enumerate() {
                    let a = C64::new(fx.alpha.0[s * 4], fx.alpha.1[s * 4]);
                    let p = a * C64::cis(w * d);
                    e += p;
                    de += C64::new(0.0, w * lat.step_m) * p;
                }
                let (got_e, got_de) = sample(r);
                assert!((got_e - e).abs() <= 1e-12 * sum, "{name} row {r}: E");
                assert!((got_de - de).abs() <= 1e-12 * sum, "{name} row {r}: hE′");
            }
            // The interpolant, complex, against the exact band sum.
            let bound = plan.remainder_bound() * sum;
            let mut worst = 0.0f64;
            for (cell, &d) in fx.delta.iter().step_by(4).enumerate() {
                let u = d * lat.inv_step;
                let m = u.floor();
                let t = u - m;
                let r = (m - lat.first_row) as usize;
                let ((e0, d0), (e1, d1)) = (sample(r), sample(r + 1));
                let (s, t2) = (1.0 - t, t * t);
                let envelope = e0 * (s * s * (1.0 + 2.0 * t))
                    + d0 * (t * s * s)
                    + e1 * (t2 * (3.0 - 2.0 * t))
                    + d1 * (t2 * (t - 1.0));
                let got = C64::cis(tau_over_c * d * plan.carrier_hz) * envelope;
                let err = (got - fx.band_sum(&fx.alpha, 0, d)).abs();
                worst = worst.max(err);
                assert!(
                    err <= bound + 1e-13 * sum,
                    "{name} cell {cell}: {err:e} > {bound:e}"
                );
            }
            // The kernel, through the magnitude it returns.
            let mut out = vec![0.0; 400];
            write_profile_cells(&fx.sweep(&profile), Combine::Coherent, 0, &mut out);
            for (cell, &got) in out.iter().enumerate() {
                let want = fx.band_sum(&fx.alpha, 0, fx.delta[cell * 4]).abs();
                assert!(
                    (got - want).abs() <= bound + 1e-13 * sum,
                    "{name} kernel cell {cell}"
                );
            }
            println!(
                "{name}: h = {:.2} cm, max error {:.2e} of the bound {:.2e}·Σ|α|",
                100.0 * plan.step_m,
                worst / bound,
                plan.remainder_bound()
            );
        }
    }

    #[test]
    fn lattices_bracket_their_deltas_on_row_blocks() {
        let lat = Lattice::covering(0.02, [-0.3, 1.234, 0.5]);
        assert_eq!(lat.first_row, -16.0);
        assert_eq!(lat.rows % ROW_BLOCK, 0);
        for d in [-0.3, 1.234, 0.5] {
            let m = (d * lat.inv_step).floor();
            assert!(m >= lat.first_row && m + 1.0 < lat.first_row + lat.rows as f64);
        }
        let empty = Lattice::covering(0.02, [f64::NAN]);
        assert_eq!((empty.first_row, empty.rows), (0.0, ROW_BLOCK));
        // One frequency has no envelope to sample finely.
        assert_eq!(ProfilePlan::build(&[2.44e9]).step_m, MAX_STEP_M);
    }

    #[test]
    fn profile_rows_do_not_depend_on_the_window() {
        // A row's samples depend on its index alone: a lattice starting
        // mid seed block holds the bits of one starting on a seed row.
        let fx = fixture(3, 8, 4, 37);
        let wide = Lattice::covering(fx.plan.step_m, [-2.0, 2.0]);
        let narrow = Lattice::covering(fx.plan.step_m, [0.1, 0.9]);
        assert_ne!(
            wide.first_row.rem_euclid(SEED_ROWS as f64),
            narrow.first_row.rem_euclid(SEED_ROWS as f64)
        );
        let build = |lat: &Lattice| {
            let fx = Fixture {
                lattice: *lat,
                ..fixture(3, 8, 4, 37)
            };
            (fx.profile(), lat.rows)
        };
        let ((w, wr), (n, nr)) = (build(&wide), build(&narrow));
        let shift = (narrow.first_row - wide.first_row) as usize;
        for lane in 0..fx.n_lanes {
            for r in 0..nr {
                for q in 0..4 {
                    assert_eq!(
                        n[4 * (lane * nr + r) + q].to_bits(),
                        w[4 * (lane * wr + shift + r) + q].to_bits(),
                        "lane {lane} row {r} sample {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn dispatch_paths_are_bit_identical() {
        let fx = fixture(23, 64, 4, 37);
        let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
        for &level in &levels_to_test() {
            let profile = fx.profile_at(level, &fx.alpha);
            let mut out = vec![0.0; 64];
            write_profile_cells_batch_at(
                level,
                &[fx.sweep(&profile)],
                Combine::Hybrid,
                CellRows::run(0, out.len()),
                &mut [out.as_mut_slice()],
            );
            let got = (bits(&profile), bits(&out));
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "level {level:?} diverged"),
            }
        }
    }

    /// Every shape a two-cell vector or a tag batch must get right: band
    /// sets (the data comb, a masked sub-comb, off-comb bands) × lane
    /// strides 4 and 8.
    fn cases() -> Vec<(String, Fixture)> {
        let mut cases = Vec::new();
        for (k, (name, freqs)) in [
            ("dense", comb(&(0..37).collect::<Vec<_>>())),
            ("dense, odd band count", comb(&(0..20).collect::<Vec<_>>())),
            ("masked sub-comb", masked_comb()),
            ("off-comb", off_comb()),
        ]
        .into_iter()
        .enumerate()
        {
            for (a, n_ant) in [4, 5, 8, 7].into_iter().enumerate() {
                if (k + a) % 2 == 0 {
                    cases.push((
                        format!("{name}, {n_ant} antennas"),
                        fixture_on(41 + (4 * k + a) as u64, 24, n_ant, &freqs),
                    ));
                }
            }
        }
        cases
    }

    #[test]
    fn avx512_cell_pairs_are_bit_identical_to_scalar() {
        // The two-cell AVX-512 path splits a call into cell pairs plus an
        // odd tail cell, loads and gathers a pair's lanes with stride
        // `n_lanes`, and builds profiles eight rows per vector. Every
        // shape that exercises one of those steps must match Scalar bit
        // for bit on every level this host runs.
        let levels = levels_to_test();
        if !levels.iter().any(|l| l.0 == Level::Avx512) {
            println!("skipped (no avx512f)");
        }
        // (first_cell, cells): even and odd counts from even and odd
        // starts, the whole range, and every one-cell segment.
        let mut ranges = vec![(0, 24), (0, 23), (1, 23), (3, 8), (5, 7), (2, 1)];
        ranges.extend((0..24).map(|c| (c, 1)));
        for (name, fx) in &cases() {
            let profile = fx.profile();
            for &level in &levels[1..] {
                assert_eq!(
                    bits(&fx.profile_at(level, &fx.alpha)),
                    bits(&profile),
                    "{name}: {level:?} profile"
                );
            }
            let sweep = fx.sweep(&profile);
            for combine in [Combine::Coherent, Combine::Noncoherent, Combine::Hybrid] {
                for &(first, n) in &ranges {
                    let mut want = vec![0.0; n];
                    write_profile_cells_batch_at(
                        levels[0],
                        &[sweep],
                        combine,
                        CellRows::run(first, want.len()),
                        &mut [want.as_mut_slice()],
                    );
                    for &level in &levels[1..] {
                        let mut got = vec![0.0; n];
                        write_profile_cells_batch_at(
                            level,
                            &[sweep],
                            combine,
                            CellRows::run(first, got.len()),
                            &mut [got.as_mut_slice()],
                        );
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
            write_profile_cells(&sweep, Combine::Hybrid, 0, &mut out);
            fx.assert_matches_reference(Combine::Hybrid, 0, &out, name);
        }
    }

    #[test]
    fn tag_batches_are_bit_identical_to_single_tags() {
        // Every tag of a batch must read exactly its own single-tag
        // values, and build exactly its own profile, on every level this
        // host runs, for every batch size: the data comb, a masked
        // sub-comb and off-comb bands, lane strides 4 and 8, even and odd
        // cell counts from even and odd starts, all three combinings.
        let levels = levels_to_test();
        let ranges = [(0, 24), (0, 23), (1, 23), (3, 8), (5, 7), (2, 1)];
        for (k, (name, fx)) in cases().iter().enumerate() {
            let alphas: Vec<Alpha> = (0..MAX_TAGS as u64)
                .map(|t| fx.tag_alpha(1000 * (k as u64 + 1) + t))
                .collect();
            let weights: Vec<ProfileWeights<'_>> = alphas
                .iter()
                .map(|a| ProfileWeights {
                    alpha_re: &a.0,
                    alpha_im: &a.1,
                    n_lanes: fx.n_lanes,
                })
                .collect();
            let profiles: Vec<Vec<f64>> =
                alphas.iter().map(|a| fx.profile_at(levels[0], a)).collect();
            for &level in &levels {
                for size in 1..=MAX_TAGS {
                    let mut built = vec![vec![0.0; fx.lattice.profile_len(fx.n_lanes)]; size];
                    let mut views: Vec<&mut [f64]> =
                        built.iter_mut().map(|o| o.as_mut_slice()).collect();
                    build_profiles_at(level, &fx.plan, &fx.lattice, &weights[..size], &mut views);
                    for (t, p) in built.iter().enumerate() {
                        assert_eq!(
                            bits(p),
                            bits(&profiles[t]),
                            "{name}, {level:?}: profile {t} of {size}"
                        );
                    }
                }
            }
            let tags: Vec<CellSweep<'_>> = profiles.iter().map(|p| fx.sweep(p)).collect();
            for combine in [Combine::Coherent, Combine::Noncoherent, Combine::Hybrid] {
                for &(first, n) in &ranges {
                    let single = |level: SimdLevel, tag: &CellSweep<'_>| {
                        let mut out = vec![0.0; n];
                        write_profile_cells_batch_at(
                            level,
                            &[*tag],
                            combine,
                            CellRows::run(first, out.len()),
                            &mut [out.as_mut_slice()],
                        );
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
                            write_profile_cells_batch_at(
                                level,
                                &tags[..size],
                                combine,
                                CellRows::run(first, n),
                                &mut views,
                            );
                            for (t, out) in outs.iter().enumerate() {
                                assert_eq!(
                                    bits(out),
                                    scalar[t],
                                    "{name}, {combine:?}, cells {first}..{}, {level:?}: tag {t} of {size}",
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
    fn strided_rows_equal_their_contiguous_runs() {
        // A window of a grid's tables is its rows at the grid's stride:
        // each row of one strided call must equal a contiguous call over
        // that row alone, bit for bit, on every level and batch size —
        // odd and even widths (the AVX-512 odd-cell tail per row), one
        // cell, a full-stride window and rows from an odd start.
        let levels = levels_to_test();
        // (first_cell, width, stride) over the fixtures' 24 cells.
        let shapes = [
            (0, 6, 6),
            (1, 5, 6),
            (3, 3, 7),
            (0, 1, 8),
            (2, 7, 11),
            (5, 4, 5),
        ];
        for (name, fx) in &cases() {
            let alphas: Vec<Alpha> = (0..MAX_TAGS as u64).map(|t| fx.tag_alpha(70 + t)).collect();
            let profiles: Vec<Vec<f64>> =
                alphas.iter().map(|a| fx.profile_at(levels[0], a)).collect();
            let tags: Vec<CellSweep<'_>> = profiles.iter().map(|p| fx.sweep(p)).collect();
            for &level in &levels {
                for &(first, width, stride) in &shapes {
                    let n_rows = (24 - first - width) / stride + 1;
                    let rows = CellRows {
                        first_cell: first,
                        width,
                        stride,
                    };
                    let mut outs = vec![vec![0.0; n_rows * width]; MAX_TAGS];
                    let mut views: Vec<&mut [f64]> =
                        outs.iter_mut().map(|o| o.as_mut_slice()).collect();
                    write_profile_cells_batch_at(level, &tags, Combine::Hybrid, rows, &mut views);
                    for (t, out) in outs.iter().enumerate() {
                        for (r, row) in out.chunks_exact(width).enumerate() {
                            let mut want = vec![0.0; width];
                            let at = first + r * stride;
                            write_profile_cells_batch_at(
                                level,
                                &tags[t..=t],
                                Combine::Hybrid,
                                CellRows::run(at, want.len()),
                                &mut [want.as_mut_slice()],
                            );
                            assert_eq!(
                                bits(row),
                                bits(&want),
                                "{name}, {level:?}, rows {rows:?}: tag {t} row {r}"
                            );
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
        let (pa, pb) = (a.profile(), b.profile());
        let mut outs = [vec![0.0; 8], vec![0.0; 8]];
        let [x, y] = &mut outs;
        write_profile_cells_batch(
            &[a.sweep(&pa), b.sweep(&pb)],
            Combine::Hybrid,
            CellRows::run(0, 8),
            &mut [x.as_mut_slice(), y.as_mut_slice()],
        );
    }

    #[test]
    fn scalar_twins_are_bit_identical() {
        // The scalar level runs the `fma`-compiled twins where the CPU has
        // FMA; the portable twins, whose fused ops are libm `fma` calls,
        // must give the same bits — one correctly rounded op either way.
        for (k, freqs) in [data_channels(), off_comb()].iter().enumerate() {
            let fx = fixture_on(89 + k as u64, 9, 5, freqs);
            let alphas: Vec<Alpha> = (0..MAX_TAGS as u64)
                .map(|t| fx.tag_alpha(500 + t))
                .collect();
            let dispatched: Vec<Vec<f64>> = alphas
                .iter()
                .map(|a| fx.profile_at(levels_to_test()[0], a))
                .collect();
            let weights: [ProfileWeights<'_>; MAX_TAGS] = std::array::from_fn(|t| ProfileWeights {
                alpha_re: &alphas[t].0,
                alpha_im: &alphas[t].1,
                n_lanes: fx.n_lanes,
            });
            let mut portable = vec![vec![0.0; fx.lattice.profile_len(fx.n_lanes)]; MAX_TAGS];
            let mut views: Vec<&mut [f64]> =
                portable.iter_mut().map(|o| o.as_mut_slice()).collect();
            let (_, views) = batch_of::<_, _, MAX_TAGS>(&weights, &mut views);
            let gemm = Gemm {
                wavenumbers: &fx.plan.wavenumbers,
                step: fx.plan.step_m,
                first_row: fx.lattice.first_row - GUARD as f64,
                rows: fx.lattice.rows + 2 * GUARD,
                weights: &weights,
            };
            let mut scratch =
                vec![0.0; fx.freqs.len() * BAND_SCRATCH + MAX_TAGS * fx.n_lanes * 2 * gemm.rows];
            phasors_scalar::<MAX_TAGS, 4>(&gemm, Some(views), &mut scratch);
            assert_eq!(portable, dispatched, "profiles");
            let tags: [CellSweep<'_>; MAX_TAGS] = std::array::from_fn(|t| fx.sweep(&dispatched[t]));
            for combine in [Combine::Coherent, Combine::Noncoherent, Combine::Hybrid] {
                let mut portable = vec![vec![0.0; 8]; MAX_TAGS];
                let mut views: Vec<&mut [f64]> =
                    portable.iter_mut().map(|o| o.as_mut_slice()).collect();
                let (_, views) = batch_of::<_, _, MAX_TAGS>(&tags, &mut views);
                cells_scalar(&tags, combine, CellRows::run(1, 8), views);
                for (t, tag) in tags.iter().enumerate() {
                    let mut dispatched = vec![0.0; 8];
                    write_profile_cells_batch_at(
                        levels_to_test()[0],
                        &[*tag],
                        combine,
                        CellRows::run(1, dispatched.len()),
                        &mut [dispatched.as_mut_slice()],
                    );
                    assert_eq!(bits(&dispatched), bits(&portable[t]), "{combine:?} tag {t}");
                }
            }
        }
    }

    /// Eq. 2's tone pair at BLE row `r`, per path and band by `cis`.
    fn tone_reference(lengths: &[f64], gains: &[C64], rows: &[usize]) -> Vec<[C64; 2]> {
        let w_per_m = -std::f64::consts::TAU / SPEED_OF_LIGHT;
        rows.iter()
            .map(|&r| {
                let f = TONE_ROW0_HZ + BLE_CHANNEL_WIDTH_HZ * r as f64;
                [-1.0, 1.0].map(|sign| {
                    let f = f + sign * BLE_GFSK_DEVIATION_HZ;
                    lengths
                        .iter()
                        .zip(gains)
                        .fold(complex::ZERO, |h, (&len, &g)| {
                            h + g * C64::cis(w_per_m * len * f)
                        })
                })
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

    /// The tone sweep of `rows` on `level`.
    fn tones_at(level: SimdLevel, lengths: &[f64], gains: &[C64], rows: &[usize]) -> Vec<[C64; 2]> {
        let mut out = vec![[complex::ZERO; 2]; rows.len()];
        sweep_tones_at(level, lengths, gains, rows.iter().copied(), &mut out);
        out
    }

    fn tone_bits(out: &[[C64; 2]]) -> Vec<u64> {
        out.iter()
            .flatten()
            .flat_map(|h| [h.re.to_bits(), h.im.to_bits()])
            .collect()
    }

    /// Asserts `got` is within 1e-12 of the largest reference tone of
    /// the per-band `cis` reference.
    fn assert_tones_match(got: &[[C64; 2]], lengths: &[f64], gains: &[C64], rows: &[usize]) {
        let want = tone_reference(lengths, gains, rows);
        let scale: f64 = want
            .iter()
            .flatten()
            .map(|h| h.abs())
            .fold(f64::MIN_POSITIVE, f64::max);
        for (k, (got, want)) in got.iter().zip(&want).enumerate() {
            for t in 0..2 {
                assert!(
                    (got[t] - want[t]).abs() <= 1e-12 * scale,
                    "row {} tone {t}: {:?} vs {:?}",
                    rows[k],
                    got[t],
                    want[t]
                );
            }
        }
    }

    /// On every level, each row set's sweep matches the per-band
    /// reference and holds the bits of the full 40-row sweep.
    fn assert_row_sets_match(lengths: &[f64], gains: &[C64], row_sets: &[&[usize]]) {
        let all: Vec<usize> = (0..40).collect();
        for &level in &levels_to_test() {
            let full = tones_at(level, lengths, gains, &all);
            for rows in row_sets {
                let out = tones_at(level, lengths, gains, rows);
                assert_tones_match(&out, lengths, gains, rows);
                let want: Vec<[C64; 2]> = rows.iter().map(|&r| full[r]).collect();
                assert_eq!(
                    tone_bits(&out),
                    tone_bits(&want),
                    "{level:?}, rows {rows:?}"
                );
            }
        }
    }

    #[test]
    fn tone_sweep_matches_per_band_cis() {
        // Sounding order shuffled with a duplicate channel; an empty path
        // set sums to zero.
        let (lengths, gains) = tone_fixture(5, 24);
        assert_row_sets_match(&lengths, &gains, &[&[12, 0, 39, 0, 1]]);
        for &level in &levels_to_test() {
            let none = tones_at(level, &[], &[], &[3, 8]);
            assert_eq!(none, vec![[complex::ZERO; 2]; 2]);
        }
    }

    #[test]
    fn tone_sweep_off_comb_and_degenerate_fall_back() {
        // Rows index the 2 MHz channel grid, so no off-grid input can be
        // built; the degenerate row sets (none, one, one twice) run the
        // same GEMM as every other set and must still match.
        let (lengths, gains) = tone_fixture(9, 7);
        assert_row_sets_match(&lengths, &gains, &[&[], &[17], &[17, 17]]);
    }

    #[test]
    fn tone_sweep_sparse_comb_uses_gap_walk_and_matches() {
        // Sparse sets with holes of many rows: the GEMM serves them
        // without a separate gap walk and they must still match.
        let (lengths, gains) = tone_fixture(13, 11);
        assert_row_sets_match(&lengths, &gains, &[&[0, 1, 39], &[33, 2, 20]]);
    }

    #[test]
    fn tone_scratch_reuses_buffers() {
        // The sweep's scratch is per thread: a warm sweep of the same
        // size neither regrows it nor changes a bit.
        let (lengths, gains) = tone_fixture(21, 5);
        let rows: Vec<usize> = (0..40).collect();
        let capacity = || {
            let scratch = PHASOR_SCRATCH.take();
            let cap = scratch.capacity();
            PHASOR_SCRATCH.set(scratch);
            cap
        };
        let first = tones_at(levels_to_test()[0], &lengths, &gains, &rows);
        let cap = capacity();
        let again = tones_at(levels_to_test()[0], &lengths, &gains, &rows);
        assert_eq!(capacity(), cap, "warm sweep must not regrow");
        assert_eq!(
            tone_bits(&again),
            tone_bits(&first),
            "repeat sweep is bit-identical"
        );
    }

    #[test]
    fn tone_sweep_dispatch_paths_are_bit_identical() {
        // Every level, and the portable scalar twin whose fused ops are
        // libm `fma` calls, give the dispatched scalar level's bits.
        let (lengths, gains) = tone_fixture(17, 40);
        let rows: Vec<usize> = (1..=38).filter(|&r| r != 12).collect();
        let levels = levels_to_test();
        let want = tone_bits(&tones_at(levels[0], &lengths, &gains, &rows));
        for &level in &levels[1..] {
            let got = tones_at(level, &lengths, &gains, &rows);
            assert_eq!(tone_bits(&got), want, "{level:?} diverged");
        }
        let mut got = vec![[complex::ZERO; 2]; rows.len()];
        tone_sweep(
            &lengths,
            &gains,
            rows.iter().copied(),
            &mut got,
            |gemm, s| phasors_scalar::<1, 2>(gemm, None, s),
        );
        assert_eq!(tone_bits(&got), want, "portable scalar twin diverged");
    }
}
