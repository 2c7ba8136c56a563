//! The fast likelihood engine: phasor-recurrence kernels, SoA channel
//! layout, geometry caching and parallel grid evaluation.
//!
//! Everything the localizer does reduces to evaluating Eq. 17,
//! `P_i(x) = |Σ_j Σ_k α^{f_k}_ij · e^{ι2πf_k Δ_ij(x)/c}|`, over a dense
//! 2-D grid. The naive evaluation (kept verbatim as [`ReferenceKernel`])
//! pays one `sin`+`cos` per (cell × antenna × band). This module layers
//! three optimizations on top, each independently verified against the
//! reference (see `tests/kernel_equivalence.rs`):
//!
//! 1. **Phasor recurrence**: BLE's data channels sit on a uniform 2 MHz
//!    comb, so `f_k = f_base + n_k·s` with integer `n_k`, and
//!    `e^{ι2πf_kΔ/c} = e^{ι2πf_baseΔ/c} · (e^{ι2πsΔ/c})^{n_k}` —
//!    two `cis` calls per (cell, antenna) seed a complex-rotation
//!    recurrence across all bands. The identity is *exact* (no small-angle
//!    approximation); [`BandPlan`] detects the comb and the kernel falls
//!    back to per-band `cis` when surviving bands don't sit on one. The
//!    recurrence itself lives in [`bloc_num::sweep`] — one SIMD
//!    implementation shared with the channel synthesizer — and
//!    [`RecurrenceKernel`] is the thin adapter that feeds it.
//! 2. **SoA layout + geometry cache**: [`SoaChannels`] re-packs the
//!    per-band `alpha[i][j]` tensor into the kernel's split re/im
//!    lane-padded layout, and [`SteeringCache`] memoizes the seed/step
//!    phasors of the per-cell relative distances `Δ_ij(x)` (Eq. 14) —
//!    four arrays per block, seed and step, re and im — keyed by (grid,
//!    anchor geometry, comb): a deployment sounds thousands of times
//!    against the same grid, and the geometry never changes. `Δ` itself
//!    is recomputed from the geometry where it is read (the off-comb
//!    fallback and [`SteeringTables::cell_deltas`]). The
//!    tables are indexed by the grid and filled lazily in small tiles;
//!    every evaluation reads a [`GridPatch`] *window* of them — the whole
//!    grid for a dense map, a patch for a hierarchical level — so a
//!    moving patch reuses its grid's one table instead of building its
//!    own, and its cells equal the dense map's bit for bit.
//! 3. **Coarse parallelism**: the joint likelihood fans out across
//!    *anchors* and single-anchor maps across row *chunks*, both through
//!    [`bloc_num::par`] with work-size thresholding
//!    ([`bloc_num::par::tuned_threads`]) so small problems never pay
//!    spawn overhead — bit-identically for every thread count.
//! 4. **Sounding batches**: a cell's rotation chain depends on the
//!    geometry and the comb, never on the tag.
//!    [`LikelihoodEngine::likelihood_batch`] groups soundings that share
//!    a steering entry, comb walk, lane strides and alive anchors, up to
//!    [`sweep::MAX_TAGS`] per group, and the kernel advances each chain
//!    once for the whole group
//!    ([`bloc_num::sweep::write_comb_cells_batch`]); only the channel
//!    weights and accumulators are per sounding, so every sounding's
//!    maps equal a call of its own bit for bit. The single-sounding
//!    entries are its batch of one. The Δ array the tables no longer
//!    store pays for the batch's extra maps in heap.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use bloc_chan::AnchorArray;
use bloc_num::constants::SPEED_OF_LIGHT;
use bloc_num::sweep::{self, CellSweep, Combine, OffCombSweep, MAX_TAGS};
use bloc_num::{Grid2D, GridPatch, GridSpec, C64, P2};

use crate::correction::CorrectedChannels;
use crate::likelihood::AntennaCombining;

/// The frequency walk a recurrence kernel takes across surviving bands —
/// now the workspace-wide [`bloc_num::sweep::CombPlan`]; the alias keeps
/// the engine's public vocabulary (`order` indexes
/// `CorrectedChannels::bands`).
pub use bloc_num::sweep::CombPlan as BandPlan;

/// Rounds an antenna count up to the kernel's 4-wide lane stride.
#[inline]
fn lane_stride(n_antennas: usize) -> usize {
    n_antennas.div_ceil(4).max(1) * 4
}

fn combine_of(combining: AntennaCombining) -> Combine {
    match combining {
        AntennaCombining::Coherent => Combine::Coherent,
        AntennaCombining::NoncoherentAntennas => Combine::Noncoherent,
        AntennaCombining::Hybrid => Combine::Hybrid,
    }
}

/// Corrected channels re-packed for the sweep kernel: per anchor, split
/// re/im row-major tensors padded to the 4-wide lane stride
/// (`alpha_re[i][row·n_lanes[i] + j]`, padding lanes exactly zero so
/// they contribute nothing). All antennas of a row sit adjacent, so the
/// kernel advances every antenna's rotation chain in lockstep — one SIMD
/// lane per antenna.
///
/// On a uniform comb whose occupied slots nearly fill its span (the BLE
/// data comb: 37 bands over 38 slots, one hole at the skipped
/// advertising channel), rows are laid out per **absolute comb slot**
/// with all-zero rows at the holes. The zero rows cost one multiply-add
/// each but let the kernel walk a gapless comb, which engages its
/// two-chain dense recurrence — worth far more than the holes cost.
/// Sparse survivor sets (heavy dropout) and off-comb bands keep the
/// compact planned-order layout.
#[derive(Debug, Clone)]
pub struct SoaChannels {
    /// The band walk shared by every slice.
    pub plan: BandPlan,
    /// Antennas per anchor.
    pub n_antennas: Vec<usize>,
    /// Lane stride per anchor (`n_antennas` rounded up to 4).
    n_lanes: Vec<usize>,
    /// `alpha_re[i][row·n_lanes[i] + j]` — row-major per anchor.
    alpha_re: Vec<Vec<f64>>,
    /// Imaginary parts, same indexing.
    alpha_im: Vec<Vec<f64>>,
    /// True when alpha rows are absolute comb slots (holes zero-filled)
    /// rather than planned-band order.
    slot_rows: bool,
    /// The slot advances handed to the kernel — `[0, 1, 1, …]` over the
    /// span under slot layout, [`CombPlan::gaps`] otherwise.
    kernel_gaps: Vec<u32>,
    /// Scratch for the band frequencies handed to the planner.
    freqs_scratch: Vec<f64>,
}

impl SoaChannels {
    /// An empty re-pack, ready for [`SoaChannels::rebuild`] — what the
    /// engine's scratch arena holds between calls.
    pub fn empty() -> Self {
        Self {
            plan: BandPlan::build(&[]),
            n_antennas: Vec::new(),
            n_lanes: Vec::new(),
            alpha_re: Vec::new(),
            alpha_im: Vec::new(),
            slot_rows: false,
            kernel_gaps: Vec::new(),
            freqs_scratch: Vec::new(),
        }
    }

    /// Re-packs `corrected` (masked entries stay exact zeros, so they
    /// still contribute nothing to the correlation sums).
    pub fn build(corrected: &CorrectedChannels) -> Self {
        let mut soa = Self::empty();
        soa.rebuild(corrected);
        soa
    }

    /// [`SoaChannels::build`] into `self`, reusing the tensor buffers —
    /// the warm-path entry: after the first sounding of a deployment no
    /// per-call tensor allocation remains.
    pub fn rebuild(&mut self, corrected: &CorrectedChannels) {
        self.freqs_scratch.clear();
        self.freqs_scratch
            .extend(corrected.bands.iter().map(|b| b.freq_hz));
        self.plan = BandPlan::build(&self.freqs_scratch);
        let nb = corrected.bands.len();
        let n = corrected.n_anchors();
        self.n_antennas.clear();
        self.n_antennas
            .extend(corrected.anchors.iter().map(|a| a.n_antennas));
        self.n_lanes.clear();
        self.n_lanes
            .extend(self.n_antennas.iter().map(|&nj| lane_stride(nj)));
        // Slot layout pays one zero row per comb hole; cap the overhead
        // at 25% extra rows before falling back to the compact walk.
        let span = self.plan.span();
        self.slot_rows = self.plan.is_uniform_comb() && span <= nb + nb / 4;
        let rows = if self.slot_rows { span } else { nb };
        self.kernel_gaps.clear();
        if self.slot_rows {
            self.kernel_gaps.extend((0..rows).map(|r| u32::from(r > 0)));
        } else {
            self.kernel_gaps.extend_from_slice(&self.plan.gaps);
        }
        self.alpha_re.resize_with(n, Vec::new);
        self.alpha_im.resize_with(n, Vec::new);
        for i in 0..n {
            let nj = self.n_antennas[i];
            let nl = self.n_lanes[i];
            let re = &mut self.alpha_re[i];
            let im = &mut self.alpha_im[i];
            re.clear();
            re.resize(rows * nl, 0.0);
            im.clear();
            im.resize(rows * nl, 0.0);
            for (k, &b) in self.plan.order.iter().enumerate() {
                let row = if self.slot_rows {
                    self.plan.slots[k] as usize
                } else {
                    k
                } * nl;
                for j in 0..nj {
                    let a = corrected.bands[b].alpha[i][j];
                    re[row + j] = a.re;
                    im[row + j] = a.im;
                }
            }
        }
    }

    /// The alpha tensor row holding planned band `k`.
    fn alpha_row(&self, k: usize) -> usize {
        if self.slot_rows {
            self.plan.slots[k] as usize
        } else {
            k
        }
    }

    /// Number of planned bands.
    pub fn n_bands(&self) -> usize {
        self.plan.freqs.len()
    }

    /// The antennas of anchor `i` at planned band `slot`, re-assembled
    /// from the split layout (a copy — layout inspection, not a hot
    /// path).
    pub fn band_antennas(&self, i: usize, slot: usize) -> Vec<C64> {
        let nj = self.n_antennas[i];
        let nl = self.n_lanes[i];
        let row = self.alpha_row(slot) * nl;
        (0..nj)
            .map(|j| C64::new(self.alpha_re[i][row + j], self.alpha_im[i][row + j]))
            .collect()
    }
}

/// Width, in cells, of a fill tile — the unit of lazy fill.
const TILE_W: usize = 4;
/// Height, in grid rows, of a fill tile. Tiles this small fill little
/// beyond a refine patch's own cells (33 across on the 8 cm corridor
/// grid), so an acquisition round fills about as many cells as its
/// patches evaluate.
const TILE_H: usize = 2;
/// Width, in cells, of a storage block (a multiple of [`TILE_W`]).
/// Storage is coarser than fill so one sweep-kernel call covers up to a
/// whole block — with 4-cell runs the per-call cost slows dense sweeps —
/// while a block stays small enough that sparse fills touch little
/// memory beyond their tiles.
const BLOCK_W: usize = 16;
/// Height, in grid rows, of a storage block (a multiple of [`TILE_H`]).
const BLOCK_H: usize = 4;

/// One anchor's lane-padded steering tables over the cells of one block,
/// row-major, borrowed from the block's storage.
struct AnchorLanes<'a> {
    /// `e^{ι2πf_baseΔ/c}` real parts, `seed_re[cell·n_lanes + j]`,
    /// cell-major; padding lanes hold the neutral phasor `1 + 0ι` (finite,
    /// so a zero alpha annihilates it exactly — garbage here could
    /// produce `0 × ∞ = NaN`).
    seed_re: &'a [f64],
    /// Seed imaginary parts.
    seed_im: &'a [f64],
    /// `e^{ι2πsΔ/c}` (comb-step rotation) real parts, same indexing.
    step_re: &'a [f64],
    /// Step imaginary parts.
    step_im: &'a [f64],
}

/// Per-cell steering geometry for one (grid, deployment, band-comb)
/// triple: for every cell and every (anchor, antenna), the two phasors
/// the recurrence kernel seeds from the relative distance `Δ_ij(x) =
/// d_ij(x) − d_00(x) − d^{i0}_{00}` of Eq. 14 — `e^{ι2πf_baseΔ/c}` and
/// `e^{ι2πsΔ/c}`, each as a real and an imaginary array (four arrays per
/// block). Hoisting the phasors into the cache removes every
/// transcendental call from the steady-state per-sounding path: the warm
/// kernel is pure complex multiply-adds. `Δ` itself is not stored: only
/// the off-comb fallback and [`SteeringTables::cell_deltas`] read it, and
/// they recompute it from the geometry with the one expression the fill
/// uses, so it is the same value bit for bit.
///
/// The tables are indexed by the parent grid and filled lazily, one
/// 4×2-cell tile (`TILE_W`×`TILE_H`) at a time, the first time a window
/// touches it ([`SteeringTables::fill`]); every cell's values are
/// computed from `spec.cell_center(ix, iy)` exactly as a whole-grid
/// build computes them, so the fill order never changes a bit. Storage
/// is one 16×4-cell block (`BLOCK_W`×`BLOCK_H`) at a time, allocated by
/// the block's first tile. A fine patch is a window into its grid's one
/// table, not a table of its own.
#[derive(Debug)]
pub struct SteeringTables {
    spec: GridSpec,
    /// Antenna positions per anchor.
    antennas: Vec<Vec<P2>>,
    /// The master anchor's first antenna, the reference of `d_00`.
    master0: P2,
    master_anchor_dist: Vec<f64>,
    base_hz: f64,
    step_hz: f64,
    n_lanes: Vec<usize>,
    /// Lanes of the anchors before anchor `i` (its table offset in a
    /// block, in units of `4 · block cells`); the last entry is the total.
    lane_base: Vec<usize>,
    /// Fill markers, row-major over tiles; each tile is computed at most
    /// once.
    tiles: Vec<OnceLock<()>>,
    /// Block storage, row-major over blocks: anchor `i`'s four tables
    /// (seed re/im, step re/im, each `block cells · n_lanes[i]` long)
    /// from offset `4 · block cells · lane_base[i]`.
    /// Empty until the block's first tile fills; tiles write under the
    /// block's write lock, the kernel reads under its read lock.
    blocks: Vec<RwLock<Vec<f64>>>,
    /// Payload bytes of the tiles filled so far.
    filled_bytes: AtomicUsize,
}

/// A storage block's extent in the grid — ragged at the grid's last block
/// column and row.
#[derive(Debug, Clone, Copy)]
struct BlockShape {
    /// First column.
    x0: usize,
    /// First row.
    y0: usize,
    /// Columns (the block's row stride).
    nx: usize,
    /// Rows.
    ny: usize,
}

impl BlockShape {
    fn cells(&self) -> usize {
        self.nx * self.ny
    }

    /// The block-local index of grid cell `(ix, iy)`.
    fn cell(&self, ix: usize, iy: usize) -> usize {
        (iy - self.y0) * self.nx + ix - self.x0
    }

    /// The grid cell `(ix, iy)` of block-local cell `cell`.
    fn grid_cell(&self, cell: usize) -> (usize, usize) {
        (self.x0 + cell % self.nx, self.y0 + cell / self.nx)
    }
}

/// Tables per anchor in a storage block: seed and step phasors, real and
/// imaginary parts.
const TABLES_PER_ANCHOR: usize = 4;

impl SteeringTables {
    /// Tables for this (grid, deployment, comb) with no tile filled yet.
    /// `base_hz` and `step_hz` are the [`BandPlan`] comb parameters (0
    /// disables the phasor tables' usefulness but is still a valid
    /// build).
    pub fn empty(
        spec: GridSpec,
        anchors: &[AnchorArray],
        master_anchor_dist: &[f64],
        base_hz: f64,
        step_hz: f64,
    ) -> Self {
        let n_lanes: Vec<usize> = anchors.iter().map(|a| lane_stride(a.n_antennas)).collect();
        let lane_base = std::iter::once(0)
            .chain(n_lanes.iter().scan(0, |sum, &nl| {
                *sum += nl;
                Some(*sum)
            }))
            .collect();
        let n_tiles = spec.ny.div_ceil(TILE_H) * spec.nx.div_ceil(TILE_W);
        let n_blocks = spec.ny.div_ceil(BLOCK_H) * spec.nx.div_ceil(BLOCK_W);
        Self {
            spec,
            antennas: anchors.iter().map(|a| a.antennas()).collect(),
            master0: anchors
                .first()
                .map(|a| a.antenna(0))
                .unwrap_or(P2::new(0.0, 0.0)),
            master_anchor_dist: master_anchor_dist.to_vec(),
            base_hz,
            step_hz,
            n_lanes,
            lane_base,
            tiles: (0..n_tiles).map(|_| OnceLock::new()).collect(),
            blocks: (0..n_blocks).map(|_| RwLock::new(Vec::new())).collect(),
            filled_bytes: AtomicUsize::new(0),
        }
    }

    /// The tables over the whole grid, every tile filled.
    pub fn build(
        spec: GridSpec,
        anchors: &[AnchorArray],
        master_anchor_dist: &[f64],
        base_hz: f64,
        step_hz: f64,
    ) -> Self {
        let tables = Self::empty(spec, anchors, master_anchor_dist, base_hz, step_hz);
        tables.fill(&GridPatch::whole(spec));
        tables
    }

    /// Fills every tile `window` (a window of [`SteeringTables::spec`])
    /// touches and returns how many this call computed. Each tile is
    /// computed exactly once: a concurrent caller reaching a tile another
    /// is computing waits for that tile only.
    pub fn fill(&self, window: &GridPatch) -> usize {
        if window.spec.is_empty() {
            return 0;
        }
        let tiles_x = self.spec.nx.div_ceil(TILE_W);
        let mut computed = 0;
        for ty in window.y0 / TILE_H..=(window.y0 + window.spec.ny - 1) / TILE_H {
            for tx in window.x0 / TILE_W..=(window.x0 + window.spec.nx - 1) / TILE_W {
                self.tiles[ty * tiles_x + tx].get_or_init(|| {
                    computed += 1;
                    self.compute_tile(tx, ty);
                });
            }
        }
        computed
    }

    /// The block holding grid cell `(ix, iy)`: its index into `blocks`
    /// and its shape.
    fn block(&self, ix: usize, iy: usize) -> (usize, BlockShape) {
        let (bx, by) = (ix / BLOCK_W, iy / BLOCK_H);
        let (x0, y0) = (bx * BLOCK_W, by * BLOCK_H);
        let shape = BlockShape {
            x0,
            y0,
            nx: BLOCK_W.min(self.spec.nx - x0),
            ny: BLOCK_H.min(self.spec.ny - y0),
        };
        (by * self.spec.nx.div_ceil(BLOCK_W) + bx, shape)
    }

    /// The one place that pays the per-cell distance arithmetic and
    /// phasor seeding: tile `(tx, ty)`, written into its block under the
    /// block's write lock.
    fn compute_tile(&self, tx: usize, ty: usize) {
        let spec = self.spec;
        let (x0, y0) = (tx * TILE_W, ty * TILE_H);
        let (x1, y1) = ((x0 + TILE_W).min(spec.nx), (y0 + TILE_H).min(spec.ny));
        let (b, shape) = self.block(x0, y0);
        let block_cells = shape.cells();
        let total_lanes = self.lane_base.last().copied().unwrap_or(0);
        let tau_over_c = std::f64::consts::TAU / SPEED_OF_LIGHT;
        let (base_hz, step_hz) = (self.base_hz, self.step_hz);
        // A fill that panicked left only its own tile's cells half
        // written, and that tile stays unfilled, so recovering is sound.
        let mut block = self.blocks[b].write().unwrap_or_else(|e| e.into_inner());
        if block.is_empty() {
            *block = vec![0.0; TABLES_PER_ANCHOR * block_cells * total_lanes];
        }
        let mut rest = block.as_mut_slice();
        for (i, positions) in self.antennas.iter().enumerate() {
            let nl = self.n_lanes[i];
            let len = block_cells * nl;
            let (tables, tail) = rest.split_at_mut(TABLES_PER_ANCHOR * len);
            rest = tail;
            let (seed_re, tables) = tables.split_at_mut(len);
            let (seed_im, tables) = tables.split_at_mut(len);
            let (step_re, step_im) = tables.split_at_mut(len);
            for iy in y0..y1 {
                for ix in x0..x1 {
                    let cell = shape.cell(ix, iy);
                    for (j, d) in self.deltas_at(i, ix, iy).enumerate() {
                        let w = tau_over_c * d;
                        let k = cell * nl + j;
                        let s = C64::cis(w * base_hz);
                        let r = C64::cis(w * step_hz);
                        seed_re[k] = s.re;
                        seed_im[k] = s.im;
                        step_re[k] = r.re;
                        step_im[k] = r.im;
                    }
                    for k in cell * nl + positions.len()..(cell + 1) * nl {
                        seed_re[k] = 1.0;
                        step_re[k] = 1.0;
                    }
                }
            }
        }
        let bytes =
            TABLES_PER_ANCHOR * (x1 - x0) * (y1 - y0) * total_lanes * std::mem::size_of::<f64>();
        self.filled_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Eq. 14's relative distances `Δ_ij` of anchor `i` at grid cell
    /// `(ix, iy)`, one per antenna `j` — the one expression the table
    /// fill, the off-comb fallback and [`SteeringTables::cell_deltas`]
    /// share, so all three see the same value bit for bit.
    fn deltas_at(&self, i: usize, ix: usize, iy: usize) -> impl Iterator<Item = f64> + '_ {
        let x = self.spec.cell_center(ix, iy);
        let d_00 = x.dist(self.master0);
        let d_i0 = self.master_anchor_dist[i];
        self.antennas[i]
            .iter()
            .map(move |&p| x.dist(p) - d_00 - d_i0)
    }

    /// Anchor `i`'s tables within the storage of a block of `cells`
    /// cells.
    fn lanes<'b>(&self, block: &'b [f64], cells: usize, i: usize) -> AnchorLanes<'b> {
        let len = cells * self.n_lanes[i];
        let tables =
            &block[TABLES_PER_ANCHOR * cells * self.lane_base[i]..][..TABLES_PER_ANCHOR * len];
        let (seed_re, rest) = tables.split_at(len);
        let (seed_im, rest) = rest.split_at(len);
        let (step_re, step_im) = rest.split_at(len);
        AnchorLanes {
            seed_re,
            seed_im,
            step_re,
            step_im,
        }
    }

    /// The grid the tables were built for.
    pub fn spec(&self) -> GridSpec {
        self.spec
    }

    /// Approximate heap footprint of the tiles filled so far (the payload
    /// vectors; headers and unfilled slots are noise next to them). It
    /// grows as windows fill tiles and feeds the
    /// `cache.steering.resident_bytes` gauge and the LRU byte budget.
    pub fn approx_bytes(&self) -> usize {
        self.filled_bytes.load(Ordering::Relaxed)
    }

    /// The `Δ_ij` of one cell for anchor `i` (length = antennas of `i`,
    /// indexed by `j` — padding lanes excluded), recomputed from the
    /// geometry exactly as the fill computes it. Inspection, not a hot
    /// path.
    pub fn cell_deltas(&self, i: usize, cell: usize) -> Vec<f64> {
        let nx = self.spec.nx.max(1);
        self.deltas_at(i, cell % nx, cell / nx).collect()
    }

    /// Evaluates anchor `i` over whole rows of `window`, whose tiles are
    /// filled, for every sounding of a batch that shares these tables:
    /// `outs[t]` holds sounding `t`'s window rows `r0 ..`. Each block the
    /// rows cross is read under its read lock: one sweep-kernel call for
    /// all its rows when the window spans the block's width, else one per
    /// row segment, each at its block-local `first_cell`.
    fn sweep_rows(
        &self,
        soas: &[&SoaChannels],
        i: usize,
        combine: Combine,
        window: &GridPatch,
        r0: usize,
        outs: &mut [&mut [f64]],
    ) {
        let (x0, nx) = (window.x0, window.spec.nx.max(1));
        let rows = outs.first().map_or(0, |o| o.len()) / nx;
        let n_tags = outs.len();
        let mut r = 0;
        while r < rows {
            let iy = window.y0 + r0 + r;
            let group = (BLOCK_H - iy % BLOCK_H).min(rows - r);
            let mut x = x0;
            while x < x0 + nx {
                let (b, shape) = self.block(x, iy);
                let n = (shape.x0 + shape.nx - x).min(x0 + nx - x);
                let block = self.blocks[b].read().unwrap_or_else(|e| e.into_inner());
                let lanes = self.lanes(&block, shape.cells(), i);
                let at = |k: usize| (r + k) * nx + x - x0;
                if n == shape.nx && group > 1 {
                    // The group's rows are contiguous in the block.
                    let mut cells = [[0.0; BLOCK_W * BLOCK_H]; MAX_TAGS];
                    let mut views: [&mut [f64]; MAX_TAGS] = Default::default();
                    for (view, c) in views.iter_mut().zip(&mut cells) {
                        *view = &mut c[..group * n];
                    }
                    let first = shape.cell(x, iy);
                    let views = &mut views[..n_tags];
                    self.sweep_cells(&lanes, soas, i, combine, &shape, first, views);
                    for (out, c) in outs.iter_mut().zip(&cells) {
                        for (k, row) in c[..group * n].chunks_exact(n).enumerate() {
                            out[at(k)..at(k) + n].copy_from_slice(row);
                        }
                    }
                } else {
                    for k in 0..group {
                        let first = shape.cell(x, iy + k);
                        let mut views: [&mut [f64]; MAX_TAGS] = Default::default();
                        for (view, out) in views.iter_mut().zip(outs.iter_mut()) {
                            *view = &mut out[at(k)..at(k) + n];
                        }
                        let views = &mut views[..n_tags];
                        self.sweep_cells(&lanes, soas, i, combine, &shape, first, views);
                    }
                }
                x += n;
            }
            r += group;
        }
    }

    /// One sweep-kernel call: anchor `i` over block cells `first_cell ..
    /// first_cell + n` of `lanes` for every sounding of the batch, `n`
    /// being the length of each `outs[t]`.
    #[allow(clippy::too_many_arguments)]
    fn sweep_cells(
        &self,
        lanes: &AnchorLanes<'_>,
        soas: &[&SoaChannels],
        i: usize,
        combine: Combine,
        shape: &BlockShape,
        first_cell: usize,
        outs: &mut [&mut [f64]],
    ) {
        let nl = self.n_lanes[i];
        let Some(lead) = soas.first() else {
            return;
        };
        debug_assert!(soas.iter().all(|soa| soa.n_lanes[i] == nl));
        if lead.plan.is_uniform_comb() {
            // The cached seed/step phasors make this branch free of
            // transcendentals: pure complex multiply-adds, and one
            // rotation chain per (cell, antenna) for the whole batch.
            let tags: [CellSweep<'_>; MAX_TAGS] = std::array::from_fn(|t| {
                let soa = soas[t.min(soas.len() - 1)];
                CellSweep {
                    seed_re: lanes.seed_re,
                    seed_im: lanes.seed_im,
                    step_re: lanes.step_re,
                    step_im: lanes.step_im,
                    alpha_re: &soa.alpha_re[i],
                    alpha_im: &soa.alpha_im[i],
                    n_lanes: nl,
                    gaps: &lead.kernel_gaps,
                }
            });
            sweep::write_comb_cells_batch(&tags[..soas.len()], combine, first_cell, outs);
        } else {
            // Off-comb: the per-band `cis` fallback, on `Δ` recomputed
            // from the geometry (padding lanes 0, like their zero alphas).
            let n = outs.first().map_or(0, |o| o.len());
            let mut delta = vec![0.0; n * nl];
            for (c, row) in delta.chunks_exact_mut(nl).enumerate() {
                let (ix, iy) = shape.grid_cell(first_cell + c);
                for (slot, d) in row.iter_mut().zip(self.deltas_at(i, ix, iy)) {
                    *slot = d;
                }
            }
            for (soa, out) in soas.iter().zip(outs.iter_mut()) {
                let view = OffCombSweep {
                    delta: &delta,
                    alpha_re: &soa.alpha_re[i],
                    alpha_im: &soa.alpha_im[i],
                    n_lanes: nl,
                    freqs: &soa.plan.freqs,
                    phase_per_hz: std::f64::consts::TAU / SPEED_OF_LIGHT,
                };
                sweep::write_offcomb_cells(&view, combine, 0, out);
            }
        }
    }
}

/// A concurrency-safe memo of [`SteeringTables`] keyed by (grid spec,
/// anchor geometry, master-anchor distances). Clones share the underlying
/// map, so a localizer cloned across sweep workers computes each
/// deployment's geometry exactly once.
///
/// An entry is created empty and its tiles fill as windows touch them,
/// outside the cache-wide lock: a corridor-size fill for one key never
/// stalls another key's lookup. Entries grow after insert, so the
/// resident-byte gauge and the LRU budget are charged as tiles fill.
///
/// Telemetry follows the workspace cache convention
/// ([`bloc_obs::CacheStats`]): `cache.steering.{hits,misses,
/// invalidations,invalidations.<cause>,evicted}` counters plus
/// `cache.steering.resident_{entries,bytes}` gauges.
#[derive(Debug, Clone)]
pub struct SteeringCache {
    inner: Arc<Mutex<CacheInner>>,
    stats: bloc_obs::CacheStats,
}

/// One resident steering geometry plus the last access tick the LRU
/// budget orders by; its size is read live from the tables.
#[derive(Debug)]
struct CacheEntry {
    tables: Arc<SteeringTables>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<Vec<u64>, CacheEntry>,
    /// Monotone access clock; bumped on every lookup so eviction can
    /// order entries by recency without timestamps.
    tick: u64,
    /// Resident-byte ceiling; `None` (the default) never evicts.
    byte_budget: Option<usize>,
}

impl CacheInner {
    fn resident_bytes(&self) -> usize {
        self.map.values().map(|e| e.tables.approx_bytes()).sum()
    }
}

impl Default for SteeringCache {
    fn default() -> Self {
        Self {
            inner: Arc::default(),
            stats: bloc_obs::CacheStats::global("steering"),
        }
    }
}

fn push_f64(key: &mut Vec<u64>, v: f64) {
    key.push(v.to_bits());
}

fn cache_key(
    spec: GridSpec,
    anchors: &[AnchorArray],
    master_anchor_dist: &[f64],
    base_hz: f64,
    step_hz: f64,
) -> Vec<u64> {
    let mut key = Vec::with_capacity(8 + anchors.len() * 7 + master_anchor_dist.len());
    push_f64(&mut key, base_hz);
    push_f64(&mut key, step_hz);
    push_f64(&mut key, spec.origin.x);
    push_f64(&mut key, spec.origin.y);
    push_f64(&mut key, spec.resolution);
    key.push(spec.nx as u64);
    key.push(spec.ny as u64);
    key.extend_from_slice(&anchor_fingerprint(anchors));
    for &d in master_anchor_dist {
        push_f64(&mut key, d);
    }
    key
}

/// Offset of the anchor-geometry segment inside a cache key (after the
/// two comb frequencies and the five grid-spec words).
const KEY_ANCHOR_OFFSET: usize = 7;

/// The anchor-geometry words of a cache key: 6 per anchor, exactly as
/// [`cache_key`] lays them out. [`SteeringCache::invalidate_geometry`]
/// matches cached entries on this segment.
fn anchor_fingerprint(anchors: &[AnchorArray]) -> Vec<u64> {
    let mut fp = Vec::with_capacity(anchors.len() * 6);
    for a in anchors {
        push_f64(&mut fp, a.origin.x);
        push_f64(&mut fp, a.origin.y);
        push_f64(&mut fp, a.axis.x);
        push_f64(&mut fp, a.axis.y);
        push_f64(&mut fp, a.spacing);
        fp.push(a.n_antennas as u64);
    }
    fp
}

impl SteeringCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tables for this (grid, deployment, comb) with every tile
    /// filled — [`SteeringCache::window`] over the whole grid.
    pub fn tables(
        &self,
        spec: GridSpec,
        anchors: &[AnchorArray],
        master_anchor_dist: &[f64],
        base_hz: f64,
        step_hz: f64,
    ) -> Arc<SteeringTables> {
        let whole = GridPatch::whole(spec);
        self.window(spec, anchors, master_anchor_dist, base_hz, step_hz, &whole)
    }

    /// The tables for this (grid, deployment, comb) with at least the
    /// tiles under `window` (a window of `spec`) filled. The first lookup
    /// of a key inserts it empty (one miss); concurrent callers share
    /// that one entry, and each tile is computed once, by whichever
    /// caller reaches it first, with the cache-wide lock released.
    pub fn window(
        &self,
        spec: GridSpec,
        anchors: &[AnchorArray],
        master_anchor_dist: &[f64],
        base_hz: f64,
        step_hz: f64,
        window: &GridPatch,
    ) -> Arc<SteeringTables> {
        let key = cache_key(spec, anchors, master_anchor_dist, base_hz, step_hz);
        let tables = {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(hit) = inner.map.get_mut(&key) {
                hit.last_used = tick;
                self.stats.hit();
                Arc::clone(&hit.tables)
            } else {
                self.stats.miss();
                let tables = Arc::new(SteeringTables::empty(
                    spec,
                    anchors,
                    master_anchor_dist,
                    base_hz,
                    step_hz,
                ));
                let entry = CacheEntry {
                    tables: Arc::clone(&tables),
                    last_used: tick,
                };
                inner.map.insert(key.clone(), entry);
                self.publish_residency(&inner);
                tables
            }
        };
        if tables.fill(window) > 0 {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            self.enforce_budget(&mut inner, &key);
            self.publish_residency(&inner);
        }
        tables
    }

    /// Evicts least-recently-used entries until resident bytes fit the
    /// budget. The entry that just grew (`keep`) is never evicted — a
    /// single over-budget geometry stays resident so the current caller
    /// can still be served from cache; it becomes an eviction candidate
    /// when another entry grows. Evictions are reported as invalidations
    /// with cause `capacity`.
    fn enforce_budget(&self, inner: &mut CacheInner, keep: &[u64]) {
        let Some(budget) = inner.byte_budget else {
            return;
        };
        let mut resident = inner.resident_bytes();
        let mut evicted = 0usize;
        while resident > budget && inner.map.len() > 1 {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| k.as_slice() != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(entry) = inner.map.remove(&victim) {
                resident = resident.saturating_sub(entry.tables.approx_bytes());
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.stats.invalidated("capacity", evicted);
        }
    }

    /// Pushes the current entry/byte residency to the gauges; callers
    /// hold the map lock.
    fn publish_residency(&self, inner: &CacheInner) {
        self.stats.resident(inner.map.len(), inner.resident_bytes());
    }

    /// Caps resident steering payload bytes; `None` (the default) never
    /// evicts. Applies to every clone sharing this cache. With a budget
    /// set, each tile fill evicts least-recently-used geometries until
    /// the total fits (cause `capacity` in the telemetry), keeping
    /// venue-scale per-level working sets bounded across fleet sites.
    pub fn set_byte_budget(&self, budget: Option<usize>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.byte_budget = budget;
    }

    /// The configured resident-byte ceiling, if any.
    pub fn byte_budget(&self) -> Option<usize> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .byte_budget
    }

    /// Drops every cached deployment built for exactly this anchor
    /// geometry, returning how many entries were removed. The runtime
    /// supervisor calls this when an anchor is quarantined or
    /// re-admitted (and benches call it on a physical geometry swap), so
    /// the engine never serves steering tables for an anchor set that is
    /// no longer the one being localized against. Entries for *other*
    /// anchor subsets — including the new admitted set — are untouched.
    pub fn invalidate_geometry(&self, anchors: &[AnchorArray]) -> usize {
        self.invalidate_geometry_with_cause(anchors, "geometry")
    }

    /// [`SteeringCache::invalidate_geometry`] with the invalidation
    /// attributed to `cause` in `cache.steering.invalidations.<cause>`
    /// (the runtime supervisor passes `breaker`; benches on a physical
    /// geometry swap keep the default `geometry`).
    pub fn invalidate_geometry_with_cause(
        &self,
        anchors: &[AnchorArray],
        cause: &'static str,
    ) -> usize {
        let fp = anchor_fingerprint(anchors);
        // Every key for an n-anchor deployment has 7 + 6n + n words
        // (master distances trail the geometry), so length + segment
        // equality is an exact match, not a prefix heuristic.
        let expect_len = KEY_ANCHOR_OFFSET + fp.len() + anchors.len();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let before = inner.map.len();
        inner.map.retain(|key, _| {
            key.len() != expect_len
                || key[KEY_ANCHOR_OFFSET..KEY_ANCHOR_OFFSET + fp.len()] != fp[..]
        });
        let removed = before - inner.map.len();
        self.stats.invalidated(cause, removed);
        self.publish_residency(&inner);
        removed
    }

    /// Number of cached deployments.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything a kernel needs to evaluate one anchor map over a window for
/// a batch of 1 ..= [`sweep::MAX_TAGS`] soundings that share one steering
/// entry (the recurrence kernel panics on any other batch size). The
/// reference kernel reads `corrected` directly; the fast kernels read the
/// SoA and steering layers.
pub struct KernelInputs<'a> {
    /// The corrected channels of every sounding in the batch, as produced
    /// by [`crate::correction`].
    pub corrected: &'a [&'a CorrectedChannels],
    /// The SoA re-packs of the same channels, in the same order.
    pub soas: &'a [&'a SoaChannels],
    /// The per-cell steering geometry of the parent grid, shared by the
    /// batch.
    pub tables: &'a SteeringTables,
    /// The window of `tables.spec()` to evaluate — the whole grid for a
    /// dense map, a patch for a hierarchical level.
    pub window: GridPatch,
}

/// One interchangeable implementation of the Eq. 17 per-anchor map.
pub trait LikelihoodKernel: Send + Sync + std::fmt::Debug {
    /// A short name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Evaluates anchor `i`'s likelihood map over `inputs.window` for
    /// every sounding of the batch, in batch order, splitting rows across
    /// `threads`. Each map has the window's spec, and each cell's value
    /// is the parent grid's value at that cell for that sounding alone,
    /// bit for bit.
    fn anchor_map(
        &self,
        inputs: &KernelInputs<'_>,
        i: usize,
        combining: AntennaCombining,
        threads: usize,
    ) -> Vec<Grid2D>;
}

/// The naive per-cell evaluation the workspace started with — one
/// `cis` per (cell, antenna, band), distances recomputed per cell. Kept
/// as ground truth for the equivalence suite and the perf baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceKernel;

impl LikelihoodKernel for ReferenceKernel {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn anchor_map(
        &self,
        inputs: &KernelInputs<'_>,
        i: usize,
        combining: AntennaCombining,
        threads: usize,
    ) -> Vec<Grid2D> {
        let spec = inputs.tables.spec();
        inputs
            .corrected
            .iter()
            .map(|&corrected| {
                Grid2D::window_from_fn_par(spec, &inputs.window, threads, |x| {
                    crate::likelihood::reference_cell_value(corrected, i, combining, x)
                })
            })
            .collect()
    }
}

/// The phasor-recurrence kernel: a thin adapter over
/// [`bloc_num::sweep::write_comb_cells_batch`]. Per (cell, antenna) the
/// cached steering tables hold `e^{ι2πf_baseΔ/c}` and the comb rotation
/// `e^{ι2πsΔ/c}`; the shared SIMD kernel advances every antenna's chain
/// in 4-wide lanes across bands by complex multiplication, once for the
/// whole batch. Off-comb band sets fall back to per-band `cis`
/// ([`sweep::write_offcomb_cells`]) with identical combining semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecurrenceKernel;

/// Minimum cells per shard before an anchor map fans out: one cell costs
/// ~150 ns warm, so this keeps each spawn amortized to well under a
/// percent.
const MIN_CELLS_PER_SHARD: usize = 4096;

impl LikelihoodKernel for RecurrenceKernel {
    fn name(&self) -> &'static str {
        "recurrence"
    }

    fn anchor_map(
        &self,
        inputs: &KernelInputs<'_>,
        i: usize,
        combining: AntennaCombining,
        threads: usize,
    ) -> Vec<Grid2D> {
        let window = inputs.window;
        let combine = combine_of(combining);
        let n_tags = inputs.soas.len();
        assert!(
            (1..=MAX_TAGS).contains(&n_tags) && inputs.corrected.len() == n_tags,
            "a kernel batch holds 1..={MAX_TAGS} soundings, each with its SoA re-pack"
        );
        let mut maps: Vec<Grid2D> = (0..n_tags).map(|_| Grid2D::zeros(window.spec)).collect();
        let n_cells = window.spec.len();
        let nx = window.spec.nx.max(1);
        inputs.tables.fill(&window);
        let threads = bloc_num::par::tuned_threads(n_cells, threads, MIN_CELLS_PER_SHARD);
        // Chunks hold whole window rows: `auto_chunk_len` counts in `nx`.
        let chunk = bloc_num::par::auto_chunk_len(n_cells, nx, threads).max(1);
        // Shard `k` is rows `k·chunk / nx ..` of every sounding's map.
        let mut shards: Vec<[&mut [f64]; MAX_TAGS]> = (0..n_cells.div_ceil(chunk))
            .map(|_| Default::default())
            .collect();
        for (t, map) in maps.iter_mut().enumerate() {
            for (shard, rows) in shards.iter_mut().zip(map.data_mut().chunks_mut(chunk)) {
                shard[t] = rows;
            }
        }
        bloc_num::par::for_each_chunk_mut_named(
            "likelihood",
            &mut shards,
            1,
            threads,
            |k, shard| {
                for rows in shard {
                    inputs.tables.sweep_rows(
                        inputs.soas,
                        i,
                        combine,
                        &window,
                        k * chunk / nx,
                        &mut rows[..n_tags],
                    );
                }
            },
        );
        maps
    }
}

/// One sounding's share of a [`LikelihoodEngine::likelihood_batch`] call.
#[derive(Debug, Clone)]
pub struct SoundingMaps {
    /// The weighted joint over the window (see
    /// [`crate::likelihood::joint_likelihood`] for the weighting
    /// contract).
    pub joint: Grid2D,
    /// The raw Eq. 17 map of every alive anchor, `(anchor, map)` in
    /// anchor order; empty unless the call asked to keep them.
    pub anchor_maps: Vec<(usize, Grid2D)>,
}

/// The assembled engine: a kernel choice, a thread count, and a shared
/// [`SteeringCache`]. Cloning shares the cache (and the kernel), so a
/// localizer cloned per worker still computes each deployment's geometry
/// once.
#[derive(Debug, Clone)]
pub struct LikelihoodEngine {
    kernel: Arc<dyn LikelihoodKernel>,
    threads: usize,
    cache: SteeringCache,
    /// Warm-path scratch: the SoA re-packs of earlier calls (at most one
    /// batch's worth), reused so steady-state soundings allocate no
    /// channel tensors. Shared (like the cache) across clones; `take`/
    /// `put` keeps the lock out of the compute, and a caller that finds
    /// the arena empty simply builds fresh.
    soa_arena: Arc<Mutex<Vec<SoaChannels>>>,
}

impl Default for LikelihoodEngine {
    /// Recurrence kernel, single-threaded: the fastest configuration that
    /// composes safely with callers that already parallelize across
    /// soundings (the sweep runner, the ablations).
    fn default() -> Self {
        Self::recurrence()
    }
}

impl LikelihoodEngine {
    /// A single-threaded engine on the phasor-recurrence kernel.
    pub fn recurrence() -> Self {
        Self {
            kernel: Arc::new(RecurrenceKernel),
            threads: 1,
            cache: SteeringCache::new(),
            soa_arena: Arc::default(),
        }
    }

    /// A single-threaded engine on the naive reference kernel.
    pub fn reference() -> Self {
        Self {
            kernel: Arc::new(ReferenceKernel),
            threads: 1,
            cache: SteeringCache::new(),
            soa_arena: Arc::default(),
        }
    }

    /// Takes a SoA scratch from the arena (or a fresh one) rebuilt for
    /// `corrected`.
    fn soa_for(&self, corrected: &CorrectedChannels) -> SoaChannels {
        let taken = self
            .soa_arena
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        let mut soa = taken.unwrap_or_else(SoaChannels::empty);
        soa.rebuild(corrected);
        soa
    }

    /// Returns SoA scratch to the arena for the next call, keeping at
    /// most one batch's worth.
    fn release_soas(&self, soas: impl IntoIterator<Item = SoaChannels>) {
        let mut arena = self.soa_arena.lock().unwrap_or_else(|e| e.into_inner());
        for soa in soas {
            if arena.len() < MAX_TAGS {
                arena.push(soa);
            }
        }
    }

    /// Sets how many threads grid rows are split across (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The active kernel's name.
    pub fn kernel_name(&self) -> &'static str {
        self.kernel.name()
    }

    /// The shared steering cache (exposed for inspection/tests).
    pub fn cache(&self) -> &SteeringCache {
        &self.cache
    }

    /// Hands `sink` each alive anchor's raw maps over `inputs.window` —
    /// one per sounding of the batch, in batch order — in anchor order.
    ///
    /// With more than one thread configured, parallelism fans out across
    /// *anchors* — whole independent maps, the coarsest unit available —
    /// rather than intra-map row shards: each worker computes one
    /// anchor's maps serially, and `sink` then consumes them in anchor
    /// order, so every result stays bit-identical to the serial path.
    fn for_each_map(
        &self,
        inputs: &KernelInputs<'_>,
        alive: &[usize],
        combining: AntennaCombining,
        mut sink: impl FnMut(usize, Vec<Grid2D>),
    ) {
        // Each map is a full window of kernel work — one item per shard
        // is already coarse enough to pay for itself.
        let anchor_threads = bloc_num::par::tuned_threads(alive.len(), self.threads, 1);
        if anchor_threads > 1 {
            let maps =
                bloc_num::par::map_named("likelihood.anchors", alive.len(), anchor_threads, |k| {
                    self.kernel.anchor_map(inputs, alive[k], combining, 1)
                });
            for (&i, maps) in alive.iter().zip(maps) {
                sink(i, maps);
            }
        } else {
            for &i in alive {
                sink(
                    i,
                    self.kernel.anchor_map(inputs, i, combining, self.threads),
                );
            }
        }
    }

    /// Per-anchor likelihood map (Eq. 17 for anchor `i`) through the
    /// engine's kernel, cache and thread pool.
    pub fn anchor_likelihood(
        &self,
        corrected: &CorrectedChannels,
        i: usize,
        spec: GridSpec,
        combining: AntennaCombining,
    ) -> Grid2D {
        let window = GridPatch::whole(spec);
        let soa = self.soa_for(corrected);
        let tables = self.tables_for(corrected, &soa, spec, &window);
        let map = self.kernel.anchor_map(
            &KernelInputs {
                corrected: &[corrected],
                soas: &[&soa],
                tables: &tables,
                window,
            },
            i,
            combining,
            self.threads,
        );
        self.release_soas([soa]);
        bloc_obs::counter("engine.cells_evaluated").add(spec.len() as u64);
        map.into_iter()
            .next()
            .unwrap_or_else(|| Grid2D::zeros(spec))
    }

    /// The steering lookup for `corrected`'s deployment and comb, which
    /// fills `window`'s tiles.
    fn tables_for(
        &self,
        corrected: &CorrectedChannels,
        soa: &SoaChannels,
        spec: GridSpec,
        window: &GridPatch,
    ) -> Arc<SteeringTables> {
        self.cache.window(
            spec,
            &corrected.anchors,
            &corrected.master_anchor_dist,
            soa.plan.base_hz,
            soa.plan.step_hz,
            window,
        )
    }

    /// The Eq. 17 likelihood of many corrected soundings over `window` of
    /// `spec`: for each, in input order, the weighted joint and — when
    /// `keep_maps` — every alive anchor's raw map.
    ///
    /// Soundings that share a steering entry, comb walk, lane strides and
    /// alive-anchor set are swept together, up to
    /// [`sweep::MAX_TAGS`] at a time, so each (cell, antenna) rotation
    /// chain is advanced once for the group; a sounding that matches no
    /// other runs in a group of its own. Grouping never changes a bit:
    /// each sounding's maps and joint equal a call of its own. Each
    /// group's anchor passes run inside `par.likelihood` regions, and
    /// `engine.cells_evaluated` counts every sounding's cells.
    pub fn likelihood_batch(
        &self,
        corrected: &[&CorrectedChannels],
        spec: GridSpec,
        window: &GridPatch,
        combining: AntennaCombining,
        keep_maps: bool,
    ) -> Vec<SoundingMaps> {
        let n = corrected.len();
        let soas: Vec<SoaChannels> = corrected.iter().map(|c| self.soa_for(c)).collect();
        let alive: Vec<Vec<usize>> = corrected
            .iter()
            .map(|c| crate::likelihood::alive_anchors(c))
            .collect();
        let mut joints: Vec<_> = corrected
            .iter()
            .map(|c| crate::likelihood::WeightedJoint::new(c, window.spec))
            .collect();
        let mut maps: Vec<Vec<(usize, Grid2D)>> = (0..n).map(|_| Vec::new()).collect();
        // Soundings share a sweep when they read one steering entry (its
        // cache key: grid, anchor geometry — antenna counts, hence lane
        // strides — master distances, comb base and step) and walk the
        // same comb slots over the same alive anchors.
        let keys: Vec<Vec<u64>> = corrected
            .iter()
            .zip(&soas)
            .map(|(c, soa)| {
                cache_key(
                    spec,
                    &c.anchors,
                    &c.master_anchor_dist,
                    soa.plan.base_hz,
                    soa.plan.step_hz,
                )
            })
            .collect();
        let shares_sweep = |a: usize, b: usize| {
            keys[a] == keys[b] && soas[a].kernel_gaps == soas[b].kernel_gaps && alive[a] == alive[b]
        };
        let mut grouped = vec![false; n];
        for lead in 0..n {
            if grouped[lead] {
                continue;
            }
            let mut group = [lead; MAX_TAGS];
            let mut size = 1;
            for (k, taken) in grouped.iter_mut().enumerate().skip(lead + 1) {
                if size == MAX_TAGS {
                    break;
                }
                if !*taken && shares_sweep(lead, k) {
                    group[size] = k;
                    size += 1;
                    *taken = true;
                }
            }
            let group = &group[..size];
            let tables = self.tables_for(corrected[lead], &soas[lead], spec, window);
            let group_corrected: [&CorrectedChannels; MAX_TAGS] =
                std::array::from_fn(|t| corrected[group[t.min(size - 1)]]);
            let group_soas: [&SoaChannels; MAX_TAGS] =
                std::array::from_fn(|t| &soas[group[t.min(size - 1)]]);
            let inputs = KernelInputs {
                corrected: &group_corrected[..size],
                soas: &group_soas[..size],
                tables: &tables,
                window: *window,
            };
            self.for_each_map(&inputs, &alive[lead], combining, |i, group_maps| {
                for (&k, map) in group.iter().zip(group_maps) {
                    joints[k].add(i, &map);
                    if keep_maps {
                        maps[k].push((i, map));
                    }
                }
            });
        }
        for alive in &alive {
            count_cells(window, alive.len());
        }
        self.release_soas(soas);
        joints
            .into_iter()
            .zip(maps)
            .map(|(joint, anchor_maps)| SoundingMaps {
                joint: joint.finish(),
                anchor_maps,
            })
            .collect()
    }

    /// The raw Eq. 17 maps of every alive anchor (one with surviving
    /// evidence — exactly the anchors the weighted joint gives a map) over
    /// `window` of `spec`, as `(anchor, map)` in anchor order: the batch
    /// of one ([`LikelihoodEngine::likelihood_batch`]). Each map's cells
    /// equal the same cells of a whole-grid map bit for bit.
    pub fn anchor_maps(
        &self,
        corrected: &CorrectedChannels,
        spec: GridSpec,
        window: &GridPatch,
        combining: AntennaCombining,
    ) -> Vec<(usize, Grid2D)> {
        self.likelihood_batch(&[corrected], spec, window, combining, true)
            .into_iter()
            .flat_map(|m| m.anchor_maps)
            .collect()
    }

    /// The joint likelihood (per-anchor maps normalized, degradation-
    /// weighted, summed — see [`crate::likelihood::joint_likelihood`] for
    /// the weighting contract) over the whole grid:
    /// [`LikelihoodEngine::joint_window`] on the whole-grid window.
    pub fn joint_likelihood(
        &self,
        corrected: &CorrectedChannels,
        spec: GridSpec,
        combining: AntennaCombining,
    ) -> Grid2D {
        self.joint_window(corrected, spec, &GridPatch::whole(spec), combining)
    }

    /// The weighted joint over `window` of `spec` — a dense joint whose
    /// grid *is* the window: the batch of one
    /// ([`LikelihoodEngine::likelihood_batch`]).
    pub fn joint_window(
        &self,
        corrected: &CorrectedChannels,
        spec: GridSpec,
        window: &GridPatch,
        combining: AntennaCombining,
    ) -> Grid2D {
        self.likelihood_batch(&[corrected], spec, window, combining, false)
            .into_iter()
            .next()
            .map_or_else(|| Grid2D::zeros(window.spec), |m| m.joint)
    }
}

/// One kernel pass per alive anchor over the window: the unit every
/// dense-vs-hierarchical reduction gate and per-round soak report counts.
fn count_cells(window: &GridPatch, alive: usize) {
    bloc_obs::counter("engine.cells_evaluated").add((window.spec.len() * alive) as u64);
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn band_plan_detects_the_ble_comb() {
        // 2402, 2404, …: ascending 2 MHz comb.
        let freqs: Vec<f64> = (0..10).map(|k| 2.402e9 + 2e6 * k as f64).collect();
        let plan = BandPlan::build(&freqs);
        assert!(plan.is_uniform_comb());
        assert_eq!(plan.base_hz, 2.402e9);
        assert_eq!(plan.step_hz, 2e6);
        assert_eq!(plan.gaps[0], 0);
        assert!(plan.gaps[1..].iter().all(|&g| g == 1));
    }

    #[test]
    fn band_plan_sorts_and_handles_gaps() {
        // Shuffled order with a missing channel: gaps reflect the holes.
        let freqs = [2.410e9, 2.402e9, 2.416e9];
        let plan = BandPlan::build(&freqs);
        assert_eq!(plan.order, vec![1, 0, 2]);
        // Sorted gaps are 8 and 6 MHz: the candidate step is 6 MHz, which
        // does not divide 8 MHz, so no exact recurrence exists from these
        // gaps alone — BandPlan must fall back rather than mis-plan.
        assert!(!plan.is_uniform_comb());
        assert!(!BandPlan::build(&[2.402e9, 2.410e9, 2.416e9]).is_uniform_comb());
    }

    #[test]
    fn band_plan_uniform_with_adjacent_pair_present() {
        // As long as one adjacent pair exists, the 2 MHz step is found
        // and wider holes become multi-slot gaps.
        let freqs = [2.402e9, 2.404e9, 2.412e9];
        let plan = BandPlan::build(&freqs);
        assert!(plan.is_uniform_comb());
        assert_eq!(plan.gaps, vec![0, 1, 4]);
    }

    #[test]
    fn band_plan_degenerate_sizes() {
        assert!(!BandPlan::build(&[]).is_uniform_comb());
        let one = BandPlan::build(&[2.44e9]);
        assert!(!one.is_uniform_comb());
        assert_eq!(one.gaps, vec![0]);
        assert_eq!(one.base_hz, 2.44e9);
    }

    #[test]
    fn steering_cache_returns_the_same_tables() {
        let spec = GridSpec::covering(P2::new(0.0, 0.0), P2::new(2.0, 2.0), 0.5);
        let anchors = vec![
            AnchorArray::centered(0, P2::new(1.0, 0.0), P2::new(1.0, 0.0), 4),
            AnchorArray::centered(1, P2::new(0.0, 1.0), P2::new(0.0, 1.0), 4),
        ];
        let dists = vec![0.0, anchors[1].antenna(0).dist(anchors[0].antenna(0))];
        let (base, step) = (2.402e9, 2.0e6);
        let cache = SteeringCache::new();
        let a = cache.tables(spec, &anchors, &dists, base, step);
        let b = cache.tables(spec, &anchors, &dists, base, step);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(cache.len(), 1);

        // A different grid is a different deployment entry.
        let spec2 = GridSpec::covering(P2::new(0.0, 0.0), P2::new(2.0, 2.0), 0.25);
        let c = cache.tables(spec2, &anchors, &dists, base, step);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);

        // A different comb (phasor tables differ) is its own entry too.
        let e = cache.tables(spec, &anchors, &dists, base + 2.0e6, step);
        assert!(!Arc::ptr_eq(&a, &e));
        assert_eq!(cache.len(), 3);

        // Clones share the map.
        let clone = cache.clone();
        let d = clone.tables(spec, &anchors, &dists, base, step);
        assert!(Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn steering_cache_byte_budget_evicts_lru() {
        let anchors = vec![
            AnchorArray::centered(0, P2::new(1.0, 0.0), P2::new(1.0, 0.0), 4),
            AnchorArray::centered(1, P2::new(0.0, 1.0), P2::new(0.0, 1.0), 4),
        ];
        let dists = vec![0.0, anchors[1].antenna(0).dist(anchors[0].antenna(0))];
        let (base, step) = (2.402e9, 2.0e6);
        let spec_at = |res: f64| GridSpec::covering(P2::new(0.0, 0.0), P2::new(2.0, 2.0), res);

        let cache = SteeringCache::new();
        assert_eq!(cache.byte_budget(), None);
        let a = cache.tables(spec_at(0.5), &anchors, &dists, base, step);
        let b = cache.tables(spec_at(0.4), &anchors, &dists, base, step);
        assert_eq!(cache.len(), 2);
        // Size the budget so `a` plus the upcoming 0.25 m entry fit, but
        // all three do not.
        let c_bytes =
            SteeringTables::build(spec_at(0.25), &anchors, &dists, base, step).approx_bytes();
        cache.set_byte_budget(Some(a.approx_bytes() + c_bytes));
        // Touch `a` so the 0.4 m entry is the least recently used, then
        // insert a third: `b` must be the eviction victim.
        let a2 = cache.tables(spec_at(0.5), &anchors, &dists, base, step);
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = cache.tables(spec_at(0.25), &anchors, &dists, base, step);
        assert_eq!(cache.len(), 2);
        let b2 = cache.tables(spec_at(0.4), &anchors, &dists, base, step);
        assert!(
            !Arc::ptr_eq(&b, &b2),
            "evicted entry must be rebuilt, not served stale"
        );

        // A single entry larger than the budget stays resident: the cache
        // never evicts below one geometry.
        cache.set_byte_budget(Some(1));
        let big = cache.tables(spec_at(0.1), &anchors, &dists, base, step);
        assert_eq!(cache.len(), 1);
        let big2 = cache.tables(spec_at(0.1), &anchors, &dists, base, step);
        assert!(Arc::ptr_eq(&big, &big2));
    }

    /// Anchor `i`'s lanes at parent cell `(ix, iy)`: delta (through
    /// `cell_deltas`, padded with 0), seed and step phasors, padding
    /// lanes included.
    fn lanes(t: &SteeringTables, i: usize, ix: usize, iy: usize) -> (Vec<f64>, Vec<C64>, Vec<C64>) {
        let (b, shape) = t.block(ix, iy);
        let block = t.blocks[b].read().unwrap();
        let a = t.lanes(&block, shape.cells(), i);
        let nl = t.n_lanes[i];
        let cell = shape.cell(ix, iy);
        let r = cell * nl..(cell + 1) * nl;
        let cx = |re: &[f64], im: &[f64]| r.clone().map(|k| C64::new(re[k], im[k])).collect();
        let mut delta = t.cell_deltas(i, t.spec.flat(ix, iy));
        delta.resize(nl, 0.0);
        (delta, cx(a.seed_re, a.seed_im), cx(a.step_re, a.step_im))
    }

    #[test]
    fn steering_tables_match_direct_geometry() {
        let spec = GridSpec::covering(P2::new(-0.5, -0.5), P2::new(3.0, 3.0), 0.7);
        let anchors = vec![
            AnchorArray::centered(0, P2::new(1.0, -0.4), P2::new(1.0, 0.0), 3),
            AnchorArray::centered(1, P2::new(-0.4, 1.0), P2::new(0.0, 1.0), 4),
        ];
        let master0 = anchors[0].antenna(0);
        let dists = vec![0.0, anchors[1].antenna(0).dist(master0)];
        let (base, step) = (2.402e9, 2.0e6);
        let tables = SteeringTables::build(spec, &anchors, &dists, base, step);
        let tau_over_c = std::f64::consts::TAU / SPEED_OF_LIGHT;
        for iy in 0..spec.ny {
            for ix in 0..spec.nx {
                let x = spec.cell_center(ix, iy);
                let cell = spec.flat(ix, iy);
                for (i, a) in anchors.iter().enumerate() {
                    let ds = tables.cell_deltas(i, cell);
                    assert_eq!(ds.len(), a.n_antennas);
                    let (delta, seed, rot) = lanes(&tables, i, ix, iy);
                    for (j, &d) in ds.iter().enumerate() {
                        let manual = x.dist(a.antenna(j)) - x.dist(master0) - dists[i];
                        assert_eq!(d, manual, "cell ({ix},{iy}) anchor {i} ant {j}");
                        assert_eq!(seed[j], C64::cis(tau_over_c * d * base));
                        assert_eq!(rot[j], C64::cis(tau_over_c * d * step));
                    }
                    // Padding lanes stay neutral: zero delta, unit phasor
                    // — a zero alpha annihilates them exactly.
                    for j in a.n_antennas..tables.n_lanes[i] {
                        assert_eq!(delta[j], 0.0);
                        assert_eq!(seed[j], C64::new(1.0, 0.0));
                        assert_eq!(rot[j], C64::new(1.0, 0.0));
                    }
                }
            }
        }
    }

    #[test]
    fn window_fills_in_any_order_equal_the_whole_build() {
        // The corridor lattice: 442 × 137 cells is ragged against the
        // tile side in both axes, and 3-antenna anchors leave a padding
        // lane per cell.
        let spec = GridSpec {
            origin: P2::new(-0.5, -0.5),
            resolution: 0.08,
            nx: 442,
            ny: 137,
        };
        assert!(
            !spec.nx.is_multiple_of(TILE_W)
                && !spec.nx.is_multiple_of(BLOCK_W)
                && !spec.ny.is_multiple_of(BLOCK_H)
        );
        let anchors = vec![
            AnchorArray::centered(0, P2::new(17.0, -0.4), P2::new(1.0, 0.0), 3),
            AnchorArray::centered(1, P2::new(-0.4, 5.0), P2::new(0.0, 1.0), 4),
        ];
        let dists = vec![0.0, anchors[1].antenna(0).dist(anchors[0].antenna(0))];
        let (base, step) = (2.402e9, 2.0e6);
        let whole = SteeringTables::build(spec, &anchors, &dists, base, step);
        let tile_bytes = |nx: usize, ny: usize| 4 * 8 * nx * ny * (4 + 4);
        assert_eq!(whole.approx_bytes(), tile_bytes(spec.nx, spec.ny));

        // Overlapping patch windows in a shuffled order, then the corners
        // and the ragged last column/row, until every tile is filled.
        let lazy = SteeringTables::empty(spec, &anchors, &dists, base, step);
        assert_eq!(lazy.approx_bytes(), 0);
        let mut centres: Vec<(usize, usize)> = (0..40)
            .map(|k| ((k * 97) % spec.nx, (k * 61) % spec.ny))
            .collect();
        centres.extend([(0, 0), (spec.nx - 1, 0), (0, spec.ny - 1)]);
        centres.push((spec.nx - 1, spec.ny - 1));
        let mut filled = 0;
        for (k, &(cx, cy)) in centres.iter().enumerate() {
            let half = 0.3 + 0.2 * (k % 7) as f64;
            let patch = spec.patch(spec.cell_center(cx, cy), half);
            filled += lazy.fill(&patch);
            assert_eq!(lazy.fill(&patch), 0, "a filled window fills nothing");
        }
        filled += lazy.fill(&GridPatch::whole(spec));
        assert_eq!(filled, lazy.tiles.len(), "every tile computed exactly once");
        assert_eq!(lazy.approx_bytes(), whole.approx_bytes());
        for iy in 0..spec.ny {
            for ix in 0..spec.nx {
                for i in 0..anchors.len() {
                    let (a, b) = (lanes(&lazy, i, ix, iy), lanes(&whole, i, ix, iy));
                    // Bit equality, NaN-free: compare the raw bits.
                    let bits = |v: &(Vec<f64>, Vec<C64>, Vec<C64>)| -> Vec<u64> {
                        v.0.iter()
                            .copied()
                            .chain(v.1.iter().chain(&v.2).flat_map(|c| [c.re, c.im]))
                            .map(f64::to_bits)
                            .collect()
                    };
                    assert_eq!(bits(&a), bits(&b), "cell ({ix},{iy}) anchor {i}");
                }
            }
        }
    }
}
