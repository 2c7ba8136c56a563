//! The fast likelihood engine: the range-profile cell kernel, SoA channel
//! layout and geometry caching.
//!
//! Everything the localizer does reduces to evaluating Eq. 17,
//! `P_i(x) = |Σ_j Σ_k α^{f_k}_ij · e^{ι2πf_k Δ_ij(x)/c}|`, over a dense
//! 2-D grid. The naive evaluation (kept verbatim as
//! [`crate::likelihood::anchor_likelihood_reference`]) pays one
//! `sin`+`cos` per (cell × antenna × band). This module layers three
//! optimizations on top, each verified against the reference (see
//! `tests/kernel_equivalence.rs`):
//!
//! 1. **Range profiles**: per (anchor, antenna), the band sum depends on
//!    the cell only through the Eq. 14 relative distance `Δ_ij(x)`, so
//!    one sounding gives each antenna a 1-D range profile. Factored as
//!    `e^{ι2πf_cΔ/c}·E(Δ)` around the centre `f_c` of the band span, the
//!    envelope `E` is band-limited to the half-span. Per sounding and
//!    window, the kernel samples `E` and `h·E′` on a lattice of step `h`
//!    over the window's `Δ` range; per cell and antenna it does one
//!    cubic-Hermite lookup and one complex multiply by the cached
//!    carrier `e^{ι2πf_cΔ/c}`. `h` follows from the half-span by the
//!    Hermite remainder bound, so the error stays within
//!    [`bloc_num::sweep::PROFILE_TOLERANCE`] for a uniform comb, a masked
//!    sub-comb or off-comb bands alike. The kernel lives in
//!    [`bloc_num::sweep`] (one SIMD body for every level); this module
//!    feeds it.
//! 2. **SoA layout + geometry cache**: [`SoaChannels`] re-packs the
//!    per-band `alpha[i][j]` tensor into the kernel's split re/im
//!    lane-padded layout, and [`SteeringCache`] memoizes each cell's relative distances
//!    `Δ_ij(x)` (Eq. 14) and carriers — three arrays per block, `Δ` and
//!    the carrier's re and im — keyed by (grid, anchor geometry,
//!    carrier): a deployment sounds thousands of times against the same
//!    grid, and the geometry never changes. The tables are indexed by
//!    the grid and filled lazily in small tiles; every evaluation reads a
//!    [`GridPatch`] *window* of them — the whole grid for a dense map, a
//!    patch for a hierarchical level — so a moving patch reuses its
//!    grid's one table instead of building its own. A lattice row's
//!    samples depend on its index alone, so a window's cells equal the
//!    dense map's bit for bit.
//! 3. **Sounding batches**: [`LikelihoodEngine::likelihood_batch`] groups
//!    soundings that share a steering entry, band set and alive anchors,
//!    up to [`sweep::MAX_TAGS`] per group; the group shares each cell's
//!    lattice index, Hermite weights and carrier, and the profile
//!    build's phasor matrix ([`bloc_num::sweep::write_profile_cells_batch`]).
//!    Only the profiles and accumulators are per sounding, so every
//!    sounding's maps equal a call of its own bit for bit. The
//!    single-sounding entries are its batch of one.
//!
//! A fix runs on the calling thread. Parallelism lives one level up, over
//! whole units of work: the sweep runner fans out over locations and the
//! fleet over tags, each worker running its fixes serially on a clone of
//! the engine (clones share the steering cache).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use bloc_chan::AnchorArray;
use bloc_num::constants::SPEED_OF_LIGHT;
use bloc_num::sweep::{self, CellSweep, Combine, Lattice, ProfilePlan, ProfileWeights, MAX_TAGS};
use bloc_num::{Grid2D, GridPatch, GridSpec, C64, P2};

use crate::correction::CorrectedChannels;
use crate::likelihood::AntennaCombining;

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

/// Corrected channels re-packed for the profile build: per anchor, split
/// re/im band-major tensors in the sounding's band order, padded to the
/// 4-wide lane stride (`alpha_re[i][band·n_lanes[i] + j]`, padding lanes
/// exactly zero so they contribute nothing). All antennas of a band sit
/// adjacent: one SIMD lane per antenna.
#[derive(Debug, Clone)]
pub struct SoaChannels {
    /// The band set's range-profile plan: carrier, lattice step and
    /// per-band wavenumbers.
    pub plan: ProfilePlan,
    /// Antennas per anchor.
    pub n_antennas: Vec<usize>,
    /// Lane stride per anchor (`n_antennas` rounded up to 4).
    n_lanes: Vec<usize>,
    /// `alpha_re[i][band·n_lanes[i] + j]` — band-major per anchor.
    alpha_re: Vec<Vec<f64>>,
    /// Imaginary parts, same indexing.
    alpha_im: Vec<Vec<f64>>,
    /// Scratch for the band frequencies handed to the planner.
    freqs_scratch: Vec<f64>,
}

impl SoaChannels {
    /// An empty re-pack, ready for [`SoaChannels::rebuild`] — what the
    /// engine's scratch arena holds between calls.
    pub fn empty() -> Self {
        Self {
            plan: ProfilePlan::build(&[]),
            n_antennas: Vec::new(),
            n_lanes: Vec::new(),
            alpha_re: Vec::new(),
            alpha_im: Vec::new(),
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
        self.plan = ProfilePlan::build(&self.freqs_scratch);
        let nb = corrected.bands.len();
        let n = corrected.n_anchors();
        self.n_antennas.clear();
        self.n_antennas
            .extend(corrected.anchors.iter().map(|a| a.n_antennas));
        self.n_lanes.clear();
        self.n_lanes
            .extend(self.n_antennas.iter().map(|&nj| lane_stride(nj)));
        self.alpha_re.resize_with(n, Vec::new);
        self.alpha_im.resize_with(n, Vec::new);
        for i in 0..n {
            let nl = self.n_lanes[i];
            let re = &mut self.alpha_re[i];
            let im = &mut self.alpha_im[i];
            re.clear();
            re.resize(nb * nl, 0.0);
            im.clear();
            im.resize(nb * nl, 0.0);
            for (k, band) in corrected.bands.iter().enumerate() {
                for (j, a) in band.alpha[i].iter().enumerate() {
                    re[k * nl + j] = a.re;
                    im[k * nl + j] = a.im;
                }
            }
        }
    }

    /// Anchor `i`'s weights for the profile build.
    fn weights(&self, i: usize) -> ProfileWeights<'_> {
        ProfileWeights {
            alpha_re: &self.alpha_re[i],
            alpha_im: &self.alpha_im[i],
            n_lanes: self.n_lanes[i],
        }
    }

    /// Number of bands.
    pub fn n_bands(&self) -> usize {
        self.plan.wavenumbers.len()
    }

    /// The antennas of anchor `i` at band `band` (the sounding's band
    /// order), re-assembled from the split layout (a copy — layout
    /// inspection, not a hot path).
    pub fn band_antennas(&self, i: usize, band: usize) -> Vec<C64> {
        let nj = self.n_antennas[i];
        let row = band * self.n_lanes[i];
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
    /// `Δ_ij`, `delta[cell·n_lanes + j]`, cell-major; a padding lane
    /// holds antenna 0's `Δ`, so its lookup stays inside the window's
    /// lattice (and reads the zero profile of its zero weights).
    delta: &'a [f64],
    /// Carrier `e^{ι2πf_cΔ/c}` real parts, same indexing.
    carrier_re: &'a [f64],
    /// Carrier imaginary parts.
    carrier_im: &'a [f64],
}

/// Per-cell steering geometry for one (grid, deployment, carrier)
/// triple: for every cell and every (anchor, antenna), the relative
/// distance `Δ_ij(x) = d_ij(x) − d_00(x) − d^{i0}_{00}` of Eq. 14 and the
/// carrier phasor `e^{ι2πf_cΔ/c}`, as three arrays per block (`Δ`, the
/// carrier's real and imaginary parts). Hoisting the carrier into the
/// cache removes every transcendental call from the per-cell work: the
/// warm kernel is a lookup and a few multiply-adds.
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
    carrier_hz: f64,
    n_lanes: Vec<usize>,
    /// Lanes of the anchors before anchor `i` (its table offset in a
    /// block, in units of `3 · block cells`); the last entry is the total.
    lane_base: Vec<usize>,
    /// Fill markers, row-major over tiles; each tile is computed at most
    /// once.
    tiles: Vec<OnceLock<()>>,
    /// Block storage, row-major over blocks: anchor `i`'s three tables
    /// (`Δ`, carrier re/im, each `block cells · n_lanes[i]` long) from
    /// offset `3 · block cells · lane_base[i]`, then each tile's `Δ`
    /// range per anchor (`[min, max]` over its lanes, at
    /// `3 · block cells · total lanes + 2 · (tile · anchors + i)`).
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
}

/// Tables per anchor in a storage block: `Δ` and the carrier's real and
/// imaginary parts.
const TABLES_PER_ANCHOR: usize = 3;

/// Fill tiles per storage block.
const TILES_PER_BLOCK: usize = (BLOCK_W / TILE_W) * (BLOCK_H / TILE_H);

impl SteeringTables {
    /// Tables for this (grid, deployment, carrier) with no tile filled
    /// yet. `carrier_hz` is the [`ProfilePlan`] carrier.
    pub fn empty(
        spec: GridSpec,
        anchors: &[AnchorArray],
        master_anchor_dist: &[f64],
        carrier_hz: f64,
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
            carrier_hz,
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
        carrier_hz: f64,
    ) -> Self {
        let tables = Self::empty(spec, anchors, master_anchor_dist, carrier_hz);
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

    /// The slot of fill tile `(tx, ty)` among its block's tiles.
    fn tile_in_block(&self, tx: usize, ty: usize) -> usize {
        (ty % (BLOCK_H / TILE_H)) * (BLOCK_W / TILE_W) + tx % (BLOCK_W / TILE_W)
    }

    /// The one place that pays the per-cell distance arithmetic and
    /// carrier phasors: tile `(tx, ty)`, written into its block under the
    /// block's write lock.
    fn compute_tile(&self, tx: usize, ty: usize) {
        let spec = self.spec;
        let (x0, y0) = (tx * TILE_W, ty * TILE_H);
        let (x1, y1) = ((x0 + TILE_W).min(spec.nx), (y0 + TILE_H).min(spec.ny));
        let (b, shape) = self.block(x0, y0);
        let block_cells = shape.cells();
        let total_lanes = self.lane_base.last().copied().unwrap_or(0);
        let phase_per_m = std::f64::consts::TAU / SPEED_OF_LIGHT * self.carrier_hz;
        // A fill that panicked left only its own tile's cells half
        // written, and that tile stays unfilled, so recovering is sound.
        let mut block = self.blocks[b].write().unwrap_or_else(|e| e.into_inner());
        let tables_len = TABLES_PER_ANCHOR * block_cells * total_lanes;
        if block.is_empty() {
            *block = vec![0.0; tables_len + 2 * TILES_PER_BLOCK * self.antennas.len()];
        }
        let (mut rest, ranges) = block.split_at_mut(tables_len);
        let tile = self.tile_in_block(tx, ty);
        for (i, positions) in self.antennas.iter().enumerate() {
            let nl = self.n_lanes[i];
            let len = block_cells * nl;
            let (tables, tail) = rest.split_at_mut(TABLES_PER_ANCHOR * len);
            rest = tail;
            let (delta, tables) = tables.split_at_mut(len);
            let (carrier_re, carrier_im) = tables.split_at_mut(len);
            for iy in y0..y1 {
                for ix in x0..x1 {
                    let cell = shape.cell(ix, iy);
                    for (j, d) in self.deltas_at(i, ix, iy).enumerate() {
                        let k = cell * nl + j;
                        let c = C64::cis(phase_per_m * d);
                        (delta[k], carrier_re[k], carrier_im[k]) = (d, c.re, c.im);
                    }
                    // Padding lanes copy antenna 0 (a lane with no
                    // antenna at all keeps Δ = 0 and the unit carrier).
                    let lane0 = cell * nl;
                    for k in lane0 + positions.len()..lane0 + nl {
                        (delta[k], carrier_re[k], carrier_im[k]) = if positions.is_empty() {
                            (0.0, 1.0, 0.0)
                        } else {
                            (delta[lane0], carrier_re[lane0], carrier_im[lane0])
                        };
                    }
                }
            }
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for iy in y0..y1 {
                let first = shape.cell(x0, iy) * nl;
                for &d in &delta[first..first + (x1 - x0) * nl] {
                    (lo, hi) = (lo.min(d), hi.max(d));
                }
            }
            let at = 2 * (tile * self.antennas.len() + i);
            (ranges[at], ranges[at + 1]) = (lo, hi);
        }
        let bytes =
            TABLES_PER_ANCHOR * (x1 - x0) * (y1 - y0) * total_lanes * std::mem::size_of::<f64>();
        self.filled_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Eq. 14's relative distances `Δ_ij` of anchor `i` at grid cell
    /// `(ix, iy)`, one per antenna `j` — the one expression the table
    /// fill and [`SteeringTables::cell_deltas`] share, so both see the
    /// same value bit for bit.
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
        let (delta, rest) = tables.split_at(len);
        let (carrier_re, carrier_im) = rest.split_at(len);
        AnchorLanes {
            delta,
            carrier_re,
            carrier_im,
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

    /// Calls `f` with anchor `i`'s lanes and the block-local cell range
    /// of every block segment of window row `r` (whose tiles are filled),
    /// each under its block's read lock.
    fn for_each_segment(
        &self,
        i: usize,
        window: &GridPatch,
        r: usize,
        mut f: impl FnMut(&AnchorLanes<'_>, &BlockShape, usize, usize),
    ) {
        let iy = window.y0 + r;
        let mut x = window.x0;
        while x < window.x0 + window.spec.nx {
            let (b, shape) = self.block(x, iy);
            let n = (shape.x0 + shape.nx - x).min(window.x0 + window.spec.nx - x);
            let block = self.blocks[b].read().unwrap_or_else(|e| e.into_inner());
            f(&self.lanes(&block, shape.cells(), i), &shape, x, n);
            x += n;
        }
    }

    /// The lattice of step `step_m` that brackets every `Δ` anchor `i`'s
    /// lanes take over `window`, whose tiles are filled: the union of the
    /// `Δ` ranges the fill recorded for each tile the window touches.
    fn lattice(&self, i: usize, window: &GridPatch, step_m: f64) -> Lattice {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        if !window.spec.is_empty() {
            let (tx0, ty0) = (window.x0 / TILE_W, window.y0 / TILE_H);
            let tx1 = (window.x0 + window.spec.nx - 1) / TILE_W;
            let ty1 = (window.y0 + window.spec.ny - 1) / TILE_H;
            let (per_x, per_y) = (BLOCK_W / TILE_W, BLOCK_H / TILE_H);
            for by in ty0 / per_y..=ty1 / per_y {
                for bx in tx0 / per_x..=tx1 / per_x {
                    let (b, shape) = self.block(bx * BLOCK_W, by * BLOCK_H);
                    let block = self.blocks[b].read().unwrap_or_else(|e| e.into_inner());
                    let ranges = &block
                        [TABLES_PER_ANCHOR * shape.cells() * self.lane_base[self.antennas.len()]..];
                    for ty in (by * per_y).max(ty0)..=((by + 1) * per_y - 1).min(ty1) {
                        for tx in (bx * per_x).max(tx0)..=((bx + 1) * per_x - 1).min(tx1) {
                            let at = 2 * (self.tile_in_block(tx, ty) * self.antennas.len() + i);
                            (lo, hi) = (lo.min(ranges[at]), hi.max(ranges[at + 1]));
                        }
                    }
                }
            }
        }
        // The row index is monotone in `Δ`, so the extremes bracket all.
        Lattice::covering(step_m, [lo, hi])
    }

    /// Evaluates anchor `i` over the rows of `window`, whose tiles are
    /// filled, for every sounding of a batch that shares these tables:
    /// `outs[t]` holds sounding `t`'s window map, read from its
    /// profile `profiles[t]` over `lattice`. Each block the rows cross is
    /// read under its read lock: one sweep-kernel call for all its rows
    /// when the window spans the block's width, else one per row segment,
    /// each at its block-local `first_cell`.
    #[allow(clippy::too_many_arguments)]
    fn sweep_rows(
        &self,
        profiles: &[&[f64]],
        lattice: Lattice,
        i: usize,
        combine: Combine,
        window: &GridPatch,
        outs: &mut [&mut [f64]],
    ) {
        let nx = window.spec.nx.max(1);
        let rows = outs.first().map_or(0, |o| o.len()) / nx;
        let n_tags = outs.len();
        let mut r = 0;
        while r < rows {
            let iy = window.y0 + r;
            let group = (BLOCK_H - iy % BLOCK_H).min(rows - r);
            self.for_each_segment(i, window, r, |lanes, shape, x, n| {
                let tags: [CellSweep<'_>; MAX_TAGS] = std::array::from_fn(|t| CellSweep {
                    delta: lanes.delta,
                    carrier_re: lanes.carrier_re,
                    carrier_im: lanes.carrier_im,
                    n_lanes: self.n_lanes[i],
                    lattice,
                    profile: profiles[t.min(n_tags - 1)],
                });
                let tags = &tags[..n_tags];
                let at = |k: usize| (r + k) * nx + x - window.x0;
                if n == shape.nx && group > 1 {
                    // The group's rows are contiguous in the block.
                    let mut cells = [[0.0; BLOCK_W * BLOCK_H]; MAX_TAGS];
                    let mut views: [&mut [f64]; MAX_TAGS] = Default::default();
                    for (view, c) in views.iter_mut().zip(&mut cells) {
                        *view = &mut c[..group * n];
                    }
                    let first = shape.cell(x, iy);
                    sweep::write_profile_cells_batch(tags, combine, first, &mut views[..n_tags]);
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
                        sweep::write_profile_cells_batch(
                            tags,
                            combine,
                            first,
                            &mut views[..n_tags],
                        );
                    }
                }
            });
            r += group;
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
/// resident-byte gauge and the LRU budget ([`CACHE_BUDGET_BYTES`]) are
/// charged as tiles fill.
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

/// Resident-byte budget of every [`SteeringCache`]: 256 MiB. A
/// hierarchical localizer caches one geometry per level — coarse and fine
/// — and patches are windows into the fine one, whose tiles fill as
/// patches touch them; LRU eviction keeps long-running fleets and
/// many-scenario sweeps bounded.
pub const CACHE_BUDGET_BYTES: usize = 256 << 20;

/// One resident steering geometry plus the last access tick the LRU
/// budget orders by; its size is read live from the tables.
#[derive(Debug)]
struct CacheEntry {
    tables: Arc<SteeringTables>,
    last_used: u64,
}

#[derive(Debug)]
struct CacheInner {
    map: HashMap<Vec<u64>, CacheEntry>,
    /// Monotone access clock; bumped on every lookup so eviction can
    /// order entries by recency without timestamps.
    tick: u64,
    /// Resident-byte ceiling: [`CACHE_BUDGET_BYTES`], except in the
    /// eviction unit test.
    byte_budget: usize,
}

impl Default for CacheInner {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            tick: 0,
            byte_budget: CACHE_BUDGET_BYTES,
        }
    }
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
    carrier_hz: f64,
) -> Vec<u64> {
    let mut key = Vec::with_capacity(6 + anchors.len() * 6 + master_anchor_dist.len());
    push_f64(&mut key, carrier_hz);
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
/// carrier frequency and the five grid-spec words).
const KEY_ANCHOR_OFFSET: usize = 6;

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

    /// The tables for this (grid, deployment, carrier) with every tile
    /// filled — [`SteeringCache::window`] over the whole grid.
    pub fn tables(
        &self,
        spec: GridSpec,
        anchors: &[AnchorArray],
        master_anchor_dist: &[f64],
        carrier_hz: f64,
    ) -> Arc<SteeringTables> {
        let whole = GridPatch::whole(spec);
        self.window(spec, anchors, master_anchor_dist, carrier_hz, &whole)
    }

    /// The tables for this (grid, deployment, carrier) with at least the
    /// tiles under `window` (a window of `spec`) filled. The first lookup
    /// of a key inserts it empty (one miss); concurrent callers share
    /// that one entry, and each tile is computed once, by whichever
    /// caller reaches it first, with the cache-wide lock released.
    pub fn window(
        &self,
        spec: GridSpec,
        anchors: &[AnchorArray],
        master_anchor_dist: &[f64],
        carrier_hz: f64,
        window: &GridPatch,
    ) -> Arc<SteeringTables> {
        let key = cache_key(spec, anchors, master_anchor_dist, carrier_hz);
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
                    carrier_hz,
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
        let budget = inner.byte_budget;
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

    /// An empty cache that evicts above `budget` bytes instead of
    /// [`CACHE_BUDGET_BYTES`].
    #[cfg(test)]
    fn with_budget(budget: usize) -> Self {
        let cache = Self::new();
        cache
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .byte_budget = budget;
        cache
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
        // Every key for an n-anchor deployment has 6 + 6n + n words
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

/// Anchor `i`'s raw Eq. 17 maps over `window` of `tables`' grid, one per
/// sounding of a batch of 1 ..= [`sweep::MAX_TAGS`] that share the tables
/// and band set (panics on any other batch). It brackets the window's `Δ`
/// with a [`Lattice`], builds every sounding's profile over it
/// ([`sweep::build_profiles`] — the phasor matrix is a rotation
/// recurrence along `Δ`, shared by the batch), then sweeps the window's
/// rows ([`sweep::write_profile_cells_batch`]): one Hermite lookup per
/// (cell, antenna) and one complex multiply by the cached carrier. Each
/// cell's value is the parent grid's value at that cell for that
/// sounding alone, bit for bit. The row sweep is one `par.likelihood`
/// region of one shard.
fn sweep_anchor(
    soas: &[&SoaChannels],
    tables: &SteeringTables,
    window: GridPatch,
    i: usize,
    combining: AntennaCombining,
) -> Vec<Grid2D> {
    let n_tags = soas.len();
    assert!(
        (1..=MAX_TAGS).contains(&n_tags),
        "a kernel batch holds 1..={MAX_TAGS} soundings"
    );
    let mut maps: Vec<Grid2D> = (0..n_tags).map(|_| Grid2D::zeros(window.spec)).collect();
    tables.fill(&window);
    let plan = &soas[0].plan;
    assert!(
        soas.iter().all(|soa| &soa.plan == plan),
        "a kernel batch shares one band set"
    );
    let lattice = tables.lattice(i, &window, plan.step_m);
    let len = lattice.profile_len(tables.n_lanes[i]);
    let mut buffer = PROFILES.take();
    buffer.resize(n_tags * len, 0.0);
    let weights: [ProfileWeights<'_>; MAX_TAGS] =
        std::array::from_fn(|t| soas[t.min(n_tags - 1)].weights(i));
    let mut views: [&mut [f64]; MAX_TAGS] = Default::default();
    for (view, profile) in views.iter_mut().zip(buffer.chunks_mut(len)) {
        *view = profile;
    }
    sweep::build_profiles(plan, &lattice, &weights[..n_tags], &mut views[..n_tags]);
    let mut profiles: [&[f64]; MAX_TAGS] = [&[]; MAX_TAGS];
    for (view, profile) in profiles.iter_mut().zip(buffer.chunks(len)) {
        *view = profile;
    }
    let profiles = &profiles[..n_tags];
    let mut outs: [&mut [f64]; MAX_TAGS] = Default::default();
    for (out, map) in outs.iter_mut().zip(&mut maps) {
        *out = map.data_mut();
    }
    let combine = combine_of(combining);
    // One chunk holding every sounding's map: the region's one shard.
    bloc_num::par::for_each_chunk_mut_named(
        "likelihood",
        &mut outs[..n_tags],
        n_tags,
        1,
        |_, outs| tables.sweep_rows(profiles, lattice, i, combine, &window, outs),
    );
    PROFILES.set(buffer);
    maps
}

thread_local! {
    /// The profile buffer of this thread's last anchor map, kept so a
    /// warm map allocates no profile storage.
    static PROFILES: std::cell::Cell<Vec<f64>> = const { std::cell::Cell::new(Vec::new()) };
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

/// The assembled engine: the range-profile kernel and a shared
/// [`SteeringCache`]. Cloning shares the cache, so a localizer cloned per
/// worker still computes each deployment's geometry once.
#[derive(Debug, Clone, Default)]
pub struct LikelihoodEngine {
    cache: SteeringCache,
    /// Warm-path scratch: the SoA re-packs of earlier calls (at most one
    /// batch's worth), reused so steady-state soundings allocate no
    /// channel tensors. Shared (like the cache) across clones; `take`/
    /// `put` keeps the lock out of the compute, and a caller that finds
    /// the arena empty simply builds fresh.
    soa_arena: Arc<Mutex<Vec<SoaChannels>>>,
}

impl LikelihoodEngine {
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

    /// The shared steering cache (exposed for inspection/tests).
    pub fn cache(&self) -> &SteeringCache {
        &self.cache
    }

    /// Per-anchor likelihood map (Eq. 17 for anchor `i`) through the
    /// engine's kernel and cache.
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
        let map = sweep_anchor(&[&soa], &tables, window, i, combining);
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
            soa.plan.carrier_hz,
            window,
        )
    }

    /// The Eq. 17 likelihood of many corrected soundings over `window` of
    /// `spec`: for each, in input order, the weighted joint and — when
    /// `keep_maps` — every alive anchor's raw map.
    ///
    /// Soundings that share a steering entry, band set, lane strides and
    /// alive-anchor set are swept together, up to
    /// [`sweep::MAX_TAGS`] at a time, so each (cell, antenna) lookup
    /// index and weights are computed once for the group; a sounding that matches no
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
        // strides — master distances, carrier) and sound the same bands
        // over the same alive anchors.
        let keys: Vec<Vec<u64>> = corrected
            .iter()
            .zip(&soas)
            .map(|(c, soa)| cache_key(spec, &c.anchors, &c.master_anchor_dist, soa.plan.carrier_hz))
            .collect();
        let shares_sweep = |a: usize, b: usize| {
            keys[a] == keys[b] && soas[a].plan == soas[b].plan && alive[a] == alive[b]
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
            let group_soas: [&SoaChannels; MAX_TAGS] =
                std::array::from_fn(|t| &soas[group[t.min(size - 1)]]);
            for &i in &alive[lead] {
                let group_maps = sweep_anchor(&group_soas[..size], &tables, *window, i, combining);
                for (&k, map) in group.iter().zip(group_maps) {
                    joints[k].add(i, &map);
                    if keep_maps {
                        maps[k].push((i, map));
                    }
                }
            }
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
    fn steering_cache_returns_the_same_tables() {
        let spec = GridSpec::covering(P2::new(0.0, 0.0), P2::new(2.0, 2.0), 0.5);
        let anchors = vec![
            AnchorArray::centered(0, P2::new(1.0, 0.0), P2::new(1.0, 0.0), 4),
            AnchorArray::centered(1, P2::new(0.0, 1.0), P2::new(0.0, 1.0), 4),
        ];
        let dists = vec![0.0, anchors[1].antenna(0).dist(anchors[0].antenna(0))];
        let carrier = 2.441e9;
        let cache = SteeringCache::new();
        let a = cache.tables(spec, &anchors, &dists, carrier);
        let b = cache.tables(spec, &anchors, &dists, carrier);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(cache.len(), 1);

        // A different grid is a different deployment entry.
        let spec2 = GridSpec::covering(P2::new(0.0, 0.0), P2::new(2.0, 2.0), 0.25);
        let c = cache.tables(spec2, &anchors, &dists, carrier);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);

        // A different carrier (phasor tables differ) is its own entry too.
        let e = cache.tables(spec, &anchors, &dists, carrier + 2.0e6);
        assert!(!Arc::ptr_eq(&a, &e));
        assert_eq!(cache.len(), 3);

        // Clones share the map.
        let clone = cache.clone();
        let d = clone.tables(spec, &anchors, &dists, carrier);
        assert!(Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn steering_cache_byte_budget_evicts_lru() {
        let anchors = vec![
            AnchorArray::centered(0, P2::new(1.0, 0.0), P2::new(1.0, 0.0), 4),
            AnchorArray::centered(1, P2::new(0.0, 1.0), P2::new(0.0, 1.0), 4),
        ];
        let dists = vec![0.0, anchors[1].antenna(0).dist(anchors[0].antenna(0))];
        let carrier = 2.441e9;
        let spec_at = |res: f64| GridSpec::covering(P2::new(0.0, 0.0), P2::new(2.0, 2.0), res);

        // Size the budget so the 0.5 m entry plus the 0.25 m one fit,
        // but all three do not.
        let bytes =
            |res| SteeringTables::build(spec_at(res), &anchors, &dists, carrier).approx_bytes();
        let cache = SteeringCache::with_budget(bytes(0.5) + bytes(0.25));
        let a = cache.tables(spec_at(0.5), &anchors, &dists, carrier);
        let b = cache.tables(spec_at(0.4), &anchors, &dists, carrier);
        assert_eq!(cache.len(), 2);
        // Touch `a` so the 0.4 m entry is the least recently used, then
        // insert a third: `b` must be the eviction victim.
        let a2 = cache.tables(spec_at(0.5), &anchors, &dists, carrier);
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = cache.tables(spec_at(0.25), &anchors, &dists, carrier);
        assert_eq!(cache.len(), 2);
        let b2 = cache.tables(spec_at(0.4), &anchors, &dists, carrier);
        assert!(
            !Arc::ptr_eq(&b, &b2),
            "evicted entry must be rebuilt, not served stale"
        );

        // A single entry larger than the budget stays resident: the cache
        // never evicts below one geometry.
        let cache = SteeringCache::with_budget(1);
        let big = cache.tables(spec_at(0.1), &anchors, &dists, carrier);
        assert_eq!(cache.len(), 1);
        let big2 = cache.tables(spec_at(0.1), &anchors, &dists, carrier);
        assert!(Arc::ptr_eq(&big, &big2));
        // The built-in budget holds every workload's geometries.
        assert_eq!(
            SteeringCache::new().inner.lock().unwrap().byte_budget,
            CACHE_BUDGET_BYTES
        );
    }

    /// Anchor `i`'s lanes at parent cell `(ix, iy)`: `Δ` and carrier
    /// phasors, padding lanes included.
    fn lanes(t: &SteeringTables, i: usize, ix: usize, iy: usize) -> (Vec<f64>, Vec<C64>) {
        let (b, shape) = t.block(ix, iy);
        let block = t.blocks[b].read().unwrap();
        let a = t.lanes(&block, shape.cells(), i);
        let nl = t.n_lanes[i];
        let cell = shape.cell(ix, iy);
        let r = cell * nl..(cell + 1) * nl;
        let carrier = r
            .clone()
            .map(|k| C64::new(a.carrier_re[k], a.carrier_im[k]))
            .collect();
        (a.delta[r].to_vec(), carrier)
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
        let carrier = 2.441e9;
        let tables = SteeringTables::build(spec, &anchors, &dists, carrier);
        let tau_over_c = std::f64::consts::TAU / SPEED_OF_LIGHT;
        for iy in 0..spec.ny {
            for ix in 0..spec.nx {
                let x = spec.cell_center(ix, iy);
                let cell = spec.flat(ix, iy);
                for (i, a) in anchors.iter().enumerate() {
                    let ds = tables.cell_deltas(i, cell);
                    assert_eq!(ds.len(), a.n_antennas);
                    let (delta, phasor) = lanes(&tables, i, ix, iy);
                    for (j, &d) in ds.iter().enumerate() {
                        let manual = x.dist(a.antenna(j)) - x.dist(master0) - dists[i];
                        assert_eq!(d, manual, "cell ({ix},{iy}) anchor {i} ant {j}");
                        assert_eq!(delta[j], d);
                        assert_eq!(phasor[j], C64::cis(tau_over_c * carrier * d));
                    }
                    // Padding lanes copy antenna 0: their lookups stay
                    // inside the window's lattice, and a zero alpha
                    // annihilates them exactly.
                    for j in a.n_antennas..tables.n_lanes[i] {
                        assert_eq!(delta[j], delta[0]);
                        assert_eq!(phasor[j], phasor[0]);
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
        let carrier = 2.441e9;
        let whole = SteeringTables::build(spec, &anchors, &dists, carrier);
        let tile_bytes = |nx: usize, ny: usize| 3 * 8 * nx * ny * (4 + 4);
        assert_eq!(whole.approx_bytes(), tile_bytes(spec.nx, spec.ny));

        // Overlapping patch windows in a shuffled order, then the corners
        // and the ragged last column/row, until every tile is filled.
        let lazy = SteeringTables::empty(spec, &anchors, &dists, carrier);
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
                    let bits = |v: &(Vec<f64>, Vec<C64>)| -> Vec<u64> {
                        v.0.iter()
                            .copied()
                            .chain(v.1.iter().flat_map(|c| [c.re, c.im]))
                            .map(f64::to_bits)
                            .collect()
                    };
                    assert_eq!(bits(&a), bits(&b), "cell ({ix},{iy}) anchor {i}");
                }
            }
        }
    }
}
