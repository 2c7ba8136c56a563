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
//!    lane-padded layout, and [`SteeringCache`] memoizes each cell's
//!    relative distances `Δ_ij(x)` (Eq. 14) and carriers — three arrays
//!    per anchor and storage strip, `Δ` and the carrier's re and im —
//!    keyed by (grid, anchor geometry, carrier): a deployment sounds
//!    thousands of times against the same grid, and the geometry never
//!    changes. The tables are indexed by the grid, stored in strips the
//!    grid's full width and filled lazily in small tiles; every
//!    evaluation reads a [`GridPatch`] *window* of them — the whole grid
//!    for a dense map, a patch for a hierarchical level — so a moving
//!    patch reuses its grid's one table instead of building its own. A
//!    window's rows are contiguous in their strip, so each (anchor,
//!    strip) is one kernel call writing straight into the map, and a
//!    window's lattice is the union of its tiles' recorded `Δ` ranges,
//!    read without a lock. A lattice row's samples depend on its index
//!    alone, so a window's cells equal the dense map's bit for bit.
//! 3. **Sounding batches**: [`LikelihoodEngine::likelihood_batch`] groups
//!    soundings that share a steering entry, band set and alive anchors,
//!    up to [`sweep::MAX_TAGS`] per group; the group shares each cell's
//!    lattice index, Hermite weights and carrier, and the profile
//!    build's phasor matrix ([`bloc_num::sweep::write_profile_cells_batch`]).
//!    Only the profiles and accumulators are per sounding, so every
//!    sounding's maps equal a call of its own bit for bit. The
//!    single-sounding entries are its batch of one. A batch checks its
//!    window's fill once per group, and reuses one set of map buffers
//!    across its anchor passes unless the maps are returned.
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
use bloc_num::sweep::{
    self, CellRows, CellSweep, Combine, Lattice, ProfilePlan, ProfileWeights, MAX_TAGS,
};
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
    pub(crate) fn empty() -> Self {
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
    pub(crate) fn rebuild(&mut self, corrected: &CorrectedChannels) {
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
    #[cfg(test)]
    fn n_bands(&self) -> usize {
        self.plan.wavenumbers.len()
    }
}

/// Width, in cells, of a fill tile — the unit of lazy fill.
const TILE_W: usize = 4;
/// Height, in grid rows, of a fill tile. Tiles this small fill little
/// beyond a refine patch's own cells (33 across on the 8 cm corridor
/// grid), so an acquisition round fills about as many cells as its
/// patches evaluate.
const TILE_H: usize = 2;
/// Height, in grid rows, of a storage strip (a multiple of [`TILE_H`]):
/// one kernel call sweeps a window's rows of a strip.
const STRIP_H: usize = 8;

/// One anchor's lane-padded steering tables over the cells of one strip,
/// row-major at the grid's row stride, borrowed from the strip's storage.
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
/// carrier phasor `e^{ι2πf_cΔ/c}`, as three arrays per strip (`Δ`, the
/// carrier's real and imaginary parts). Hoisting the carrier into the
/// cache removes every transcendental call from the per-cell work: the
/// warm kernel is a lookup and a few multiply-adds.
///
/// The tables are indexed by the parent grid and filled lazily, one
/// 4×2-cell tile (`TILE_W`×`TILE_H`) at a time, the first time a window
/// touches it ([`SteeringTables::fill`]); every cell's values are
/// computed from `spec.cell_center(ix, iy)` exactly as a whole-grid
/// build computes them, so the fill order never changes a bit. Storage
/// is one strip per `STRIP_H` rows, the grid's full width, allocated by
/// the strip's first tile — so every window row is
/// contiguous in its strip and one kernel call sweeps a window's rows of
/// a strip. A fine patch is a window into its grid's one table, not a
/// table of its own.
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
    /// strip, in units of `3 · strip cells`); the last entry is the total.
    lane_base: Vec<usize>,
    /// Fill markers, row-major over tiles; each tile is computed at most
    /// once.
    tiles: Vec<OnceLock<()>>,
    /// Each tile's `Δ` range per anchor (`[min, max]` over its lanes, at
    /// `i · tiles + tile`), set once by the tile's fill, so a window's
    /// lattice reads it without a lock.
    ranges: Vec<OnceLock<[f64; 2]>>,
    /// Strip storage, one per `STRIP_H` rows: anchor `i`'s three tables (`Δ`,
    /// carrier re/im, each `strip cells · n_lanes[i]` long) from offset
    /// `3 · strip cells · lane_base[i]`. Empty until the strip's first
    /// tile fills; tiles write under the strip's write lock, the kernel
    /// reads under its read lock.
    strips: Vec<RwLock<Vec<f64>>>,
    /// Bytes of the strips allocated so far.
    allocated_bytes: AtomicUsize,
}

/// Tables per anchor in a strip: `Δ` and the carrier's real and
/// imaginary parts.
const TABLES_PER_ANCHOR: usize = 3;

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
            ranges: (0..n_tiles * anchors.len())
                .map(|_| OnceLock::new())
                .collect(),
            strips: (0..spec.ny.div_ceil(STRIP_H))
                .map(|_| RwLock::new(Vec::new()))
                .collect(),
            allocated_bytes: AtomicUsize::new(0),
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

    /// The tile columns and rows `window` touches.
    fn tile_span(window: &GridPatch) -> [std::ops::RangeInclusive<usize>; 2] {
        let (x1, y1) = (
            window.x0 + window.spec.nx - 1,
            window.y0 + window.spec.ny - 1,
        );
        [
            window.x0 / TILE_W..=x1 / TILE_W,
            window.y0 / TILE_H..=y1 / TILE_H,
        ]
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
        let [txs, tys] = Self::tile_span(window);
        let mut computed = 0;
        for ty in tys {
            for tx in txs.clone() {
                self.tiles[ty * tiles_x + tx].get_or_init(|| {
                    computed += 1;
                    self.compute_tile(tx, ty);
                });
            }
        }
        computed
    }

    /// Grid cells in strip `s` (ragged at the grid's last strip).
    fn strip_cells(&self, s: usize) -> usize {
        STRIP_H.min(self.spec.ny - s * STRIP_H) * self.spec.nx
    }

    /// The one place that pays the per-cell distance arithmetic and
    /// carrier phasors: tile `(tx, ty)`, written into its strip under the
    /// strip's write lock.
    fn compute_tile(&self, tx: usize, ty: usize) {
        let spec = self.spec;
        let (x0, y0) = (tx * TILE_W, ty * TILE_H);
        let (x1, y1) = ((x0 + TILE_W).min(spec.nx), (y0 + TILE_H).min(spec.ny));
        let (s, strip_y0) = (y0 / STRIP_H, y0 / STRIP_H * STRIP_H);
        let strip_cells = self.strip_cells(s);
        let total_lanes = self.lane_base.last().copied().unwrap_or(0);
        let phase_per_m = std::f64::consts::TAU / SPEED_OF_LIGHT * self.carrier_hz;
        // A fill that panicked left only its own tile's cells half
        // written, and that tile stays unfilled, so recovering is sound.
        let mut strip = self.strips[s].write().unwrap_or_else(|e| e.into_inner());
        if strip.is_empty() {
            *strip = vec![0.0; TABLES_PER_ANCHOR * strip_cells * total_lanes];
            let bytes = strip.len() * std::mem::size_of::<f64>();
            self.allocated_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        let mut rest = &mut strip[..];
        let tile = ty * spec.nx.div_ceil(TILE_W) + tx;
        for (i, positions) in self.antennas.iter().enumerate() {
            let nl = self.n_lanes[i];
            let len = strip_cells * nl;
            let (tables, tail) = rest.split_at_mut(TABLES_PER_ANCHOR * len);
            rest = tail;
            let (delta, tables) = tables.split_at_mut(len);
            let (carrier_re, carrier_im) = tables.split_at_mut(len);
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for iy in y0..y1 {
                for ix in x0..x1 {
                    let lane0 = ((iy - strip_y0) * spec.nx + ix) * nl;
                    for (j, d) in self.deltas_at(i, ix, iy).enumerate() {
                        let c = C64::cis(phase_per_m * d);
                        (
                            delta[lane0 + j],
                            carrier_re[lane0 + j],
                            carrier_im[lane0 + j],
                        ) = (d, c.re, c.im);
                    }
                    // Padding lanes copy antenna 0 (a lane with no
                    // antenna at all keeps Δ = 0 and the unit carrier).
                    for k in lane0 + positions.len()..lane0 + nl {
                        (delta[k], carrier_re[k], carrier_im[k]) = if positions.is_empty() {
                            (0.0, 1.0, 0.0)
                        } else {
                            (delta[lane0], carrier_re[lane0], carrier_im[lane0])
                        };
                    }
                    for &d in &delta[lane0..lane0 + nl] {
                        (lo, hi) = (lo.min(d), hi.max(d));
                    }
                }
            }
            let fresh = self.ranges[i * self.tiles.len() + tile].set([lo, hi]);
            debug_assert!(fresh.is_ok(), "the tile's marker runs its fill once");
        }
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

    /// Anchor `i`'s tables within the storage of a strip of `cells`
    /// cells.
    fn lanes<'b>(&self, strip: &'b [f64], cells: usize, i: usize) -> AnchorLanes<'b> {
        let len = cells * self.n_lanes[i];
        let tables =
            &strip[TABLES_PER_ANCHOR * cells * self.lane_base[i]..][..TABLES_PER_ANCHOR * len];
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

    /// Approximate heap footprint of the strips allocated so far (the
    /// payload vectors; headers and unfilled slots are noise next to
    /// them). It grows as windows reach new strips and feeds the
    /// `cache.steering.resident_bytes` gauge and the LRU byte budget.
    pub fn approx_bytes(&self) -> usize {
        self.allocated_bytes.load(Ordering::Relaxed)
    }

    /// The `Δ_ij` of one cell for anchor `i` (length = antennas of `i`,
    /// indexed by `j` — padding lanes excluded), recomputed from the
    /// geometry exactly as the fill computes it. Inspection, not a hot
    /// path.
    pub fn cell_deltas(&self, i: usize, cell: usize) -> Vec<f64> {
        let nx = self.spec.nx.max(1);
        self.deltas_at(i, cell % nx, cell / nx).collect()
    }

    /// The lattice of step `step_m` that brackets every `Δ` anchor `i`'s
    /// lanes take over `window`: the union of the `Δ` ranges the fill
    /// recorded for each tile the window touches. The window's tiles are
    /// filled before it is swept; a tile found unfilled fails a debug
    /// build and is filled here in a release one, never read as empty.
    fn lattice(&self, i: usize, window: &GridPatch, step_m: f64) -> Lattice {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        if !window.spec.is_empty() {
            let tiles_x = self.spec.nx.div_ceil(TILE_W);
            let [txs, tys] = Self::tile_span(window);
            let base = i * self.tiles.len() + txs.start();
            for ty in tys {
                for range in &self.ranges[base + ty * tiles_x..][..txs.clone().count()] {
                    let Some(&[min, max]) = range.get() else {
                        debug_assert!(range.get().is_some(), "lattice over an unfilled tile");
                        self.fill(window);
                        return self.lattice(i, window, step_m);
                    };
                    // `Δ` is finite and never −0: `<` keeps the extremes
                    // `f64::min` would, without its NaN handling.
                    (lo, hi) = (
                        if min < lo { min } else { lo },
                        if max > hi { max } else { hi },
                    );
                }
            }
        }
        // The row index is monotone in `Δ`, so the extremes bracket all.
        Lattice::covering(step_m, [lo, hi])
    }

    /// Evaluates anchor `i` over the rows of `window`, whose tiles are
    /// filled, for every sounding of a batch that shares these tables:
    /// `outs[t]` holds sounding `t`'s window map, read from its
    /// profile `profiles[t]` over `lattice`. One sweep-kernel call per
    /// strip the window crosses, under the strip's read lock, writes the
    /// window's rows of that strip straight into the maps.
    fn sweep_rows(
        &self,
        profiles: &[&[f64]],
        lattice: Lattice,
        i: usize,
        combine: Combine,
        window: &GridPatch,
        outs: &mut [&mut [f64]],
    ) {
        if window.spec.is_empty() {
            return;
        }
        let (nx, width) = (self.spec.nx, window.spec.nx);
        let n_tags = outs.len();
        let y1 = window.y0 + window.spec.ny;
        for s in window.y0 / STRIP_H..=(y1 - 1) / STRIP_H {
            let y0 = s * STRIP_H;
            let (r0, r1) = (
                y0.max(window.y0) - window.y0,
                (y0 + STRIP_H).min(y1) - window.y0,
            );
            let strip = self.strips[s].read().unwrap_or_else(|e| e.into_inner());
            let lanes = self.lanes(&strip, self.strip_cells(s), i);
            let tags: [CellSweep<'_>; MAX_TAGS] = std::array::from_fn(|t| CellSweep {
                delta: lanes.delta,
                carrier_re: lanes.carrier_re,
                carrier_im: lanes.carrier_im,
                n_lanes: self.n_lanes[i],
                lattice,
                profile: profiles[t.min(n_tags - 1)],
            });
            let rows = CellRows {
                first_cell: (window.y0 + r0 - y0) * nx + window.x0,
                width,
                stride: nx,
            };
            let mut views: [&mut [f64]; MAX_TAGS] = Default::default();
            for (view, out) in views.iter_mut().zip(outs.iter_mut()) {
                *view = &mut out[r0 * width..r1 * width];
            }
            sweep::write_profile_cells_batch(&tags[..n_tags], combine, rows, &mut views[..n_tags]);
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
/// resident-byte gauge and the LRU budget (`CACHE_BUDGET_BYTES`) are
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
pub(crate) const CACHE_BUDGET_BYTES: usize = 256 << 20;

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

    /// True when no deployment is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Anchor `i`'s raw Eq. 17 maps over `window` of `tables`' grid (whose
/// tiles are filled) into `maps`, one per sounding of a batch of
/// 1 ..= [`sweep::MAX_TAGS`] that share the tables and band set (panics
/// on any other batch), and returns the profile rows × lanes it built. It
/// brackets the window's `Δ` with a [`Lattice`], builds every sounding's
/// profile over it ([`sweep::build_profiles`] — the phasor matrix is a
/// rotation recurrence along `Δ`, shared by the batch), then sweeps the
/// window's rows ([`sweep::write_profile_cells_batch`]): one Hermite
/// lookup per (cell, antenna) and one complex multiply by the cached
/// carrier. Each cell's value is the parent grid's value at that cell for
/// that sounding alone, bit for bit. The row sweep is one
/// `par.likelihood` region of one shard.
fn sweep_anchor(
    soas: &[&SoaChannels],
    tables: &SteeringTables,
    window: &GridPatch,
    i: usize,
    combining: AntennaCombining,
    maps: &mut [Grid2D],
) -> usize {
    let n_tags = soas.len();
    assert!(
        (1..=MAX_TAGS).contains(&n_tags) && maps.len() == n_tags,
        "a kernel batch holds 1..={MAX_TAGS} soundings, one map each"
    );
    let plan = &soas[0].plan;
    assert!(
        soas.iter().all(|soa| &soa.plan == plan),
        "a kernel batch shares one band set"
    );
    let lattice = tables.lattice(i, window, plan.step_m);
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
    for (out, map) in outs.iter_mut().zip(maps.iter_mut()) {
        *out = map.data_mut();
    }
    let combine = combine_of(combining);
    // One chunk holding every sounding's map: the region's one shard.
    bloc_num::par::for_each_chunk_mut_named(
        "likelihood",
        &mut outs[..n_tags],
        n_tags,
        1,
        |_, outs| tables.sweep_rows(profiles, lattice, i, combine, window, outs),
    );
    PROFILES.set(buffer);
    n_tags * len / 4
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
        let mut map = [Grid2D::zeros(spec)];
        let rows = sweep_anchor(&[&soa], &tables, &window, i, combining, &mut map);
        self.release_soas([soa]);
        count_work(&window, 1, rows);
        let [map] = map;
        map
    }

    /// The steering lookup for `corrected`'s deployment and comb, which
    /// fills `window`'s tiles: the one fill check of a window.
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
    /// group's anchor passes run inside `par.likelihood` regions,
    /// `engine.cells_evaluated` counts every sounding's cells and
    /// `engine.profile_rows` every profile row × lane built.
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
        // Each pass's maps; kept across passes unless they are returned.
        let mut buffer: Vec<Grid2D> = Vec::new();
        let mut profile_rows = 0;
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
                buffer.resize_with(size, || Grid2D::zeros(window.spec));
                profile_rows += sweep_anchor(
                    &group_soas[..size],
                    &tables,
                    window,
                    i,
                    combining,
                    &mut buffer,
                );
                for (&k, map) in group.iter().zip(&buffer) {
                    joints[k].add(i, map);
                }
                if keep_maps {
                    for (&k, map) in group.iter().zip(buffer.drain(..)) {
                        maps[k].push((i, map));
                    }
                }
            }
        }
        count_work(window, alive.iter().map(Vec::len).sum(), profile_rows);
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
    /// the weighting contract) over the whole grid: the batch of one
    /// ([`LikelihoodEngine::likelihood_batch`]) on the whole-grid window.
    pub fn joint_likelihood(
        &self,
        corrected: &CorrectedChannels,
        spec: GridSpec,
        combining: AntennaCombining,
    ) -> Grid2D {
        let whole = GridPatch::whole(spec);
        self.likelihood_batch(&[corrected], spec, &whole, combining, false)
            .into_iter()
            .next()
            .map_or_else(|| Grid2D::zeros(whole.spec), |m| m.joint)
    }
}

/// One kernel pass per alive anchor over the window: the unit every
/// dense-vs-hierarchical reduction gate and per-round soak report counts
/// (`passes` summed over a batch's soundings); and the profile rows ×
/// lanes those passes built.
fn count_work(window: &GridPatch, passes: usize, profile_rows: usize) {
    bloc_obs::counter("engine.cells_evaluated").add((window.spec.len() * passes) as u64);
    bloc_obs::counter("engine.profile_rows").add(profile_rows as u64);
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn soa_layout_round_trips_the_alpha_tensor() {
        use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
        use rand::SeedableRng;
        let room = bloc_chan::geometry::Room::new(5.0, 6.0);
        let (mids, walls) = (room.wall_midpoints(), room.walls());
        let anchors: Vec<AnchorArray> = (0..4)
            .map(|i| AnchorArray::centered(i, mids[i], walls[i].direction(), 4))
            .collect();
        let env = bloc_chan::Environment::free_space();
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(700);
        let sounding = sounder.sound(P2::new(1.1, 1.2), &all_data_channels(), &mut rng);
        let corrected = crate::correction::correct(&sounding, true).unwrap();
        let soa = SoaChannels::build(&corrected);
        assert_eq!(soa.n_bands(), corrected.bands.len());
        // The plan centres the carrier on the band span, on a 10 MHz grid.
        let freqs = corrected.bands.iter().map(|b| b.freq_hz);
        let (lo, hi) = (
            freqs.clone().fold(f64::INFINITY, f64::min),
            freqs.fold(0.0, f64::max),
        );
        assert!((soa.plan.carrier_hz - 0.5 * (lo + hi)).abs() <= 5e6);
        assert_eq!(soa.plan.carrier_hz % 10e6, 0.0);
        for i in 0..corrected.n_anchors() {
            assert_eq!(soa.n_antennas[i], corrected.anchors[i].n_antennas);
            let lanes = soa.n_lanes[i];
            for (b, band) in corrected.bands.iter().enumerate() {
                for j in 0..lanes {
                    let a = C64::new(
                        soa.alpha_re[i][b * lanes + j],
                        soa.alpha_im[i][b * lanes + j],
                    );
                    // Padding lanes are exact zeros; real lanes carry α.
                    let want = band.alpha[i].get(j).copied().unwrap_or(C64::new(0.0, 0.0));
                    assert_eq!(a, want, "anchor {i} lane {j} band {b}");
                }
            }
        }
    }

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
        let strip = t.strips[iy / STRIP_H].read().unwrap();
        let a = t.lanes(&strip, t.strip_cells(iy / STRIP_H), i);
        let nl = t.n_lanes[i];
        let cell = (iy % STRIP_H) * t.spec.nx + ix;
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
    fn a_lattice_never_reads_an_unfilled_tile_as_empty() {
        let spec = GridSpec {
            origin: P2::new(0.0, 0.0),
            resolution: 0.1,
            nx: 20,
            ny: 12,
        };
        let anchors = vec![AnchorArray::centered(
            0,
            P2::new(1.0, -0.2),
            P2::new(1.0, 0.0),
            4,
        )];
        let window = spec.patch(P2::new(1.0, 0.6), 0.4);
        let filled = SteeringTables::build(spec, &anchors, &[0.0], 2.441e9);
        let cold = SteeringTables::empty(spec, &anchors, &[0.0], 2.441e9);
        let lattice = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cold.lattice(0, &window, 0.03)
        }));
        // A debug build fails; a release build fills the window first.
        if cfg!(debug_assertions) {
            assert!(lattice.is_err());
        } else {
            assert_eq!(lattice.unwrap(), filled.lattice(0, &window, 0.03));
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
        assert!(!spec.nx.is_multiple_of(TILE_W) && !spec.ny.is_multiple_of(STRIP_H));
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
        // The lattice reads the tiles' Δ ranges: they too are the whole
        // build's.
        let range_bits = |t: &SteeringTables| -> Vec<Option<[u64; 2]>> {
            t.ranges
                .iter()
                .map(|r| r.get().map(|r| r.map(f64::to_bits)))
                .collect()
        };
        assert!(range_bits(&lazy).iter().all(Option::is_some));
        assert_eq!(range_bits(&lazy), range_bits(&whole));
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
