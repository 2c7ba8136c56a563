//! Hand-rolled `f64` SIMD with a runtime-dispatched scalar twin.
//!
//! The workspace's hot loops — the Eq. 17 range-profile kernels of
//! `bloc-core` and the Eq. 2 channel sweep in `bloc-chan` — are complex
//! phasor multiply-adds over structure-of-arrays data. This module gives
//! them one vector substrate with **no** external dependencies. The
//! `CellLanes` operations trait describes a vector of `CELLS` grid cells
//! × 4 lanes (in the envelope GEMM, `CELLS` quads of consecutive rows).
//! There are three implementations:
//!
//! * `ScalarX4` — plain `[f64; 4]` element-wise arithmetic, compiled for
//!   the baseline target, plus `fma`-enabled twins of the kernels for
//!   CPUs with FMA (one cell);
//! * `AvxX4` (x86-64 only) — the same operations as explicit AVX2
//!   `__m256d` intrinsics (one cell);
//! * `Avx512X8` (x86-64 only) — one AVX-512 `__m512d` holding **two
//!   consecutive grid cells × 4 lanes** (or eight rows in the envelope
//!   GEMM), with each 4-lane row operand broadcast into both 256-bit
//!   halves.
//!
//! # Bit-identical dispatch
//!
//! Every kernel in [`crate::sweep`] is written once as a generic body and
//! instantiated for each implementation, and every trait operation is
//! exact (`floor`, the clamped `index`, and the loads, stores and
//! transposes of `gather_rows`/`store_records`), IEEE-754 correctly
//! rounded (`add`/`sub`/`mul`/`sqrt` and the fused
//! `mul_add`/`neg_mul_add`, which round `a·b ± c` once) or has a fixed,
//! documented reduction order (`CellLanes::hsum_cells`: each cell is
//! reduced from its own four lanes). Consequently all dispatch paths
//! produce **bit-identical** results — the equivalence suites assert
//! this, and it is why no result in the workspace depends on which CPU
//! ran it. Fused multiply-add keeps that identity: one correctly rounded
//! operation gives the same bits from `f64::mul_add`, `vfmadd…pd` on
//! 256 bits and on 512 bits. Every kernel runs on the fused ops.
//!
//! # Choosing a path
//!
//! [`cell_level`] picks the widest level the host supports, and every
//! kernel dispatches on it — AVX-512 (`avx512f`, `avx2` and `fma`), else
//! AVX2 (`avx2` and `fma`), else scalar. [`active_level`] is its 4-lane
//! part — AVX2, else scalar — the level reports give as the host's SIMD
//! level; no kernel dispatches on it. Both are scalar when the
//! `BLOC_NO_SIMD` environment variable is set (any value); the scalar leg
//! CI runs under exactly that switch. Kernels that need an explicit path
//! (the equivalence tests) take a [`SimdLevel`] argument from
//! `host_levels` instead of consulting the global, so tests never
//! mutate process state.
//!
//! # Safety
//!
//! This is the one module in `bloc-num` that uses `unsafe`: the AVX2 and
//! AVX-512 intrinsics, plus the `#[target_feature]` kernel twins in
//! [`crate::sweep`]. The containment argument is narrow and checkable:
//!
//! * [`SimdLevel`] is opaque — code outside this crate cannot name a
//!   level, only receive one from [`active_level`], [`cell_level`] or
//!   `host_levels`, and all come from `host_levels`'s one-time CPU
//!   detection. The AVX2
//!   level exists only behind `is_x86_feature_detected!` for `avx2` and
//!   `fma`, the AVX-512 level only behind `avx512f`, `avx2` **and** `fma`
//!   (its odd-cell tail runs the AVX2 instantiation).
//! * `AvxX4` and `Avx512X8` methods are only reachable from kernel
//!   twins dispatched on the matching level, so a safe caller can never
//!   execute an instruction its CPU lacks. The scalar level's `fma` twins
//!   run only behind `has_fma` detection.

#![allow(unsafe_code)]

/// Which vector implementation a kernel should run.
///
/// Opaque on purpose: a level can only be obtained from CPU detection
/// ([`active_level`], [`cell_level`], [`host_levels`]), so safe code
/// cannot hand a kernel
/// a level the host cannot execute.
///
/// ```
/// let level = bloc_num::simd::active_level();
/// assert!(bloc_num::simd::host_levels().contains(&level));
/// assert!(bloc_num::simd::host_levels().contains(&bloc_num::simd::cell_level()));
/// ```
///
/// ```compile_fail
/// // There is no way to name a level the CPU was not detected to run.
/// let _ = bloc_num::simd::SimdLevel::Avx2;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdLevel(pub(crate) Level);

/// The implementation behind a [`SimdLevel`], narrowest first (the
/// discriminant indexes [`LEVEL_LABELS`]).
// Off x86-64, detection only ever constructs `Scalar`.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    /// Plain `[f64; 4]` arithmetic — always available.
    Scalar,
    /// 256-bit AVX2 `__m256d` arithmetic.
    Avx2,
    /// 512-bit AVX-512F `__m512d` arithmetic, two cells per vector.
    Avx512,
}

/// Report labels of every level this build knows, narrowest first —
/// benchmark rows name the levels a host lacks from this list.
pub const LEVEL_LABELS: [&str; 3] = ["scalar", "avx2", "avx512"];

impl SimdLevel {
    /// A short label for benchmark reports (one of [`LEVEL_LABELS`]).
    pub fn label(self) -> &'static str {
        LEVEL_LABELS[self.0 as usize]
    }
}

/// Every level this host's CPU can execute, narrowest first (scalar
/// always), detected once. Ignores `BLOC_NO_SIMD`: the equivalence suites
/// compare every executable path whatever the dispatch switch says.
pub fn host_levels() -> &'static [SimdLevel] {
    static LEVELS: std::sync::OnceLock<Vec<SimdLevel>> = std::sync::OnceLock::new();
    LEVELS.get_or_init(|| {
        let mut levels = vec![SimdLevel(Level::Scalar)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && has_fma() {
            levels.push(SimdLevel(Level::Avx2));
            if std::arch::is_x86_feature_detected!("avx512f") {
                levels.push(SimdLevel(Level::Avx512));
            }
        }
        levels
    })
}

/// True when the CPU executes fused multiply-add in hardware. The AVX2
/// and AVX-512 levels exist only behind it, and the scalar level runs the
/// cell kernel's `fma`-compiled twin when it holds; without it, the plain
/// twin's `f64::mul_add` is a (correctly rounded, much slower) libm call.
#[cfg(target_arch = "x86_64")]
pub(crate) fn has_fma() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

/// The 4-lane part of [`cell_level`]: AVX2 when detected, else scalar,
/// and scalar when `BLOC_NO_SIMD` is set. Reports (the benchmark's host
/// record among them) name it as the host's SIMD level; the kernels all
/// dispatch on [`cell_level`], whose AVX-512 level runs an odd last cell
/// on this level's one-cell vectors.
pub fn active_level() -> SimdLevel {
    match cell_level().0 {
        Level::Avx512 => SimdLevel(Level::Avx2),
        _ => cell_level(),
    }
}

/// The level every kernel dispatches to, computed once: the widest of
/// `host_levels` — AVX-512, two cells per vector, on hosts with
/// `avx512f`, `avx2` and `fma` — or scalar when `BLOC_NO_SIMD` is set.
pub fn cell_level() -> SimdLevel {
    static LEVEL: std::sync::OnceLock<SimdLevel> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(|| {
        let levels = host_levels();
        if std::env::var_os("BLOC_NO_SIMD").is_some() {
            levels[0]
        } else {
            levels[levels.len() - 1]
        }
    })
}

/// `CELLS` grid cells × 4 `f64` lanes with the operations the kernels
/// need — the type their generic bodies are instantiated over.
///
/// Implementations must be IEEE-754 correctly rounded per lane (the
/// fused ops round once, as IEEE-754 `fusedMultiplyAdd`) and must
/// use the exact [`CellLanes::hsum_cells`] reduction order, so that any
/// generic kernel instantiated over two implementations produces
/// bit-identical results (the dispatch-equivalence contract of this
/// module).
pub(crate) trait CellLanes: Copy {
    /// Grid cells one vector holds, four lanes each.
    const CELLS: usize;
    /// One horizontal sum per cell (`[f64; CELLS]`).
    type Sums: Copy + Default + AsRef<[f64]> + AsMut<[f64]>;
    /// Clamped gather indices, one per lane, with the bound they were
    /// clamped to ([`CellLanes::index`]).
    type Index: Copy;
    /// All lanes set to `v`.
    fn splat(v: f64) -> Self;
    /// Loads cell `c`'s four lanes from `s[c·stride ..][..4]` (panics if
    /// `s` is shorter).
    fn load_cells(s: &[f64], stride: usize) -> Self;
    /// Loads one 4-lane row from `s[0..4]` into every cell (panics if
    /// shorter).
    fn load_row(s: &[f64]) -> Self;
    /// Lane-wise sum.
    fn add(self, o: Self) -> Self;
    /// Lane-wise difference.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise product.
    fn mul(self, o: Self) -> Self;
    /// Lane-wise fused `self·b + c`, rounded once.
    fn mul_add(self, b: Self, c: Self) -> Self;
    /// Lane-wise fused `c − self·b`, rounded once.
    fn neg_mul_add(self, b: Self, c: Self) -> Self;
    /// Lane-wise square root.
    fn sqrt(self) -> Self;
    /// Lane-wise `⌊self⌋` (exact).
    fn floor(self) -> Self;
    /// Lanes holding exact non-negative integers as gather indices, each
    /// clamped to `0..=max` (a NaN lane reads 0), so a gather through
    /// them stays inside any slice longer than `max`. Panics unless `max`
    /// fits an `i32`.
    fn index(self, max: usize) -> Self::Index;
    /// The eight consecutive values `s[idx .. idx + 8]` of every lane,
    /// transposed: `out[v]` holds each lane's value `v`. Panics unless
    /// `s.len()` reaches 8 past the `max` the indices were clamped to.
    fn gather_rows(s: &[f64], idx: Self::Index) -> [Self; 8];
    /// Stores cell `c`'s four lanes to `out[c·stride ..][..4]` (panics if
    /// `out` is shorter).
    fn store_cells(self, out: &mut [f64], stride: usize);
    /// Stores four vectors as records, one per lane in cell-major order:
    /// `out[4·l + k]` is lane `l` of `q[k]` (panics if `out` is shorter
    /// than `16·CELLS`) — the transpose of [`CellLanes::gather_rows`]'s
    /// first four values.
    fn store_records(q: [Self; 4], out: &mut [f64]);
    /// Each cell's horizontal sum with the fixed association
    /// `(l0 + l2) + (l1 + l3)` — the order a 256-bit high/low fold
    /// produces naturally, adopted by every implementation so all paths
    /// agree bitwise.
    fn hsum_cells(self) -> Self::Sums;
}

/// The scalar fallback: `[f64; 4]` element-wise arithmetic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarX4([f64; 4]);

impl CellLanes for ScalarX4 {
    const CELLS: usize = 1;
    type Sums = [f64; 1];
    type Index = [usize; 4];
    #[inline(always)]
    fn splat(v: f64) -> Self {
        ScalarX4([v; 4])
    }
    #[inline(always)]
    fn load_cells(s: &[f64], _stride: usize) -> Self {
        ScalarX4([s[0], s[1], s[2], s[3]])
    }
    #[inline(always)]
    fn load_row(s: &[f64]) -> Self {
        Self::load_cells(s, 4)
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        ScalarX4([
            self.0[0] + o.0[0],
            self.0[1] + o.0[1],
            self.0[2] + o.0[2],
            self.0[3] + o.0[3],
        ])
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        ScalarX4([
            self.0[0] - o.0[0],
            self.0[1] - o.0[1],
            self.0[2] - o.0[2],
            self.0[3] - o.0[3],
        ])
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        ScalarX4([
            self.0[0] * o.0[0],
            self.0[1] * o.0[1],
            self.0[2] * o.0[2],
            self.0[3] * o.0[3],
        ])
    }
    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        ScalarX4([
            self.0[0].mul_add(b.0[0], c.0[0]),
            self.0[1].mul_add(b.0[1], c.0[1]),
            self.0[2].mul_add(b.0[2], c.0[2]),
            self.0[3].mul_add(b.0[3], c.0[3]),
        ])
    }
    #[inline(always)]
    fn neg_mul_add(self, b: Self, c: Self) -> Self {
        // `−a·b` is exact, so this rounds `c − a·b` once, like `vfnmadd`.
        ScalarX4([
            (-self.0[0]).mul_add(b.0[0], c.0[0]),
            (-self.0[1]).mul_add(b.0[1], c.0[1]),
            (-self.0[2]).mul_add(b.0[2], c.0[2]),
            (-self.0[3]).mul_add(b.0[3], c.0[3]),
        ])
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        ScalarX4([
            self.0[0].sqrt(),
            self.0[1].sqrt(),
            self.0[2].sqrt(),
            self.0[3].sqrt(),
        ])
    }
    #[inline(always)]
    fn floor(self) -> Self {
        ScalarX4(self.0.map(f64::floor))
    }
    #[inline(always)]
    fn index(self, max: usize) -> [usize; 4] {
        assert!(max <= i32::MAX as usize);
        let hi = max as f64;
        // The `maxpd`/`minpd` operand order: a NaN lane takes the second
        // operand, 0.
        self.0.map(|x| {
            let x = if x > 0.0 { x } else { 0.0 };
            (if x < hi { x } else { hi }) as usize
        })
    }
    #[inline(always)]
    fn gather_rows(s: &[f64], idx: [usize; 4]) -> [Self; 8] {
        let rows = idx.map(|i| &s[i..i + 8]);
        std::array::from_fn(|v| ScalarX4(rows.map(|r| r[v])))
    }
    #[inline(always)]
    fn store_cells(self, out: &mut [f64], _stride: usize) {
        out[..4].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn store_records(q: [Self; 4], out: &mut [f64]) {
        for (l, record) in out[..16].chunks_exact_mut(4).enumerate() {
            record.copy_from_slice(&[q[0].0[l], q[1].0[l], q[2].0[l], q[3].0[l]]);
        }
    }
    #[inline(always)]
    fn hsum_cells(self) -> [f64; 1] {
        [(self.0[0] + self.0[2]) + (self.0[1] + self.0[3])]
    }
}

/// The AVX2 implementation: one `__m256d` per value.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct AvxX4(std::arch::x86_64::__m256d);

// SAFETY CONTRACT (AVX2): every intrinsic below is only executed on hosts
// where AVX2 and FMA were detected — callers reach `AvxX4` exclusively
// through kernel twins dispatched on the AVX2 or AVX-512 level, and
// `host_levels` only constructs either behind
// `is_x86_feature_detected!` for `avx2` and `fma`. The methods are
// `#[inline(always)]` so they fold into the `#[target_feature]` kernel
// twins, which all enable `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
impl CellLanes for AvxX4 {
    const CELLS: usize = 1;
    type Sums = [f64; 1];
    type Index = (std::arch::x86_64::__m128i, usize);
    #[inline(always)]
    fn splat(v: f64) -> Self {
        // SAFETY: see the AVX2 safety contract above.
        unsafe { AvxX4(std::arch::x86_64::_mm256_set1_pd(v)) }
    }
    #[inline(always)]
    fn load_cells(s: &[f64], _stride: usize) -> Self {
        assert!(s.len() >= 4);
        // SAFETY: length checked above; see the AVX2 safety contract.
        unsafe { AvxX4(std::arch::x86_64::_mm256_loadu_pd(s.as_ptr())) }
    }
    #[inline(always)]
    fn load_row(s: &[f64]) -> Self {
        Self::load_cells(s, 4)
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: see the AVX2 safety contract.
        unsafe { AvxX4(std::arch::x86_64::_mm256_add_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: see the AVX2 safety contract.
        unsafe { AvxX4(std::arch::x86_64::_mm256_sub_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: see the AVX2 safety contract.
        unsafe { AvxX4(std::arch::x86_64::_mm256_mul_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        // SAFETY: see the AVX2 safety contract (the level implies `fma`).
        unsafe { AvxX4(std::arch::x86_64::_mm256_fmadd_pd(self.0, b.0, c.0)) }
    }
    #[inline(always)]
    fn neg_mul_add(self, b: Self, c: Self) -> Self {
        // SAFETY: see the AVX2 safety contract (the level implies `fma`).
        unsafe { AvxX4(std::arch::x86_64::_mm256_fnmadd_pd(self.0, b.0, c.0)) }
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        // SAFETY: see the AVX2 safety contract.
        unsafe { AvxX4(std::arch::x86_64::_mm256_sqrt_pd(self.0)) }
    }
    #[inline(always)]
    fn floor(self) -> Self {
        // SAFETY: see the AVX2 safety contract.
        unsafe { AvxX4(std::arch::x86_64::_mm256_floor_pd(self.0)) }
    }
    #[inline(always)]
    fn index(self, max: usize) -> Self::Index {
        assert!(max <= i32::MAX as usize);
        // SAFETY: see the AVX2 safety contract.
        unsafe {
            use std::arch::x86_64::*;
            let x = _mm256_max_pd(self.0, _mm256_setzero_pd());
            let x = _mm256_min_pd(x, _mm256_set1_pd(max as f64));
            (_mm256_cvttpd_epi32(x), max)
        }
    }
    #[inline(always)]
    fn gather_rows(s: &[f64], (idx, max): Self::Index) -> [Self; 8] {
        assert!(s.len() >= max + 8);
        // SAFETY: every lane of `idx` is in `0..=max` (`index` clamped
        // it), so each lane's eight reads end inside `s` (checked above);
        // see the AVX2 safety contract. No closures: a closure body would
        // not inherit the caller's target features.
        unsafe {
            use std::arch::x86_64::*;
            let mut at = [0i32; 4];
            _mm_storeu_si128(at.as_mut_ptr().cast(), idx);
            let p = s.as_ptr();
            let (p0, p1) = (p.add(at[0] as usize), p.add(at[1] as usize));
            let (p2, p3) = (p.add(at[2] as usize), p.add(at[3] as usize));
            // Two 4×4 transposes: values 0–3, then 4–7.
            let lo = transpose4(
                _mm256_loadu_pd(p0),
                _mm256_loadu_pd(p1),
                _mm256_loadu_pd(p2),
                _mm256_loadu_pd(p3),
            );
            let hi = transpose4(
                _mm256_loadu_pd(p0.add(4)),
                _mm256_loadu_pd(p1.add(4)),
                _mm256_loadu_pd(p2.add(4)),
                _mm256_loadu_pd(p3.add(4)),
            );
            [
                AvxX4(lo[0]),
                AvxX4(lo[1]),
                AvxX4(lo[2]),
                AvxX4(lo[3]),
                AvxX4(hi[0]),
                AvxX4(hi[1]),
                AvxX4(hi[2]),
                AvxX4(hi[3]),
            ]
        }
    }
    #[inline(always)]
    fn store_cells(self, out: &mut [f64], _stride: usize) {
        assert!(out.len() >= 4);
        // SAFETY: length checked above; see the AVX2 safety contract.
        unsafe { std::arch::x86_64::_mm256_storeu_pd(out.as_mut_ptr(), self.0) }
    }
    #[inline(always)]
    fn store_records(q: [Self; 4], out: &mut [f64]) {
        let out = &mut out[..16];
        // SAFETY: see the AVX2 safety contract; the four stores end
        // inside `out` (sliced above).
        unsafe {
            use std::arch::x86_64::*;
            let r = transpose4(q[0].0, q[1].0, q[2].0, q[3].0);
            let p = out.as_mut_ptr();
            _mm256_storeu_pd(p, r[0]);
            _mm256_storeu_pd(p.add(4), r[1]);
            _mm256_storeu_pd(p.add(8), r[2]);
            _mm256_storeu_pd(p.add(12), r[3]);
        }
    }
    #[inline(always)]
    fn hsum_cells(self) -> [f64; 1] {
        // SAFETY: see the AVX2 safety contract.
        unsafe {
            use std::arch::x86_64::*;
            let lo = _mm256_castpd256_pd128(self.0); // [l0, l1]
            let hi = _mm256_extractf128_pd::<1>(self.0); // [l2, l3]
            let s = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
            let odd = _mm_unpackhi_pd(s, s);
            [_mm_cvtsd_f64(_mm_add_sd(s, odd))] // (l0+l2)+(l1+l3)
        }
    }
}

/// The 4×4 transpose of rows `a`–`d`: result `v` holds each row's value
/// `v`.
///
/// # Safety
///
/// AVX must be available (the AVX2 safety contract).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose4(
    a: std::arch::x86_64::__m256d,
    b: std::arch::x86_64::__m256d,
    c: std::arch::x86_64::__m256d,
    d: std::arch::x86_64::__m256d,
) -> [std::arch::x86_64::__m256d; 4] {
    use std::arch::x86_64::*;
    // SAFETY: the caller guarantees AVX.
    unsafe {
        let (t0, t1) = (_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b));
        let (t2, t3) = (_mm256_unpacklo_pd(c, d), _mm256_unpackhi_pd(c, d));
        [
            _mm256_permute2f128_pd::<0x20>(t0, t2),
            _mm256_permute2f128_pd::<0x20>(t1, t3),
            _mm256_permute2f128_pd::<0x31>(t0, t2),
            _mm256_permute2f128_pd::<0x31>(t1, t3),
        ]
    }
}

/// The AVX-512 implementation: one `__m512d` holds two consecutive grid
/// cells × 4 lanes (cell 0 in the low 256-bit half).
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx512X8(std::arch::x86_64::__m512d);

// SAFETY CONTRACT (AVX-512): every intrinsic below is only executed on
// hosts where AVX-512F, AVX2 and FMA were detected — callers reach
// `Avx512X8` exclusively through the kernel twin dispatched on the
// AVX-512 level, which `host_levels` only constructs behind
// `is_x86_feature_detected!` for `avx512f`, `avx2` and `fma`. The
// methods are `#[inline(always)]` so they fold into that
// `#[target_feature]` twin.
#[cfg(target_arch = "x86_64")]
impl CellLanes for Avx512X8 {
    const CELLS: usize = 2;
    type Sums = [f64; 2];
    type Index = (std::arch::x86_64::__m256i, usize);
    #[inline(always)]
    fn splat(v: f64) -> Self {
        // SAFETY: see the AVX-512 safety contract above.
        unsafe { Avx512X8(std::arch::x86_64::_mm512_set1_pd(v)) }
    }
    #[inline(always)]
    fn load_cells(s: &[f64], stride: usize) -> Self {
        assert!(s.len() >= stride + 4);
        // SAFETY: both 4-lane reads end inside `s` (checked above); see
        // the AVX-512 safety contract.
        unsafe {
            use std::arch::x86_64::*;
            let p = s.as_ptr();
            if stride == 4 {
                Avx512X8(_mm512_loadu_pd(p))
            } else {
                let lo = _mm512_castpd256_pd512(_mm256_loadu_pd(p));
                Avx512X8(_mm512_insertf64x4::<1>(lo, _mm256_loadu_pd(p.add(stride))))
            }
        }
    }
    #[inline(always)]
    fn load_row(s: &[f64]) -> Self {
        assert!(s.len() >= 4);
        // SAFETY: length checked above; see the AVX-512 safety contract.
        unsafe {
            use std::arch::x86_64::*;
            Avx512X8(_mm512_broadcast_f64x4(_mm256_loadu_pd(s.as_ptr())))
        }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: see the AVX-512 safety contract.
        unsafe { Avx512X8(std::arch::x86_64::_mm512_add_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: see the AVX-512 safety contract.
        unsafe { Avx512X8(std::arch::x86_64::_mm512_sub_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: see the AVX-512 safety contract.
        unsafe { Avx512X8(std::arch::x86_64::_mm512_mul_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        // SAFETY: see the AVX-512 safety contract.
        unsafe { Avx512X8(std::arch::x86_64::_mm512_fmadd_pd(self.0, b.0, c.0)) }
    }
    #[inline(always)]
    fn neg_mul_add(self, b: Self, c: Self) -> Self {
        // SAFETY: see the AVX-512 safety contract.
        unsafe { Avx512X8(std::arch::x86_64::_mm512_fnmadd_pd(self.0, b.0, c.0)) }
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        // SAFETY: see the AVX-512 safety contract.
        unsafe { Avx512X8(std::arch::x86_64::_mm512_sqrt_pd(self.0)) }
    }
    #[inline(always)]
    fn floor(self) -> Self {
        // SAFETY: see the AVX-512 safety contract. Rounding control:
        // toward −∞, no precision exception.
        unsafe {
            use std::arch::x86_64::*;
            Avx512X8(_mm512_roundscale_pd::<
                { _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC },
            >(self.0))
        }
    }
    #[inline(always)]
    fn index(self, max: usize) -> Self::Index {
        assert!(max <= i32::MAX as usize);
        // SAFETY: see the AVX-512 safety contract.
        unsafe {
            use std::arch::x86_64::*;
            let x = _mm512_max_pd(self.0, _mm512_setzero_pd());
            let x = _mm512_min_pd(x, _mm512_set1_pd(max as f64));
            (_mm512_cvttpd_epi32(x), max)
        }
    }
    #[inline(always)]
    fn gather_rows(s: &[f64], (idx, max): Self::Index) -> [Self; 8] {
        assert!(s.len() >= max + 8);
        // SAFETY: every lane of `idx` is in `0..=max` (`index` clamped
        // it), so each lane's eight reads end inside `s` (checked above);
        // see the AVX-512 safety contract. No closures: a closure body
        // would not inherit the caller's target features.
        unsafe {
            use std::arch::x86_64::*;
            let mut at = [0i32; 8];
            _mm256_storeu_si256(at.as_mut_ptr().cast(), idx);
            let p = s.as_ptr();
            let l0 = _mm512_loadu_pd(p.add(at[0] as usize));
            let l1 = _mm512_loadu_pd(p.add(at[1] as usize));
            let l2 = _mm512_loadu_pd(p.add(at[2] as usize));
            let l3 = _mm512_loadu_pd(p.add(at[3] as usize));
            let l4 = _mm512_loadu_pd(p.add(at[4] as usize));
            let l5 = _mm512_loadu_pd(p.add(at[5] as usize));
            let l6 = _mm512_loadu_pd(p.add(at[6] as usize));
            let l7 = _mm512_loadu_pd(p.add(at[7] as usize));
            // An 8×8 transpose: pairs of lanes, then 128-bit quarters
            // within halves, then 256-bit halves.
            let (t0, t1) = (_mm512_unpacklo_pd(l0, l1), _mm512_unpackhi_pd(l0, l1));
            let (t2, t3) = (_mm512_unpacklo_pd(l2, l3), _mm512_unpackhi_pd(l2, l3));
            let (t4, t5) = (_mm512_unpacklo_pd(l4, l5), _mm512_unpackhi_pd(l4, l5));
            let (t6, t7) = (_mm512_unpacklo_pd(l6, l7), _mm512_unpackhi_pd(l6, l7));
            let even = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
            let odd = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
            // u0: values 0 and 4 of lanes 0–3; u1: 2 and 6; u2: 1 and 5;
            // u3: 3 and 7 — and u4–u7 the same for lanes 4–7.
            let (u0, u1) = (
                _mm512_permutex2var_pd(t0, even, t2),
                _mm512_permutex2var_pd(t0, odd, t2),
            );
            let (u2, u3) = (
                _mm512_permutex2var_pd(t1, even, t3),
                _mm512_permutex2var_pd(t1, odd, t3),
            );
            let (u4, u5) = (
                _mm512_permutex2var_pd(t4, even, t6),
                _mm512_permutex2var_pd(t4, odd, t6),
            );
            let (u6, u7) = (
                _mm512_permutex2var_pd(t5, even, t7),
                _mm512_permutex2var_pd(t5, odd, t7),
            );
            const LO: i32 = 0b01_00_01_00;
            const HI: i32 = 0b11_10_11_10;
            [
                Avx512X8(_mm512_shuffle_f64x2::<LO>(u0, u4)),
                Avx512X8(_mm512_shuffle_f64x2::<LO>(u2, u6)),
                Avx512X8(_mm512_shuffle_f64x2::<LO>(u1, u5)),
                Avx512X8(_mm512_shuffle_f64x2::<LO>(u3, u7)),
                Avx512X8(_mm512_shuffle_f64x2::<HI>(u0, u4)),
                Avx512X8(_mm512_shuffle_f64x2::<HI>(u2, u6)),
                Avx512X8(_mm512_shuffle_f64x2::<HI>(u1, u5)),
                Avx512X8(_mm512_shuffle_f64x2::<HI>(u3, u7)),
            ]
        }
    }
    #[inline(always)]
    fn store_cells(self, out: &mut [f64], stride: usize) {
        assert!(out.len() >= stride + 4);
        // SAFETY: both 4-lane writes end inside `out` (checked above);
        // see the AVX-512 safety contract.
        unsafe {
            use std::arch::x86_64::*;
            let p = out.as_mut_ptr();
            if stride == 4 {
                _mm512_storeu_pd(p, self.0);
            } else {
                _mm256_storeu_pd(p, _mm512_castpd512_pd256(self.0));
                _mm256_storeu_pd(p.add(stride), _mm512_extractf64x4_pd::<1>(self.0));
            }
        }
    }
    #[inline(always)]
    fn store_records(q: [Self; 4], out: &mut [f64]) {
        let out = &mut out[..32];
        // SAFETY: see the AVX-512 safety contract; the four stores end
        // inside `out` (sliced above).
        unsafe {
            use std::arch::x86_64::*;
            let (t0, t1) = (
                _mm512_unpacklo_pd(q[0].0, q[1].0),
                _mm512_unpackhi_pd(q[0].0, q[1].0),
            );
            let (t2, t3) = (
                _mm512_unpacklo_pd(q[2].0, q[3].0),
                _mm512_unpackhi_pd(q[2].0, q[3].0),
            );
            // x: quarters 0 and 1 of t0 and t2, interleaved; x2: 2 and 3.
            let front = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
            let back = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
            let (x, y) = (
                _mm512_permutex2var_pd(t0, front, t2),
                _mm512_permutex2var_pd(t1, front, t3),
            );
            let (x2, y2) = (
                _mm512_permutex2var_pd(t0, back, t2),
                _mm512_permutex2var_pd(t1, back, t3),
            );
            const LO: i32 = 0b01_00_01_00;
            const HI: i32 = 0b11_10_11_10;
            let p = out.as_mut_ptr();
            _mm512_storeu_pd(p, _mm512_shuffle_f64x2::<LO>(x, y));
            _mm512_storeu_pd(p.add(8), _mm512_shuffle_f64x2::<HI>(x, y));
            _mm512_storeu_pd(p.add(16), _mm512_shuffle_f64x2::<LO>(x2, y2));
            _mm512_storeu_pd(p.add(24), _mm512_shuffle_f64x2::<HI>(x2, y2));
        }
    }
    #[inline(always)]
    fn hsum_cells(self) -> [f64; 2] {
        // SAFETY: see the AVX-512 safety contract.
        unsafe {
            use std::arch::x86_64::*;
            let a = _mm512_castpd512_pd256(self.0); // cell 0: [a0, a1, a2, a3]
            let b = _mm512_extractf64x4_pd::<1>(self.0); // cell 1: [b0, b1, b2, b3]
            let s = _mm256_add_pd(
                _mm256_permute2f128_pd::<0x20>(a, b), // [a0, a1, b0, b1]
                _mm256_permute2f128_pd::<0x31>(a, b), // [a2, a3, b2, b3]
            );
            // [(a0+a2)+(a1+a3), ·, (b0+b2)+(b1+b3), ·]
            let t = _mm256_hadd_pd(s, s);
            [
                _mm256_cvtsd_f64(t),
                _mm_cvtsd_f64(_mm256_extractf128_pd::<1>(t)),
            ]
        }
    }
}

/// A complex value in split (structure-of-arrays) form over the lanes of
/// one vector.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cx<V: CellLanes> {
    /// Real lanes.
    pub re: V,
    /// Imaginary lanes.
    pub im: V,
}

impl<V: CellLanes> Cx<V> {
    /// All lanes zero.
    #[inline(always)]
    pub(crate) fn zero() -> Self {
        Cx {
            re: V::splat(0.0),
            im: V::splat(0.0),
        }
    }

    /// One complex value broadcast across all lanes.
    #[inline(always)]
    pub(crate) fn broadcast(re: f64, im: f64) -> Self {
        Cx {
            re: V::splat(re),
            im: V::splat(im),
        }
    }

    /// Fused lane-wise complex multiply-accumulate `self·o + acc`: four
    /// fused ops instead of four multiplies and four adds — the envelope
    /// GEMM's accumulation step.
    ///
    /// Named like the [`CellLanes`] element ops rather than via
    /// `std::ops`: operator impls would force `V: Copy + …` bounds on
    /// every generic kernel signature for no call-site gain.
    #[inline(always)]
    pub(crate) fn mul_add(self, o: Self, acc: Self) -> Self {
        Cx {
            re: self.im.neg_mul_add(o.im, self.re.mul_add(o.re, acc.re)),
            im: self.im.mul_add(o.re, self.re.mul_add(o.im, acc.im)),
        }
    }

    /// Fused lane-wise complex product `self·o`: two multiplies and two
    /// fused ops instead of four multiplies and two adds — the Eq. 17
    /// cell kernel's carrier product and the profile's phasor rotation.
    #[inline(always)]
    pub(crate) fn rotate(self, o: Self) -> Self {
        Cx {
            re: self.im.neg_mul_add(o.im, self.re.mul(o.re)),
            im: self.im.mul_add(o.re, self.re.mul(o.im)),
        }
    }

    /// Lane-wise magnitude `sqrt(re² + im²)`.
    #[inline(always)]
    pub fn abs(self) -> V {
        self.re.mul(self.re).add(self.im.mul(self.im)).sqrt()
    }
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

    fn rand_f64(seed: u64) -> f64 {
        (mix(seed) >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    }

    /// Lane-wise ops, `hsum_cells` and the fused ops through a one-cell
    /// `V`, loaded and stored with `load_cells`/`store_cells`.
    fn check_ops<V: CellLanes<Sums = [f64; 1]>>(seed: u64) -> [u64; 10] {
        let a: Vec<f64> = (0..4).map(|k| rand_f64(seed ^ k)).collect();
        let b: Vec<f64> = (0..4).map(|k| rand_f64(seed ^ (k + 7))).collect();
        let va = V::load_cells(&a, 4);
        let vb = V::load_cells(&b, 4);
        let mut out = [0.0; 4];
        va.mul(vb).add(va).sub(vb).store_cells(&mut out, 4);
        let abs2 = va.mul(va).add(vb.mul(vb)).sqrt();
        let mut fused = [0.0; 4];
        va.mul_add(vb, va)
            .neg_mul_add(vb, va)
            .store_cells(&mut fused, 4);
        [
            out[0].to_bits(),
            out[1].to_bits(),
            out[2].to_bits(),
            out[3].to_bits(),
            va.hsum_cells()[0].to_bits(),
            abs2.hsum_cells()[0].to_bits(),
            fused[0].to_bits(),
            fused[1].to_bits(),
            fused[2].to_bits(),
            fused[3].to_bits(),
        ]
    }

    /// Fused-op inputs as `(a, b, c)` lane quads, where fusing matters:
    /// products whose low bits an unfused multiply rounds away (so
    /// `a·b + c` and `fma(a, b, c)` differ), subnormal products and sums,
    /// and signed zeros in every position.
    fn fused_cases() -> Vec<[[f64; 4]; 3]> {
        let e = f64::EPSILON;
        let tiny = f64::MIN_POSITIVE; // 2⁻¹⁰²²
        let sub = 5e-324; // the smallest subnormal
        let mut cases = vec![
            [
                [1.0 + e, 1.0 + 2f64.powi(-30), 0.1, 3.0 + e],
                [1.0 - e, 1.0 - 2f64.powi(-30), 10.0, 1.0 / 3.0],
                [-1.0, -1.0, -1.0, -1.0],
            ],
            [
                [tiny, 2f64.powi(-1000), sub, -tiny],
                [0.5, 2f64.powi(-60), 3.0, 0.75],
                [0.0, -0.0, sub, tiny],
            ],
            [
                [-0.0, 0.0, -0.0, 0.0],
                [1.0, -1.0, -2.0, 0.0],
                [0.0, -0.0, -0.0, -0.0],
            ],
            [
                [0.0, -0.0, 1.5, -2.5],
                [-0.0, -0.0, 2.0, 4.0],
                [0.0, 0.0, -3.0, 10.0],
            ],
        ];
        cases.extend((0..64u64).map(|seed| {
            let quad = |o: u64| std::array::from_fn(|k| rand_f64(seed ^ (k as u64 + o)));
            [quad(0), quad(11), quad(23)]
        }));
        cases
    }

    /// `mul_add` then `neg_mul_add` lanes for one case, through `V`.
    fn fused_ops<V: CellLanes<Sums = [f64; 1]>>([a, b, c]: &[[f64; 4]; 3]) -> [u64; 8] {
        let load = |x: &[f64; 4]| V::load_cells(x, 4);
        let (va, vb, vc) = (load(a), load(b), load(c));
        let (mut fma, mut fnma) = ([0.0; 4], [0.0; 4]);
        va.mul_add(vb, vc).store_cells(&mut fma, 4);
        va.neg_mul_add(vb, vc).store_cells(&mut fnma, 4);
        std::array::from_fn(|k| if k < 4 { fma[k] } else { fnma[k - 4] }.to_bits())
    }

    /// What the fused ops must return: `f64::mul_add` per lane.
    fn fused_reference([a, b, c]: &[[f64; 4]; 3]) -> [u64; 8] {
        std::array::from_fn(|k| {
            let l = k % 4;
            let a = if k < 4 { a[l] } else { -a[l] };
            a.mul_add(b[l], c[l]).to_bits()
        })
    }

    #[test]
    fn fused_cases_include_inputs_where_fusing_changes_the_result() {
        let cases = fused_cases();
        let differ = cases
            .iter()
            .flat_map(|[a, b, c]| (0..4).map(move |l| (a[l], b[l], c[l])))
            .filter(|&(a, b, c)| a.mul_add(b, c).to_bits() != (a * b + c).to_bits())
            .count();
        assert!(differ >= 4, "only {differ} lanes tell fused from unfused");
        let subnormal = |v: f64| v != 0.0 && v.abs() < f64::MIN_POSITIVE;
        assert!(cases
            .iter()
            .any(|[a, b, c]| (0..4).any(|l| subnormal(a[l].mul_add(b[l], c[l])))));
    }

    #[test]
    fn scalar_fused_ops_are_f64_mul_add() {
        for case in &fused_cases() {
            assert_eq!(
                fused_ops::<ScalarX4>(case),
                fused_reference(case),
                "{case:?}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_fused_ops_are_f64_mul_add() {
        if !host_levels().iter().any(|l| l.0 == Level::Avx2) {
            println!("skipped (no avx2 + fma)");
            return;
        }
        for case in &fused_cases() {
            assert_eq!(fused_ops::<AvxX4>(case), fused_reference(case), "{case:?}");
        }
    }

    /// Both cells' `mul_add` then `neg_mul_add` lanes through
    /// [`Avx512X8`], for two cases loaded as cells 0 and 1.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn avx512_fused_ops(x: &[[f64; 4]; 3], y: &[[f64; 4]; 3]) -> [u64; 16] {
        let pair = |k: usize| [x[k], y[k]].concat();
        let (a, b, c) = (pair(0), pair(1), pair(2));
        let (va, vb, vc) = (
            Avx512X8::load_cells(&a, 4),
            Avx512X8::load_cells(&b, 4),
            Avx512X8::load_cells(&c, 4),
        );
        // SAFETY: `__m512d` and `[f64; 8]` have the same size, and every
        // bit pattern is a valid `f64`.
        let lanes = |v: Avx512X8| unsafe { std::mem::transmute::<_, [f64; 8]>(v.0) };
        let (fma, fnma) = (lanes(va.mul_add(vb, vc)), lanes(va.neg_mul_add(vb, vc)));
        // Cell-major: x's eight lanes, then y's.
        std::array::from_fn(|k| {
            let (cell, k) = (k / 8, k % 8);
            let l = cell * 4 + k % 4;
            if k < 4 { fma[l] } else { fnma[l] }.to_bits()
        })
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_fused_ops_are_f64_mul_add() {
        if !host_levels().iter().any(|l| l.0 == Level::Avx512) {
            println!("skipped (no avx512f + fma)");
            return;
        }
        let cases = fused_cases();
        for (x, y) in cases.iter().zip(cases.iter().rev()) {
            // SAFETY: the AVX-512 level (avx512f + avx2 + fma) was detected above.
            #[allow(unsafe_code)]
            let wide = unsafe { avx512_fused_ops(x, y) };
            assert_eq!(
                wide,
                [fused_reference(x), fused_reference(y)].concat()[..],
                "{x:?} / {y:?}"
            );
        }
    }

    #[test]
    fn complex_fused_ops_match_their_expansion() {
        let a = Cx::<ScalarX4>::broadcast(1.25, -0.5);
        let b = Cx::<ScalarX4>::broadcast(0.75 + f64::EPSILON, 2.0);
        let acc = Cx::<ScalarX4>::broadcast(-1.0, 3.0);
        let lane0 = |v: Cx<ScalarX4>| (v.re.0[0].to_bits(), v.im.0[0].to_bits());
        let (are, aim, bre, bim) = (1.25f64, -0.5f64, 0.75 + f64::EPSILON, 2.0f64);
        assert_eq!(
            lane0(a.mul_add(b, acc)),
            (
                (-aim).mul_add(bim, are.mul_add(bre, -1.0)).to_bits(),
                aim.mul_add(bre, are.mul_add(bim, 3.0)).to_bits()
            )
        );
        assert_eq!(
            lane0(a.rotate(b)),
            (
                (-aim).mul_add(bim, are * bre).to_bits(),
                aim.mul_add(bre, are * bim).to_bits()
            )
        );
    }

    /// The kernels dispatch to the widest level the CPU reports —
    /// AVX-512 with `avx512f`, else AVX2 with `avx2`, both only with
    /// `fma` — and to scalar under `BLOC_NO_SIMD`; the reported 4-lane
    /// level is at most AVX2. Losing a dispatch level fails here
    /// on any host.
    #[test]
    fn cell_level_is_the_widest_host_level() {
        let levels = host_levels();
        assert_eq!(levels[0].label(), "scalar");
        #[cfg(target_arch = "x86_64")]
        let widest = match (
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"),
            std::arch::is_x86_feature_detected!("avx512f"),
        ) {
            (true, true) => "avx512",
            (true, false) => "avx2",
            _ => "scalar",
        };
        #[cfg(not(target_arch = "x86_64"))]
        let widest = "scalar";
        assert_eq!(levels[levels.len() - 1].label(), widest);
        let want = if std::env::var_os("BLOC_NO_SIMD").is_some() {
            "scalar"
        } else {
            widest
        };
        assert_eq!(cell_level().label(), want);
        let four_lane = if want == "avx512" { "avx2" } else { want };
        assert_eq!(active_level().label(), four_lane);
    }

    #[test]
    fn scalar_ops_match_plain_arithmetic() {
        let a = [1.5, -2.25, 0.5, 3.0];
        let v = ScalarX4::load_cells(&a, 4);
        assert_eq!(v.hsum_cells(), [(1.5 + 0.5) + (-2.25 + 3.0)]);
        let mut out = [0.0; 4];
        v.mul(v).store_cells(&mut out, 4);
        assert_eq!(out, [2.25, 5.0625, 0.25, 9.0]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_is_bit_identical_to_scalar() {
        if !host_levels().iter().any(|l| l.0 == Level::Avx2) {
            return;
        }
        for seed in 0..256u64 {
            assert_eq!(
                check_ops::<ScalarX4>(seed),
                check_ops::<AvxX4>(seed),
                "seed {seed}"
            );
        }
    }

    /// Per-cell results of `(x·r + x − r)`, `hsum(sqrt(x² + r²))` and the
    /// fused `hsum(r − (x·r + x)·r)` for cells loaded at `stride` against
    /// one broadcast row `r`.
    fn cell_ops<V: CellLanes>(xs: &[f64], stride: usize, row: &[f64]) -> Vec<u64> {
        let x = V::load_cells(xs, stride);
        let r = V::load_row(row);
        let sums = [
            x.mul(r).add(x).sub(r).hsum_cells(),
            x.mul(x).add(r.mul(r)).sqrt().hsum_cells(),
            x.mul_add(r, x).neg_mul_add(r, r).hsum_cells(),
        ];
        sums.iter()
            .flat_map(|s| s.as_ref().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn avx512_cell_ops(xs: &[f64], stride: usize, row: &[f64]) -> Vec<u64> {
        cell_ops::<Avx512X8>(xs, stride, row)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_cells_are_bit_identical_to_scalar() {
        if !host_levels().iter().any(|l| l.0 == Level::Avx512) {
            println!("skipped (no avx512f)");
            return;
        }
        for seed in 0..256u64 {
            for stride in [4usize, 8, 12] {
                let xs: Vec<f64> = (0..stride as u64 + 4).map(|k| rand_f64(seed ^ k)).collect();
                let row: Vec<f64> = (0..4).map(|k| rand_f64(seed ^ (k + 31))).collect();
                // SAFETY: the AVX-512 level (avx512f + avx2) was detected above.
                #[allow(unsafe_code)]
                let wide = unsafe { avx512_cell_ops(&xs, stride, &row) };
                let c0 = cell_ops::<ScalarX4>(&xs, stride, &row);
                let c1 = cell_ops::<ScalarX4>(&xs[stride..], stride, &row);
                // `wide` is [op0 cell0, op0 cell1, op1 cell0, op1 cell1, …].
                assert_eq!(
                    wide,
                    [c0[0], c1[0], c0[1], c1[1], c0[2], c1[2]],
                    "seed {seed} stride {stride}"
                );
            }
        }
    }

    /// `floor`, the clamped `index` (NaN, negative and past-the-end lanes
    /// included), `gather_rows` and `store_records` through `V`, over
    /// `CELLS` cells of `xs`, as bits.
    fn lookup_ops<V: CellLanes>(xs: &[f64], table: &[f64]) -> Vec<u64> {
        let x = V::load_cells(xs, 4);
        let idx = x.mul(V::splat(3.0)).floor().index(table.len() - 8);
        let rows = V::gather_rows(table, idx);
        let mut records = vec![0.0; 16 * V::CELLS];
        V::store_records([rows[0], rows[3], rows[5], rows[7]], &mut records);
        let mut out = records;
        for v in rows.iter().chain([x.floor()].iter()) {
            let mut lanes = vec![0.0; 4 * V::CELLS];
            v.store_cells(&mut lanes, 4);
            out.extend(lanes);
        }
        out.into_iter().map(f64::to_bits).collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    fn avx2_lookup_ops(xs: &[f64], table: &[f64]) -> Vec<u64> {
        lookup_ops::<AvxX4>(xs, table)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn avx512_lookup_ops(xs: &[f64], table: &[f64]) -> Vec<u64> {
        lookup_ops::<Avx512X8>(xs, table)
    }

    #[test]
    fn lookup_ops_are_exact_and_bit_identical_on_every_level() {
        let table: Vec<f64> = (0..64).map(|k| rand_f64(k ^ 0x55)).collect();
        let mut cases: Vec<[f64; 8]> = vec![[f64::NAN, -4.0, -0.1, 0.0, 2.9, 3.2, 19.0, 1e300]];
        cases.extend(
            (0..64u64).map(|seed| std::array::from_fn(|k| rand_f64(seed ^ k as u64) * 12.0 + 8.0)),
        );
        for xs in &cases {
            let scalar: Vec<u64> = [&xs[..4], &xs[4..]]
                .iter()
                .flat_map(|half| lookup_ops::<ScalarX4>(half, &table))
                .collect();
            // The scalar level reads exactly what plain indexing reads.
            let idx = ScalarX4::load_cells(&xs[..4], 4)
                .mul(ScalarX4::splat(3.0))
                .floor()
                .index(56);
            for (l, &i) in idx.iter().enumerate() {
                let want = (xs[l] * 3.0).floor();
                let want = if want > 0.0 {
                    want.min(56.0) as usize
                } else {
                    0
                };
                assert_eq!(i, want, "lane {l} of {xs:?}");
            }
            #[cfg(target_arch = "x86_64")]
            for level in host_levels() {
                // SAFETY: each twin runs only on a level detected for it.
                #[allow(unsafe_code)]
                let got = match level.0 {
                    Level::Scalar => continue,
                    Level::Avx2 => [&xs[..4], &xs[4..]]
                        .iter()
                        .flat_map(|half| unsafe { avx2_lookup_ops(half, &table) })
                        .collect::<Vec<u64>>(),
                    Level::Avx512 => unsafe { avx512_lookup_ops(xs, &table) },
                };
                if level.0 == Level::Avx2 {
                    assert_eq!(got, scalar, "{level:?} on {xs:?}");
                } else {
                    // Two cells per vector: each output block holds both
                    // cells' lanes where the scalar run holds one's.
                    let half = scalar.len() / 2;
                    let (c0, c1) = scalar.split_at(half);
                    let mut want = Vec::new();
                    want.extend_from_slice(&c0[..16]);
                    want.extend_from_slice(&c1[..16]);
                    for b in 0..9 {
                        want.extend_from_slice(&c0[16 + 4 * b..20 + 4 * b]);
                        want.extend_from_slice(&c1[16 + 4 * b..20 + 4 * b]);
                    }
                    assert_eq!(got, want, "{level:?} on {xs:?}");
                }
            }
        }
    }

    #[test]
    fn active_level_is_stable() {
        assert_eq!(active_level(), active_level());
        assert_eq!(cell_level(), cell_level());
    }

    #[test]
    fn active_level_is_the_four_lane_part_of_cell_level() {
        assert_ne!(active_level().0, Level::Avx512);
        assert!(active_level().0 as usize <= cell_level().0 as usize);
        if cell_level().0 != Level::Avx512 {
            assert_eq!(active_level(), cell_level());
        }
    }

    #[test]
    fn levels_come_only_from_cpu_detection() {
        // Outside this crate a `SimdLevel` can only be obtained from
        // `host_levels`/`active_level`/`cell_level` (the `compile_fail` doctest on
        // `SimdLevel` proves it cannot be named); here, every level they
        // hand out is one the CPU was detected to execute.
        let levels = host_levels();
        assert_eq!(levels[0].0, Level::Scalar);
        assert!(levels.contains(&active_level()));
        assert!(levels.contains(&cell_level()));
        for (k, level) in levels.iter().enumerate() {
            assert_eq!(level.label(), LEVEL_LABELS[level.0 as usize]);
            assert!(k == 0 || levels[k - 1].0 as usize == level.0 as usize - 1);
            #[cfg(target_arch = "x86_64")]
            match level.0 {
                Level::Scalar => {}
                Level::Avx2 => assert!(
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                ),
                Level::Avx512 => assert!(
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                ),
            }
            #[cfg(not(target_arch = "x86_64"))]
            assert_eq!(level.0, Level::Scalar);
        }
    }
}
