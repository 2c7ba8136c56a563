//! Hand-rolled `f64` SIMD with a runtime-dispatched scalar twin.
//!
//! The workspace's two hot loops — the Eq. 17 likelihood recurrence in
//! `bloc-core` and the Eq. 2 channel sweep in `bloc-chan` — are both
//! complex phasor multiply-add chains over structure-of-arrays data. This
//! module gives them one vector substrate with **no** external
//! dependencies. The [`CellLanes`] operations trait describes a vector of
//! `CELLS` grid cells × 4 lanes; [`F64x4`] adds the plain 4-lane loads
//! and stores of its one-cell implementations. There are three
//! implementations:
//!
//! * [`ScalarX4`] — plain `[f64; 4]` element-wise arithmetic, compiled for
//!   the baseline target (one cell);
//! * [`AvxX4`] (x86-64 only) — the same operations as explicit AVX2
//!   `__m256d` intrinsics (one cell);
//! * [`Avx512X8`] (x86-64 only) — one AVX-512 `__m512d` holding **two
//!   consecutive grid cells × 4 lanes**, with each 4-lane row operand
//!   broadcast into both 256-bit halves. Only the Eq. 17 cell kernel runs
//!   on it; the Eq. 2 tone kernel stays 4 lanes wide (see
//!   [`crate::sweep`]).
//!
//! # Bit-identical dispatch
//!
//! Every kernel in [`crate::sweep`] is written once as a generic body and
//! instantiated for each implementation, and every trait operation is
//! IEEE-754 correctly rounded (`add`/`sub`/`mul`/`sqrt`) or has a fixed,
//! documented reduction order ([`CellLanes::hsum_cells`]: each cell is
//! reduced from its own four lanes). Consequently all dispatch paths
//! produce **bit-identical** results — the equivalence suites assert
//! this, and it is why no result in the workspace depends on which CPU
//! ran it. Fused multiply-add is deliberately never used: FMA contracts
//! the intermediate rounding and would break the scalar/vector identity.
//!
//! # Choosing a path
//!
//! [`cell_level`] picks the widest level the host supports for the Eq. 17
//! cell kernel — AVX-512 (`avx512f` plus `avx2`), else AVX2, else scalar.
//! [`active_level`] is the 4-lane level every kernel runs its one-cell
//! vectors on — AVX2, else scalar — so it equals [`cell_level`] except on
//! AVX-512 hosts, where it is AVX2. Both are scalar when the
//! `BLOC_NO_SIMD` environment variable is set (any value); the scalar leg
//! CI runs under exactly that switch. Kernels that need an explicit path
//! (the equivalence tests) take a [`SimdLevel`] argument from
//! [`host_levels`] instead of consulting the global, so tests never
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
//!   [`host_levels`], and all come from [`host_levels`]'s one-time CPU
//!   detection. The AVX2
//!   level exists only behind `is_x86_feature_detected!("avx2")`, the
//!   AVX-512 level only behind `avx512f` **and** `avx2` (its odd-cell tail
//!   runs the AVX2 instantiation).
//! * [`AvxX4`] and [`Avx512X8`] methods are only reachable from kernel
//!   twins dispatched on the matching level, so a safe caller can never
//!   execute an instruction its CPU lacks.

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
        if std::arch::is_x86_feature_detected!("avx2") {
            levels.push(SimdLevel(Level::Avx2));
            if std::arch::is_x86_feature_detected!("avx512f") {
                levels.push(SimdLevel(Level::Avx512));
            }
        }
        levels
    })
}

/// The 4-lane vector level the host should run: AVX2 when detected, else
/// scalar, and scalar when `BLOC_NO_SIMD` is set. Every kernel's one-cell
/// vectors run at this level — the Eq. 2 tone kernel throughout, the
/// Eq. 17 cell kernel in its odd-cell tail; only the cell kernel widens
/// further, to [`cell_level`].
pub fn active_level() -> SimdLevel {
    match cell_level().0 {
        Level::Avx512 => SimdLevel(Level::Avx2),
        _ => cell_level(),
    }
}

/// The level the Eq. 17 cell kernel dispatches to, computed once: the
/// widest of [`host_levels`] — AVX-512, two cells per vector, on hosts
/// with `avx512f` — or scalar when `BLOC_NO_SIMD` is set.
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

/// `CELLS` grid cells × 4 `f64` lanes with the operations the Eq. 17
/// cell kernel needs — the type its generic body is instantiated over.
///
/// Implementations must be IEEE-754 correctly rounded per lane and must
/// use the exact [`CellLanes::hsum_cells`] reduction order, so that any
/// generic kernel instantiated over two implementations produces
/// bit-identical results (the dispatch-equivalence contract of this
/// module).
pub trait CellLanes: Copy {
    /// Grid cells one vector holds, four lanes each.
    const CELLS: usize;
    /// One horizontal sum per cell (`[f64; CELLS]`).
    type Sums: Copy + Default + AsRef<[f64]> + AsMut<[f64]>;
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
    /// Lane-wise square root.
    fn sqrt(self) -> Self;
    /// Each cell's horizontal sum with the fixed association
    /// `(l0 + l2) + (l1 + l3)` — the order a 256-bit high/low fold
    /// produces naturally, adopted by every implementation so all paths
    /// agree bitwise.
    fn hsum_cells(self) -> Self::Sums;
}

/// A one-cell [`CellLanes`]: four plain lanes with contiguous loads and
/// stores — what the Eq. 2 tone kernel runs on.
pub trait F64x4: CellLanes<Sums = [f64; 1]> {
    /// Loads lanes from `s[0..4]` (panics if shorter).
    fn load(s: &[f64]) -> Self;
    /// Stores lanes into `out[0..4]` (panics if shorter).
    fn store(self, out: &mut [f64]);
}

/// The scalar fallback: `[f64; 4]` element-wise arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct ScalarX4([f64; 4]);

impl CellLanes for ScalarX4 {
    const CELLS: usize = 1;
    type Sums = [f64; 1];
    #[inline(always)]
    fn splat(v: f64) -> Self {
        ScalarX4([v; 4])
    }
    #[inline(always)]
    fn load_cells(s: &[f64], _stride: usize) -> Self {
        Self::load(s)
    }
    #[inline(always)]
    fn load_row(s: &[f64]) -> Self {
        Self::load(s)
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
    fn sqrt(self) -> Self {
        ScalarX4([
            self.0[0].sqrt(),
            self.0[1].sqrt(),
            self.0[2].sqrt(),
            self.0[3].sqrt(),
        ])
    }
    #[inline(always)]
    fn hsum_cells(self) -> [f64; 1] {
        [(self.0[0] + self.0[2]) + (self.0[1] + self.0[3])]
    }
}

impl F64x4 for ScalarX4 {
    #[inline(always)]
    fn load(s: &[f64]) -> Self {
        ScalarX4([s[0], s[1], s[2], s[3]])
    }
    #[inline(always)]
    fn store(self, out: &mut [f64]) {
        out[..4].copy_from_slice(&self.0);
    }
}

/// The AVX2 implementation: one `__m256d` per value.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct AvxX4(std::arch::x86_64::__m256d);

// SAFETY CONTRACT (AVX2): every intrinsic below is only executed on hosts
// where AVX2 was detected — callers reach `AvxX4` exclusively through
// kernel twins dispatched on the AVX2 or AVX-512 level, and `host_levels`
// only constructs either behind `is_x86_feature_detected!("avx2")`. The
// methods are `#[inline(always)]` so they fold into the
// `#[target_feature]` kernel twins.
#[cfg(target_arch = "x86_64")]
impl CellLanes for AvxX4 {
    const CELLS: usize = 1;
    type Sums = [f64; 1];
    #[inline(always)]
    fn splat(v: f64) -> Self {
        // SAFETY: see the AVX2 safety contract above.
        unsafe { AvxX4(std::arch::x86_64::_mm256_set1_pd(v)) }
    }
    #[inline(always)]
    fn load_cells(s: &[f64], _stride: usize) -> Self {
        Self::load(s)
    }
    #[inline(always)]
    fn load_row(s: &[f64]) -> Self {
        Self::load(s)
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
    fn sqrt(self) -> Self {
        // SAFETY: see the AVX2 safety contract.
        unsafe { AvxX4(std::arch::x86_64::_mm256_sqrt_pd(self.0)) }
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

#[cfg(target_arch = "x86_64")]
impl F64x4 for AvxX4 {
    #[inline(always)]
    fn load(s: &[f64]) -> Self {
        assert!(s.len() >= 4);
        // SAFETY: length checked above; see the AVX2 safety contract.
        unsafe { AvxX4(std::arch::x86_64::_mm256_loadu_pd(s.as_ptr())) }
    }
    #[inline(always)]
    fn store(self, out: &mut [f64]) {
        assert!(out.len() >= 4);
        // SAFETY: length checked above; see the AVX2 safety contract.
        unsafe { std::arch::x86_64::_mm256_storeu_pd(out.as_mut_ptr(), self.0) }
    }
}

/// The AVX-512 implementation: one `__m512d` holds two consecutive grid
/// cells × 4 lanes (cell 0 in the low 256-bit half).
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Avx512X8(std::arch::x86_64::__m512d);

// SAFETY CONTRACT (AVX-512): every intrinsic below is only executed on
// hosts where both AVX-512F and AVX2 were detected — callers reach
// `Avx512X8` exclusively through the kernel twin dispatched on the
// AVX-512 level, which `host_levels` only constructs behind
// `is_x86_feature_detected!("avx512f")` and `("avx2")`. The methods are
// `#[inline(always)]` so they fold into that `#[target_feature]` twin.
#[cfg(target_arch = "x86_64")]
impl CellLanes for Avx512X8 {
    const CELLS: usize = 2;
    type Sums = [f64; 2];
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
    fn sqrt(self) -> Self {
        // SAFETY: see the AVX-512 safety contract.
        unsafe { Avx512X8(std::arch::x86_64::_mm512_sqrt_pd(self.0)) }
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
pub struct Cx<V: CellLanes> {
    /// Real lanes.
    pub re: V,
    /// Imaginary lanes.
    pub im: V,
}

impl<V: CellLanes> Cx<V> {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Cx {
            re: V::splat(0.0),
            im: V::splat(0.0),
        }
    }

    /// One complex value broadcast across all lanes.
    #[inline(always)]
    pub fn broadcast(re: f64, im: f64) -> Self {
        Cx {
            re: V::splat(re),
            im: V::splat(im),
        }
    }

    /// Lane-wise complex product, expanded with separate multiplies and
    /// adds (never FMA — see the module docs on bit-identity).
    ///
    /// Named like the [`CellLanes`] element ops rather than via
    /// `std::ops`: operator impls would force `V: Copy + …` bounds on
    /// every generic kernel signature for no call-site gain.
    #[allow(clippy::should_implement_trait)]
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        Cx {
            re: self.re.mul(o.re).sub(self.im.mul(o.im)),
            im: self.re.mul(o.im).add(self.im.mul(o.re)),
        }
    }

    /// Lane-wise complex sum.
    #[allow(clippy::should_implement_trait)]
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        Cx {
            re: self.re.add(o.re),
            im: self.im.add(o.im),
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

    fn check_ops<V: F64x4>(seed: u64) -> [u64; 6] {
        let a: Vec<f64> = (0..4).map(|k| rand_f64(seed ^ k)).collect();
        let b: Vec<f64> = (0..4).map(|k| rand_f64(seed ^ (k + 7))).collect();
        let va = V::load(&a);
        let vb = V::load(&b);
        let mut out = [0.0; 4];
        va.mul(vb).add(va).sub(vb).store(&mut out);
        let abs2 = va.mul(va).add(vb.mul(vb)).sqrt();
        [
            out[0].to_bits(),
            out[1].to_bits(),
            out[2].to_bits(),
            out[3].to_bits(),
            va.hsum_cells()[0].to_bits(),
            abs2.hsum_cells()[0].to_bits(),
        ]
    }

    #[test]
    fn scalar_ops_match_plain_arithmetic() {
        let a = [1.5, -2.25, 0.5, 3.0];
        let v = ScalarX4::load(&a);
        assert_eq!(v.hsum_cells(), [(1.5 + 0.5) + (-2.25 + 3.0)]);
        let mut out = [0.0; 4];
        v.mul(v).store(&mut out);
        assert_eq!(out, [2.25, 5.0625, 0.25, 9.0]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_is_bit_identical_to_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2") {
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

    /// Per-cell results of `(x·r + x − r)` and `hsum(sqrt(x² + r²))` for
    /// cells loaded at `stride` against one broadcast row `r`.
    fn cell_ops<V: CellLanes>(xs: &[f64], stride: usize, row: &[f64]) -> Vec<u64> {
        let x = V::load_cells(xs, stride);
        let r = V::load_row(row);
        let sums = [
            x.mul(r).add(x).sub(r).hsum_cells(),
            x.mul(x).add(r.mul(r)).sqrt().hsum_cells(),
        ];
        sums.iter()
            .flat_map(|s| s.as_ref().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx2")]
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
                // `wide` is [op0 cell0, op0 cell1, op1 cell0, op1 cell1].
                assert_eq!(
                    wide,
                    [c0[0], c1[0], c0[1], c1[1]],
                    "seed {seed} stride {stride}"
                );
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
                Level::Avx2 => assert!(std::arch::is_x86_feature_detected!("avx2")),
                Level::Avx512 => assert!(
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx2")
                ),
            }
            #[cfg(not(target_arch = "x86_64"))]
            assert_eq!(level.0, Level::Scalar);
        }
    }

    #[test]
    fn complex_mul_matches_expansion() {
        let a = Cx::<ScalarX4>::broadcast(1.25, -0.5);
        let b = Cx::<ScalarX4>::broadcast(0.75, 2.0);
        let p = a.mul(b);
        let mut re = [0.0; 4];
        let mut im = [0.0; 4];
        p.re.store(&mut re);
        p.im.store(&mut im);
        assert_eq!(re[0], 1.25 * 0.75 - (-0.5) * 2.0);
        assert_eq!(im[0], 1.25 * 2.0 + (-0.5) * 0.75);
    }
}
