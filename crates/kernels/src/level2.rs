//! BLAS Level-2: matrix-vector kernels.
//!
//! `GEMV` is what makes the right-to-left parenthesization of `HᵀHx` an
//! O(n²) computation (Experiment 2); `GER` is the outer-product update used
//! by the loop-invariant code-motion workload (Experiment 5).
//!
//! ## The driver's arithmetic
//!
//! [`gemv`] computes every `y[i]` exactly as the blocked GEMM driver
//! computes an element of a one-column product: `β` applied up front, then
//! for each `KC`-deep chunk of `k`, in order, one fused chain from zero
//! followed by one `α·acc + y` write-back. [`gemv_multi`] computes `q`
//! such products against one shared `A` and keeps that arithmetic for
//! every `(i, j)`, so a solo matrix-vector product, the same vector inside
//! a batch and the same column of a multi-RHS product
//! ([`matmul_multi_rhs`](crate::matmul_multi_rhs)) return the same bits,
//! and a batched request answers what a solo one does.
//!
//! ## The sweeps
//!
//! None of them packs or copies `A`; they differ in what the vector lanes
//! run over.
//!
//! * `op(A) = A`, one vector: the rows of `A` are contiguous in `k`, so
//!   the chain of one row is a sequence of dependent FMAs. Eight rows are
//!   kept in flight instead, read as 8×8 blocks the vectorizer transposes
//!   in registers: each `x[p]` is loaded once for all of them and the FMA
//!   latency is hidden by the independent chains beside it, as the
//!   driver's register tile hides it.
//! * `op(A) = A`, `q ≥ 2` vectors: the right-hand sides go in the lanes.
//!   Each chunk's `x`s are interleaved once (`X[p][0..q]`), and each step
//!   broadcasts `A[i,p]` against `X[p]` for eight rows in flight, so one
//!   read of `A` serves all `q` products. At `q = 1` this form fills one
//!   lane in four and measured 0.75× the speed of the block-transposed
//!   sweep, which is why a single `A·x` keeps the latter; so does every
//!   vector of a group under 1,024 multiply-adds (`m·k·q`, e.g. n = 16
//!   with fewer than four vectors), where interleaving costs more than
//!   the shared reads of a small `A` save.
//! * `op(A) = Aᵀ`: row `p` of `A` is a contiguous run of `y`, so `y` goes
//!   in the lanes. A block of `y` is held in `q × V` accumulator registers
//!   for a whole `KC` chunk while `p` walks down `A`, each loaded run
//!   feeding all `q` right-hand sides. A solo `Aᵀ·x` is the `q = 1` case.
//!
//! The lane sweeps are `std::arch` code for AVX2 + FMA builds, on 256-bit
//! registers even where AVX-512 is available: like the GEMM's half-width
//! tiles, these products sit inside requests that are mostly not linear
//! algebra, and 512-bit FMAs would slow the code around them (the AVX-512
//! frequency licence). Other builds and other element types run every
//! vector through the one-vector sweeps on the same scalar chains. A batch
//! of more than eight vectors runs in groups of eight. Every lane is an
//! independent fused chain in fixed `k` order, so no sweep changes a bit.

use std::any::Any;

use laab_dense::{Matrix, Scalar};

use crate::counters::{self, Kernel};
use crate::gemm::KC;
use crate::view::View;
use crate::{flops, Trans};

/// Rows of `A` whose chains advance together in the `op(A) = A` sweeps:
/// enough independent FMAs per `k` step to cover the FMA latency on both
/// FMA ports.
const ROWS: usize = 8;
/// `k` steps the one-vector `op(A) = A` sweep reads from each row at a
/// time: a `ROWS × STEPS` block the vectorizer can transpose in registers,
/// so the interleaved chains become FMAs across rows instead of gathers.
const STEPS: usize = 8;
/// Most vectors one multi-vector sweep carries; larger batches run in
/// groups of this many.
const GROUP: usize = 8;

/// `y := α·op(A)·x + β·y` for a column vector `x` (`k×1`) and `y` (`m×1`),
/// in the blocked GEMM driver's per-element arithmetic (module docs).
///
/// # Panics
/// On shape mismatch or if `x`/`y` are not column vectors.
pub fn gemv<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    ta: Trans,
    x: &Matrix<T>,
    beta: T,
    y: &mut Matrix<T>,
) {
    gemv_multi(alpha, a, ta, &[x], beta, std::slice::from_mut(y));
}

/// `yⱼ := α·op(A)·xⱼ + β·yⱼ` for every `j`, reading `A` once per group of
/// up to eight vectors — and [`gemv`] on each pair, bit for bit (module
/// docs).
///
/// Records one [`Kernel::Gemv`] call of `2mk` FLOPs per vector, so a batch
/// counts what its members count solo.
///
/// # Panics
/// If `xs` and `ys` differ in length, on shape mismatch, or if any `xⱼ`
/// or `yⱼ` is not a column vector.
pub fn gemv_multi<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    ta: Trans,
    xs: &[&Matrix<T>],
    beta: T,
    ys: &mut [Matrix<T>],
) {
    let av = View::of(a, ta);
    let (m, k) = (av.rows, av.cols);
    assert_eq!(xs.len(), ys.len(), "gemv: {} outputs for {} vectors", ys.len(), xs.len());
    for (x, y) in xs.iter().zip(ys.iter()) {
        assert_eq!(x.cols(), 1, "gemv: x must be a column vector");
        assert_eq!(y.cols(), 1, "gemv: y must be a column vector");
        assert_eq!(x.rows(), k, "gemv: x length {} != {k}", x.rows());
        assert_eq!(y.rows(), m, "gemv: y length {} != {m}", y.rows());
    }
    for y in ys.iter_mut() {
        counters::record(Kernel::Gemv, flops::gemv(m, k));
        // β first, as the driver's `scale_c` does (β = 0 overwrites, so
        // NaNs in y never propagate).
        let ys = y.as_mut_slice();
        if beta == T::ZERO {
            ys.fill(T::ZERO);
        } else if beta != T::ONE {
            for v in ys.iter_mut() {
                *v *= beta;
            }
        }
    }
    // The sweeps for this element type, picked by type equality as
    // `gemm_blocked` picks its body.
    let f64_body: Multi<f64> = lanes::multi_f64;
    let f32_body: Multi<f32> = lanes::multi_f32;
    let generic_body: Multi<T> = |alpha, a, xs, ys| each(alpha, a, xs, ys, T::mul_add);
    let body = [&f64_body as &dyn Any, &f32_body]
        .into_iter()
        .find_map(|body| body.downcast_ref::<Multi<T>>())
        .unwrap_or(&generic_body);
    for (xg, yg) in xs.chunks(GROUP).zip(ys.chunks_mut(GROUP)) {
        body(alpha, av, xg, yg);
    }
}

/// One group of at most [`GROUP`] vectors through the sweeps, `β` applied.
type Multi<T> = for<'a> fn(T, View<'a, T>, &'a [&'a Matrix<T>], &'a mut [Matrix<T>]);

/// Every vector of a group through the one-vector [`sweep`].
fn each<T: Scalar>(
    alpha: T,
    a: View<'_, T>,
    xs: &[&Matrix<T>],
    ys: &mut [Matrix<T>],
    fma: impl Fn(T, T, T) -> T + Copy,
) {
    for (x, y) in xs.iter().zip(ys) {
        sweep(alpha, a, x.as_slice(), y.as_mut_slice(), fma);
    }
}

/// `y += α·op(A)·x` chunk by chunk: a fused chain from zero per element
/// and `KC`-deep chunk, written back as `α·acc + y`.
fn sweep<T: Scalar>(alpha: T, a: View<'_, T>, x: &[T], y: &mut [T], fma: impl Fn(T, T, T) -> T) {
    let (m, k) = (a.rows, a.cols);
    if a.cs == 1 {
        // Row i of op(A) is contiguous in k (op(A) = A, or the transpose
        // of a one-column A).
        for pc in (0..k).step_by(KC) {
            let xs = &x[pc..k.min(pc + KC)];
            let row = |i: usize| &a.data[i * a.rs + pc..][..xs.len()];
            let mut i = 0;
            while i + ROWS <= m {
                let rows: [&[T]; ROWS] = std::array::from_fn(|r| row(i + r));
                let mut acc = [T::ZERO; ROWS];
                // Whole `STEPS`-deep blocks, each row's slice of the block
                // read as one array, then the remaining steps one by one —
                // every row still sees its `k` in order.
                let whole = xs.len() / STEPS * STEPS;
                for (q, xq) in xs[..whole].chunks_exact(STEPS).enumerate() {
                    let block: [[T; STEPS]; ROWS] = std::array::from_fn(|r| {
                        rows[r][q * STEPS..][..STEPS].try_into().expect("STEPS elements")
                    });
                    for (s, &xp) in xq.iter().enumerate() {
                        for r in 0..ROWS {
                            acc[r] = fma(block[r][s], xp, acc[r]);
                        }
                    }
                }
                for (p, &xp) in xs.iter().enumerate().skip(whole) {
                    for r in 0..ROWS {
                        acc[r] = fma(rows[r][p], xp, acc[r]);
                    }
                }
                for (yv, &av) in y[i..i + ROWS].iter_mut().zip(&acc) {
                    *yv = alpha.mul_add(av, *yv);
                }
                i += ROWS;
            }
            for (i, yv) in y.iter_mut().enumerate().skip(i) {
                let acc = row(i).iter().zip(xs).fold(T::ZERO, |acc, (&aip, &xp)| fma(aip, xp, acc));
                *yv = alpha.mul_add(acc, *yv);
            }
        }
    } else {
        // op(A) = Aᵀ: step p reads row p of A, contiguous over i.
        // (`vec!` zeroes the first chunk's accumulators; `fill` the rest.)
        let mut acc = vec![T::ZERO; m];
        for pc in (0..k).step_by(KC) {
            if pc > 0 {
                acc.fill(T::ZERO);
            }
            for (p, &xp) in x.iter().enumerate().take(k.min(pc + KC)).skip(pc) {
                let col = &a.data[p * a.cs..][..m];
                for (ai, &aip) in acc.iter_mut().zip(col) {
                    *ai = fma(aip, xp, *ai);
                }
            }
            for (yv, &av) in y.iter_mut().zip(&acc) {
                *yv = alpha.mul_add(av, *yv);
            }
        }
    }
}

/// Builds without AVX2 + FMA: every vector of a group through the
/// one-vector sweep, on the scalar chains of the GEMM's portable tile.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma")))]
mod lanes {
    use laab_dense::Matrix;

    use super::each;
    use crate::simd::{fma_f32, fma_f64};
    use crate::view::View;

    pub(super) fn multi_f64(
        alpha: f64,
        a: View<'_, f64>,
        xs: &[&Matrix<f64>],
        ys: &mut [Matrix<f64>],
    ) {
        each(alpha, a, xs, ys, fma_f64)
    }

    pub(super) fn multi_f32(
        alpha: f32,
        a: View<'_, f32>,
        xs: &[&Matrix<f32>],
        ys: &mut [Matrix<f32>],
    ) {
        each(alpha, a, xs, ys, fma_f32)
    }
}

/// The AVX2 + FMA build's lane sweeps (module docs), on 256-bit registers.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
#[allow(unsafe_code)]
mod lanes {
    use std::arch::x86_64::{
        __m256, __m256d, _mm256_fmadd_pd, _mm256_fmadd_ps, _mm256_loadu_pd, _mm256_loadu_ps,
        _mm256_set1_pd, _mm256_set1_ps, _mm256_setzero_pd, _mm256_setzero_ps, _mm256_storeu_pd,
        _mm256_storeu_ps,
    };
    use std::array::from_fn;
    use std::ops::Range;

    use laab_dense::{Matrix, Scalar};

    use super::{GROUP, ROWS};
    use crate::gemm::KC;
    use crate::simd::{fma_f32, fma_f64};
    use crate::view::View;

    /// Rows in flight when the vectors fill two registers: all eight while
    /// AVX-512's 32 registers hold the 16 accumulators, four in AVX2's 16.
    const ROWS_WIDE: usize = if cfg!(target_feature = "avx512f") { 8 } else { 4 };
    /// Registers of `y` per vector in the `Aᵀ` sweep for six to eight
    /// vectors: two while AVX-512's 32 registers hold the accumulators
    /// (one broadcast then feeds two FMAs), one in AVX2's 16.
    const COLS_WIDE: usize = if cfg!(target_feature = "avx512f") { 2 } else { 1 };
    /// Below this many multiply-adds per group (`m·k·q`), `A·x` runs each
    /// vector through the one-vector sweep (module docs). Measured at
    /// n ∈ {8, 16, 48, 192}: the lane sweep lost at n = 8 and at n = 16
    /// with two or three vectors, and was ahead from n = 16 with four.
    const ROWS_MIN_WORK: usize = 1024;

    /// One 256-bit register of `L` lanes of `T`, and the fused scalar step
    /// of the sweeps' tails — the operation each lane performs.
    trait Lanes: Copy {
        type T: Scalar;
        const L: usize;
        fn zero() -> Self;
        fn splat(v: Self::T) -> Self;
        /// # Safety
        /// `p` must point at `L` readable elements.
        unsafe fn load(p: *const Self::T) -> Self;
        /// # Safety
        /// `p` must point at `L` writable elements.
        unsafe fn store(self, p: *mut Self::T);
        fn fmadd(a: Self, b: Self, c: Self) -> Self;
        fn fma(a: Self::T, b: Self::T, c: Self::T) -> Self::T;
    }

    macro_rules! impl_lanes {
        ($v:ty, $t:ty, $l:literal, $zero:ident, $set1:ident, $loadu:ident, $storeu:ident,
         $fmadd:ident, $fma:ident) => {
            // SAFETY (every block): the intrinsics need `avx2` + `fma`,
            // which this module's cfg guarantees at compile time; the
            // pointer contracts are the callers'. (Whether the pure
            // register intrinsics count as `unsafe` to call depends on the
            // compiler version.)
            #[allow(unused_unsafe)]
            impl Lanes for $v {
                type T = $t;
                const L: usize = $l;

                #[inline(always)]
                fn zero() -> Self {
                    unsafe { $zero() }
                }

                #[inline(always)]
                fn splat(v: $t) -> Self {
                    unsafe { $set1(v) }
                }

                #[inline(always)]
                unsafe fn load(p: *const $t) -> Self {
                    unsafe { $loadu(p) }
                }

                #[inline(always)]
                unsafe fn store(self, p: *mut $t) {
                    unsafe { $storeu(p, self) }
                }

                #[inline(always)]
                fn fmadd(a: Self, b: Self, c: Self) -> Self {
                    unsafe { $fmadd(a, b, c) }
                }

                #[inline(always)]
                fn fma(a: $t, b: $t, c: $t) -> $t {
                    $fma(a, b, c)
                }
            }
        };
    }

    impl_lanes!(
        __m256d,
        f64,
        4,
        _mm256_setzero_pd,
        _mm256_set1_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_fmadd_pd,
        fma_f64
    );
    impl_lanes!(
        __m256,
        f32,
        8,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_fmadd_ps,
        fma_f32
    );

    pub(super) fn multi_f64(
        alpha: f64,
        a: View<'_, f64>,
        xs: &[&Matrix<f64>],
        ys: &mut [Matrix<f64>],
    ) {
        multi::<__m256d>(alpha, a, xs, ys)
    }

    pub(super) fn multi_f32(
        alpha: f32,
        a: View<'_, f32>,
        xs: &[&Matrix<f32>],
        ys: &mut [Matrix<f32>],
    ) {
        multi::<__m256>(alpha, a, xs, ys)
    }

    /// One group through the sweep for its flag and size. For `Aᵀ`, `V`
    /// registers of `y` per vector make 6–12 accumulators on AVX2 —
    /// enough independent chains to cover the FMA latency, and with the
    /// loaded runs and the broadcast within its 16 registers.
    fn multi<W: Lanes>(
        alpha: W::T,
        a: View<'_, W::T>,
        xs: &[&Matrix<W::T>],
        ys: &mut [Matrix<W::T>],
    ) {
        let q = xs.len();
        if a.cs == 1 {
            if q == 1 || a.rows * a.cols * q < ROWS_MIN_WORK {
                super::each(alpha, a, xs, ys, W::fma)
            } else if q <= W::L {
                rows::<W, ROWS, 1>(alpha, a, xs, ys)
            } else {
                rows::<W, ROWS_WIDE, 2>(alpha, a, xs, ys)
            }
            return;
        }
        match q {
            1 => cols::<W, 1, 8>(alpha, a, xs, ys),
            2 => cols::<W, 2, 4>(alpha, a, xs, ys),
            3 => cols::<W, 3, 3>(alpha, a, xs, ys),
            4 => cols::<W, 4, 3>(alpha, a, xs, ys),
            5 => cols::<W, 5, 2>(alpha, a, xs, ys),
            6 => cols::<W, 6, COLS_WIDE>(alpha, a, xs, ys),
            7 => cols::<W, 7, COLS_WIDE>(alpha, a, xs, ys),
            _ => cols::<W, 8, COLS_WIDE>(alpha, a, xs, ys),
        }
    }

    /// `op(A) = A`, vectors in the lanes: per `KC` chunk the `x`s are
    /// interleaved into `V` registers per step (padding lanes are zero
    /// and never written back), and `R` rows advance together, each step
    /// one broadcast of `A[i,p]` and `V` fused updates per row.
    fn rows<W: Lanes, const R: usize, const V: usize>(
        alpha: W::T,
        a: View<'_, W::T>,
        xs: &[&Matrix<W::T>],
        ys: &mut [Matrix<W::T>],
    ) {
        let (m, k, q) = (a.rows, a.cols, xs.len());
        let w = V * W::L;
        assert!(a.cs == 1 && q <= w && w <= GROUP);
        let zero = <W::T as Scalar>::ZERO;
        let mut xi = vec![zero; KC.min(k) * w];
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for (p, lane) in xi.chunks_exact_mut(w).take(kc).enumerate() {
                for (j, v) in lane.iter_mut().enumerate() {
                    *v = if j < q { xs[j].as_slice()[pc + p] } else { zero };
                }
            }
            let xi = &xi[..kc * w];
            let row = |i: usize| &a.data[i * a.rs + pc..][..kc];
            let mut out = [zero; GROUP];
            let mut i = 0;
            while i + R <= m {
                let rows: [&[W::T]; R] = from_fn(|r| row(i + r));
                let mut acc = [[W::zero(); V]; R];
                for p in 0..kc {
                    // SAFETY: `xi` holds `kc` steps of `w = V·L`
                    // elements and every row slice `kc` of them.
                    unsafe {
                        let xv: [W; V] = from_fn(|v| W::load(xi.as_ptr().add(p * w + v * W::L)));
                        for (acc_r, row) in acc.iter_mut().zip(&rows) {
                            let ar = W::splat(*row.get_unchecked(p));
                            for (acc_rv, &x) in acc_r.iter_mut().zip(&xv) {
                                *acc_rv = W::fmadd(ar, x, *acc_rv);
                            }
                        }
                    }
                }
                for (r, regs) in acc.iter().enumerate() {
                    for (v, reg) in regs.iter().enumerate() {
                        // SAFETY: `out` holds `GROUP ≥ V·L` elements.
                        unsafe { reg.store(out.as_mut_ptr().add(v * W::L)) };
                    }
                    write_back(alpha, ys, i + r, &out);
                }
                i += R;
            }
            for i in i..m {
                let mut acc = [zero; GROUP];
                for (&aip, lane) in row(i).iter().zip(xi.chunks_exact(w)) {
                    for (acc_j, &x) in acc.iter_mut().zip(lane) {
                        *acc_j = W::fma(aip, x, *acc_j);
                    }
                }
                write_back(alpha, ys, i, &acc);
            }
        }
    }

    /// `yⱼ[i] = α·accⱼ + yⱼ[i]` for every vector of the group.
    #[inline(always)]
    fn write_back<T: Scalar>(alpha: T, ys: &mut [Matrix<T>], i: usize, acc: &[T]) {
        for (y, &av) in ys.iter_mut().zip(acc) {
            let yv = &mut y.as_mut_slice()[i];
            *yv = alpha.mul_add(av, *yv);
        }
    }

    /// `op(A) = Aᵀ`, `y` in the lanes: per `KC` chunk, blocks of `V`
    /// registers of rows of `y` (then of 4, 2 and 1 registers, then single
    /// rows) each hold `Q` accumulators per register while `p` walks the
    /// chunk.
    fn cols<W: Lanes, const Q: usize, const V: usize>(
        alpha: W::T,
        a: View<'_, W::T>,
        xs: &[&Matrix<W::T>],
        ys: &mut [Matrix<W::T>],
    ) {
        let (m, k) = (a.rows, a.cols);
        assert!(a.rs == 1 && xs.len() == Q && ys.len() == Q);
        if m == 0 || k == 0 {
            return;
        }
        // Every register load of `blocks` stays inside A.
        assert!(a.data.len() >= (k - 1) * a.cs + m);
        let xs: [&[W::T]; Q] = from_fn(|j| &xs[j].as_slice()[..k]);
        for pc in (0..k).step_by(KC) {
            let ps = pc..k.min(pc + KC);
            let mut i = blocks::<W, Q, V>(alpha, a, &xs, ys, ps.clone(), 0);
            if V > 4 {
                i = blocks::<W, Q, 4>(alpha, a, &xs, ys, ps.clone(), i);
            }
            if V > 2 {
                i = blocks::<W, Q, 2>(alpha, a, &xs, ys, ps.clone(), i);
            }
            if V > 1 {
                i = blocks::<W, Q, 1>(alpha, a, &xs, ys, ps.clone(), i);
            }
            for i in i..m {
                let mut acc = [<W::T as Scalar>::ZERO; Q];
                for p in ps.clone() {
                    let aip = a.data[p * a.cs + i];
                    for (acc_j, x) in acc.iter_mut().zip(&xs) {
                        *acc_j = W::fma(aip, x[p], *acc_j);
                    }
                }
                write_back(alpha, ys, i, &acc);
            }
        }
    }

    /// Whole blocks of `V` registers of rows from row `i` on; returns the
    /// first row left over.
    #[inline(always)]
    fn blocks<W: Lanes, const Q: usize, const V: usize>(
        alpha: W::T,
        a: View<'_, W::T>,
        xs: &[&[W::T]; Q],
        ys: &mut [Matrix<W::T>],
        ps: Range<usize>,
        mut i: usize,
    ) -> usize {
        while i + V * W::L <= a.rows {
            let mut acc = [[W::zero(); V]; Q];
            for p in ps.clone() {
                // SAFETY: `cols` asserted that A holds row `p < k` up to
                // column `i + V·L ≤ m`, and each `xⱼ` holds `k` elements.
                unsafe {
                    let ap = a.data.as_ptr().add(p * a.cs + i);
                    let run: [W; V] = from_fn(|v| W::load(ap.add(v * W::L)));
                    for (acc_j, x) in acc.iter_mut().zip(xs) {
                        let xb = W::splat(*x.get_unchecked(p));
                        for (acc_jv, &ar) in acc_j.iter_mut().zip(&run) {
                            *acc_jv = W::fmadd(ar, xb, *acc_jv);
                        }
                    }
                }
            }
            let mut out = [<W::T as Scalar>::ZERO; GROUP];
            for (y, regs) in ys.iter_mut().zip(&acc) {
                let y = &mut y.as_mut_slice()[i..i + V * W::L];
                for (run, reg) in y.chunks_exact_mut(W::L).zip(regs) {
                    // SAFETY: `out` holds `GROUP ≥ L` elements.
                    unsafe { reg.store(out.as_mut_ptr()) };
                    for (yv, &av) in run.iter_mut().zip(&out) {
                        *yv = alpha.mul_add(av, *yv);
                    }
                }
            }
            i += V * W::L;
        }
        i
    }
}

/// Convenience wrapper allocating the output: `op(A)·x`.
pub fn gemv_alloc<T: Scalar>(a: &Matrix<T>, ta: Trans, x: &Matrix<T>) -> Matrix<T> {
    let (m, _) = ta.dims(a.rows(), a.cols());
    let mut y = Matrix::zeros(m, 1);
    // beta = 1 on the fresh zeros: same bits as beta = 0, minus a pass.
    gemv(T::ONE, a, ta, x, T::ONE, &mut y);
    y
}

/// Rank-1 update `A := α·x·yᵀ + A` for column vectors `x` (`m×1`), `y` (`n×1`).
pub fn ger<T: Scalar>(alpha: T, x: &Matrix<T>, y: &Matrix<T>, a: &mut Matrix<T>) {
    assert_eq!(x.cols(), 1, "ger: x must be a column vector");
    assert_eq!(y.cols(), 1, "ger: y must be a column vector");
    let (m, n) = a.shape();
    assert_eq!(x.rows(), m, "ger: x length mismatch");
    assert_eq!(y.rows(), n, "ger: y length mismatch");
    counters::record(Kernel::Ger, flops::ger(m, n));
    for i in 0..m {
        let xi = alpha * x[(i, 0)];
        let row = a.row_mut(i);
        for (av, j) in row.iter_mut().zip(0..n) {
            *av = xi.mul_add(y[(j, 0)], *av);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use laab_dense::gen::OperandGen;

    #[test]
    fn gemv_matches_reference_no_trans() {
        let mut g = OperandGen::new(11);
        let a = g.matrix::<f64>(9, 7);
        let x = g.col_vector::<f64>(7);
        let y = gemv_alloc(&a, Trans::No, &x);
        assert!(y.approx_eq(&reference::gemv_naive(&a, Trans::No, &x), 1e-13));
    }

    #[test]
    fn gemv_matches_reference_trans() {
        let mut g = OperandGen::new(12);
        let a = g.matrix::<f64>(9, 7);
        let x = g.col_vector::<f64>(9);
        let y = gemv_alloc(&a, Trans::Yes, &x);
        assert!(y.approx_eq(&reference::gemv_naive(&a, Trans::Yes, &x), 1e-13));
    }

    #[test]
    fn gemv_alpha_beta() {
        let mut g = OperandGen::new(13);
        let a = g.matrix::<f64>(5, 5);
        let x = g.col_vector::<f64>(5);
        let y0 = g.col_vector::<f64>(5);
        let mut y = y0.clone();
        gemv(2.0, &a, Trans::No, &x, 3.0, &mut y);
        let ax = reference::gemv_naive(&a, Trans::No, &x);
        for i in 0..5 {
            let want = 2.0 * ax[(i, 0)] + 3.0 * y0[(i, 0)];
            assert!((y[(i, 0)] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn ger_matches_gemm_of_outer_product() {
        let mut g = OperandGen::new(14);
        let x = g.col_vector::<f64>(6);
        let y = g.col_vector::<f64>(4);
        let mut a = Matrix::<f64>::zeros(6, 4);
        ger(1.0, &x, &y, &mut a);
        let want =
            reference::gemm_naive(1.0, &x, Trans::No, &y, Trans::Yes, 0.0, &Matrix::zeros(6, 4));
        assert!(a.approx_eq(&want, 1e-13));
    }

    #[test]
    fn counters_recorded() {
        counters::reset();
        let a = Matrix::<f32>::identity(8);
        let x = Matrix::<f32>::col_vector(&[1.0; 8]);
        let _ = gemv_alloc(&a, Trans::No, &x);
        let mut m = Matrix::<f32>::zeros(8, 8);
        ger(1.0, &x, &x, &mut m);
        let s = counters::snapshot();
        assert_eq!(s.calls(Kernel::Gemv), 1);
        assert_eq!(s.flops(Kernel::Gemv), 128);
        assert_eq!(s.calls(Kernel::Ger), 1);
    }

    #[test]
    fn gemv_multi_counts_a_gemv_per_vector_across_groups() {
        // Eleven vectors: a group of eight and a group of three, every
        // member's bits and counters those of its solo product.
        let mut g = OperandGen::new(15);
        let a = g.matrix::<f64>(13, 10);
        for ta in [Trans::No, Trans::Yes] {
            let (m, k) = ta.dims(13, 10);
            let xs: Vec<Matrix<f64>> = (0..11).map(|_| g.col_vector::<f64>(k)).collect();
            let refs: Vec<&Matrix<f64>> = xs.iter().collect();
            let mut ys = vec![Matrix::<f64>::zeros(m, 1); 11];
            let (_, c) = counters::measure(|| gemv_multi(-0.5, &a, ta, &refs, 0.0, &mut ys));
            assert_eq!(c.calls(Kernel::Gemv), 11);
            assert_eq!(c.flops(Kernel::Gemv), 11 * flops::gemv(m, k));
            for (x, y) in xs.iter().zip(&ys) {
                let mut solo = Matrix::zeros(m, 1);
                gemv(-0.5, &a, ta, x, 0.0, &mut solo);
                assert_eq!(y.as_slice(), solo.as_slice(), "{ta:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outputs for")]
    fn gemv_multi_count_mismatch_panics() {
        let a = Matrix::<f64>::identity(4);
        let x = Matrix::<f64>::zeros(4, 1);
        let mut ys = vec![Matrix::<f64>::zeros(4, 1); 2];
        gemv_multi(1.0, &a, Trans::No, &[&x], 0.0, &mut ys);
    }

    #[test]
    #[should_panic(expected = "column vector")]
    fn gemv_rejects_row_vector() {
        let a = Matrix::<f32>::identity(3);
        let x = Matrix::<f32>::row_vector(&[1.0, 2.0, 3.0]);
        let _ = gemv_alloc(&a, Trans::No, &x);
    }
}
