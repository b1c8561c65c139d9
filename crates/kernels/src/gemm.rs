//! Packed, blocked GEMM with specialized microkernels.
//!
//! The structure follows the BLIS/Goto decomposition: three cache-blocking
//! loops (`NC`/`KC`/`MC`) around packed panels of `A` and `B`, with an
//! `MR×NR` register-tile microkernel innermost. Transposition is absorbed
//! by the packing routines (the strided [`View`](crate::view::View) simply
//! swaps strides), so `op(A)·op(B)` costs the same for every flag
//! combination — the behaviour the paper observes for MKL-backed `AᵀB` in
//! Table I.
//!
//! ## Execution engine
//!
//! The driver runs on the calling thread, as the paper's measurements do
//! (single-threaded, Sec. III). Within each `(jc, pc)` step, `B` is packed
//! **once** into a panel that every `MC`-row block of `A` then sweeps.
//! Each block packs its `A` rows into a **reusable thread-local
//! workspace** ([`crate::workspace`]), so steady-state calls allocate
//! nothing.
//!
//! ## Register tile
//!
//! `MR` is 6 rows for every element type; the tile *width* `NR` is two
//! SIMD registers of the element type, so it is a per-dtype compile-time
//! parameter of the one driver:
//!
//! | build | `f64` | `f32` | full tile | half-width path |
//! |---|---|---|---|---|
//! | AVX-512 | 6×16 | 6×32 | explicit, 6 rows × 2 zmm | 6 rows × 2 ymm |
//! | AVX2 + FMA | 6×8 | 6×16 | explicit, 6 rows × 2 ymm | 6 rows × 1 ymm |
//! | anything else | 6×8 | 6×8 | autovectorized scalar-FMA loop | — |
//!
//! The hot kernels are written with intrinsics because the autovectorizer
//! does not produce them: it will not hold a 6×8 `f64` tile in AVX2's 16
//! registers without spilling, and on AVX-512 targets it prefers 256-bit
//! vectors — the autovectorized `f32` loop over a 16-wide row compiled to
//! 12 `ymm` FMAs per `k` step, exactly `f64`'s instruction count per 16
//! columns, so `f32` ran at `f64`'s FLOP rate (half its peak) until it got
//! a tile twice as wide and explicit `ps` kernels.
//!
//! [`gemm_blocked`] resolves width and kernel from the element type once
//! per call; packing, the macro sweep and the triangular skip all take
//! `NR` from there.
//!
//! **Half-width rule.** A micro-tile with at most `NR/2` live columns —
//! every `f32` product of a 16-wide operand, the ragged last panel of any
//! shape — is swept over the low half of each packed-B row only: the
//! panel is still `NR` wide (zero-padded), but the upper half is neither
//! loaded nor updated.
//! Without it a thin panel would pay for a full tile of zeros, and
//! widening the `f32` tile would double that bill. The choice is made
//! inside the explicit kernels from the `cols` the macro sweep already
//! computes; live lanes see the same fused chain either way. On AVX-512
//! the half is spelled as two ymm registers per row, not one zmm: thin
//! products live in requests that are mostly not linear algebra, and
//! 512-bit FMAs lower the core's clock for the code around them (see
//! the AVX-512 `tile`).
//!
//! ## Triangular sweep
//!
//! A symmetric product `op(A)·op(A)ᵀ` needs one triangle. The driver has
//! a lower-triangle mode ([`Sweep::Lower`], entered through
//! [`gemm_lower`]) that skips every micro-tile lying wholly above the
//! diagonal and changes nothing else, so the tiles it does compute are
//! bit for bit the full sweep's; [`syrk`](crate::syrk) mirrors the rest.
//!
//! ## Determinism
//!
//! Every `C[i,j]` is accumulated in one fixed order: `pc` loop outermost,
//! a fixed-`k`-order microkernel within each `KC` chunk. The tile shape
//! does not enter any element's `k` order: each output lane is its own
//! fused chain.

use std::any::Any;

use laab_dense::{Matrix, Scalar};

use crate::counters::{self, Kernel};
use crate::view::{MutView, View};
use crate::workspace::{with_packed_a, with_packed_b};
use crate::{flops, Trans};

use tile::{micro_kernel_f32, micro_kernel_f64, NR_F32, NR_F64};

/// Register tile rows. With two accumulator registers per row, 6 rows keep
/// 12 SIMD accumulators live — the classic FMA-latency-hiding shape that
/// still fits the 16 architectural vector registers of AVX2 (and leaves
/// headroom under AVX-512).
pub(crate) const MR: usize = 6;
/// Tile columns for a hypothetical further `Scalar` type (`f64`'s and
/// `f32`'s widths come with their kernels, from the build's `tile`).
const NR_GENERIC: usize = 8;
/// Rows of the packed A block (L2-resident panel height, multiple of `MR`).
const MC: usize = 120;
/// Depth of the packed panels. Deep panels (L2-resident A block) halve
/// the number of read-modify-write passes over `C` relative to the
/// classic L1-sized choice — measurably faster here, where the
/// microkernel is FMA-bound and `C` traffic is the next cost.
/// [`gemv`](crate::gemv) chunks its chains at the same depth.
pub(crate) const KC: usize = 1024;
/// Columns of the packed B block (L3-resident panel width, a multiple of
/// every dtype's `NR`).
const NC: usize = 2048;

/// `C := α·op(A)·op(B) + β·C`.
///
/// Shapes: with `op(A)` of shape `m×k` and `op(B)` of shape `k×n`, `C` must
/// be `m×n`.
///
/// # Panics
/// On inconsistent shapes.
pub fn gemm<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    ta: Trans,
    b: &Matrix<T>,
    tb: Trans,
    beta: T,
    c: &mut Matrix<T>,
) {
    let av = View::of(a, ta);
    let bv = View::of(b, tb);
    let (m, ka) = (av.rows, av.cols);
    let (kb, n) = (bv.rows, bv.cols);
    assert_eq!(ka, kb, "gemm: inner dimensions differ ({ka} vs {kb})");
    assert_eq!(c.shape(), (m, n), "gemm: C has shape {:?}, expected ({m}, {n})", c.shape());
    counters::record(Kernel::Gemm, flops::gemm(m, n, ka));
    gemm_blocked(alpha, av, bv, beta, MutView::of(c), Sweep::Full);
}

/// Convenience wrapper allocating the output: `op(A)·op(B)`.
pub fn matmul<T: Scalar>(a: &Matrix<T>, ta: Trans, b: &Matrix<T>, tb: Trans) -> Matrix<T> {
    let (m, _) = ta.dims(a.rows(), a.cols());
    let (_, n) = tb.dims(b.rows(), b.cols());
    // beta = 1 on the fresh zeros: same bits as beta = 0, minus the driver's
    // second zeroing pass over C.
    let mut c = Matrix::zeros(m, n);
    gemm(T::ONE, a, ta, b, tb, T::ONE, &mut c);
    c
}

/// `α·op(A)·[B₀ | B₁ | … | B_{q−1}]`: the `m×(q·n)` product of `A` with
/// `q` same-shape, untransposed right-hand sides stacked column-wise. The
/// stack is copied into one `k×(q·n)` matrix and multiplied by one
/// [`gemm`], so the `i`-th `n`-column block of the result is bitwise that
/// GEMM's on the concatenation. Served vector batches do not come here:
/// [`gemv_multi`](crate::gemv_multi) beat the stacked product at every
/// window size, reads `A` in place and returns each solo product's bits.
///
/// # Panics
/// On ragged `B_i` shapes or an inner dimension that differs from
/// `op(A)`'s.
pub fn matmul_multi_rhs<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    ta: Trans,
    bs: &[&Matrix<T>],
) -> Matrix<T> {
    let (m, _) = ta.dims(a.rows(), a.cols());
    let Some(first) = bs.first() else {
        return Matrix::zeros(m, 0);
    };
    let (k, bn) = first.shape();
    let mut stacked = Matrix::zeros(k, bn * bs.len());
    for (i, b) in bs.iter().enumerate() {
        assert_eq!(
            b.shape(),
            (k, bn),
            "matmul_multi_rhs: ragged RHS shapes ({:?} vs ({k}, {bn}))",
            b.shape()
        );
        stacked.set_submatrix(0, i * bn, b);
    }
    let mut c = Matrix::zeros(m, stacked.cols());
    // beta = 1 on fresh zeros, as in `matmul`.
    gemm(alpha, a, ta, &stacked, Trans::No, T::ONE, &mut c);
    c
}

/// `C += α·A·B` on the lower triangle of a square `C` only — the driver
/// behind [`syrk`](crate::syrk). Every element on or below the diagonal
/// gets exactly the bits [`gemm`] would give it (same packed panels, same
/// `k` order, same tile write-back); elements above the diagonal are
/// either computed the same way (micro-tiles straddling the diagonal) or
/// left untouched.
pub(crate) fn gemm_lower<T: Scalar>(alpha: T, a: View<'_, T>, b: View<'_, T>, c: &mut Matrix<T>) {
    debug_assert_eq!(a.rows, b.cols, "gemm_lower: C must be square");
    gemm_blocked(alpha, a, b, T::ONE, MutView::of(c), Sweep::Lower);
}

/// Which micro-tiles of the output the blocked driver computes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sweep {
    /// All of them — GEMM.
    Full,
    /// Only those holding an element on or below the diagonal: a
    /// micro-tile whose first column lies strictly right of its last row
    /// is skipped. Packing, `KC` splits, microkernels and the blocking
    /// are the full sweep's, so what is computed is bitwise what
    /// [`Sweep::Full`] computes there.
    Lower,
}

/// The driver body's signature once width and microkernel are fixed.
type Driver<T> = for<'a> fn(T, View<'a, T>, View<'a, T>, T, MutView<'a, T>, Sweep);

/// `C := α·A·B + β·C` over strided views, on the micro-tiles `sweep`
/// selects: the blocked driver's entry. It picks the register-tile width
/// and the microkernel for the element type — once per call — and runs
/// the one driver body monomorphised for them. The public API is bounded
/// on `Scalar` alone, so the element type is recognized by type equality:
/// the `f64` body's function pointer downcasts to "a body for `T`" exactly
/// when `T` is `f64`, which hands it over with no reinterpretation of any
/// operand.
pub(crate) fn gemm_blocked<T: Scalar>(
    alpha: T,
    a: View<'_, T>,
    b: View<'_, T>,
    beta: T,
    c: MutView<'_, T>,
    sweep: Sweep,
) {
    let f64_body: Driver<f64> = |alpha, a, b, beta, c, sweep| {
        blocked_at::<f64, NR_F64>(alpha, a, b, beta, c, sweep, micro_kernel_f64)
    };
    let f32_body: Driver<f32> = |alpha, a, b, beta, c, sweep| {
        blocked_at::<f32, NR_F32>(alpha, a, b, beta, c, sweep, micro_kernel_f32)
    };
    let generic_body: Driver<T> = |alpha, a, b, beta, c, sweep| {
        blocked_at::<T, NR_GENERIC>(alpha, a, b, beta, c, sweep, micro_kernel_generic)
    };
    let body = [&f64_body as &dyn Any, &f32_body]
        .into_iter()
        .find_map(|body| body.downcast_ref::<Driver<T>>())
        .unwrap_or(&generic_body);
    body(alpha, a, b, beta, c, sweep);
}

/// The driver body at tile width `NR`: for each `NC`-wide column panel and
/// `KC`-deep slice of `k`, pack the `B` panel once, then pack and sweep
/// each `MC`-row block of `A` against it.
fn blocked_at<T: Scalar, const NR: usize>(
    alpha: T,
    a: View<'_, T>,
    b: View<'_, T>,
    beta: T,
    mut c: MutView<'_, T>,
    sweep: Sweep,
    kernel: impl Fn(usize, &[T], &[T], usize, &mut [[T; NR]; MR]) + Copy,
) {
    let (m, k) = (a.rows, a.cols);
    let n = b.cols;
    debug_assert_eq!(b.rows, k);
    debug_assert_eq!((c.rows, c.cols), (m, n));

    // Apply beta once, up front: C := beta*C. (beta == 0 writes zeros so
    // uninitialized NaNs never propagate, matching BLAS semantics.)
    scale_c(beta, &mut c);
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    let b_len = KC.min(k) * NC.min(n).next_multiple_of(NR);
    with_packed_b::<T, _>(b_len, |packed_b| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b::<T, NR>(packed_b, b, pc, kc, jc, nc);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    if sweep == Sweep::Lower && jc >= ic + mc {
                        continue; // the whole block lies above the diagonal
                    }
                    with_packed_a::<T, _>(mc.next_multiple_of(MR) * kc, |pa| {
                        pack_a(pa, a, ic, mc, pc, kc);
                        macro_block(alpha, pa, packed_b, mc, nc, kc, ic, jc, &mut c, sweep, kernel);
                    });
                }
            }
        }
    });
}

fn scale_c<T: Scalar>(beta: T, c: &mut MutView<'_, T>) {
    if beta == T::ONE {
        return;
    }
    for i in 0..c.rows {
        let row = &mut c.data[i * c.rs..i * c.rs + c.cols];
        if beta == T::ZERO {
            for v in row.iter_mut() {
                *v = T::ZERO;
            }
        } else {
            for v in row.iter_mut() {
                *v *= beta;
            }
        }
    }
}

/// Pack `mc×kc` of `A` (from `(ic, pc)`) into row-panels of height `MR`,
/// zero-padding the ragged final panel. The unit-column-stride fast path
/// reads each source row contiguously.
fn pack_a<T: Scalar>(buf: &mut [T], a: View<'_, T>, ic: usize, mc: usize, pc: usize, kc: usize) {
    let panels = mc.div_ceil(MR);
    debug_assert!(buf.len() >= panels * MR * kc);
    for p in 0..panels {
        let out = &mut buf[p * MR * kc..(p + 1) * MR * kc];
        let rows = MR.min(mc - p * MR);
        if rows < MR {
            out.fill(T::ZERO);
        }
        let r0 = ic + p * MR;
        if a.cs == 1 {
            for ir in 0..rows {
                let src = &a.data[(r0 + ir) * a.rs + pc..][..kc];
                for (kk, &v) in src.iter().enumerate() {
                    out[kk * MR + ir] = v;
                }
            }
        } else {
            // Transposed (or generally strided) source: for a fixed kk the
            // `ir` run strides by `a.rs` (contiguous when rs == 1).
            for kk in 0..kc {
                let base = (pc + kk) * a.cs + r0 * a.rs;
                for ir in 0..rows {
                    out[kk * MR + ir] = a.data[base + ir * a.rs];
                }
            }
        }
    }
}

/// Pack `kc×nc` of `B` (from `(pc, jc)`) into column-panels of width `NR`,
/// zero-padding the ragged final panel. The unit-column-stride fast path
/// is a straight row-fragment copy.
fn pack_b<T: Scalar, const NR: usize>(
    buf: &mut [T],
    b: View<'_, T>,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    let panels = nc.div_ceil(NR);
    debug_assert!(buf.len() >= panels * NR * kc);
    for p in 0..panels {
        let out = &mut buf[p * NR * kc..(p + 1) * NR * kc];
        let cols = NR.min(nc - p * NR);
        if cols < NR {
            out.fill(T::ZERO);
        }
        let c0 = jc + p * NR;
        if b.cs == 1 {
            for kk in 0..kc {
                let src = &b.data[(pc + kk) * b.rs + c0..][..cols];
                out[kk * NR..kk * NR + cols].copy_from_slice(src);
            }
        } else {
            for jr in 0..cols {
                let base = (c0 + jr) * b.cs + pc * b.rs;
                for kk in 0..kc {
                    out[kk * NR + jr] = b.data[base + kk * b.rs];
                }
            }
        }
    }
}

/// Sweep the `MR×NR` tiles of one `mc × nc` macro-tile that `sweep`
/// selects, accumulating `alpha`-scaled results into `C` at `(i0, j0)`,
/// one tile row at a time.
///
/// `kernel(kc, pa, pb, cols, acc)` is the register-tile microkernel:
/// `acc[MR][NR] = Σ_k a[k][·] ⊗ b[k][·]` over `kc` steps of one packed
/// `MR`-row A panel and one packed `NR`-column B panel, into a
/// zero-initialized `acc`. `cols` is the number of live (not zero-padded)
/// columns of the B panel; a kernel may leave `acc[..][cols..]` at zero.
#[allow(clippy::too_many_arguments)]
fn macro_block<T: Scalar, const NR: usize>(
    alpha: T,
    packed_a: &[T],
    packed_b: &[T],
    mc: usize,
    nc: usize,
    kc: usize,
    i0: usize,
    j0: usize,
    c: &mut MutView<'_, T>,
    sweep: Sweep,
    kernel: impl Fn(usize, &[T], &[T], usize, &mut [[T; NR]; MR]),
) {
    let a_panels = mc.div_ceil(MR);
    let b_panels = nc.div_ceil(NR);
    for jp in 0..b_panels {
        let pb = &packed_b[jp * NR * kc..(jp + 1) * NR * kc];
        let cols = NR.min(nc - jp * NR);
        for ip in 0..a_panels {
            let pa = &packed_a[ip * MR * kc..(ip + 1) * MR * kc];
            let rows = MR.min(mc - ip * MR);
            if sweep == Sweep::Lower && j0 + jp * NR > i0 + ip * MR + rows - 1 {
                continue;
            }
            // Offset of the tile's first element in `C`.
            let tile = (i0 + ip * MR) * c.rs + j0 + jp * NR;
            // Pull the C destination rows towards the core while the
            // microkernel runs — the write-back below is the only
            // non-packed memory traffic in the macro sweep. A tile row is
            // two registers, so at most two cache lines of elements: touch
            // the first, and the second when the live columns reach it.
            // (Spelled out rather than looped: a per-row line loop cost
            // 10 % of a 16³ product.)
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                let line = 64 / std::mem::size_of::<T>();
                const { assert!(NR * std::mem::size_of::<T>() <= 128) };
                for ir in 0..rows {
                    let row = c.data.as_ptr().wrapping_add(tile + ir * c.rs);
                    // SAFETY: prefetch has no architectural effect; the
                    // addresses are elements of the row the write-back
                    // below updates (`line < cols`).
                    #[allow(unsafe_code)]
                    unsafe {
                        _mm_prefetch(row.cast(), _MM_HINT_T0);
                        if cols > line {
                            _mm_prefetch(row.wrapping_add(line).cast(), _MM_HINT_T0);
                        }
                    }
                }
            }
            let mut acc = [[T::ZERO; NR]; MR];
            kernel(kc, pa, pb, cols, &mut acc);
            // Accumulate the tile: C[i0+ip*MR.., j0+jp*NR..] += alpha * acc.
            for (ir, acc_row) in acc.iter().enumerate().take(rows) {
                let at = tile + ir * c.rs;
                for (sv, &av) in c.data[at..at + cols].iter_mut().zip(acc_row) {
                    *sv = alpha.mul_add(av, *sv);
                }
            }
        }
    }
}

/// The portable build's register tiles: 6×8 for both dtypes — 8 `f32`
/// columns are the width the baseline's 16 128-bit registers still hold —
/// under an autovectorized loop.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "fma",
    any(target_feature = "avx512f", target_feature = "avx2")
)))]
mod tile {
    use super::MR;
    use crate::simd::{fma_f32, fma_f64};

    pub(super) const NR_F64: usize = 8;
    pub(super) const NR_F32: usize = 8;

    /// The portable microkernel: a fixed-size, fully unrolled rank-1-update
    /// sweep — per `k` step, `MR` broadcasts against one `NR`-wide packed row,
    /// every update a hardware FMA when the target has one. The constant trip
    /// counts let LLVM keep all `MR×NR` accumulators in vector registers. It
    /// always sweeps the full width (`cols` is not consulted).
    macro_rules! portable_kernel {
        ($name:ident, $t:ty, $nr:ident, $fma:ident) => {
            #[inline(always)]
            pub(super) fn $name(
                kc: usize,
                pa: &[$t],
                pb: &[$t],
                _cols: usize,
                acc: &mut [[$t; $nr]; MR],
            ) {
                for (a, b) in pa.chunks_exact(MR).zip(pb.chunks_exact($nr)).take(kc) {
                    let a: &[$t; MR] = a.try_into().unwrap();
                    let b: &[$t; $nr] = b.try_into().unwrap();
                    for ir in 0..MR {
                        let av = a[ir];
                        let row = &mut acc[ir];
                        for jr in 0..$nr {
                            row[jr] = $fma(av, b[jr], row[jr]);
                        }
                    }
                }
            }
        };
    }

    portable_kernel!(micro_kernel_f64, f64, NR_F64, fma_f64);
    portable_kernel!(micro_kernel_f32, f32, NR_F32, fma_f32);
}

/// An explicit FMA sweep over the low `V` SIMD registers of each packed-B
/// row: `$name::<V>(kc, pa, pb, acc)` leaves `Σ_k a[k][·] ⊗ b[k][..V·$lanes]`
/// in the first `V·$lanes` columns of `acc` — `MR` rows × `V` accumulator
/// registers, one broadcast and `V` fused updates per row per `k` step,
/// written with the given `std::arch` intrinsics of `$lanes` elements per
/// register. Each output lane is an independent fused chain in fixed `k`
/// order, so the result is bitwise the scalar-FMA formulation whatever the
/// register width or `V`.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "fma",
    any(target_feature = "avx512f", target_feature = "avx2")
))]
macro_rules! fma_sweep {
    ($name:ident, $t:ty, $nr:ident, $lanes:literal,
     $set1:ident, $loadu:ident, $fmadd:ident, $setzero:ident, $storeu:ident) => {
        #[inline(always)]
        fn $name<const V: usize>(kc: usize, pa: &[$t], pb: &[$t], acc: &mut [[$t; $nr]; MR]) {
            use std::arch::x86_64::{
                _mm_prefetch, $fmadd, $loadu, $set1, $setzero, $storeu, _MM_HINT_T0,
            };
            const LANES: usize = $lanes;
            /// Elements per cache line of the packed row.
            const LINE: usize = 64 / std::mem::size_of::<$t>();
            assert!(pa.len() >= kc * MR && pb.len() >= kc * $nr && V * LANES <= $nr);
            // SAFETY: the intrinsics are gated on the compile-time target
            // features of the `tile` module that instantiates the sweep;
            // pointer arithmetic stays inside the packed panels and the
            // `acc` rows per the assert (prefetches may run past the panel
            // end — they use wrapping_add, which `add` past the end would
            // make UB, and are architecturally side-effect free).
            unsafe {
                let mut c = [[$setzero(); V]; MR];
                // One k step: the row's V registers against MR broadcasts.
                let step = |ap: *const $t, bp: *const $t, c: &mut [[_; V]; MR]| {
                    let b: [_; V] = std::array::from_fn(|v| $loadu(bp.add(v * LANES)));
                    for ir in 0..MR {
                        let av = $set1(*ap.add(ir));
                        for v in 0..V {
                            c[ir][v] = $fmadd(av, b[v], c[ir][v]);
                        }
                    }
                };
                let mut ap = pa.as_ptr();
                let mut bp = pb.as_ptr();
                // How far ahead (in k steps) to pull the streamed B panel.
                const LOOKAHEAD: usize = 8;
                // Two k steps per trip cuts the loop-control share of the
                // front-end budget; the odd tail runs one plain step.
                for _ in 0..kc / 2 {
                    for s in 0..2 {
                        for line in (0..V * LANES).step_by(LINE) {
                            let ahead = $nr * (LOOKAHEAD + s) + line;
                            _mm_prefetch(bp.wrapping_add(ahead).cast(), _MM_HINT_T0);
                        }
                    }
                    step(ap, bp, &mut c);
                    step(ap.add(MR), bp.add($nr), &mut c);
                    ap = ap.add(2 * MR);
                    bp = bp.add(2 * $nr);
                }
                if kc % 2 == 1 {
                    step(ap, bp, &mut c);
                }
                for ir in 0..MR {
                    for v in 0..V {
                        $storeu(acc[ir].as_mut_ptr().add(v * LANES), c[ir][v]);
                    }
                }
            }
        }
    };
}

/// A `tile` microkernel: the `$full` sweep, or the `$half` one — which
/// covers the low `NR/2` columns — when no more than those are live (the
/// half-width rule).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "fma",
    any(target_feature = "avx512f", target_feature = "avx2")
))]
macro_rules! tile_kernel {
    ($(#[$attr:meta])* $name:ident, $t:ty, $nr:ident, $half:expr, $full:expr) => {
        $(#[$attr])*
        pub(super) fn $name(
            kc: usize,
            pa: &[$t],
            pb: &[$t],
            cols: usize,
            acc: &mut [[$t; $nr]; MR],
        ) {
            if cols <= $nr / 2 {
                $half(kc, pa, pb, acc)
            } else {
                $full(kc, pa, pb, acc)
            }
        }
    };
}

/// The AVX2+FMA build's register tiles: two ymm registers per row — 6×8
/// `f64`, the classic Haswell dgemm shape, and 6×16 `f32` — which the
/// autovectorizer cannot hold in the 16 architectural registers without
/// spilling. The half-width path is one ymm per row.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(target_feature = "avx512f")
))]
#[allow(unsafe_code)]
mod tile {
    use super::MR;

    pub(super) const NR_F64: usize = 8;
    pub(super) const NR_F32: usize = 16;

    fma_sweep!(
        ymm_f64,
        f64,
        NR_F64,
        4,
        _mm256_set1_pd,
        _mm256_loadu_pd,
        _mm256_fmadd_pd,
        _mm256_setzero_pd,
        _mm256_storeu_pd
    );
    fma_sweep!(
        ymm_f32,
        f32,
        NR_F32,
        8,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_fmadd_ps,
        _mm256_setzero_ps,
        _mm256_storeu_ps
    );

    // Not inlined: merged into the macro sweep, the two sweeps' accumulators
    // and the caller's tile are 24 live vectors at the join, and with 16
    // registers the hot loop spills.
    tile_kernel!(
        #[inline(never)]
        micro_kernel_f64,
        f64,
        NR_F64,
        ymm_f64::<1>,
        ymm_f64::<2>
    );
    tile_kernel!(
        #[inline(never)]
        micro_kernel_f32,
        f32,
        NR_F32,
        ymm_f32::<1>,
        ymm_f32::<2>
    );
}

/// The AVX-512 build's register tiles: two zmm registers per row, 6×16
/// `f64` and 6×32 `f32` — 12 zmm accumulators of 32. The half-width path
/// covers its `NR/2` columns with two *ymm* registers per row rather than
/// one zmm: the panels that take it are thin products inside requests
/// that are mostly not linear algebra, and sustained 512-bit FMAs lower
/// the core's clock for everything that runs next to them (the AVX-512
/// frequency licence), so they stay on the 256-bit licence and leave the
/// 512-bit one to the full tiles, where the FMA rate is the point.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f", target_feature = "fma"))]
#[allow(unsafe_code)]
mod tile {
    use super::MR;

    pub(super) const NR_F64: usize = 16;
    pub(super) const NR_F32: usize = 32;

    fma_sweep!(
        zmm_f64,
        f64,
        NR_F64,
        8,
        _mm512_set1_pd,
        _mm512_loadu_pd,
        _mm512_fmadd_pd,
        _mm512_setzero_pd,
        _mm512_storeu_pd
    );
    fma_sweep!(
        ymm_f64,
        f64,
        NR_F64,
        4,
        _mm256_set1_pd,
        _mm256_loadu_pd,
        _mm256_fmadd_pd,
        _mm256_setzero_pd,
        _mm256_storeu_pd
    );
    fma_sweep!(
        zmm_f32,
        f32,
        NR_F32,
        16,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_fmadd_ps,
        _mm512_setzero_ps,
        _mm512_storeu_ps
    );
    fma_sweep!(
        ymm_f32,
        f32,
        NR_F32,
        8,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_fmadd_ps,
        _mm256_setzero_ps,
        _mm256_storeu_ps
    );

    tile_kernel!(
        #[inline(always)]
        micro_kernel_f64,
        f64,
        NR_F64,
        ymm_f64::<2>,
        zmm_f64::<2>
    );
    tile_kernel!(
        #[inline(always)]
        micro_kernel_f32,
        f32,
        NR_F32,
        ymm_f32::<2>,
        zmm_f32::<2>
    );
}

/// Generic fallback for hypothetical further `Scalar` types: the portable
/// shape with unfused updates.
#[inline(always)]
fn micro_kernel_generic<T: Scalar>(
    kc: usize,
    pa: &[T],
    pb: &[T],
    _cols: usize,
    acc: &mut [[T; NR_GENERIC]; MR],
) {
    for (a, b) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR_GENERIC)).take(kc) {
        for ir in 0..MR {
            let av = a[ir];
            let row = &mut acc[ir];
            for jr in 0..NR_GENERIC {
                row[jr] = av.mul_add(b[jr], row[jr]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use laab_dense::gen::OperandGen;

    fn check_case(m: usize, n: usize, k: usize, ta: Trans, tb: Trans, alpha: f64, beta: f64) {
        let mut g = OperandGen::new((m * 31 + n * 7 + k) as u64);
        let (ar, ac) = match ta {
            Trans::No => (m, k),
            Trans::Yes => (k, m),
        };
        let (br, bc) = match tb {
            Trans::No => (k, n),
            Trans::Yes => (n, k),
        };
        let a = g.matrix::<f64>(ar, ac);
        let b = g.matrix::<f64>(br, bc);
        let c0 = g.matrix::<f64>(m, n);

        let mut c = c0.clone();
        gemm(alpha, &a, ta, &b, tb, beta, &mut c);
        let want = reference::gemm_naive(alpha, &a, ta, &b, tb, beta, &c0);
        assert!(
            c.approx_eq(&want, 1e-12),
            "gemm mismatch m={m} n={n} k={k} ta={ta:?} tb={tb:?} alpha={alpha} beta={beta}: \
             dist={}",
            c.rel_dist(&want)
        );
    }

    #[test]
    fn matches_reference_all_trans_combos() {
        for &(ta, tb) in &[
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            check_case(17, 13, 9, ta, tb, 1.0, 0.0);
        }
    }

    #[test]
    fn matches_reference_alpha_beta() {
        check_case(8, 8, 8, Trans::No, Trans::No, 2.5, 0.5);
        check_case(5, 9, 3, Trans::Yes, Trans::No, -1.0, 1.0);
        check_case(12, 4, 20, Trans::No, Trans::Yes, 0.0, 2.0);
    }

    #[test]
    fn ragged_sizes_cross_tile_boundaries() {
        // Exercise the zero-padding paths: sizes straddling MR/NR/MC/KC.
        for &(m, n, k) in &[(1, 1, 1), (3, 9, 5), (4, 8, 256), (5, 9, 257), (130, 17, 300)] {
            check_case(m, n, k, Trans::No, Trans::No, 1.0, 0.0);
        }
    }

    #[test]
    fn vector_shapes() {
        // n = 1 (matrix-vector through GEMM) and m = 1 (row-vector-matrix).
        check_case(64, 1, 64, Trans::No, Trans::No, 1.0, 0.0);
        check_case(1, 64, 64, Trans::No, Trans::No, 1.0, 0.0);
        check_case(1, 1, 128, Trans::No, Trans::No, 1.0, 0.0);
    }

    #[test]
    fn matmul_allocates_correct_shape() {
        let mut g = OperandGen::new(9);
        let a = g.matrix::<f32>(6, 4);
        let b = g.matrix::<f32>(6, 5);
        let c = matmul(&a, Trans::Yes, &b, Trans::No);
        assert_eq!(c.shape(), (4, 5));
    }

    #[test]
    fn beta_zero_overwrites_nans() {
        let a = Matrix::<f64>::identity(4);
        let b = Matrix::<f64>::identity(4);
        let mut c = Matrix::<f64>::filled(4, 4, f64::NAN);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        assert!(c.all_finite(), "beta=0 must not propagate NaNs");
        assert!(c.approx_eq(&Matrix::identity(4), 1e-15));
    }

    #[test]
    fn records_counters() {
        counters::reset();
        let a = Matrix::<f32>::identity(10);
        let b = Matrix::<f32>::identity(10);
        let _ = matmul(&a, Trans::No, &b, Trans::No);
        let s = counters::snapshot();
        assert_eq!(s.calls(Kernel::Gemm), 1);
        assert_eq!(s.flops(Kernel::Gemm), 2000);
    }

    #[test]
    fn seed_and_engine_agree() {
        let mut g = OperandGen::new(80);
        let a = g.matrix::<f64>(70, 90);
        let b = g.matrix::<f64>(90, 40);
        let c0 = g.matrix::<f64>(70, 40);
        let mut c_new = c0.clone();
        gemm(1.25, &a, Trans::No, &b, Trans::No, -0.5, &mut c_new);
        let mut c_seed = c0.clone();
        crate::seed::gemm_seed(1.25, &a, Trans::No, &b, Trans::No, -0.5, &mut c_seed);
        assert!(c_new.approx_eq(&c_seed, 1e-12));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Matrix::<f32>::zeros(2, 3);
        let b = Matrix::<f32>::zeros(4, 2);
        let _ = matmul(&a, Trans::No, &b, Trans::No);
    }

    #[test]
    fn padded_lanes_are_never_written_back() {
        // The product lands in the top-left corner of a C allocated one A
        // panel taller and one B panel wider. `A`'s last live row and `B`'s
        // last live column hold an infinity, so the zero-padded rows and
        // lanes of the accumulator tile hold `0·Inf = NaN` — and must stay
        // there: everything outside the corner keeps its canary.
        fn check<T: Scalar, const NR: usize>() {
            let canary = T::from_f64(7.0);
            let mut g = OperandGen::new(99);
            for n in [1, NR / 2 - 1, NR / 2 + 1, NR - 1, NR + 1, NR + NR / 2] {
                let (m, k) = (MR + 1, 9);
                let mut a = g.matrix::<T>(m, k);
                let mut b = g.matrix::<T>(k, n);
                a[(m - 1, k - 1)] = T::from_f64(f64::INFINITY);
                b[(0, n - 1)] = T::from_f64(f64::NEG_INFINITY);
                let mut c = Matrix::filled(m + MR, n + NR, canary);
                let (av, bv) = (View::of(&a, Trans::No), View::of(&b, Trans::No));
                let mut whole = MutView::of(&mut c);
                gemm_blocked(T::ONE, av, bv, T::ZERO, whole.sub(0, m, 0, n), Sweep::Full);
                let mut tight = Matrix::zeros(m, n);
                gemm(T::ONE, &a, Trans::No, &b, Trans::No, T::ZERO, &mut tight);
                assert!(!tight.all_finite(), "the poison must reach the result");
                for i in 0..m + MR {
                    for j in 0..n + NR {
                        let (got, what) =
                            (c[(i, j)].to_f64(), format!("{} n={n} ({i},{j})", T::PREFIX));
                        if i < m && j < n {
                            let want = tight[(i, j)].to_f64();
                            assert!(
                                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                                "{what}"
                            );
                        } else {
                            assert_eq!(
                                got.to_bits(),
                                7.0f64.to_bits(),
                                "{what}: canary overwritten"
                            );
                        }
                    }
                }
            }
        }
        check::<f64, NR_F64>();
        check::<f32, NR_F32>();
    }

    /// Materialize `[B₀ | B₁ | …]` the slow way, for the oracle.
    fn hstack<T: Scalar>(parts: &[&Matrix<T>]) -> Matrix<T> {
        let mut acc = parts[0].clone();
        for p in &parts[1..] {
            acc = acc.hcat(p);
        }
        acc
    }

    /// `(m, k, part width, parts, op(A))` for the multi-RHS bitwise
    /// properties: thin (n=1) and wide parts, both transposition flags,
    /// part widths that straddle `NR` panel boundaries, and stacked widths
    /// `bn·q` ∈ {8, 15, 16, 17, 31, 33} that put a part boundary and the
    /// half-width boundary of either dtype's tile inside a panel.
    const MULTI_RHS_CASES: [(usize, usize, usize, usize, Trans); 11] = [
        (64, 48, 1, 8, Trans::No),
        (48, 64, 1, 3, Trans::Yes),
        (33, 29, 5, 4, Trans::No),
        (17, 40, 11, 3, Trans::Yes),
        (130, 300, 3, 7, Trans::No),
        (13, 21, 5, 3, Trans::No),
        (64, 48, 1, 16, Trans::Yes),
        (20, 33, 1, 17, Trans::No),
        (37, 50, 2, 8, Trans::No),
        (7, 9, 1, 31, Trans::No),
        (19, 1030, 11, 3, Trans::Yes),
    ];

    /// Operands of one [`MULTI_RHS_CASES`] entry.
    fn multi_rhs_operands<T: Scalar>(
        g: &mut OperandGen,
        (m, k, bn, q, ta): (usize, usize, usize, usize, Trans),
    ) -> (Matrix<T>, Vec<Matrix<T>>) {
        let (ar, ac) = ta.dims(m, k);
        (g.matrix(ar, ac), (0..q).map(|_| g.matrix(k, bn)).collect())
    }

    #[test]
    fn multi_rhs_is_bitwise_identical_to_hstacked_gemm() {
        // The multi-RHS product must be exactly one GEMM on the
        // materialized concatenation.
        fn check<T: Scalar>() {
            let mut g = OperandGen::new(91);
            let alpha = T::from_f64(1.25);
            for case in MULTI_RHS_CASES {
                let (m, _, bn, q, ta) = case;
                let (a, parts) = multi_rhs_operands::<T>(&mut g, case);
                let refs: Vec<&Matrix<T>> = parts.iter().collect();
                let stacked = matmul_multi_rhs(alpha, &a, ta, &refs);
                let mut want = Matrix::<T>::zeros(m, bn * q);
                gemm(alpha, &a, ta, &hstack(&refs), Trans::No, T::ZERO, &mut want);
                assert_eq!(
                    stacked.as_slice(),
                    want.as_slice(),
                    "{} multi-RHS drifted from the hstacked GEMM {case:?}",
                    T::PREFIX
                );
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn multi_rhs_empty_and_single_part_edges() {
        let mut g = OperandGen::new(94);
        let a = g.matrix::<f64>(6, 5);
        let empty: [&Matrix<f64>; 0] = [];
        assert_eq!(matmul_multi_rhs(1.0, &a, Trans::No, &empty).shape(), (6, 0));
        let b = g.matrix::<f64>(5, 3);
        let one = matmul_multi_rhs(1.0, &a, Trans::No, &[&b]);
        assert_eq!(one, matmul(&a, Trans::No, &b, Trans::No));
    }

    #[test]
    #[should_panic(expected = "ragged RHS shapes")]
    fn multi_rhs_ragged_parts_panic() {
        let a = Matrix::<f64>::zeros(4, 4);
        let b1 = Matrix::<f64>::zeros(4, 2);
        let b2 = Matrix::<f64>::zeros(4, 3);
        let _ = matmul_multi_rhs(1.0, &a, Trans::No, &[&b1, &b2]);
    }
}
