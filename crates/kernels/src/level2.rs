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
//! followed by one `α·acc + y` write-back. So a solo matrix-vector product
//! and the same vector inside a stacked multi-RHS product
//! ([`gemm_multi_rhs_into`](crate::gemm_multi_rhs_into)) return the same
//! bits, and a batched request answers what a solo one does.
//!
//! `op(A) = A` walks the rows of `A`, which are contiguous in `k`, so the
//! chain of one row is a sequence of dependent FMAs. Eight rows are kept
//! in flight instead, their chains interleaved step by step: each `x[p]`
//! is loaded once for all of them and the FMA latency is hidden by the
//! independent chains beside it, as the driver's register tile hides it.
//! `op(A) = Aᵀ` walks the rows of `A` as contiguous runs of `y`, one
//! vectorized fused update per `k` step. Neither packs or copies `A`.

use std::any::Any;

use laab_dense::{Matrix, Scalar};

use crate::counters::{self, Kernel};
use crate::gemm::KC;
use crate::simd::{fma_f32, fma_f64};
use crate::view::View;
use crate::{flops, Trans};

/// Rows of `A` whose chains advance together in the `op(A) = A` sweep:
/// enough independent FMAs per `k` step to cover the FMA latency on both
/// FMA ports.
const ROWS: usize = 8;
/// `k` steps the `op(A) = A` sweep reads from each row at a time: a
/// `ROWS × STEPS` block the vectorizer can transpose in registers, so
/// the interleaved chains become FMAs across rows instead of gathers.
const STEPS: usize = 8;

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
    assert_eq!(x.cols(), 1, "gemv: x must be a column vector");
    assert_eq!(y.cols(), 1, "gemv: y must be a column vector");
    let av = View::of(a, ta);
    let (m, k) = (av.rows, av.cols);
    assert_eq!(x.rows(), k, "gemv: x length {} != {k}", x.rows());
    assert_eq!(y.rows(), m, "gemv: y length {} != {m}", y.rows());
    counters::record(Kernel::Gemv, flops::gemv(m, k));

    // β first, as the driver's `scale_c` does (β = 0 overwrites, so NaNs
    // in y never propagate).
    let ys = y.as_mut_slice();
    if beta == T::ZERO {
        ys.fill(T::ZERO);
    } else if beta != T::ONE {
        for v in ys.iter_mut() {
            *v *= beta;
        }
    }
    // The fused step the driver's microkernels take for this element type,
    // picked by type equality as `gemm_blocked` picks its body.
    let f64_body: Sweep<f64> = |alpha, a, x, y| sweep(alpha, a, x, y, fma_f64);
    let f32_body: Sweep<f32> = |alpha, a, x, y| sweep(alpha, a, x, y, fma_f32);
    let generic_body: Sweep<T> = |alpha, a, x, y| sweep(alpha, a, x, y, T::mul_add);
    let body = [&f64_body as &dyn Any, &f32_body]
        .into_iter()
        .find_map(|body| body.downcast_ref::<Sweep<T>>())
        .unwrap_or(&generic_body);
    body(alpha, av, x.as_slice(), ys);
}

/// [`sweep`] with its fused step fixed.
type Sweep<T> = for<'a> fn(T, View<'a, T>, &'a [T], &'a mut [T]);

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
    #[should_panic(expected = "column vector")]
    fn gemv_rejects_row_vector() {
        let a = Matrix::<f32>::identity(3);
        let x = Matrix::<f32>::row_vector(&[1.0, 2.0, 3.0]);
        let _ = gemv_alloc(&a, Trans::No, &x);
    }
}
