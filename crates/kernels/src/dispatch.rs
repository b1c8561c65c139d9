//! Shape-directed product dispatch.
//!
//! Frameworks lower a single `matmul` op onto different BLAS kernels
//! depending on operand shapes: `1×k · k×1` → `DOT`, `m×k · k×1` → `GEMV`,
//! `1×k · k×n` → `GEMV` on the transposed matrix, anything else → `GEMM`.
//! Both the graph executor and `multi_dot` route their products through
//! [`matmul_dispatch`] so the whole suite shares one lowering (and one
//! instrumentation story).

use laab_dense::{Matrix, Scalar};

use crate::{dot, gemm, gemv, Trans};

/// Compute `alpha · op(a) · op(b)`, selecting the cheapest kernel for the
/// logical shapes.
///
/// # Panics
/// On inner-dimension mismatch.
pub fn matmul_dispatch<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    ta: Trans,
    b: &Matrix<T>,
    tb: Trans,
) -> Matrix<T> {
    let (m, ka) = ta.dims(a.rows(), a.cols());
    let (kb, n) = tb.dims(b.rows(), b.cols());
    assert_eq!(ka, kb, "matmul_dispatch: inner dimensions differ ({ka} vs {kb})");

    if m == 1 && n == 1 {
        // Inner product — vector storage is contiguous in either
        // orientation, so the transposition flags are moot.
        let d = dot(a.as_slice(), b.as_slice());
        return Matrix::filled(1, 1, alpha * d);
    }
    // beta = 1 on the fresh zeros below: same bits as beta = 0, minus a
    // zeroing pass over the output.
    if n == 1 {
        // op(A)·x → GEMV, the driver's arithmetic: bitwise the column a
        // stacked multi-RHS product computes for the same x.
        let mut y = Matrix::zeros(m, 1);
        if tb == Trans::No && b.cols() == 1 {
            gemv(alpha, a, ta, b, T::ONE, &mut y);
        } else {
            let x = Matrix::col_vector(b.as_slice());
            gemv(alpha, a, ta, &x, T::ONE, &mut y);
        }
        return y;
    }
    if m == 1 {
        // xᵀ·op(B) → (op(B)ᵀ·x)ᵀ via GEMV; the final transpose is an O(n)
        // relabeling of a vector.
        let x = Matrix::col_vector(a.as_slice());
        let mut y = Matrix::zeros(n, 1);
        gemv(alpha, b, tb.flip(), &x, T::ONE, &mut y);
        return Matrix::row_vector(y.as_slice());
    }
    let mut c = Matrix::zeros(m, n);
    gemm(alpha, a, ta, b, tb, T::ONE, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{self, Kernel};
    use crate::reference;
    use laab_dense::gen::OperandGen;

    #[test]
    fn scalar_product_uses_dot() {
        let mut g = OperandGen::new(41);
        let x = g.col_vector::<f64>(20);
        let y = g.col_vector::<f64>(20);
        counters::reset();
        let r = matmul_dispatch(1.0, &x, Trans::Yes, &y, Trans::No);
        assert_eq!(counters::snapshot().calls(Kernel::Dot), 1);
        let want =
            reference::gemm_naive(1.0, &x, Trans::Yes, &y, Trans::No, 0.0, &Matrix::zeros(1, 1));
        assert!((r[(0, 0)] - want[(0, 0)]).abs() < 1e-12);
    }

    #[test]
    fn matrix_vector_uses_gemv() {
        let mut g = OperandGen::new(42);
        let a = g.matrix::<f64>(12, 9);
        let x = g.col_vector::<f64>(9);
        counters::reset();
        let r = matmul_dispatch(2.0, &a, Trans::No, &x, Trans::No);
        assert_eq!(counters::snapshot().calls(Kernel::Gemv), 1);
        let want = reference::gemv_naive(&a, Trans::No, &x).scale(2.0);
        assert!(r.approx_eq(&want, 1e-12));
    }

    #[test]
    fn row_vector_matrix_uses_gemv_transposed() {
        let mut g = OperandGen::new(43);
        let y = g.col_vector::<f64>(12);
        let a = g.matrix::<f64>(12, 9);
        counters::reset();
        let r = matmul_dispatch(1.0, &y, Trans::Yes, &a, Trans::No);
        assert_eq!(counters::snapshot().calls(Kernel::Gemv), 1);
        assert_eq!(r.shape(), (1, 9));
        let want =
            reference::gemm_naive(1.0, &y, Trans::Yes, &a, Trans::No, 0.0, &Matrix::zeros(1, 9));
        assert!(r.approx_eq(&want, 1e-12));
    }

    #[test]
    fn general_product_uses_gemm() {
        let mut g = OperandGen::new(44);
        let a = g.matrix::<f64>(7, 5);
        let b = g.matrix::<f64>(7, 6);
        counters::reset();
        let r = matmul_dispatch(1.0, &a, Trans::Yes, &b, Trans::No);
        assert_eq!(counters::snapshot().calls(Kernel::Gemm), 1);
        let want =
            reference::gemm_naive(1.0, &a, Trans::Yes, &b, Trans::No, 0.0, &Matrix::zeros(5, 6));
        assert!(r.approx_eq(&want, 1e-12));
    }

    #[test]
    fn transposed_vector_operand_is_rebuilt() {
        // op(B) is a k×1 logical column given as a 1×k stored row.
        let mut g = OperandGen::new(45);
        let a = g.matrix::<f64>(6, 8);
        let xr = g.row_vector::<f64>(8);
        let r = matmul_dispatch(1.0, &a, Trans::No, &xr, Trans::Yes);
        let want =
            reference::gemm_naive(1.0, &a, Trans::No, &xr, Trans::Yes, 0.0, &Matrix::zeros(6, 1));
        assert!(r.approx_eq(&want, 1e-12));
    }
}
