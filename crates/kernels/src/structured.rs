//! Structured products (tridiagonal, diagonal) and the elementwise add.
//!
//! `tridiag_matmul` is the analogue of `tf.linalg.tridiagonal_matmul`
//! (Experiment 3): a fused O(n²) product that beats both the dense GEMM
//! (O(n³)) and the SCAL-sequence hand-coding (which pays one kernel
//! dispatch per row). `diag_matmul` covers the diagonal special case.

use laab_dense::{Diagonal, Matrix, Scalar, Tridiagonal};

use crate::counters::{self, Kernel};
use crate::flops;

/// Tridiagonal × dense product `C := T·B` from the compact form.
///
/// Each output row is a fused three-term scaling
/// `C[i,:] = sub[i-1]·B[i-1,:] + main[i]·B[i,:] + sup[i]·B[i+1,:]`.
pub fn tridiag_matmul<T: Scalar>(t: &Tridiagonal<T>, b: &Matrix<T>) -> Matrix<T> {
    let n = t.n();
    assert_eq!(b.rows(), n, "tridiag_matmul: inner dimensions differ");
    let m = b.cols();
    counters::record(Kernel::TridiagMatmul, flops::tridiag_matmul(n, m));

    let mut c = Matrix::zeros(n, m);
    let (cs, bs) = (c.as_mut_slice(), b.as_slice());
    for i in 0..n {
        let crow = &mut cs[i * m..(i + 1) * m];
        let main = t.main[i];
        let brow = &bs[i * m..(i + 1) * m];
        for (cv, &bv) in crow.iter_mut().zip(brow) {
            *cv = main * bv;
        }
        if i > 0 {
            let sub = t.sub[i - 1];
            let prev = &bs[(i - 1) * m..i * m];
            for (cv, &bv) in crow.iter_mut().zip(prev) {
                *cv = sub.mul_add(bv, *cv);
            }
        }
        if i + 1 < n {
            let sup = t.sup[i];
            let next = &bs[(i + 1) * m..(i + 2) * m];
            for (cv, &bv) in crow.iter_mut().zip(next) {
                *cv = sup.mul_add(bv, *cv);
            }
        }
    }
    c
}

/// Diagonal × dense product `C := D·B` (row scaling).
pub fn diag_matmul<T: Scalar>(d: &Diagonal<T>, b: &Matrix<T>) -> Matrix<T> {
    let n = d.n();
    assert_eq!(b.rows(), n, "diag_matmul: inner dimensions differ");
    let m = b.cols();
    counters::record(Kernel::DiagMatmul, flops::diag_matmul(n, m));

    let mut c = Matrix::zeros(n, m);
    let (cs, bs) = (c.as_mut_slice(), b.as_slice());
    for i in 0..n {
        let di = d.d[i];
        for (cv, &bv) in cs[i * m..(i + 1) * m].iter_mut().zip(&bs[i * m..(i + 1) * m]) {
            *cv = di * bv;
        }
    }
    c
}

/// Elementwise `C := α·A + β·B`.
///
/// Covers matrix addition/subtraction and scalar scaling in one kernel, the
/// way frameworks lower `A + B`, `A - B` and `2·A` nodes.
pub fn geadd<T: Scalar>(alpha: T, a: &Matrix<T>, beta: T, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.shape(), b.shape(), "geadd: shape mismatch");
    let (m, n) = a.shape();
    counters::record(Kernel::GeAdd, flops::geadd(m, n));
    let mut c = Matrix::zeros(m, n);
    let (cs, as_, bs) = (c.as_mut_slice(), a.as_slice(), b.as_slice());
    for i in 0..cs.len() {
        cs[i] = alpha * as_[i] + beta * bs[i];
    }
    c
}

/// In-place elementwise update `A := α·A + β·B` — the buffer-reuse form of
/// [`geadd`] the graph executor applies when the `A` intermediate is
/// uniquely owned (same kernel accounting, no output allocation).
pub fn geadd_assign<T: Scalar>(alpha: T, a: &mut Matrix<T>, beta: T, b: &Matrix<T>) {
    assert_eq!(a.shape(), b.shape(), "geadd_assign: shape mismatch");
    let (m, n) = a.shape();
    counters::record(Kernel::GeAdd, flops::geadd(m, n));
    for (av, &bv) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *av = alpha * *av + beta * bv;
    }
}

/// In-place scaling `A := α·A + 0·A`, lowered and accounted exactly like
/// the allocating `Scale`-node form `geadd(α, A, 0, A)`. The `+ 0·A` term
/// is kept so the in-place and allocating paths are **bitwise identical**
/// even on non-finite inputs (`0·inf = NaN`) and signed zeros.
pub fn gescale_assign<T: Scalar>(alpha: T, a: &mut Matrix<T>) {
    let (m, n) = a.shape();
    counters::record(Kernel::GeAdd, flops::geadd(m, n));
    for av in a.as_mut_slice().iter_mut() {
        *av = alpha * *av + T::ZERO * *av;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use laab_dense::gen::OperandGen;

    #[test]
    fn tridiag_matches_reference() {
        let mut g = OperandGen::new(31);
        for &(n, m) in &[(1, 3), (2, 5), (17, 9), (100, 64)] {
            let t = g.tridiagonal::<f64>(n);
            let b = g.matrix::<f64>(n, m);
            let c = tridiag_matmul(&t, &b);
            let want = reference::tridiag_matmul_naive(&t, &b);
            assert!(c.approx_eq(&want, 1e-13), "n={n} m={m}");
        }
    }

    #[test]
    fn tridiag_equals_dense_gemm() {
        let mut g = OperandGen::new(33);
        let t = g.tridiagonal::<f64>(30);
        let b = g.matrix::<f64>(30, 30);
        let via_structured = tridiag_matmul(&t, &b);
        let via_dense = crate::matmul(&t.to_dense(), crate::Trans::No, &b, crate::Trans::No);
        assert!(via_structured.approx_eq(&via_dense, 1e-12));
    }

    #[test]
    fn diag_matches_reference() {
        let mut g = OperandGen::new(34);
        let d = g.diagonal::<f64>(50);
        let b = g.matrix::<f64>(50, 20);
        let c = diag_matmul(&d, &b);
        assert!(c.approx_eq(&reference::diag_matmul_naive(&d, &b), 1e-15));
    }

    #[test]
    fn geadd_combinations() {
        let a = Matrix::<f64>::filled(2, 3, 4.0);
        let b = Matrix::<f64>::filled(2, 3, 10.0);
        assert_eq!(geadd(1.0, &a, 1.0, &b)[(0, 0)], 14.0); // add
        assert_eq!(geadd(1.0, &a, -1.0, &b)[(1, 2)], -6.0); // sub
        assert_eq!(geadd(2.0, &a, 0.0, &b)[(0, 1)], 8.0); // scale
    }

    #[test]
    fn geadd_assign_matches_geadd() {
        let mut g = OperandGen::new(36);
        let a = g.matrix::<f64>(7, 5);
        let b = g.matrix::<f64>(7, 5);
        let want = geadd(2.0, &a, -3.0, &b);
        let mut acc = a.clone();
        geadd_assign(2.0, &mut acc, -3.0, &b);
        assert_eq!(acc, want, "in-place form must be bitwise identical");

        let scaled = geadd(-0.5, &a, 0.0, &a);
        let mut acc2 = a.clone();
        gescale_assign(-0.5, &mut acc2);
        assert_eq!(acc2, scaled);

        // Non-finite and signed-zero inputs must agree bitwise too
        // (0·inf = NaN must appear on both paths or neither).
        let tricky0 = Matrix::<f64>::from_rows(&[&[f64::INFINITY, 0.0, -0.0, -3.0]]);
        let want = geadd(0.5, &tricky0, 0.0, &tricky0);
        let mut tricky = tricky0.clone();
        gescale_assign(0.5, &mut tricky);
        for (got, want) in tricky.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn geadd_assign_records_same_counters() {
        counters::reset();
        let a0 = Matrix::<f32>::filled(4, 6, 1.0);
        let b = Matrix::<f32>::filled(4, 6, 2.0);
        let mut a = a0.clone();
        geadd_assign(1.0, &mut a, 1.0, &b);
        gescale_assign(2.0, &mut a);
        let s = counters::snapshot();
        assert_eq!(s.calls(Kernel::GeAdd), 2);
        assert_eq!(s.flops(Kernel::GeAdd), 2 * flops::geadd(4, 6));
    }

    #[test]
    fn flops_are_low_order() {
        counters::reset();
        let mut g = OperandGen::new(35);
        let t = g.tridiagonal::<f32>(64);
        let d = g.diagonal::<f32>(64);
        let b = g.matrix::<f32>(64, 64);
        let _ = tridiag_matmul(&t, &b);
        let _ = diag_matmul(&d, &b);
        let s = counters::snapshot();
        // 6n² and n² — the paper's Experiment 3 counts.
        assert_eq!(s.flops(Kernel::TridiagMatmul), 6 * 64 * 64);
        assert_eq!(s.flops(Kernel::DiagMatmul), 64 * 64);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn tridiag_shape_mismatch_panics() {
        let t = Tridiagonal::new(vec![1.0f32], vec![1.0, 1.0], vec![1.0]);
        let b = Matrix::<f32>::zeros(3, 3);
        let _ = tridiag_matmul(&t, &b);
    }
}
