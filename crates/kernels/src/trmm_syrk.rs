//! Structure-exploiting Level-3 kernels: TRMM and SYRK.
//!
//! These are the specialized kernels of the paper's Experiment 3: a
//! triangular factor halves the GEMM FLOP count (`n³` instead of `2n³`), and
//! `A·Aᵀ` computed as a symmetric rank-k update also costs `n³`. The paper
//! shows TF/PyT never dispatch to them; the hand-coded (SciPy-style)
//! baselines call them directly.

use laab_dense::{Matrix, Scalar};

use crate::counters::{self, Kernel};
use crate::gemm::{gemm_blocked, gemm_lower, Sweep};
use crate::simd::fused_axpy;
use crate::view::{MutView, View};
use crate::{flops, Trans};

/// Which triangle of the triangular operand is populated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpLo {
    /// Lower triangular (zeros strictly above the diagonal).
    Lower,
    /// Upper triangular (zeros strictly below the diagonal).
    Upper,
}

/// Row-block size for the blocked TRMM sweep. Off-diagonal work is
/// delegated to the packed GEMM; only `NB`-sized diagonal blocks run the
/// short triangular loops.
const NB: usize = 64;

/// Triangular matrix product `C := α·tri(L)·B`, reading only the `uplo`
/// triangle of `L` (entries in the other triangle are ignored, as in BLAS
/// `TRMM`). Performs `n²·m` FLOPs — half of the equivalent GEMM.
///
/// # Panics
/// If `L` is not square or inner dimensions mismatch.
pub fn trmm<T: Scalar>(alpha: T, l: &Matrix<T>, uplo: UpLo, b: &Matrix<T>) -> Matrix<T> {
    assert!(l.is_square(), "trmm: triangular factor must be square");
    let n = l.rows();
    assert_eq!(b.rows(), n, "trmm: inner dimensions differ");
    let m = b.cols();
    counters::record(Kernel::Trmm, flops::trmm(n, m));

    let mut c = Matrix::zeros(n, m);
    let lv = View::of(l, Trans::No);
    let bv = View::of(b, Trans::No);
    let mut cv = MutView::of(&mut c);

    for i0 in (0..n).step_by(NB) {
        let i1 = (i0 + NB).min(n);
        // Triangular diagonal block: accumulate row-by-row with the fused
        // AXPY (the same FMA-specialized update the GEMM microkernel uses).
        for i in i0..i1 {
            let (k_lo, k_hi) = match uplo {
                UpLo::Lower => (i0, i + 1),
                UpLo::Upper => (i, i1),
            };
            for k in k_lo..k_hi {
                let lik = alpha * l[(i, k)];
                let brow = &bv.data[k * bv.rs..k * bv.rs + m];
                let crow = &mut cv.data[i * cv.rs..i * cv.rs + m];
                fused_axpy(lik, brow, crow);
            }
        }
        // Rectangular off-diagonal part via packed GEMM:
        //   Lower: C[I,:] += L[I, 0..i0] · B[0..i0, :]
        //   Upper: C[I,:] += L[I, i1..n] · B[i1..n, :]
        let (c0, c1) = match uplo {
            UpLo::Lower => (0, i0),
            UpLo::Upper => (i1, n),
        };
        if c1 > c0 {
            let a_sub = lv.sub(i0, i1, c0, c1);
            let b_sub = bv.sub(c0, c1, 0, m);
            gemm_blocked(alpha, a_sub, b_sub, T::ONE, cv.sub(i0, i1, 0, m), Sweep::Full);
        }
    }
    c
}

/// Symmetric rank-k update `C := α·op(A)·op(A)ᵀ` (`trans = No`: `α·A·Aᵀ`,
/// `Yes`: `α·Aᵀ·A`), returning the full symmetric `n×n` result.
///
/// The blocked GEMM driver sweeps only the micro-tiles touching the lower
/// triangle (`n²·k` FLOPs by the paper's count — half of the equivalent
/// GEMM) and the strict upper triangle is mirrored afterwards, an O(n²)
/// copy. The computed tiles see the packed panels, `k` order and
/// write-back of the full product, and `fma(a, b, c) == fma(b, a, c)`, so
/// for finite inputs the result is **bitwise identical** to
/// `gemm(α, A, trans, A, trans.flip(), 0)` (NaNs land in the same
/// positions; their payloads may differ).
pub fn syrk<T: Scalar>(alpha: T, a: &Matrix<T>, trans: Trans) -> Matrix<T> {
    let (n, k) = trans.dims(a.rows(), a.cols());
    counters::record(Kernel::Syrk, flops::syrk(n, k));
    let mut c = Matrix::zeros(n, n);
    touch_pages(c.as_mut_slice());
    gemm_lower(alpha, View::of(a, trans), View::of(a, trans.flip()), &mut c);
    symmetrize_lower(&mut c);
    c
}

/// Store a zero into every page of `data`, a zeroed buffer about to be
/// accumulated into. A large zeroed allocation is fresh pages the kernel
/// has not mapped yet; the driver's first access to each is the read of
/// its `β = 1` write-back, which maps the shared zero page and then takes
/// a second fault to copy it on the write. Writing first takes one fault
/// per page instead (1.6–2.3 µs against 3.8–4.6 µs per page, measured on
/// a 2-core x86-64 VM). On memory already mapped it is one store per
/// page. `black_box` hides the buffer's known zeros, so the stores are
/// not elided as redundant.
fn touch_pages<T: Scalar>(data: &mut [T]) {
    const PAGE: usize = 4096;
    let data = std::hint::black_box(data);
    for page in data.chunks_mut(PAGE / std::mem::size_of::<T>()) {
        page[0] = T::ZERO;
        page[page.len() - 1] = T::ZERO;
    }
}

/// Copy the strictly-lower triangle into the strictly-upper triangle,
/// producing a full symmetric matrix (the materialization step after a
/// triangle-only SYRK). Walks `MIRROR×MIRROR` blocks so the column-wise
/// reads of the source stay L1-resident.
pub fn symmetrize_lower<T: Scalar>(c: &mut Matrix<T>) {
    assert!(c.is_square(), "symmetrize_lower requires a square matrix");
    const MIRROR: usize = 32;
    let n = c.rows();
    let data = c.as_mut_slice();
    for i0 in (0..n).step_by(MIRROR) {
        let i1 = (i0 + MIRROR).min(n);
        for j0 in (i0..n).step_by(MIRROR) {
            let j1 = (j0 + MIRROR).min(n);
            for i in i0..i1 {
                for j in j0.max(i + 1)..j1 {
                    data[i * n + j] = data[j * n + i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use laab_dense::gen::OperandGen;

    #[test]
    fn trmm_lower_matches_reference() {
        let mut g = OperandGen::new(21);
        for &(n, m) in &[(5, 3), (64, 64), (65, 17), (130, 40)] {
            let l = g.lower_triangular::<f64>(n);
            let b = g.matrix::<f64>(n, m);
            let c = trmm(1.0, &l, UpLo::Lower, &b);
            let want = reference::trmm_lower_naive(&l, &b);
            assert!(c.approx_eq(&want, 1e-12), "n={n} m={m} dist={}", c.rel_dist(&want));
        }
    }

    #[test]
    fn trmm_upper_matches_gemm() {
        let mut g = OperandGen::new(22);
        let u = g.upper_triangular::<f64>(70);
        let b = g.matrix::<f64>(70, 30);
        let c = trmm(1.0, &u, UpLo::Upper, &b);
        let want =
            reference::gemm_naive(1.0, &u, Trans::No, &b, Trans::No, 0.0, &Matrix::zeros(70, 30));
        assert!(c.approx_eq(&want, 1e-12));
    }

    #[test]
    fn trmm_ignores_opposite_triangle() {
        // Fill the "dead" triangle with garbage; TRMM must not read it.
        let mut g = OperandGen::new(23);
        let mut l = g.lower_triangular::<f64>(20);
        let clean = l.clone();
        for i in 0..20 {
            for j in (i + 1)..20 {
                l[(i, j)] = f64::NAN;
            }
        }
        let b = g.matrix::<f64>(20, 8);
        let c = trmm(1.0, &l, UpLo::Lower, &b);
        assert!(c.all_finite(), "TRMM read the dead triangle");
        assert!(c.approx_eq(&reference::trmm_lower_naive(&clean, &b), 1e-12));
    }

    #[test]
    fn trmm_alpha_scaling() {
        let mut g = OperandGen::new(24);
        let l = g.lower_triangular::<f64>(16);
        let b = g.matrix::<f64>(16, 16);
        let c1 = trmm(1.0, &l, UpLo::Lower, &b);
        let c2 = trmm(-2.0, &l, UpLo::Lower, &b);
        assert!(c2.approx_eq(&c1.scale(-2.0), 1e-12));
    }

    #[test]
    fn syrk_matches_reference() {
        // Bitwise equality with the GEMM is pinned in tests/syrk.rs; this
        // anchors both spellings to the naive definition.
        let mut g = OperandGen::new(25);
        for &(n, k) in &[(6, 4), (64, 64), (65, 130), (100, 33)] {
            let a = g.matrix::<f64>(n, k);
            let want = reference::syrk_naive(&a);
            for c in [syrk(1.0, &a, Trans::No), syrk(1.0, &a.transpose(), Trans::Yes)] {
                assert!(c.approx_eq(&want, 1e-12), "n={n} k={k} dist={}", c.rel_dist(&want));
            }
        }
    }

    #[test]
    fn flop_accounting_is_half_of_gemm() {
        counters::reset();
        let mut g = OperandGen::new(27);
        let l = g.lower_triangular::<f32>(50);
        let b = g.matrix::<f32>(50, 50);
        let _ = trmm(1.0, &l, UpLo::Lower, &b);
        let a = g.matrix::<f32>(50, 50);
        let _ = syrk(1.0, &a, Trans::No);
        let s = counters::snapshot();
        let gemm_cost = flops::gemm(50, 50, 50);
        assert_eq!(s.flops(Kernel::Trmm), gemm_cost / 2);
        assert_eq!(s.flops(Kernel::Syrk), gemm_cost / 2);
    }

    #[test]
    fn symmetrize_lower_mirrors() {
        let mut m = Matrix::<f64>::from_rows(&[&[1.0, 9.0], &[2.0, 3.0]]);
        symmetrize_lower(&mut m);
        assert_eq!(m[(0, 1)], 2.0);
    }
}
