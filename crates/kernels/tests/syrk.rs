//! `syrk` is the blocked GEMM driver with the upper-triangle micro-tiles
//! skipped, so its contract is stronger than "matches a reference": it is
//! **bitwise** the full GEMM `α·op(A)·op(A)ᵀ`, on every shape, flag and
//! precision — including the hostile inputs, where only NaN payloads may
//! differ.

use laab_dense::gen::OperandGen;
use laab_dense::{Matrix, Scalar};
use laab_kernels::counters::{self, Kernel};
use laab_kernels::{flops, gemm, gemv_multi, syrk, Trans};

mod common;
use common::bits;

/// Result sides chosen to straddle the register tile (`MR` = 6, `NR` = 8
/// or 16 depending on the target) and the packed-A block (`MC` = 120).
const SIDES: [usize; 12] = [1, 2, 5, 6, 7, 15, 16, 17, 33, 119, 121, 250];
/// Depths, the last one past `KC` = 1024 (two `pc` passes over `C`).
const DEPTHS: [usize; 4] = [1, 3, 64, 1030];

fn full_gemm<T: Scalar>(alpha: T, a: &Matrix<T>, trans: Trans) -> Matrix<T> {
    let (n, _) = trans.dims(a.rows(), a.cols());
    // NaN-filled on purpose: beta = 0 must overwrite, so nothing of C's
    // previous content can leak into the oracle.
    let mut c = Matrix::filled(n, n, T::from_f64(f64::NAN));
    gemm(alpha, a, trans, a, trans.flip(), T::ZERO, &mut c);
    c
}

fn assert_syrk_is_gemm<T: Scalar>(alpha: T, a: &Matrix<T>, trans: Trans, what: &str) {
    let got = syrk(alpha, a, trans);
    let want = full_gemm(alpha, a, trans);
    assert_eq!(got.shape(), want.shape(), "{what}");
    assert_eq!(bits(&got), bits(&want), "{what}: syrk drifted from the full GEMM");
    assert_eq!(bits(&got), bits(&got.transpose()), "{what}: result not exactly symmetric");
}

fn operand<T: Scalar>(g: &mut OperandGen, n: usize, k: usize, trans: Trans) -> Matrix<T> {
    match trans {
        Trans::No => g.matrix(n, k),
        Trans::Yes => g.matrix(k, n),
    }
}

fn sweep_shapes<T: Scalar>() {
    let mut g = OperandGen::new(0x5153);
    for &n in &SIDES {
        for &k in &DEPTHS {
            if n > 33 && k > 64 && n != 121 {
                continue; // one big-by-deep case is enough
            }
            for trans in [Trans::No, Trans::Yes] {
                let a = operand::<T>(&mut g, n, k, trans);
                for alpha in [1.0, -0.5] {
                    let what = format!("{} n={n} k={k} {trans:?} α={alpha}", T::PREFIX);
                    assert_syrk_is_gemm(T::from_f64(alpha), &a, trans, &what);
                }
            }
        }
    }
}

#[test]
fn syrk_is_bitwise_the_full_gemm_f64() {
    sweep_shapes::<f64>();
}

#[test]
fn syrk_is_bitwise_the_full_gemm_f32() {
    sweep_shapes::<f32>();
}

#[test]
fn syrk_records_one_half_flop_call_and_no_gemm() {
    let mut g = OperandGen::new(7);
    for (trans, n, k) in [(Trans::No, 37, 19), (Trans::Yes, 19, 37)] {
        let a = g.matrix::<f64>(37, 19);
        let (_, c) = counters::measure(|| syrk(1.0, &a, trans));
        assert_eq!(c.calls(Kernel::Syrk), 1);
        assert_eq!(c.flops(Kernel::Syrk), (n * n * k) as u64);
        assert_eq!(c.flops(Kernel::Syrk), flops::syrk(n, k));
        assert_eq!(c.calls(Kernel::Gemm), 0);
        assert_eq!(c.total_calls(), 1);
    }
}

#[test]
fn a_symmetric_product_times_vectors_is_orientation_free() {
    // The served lowering reads a product of a value with its own
    // transpose through `gemv_multi`'s `Aᵀ` sweep (the result's rows in
    // the lanes) instead of its `A` sweep. That is sound only if `G` is
    // bitwise symmetric, built by SYRK or by the GEMM, and both sweeps
    // then run the same chain for every element, at every group size and
    // both β.
    fn check<T: Scalar>(alpha: f64) {
        let mut g = OperandGen::new(0x5E7);
        for n in [16usize, 47, 192] {
            let a = g.matrix::<T>(n + 3, n);
            let grams = [
                (syrk(T::ONE, &a, Trans::Yes), "syrk"),
                (full_gemm(T::ONE, &a, Trans::Yes), "gemm"),
            ];
            for (gram, how) in grams {
                let what = format!("{} n={n} {how}", T::PREFIX);
                assert_eq!(bits(&gram), bits(&gram.transpose()), "{what}: not symmetric");
                for q in 1..=8 {
                    let xs: Vec<Matrix<T>> = (0..q).map(|_| g.matrix(n, 1)).collect();
                    let refs: Vec<&Matrix<T>> = xs.iter().collect();
                    let ys: Vec<Matrix<T>> = (0..q).map(|_| g.matrix(n, 1)).collect();
                    for beta in [T::ZERO, T::ONE] {
                        let sweep = |ta| {
                            let mut out = ys.clone();
                            gemv_multi(T::from_f64(alpha), &gram, ta, &refs, beta, &mut out);
                            out.iter().map(bits).collect::<Vec<_>>()
                        };
                        let at = format!("{what} q={q} β={}", beta.to_f64());
                        assert_eq!(sweep(Trans::Yes), sweep(Trans::No), "{at}");
                    }
                }
            }
        }
    }
    check::<f64>(-0.75);
    check::<f32>(-0.75);
}

#[test]
fn hostile_entries_land_where_the_gemm_puts_them() {
    // One poisoned entry per case, placed so its row/column crosses both
    // computed and mirrored tiles. Inf·0 and Inf−Inf make NaNs of their
    // own; NaN-ness and the sign of every infinity must agree with the
    // GEMM element for element.
    fn check<T: Scalar>() {
        let mut g = OperandGen::new(11);
        let poisons = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5e-324, 1e-310];
        for &(n, k) in &[(7usize, 5usize), (40, 33), (130, 9)] {
            for trans in [Trans::No, Trans::Yes] {
                for &p in &poisons {
                    let mut a = operand::<T>(&mut g, n, k, trans);
                    let (r, c) = (a.rows() / 2, a.cols() - 1);
                    a[(r, c)] = T::from_f64(p);
                    a[(0, 0)] = T::ZERO; // an exact zero for Inf·0
                    let what = format!("{} n={n} k={k} {trans:?} poison={p:e}", T::PREFIX);
                    assert_syrk_is_gemm(T::ONE, &a, trans, &what);
                    if p.is_nan() {
                        assert!(bits(&syrk(T::ONE, &a, trans)).contains(&u64::MAX), "{what}");
                    }
                }
            }
        }
    }
    check::<f64>();
    check::<f32>();
}

#[test]
fn degenerate_shapes() {
    // 1×1: a dot product's worth of work, still through the driver.
    let a = Matrix::<f64>::from_rows(&[&[3.0, -4.0]]);
    assert_eq!(syrk(2.0, &a, Trans::No), Matrix::filled(1, 1, 50.0));
    assert_syrk_is_gemm(1.0, &a, Trans::Yes, "1x2 transposed");
    // n×0: an empty reduction is an all-zero n×n result, not a panic.
    for trans in [Trans::No, Trans::Yes] {
        let a = match trans {
            Trans::No => Matrix::<f32>::zeros(5, 0),
            Trans::Yes => Matrix::<f32>::zeros(0, 5),
        };
        let c = syrk(1.0f32, &a, trans);
        assert_eq!(c, Matrix::zeros(5, 5));
    }
    assert_eq!(syrk(1.0, &Matrix::<f64>::zeros(0, 4), Trans::No).shape(), (0, 0));
    // 2×k: both rows inside one micro-tile.
    let mut g = OperandGen::new(13);
    for k in [1usize, 9, 70] {
        let a = g.matrix::<f64>(2, k);
        assert_syrk_is_gemm(-0.5, &a, Trans::No, &format!("2x{k}"));
    }
}
