//! The blocked driver promises a per-element arithmetic, not just a value:
//! every `C[i,j]` is, for each `KC`-deep chunk of `k` in order, one fused
//! chain from zero followed by one `α·acc + c` write-back. No register
//! tile, packing width, half-width path, triangular skip or panel split
//! enters that — so a scalar loop that spells it out must agree with
//! `gemm` and `syrk` **bit for bit**, on every build (`native`,
//! `x86-64-v3`, `x86-64`), for both precisions, and on hostile inputs.
//! `gemv` and `gemv_multi` promise the same arithmetic (rows in flight,
//! vectors or rows in the lanes and `k` blocks change no element's
//! order), which is what makes a solo matrix-vector product, a batched
//! one and a column of a GEMM the same bits.

use laab_dense::gen::OperandGen;
use laab_dense::{Matrix, Scalar};
use laab_kernels::{gemm, gemv, gemv_multi, reference, syrk, Trans};

mod common;
use common::bits;

/// Depth of one `pc` pass of the driver (`gemm::KC`).
const KC: usize = 1024;

/// One step of the microkernels' accumulation: a hardware FMA where the
/// build has one, `a*b + c` otherwise (what `simd::fma_f32` / `fma_f64`
/// and the explicit `fmadd` kernels do).
trait Step: Scalar {
    fn step(a: Self, b: Self, acc: Self) -> Self;
}

macro_rules! impl_step {
    ($t:ty) => {
        impl Step for $t {
            fn step(a: $t, b: $t, acc: $t) -> $t {
                if cfg!(any(target_feature = "fma", target_arch = "aarch64")) {
                    <$t>::mul_add(a, b, acc)
                } else {
                    a * b + acc
                }
            }
        }
    };
}
impl_step!(f32);
impl_step!(f64);

fn at<T: Scalar>(m: &Matrix<T>, t: Trans, i: usize, j: usize) -> T {
    match t {
        Trans::No => m[(i, j)],
        Trans::Yes => m[(j, i)],
    }
}

/// `C₀ + α·op(A)·op(B)` in the driver's reduction order.
fn oracle<T: Step>(
    alpha: T,
    a: &Matrix<T>,
    ta: Trans,
    b: &Matrix<T>,
    tb: Trans,
    c0: &Matrix<T>,
) -> Matrix<T> {
    let (m, k) = ta.dims(a.rows(), a.cols());
    let (_, n) = tb.dims(b.rows(), b.cols());
    Matrix::from_fn(m, n, |i, j| {
        let mut c = c0[(i, j)];
        for pc in (0..k).step_by(KC) {
            let mut acc = T::ZERO;
            for p in pc..k.min(pc + KC) {
                acc = T::step(at(a, ta, i, p), at(b, tb, p, j), acc);
            }
            c = Scalar::mul_add(alpha, acc, c);
        }
        c
    })
}

fn operand<T: Scalar>(g: &mut OperandGen, t: Trans, r: usize, c: usize) -> Matrix<T> {
    let (sr, sc) = t.dims(r, c);
    g.matrix(sr, sc)
}

/// Output shapes straddling `MR` (6), every tile width and half-width
/// (4, 8, 16, 32), `MC` (120) and `NC` (2048, the last shape), rows and
/// columns taken from different ends of the list.
const SHAPES: [(usize, usize); 15] = [
    (1, 1),
    (1, 33),
    (5, 17),
    (6, 31),
    (7, 5),
    (15, 16),
    (16, 7),
    (17, 15),
    (31, 6),
    (32, 32),
    (33, 1),
    (9, 130),
    (121, 33),
    (130, 121),
    (3, 2053),
];
/// Depths, the last two straddling `KC` (one and two `pc` passes).
const DEPTHS: [usize; 4] = [1, 9, 257, 1025];
const FLAGS: [Trans; 2] = [Trans::No, Trans::Yes];
const ALPHAS: [f64; 2] = [1.0, -0.5];

fn gemm_sweep<T: Step>() {
    let mut g = OperandGen::new(0x0DE6);
    for &(m, n) in &SHAPES {
        for &k in &DEPTHS {
            if m * n > 4000 && (k == 9 || k == 257) {
                continue; // the big outputs run shallow and past KC only
            }
            for ta in FLAGS {
                for tb in FLAGS {
                    let a = operand::<T>(&mut g, ta, m, k);
                    let b = operand::<T>(&mut g, tb, k, n);
                    let c0 = g.matrix::<T>(m, n);
                    for alpha in ALPHAS.map(T::from_f64) {
                        let mut c = c0.clone();
                        gemm(alpha, &a, ta, &b, tb, T::ONE, &mut c);
                        assert_eq!(
                            bits(&c),
                            bits(&oracle(alpha, &a, ta, &b, tb, &c0)),
                            "{}gemm {m}x{n}x{k} {ta:?} {tb:?} α={alpha}",
                            T::PREFIX
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gemm_is_bitwise_the_scalar_chain_f64() {
    gemm_sweep::<f64>();
}

#[test]
fn gemm_is_bitwise_the_scalar_chain_f32() {
    gemm_sweep::<f32>();
}

fn syrk_sweep<T: Step>() {
    let mut g = OperandGen::new(0x0DE8);
    for n in [1, 5, 6, 7, 15, 16, 17, 31, 32, 33, 121, 130] {
        for &k in &DEPTHS {
            if n > 33 && (k == 9 || k == 257) {
                continue;
            }
            for trans in FLAGS {
                let a = operand::<T>(&mut g, trans, n, k);
                for alpha in ALPHAS.map(T::from_f64) {
                    let got = syrk(alpha, &a, trans);
                    let want = oracle(alpha, &a, trans, &a, trans.flip(), &Matrix::zeros(n, n));
                    let lower = |m: &Matrix<T>| {
                        bits(&Matrix::from_fn(
                            n,
                            n,
                            |i, j| if j <= i { m[(i, j)] } else { T::ZERO },
                        ))
                    };
                    assert_eq!(
                        lower(&got),
                        lower(&want),
                        "{}syrk n={n} k={k} {trans:?} α={alpha}",
                        T::PREFIX
                    );
                }
            }
        }
    }
}

#[test]
fn syrk_lower_triangle_is_bitwise_the_scalar_chain() {
    syrk_sweep::<f64>();
    syrk_sweep::<f32>();
}

/// `y` lengths straddling `gemv`'s eight rows in flight.
const GEMV_ROWS: [usize; 9] = [1, 5, 7, 8, 9, 16, 17, 33, 130];

fn gemv_sweep<T: Step>() {
    let mut g = OperandGen::new(0x0DE9);
    for &m in &GEMV_ROWS {
        for &k in &DEPTHS {
            for ta in FLAGS {
                let a = operand::<T>(&mut g, ta, m, k);
                let x = g.matrix::<T>(k, 1);
                let y0 = g.matrix::<T>(m, 1);
                for alpha in ALPHAS.map(T::from_f64) {
                    for beta in [0.0, 1.0, -0.5].map(T::from_f64) {
                        let mut y = y0.clone();
                        gemv(alpha, &a, ta, &x, beta, &mut y);
                        assert_eq!(
                            bits(&y),
                            bits(&oracle(alpha, &a, ta, &x, Trans::No, &beta_first(beta, &y0))),
                            "{}gemv m={m} k={k} {ta:?} α={alpha} β={beta}",
                            T::PREFIX
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gemv_is_bitwise_the_scalar_chain() {
    gemv_sweep::<f64>();
    gemv_sweep::<f32>();
}

/// `y₀` with `β` applied up front, as the driver's `scale_c` applies it.
fn beta_first<T: Scalar>(beta: T, y0: &Matrix<T>) -> Matrix<T> {
    Matrix::from_fn(y0.rows(), 1, |i, _| match beta {
        b if b == T::ZERO => T::ZERO,
        b if b == T::ONE => y0[(i, 0)],
        b => y0[(i, 0)] * b,
    })
}

/// `y` lengths for `gemv_multi`: both sides of each lane width (4, 8) and
/// of the eight rows in flight.
const MULTI_LENGTHS: [usize; 9] = [1, 3, 4, 5, 7, 8, 9, 17, 33];
/// Batch sizes: one vector, part and whole registers of either lane
/// width, and a second group past eight.
const MULTI_QS: [usize; 7] = [1, 2, 3, 4, 5, 8, 9];
/// One entry per case, in the last vector (never the first lane when
/// `q ≥ 2`): NaN, ±Inf, an `f32` subnormal (normal in `f64`) and an `f64`
/// subnormal (zero in `f32`).
const POISONS: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-40, 5e-324];

fn gemv_multi_sweep<T: Step>() {
    let mut g = OperandGen::new(0x0DEA);
    let mut case = 0;
    for &q in &MULTI_QS {
        for &m in &MULTI_LENGTHS {
            for &k in &DEPTHS {
                for ta in FLAGS {
                    let a = operand::<T>(&mut g, ta, m, k);
                    let mut xs: Vec<Matrix<T>> = (0..q).map(|_| g.matrix(k, 1)).collect();
                    let poison = POISONS[case % POISONS.len()];
                    case += 1;
                    if q > 1 {
                        xs[q - 1][(k / 2, 0)] = T::from_f64(poison);
                    }
                    let refs: Vec<&Matrix<T>> = xs.iter().collect();
                    let y0: Vec<Matrix<T>> = (0..q).map(|_| g.matrix(m, 1)).collect();
                    for alpha in ALPHAS.map(T::from_f64) {
                        for beta in [0.0, 1.0, -0.5].map(T::from_f64) {
                            let mut ys = y0.clone();
                            gemv_multi(alpha, &a, ta, &refs, beta, &mut ys);
                            for (j, y) in ys.iter().enumerate() {
                                let c0 = beta_first(beta, &y0[j]);
                                assert_eq!(
                                    bits(y),
                                    bits(&oracle(alpha, &a, ta, &xs[j], Trans::No, &c0)),
                                    "{}gemv_multi vector {j} of q={q} m={m} k={k} {ta:?} \
                                     α={alpha} β={beta} poison={poison:e}",
                                    T::PREFIX
                                );
                            }
                            if q > 1 && !poison.is_finite() {
                                assert!(
                                    bits(&ys[q - 1])
                                        .iter()
                                        .any(|&b| b == u64::MAX || f64::from_bits(b).is_infinite()),
                                    "{}gemv_multi q={q} m={m} k={k}: poison {poison} lost",
                                    T::PREFIX
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn gemv_multi_is_bitwise_the_scalar_chain() {
    gemv_multi_sweep::<f64>();
    gemv_multi_sweep::<f32>();
}

/// NaN / +Inf / −Inf / finite, element by element.
fn non_finite_pattern<T: Scalar>(m: &Matrix<T>) -> Vec<u8> {
    let class = |v: f64| match v {
        v if v.is_nan() => 1,
        v if v.is_infinite() => 2 + v.is_sign_negative() as u8,
        _ => 0,
    };
    m.as_slice().iter().map(|&v| class(v.to_f64())).collect()
}

#[test]
fn hostile_entries_through_gemm_and_gemv_multi() {
    // One poison in the last live row of a ragged A panel (m = 6·p + 1) and
    // one in the last live column of B, against an exact zero so `Inf·0`
    // makes a NaN of its own. The widths leave that last column in a
    // ragged full-width panel or a half-width panel, depending on the
    // build's tile (8, 16 or 32 wide): 5, 13, 27, 40. The zero-padded
    // accumulator lanes next to the poison hold NaNs that must never reach
    // C: where the naive product is finite the driver's is, and finite or
    // not, it is bitwise the scalar chain.
    fn check<T: Step>() {
        let mut g = OperandGen::new(0x0DE8);
        let poisons = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5e-324, 1e-310];
        for &(m, k) in &[(7usize, 5usize), (121, 33)] {
            for n in [5usize, 13, 27, 40] {
                for &p in &poisons {
                    let poison = T::from_f64(p);
                    let mut a = g.matrix::<T>(m, k);
                    let mut b = g.matrix::<T>(k, n);
                    a[(m - 1, k - 1)] = poison;
                    b[(k - 1, 0)] = T::ZERO;
                    b[(0, n - 1)] = poison;
                    a[(0, 0)] = T::ZERO;
                    let what = format!("{} {m}x{n}x{k} poison={p:e}", T::PREFIX);

                    let zeros = Matrix::zeros(m, n);
                    let mut c = zeros.clone();
                    gemm(T::ONE, &a, Trans::No, &b, Trans::No, T::ONE, &mut c);
                    let naive =
                        reference::gemm_naive(T::ONE, &a, Trans::No, &b, Trans::No, T::ONE, &zeros);
                    let chain = oracle(T::ONE, &a, Trans::No, &b, Trans::No, &zeros);
                    assert_eq!(non_finite_pattern(&c), non_finite_pattern(&naive), "gemm {what}");
                    assert_eq!(bits(&c), bits(&chain), "gemm {what}");
                    if p.is_nan() || p.is_infinite() {
                        assert!(bits(&c).contains(&u64::MAX), "gemm {what}: no NaN came out");
                    }

                    // The same product with B's columns as one batch of n
                    // matrix-vector products…
                    let cols: Vec<Matrix<T>> = (0..n).map(|j| b.col_matrix(j)).collect();
                    let refs: Vec<&Matrix<T>> = cols.iter().collect();
                    let mut ys = vec![Matrix::zeros(m, 1); n];
                    gemv_multi(T::ONE, &a, Trans::No, &refs, T::ONE, &mut ys);
                    for (j, yj) in ys.iter().enumerate() {
                        assert_eq!(bits(yj), bits(&c.col_matrix(j)), "gemv_multi col {j} {what}");
                        // …and as n solo ones.
                        let mut y = Matrix::zeros(m, 1);
                        gemv(T::ONE, &a, Trans::No, &cols[j], T::ONE, &mut y);
                        assert_eq!(bits(&y), bits(yj), "gemv col {j} {what}");
                    }
                }
            }
        }
    }
    check::<f64>();
    check::<f32>();
}
