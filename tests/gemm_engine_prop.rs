//! Property tests for the GEMM engine: the packed, blocked kernel matches
//! the naive oracle on arbitrary shapes, transpose flags and scalars —
//! including the degenerate shapes.

use laab::prelude::*;
use laab_kernels::{gemm, reference};
use proptest::prelude::*;

fn trans(b: bool) -> Trans {
    if b {
        Trans::Yes
    } else {
        Trans::No
    }
}

/// Stored shape of an operand whose `op(·)` shape is `r×c`.
fn stored(t: Trans, r: usize, c: usize) -> (usize, usize) {
    match t {
        Trans::No => (r, c),
        Trans::Yes => (c, r),
    }
}

/// The α/β grid the paper's kernels must be exact on: the BLAS fast paths
/// (0, ±1) plus a generic scalar.
const EDGE_SCALARS: [f64; 4] = [0.0, 1.0, -1.0, 2.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_matches_reference_all_trans_combos(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..48,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in any::<u64>(),
    ) {
        for ta in [Trans::No, Trans::Yes] {
            for tb in [Trans::No, Trans::Yes] {
                let mut g = OperandGen::new(seed);
                let (ar, ac) = stored(ta, m, k);
                let (br, bc) = stored(tb, k, n);
                let a = g.matrix::<f64>(ar, ac);
                let b = g.matrix::<f64>(br, bc);
                let c0 = g.matrix::<f64>(m, n);
                let mut c = c0.clone();
                gemm(alpha, &a, ta, &b, tb, beta, &mut c);
                let want = reference::gemm_naive(alpha, &a, ta, &b, tb, beta, &c0);
                prop_assert!(
                    c.approx_eq(&want, 1e-11),
                    "ta={ta:?} tb={tb:?} dist={}",
                    c.rel_dist(&want)
                );
            }
        }
    }

    #[test]
    fn gemm_alpha_beta_edge_values(
        m in 1usize..32,
        n in 1usize..32,
        k in 1usize..32,
        ai in 0usize..4,
        bi in 0usize..4,
        ta in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (alpha, beta) = (EDGE_SCALARS[ai], EDGE_SCALARS[bi]);
        let ta = trans(ta);
        let mut g = OperandGen::new(seed);
        let (ar, ac) = stored(ta, m, k);
        let a = g.matrix::<f64>(ar, ac);
        let b = g.matrix::<f64>(k, n);
        let c0 = g.matrix::<f64>(m, n);
        let mut c = c0.clone();
        gemm(alpha, &a, ta, &b, Trans::No, beta, &mut c);
        let want = reference::gemm_naive(alpha, &a, ta, &b, Trans::No, beta, &c0);
        prop_assert!(c.approx_eq(&want, 1e-11), "alpha={alpha} beta={beta}");
        // beta == 0 must fully overwrite C, even a poisoned one.
        if beta == 0.0 {
            let mut poisoned = Matrix::<f64>::filled(m, n, f64::NAN);
            gemm(alpha, &a, ta, &b, Trans::No, 0.0, &mut poisoned);
            prop_assert!(poisoned.all_finite(), "beta=0 leaked NaNs from C");
        }
    }

    #[test]
    fn gemm_degenerate_shapes(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        beta in -1.5f64..1.5,
        seed in any::<u64>(),
    ) {
        let mut g = OperandGen::new(seed);
        // k = 0: a pure C-scaling; no packed panel may be touched.
        let a0 = Matrix::<f64>::zeros(m, 0);
        let b0 = Matrix::<f64>::zeros(0, n);
        let c0 = g.matrix::<f64>(m, n);
        let mut c = c0.clone();
        gemm(1.0, &a0, Trans::No, &b0, Trans::No, beta, &mut c);
        let want = reference::gemm_naive(1.0, &a0, Trans::No, &b0, Trans::No, beta, &c0);
        prop_assert!(c.approx_eq(&want, 1e-12), "k=0 is beta-scaling only");

        // 1×n (row output) and n×1 (column output) through the full engine.
        let a = g.matrix::<f64>(1, k);
        let b = g.matrix::<f64>(k, n);
        let mut row = Matrix::<f64>::zeros(1, n);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut row);
        let want =
            reference::gemm_naive(1.0, &a, Trans::No, &b, Trans::No, 0.0, &Matrix::zeros(1, n));
        prop_assert!(row.approx_eq(&want, 1e-11));

        let a = g.matrix::<f64>(m, k);
        let x = g.matrix::<f64>(k, 1);
        let mut col = Matrix::<f64>::zeros(m, 1);
        gemm(1.0, &a, Trans::No, &x, Trans::No, 0.0, &mut col);
        let want =
            reference::gemm_naive(1.0, &a, Trans::No, &x, Trans::No, 0.0, &Matrix::zeros(m, 1));
        prop_assert!(col.approx_eq(&want, 1e-11));
    }
}
