//! Property tests for the BLAS substrate: every optimized kernel matches
//! its naive reference on arbitrary shapes, flags and scalars.

use laab::prelude::*;
use laab_kernels::reference;
use laab_kernels::{gemm, matmul_dispatch, syrk, trmm, UpLo};
use proptest::prelude::*;

fn trans(b: bool) -> Trans {
    if b {
        Trans::Yes
    } else {
        Trans::No
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_matches_reference(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        ta in any::<bool>(),
        tb in any::<bool>(),
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let mut g = OperandGen::new(seed);
        let (ta, tb) = (trans(ta), trans(tb));
        let (ar, ac) = if ta == Trans::Yes { (k, m) } else { (m, k) };
        let (br, bc) = if tb == Trans::Yes { (n, k) } else { (k, n) };
        let a = g.matrix::<f64>(ar, ac);
        let b = g.matrix::<f64>(br, bc);
        let c0 = g.matrix::<f64>(m, n);
        let mut c = c0.clone();
        gemm(alpha, &a, ta, &b, tb, beta, &mut c);
        let want = reference::gemm_naive(alpha, &a, ta, &b, tb, beta, &c0);
        prop_assert!(c.approx_eq(&want, 1e-11), "dist {}", c.rel_dist(&want));
    }

    #[test]
    fn matmul_dispatch_matches_reference_on_vector_shapes(
        k in 1usize..60,
        m_is_vec in any::<bool>(),
        n_is_vec in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut g = OperandGen::new(seed);
        let m = if m_is_vec { 1 } else { 13 };
        let n = if n_is_vec { 1 } else { 9 };
        let a = g.matrix::<f64>(m, k);
        let b = g.matrix::<f64>(k, n);
        let got = matmul_dispatch(1.0, &a, Trans::No, &b, Trans::No);
        let want = reference::gemm_naive(
            1.0, &a, Trans::No, &b, Trans::No, 0.0, &Matrix::zeros(m, n),
        );
        prop_assert!(got.approx_eq(&want, 1e-11));
    }

    #[test]
    fn trmm_matches_masked_gemm(
        n in 1usize..50,
        m in 1usize..30,
        upper in any::<bool>(),
        alpha in -2.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let mut g = OperandGen::new(seed);
        let t = if upper { g.upper_triangular::<f64>(n) } else { g.lower_triangular::<f64>(n) };
        let b = g.matrix::<f64>(n, m);
        let uplo = if upper { UpLo::Upper } else { UpLo::Lower };
        let got = trmm(alpha, &t, uplo, &b);
        let want = reference::gemm_naive(
            alpha, &t, Trans::No, &b, Trans::No, 0.0, &Matrix::zeros(n, m),
        );
        prop_assert!(got.approx_eq(&want, 1e-11), "dist {}", got.rel_dist(&want));
    }

    #[test]
    fn syrk_matches_reference_and_is_symmetric(
        n in 1usize..40,
        k in 1usize..40,
        transposed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut g = OperandGen::new(seed);
        let a = g.matrix::<f64>(n, k);
        // Both spellings of the same product: A·Aᵀ, and (Aᵀ)ᵀ·Aᵀ.
        let got = if transposed {
            syrk(1.0, &a.transpose(), Trans::Yes)
        } else {
            syrk(1.0, &a, Trans::No)
        };
        prop_assert!(got.approx_eq(&reference::syrk_naive(&a), 1e-11));
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(got[(i, j)], got[(j, i)]);
            }
        }
    }

    #[test]
    fn structured_kernels_match_dense(
        n in 1usize..40,
        m in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut g = OperandGen::new(seed);
        let t = g.tridiagonal::<f64>(n);
        let d = g.diagonal::<f64>(n);
        let b = g.matrix::<f64>(n, m);
        let via_dense_t = reference::gemm_naive(
            1.0, &t.to_dense(), Trans::No, &b, Trans::No, 0.0, &Matrix::zeros(n, m),
        );
        prop_assert!(laab_kernels::tridiag_matmul(&t, &b).approx_eq(&via_dense_t, 1e-12));
        let via_dense_d = reference::gemm_naive(
            1.0, &d.to_dense(), Trans::No, &b, Trans::No, 0.0, &Matrix::zeros(n, m),
        );
        prop_assert!(laab_kernels::diag_matmul(&d, &b).approx_eq(&via_dense_d, 1e-12));
    }

    #[test]
    fn level1_identities(len in 0usize..200, alpha in -3.0f64..3.0, seed in any::<u64>()) {
        let mut g = OperandGen::new(seed);
        let x = g.matrix::<f64>(len.max(1), 1);
        let y = g.matrix::<f64>(len.max(1), 1);
        let (xs, ys) = (x.as_slice(), y.as_slice());
        // dot symmetry
        prop_assert!((laab_kernels::dot(xs, ys) - laab_kernels::dot(ys, xs)).abs() < 1e-12);
        // axpy via dot: dot(x, alpha*y + x) == alpha*dot(x,y) + dot(x,x)
        let mut z = y.as_slice().to_vec();
        for v in z.iter_mut() { *v *= alpha; }
        let mut w = z.clone();
        laab_kernels::axpy(1.0, xs, &mut w);
        let lhs = laab_kernels::dot(xs, &w);
        let rhs = alpha * laab_kernels::dot(xs, ys) + laab_kernels::dot(xs, xs);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs()));
        // nrm2² == dot(x, x)
        let nrm = laab_kernels::nrm2(xs);
        prop_assert!((nrm * nrm - laab_kernels::dot(xs, xs)).abs() < 1e-9);
    }
}
