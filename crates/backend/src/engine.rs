//! The default backend: the live `laab-kernels` execution engine.

use laab_dense::{Matrix, Scalar, Tridiagonal};
use laab_kernels::{
    geadd, geadd_assign, gemv_multi, gescale_assign, matmul_dispatch, syrk, tridiag_matmul, Trans,
};

use crate::{Backend, BackendId};

/// The live `laab-kernels` engine — packed/tiled GEMM with AVX-512/AVX2
/// FMA microkernels and shape-directed DOT/GEMV lowering, each kernel on
/// its calling thread. This is the backend every execution used before the
/// backend layer existed, and it remains the default: `engine` results
/// define the baseline every other backend is measured against.
///
/// A batched product of `k×1` right-hand sides runs [`gemv_multi`]: one
/// read of `A` per group of up to eight vectors, with the vectors (`A·x`)
/// or the rows of `y` (`Aᵀ·x`) in the SIMD lanes. Every lane is the solo
/// GEMV's fused chain, so each part is bitwise the solo product, and the
/// batch records one GEMV per part, as its members do solo. Other parts,
/// and a `1×k` `op(A)` (whose solo product is a DOT), keep
/// [`Backend::matmul_batched`]'s per-item loop. A column-stacked
/// multi-RHS GEMM packs all of `A` and sweeps mostly zero-padded register
/// tiles; it lost to a loop of GEMVs at every window size, and the GEMM
/// driver no longer has a stacked right-hand side.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineBackend;

impl<T: Scalar> Backend<T> for EngineBackend {
    fn id(&self) -> BackendId {
        BackendId::ENGINE
    }

    fn matmul(&self, alpha: T, a: &Matrix<T>, ta: Trans, b: &Matrix<T>, tb: Trans) -> Matrix<T> {
        matmul_dispatch(alpha, a, ta, b, tb)
    }

    fn matmul_batched(
        &self,
        alpha: T,
        a: &Matrix<T>,
        ta: Trans,
        bs: &[&Matrix<T>],
    ) -> Vec<Matrix<T>> {
        let (m, _) = ta.dims(a.rows(), a.cols());
        if m == 1 || bs.iter().any(|b| b.cols() != 1) {
            return bs.iter().map(|b| self.matmul(alpha, a, ta, b, Trans::No)).collect();
        }
        // β = 1 on fresh zeros, as `matmul_dispatch` runs the solo GEMV.
        let mut ys = vec![Matrix::zeros(m, 1); bs.len()];
        gemv_multi(alpha, a, ta, bs, T::ONE, &mut ys);
        ys
    }

    fn syrk(&self, alpha: T, a: &Matrix<T>, trans: Trans) -> Matrix<T> {
        // The blocked driver's lower-triangle sweep plus a mirror: half
        // the FLOPs, the GEMM's bits.
        syrk(alpha, a, trans)
    }

    fn geadd(&self, alpha: T, a: &Matrix<T>, beta: T, b: &Matrix<T>) -> Matrix<T> {
        geadd(alpha, a, beta, b)
    }

    fn geadd_assign(&self, alpha: T, a: &mut Matrix<T>, beta: T, b: &Matrix<T>) {
        geadd_assign(alpha, a, beta, b)
    }

    fn scale_assign(&self, alpha: T, x: &mut Matrix<T>) {
        gescale_assign(alpha, x)
    }

    fn tridiag_matmul(&self, t: &Tridiagonal<T>, b: &Matrix<T>) -> Matrix<T> {
        tridiag_matmul(t, b)
    }
}
