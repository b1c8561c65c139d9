//! The default backend: the live `laab-kernels` execution engine.

use laab_dense::{Matrix, Scalar, Tridiagonal};
use laab_kernels::{
    geadd, geadd_assign, gescale_assign, matmul_dispatch, matmul_multi_rhs_parts, syrk,
    tridiag_matmul, Trans,
};

use crate::{Backend, BackendId};

/// The live `laab-kernels` engine — packed/tiled GEMM with AVX-512/AVX2
/// FMA microkernels, shape-directed DOT/GEMV lowering, and the persistent
/// worker pool. This is the backend every execution used before the
/// backend layer existed, and it remains the default: `engine` results
/// define the baseline every other backend is measured against.
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
        // The engine's batched lever: one column-stacked GEMM packs each
        // A panel once for all q right-hand sides (the q GEMV-shaped solo
        // calls were each re-reading all of A). Stacking pays exactly
        // when that re-read is real memory traffic — so this is
        // shape-directed like every other lowering in the engine: below
        // two parts there is nothing to amortize, and while A still fits
        // in L1 the solo GEMV/DOT dispatch is already compute-bound and
        // the packing/split overhead would be pure loss (measured ~25%
        // at 48×48, ~2x win at 192×192 on the serve workload). Those
        // cases take the per-item loop, which keeps the solo dispatch
        // bitwise intact.
        const L1_BYTES: usize = 32 * 1024;
        let uniform = bs.windows(2).all(|w| w[0].shape() == w[1].shape());
        let a_bytes = a.rows() * a.cols() * std::mem::size_of::<T>();
        if bs.len() < 2 || !uniform || a_bytes <= L1_BYTES {
            return bs.iter().map(|b| self.matmul(alpha, a, ta, b, Trans::No)).collect();
        }
        // Zero-copy outputs: the multi-RHS sweep writes each part's
        // columns straight into its own matrix — no stacked C, no
        // `split_cols` second pass.
        matmul_multi_rhs_parts(alpha, a, ta, bs)
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
