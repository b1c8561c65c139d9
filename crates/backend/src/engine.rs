//! The default backend: the live `laab-kernels` execution engine.

use laab_dense::{Matrix, Scalar, Tridiagonal};
use laab_kernels::{
    geadd, geadd_assign, gescale_assign, matmul_dispatch, syrk, tridiag_matmul, Trans,
};

use crate::{Backend, BackendId};

/// The live `laab-kernels` engine — packed/tiled GEMM with AVX-512/AVX2
/// FMA microkernels, shape-directed DOT/GEMV lowering, and the persistent
/// worker pool. This is the backend every execution used before the
/// backend layer existed, and it remains the default: `engine` results
/// define the baseline every other backend is measured against.
///
/// A batched product keeps [`Backend::matmul_batched`]'s per-item loop:
/// one GEMV per right-hand side. The column-stacked multi-RHS GEMM packs
/// all of `A` and sweeps mostly zero-padded register tiles. On an AVX-512
/// core at `n` ∈ 48…256 it took 2.4–7.4× the loop's time at two parts
/// and 1.05–3× at eight on `Aᵀ·x`; only `A·x` with six to eight parts at
/// `n` ≥ 192 ran up to 23 % faster stacked, less than the `Aᵀ·x` product
/// of the same request loses.
/// Both return the same bits (`gemv` runs the driver's arithmetic), so
/// the choice is speed alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineBackend;

impl<T: Scalar> Backend<T> for EngineBackend {
    fn id(&self) -> BackendId {
        BackendId::ENGINE
    }

    fn matmul(&self, alpha: T, a: &Matrix<T>, ta: Trans, b: &Matrix<T>, tb: Trans) -> Matrix<T> {
        matmul_dispatch(alpha, a, ta, b, tb)
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
