//! # laab-kernels — the BLAS substrate
//!
//! A pure-Rust stand-in for the optimized BLAS library (Intel MKL in the
//! paper) that both the "hand-coded" (SciPy-style) baselines and the
//! framework analogue link against. One substrate, two consumers — exactly
//! the relationship the paper benchmarks.
//!
//! ## Kernel inventory
//!
//! | Level | Kernels |
//! |-------|---------|
//! | 1 | [`dot`], [`axpy`], [`scal`], [`nrm2`] |
//! | 2 | [`gemv`], [`gemv_multi`] (`q` vectors against one `A`, read once per eight — bitwise `q` GEMVs), [`ger`] |
//! | 3 | [`gemm`] (packed + blocked + microkernel), [`matmul_multi_rhs`] (`q` right-hand sides copied side by side, then one GEMM), [`syrk`] (the same driver over the lower-triangle micro-tiles, mirrored — bitwise the GEMM), [`trmm`] |
//! | structured | [`tridiag_matmul`], [`diag_matmul`] |
//! | elementwise | [`geadd`] (`C := αA + βB`) |
//!
//! ## Instrumentation
//!
//! Every public kernel records its invocation and FLOP count into
//! thread-local [`counters`]. The graph executor and the test-suite use the
//! counters to make the paper's *analytical* claims (e.g. "expression `E3`
//! costs three GEMMs, `E2` only two") machine-checkable, independent of
//! wall-clock noise.
//!
//! ## Threads
//!
//! Every kernel runs on its calling thread, as the paper's measurements
//! do (single-threaded, Sec. III). Callers that want parallelism run
//! independent kernels on their own threads: `laab serve` gets its
//! request-level parallelism from its executor pool.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod counters;
mod dispatch;
pub mod flops;
mod gemm;
mod level1;
mod level2;
pub mod reference;
pub mod seed;
mod simd;
pub mod solve;
mod structured;
mod trmm_syrk;
mod view;
mod workspace;

pub use dispatch::matmul_dispatch;
pub use gemm::{gemm, matmul, matmul_multi_rhs};
pub use level1::{axpy, dot, nrm2, scal};
pub use level2::{gemv, gemv_alloc, gemv_multi, ger};
pub use solve::{cholesky, cholesky_solve, lu_factor, lu_solve, lu_solve_full, trsm};
pub use structured::{diag_matmul, geadd, geadd_assign, gescale_assign, tridiag_matmul};
pub use trmm_syrk::{symmetrize_lower, syrk, trmm, UpLo};

/// Transposition flag for Level-2/3 kernels, mirroring the BLAS `trans`
/// parameter. Frameworks fold user-written transposes into this flag (rather
/// than materializing `Aᵀ`), which is why the paper's Table I row 1 shows
/// `AᵀB` costing exactly one GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Trans {
    /// Logical `(rows, cols)` of `op(A)` for an `A` with shape `(r, c)`.
    #[inline]
    pub fn dims(self, r: usize, c: usize) -> (usize, usize) {
        match self {
            Trans::No => (r, c),
            Trans::Yes => (c, r),
        }
    }

    /// Flip the flag (used when rewriting `(AᵀB)ᵀ` style expressions).
    #[inline]
    pub fn flip(self) -> Self {
        match self {
            Trans::No => Trans::Yes,
            Trans::Yes => Trans::No,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trans_dims_and_flip() {
        assert_eq!(Trans::No.dims(2, 3), (2, 3));
        assert_eq!(Trans::Yes.dims(2, 3), (3, 2));
        assert_eq!(Trans::No.flip(), Trans::Yes);
        assert_eq!(Trans::Yes.flip(), Trans::No);
    }
}
