//! # laab-dense — dense matrix storage for the LAAB suite
//!
//! This crate provides the storage substrate shared by every other LAAB crate:
//!
//! * [`Matrix`] — an owned, row-major, dense matrix over any [`Scalar`]
//!   (`f32`/`f64`). Vectors are represented as `n×1` (column) or `1×n` (row)
//!   matrices, exactly as the paper's test expressions treat them.
//! * [`Scalar`] — the closed set of element types the kernels are instantiated
//!   for. Machine-learning frameworks default to single precision (the paper,
//!   Sec. III, footnote 3), so `f32` is the suite's default; `f64` is used by
//!   tests that need tighter tolerances.
//! * [`gen`] — deterministic, seeded generators for the structured operands
//!   the paper benchmarks: general, lower/upper triangular, symmetric, SPD,
//!   tridiagonal, diagonal, orthogonal, and blocked matrices.
//! * [`Tridiagonal`] / [`Diagonal`] — compact forms consumed by the
//!   specialized kernels (the analogue of what `tf.linalg.tridiagonal_matmul`
//!   receives).
//!
//! The crate is deliberately free of BLAS-style computational kernels; those
//! live in `laab-kernels`. Only O(n²) structural helpers (transpose, concat,
//! submatrix, comparison) are provided here.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod gen;
mod matrix;
mod scalar;
mod structured;

pub use matrix::{ColIter, Matrix};
pub use scalar::Scalar;
pub use structured::{Diagonal, Tridiagonal};

/// Crate-wide result alias for the (rare) checked constructors.
pub type Result<T> = std::result::Result<T, ShapeError>;

/// Error raised by checked constructors and structural operations when the
/// requested shapes are inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    pub msg: String,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape error: {}", self.msg)
    }
}

impl std::error::Error for ShapeError {}

impl ShapeError {
    /// Construct a new shape error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}
