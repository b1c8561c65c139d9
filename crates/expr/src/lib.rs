//! # laab-expr — the symbolic expression layer
//!
//! The paper's test expressions are written once, symbolically, and then
//! executed through several back-ends (framework eager mode, framework graph
//! mode, hand-coded kernels, the LA-aware rewriter). This crate is the
//! single definition point:
//!
//! * [`Expr`] — the "blackboard syntax" AST. Binary products are
//!   *left-associative* unless the user parenthesizes, exactly like the `@`
//!   operator in Python — the associativity the paper shows the frameworks
//!   never revisit (Experiment 2).
//! * [`Shape`] / [`Context`] — static shape checking and inference.
//! * [`Props`] — the matrix-property lattice (triangular, symmetric,
//!   diagonal, tridiagonal, identity, orthogonal) with inference through
//!   every operator (Experiment 3's missing knowledge).
//! * [`cost`] — FLOP cost models: [`cost::naive_cost`] prices an expression
//!   the way the frameworks execute it (every product is a GEMM/GEMV);
//!   [`cost::aware_cost`] prices it the way a property-aware compiler could
//!   (TRMM/SYRK/structured kernels).
//! * [`eval`] — a straightforward reference evaluator over `laab-kernels`,
//!   used as the semantics oracle by every test in the workspace.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cost;
pub mod eval;
mod expr;
pub mod parser;
mod props;
mod shape;

pub use expr::{
    block_diag, elem, identity, is_transpose_pair, scale, structural_mul_props, var, vcat, Expr,
    Factor,
};
pub use parser::parse;
pub use props::Props;
pub use shape::{Context, Shape};
