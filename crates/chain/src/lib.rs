//! # laab-chain — matrix-chain parenthesization
//!
//! Experiment 2 of the paper: a product `A₁A₂…Aₘ` can be evaluated in
//! `Cₘ₋₁` (Catalan) different orders whose FLOP counts differ by orders of
//! magnitude, yet TF/PyT always evaluate left-to-right. This crate is the
//! optimization they are missing, plus the machinery to *demonstrate* that
//! they are missing it:
//!
//! * [`ParenTree`] — a parenthesization, convertible to an [`Expr`](laab_expr::Expr)
//!   product tree and costable against any dimension vector.
//! * [`optimal_parenthesization`] — the classic O(m³) dynamic program
//!   (what `torch.linalg.multi_dot` runs).
//! * [`enumerate_parenthesizations`] — all Catalan trees, used to
//!   regenerate the paper's Fig. 7 (the five orders of a 4-chain with
//!   their FLOP formulas) and to property-test DP optimality.
//! * [`multi_dot`] — executes a chain in the optimal order over
//!   `laab-kernels`, the `torch.linalg.multi_dot` analogue that the
//!   `Torch` framework profile exposes.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod multi_dot;
mod paren;

pub use multi_dot::{multi_dot, multi_dot_order};
pub use paren::{
    chain_dims, enumerate_parenthesizations, left_to_right, optimal_parenthesization,
    right_to_left, ParenTree,
};
