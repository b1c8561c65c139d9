//! # laab-framework — the TensorFlow/PyTorch analogue under test
//!
//! A from-scratch tensor framework with the exact optimization inventory
//! the paper measures in TF 2.7 / PyT 1.10, so that every experiment
//! exercises the same code-path decisions:
//!
//! * **Eager mode** ([`Tensor`]) — every operation executes immediately on
//!   call, mapping to one kernel. Transposition is a zero-copy *view*
//!   (like `torch.Tensor.t()`), folded into the product kernels' flags —
//!   which is why eager `AᵀB` costs exactly one GEMM (Table I, row 1).
//!   There is no CSE: `(AᵀB)ᵀ(AᵀB)` really runs three GEMMs (row 2).
//! * **Graph mode** ([`Framework::function`]) — the `@tf.function` /
//!   `@torch.jit.script` analogue: the build closure is *traced* into a
//!   DAG (loops unroll), the Grappler-style pipeline of `laab-graph`
//!   optimizes it, and [`Function::call`] executes it. The trace+optimize
//!   time is recorded as the "decorator overhead" (paper's footnote 4).
//! * **Profiles** — [`Profile::Flow`] (TF-like) additionally offers
//!   `linalg.tridiagonal_matmul`; [`Profile::Torch`] (PyT-like) offers
//!   `linalg.multi_dot`. Each lacks the other's escape hatch, mirroring
//!   the "n.a." / "-" cells of Tables III and IV.
//! * **Lowering** ([`lower`]) — executes a symbolic
//!   [`Expr`](laab_expr::Expr) through either mode, so every benchmark
//!   defines its test expression once.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod function;
pub mod lower;
mod profile;
mod tensor;

pub use function::{FuncBuilder, Function, GT};
pub use profile::{Framework, Profile};
pub use tensor::Tensor;
