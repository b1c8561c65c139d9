//! # LAAB — Linear Algebra Awareness Benchmark
//!
//! A from-scratch Rust reproduction of *"Benchmarking the Linear Algebra
//! Awareness of TensorFlow and PyTorch"* (Sankaran, Akbari Alashti,
//! Psarras, Bientinesi — iWAPT/IPDPSW 2022, arXiv:2202.09888).
//!
//! The workspace builds every layer the paper's experiments touch:
//!
//! * [`dense`] — matrix storage and structured operand generators;
//! * [`kernels`] — a pure-Rust BLAS substrate (packed GEMM, TRMM, SYRK,
//!   structured kernels) with FLOP/call instrumentation;
//! * [`backend`] — pluggable execution backends (engine / reference)
//!   behind one dispatch trait and a process-wide registry; a served
//!   request names the one it wants;
//! * [`deferred`] — the accelerator launch-cost backend: the engine
//!   kernels behind a constant modeled launch per dispatch;
//! * [`expr`] — the symbolic test-expression layer with a matrix-property
//!   lattice and FLOP cost models;
//! * [`graph`] — the computational-graph IR with the Grappler-style
//!   optimizer (transpose folding, CSE, scale fusion, DCE);
//! * [`chain`] — matrix-chain parenthesization (DP, enumeration,
//!   `multi_dot`);
//! * [`rewrite`] — the equality-saturation expression optimizer and the
//!   property-dispatching evaluator (the "awareness" the paper finds
//!   missing);
//! * [`framework`] — the TF/PyT analogue under test (Eager + Graph modes,
//!   `Flow`/`Torch` profiles);
//! * [`serve`] — the compiled-plan cache and request-serving layer
//!   (signatures, plans, the sharded LRU cache, the `laab serve`
//!   socket server and its load generator);
//! * [`stats`] — min-of-R timing and bootstrap significance;
//! * [`suite`] — the experiments themselves, one per paper table/figure.
//!
//! `docs/ARCHITECTURE.md` maps every crate to the paper experiments it
//! reproduces and draws the eager/graph/aware data-flow end to end.
//!
//! ## Quickstart
//!
//! ```
//! use laab::prelude::*;
//!
//! // Run the paper's Table II (CSE) experiment at a laptop-friendly size.
//! let cfg = ExperimentConfig::quick(64);
//! let result = laab::suite::experiments::table2(&cfg);
//! println!("{}", result.table);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use laab_backend as backend;
pub use laab_chain as chain;
pub use laab_core as suite;
pub use laab_deferred as deferred;
pub use laab_dense as dense;
pub use laab_expr as expr;
pub use laab_framework as framework;
pub use laab_graph as graph;
pub use laab_kernels as kernels;
pub use laab_rewrite as rewrite;
pub use laab_serve as serve;
pub use laab_stats as stats;

/// The most commonly used items in one import.
pub mod prelude {
    pub use laab_core::{run_all, ExperimentConfig, ExperimentResult};
    pub use laab_dense::{gen::OperandGen, Diagonal, Matrix, Scalar, Tridiagonal};
    pub use laab_expr::eval::Env;
    pub use laab_expr::{var, Context, Expr, Props};
    pub use laab_framework::{Framework, Profile, Tensor};
    pub use laab_kernels::Trans;
    pub use laab_stats::{Table, TimingConfig};
}
