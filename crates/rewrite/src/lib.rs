//! # laab-rewrite — the derivation-graph rewriting engine
//!
//! The Linnea-style layer the paper's Discussion sections call for: starting
//! from the user's expression, algebraic rewrite rules span a *derivation
//! graph* whose nodes are mathematically-equivalent expressions; a
//! best-first search over that graph finds the variant with the lowest FLOP
//! count (priced with sharing, so CSE-friendly variants win).
//!
//! The rule inventory covers exactly the optimizations Experiments 1–5 show
//! the frameworks are missing:
//!
//! | Rule | Experiment |
//! |------|------------|
//! | chain re-association (DP-optimal + local rotations) | 2 |
//! | distributivity (expand *and* factor) | 4, Fig. 1 |
//! | transpose distribution / cancellation | 1 (enables CSE on `E3`) |
//! | identity & orthogonality elimination (`QᵀQ → I`, `I·X → X`) | 3 |
//! | blocked-matrix splitting | 4, Eq. 11 |
//! | slicing push-down (`(A·B)[i,j] → A[i,:]·B[:,j]`) | 5 |
//! | scaling fusion (`X+X → 2X`) | 1 |
//!
//! [`aware_eval`] executes an expression with property dispatch
//! (TRMM/SYRK/tridiagonal/diagonal kernels), completing the "what the
//! frameworks could do" execution path that the benchmark tables compare
//! against.
//!
//! ## The e-graph layer
//!
//! The best-first engine explores one expression at a time and therefore
//! misses rewrites that require a temporary cost increase. The
//! equality-saturation layer ([`egraph`], [`mod@saturate`], [`extract`],
//! [`cost`]) keeps every equivalent form at once: expressions are
//! interned into an arena-backed e-graph (union-find + congruence
//! closure, no external deps), saturated under iteration/node budgets
//! with the full bidirectional rule set, and a cheaper form is extracted
//! under a cost model with fixed GEMM/GEMV throughput anchors, priced as
//! a DAG (a shared subterm is paid for once). [`optimize_egraph`] is the
//! entry point `laab-serve`'s plan compile runs for every expression
//! costly enough to repay it.

#![deny(missing_docs)]

mod aware_eval;
pub mod cost;
pub mod egraph;
mod engine;
pub mod extract;
pub mod rules;
pub mod saturate;
mod solve;

pub use aware_eval::aware_eval;
pub use cost::CostModel;
pub use egraph::{EClass, EClassId, EGraph, ENode, Rhs};
pub use engine::{enumerate_variants, optimize_expr, CostKind, OptResult, RewriteEngine};
pub use extract::{extract_best, optimize_egraph, EgraphConfig, EgraphResult, Extraction};
pub use saturate::{egraph_rules, saturate, EgraphRule, SaturateConfig, SaturateStats};
pub use solve::{solve_aware, SolveError, SolvePath};
