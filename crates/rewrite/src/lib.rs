//! # laab-rewrite — the equality-saturation optimizer
//!
//! The linear-algebra awareness the paper's Discussion sections call for:
//! the user's expression is interned into an arena-backed e-graph
//! ([`egraph`]: union-find + congruence closure, no external deps), which
//! [`mod@saturate`] grows under iteration/node budgets until every
//! equivalent form the rule set reaches is held at once, and [`extract`]
//! recovers the cheapest of them under the [`cost`] model — fixed
//! GEMM/GEMV throughput anchors, priced as a DAG (a shared subterm is
//! paid for once, as the trace-time CSE pass executes it).
//! [`optimize_egraph`] is that pipeline, and the `fig1` and `table5`
//! experiments report what it finds. `laab-serve`'s plan compile runs it
//! as [`optimize_egraph_with_varying`] for every expression costly enough
//! to repay it: work on the shared operands alone is priced once, as the
//! served plan hoists it out of the request loop.
//!
//! The rule set covers exactly the optimizations Experiments 1–5 show the
//! frameworks are missing, each in both directions:
//!
//! | Rule | Experiment |
//! |------|------------|
//! | chain re-association (extraction plays the matrix-chain DP) | 2 |
//! | distributivity ↔ factoring | 4 (Eqs. 9–10), Fig. 1 |
//! | transpose distribution ↔ contraction, cancellation | 1 (CSE on `E3`) |
//! | identity & orthogonality elimination (`QᵀQ → I`, `I·X → X`) | 3 |
//! | blocked-matrix splitting | 4 (Eq. 11) |
//! | slicing push-down ↔ pull-up (`(A·B)[i,j] → A[i,:]·B[:,j]`) | 5 |
//! | scaling fusion and sum normalization (`X+X → 2X`, `a−b ↔ a+(−1)b`) | 1 |
//!
//! [`aware_eval`] executes an expression with property dispatch
//! (TRMM/SYRK/tridiagonal/diagonal kernels), and [`solve_aware`] picks a
//! factorization by operand properties — the "what the frameworks could
//! do" execution paths the benchmark tables compare against.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod aware_eval;
pub mod cost;
pub mod egraph;
pub mod extract;
pub mod saturate;
mod solve;

pub use aware_eval::aware_eval;
pub use cost::{Cost, CostModel};
pub use egraph::{EClass, EClassId, EGraph, ENode, Rhs};
pub use extract::{
    extract_best, optimize_egraph, optimize_egraph_with_varying, EgraphConfig, EgraphResult,
    Extraction,
};
pub use saturate::{egraph_rules, saturate, EgraphRule, SaturateConfig, SaturateStats};
pub use solve::{solve_aware, SolveError, SolvePath};
