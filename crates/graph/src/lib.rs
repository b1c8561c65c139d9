//! # laab-graph — the computational-graph IR (the "Graph mode" machinery)
//!
//! The paper's Sec. III describes the two execution modes of TF/PyT: Eager
//! (op-by-op) and Graph (trace to a DAG, optimize, execute). This crate is
//! the Graph half of the analogue framework:
//!
//! * [`Graph`] / [`GraphBuilder`] — a DAG of matrix operations with static
//!   shape inference. Tracing a user function appends nodes *without*
//!   deduplication, producing the "Initial Graph" of the paper's Fig. 3;
//!   loops in user code unroll at trace time (like `tf.function` retracing
//!   a Python `range(3)` loop), which is what makes loop-invariant code
//!   motion reduce to CSE.
//! * [`passes`] — the Grappler-analogue optimizer: transpose folding into
//!   GEMM flags, hash-consing CSE (duplicate-node elimination, Fig. 3's
//!   "Optimized Graph"), scale fusion (`S + S → 2·S`, folded into the GEMM
//!   `alpha`, the BLAS observation in Experiment 1), and dead-code
//!   elimination. The pipeline is deliberately *exactly* this inventory —
//!   no chain re-association, no property dispatch, no distributivity —
//!   because that is what the paper measures the frameworks doing. One
//!   lowering lives beside it for LA-aware callers only:
//!   [`passes::lower_syrk`] turns a product of a node with its own
//!   transpose into a unary `Syrk` node (Experiment 3).
//! * [`exec`] — the one reference-counting executor: a sweep in
//!   topological order that dispatches each kernel-backed node through a
//!   `laab-backend` execution backend, recording kernel calls and FLOPs
//!   for the analytical tables. [`execute`] runs a graph once on the live
//!   engine; for systems that re-execute one graph many times (the
//!   `laab-serve` plan cache), [`Schedule`] precomputes the structural
//!   bookkeeping — use counts and the peak-live workspace layout — and
//!   [`execute_scheduled_on`] (one request) / [`execute_batched_on`] (a
//!   batch of coalesced same-signature requests) re-run the sweep against
//!   fresh operand bindings through any backend.
//! * [`batch`] — [`BatchAnalysis`] classifies each node shared/stacked
//!   and proves RHS-stackability, so a batch runs as one sweep (a
//!   multi-RHS product for every shared·varying matmul), and otherwise
//!   one environment at a time.
//! * [`Graph::to_dot`] — Graphviz export regenerating the paper's
//!   Figs. 3 & 4.

#![deny(missing_docs)]

pub mod batch;
pub mod exec;
mod ir;
pub mod passes;

pub use batch::{BatchAnalysis, BatchStatus};
pub use exec::{execute, execute_batched_on, execute_scheduled_on, Schedule};
pub use ir::{Graph, GraphBuilder, Node, NodeId, OpKind};
pub use passes::{optimize, PassConfig, PassStats};
