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
//! * [`passes`] — the one graph builder, the Grappler analogue: transpose
//!   folding into GEMM flags, hash-consing CSE (duplicate-node elimination,
//!   Fig. 3's "Optimized Graph"), scale fusion (`S + S → 2·S`, folded into
//!   the GEMM `alpha`, the BLAS observation in Experiment 1), and dead-code
//!   elimination, each a step taken while a node is built and each a
//!   [`PassConfig`] switch. The inventory is deliberately *exactly* this —
//!   no chain re-association, no property dispatch, no distributivity —
//!   because that is what the paper measures the frameworks doing. Two
//!   front ends feed it: [`optimize`] rebuilds a framework's trace, and
//!   [`lower`] walks the expression the LA-aware served compiler
//!   (`laab-serve`) chose, with the one option the frameworks never set:
//!   building the unary [`OpKind::Syrk`] node (Experiment 3).
//! * [`exec`] — the one reference-counting executor: a sweep in
//!   topological order that dispatches each kernel-backed node through a
//!   `laab-backend` execution backend, recording kernel calls and FLOPs
//!   for the analytical tables. [`execute`] runs a graph once on the live
//!   engine; for systems that re-execute one graph many times (the
//!   `laab-serve` plan cache), [`Schedule`] precomputes the structural
//!   bookkeeping — use counts and the peak-live workspace layout — and
//!   [`execute_scheduled_on`] (one request) / [`execute_hoisted_on`] (a
//!   batch of coalesced same-signature requests) re-run the sweep against
//!   fresh operand bindings through any backend.
//! * [`batch`] — [`BatchAnalysis`] classifies each node shared/stacked
//!   and proves RHS-stackability, so a batch runs as one sweep (a
//!   multi-RHS product for every shared·varying matmul), and otherwise
//!   one environment at a time. It also names the shared nodes a
//!   per-request node reads, which a serving plan hoists: evaluated once
//!   per binding of the shared operands ([`hoisted_values`]) and borrowed
//!   by every later sweep ([`execute_hoisted_on`]).
//! * [`Graph::to_dot`] — Graphviz export regenerating the paper's
//!   Figs. 3 & 4.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod batch;
pub mod exec;
mod ir;
mod lower;
pub mod passes;

pub use batch::{BatchAnalysis, BatchStatus};
pub use exec::{execute, execute_hoisted_on, execute_scheduled_on, hoisted_values, Schedule};
pub use ir::{Graph, GraphBuilder, Node, NodeId, OpKind};
pub use lower::lower;
pub use passes::{optimize, rebuild, PassConfig, PassStats};
