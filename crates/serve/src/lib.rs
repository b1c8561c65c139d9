//! # laab-serve — the compiled-plan cache and request-serving layer
//!
//! The paper's graph-mode columns exist because `tf.function` does not
//! re-trace on every call: it keys a cache of compiled *concrete
//! functions* on the call signature (structure, shapes, dtype) and
//! amortizes tracing + optimization across calls, retracing only when the
//! signature changes. The experiment suite (`laab-core`) exercises that
//! machinery once per experiment; this crate builds the layer that
//! *amortizes* it — turning the one-shot benchmark into a system that
//! sustains load, the ROADMAP's serving direction:
//!
//! * [`Signature`] — a canonical description of one request: expression
//!   structure, operand shapes, property flags, and element dtype, with a
//!   fast stable (FNV-1a) hash. Two calls with equal signatures may share
//!   a compiled plan; a changed signature must retrace.
//! * [`Plan`] — the compiled artifact: a [`Graph`](laab_graph::Graph)
//!   lowered in one walk from the chosen expression (transposes as GEMM
//!   flags, scalings as `alpha`, shared subexpressions as shared nodes)
//!   plus a precomputed [`Schedule`](laab_graph::Schedule) (reference
//!   counts and the peak-live workspace layout). Built once per
//!   signature, re-executed with fresh operand bindings; a plan-cache
//!   hit is bitwise-identical to a cold compile.
//! * [`PlanCache`] — a sharded, LRU-bounded concurrent cache from
//!   signature to plan (each shard a flat, fixed-capacity list of
//!   entries), with hit/miss/retrace/eviction counters mirroring
//!   `tf.function`'s retrace semantics.
//! * [`workload`] — synthetic request families drawn from the paper's
//!   Experiments 1–5 (CSE traps, chains, Gram products, slicing,
//!   distributivity, solver residuals), each declaring which operands
//!   are request-varying payloads (the data batched execution
//!   column-stacks).
//! * [`admission`] — the work-conserving **admission window**: pending
//!   same-signature requests coalesce into batches of up to
//!   `--batch-window`, which an executor runs once via
//!   [`Plan::execute_batched`] (one stacked sweep where the compile-time
//!   analysis proves it legal, answered member by member otherwise —
//!   either way each member's bits are its solo execution's).
//! * [`server`] / [`proto`] / [`loadgen`] — the socket server
//!   (`laab serve --listen`), its length-prefixed wire protocol, and the
//!   load generator (`laab loadgen`) that drives it from outside and
//!   verifies every completed response bitwise against a local oracle.
//!   Throughput, latency and per-layer cost are measured from outside
//!   the process, by `benchmark/run.sh`, not by this crate.
//!
//! Signatures (and therefore cached plans) carry the execution
//! [`BackendId`] they target, so one server answers requests for several
//! `laab-backend` backends (`laab serve --backends engine,reference`) without
//! their plans ever aliasing in the cache.
//!
//! Signatures also carry the [`OptLevel`] the plan compiles through.
//! The served path picks it per expression ([`OptLevel::for_input`]:
//! `laab-rewrite`'s equality-saturation optimizer runs ahead of the
//! lowering once the input's modeled cost reaches
//! [`EGRAPH_MIN_COST`]).
//!
//! Surfaced on the CLI as `laab serve`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
mod cache;
mod config;
mod error;
pub mod fault;
pub mod loadgen;
mod lower;
mod plan;
pub mod proto;
pub mod server;
mod signature;
pub mod workload;

pub use admission::{AdmissionQueue, AdmissionStats, FlushKind, SubmitOutcome};
pub use cache::{CacheStats, Lookup, PlanCache};
pub use config::ServeConfig;
pub use error::ServeError;
pub use fault::{FaultCounts, FaultInjector, FaultKind, FaultPlan};
pub use laab_backend::BackendId;
pub use loadgen::{Arrival, LoadgenConfig, LoadgenReport};
pub use plan::Plan;
pub use proto::{FrameError, Message, RequestMsg, ResponseMsg};
pub use server::{Listen, Server, ServerStats};
pub use signature::{Dtype, OptLevel, Signature, EGRAPH_MIN_COST};
