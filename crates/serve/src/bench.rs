//! The multi-client, multi-backend serving loop and its report.
//!
//! Clients are tasks on the `laab-kernels` persistent worker pool
//! ([`parallel_for`]): the request stream is first coalesced by the
//! **admission window** — pending requests with identical
//! `(Signature, BackendId)` (same family, size, and dtype) are grouped
//! into batches of up to `batch_window` — and each client drains whole
//! batches, driving every batch through **each selected backend in
//! turn**: one plan-cache lookup per `(batch, backend)` (compiling on a
//! miss — the cold trace), then the batch's executions against the
//! per-request operand bindings.
//!
//! With batching enabled, every batch of two or more requests runs
//! **both** legs, interleaved at batch granularity:
//!
//! * the **solo** leg executes the plan once per request — what a
//!   non-batching server pays per request (minus its per-request cache
//!   lookup, a deliberate bias *against* batching, so the measured
//!   speedup is conservative); and
//! * the **batched** leg executes the plan once over all the batch's
//!   environments ([`Plan::execute_batched`]) — column-stacked multi-RHS
//!   GEMM where the compile-time analysis proved it legal, the
//!   bitwise-identical per-request fallback otherwise.
//!
//! The batched leg is the *serving* path (its per-request share, plus
//! the amortized lookup, is the reported latency); the solo leg exists
//! so the batched-vs-solo ratio is measured under identical interleaved
//! machine state — the same 1-CPU protocol the backend A/B and the GEMM
//! bench's seed ratio use: transient load hits both legs equally, so the
//! *ratio* stays stable even when absolute latencies jitter.
//!
//! The harness reports per-backend requests/s, p50/p99, batch-lookup hit
//! rates, the batched-vs-solo split (overall, per backend, and per
//! family), the occupancy histogram, and the cache counters (now
//! including eviction-induced recompiles) as a `BENCH_serve.json`
//! document.
//!
//! Like every timing in the suite, numbers are *recorded* unconditionally
//! and *asserted* only under `LAAB_STRICT_TIMING=1`.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use laab_backend::{registry, BackendScalar, Dtype, Registration};
use laab_expr::eval::Env;
use laab_framework::Framework;
use laab_kernels::parallel_for;
use laab_stats::Samples;

use crate::admission::AdmissionQueue;
use crate::cache::{Lookup, PlanCache};
use crate::plan::{EgraphReport, Plan};
use crate::proto::FrameError;
use crate::signature::OptLevel;
use crate::workload::{synthetic_mix, Family, Request};

/// Schema tag of the `BENCH_serve.json` report, bumped on breaking
/// changes. `v7`: the `deferred` record — when the lazy tape backend is
/// among `--backends`, the report carries its tape/flush/fusion counters
/// (tape lengths, flush reasons, fused vs. unfused op counts), the
/// modeled dispatch-vs-compute nanosecond split per family, the
/// interleaved fusion-on/fusion-off A/B, and post-drain engine-vs-tape
/// equivalence probes. (`v6` added the optimizer A/B: `opt_levels`,
/// `opt_families`, cross-level probes, and the
/// `saturation_budget_hits` fallback count; `v5` the overload sweep
/// through a bounded backlog; `v4` the live `admission` record and the
/// window × arrival-rate `sweep` grid. The flush-timer fields of `v4`
/// stay in the schema at `0`, the value a queue without a timer always
/// reported.)
pub const SERVE_REPORT_SCHEMA: &str = "laab-serve-bench-v7";

/// Configuration of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Synthetic requests to drain (each is driven through every
    /// selected backend).
    pub requests: usize,
    /// Serving clients (pool tasks); `0` means detected hardware
    /// parallelism (capped at 8 — beyond that the 1-socket kernels are
    /// the bottleneck, not the serving layer).
    pub clients: usize,
    /// Base operand size of the request families.
    pub n: usize,
    /// Seed for the request stream and the operand pools.
    pub seed: u64,
    /// `true` for the CI smoke protocol (recorded in the report).
    pub smoke: bool,
    /// Plan-cache capacity **per lane** (one lane = one backend ×
    /// optimizer level): the shared cache is bounded to `cache_capacity ×
    /// backends × levels`, so total capacity scales with the full A/B
    /// width. The cache itself stays hash-sharded (not partitioned per
    /// lane), so isolation is proportional sizing, not a hard guarantee —
    /// size generously relative to the distinct-signature count when
    /// eviction-free per-backend counters matter.
    pub cache_capacity: usize,
    /// Plan-cache shard count.
    pub shards: usize,
    /// Every `churn_every`-th request changes signature (0 disables);
    /// see [`synthetic_mix`].
    pub churn_every: usize,
    /// Registry names of the backends to drive, first = the ratio
    /// baseline. One entry is a plain serving run; several is an A/B
    /// under identical interleaved traffic.
    pub backends: Vec<String>,
    /// Pin every request to one precision (`None` = mixed f32/f64).
    pub dtype: Option<Dtype>,
    /// Admission-window size: pending same-signature requests coalesce
    /// into batches of up to this many. `0` or `1` disables batching
    /// (every request is its own batch — the pre-v3 serving loop).
    pub batch_window: usize,
    /// Offered load of the live (arrival-paced) measurement phases,
    /// requests per second. Arrivals are open-loop Poisson at this rate;
    /// the sweep also probes a quarter of it.
    pub arrival_rate: f64,
    /// Network server: per-connection in-flight cap. A connection with
    /// this many unanswered requests gets `Busy{retry_after_us}` instead
    /// of queue growth. `0` = unlimited (the pre-v5 behavior).
    pub max_inflight: usize,
    /// Network server: global admission-backlog bound in requests.
    /// Submits past it are shed with a `Busy` response; past *half* of
    /// it, groups flush early (pressure) to favor latency. `0` =
    /// unbounded. The in-process drained-backlog phases ignore this (the
    /// whole stream is pending by construction); the overload sweep and
    /// the network server enforce it.
    pub backlog: usize,
    /// Network server: quarantine a `(signature, backend)` after this
    /// many caught execution panics — further requests for it fail fast
    /// instead of re-poisoning executors. `0` = never quarantine.
    pub quarantine_after: u32,
    /// Network server: reader-side socket read timeout, milliseconds. A
    /// connection silent for this long is reaped (counted, connection
    /// dropped) instead of pinning its reader thread forever. `0` =
    /// wait forever (the pre-v5 behavior).
    pub read_timeout_ms: u64,
    /// Deterministic fault injection for the network server; `None`
    /// injects nothing.
    pub faults: Option<crate::fault::FaultPlan>,
    /// The optimizer level the in-process bench pins its drain lanes to.
    /// [`OptLevel::Passes`] compiles every lane through the trace-time
    /// pass pipeline alone. [`OptLevel::Egraph`] **A/Bs both levels
    /// interleaved** (like the backend axis): every batch compiles and
    /// executes once per level, the cache keys entries per level, and
    /// the report adds per-level and per-family comparisons plus
    /// cross-level numeric probes. Pinning exists for that comparison
    /// only: the network server (`--listen`), the load generator's
    /// oracle and the bench's live phases ignore this field and compile
    /// at the level [`OptLevel::for_input`] picks per expression.
    pub opt: OptLevel,
    /// Modeled accelerator dispatch latency of the `deferred` backend,
    /// microseconds **per flush group** (not per op — amortizing this
    /// constant over fused groups is the whole point of the tape).
    /// Ignored unless `deferred` is among the backends.
    pub dispatch_us: u64,
    /// Whether the `deferred` backend's flush pass fuses queued ops
    /// (`false` = one dispatch group per op — the unfused baseline the
    /// report's fusion A/B measures against).
    pub fusion: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            requests: 2048,
            clients: 0,
            n: 192,
            seed: 0x1AAB,
            smoke: false,
            cache_capacity: 64,
            shards: 8,
            churn_every: 16,
            backends: vec!["engine".to_string()],
            dtype: None,
            batch_window: 8,
            arrival_rate: 2000.0,
            max_inflight: 256,
            backlog: 2048,
            quarantine_after: 3,
            read_timeout_ms: 30_000,
            faults: None,
            opt: OptLevel::Passes,
            dispatch_us: 5,
            fusion: true,
        }
    }
}

impl ServeConfig {
    /// The CI smoke protocol: tiny operands, a short stream, the same
    /// mixed-signature shape as the full run.
    pub fn smoke() -> Self {
        Self { requests: 320, n: 48, smoke: true, ..Self::default() }
    }

    /// Start a validating [`ServeConfigBuilder`] from the defaults. The
    /// builder is the supported construction path: it rejects unknown
    /// backends, zero shards and an explicit `--clients 0` at `build()`
    /// time, before any request is dispatched. Struct-literal
    /// construction still compiles (the fields are public) but skips
    /// that validation and is deprecated for CLI use.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { cfg: Self::default(), explicit_zero_clients: false }
    }

    /// A builder seeded from the smoke protocol instead of the defaults.
    pub fn smoke_builder() -> ServeConfigBuilder {
        ServeConfigBuilder { cfg: Self::smoke(), explicit_zero_clients: false }
    }

    /// The resolved client count. An explicit positive `clients` is used
    /// verbatim — never clamped. `0` (auto) detects hardware parallelism
    /// and caps it at 8: beyond that the 1-socket kernels are the
    /// bottleneck, not the serving layer. The cap applies **only** to
    /// auto-detection; pass an explicit count to exceed it on bigger
    /// boxes. The report records both `clients_requested` and
    /// `clients_resolved` so sweeps stay interpretable either way.
    pub fn resolved_clients(&self) -> usize {
        if self.clients > 0 {
            self.clients
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
        }
    }

    /// Whether the admission window actually coalesces (`batch_window ≥ 2`).
    pub fn batching_enabled(&self) -> bool {
        self.batch_window >= 2
    }

    /// The optimizer levels the run drives, in lane order. `--opt
    /// passes` serves one level; `--opt egraph` A/Bs the pass pipeline
    /// against equality saturation under identical interleaved traffic
    /// (the pass pipeline stays in as the baseline leg, exactly like the
    /// first-listed backend anchors the backend ratio).
    pub fn opt_levels(&self) -> Vec<OptLevel> {
        match self.opt {
            OptLevel::Passes => vec![OptLevel::Passes],
            OptLevel::Egraph => vec![OptLevel::Passes, OptLevel::Egraph],
        }
    }

    /// The deferred backend's tape tuning for this run: the configured
    /// dispatch charge and fusion switch over the default tape capacity.
    pub fn deferred_tuning(&self) -> laab_deferred::Tuning {
        laab_deferred::Tuning {
            dispatch_ns: self.dispatch_us.saturating_mul(1_000),
            fuse: self.fusion,
            ..laab_deferred::Tuning::default()
        }
    }
}

/// Validating builder for [`ServeConfig`] — see [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
    explicit_zero_clients: bool,
}

impl ServeConfigBuilder {
    /// Synthetic requests to drain (clamped to ≥ 1).
    pub fn requests(mut self, v: usize) -> Self {
        self.cfg.requests = v.max(1);
        self
    }

    /// Explicit serving-client count. `0` is rejected at `build()` — it
    /// is not "all cores"; use [`clients_auto`](Self::clients_auto) (or
    /// omit) for capped auto-detection, or pass the core count you mean.
    pub fn clients(mut self, v: usize) -> Self {
        if v == 0 {
            self.explicit_zero_clients = true;
        } else {
            self.cfg.clients = v;
            self.explicit_zero_clients = false;
        }
        self
    }

    /// Auto-detect the client count (hardware parallelism, capped at 8).
    pub fn clients_auto(mut self) -> Self {
        self.cfg.clients = 0;
        self.explicit_zero_clients = false;
        self
    }

    /// Base operand size of the request families.
    pub fn n(mut self, v: usize) -> Self {
        self.cfg.n = v.max(2);
        self
    }

    /// Seed for the request stream and the operand pools.
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
        self
    }

    /// Mark the run as the CI smoke protocol.
    pub fn smoke(mut self, v: bool) -> Self {
        self.cfg.smoke = v;
        self
    }

    /// Plan-cache capacity per backend (clamped to ≥ 1).
    pub fn cache_capacity(mut self, v: usize) -> Self {
        self.cfg.cache_capacity = v.max(1);
        self
    }

    /// Plan-cache shard count (validated > 0 at `build()`).
    pub fn shards(mut self, v: usize) -> Self {
        self.cfg.shards = v;
        self
    }

    /// Signature-churn period (0 disables churn).
    pub fn churn_every(mut self, v: usize) -> Self {
        self.cfg.churn_every = v;
        self
    }

    /// Registry names of the backends to drive (validated at `build()`).
    pub fn backends<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.cfg.backends = names.into_iter().map(Into::into).collect();
        self
    }

    /// Pin the stream to one precision (`None` = mixed).
    pub fn dtype(mut self, v: Option<Dtype>) -> Self {
        self.cfg.dtype = v;
        self
    }

    /// Admission-window occupancy (`0`/`1` disables coalescing).
    pub fn batch_window(mut self, v: usize) -> Self {
        self.cfg.batch_window = v;
        self
    }

    /// Offered load of the live phases, requests/s (clamped to ≥ 1).
    pub fn arrival_rate(mut self, v: f64) -> Self {
        self.cfg.arrival_rate = if v.is_finite() { v.max(1.0) } else { 1.0 };
        self
    }

    /// Per-connection in-flight cap (`0` = unlimited).
    pub fn max_inflight(mut self, v: usize) -> Self {
        self.cfg.max_inflight = v;
        self
    }

    /// Global admission-backlog bound in requests (`0` = unbounded).
    pub fn backlog(mut self, v: usize) -> Self {
        self.cfg.backlog = v;
        self
    }

    /// Quarantine a signature after this many caught panics (`0` =
    /// never).
    pub fn quarantine_after(mut self, v: u32) -> Self {
        self.cfg.quarantine_after = v;
        self
    }

    /// Reader-side socket read timeout, milliseconds (`0` = wait
    /// forever).
    pub fn read_timeout_ms(mut self, v: u64) -> Self {
        self.cfg.read_timeout_ms = v;
        self
    }

    /// Deterministic fault-injection plan for the network server.
    pub fn faults(mut self, v: Option<crate::fault::FaultPlan>) -> Self {
        self.cfg.faults = v;
        self
    }

    /// The optimizer level to serve ([`OptLevel::Egraph`] A/Bs both
    /// levels interleaved; see [`ServeConfig::opt`]).
    pub fn opt(mut self, v: OptLevel) -> Self {
        self.cfg.opt = v;
        self
    }

    /// Modeled dispatch latency of the `deferred` backend, µs per flush
    /// group.
    pub fn dispatch_us(mut self, v: u64) -> Self {
        self.cfg.dispatch_us = v;
        self
    }

    /// Enable or disable flush-time fusion on the `deferred` backend.
    pub fn fusion(mut self, v: bool) -> Self {
        self.cfg.fusion = v;
        self
    }

    /// Validate and produce the config.
    ///
    /// # Errors
    /// [`ServeError::NoBackends`] / [`ServeError::UnknownBackend`] /
    /// [`ServeError::DuplicateBackend`] for a bad backend list,
    /// [`ServeError::ZeroShards`] for a shardless cache, and
    /// [`ServeError::ZeroClients`] for an explicit `clients(0)`.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        let cfg = self.cfg;
        resolve_backends(&cfg.backends)?;
        if cfg.shards == 0 {
            return Err(ServeError::ZeroShards);
        }
        if self.explicit_zero_clients {
            return Err(ServeError::ZeroClients);
        }
        Ok(cfg)
    }
}

/// Why a serving run, a server, or a load generator failed.
///
/// One error surface for the whole stack: configuration rejections
/// (`laab serve` turns them into an `error:` line and a usage exit code
/// instead of letting an invalid combination panic deep inside plan
/// dispatch) **and** the transport failures of the network layers —
/// bind/connect/accept, socket I/O, and frame decoding — as structured
/// variants whose [`source()`](std::error::Error::source) chain
/// preserves the underlying `io::Error`/[`FrameError`]. `laab loadgen`
/// and `laab serve` share this type, so both subcommands print failures
/// through the same display path.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// `--backends` named a backend the registry does not know.
    UnknownBackend {
        /// The name as requested.
        requested: String,
        /// Every name the registry currently resolves.
        available: Vec<String>,
    },
    /// The same backend was listed more than once.
    DuplicateBackend(String),
    /// A selected backend has no entry point for a dtype present in the
    /// request stream.
    UnsupportedDtype {
        /// The offending backend.
        backend: String,
        /// The dtype it cannot execute.
        dtype: Dtype,
    },
    /// The backend list was empty.
    NoBackends,
    /// The plan cache cannot have zero shards.
    ZeroShards,
    /// `--clients 0` was explicit. Zero is not "all cores": auto
    /// detection (the default) caps at 8, and explicit counts are taken
    /// verbatim — so an explicit zero is always a mistake.
    ZeroClients,
    /// A `--listen`/`--addr` spec that names neither a unix socket path
    /// nor a TCP address.
    BadListen(String),
    /// An `--arrival` spec that names no known arrival process.
    BadArrival(String),
    /// Binding the listener failed.
    Bind {
        /// The address as requested.
        addr: String,
        /// The underlying I/O failure.
        source: Arc<std::io::Error>,
    },
    /// Connecting to the server failed.
    Connect {
        /// The address as requested.
        addr: String,
        /// The underlying I/O failure.
        source: Arc<std::io::Error>,
    },
    /// Accepting a connection failed.
    Accept(Arc<std::io::Error>),
    /// Reading or writing an established socket failed.
    Socket(Arc<std::io::Error>),
    /// A frame could not be encoded or decoded.
    Frame(FrameError),
    /// The server rejected a request (its reason, verbatim).
    Rejected(String),
    /// The peer sent a well-formed frame that makes no sense at this
    /// point of the exchange (e.g. a request on a client connection).
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownBackend { requested, available } => {
                write!(f, "unknown backend `{requested}` (available: {})", available.join(", "))
            }
            ServeError::DuplicateBackend(name) => {
                write!(f, "backend `{name}` is listed more than once in --backends")
            }
            ServeError::UnsupportedDtype { backend, dtype } => write!(
                f,
                "backend `{backend}` does not support dtype {dtype} \
                 (restrict the stream with --dtype or drop the backend)"
            ),
            ServeError::NoBackends => write!(f, "--backends must name at least one backend"),
            ServeError::ZeroShards => write!(f, "--shards must be at least 1"),
            ServeError::ZeroClients => write!(
                f,
                "--clients 0 is not \"all cores\": omit the flag (or pass `auto`) for \
                 detected parallelism capped at 8, or pass the explicit count you mean \
                 (explicit counts are never clamped)"
            ),
            ServeError::BadListen(spec) => write!(
                f,
                "unintelligible listen address `{spec}` \
                 (use unix:<path>, tcp:<host:port>, a socket path, or host:port)"
            ),
            ServeError::BadArrival(spec) => write!(
                f,
                "unintelligible arrival process `{spec}` \
                 (use closed, poisson:<rate>, bursty:<rate>x<burst>, or replay:<file>)"
            ),
            ServeError::Bind { addr, source } => write!(f, "failed to bind {addr}: {source}"),
            ServeError::Connect { addr, source } => {
                write!(f, "failed to connect to {addr}: {source}")
            }
            ServeError::Accept(e) => write!(f, "failed to accept a connection: {e}"),
            ServeError::Socket(e) => write!(f, "socket I/O failed: {e}"),
            ServeError::Frame(e) => write!(f, "protocol error: {e}"),
            ServeError::Rejected(msg) => write!(f, "server rejected the request: {msg}"),
            ServeError::Protocol(what) => write!(f, "unexpected protocol message: {what}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } | ServeError::Connect { source, .. } => {
                Some(source.as_ref())
            }
            ServeError::Accept(e) | ServeError::Socket(e) => Some(e.as_ref()),
            ServeError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

impl PartialEq for ServeError {
    /// Structural equality; wrapped I/O errors compare by
    /// [`std::io::ErrorKind`] (the payload is not comparable).
    fn eq(&self, other: &Self) -> bool {
        use ServeError::*;
        match (self, other) {
            (
                UnknownBackend { requested: a, available: b },
                UnknownBackend { requested: c, available: d },
            ) => (a, b) == (c, d),
            (DuplicateBackend(a), DuplicateBackend(b)) => a == b,
            (
                UnsupportedDtype { backend: a, dtype: b },
                UnsupportedDtype { backend: c, dtype: d },
            ) => (a, b) == (c, d),
            (NoBackends, NoBackends) | (ZeroShards, ZeroShards) | (ZeroClients, ZeroClients) => {
                true
            }
            (BadListen(a), BadListen(b)) | (BadArrival(a), BadArrival(b)) => a == b,
            (Bind { addr: a, source: s1 }, Bind { addr: b, source: s2 })
            | (Connect { addr: a, source: s1 }, Connect { addr: b, source: s2 }) => {
                a == b && s1.kind() == s2.kind()
            }
            (Accept(a), Accept(b)) | (Socket(a), Socket(b)) => a.kind() == b.kind(),
            (Frame(a), Frame(b)) => a == b,
            (Rejected(a), Rejected(b)) | (Protocol(a), Protocol(b)) => a == b,
            _ => false,
        }
    }
}

/// Resolve the configured backend names against the registry, rejecting
/// unknowns and duplicates with a CLI-grade error.
pub(crate) fn resolve_backends(names: &[String]) -> Result<Vec<&'static Registration>, ServeError> {
    // The deferred backend lives above laab-backend in the crate graph,
    // so the registry only knows it once its crate has been touched;
    // make `--backends deferred` (and the error message's "available"
    // list) work without the caller knowing that.
    laab_deferred::ensure_registered();
    if names.is_empty() {
        return Err(ServeError::NoBackends);
    }
    let mut regs = Vec::with_capacity(names.len());
    let mut seen = HashSet::new();
    for name in names {
        if !seen.insert(name.as_str()) {
            return Err(ServeError::DuplicateBackend(name.clone()));
        }
        let reg = registry::find(name).ok_or_else(|| ServeError::UnknownBackend {
            requested: name.clone(),
            available: registry::names().iter().map(|n| n.to_string()).collect(),
        })?;
        regs.push(reg);
    }
    Ok(regs)
}

/// Cache counters as they appear in the JSON report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheStatsRecord {
    /// Lookups served from the cache (one lookup per batch × backend).
    pub hits: u64,
    /// Lookups that compiled a plan.
    pub misses: u64,
    /// Misses whose `(callsite, backend)` was already compiled under a
    /// different signature (the `tf.function` retrace event).
    pub retraces: u64,
    /// Plans evicted by the LRU bound.
    pub evictions: u64,
    /// Misses whose exact signature had been compiled before and was
    /// evicted — capacity churn, counted separately from first-compile
    /// misses (the ROADMAP cache-policy lens).
    pub evicted_recompiles: u64,
    /// Mean wall-clock milliseconds of one eviction-induced recompile
    /// (`0.0` when none occurred).
    pub mean_recompile_ms: f64,
    /// Plans resident at the end of the run.
    pub entries: usize,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
}

/// One backend's view of the interleaved run — the A/B row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendRecord {
    /// Registry name ([`laab_backend::BackendId`]).
    pub backend: String,
    /// Logical requests driven through this backend (= the stream
    /// length; every backend sees identical traffic).
    pub requests: usize,
    /// Plan-cache lookups through this backend — one per admitted batch
    /// (equals `requests` when batching is disabled).
    pub lookups: usize,
    /// Lookups served from this backend's cache entries.
    pub hits: usize,
    /// Lookups that compiled a plan for this backend.
    pub misses: usize,
    /// `hits / lookups` — per-backend, since every backend compiles its
    /// own plans (no cross-backend hits by construction).
    pub hit_rate: f64,
    /// Estimated sustained throughput had this backend served the stream
    /// alone at this client count: `requests / (busy_secs / clients)`,
    /// over the serving-leg latencies. (Backends share one interleaved
    /// run, so per-backend wall time is not directly observable.)
    pub requests_per_sec: f64,
    /// Median serving latency through this backend, milliseconds. With
    /// batching enabled this is the batched leg's per-request share
    /// (amortized lookup + batched execution / occupancy).
    pub p50_ms: f64,
    /// 99th-percentile serving latency through this backend, ms.
    pub p99_ms: f64,
    /// Mean serving latency through this backend, milliseconds.
    pub mean_ms: f64,
    /// Mean serving latency of this backend's compiling (cold-trace)
    /// batches.
    pub cold_trace_mean_ms: f64,
    /// Mean serving latency of this backend's cache-hit batches (`0.0`
    /// when the stream produced no hits).
    pub cache_hit_mean_ms: f64,
    /// Mean per-request latency of the solo leg over coalesced batches
    /// (occupancy ≥ 2); `0.0` when batching is off.
    pub solo_mean_ms: f64,
    /// Mean per-request latency of the batched leg over the same
    /// population; `0.0` when batching is off.
    pub batched_mean_ms: f64,
    /// `solo_mean_ms / batched_mean_ms` — the throughput step batching
    /// buys on this backend (`0.0` when batching is off).
    pub batched_speedup: f64,
    /// First-listed backend's mean latency over this backend's mean —
    /// `> 1` means this backend is faster than the baseline, `1.0` for
    /// the baseline itself. This is the paper-style cross-strategy ratio
    /// the A/B exists to measure.
    pub speedup_vs_first: f64,
}

/// Per-family latency aggregate (across all backends).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyRecord {
    /// Family identifier ([`Family::id`]).
    pub family: String,
    /// The paper experiment the family is drawn from.
    pub experiment: String,
    /// Whether this family's plan column-stacks under batching (the
    /// GEMV-shaped chain/solve families) or takes the per-request
    /// fallback (the matrix families).
    pub stackable: bool,
    /// Executions of this family (stream occurrences × backends).
    pub requests: usize,
    /// Executions served via a cache-hit batch.
    pub hits: usize,
    /// Median serving latency, milliseconds.
    pub p50_ms: f64,
    /// Mean serving latency, milliseconds.
    pub mean_ms: f64,
    /// Mean per-request solo-leg latency over coalesced batches (`0.0`
    /// when batching is off or the family never coalesced).
    pub solo_mean_ms: f64,
    /// Mean per-request batched-leg latency over the same population.
    pub batched_mean_ms: f64,
    /// `solo_mean_ms / batched_mean_ms` — the family's batching win.
    /// This is the acceptance number for the GEMV-shaped families: their
    /// solo leg is memory-bound Level-2 work, their batched leg one
    /// multi-RHS GEMM.
    pub batched_speedup: f64,
}

/// The admission window's view of the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchingRecord {
    /// Whether the window actually coalesced (`batch_window ≥ 2`).
    pub enabled: bool,
    /// The configured window.
    pub window: usize,
    /// Admitted batches (logical — every backend drives the same
    /// batches, so cache lookups are `batches × backends`).
    pub batches: usize,
    /// `requests / batches`.
    pub mean_occupancy: f64,
    /// Largest admitted batch.
    pub max_occupancy: usize,
    /// `occupancy_hist[i]` = batches of occupancy `i + 1`.
    pub occupancy_hist: Vec<usize>,
    /// Coalesced batches (occupancy ≥ 2) whose plan column-stacked.
    pub stacked_batches: usize,
    /// Coalesced batches that took the bitwise per-request fallback.
    pub fallback_batches: usize,
    /// Batches of occupancy 1 (no solo/batched split — one leg only).
    pub solo_batches: usize,
    /// Logical requests inside coalesced batches.
    pub batched_requests: usize,
    /// Mean per-request batched-leg latency over coalesced batches,
    /// all backends, milliseconds.
    pub batched_mean_ms: f64,
    /// Mean per-request solo-leg latency over the same population.
    pub solo_mean_ms: f64,
    /// `solo_mean_ms / batched_mean_ms` (`0.0` when nothing coalesced).
    pub batched_speedup: f64,
    /// Estimated sustained batched-leg throughput over coalesced
    /// executions: `executions / (busy_secs / clients)`.
    pub batched_requests_per_sec: f64,
    /// The solo-leg equivalent over the same population.
    pub solo_requests_per_sec: f64,
}

/// One live admission measurement: the queue's behavior under open-loop
/// Poisson arrivals at one `(window, rate)` operating point.
///
/// The drained-backlog phase cannot see queueing delay (every request is
/// already pending); these records come from the arrival-paced phases,
/// where coalescing depends on load: while every consumer is busy,
/// groups grow towards the window; at low rates a free consumer takes
/// each request as it arrives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionRecord {
    /// The occupancy window of this operating point.
    pub window: usize,
    /// Always `0`: the queue has no flush timer (field kept so the
    /// schema does not bump).
    pub deadline_us: u64,
    /// Offered load, requests per second.
    pub arrival_rate: f64,
    /// Requests offered at this point.
    pub requests: usize,
    /// Batches released.
    pub batches: usize,
    /// Batches released because a group filled its window or a free
    /// consumer took it.
    pub occupancy_flushes: u64,
    /// Always `0` (see `deadline_us`).
    pub deadline_flushes: u64,
    /// Partial batches released at queue close.
    pub drain_flushes: u64,
    /// Batches released early because the backlog crossed half capacity
    /// (always `0` for the unbounded live phases).
    pub pressure_flushes: u64,
    /// Requests refused at submit because the backlog was full (always
    /// `0` for the unbounded live phases).
    pub shed: u64,
    /// `requests / batches`.
    pub mean_occupancy: f64,
    /// Median queueing delay (submit → batch execution start), µs.
    pub queue_delay_p50_us: f64,
    /// 99th-percentile queueing delay, µs.
    pub queue_delay_p99_us: f64,
    /// Mean queueing delay, µs.
    pub queue_delay_mean_us: f64,
}

/// One overload operating point: arrival-paced traffic through a
/// **bounded** admission backlog with per-request deadlines. Where the
/// `sweep` grid measures queueing delay with an unbounded queue, this
/// sweep measures what the server *refuses*: past saturation, offered
/// load goes up while goodput plateaus — shed and expired counts absorb
/// the difference (`completed + shed + expired = requests`, exactly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadRecord {
    /// Offered load of this point, requests per second (a multiplier of
    /// the configured `arrival_rate`).
    pub arrival_rate: f64,
    /// Requests offered.
    pub requests: usize,
    /// Requests that executed before their deadline.
    pub completed: u64,
    /// Requests refused at submit (backlog full).
    pub shed: u64,
    /// Requests admitted but dropped at dequeue (deadline elapsed).
    pub expired: u64,
    /// Batches flushed early under backlog pressure.
    pub pressure_flushes: u64,
    /// The backlog bound this point ran under, in requests.
    pub backlog: usize,
    /// The per-request deadline, microseconds.
    pub deadline_us: u64,
    /// Offered load actually achieved: `requests / elapsed`.
    pub offered_rps: f64,
    /// Goodput: `completed / elapsed`. The curve of this against
    /// `offered_rps` is the capacity-planning output.
    pub goodput_rps: f64,
}

/// One optimizer level's view of the interleaved A/B — the `--opt` row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptLevelRecord {
    /// Level identifier ([`OptLevel::id`]): `"passes"` or `"egraph"`.
    pub level: String,
    /// Serving executions through this level (stream length × backends;
    /// every level sees identical traffic).
    pub executions: usize,
    /// Median serving latency through this level, milliseconds.
    pub p50_ms: f64,
    /// Mean serving latency through this level, milliseconds.
    pub mean_ms: f64,
    /// Compiled plans whose e-graph extraction chose a different tree
    /// than the input expression (always `0` for the passes level).
    pub changed_plans: usize,
    /// Compiles that hit a saturation budget and fell back to the input
    /// expression (always `0` for the passes level).
    pub saturation_budget_hits: u64,
}

/// Per-family extracted-cost vs. measured-latency comparison across the
/// two optimizer levels — the report the e-graph A/B exists to produce:
/// does the cost model's predicted win show up as a measured one?
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptFamilyRecord {
    /// Family identifier ([`Family::id`]).
    pub family: String,
    /// Whether extraction chose a different tree than the family's input
    /// expression (at the base operand size).
    pub changed: bool,
    /// Whether saturation hit a budget on this family (the plan then
    /// served the input expression through the pass pipeline alone).
    pub budget_hit: bool,
    /// Modeled cost of the extracted expression (cost-model ticks; see
    /// `laab_rewrite::CostModel`).
    pub extracted_cost: u64,
    /// Modeled cost of the input expression, same units.
    pub original_cost: u64,
    /// Mean measured serving latency through the passes level, ms.
    pub passes_mean_ms: f64,
    /// Mean measured serving latency through the egraph level, ms.
    pub egraph_mean_ms: f64,
    /// `passes_mean_ms / egraph_mean_ms` — the measured counterpart of
    /// `original_cost / extracted_cost` (`0.0` when unmeasured).
    pub egraph_speedup: f64,
}

/// One family's share of the deferred backend's accounting: where its
/// tape ops went (groups, fused vs. unfused) and what the modeled
/// dispatch charge cost next to the measured kernel time — the
/// per-family dispatch-vs-compute split the cost model exists to expose.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeferredFamilyRecord {
    /// Family identifier ([`Family::id`]).
    pub family: String,
    /// Ops this family's plans queued on tapes.
    pub tape_ops: u64,
    /// Flush groups dispatched (each charged one dispatch latency).
    pub groups: u64,
    /// Ops executed inside multi-op (fused) groups.
    pub fused_ops: u64,
    /// Ops dispatched alone.
    pub unfused_ops: u64,
    /// Modeled dispatch nanoseconds charged (`groups × dispatch_us ×
    /// 1000`, exactly — the charge is a configured constant).
    pub dispatch_ns: u64,
    /// Measured kernel nanoseconds inside flush groups.
    pub compute_ns: u64,
    /// `dispatch_ns / (dispatch_ns + compute_ns)` — the fraction of this
    /// family's deferred time that was launch overhead, not math.
    pub dispatch_share: f64,
    /// Mean per-request latency of the fusion-on A/B leg, ms.
    pub fused_mean_ms: f64,
    /// Mean per-request latency of the fusion-off leg (one dispatch
    /// group per op) over the same requests, interleaved.
    pub unfused_mean_ms: f64,
    /// `unfused_mean_ms / fused_mean_ms` — what flush-time fusion buys
    /// this family under the configured dispatch cost (`0.0` when
    /// unmeasured).
    pub fused_speedup: f64,
}

/// The deferred backend's view of the run: tape/flush/fusion counters
/// summed over every serving leg, the modeled dispatch-vs-compute split,
/// the interleaved fusion A/B, and the post-drain engine-equivalence
/// probes. Present in every report; all-zero with `enabled: false` when
/// `deferred` was not among the backends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeferredRecord {
    /// Whether the deferred backend was among `--backends`.
    pub enabled: bool,
    /// The configured per-group dispatch charge, µs.
    pub dispatch_us: u64,
    /// Whether flush-time fusion was on for the serving legs.
    pub fusion: bool,
    /// Tape capacity (queued ops that force a capacity flush).
    pub tape_capacity: usize,
    /// Total ops queued on tapes across all serving legs.
    pub tape_ops: u64,
    /// Longest tape observed at any flush.
    pub max_tape_len: u64,
    /// Flushes forced by a full tape.
    pub flush_capacity: u64,
    /// Flushes forced by an output materialization.
    pub flush_materialize: u64,
    /// Flushes forced by a host-side op reading a pending value.
    pub flush_barrier: u64,
    /// Dispatch groups launched (the unit the dispatch charge bills).
    pub groups: u64,
    /// Ops executed inside multi-op (fused) groups.
    pub fused_ops: u64,
    /// Ops dispatched alone.
    pub unfused_ops: u64,
    /// Total modeled dispatch nanoseconds (`groups × dispatch_us ×
    /// 1000`, exactly — CI asserts this identity).
    pub dispatch_ns: u64,
    /// Total measured kernel nanoseconds inside flush groups.
    pub compute_ns: u64,
    /// Post-drain engine-vs-deferred equivalence probes executed (one
    /// per distinct `(family, size, dtype)`).
    pub probes: usize,
    /// Probes disagreeing beyond the documented tolerance (relative
    /// distance > 1e-9 f64 / > 1e-3 f32). Soundness gate: CI asserts 0.
    pub mismatches: u64,
    /// Per-family splits, in [`Family::ALL`] order (families the stream
    /// never exercised are omitted).
    pub families: Vec<DeferredFamilyRecord>,
}

/// The full machine-readable report (`BENCH_serve.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Format tag ([`SERVE_REPORT_SCHEMA`]).
    pub schema: String,
    /// Whether the smoke protocol was used.
    pub smoke: bool,
    /// Logical requests drained.
    pub requests: usize,
    /// Serving executions: `requests × backends` (each request is driven
    /// through every selected backend, interleaved).
    pub executions: usize,
    /// The configured client count (`0` = auto-detect).
    pub clients_requested: usize,
    /// The client count actually used. Auto-detection caps at 8;
    /// explicit counts are never clamped — recording both keeps sweeps
    /// on bigger boxes interpretable.
    pub clients_resolved: usize,
    /// Base operand size.
    pub base_n: usize,
    /// Stream/operand seed.
    pub seed: u64,
    /// The dtype filter: `"mixed"`, `"f32"`, or `"f64"`.
    pub dtype: String,
    /// The configured admission window (`0`/`1` = batching off).
    pub batch_window: usize,
    /// Always `0`: admission has no flush timer (field kept so the
    /// schema does not bump).
    pub batch_deadline_us: u64,
    /// Offered load of the live phases, requests per second.
    pub arrival_rate: f64,
    /// Distinct signatures across the run (per-backend signatures — the
    /// compile workload; `backends × ` the stream's structural variety).
    pub distinct_signatures: usize,
    /// Wall-clock seconds for the whole drain. With batching enabled
    /// this includes the interleaved solo A/B leg, so it overstates the
    /// cost of pure batched serving — see [`BatchingRecord`] for the
    /// split.
    pub wall_secs: f64,
    /// Harness executions per wall second (`executions / wall_secs`;
    /// includes the A/B overhead when batching is on).
    pub requests_per_sec: f64,
    /// Median serving latency, milliseconds (all backends).
    pub p50_ms: f64,
    /// 99th-percentile serving latency, milliseconds (all backends).
    pub p99_ms: f64,
    /// Mean serving latency of executions in compiling batches (trace +
    /// optimize + schedule amortized over the batch), milliseconds.
    pub cold_trace_mean_ms: f64,
    /// Mean serving latency of executions in cache-hit batches. `0.0`
    /// when the stream produced no hits (every signature distinct).
    pub cache_hit_mean_ms: f64,
    /// `cold_trace_mean_ms / cache_hit_mean_ms` — the amortization a
    /// cache hit buys (> 1 when caching pays; `0.0` when the stream
    /// produced no hits).
    pub cache_hit_speedup: f64,
    /// The admission window's coalescing stats and the batched-vs-solo
    /// interleaved measurement (the deterministic backlog phase).
    pub batching: BatchingRecord,
    /// Live admission behavior at the configured operating point:
    /// open-loop Poisson arrivals at `arrival_rate` through the
    /// first-listed backend.
    pub admission: AdmissionRecord,
    /// The window × arrival-rate sweep grid (windows `{1, max(2,
    /// batch_window)}` × rates `{arrival_rate/4, arrival_rate}`), same
    /// measurement as `admission` on a shorter stream prefix.
    pub sweep: Vec<AdmissionRecord>,
    /// The overload sweep: goodput vs. offered load through a bounded
    /// backlog with per-request deadlines, at rate multipliers
    /// `{1, 2, 4, 8} × arrival_rate` over the sweep stream prefix.
    pub overload: Vec<OverloadRecord>,
    /// Shared plan-cache counters (all backends; per-backend entries are
    /// independent by signature construction).
    pub cache: CacheStatsRecord,
    /// Per-backend A/B records, in `--backends` order (first = ratio
    /// baseline).
    pub backends: Vec<BackendRecord>,
    /// Per-family aggregates, in experiment order.
    pub families: Vec<FamilyRecord>,
    /// The configured optimizer level (`"passes"` or `"egraph"`; the
    /// latter means both levels ran interleaved).
    pub opt: String,
    /// Per-level A/B records, in lane order (a single entry for
    /// passes-only runs).
    pub opt_levels: Vec<OptLevelRecord>,
    /// Per-family extracted-cost vs. measured-latency comparison (empty
    /// for passes-only runs).
    pub opt_families: Vec<OptFamilyRecord>,
    /// Post-drain cross-level numeric probes executed: one per distinct
    /// `(family, size, dtype)` × backend (0 for passes-only runs).
    pub opt_probes: usize,
    /// Probes where the two levels' outputs disagreed beyond the
    /// documented tolerance (relative distance > 1e-9 for f64, > 1e-3
    /// for f32). Soundness gate: CI asserts this is zero.
    pub opt_mismatches: u64,
    /// E-graph compiles that hit a saturation budget and fell back to
    /// the pass pipeline.
    pub saturation_budget_hits: u64,
    /// The deferred backend's tape/flush/fusion accounting and fusion
    /// A/B (`enabled: false`, all-zero, when `deferred` was not served).
    pub deferred: DeferredRecord,
}

impl ServeReport {
    /// Serialize as pretty-printed JSON (the on-disk `BENCH_serve.json`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ServeReport serializes infallibly")
    }

    /// Parse a report back from JSON text.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        let report: ServeReport = serde_json::from_str(text)?;
        if report.schema != SERVE_REPORT_SCHEMA {
            return Err(serde_json::Error(format!(
                "unsupported report schema `{}` (expected `{SERVE_REPORT_SCHEMA}`)",
                report.schema
            )));
        }
        Ok(report)
    }

    /// One-row-per-backend A/B overview for terminal output.
    pub fn backend_table(&self) -> laab_stats::Table {
        let mut t = laab_stats::Table::new(
            format!(
                "backend A/B — {} requests × {} backend(s), interleaved",
                self.requests,
                self.backends.len()
            ),
            &["backend", "req/s", "p50 [ms]", "p99 [ms]", "hit rate", "batch x", "vs first"],
        );
        for b in &self.backends {
            t.push_row(vec![
                b.backend.clone(),
                format!("{:.0}", b.requests_per_sec),
                format!("{:.3}", b.p50_ms),
                format!("{:.3}", b.p99_ms),
                format!("{:.3}", b.hit_rate),
                format!("{:.2}x", b.batched_speedup),
                format!("{:.2}x", b.speedup_vs_first),
            ]);
        }
        t
    }

    /// One-row-per-family overview for terminal output.
    pub fn summary_table(&self) -> laab_stats::Table {
        let mut t = laab_stats::Table::new(
            format!(
                "laab serve — {} requests × {} backend(s), {} clients, window {}, \
                 {:.0} exec/s, hit rate {:.3}",
                self.requests,
                self.backends.len(),
                self.clients_resolved,
                self.batch_window,
                self.requests_per_sec,
                self.cache.hit_rate
            ),
            &["family", "experiment", "requests", "stack", "p50 [ms]", "solo [ms]", "batch x"],
        );
        for f in &self.families {
            t.push_row(vec![
                f.family.clone(),
                f.experiment.clone(),
                f.requests.to_string(),
                if f.stackable { "rhs".into() } else { "fallback".to_string() },
                format!("{:.3}", f.p50_ms),
                format!("{:.3}", f.solo_mean_ms),
                format!("{:.2}x", f.batched_speedup),
            ]);
        }
        t
    }
}

/// Per-dtype operand bindings for one `(family, n)` pool entry.
struct EnvPair {
    f64: Env<f64>,
    f32: Env<f32>,
}

/// Lookup-outcome codes stored in the per-`(batch, backend)` slot array.
const OUTCOME_HIT: u8 = 1;
const OUTCOME_COMPILED: u8 = 2;

/// Batch-kind codes stored in the per-batch slot array.
const BATCH_SOLO: u8 = 1;
const BATCH_STACKED: u8 = 2;
const BATCH_FALLBACK: u8 = 3;

/// One admitted batch: stream indices of same-signature requests.
struct Batch {
    idx: Vec<usize>,
}

/// The deterministic backlog admission: the in-process loop is the
/// loopback composition of the same [`AdmissionQueue`] the network
/// server runs — every request submitted up front, then the queue closed
/// and drained. With no live timer, groups (keyed by family, size,
/// dtype — what determines the per-backend [`Signature`]) chunk at every
/// `window`-th arrival with the remainder drained at close, which is
/// exactly the pre-v4 fixed-count chunking; batches are re-emitted in
/// stream order of their first member, so the v3 counters stay
/// bit-for-bit deterministic.
fn admit(mix: &[Request], window: usize) -> Vec<Batch> {
    let flushed = AdmissionQueue::backlog(
        window,
        mix.iter().enumerate().map(|(i, r)| ((r.family, r.n, r.dtype), i)),
    );
    let mut batches: Vec<Batch> = flushed.into_iter().map(|b| Batch { idx: b.items }).collect();
    batches.sort_by_key(|b| b.idx[0]);
    batches
}

/// The per-execution / per-batch measurement slots shared by the clients.
/// A *lane* is one `(backend, optimizer level)` pair — the unit the A/B
/// interleaves; with `--opt passes` lanes coincide with backends.
struct Slots {
    /// Serving-leg latency per `(request, lane)` (ns).
    serving: Vec<AtomicU64>,
    /// Solo-leg latency per `(request, lane)` (ns).
    solo: Vec<AtomicU64>,
    /// Batched-leg per-request share per `(request, lane)` (ns; 0
    /// when the request's batch did not coalesce).
    batched: Vec<AtomicU64>,
    /// Lookup outcome per `(batch, lane)`.
    outcome: Vec<AtomicU8>,
    /// Batch kind per batch ([`BATCH_SOLO`]/[`BATCH_STACKED`]/
    /// [`BATCH_FALLBACK`]; identical across lanes — recorded from lane 0,
    /// the first backend's passes-level plan).
    kind: Vec<AtomicU8>,
    /// Per-family stackability as observed from the compiled plans
    /// (index = position in [`Family::ALL`]; 0 unknown, 1 stackable,
    /// 2 fallback).
    fam_stackable: Vec<AtomicU8>,
    /// What equality saturation did per `(family, n)` — recorded at
    /// e-graph-level compiles (deterministic per key: every compile of
    /// the same family and size extracts the same tree).
    egraph: Mutex<HashMap<(Family, usize), EgraphReport>>,
    /// E-graph compiles that hit a saturation budget and fell back.
    budget_hits: AtomicU64,
    /// Per-family deferred-backend accounting, indexed by position in
    /// [`Family::ALL`] (untouched when `deferred` is not a lane).
    deferred: Mutex<Vec<DeferredAccum>>,
}

/// One family's accumulated deferred-backend numbers: the tape counters
/// drained from the serving legs plus the interleaved fusion A/B sums.
#[derive(Debug, Clone, Copy, Default)]
struct DeferredAccum {
    /// Tape/flush/fusion/dispatch counters from the serving legs.
    stats: laab_deferred::RunStats,
    /// Total wall nanoseconds of the fusion-on A/B legs.
    fused_ns: u64,
    /// Total wall nanoseconds of the fusion-off legs, same requests.
    unfused_ns: u64,
    /// Requests the A/B legs drove (denominator for both means).
    ab_requests: u64,
}

/// Drive one batch through every `(backend, level)` lane, interleaved.
/// The solo and batched legs alternate order across `(batch, lane)` so
/// neither leg systematically benefits from the other's cache warming.
#[allow(clippy::too_many_arguments)]
fn drive_batch<T: BackendScalar>(
    bi: usize,
    batch: &Batch,
    mix: &[Request],
    envs: &[&Env<T>],
    lanes: &[(&'static Registration, OptLevel)],
    cache: &PlanCache,
    fw: &Framework,
    slots: &Slots,
    dtuning: laab_deferred::Tuning,
) {
    let nb = lanes.len();
    let occ = batch.idx.len();
    let req0 = &mix[batch.idx[0]];
    for (ki, &(reg, level)) in lanes.iter().enumerate() {
        let t_lookup = Instant::now();
        let sig = req0.signature_opt(reg.id(), level);
        let (plan, lookup) = cache.get_or_compile(sig, || {
            Plan::compile_opt(
                fw,
                &req0.family.expr(req0.n),
                &req0.family.ctx(req0.n),
                reg,
                req0.family.varying_operands(),
                level,
            )
        });
        let lookup_ns = t_lookup.elapsed().as_nanos() as u64;
        slots.outcome[bi * nb + ki].store(
            if lookup == Lookup::Hit { OUTCOME_HIT } else { OUTCOME_COMPILED },
            Ordering::Relaxed,
        );
        if lookup != Lookup::Hit {
            if let Some(rep) = plan.egraph_report() {
                if rep.budget_hit {
                    slots.budget_hits.fetch_add(1, Ordering::Relaxed);
                }
                slots.egraph.lock().expect("egraph reports").insert((req0.family, req0.n), rep);
            }
        }
        if ki == 0 {
            let kind = if occ < 2 {
                BATCH_SOLO
            } else if plan.stackable() {
                BATCH_STACKED
            } else {
                BATCH_FALLBACK
            };
            slots.kind[bi].store(kind, Ordering::Relaxed);
            let fam_idx = Family::ALL.iter().position(|f| *f == req0.family).unwrap();
            slots.fam_stackable[fam_idx]
                .store(if plan.stackable() { 1 } else { 2 }, Ordering::Relaxed);
        }

        let run_solo = || -> Vec<u64> {
            batch
                .idx
                .iter()
                .enumerate()
                .map(|(j, _)| {
                    let t = Instant::now();
                    std::hint::black_box(plan.execute::<T>(envs[j]));
                    t.elapsed().as_nanos() as u64
                })
                .collect()
        };
        let run_batched = || -> u64 {
            let t = Instant::now();
            std::hint::black_box(plan.execute_batched::<T>(envs));
            t.elapsed().as_nanos() as u64
        };

        let legs = || {
            if occ >= 2 {
                // Interleave the two legs, alternating which goes first.
                let (solo_each, batched_total) = if (bi + ki).is_multiple_of(2) {
                    let s = run_solo();
                    (s, run_batched())
                } else {
                    let b = run_batched();
                    (run_solo(), b)
                };
                let share = (lookup_ns + batched_total) / occ as u64;
                for (j, &r) in batch.idx.iter().enumerate() {
                    slots.solo[r * nb + ki].store(solo_each[j], Ordering::Relaxed);
                    slots.batched[r * nb + ki].store(batched_total / occ as u64, Ordering::Relaxed);
                    slots.serving[r * nb + ki].store(share, Ordering::Relaxed);
                }
            } else {
                let solo_each = run_solo();
                let r = batch.idx[0];
                slots.solo[r * nb + ki].store(solo_each[0], Ordering::Relaxed);
                slots.serving[r * nb + ki].store(lookup_ns + solo_each[0], Ordering::Relaxed);
            }
        };
        if reg.name() == laab_deferred::BACKEND_NAME {
            // Deferred lane: run the serving legs under the configured
            // tape tuning and drain the thread-local counters they
            // accumulate, then drive an extra interleaved fusion-on vs.
            // fusion-off pair (per-request tapes both ways — the only
            // variable is whether the flush pass fuses). The A/B legs'
            // own counters are discarded: the reported tape stats
            // describe the serving legs alone.
            let _ = laab_deferred::take_run_stats();
            laab_deferred::with_tuning(dtuning, legs);
            let stats = laab_deferred::take_run_stats();
            // The A/B replays the batch in its serving shape: coalesced
            // windows go through `execute_batched`, so fusion-off pays
            // one launch per right-hand side where fusion-on pays one
            // per window — the cross-request fusion win, measured on the
            // chain/solve windows where it exists.
            let ab = |fuse: bool| -> u64 {
                let t = Instant::now();
                laab_deferred::with_tuning(laab_deferred::Tuning { fuse, ..dtuning }, || {
                    if occ >= 2 {
                        std::hint::black_box(plan.execute_batched::<T>(envs));
                    } else {
                        std::hint::black_box(plan.execute::<T>(envs[0]));
                    }
                });
                t.elapsed().as_nanos() as u64
            };
            let (fused_ns, unfused_ns) = if (bi + ki).is_multiple_of(2) {
                let f = ab(true);
                (f, ab(false))
            } else {
                let u = ab(false);
                (ab(true), u)
            };
            let _ = laab_deferred::take_run_stats();
            let fam_idx = Family::ALL.iter().position(|f| *f == req0.family).unwrap();
            let mut acc = slots.deferred.lock().expect("deferred accounting");
            let a = &mut acc[fam_idx];
            a.stats.merge(&stats);
            a.fused_ns += fused_ns;
            a.unfused_ns += unfused_ns;
            a.ab_requests += occ as u64;
        } else {
            legs();
        }
    }
}

/// Execute one request's plan at both optimizer levels through `reg` and
/// compare the outputs — the post-drain soundness probe. The cache is
/// warm, so both lookups are hits (compile is a fallback for streams
/// shorter than the key set). The request's payload vectors are drawn on
/// top of the pool bindings exactly as the drain did, so the comparison
/// covers the served data. Returns `true` on disagreement beyond `tol`
/// (relative distance).
fn probe_levels<T: BackendScalar>(
    req: &Request,
    pool_env: &Env<T>,
    reg: &'static Registration,
    cache: &PlanCache,
    fw: &Framework,
    seed: u64,
    tol: f64,
) -> bool {
    let owned;
    let env: &Env<T> = if req.family.payload_operands().is_empty() {
        pool_env
    } else {
        owned = req.env_from_pool(pool_env, seed);
        &owned
    };
    let run = |opt: OptLevel| {
        let (plan, _) = cache.get_or_compile(req.signature_opt(reg.id(), opt), || {
            Plan::compile_opt(
                fw,
                &req.family.expr(req.n),
                &req.family.ctx(req.n),
                reg,
                req.family.varying_operands(),
                opt,
            )
        });
        plan.execute::<T>(env)
    };
    let passes = run(OptLevel::Passes);
    let egraph = run(OptLevel::Egraph);
    passes.len() != egraph.len() || passes.iter().zip(&egraph).any(|(a, b)| !a.approx_eq(b, tol))
}

/// Execute one request's plan through `engine` and through the deferred
/// tape on identical bindings and compare — the deferred soundness
/// probe. Fusion's value-changing rewrites (alpha folding, same-LHS
/// coalescing) are ULP-level, so the tolerance matches the optimizer
/// probes; everything else the tape does is pure reordering and stays
/// bitwise. Returns `true` on disagreement beyond `tol`.
#[allow(clippy::too_many_arguments)]
fn probe_deferred<T: BackendScalar>(
    req: &Request,
    pool_env: &Env<T>,
    deferred: &'static Registration,
    engine: &'static Registration,
    cache: &PlanCache,
    fw: &Framework,
    seed: u64,
    dtuning: laab_deferred::Tuning,
    tol: f64,
) -> bool {
    let owned;
    let env: &Env<T> = if req.family.payload_operands().is_empty() {
        pool_env
    } else {
        owned = req.env_from_pool(pool_env, seed);
        &owned
    };
    let run = |reg: &'static Registration| {
        let (plan, _) = cache.get_or_compile(req.signature(reg.id()), || {
            Plan::compile_with_varying(
                fw,
                &req.family.expr(req.n),
                &req.family.ctx(req.n),
                reg,
                req.family.varying_operands(),
            )
        });
        plan.execute::<T>(env)
    };
    let want = run(engine);
    let got =
        laab_deferred::with_tuning(laab_deferred::Tuning { dispatch_ns: 0, ..dtuning }, || {
            run(deferred)
        });
    let _ = laab_deferred::take_run_stats();
    want.len() != got.len() || want.iter().zip(&got).any(|(a, b)| !a.approx_eq(b, tol))
}

/// One live-phase job: a stream index plus its submit time (the
/// queue-delay anchor).
struct LiveJob {
    idx: usize,
    at: Instant,
}

/// Execute one live batch through `reg`: one cache lookup, then the
/// batched execution (solo at occupancy 1) — the serving leg only, no
/// A/B interleave; the live phases measure queueing, not kernels.
fn execute_live<T: BackendScalar>(
    idx: &[usize],
    mix: &[Request],
    pool_env: &Env<T>,
    reg: &'static Registration,
    cache: &PlanCache,
    fw: &Framework,
    seed: u64,
) {
    let req0 = &mix[idx[0]];
    let has_payload = !req0.family.payload_operands().is_empty();
    let owned: Vec<Env<T>> = if has_payload {
        idx.iter().map(|&r| mix[r].env_from_pool(pool_env, seed)).collect()
    } else {
        Vec::new()
    };
    let refs: Vec<&Env<T>> =
        if has_payload { owned.iter().collect() } else { idx.iter().map(|_| pool_env).collect() };
    let (plan, _) = cache.get_or_compile(req0.signature(reg.id()), || {
        Plan::compile_with_varying(
            fw,
            &req0.family.expr(req0.n),
            &req0.family.ctx(req0.n),
            reg,
            req0.family.varying_operands(),
        )
    });
    if refs.len() >= 2 {
        std::hint::black_box(plan.execute_batched::<T>(&refs));
    } else {
        std::hint::black_box(plan.execute::<T>(refs[0]));
    }
}

/// Measure the admission queue live: a producer paces the stream as an
/// open-loop Poisson process at `rate` requests/s, `clients` consumers
/// drain batches through the cache, and every request's queueing delay
/// (submit → batch execution start) is sampled.
#[allow(clippy::too_many_arguments)]
fn live_phase(
    mix: &[Request],
    pools: &HashMap<(Family, usize), EnvPair>,
    reg: &'static Registration,
    cache: &PlanCache,
    fw: &Framework,
    clients: usize,
    window: usize,
    rate: f64,
    seed: u64,
) -> AdmissionRecord {
    let queue: AdmissionQueue<(Family, usize, Dtype), LiveJob> = AdmissionQueue::new(window, None);
    let delays: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(mix.len()));
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            let queue = &queue;
            let delays = &delays;
            scope.spawn(move || {
                let mut local = Vec::new();
                while let Some(batch) = queue.next_batch() {
                    let start = Instant::now();
                    for job in &batch.items {
                        local.push(start.duration_since(job.at).as_nanos() as f64 / 1e3);
                    }
                    let idx: Vec<usize> = batch.items.iter().map(|j| j.idx).collect();
                    let req0 = &mix[idx[0]];
                    let pool = &pools[&(req0.family, req0.n)];
                    match req0.dtype {
                        Dtype::F64 => execute_live(&idx, mix, &pool.f64, reg, cache, fw, seed),
                        Dtype::F32 => execute_live(&idx, mix, &pool.f32, reg, cache, fw, seed),
                    }
                }
                delays.lock().expect("delay samples").extend(local);
            });
        }
        let queue = &queue;
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA11A_1DED);
            let t0 = Instant::now();
            let mut offset = Duration::ZERO;
            for (i, r) in mix.iter().enumerate() {
                let u: f64 = rng.gen();
                offset += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
                let target = t0 + offset;
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                queue.submit((r.family, r.n, r.dtype), LiveJob { idx: i, at: Instant::now() });
            }
            queue.close();
        });
    });
    let stats = queue.stats();
    let samples = delays.into_inner().expect("delay samples");
    let (p50, p99, mean) = if samples.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        let s = Samples::new(samples);
        (s.median(), s.quantile(0.99), s.mean())
    };
    AdmissionRecord {
        window: queue.window(),
        deadline_us: 0,
        arrival_rate: rate,
        requests: mix.len(),
        batches: stats.batches() as usize,
        occupancy_flushes: stats.occupancy_flushes,
        deadline_flushes: stats.deadline_flushes,
        drain_flushes: stats.drain_flushes,
        pressure_flushes: stats.pressure_flushes,
        shed: stats.shed,
        mean_occupancy: if stats.batches() > 0 {
            mix.len() as f64 / stats.batches() as f64
        } else {
            0.0
        },
        queue_delay_p50_us: p50,
        queue_delay_p99_us: p99,
        queue_delay_mean_us: mean,
    }
}

/// One overload-phase job: a stream index, its submit time, and the
/// absolute instant its per-request deadline expires.
struct OverloadJob {
    idx: usize,
    deadline: Instant,
}

/// Measure the serving loop past saturation: a producer paces the stream
/// at `rate` through a queue **bounded** at `capacity`, each request
/// carrying a deadline of `req_deadline_us`. Consumers drop expired
/// requests at dequeue (the same pre-execution enforcement the network
/// server applies) and execute the rest. Every offered request lands in
/// exactly one of completed / shed / expired.
#[allow(clippy::too_many_arguments)]
fn overload_phase(
    mix: &[Request],
    pools: &HashMap<(Family, usize), EnvPair>,
    reg: &'static Registration,
    cache: &PlanCache,
    fw: &Framework,
    clients: usize,
    window: usize,
    capacity: usize,
    req_deadline_us: u64,
    rate: f64,
    seed: u64,
) -> OverloadRecord {
    let queue: AdmissionQueue<(Family, usize, Dtype), OverloadJob> =
        AdmissionQueue::bounded(window, None, capacity);
    let completed = AtomicU64::new(0);
    let expired = AtomicU64::new(0);
    let req_deadline = Duration::from_micros(req_deadline_us);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            let queue = &queue;
            let completed = &completed;
            let expired = &expired;
            scope.spawn(move || {
                while let Some(batch) = queue.next_batch() {
                    let now = Instant::now();
                    let mut live = Vec::with_capacity(batch.items.len());
                    for job in &batch.items {
                        if now >= job.deadline {
                            expired.fetch_add(1, Ordering::Relaxed);
                        } else {
                            live.push(job.idx);
                        }
                    }
                    if live.is_empty() {
                        continue;
                    }
                    let req0 = &mix[live[0]];
                    let pool = &pools[&(req0.family, req0.n)];
                    match req0.dtype {
                        Dtype::F64 => execute_live(&live, mix, &pool.f64, reg, cache, fw, seed),
                        Dtype::F32 => execute_live(&live, mix, &pool.f32, reg, cache, fw, seed),
                    }
                    completed.fetch_add(live.len() as u64, Ordering::Relaxed);
                }
            });
        }
        let queue = &queue;
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x05E2_10AD);
            let t0p = Instant::now();
            let mut offset = Duration::ZERO;
            for (i, r) in mix.iter().enumerate() {
                let u: f64 = rng.gen();
                offset += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
                let target = t0p + offset;
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                let now = Instant::now();
                // The bounded queue sheds for us and counts it; nothing
                // to do for a refused submit but move on.
                let _ = queue.submit(
                    (r.family, r.n, r.dtype),
                    OverloadJob { idx: i, deadline: now + req_deadline },
                );
            }
            queue.close();
        });
    });
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let stats = queue.stats();
    let done = completed.load(Ordering::Relaxed);
    OverloadRecord {
        arrival_rate: rate,
        requests: mix.len(),
        completed: done,
        shed: stats.shed,
        expired: expired.load(Ordering::Relaxed),
        pressure_flushes: stats.pressure_flushes,
        backlog: capacity,
        deadline_us: req_deadline_us,
        offered_rps: mix.len() as f64 / elapsed,
        goodput_rps: done as f64 / elapsed,
    }
}

/// Drain a synthetic request stream through the admission window and the
/// plan cache, driving each batch through every configured backend
/// interleaved, and collect the report.
///
/// Operand pools are generated up front (a client serving traffic already
/// holds its data; operand generation is not request latency); the
/// per-request payload vectors are cloned on top of the pool env per
/// batch, also outside the timed sections. Serving latency covers
/// signature canonicalization, the cache lookup, any compile, and plan
/// execution — amortized over the batch, exactly what a batching
/// `tf.function` server pays per request.
///
/// # Errors
/// [`ServeError`] when the backend list is empty, names an unknown or
/// duplicate backend, or selects a backend that cannot execute a dtype
/// present in the stream — all rejected here, before any dispatch.
pub fn run(cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    let regs = resolve_backends(&cfg.backends)?;
    let levels = cfg.opt_levels();
    let nl = levels.len();
    // A lane is one (backend, level) pair: the unit the drain interleaves
    // and the stride of every per-execution slot array. Backend-major so
    // one backend's lanes stay adjacent.
    let lanes: Vec<(&'static Registration, OptLevel)> =
        regs.iter().flat_map(|&reg| levels.iter().map(move |&l| (reg, l))).collect();
    let nlanes = lanes.len();
    let clients = cfg.resolved_clients();
    let mix = synthetic_mix(cfg.requests, cfg.n, cfg.seed, cfg.churn_every, cfg.dtype);

    // Validate dtype support against the dtypes actually present, so an
    // unsupported combination is a named error here instead of a panic
    // deep inside plan dispatch.
    for reg in &regs {
        for dtype in [Dtype::F32, Dtype::F64] {
            if mix.iter().any(|r| r.dtype == dtype) && !reg.supports(dtype) {
                return Err(ServeError::UnsupportedDtype {
                    backend: reg.name().to_string(),
                    dtype,
                });
            }
        }
    }

    // Pre-generate operand pools and count distinct per-backend signatures.
    let mut pools: HashMap<(Family, usize), EnvPair> = HashMap::new();
    let mut distinct = HashSet::new();
    for req in &mix {
        pools.entry((req.family, req.n)).or_insert_with(|| EnvPair {
            f64: req.family.env::<f64>(req.n, cfg.seed),
            f32: req.family.env::<f32>(req.n, cfg.seed),
        });
        for &(reg, level) in &lanes {
            distinct.insert(req.signature_opt(reg.id(), level).hash());
        }
    }

    let batches = admit(&mix, cfg.batch_window);
    let nbatches = batches.len();
    let cache = PlanCache::with_shards(cfg.cache_capacity * nlanes, cfg.shards);
    let fw = Framework::flow();
    let executions = mix.len() * nlanes;
    let slots = Slots {
        serving: (0..executions).map(|_| AtomicU64::new(0)).collect(),
        solo: (0..executions).map(|_| AtomicU64::new(0)).collect(),
        batched: (0..executions).map(|_| AtomicU64::new(0)).collect(),
        outcome: (0..nbatches * nlanes).map(|_| AtomicU8::new(0)).collect(),
        kind: (0..nbatches).map(|_| AtomicU8::new(0)).collect(),
        fam_stackable: Family::ALL.iter().map(|_| AtomicU8::new(0)).collect(),
        egraph: Mutex::new(HashMap::new()),
        budget_hits: AtomicU64::new(0),
        deferred: Mutex::new(vec![DeferredAccum::default(); Family::ALL.len()]),
    };
    let dtuning = cfg.deferred_tuning();

    let t0 = Instant::now();
    parallel_for(clients, nbatches, |bi| {
        let batch = &batches[bi];
        let req0 = &mix[batch.idx[0]];
        let pool = &pools[&(req0.family, req0.n)];
        let has_payload = !req0.family.payload_operands().is_empty();
        // Operand binding happens outside the timed sections: a server
        // holds its request payloads before admission.
        match req0.dtype {
            Dtype::F64 => {
                let owned: Vec<Env<f64>> = if has_payload {
                    batch.idx.iter().map(|&r| mix[r].env_from_pool(&pool.f64, cfg.seed)).collect()
                } else {
                    Vec::new()
                };
                let refs: Vec<&Env<f64>> = if has_payload {
                    owned.iter().collect()
                } else {
                    batch.idx.iter().map(|_| &pool.f64).collect()
                };
                drive_batch(bi, batch, &mix, &refs, &lanes, &cache, &fw, &slots, dtuning);
            }
            Dtype::F32 => {
                let owned: Vec<Env<f32>> = if has_payload {
                    batch.idx.iter().map(|&r| mix[r].env_from_pool(&pool.f32, cfg.seed)).collect()
                } else {
                    Vec::new()
                };
                let refs: Vec<&Env<f32>> = if has_payload {
                    owned.iter().collect()
                } else {
                    batch.idx.iter().map(|_| &pool.f32).collect()
                };
                drive_batch(bi, batch, &mix, &refs, &lanes, &cache, &fw, &slots, dtuning);
            }
        }
    });
    let wall_secs = t0.elapsed().as_secs_f64();

    // Snapshot the deterministic backlog counters *before* the live
    // phases (and the probes below) touch the (shared, now warm) cache,
    // so the reported cache record stays a pure function of the stream.
    let cache_stats = cache.stats();

    // ---- cross-level numeric probes: the soundness gate ----
    // One probe per distinct (family, size, dtype) × backend, executed
    // against the warm cache: the passes plan and the egraph plan run on
    // identical bindings and must agree within the documented tolerance
    // (relative distance ≤ 1e-9 for f64 / 1e-3 for f32 — wide enough for
    // accumulation-order changes like reassociation and factoring, tight
    // enough that any wrong rewrite trips it).
    let mut opt_probes = 0usize;
    let mut opt_mismatches = 0u64;
    if nl > 1 {
        let mut probed = HashSet::new();
        for req in &mix {
            if !probed.insert((req.family, req.n, req.dtype)) {
                continue;
            }
            let pool = &pools[&(req.family, req.n)];
            for &reg in &regs {
                let mismatch = match req.dtype {
                    Dtype::F64 => probe_levels(req, &pool.f64, reg, &cache, &fw, cfg.seed, 1e-9),
                    Dtype::F32 => probe_levels(req, &pool.f32, reg, &cache, &fw, cfg.seed, 1e-3),
                };
                opt_probes += 1;
                opt_mismatches += u64::from(mismatch);
            }
        }
    }

    // ---- deferred equivalence probes: the tape soundness gate ----
    // One probe per distinct (family, size, dtype): the engine plan and
    // the deferred tape run on identical bindings and must agree within
    // the optimizer-probe tolerance (the tape's value-changing fusions
    // are ULP-level; everything else is pure reordering).
    let deferred_reg = regs.iter().copied().find(|r| r.name() == laab_deferred::BACKEND_NAME);
    let mut deferred_probes = 0usize;
    let mut deferred_mismatches = 0u64;
    if let Some(dreg) = deferred_reg {
        let engine = registry::find("engine").expect("engine is a built-in");
        let mut probed = HashSet::new();
        for req in &mix {
            if !probed.insert((req.family, req.n, req.dtype)) {
                continue;
            }
            let pool = &pools[&(req.family, req.n)];
            let mismatch = match req.dtype {
                Dtype::F64 => probe_deferred(
                    req, &pool.f64, dreg, engine, &cache, &fw, cfg.seed, dtuning, 1e-9,
                ),
                Dtype::F32 => probe_deferred(
                    req, &pool.f32, dreg, engine, &cache, &fw, cfg.seed, dtuning, 1e-3,
                ),
            };
            deferred_probes += 1;
            deferred_mismatches += u64::from(mismatch);
        }
    }

    // ---- live phases: queue delay under open-loop Poisson arrivals ----
    // Driven through the first-listed backend only — what is measured
    // here is admission behavior (flush kinds, occupancy, queue delay),
    // not the kernel A/B, which happened above.
    let rate = if cfg.arrival_rate.is_finite() { cfg.arrival_rate.max(1.0) } else { 1.0 };
    let live = |window: usize, rate: f64, stream: &[Request]| {
        live_phase(stream, &pools, regs[0], &cache, &fw, clients, window, rate, cfg.seed)
    };
    let admission = live(cfg.batch_window, rate, &mix);
    let sweep_len = (cfg.requests / 4).clamp(48, 192).min(mix.len());
    let sweep_stream = &mix[..sweep_len];
    let mut sweep = Vec::new();
    for window in [1, cfg.batch_window.max(2)] {
        for cell_rate in [(rate / 4.0).max(1.0), rate] {
            sweep.push(live(window, cell_rate, sweep_stream));
        }
    }

    // ---- overload sweep: goodput vs. offered load, bounded backlog ----
    // A deliberately small backlog (a few batches' worth) so saturation
    // turns into measured shedding instead of queue growth, with a
    // 2 ms per-request deadline.
    let overload_backlog = if cfg.backlog > 0 {
        cfg.backlog.min((clients * cfg.batch_window.max(1)).max(4))
    } else {
        (clients * cfg.batch_window.max(1)).max(4)
    };
    const OVERLOAD_DEADLINE_US: u64 = 2_000;
    let mut overload = Vec::new();
    for mult in [1.0, 2.0, 4.0, 8.0] {
        overload.push(overload_phase(
            sweep_stream,
            &pools,
            regs[0],
            &cache,
            &fw,
            clients,
            cfg.batch_window,
            overload_backlog,
            OVERLOAD_DEADLINE_US,
            rate * mult,
            cfg.seed,
        ));
    }

    // ---- assemble the report (serial from here on) ----
    let ms = |ns: u64| ns as f64 / 1e6;
    let serving: Vec<f64> = slots.serving.iter().map(|a| ms(a.load(Ordering::Relaxed))).collect();
    let solo: Vec<f64> = slots.solo.iter().map(|a| ms(a.load(Ordering::Relaxed))).collect();
    let batched: Vec<f64> = slots.batched.iter().map(|a| ms(a.load(Ordering::Relaxed))).collect();
    let out: Vec<u8> = slots.outcome.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    let kinds: Vec<u8> = slots.kind.iter().map(|a| a.load(Ordering::Relaxed)).collect();

    let mut batch_of = vec![0usize; mix.len()];
    for (bi, b) in batches.iter().enumerate() {
        for &r in &b.idx {
            batch_of[r] = bi;
        }
    }
    // Outcome and occupancy of execution slot `e` (= request·nlanes + lane).
    let exec_outcome = |e: usize| out[batch_of[e / nlanes] * nlanes + e % nlanes];
    let exec_occ = |e: usize| batches[batch_of[e / nlanes]].idx.len();

    // 0.0, not NaN, for an empty split: the serde_json shim writes NaN as
    // `null`, which would make the emitted document violate its own f64
    // schema. A short all-distinct stream legitimately has zero hits.
    let mean_of = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let split_means = |idx: &[usize]| {
        let cold: Vec<f64> = idx
            .iter()
            .filter(|&&e| exec_outcome(e) == OUTCOME_COMPILED)
            .map(|&e| serving[e])
            .collect();
        let hit: Vec<f64> =
            idx.iter().filter(|&&e| exec_outcome(e) == OUTCOME_HIT).map(|&e| serving[e]).collect();
        (mean_of(&cold), mean_of(&hit))
    };
    // The batched-vs-solo split over coalesced executions of `idx`.
    let batch_split = |idx: &[usize]| {
        let coalesced: Vec<usize> = idx.iter().copied().filter(|&e| exec_occ(e) >= 2).collect();
        let s = mean_of(&coalesced.iter().map(|&e| solo[e]).collect::<Vec<_>>());
        let b = mean_of(&coalesced.iter().map(|&e| batched[e]).collect::<Vec<_>>());
        (s, b, if b > 0.0 { s / b } else { 0.0 }, coalesced.len())
    };

    let all_idx: Vec<usize> = (0..executions).collect();
    let all = Samples::new(serving.clone());
    let (cold_trace_mean_ms, cache_hit_mean_ms) = split_means(&all_idx);

    // Per-backend A/B records, first-listed backend as the ratio anchor.
    // A backend's view aggregates all its lanes (both optimizer levels
    // when `--opt egraph` is on), so lookups are `batches × levels`.
    let mut backends = Vec::with_capacity(regs.len());
    let mut first_mean = 0.0;
    for (ki, reg) in regs.iter().enumerate() {
        let idx: Vec<usize> =
            (0..mix.len()).flat_map(|i| (0..nl).map(move |li| i * nlanes + ki * nl + li)).collect();
        let b_lat: Vec<f64> = idx.iter().map(|&e| serving[e]).collect();
        let hits = (0..nbatches)
            .flat_map(|bi| (0..nl).map(move |li| bi * nlanes + ki * nl + li))
            .filter(|&s| out[s] == OUTCOME_HIT)
            .count();
        let busy_secs: f64 = b_lat.iter().sum::<f64>() / 1e3;
        let mean_ms = mean_of(&b_lat);
        if ki == 0 {
            first_mean = mean_ms;
        }
        let (b_cold, b_hit) = split_means(&idx);
        let (b_solo, b_batched, b_speedup, _) = batch_split(&idx);
        backends.push(BackendRecord {
            backend: reg.name().to_string(),
            requests: mix.len(),
            lookups: nbatches * nl,
            hits,
            misses: nbatches * nl - hits,
            hit_rate: hits as f64 / (nbatches * nl) as f64,
            requests_per_sec: if busy_secs > 0.0 {
                mix.len() as f64 * clients as f64 / busy_secs
            } else {
                0.0
            },
            p50_ms: Samples::new(b_lat.clone()).median(),
            p99_ms: Samples::new(b_lat).quantile(0.99),
            mean_ms,
            cold_trace_mean_ms: b_cold,
            cache_hit_mean_ms: b_hit,
            solo_mean_ms: b_solo,
            batched_mean_ms: b_batched,
            batched_speedup: b_speedup,
            speedup_vs_first: if mean_ms > 0.0 { first_mean / mean_ms } else { 0.0 },
        });
    }

    let fam_flags: Vec<u8> =
        slots.fam_stackable.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    let mut families = Vec::new();
    for (fi, family) in Family::ALL.iter().enumerate() {
        let idx: Vec<usize> =
            (0..executions).filter(|&e| mix[e / nlanes].family == *family).collect();
        if idx.is_empty() {
            continue;
        }
        let fam_lat: Vec<f64> = idx.iter().map(|&e| serving[e]).collect();
        let (f_solo, f_batched, f_speedup, _) = batch_split(&idx);
        families.push(FamilyRecord {
            family: family.id().to_string(),
            experiment: family.experiment().to_string(),
            stackable: fam_flags[fi] == 1,
            requests: idx.len(),
            hits: idx.iter().filter(|&&e| exec_outcome(e) == OUTCOME_HIT).count(),
            p50_ms: Samples::new(fam_lat.clone()).median(),
            mean_ms: mean_of(&fam_lat),
            solo_mean_ms: f_solo,
            batched_mean_ms: f_batched,
            batched_speedup: f_speedup,
        });
    }

    // Per-level A/B records and the per-family extracted-cost vs.
    // measured-latency comparison. Slot `e`'s lane is `e % nlanes`, its
    // level index within the lane is `lane % nl`.
    let eg_map = slots.egraph.lock().expect("egraph reports").clone();
    let budget_hits_total = slots.budget_hits.load(Ordering::Relaxed);
    let level_slots =
        |li: usize| -> Vec<usize> { (0..executions).filter(|&e| e % nlanes % nl == li).collect() };
    let mut opt_levels = Vec::with_capacity(nl);
    for (li, level) in levels.iter().enumerate() {
        let lat: Vec<f64> = level_slots(li).iter().map(|&e| serving[e]).collect();
        let is_egraph = *level == OptLevel::Egraph;
        opt_levels.push(OptLevelRecord {
            level: level.id().to_string(),
            executions: lat.len(),
            p50_ms: Samples::new(lat.clone()).median(),
            mean_ms: mean_of(&lat),
            changed_plans: if is_egraph {
                eg_map.values().filter(|r| r.changed).count()
            } else {
                0
            },
            saturation_budget_hits: if is_egraph { budget_hits_total } else { 0 },
        });
    }
    let mut opt_families = Vec::new();
    if nl > 1 {
        for family in Family::ALL.iter() {
            let fam_level_lat = |li: usize| -> Vec<f64> {
                (0..executions)
                    .filter(|&e| mix[e / nlanes].family == *family && e % nlanes % nl == li)
                    .map(|e| serving[e])
                    .collect()
            };
            let p = fam_level_lat(0);
            if p.is_empty() {
                continue;
            }
            let g = fam_level_lat(1);
            // The base-size entry anchors the cost columns; any size of
            // the family is an acceptable stand-in (extraction is
            // structural, so `changed` agrees across sizes).
            let rep = eg_map
                .get(&(*family, cfg.n))
                .or_else(|| eg_map.iter().find(|((f, _), _)| f == family).map(|(_, r)| r));
            let (pm, gm) = (mean_of(&p), mean_of(&g));
            opt_families.push(OptFamilyRecord {
                family: family.id().to_string(),
                changed: rep.is_some_and(|r| r.changed),
                budget_hit: rep.is_some_and(|r| r.budget_hit),
                extracted_cost: rep.map_or(0, |r| r.extracted_cost),
                original_cost: rep.map_or(0, |r| r.original_cost),
                passes_mean_ms: pm,
                egraph_mean_ms: gm,
                egraph_speedup: if gm > 0.0 { pm / gm } else { 0.0 },
            });
        }
    }

    // The admission window's own record.
    let max_occupancy = batches.iter().map(|b| b.idx.len()).max().unwrap_or(0);
    let mut occupancy_hist = vec![0usize; max_occupancy];
    for b in &batches {
        occupancy_hist[b.idx.len() - 1] += 1;
    }
    let (g_solo, g_batched, g_speedup, coalesced_execs) = batch_split(&all_idx);
    let coalesced_busy_batched: f64 =
        all_idx.iter().filter(|&&e| exec_occ(e) >= 2).map(|&e| batched[e]).sum::<f64>() / 1e3;
    let coalesced_busy_solo: f64 =
        all_idx.iter().filter(|&&e| exec_occ(e) >= 2).map(|&e| solo[e]).sum::<f64>() / 1e3;
    let rps = |execs: usize, busy: f64| {
        if busy > 0.0 {
            execs as f64 * clients as f64 / busy
        } else {
            0.0
        }
    };
    let batching = BatchingRecord {
        enabled: cfg.batching_enabled(),
        window: cfg.batch_window,
        batches: nbatches,
        mean_occupancy: mix.len() as f64 / nbatches as f64,
        max_occupancy,
        occupancy_hist,
        stacked_batches: kinds.iter().filter(|&&k| k == BATCH_STACKED).count(),
        fallback_batches: kinds.iter().filter(|&&k| k == BATCH_FALLBACK).count(),
        solo_batches: kinds.iter().filter(|&&k| k == BATCH_SOLO).count(),
        batched_requests: batches.iter().map(|b| b.idx.len()).filter(|&o| o >= 2).sum(),
        batched_mean_ms: g_batched,
        solo_mean_ms: g_solo,
        batched_speedup: g_speedup,
        batched_requests_per_sec: rps(coalesced_execs, coalesced_busy_batched),
        solo_requests_per_sec: rps(coalesced_execs, coalesced_busy_solo),
    };

    // The deferred backend's record: per-family accumulators summed into
    // run totals, plus the fusion A/B means. Families the stream never
    // exercised (or that a deferred lane never served) are omitted.
    let dacc = slots.deferred.lock().expect("deferred accounting");
    let mut dtotal = laab_deferred::RunStats::default();
    for a in dacc.iter() {
        dtotal.merge(&a.stats);
    }
    let mut deferred_families = Vec::new();
    for (fi, family) in Family::ALL.iter().enumerate() {
        let a = &dacc[fi];
        if a.stats.tape_ops == 0 && a.ab_requests == 0 {
            continue;
        }
        let total_ns = a.stats.dispatch_ns + a.stats.compute_ns;
        let fused_mean_ms =
            if a.ab_requests > 0 { a.fused_ns as f64 / a.ab_requests as f64 / 1e6 } else { 0.0 };
        let unfused_mean_ms =
            if a.ab_requests > 0 { a.unfused_ns as f64 / a.ab_requests as f64 / 1e6 } else { 0.0 };
        deferred_families.push(DeferredFamilyRecord {
            family: family.id().to_string(),
            tape_ops: a.stats.tape_ops,
            groups: a.stats.groups,
            fused_ops: a.stats.fused_ops,
            unfused_ops: a.stats.unfused_ops,
            dispatch_ns: a.stats.dispatch_ns,
            compute_ns: a.stats.compute_ns,
            dispatch_share: if total_ns > 0 {
                a.stats.dispatch_ns as f64 / total_ns as f64
            } else {
                0.0
            },
            fused_mean_ms,
            unfused_mean_ms,
            fused_speedup: if fused_mean_ms > 0.0 { unfused_mean_ms / fused_mean_ms } else { 0.0 },
        });
    }
    let deferred = DeferredRecord {
        enabled: deferred_reg.is_some(),
        dispatch_us: cfg.dispatch_us,
        fusion: cfg.fusion,
        tape_capacity: dtuning.capacity,
        tape_ops: dtotal.tape_ops,
        max_tape_len: dtotal.max_tape_len,
        flush_capacity: dtotal.flush_capacity,
        flush_materialize: dtotal.flush_materialize,
        flush_barrier: dtotal.flush_barrier,
        groups: dtotal.groups,
        fused_ops: dtotal.fused_ops,
        unfused_ops: dtotal.unfused_ops,
        dispatch_ns: dtotal.dispatch_ns,
        compute_ns: dtotal.compute_ns,
        probes: deferred_probes,
        mismatches: deferred_mismatches,
        families: deferred_families,
    };
    drop(dacc);

    let stats = cache_stats;
    Ok(ServeReport {
        schema: SERVE_REPORT_SCHEMA.to_string(),
        smoke: cfg.smoke,
        requests: cfg.requests,
        executions,
        clients_requested: cfg.clients,
        clients_resolved: clients,
        base_n: cfg.n,
        seed: cfg.seed,
        dtype: cfg.dtype.map_or("mixed", Dtype::name).to_string(),
        batch_window: cfg.batch_window,
        batch_deadline_us: 0,
        arrival_rate: rate,
        distinct_signatures: distinct.len(),
        wall_secs,
        requests_per_sec: executions as f64 / wall_secs,
        p50_ms: all.median(),
        p99_ms: all.quantile(0.99),
        cold_trace_mean_ms,
        cache_hit_mean_ms,
        cache_hit_speedup: if cache_hit_mean_ms > 0.0 {
            cold_trace_mean_ms / cache_hit_mean_ms
        } else {
            0.0
        },
        batching,
        admission,
        sweep,
        overload,
        cache: CacheStatsRecord {
            hits: stats.hits,
            misses: stats.misses,
            retraces: stats.retraces,
            evictions: stats.evictions,
            evicted_recompiles: stats.evicted_recompiles,
            mean_recompile_ms: stats.mean_recompile_ms(),
            entries: stats.entries,
            hit_rate: stats.hit_rate(),
        },
        backends,
        families,
        opt: cfg.opt.id().to_string(),
        opt_levels,
        opt_families,
        opt_probes,
        opt_mismatches,
        saturation_budget_hits: budget_hits_total,
        deferred,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ServeConfig {
        // Small operands, full mixed-signature stream: plumbing, not perf.
        ServeConfig {
            requests: 400,
            n: 12,
            clients: 2,
            seed: 7,
            smoke: true,
            ..ServeConfig::smoke()
        }
    }

    fn run_ok(cfg: &ServeConfig) -> ServeReport {
        run(cfg).expect("valid config serves")
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run_ok(&tiny_cfg());
        let back = ServeReport::from_json(&report.to_json()).expect("parse back");
        assert_eq!(back, report);
        assert_eq!(report.schema, SERVE_REPORT_SCHEMA);
    }

    #[test]
    fn bad_schema_is_rejected() {
        let mut report = run_ok(&ServeConfig { requests: 24, ..tiny_cfg() });
        report.schema = "laab-serve-bench-v2".into();
        assert!(ServeReport::from_json(&report.to_json()).is_err());
    }

    #[test]
    fn admission_window_coalesces_and_counters_stay_consistent() {
        let report = run_ok(&tiny_cfg());
        let b = &report.batching;
        assert!(b.enabled && b.window == 8);
        assert!(b.mean_occupancy > 1.0, "window 8 must coalesce: {:.2}", b.mean_occupancy);
        assert!(b.max_occupancy >= 2 && b.max_occupancy <= b.window);
        // The histogram partitions the batches, weighted by occupancy it
        // partitions the requests.
        assert_eq!(b.occupancy_hist.iter().sum::<usize>(), b.batches);
        let weighted: usize = b.occupancy_hist.iter().enumerate().map(|(i, c)| (i + 1) * c).sum();
        assert_eq!(weighted, report.requests);
        assert_eq!(b.stacked_batches + b.fallback_batches + b.solo_batches, b.batches);
        assert!(b.stacked_batches > 0, "chain/solve batches must stack");
        assert!(b.fallback_batches > 0, "matrix-family batches must fall back");
        assert!(b.batched_requests >= 2 * (b.stacked_batches + b.fallback_batches));
        // Both legs were measured on coalesced batches.
        assert!(b.solo_mean_ms > 0.0 && b.batched_mean_ms > 0.0 && b.batched_speedup > 0.0);
        assert!(b.batched_requests_per_sec > 0.0 && b.solo_requests_per_sec > 0.0);

        // Cache lookups are batch-granular: one per (batch, backend).
        assert_eq!(report.executions, report.requests);
        assert_eq!(report.cache.hits + report.cache.misses, b.batches as u64);
        assert!(report.cache.retraces >= 1, "churned stream must retrace");
        assert_eq!(report.backends.len(), 1);
        let be = &report.backends[0];
        assert_eq!(be.lookups, b.batches);
        assert_eq!(be.hits + be.misses, be.lookups);
        assert!(be.hit_rate > 0.5, "repeats within the key set still hit: {}", be.hit_rate);
        assert_eq!(be.misses, report.distinct_signatures, "one compile per signature");
        assert!(be.solo_mean_ms > 0.0 && be.batched_mean_ms > 0.0);

        // Families: the GEMV-shaped ones stack, the matrix ones fall back.
        assert_eq!(report.families.len(), Family::ALL.len());
        let fam_requests: usize = report.families.iter().map(|f| f.requests).sum();
        assert_eq!(fam_requests, report.executions);
        for f in &report.families {
            let want_stack = f.family == "chain" || f.family == "solve_residual";
            assert_eq!(f.stackable, want_stack, "{}", f.family);
            assert!(f.hits <= f.requests);
        }
        assert!(report.requests_per_sec > 0.0);
        assert!(report.p99_ms >= report.p50_ms);
        assert!(report.cold_trace_mean_ms.is_finite() && report.cache_hit_mean_ms.is_finite());
        assert_eq!(report.batch_window, 8);
    }

    #[test]
    fn disabling_batching_restores_per_request_serving() {
        let report = run_ok(&ServeConfig { batch_window: 0, ..tiny_cfg() });
        let b = &report.batching;
        assert!(!b.enabled);
        assert_eq!(b.batches, report.requests, "every request is its own batch");
        assert_eq!(b.mean_occupancy, 1.0);
        assert_eq!(b.max_occupancy, 1);
        assert_eq!((b.stacked_batches, b.fallback_batches), (0, 0));
        assert_eq!(b.solo_batches, b.batches);
        assert_eq!(b.batched_requests, 0);
        assert_eq!((b.batched_mean_ms, b.batched_speedup), (0.0, 0.0));
        // Per-request lookups: the pre-v3 semantics, including the high
        // hit rate over the repeated-signature stream.
        let be = &report.backends[0];
        assert_eq!(be.lookups, report.requests);
        assert!(be.hit_rate > 0.9, "hit rate {:.3} not > 0.9", be.hit_rate);
        assert_eq!((be.batched_mean_ms, be.batched_speedup), (0.0, 0.0));
        assert_eq!(report.cache.hits + report.cache.misses, report.requests as u64);
    }

    #[test]
    fn multi_backend_run_interleaves_and_keeps_entries_independent() {
        let cfg = ServeConfig {
            backends: vec!["engine".into(), "seed".into(), "reference".into()],
            ..tiny_cfg()
        };
        let report = run_ok(&cfg);
        assert_eq!(report.executions, report.requests * 3);
        assert_eq!(report.backends.len(), 3);

        // Identical traffic per backend: every backend saw every batch,
        // and — because signatures embed the BackendId — each compiled
        // its own plans. No cross-backend hits is structural: per-backend
        // misses equal the per-backend distinct-signature count, and the
        // resident entries are the per-backend sets side by side.
        let per_backend_distinct = report.distinct_signatures / 3;
        for b in &report.backends {
            assert_eq!(b.requests, report.requests, "{}", b.backend);
            assert_eq!(b.lookups, report.batching.batches, "{}", b.backend);
            assert_eq!(b.hits + b.misses, b.lookups, "{}", b.backend);
            assert_eq!(b.misses, per_backend_distinct, "{} compiled its own plans", b.backend);
            assert!(b.p99_ms >= b.p50_ms, "{}", b.backend);
            assert!(b.requests_per_sec > 0.0 && b.speedup_vs_first > 0.0, "{}", b.backend);
            assert!(b.batched_speedup > 0.0, "{} measured both legs", b.backend);
        }
        assert_eq!(report.cache.evictions, 0, "capacity scales with backend count");
        assert_eq!(report.cache.evicted_recompiles, 0);
        assert_eq!(report.cache.mean_recompile_ms, 0.0);
        assert_eq!(report.cache.entries, report.distinct_signatures);
        assert_eq!(report.backends[0].speedup_vs_first, 1.0, "baseline anchors at 1.0");

        // Hit counts are a deterministic function of the stream, so every
        // backend's counters are identical — only latencies differ.
        assert!(report.backends.iter().all(|b| b.hits == report.backends[0].hits));

        // The JSON document round-trips with the records in order.
        let back = ServeReport::from_json(&report.to_json()).expect("round-trips");
        let names: Vec<&str> = back.backends.iter().map(|b| b.backend.as_str()).collect();
        assert_eq!(names, ["engine", "seed", "reference"]);
    }

    #[test]
    fn unknown_backend_is_a_named_error() {
        let cfg = ServeConfig { backends: vec!["cuda".into()], ..tiny_cfg() };
        let err = run(&cfg).expect_err("unknown backend must not serve");
        match &err {
            ServeError::UnknownBackend { requested, available } => {
                assert_eq!(requested, "cuda");
                assert!(available.iter().any(|n| n == "engine"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("cuda") && text.contains("engine"), "{text}");
    }

    #[test]
    fn duplicate_and_empty_backend_lists_are_errors() {
        let cfg = ServeConfig { backends: vec!["engine".into(), "engine".into()], ..tiny_cfg() };
        assert_eq!(run(&cfg), Err(ServeError::DuplicateBackend("engine".into())));
        let cfg = ServeConfig { backends: vec![], ..tiny_cfg() };
        assert_eq!(run(&cfg), Err(ServeError::NoBackends));
    }

    #[test]
    fn unsupported_dtype_combination_is_rejected_before_dispatch() {
        static F64_ONLY: laab_backend::Registration = laab_backend::Registration::new(
            "serve-test-f64-only",
            "f64-only backend for the dtype-validation test",
            None,
            Some(&laab_backend::EngineBackend),
        );
        // Tolerate re-registration across test orders within the binary.
        let _ = laab_backend::registry::register(&F64_ONLY);

        // A mixed stream contains f32 requests → named error, no panic.
        let cfg = ServeConfig { backends: vec!["serve-test-f64-only".into()], ..tiny_cfg() };
        let err = run(&cfg).expect_err("mixed stream hits the missing f32 entry point");
        assert_eq!(
            err,
            ServeError::UnsupportedDtype {
                backend: "serve-test-f64-only".into(),
                dtype: Dtype::F32
            }
        );
        assert!(err.to_string().contains("--dtype"), "{err}");

        // Restricting the stream to f64 makes the combination valid.
        let cfg = ServeConfig { dtype: Some(Dtype::F64), requests: 48, ..cfg };
        let report = run_ok(&cfg);
        assert_eq!(report.dtype, "f64");
        assert_eq!(report.backends[0].backend, "serve-test-f64-only");
    }

    #[test]
    fn schema_is_registered_in_laab_core() {
        // The registry lives below this crate in the dependency graph and
        // mirrors the tag; this is the drift guard the registry promises.
        let spec = laab_core::bench_registry::find("serve").expect("serve is registered");
        assert_eq!(spec.schema, SERVE_REPORT_SCHEMA);
        assert_eq!(spec.artifact, "BENCH_serve.json");
        assert_eq!(laab_core::bench_registry::SERVE_SCHEMA, SERVE_REPORT_SCHEMA);
    }

    #[test]
    fn single_client_run_works() {
        let report = run_ok(&ServeConfig { requests: 32, clients: 1, ..tiny_cfg() });
        assert_eq!(report.clients_resolved, 1);
        assert_eq!(report.clients_requested, 1);
        assert_eq!(report.requests, 32);
    }

    #[test]
    fn builder_validates_at_build_time() {
        // The happy path reproduces the defaults.
        let cfg = ServeConfig::builder().build().expect("defaults build");
        assert_eq!(cfg.requests, ServeConfig::default().requests);

        // Explicit zero clients is a named error, not a silent clamp —
        // and auto (the default) still resolves with the documented cap.
        assert_eq!(ServeConfig::builder().clients(0).build(), Err(ServeError::ZeroClients));
        let auto = ServeConfig::builder().clients_auto().build().expect("auto builds");
        assert_eq!(auto.clients, 0);
        assert!(auto.resolved_clients() >= 1 && auto.resolved_clients() <= 8);
        // Explicit counts pass through verbatim, beyond the auto cap too.
        let cfg = ServeConfig::builder().clients(12).build().expect("explicit builds");
        assert_eq!((cfg.clients, cfg.resolved_clients()), (12, 12));

        assert_eq!(ServeConfig::builder().shards(0).build(), Err(ServeError::ZeroShards));

        // Backend names resolve at build time, before any dispatch.
        let err = ServeConfig::builder().backends(["cuda"]).build().expect_err("unknown");
        assert!(
            matches!(err, ServeError::UnknownBackend { ref requested, .. } if requested == "cuda")
        );
        assert!(ServeConfig::builder().backends(Vec::<String>::new()).build().is_err());

        // A built config runs end to end.
        let cfg = ServeConfig::smoke_builder()
            .requests(48)
            .n(12)
            .clients(2)
            .seed(7)
            .backends(["seed"])
            .batch_window(4)
            .arrival_rate(4000.0)
            .build()
            .expect("smoke builder config is valid");
        let report = run_ok(&cfg);
        assert_eq!(report.batch_window, 4);
        assert_eq!(report.backends[0].backend, "seed");
    }

    #[test]
    fn live_admission_is_work_conserving_and_reports_queue_delay() {
        let report = run_ok(&tiny_cfg());
        let a = &report.admission;
        assert_eq!(a.window, 8);
        assert_eq!(a.requests, report.requests);
        // No flush timer: a free consumer takes the oldest group (an
        // occupancy flush), the tail drains at close, nothing else.
        assert_eq!((a.deadline_us, a.deadline_flushes), (0, 0), "{a:?}");
        assert_eq!(a.occupancy_flushes + a.drain_flushes, a.batches as u64);
        assert_eq!((a.pressure_flushes, a.shed), (0, 0), "live phases are unbounded");
        assert!(a.batches >= 1 && a.mean_occupancy >= 1.0);
        assert!(a.occupancy_flushes > 0, "{a:?}");
        assert!(a.queue_delay_p99_us >= a.queue_delay_p50_us);
        assert!(a.queue_delay_p50_us > 0.0, "queueing delay is always positive");

        // The sweep covers windows {1, window} × rates {r/4, r}.
        assert_eq!(report.sweep.len(), 4);
        for c in &report.sweep {
            assert!(c.requests > 0 && c.batches > 0);
            assert_eq!(c.deadline_flushes, 0, "{c:?}");
            assert_eq!(c.occupancy_flushes + c.drain_flushes, c.batches as u64, "{c:?}");
        }
        // Window-1 cells never coalesce: every flush is an occupancy
        // flush of a singleton batch.
        for c in report.sweep.iter().filter(|c| c.window == 1) {
            assert_eq!(c.mean_occupancy, 1.0);
            assert_eq!(c.occupancy_flushes, c.requests as u64);
        }
    }

    #[test]
    fn overload_sweep_partitions_every_request_exactly() {
        let report = run_ok(&tiny_cfg());
        assert_eq!(report.overload.len(), 4);
        for o in &report.overload {
            // Every offered request lands in exactly one bucket.
            assert_eq!(o.completed + o.shed + o.expired, o.requests as u64, "{o:?}");
            assert!(o.goodput_rps <= o.offered_rps, "{o:?}");
            assert!(o.backlog > 0 && o.deadline_us > 0, "{o:?}");
            assert!(o.completed > 0, "some requests complete even past saturation: {o:?}");
        }
        // The points probe strictly increasing offered rates.
        assert!(report.overload.windows(2).all(|w| w[0].arrival_rate < w[1].arrival_rate));
        assert_eq!(report.overload[0].arrival_rate, report.arrival_rate);
        assert_eq!(report.overload[3].arrival_rate, report.arrival_rate * 8.0);
    }

    #[test]
    fn transport_errors_chain_their_sources() {
        let io = Arc::new(std::io::Error::new(std::io::ErrorKind::AddrInUse, "taken"));
        let err = ServeError::Bind { addr: "tcp:127.0.0.1:1".into(), source: io };
        assert!(err.to_string().contains("failed to bind"), "{err}");
        let src = std::error::Error::source(&err).expect("bind error chains its io source");
        assert!(src.to_string().contains("taken"), "{src}");
        // Wrapped io errors compare by kind, keeping assert_eq usable.
        let io2 = Arc::new(std::io::Error::new(std::io::ErrorKind::AddrInUse, "different text"));
        assert_eq!(err, ServeError::Bind { addr: "tcp:127.0.0.1:1".into(), source: io2 });

        let frame = ServeError::Frame(FrameError::UnknownVersion(9));
        let src = std::error::Error::source(&frame).expect("frame error chains");
        assert!(src.to_string().contains("version"), "{src}");
        assert_ne!(frame, ServeError::Frame(FrameError::UnknownVersion(8)));
    }

    #[test]
    fn zero_hit_stream_still_emits_valid_json() {
        // 5 requests over a churning mixed stream are (almost certainly)
        // all distinct signatures → zero hits, singleton batches. The
        // report must stay within its own f64 schema (no NaN → null) and
        // round-trip.
        let report = run_ok(&ServeConfig { requests: 5, churn_every: 2, ..tiny_cfg() });
        assert!(report.cache_hit_mean_ms.is_finite());
        assert!(report.cache_hit_speedup.is_finite());
        assert!(report.batching.batched_speedup.is_finite());
        let back = ServeReport::from_json(&report.to_json()).expect("round-trips");
        assert_eq!(back, report);
    }

    #[test]
    fn passes_only_run_reports_single_level() {
        // The default config must stay the pre-v6 serving loop bit for
        // bit: one lane per backend, no probes, no egraph records.
        let report = run_ok(&tiny_cfg());
        assert_eq!(report.opt, "passes");
        assert_eq!(report.opt_levels.len(), 1);
        assert_eq!(report.opt_levels[0].level, "passes");
        assert_eq!(report.opt_levels[0].executions, report.executions);
        assert_eq!(report.opt_levels[0].changed_plans, 0);
        assert_eq!(report.opt_levels[0].saturation_budget_hits, 0);
        assert!(report.opt_families.is_empty());
        assert_eq!((report.opt_probes, report.opt_mismatches), (0, 0));
        assert_eq!(report.saturation_budget_hits, 0);
    }

    #[test]
    fn opt_ab_interleaves_levels_and_discovers_rewrites() {
        // n = 24 puts the chain family past the cost model's crossover
        // (n³ SYRK > 2 penalized GEMVs above n ≈ 20), so reassociation is
        // a modeled win; below it the model correctly keeps the input
        // form (SYRK + one GEMV beats two memory-bound GEMVs).
        let cfg = ServeConfig { opt: OptLevel::Egraph, n: 24, ..tiny_cfg() };
        let report = run_ok(&cfg);
        assert_eq!(report.opt, "egraph");
        // Two lanes: every request executes once per level.
        assert_eq!(report.executions, report.requests * 2);
        assert_eq!(report.opt_levels.len(), 2);
        assert_eq!(report.opt_levels[0].level, "passes");
        assert_eq!(report.opt_levels[1].level, "egraph");
        assert_eq!(report.opt_levels[0].executions, report.requests);
        assert_eq!(report.opt_levels[1].executions, report.requests);
        assert_eq!(report.opt_levels[0].changed_plans, 0);

        // The acceptance claim: the e-graph discovers rewrites the pass
        // pipeline misses on the E1–E5 stream. Chain is the guaranteed
        // one — (HᵀH)x extracts to Hᵀ(Hx) under the GEMV-regime model.
        assert!(report.opt_levels[1].changed_plans >= 1);
        let chain =
            report.opt_families.iter().find(|f| f.family == "chain").expect("chain family served");
        assert!(chain.changed, "reassociation must be discovered: {chain:?}");
        assert!(!chain.budget_hit);
        assert!(
            chain.extracted_cost < chain.original_cost,
            "modeled win: {} < {}",
            chain.extracted_cost,
            chain.original_cost
        );
        assert!(chain.passes_mean_ms > 0.0 && chain.egraph_mean_ms > 0.0);
        // Factoring (AB + AC → A(B+C)) and slice pushdown are size-
        // independent wins; they must be discovered too.
        let dist = report.opt_families.iter().find(|f| f.family == "distributive").unwrap();
        assert!(dist.changed && dist.extracted_cost < dist.original_cost, "{dist:?}");
        let slice = report.opt_families.iter().find(|f| f.family == "slice").unwrap();
        assert!(slice.changed && slice.extracted_cost < slice.original_cost, "{slice:?}");
        // Unchanged families report equal costs (ties keep the input).
        for f in report.opt_families.iter().filter(|f| !f.changed && !f.budget_hit) {
            assert_eq!(f.extracted_cost, f.original_cost, "{}", f.family);
        }

        // The soundness gate: every probe agreed within tolerance.
        assert!(report.opt_probes > 0);
        assert_eq!(report.opt_mismatches, 0, "cross-level mismatch");
        assert_eq!(report.saturation_budget_hits, 0, "serving exprs are tiny");

        // Per-level cache entries never alias: one compile per distinct
        // (signature incl. level), and the A/B multiplicity is not
        // misreported as signature drift beyond the churned stream's own
        // retraces (the (callsite, backend, opt) key fix).
        assert_eq!(report.cache.misses, report.distinct_signatures as u64);
        let be = &report.backends[0];
        assert_eq!(be.lookups, report.batching.batches * 2);
        assert_eq!(be.hits + be.misses, be.lookups);

        // v6 round-trips with the new records intact.
        let back = ServeReport::from_json(&report.to_json()).expect("round-trips");
        assert_eq!(back, report);
        assert_eq!(back.opt_families.len(), report.opt_families.len());
    }

    #[test]
    fn builder_sets_opt_level() {
        let cfg = ServeConfig::smoke_builder().opt(OptLevel::Egraph).build().expect("builds");
        assert_eq!(cfg.opt, OptLevel::Egraph);
        assert_eq!(cfg.opt_levels(), vec![OptLevel::Passes, OptLevel::Egraph]);
        assert_eq!(ServeConfig::default().opt_levels(), vec![OptLevel::Passes]);
    }

    #[test]
    fn deferred_ab_fuses_and_accounts_dispatch() {
        // One client (no cross-thread spin contention polluting the
        // wall-clock A/B) and a launch cost high enough that the modeled
        // dispatch delta dominates scheduler noise — the regime the
        // deferred model exists to expose.
        let cfg = ServeConfig {
            backends: vec!["engine".into(), "deferred".into()],
            clients: 1,
            dispatch_us: 200,
            ..tiny_cfg()
        };
        let report = run_ok(&cfg);
        assert_eq!(report.executions, report.requests * 2);
        assert_eq!(report.backends.len(), 2);
        let d = &report.deferred;
        assert!(d.enabled);
        assert_eq!(d.dispatch_us, 200);
        assert!(d.fusion);

        // Every serving leg ran on the tape, so the op counters partition:
        // each recorded op either launched inside a fused group or alone.
        assert!(d.tape_ops > 0, "serving legs must record ops");
        assert_eq!(d.fused_ops + d.unfused_ops, d.tape_ops);
        assert!(d.max_tape_len >= 1 && d.max_tape_len <= d.tape_capacity as u64);
        assert!(d.flush_materialize > 0, "every plan materializes outputs");
        assert!(d.groups > 0);
        assert!(d.fused_ops >= 2, "GEMM+epilogue chains must fuse");

        // The dispatch-cost model is deterministic: one charge per
        // launched group, exactly dispatch_us each. This is the identity
        // CI asserts on the smoke artifact.
        assert_eq!(d.dispatch_ns, d.groups * d.dispatch_us * 1_000);
        assert!(d.compute_ns > 0);

        // Equivalence gate: every probed (family, n, dtype) agreed with
        // the engine within tolerance.
        assert!(d.probes > 0);
        assert_eq!(d.mismatches, 0, "tape diverged from engine");

        // Per-family splits: solve_residual (Hᵀ(y−Hx): GEMV, AXPY-shaped
        // sub, GEMV) and chain carry fusable epilogues; every family that
        // served reports a consistent dispatch share and a measured
        // fusion-on/off A/B.
        assert_eq!(d.families.len(), Family::ALL.len());
        let fam_ops: u64 = d.families.iter().map(|f| f.tape_ops).sum();
        assert_eq!(fam_ops, d.tape_ops);
        for f in &d.families {
            assert_eq!(f.fused_ops + f.unfused_ops, f.tape_ops, "{}", f.family);
            assert!(f.dispatch_share >= 0.0 && f.dispatch_share <= 1.0, "{}", f.family);
            assert!(f.fused_mean_ms > 0.0 && f.unfused_mean_ms > 0.0, "{}", f.family);
            assert!(f.fused_speedup > 0.0, "{}", f.family);
        }
        let solve = d.families.iter().find(|f| f.family == "solve_residual").unwrap();
        assert!(solve.fused_ops >= 2, "residual chain must fuse: {solve:?}");
        // The acceptance A/B: coalescing a stacked window into one
        // launch must beat per-RHS launches on the chain family. The
        // delta is the modeled dispatch spin ((occupancy − 1) ×
        // dispatch_us per window), not machine speed, so it holds on
        // noisy runners too.
        let chain = d.families.iter().find(|f| f.family == "chain").unwrap();
        assert!(chain.fused_speedup > 1.0, "fusion must win on chain windows: {chain:?}");

        // v7 round-trips with the deferred record intact.
        let back = ServeReport::from_json(&report.to_json()).expect("round-trips");
        assert_eq!(back, report);
        assert_eq!(back.deferred, report.deferred);
    }

    #[test]
    fn deferred_record_stays_inert_without_the_lane() {
        let report = run_ok(&ServeConfig { requests: 24, ..tiny_cfg() });
        let d = &report.deferred;
        assert!(!d.enabled);
        assert_eq!(d.tape_ops, 0);
        assert_eq!((d.probes, d.mismatches), (0, 0));
        assert!(d.families.is_empty());
    }

    #[test]
    fn builder_sets_deferred_tuning() {
        let cfg =
            ServeConfig::smoke_builder().dispatch_us(11).fusion(false).build().expect("builds");
        assert_eq!(cfg.dispatch_us, 11);
        assert!(!cfg.fusion);
        let t = cfg.deferred_tuning();
        assert_eq!(t.dispatch_ns, 11_000);
        assert!(!t.fuse);
        let d = ServeConfig::default();
        assert_eq!(d.dispatch_us, 5);
        assert!(d.fusion);
    }

    #[test]
    fn strict_timing_batching_and_hit_speedups() {
        // Timing-sensitive: asserted only under LAAB_STRICT_TIMING=1
        // (shared runners are too noisy). A cache hit skips trace +
        // optimize + schedule, so hit batches serve faster than cold
        // ones; and the GEMV-shaped (RHS-stackable) families must show a
        // strict batched-over-solo throughput step at window 8 — the
        // Level-2 → Level-3 regime conversion this subsystem exists for.
        if std::env::var("LAAB_STRICT_TIMING").as_deref() != Ok("1") {
            return;
        }
        let report = run_ok(&ServeConfig::smoke());
        assert!(
            report.cache_hit_speedup > 1.0,
            "cache-hit speedup {:.2}x not > 1x (cold {:.3}ms, hit {:.3}ms)",
            report.cache_hit_speedup,
            report.cold_trace_mean_ms,
            report.cache_hit_mean_ms
        );
        for f in &report.families {
            if f.stackable {
                assert!(
                    f.batched_speedup > 1.0,
                    "{}: batched {:.3}ms not faster than solo {:.3}ms",
                    f.family,
                    f.batched_mean_ms,
                    f.solo_mean_ms
                );
            }
        }
    }
}
