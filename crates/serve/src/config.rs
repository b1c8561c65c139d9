//! [`ServeConfig`] — everything [`Server::bind`](crate::Server::bind) and
//! [`Server::run`](crate::Server::run) read. Build one as a struct literal
//! over [`ServeConfig::default`]; `Server::bind` rejects a bad backend
//! list before it binds the listener.

use crate::fault::FaultPlan;

/// Configuration of one `laab serve` server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Seed for the operand pools, request payloads and fault decisions.
    /// A verifying client must use the same one.
    pub seed: u64,
    /// Registry names of the backends requests may ask for.
    pub backends: Vec<String>,
    /// Admission-window size: pending same-signature requests coalesce
    /// into batches of up to this many. `0` or `1` disables batching
    /// (every request is its own batch).
    pub batch_window: usize,
    /// Per-connection in-flight cap. A connection with this many
    /// unanswered requests gets `Busy{retry_after_us}` instead of queue
    /// growth. `0` = unlimited.
    pub max_inflight: usize,
    /// Global admission-backlog bound in requests. Submits past it are
    /// shed with a `Busy` response; past *half* of it, groups flush
    /// early (pressure) to favor latency. `0` = unbounded.
    pub backlog: usize,
    /// Quarantine a `(signature, backend)` after this many caught
    /// execution panics — further requests for it fail fast instead of
    /// re-poisoning executors. `0` = never quarantine.
    pub quarantine_after: u32,
    /// Reader-side socket read timeout, milliseconds. A connection
    /// silent for this long is reaped (counted, connection dropped)
    /// instead of pinning its reader thread forever. `0` = wait forever.
    pub read_timeout_ms: u64,
    /// Deterministic fault injection; `None` injects nothing.
    pub faults: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            seed: 0x1AAB,
            backends: vec!["engine".to_string()],
            batch_window: 8,
            max_inflight: 256,
            backlog: 2048,
            quarantine_after: 3,
            read_timeout_ms: 30_000,
            faults: None,
        }
    }
}
