//! [`ServeConfig`] — everything [`Server::bind`](crate::Server::bind) and
//! [`Server::run`](crate::Server::run) read — and its validating builder.

use crate::error::{resolve_backends, ServeError};
use crate::fault::FaultPlan;

/// Configuration of one `laab serve` server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Executor threads draining the admission queue; `0` means detected
    /// hardware parallelism (capped at 8 — beyond that the 1-socket
    /// kernels are the bottleneck, not the serving layer).
    pub clients: usize,
    /// Seed for the operand pools, request payloads and fault decisions.
    /// A verifying client must use the same one.
    pub seed: u64,
    /// Plan-cache capacity **per served backend**: the shared cache is
    /// bounded to `cache_capacity × backends`. The cache stays
    /// hash-sharded (not partitioned per backend), so isolation is
    /// proportional sizing, not a hard guarantee.
    pub cache_capacity: usize,
    /// Plan-cache shard count.
    pub shards: usize,
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
            clients: 0,
            seed: 0x1AAB,
            cache_capacity: 64,
            shards: 8,
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

impl ServeConfig {
    /// Start a validating [`ServeConfigBuilder`] from the defaults. The
    /// builder is the supported construction path: it rejects unknown
    /// backends, zero shards and an explicit `--clients 0` at `build()`
    /// time, before the listener is bound. Struct-literal construction
    /// still compiles (the fields are public) but skips the
    /// `--clients 0` check; [`Server::bind`](crate::Server::bind)
    /// repeats the other two.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { cfg: Self::default(), explicit_zero_clients: false }
    }

    /// The resolved executor count. An explicit positive `clients` is
    /// used verbatim — never clamped. `0` (auto) detects hardware
    /// parallelism and caps it at 8; the cap applies **only** to
    /// auto-detection, so pass an explicit count to exceed it on bigger
    /// boxes.
    pub fn resolved_clients(&self) -> usize {
        if self.clients > 0 {
            self.clients
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
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
    /// Explicit executor count. `0` is rejected at `build()` — it is not
    /// "all cores"; leave the builder's default for capped
    /// auto-detection, or pass the core count you mean.
    pub fn clients(mut self, v: usize) -> Self {
        self.explicit_zero_clients = v == 0;
        if v > 0 {
            self.cfg.clients = v;
        }
        self
    }

    /// Seed for the operand pools and fault decisions.
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
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

    /// Registry names of the backends to serve (validated at `build()`).
    pub fn backends<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.cfg.backends = names.into_iter().map(Into::into).collect();
        self
    }

    /// Admission-window occupancy (`0`/`1` disables coalescing).
    pub fn batch_window(mut self, v: usize) -> Self {
        self.cfg.batch_window = v;
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

    /// Deterministic fault-injection plan.
    pub fn faults(mut self, v: Option<FaultPlan>) -> Self {
        self.cfg.faults = v;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_at_build_time() {
        // The happy path reproduces the defaults, and auto (the default)
        // resolves with the documented cap.
        let cfg = ServeConfig::builder().build().expect("defaults build");
        assert_eq!(cfg, ServeConfig::default());
        assert_eq!(cfg.clients, 0);
        assert!(cfg.resolved_clients() >= 1 && cfg.resolved_clients() <= 8);

        // Explicit zero clients is a named error, not a silent clamp,
        // and the message offers only what `--clients` parses.
        assert_eq!(ServeConfig::builder().clients(0).build(), Err(ServeError::ZeroClients));
        assert!(!ServeError::ZeroClients.to_string().contains("auto"));
        // Explicit counts pass through verbatim, beyond the auto cap too.
        let cfg = ServeConfig::builder().clients(0).clients(12).build().expect("explicit builds");
        assert_eq!((cfg.clients, cfg.resolved_clients()), (12, 12));

        assert_eq!(ServeConfig::builder().shards(0).build(), Err(ServeError::ZeroShards));

        // Backend names resolve at build time, before the listener binds.
        let err = ServeConfig::builder().backends(["cuda"]).build().expect_err("unknown");
        assert!(
            matches!(err, ServeError::UnknownBackend { ref requested, .. } if requested == "cuda")
        );
        assert!(ServeConfig::builder().backends(Vec::<String>::new()).build().is_err());
    }
}
