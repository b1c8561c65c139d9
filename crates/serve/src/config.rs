//! [`ServeConfig`] — everything [`Server::bind`](crate::Server::bind) and
//! [`Server::run`](crate::Server::run) read — and its validating builder.

use crate::error::{resolve_backends, ServeError};
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

impl ServeConfig {
    /// Start a validating [`ServeConfigBuilder`] from the defaults. The
    /// builder is the supported construction path: it rejects a bad
    /// backend list at `build()` time, before the listener is bound.
    /// Struct-literal construction still compiles (the fields are
    /// public); [`Server::bind`](crate::Server::bind) repeats the check.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { cfg: Self::default() }
    }
}

/// Validating builder for [`ServeConfig`] — see [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Seed for the operand pools and fault decisions.
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
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
    /// [`ServeError::DuplicateBackend`] for a bad backend list.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        resolve_backends(&self.cfg.backends)?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_at_build_time() {
        // The happy path reproduces the defaults.
        let cfg = ServeConfig::builder().build().expect("defaults build");
        assert_eq!(cfg, ServeConfig::default());

        // Backend names resolve at build time, before the listener binds.
        let err = ServeConfig::builder().backends(["cuda"]).build().expect_err("unknown");
        assert!(
            matches!(err, ServeError::UnknownBackend { ref requested, .. } if requested == "cuda")
        );
        assert!(ServeConfig::builder().backends(Vec::<String>::new()).build().is_err());
    }
}
