//! The blocking network server: listener → admission → batch → backend.
//!
//! `laab serve --listen <addr>` runs this front-end. The dataflow is
//! three layers:
//!
//! ```text
//!  connections ──► reader threads ──► AdmissionQueue ──► executor pool
//!  (unix/tcp)      (decode+validate)  (work-conserving)   (plan cache
//!                                                          → backend)
//! ```
//!
//! One reader thread per accepted connection decodes
//! [`proto`] frames through a buffered reader (a pipelined burst costs
//! one `read`), validates each request against the
//! served backend set (unknown family/backend, unsupported dtype, and
//! out-of-range sizes are *rejected with a response frame*, never a
//! panic), and submits jobs keyed by `(family, n, dtype, backend)` —
//! exactly what determines the plan-cache [`Signature`].
//! A pool of executor threads (detected parallelism, at most 8) drains
//! whole batches through the shared [`PlanCache`]. Each executor
//! remembers, per key, the signature and operand pools it built the
//! first time, so a repeated key costs one map probe. Every execution's
//! answers leave in one `write` per connection: one response frame per
//! request, carrying the measured queue delay, the per-request
//! execution share, the batch occupancy and [`FlushKind`], and a
//! [checksum](crate::proto::result_checksum) of the result matrices for
//! client-side bitwise validation.
//!
//! Shutdown is graceful and in-band: a [`Message::Shutdown`] frame is
//! acknowledged immediately, the listener stops accepting, readers drain
//! to EOF, the admission queue flushes its partial groups, executors
//! finish the backlog, and — for unix sockets — the socket file is
//! removed. [`Server::run`] then returns the run's [`ServerStats`].

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use laab_backend::{BackendScalar, Dtype, Registration};
use laab_expr::eval::Env;
use laab_expr::{Context, Expr};
use laab_framework::Framework;

use crate::admission::{AdmissionQueue, AdmissionStats, FlushKind, FlushedBatch, SubmitOutcome};
use crate::cache::{CacheStats, PlanCache};
use crate::config::ServeConfig;
use crate::error::{resolve_backends, ServeError};
use crate::fault::{FaultCounts, FaultInjector};
use crate::plan::Plan;
use crate::proto::{self, FrameError, Message, Outcome, RequestMsg, ResponseMsg};
use crate::signature::Signature;
use crate::workload::{Family, Request};

/// The `retry_after_us` hint of a `Busy` rejection: long enough for an
/// executor to drain a few small batches, short next to any client
/// timeout.
const RETRY_AFTER_US: u64 = 500;

/// Plan-cache capacity per served backend. The cache is shared and
/// hash-sharded, not partitioned per backend, so this sizes it in
/// proportion rather than isolating backends.
const PLANS_PER_BACKEND: usize = 64;

/// Executor threads draining the admission queue: detected hardware
/// parallelism, capped at 8 (beyond that the one-socket kernels are the
/// bottleneck, not the serving layer).
fn executor_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(8)
}

/// The XOR mask an injected `corrupt` fault applies to a response
/// checksum. Constant (not keyed) so tests can predict the corrupted
/// value exactly.
pub(crate) const CORRUPT_MASK: u64 = 0x5AAB_5AAB_5AAB_5AAB;

/// A parsed listen/connect address: a unix socket path or a TCP
/// host:port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address (`host:port`).
    Tcp(String),
}

impl Listen {
    /// Parse an address spec. Accepted forms: `unix:<path>`,
    /// `tcp:<host:port>`, a bare path containing `/` (unix), or a bare
    /// `host:port` (TCP).
    pub fn parse(spec: &str) -> Result<Listen, ServeError> {
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(ServeError::BadListen(spec.to_string()));
            }
            return Ok(Listen::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = spec.strip_prefix("tcp:") {
            if addr.is_empty() || !addr.contains(':') {
                return Err(ServeError::BadListen(spec.to_string()));
            }
            return Ok(Listen::Tcp(addr.to_string()));
        }
        if spec.contains('/') {
            return Ok(Listen::Unix(PathBuf::from(spec)));
        }
        if spec.contains(':') {
            return Ok(Listen::Tcp(spec.to_string()));
        }
        Err(ServeError::BadListen(spec.to_string()))
    }

    /// The canonical `unix:`/`tcp:`-prefixed spelling.
    pub fn display(&self) -> String {
        match self {
            Listen::Unix(p) => format!("unix:{}", p.display()),
            Listen::Tcp(a) => format!("tcp:{a}"),
        }
    }
}

/// One established connection, either flavor. Cloned once per
/// connection: the original feeds the reader, the clone (behind a
/// mutex) is shared by the executors writing responses.
pub(crate) enum Stream {
    /// A unix-domain stream.
    Unix(UnixStream),
    /// A TCP stream.
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    /// Bound the time a blocking `read` may wait. `None` restores the
    /// default (wait forever). Reads that hit the bound fail with
    /// `WouldBlock` (unix) or `TimedOut` (TCP, some platforms).
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl std::io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Connect to a listening server (used by the load generator and by the
/// server itself to unblock its own accept loop at shutdown).
pub(crate) fn connect(addr: &Listen) -> Result<Stream, ServeError> {
    let wrap =
        |e: std::io::Error| ServeError::Connect { addr: addr.display(), source: Arc::new(e) };
    match addr {
        Listen::Unix(path) => UnixStream::connect(path).map(Stream::Unix).map_err(wrap),
        Listen::Tcp(spec) => TcpStream::connect(spec.as_str()).map(Stream::Tcp).map_err(wrap),
    }
}

enum ListenerKind {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl ListenerKind {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            ListenerKind::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            ListenerKind::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// What the server did over its lifetime, returned by [`Server::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted (the shutdown-unblocking self-connection is
    /// not counted).
    pub connections: u64,
    /// Requests executed and answered with an `Ok` response.
    pub served: u64,
    /// Requests answered with an error response (validation failures,
    /// submits after close).
    pub rejected: u64,
    /// Requests answered with a `Busy` rejection: the per-connection
    /// in-flight cap or the global admission backlog was full.
    pub shed: u64,
    /// Requests answered with an `Expired` response: their deadline
    /// passed while they waited in the admission queue.
    pub expired: u64,
    /// Requests answered with a `Failed` response because execution
    /// panicked (the executor caught the unwind and kept serving).
    pub failed: u64,
    /// Requests refused up front because their `(signature, backend)`
    /// was quarantined after repeated execution failures.
    pub quarantined: u64,
    /// Connections reaped by the read timeout: the peer connected and
    /// went silent, and the reader thread gave up waiting.
    pub reaped: u64,
    /// What the fault-injection layer did (all zero without `--faults`).
    pub faults: FaultCounts,
    /// The admission queue's flush counters.
    pub admission: AdmissionStats,
    /// The plan cache's counters at shutdown. Lookups are per admitted
    /// batch, so `hits + misses ≤ served` on a fault-free run.
    pub cache: CacheStats,
}

/// The admission-queue key: exactly the fields that determine the
/// plan-cache [`Signature`](crate::Signature) plus the target backend.
type JobKey = (Family, usize, Dtype, &'static str);

/// One validated request waiting in the admission queue.
struct ServerJob {
    writer: Arc<Mutex<Stream>>,
    id: u64,
    request: Request,
    backend: &'static Registration,
    at: Instant,
    /// Absolute expiry instant (`None` when the client sent no
    /// deadline). Checked at dequeue and again pre-execution.
    deadline: Option<Instant>,
    /// The owning connection's in-flight gauge, decremented exactly
    /// once, just before the job's terminal response is written.
    inflight: Arc<AtomicI64>,
}

impl ServerJob {
    /// The admission (and quarantine) key the job was submitted under.
    fn key(&self) -> JobKey {
        (self.request.family, self.request.n, self.request.dtype, self.backend.name())
    }

    /// Release the job's in-flight slot and answer it. Every admitted
    /// job must end here, or in [`ServerJob::release`] followed by an
    /// execution's coalesced write, exactly once.
    fn finish(&self, outcome: Outcome) {
        self.release();
        respond(&self.writer, self.id, outcome);
    }

    /// Release the job's in-flight slot, before its answer is written:
    /// a client that sends its next request on the answer must find the
    /// slot free.
    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The server-lifetime response-class counters, shared by readers and
/// executors.
#[derive(Default)]
struct Counters {
    served: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    quarantined: AtomicU64,
    reaped: AtomicU64,
}

impl Counters {
    fn bump(&self, which: &AtomicU64) {
        which.fetch_add(1, Ordering::Relaxed);
    }
}

/// Failure bookkeeping per `(family, n, dtype, backend)`. Once a key
/// accumulates `after` execution failures it is quarantined: further
/// requests are refused with a `Failed` response before touching the
/// executor pool. `after == 0` disables quarantining.
struct Quarantine {
    after: u32,
    failures: Mutex<HashMap<JobKey, u32>>,
}

impl Quarantine {
    fn new(after: u32) -> Quarantine {
        Quarantine { after, failures: Mutex::new(HashMap::new()) }
    }

    fn is_quarantined(&self, key: &JobKey) -> bool {
        self.after > 0
            && self
                .failures
                .lock()
                .expect("quarantine map")
                .get(key)
                .is_some_and(|&c| c >= self.after)
    }

    fn record_failure(&self, key: JobKey) {
        if self.after == 0 {
            return;
        }
        *self.failures.lock().expect("quarantine map").entry(key).or_insert(0) += 1;
    }
}

/// Per-`(family, n)` operand pools, built lazily as signatures appear.
struct PoolPair {
    f64: Env<f64>,
    f32: Env<f32>,
}

/// What an executor needs before it executes a key's batch.
struct Keyed {
    /// The plan-cache signature.
    sig: Signature,
    /// The family's expression and context at the key's size: what the
    /// signature was built from, and what a cache miss compiles.
    expr: Expr,
    ctx: Context,
    /// The key's operand pools.
    pools: Arc<PoolPair>,
}

/// One executor thread's memo of what each key needs before execution.
/// Owned by its thread, so a repeated key costs one map probe — no
/// `Expr` rebuild, canonical render and hash, and no shared pool-map
/// lock — and a plan-cache miss compiles at once. Like that map it holds
/// one entry per key clients have sent.
#[derive(Default)]
struct Memo(HashMap<JobKey, Keyed>);

impl Memo {
    /// What `job`'s key needs, built on first sight.
    fn get(&mut self, job: &ServerJob, ctx: &ExecCtx<'_>) -> &Keyed {
        let req = &job.request;
        self.0.entry(job.key()).or_insert_with(|| {
            let (expr, typing) = (req.family.expr(req.n), req.family.ctx(req.n));
            Keyed {
                sig: req.signature_over(&expr, &typing, job.backend.id()),
                expr,
                ctx: typing,
                pools: pool_for(ctx.pools, req.family, req.n, ctx.seed),
            }
        })
    }
}

/// The blocking serving front-end. Construct with [`Server::bind`], then
/// [`Server::run`] until a client sends [`Message::Shutdown`].
pub struct Server {
    local: Listen,
    listener: ListenerKind,
    cfg: ServeConfig,
    regs: Vec<&'static Registration>,
}

impl Server {
    /// Bind the listener. The backend names are validated first, so a bad
    /// list never opens a socket.
    ///
    /// # Errors
    /// Backend-list rejections ([`ServeError::UnknownBackend`] etc.),
    /// [`ServeError::BadListen`] for an unintelligible address, and
    /// [`ServeError::Bind`] when the OS refuses the socket.
    pub fn bind(spec: &str, cfg: &ServeConfig) -> Result<Server, ServeError> {
        let addr = Listen::parse(spec)?;
        let regs = resolve_backends(&cfg.backends)?;
        let wrap =
            |e: std::io::Error| ServeError::Bind { addr: addr.display(), source: Arc::new(e) };
        let (listener, local) = match &addr {
            Listen::Unix(path) => {
                (ListenerKind::Unix(UnixListener::bind(path).map_err(wrap)?), addr.clone())
            }
            Listen::Tcp(spec) => {
                let l = TcpListener::bind(spec.as_str()).map_err(wrap)?;
                // Report the resolved address, so `tcp:127.0.0.1:0`
                // (ephemeral port) is connectable from the returned spec.
                let local = l
                    .local_addr()
                    .map(|a| Listen::Tcp(a.to_string()))
                    .unwrap_or_else(|_| addr.clone());
                (ListenerKind::Tcp(l), local)
            }
        };
        Ok(Server { local, listener, cfg: cfg.clone(), regs })
    }

    /// The bound address in canonical `unix:`/`tcp:` form (for TCP, with
    /// the ephemeral port resolved).
    pub fn local_addr(&self) -> String {
        self.local.display()
    }

    /// Serve until a client sends [`Message::Shutdown`], then drain and
    /// return the stats. Blocking: readers, executors, and the accept
    /// loop all run on scoped threads inside this call. On a unix
    /// listener the socket file is removed before returning — a clean
    /// shutdown leaks nothing.
    ///
    /// # Errors
    /// [`ServeError::Accept`] if the listener itself fails (individual
    /// connection failures only drop that connection).
    pub fn run(self) -> Result<ServerStats, ServeError> {
        let Server { local, listener, cfg, regs } = self;
        let queue: AdmissionQueue<JobKey, ServerJob> =
            AdmissionQueue::bounded(cfg.batch_window, None, cfg.backlog);
        let cache = PlanCache::new(PLANS_PER_BACKEND * regs.len());
        let pools: Mutex<HashMap<(Family, usize), Arc<PoolPair>>> = Mutex::new(HashMap::new());
        let shutdown = AtomicBool::new(false);
        let counters = Counters::default();
        let quarantine = Quarantine::new(cfg.quarantine_after);
        let injector = cfg.faults.map(|plan| FaultInjector::new(plan, cfg.seed));
        let ctx = ReaderCtx {
            queue: &queue,
            regs: &regs,
            shutdown: &shutdown,
            local: &local,
            counters: &counters,
            quarantine: &quarantine,
            injector: injector.as_ref(),
            max_inflight: cfg.max_inflight,
            read_timeout: (cfg.read_timeout_ms > 0)
                .then(|| Duration::from_millis(cfg.read_timeout_ms)),
        };
        let mut connections = 0u64;
        let mut accept_err: Option<ServeError> = None;

        let exec = ExecCtx {
            cache: &cache,
            pools: &pools,
            seed: cfg.seed,
            counters: &counters,
            quarantine: &quarantine,
            injector: injector.as_ref(),
        };

        std::thread::scope(|scope| {
            let mut executors = Vec::new();
            for _ in 0..executor_count() {
                let (queue, exec) = (&queue, &exec);
                executors.push(scope.spawn(move || {
                    let mut memo = Memo::default();
                    while let Some(batch) = queue.next_batch() {
                        execute_batch(&batch, exec, &mut memo);
                    }
                }));
            }

            let mut readers = Vec::new();
            loop {
                let stream = match listener.accept() {
                    Ok(s) => s,
                    Err(e) => {
                        if !shutdown.load(Ordering::SeqCst) {
                            accept_err = Some(ServeError::Accept(Arc::new(e)));
                        }
                        break;
                    }
                };
                if shutdown.load(Ordering::SeqCst) {
                    // The self-connection that unblocked accept; drop it.
                    break;
                }
                connections += 1;
                let ctx = &ctx;
                readers.push(scope.spawn(move || {
                    reader_loop(stream, ctx);
                }));
            }

            // Readers exit at their client's EOF; only then is the queue
            // closed, so no accepted request is dropped un-answered.
            for r in readers {
                let _ = r.join();
            }
            queue.close();
            for e in executors {
                let _ = e.join();
            }
        });

        if let Listen::Unix(path) = &local {
            let _ = std::fs::remove_file(path);
        }
        if let Some(e) = accept_err {
            return Err(e);
        }
        Ok(ServerStats {
            connections,
            served: counters.served.load(Ordering::Relaxed),
            rejected: counters.rejected.load(Ordering::Relaxed),
            shed: counters.shed.load(Ordering::Relaxed),
            expired: counters.expired.load(Ordering::Relaxed),
            failed: counters.failed.load(Ordering::Relaxed),
            quarantined: counters.quarantined.load(Ordering::Relaxed),
            reaped: counters.reaped.load(Ordering::Relaxed),
            faults: injector.as_ref().map(FaultInjector::counts).unwrap_or_default(),
            admission: queue.stats(),
            cache: cache.stats(),
        })
    }
}

/// Everything a reader thread needs, bundled so the per-connection
/// spawn stays one borrow.
struct ReaderCtx<'a> {
    queue: &'a AdmissionQueue<JobKey, ServerJob>,
    regs: &'a [&'static Registration],
    shutdown: &'a AtomicBool,
    local: &'a Listen,
    counters: &'a Counters,
    quarantine: &'a Quarantine,
    injector: Option<&'a FaultInjector>,
    max_inflight: usize,
    read_timeout: Option<Duration>,
}

/// Answer one connection: decode frames, validate, apply admission
/// control, submit; on [`Message::Shutdown`], ack, stop the acceptor,
/// and drain to EOF. A malformed frame drops the connection (the
/// stream position is unrecoverable) without touching the rest of the
/// server; a read that exceeds the configured timeout *reaps* the
/// connection — a silent peer no longer pins a thread forever.
fn reader_loop(stream: Stream, ctx: &ReaderCtx<'_>) {
    if stream.set_read_timeout(ctx.read_timeout).is_err() {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let inflight = Arc::new(AtomicI64::new(0));
    // Buffered: the frames of a pipelined burst arrive in one `read`.
    let mut reader = BufReader::new(stream);
    loop {
        match proto::read_message(&mut reader) {
            Ok(Some(Message::Request(msg))) => match validate(&msg, ctx.regs) {
                Ok((request, backend)) => {
                    admit(&msg, request, backend, &writer, &inflight, ctx);
                }
                Err(message) => {
                    ctx.counters.bump(&ctx.counters.rejected);
                    respond(&writer, msg.id, Outcome::Err { message });
                }
            },
            Ok(Some(Message::Shutdown)) => {
                {
                    let mut w = writer.lock().expect("connection writer");
                    let _ = proto::write_message(&mut *w, &Message::ShutdownAck);
                }
                ctx.shutdown.store(true, Ordering::SeqCst);
                // Unblock the blocking accept loop with a self-connection.
                let _ = connect(ctx.local);
                // Keep reading: the client closes after the ack, and any
                // in-flight responses still flow through the writer.
            }
            Ok(Some(other)) => {
                // A server never receives responses or acks; drop the
                // connection rather than guess at the peer's state.
                let _ = other;
                break;
            }
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                ctx.counters.bump(&ctx.counters.reaped);
                break;
            }
            Ok(None) | Err(_) => break,
        }
    }
}

/// Admission control for one validated request: quarantine pre-check,
/// injected drop, per-connection in-flight cap, then the bounded queue.
/// Every path answers the client except an injected drop (whose whole
/// point is to exercise the client's retry timeout).
fn admit(
    msg: &RequestMsg,
    request: Request,
    backend: &'static Registration,
    writer: &Arc<Mutex<Stream>>,
    inflight: &Arc<AtomicI64>,
    ctx: &ReaderCtx<'_>,
) {
    let key = (request.family, request.n, request.dtype, backend.name());
    if ctx.quarantine.is_quarantined(&key) {
        ctx.counters.bump(&ctx.counters.quarantined);
        respond(
            writer,
            msg.id,
            Outcome::Failed {
                message: "signature quarantined after repeated execution failures".to_string(),
            },
        );
        return;
    }
    if ctx.injector.is_some_and(|i| i.should_drop(msg.id)) {
        return;
    }
    if ctx.max_inflight > 0 && inflight.load(Ordering::Relaxed) >= ctx.max_inflight as i64 {
        ctx.counters.bump(&ctx.counters.shed);
        respond(writer, msg.id, Outcome::Busy { retry_after_us: RETRY_AFTER_US });
        return;
    }
    let deadline =
        (msg.deadline_us > 0).then(|| Instant::now() + Duration::from_micros(msg.deadline_us));
    inflight.fetch_add(1, Ordering::Relaxed);
    let job = ServerJob {
        writer: writer.clone(),
        id: msg.id,
        request,
        backend,
        at: Instant::now(),
        deadline,
        inflight: inflight.clone(),
    };
    match ctx.queue.submit(key, job) {
        SubmitOutcome::Queued => {}
        SubmitOutcome::Shed => {
            inflight.fetch_sub(1, Ordering::Relaxed);
            ctx.counters.bump(&ctx.counters.shed);
            respond(writer, msg.id, Outcome::Busy { retry_after_us: RETRY_AFTER_US });
        }
        SubmitOutcome::Closed => {
            inflight.fetch_sub(1, Ordering::Relaxed);
            ctx.counters.bump(&ctx.counters.rejected);
            respond(
                writer,
                msg.id,
                Outcome::Err { message: "server is shutting down".to_string() },
            );
        }
    }
}

/// Validate one wire request against the served configuration. The
/// error string travels back to the client verbatim in an error
/// response.
fn validate(
    msg: &RequestMsg,
    regs: &[&'static Registration],
) -> Result<(Request, &'static Registration), String> {
    let family = Family::from_id(&msg.family)
        .ok_or_else(|| format!("unknown request family `{}`", msg.family))?;
    if msg.n < 2 || msg.n > 4096 {
        return Err(format!("operand size {} out of range [2, 4096]", msg.n));
    }
    let reg = regs.iter().find(|r| r.name() == msg.backend).copied().ok_or_else(|| {
        let names: Vec<&str> = regs.iter().map(|r| r.name()).collect();
        format!("backend `{}` is not served here (serving: {})", msg.backend, names.join(", "))
    })?;
    if !reg.supports(msg.dtype) {
        return Err(format!(
            "backend `{}` does not support dtype {}",
            msg.backend,
            msg.dtype.name()
        ));
    }
    Ok((Request { family, n: msg.n as usize, dtype: msg.dtype, payload: msg.payload }, reg))
}

/// Write one response frame.
fn respond(writer: &Mutex<Stream>, id: u64, outcome: Outcome) {
    send(writer, &proto::encode_frame(&Message::Response(ResponseMsg { id, outcome })));
}

/// Write encoded frames to one connection in one `write_all`
/// (best-effort: a vanished client only loses its own responses).
fn send(writer: &Mutex<Stream>, frames: &[u8]) {
    let mut w = writer.lock().expect("connection writer");
    let _ = w.write_all(frames);
}

/// Fetch (or lazily build) the operand pool for `(family, n)`.
fn pool_for(
    pools: &Mutex<HashMap<(Family, usize), Arc<PoolPair>>>,
    family: Family,
    n: usize,
    seed: u64,
) -> Arc<PoolPair> {
    if let Some(p) = pools.lock().expect("pool map").get(&(family, n)) {
        return p.clone();
    }
    // Built outside the lock: two racing executors may build the same
    // pool, but both builds are deterministic and the map keeps one.
    let f64 = family.env::<f64>(n, seed);
    let built = Arc::new(PoolPair { f32: family.env_from_f64(n, &f64), f64 });
    pools.lock().expect("pool map").entry((family, n)).or_insert(built).clone()
}

/// Everything an executor thread needs, bundled like [`ReaderCtx`].
struct ExecCtx<'a> {
    cache: &'a PlanCache,
    pools: &'a Mutex<HashMap<(Family, usize), Arc<PoolPair>>>,
    seed: u64,
    counters: &'a Counters,
    quarantine: &'a Quarantine,
    injector: Option<&'a FaultInjector>,
}

/// Execute one admitted batch and answer every request in it. The
/// robustness gauntlet runs first: every member's injected delay is
/// drawn, expired jobs are answered `Expired` without compute, a drawn
/// delay stretches what is still live (and may expire more of it), a
/// quarantined signature is refused wholesale; what is still live goes
/// to [`execute_typed`].
fn execute_batch(batch: &FlushedBatch<ServerJob>, ctx: &ExecCtx<'_>, memo: &mut Memo) {
    let start = Instant::now();
    let counters = ctx.counters;
    // Every member's delay is drawn before any expiry check, so what the
    // fault plan selects is counted however late the batch was picked up.
    let delay =
        ctx.injector.and_then(|inj| batch.items.iter().filter_map(|j| inj.delay_for(j.id)).max());
    let mut live = expire(batch.items.iter().collect(), counters);
    if let Some(delay) = delay.filter(|_| !live.is_empty()) {
        std::thread::sleep(delay);
        live = expire(live, counters);
    }
    let Some(job0) = live.first() else { return };
    if ctx.quarantine.is_quarantined(&job0.key()) {
        for job in &live {
            counters.bump(&counters.quarantined);
            job.finish(Outcome::Failed {
                message: "signature quarantined after repeated execution failures".to_string(),
            });
        }
        return;
    }
    let keyed = memo.get(job0, ctx);
    match job0.request.dtype {
        Dtype::F64 => execute_typed::<f64>(&live, batch.kind, start, keyed, &keyed.pools.f64, ctx),
        Dtype::F32 => execute_typed::<f32>(&live, batch.kind, start, keyed, &keyed.pools.f32, ctx),
    }
}

/// Answer every past-deadline job with `Expired` and return the
/// still-live remainder (arrival order preserved).
fn expire<'a>(jobs: Vec<&'a ServerJob>, counters: &Counters) -> Vec<&'a ServerJob> {
    let now = Instant::now();
    let mut live = Vec::with_capacity(jobs.len());
    for job in jobs {
        match job.deadline {
            Some(dl) if now > dl => {
                counters.bump(&counters.expired);
                job.finish(Outcome::Expired { waited_us: job.at.elapsed().as_micros() as u64 });
            }
            _ => live.push(job),
        }
    }
    live
}

/// The typed half of [`execute_batch`]: one cache lookup, then the
/// batch runs as one or more *executions*. A plan that stacks runs all
/// members in one batched execution (solo at occupancy 1 — bitwise
/// identical to a local [`Plan::execute`] for any backend). A plan that
/// does not stack would run its members one after another inside
/// `execute_batched` anyway, so each member becomes its own execution
/// and is answered the moment it is done instead of waiting for its
/// batch-mates — same results bit for bit, `queue_ns` running to the
/// start of the member's own execution.
///
/// Each execution is one `catch_unwind` scope with one injected-panic
/// decision: a panic answers `Failed` to exactly the requests sharing
/// that execution (and records one quarantine failure) instead of
/// killing the executor. The echoed `occupancy` and `flush` stay the
/// admitted batch's; `start` is when the executor picked the batch up.
/// An execution's `Ok` answers are encoded into one buffer per
/// connection; their in-flight slots are released, then each buffer is
/// written at once.
fn execute_typed<T: BackendScalar>(
    live: &[&ServerJob],
    flush: FlushKind,
    start: Instant,
    keyed: &Keyed,
    pool_env: &Env<T>,
    ctx: &ExecCtx<'_>,
) {
    let counters = ctx.counters;
    let req0 = &live[0].request;
    let reg = live[0].backend;
    let has_payload = !req0.family.payload_operands().is_empty();
    let t_lookup = Instant::now();
    let Keyed { sig, expr, ctx: typing, .. } = keyed;
    let (plan, _) = ctx.cache.get_or_compile(sig, || {
        let varying = req0.family.varying_operands();
        Plan::compile_opt(&Framework::flow(), expr, typing, reg, varying, sig.opt())
    });
    // The lookup (and any compile) is execution time of whoever runs
    // first.
    let mut lookup_ns = t_lookup.elapsed().as_nanos() as u64;
    let per_execution = if plan.stackable() { live.len() } else { 1 };
    let mut began = start;
    for jobs in live.chunks(per_execution) {
        let owned: Vec<Env<T>> = if has_payload {
            jobs.iter().map(|j| j.request.env_from_pool(pool_env, ctx.seed)).collect()
        } else {
            Vec::new()
        };
        let refs: Vec<&Env<T>> = if has_payload {
            owned.iter().collect()
        } else {
            jobs.iter().map(|_| pool_env).collect()
        };
        // `should_panic` counts each firing id, so ask for every member
        // (no short-circuit) before deciding.
        let boom = ctx
            .injector
            .is_some_and(|inj| jobs.iter().filter(|j| inj.should_panic(j.id)).count() > 0);
        let t_exec = Instant::now();
        // Nothing inside the closure holds a lock the rest of the server
        // needs: the plan is an owned handle out of the cache, and the
        // response writer mutexes are only taken afterwards — an unwind
        // here cannot poison shared state.
        let computed = catch_unwind(AssertUnwindSafe(|| {
            if boom {
                panic!("injected fault: panic");
            }
            plan.execute_batched::<T>(&refs)
        }));
        match computed {
            Ok(results) => {
                let exec_ns = (t_exec.elapsed().as_nanos() as u64 + std::mem::take(&mut lookup_ns))
                    / jobs.len() as u64;
                // Members of one connection share its buffer, in arrival
                // order; a batch may interleave several connections.
                let mut out: Vec<(&Arc<Mutex<Stream>>, Vec<u8>)> = Vec::new();
                for (job, result) in jobs.iter().zip(&results) {
                    let mut checksum = proto::result_checksum(result);
                    if ctx.injector.is_some_and(|i| i.should_corrupt(job.id)) {
                        checksum ^= CORRUPT_MASK;
                    }
                    counters.bump(&counters.served);
                    let at = match out.iter().position(|(w, _)| Arc::ptr_eq(w, &job.writer)) {
                        Some(at) => at,
                        None => {
                            out.push((&job.writer, Vec::new()));
                            out.len() - 1
                        }
                    };
                    let outcome = Outcome::Ok {
                        queue_ns: began.duration_since(job.at).as_nanos() as u64,
                        exec_ns,
                        occupancy: live.len() as u32,
                        flush,
                        checksum,
                    };
                    proto::encode_frame_into(
                        &mut out[at].1,
                        &Message::Response(ResponseMsg { id: job.id, outcome }),
                    );
                }
                for job in jobs {
                    job.release();
                }
                for (writer, frames) in &out {
                    send(writer, frames);
                }
            }
            Err(payload) => {
                // `&*`: the payload inside the box, not the box as `dyn Any`.
                let message = panic_message(&*payload);
                ctx.quarantine.record_failure(live[0].key());
                for job in jobs {
                    counters.bump(&counters.failed);
                    job.finish(Outcome::Failed { message: message.clone() });
                }
            }
        }
        began = Instant::now();
    }
}

/// Best-effort extraction of a panic payload's message (panics carry
/// `&str` or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("execution panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("execution panicked: {s}")
    } else {
        "execution panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};

    #[test]
    fn listen_specs_parse_and_display() {
        assert_eq!(
            Listen::parse("unix:/tmp/x.sock").unwrap(),
            Listen::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Listen::parse("/tmp/x.sock").unwrap(),
            Listen::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Listen::parse("tcp:127.0.0.1:7070").unwrap(),
            Listen::Tcp("127.0.0.1:7070".into())
        );
        assert_eq!(Listen::parse("127.0.0.1:7070").unwrap(), Listen::Tcp("127.0.0.1:7070".into()));
        assert_eq!(Listen::parse("unix:").unwrap_err(), ServeError::BadListen("unix:".into()));
        assert_eq!(Listen::parse("tcp:").unwrap_err(), ServeError::BadListen("tcp:".into()));
        assert_eq!(
            Listen::parse("nonsense").unwrap_err(),
            ServeError::BadListen("nonsense".into())
        );
        assert_eq!(Listen::parse("unix:/a").unwrap().display(), "unix:/a");
        assert_eq!(Listen::parse("tcp:h:1").unwrap().display(), "tcp:h:1");
    }

    #[test]
    fn bind_validates_like_the_builder() {
        let cfg = ServeConfig { backends: vec!["cuda".into()], ..ServeConfig::default() };
        assert!(matches!(
            Server::bind("unix:/tmp/never-bound.sock", &cfg),
            Err(ServeError::UnknownBackend { .. })
        ));
    }

    const SEED: u64 = 0x1AAB;

    /// The server-lifetime state `execute_batch` runs against, owned by
    /// one test.
    struct Shared {
        cache: PlanCache,
        pools: Mutex<HashMap<(Family, usize), Arc<PoolPair>>>,
        counters: Counters,
    }

    impl Shared {
        fn new() -> Shared {
            Shared {
                cache: PlanCache::with_shards(4, 1),
                pools: Mutex::new(HashMap::new()),
                counters: Counters::default(),
            }
        }

        fn ctx<'a>(
            &'a self,
            quarantine: &'a Quarantine,
            injector: Option<&'a FaultInjector>,
        ) -> ExecCtx<'a> {
            ExecCtx {
                cache: &self.cache,
                pools: &self.pools,
                seed: SEED,
                counters: &self.counters,
                quarantine,
                injector,
            }
        }
    }

    fn engine() -> &'static Registration {
        resolve_backends(&["engine".to_string()]).unwrap()[0]
    }

    /// An admitted f64 job on connection `(writer, inflight)`, with its
    /// in-flight slot taken as `admit` takes it.
    fn job(
        (writer, inflight): &(Arc<Mutex<Stream>>, Arc<AtomicI64>),
        id: u64,
        family: Family,
        n: usize,
        at: Instant,
    ) -> ServerJob {
        inflight.fetch_add(1, Ordering::Relaxed);
        ServerJob {
            writer: writer.clone(),
            id,
            request: Request { family, n, dtype: Dtype::F64, payload: id },
            backend: engine(),
            at,
            deadline: None,
            inflight: inflight.clone(),
        }
    }

    /// A connection's server half (writer and in-flight gauge) and its
    /// client half.
    fn connection() -> ((Arc<Mutex<Stream>>, Arc<AtomicI64>), UnixStream) {
        let (server_end, client_end) = UnixStream::pair().expect("socket pair");
        ((Arc::new(Mutex::new(Stream::Unix(server_end))), Arc::new(AtomicI64::new(0))), client_end)
    }

    /// Run one admitted batch of `Gram` requests (a matrix family: its
    /// plan does not stack) with wire ids `ids` through `execute_batch`
    /// and return the responses in the order they were written, plus
    /// the solo checksum every `Ok` among them must carry.
    fn serve_gram_batch(
        ids: &[u64],
        injector: Option<&FaultInjector>,
        quarantine: &Quarantine,
    ) -> (Vec<ResponseMsg>, u64) {
        let n = 12;
        let shared = Shared::new();
        let family = Family::Gram;
        let plan = Plan::compile_with_varying(
            &Framework::flow(),
            &family.expr(n),
            &family.ctx(n),
            engine(),
            family.varying_operands(),
        );
        assert!(!plan.stackable(), "the premise: matrix families take the per-request path");
        let solo = proto::result_checksum(&plan.execute::<f64>(&family.env::<f64>(n, SEED)));

        let (conn, mut client_end) = connection();
        let now = Instant::now();
        let items = ids.iter().map(|&id| job(&conn, id, family, n, now)).collect();
        let batch = FlushedBatch { items, kind: FlushKind::Occupancy, enqueued_at: now };
        execute_batch(&batch, &shared.ctx(quarantine, injector), &mut Memo::default());
        assert_eq!(conn.1.load(Ordering::Relaxed), 0, "every job finished exactly once");

        let responses = ids
            .iter()
            .map(|_| match proto::read_message(&mut client_end) {
                Ok(Some(Message::Response(r))) => r,
                other => panic!("expected a response frame, got {other:?}"),
            })
            .collect();
        (responses, solo)
    }

    #[test]
    fn a_stacked_batch_answers_each_connection_its_own_ids_in_arrival_order() {
        let n = 16;
        let shared = Shared::new();
        let family = Family::Chain;
        let plan = Plan::compile_with_varying(
            &Framework::flow(),
            &family.expr(n),
            &family.ctx(n),
            engine(),
            family.varying_operands(),
        );
        assert!(plan.stackable(), "the premise: the batch is one execution");
        let pool = family.env::<f64>(n, SEED);
        let solo = |id: u64| {
            let request = Request { family, n, dtype: Dtype::F64, payload: id };
            proto::result_checksum(&plan.execute::<f64>(&request.env_from_pool(&pool, SEED)))
        };

        let ((a, mut a_client), (b, mut b_client)) = (connection(), connection());
        let now = Instant::now();
        // Arrival order interleaves the two connections.
        let items = [(&a, 10), (&b, 20), (&b, 21), (&a, 11), (&a, 12), (&b, 22)]
            .into_iter()
            .map(|(conn, id)| job(conn, id, family, n, now))
            .collect();
        let batch = FlushedBatch { items, kind: FlushKind::Occupancy, enqueued_at: now };
        execute_batch(&batch, &shared.ctx(&Quarantine::new(3), None), &mut Memo::default());
        assert_eq!(a.1.load(Ordering::Relaxed), 0, "connection a's slots are released");
        assert_eq!(b.1.load(Ordering::Relaxed), 0, "connection b's slots are released");
        // Close the server halves, so each client reads to its EOF.
        drop((batch, a, b));

        for (client, want) in [(&mut a_client, [10, 11, 12]), (&mut b_client, [20, 21, 22])] {
            let mut ids = Vec::new();
            while let Some(msg) = proto::read_message(client).expect("well-formed frames") {
                let Message::Response(ResponseMsg {
                    id,
                    outcome: Outcome::Ok { occupancy: 6, checksum, .. },
                }) = msg
                else {
                    panic!("expected a served response of the 6-member batch, got {msg:?}");
                };
                assert_eq!(checksum, solo(id), "request {id}");
                ids.push(id);
            }
            assert_eq!(ids, want);
        }
    }

    #[test]
    fn the_memo_returns_each_keys_own_signature() {
        let shared = Shared::new();
        let quarantine = Quarantine::new(3);
        let ctx = shared.ctx(&quarantine, None);
        let (conn, _client) = connection();
        let mut memo = Memo::default();
        // Twice over: the first pass fills the memo, the second reads it.
        for _ in 0..2 {
            for n in [16, 192] {
                for family in Family::ALL {
                    for dtype in [Dtype::F64, Dtype::F32] {
                        let mut job = job(&conn, 0, family, n, Instant::now());
                        job.request.dtype = dtype;
                        let want = job.request.signature(job.backend.id());
                        let keyed = memo.get(&job, &ctx);
                        assert_eq!(keyed.sig, want, "{} n={n} {dtype:?}", family.id());
                        assert_eq!((&keyed.expr, &keyed.ctx), (&family.expr(n), &family.ctx(n)));
                    }
                }
            }
        }
        assert_eq!(memo.0.len(), 2 * Family::ALL.len() * 2);
    }

    #[test]
    fn non_stacking_batch_answers_each_member_with_the_solo_result() {
        let (responses, solo) = serve_gram_batch(&[5, 6, 7], None, &Quarantine::new(3));
        assert_eq!(responses.iter().map(|r| r.id).collect::<Vec<_>>(), [5, 6, 7]);
        let mut last_queue_ns = 0;
        for r in &responses {
            let Outcome::Ok { queue_ns, occupancy, flush, checksum, .. } = r.outcome else {
                panic!("request {} was not served: {:?}", r.id, r.outcome);
            };
            assert_eq!((occupancy, flush), (3, FlushKind::Occupancy), "the admitted batch's");
            assert_eq!(checksum, solo, "request {}", r.id);
            // Waiting for a batch-mate's execution is queueing.
            assert!(queue_ns > last_queue_ns, "request {}", r.id);
            last_queue_ns = queue_ns;
        }
    }

    #[test]
    fn a_panic_in_a_non_stacking_batch_fails_only_its_own_request() {
        let plan = FaultPlan::parse("panic:1/2").expect("plan parses");
        let fires = |id: &u64| plan.fires(SEED, FaultKind::Panic, *id);
        let quiet: Vec<u64> = (0..64).filter(|id| !fires(id)).take(2).collect();
        let loud = (0..64).find(fires).expect("half of all ids fire");
        let injector = FaultInjector::new(plan, SEED);
        let quarantine = Quarantine::new(3);

        let (responses, solo) =
            serve_gram_batch(&[quiet[0], loud, quiet[1]], Some(&injector), &quarantine);

        for (r, served) in responses.iter().zip([true, false, true]) {
            match &r.outcome {
                Outcome::Ok { occupancy: 3, checksum, .. } if served => {
                    assert_eq!(*checksum, solo)
                }
                Outcome::Failed { message } if !served => {
                    assert!(message.contains("injected fault"), "{message}")
                }
                other => panic!("request {}: {other:?}", r.id),
            }
        }
        assert_eq!(injector.counts().panics, 1);
        let failures = quarantine.failures.lock().unwrap();
        assert_eq!(failures.values().copied().collect::<Vec<_>>(), [1], "one failed execution");
    }

    #[test]
    fn a_batch_already_past_its_deadlines_still_draws_every_delay() {
        // Jobs an executor picks up after their deadline are answered
        // `Expired` at once, but the fault plan's draw for each of them
        // happens first: the delay count does not depend on how late the
        // batch was scheduled.
        let injector = FaultInjector::new(FaultPlan::parse("delay:1/1x1000").unwrap(), SEED);
        let shared = Shared::new();
        let (conn, mut client_end) = connection();
        let now = Instant::now();
        let past = now.checked_sub(Duration::from_secs(1)).expect("the clock has run a second");
        let items: Vec<ServerJob> = (0..5)
            .map(|id| ServerJob { deadline: Some(past), ..job(&conn, id, Family::Chain, 16, now) })
            .collect();
        let batch = FlushedBatch { items, kind: FlushKind::Occupancy, enqueued_at: now };
        execute_batch(
            &batch,
            &shared.ctx(&Quarantine::new(3), Some(&injector)),
            &mut Memo::default(),
        );
        assert_eq!(injector.counts().delays, 5, "one drawn delay per member");
        assert_eq!(shared.counters.expired.load(Ordering::Relaxed), 5);
        assert_eq!(conn.1.load(Ordering::Relaxed), 0, "every job finished exactly once");
        for id in 0..5 {
            match proto::read_message(&mut client_end) {
                Ok(Some(Message::Response(ResponseMsg {
                    id: got,
                    outcome: Outcome::Expired { .. },
                }))) => {
                    assert_eq!(got, id)
                }
                other => panic!("expected request {id} to expire, got {other:?}"),
            }
        }
    }

    fn wire_request(family: &str, n: u64, dtype: Dtype, backend: &str) -> RequestMsg {
        RequestMsg {
            id: 0,
            family: family.to_string(),
            n,
            dtype,
            backend: backend.to_string(),
            payload: 0,
            deadline_us: 0,
        }
    }

    #[test]
    fn validate_rejects_with_messages_not_panics() {
        let regs = resolve_backends(&["engine".to_string()]).unwrap();
        let msg = |family, n, backend| wire_request(family, n, Dtype::F64, backend);
        assert!(validate(&msg("chain", 16, "engine"), &regs).is_ok());
        assert!(validate(&msg("no_such", 16, "engine"), &regs)
            .unwrap_err()
            .contains("unknown request family"));
        assert!(validate(&msg("chain", 1, "engine"), &regs).unwrap_err().contains("out of range"));
        assert!(validate(&msg("chain", 1 << 40, "engine"), &regs)
            .unwrap_err()
            .contains("out of range"));
        let err = validate(&msg("chain", 16, "reference"), &regs).unwrap_err();
        assert!(err.contains("not served here") && err.contains("engine"), "{err}");
    }

    #[test]
    fn unsupported_dtype_is_rejected_in_band_before_dispatch() {
        static F64_ONLY: Registration = Registration::new(
            "serve-test-f64-only",
            "f64-only backend for the dtype-validation test",
            None,
            Some(&laab_backend::EngineBackend),
        );
        laab_backend::registry::register(&F64_ONLY).expect("name is free");
        let regs = resolve_backends(&["serve-test-f64-only".to_string()]).unwrap();
        let msg = |dtype| wire_request("chain", 16, dtype, "serve-test-f64-only");
        assert!(validate(&msg(Dtype::F64), &regs).is_ok());
        let err = validate(&msg(Dtype::F32), &regs).unwrap_err();
        assert!(err.contains("does not support dtype f32"), "{err}");
    }
}
