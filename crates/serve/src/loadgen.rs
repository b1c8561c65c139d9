//! The standalone load generator: drives a running [`Server`](crate::Server)
//! over its socket and measures latency *from the client side*.
//!
//! `laab loadgen` reports what a caller sees: round-trip time over the
//! wire, including framing, the wait in the admission queue for a free
//! executor, and the response's journey back. It sends the deterministic
//! [`synthetic_mix`] stream under three swept arrival processes:
//!
//! - **closed-loop** — each connection keeps exactly one request in
//!   flight; throughput is latency-bound.
//! - **open-loop Poisson** — requests arrive on an exponential clock at
//!   a configured rate regardless of completions; queueing delay shows
//!   up honestly instead of being absorbed by back-pressure.
//! - **bursty** — Poisson-spaced *bursts* of back-to-back requests:
//!   the head of a burst finds the executors free, the rest coalesce
//!   behind it.
//!
//! All three run on one driver. Each connection has a sender that
//! paces requests by the arrival process (closed-loop: the next request
//! leaves once the previous one has settled) and a reader that settles
//! every request exactly once. While a request has retry budget, the
//! reader re-sends it after a `Busy` answer (with backoff) and after a
//! read timeout that finds it sent at least 400 ms ago; out of budget,
//! it settles as `busy` or as lost (`errors`). A server that closes the
//! connection ends it: everything the connection still owes settles as
//! lost, and the run goes on.
//!
//! Because the stream, the operand pools, and the payload draws are all
//! seeded, the generator can also compute each request's expected result
//! locally and compare it to the server's response
//! [checksum](crate::proto::result_checksum) — a bitwise end-to-end
//! check that the network path executes the *same arithmetic* as a
//! local solo execution. It is exact on every built-in backend, whose
//! batched answers are their solo bits.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use laab_backend::{BackendScalar, Dtype, Registration};
use laab_framework::Framework;
use laab_stats::Samples;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::Serialize;

use crate::cache::PlanCache;
use crate::error::{resolve_backends, ServeError};
use crate::plan::Plan;
use crate::proto::{self, Message, Outcome, RequestMsg};
use crate::server::{connect, Listen};
use crate::workload::{synthetic_mix, Request};

/// Schema tag embedded in every [`LoadgenReport`]. `laab-core`'s bench
/// registry mirrors this constant; a test holds the pair equal.
///
/// v4 drops trace replay: the `replay:<file>` arrival process, the
/// report's `replay_source` and the per-run gap percentiles are gone.
/// (v2 added per-run rejection classes (`busy`/`expired`/`failed`),
/// retry counts, pressure-flush tallies, and the offered-vs-goodput rate
/// pair, plus their report-level totals.)
pub const LOADGEN_REPORT_SCHEMA: &str = "laab-loadgen-v4";

/// How long a client read blocks, and how long ago a request must have
/// been sent, before that request is presumed lost (a dropped frame)
/// and retried or abandoned — generous next to any legitimate queue
/// wait + execution time.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_millis(400);

/// Backoff floor when the server's `retry_after_us` hint is zero or
/// missing (a timed-out request has no hint at all).
const RETRY_FLOOR_US: u64 = 200;

/// Backoff ceiling: capped exponential, so a long retry chain never
/// sleeps more than this per attempt (before jitter).
const RETRY_CAP_US: u64 = 20_000;

/// An arrival process for one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrival {
    /// One request in flight per connection; the next departs when the
    /// response lands.
    Closed,
    /// Open-loop Poisson arrivals at `rate` requests/second (split
    /// evenly across connections), independent of completions.
    OpenPoisson {
        /// Aggregate arrival rate, requests per second.
        rate: f64,
    },
    /// Poisson-spaced bursts: `burst` requests back-to-back, bursts
    /// timed so the aggregate rate is still `rate`.
    Bursty {
        /// Aggregate arrival rate, requests per second.
        rate: f64,
        /// Requests per burst.
        burst: usize,
    },
}

impl Arrival {
    /// Parse a CLI spec: `closed`, `poisson:<rate>`, or
    /// `bursty:<rate>x<burst>`.
    pub fn parse(spec: &str) -> Result<Arrival, ServeError> {
        let bad = || ServeError::BadArrival(spec.to_string());
        if spec == "closed" {
            return Ok(Arrival::Closed);
        }
        if let Some(rate) = spec.strip_prefix("poisson:") {
            let rate: f64 = rate.parse().map_err(|_| bad())?;
            if !rate.is_finite() || rate <= 0.0 {
                return Err(bad());
            }
            return Ok(Arrival::OpenPoisson { rate });
        }
        if let Some(rest) = spec.strip_prefix("bursty:") {
            let (rate, burst) = rest.split_once('x').ok_or_else(bad)?;
            let rate: f64 = rate.parse().map_err(|_| bad())?;
            let burst: usize = burst.parse().map_err(|_| bad())?;
            if !rate.is_finite() || rate <= 0.0 || burst == 0 {
                return Err(bad());
            }
            return Ok(Arrival::Bursty { rate, burst });
        }
        Err(bad())
    }

    /// The canonical spec spelling ([`parse`](Self::parse) inverts it).
    pub fn display(&self) -> String {
        match self {
            Arrival::Closed => "closed".to_string(),
            Arrival::OpenPoisson { rate } => format!("poisson:{rate}"),
            Arrival::Bursty { rate, burst } => format!("bursty:{rate}x{burst}"),
        }
    }

    fn rate(&self) -> f64 {
        match self {
            Arrival::Closed => 0.0,
            Arrival::OpenPoisson { rate } | Arrival::Bursty { rate, .. } => *rate,
        }
    }
}

/// What to drive at the server and how hard.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Server address spec (`unix:<path>` or `tcp:<host:port>`).
    pub addr: String,
    /// Requests per arrival-process run.
    pub requests: usize,
    /// Concurrent connections.
    pub connections: usize,
    /// Base operand size of the request stream.
    pub n: usize,
    /// Stream/pool seed. **Must match the server's `--seed`** for the
    /// bitwise verification to be meaningful (the payload draws hang off
    /// it on both sides).
    pub seed: u64,
    /// Every `churn_every`-th request changes signature (0 disables).
    pub churn_every: usize,
    /// Pin the stream to one precision (`None` = mixed).
    pub dtype: Option<Dtype>,
    /// Backend name every request asks the server to dispatch to.
    pub backend: String,
    /// Arrival processes to sweep, one run each, in order.
    pub arrivals: Vec<Arrival>,
    /// Per-request deadline stamped into every wire frame, microseconds
    /// (0 = none). Requests that overstay it come back `Expired`.
    pub deadline_us: u64,
    /// Retry budget per request for `Busy` rejections and presumed-lost
    /// (timed-out) sends: capped exponential backoff + seeded jitter,
    /// honoring the server's `retry_after_us` hint. 0 disables retries.
    pub max_retries: u32,
    /// Compute each request's expected checksum locally and count
    /// mismatches. Exact for every backend whose batched answers are its
    /// solo bits (all built-ins). Only completed (`Ok`) responses
    /// are verified — `Busy`/`Expired`/`Failed` rejections are reported
    /// in their own classes, never as mismatches.
    pub verify: bool,
    /// Send a [`Message::Shutdown`] after the last run, so the server
    /// exits and (for unix sockets) removes its socket file.
    pub shutdown: bool,
    /// `true` for the CI smoke protocol (recorded in the report).
    pub smoke: bool,
}

impl Default for LoadgenConfig {
    /// `laab loadgen`'s defaults; only `addr` is left to set.
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            requests: 512,
            connections: 2,
            // The size is this side's alone: requests carry `n`, and
            // the server builds its pools per request shape.
            n: 192,
            // The server's default `--seed` — its operand pools and
            // payload draws hang off *its* seed, so the bitwise oracle
            // only lines up when the two agree.
            seed: 0x1AAB,
            churn_every: 16,
            dtype: None,
            backend: "engine".to_string(),
            arrivals: vec![
                Arrival::Closed,
                Arrival::OpenPoisson { rate: 2000.0 },
                Arrival::Bursty { rate: 2000.0, burst: 8 },
            ],
            deadline_us: 0,
            max_retries: 3,
            verify: true,
            shutdown: true,
            smoke: false,
        }
    }
}

impl LoadgenConfig {
    /// The CI smoke protocol: the defaults with a small stream — all
    /// three arrival processes, bitwise verification on, shutdown at the
    /// end.
    pub fn smoke(addr: &str) -> Self {
        LoadgenConfig {
            addr: addr.to_string(),
            requests: 96,
            n: 24,
            churn_every: 7,
            smoke: true,
            ..LoadgenConfig::default()
        }
    }
}

/// One arrival-process run's client-side measurements.
#[derive(Debug, Clone, Serialize)]
pub struct ArrivalRun {
    /// The arrival spec ([`Arrival::display`]).
    pub arrival: String,
    /// Aggregate arrival rate (0 for closed-loop).
    pub rate: f64,
    /// Requests sent over the wire, retries included.
    pub sent: u64,
    /// `Ok` responses received.
    pub completed: u64,
    /// Error responses received, plus requests abandoned as lost after
    /// the retry budget (a dropped frame that never came back).
    pub errors: u64,
    /// Requests that ended `Busy` after exhausting the retry budget.
    pub busy: u64,
    /// Requests answered `Expired` (their deadline passed server-side).
    pub expired: u64,
    /// Requests answered `Failed` (server-side execution panic or a
    /// quarantined signature).
    pub failed: u64,
    /// Re-sends performed (`Busy` backoff + presumed-lost timeouts).
    pub retries: u64,
    /// Client-observed round-trip p50, microseconds.
    pub rtt_p50_us: f64,
    /// Client-observed round-trip p99, microseconds.
    pub rtt_p99_us: f64,
    /// Client-observed round-trip mean, microseconds.
    pub rtt_mean_us: f64,
    /// Server-reported queue delay p50, microseconds.
    pub queue_p50_us: f64,
    /// Server-reported queue delay p99, microseconds.
    pub queue_p99_us: f64,
    /// Mean batch occupancy over `Ok` responses.
    pub occupancy_mean: f64,
    /// Responses whose batch flushed on occupancy.
    pub occupancy_flushes: u64,
    /// Responses whose batch flushed on deadline (a wire code the
    /// server no longer produces: `0`).
    pub deadline_flushes: u64,
    /// Responses whose batch flushed on drain.
    pub drain_flushes: u64,
    /// Responses whose batch flushed on backlog pressure.
    pub pressure_flushes: u64,
    /// Completed responses whose checksum differed from the local
    /// oracle (rejections are never counted here).
    pub checksum_mismatches: u64,
    /// Wall-clock of the run, milliseconds.
    pub elapsed_ms: f64,
    /// Completed responses per wall-clock second.
    pub throughput_rps: f64,
    /// Wire sends (retries included) per wall-clock second — the load
    /// actually offered to the server.
    pub offered_rps: f64,
    /// Completed *and verified-clean* responses per wall-clock second —
    /// what a caller actually got out of the run.
    pub goodput_rps: f64,
}

/// The client-side report `laab loadgen` emits (schema
/// [`LOADGEN_REPORT_SCHEMA`]).
#[derive(Debug, Clone, Serialize)]
pub struct LoadgenReport {
    /// Schema tag.
    pub schema: String,
    /// Server address driven (canonical form).
    pub addr: String,
    /// Backend requested of the server.
    pub backend: String,
    /// Requests per run.
    pub requests: usize,
    /// Concurrent connections.
    pub connections: usize,
    /// Base operand size.
    pub n: usize,
    /// Stream seed.
    pub seed: u64,
    /// Whether bitwise verification ran.
    pub verified: bool,
    /// Whether this was the smoke protocol.
    pub smoke: bool,
    /// One entry per swept arrival process, in run order.
    pub runs: Vec<ArrivalRun>,
    /// Total checksum mismatches across all runs (0 = the socket path is
    /// bitwise identical to the in-process oracle).
    pub checksum_mismatches: u64,
    /// Total terminal `Busy` rejections across all runs.
    pub busy_total: u64,
    /// Total `Expired` responses across all runs.
    pub expired_total: u64,
    /// Total `Failed` responses across all runs.
    pub failed_total: u64,
    /// Total re-sends across all runs.
    pub retries_total: u64,
}

impl LoadgenReport {
    /// Pretty-printed JSON (the `BENCH_loadgen.json` artifact format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("LoadgenReport serializes infallibly")
    }
}

/// What requests settled as: one per connection, merged into one per
/// run (its report row) and one per report (the totals).
#[derive(Default)]
struct Tally {
    /// Round trip of each completed request, microseconds.
    rtt_us: Vec<f64>,
    /// Server-reported queue delay of each completed request, microseconds.
    queue_us: Vec<f64>,
    occupancy: u64,
    /// Completed requests per [`FlushKind`](crate::FlushKind), in
    /// declaration order.
    flushes: [u64; 4],
    mismatches: u64,
    sent: u64,
    errors: u64,
    busy: u64,
    expired: u64,
    failed: u64,
    retries: u64,
}

impl Tally {
    fn completed(&self) -> u64 {
        self.rtt_us.len() as u64
    }

    fn settled(&self) -> u64 {
        self.completed() + self.errors + self.busy + self.expired + self.failed
    }

    /// Count request `id`'s end: its answer and round trip, or `None`
    /// when it was lost (`errors`). A `Busy` answer ends a request only
    /// once its retry budget is spent. `expected` is the oracle (empty
    /// when verification is off).
    fn settle(&mut self, id: u64, answer: Option<(Outcome, Duration)>, expected: &[u64]) {
        match answer {
            Some((Outcome::Ok { queue_ns, occupancy, flush, checksum, .. }, rtt)) => {
                self.rtt_us.push(rtt.as_nanos() as f64 / 1_000.0);
                self.queue_us.push(queue_ns as f64 / 1_000.0);
                self.occupancy += occupancy as u64;
                self.flushes[flush as usize] += 1;
                if !expected.is_empty() && expected[id as usize] != checksum {
                    self.mismatches += 1;
                }
            }
            Some((Outcome::Busy { .. }, _)) => self.busy += 1,
            Some((Outcome::Expired { .. }, _)) => self.expired += 1,
            Some((Outcome::Failed { .. }, _)) => self.failed += 1,
            Some((Outcome::Err { .. }, _)) | None => self.errors += 1,
        }
    }

    fn merge(&mut self, other: Tally) {
        self.rtt_us.extend(other.rtt_us);
        self.queue_us.extend(other.queue_us);
        self.occupancy += other.occupancy;
        for (mine, theirs) in self.flushes.iter_mut().zip(other.flushes) {
            *mine += theirs;
        }
        self.mismatches += other.mismatches;
        self.sent += other.sent;
        self.errors += other.errors;
        self.busy += other.busy;
        self.expired += other.expired;
        self.failed += other.failed;
        self.retries += other.retries;
    }

    /// The report row of one run that took `elapsed`.
    fn row(&self, arrival: &Arrival, elapsed: Duration) -> ArrivalRun {
        // `Samples` rejects an empty set; a run where every request
        // errored still deserves a report row (of zeros).
        let summarize = |v: &[f64]| -> (f64, f64, f64) {
            if v.is_empty() {
                return (0.0, 0.0, 0.0);
            }
            let s = Samples::new(v.to_vec());
            (s.median(), s.quantile(0.99), s.mean())
        };
        let (rtt_p50, rtt_p99, rtt_mean) = summarize(&self.rtt_us);
        let (queue_p50, queue_p99, _) = summarize(&self.queue_us);
        let completed = self.completed();
        let secs = elapsed.as_secs_f64();
        let per_sec = |count: u64| if secs > 0.0 { count as f64 / secs } else { 0.0 };
        let [occ_fl, dl_fl, dr_fl, pr_fl] = self.flushes;
        ArrivalRun {
            arrival: arrival.display(),
            rate: arrival.rate(),
            sent: self.sent,
            completed,
            errors: self.errors,
            busy: self.busy,
            expired: self.expired,
            failed: self.failed,
            retries: self.retries,
            rtt_p50_us: rtt_p50,
            rtt_p99_us: rtt_p99,
            rtt_mean_us: rtt_mean,
            queue_p50_us: queue_p50,
            queue_p99_us: queue_p99,
            // No completed request, no occupancy: 0 / 1.
            occupancy_mean: self.occupancy as f64 / completed.max(1) as f64,
            occupancy_flushes: occ_fl,
            deadline_flushes: dl_fl,
            drain_flushes: dr_fl,
            pressure_flushes: pr_fl,
            checksum_mismatches: self.mismatches,
            elapsed_ms: secs * 1_000.0,
            throughput_rps: per_sec(completed),
            offered_rps: per_sec(self.sent),
            goodput_rps: per_sec(completed.saturating_sub(self.mismatches)),
        }
    }
}

/// Capped exponential backoff with seeded jitter, honoring the
/// server's hint: `min(max(hint, floor) · 2^attempt, cap) + jitter`.
fn backoff(retry_after_us: u64, attempt: u32, rng: &mut StdRng) -> Duration {
    let base = retry_after_us.max(RETRY_FLOOR_US).saturating_mul(1 << attempt.min(6));
    let capped = base.min(RETRY_CAP_US);
    let jitter = rng.gen_range(0..(capped as usize / 4 + 1)) as u64;
    Duration::from_micros(capped + jitter)
}

/// `true` when a read failed only because the socket's read timeout
/// elapsed (unix reports `WouldBlock`, TCP `TimedOut`).
fn is_read_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// `true` when a read or write failed because the server closed the
/// connection.
fn is_closed(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset)
}

/// Drive the server at `cfg.addr` through every configured arrival
/// process and assemble the client-side report.
///
/// # Errors
/// [`ServeError::BadListen`]/[`ServeError::Connect`] for an unreachable
/// address, [`ServeError::Socket`]/[`ServeError::Frame`] for transport
/// failures mid-run (a server that closes a connection is not one: what
/// that connection still owed counts as lost), plus config rejections
/// ([`ServeError::UnknownBackend`] when `verify` needs a backend this
/// binary does not link).
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, ServeError> {
    let addr = Listen::parse(&cfg.addr)?;
    if cfg.arrivals.is_empty() {
        return Err(ServeError::BadArrival("no arrival processes configured".to_string()));
    }
    let requests = cfg.requests.max(1);
    let connections = cfg.connections.clamp(1, requests);
    let mix = synthetic_mix(requests, cfg.n, cfg.seed, cfg.churn_every, cfg.dtype);
    let expected: Vec<u64> = if cfg.verify {
        let reg = resolve_backends(std::slice::from_ref(&cfg.backend))?[0];
        oracle_checksums(&mix, reg, cfg.seed)
    } else {
        Vec::new()
    };

    let mut runs = Vec::with_capacity(cfg.arrivals.len());
    let mut total = Tally::default();
    for arrival in &cfg.arrivals {
        let params = RunParams {
            backend: &cfg.backend,
            deadline_us: cfg.deadline_us,
            max_retries: cfg.max_retries,
            expected: &expected,
            arrival,
            rate_share: arrival.rate() / connections as f64,
        };
        let started = Instant::now();
        let tally = drive_once(&addr, &params, &mix, cfg.seed, connections)?;
        runs.push(tally.row(arrival, started.elapsed()));
        total.merge(tally);
    }

    if cfg.shutdown {
        shutdown_server(&addr)?;
    }

    Ok(LoadgenReport {
        schema: LOADGEN_REPORT_SCHEMA.to_string(),
        addr: addr.display(),
        backend: cfg.backend.clone(),
        requests,
        connections,
        n: cfg.n,
        seed: cfg.seed,
        verified: cfg.verify,
        smoke: cfg.smoke,
        runs,
        checksum_mismatches: total.mismatches,
        busy_total: total.busy,
        expired_total: total.expired,
        failed_total: total.failed,
        retries_total: total.retries,
    })
}

/// Send an in-band shutdown and wait for the ack.
fn shutdown_server(addr: &Listen) -> Result<(), ServeError> {
    let mut stream = connect(addr)?;
    proto::write_message(&mut stream, &Message::Shutdown)
        .map_err(|e| ServeError::Socket(Arc::new(e)))?;
    loop {
        match proto::read_message(&mut stream)? {
            Some(Message::ShutdownAck) | None => return Ok(()),
            Some(_) => continue,
        }
    }
}

/// What every connection of one run shares.
struct RunParams<'a> {
    backend: &'a str,
    deadline_us: u64,
    max_retries: u32,
    /// The oracle's checksums by request id (empty: no verification).
    expected: &'a [u64],
    arrival: &'a Arrival,
    /// This connection's share of the arrival rate (0 for closed-loop).
    rate_share: f64,
}

/// One arrival process against one fresh set of connections: the run's
/// tally, merged across them.
fn drive_once(
    addr: &Listen,
    params: &RunParams<'_>,
    mix: &[Request],
    seed: u64,
    connections: usize,
) -> Result<Tally, ServeError> {
    // Round-robin the stream across connections; ids index into `mix`,
    // so the oracle lookup on the way back is O(1).
    let mut shares: Vec<Vec<(u64, Request)>> = vec![Vec::new(); connections];
    for (i, req) in mix.iter().enumerate() {
        shares[i % connections].push((i as u64, *req));
    }
    let results: Vec<Result<Tally, ServeError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .into_iter()
            .enumerate()
            .map(|(c, share)| {
                let seed = seed ^ 0x10AD_0000 ^ (c as u64);
                scope.spawn(move || drive_connection(addr, share, params, seed))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen connection thread")).collect()
    });
    let mut tally = Tally::default();
    for result in results {
        tally.merge(result?);
    }
    Ok(tally)
}

fn wire_request(id: u64, req: &Request, params: &RunParams<'_>) -> Message {
    Message::Request(RequestMsg {
        id,
        family: req.family.id().to_string(),
        n: req.n as u64,
        dtype: req.dtype,
        backend: params.backend.to_string(),
        payload: req.payload,
        deadline_us: params.deadline_us,
    })
}

/// The requests a connection has sent and not yet settled, shared by
/// its sender and its reader.
#[derive(Default)]
struct Window {
    /// Last send instant of each unsettled request, by id.
    sent_at: BTreeMap<u64, Instant>,
    /// Set when either side stops; the sender sends nothing more.
    stopped: bool,
}

/// One connection's share of a run: one sender and one reader.
///
/// - The **sender** departs requests on the arrival clock: Poisson gaps,
///   or Poisson-spaced bursts. Under [`Arrival::Closed`] it has no clock
///   and waits until the reader has settled the previous request, so one
///   request is in flight.
/// - The **reader** settles every response once. A `Busy` is re-sent
///   after capped exponential backoff while the request has retry budget.
/// - **Timeouts.** When a read times out, every request last sent at
///   least [`CLIENT_READ_TIMEOUT`] ago is presumed lost: re-sent while
///   it has retry budget, else settled lost.
/// - **A server close** — EOF, or a read or write failing with
///   `BrokenPipe`/`ConnectionReset` — stops the sender. Everything the
///   connection still owes, sent or not, settles once as lost
///   (`errors`); it is not a transport error.
fn drive_connection(
    addr: &Listen,
    share: Vec<(u64, Request)>,
    params: &RunParams<'_>,
    seed: u64,
) -> Result<Tally, ServeError> {
    let mut stream = connect(addr)?;
    let sock = |e: std::io::Error| ServeError::Socket(Arc::new(e));
    stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT)).map_err(sock)?;
    let by_id: HashMap<u64, Request> = share.iter().copied().collect();
    let wstream = Mutex::new(stream.try_clone().map_err(sock)?);
    let window = Mutex::new(Window::default());
    // Signalled when a request leaves the window and when the sender must stop.
    let freed = Condvar::new();
    let lock = || window.lock().expect("loadgen window");
    let stop = || {
        lock().stopped = true;
        freed.notify_all();
    };
    let sent = AtomicU64::new(0);
    // A write the server closed fails quietly: the reader sees the close.
    let send = |id: u64| -> Result<(), ServeError> {
        let msg = wire_request(id, &by_id[&id], params);
        match proto::write_message(&mut *wstream.lock().expect("loadgen write stream"), &msg) {
            Ok(()) => {
                sent.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) if is_closed(&e) => Ok(()),
            Err(e) => Err(sock(e)),
        }
    };
    let settle = |id: u64, answer: Option<(Outcome, Duration)>, tally: &mut Tally| {
        lock().sent_at.remove(&id);
        freed.notify_one();
        tally.settle(id, answer, params.expected);
    };

    let mut tally = Tally::default();
    let (read, paced) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> Result<(), ServeError> {
            let mut rng = StdRng::seed_from_u64(seed);
            let (burst, in_flight) = match *params.arrival {
                Arrival::Closed => (1, 1),
                Arrival::OpenPoisson { .. } => (1, usize::MAX),
                Arrival::Bursty { burst, .. } => (burst, usize::MAX),
            };
            // Bursts arrive on the exponential clock; spacing them at
            // rate/burst keeps the aggregate request rate at `rate`.
            let burst_rate = params.rate_share / burst as f64;
            for chunk in share.chunks(burst) {
                if burst_rate > 0.0 {
                    let gap = -(1.0 - rng.gen::<f64>()).ln() / burst_rate;
                    std::thread::sleep(Duration::from_secs_f64(gap.min(0.25)));
                }
                for &(id, _) in chunk {
                    let full = |w: &mut Window| !w.stopped && w.sent_at.len() >= in_flight;
                    let mut w = freed.wait_while(lock(), full).expect("loadgen window");
                    if w.stopped {
                        return Ok(());
                    }
                    w.sent_at.insert(id, Instant::now());
                    drop(w);
                    send(id).inspect_err(|_| stop())?;
                }
            }
            Ok(())
        });

        let read = (|| -> Result<(), ServeError> {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB0FF);
            let mut attempts: HashMap<u64, u32> = HashMap::new();
            // Re-send `id` while it has retry budget — after a backoff
            // if the answer was `Busy` — else settle it with `answer`.
            let mut retry_or_settle =
                |id, answer: Option<(Outcome, Duration)>, tally: &mut Tally| {
                    let attempt = attempts.entry(id).or_insert(0);
                    if *attempt >= params.max_retries {
                        settle(id, answer, tally);
                        return Ok(());
                    }
                    *attempt += 1;
                    tally.retries += 1;
                    if let Some((Outcome::Busy { retry_after_us }, _)) = answer {
                        std::thread::sleep(backoff(retry_after_us, *attempt, &mut rng));
                    }
                    lock().sent_at.insert(id, Instant::now());
                    send(id)
                };
            while tally.settled() < share.len() as u64 {
                match proto::read_message(&mut stream) {
                    Ok(Some(Message::Response(resp))) => {
                        // An id not in the window is a stale duplicate.
                        let Some(sent_at) = lock().sent_at.get(&resp.id).copied() else { continue };
                        let busy = matches!(resp.outcome, Outcome::Busy { .. });
                        let answer = Some((resp.outcome, sent_at.elapsed()));
                        if busy {
                            retry_or_settle(resp.id, answer, &mut tally)?;
                        } else {
                            settle(resp.id, answer, &mut tally);
                        }
                    }
                    Ok(Some(_)) => {}
                    Err(proto::FrameError::Io(ref e)) if is_read_timeout(e) => {
                        let lost: Vec<u64> = {
                            let w = lock();
                            // The sender failed: the rest will never be sent.
                            if w.stopped {
                                return Ok(());
                            }
                            w.sent_at
                                .iter()
                                .filter(|(_, at)| at.elapsed() >= CLIENT_READ_TIMEOUT)
                                .map(|(&id, _)| id)
                                .collect()
                        };
                        for id in lost {
                            retry_or_settle(id, None, &mut tally)?;
                        }
                    }
                    Err(proto::FrameError::Io(ref e)) if is_closed(e) => return Ok(()),
                    Ok(None) => return Ok(()),
                    Err(e) => return Err(e.into()),
                }
            }
            Ok(())
        })();
        stop();
        (read, sender.join().expect("loadgen sender thread"))
    });
    read.and(paced)?;
    tally.sent = sent.into_inner();
    // What the connection still owes after a server close is lost.
    for _ in tally.settled()..share.len() as u64 {
        tally.settle(0, None, params.expected);
    }
    Ok(tally)
}

/// Execute every request solo, in-process, and checksum the results —
/// the oracle the socket path is compared against. Memoized by the
/// request's full identity `(family, n, dtype, payload)`; plans are
/// cached by signature like the server does.
fn oracle_checksums(mix: &[Request], reg: &'static Registration, seed: u64) -> Vec<u64> {
    let cache = PlanCache::with_shards(64, 4);
    let mut memo: HashMap<Request, u64> = HashMap::new();
    let mut pools_f64: HashMap<(crate::workload::Family, usize), laab_expr::eval::Env<f64>> =
        HashMap::new();
    let mut pools_f32: HashMap<(crate::workload::Family, usize), laab_expr::eval::Env<f32>> =
        HashMap::new();
    mix.iter()
        .map(|req| {
            if let Some(&c) = memo.get(req) {
                return c;
            }
            let c = match req.dtype {
                Dtype::F64 => {
                    let pool = pools_f64
                        .entry((req.family, req.n))
                        .or_insert_with(|| req.family.env::<f64>(req.n, seed));
                    oracle_one::<f64>(req, pool, reg, &cache, seed)
                }
                Dtype::F32 => {
                    let pool = pools_f32
                        .entry((req.family, req.n))
                        .or_insert_with(|| req.family.env::<f32>(req.n, seed));
                    oracle_one::<f32>(req, pool, reg, &cache, seed)
                }
            };
            memo.insert(*req, c);
            c
        })
        .collect()
}

fn oracle_one<T: BackendScalar>(
    req: &Request,
    pool: &laab_expr::eval::Env<T>,
    reg: &'static Registration,
    cache: &PlanCache,
    seed: u64,
) -> u64 {
    let sig = req.signature(reg.id());
    let (plan, _) = cache.get_or_compile(&sig, || {
        Plan::compile_opt(
            &Framework::flow(),
            &req.family.expr(req.n),
            &req.family.ctx(req.n),
            reg,
            req.family.varying_operands(),
            sig.opt(),
        )
    });
    let results = if req.family.payload_operands().is_empty() {
        plan.execute::<T>(pool)
    } else {
        plan.execute::<T>(&req.env_from_pool(pool, seed))
    };
    proto::result_checksum(&results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_specs_round_trip() {
        for spec in ["closed", "poisson:2000", "bursty:1500x8"] {
            assert_eq!(Arrival::parse(spec).unwrap().display(), spec);
        }
        for bad in [
            "",
            "poisson:",
            "poisson:-3",
            "poisson:nan?",
            "bursty:100",
            "bursty:0x4",
            "bursty:100x0",
            "open",
        ] {
            assert!(Arrival::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn oracle_is_deterministic_and_payload_sensitive() {
        let reg = resolve_backends(&["engine".to_string()]).unwrap()[0];
        let mix = synthetic_mix(24, 16, 7, 5, None);
        let a = oracle_checksums(&mix, reg, 7);
        let b = oracle_checksums(&mix, reg, 7);
        assert_eq!(a, b, "same stream, same seed, same checksums");
        // Chain requests carry a per-request payload vector, so two
        // requests sharing a signature still get distinct checksums.
        let mk = |payload| Request {
            family: crate::workload::Family::Chain,
            n: 16,
            dtype: Dtype::F64,
            payload,
        };
        let pair = oracle_checksums(&[mk(1), mk(2)], reg, 7);
        assert_ne!(pair[0], pair[1]);
    }

    #[test]
    fn schema_is_registered_in_laab_core() {
        assert_eq!(LOADGEN_REPORT_SCHEMA, laab_core::bench_registry::LOADGEN_SCHEMA);
        let spec = laab_core::bench_registry::find("loadgen").expect("registered");
        assert_eq!(spec.schema, LOADGEN_REPORT_SCHEMA);
    }
}
