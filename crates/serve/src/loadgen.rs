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
//! Because the stream, the operand pools, and the payload draws are all
//! seeded, the generator can also compute each request's expected result
//! locally and compare it to the server's response
//! [checksum](crate::proto::result_checksum) — a bitwise end-to-end
//! check that the network path executes the *same arithmetic* as a
//! local solo execution. It is exact on every built-in backend, whose
//! batched answers are their solo bits.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
use crate::FlushKind;

/// Schema tag embedded in every [`LoadgenReport`]. `laab-core`'s bench
/// registry mirrors this constant; a test holds the pair equal.
///
/// v4 drops trace replay: the `replay:<file>` arrival process, the
/// report's `replay_source` and the per-run gap percentiles are gone.
/// (v2 added per-run rejection classes (`busy`/`expired`/`failed`),
/// retry counts, pressure-flush tallies, and the offered-vs-goodput rate
/// pair, plus their report-level totals.)
pub const LOADGEN_REPORT_SCHEMA: &str = "laab-loadgen-v4";

/// How long a client read blocks before the request is presumed lost
/// (a dropped frame, a reaped connection) and retried or abandoned —
/// generous next to any legitimate queue wait + execution time.
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

impl LoadgenConfig {
    /// The CI smoke protocol: a small stream, all three arrival
    /// processes, bitwise verification on, shutdown at the end.
    pub fn smoke(addr: &str) -> Self {
        LoadgenConfig {
            addr: addr.to_string(),
            requests: 96,
            connections: 2,
            // The size is this side's alone: requests carry `n`, and
            // the server builds its pools per request shape.
            n: 24,
            // The server's default `--seed` — its operand pools and
            // payload draws hang off *its* seed, so the bitwise oracle
            // only lines up when the two agree.
            seed: 0x1AAB,
            churn_every: 7,
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
            smoke: true,
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

/// One decoded `Ok` response with its client-side round trip.
struct Sample {
    rtt_ns: u64,
    queue_ns: u64,
    occupancy: u32,
    flush: FlushKind,
    checksum: u64,
    id: u64,
}

#[derive(Default)]
struct ConnResult {
    samples: Vec<Sample>,
    sent: u64,
    errors: u64,
    busy: u64,
    expired: u64,
    failed: u64,
    retries: u64,
}

/// How one request's attempt chain ended (the `Ok` case carries its
/// sample; `Busy` here means the retry budget ran out).
enum Terminal {
    Done(Sample),
    Error,
    Busy,
    Expired,
    Failed,
    /// No response within the timeout and no retries left — the
    /// request is presumed lost (counted under `errors`).
    Lost,
}

impl ConnResult {
    fn settle(&mut self, terminal: Terminal) {
        match terminal {
            Terminal::Done(s) => self.samples.push(s),
            Terminal::Error | Terminal::Lost => self.errors += 1,
            Terminal::Busy => self.busy += 1,
            Terminal::Expired => self.expired += 1,
            Terminal::Failed => self.failed += 1,
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

/// `true` when a frame read failed only because the socket's read
/// timeout elapsed (unix reports `WouldBlock`, TCP `TimedOut`).
fn is_read_timeout(e: &proto::FrameError) -> bool {
    matches!(e, proto::FrameError::Io(io) if matches!(
        io.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ))
}

/// Drive the server at `cfg.addr` through every configured arrival
/// process and assemble the client-side report.
///
/// # Errors
/// [`ServeError::BadListen`]/[`ServeError::Connect`] for an unreachable
/// address, [`ServeError::Socket`]/[`ServeError::Frame`] for transport
/// failures mid-run, plus config rejections ([`ServeError::UnknownBackend`]
/// when `verify` needs a backend this binary does not link).
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
    let (mut total_mismatches, mut busy_total, mut expired_total) = (0u64, 0u64, 0u64);
    let (mut failed_total, mut retries_total) = (0u64, 0u64);
    for arrival in &cfg.arrivals {
        let run = drive_once(&addr, cfg, &mix, arrival, &expected, connections)?;
        total_mismatches += run.checksum_mismatches;
        busy_total += run.busy;
        expired_total += run.expired;
        failed_total += run.failed;
        retries_total += run.retries;
        runs.push(run);
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
        checksum_mismatches: total_mismatches,
        busy_total,
        expired_total,
        failed_total,
        retries_total,
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

/// One arrival process against one fresh set of connections.
fn drive_once(
    addr: &Listen,
    cfg: &LoadgenConfig,
    mix: &[Request],
    arrival: &Arrival,
    expected: &[u64],
    connections: usize,
) -> Result<ArrivalRun, ServeError> {
    // Round-robin the stream across connections; ids index into `mix`,
    // so the oracle lookup on the way back is O(1).
    let mut shares: Vec<Vec<(u64, Request)>> = vec![Vec::new(); connections];
    for (i, req) in mix.iter().enumerate() {
        shares[i % connections].push((i as u64, *req));
    }
    let started = Instant::now();
    let transport_err: Mutex<Option<ServeError>> = Mutex::new(None);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        for (c, share) in shares.into_iter().enumerate() {
            let (transport_err, backend) = (&transport_err, cfg.backend.as_str());
            let rate_share = arrival.rate() / connections as f64;
            let seed = cfg.seed ^ 0x10AD_0000 ^ (c as u64);
            let (deadline_us, max_retries) = (cfg.deadline_us, cfg.max_retries);
            handles.push(scope.spawn(move || {
                let wire = WireParams { backend, deadline_us, max_retries };
                match drive_connection(addr, share, &wire, arrival, rate_share, seed) {
                    Ok(r) => r,
                    Err(e) => {
                        transport_err.lock().expect("loadgen error slot").get_or_insert(e);
                        ConnResult::default()
                    }
                }
            }));
        }
        handles.into_iter().map(|h| h.join().expect("loadgen connection thread")).collect()
    });
    if let Some(e) = transport_err.into_inner().expect("loadgen error slot") {
        return Err(e);
    }
    let elapsed = started.elapsed();

    let mut rtt_us = Vec::new();
    let mut queue_us = Vec::new();
    let (mut sent, mut errors, mut occ_sum, mut mismatches) = (0u64, 0u64, 0u64, 0u64);
    let (mut occ_fl, mut dl_fl, mut dr_fl, mut pr_fl) = (0u64, 0u64, 0u64, 0u64);
    let (mut busy, mut expired, mut failed, mut retries) = (0u64, 0u64, 0u64, 0u64);
    let mut completed = 0u64;
    for r in &results {
        sent += r.sent;
        errors += r.errors;
        busy += r.busy;
        expired += r.expired;
        failed += r.failed;
        retries += r.retries;
        for s in &r.samples {
            completed += 1;
            rtt_us.push(s.rtt_ns as f64 / 1_000.0);
            queue_us.push(s.queue_ns as f64 / 1_000.0);
            occ_sum += s.occupancy as u64;
            match s.flush {
                FlushKind::Occupancy => occ_fl += 1,
                FlushKind::Deadline => dl_fl += 1,
                FlushKind::Drain => dr_fl += 1,
                FlushKind::Pressure => pr_fl += 1,
            }
            if !expected.is_empty() && expected[s.id as usize] != s.checksum {
                mismatches += 1;
            }
        }
    }
    // `Samples` rejects an empty set; a run where every request errored
    // still deserves a report row (of zeros).
    let summarize = |v: Vec<f64>| -> (f64, f64, f64) {
        if v.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let s = Samples::new(v);
        (s.median(), s.quantile(0.99), s.mean())
    };
    let (rtt_p50, rtt_p99, rtt_mean) = summarize(rtt_us);
    let (queue_p50, queue_p99, _) = summarize(queue_us);
    let secs = elapsed.as_secs_f64();
    let per_sec = |count: u64| if secs > 0.0 { count as f64 / secs } else { 0.0 };
    Ok(ArrivalRun {
        arrival: arrival.display(),
        rate: arrival.rate(),
        sent,
        completed,
        errors,
        busy,
        expired,
        failed,
        retries,
        rtt_p50_us: rtt_p50,
        rtt_p99_us: rtt_p99,
        rtt_mean_us: rtt_mean,
        queue_p50_us: queue_p50,
        queue_p99_us: queue_p99,
        occupancy_mean: if completed == 0 { 0.0 } else { occ_sum as f64 / completed as f64 },
        occupancy_flushes: occ_fl,
        deadline_flushes: dl_fl,
        drain_flushes: dr_fl,
        pressure_flushes: pr_fl,
        checksum_mismatches: mismatches,
        elapsed_ms: secs * 1_000.0,
        throughput_rps: per_sec(completed),
        offered_rps: per_sec(sent),
        goodput_rps: per_sec(completed.saturating_sub(mismatches)),
    })
}

/// Per-request wire parameters shared by every send on a connection.
struct WireParams<'a> {
    backend: &'a str,
    deadline_us: u64,
    max_retries: u32,
}

fn wire_request(id: u64, req: &Request, wire: &WireParams<'_>) -> Message {
    Message::Request(RequestMsg {
        id,
        family: req.family.id().to_string(),
        n: req.n as u64,
        dtype: req.dtype,
        backend: wire.backend.to_string(),
        payload: req.payload,
        deadline_us: wire.deadline_us,
    })
}

/// How one blocking read attempt ended (closed loop).
enum ReadOut {
    Got(Outcome),
    Eof,
    TimedOut,
}

/// One connection's share of a run. Closed-loop is a synchronous
/// request/response loop; the open-loop shapes split into a pacing
/// sender and a collecting reader so queueing at the server cannot
/// back-pressure the arrival clock. Both shapes run under a read
/// timeout and retry `Busy` rejections and presumed-lost requests with
/// capped exponential backoff, up to the configured budget.
fn drive_connection(
    addr: &Listen,
    share: Vec<(u64, Request)>,
    wire: &WireParams<'_>,
    arrival: &Arrival,
    rate_share: f64,
    seed: u64,
) -> Result<ConnResult, ServeError> {
    let mut stream = connect(addr)?;
    let sock = |e: std::io::Error| ServeError::Socket(Arc::new(e));
    stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT)).map_err(sock)?;
    if share.is_empty() {
        return Ok(ConnResult::default());
    }

    if matches!(*arrival, Arrival::Closed) {
        let mut out = ConnResult::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0FF);
        for (id, req) in &share {
            let mut attempt = 0u32;
            let mut eof = false;
            let terminal = loop {
                let t0 = Instant::now();
                proto::write_message(&mut stream, &wire_request(*id, req, wire)).map_err(sock)?;
                out.sent += 1;
                // Read to *this* id's response; a stale duplicate from
                // an earlier timed-out attempt is skipped by id.
                let read = loop {
                    match proto::read_message(&mut stream) {
                        Ok(Some(Message::Response(resp))) if resp.id == *id => {
                            break ReadOut::Got(resp.outcome)
                        }
                        Ok(Some(_)) => continue,
                        Ok(None) => break ReadOut::Eof,
                        Err(ref e) if is_read_timeout(e) => break ReadOut::TimedOut,
                        Err(e) => return Err(e.into()),
                    }
                };
                match read {
                    ReadOut::Got(Outcome::Ok { queue_ns, occupancy, flush, checksum, .. }) => {
                        break Terminal::Done(Sample {
                            rtt_ns: t0.elapsed().as_nanos() as u64,
                            queue_ns,
                            occupancy,
                            flush,
                            checksum,
                            id: *id,
                        });
                    }
                    ReadOut::Got(Outcome::Err { .. }) => break Terminal::Error,
                    ReadOut::Got(Outcome::Expired { .. }) => break Terminal::Expired,
                    ReadOut::Got(Outcome::Failed { .. }) => break Terminal::Failed,
                    ReadOut::Got(Outcome::Busy { retry_after_us }) => {
                        if attempt >= wire.max_retries {
                            break Terminal::Busy;
                        }
                        attempt += 1;
                        out.retries += 1;
                        std::thread::sleep(backoff(retry_after_us, attempt, &mut rng));
                    }
                    ReadOut::TimedOut => {
                        if attempt >= wire.max_retries {
                            break Terminal::Lost;
                        }
                        attempt += 1;
                        out.retries += 1;
                    }
                    ReadOut::Eof => {
                        eof = true;
                        break Terminal::Lost;
                    }
                }
            };
            out.settle(terminal);
            if eof {
                break;
            }
        }
        return Ok(out);
    }

    // Open-loop: the reader owns the original stream; sends go through
    // a mutex-shared clone so the round-0 pacing sender and the
    // reader's retries interleave safely. Send instants live in a map
    // keyed by request id (responses interleave across batches); an id
    // missing from the map marks a stale duplicate response.
    let by_id: HashMap<u64, Request> = share.iter().copied().collect();
    let wstream = Mutex::new(stream.try_clone().map_err(sock)?);
    let pending: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
    let sent = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    let mut out = ConnResult::default();
    let mut transport: Option<ServeError> = None;

    std::thread::scope(|scope| {
        let (pending_ref, sent_ref) = (&pending, &sent);
        let (wstream_ref, done_ref) = (&wstream, &sender_done);
        let sender = scope.spawn(move || -> Result<(), ServeError> {
            let mut rng = StdRng::seed_from_u64(seed);
            let burst = match arrival {
                Arrival::Bursty { burst, .. } => *burst,
                _ => 1,
            };
            // Bursts arrive on the exponential clock; spacing them at
            // rate/burst keeps the aggregate request rate at `rate`.
            let burst_rate = rate_share / burst as f64;
            let send_one = |id: u64, req: &Request| -> Result<(), ServeError> {
                pending_ref.lock().expect("pending map").insert(id, Instant::now());
                let mut w = wstream_ref.lock().expect("loadgen write stream");
                proto::write_message(&mut *w, &wire_request(id, req, wire))
                    .map_err(|e| ServeError::Socket(Arc::new(e)))?;
                sent_ref.fetch_add(1, Ordering::Relaxed);
                Ok(())
            };
            let result = (|| {
                for chunk in share.chunks(burst) {
                    let u: f64 = rng.gen();
                    let gap = -(1.0 - u).ln() / burst_rate;
                    std::thread::sleep(Duration::from_secs_f64(gap.min(0.25)));
                    for (id, req) in chunk {
                        send_one(*id, req)?;
                    }
                }
                Ok(())
            })();
            done_ref.store(true, Ordering::SeqCst);
            result
        });

        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0FF);
        let mut attempts: HashMap<u64, u32> = HashMap::new();
        'reader: loop {
            if sender_done.load(Ordering::SeqCst) && pending.lock().expect("pending map").is_empty()
            {
                break;
            }
            match proto::read_message(&mut stream) {
                Ok(Some(Message::Response(resp))) => {
                    let rid = resp.id;
                    let sent_at = pending.lock().expect("pending map").get(&rid).copied();
                    let Some(sent_at) = sent_at else { continue };
                    let remove = || {
                        pending.lock().expect("pending map").remove(&rid);
                    };
                    match resp.outcome {
                        Outcome::Ok { queue_ns, occupancy, flush, checksum, .. } => {
                            remove();
                            out.settle(Terminal::Done(Sample {
                                rtt_ns: sent_at.elapsed().as_nanos() as u64,
                                queue_ns,
                                occupancy,
                                flush,
                                checksum,
                                id: rid,
                            }));
                        }
                        Outcome::Err { .. } => {
                            remove();
                            out.settle(Terminal::Error);
                        }
                        Outcome::Expired { .. } => {
                            remove();
                            out.settle(Terminal::Expired);
                        }
                        Outcome::Failed { .. } => {
                            remove();
                            out.settle(Terminal::Failed);
                        }
                        Outcome::Busy { retry_after_us } => {
                            let attempt = attempts.entry(rid).or_insert(0);
                            if *attempt >= wire.max_retries {
                                remove();
                                out.settle(Terminal::Busy);
                            } else {
                                *attempt += 1;
                                out.retries += 1;
                                std::thread::sleep(backoff(retry_after_us, *attempt, &mut rng));
                                if let Err(e) = resend(&wstream, rid, &by_id, wire, &pending, &sent)
                                {
                                    transport.get_or_insert(e);
                                    break 'reader;
                                }
                            }
                        }
                    }
                }
                Ok(Some(_)) => continue,
                Ok(None) => {
                    // EOF: everything still pending is lost for good.
                    for _ in pending.lock().expect("pending map").drain() {
                        out.settle(Terminal::Lost);
                    }
                    break;
                }
                Err(ref e) if is_read_timeout(e) => {
                    if !sender_done.load(Ordering::SeqCst) {
                        continue;
                    }
                    // Quiet past the timeout with nothing in flight from
                    // the sender: whatever is pending was dropped —
                    // re-send what still has budget, abandon the rest.
                    let ids: Vec<u64> = {
                        let mut v: Vec<u64> =
                            pending.lock().expect("pending map").keys().copied().collect();
                        v.sort_unstable();
                        v
                    };
                    for id in ids {
                        let attempt = attempts.entry(id).or_insert(0);
                        if *attempt >= wire.max_retries {
                            pending.lock().expect("pending map").remove(&id);
                            out.settle(Terminal::Lost);
                        } else {
                            *attempt += 1;
                            out.retries += 1;
                            if let Err(e) = resend(&wstream, id, &by_id, wire, &pending, &sent) {
                                transport.get_or_insert(e);
                                break 'reader;
                            }
                        }
                    }
                }
                Err(e) => {
                    transport.get_or_insert(e.into());
                    break;
                }
            }
        }
        if let Err(e) = sender.join().expect("loadgen sender thread") {
            transport.get_or_insert(e);
        }
    });
    if let Some(e) = transport {
        return Err(e);
    }
    out.sent = sent.load(Ordering::Relaxed);
    Ok(out)
}

/// Re-send one request (open-loop retry path): refresh its pending
/// instant, then write through the shared stream.
fn resend(
    wstream: &Mutex<crate::server::Stream>,
    id: u64,
    by_id: &HashMap<u64, Request>,
    wire: &WireParams<'_>,
    pending: &Mutex<HashMap<u64, Instant>>,
    sent: &AtomicU64,
) -> Result<(), ServeError> {
    let req = by_id[&id];
    pending.lock().expect("pending map").insert(id, Instant::now());
    let mut w = wstream.lock().expect("loadgen write stream");
    proto::write_message(&mut *w, &wire_request(id, &req, wire))
        .map_err(|e| ServeError::Socket(Arc::new(e)))?;
    sent.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Execute every request solo, in-process, and checksum the results —
/// the oracle the socket path is compared against. Memoized by the
/// request's full identity `(family, n, dtype, payload)`; plans are
/// cached by signature like the server does.
fn oracle_checksums(mix: &[Request], reg: &'static Registration, seed: u64) -> Vec<u64> {
    let fw = Framework::flow();
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
                    oracle_one::<f64>(req, pool, reg, &fw, &cache, seed)
                }
                Dtype::F32 => {
                    let pool = pools_f32
                        .entry((req.family, req.n))
                        .or_insert_with(|| req.family.env::<f32>(req.n, seed));
                    oracle_one::<f32>(req, pool, reg, &fw, &cache, seed)
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
    fw: &Framework,
    cache: &PlanCache,
    seed: u64,
) -> u64 {
    let (plan, _) = cache.get_or_compile(req.signature(reg.id()), || {
        Plan::compile_with_varying(
            fw,
            &req.family.expr(req.n),
            &req.family.ctx(req.n),
            reg,
            req.family.varying_operands(),
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
