//! The load-generating side: one thread per connection, a fixed number
//! of requests in flight, round trips timed per request.

use std::io::{self, BufReader};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use laab_serve::proto::{self, Message, Outcome, RequestMsg};
use laab_serve::workload::Request;
use laab_serve::FlushKind;

use crate::oracle::Oracle;
use crate::server::INTERRUPTED;
use crate::stats::percentile;

/// A request unanswered for this long is a failed operation.
pub const ANSWER_TIMEOUT: Duration = Duration::from_secs(2);

/// One client connection. Request ids are unique per connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: u64,
    /// Set once the transport failed (timeout, EOF, undecodable frame):
    /// the stream position is unknown, so later windows fail fast.
    broken: bool,
}

/// One `Ok` response inside the measured window.
pub struct Sample {
    request: Request,
    rtt_ns: u64,
    queue_ns: u64,
    exec_ns: u64,
    occupancy: u32,
    flush: FlushKind,
    checksum: u64,
}

/// What one connection saw in one window.
#[derive(Default)]
pub struct Driven {
    /// `Ok` responses that arrived inside the window.
    pub samples: Vec<Sample>,
    /// Non-`Ok` outcomes and unanswered requests inside the window.
    pub failed: u64,
    /// Responses that arrived after the window closed: served by the
    /// program (so they count towards its CPU bill) but not measured.
    pub drained: u64,
}

impl Conn {
    /// Wrap a connected stream (see [`Server::connect`](crate::server::Server::connect)).
    pub fn new(stream: UnixStream) -> io::Result<Conn> {
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 0,
            broken: false,
        })
    }

    fn send(&mut self, request: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let msg = Message::Request(RequestMsg {
            id,
            family: request.family.id().to_string(),
            n: request.n as u64,
            dtype: request.dtype,
            backend: "engine".to_string(),
            payload: request.payload,
            deadline_us: 0,
        });
        proto::write_message(&mut self.writer, &msg)?;
        Ok(id)
    }

    fn receive(&mut self) -> io::Result<(u64, Outcome)> {
        match proto::read_message(&mut self.reader) {
            Ok(Some(Message::Response(r))) => Ok((r.id, r.outcome)),
            Ok(other) => Err(io::Error::other(format!("expected a response, got {other:?}"))),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }

    /// Closed loop: keep `depth` requests from `requests` in flight for
    /// `window` (or until `requests` runs out), then stop sending and drain. The round trip of a request
    /// runs from just before its frame is written to just after the
    /// matching response is decoded.
    pub fn drive(
        &mut self,
        requests: &mut dyn Iterator<Item = Request>,
        depth: usize,
        window: Duration,
    ) -> Driven {
        let mut driven = Driven::default();
        if self.broken {
            driven.failed = depth as u64;
            return driven;
        }
        let mut in_flight: Vec<(u64, Instant, Request)> = Vec::with_capacity(depth);
        let close = Instant::now() + window;
        let mut sending = true;
        loop {
            while sending && in_flight.len() < depth {
                let Some(request) = requests.next() else { break };
                let sent = Instant::now();
                match self.send(&request) {
                    Ok(id) => in_flight.push((id, sent, request)),
                    Err(_) => {
                        self.broken = true;
                        driven.failed += in_flight.len() as u64 + 1;
                        return driven;
                    }
                }
            }
            if in_flight.is_empty() {
                return driven;
            }
            let answer = self.receive();
            let now = Instant::now();
            let slot = answer
                .as_ref()
                .ok()
                .and_then(|(id, _)| in_flight.iter().position(|(sent_id, ..)| sent_id == id));
            let (Ok((_, outcome)), Some(slot)) = (answer, slot) else {
                self.broken = true;
                driven.failed += in_flight.len() as u64;
                return driven;
            };
            let (_, sent, request) = in_flight.swap_remove(slot);
            sending = now < close && !INTERRUPTED.load(Ordering::Relaxed);
            if now > close {
                driven.drained += 1;
                continue;
            }
            match outcome {
                Outcome::Ok { queue_ns, exec_ns, occupancy, flush, checksum } => {
                    driven.samples.push(Sample {
                        request,
                        rtt_ns: (now - sent).as_nanos() as u64,
                        queue_ns,
                        exec_ns,
                        occupancy,
                        flush,
                        checksum,
                    });
                }
                _ => driven.failed += 1,
            }
        }
    }
}

/// Everything one measured window of one workload yields, both
/// connections merged and the per-request samples reduced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Round {
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// `Ok` responses inside the window whose checksum did not mismatch.
    pub ok: u64,
    /// Failed operations: non-`Ok`, unanswered, or checksum mismatch.
    pub failed: u64,
    /// `Ok` responses that could be, and were, checked bitwise.
    pub verified: u64,
    /// Responses the server produced for this window, measured or not.
    pub served: u64,
    /// Client round trip percentiles, microseconds.
    pub rtt_us: [f64; 3],
    /// Median echoed `queue_ns`, microseconds.
    pub queue_p50_us: f64,
    /// Median echoed `exec_ns`, microseconds.
    pub exec_p50_us: f64,
    /// Median per-request `rtt − queue_ns − exec_ns`, microseconds.
    pub unattributed_p50_us: f64,
    /// Requests per admitted batch.
    pub occupancy_mean: f64,
    /// Share of batches flushed by deadline / occupancy / pressure.
    pub flush_shares: [f64; 3],
}

impl Round {
    /// Reduce the windows of all connections. Checkable responses are
    /// compared with `oracle` here, after the window, so checking never
    /// competes with the program for a core while it is being timed.
    pub fn reduce(seconds: f64, driven: Vec<Driven>, oracle: &mut Oracle) -> Round {
        let mut round = Round { seconds, ..Round::default() };
        let (mut rtt, mut queue, mut exec, mut rest) = (vec![], vec![], vec![], vec![]);
        let mut batches = 0.0;
        let mut flushes = [0.0; 3];
        for d in driven {
            round.failed += d.failed;
            round.served += d.failed + d.drained + d.samples.len() as u64;
            for s in d.samples {
                if oracle.checkable(&s.request, s.occupancy) {
                    if oracle.expected(&s.request) != s.checksum {
                        round.failed += 1;
                        continue;
                    }
                    round.verified += 1;
                }
                round.ok += 1;
                rtt.push(s.rtt_ns);
                queue.push(s.queue_ns);
                exec.push(s.exec_ns);
                rest.push(s.rtt_ns.saturating_sub(s.queue_ns + s.exec_ns));
                // Each response of a batch carries the batch's occupancy
                // and flush kind, so 1/occupancy counts the batch once.
                let share = 1.0 / f64::from(s.occupancy);
                batches += share;
                match s.flush {
                    FlushKind::Deadline => flushes[0] += share,
                    FlushKind::Occupancy => flushes[1] += share,
                    FlushKind::Pressure => flushes[2] += share,
                    FlushKind::Drain => {}
                }
            }
        }
        for v in [&mut rtt, &mut queue, &mut exec, &mut rest] {
            v.sort_unstable();
        }
        let us = |sorted: &[u64], p: f64| percentile(sorted, p) as f64 / 1e3;
        round.rtt_us = [us(&rtt, 50.0), us(&rtt, 90.0), us(&rtt, 99.0)];
        round.queue_p50_us = us(&queue, 50.0);
        round.exec_p50_us = us(&exec, 50.0);
        round.unattributed_p50_us = us(&rest, 50.0);
        if batches > 0.0 {
            round.occupancy_mean = round.ok as f64 / batches;
            round.flush_shares = flushes.map(|f| f / batches);
        }
        round
    }
}
