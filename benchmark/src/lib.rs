//! # laab-benchmark — the repo's benchmark
//!
//! Drives the real `laab serve --listen` binary over its unix socket
//! with four closed-loop workloads and reports what a client sees
//! (throughput, median round trip, server CPU per request, set-up time)
//! plus per-layer numbers taken entirely from outside the program: the
//! fields the server already echoes in each response, `/proc`, and a
//! traced in-process replica of the request path. See `README.md`.

#![deny(missing_docs)]

pub mod client;
pub mod compare;
pub mod host;
pub mod measure;
pub mod oracle;
pub mod replica;
pub mod report;
pub mod server;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::io;
use std::path::PathBuf;

use host::Fingerprint;
use measure::Protocol;
use report::Report;
use workloads::Workload;

/// The seed a run uses unless told otherwise.
pub const DEFAULT_SEED: u64 = 6827;

/// One benchmark run.
pub struct Options {
    /// Workloads, interleaved inside every round in this order.
    pub workloads: Vec<Workload>,
    /// How the measured time is laid out.
    pub protocol: Protocol,
    /// Seeds the request streams; also the server's operand seed.
    pub seed: u64,
    /// Requests per workload the traced replica replays after the socket
    /// run; `0` skips the replica (and its per-layer metrics).
    pub replica_requests: usize,
    /// The `laab` binary to serve with.
    pub server: PathBuf,
    /// Where the socket, the traces and the result file go.
    pub out_dir: PathBuf,
}

/// Preflight, socket run, then (if asked) the traced replica run.
///
/// # Errors
/// A preflight violation, a server that does not start or stop, an
/// unwritable `out_dir`, or an interrupt. Failed *operations* are not
/// errors: they are counted in the report.
pub fn run(opts: &Options) -> io::Result<Report> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let violations: Vec<String> = opts
        .workloads
        .iter()
        .flat_map(|w| oracle::preflight(&w.shapes(opts.seed), opts.seed))
        .collect();
    if !violations.is_empty() {
        return Err(io::Error::other(format!("preflight failed:\n  {}", violations.join("\n  "))));
    }

    let socket = opts.out_dir.join("serve.sock");
    let measured = measure::run(&opts.workloads, opts.protocol, opts.seed, &opts.server, &socket)?;
    let mut report = Report::new(Fingerprint::read(), opts.seed, opts.protocol, &measured);

    if opts.replica_requests > 0 {
        for w in &mut report.workloads {
            let name = w.workload.name();
            let trace = opts.out_dir.join(format!("trace_{name}.json"));
            let replica = replica::run(w.workload, opts.seed, opts.replica_requests, &trace)?;
            // The replica must reproduce the cache behaviour the workload
            // was chosen for, or its per-layer numbers describe another mix.
            let expected = if w.workload.warm() {
                // Every signature compiles once and is never evicted
                // (≥ 0.99 hits over the full 2000 requests).
                replica.misses <= w.workload.shapes(opts.seed).len()
            } else {
                replica.hit_rate <= 0.05
            };
            if !expected {
                report.problems.push(format!(
                    "{name}: replica plan-cache hit rate {:.4} contradicts the workload",
                    replica.hit_rate
                ));
            }
            w.add_replica(&replica);
        }
    }
    Ok(report)
}
