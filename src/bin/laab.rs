//! `laab` — the unified runner for the Linear Algebra Awareness Benchmark.
//!
//! ```text
//! laab run [OPTIONS] [EXPERIMENT]...   run experiments (default: all)
//! laab serve --listen ADDR [OPTIONS]   the plan-cache server (unix/tcp RPC)
//! laab loadgen --addr ADDR [OPTIONS]   drive a server, client-side latency
//! laab list                            list experiments + report formats
//! laab help                            this message
//! ```
//!
//! See `laab help` (or the README) for the option reference.

use std::io::Write;
use std::process::ExitCode;

use laab::serve::{loadgen, ServeConfig, Server};
use laab::suite::bench_registry;
use laab::suite::runner::{self, Experiment};
use laab::suite::ExperimentConfig;
use laab_stats::TimingConfig;

const USAGE: &str = "\
laab — Linear Algebra Awareness Benchmark runner (arXiv:2202.09888)

USAGE:
    laab run [OPTIONS] [EXPERIMENT]...
    laab serve --listen ADDR [SERVE OPTIONS]
    laab loadgen --addr ADDR [LOADGEN OPTIONS]
    laab list
    laab help

EXPERIMENTS:
    fig1 table1 table2 table3 table4 table5 table6 fig6 fig7 ext_solve
    (none given: run everything in paper order)

OPTIONS:
    --quick          smoke protocol: n = 64, 5 reps (for CI and try-outs)
    --n N            problem size          [default: 512; paper: 3000]
    --reps R         timed repetitions     [default: 20]
    --warmup W       discarded warmup runs [default: 2]
    --seed S         operand seed          [default: 6827 (0x1AAB)]
    --no-check       skip numeric cross-validation of variants
    --json           print the machine-readable report to stdout
                     (tables are suppressed; combine with --out to keep both)
    --out PATH       write the JSON report to PATH (BENCH_*.json format)
    --md             print results as markdown instead of plain text
    --strict         exit non-zero unless every paper finding reproduces

SERVE OPTIONS (laab serve — the compiled-plan cache behind a socket):
    --listen ADDR    required: unix:<path> or tcp:<host:port>. Runs until a
                     client sends the in-band shutdown frame (see laab
                     loadgen), then prints what it served and its
                     plan-cache counters. Throughput and latency are
                     measured from outside: laab loadgen, benchmark/run.sh
    --clients C      executor threads. Explicit counts are taken verbatim
                     (never clamped); omit the flag for auto-detection,
                     which caps at 8 — beyond that the 1-socket kernels,
                     not the serving layer, are the bottleneck. `--clients
                     0` is rejected: it is not \"all cores\".
                                                   [default: auto, max 8]
    --seed S         operand-pool/payload/fault seed; a verifying client
                     must pass the same one        [default: 6827 (0x1AAB)]
    --backends LIST  comma-separated execution backends requests may ask
                     for                           [default: engine]
                     (built-ins: engine, reference, deferred)
    --batch-window N admission window: coalesce up to N pending
                     same-signature requests into one batched (multi-RHS)
                     execution; 0 switches batching off. Requests only
                     wait while every executor is busy: a free one takes
                     the oldest pending group at once, however full
                                                   [default: 8]
    --max-inflight N per-connection in-flight cap: requests beyond it get
                     a structured Busy{retry_after_us} rejection instead
                     of queueing (0 = unlimited)   [default: 256]
    --backlog N      global admission-backlog bound: submits past it are
                     shed with Busy; past half of it the window degrades
                     (pressure flush) to favor latency (0 = unbounded)
                                                   [default: 2048]
    --quarantine-after N
                     quarantine a (signature, backend) after N execution
                     panics; later requests for it are refused up front
                     (0 = never quarantine)        [default: 3]
    --read-timeout-ms MS
                     reap a connection whose client goes silent for MS ms
                     (0 = wait forever)            [default: 30000]
    --faults SPEC    deterministic fault injection, for testing the
                     failure paths: comma-separated kind:rate pairs from
                     drop:<n/d>, delay:<n/d>x<us>, panic:<n/d>,
                     corrupt:<n/d> — each request id fires a fault at
                     most once, decided by the seed  [default: none]

LOADGEN OPTIONS (laab loadgen — drive a --listen server from the outside):
    --addr ADDR      server address (unix:<path> or tcp:<host:port>)
    --smoke          CI smoke protocol: 96 requests, 2 connections, all
                     three arrival processes, verify + shutdown
    --requests R     requests per arrival-process run   [default: 512]
    --connections C  concurrent connections             [default: 2]
    --n N            base operand size (must match the server's pools
                     only in as much as sizes stay in [2, 4096])
                                                        [default: 192]
    --seed S         stream seed; MUST match the server's --seed for the
                     bitwise check                      [default: 6827]
    --backend B      backend each request asks for      [default: engine]
    --dtype D        pin request precision: f32 | f64 | mixed
    --arrivals LIST  comma-separated arrival processes to sweep:
                     closed | poisson:<rate> | bursty:<rate>x<burst>
                                 [default: closed,poisson:2000,bursty:2000x8]
    --deadline-us D  stamp every request with a D-microsecond deadline;
                     the server answers Expired instead of executing a
                     request that overstays it (0 = none) [default: 0]
    --max-retries R  retry budget per request for Busy rejections and
                     presumed-lost sends, with capped exponential
                     backoff + jitter honoring the server's
                     retry_after_us hint (0 = no retries) [default: 3]
    --no-verify      skip the local bitwise oracle. Verification covers
                     completed responses only — Busy/Expired/Failed
                     rejections are reported in their own classes,
                     never as mismatches
    --no-shutdown    leave the server running afterwards
    --json           print the machine-readable report to stdout
    --out PATH       write the JSON report to PATH (BENCH_loadgen.json)
";

struct RunArgs {
    cfg: ExperimentConfig,
    names: Vec<String>,
    json_stdout: bool,
    out: Option<String>,
    markdown: bool,
    strict: bool,
}

/// Set once stdout's downstream pipe closes (e.g. `laab list | head`).
/// Rust ignores SIGPIPE, so a plain `println!` would panic; instead later
/// stdout writes become no-ops while the run itself — `--out` files and
/// the `--strict` exit code — still completes.
static STDOUT_CLOSED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Print a line to stdout, tolerating a closed pipe.
fn emit(text: &str) {
    use std::sync::atomic::Ordering;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    let mut out = std::io::stdout().lock();
    if out.write_all(text.as_bytes()).and_then(|()| out.write_all(b"\n")).is_err() {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("run") => match parse_run_args(args) {
            Ok(Some(run_args)) => run(run_args),
            Ok(None) => {
                emit(USAGE);
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("serve") => match parse_serve_args(args) {
            Ok(Some(serve_args)) => run_serve(serve_args),
            Ok(None) => {
                emit(USAGE);
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("loadgen") => match parse_loadgen_args(args) {
            Ok(Some(loadgen_args)) => run_loadgen(loadgen_args),
            Ok(None) => {
                emit(USAGE);
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("list") => {
            for e in Experiment::ALL {
                emit(&format!("{:<10} {}", e.id(), e.describe()));
            }
            emit("\nmachine-readable reports:");
            for spec in &bench_registry::BENCHES {
                emit(&format!(
                    "{:<10} {}  ({} -> {})",
                    spec.name, spec.description, spec.schema, spec.artifact
                ));
            }
            emit("\nexecution backends (laab serve --backends):");
            // The deferred backend registers on first use; force it so the
            // listing shows every built-in, not just the always-registered
            // two.
            laab::deferred::ensure_registered();
            for reg in laab::backend::registry::all() {
                emit(&format!("{:<10} {}", reg.name(), reg.description()));
            }
            ExitCode::SUCCESS
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            emit(USAGE);
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parse `laab run` arguments. `Ok(None)` means `--help` was requested.
fn parse_run_args(args: impl Iterator<Item = String>) -> Result<Option<RunArgs>, String> {
    let mut cfg = ExperimentConfig::default();
    let mut out = RunArgs {
        cfg,
        names: Vec::new(),
        json_stdout: false,
        out: None,
        markdown: false,
        strict: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                cfg.n = 64;
                cfg.timing = TimingConfig::quick();
            }
            "--n" => cfg.n = parse_num(args.next(), "--n")?,
            "--reps" => cfg.timing.reps = parse_num(args.next(), "--reps")?,
            "--warmup" => cfg.timing.warmup = parse_num(args.next(), "--warmup")?,
            "--seed" => cfg.seed = parse_num(args.next(), "--seed")?,
            "--no-check" => cfg.check_numerics = false,
            "--json" => out.json_stdout = true,
            "--out" => {
                out.out = Some(args.next().ok_or("--out requires a path")?);
            }
            "--md" => out.markdown = true,
            "--strict" => out.strict = true,
            "--help" | "-h" => return Ok(None),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option `{flag}`"));
            }
            name => out.names.push(name.to_string()),
        }
    }
    if cfg.timing.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    out.cfg = cfg;
    Ok(Some(out))
}

struct ServeArgs {
    cfg: ServeConfig,
    listen: String,
}

/// Parse `laab loadgen`'s `--dtype` value.
fn parse_dtype(value: Option<String>) -> Result<Option<laab::serve::Dtype>, String> {
    match value.ok_or("--dtype requires a value")?.as_str() {
        "f32" => Ok(Some(laab::serve::Dtype::F32)),
        "f64" => Ok(Some(laab::serve::Dtype::F64)),
        "mixed" => Ok(None),
        other => Err(format!("invalid value `{other}` for --dtype (expected f32, f64, or mixed)")),
    }
}

/// Parse a comma-separated name list (`--backends`, `--arrivals`).
fn parse_list(value: Option<String>, flag: &str) -> Result<Vec<String>, String> {
    let list: Vec<String> = value
        .ok_or_else(|| format!("{flag} requires a comma-separated list"))?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if list.is_empty() {
        return Err(format!("{flag} requires at least one entry"));
    }
    Ok(list)
}

/// Parse `laab serve` arguments. `Ok(None)` means `--help` was requested.
/// Construction goes through [`ServeConfig::builder`] so every invalid
/// combination — unknown backends, `--clients 0` — is rejected here
/// with a usage error, not after the listener is bound.
fn parse_serve_args(args: impl Iterator<Item = String>) -> Result<Option<ServeArgs>, String> {
    let mut builder = ServeConfig::builder();
    let mut listen = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(args.next().ok_or("--listen requires an address")?),
            "--clients" => builder = builder.clients(parse_num(args.next(), "--clients")?),
            "--seed" => builder = builder.seed(parse_num(args.next(), "--seed")?),
            "--backends" => builder = builder.backends(parse_list(args.next(), "--backends")?),
            "--batch-window" => {
                builder = builder.batch_window(parse_num(args.next(), "--batch-window")?);
            }
            "--max-inflight" => {
                builder = builder.max_inflight(parse_num(args.next(), "--max-inflight")?);
            }
            "--backlog" => builder = builder.backlog(parse_num(args.next(), "--backlog")?),
            "--quarantine-after" => {
                builder = builder.quarantine_after(parse_num(args.next(), "--quarantine-after")?);
            }
            "--read-timeout-ms" => {
                builder = builder.read_timeout_ms(parse_num(args.next(), "--read-timeout-ms")?);
            }
            "--faults" => {
                let spec = args.next().ok_or("--faults requires a fault spec")?;
                let plan = laab::serve::FaultPlan::parse(&spec)
                    .map_err(|e| format!("invalid --faults spec: {e}"))?;
                builder = builder.faults(Some(plan));
            }
            "--help" | "-h" => return Ok(None),
            flag => return Err(format!("unknown option `{flag}` for `laab serve`")),
        }
    }
    let listen = listen.ok_or("--listen is required (unix:<path> or tcp:<host:port>)")?;
    let cfg = builder.build().map_err(|e| e.to_string())?;
    Ok(Some(ServeArgs { cfg, listen }))
}

struct LoadgenArgs {
    cfg: loadgen::LoadgenConfig,
    json_stdout: bool,
    out: Option<String>,
}

/// Parse `laab loadgen` arguments. `Ok(None)` means `--help` was
/// requested.
fn parse_loadgen_args(args: impl Iterator<Item = String>) -> Result<Option<LoadgenArgs>, String> {
    let mut cfg = loadgen::LoadgenConfig {
        addr: String::new(),
        requests: 512,
        connections: 2,
        n: 192,
        seed: 0x1AAB,
        churn_every: 16,
        dtype: None,
        backend: "engine".to_string(),
        arrivals: vec![
            loadgen::Arrival::Closed,
            loadgen::Arrival::OpenPoisson { rate: 2000.0 },
            loadgen::Arrival::Bursty { rate: 2000.0, burst: 8 },
        ],
        deadline_us: 0,
        max_retries: 3,
        verify: true,
        shutdown: true,
        smoke: false,
    };
    let mut json_stdout = false;
    let mut out = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = args.next().ok_or("--addr requires an address")?,
            "--smoke" => {
                let addr = std::mem::take(&mut cfg.addr);
                cfg = loadgen::LoadgenConfig::smoke(&addr);
            }
            "--requests" => cfg.requests = parse_num(args.next(), "--requests")?,
            "--connections" => cfg.connections = parse_num(args.next(), "--connections")?,
            "--n" => cfg.n = parse_num(args.next(), "--n")?,
            "--seed" => cfg.seed = parse_num(args.next(), "--seed")?,
            "--backend" => cfg.backend = args.next().ok_or("--backend requires a name")?,
            "--dtype" => cfg.dtype = parse_dtype(args.next())?,
            "--arrivals" => {
                cfg.arrivals = parse_list(args.next(), "--arrivals")?
                    .iter()
                    .map(|s| loadgen::Arrival::parse(s).map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--deadline-us" => cfg.deadline_us = parse_num(args.next(), "--deadline-us")?,
            "--max-retries" => cfg.max_retries = parse_num(args.next(), "--max-retries")?,
            "--no-verify" => cfg.verify = false,
            "--no-shutdown" => cfg.shutdown = false,
            "--json" => json_stdout = true,
            "--out" => out = Some(args.next().ok_or("--out requires a path")?),
            "--help" | "-h" => return Ok(None),
            flag => return Err(format!("unknown option `{flag}` for `laab loadgen`")),
        }
    }
    if cfg.addr.is_empty() {
        return Err("--addr is required (the server's unix:<path> or tcp:<host:port>)".into());
    }
    Ok(Some(LoadgenArgs { cfg, json_stdout, out }))
}

fn run_loadgen(args: LoadgenArgs) -> ExitCode {
    eprintln!(
        "driving {} with {} requests x {} arrival processes over {} connections...",
        args.cfg.addr,
        args.cfg.requests,
        args.cfg.arrivals.len(),
        args.cfg.connections,
    );
    let report = match loadgen::run(&args.cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.json_stdout {
        emit(&report.to_json());
    } else {
        for run in &report.runs {
            emit(&format!(
                "{:<18} {:>6}/{} ok  rtt p50 {:>8.1} us  p99 {:>8.1} us  \
                 queue p50 {:>7.1} us  occupancy {:.2}  \
                 flushes occ/drain/pressure {}/{}/{}  \
                 goodput {:.0} of {:.0} offered req/s",
                run.arrival,
                run.completed,
                run.sent,
                run.rtt_p50_us,
                run.rtt_p99_us,
                run.queue_p50_us,
                run.occupancy_mean,
                run.occupancy_flushes,
                run.drain_flushes,
                run.pressure_flushes,
                run.goodput_rps,
                run.offered_rps,
            ));
        }
        if report.busy_total + report.expired_total + report.failed_total + report.retries_total > 0
        {
            emit(&format!(
                "rejections: {} busy, {} expired, {} failed; {} retries",
                report.busy_total, report.expired_total, report.failed_total, report.retries_total,
            ));
        }
        if report.verified {
            emit(&format!(
                "bitwise vs in-process oracle: {} mismatches (completed responses only)",
                report.checksum_mismatches
            ));
        }
    }
    if let Some(path) = &args.out {
        let json = report.to_json();
        if let Err(e) = std::fs::File::create(path)
            .and_then(|mut f| f.write_all(json.as_bytes()).and_then(|()| f.write_all(b"\n")))
        {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if report.verified && report.checksum_mismatches > 0 {
        eprintln!("error: the socket path diverged from the in-process oracle");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_serve(args: ServeArgs) -> ExitCode {
    let server = match Server::bind(&args.listen, &args.cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "listening on {} (backends: {}, window {}); \
         send a shutdown frame (laab loadgen) to stop",
        server.local_addr(),
        args.cfg.backends.join(","),
        args.cfg.batch_window,
    );
    match server.run() {
        Ok(stats) => {
            eprintln!(
                "served {} requests over {} connections ({} rejected, {} shed, \
                 {} expired, {} failed, {} quarantined, {} reaped); \
                 flushes occ/drain/pressure {}/{}/{}; \
                 plan cache: {} hits / {} misses ({} retraces, {} evictions)",
                stats.served,
                stats.connections,
                stats.rejected,
                stats.shed,
                stats.expired,
                stats.failed,
                stats.quarantined,
                stats.reaped,
                stats.admission.occupancy_flushes,
                stats.admission.drain_flushes,
                stats.admission.pressure_flushes,
                stats.cache.hits,
                stats.cache.misses,
                stats.cache.retraces,
                stats.cache.evictions,
            );
            let f = stats.faults;
            if f.drops + f.delays + f.panics + f.corrupts > 0 {
                eprintln!(
                    "injected faults: {} drops, {} delays, {} panics, {} corrupts",
                    f.drops, f.delays, f.panics, f.corrupts,
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse_num<T: std::str::FromStr>(value: Option<String>, flag: &str) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} requires a value"))?;
    v.parse().map_err(|_| format!("invalid value `{v}` for {flag}"))
}

fn run(args: RunArgs) -> ExitCode {
    let plan = match runner::parse_experiments(&args.names) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let report = runner::run_with(&args.cfg, &plan, |exp, record| {
        // Stream results as they land. With --json, stdout is reserved for
        // the report, so only a progress line goes to stderr.
        if args.json_stdout {
            eprintln!("# finished {} in {:.2}s", exp.id(), record.wall_secs);
        } else if args.markdown {
            emit(&record.result.to_markdown());
        } else {
            emit(&format_result_text(&record.result, record.wall_secs));
        }
    });

    if !args.json_stdout {
        emit(&report.summary_table().to_string());
    }

    let json = report.to_json();
    if args.json_stdout {
        emit(&json);
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::File::create(path)
            .and_then(|mut f| f.write_all(json.as_bytes()).and_then(|()| f.write_all(b"\n")))
        {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }

    if args.strict && !report.all_checks_pass() {
        eprintln!("strict mode: not every paper finding reproduced");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn format_result_text(result: &laab::suite::ExperimentResult, wall: f64) -> String {
    let mut s = format!("=== {} ({}) — {wall:.2}s ===\n", result.title, result.id);
    s.push_str(&format!("{}\n", result.table));
    s.push_str(&format!("{}\n", result.analysis));
    s.push_str("paper findings:\n");
    for c in &result.checks {
        s.push_str(&format!(
            "  [{}] {} — {}\n",
            if c.passed { "ok" } else { "XX" },
            c.name,
            c.detail
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_args(line: &str) -> Result<Option<ServeArgs>, String> {
        parse_serve_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn removed_serve_flags_are_unknown_options() {
        // Everything the in-process bench took (names without the `--`).
        const REMOVED: [&str; 11] = [
            "smoke",
            "requests",
            "n",
            "dtype",
            "opt",
            "dispatch-us",
            "no-fusion",
            "arrival-rate",
            "no-batch",
            "json",
            "out",
        ];
        for name in REMOVED {
            let err = serve_args(&format!("--listen unix:/tmp/x.sock --{name} 1")).err();
            let want = format!("unknown option `--{name}` for `laab serve`");
            assert_eq!(err.as_deref(), Some(want.as_str()));
        }
    }

    #[test]
    fn serve_requires_a_listen_address() {
        let err = serve_args("--backends engine").err().expect("no address, no server");
        assert!(err.contains("--listen is required"), "{err}");
        assert!(matches!(serve_args("--help"), Ok(None)));
    }

    #[test]
    fn surviving_serve_flags_round_trip_into_the_config() {
        let args = serve_args(
            "--listen unix:/tmp/x.sock --clients 3 --seed 7 \
             --backends engine,reference --batch-window 0 --max-inflight 5 --backlog 6 \
             --quarantine-after 9 --read-timeout-ms 10 --faults panic:1/8",
        )
        .expect("valid")
        .expect("not --help");
        assert_eq!(args.listen, "unix:/tmp/x.sock");
        let defaults = ServeConfig::default();
        let want = ServeConfig {
            clients: 3,
            seed: 7,
            // No flag reaches the cache geometry.
            cache_capacity: defaults.cache_capacity,
            shards: defaults.shards,
            backends: vec!["engine".into(), "reference".into()],
            batch_window: 0,
            max_inflight: 5,
            backlog: 6,
            quarantine_after: 9,
            read_timeout_ms: 10,
            faults: Some(laab::serve::FaultPlan::parse("panic:1/8").expect("plan parses")),
        };
        assert_eq!(args.cfg, want);

        let bare = serve_args("--listen tcp:127.0.0.1:0").unwrap().unwrap();
        assert_eq!(bare.cfg, defaults);
        let err = serve_args("--listen unix:/tmp/x.sock --clients 0").err().expect("rejected");
        assert!(err.contains("--clients 0"), "{err}");
    }
}
