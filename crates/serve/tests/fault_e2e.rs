//! Deterministic fault-injection end-to-end: a `Server` with a seeded
//! [`FaultPlan`] on one thread, the load generator driving it over a
//! real unix socket from this one. Because fault decisions are a pure
//! hash of `(seed, kind, id)`, each test precomputes the exact id set
//! every fault will hit via [`FaultPlan::fires`] and asserts the
//! client report and server counters match it **exactly** — not
//! "roughly N% failed", but these ids and no others.
//!
//! The batch window is pinned to 1 throughout so request ↔ batch is
//! 1:1 and a panic poisons exactly its own request.

use std::collections::HashSet;

use laab_serve::loadgen::{self, Arrival, LoadgenConfig};
use laab_serve::workload::synthetic_mix;
use laab_serve::{Dtype, FaultKind, FaultPlan, ServeConfig, Server, ServerStats};
use laab_serve::{LoadgenReport, ServeError};

/// Keep injected executor panics out of the test's stderr: the default
/// hook prints a backtrace per firing, which is pure noise for a fault
/// the plan asked for. Anything else (a real bug, a failed assertion)
/// still reaches the previous hook untouched.
fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected =
                info.payload().downcast_ref::<&str>().is_some_and(|s| s.contains("injected fault"))
                    || info
                        .payload()
                        .downcast_ref::<String>()
                        .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Bind a unix-socket server with `cfg`, drive it with `lg`, and return
/// `(client report, server stats)` once both sides have shut down
/// cleanly. Panics if the server thread died — surviving injected
/// faults is itself an assertion of every test here.
fn drive(
    name: &str,
    cfg: ServeConfig,
    lg: impl FnOnce(&str) -> LoadgenConfig,
) -> (LoadgenReport, ServerStats) {
    silence_injected_panics();
    let path = std::env::temp_dir().join(format!("laab-fault-{name}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = Server::bind(&format!("unix:{}", path.display()), &cfg).expect("bind unix");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let report = loadgen::run(&lg(&addr)).expect("loadgen completes");

    let stats: Result<ServerStats, ServeError> =
        handle.join().expect("server thread survives injected faults");
    let stats = stats.expect("server run returns stats");
    assert!(!path.exists(), "clean shutdown removes the socket file");
    (report, stats)
}

/// The ids in `0..requests` that `kind` fires for under `plan`.
fn fired(plan: &FaultPlan, seed: u64, kind: FaultKind, requests: u64) -> HashSet<u64> {
    (0..requests).filter(|&id| plan.fires(seed, kind, id)).collect()
}

/// The headline acceptance test: seeded panic + delay + drop faults
/// over a unix socket. The server completes the run, every *completed*
/// response is bitwise-correct against the in-process oracle, and the
/// failed/retry/fault counters match the precomputed plan id-for-id.
#[test]
fn seeded_panic_delay_drop_counters_match_the_plan_exactly() {
    const REQUESTS: u64 = 64;
    let plan = FaultPlan::parse("panic:1/8,delay:1/4x300,drop:1/8").expect("plan parses");
    let seed = 0x1AAB;
    let panics = fired(&plan, seed, FaultKind::Panic, REQUESTS);
    let drops = fired(&plan, seed, FaultKind::Drop, REQUESTS);
    let delays = fired(&plan, seed, FaultKind::Delay, REQUESTS);
    // The test only means something if every fault actually fires.
    assert!(!panics.is_empty() && !drops.is_empty() && !delays.is_empty());
    assert_ne!(panics, drops, "kind salt separates the id sets");

    let cfg = ServeConfig::builder()
        .backends(["engine"])
        .batch_window(1)
        .quarantine_after(0) // isolate panic accounting from quarantine
        .faults(Some(plan))
        .build()
        .expect("config validates");
    let (report, stats) = drive("mix", cfg, |addr| {
        let mut lg = LoadgenConfig::smoke(addr);
        lg.requests = REQUESTS as usize;
        lg.connections = 2;
        lg.n = 16;
        // One closed-loop run: each wire id is sent exactly once (plus
        // retries of the same id), so fire-once faults map 1:1 to ids.
        lg.arrivals = vec![Arrival::Closed];
        lg
    });

    // Client side: panicked ids come back `Failed` (terminal); every
    // other id completes — dropped ids via timeout-retry of the same
    // id, which the fire-once injector lets through on the resend.
    let run = &report.runs[0];
    assert_eq!(run.failed, panics.len() as u64, "one Failed per panic-set id");
    assert_eq!(run.completed, REQUESTS - panics.len() as u64);
    assert_eq!(run.errors, 0, "no id is lost for good");
    assert_eq!(run.busy, 0);
    assert_eq!(run.expired, 0);
    assert!(run.retries >= drops.len() as u64, "every dropped id forces at least one resend");
    assert_eq!(run.checksum_mismatches, 0, "completed responses are bitwise-correct");
    assert_eq!(report.checksum_mismatches, 0);

    // Server side: the counters reproduce the plan exactly.
    assert_eq!(stats.failed, panics.len() as u64);
    assert_eq!(stats.served, REQUESTS - panics.len() as u64);
    assert_eq!(stats.faults.panics, panics.len() as u64);
    assert_eq!(stats.faults.drops, drops.len() as u64);
    assert_eq!(stats.faults.delays, delays.len() as u64, "every id reaches the executor once");
    assert_eq!(stats.faults.corrupts, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.quarantined, 0);
}

/// Corrupt faults flip checksums on otherwise-successful responses:
/// the verifier counts exactly the corrupt id set as mismatches, and
/// nothing is rejected — proving `--verify` measures completed
/// responses, not rejections.
#[test]
fn corrupt_faults_are_counted_as_mismatches_on_completed_responses() {
    const REQUESTS: u64 = 32;
    let plan = FaultPlan::parse("corrupt:1/2").expect("plan parses");
    let corrupts = fired(&plan, 0x1AAB, FaultKind::Corrupt, REQUESTS);
    assert!(!corrupts.is_empty() && corrupts.len() < REQUESTS as usize);

    let cfg = ServeConfig::builder()
        .backends(["engine"])
        .batch_window(1)
        .faults(Some(plan))
        .build()
        .expect("config validates");
    let (report, stats) = drive("corrupt", cfg, |addr| {
        let mut lg = LoadgenConfig::smoke(addr);
        lg.requests = REQUESTS as usize;
        lg.connections = 1;
        lg.n = 16;
        lg.arrivals = vec![Arrival::Closed];
        lg.max_retries = 0;
        lg
    });

    let run = &report.runs[0];
    assert_eq!(run.completed, REQUESTS, "corruption completes; it does not reject");
    assert_eq!(run.failed + run.busy + run.expired + run.errors, 0);
    assert_eq!(run.checksum_mismatches, corrupts.len() as u64, "exactly the corrupt set");
    assert_eq!(stats.faults.corrupts, corrupts.len() as u64);
    assert_eq!(stats.served, REQUESTS);
}

/// A universal 5 ms injected delay against a 1 ms request deadline:
/// every request expires server-side *before* execution, and the
/// verifier reports zero mismatches because nothing completed —
/// rejections are never counted against the bitwise check.
#[test]
fn deadlines_expire_delayed_requests_before_execution() {
    const REQUESTS: u64 = 12;
    let plan = FaultPlan::parse("delay:1/1x5000").expect("plan parses");

    let cfg = ServeConfig::builder()
        .backends(["engine"])
        .batch_window(1)
        .faults(Some(plan))
        .build()
        .expect("config validates");
    let (report, stats) = drive("expire", cfg, |addr| {
        let mut lg = LoadgenConfig::smoke(addr);
        lg.requests = REQUESTS as usize;
        lg.connections = 1;
        lg.n = 16;
        lg.arrivals = vec![Arrival::Closed];
        lg.deadline_us = 1_000;
        lg.max_retries = 0;
        lg
    });

    let run = &report.runs[0];
    assert_eq!(run.expired, REQUESTS, "every delayed request overstays its deadline");
    assert_eq!(run.completed, 0);
    assert_eq!(run.checksum_mismatches, 0, "nothing completed, nothing to mismatch");
    assert_eq!(stats.expired, REQUESTS);
    assert_eq!(stats.served, 0, "expiry is checked again after the delay, before execution");
    assert_eq!(stats.faults.delays, REQUESTS);
}

/// A burst of 8 into `--max-inflight 1` while the one admitted request
/// sits in a 20 ms injected delay: the reader sheds the other 7 with
/// `Busy` immediately (admission is per-connection in-flight, not
/// executor state), and with retries disabled the client records them
/// as terminal.
#[test]
fn inflight_cap_sheds_burst_overflow_with_busy() {
    const REQUESTS: u64 = 8;
    let plan = FaultPlan::parse("delay:1/1x20000").expect("plan parses");

    let cfg = ServeConfig::builder()
        .backends(["engine"])
        .batch_window(1)
        .max_inflight(1)
        .faults(Some(plan))
        .build()
        .expect("config validates");
    let (report, stats) = drive("busy", cfg, |addr| {
        let mut lg = LoadgenConfig::smoke(addr);
        lg.requests = REQUESTS as usize;
        lg.connections = 1;
        lg.n = 16;
        lg.arrivals = vec![Arrival::Bursty { rate: 2000.0, burst: REQUESTS as usize }];
        lg.max_retries = 0;
        lg
    });

    let run = &report.runs[0];
    assert_eq!(run.completed, 1, "only the head of the burst is admitted");
    assert_eq!(run.busy, REQUESTS - 1);
    assert_eq!(run.checksum_mismatches, 0);
    assert_eq!(stats.served, 1);
    assert_eq!(stats.shed, REQUESTS - 1);
    assert_eq!(stats.faults.delays, 1, "shed requests never reach the executor");
}

/// Every execution panics and the quarantine threshold is 1: the first
/// request of each distinct signature fails in the executor, every
/// subsequent request of that signature is refused up front, and the
/// server still shuts down cleanly — the panic never kills a pool
/// thread. The split between executor failures and quarantine refusals
/// equals the mix's distinct-signature count exactly.
#[test]
fn quarantine_fences_repeatedly_failing_signatures() {
    const REQUESTS: usize = 24;
    const N: usize = 16;
    const CHURN: usize = 5;
    let plan = FaultPlan::parse("panic:1/1").expect("plan parses");
    let seed = 0x1AAB;

    // The quarantine key is (family, n, dtype, backend); backend is
    // constant here, so the client-side mix predicts the key count.
    let mix = synthetic_mix(REQUESTS, N, seed, CHURN, None);
    let distinct: HashSet<(_, usize, Dtype)> =
        mix.iter().map(|r| (r.family, r.n, r.dtype)).collect();
    let distinct = distinct.len() as u64;
    assert!(distinct > 1 && distinct < REQUESTS as u64, "mix repeats signatures");

    let cfg = ServeConfig::builder()
        .backends(["engine"])
        .batch_window(1)
        .quarantine_after(1)
        .faults(Some(plan))
        .build()
        .expect("config validates");
    let (report, stats) = drive("quarantine", cfg, |addr| {
        let mut lg = LoadgenConfig::smoke(addr);
        lg.requests = REQUESTS;
        lg.connections = 1;
        lg.n = N;
        lg.churn_every = CHURN;
        lg.arrivals = vec![Arrival::Closed];
        lg.max_retries = 0;
        lg.verify = false;
        lg
    });

    let run = &report.runs[0];
    assert_eq!(run.failed, REQUESTS as u64, "both refusal paths answer Failed");
    assert_eq!(run.completed, 0);
    assert_eq!(stats.served, 0);
    assert_eq!(stats.failed, distinct, "first request of each signature reaches the executor");
    assert_eq!(stats.quarantined, REQUESTS as u64 - distinct, "the rest are fenced at admission");
    assert_eq!(stats.faults.panics, distinct);
}
