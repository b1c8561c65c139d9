//! End-to-end smoke over real sockets: a `Server` on one thread, the
//! load generator driving it from this one, and four acceptance
//! assertions — the socket path is **bitwise identical** to the
//! client's local oracle at the same seed, low-rate traffic is released
//! by **free executors** (no batch waits out a timer), the plan cache
//! compiled each visited signature **once**, and shutdown is clean (no
//! leaked socket file, every thread joined).

use std::collections::HashSet;

use laab_serve::loadgen::{self, Arrival, LoadgenConfig};
use laab_serve::workload::synthetic_mix;
use laab_serve::{BackendId, ServeConfig, Server};

fn server_cfg() -> ServeConfig {
    // Batched ≡ solo bitwise holds on every built-in backend; these
    // rounds use `seed`, the engine's has its own test below.
    ServeConfig::builder().backends(["seed"]).build().expect("config validates")
}

#[test]
fn unix_socket_serving_is_bitwise_identical_and_shuts_down_clean() {
    let path = std::env::temp_dir().join(format!("laab-e2e-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server =
        Server::bind(&format!("unix:{}", path.display()), &server_cfg()).expect("bind unix");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let lg = LoadgenConfig::smoke(&addr);
    let report = loadgen::run(&lg).expect("loadgen completes");

    // Every request of every arrival process completed, and every result
    // matched the local solo execution bit for bit.
    assert_eq!(report.runs.len(), 3, "closed, poisson, bursty");
    for run in &report.runs {
        assert_eq!(run.completed, report.requests as u64, "{} completed", run.arrival);
        assert_eq!(run.errors, 0, "{} errors", run.arrival);
        assert_eq!(run.checksum_mismatches, 0, "{} bitwise", run.arrival);
        assert!(run.rtt_p50_us > 0.0 && run.rtt_p99_us >= run.rtt_p50_us, "{}", run.arrival);
    }
    assert!(report.verified);
    assert_eq!(report.checksum_mismatches, 0);

    // At these arrival rates an executor is almost always free when a
    // request lands, so it is taken at once: an occupancy flush, live —
    // never a timer's, and not only when the queue drains.
    let open = report.runs.iter().find(|r| r.arrival.starts_with("poisson")).unwrap();
    assert_eq!(open.deadline_flushes, 0, "no batch is released by a timer");
    assert!(open.occupancy_flushes > 0, "free executors release low-rate traffic");
    assert_eq!(
        open.occupancy_flushes + open.drain_flushes + open.pressure_flushes,
        open.completed,
        "every response names one of the three live flush kinds"
    );

    // The smoke config sends the in-band shutdown; the server must come
    // back with matching counters and remove its socket file.
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.served, 3 * report.requests as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.admission.deadline_flushes, 0);
    // The served plan cache: one compile per distinct signature the
    // stream visits (all three runs replay the same stream and nothing
    // is evicted), and one lookup per admitted batch, so never more
    // lookups than served requests.
    let distinct: HashSet<_> = synthetic_mix(lg.requests, lg.n, lg.seed, lg.churn_every, lg.dtype)
        .iter()
        .map(|r| r.signature(BackendId::SEED).hash())
        .collect();
    assert_eq!(stats.cache.evictions, 0);
    assert_eq!(stats.cache.misses, distinct.len() as u64);
    assert_eq!(stats.cache.entries, distinct.len());
    assert!(stats.cache.hits > 0, "repeated signatures hit");
    assert!(stats.cache.hits + stats.cache.misses <= stats.served, "{:?}", stats.cache);
    assert!(!path.exists(), "socket file must not leak past shutdown");
}

#[test]
fn tcp_serving_round_trips_or_skips_without_network() {
    // Loopback TCP with an ephemeral port; environments that forbid even
    // that skip rather than fail.
    let server = match Server::bind("tcp:127.0.0.1:0", &server_cfg()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("skipping tcp e2e: {e}");
            return;
        }
    };
    let addr = server.local_addr();
    assert!(addr.starts_with("tcp:"), "{addr}");
    let handle = std::thread::spawn(move || server.run());

    let cfg = LoadgenConfig {
        requests: 32,
        connections: 2,
        arrivals: vec![Arrival::Closed],
        ..LoadgenConfig::smoke(&addr)
    };
    let report = loadgen::run(&cfg).expect("loadgen completes");
    assert_eq!(report.runs[0].completed, 32);
    assert_eq!(report.checksum_mismatches, 0, "tcp path bitwise vs oracle");

    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.served, 32);
}

#[test]
fn requests_for_unserved_backends_are_rejected_not_executed() {
    let path = std::env::temp_dir().join(format!("laab-e2e-rej-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server =
        Server::bind(&format!("unix:{}", path.display()), &server_cfg()).expect("bind unix");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    // Ask for a backend the server does not serve: every request must
    // come back as a structured error response — counted, not executed,
    // and the connection survives to carry the shutdown.
    let cfg = LoadgenConfig {
        requests: 16,
        connections: 1,
        backend: "engine".to_string(),
        arrivals: vec![Arrival::Closed],
        verify: false,
        ..LoadgenConfig::smoke(&addr)
    };
    let report = loadgen::run(&cfg).expect("loadgen completes");
    assert_eq!(report.runs[0].errors, 16);
    assert_eq!(report.runs[0].completed, 0);

    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.served, 0);
    assert_eq!(stats.rejected, 16);
    assert!(!path.exists());
}

#[test]
fn served_and_verifying_sides_pick_the_same_optimizer_level() {
    // n = 96 straddles the cost gate: cse_gram, chain, slice and
    // distributive compile through the e-graph (three of them rewritten),
    // gram and solve_residual through the passes alone. The client's
    // oracle compiles its own plans, so zero mismatches means both sides
    // made the same choice for every family.
    let path = std::env::temp_dir().join(format!("laab-e2e-gate-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server =
        Server::bind(&format!("unix:{}", path.display()), &server_cfg()).expect("bind unix");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let cfg = LoadgenConfig {
        requests: 48,
        n: 96,
        churn_every: 0,
        arrivals: vec![Arrival::Closed],
        ..LoadgenConfig::smoke(&addr)
    };
    let report = loadgen::run(&cfg).expect("loadgen completes");
    assert!(report.verified);
    assert_eq!(report.runs[0].completed, 48);
    assert_eq!(report.runs[0].errors, 0);
    assert_eq!(report.checksum_mismatches, 0, "gated-in plans bitwise vs the oracle");

    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.served, 48);
    assert!(!path.exists(), "socket file must not leak past shutdown");
}

#[test]
fn engine_batches_verify_bitwise_against_the_solo_oracle() {
    // The served default backend: a batched execution answers each member
    // with the bits of its solo execution, so the client's solo oracle is
    // exact on `engine` too — bursts of same-signature vector requests
    // included, which the server runs as one stacked execution.
    let path = std::env::temp_dir().join(format!("laab-e2e-engine-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = ServeConfig::builder().backends(["engine"]).build().expect("config validates");
    let server = Server::bind(&format!("unix:{}", path.display()), &cfg).expect("bind unix");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let lg = LoadgenConfig {
        requests: 128,
        n: 96,
        churn_every: 0,
        backend: "engine".to_string(),
        arrivals: vec![Arrival::Bursty { rate: 2000.0, burst: 8 }],
        ..LoadgenConfig::smoke(&addr)
    };
    let report = loadgen::run(&lg).expect("loadgen completes");
    assert!(report.verified);
    assert_eq!(report.runs[0].completed, 128);
    assert_eq!(report.checksum_mismatches, 0, "engine batches bitwise vs the solo oracle");

    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.served, 128);
    assert!(!path.exists(), "socket file must not leak past shutdown");
}
