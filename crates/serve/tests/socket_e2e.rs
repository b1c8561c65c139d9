//! End-to-end smoke over real sockets: a `Server` on one thread, the
//! load generator driving it from this one, and four acceptance
//! assertions — the socket path is **bitwise identical** to the
//! client's local oracle at the same seed, low-rate traffic is released
//! by **free executors** (no batch waits out a timer), the plan cache
//! compiled each visited signature **once**, and shutdown is clean (no
//! leaked socket file, every thread joined). Hostile peers — a bad frame
//! inside a burst, a stream cut mid-frame, a half frame and silence —
//! cost only their own connection.

use std::collections::HashSet;
use std::io::Write;
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

use laab_serve::loadgen::{self, Arrival, LoadgenConfig, LOADGEN_REPORT_SCHEMA};
use laab_serve::proto::{
    encode_frame, encode_frame_into, read_message, Message, Outcome, RequestMsg, ResponseMsg,
    MAX_FRAME_LEN,
};
use laab_serve::workload::synthetic_mix;
use laab_serve::{BackendId, Dtype, ServeConfig, Server};

fn server_cfg() -> ServeConfig {
    // The backend `benchmark/` serves: its batched executions answer each
    // member with its solo bits, so the client's solo oracle is exact.
    ServeConfig { backends: vec!["engine".into()], ..ServeConfig::default() }
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

    // Every request of every arrival process completed on its first send
    // — no rejection of any class — and every result matched the local
    // solo execution bit for bit.
    assert_eq!(report.schema, LOADGEN_REPORT_SCHEMA);
    assert_eq!(LOADGEN_REPORT_SCHEMA, "laab-loadgen-v4");
    let arrivals: Vec<&str> = report.runs.iter().map(|r| r.arrival.as_str()).collect();
    assert_eq!(arrivals, ["closed", "poisson:2000", "bursty:2000x8"]);
    for run in &report.runs {
        let at = &run.arrival;
        assert_eq!(run.completed, report.requests as u64, "{at} completed");
        assert_eq!(run.errors, 0, "{at} errors");
        assert_eq!((run.busy, run.expired, run.failed), (0, 0, 0), "{at} rejections");
        assert_eq!(run.checksum_mismatches, 0, "{at} bitwise");
        assert!(run.goodput_rps > 0.0 && run.goodput_rps <= run.offered_rps, "{at} goodput");
        assert!(run.rtt_p50_us > 0.0 && run.rtt_p99_us >= run.rtt_p50_us, "{at} rtt");
        // Queue delay is sampled on the server and echoed per response.
        assert!(run.queue_p50_us > 0.0 && run.queue_p99_us >= run.queue_p50_us, "{at} queue");
        let flushes =
            run.occupancy_flushes + run.deadline_flushes + run.drain_flushes + run.pressure_flushes;
        assert_eq!(flushes, run.completed, "{at}: every response names its flush kind");
    }
    assert!(report.verified);
    assert_eq!(report.checksum_mismatches, 0);
    assert_eq!((report.busy_total, report.expired_total, report.failed_total), (0, 0, 0));

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
        .map(|r| r.signature(BackendId::ENGINE).hash())
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

    // Ask for a real backend the server does not serve (it serves only
    // `engine`): every request must come back as a structured error
    // response — counted, not executed, and the connection survives to
    // carry the shutdown.
    let cfg = LoadgenConfig {
        requests: 16,
        connections: 1,
        backend: "reference".to_string(),
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
    // Past the optimizer gate (n = 96), with bursts of same-signature
    // vector requests that the server runs as one stacked execution:
    // each member still carries the bits of its solo execution. The
    // `deferred` backend runs the same sweep on the engine's kernels, so
    // its batches verify against the same oracle.
    for backend in ["engine", "deferred"] {
        let path = std::env::temp_dir()
            .join(format!("laab-e2e-batch-{backend}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = ServeConfig {
            backends: vec!["engine".into(), "deferred".into()],
            ..ServeConfig::default()
        };
        let server = Server::bind(&format!("unix:{}", path.display()), &cfg).expect("bind unix");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());

        let lg = LoadgenConfig {
            requests: 128,
            n: 96,
            churn_every: 0,
            backend: backend.to_string(),
            arrivals: vec![Arrival::Bursty { rate: 2000.0, burst: 8 }],
            ..LoadgenConfig::smoke(&addr)
        };
        let report = loadgen::run(&lg).expect("loadgen completes");
        assert!(report.verified);
        assert_eq!(report.runs[0].completed, 128, "{backend}");
        assert_eq!(report.checksum_mismatches, 0, "{backend} batches bitwise vs the solo oracle");

        let stats = handle.join().expect("server thread").expect("server run");
        assert_eq!(stats.served, 128, "{backend}");
        assert!(!path.exists(), "socket file must not leak past shutdown");
    }
}

#[test]
fn bad_frames_drop_only_their_connection_and_a_silent_peer_is_reaped() {
    let path = std::env::temp_dir().join(format!("laab-e2e-hostile-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = ServeConfig {
        backends: vec!["engine".into()],
        read_timeout_ms: 300,
        ..ServeConfig::default()
    };
    let server = Server::bind(&format!("unix:{}", path.display()), &cfg).expect("bind unix");
    let handle = std::thread::spawn(move || server.run());
    let connect = || {
        let stream = UnixStream::connect(&path).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(20))).expect("client read timeout");
        stream
    };
    let request = |id| {
        Message::Request(RequestMsg {
            id,
            family: "chain".into(),
            n: 16,
            dtype: Dtype::F64,
            backend: "engine".into(),
            payload: id,
            deadline_us: 0,
        })
    };
    // Every response until the server closes the connection, which must
    // all be served.
    let served_ids = |stream: &mut UnixStream| {
        let mut ids = Vec::new();
        while let Some(msg) = read_message(stream).expect("well-formed response frames") {
            match msg {
                Message::Response(ResponseMsg { id, outcome: Outcome::Ok { .. } }) => ids.push(id),
                other => panic!("expected a served response, got {other:?}"),
            }
        }
        ids.sort_unstable();
        ids
    };

    // (a) One write: two good requests, then a bad frame — of an
    // unknown protocol version, or with an oversized length prefix.
    // Both requests are answered, then the server drops the connection,
    // and a second connection is still served.
    let mut corrupt = encode_frame(&request(0));
    corrupt[4] = 99;
    let oversized = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
    for (k, bad) in [corrupt, oversized].into_iter().enumerate() {
        let id = 10 * k as u64;
        let mut burst = Vec::new();
        encode_frame_into(&mut burst, &request(id + 1));
        encode_frame_into(&mut burst, &request(id + 2));
        burst.extend_from_slice(&bad);
        let mut a = connect();
        a.write_all(&burst).expect("send the burst");
        assert_eq!(served_ids(&mut a), [id + 1, id + 2], "answered, then dropped");

        // It closes cleanly, so it is not reaped.
        let mut b = connect();
        b.write_all(&encode_frame(&request(id + 3))).expect("send");
        b.shutdown(Shutdown::Write).expect("half-close");
        assert_eq!(served_ids(&mut b), [id + 3]);
    }

    // A peer that ends its stream mid-frame is dropped, not reaped.
    let frame = encode_frame(&request(30));
    let mut cut = connect();
    cut.write_all(&frame[..frame.len() / 2]).expect("send half a frame");
    cut.shutdown(Shutdown::Write).expect("half-close");
    assert_eq!(served_ids(&mut cut), [0u64; 0], "dropped without an answer");

    // (b) Half a frame, then silence past the read timeout: the server
    // reaps the connection.
    let mut silent = connect();
    silent.write_all(&frame[..frame.len() / 2]).expect("send half a frame");
    assert_eq!(served_ids(&mut silent), [0u64; 0], "reaped without an answer");

    let mut d = connect();
    d.write_all(&encode_frame(&Message::Shutdown)).expect("send shutdown");
    assert_eq!(read_message(&mut d).expect("ack"), Some(Message::ShutdownAck));
    drop(d);
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.reaped, 1, "only the silent peer");
    assert_eq!(stats.served, 6);
    assert_eq!(stats.connections, 7);
    assert!(!path.exists(), "socket file must not leak past shutdown");
}

#[test]
fn a_server_close_settles_what_the_connection_owed_under_every_arrival() {
    // A peer that reads one frame and closes the connection. Whatever
    // the arrival process, the run completes and all 8 requests settle
    // once, as lost (`errors`): the one sent, and the 7 the closed
    // connection can no longer carry.
    let path = std::env::temp_dir().join(format!("laab-e2e-close-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind unix");
    let arrivals = vec![
        Arrival::Closed,
        Arrival::OpenPoisson { rate: 2000.0 },
        Arrival::Bursty { rate: 2000.0, burst: 8 },
    ];
    let runs = arrivals.len();
    let peer = std::thread::spawn(move || {
        for stream in listener.incoming().take(runs) {
            let mut stream = stream.expect("accept");
            read_message(&mut stream).expect("one frame").expect("not EOF");
        }
    });
    let cfg = LoadgenConfig {
        requests: 8,
        connections: 1,
        arrivals,
        max_retries: 0,
        verify: false,
        shutdown: false,
        ..LoadgenConfig::smoke(&format!("unix:{}", path.display()))
    };
    let report = loadgen::run(&cfg).expect("a server close is not a transport error");
    peer.join().expect("peer thread");
    let _ = std::fs::remove_file(&path);
    for run in &report.runs {
        let at = &run.arrival;
        assert_eq!(run.errors, 8, "{at}: every request is lost");
        let settled = run.completed + run.busy + run.expired + run.failed + run.errors;
        assert_eq!(settled, 8, "{at}: every request settles once");
    }
}

#[test]
fn the_closed_loop_keeps_one_request_in_flight_per_connection() {
    // With the server's per-connection cap at 1, a second request in
    // flight would be shed `Busy`; a closed loop never sends one.
    let path = std::env::temp_dir().join(format!("laab-e2e-window-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = ServeConfig { max_inflight: 1, ..server_cfg() };
    let server = Server::bind(&format!("unix:{}", path.display()), &cfg).expect("bind unix");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let lg = LoadgenConfig {
        requests: 32,
        connections: 1,
        arrivals: vec![Arrival::Closed],
        max_retries: 0,
        ..LoadgenConfig::smoke(&addr)
    };
    let report = loadgen::run(&lg).expect("loadgen completes");
    assert_eq!(report.runs[0].busy, 0, "no request is shed");
    assert_eq!(report.runs[0].completed, 32);

    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.shed, 0);
    assert!(!path.exists(), "socket file must not leak past shutdown");
}
