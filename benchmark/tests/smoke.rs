//! `--quick` end to end: one round of one second per workload against a
//! spawned server, then the short traced replica run.

use std::path::{Path, PathBuf};
use std::process::Command;

use laab_benchmark::measure::Protocol;
use laab_benchmark::report::{END_TO_END, PER_LAYER};
use laab_benchmark::workloads::Workload;
use laab_benchmark::{Options, DEFAULT_SEED};

/// Build (a no-op when fresh) and locate the repo's `laab` binary.
fn server_binary() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--bin", "laab", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .current_dir(root)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building the laab binary failed");
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    root.join(target).join("release/laab")
}

fn names_in(line: &str) -> Vec<String> {
    let parsed: serde_json::Value = serde_json::from_str(line).expect("the result line is JSON");
    match parsed.get("metrics") {
        Some(serde_json::Value::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("no metrics object: {other:?}"),
    }
}

#[test]
fn quick_set_serves_every_workload_correctly_and_leaves_nothing_behind() {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke");
    let opts = Options {
        workloads: Workload::ALL.to_vec(),
        protocol: Protocol::QUICK,
        seed: DEFAULT_SEED,
        replica_requests: 200,
        server: server_binary(),
        out_dir: out_dir.clone(),
    };
    let report = laab_benchmark::run(&opts).expect("the quick set runs");

    assert!(report.correct(), "{}", report.table());
    assert_eq!(report.workloads.len(), 4);
    for w in &report.workloads {
        assert!(w.ok > 0 && w.failed == 0, "{}", report.table());
        assert_eq!(w.attempted, w.ok);
        assert!(w.end_to_end("throughput_rps") > 0.0 && w.end_to_end("rtt_p50_us") > 0.0);
        assert!(w.end_to_end("cpu_us_per_req") > 0.0);
        let emitted: Vec<&str> = w.per_layer.iter().map(|(n, _)| *n).collect();
        let catalogued: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(emitted, catalogued, "every per-layer metric, once, in order");
        assert!(out_dir.join(format!("trace_{}.json", w.workload.name())).is_file());
    }
    assert!(report.setup_s.median() > 0.0);
    // The lines the driver reads carry exactly the catalogued names.
    let wanted: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names_in(&report.driver_line(false)), wanted);
    assert_eq!(names_in(&report.driver_line(true)).len(), PER_LAYER.len());
    // tiny_closed is one request at a time: every batch is a lone
    // request released by the deadline, and all of it is checkable.
    let tiny = &report.workloads[2];
    assert!(tiny.layer("admission.occupancy_mean") < 1.5);
    assert!(tiny.layer("client.verified_share") > 0.9);

    // Socket file gone, child reaped: no process still holds our socket.
    let socket = out_dir.join("serve.sock");
    assert!(!socket.exists());
    let needle = socket.to_string_lossy().into_owned();
    for entry in std::fs::read_dir("/proc").expect("/proc is readable").flatten() {
        let cmdline = std::fs::read(entry.path().join("cmdline")).unwrap_or_default();
        assert!(
            !String::from_utf8_lossy(&cmdline).contains(&needle),
            "a server child survived: {:?}",
            entry.path()
        );
    }
}
