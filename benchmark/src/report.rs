//! The metric catalogue — the one list `BENCHMARK.json`, the result
//! files, the table and `--compare` all agree on — and the report built
//! from a run.

use serde_json::Value;

use crate::host::Fingerprint;
use crate::measure::{Measured, Protocol, Window};
use crate::replica::Replica;
use crate::stats::OverRounds;
use crate::workloads::Workload;

/// An end-to-end metric: what a user of the server sees, with the share
/// of the baseline's median by which it may worsen.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// Regression bound, a share of the baseline median.
    pub bound: f64,
}

/// The gated metrics. `failed_share` is gated too (any increase is a
/// regression) but lives beside them as a count, because it is 0 on
/// every healthy run and a share of 0 bounds nothing.
///
/// The bounds are what this class of host can resolve, not what one
/// would like: on the shared 2-vCPU VM the benchmark was sized on, the
/// speed of a core drifts by tens of percent over tens of seconds (see
/// README, "Known limits"), and a tighter bound would reject on noise.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "throughput_rps", unit: "req/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "rtt_p50_us", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "cpu_us_per_req", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
];

/// Per-layer metrics `(name, unit)`: the first twelve come from the
/// response frames and `/proc` of the socket run, the rest from the
/// traced replica run. None is gated.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("admission.queue_wait_p50_us", "us"),
    ("admission.occupancy_mean", "req/batch"),
    ("admission.flush_deadline_share", "ratio"),
    ("admission.flush_occupancy_share", "ratio"),
    ("admission.flush_pressure_share", "ratio"),
    ("server.exec_p50_us", "us"),
    ("server.unattributed_p50_us", "us"),
    ("client.rtt_p90_us", "us"),
    ("client.rtt_p99_us", "us"),
    ("client.verified_share", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.yardstick_gflops", "GFLOP/s"),
    ("proto.encode_request_ns", "ns"),
    ("proto.decode_request_ns", "ns"),
    ("proto.encode_response_ns", "ns"),
    ("proto.decode_response_ns", "ns"),
    ("proto.checksum_us", "us"),
    ("signature.build_ns", "ns"),
    ("admission.submit_next_ns", "ns"),
    ("cache.hit_ns", "ns"),
    ("cache.miss_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("plan.compile_us", "us"),
    ("plan.compile_egraph_us", "us"),
    ("framework.trace_optimize_us", "us"),
    ("rewrite.egraph_optimize_us", "us"),
    ("graph.schedule_us", "us"),
    ("graph.batch_analysis_us", "us"),
    ("graph.nodes_per_plan", "count"),
    ("workload.env_bind_us", "us"),
    ("dense.pool_build_us", "us"),
    ("plan.execute_solo_us", "us"),
    ("plan.execute_batched4_us_per_req", "us"),
    ("plan.execute_batched8_us_per_req", "us"),
    ("plan.batched_speedup", "ratio"),
    ("kernels.gemm_f64_gflops", "GFLOP/s"),
    ("kernels.gemm_f32_gflops", "GFLOP/s"),
    ("kernels.multi_rhs_f64_gflops", "GFLOP/s"),
    ("kernels.gemv_f64_gflops", "GFLOP/s"),
    ("kernels.flops_per_req", "count"),
    ("kernels.calls_per_req", "count"),
    ("trace.stage_sum_us", "us"),
    ("trace.coverage", "ratio"),
];

/// Schema tag of result files.
pub const SCHEMA: &str = "laab-benchmark-v1";

/// The catalogued unit of a metric (`""` for an uncatalogued name).
fn unit(name: &str) -> &'static str {
    let end_to_end = END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit);
    let per_layer = || PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u);
    end_to_end.or_else(per_layer).unwrap_or("")
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// One workload's numbers.
pub struct WorkloadReport {
    /// Which workload.
    pub workload: Workload,
    /// Operations inside measured windows.
    pub attempted: u64,
    /// Of those, answered `Ok` (and, where checkable, bitwise correct).
    pub ok: u64,
    /// `attempted − ok`.
    pub failed: u64,
    /// The per-workload end-to-end metrics (all of [`END_TO_END`] except
    /// `setup_s`), each over the rounds.
    pub end_to_end: Vec<(&'static str, OverRounds)>,
    /// Per-layer values by name: the wire-derived ones always, the
    /// replica-derived ones once [`WorkloadReport::add_replica`] ran.
    pub per_layer: Vec<(&'static str, f64)>,
}

impl WorkloadReport {
    /// Reduce a workload's windows.
    pub fn from_windows(workload: Workload, windows: &[Window]) -> WorkloadReport {
        let over =
            |f: &dyn Fn(&Window) -> f64| OverRounds { rounds: windows.iter().map(f).collect() };
        let mid = |f: &dyn Fn(&Window) -> f64| over(f).median();
        let ok: u64 = windows.iter().map(|w| w.round.ok).sum();
        let failed: u64 = windows.iter().map(|w| w.round.failed).sum();
        let verified: u64 = windows.iter().map(|w| w.round.verified).sum();
        let per_layer = vec![
            ("admission.queue_wait_p50_us", mid(&|w| w.round.queue_p50_us)),
            ("admission.occupancy_mean", mid(&|w| w.round.occupancy_mean)),
            ("admission.flush_deadline_share", mid(&|w| w.round.flush_shares[0])),
            ("admission.flush_occupancy_share", mid(&|w| w.round.flush_shares[1])),
            ("admission.flush_pressure_share", mid(&|w| w.round.flush_shares[2])),
            ("server.exec_p50_us", mid(&|w| w.round.exec_p50_us)),
            ("server.unattributed_p50_us", mid(&|w| w.round.unattributed_p50_us)),
            ("client.rtt_p90_us", mid(&|w| w.round.rtt_us[1])),
            ("client.rtt_p99_us", mid(&|w| w.round.rtt_us[2])),
            ("client.verified_share", verified as f64 / ok.max(1) as f64),
            ("host.steal_share", mid(&|w| w.steal_share)),
            ("host.yardstick_gflops", mid(&|w| w.yardstick_gflops)),
        ];
        WorkloadReport {
            workload,
            attempted: ok + failed,
            ok,
            failed,
            end_to_end: vec![
                ("throughput_rps", over(&|w| w.round.ok as f64 / w.round.seconds)),
                ("rtt_p50_us", over(&|w| w.round.rtt_us[0])),
                ("cpu_us_per_req", over(&|w| w.cpu_ns as f64 / 1e3 / w.round.served.max(1) as f64)),
            ],
            per_layer,
        }
    }

    /// The median over rounds of an end-to-end metric.
    pub fn end_to_end(&self, name: &str) -> f64 {
        self.end_to_end.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, r)| r.median())
    }

    /// A per-layer value by name.
    pub fn layer(&self, name: &str) -> f64 {
        self.per_layer.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }

    /// Add the replica-derived per-layer metrics. `trace.coverage` sets
    /// the replica's stage sum plus the wire's queue wait against the
    /// wire's median round trip: what of a request's latency the stages
    /// the harness can see account for.
    pub fn add_replica(&mut self, r: &Replica) {
        let ns = |stage: &str| r.stages.typical_ns(stage);
        let us = |stage: &str| ns(stage) / 1e3;
        let stage_sum_us = us("request") + self.layer("admission.queue_wait_p50_us");
        let batched8 = us("plan.execute_batched8");
        let rtt_p50_us = self.end_to_end("rtt_p50_us");
        self.per_layer.extend([
            ("proto.encode_request_ns", ns("proto.encode_request")),
            ("proto.decode_request_ns", ns("proto.decode_request")),
            ("proto.encode_response_ns", ns("proto.encode_response")),
            ("proto.decode_response_ns", ns("proto.decode_response")),
            ("proto.checksum_us", us("proto.checksum")),
            ("signature.build_ns", ns("signature.build")),
            ("admission.submit_next_ns", ns("admission.submit_next")),
            ("cache.hit_ns", ns("cache.hit")),
            ("cache.miss_us", us("cache.miss")),
            ("cache.hit_rate", r.hit_rate),
            ("plan.compile_us", us("plan.compile")),
            ("plan.compile_egraph_us", us("plan.compile_egraph")),
            ("framework.trace_optimize_us", us("framework.trace_optimize")),
            ("rewrite.egraph_optimize_us", us("rewrite.egraph_optimize")),
            ("graph.schedule_us", us("graph.schedule")),
            ("graph.batch_analysis_us", us("graph.batch_analysis")),
            ("graph.nodes_per_plan", ns("graph.nodes")),
            ("workload.env_bind_us", us("workload.env_bind")),
            ("dense.pool_build_us", us("dense.pool_build")),
            ("plan.execute_solo_us", us("plan.execute_solo")),
            ("plan.execute_batched4_us_per_req", us("plan.execute_batched4")),
            ("plan.execute_batched8_us_per_req", batched8),
            (
                "plan.batched_speedup",
                if batched8 > 0.0 { us("plan.execute_solo_ref") / batched8 } else { 0.0 },
            ),
            ("kernels.gemm_f64_gflops", r.kernel_gflops[0]),
            ("kernels.gemm_f32_gflops", r.kernel_gflops[1]),
            ("kernels.multi_rhs_f64_gflops", r.kernel_gflops[2]),
            ("kernels.gemv_f64_gflops", r.kernel_gflops[3]),
            ("kernels.flops_per_req", ns("kernels.flops")),
            ("kernels.calls_per_req", ns("kernels.calls")),
            ("trace.stage_sum_us", stage_sum_us),
            ("trace.coverage", stage_sum_us / rtt_p50_us.max(f64::MIN_POSITIVE)),
        ]);
    }
}

/// A whole run: host, protocol, set-up, every workload.
pub struct Report {
    /// Where it ran.
    pub host: Fingerprint,
    /// The `--seed`.
    pub seed: u64,
    /// How the time was laid out.
    pub protocol: Protocol,
    /// Set-up seconds per start-up.
    pub setup_s: OverRounds,
    /// Per workload, in run order.
    pub workloads: Vec<WorkloadReport>,
    /// Failed checks (preflight, hit-rate expectations); empty = correct.
    pub problems: Vec<String>,
}

impl Report {
    /// Build from a socket run.
    pub fn new(host: Fingerprint, seed: u64, protocol: Protocol, measured: &Measured) -> Report {
        Report {
            host,
            seed,
            protocol,
            setup_s: OverRounds { rounds: measured.setup_s.clone() },
            workloads: measured
                .windows
                .iter()
                .map(|(w, windows)| WorkloadReport::from_windows(*w, windows))
                .collect(),
            problems: Vec::new(),
        }
    }

    /// No failed operation and no failed check.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.workloads.iter().all(|w| w.failed == 0)
    }

    /// The table: every metric by name with its unit.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let p = &self.protocol;
        let _ = writeln!(
            out,
            "laab benchmark — seed {}, {} rounds x {:.2} s measured ({:.2} s ramp), {} start-ups\n\
             host: {}, {} cpus, {}, commit {}",
            self.seed,
            p.rounds(),
            p.window.as_secs_f64(),
            p.ramp.as_secs_f64(),
            p.lifetimes,
            self.host.cpu_model,
            self.host.nproc,
            self.host.rustc,
            self.host.git_commit,
        );
        let row = |out: &mut String, name: &str, unit: &str, r: &OverRounds| {
            let _ = writeln!(
                out,
                "  {name:<34} {:>14.4} {unit:<9} (min {:.4}, max {:.4}, n={})",
                r.median(),
                r.min(),
                r.max(),
                r.rounds.len()
            );
        };
        let _ = writeln!(out, "\nset-up (median of start-ups)");
        row(&mut out, "setup_s", "s", &self.setup_s);
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "\n{} — attempted {}, ok {}, failed {}, failed_share {:.6}",
                w.workload.name(),
                w.attempted,
                w.ok,
                w.failed,
                w.failed as f64 / w.attempted.max(1) as f64
            );
            for (name, rounds) in &w.end_to_end {
                row(&mut out, name, unit(name), rounds);
            }
            for (name, value) in &w.per_layer {
                let _ = writeln!(out, "  {name:<34} {value:>14.4} {}", unit(name));
            }
        }
        for problem in &self.problems {
            let _ = writeln!(out, "\nFAILED CHECK: {problem}");
        }
        out
    }

    /// The result file.
    pub fn to_json(&self) -> Value {
        let text = |s: &str| Value::String(s.to_string());
        let int = |n: u64| Value::Int(i128::from(n));
        let rounds = |unit: &str, r: &OverRounds| {
            obj(vec![
                ("unit", text(unit)),
                ("median", Value::Number(r.median())),
                ("min", Value::Number(r.min())),
                ("max", Value::Number(r.max())),
                ("rounds", Value::Array(r.rounds.iter().map(|&v| Value::Number(v)).collect())),
            ])
        };
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let end_to_end = w
                    .end_to_end
                    .iter()
                    .map(|(name, r)| (name.to_string(), rounds(unit(name), r)))
                    .collect();
                let per_layer = w
                    .per_layer
                    .iter()
                    .map(|(name, value)| {
                        let entry =
                            obj(vec![("unit", text(unit(name))), ("value", Value::Number(*value))]);
                        (name.to_string(), entry)
                    })
                    .collect();
                let body = obj(vec![
                    ("attempted", int(w.attempted)),
                    ("ok", int(w.ok)),
                    ("failed", int(w.failed)),
                    ("end_to_end", Value::Object(end_to_end)),
                    ("per_layer", Value::Object(per_layer)),
                ]);
                (w.workload.name().to_string(), body)
            })
            .collect();
        obj(vec![
            ("schema", text(SCHEMA)),
            (
                "host",
                obj(vec![
                    ("cpu_model", text(&self.host.cpu_model)),
                    ("nproc", int(self.host.nproc as u64)),
                    ("rustc", text(&self.host.rustc)),
                    ("git_commit", text(&self.host.git_commit)),
                    ("seed", int(self.seed)),
                ]),
            ),
            (
                "protocol",
                obj(vec![
                    ("rounds", int(self.protocol.rounds() as u64)),
                    ("start_ups", int(self.protocol.lifetimes as u64)),
                    ("ramp_s", Value::Number(self.protocol.ramp.as_secs_f64())),
                    ("window_s", Value::Number(self.protocol.window.as_secs_f64())),
                ]),
            ),
            ("correct", Value::Bool(self.correct())),
            ("problems", Value::Array(self.problems.iter().map(|p| text(p)).collect())),
            ("setup_s", rounds("s", &self.setup_s)),
            ("workloads", Value::Object(workloads)),
        ])
    }

    /// The one-line result the driver reads for a single-workload run:
    /// with `trace` the per-layer metrics, without it the end-to-end ones.
    pub fn driver_line(&self, trace: bool) -> String {
        let w = &self.workloads[0];
        let metric = |name: &str, unit: &str, value: f64| {
            let entry = obj(vec![
                ("value", Value::Number(value)),
                ("unit", Value::String(unit.to_string())),
            ]);
            (name.to_string(), entry)
        };
        let metrics = if trace {
            PER_LAYER.iter().map(|(name, unit)| metric(name, unit, w.layer(name))).collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = if m.name == "setup_s" {
                        self.setup_s.median()
                    } else {
                        w.end_to_end(m.name)
                    };
                    metric(m.name, m.unit, value)
                })
                .collect()
        };
        let line = obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(i128::from(w.attempted.max(1)))),
            ("failed", Value::Int(i128::from(w.failed))),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree always serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn entries(doc: &Value, key: &str) -> Vec<Value> {
        doc.get(key).and_then(Value::as_array).cloned().unwrap_or_default()
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or_default()
    }

    #[test]
    fn catalogue_and_benchmark_json_name_the_same_metrics_both_ways() {
        let doc = benchmark_json();
        let declared: Vec<(String, String, bool, f64)> = entries(&doc, "end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(f64::NAN);
                (
                    text(m, "name").into(),
                    text(m, "unit").into(),
                    text(m, "better") == "higher",
                    bound,
                )
            })
            .collect();
        let catalogued: Vec<(String, String, bool, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.higher_is_better, m.bound))
            .collect();
        assert_eq!(declared, catalogued);

        let declared: Vec<(String, String)> = entries(&doc, "per_layer")
            .iter()
            .map(|m| (text(m, "name").into(), text(m, "unit").into()))
            .collect();
        let catalogued: Vec<(String, String)> =
            PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared, catalogued);
        let unique: BTreeSet<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(unique.len(), PER_LAYER.len(), "a name is used once");
    }

    #[test]
    fn a_traced_report_emits_every_catalogued_metric_once_and_in_order() {
        use crate::client::Round;
        use crate::trace::StageSamples;
        let window = Window {
            round: Round { seconds: 1.0, ok: 10, served: 10, ..Round::default() },
            cpu_ns: 1_000,
            steal_share: 0.0,
            yardstick_gflops: 1.0,
        };
        let mut w = WorkloadReport::from_windows(Workload::TinyClosed, &[window]);
        w.add_replica(&Replica {
            stages: StageSamples::default(),
            misses: 0,
            hit_rate: 1.0,
            kernel_gflops: [1.0; 4],
        });
        let emitted: Vec<&str> = w.per_layer.iter().map(|(n, _)| *n).collect();
        let catalogued: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(emitted, catalogued);
        let gated: Vec<&str> = w.end_to_end.iter().map(|(n, _)| *n).collect();
        assert_eq!(gated, ["throughput_rps", "rtt_p50_us", "cpu_us_per_req"]);
        assert_eq!(w.end_to_end("throughput_rps"), 10.0);
        assert_eq!(unit("trace.coverage"), "ratio");
        assert_eq!(unit("setup_s"), "s");
    }

    #[test]
    fn benchmark_json_names_the_four_workloads_and_this_directory() {
        let doc = benchmark_json();
        let declared: Vec<String> =
            entries(&doc, "workloads").iter().map(|w| text(w, "name").to_string()).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, ours);
        let paths: Vec<String> =
            entries(&doc, "paths").iter().filter_map(|p| p.as_str().map(str::to_string)).collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
