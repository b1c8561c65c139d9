//! The registry of machine-readable benchmark reports this workspace
//! emits.
//!
//! Two harnesses produce `BENCH_*.json` artifacts that CI uploads per
//! PR; perf-trajectory tooling (and humans) discover them here instead of
//! grepping workflows. Each entry names the report's schema tag, the
//! artifact CI uploads, and the CLI invocation that regenerates it.
//! Crates owning a schema assert their tag against this table in tests,
//! so the registry cannot silently drift.

use crate::runner::REPORT_SCHEMA;

/// One machine-readable benchmark report format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchSpec {
    /// Registry name (matches the CLI subcommand).
    pub name: &'static str,
    /// Schema tag embedded in every document of this format.
    pub schema: &'static str,
    /// The artifact filename CI uploads.
    pub artifact: &'static str,
    /// CLI invocation that regenerates the artifact.
    pub command: &'static str,
    /// What the report measures.
    pub description: &'static str,
}

/// Schema tag of `laab loadgen`'s client-side report. Mirrored here
/// (rather than imported) because `laab-core` sits below `laab-serve` in
/// the crate graph; `laab-serve`'s tests hold the pair equal. `v4`: trace
/// replay is gone — no `replay:<file>` arrivals, no `replay_source`, no
/// per-run gap percentiles. (`v3` had added them; `v2` added per-run
/// rejection classes (`busy`/`expired`/`failed`), retry counts,
/// pressure flushes, and offered-vs-goodput rates on top of v1's RTT
/// percentiles, queue delay, and bitwise mismatch count.)
pub const LOADGEN_SCHEMA: &str = "laab-loadgen-v4";

/// Every benchmark report format, in CLI order.
pub const BENCHES: [BenchSpec; 2] = [
    BenchSpec {
        name: "run",
        schema: REPORT_SCHEMA,
        artifact: "BENCH_smoke.json",
        command: "laab run --quick --json --out BENCH_smoke.json",
        description: "paper experiments: timing tables, kernel counts, finding checks",
    },
    BenchSpec {
        name: "loadgen",
        schema: LOADGEN_SCHEMA,
        artifact: "BENCH_loadgen.json",
        command: "laab loadgen --addr unix:/tmp/laab.sock --smoke --out BENCH_loadgen.json",
        description:
            "client-side serving latency over the socket: RTT p50/p99, queue delay, bitwise check",
    },
];

/// Look up a report format by registry name.
pub fn find(name: &str) -> Option<&'static BenchSpec> {
    BENCHES.iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for spec in &BENCHES {
            let found = find(spec.name).expect("every entry resolves");
            assert_eq!(found, spec);
            assert!(spec.schema.starts_with("laab-"), "schema tag convention");
            assert!(spec.artifact.starts_with("BENCH_") && spec.artifact.ends_with(".json"));
            assert!(spec.command.contains(spec.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn registry_matches_the_owning_crates() {
        assert_eq!(find("run").unwrap().schema, REPORT_SCHEMA);
        // laab-serve's own test asserts LOADGEN_SCHEMA ==
        // LOADGEN_REPORT_SCHEMA (the dependency points the other way).
    }
}
