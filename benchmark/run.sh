#!/usr/bin/env bash
# The one command: build the program and the harness from source, then run.
#
#   benchmark/run.sh                       full interleaved set + traced replica run,
#                                          table on stdout, benchmark/out/result.json
#   benchmark/run.sh --quick               the same in a few seconds (smoke, not a measurement)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one workload; last stdout line is the JSON result
#   benchmark/run.sh --compare [A.json] B.json
#
# Builds go to $CARGO_TARGET_DIR when set (both workspaces share it), else to
# target/ and benchmark/target/. Build time is never part of setup_s.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# --manifest-path keeps cargo from adopting a Cargo.toml of some parent
# directory when this one is missing: no repo, no run.
cargo build --release --offline --manifest-path Cargo.toml --bin laab >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/laab-benchmark" \
    --server "${CARGO_TARGET_DIR:-target}/release/laab" "$@"
