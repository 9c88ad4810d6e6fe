#!/usr/bin/env bash
# Build gbench (release, offline, in its own workspace) and run it from
# the repo root. Usage — see README.md:
#   benchmark/run.sh [SEED]             every workload, untraced pass
#   benchmark/run.sh --trace [SEED]     every workload, per-layer pass
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --selfcheck | --spread | --smoke | --manifest | --glossary
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Either variable would make every session write or print on its own.
unset GAMMAFLOW_TRACE GAMMAFLOW_EXPLAIN_PLAN
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
GBENCH_RUSTC="$(rustc --version)"
GBENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export GBENCH_RUSTC GBENCH_GIT_SHA
exec "$target/release/gbench" "$@"
