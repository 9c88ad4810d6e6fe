#!/usr/bin/env bash
# The benchmark's own gate: format, lints, unit tests (oracles,
# percentile rule, span self-time, manifest and README in step with the
# tables), then every workload at 1/16 size with its oracle on.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet
./run.sh --smoke
