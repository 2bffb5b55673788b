#!/usr/bin/env bash
# The repo's benchmark, one command. Builds the release `ringmesh`
# binary and the harness, then hands every argument to the harness:
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--traced] [--runs N]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --bless | --smoke | --help
#
# See benchmark/README.md. Exits non-zero only when the build or the
# harness itself fails; a failed correctness check is a result
# (`failure_rate`), not an error.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
# A relative CARGO_TARGET_DIR means relative to the root of the repo.
cd "$root"

# Ambient settings must not reach a measurement.
unset RINGMESH_THREADS RINGMESH_KERNEL_THREADS RINGMESH_FULL

# A run that was killed cannot clean up after itself; this one can.
trap 'rm -rf "$bench"/out/cache-*' EXIT

cargo build --release --offline --quiet --package ringmesh-suite --bin ringmesh
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml"

"${CARGO_TARGET_DIR:-$bench/target}/release/ringmesh-benchmark" \
    --ringmesh-bin "${CARGO_TARGET_DIR:-$root/target}/release/ringmesh" "$@"
