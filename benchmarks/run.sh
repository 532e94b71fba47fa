#!/usr/bin/env bash
# The benchmark's one command. Builds the release `strata` binary from the
# repository root and the `strata-perf` harness from this directory into
# one shared target directory, then runs the harness.
#
#   benchmarks/run.sh                      every workload, then the traced run
#   benchmarks/run.sh run|trace|compare …  one harness command (see README.md)
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one measured run ending in a one-line
#                                          JSON result (what BENCHMARK.json names)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="$(realpath -m "${CARGO_TARGET_DIR:-$root/target}")"

# The harness measures the root package's binary: without it there is
# nothing to benchmark.
[ -f "$root/Cargo.toml" ] || { echo "run.sh: no Cargo.toml in $root: not a strata-lab checkout" >&2; exit 1; }

# Build output goes to stderr: stdout belongs to the harness's report.
cargo build --release --offline --manifest-path "$root/Cargo.toml" --bin strata --target-dir "$target" >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

case "${1:-}" in
  "") set -- all ;;
  --*) set -- bench "$@" ;;
esac
exec "$target/release/strata-perf" "$@" --root "$root" --strata "$target/release/strata"
