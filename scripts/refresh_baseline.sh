#!/usr/bin/env bash
# Regenerates BENCH_baseline.json — the committed reference of the
# bench-smoke perf gate — by running the frozen smoke workload (best of 3)
# on this machine. The procedure is documented in docs/BENCHMARKING.md:
# the nodes/sec figures are machine-dependent, so only commit a refresh
# taken on the hardware class CI runs on (or after an intentional perf
# change on that class). CI exposes this as the manual `refresh-baseline`
# workflow_dispatch job, which uploads the candidate as an artifact.
#
# Usage: scripts/refresh_baseline.sh [output-path]   (default: BENCH_baseline.json)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_baseline.json}"

cargo build --release -p bench --bin solve_taillard
./target/release/solve_taillard --smoke --json "$out" >/dev/null

echo "wrote $out:"
grep -E '"(backend|devices|lookahead|pool_size|nodes_per_sec)"' "$out" | sed 's/^ */  /'
echo "review the figures, then commit $out (reference hardware only — see docs/BENCHMARKING.md)"
