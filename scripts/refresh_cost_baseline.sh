#!/usr/bin/env bash
# Regenerates BENCH_cost_baseline.json — the committed reference of the
# blocking `cost-gate` CI job. Unlike the wall-clock baseline, every figure
# in this file is a deterministic counter (a pure function of the frozen
# smoke workload and the cost model), so the file is bit-identical across
# machines: refresh it on ANY machine whenever a commit intentionally
# changes the modelled work, and commit the result with that change.
# The gate compares with exact equality — see docs/BENCHMARKING.md.
#
# Usage: scripts/refresh_cost_baseline.sh [output-path]
#        (default: BENCH_cost_baseline.json)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_cost_baseline.json}"

cargo build --release -p bench --bin solve_taillard
# The seven standalone smoke rows, the four per-job service rows and the
# four per-request cache rows — the same command the cost-gate CI job runs.
./target/release/solve_taillard --smoke --service --cache --jobs 4 \
    --emit-cost-baseline "$out" >/dev/null

# Determinism self-check: a second run must reproduce the file byte for
# byte. If it does not, the counters picked up a nondeterministic input —
# fix that before committing anything.
second="$(mktemp)"
trap 'rm -f "$second"' EXIT
./target/release/solve_taillard --smoke --service --cache --jobs 4 \
    --emit-cost-baseline "$second" >/dev/null
cmp "$out" "$second"

echo "wrote $out (bit-identical across two runs):"
grep -E '"(backend|devices|lookahead|job|pool_size)"' "$out" | sed 's/^ */  /'
echo "commit $out together with the change that moved the counters"
