#!/usr/bin/env bash
# Docs-drift check: the command-line flags advertised by
# `solve_taillard --help` and the "Command-line flags" table in
# docs/BENCHMARKING.md must agree exactly. CI runs this script; it fails
# (with a diff) when a flag is added, renamed or removed on one side only.
#
# Usage: scripts/check_docs_drift.sh [path-to-solve_taillard]
#        (default: builds and uses target/release/solve_taillard)
set -euo pipefail
cd "$(dirname "$0")/.."

bin="${1:-target/release/solve_taillard}"
if [ ! -x "$bin" ]; then
    cargo build --release -q -p bench --bin solve_taillard
    bin=target/release/solve_taillard
fi

# Every `--flag` token in the help text, deduplicated.
help_flags="$("$bin" --help | grep -oE '\-\-[a-z][a-z-]*' | sort -u)"
# Every `--flag` leading a row of the docs table (rows look like
# "| `--flag` | meaning |").
doc_flags="$(grep -oE '^\| `--[a-z][a-z-]*`' docs/BENCHMARKING.md \
    | grep -oE '\-\-[a-z][a-z-]*' | sort -u)"

if ! diff -u \
    --label 'solve_taillard --help' \
    --label 'docs/BENCHMARKING.md flags table' \
    <(printf '%s\n' "$help_flags") <(printf '%s\n' "$doc_flags"); then
    echo >&2
    echo "docs drift: the flags table in docs/BENCHMARKING.md disagrees with" >&2
    echo "solve_taillard --help — update both sides together." >&2
    exit 1
fi

count="$(printf '%s\n' "$help_flags" | wc -l | tr -d ' ')"
echo "docs drift: ok — $count flags agree between --help and docs/BENCHMARKING.md"

# Schema-version drift: the newest perf-report schema tag the binary's
# source emits and the newest one docs/BENCHMARKING.md documents must be
# the same version — a schema bump that forgets the docs (or vice versa)
# fails here.
emitter_schema="$(grep -oE 'flowshop-bnb-perf-report/v[0-9]+' \
    crates/bench/src/bin/solve_taillard.rs | sort -uV | tail -1)"
docs_schema="$(grep -oE 'flowshop-bnb-perf-report/v[0-9]+' \
    docs/BENCHMARKING.md | sort -uV | tail -1)"
if [ "$emitter_schema" != "$docs_schema" ]; then
    echo "docs drift: report schema disagrees — the emitter writes" >&2
    echo "\`$emitter_schema\` but docs/BENCHMARKING.md documents \`$docs_schema\`." >&2
    exit 1
fi
echo "docs drift: ok — report schema $emitter_schema agrees between emitter and docs"

# Same for the checkpoint schema (emitted by gpu_bnb::checkpoint, documented
# in docs/BENCHMARKING.md's checkpoint/resume section).
ckpt_schema="$(grep -oE 'flowshop-bnb-checkpoint/v[0-9]+' \
    crates/core/src/checkpoint.rs | sort -uV | tail -1)"
ckpt_docs="$(grep -oE 'flowshop-bnb-checkpoint/v[0-9]+' \
    docs/BENCHMARKING.md | sort -uV | tail -1)"
if [ "$ckpt_schema" != "$ckpt_docs" ]; then
    echo "docs drift: checkpoint schema disagrees — gpu_bnb::checkpoint writes" >&2
    echo "\`$ckpt_schema\` but docs/BENCHMARKING.md documents \`${ckpt_docs:-nothing}\`." >&2
    exit 1
fi
echo "docs drift: ok — checkpoint schema $ckpt_schema agrees between emitter and docs"

# Cache-counter drift: the three v9 cache cost counters priced by
# `gpu_bnb::cost` must be named in both the caching guide and the
# benchmarking guide — a renamed or added counter that forgets the docs
# fails here.
for counter in cache_hits cache_warm_starts cache_invalidated_nodes; do
    if ! grep -q "$counter" crates/core/src/cost.rs; then
        echo "docs drift: counter \`$counter\` not found in crates/core/src/cost.rs" >&2
        exit 1
    fi
    for doc in docs/CACHING.md docs/BENCHMARKING.md; do
        if ! grep -q "$counter" "$doc"; then
            echo "docs drift: cost counter \`$counter\` is priced by gpu_bnb::cost" >&2
            echo "but not documented in $doc." >&2
            exit 1
        fi
    done
done
echo "docs drift: ok — the three cache counters are named in docs/CACHING.md and docs/BENCHMARKING.md"
