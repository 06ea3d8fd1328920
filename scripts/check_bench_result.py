#!/usr/bin/env python3
"""Checks one solvebench result line against BENCHMARK.json.

Usage: scripts/check_bench_result.py RESULT_FILE end_to_end|per_layer

RESULT_FILE holds the last stdout line of one `solvebench` run. The check
passes when that line is a JSON object with "correct": true, "failed": 0
and metric names equal to BENCHMARK.json's list under the given key:
`end_to_end` for an untraced run, `per_layer` for a traced one.
BENCHMARK.json is only read.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def problems(result, expected):
    if not isinstance(result, dict):
        return ["the last line is not a JSON object"]
    found = []
    if result.get("correct") is not True:
        found.append(f'"correct" is {result.get("correct")!r}, not true')
    if result.get("failed") != 0:
        found.append(f'"failed" is {result.get("failed")!r}, not 0')
    metrics = result.get("metrics")
    names = set(metrics) if isinstance(metrics, dict) else set()
    missing = sorted(set(expected) - names)
    extra = sorted(names - set(expected))
    if missing:
        found.append("missing metrics: " + ", ".join(missing))
    if extra:
        found.append("metrics BENCHMARK.json does not list: " + ", ".join(extra))
    return found


def main():
    if len(sys.argv) != 3 or sys.argv[2] not in ("end_to_end", "per_layer"):
        sys.exit(__doc__)
    path, key = sys.argv[1], sys.argv[2]
    expected = [m["name"] for m in json.loads(BENCHMARK.read_text())[key]]
    try:
        result = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"{path}: no JSON result ({err})")
    found = problems(result, expected)
    if found:
        sys.exit(f"{path}: " + "; ".join(found))
    print(f"{path}: correct, 0 failed, the {len(expected)} {key} metrics")


if __name__ == "__main__":
    main()
