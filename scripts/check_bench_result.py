#!/usr/bin/env python3
"""Checks one solvebench result line against BENCHMARK.json.

Usage: scripts/check_bench_result.py RESULT_FILE end_to_end|per_layer
                                     [--max NAME=VALUE ...]

RESULT_FILE holds the last stdout line of one `solvebench` run. The check
passes when that line is a JSON object with "correct": true, "failed": 0
and metric names equal to BENCHMARK.json's list under the given key:
`end_to_end` for an untraced run, `per_layer` for a traced one.
BENCHMARK.json is only read.

Each `--max NAME=VALUE` is a ceiling: the check also fails when metric
NAME has no numeric value or its value is above VALUE (e.g.
`--max peak_rss_mib=30`).
"""

import argparse
import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def problems(result, expected, ceilings):
    if not isinstance(result, dict):
        return ["the last line is not a JSON object"]
    found = []
    if result.get("correct") is not True:
        found.append(f'"correct" is {result.get("correct")!r}, not true')
    if result.get("failed") != 0:
        found.append(f'"failed" is {result.get("failed")!r}, not 0')
    metrics = result.get("metrics")
    metrics = metrics if isinstance(metrics, dict) else {}
    names = set(metrics)
    missing = sorted(set(expected) - names)
    extra = sorted(names - set(expected))
    if missing:
        found.append("missing metrics: " + ", ".join(missing))
    if extra:
        found.append("metrics BENCHMARK.json does not list: " + ", ".join(extra))
    for name, limit in ceilings:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name} has no numeric value to check against its ceiling {limit:g}")
        elif value > limit:
            found.append(f"{name} is {value:g}, above its ceiling {limit:g}")
    return found


def ceiling(arg):
    """Parses one `NAME=VALUE` ceiling."""
    name, _, value = arg.partition("=")
    try:
        limit = float(value)
    except ValueError:
        limit = math.nan
    if not name or not math.isfinite(limit):
        raise argparse.ArgumentTypeError(f"{arg!r} is not NAME=VALUE with a finite VALUE")
    return name, limit


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("result", help="file holding the last stdout line of one run")
    parser.add_argument("key", choices=["end_to_end", "per_layer"])
    parser.add_argument(
        "--max", action="append", default=[], type=ceiling, metavar="NAME=VALUE",
        dest="ceilings", help="fail when metric NAME reads above VALUE",
    )
    args = parser.parse_args()
    path, key, ceilings = args.result, args.key, args.ceilings
    expected = [m["name"] for m in json.loads(BENCHMARK.read_text())[key]]
    try:
        result = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"{path}: no JSON result ({err})")
    found = problems(result, expected, ceilings)
    if found:
        sys.exit(f"{path}: " + "; ".join(found))
    within = "".join(f", {name} ≤ {limit:g}" for name, limit in ceilings)
    print(f"{path}: correct, 0 failed, the {len(expected)} {key} metrics{within}")


if __name__ == "__main__":
    main()
