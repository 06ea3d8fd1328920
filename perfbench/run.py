#!/usr/bin/env python3
"""Build and run the exact-solve benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload exact-wide --seed 1 --seconds 20 --trace 0

builds the benchmark package in ``perfbench/`` (release profile, offline,
into ``$CARGO_TARGET_DIR`` or ``.bench_build``), runs one workload in one
process and passes its output through. The last line of stdout is the JSON
result. With ``--trace 1`` the spans of the traced replay are written to
``perfbench-spans/<workload>.jsonl`` under the target directory.

Steadiness mode:

    python3 perfbench/run.py --steady [--workload W ...] [--seeds 10]
                             [--first-seed 1] [--seconds 20] [--trace 0]

runs each workload once per seed and prints, for every metric, the median,
the quartiles and the spread (interquartile range / median) next to the
bound BENCHMARK.json sets. The bounds are chosen from this output.

Run both from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
WORKLOADS = ["exact-wide", "exact-narrow", "service-stream"]


def target_dir():
    return Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or CHECKOUT / ".bench_build"))


def build():
    """Builds the benchmark binary; cargo's output goes to stderr."""
    target = target_dir()
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"building the benchmark failed (cargo exited {result.returncode})")
    return target / "release" / "solvebench"


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs one workload; returns (exit code, parsed result line or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        # One file per workload, overwritten by the next traced run: a
        # traced exact-narrow run writes about 100 MB of spans.
        spans = target_dir() / "perfbench-spans" / f"{workload}.jsonl"
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def bounds():
    try:
        spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steady(args):
    binary = build()
    limits = bounds()
    workloads = args.workload or WORKLOADS
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    worst_ok = True
    for workload in workloads:
        values = {}
        units = {}
        for seed in seeds:
            code, result = run_once(binary, workload, seed, args.seconds, args.trace, False)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {code})")
                worst_ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in limits or not limits), flush=True)
        print(f"\n{workload}: {len(seeds)} seeds, {args.seconds} s each, trace {args.trace}")
        print(f"  {'metric':<40} {'unit':>7} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = limits.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  above bound/3"
                worst_ok = False
            bound_text = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"  {name:<40} {units[name]:>7} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.4f} {bound_text}{flag}")
        print()
    return 0 if worst_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", action="store_true",
                        help="run each workload over several seeds and report spreads")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    if args.steady:
        return steady(args)
    if not args.workload or len(args.workload) != 1 or args.seed is None:
        parser.error("a single run needs one --workload and a --seed")
    seconds = int(args.seconds) if float(args.seconds).is_integer() else args.seconds
    binary = build()
    code, _ = run_once(binary, args.workload[0], args.seed, seconds, args.trace, True)
    return code


if __name__ == "__main__":
    sys.exit(main())
