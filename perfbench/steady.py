#!/usr/bin/env python3
"""Steadiness report: run one workload of the benchmark several times,
each with its own seed, and print every metric's median, quartiles and
spread, so the bounds in BENCHMARK.json can be set from data.

Run from the repository root:

    python3 perfbench/steady.py --workload read-mix --runs 10 --seconds 20

The spread columns are (q3 - q1) / median ("iqr%", quartiles as
statistics.quantiles(values, n=4) gives them) and (max - min) / median
("range%"). For end-to-end metrics the report also shows the metric's
bound from BENCHMARK.json and whether the quartile spread is within it
and within a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} failed (exit {proc.returncode})")
    env = next((l[4:] for l in lines if l.startswith("env ")), "{}")
    return json.loads(lines[-1]), json.loads(env), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    bench = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    seconds = args.seconds or bench.get("run_seconds", 10)
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}

    values, units, env = {}, {}, None
    for i in range(args.runs):
        seed = args.first_seed + i
        res, env, wall = run_once(args.workload, seed, seconds, args.trace)
        if not res["correct"] or res["failed"]:
            raise SystemExit(f"seed {seed}: {res['failed']} of {res['attempted']} ops failed")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        got = " ".join(f"{name}={m['value']:.4g}" for name, m in sorted(res["metrics"].items()))
        print(f"seed {seed}: {res['attempted']} ops, {wall:.1f}s wall, {got}", file=sys.stderr)

    print(f"workload {args.workload}: {args.runs} runs x {seconds}s, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"host {json.dumps(env.get('host', {}))}")
    print(f"{'metric':40s} {'unit':>12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr%':>7s} "
          f"{'min':>12s} {'max':>12s} {'range%':>7s}  bound")
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        iqr = (q3 - q1) / med * 100 if med else 0.0
        rng = (max(xs) - min(xs)) / med * 100 if med else 0.0
        verdict = ""
        if name in bounds:
            b = bounds[name] * 100
            verdict = f"{b:.0f}% " + ("ok" if iqr < b / 3 else "within" if iqr < b else "WIDE")
            if name == "setup_s":
                verdict = f"{b:.0f}% (spread not bounded)"
        print(f"{name:40s} {units[name]:>12s} {med:12.4f} {q1:12.4f} {q3:12.4f} {iqr:7.2f} "
              f"{min(xs):12.4f} {max(xs):12.4f} {rng:7.2f}  {verdict}")


if __name__ == "__main__":
    main()
