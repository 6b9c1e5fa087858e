#!/usr/bin/env python3
"""Steadiness check: run the benchmark in two sets of seeds on one commit and
print, for each end-to-end metric and workload, the spread beside its bound.

Usage (from the root of a checkout):

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json ten times, each time with its
own seed, for the run_seconds that BENCHMARK.json gives.  The spread of a
metric is the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median; it must stay within
the metric's bound.  The shift is the change of the second set's median from
the first's, as a share of the first; in either direction it must stay within
the bound.  The share of failed operations must be the same in both sets.
Exits 1 when any of this fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def run_once(command, workload, seed, seconds):
    """One benchmark run; returns (result, wall seconds)."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - start


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(command, workload, first_seed, seconds):
    results = []
    for seed in range(first_seed, first_seed + RUNS):
        res, wall = run_once(command, workload, seed, seconds)
        results.append(res)
        print(f"{workload} seed {seed} ({wall:.1f} s): correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
              file=sys.stderr, flush=True)
    return results


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    command = [sys.executable if a == "python3" else a for a in bench["command"]]

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [run_set(command, workload, first, bench["run_seconds"]) for first in (1000, 2000)]
        print(f"\n{workload}")
        print(f"  {'metric':<16} {'median 1':>10} {'median 2':>10} {'spread 1':>9} {'spread 2':>9} "
              f"{'shift':>8} {'bound':>6}  status")
        for meta in bench["end_to_end"]:
            name, bound = meta["name"], meta["bound"]
            values = [[r["metrics"][name]["value"] for r in results] for results in sets]
            med = [statistics.median(v) for v in values]
            sp = [spread(v) for v in values]
            shift = (med[1] - med[0]) / med[0]
            bad = max(sp) > bound or abs(shift) > bound
            ok = ok and not bad
            status = "FAIL" if bad else ("ok" if max(sp) <= bound / 3 else "ok, spread above a third of the bound")
            print(f"  {name:<16} {med[0]:>10.5g} {med[1]:>10.5g} {sp[0]:>9.4f} {sp[1]:>9.4f} "
                  f"{shift:>8.4f} {bound:>6}  {status}")
        shares = [(sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)) for rs in sets]
        correct = all(r["correct"] for rs in sets for r in rs)
        print(f"  failed/attempted per set: {shares}  all correct: {correct}")
        ok = ok and correct and shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
