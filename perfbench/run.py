#!/usr/bin/env python3
"""zetaforge benchmark: the runner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {verify-cli,numeric-deep,exact-deep}
                             --seed N --seconds S --trace {0,1}

Runs repetitions of the workload, one fresh child interpreter at a time,
until S seconds are used, checks every output against the oracles, and
prints as its last line one JSON object: correct, attempted, failed and the
metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1).  The per-operation medians of the untraced run go to stderr.

zetaforge is imported from this checkout's ``src/``.  Every child gets a
fresh, empty ZETAFORGE_CACHE_DIR under ``.perfbench/`` and no input repeats
inside a child, so no spectrum cache can hide what a solver costs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import checks  # found beside this script
from child import LAYERS
from tracing import metric_prefix

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 60.0
MIN_ROUNDS = 2

WORKLOADS = ("verify-cli", "numeric-deep", "exact-deep")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _BENCH = json.load(_fh)
E2E_UNITS = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}
# the import times the children report, one per module they import
IMPORT_METRICS = {f"import.{metric_prefix(layer)}_s" for layer in LAYERS}
# the job kinds whose median times make up batch_s (verify-cli) and
# job_geomean_s; the untraced run prints each of them on stderr
CLI_SMALL_JOBS = ("bernoulli", "apery", "hurwitz", "borel", "zetaQ2")
JOB_KINDS = {
    "verify-cli": ("verify_quick_s", "verify_full_s", *CLI_SMALL_JOBS),
    "numeric-deep": ("small_solve_s", "ncho_solve_s", "qrm_solve_s", "qrm_biased_solve_s", "zeta_from_spectrum_s", "mc_s"),
    "exact-deep": ("bernoulli_table_s", "r_k1_series_s", "tj_table_s", "qseries_identity_s"),
}


# ---------------------------------------------------------------------------
# seeded inputs: the seed varies parameters, never sizes
# ---------------------------------------------------------------------------


def numeric_inputs(rng: random.Random) -> dict:
    a = rng.uniform(1.3, 2.5)
    return {
        "small_N": 256,
        "deep_N": 1024,
        "count": 40,
        # the first solve of a process pays any first-call BLAS start-up
        "small": [
            {"model": "ncho", "alpha": a, "beta": a},
            {"model": "ncho", "alpha": rng.uniform(1.6, 2.8), "beta": rng.uniform(1.0, 1.5)},
            {"model": "qrm", "g": 0.0, "delta": rng.uniform(0.2, 0.7), "eps": 0.0},
            {"model": "qrm", "g": rng.uniform(0.2, 0.8), "delta": 0.0, "eps": 0.0},
            {"model": "qrm", "g": rng.uniform(0.2, 0.8), "delta": 0.0, "eps": rng.uniform(0.1, 0.6)},
            {"model": "qrm", "g": rng.uniform(0.2, 1.0), "delta": rng.uniform(0.2, 1.5), "eps": 0.0},
        ],
        "ncho": {"model": "ncho", "alpha": rng.uniform(1.3, 2.8), "beta": rng.uniform(1.0, 1.8)},
        "qrm": {"model": "qrm", "g": rng.uniform(0.2, 1.0), "delta": rng.uniform(0.2, 1.5), "eps": 0.0},
        "qrm_biased": {"model": "qrm", "g": rng.uniform(0.2, 1.0), "delta": rng.uniform(0.2, 1.5), "eps": rng.uniform(0.1, 0.6)},
        "zeta": [
            {"small": 2, "tau": rng.uniform(1.0, 1.6), "s": [2.0, 3.0], "t_cut": 0.1,
             "t_grid": [0.1 * i for i in range(1, 31)]},
            {"small": 3, "tau": rng.uniform(1.0, 1.6), "s": [2.0, 3.0], "t_cut": 0.1,
             "t_grid": [0.1 * i for i in range(1, 31)]},
        ],
        "mc_seed": rng.randrange(2**31),
        "mc_r21": 400_000,
        "mc_ab": [["A", 0, 0], ["A", 1, 0], ["A", 1, 1], ["B", 1, 0]],
        "mc_ab_budget": 200_000,
        "mc_zq_budget": 200_000,
    }


def exact_inputs(rng: random.Random) -> dict:
    tj_n = 200
    return {
        "bernoulli_max": 300,
        "apery_max": 200,
        "apery_spots": sorted(rng.sample(range(201), 4)),
        "super": [[kind, p, m, r] for kind in ("A2", "A3") for p in (5, 7, 11, 13) for m in (1, 2) for r in (1, 2)],
        "kappa": rng.uniform(0.2, 0.7),
        "series_n": 90,
        "tj_n": tj_n,
        "tj_spots": {str(k): sorted(rng.sample(range(tj_n + 1), 3 if k == 2 else 1)) for k in range(2, 7)},
        "qmax": 36,
    }


def cli_jobs(rng: random.Random) -> list:
    """(name, params, argv) of the small fresh-process jobs."""
    den = rng.randrange(2, 10)
    x = f"{rng.randrange(1, den)}/{den}"
    kind = rng.choice(["A2", "A3"])
    s, tau, z = rng.uniform(1.5, 6.0), rng.uniform(0.3, 3.0), rng.uniform(0.15, 0.5)
    alpha, beta = rng.uniform(1.2, 3.0), rng.uniform(1.0, 2.0)
    return [
        ("bernoulli", {"k": 120, "x": x}, ["bernoulli", "--k", "120", "--poly-x", x]),
        ("apery", {"kind": kind, "n": 60}, ["apery", "--kind", kind, "--n", "60", "--closed"]),
        ("hurwitz", {"s": s, "tau": tau}, ["hurwitz", "--s", repr(s), "--tau", repr(tau)]),
        ("borel", {"n": 2, "z": z}, ["borel", "--n", "2", "--z", repr(z)]),
        ("zetaQ2", {"alpha": alpha, "beta": beta},
         ["special-values", "--op", "zetaQ2-closed", "--alpha", repr(alpha), "--beta", repr(beta)]),
    ]


VERIFY_JOBS = [
    ("verify_quick_s", {}, ["verify-all", "--budget", "quick"]),
    ("verify_full_s", {}, ["verify-all", "--budget", "full"]),
]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Child(NamedTuple):
    """One finished child process."""

    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


def _env(cache_dir: str) -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    env["ZETAFORGE_CACHE_DIR"] = cache_dir
    return env


def spawn(argv_for, tag: str) -> Child:
    """Run one child to completion with its own empty cache directory.

    ``argv_for(t0)`` builds the command line from the CLOCK_MONOTONIC time
    at which the process is started.  Wall time runs from just before the
    start to the reaping of the process; peak RSS comes from wait4.
    """
    cache = os.path.join(WORK, f"cache-{tag}")
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    out_path, err_path = os.path.join(WORK, f"{tag}.out"), os.path.join(WORK, f"{tag}.err")
    env = _env(cache)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv_for(t0), stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    shutil.rmtree(cache, ignore_errors=True)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


def run_child(workload, inputs, trace: bool, tag: str):
    """Run workload code in a child; returns (Child, parsed result or None)."""

    def argv(t0):
        spec = {
            "workload": workload,
            "inputs": inputs,
            "trace": trace,
            "t0": t0,
            "src": SRC,
            "spans_path": os.path.join(WORK, f"spans-{tag}.jsonl"),
        }
        return [sys.executable, CHILD, json.dumps(spec)]

    child = spawn(argv, tag)
    result = None
    if child.code == 0:
        try:
            result = json.loads(child.stdout.strip().splitlines()[-1])
        except (json.JSONDecodeError, IndexError):
            result = None
    return child, result


def run_cli(argv, tag: str) -> Child:
    return spawn(lambda t0: [sys.executable, "-m", "zetaforge.cli", *argv], tag)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.samples: dict = {}  # metric or job kind -> list of values
        self.layers: list = []  # per traced child: layer metrics
        self.traced_work: list = []
        self.untraced_work: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def add(self, metric, value) -> None:
        self.samples.setdefault(metric, []).append(value)


def _child_result(tally, child, result, label) -> bool:
    if result is None:
        tally.attempted += 1
        tally.failed += 1
        tally.errors.append(f"{label}: child exited {child.code}: {child.stderr.strip()[-400:]}")
        return False
    tally.attempted += result["attempted"]
    tally.failed += len(result["failures"])
    tally.errors.extend(f"{label}: {f}" for f in result["failures"])
    return True


def in_process_round(tally, workload, inputs, trace, tag, checker, traced_first=False):
    """One repetition of a workload run inside child interpreters.  With
    tracing, the same inputs also run untraced in a twin child, which gives
    the tracing overhead; the order of the twins alternates between rounds."""

    def untraced():
        child, res = run_child(workload, inputs, False, f"{tag}-u")
        if not _child_result(tally, child, res, tag):
            return
        tally.add("setup_s", res["setup_s"])
        tally.add("peak_rss_mb", child.rss_mb)
        tally.add("batch_s", child.wall)
        tally.untraced_work.append(res["work_s"])
        for metric, values in res["times"].items():
            for v in values:
                tally.add(metric, v)
        tally.errors.extend(f"{tag}: {e}" for e in checker(inputs, res["outputs"]))

    def traced():
        child, res = run_child(workload, inputs, True, f"{tag}-t")
        if not _child_result(tally, child, res, f"{tag} traced"):
            return
        tally.traced_work.append(res["work_s"])
        tally.layers.append(res["layers"])
        tally.errors.extend(f"{tag} traced: {e}" for e in checker(inputs, res["outputs"]))

    if not trace:
        untraced()
    elif traced_first:
        traced()
        untraced()
    else:
        untraced()
        traced()


def _cli_checker(inputs, outputs):
    errors = []
    for job in outputs["jobs"]:
        errors.extend(checks.check_cli_job(job["name"], inputs["params"][job["name"]], job["code"], job["stdout"]))
    return errors


def cli_round(tally, rng, trace, tag, traced_first):
    small = cli_jobs(rng)
    if trace:
        jobs = VERIFY_JOBS + small
        inputs = {"jobs": [[n, a] for n, _, a in jobs], "params": {n: p for n, p, _ in jobs}}
        in_process_round(tally, "verify-cli", inputs, True, tag, _cli_checker, traced_first)
        return
    # set-up probe: a fresh interpreter that imports every module and exits
    probe, res = run_child(None, None, False, f"{tag}-probe")
    if _child_result(tally, probe, res, f"{tag}-probe"):
        tally.add("setup_s", res["setup_s"])
    # verify-all quick runs twice a round so that its median rests on twice
    # as many processes as the other jobs
    rss = [probe.rss_mb]
    for i, (name, params, argv) in enumerate(VERIFY_JOBS[:1] + VERIFY_JOBS + small):
        child = run_cli(argv, f"{tag}-{i}")
        tally.attempted += 1
        errors = checks.check_cli_job(name, params, child.code, child.stdout)
        if child.code != 0:
            tally.failed += 1
            errors.append(child.stderr.strip()[-400:])
        else:
            tally.add(name, child.wall)
            rss.append(child.rss_mb)
        tally.errors.extend(f"{tag} {name}: {e}" for e in errors)
    tally.add("peak_rss_mb", max(rss))


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else float("nan")


def _kind_medians(workload, tally) -> dict:
    return {k: _median(tally.samples[k]) for k in JOB_KINDS[workload] if k in tally.samples}


def end_to_end(workload, tally) -> dict:
    kinds = _kind_medians(workload, tally)
    if workload == "verify-cli":
        # one batch: each job once, at its median cold wall time
        batch = sum(kinds.values())
    else:
        batch = _median(tally.samples.get("batch_s", []))
    geomean = math.exp(statistics.fmean(math.log(v) for v in kinds.values())) if kinds else float("nan")
    return {
        "setup_s": _median(tally.samples.get("setup_s", [])),
        "peak_rss_mb": _median(tally.samples.get("peak_rss_mb", [])),
        "batch_s": batch,
        "job_geomean_s": geomean,
    }


def per_operation(workload, tally) -> list:
    """(name, median, unit, sample count) of each operation, for stderr."""
    rows = [(k, v, "s", len(tally.samples[k])) for k, v in _kind_medians(workload, tally).items()]
    if workload == "verify-cli":
        small = [k for k in CLI_SMALL_JOBS if k in tally.samples]
        rows.append(("cli_small_job_s", sum(_median(tally.samples[k]) for k in small), "s",
                     min((len(tally.samples[k]) for k in small), default=0)))
    elif workload == "numeric-deep":
        rate = tally.samples.get("mc_samples_per_s", [])
        rows.append(("mc_samples_per_s", _median(rate), "samples/s", len(rate)))
    return rows


def per_layer(tally) -> dict:
    out = {}
    for name in LAYER_UNITS:
        if name == "trace.overhead_pct":
            base = _median(tally.untraced_work)
            out[name] = 100.0 * (_median(tally.traced_work) - base) / base
        else:
            out[name] = _median([layer.get(name, 0) for layer in tally.layers])
    return out


def machine_info() -> str:
    import ctypes
    import glob

    import numpy
    import scipy

    threads = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = str(fn())
    return (
        f"nproc={os.cpu_count()} blas_threads={threads} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__} scipy={scipy.__version__}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "zetaforge", "cli.py")):
        print(f"error: no zetaforge sources under {SRC}", file=sys.stderr)
        return 2
    listed = {name for name in LAYER_UNITS if name.startswith("import.")}
    if listed != IMPORT_METRICS:
        print(f"error: BENCHMARK.json lists {sorted(listed)}, the children import {sorted(IMPORT_METRICS)}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    print(machine_info(), file=sys.stderr)
    # compile the sources once, so no timed process pays for the bytecode
    warm, res = run_child(None, None, False, "warmup")
    if res is None:
        print(f"error: warm-up child failed: {warm.stderr.strip()[-800:]}", file=sys.stderr)
        return 2

    tally = Tally()
    start = time.monotonic()
    round_walls = []
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() - start + _median(round_walls) <= args.seconds:
        rng = random.Random(f"{args.workload}/{args.seed}/{rounds}")
        tag = f"r{rounds}"
        began = time.monotonic()
        trace, traced_first = bool(args.trace), rounds % 2 == 1
        if args.workload == "verify-cli":
            cli_round(tally, rng, trace, tag, traced_first)
        elif args.workload == "numeric-deep":
            in_process_round(tally, "numeric-deep", numeric_inputs(rng), trace, tag, checks.check_numeric, traced_first)
        else:
            in_process_round(tally, "exact-deep", exact_inputs(rng), trace, tag, checks.check_exact, traced_first)
        round_walls.append(time.monotonic() - began)
        rounds += 1

    for err in tally.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(tally)
        units = LAYER_UNITS
    else:
        metrics = end_to_end(args.workload, tally)
        units = E2E_UNITS
        for name, value, unit, n in per_operation(args.workload, tally):
            print(f"{name} = {value:.6g} {unit} (median of {n})", file=sys.stderr)
    print(f"rounds={rounds} elapsed={time.monotonic() - start:.1f}s", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # a metric left unmeasured by failed children reads 0, beside correct = false
        "metrics": {k: {"value": metrics[k] if math.isfinite(metrics[k]) else 0.0, "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
