"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON carries the workload name, its inputs, the CLOCK_MONOTONIC time
at which run.py started this process (``t0``), the source directory
zetaforge must be imported from, and whether to trace.  The child imports
every zetaforge module (timing each), runs the workload's program calls and
prints one JSON line with the timings and raw outputs.
"""

import importlib
import json
import os
import sys
import time

LAYERS = ("exact", "_mc", "series", "aperynum", "specval", "spectra", "resum", "padic", "cli")


def main() -> int:
    spec = json.loads(sys.argv[1])
    modules, imports = {}, {}
    for layer in LAYERS:
        start = time.monotonic()
        modules[layer] = importlib.import_module(f"zetaforge.{layer}")
        imports[layer] = time.monotonic() - start
    setup_s = time.monotonic() - spec["t0"]

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(modules["cli"].__file__).startswith(src + os.sep):
        print(f"zetaforge imported from {modules['cli'].__file__}, not {src}", file=sys.stderr)
        return 3

    from tracing import Tracer, metric_prefix
    from workloads import WORKLOADS, Recorder

    if spec["workload"] is None:  # set-up probe
        sys.stdout.write(json.dumps({"setup_s": setup_s, "attempted": 0, "failures": []}) + "\n")
        return 0

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(modules)
    rec = Recorder()
    start = time.perf_counter()
    outputs = WORKLOADS[spec["workload"]](modules, spec["inputs"], rec)
    work_s = time.perf_counter() - start
    result = {
        "setup_s": setup_s,
        "work_s": work_s,
        "times": rec.times,
        "attempted": rec.attempted,
        "failures": rec.failures,
        "outputs": outputs,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["layers"].update({f"import.{metric_prefix(m)}_s": s for m, s in imports.items()})
        tracer.dump(spec["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
