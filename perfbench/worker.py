"""One pass over a workload's cells, in a fresh interpreter.

Started by ``run.py`` from the root of a checkout with ``src`` on
``PYTHONPATH``; prints one JSON line with the pass's results.  The program's
caches start cold here just as they do for a command-line user.

    python3 perfbench/worker.py --workload NAME --seed N --pass K
        --spawned-at T [--trace 0|1] [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench-out")

# The machine's speed drifts by a third within minutes when its host is
# shared, so a fixed pure-Python loop is timed between cells (at least
# every CALIBRATE_EVERY_S) and each latency is rescaled to the speed at which
# that loop takes NOMINAL_CALIBRATION_S.  Work in the program, not in the
# loop, is what moves the rescaled figures.
CALIBRATE_EVERY_S = 0.1
NOMINAL_CALIBRATION_S = 0.002


def calibration_s() -> float:
    """Time of a fixed loop of small-integer list work, with the collector
    off so that the program's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        row = list(range(200))
        for k in range(150):
            row = [(x * 3 - k) & 0xFFFF for x in row]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_gauge() -> float:
    """The median of three calibration loops."""
    return sorted(calibration_s() for _ in range(3))[1]


def load_cells(workload: str) -> list[dict]:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]["cells"]


def pass_order(n: int, seed: int, pass_index: int) -> list[int]:
    order = list(range(n))
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.monotonic()
    cells = load_cells(args.workload)
    reading_s = time.monotonic() - t0

    import execute  # imports the program

    setup = execute.Setup(cells)
    setup_s = time.monotonic() - args.spawned_at - reading_s
    scale = NOMINAL_CALIBRATION_S / speed_gauge()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "ref_setup_s": setup_s * scale}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    checker = execute.Checker(setup)
    results = []
    gauges = [speed_gauge()]
    last_gauge = time.perf_counter()
    for i in pass_order(len(cells), args.seed, args.pass_index):
        if time.perf_counter() - last_gauge > CALIBRATE_EVERY_S:
            gauges.append(calibration_s())
            last_gauge = time.perf_counter()
        cell = cells[i]
        if tracer:
            tracer.begin_cell(i)
        start = time.perf_counter()
        try:
            out, error = execute.run_cell(cell, setup), None
        except Exception as exc:  # a failed cell is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - start) * 1000.0
        if tracer:
            tracer.end_cell()
        got = None
        if error is None:
            got = execute.digest(cell, out)
            try:
                error = checker.check(cell, cell["expected"], out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        route = getattr(out, "route", None)
        results.append({
            "id": cell["id"], "ms": ms, "gauge": len(gauges) - 1,
            "error": error, "output": got, "route": route,
        })
    gauges.append(speed_gauge())
    # each cell is rescaled by the mean of the gauges just before and after it
    for r in results:
        local = (gauges[r["gauge"]] + gauges[r["gauge"] + 1]) / 2
        r["ref_ms"] = r["ms"] * NOMINAL_CALIBRATION_S / local

    payload = {
        "setup_s": setup_s,
        "ref_setup_s": setup_s * scale,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cells": results,
    }
    if tracer:
        pass_scale = NOMINAL_CALIBRATION_S / sorted(gauges)[len(gauges) // 2]
        payload["layers"] = {
            k: v * pass_scale if k.endswith("_s") else v
            for k, v in tracer.layer_totals().items()
        }
        payload["missing"] = tracer.missing
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.json")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
