"""The cohomolab benchmark: one workload, measured end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is ``window-sweep``, ``large-cells``, ``representatives`` or ``all``.
The load is a closed loop from one process and one thread: each pass runs
every cell of the workload once, in an order permuted by the seed, in a
fresh interpreter (``worker.py``), and passes repeat until ``S`` seconds of
measuring are used up.  Every output is checked against the cross-checked
reference in ``reference.json``; the exit code is 1 if any cell failed.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics named in ``BENCHMARK.json``:

* ``cells_per_s``: cells per second of timed cell work;
* ``cell_ms_p50`` and ``cell_ms_tail``: the median and the highest
  percentile with ten cells beyond it, of each cell's median latency over
  the run's passes;
* ``peak_rss_mb``: ``ru_maxrss`` of the interpreters that ran the passes;
* ``ok_ratio``: one minus the failed ratio; a cell fails if it raises, hits
  a cap, or its output differs from the reference;
* ``setup_s``: interpreter start, imports and module parsing, the median
  over several set-ups.

Times are rescaled to a reference machine speed measured between cells (see
``worker.py``); the summary prints them unscaled as well.  With
``--trace 1`` the last line carries the per-layer metrics of traced passes,
interleaved with untraced passes of the same cells so that the tracing
overhead and the agreement of both kinds of pass are measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import CELL, LAYERS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("window-sweep", "large-cells", "representatives")

SETUP_PROBES = 5  # extra interpreters that only set up, for a steady setup_s
RUN_BUDGET_S = 170.0  # a run must end within 180 s
MIN_PASSES = 2  # every run makes at least this many passes
TAIL_SAMPLES = 10  # cells kept beyond the tail percentile
ROUTES = ("kernel", "cokernel-torsion", "congruence", "dual-shift")


class PassFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, pass_index: int, *, trace: bool, setup_only: bool,
               timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--pass", str(pass_index),
        "--trace", str(int(trace)), "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=_child_env(), timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {pass_index} still running after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["wall_s"] = time.monotonic() - start
    out["traced"] = trace
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    x = q / 100.0 * (len(ordered) - 1)
    i = min(int(x), len(ordered) - 2)
    return ordered[i] + (x - i) * (ordered[i + 1] - ordered[i])


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """All passes of one run, plus the set-up probes when measuring end to end."""
    setups: list[float] = []
    if not trace:
        for k in range(SETUP_PROBES):
            probe = run_worker(workload, seed, -1 - k, trace=False, setup_only=True,
                               timeout=deadline - time.monotonic())
            setups.append(probe["ref_setup_s"])
    passes: list[dict] = []
    failure = None
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        try:
            result = run_worker(workload, seed, len(passes), trace=traced, setup_only=False,
                                timeout=deadline - time.monotonic())
        except PassFailed as exc:
            failure = str(exc)
            break
        passes.append(result)
        setups.append(result["ref_setup_s"])
        used = time.monotonic() - start
        if len(passes) >= MIN_PASSES and used + result["wall_s"] > seconds:
            break
        if time.monotonic() + 1.5 * result["wall_s"] > deadline:
            break
    return {"passes": passes, "setups": setups, "failure": failure}


def _count(passes: list[dict], cells_per_pass: int, failure: str | None):
    attempted = sum(len(p["cells"]) for p in passes)
    failed = sum(1 for p in passes for c in p["cells"] if c["error"])
    if failure:
        attempted += cells_per_pass
        failed += cells_per_pass
    return attempted, failed


def _mismatches(passes: list[dict]) -> list[str]:
    """Cells whose outputs differ between passes (traced against untraced)."""
    seen: dict[str, str] = {}
    bad = []
    for p in passes:
        for c in p["cells"]:
            if c["output"] is None:
                continue
            if seen.setdefault(c["id"], c["output"]) != c["output"]:
                bad.append(c["id"])
    return bad


def cell_latencies(passes: list[dict], key: str) -> list[float]:
    """Each cell's latency in a run: its median over the run's passes."""
    per_cell: dict[str, list[float]] = {}
    for p in passes:
        for c in p["cells"]:
            per_cell.setdefault(c["id"], []).append(c[key])
    return [statistics.median(v) for v in per_cell.values()]


def end_to_end(run: dict, cells_per_pass: int) -> tuple[dict, list[str]]:
    passes = run["passes"]
    ms = [c["ref_ms"] for p in passes for c in p["cells"]]
    raw = [c["ms"] for p in passes for c in p["cells"]]
    cells, raw_cells = cell_latencies(passes, "ref_ms"), cell_latencies(passes, "ms")
    attempted, failed = _count(passes, cells_per_pass, run["failure"])
    # The highest percentile with TAIL_SAMPLES cells beyond it.  It depends
    # only on the cell count, so runs of faster and slower code use the same.
    q = 100.0 * (1.0 - TAIL_SAMPLES / len(cells))
    values = {
        "cells_per_s": len(ms) / (sum(ms) / 1000.0),
        "cell_ms_p50": statistics.median(cells),
        "cell_ms_tail": percentile(cells, q),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(run["setups"]),
    }
    notes = [
        "times are rescaled to the reference speed of the calibration loop (worker.py)",
        f"unscaled: cells_per_s {len(raw) / (sum(raw) / 1000.0):.4g}, "
        f"cell_ms_p50 {statistics.median(raw_cells):.4g}, "
        f"cell_ms_tail {percentile(raw_cells, q):.4g}",
        f"{len(passes)} passes of {cells_per_pass} cells; a cell's latency is its "
        f"median over the passes, and cell_ms_tail is p{q:.2f} of {len(cells)} cells",
        f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} cells)",
        f"setup_s is the median of {len(run['setups'])} interpreter set-ups",
    ]
    return values, notes


def per_layer(run: dict) -> tuple[dict, list[str]]:
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    totals: Counter = Counter()
    routes: Counter = Counter()
    bits = 0
    for p in traced:
        layers = p["layers"]
        bits = max(bits, layers["intlinalg.echelon_max_bits"])
        totals.update({k: v for k, v in layers.items() if k != "intlinalg.echelon_max_bits"})
        routes.update(c["route"] for c in p["cells"] if c["route"])
    k = len(traced)
    timed = lambda ps: sum(c["ref_ms"] for p in ps for c in p["cells"]) / len(ps)
    values = Counter({  # counters that never fired read as 0
        **{key: value / k for key, value in totals.items()},
        "intlinalg.echelon_max_bits": bits,
        "resolutions.diff_rebuild_ratio": totals["resolutions.diff_calls"]
        / max(totals["resolutions.diff_keys"], 1),
        "engine.assemble_unit_ratio": totals["engine.assemble_units"]
        / max(totals["engine.assemble_nnz"], 1),
        "trace.overhead_ratio": timed(traced) / timed(plain),
        **{f"engine.route.{r}": routes[r] / k for r in ROUTES},
    })
    selfs = sorted(((values[f"{layer}_s"], f"{layer}_s") for layer in [*LAYERS, CELL]), reverse=True)
    notes = [
        f"per-pass means over {k} traced passes; overhead against {len(plain)} untraced",
        "largest self times: " + ", ".join(f"{key} {v:.3f}" for v, key in selfs[:4]),
        f"int64 fallbacks {values['intlinalg.int64_fallbacks']:.0f} of "
        f"{values['intlinalg.int64_attempts']:.0f} attempts, "
        f"{values['intlinalg.int64_wasted_s']:.3f} s wasted; "
        f"largest echelon entry {bits} bits",
    ]
    missing = sorted({m for p in traced for m in p.get("missing", [])})
    if missing:
        notes.append("not traced (names not found): " + ", ".join(missing))
    if totals["engine.assemble_uncounted"]:
        notes.append("some assembled matrices had no rows to count")
    other_routes = set(routes) - set(ROUTES)
    if other_routes:
        notes.append(f"routes outside the metric list: {sorted(other_routes)}")
    return values, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float,
                 spec: dict):
    """One run; ``spec`` is BENCHMARK.json, which names the metrics and units."""
    cells = json.loads((HERE / "reference.json").read_text())["workloads"][workload]["cells"]
    run = measure(workload, seed, seconds, trace, deadline)
    passes = run["passes"]
    attempted, failed = _count(passes, len(cells), run["failure"])
    notes = []
    if run["failure"]:
        notes.append(f"FAILED: {run['failure']}")
    mismatched = _mismatches(passes)
    if mismatched:
        failed += len(mismatched)
        notes.append(f"outputs differ between passes: {mismatched[:5]}")
    for p in passes:
        for c in p["cells"]:
            if c["error"] and len(notes) < 12:
                notes.append(f"FAILED {c['id']}: {c['error']}")
    metrics: dict = {}
    if len(passes) >= MIN_PASSES:
        values, more = per_layer(run) if trace else end_to_end(run, len(cells))
        notes += more
        for m in spec["per_layer" if trace else "end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/cohomolab/__init__.py").is_file():
        print("perfbench: src/cohomolab not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        result, notes = run_workload(
            name, args.seed, args.seconds, bool(args.trace), deadline, spec
        )
        print(f"# {name} | seed {args.seed} | trace {args.trace}")
        for key, m in result["metrics"].items():
            print(f"{key:32s} {m['value']:14.6g} {m['unit']}")
        for note in notes:
            print(f"# {note}")
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
