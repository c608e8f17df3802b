"""Command-line front end.

Four verbs: ``compute`` evaluates cohomology over a degree range,
``factor-set`` emits the group-pair table of an explicit degree-2 class,
``verify`` runs the cross-checking suites, ``bench`` compares resolution
sizes and timings.  Exit codes: 0 success, 2 bad input, 3 resource cap,
4 a verification that should have passed did not; output cut short by a
closed pipe (``| head``) still exits 0, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from cohomolab import verify as verify_mod
from cohomolab.closed_forms import (
    GENERATOR_CASES,
    generating_cocycle,
    predicted_invariants,
)
from cohomolab.engine import (
    VerificationError,
    ordinary_cohomology,
    tate_cohomology,
    to_factor_set,
)
from cohomolab.group_ring import GroupSpec
from cohomolab.intlinalg import AbelianInvariants
from cohomolab.limits import EngineLimits, ResourceCapExceeded
from cohomolab.modules import GModule, parse_module, trivial_module
from cohomolab.resolutions import make_resolution

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


class CliError(Exception):
    """Bad user input; maps to exit code 2."""


def _parse_group(text: str) -> GroupSpec:
    try:
        orders = tuple(int(part) for part in text.split(","))
        return GroupSpec(orders)
    except ValueError as exc:
        raise CliError(f"bad group {text!r}: {exc}") from exc


def _parse_degrees(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError as exc:
        raise CliError(f"bad degree range {text!r} (want 'a..b' or a single n)") from exc
    if b < a:
        raise CliError(f"empty degree range {text!r}")
    return a, b


def _limits(args) -> EngineLimits:
    if args.max_degree < 0:
        raise CliError("--max-degree must be >= 0")
    if args.max_group_order < 1:
        raise CliError("--max-group-order must be >= 1")
    try:
        base = EngineLimits.from_env()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return replace(
        base,
        max_group_order=args.max_group_order,
        min_tate_degree=-args.max_degree,
        max_tate_degree=args.max_degree,
    )


def _fmt_invariants(inv: AbelianInvariants) -> str:
    if inv.free_rank:
        return f"Z^{inv.free_rank} + {inv.as_list()}"
    return str(inv.as_list())


# ---------------------------------------------------------------------------
# compute


def _closed_form_entry(module_text, spec, degree, kind, got):
    try:
        derived = predicted_invariants(module_text, spec, degree, kind=kind)
    except ValueError:
        return None
    if derived is None:
        return None
    if derived != got:
        return {"variant": "derived", "match": False, "predicted": derived.as_list()}
    try:
        printed = predicted_invariants(
            module_text, spec, degree, kind=kind, variant="printed"
        )
    except (ValueError, ArithmeticError):
        printed = None
    if printed is not None and printed != got:
        # the documented display discrepancy: the derived variant agrees
        # with the engine, the printed one does not
        return {"variant": "printed", "match": "flagged", "predicted": printed.as_list()}
    return {"variant": "derived", "match": True}


def cmd_compute(args) -> int:
    spec = _parse_group(args.group)
    limits = _limits(args)
    limits.check_group_order(spec.order)
    try:
        module = parse_module(args.module, spec, limits)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    lo, hi = _parse_degrees(args.degrees)
    if args.resolution == "bar" and lo < 0:
        raise CliError("negative degrees need the minimal (complete) resolution")
    kind = "tate" if args.resolution == "minimal" else "ordinary"

    def one(n: int) -> dict:
        try:
            if args.resolution == "minimal":
                r = tate_cohomology(
                    module, n, limits=limits, want_representatives=args.representatives
                )
            else:
                r = ordinary_cohomology(
                    module,
                    n,
                    resolution="bar",
                    limits=limits,
                    want_representatives=args.representatives,
                )
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        entry = {
            "degree": n,
            "free_rank": r.invariants.free_rank,
            "invariant_factors": r.invariants.as_list(),
        }
        cf = _closed_form_entry(args.module, spec, n, kind, r.invariants)
        if cf is not None:
            entry["closed_form"] = cf
        if args.representatives and r.representatives is not None:
            entry["representatives"] = [
                [list(v) for v in c.values] for c in r.representatives
            ]
        return entry

    results = [one(n) for n in range(lo, hi + 1)]

    payload = {
        "group": list(spec.orders),
        "module": args.module,
        "resolution": args.resolution,
        "results": results,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(
        f"# group {args.group} (order {spec.order}) | module {args.module}"
        f" | resolution {args.resolution}"
    )
    for entry in results:
        inv = AbelianInvariants(entry["free_rank"], tuple(entry["invariant_factors"]))
        line = f"{entry['degree']:>4}: {_fmt_invariants(inv)}"
        cf = entry.get("closed_form")
        if cf is not None:
            if cf["match"] is True:
                line += "   closed-form: match"
            elif cf["match"] == "flagged":
                line += f"   closed-form: printed variant flagged ({cf['predicted']})"
            else:
                line += f"   closed-form: MISMATCH (predicted {cf['predicted']})"
        print(line)
        for rep in entry.get("representatives", []):
            print(f"        rep {rep}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# factor-set


def cmd_factor_set(args) -> int:
    spec = _parse_group(args.group)
    limits = _limits(args)
    limits.check_group_order(spec.order)
    if args.case not in GENERATOR_CASES:
        raise CliError(f"unknown case {args.case!r}; choose from {GENERATOR_CASES}")
    if not args.case.endswith("H2"):
        raise CliError(f"case {args.case!r} yields degree-1 classes; factor sets need degree 2")
    try:
        indices = tuple(int(x) for x in args.indices.split(",")) if args.indices else ()
    except ValueError as exc:
        raise CliError(f"bad indices {args.indices!r}") from exc
    try:
        gen = generating_cocycle(args.case, spec, indices)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.module is not None:
        try:
            wanted = parse_module(args.module, spec, limits)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        have = gen.module
        if not isinstance(wanted, GModule) or (
            wanted.rank,
            wanted.modulus,
            wanted.actions,
        ) != (have.rank, have.modulus, have.actions):
            raise CliError(
                f"case {args.case} lives on {have.label!r}, not {args.module!r}"
            )
    try:
        fs = to_factor_set(gen.module, gen.cochain, limits=limits)
    except ValueError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if not fs.cocycle_identity_holds():
        print("verification failed: pair-table identity does not hold", file=sys.stderr)
        return EXIT_VERIFY

    elems = spec.elements()
    if args.format == "json":
        payload = {
            "group": list(spec.orders),
            "module": gen.module.label,
            "case": args.case,
            "indices": list(gen.indices),
            "class_order": gen.class_order,
            "elements": [list(g) for g in elems],
            "table": [[list(fs(g, h)) for h in elems] for g in elems],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(
        f"# factor set | group {args.group} | case {args.case} "
        f"indices {list(gen.indices)} | module {gen.module.label} "
        f"| class order {gen.class_order}"
    )
    rank = gen.module.rank

    def cell(v: tuple[int, ...]) -> str:
        return str(v[0]) if rank == 1 else "(" + ",".join(map(str, v)) + ")"

    names = ["".join(map(str, g)) for g in elems]
    width = max(max(len(n) for n in names), max(len(cell(v)) for v in fs.table.values()))
    header = " " * (width + 2) + " ".join(n.rjust(width) for n in names)
    print(header)
    for g, name in zip(elems, names):
        row = " ".join(cell(fs(g, h)).rjust(width) for h in elems)
        print(f"{name.rjust(width)}  {row}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    limits = _limits(args)
    try:
        checks = verify_mod.run_suite(args.suite, limits)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    counts: dict[str, int] = {}
    for c in checks:
        counts[c.status] = counts.get(c.status, 0) + 1
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "counts": counts,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail} for c in checks
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for c in checks:
            print(f"{c.status:<16} {c.name}  --  {c.detail}")
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        print(f"# {len(checks)} checks ({summary})")
    return EXIT_VERIFY if counts.get(verify_mod.FAIL) else EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    spec = _parse_group(args.group)
    limits = _limits(args)
    limits.check_group_order(spec.order)
    minimal = make_resolution(spec, "minimal", limits)
    bar = make_resolution(spec, "bar", limits)
    Z = trivial_module(spec)
    rows = []
    for n in range(args.max_degree + 1):
        row = {
            "degree": n,
            "minimal_size": minimal.rank(n),
            "bar_size": bar.rank(n),
        }
        t0 = time.perf_counter()
        ordinary_cohomology(Z, n, limits=limits, want_representatives=False)
        row["minimal_ms"] = round(1000 * (time.perf_counter() - t0), 3)
        if n <= limits.bar_degree_max:
            try:
                t0 = time.perf_counter()
                ordinary_cohomology(
                    Z, n, resolution="bar", limits=limits, want_representatives=False
                )
                row["bar_ms"] = round(1000 * (time.perf_counter() - t0), 3)
            except ResourceCapExceeded:
                row["bar_ms"] = "capped"
        else:
            row["bar_ms"] = None  # beyond the bar-resolution degree window
        rows.append(row)
    payload = {"group": list(spec.orders), "results": rows}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"# bench | group {args.group} (order {spec.order}) | trivial coefficients")
    print(f"{'n':>3} {'minimal':>9} {'bar':>12} {'minimal ms':>12} {'bar ms':>12}")
    for row in rows:
        if row["bar_ms"] is None:
            bar_ms = "-"
        elif row["bar_ms"] == "capped":
            bar_ms = "capped"
        else:
            bar_ms = f"{row['bar_ms']:.3f}"
        print(
            f"{row['degree']:>3} {row['minimal_size']:>9} {row['bar_size']:>12} "
            f"{row['minimal_ms']:>12.3f} {bar_ms:>12}"
        )
    timed = [r for r in rows if isinstance(r["bar_ms"], float) and r["minimal_ms"] > 0]
    if timed:
        last = timed[-1]
        print(
            f"# degree {last['degree']}: bar/minimal time ratio "
            f"{last['bar_ms'] / last['minimal_ms']:.1f}x"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohomolab",
        description="Exact cohomology of finite abelian groups with lattice "
        "and finite coefficients.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-group-order", type=int, default=36)
        p.add_argument("--max-degree", type=int, default=6)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("compute", help="invariant factors over a degree range")
    p.add_argument("--group", required=True, help="cyclic factor orders, e.g. 2,4")
    p.add_argument("--module", required=True, help="module DSL text, e.g. trivial")
    p.add_argument("--degrees", required=True, help="inclusive range a..b")
    p.add_argument("--resolution", choices=("minimal", "bar"), default="minimal")
    p.add_argument("--representatives", action="store_true")
    common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("factor-set", help="group-pair table of an explicit class")
    p.add_argument("--group", required=True)
    p.add_argument("--case", required=True, help="one of " + ", ".join(GENERATOR_CASES))
    p.add_argument("--indices", default="", help="1-based factor indices, e.g. 1 or 1,2")
    p.add_argument("--module", help="optional; must match the module the case lives on")
    common(p)
    p.set_defaults(func=cmd_factor_set)

    p = sub.add_parser("verify", help="run cross-checking suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=("all",) + verify_mod.SUITE_NAMES,
    )
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="resolution sizes and timings")
    p.add_argument("--group", required=True)
    common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def _fold_degree_values(argv: list[str]) -> list[str]:
    # argparse treats "-2..2" as an option string, so fuse the pair into
    # the --degrees=-2..2 form it accepts
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--degrees" and i + 1 < len(argv):
            out.append(f"--degrees={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_fold_degree_values(list(argv)))
    try:
        code = args.func(args)
        # a reader that went away shows here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): the output it wanted is
        # written, so stop quietly, with stdout on devnull so that the
        # flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
