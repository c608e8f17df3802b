import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohomolab import cli
from cohomolab.cli import EXIT_CAP, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main
from cohomolab.closed_forms import GENERATOR_CASES
from cohomolab.verify import SUITE_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK, err
    return json.loads(out)


def test_compute_trivial_window(capsys):
    payload = run_json(
        capsys, "compute", "--group", "2,2", "--module", "trivial", "--degrees", "0..3"
    )
    assert payload["group"] == [2, 2]
    assert payload["resolution"] == "minimal"
    got = {r["degree"]: r["invariant_factors"] for r in payload["results"]}
    assert got == {0: [4], 1: [], 2: [2, 2], 3: [2]}
    by_degree = {r["degree"]: r.get("closed_form") for r in payload["results"]}
    assert by_degree[0]["match"] is True
    # the known printed-exponent discrepancy surfaces as a flag, not a failure
    assert by_degree[2] == {
        "variant": "printed",
        "match": "flagged",
        "predicted": [2, 2, 2],
    }


def test_compute_negative_degrees_minimal_only(capsys):
    payload = run_json(
        capsys,
        "compute",
        "--group",
        "2,2",
        "--module",
        "cyclo:2:1:1,0",
        "--degrees",
        "-2..2",
    )
    got = {r["degree"]: r["invariant_factors"] for r in payload["results"]}
    assert got == {-2: [2], -1: [2], 0: [], 1: [2], 2: [2]}
    assert all(r["closed_form"]["match"] is True for r in payload["results"])

    code, _, err = run(
        capsys,
        "compute",
        "--group",
        "2,2",
        "--module",
        "trivial",
        "--degrees",
        "-1..1",
        "--resolution",
        "bar",
    )
    assert code == EXIT_PARSE
    assert "minimal" in err


def test_compute_cyclic_six(capsys):
    payload = run_json(
        capsys, "compute", "--group", "6", "--module", "trivial", "--degrees", "2..2"
    )
    assert payload["results"][0]["invariant_factors"] == [6]


def test_compute_bar_resolution_degree_zero_is_ordinary(capsys):
    payload = run_json(
        capsys,
        "compute",
        "--group",
        "2,2",
        "--module",
        "trivial",
        "--degrees",
        "0..2",
        "--resolution",
        "bar",
    )
    got = {r["degree"]: (r["free_rank"], r["invariant_factors"]) for r in payload["results"]}
    assert got == {0: (1, []), 1: (0, []), 2: (0, [2, 2])}


def test_compute_divisible_dual_on_the_bar_resolution(capsys):
    # degrees 1 and 2 agree with the minimal side; degree 3 needs the
    # degree-5 differential, over the bar window, as every bar request does
    argv = ["compute", "--group", "2,2", "--module", "dualD(trivial)", "--resolution"]
    code, out, _ = run(capsys, *argv, "bar", "--degrees", "1..2")
    assert code == EXIT_OK
    assert out.splitlines()[0].endswith("| resolution bar")
    bar = run_json(capsys, *argv, "bar", "--degrees", "1..2")["results"]
    minimal = run_json(capsys, *argv, "minimal", "--degrees", "1..2")["results"]
    assert [r["invariant_factors"] for r in bar] == [[2, 2], [2]]
    assert [r["invariant_factors"] for r in minimal] == [[2, 2], [2]]
    code, out, err = run(capsys, *argv, "bar", "--degrees", "3")
    assert code == EXIT_CAP, out
    assert "standard-resolution degree 5 exceeds the configured maximum 4" in err


def test_compute_representatives_emitted(capsys):
    payload = run_json(
        capsys,
        "compute",
        "--group",
        "2,2",
        "--module",
        "trivial",
        "--degrees",
        "2..2",
        "--representatives",
    )
    reps = payload["results"][0]["representatives"]
    assert len(reps) == 2  # one per invariant factor
    assert all(len(rep) == 3 for rep in reps)  # three degree-2 monomials


def test_compute_text_and_json_agree(capsys):
    code, text_out, _ = run(
        capsys, "compute", "--group", "2,2", "--module", "trivial", "--degrees", "2..2"
    )
    assert code == EXIT_OK
    payload = run_json(
        capsys, "compute", "--group", "2,2", "--module", "trivial", "--degrees", "2..2"
    )
    assert str(payload["results"][0]["invariant_factors"]) in text_out


def test_compute_parse_errors(capsys):
    code, _, err = run(
        capsys, "compute", "--group", "2,2", "--module", "nonsense", "--degrees", "0..1"
    )
    assert code == EXIT_PARSE and "nonsense" in err
    code, _, _ = run(
        capsys, "compute", "--group", "2,x", "--module", "trivial", "--degrees", "0..1"
    )
    assert code == EXIT_PARSE
    code, _, _ = run(
        capsys, "compute", "--group", "2,2", "--module", "trivial", "--degrees", "3..1"
    )
    assert code == EXIT_PARSE


def test_group_order_cap_is_exit_three(capsys):
    code, _, err = run(
        capsys, "compute", "--group", "64,2", "--module", "trivial", "--degrees", "0..1"
    )
    assert code == EXIT_CAP and "group order 128" in err
    payload = run_json(
        capsys,
        "compute",
        "--group",
        "64,2",
        "--module",
        "trivial",
        "--degrees",
        "0..0",
        "--max-group-order",
        "200",
    )
    assert payload["results"][0]["invariant_factors"] == [128]


def test_group_order_cap_is_exit_three_on_verify(capsys):
    # the engine's own order check is a cap too, not an input error
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--max-group-order", "4")
    assert code == EXIT_CAP, err
    assert "group order 8 exceeds the configured maximum 4" in err


def test_cell_cap_is_exit_three(capsys, monkeypatch):
    monkeypatch.setenv("COHOMOLAB_MAX_CELLS", "2")
    code, _, err = run(
        capsys,
        "compute",
        "--group",
        "2,2",
        "--module",
        "trivial",
        "--degrees",
        "2..2",
        "--resolution",
        "bar",
    )
    assert code == EXIT_CAP and "cap" in err


def test_engine_verification_failure_is_exit_four(capsys, monkeypatch):
    # a Smith diagonal that |G| = 4 does not kill fails the engine's check
    from cohomolab import engine

    real = engine.smith_diagonal
    monkeypatch.setattr(engine, "smith_diagonal", lambda *a, **k: [3 * d for d in real(*a, **k)])
    code, _, err = run(capsys, "compute", "--group", "2,2", "--module", "trivial", "--degrees", "2..2")
    assert code == EXIT_VERIFY
    assert "verification failed: degree-2 group" in err and "Traceback" not in err


def test_a_failed_morse_guard_is_exit_four(capsys, monkeypatch, request):
    # the critical cells of degree 2 take in a cell matched downward, so
    # the partition guard of degree 2 fails: H^2 on the standard resolution
    # reads leg 2 off the Morse complex, and stops with exit code 4 rather
    # than listing the leg
    from cohomolab import engine

    def clear():
        engine._morse_splits.cache_clear()
        engine._morse_reach.cache_clear()

    real = engine._critical_cells

    def shifted(orders, k):
        cells = real(orders, k)
        return [list(engine._morse_splits(orders, 2)[0][1])] + cells[1:] if k == 2 else cells

    clear()
    request.addfinalizer(clear)
    monkeypatch.setattr(engine, "_critical_cells", shifted)
    code, _, err = run(
        capsys, "compute", "--group", "2,2", "--module", "trivial", "--degrees", "2",
        "--resolution", "bar",
    )
    assert code == EXIT_VERIFY, err
    assert "verification failed: Morse cells of degree 2 over (2, 2): no partition" in err
    assert "Traceback" not in err


def test_cell_cap_binds_on_cokernel_torsion_image(capsys, monkeypatch):
    # rank 60 takes the cokernel-torsion route, whose 180 x 120 image
    # matrix is over the cap even though no kernel is ever assembled; the
    # module's own 60 x 60 actions fit under it
    monkeypatch.setenv("COHOMOLAB_MAX_CELLS", "4000")
    code, _, err = run(
        capsys, "compute", "--group", "2,2", "--module", "trivial:60", "--degrees", "2..2"
    )
    assert code == EXIT_CAP and "180 x 120" in err


@pytest.mark.parametrize(
    "verb, module, named",
    [
        ("compute", "trivial:1500", "trivial:1500"),
        ("compute", "cyclo:1009:1:1", "cyclo:1009:1:1"),
        ("compute", "cyclo:2:99999999999:1", "cyclo:2:99999999999:1"),
        ("compute", "tensor(trivial:20,trivial:20)", "tensor(trivial:20,trivial:20)"),
        ("compute", "reduce:4(star(trivial:40))", "trivial:40"),
        ("factor-set", "trivial:1500", "trivial:1500"),
    ],
)
def test_module_size_is_capped_before_it_is_built(capsys, monkeypatch, verb, module, named):
    # rank x rank cells count against the cap before any action matrix is
    # built: ranks 1500, 1008, 2^99999999998, 400 (from two rank-20
    # factors) and 40, against 1000 cells; the message names the first
    # (sub)module over the cap
    monkeypatch.setenv("COHOMOLAB_MAX_CELLS", "1000")
    args = {
        "compute": ("compute", "--degrees", "1..1"),
        "factor-set": ("factor-set", "--case", "trivial-H2", "--indices", "1"),
    }[verb] + ("--group", "2", "--module", module)
    start = time.perf_counter()
    code, _, err = run(capsys, *args)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CAP
    assert err.startswith("resource cap exceeded")
    assert f"module {named!r}" in err


def test_prime_order_group_returns_within_a_second(capsys):
    # no block walks the powers of an action: N_i(A) is built by doubling
    # and the antipode A_i^(o_i - 1) by repeated squaring, so the Tate
    # cohomology of Z over the Mersenne prime 2^61 - 1 is Z/p in even
    # degrees and 0 in odd ones, at once
    p = 2**61 - 1
    start = time.perf_counter()
    payload = run_json(
        capsys, "compute", "--group", str(p), "--module", "trivial", "--degrees=-2..2",
        "--max-group-order", str(10**19),
    )
    assert time.perf_counter() - start < 1.0
    assert [r["invariant_factors"] for r in payload["results"]] == [[p], [], [p], [], [p]]


@pytest.mark.parametrize("verb", ["compute", "factor-set"])
def test_unreadable_action_file_is_exit_two(capsys, tmp_path, verb):
    args = {
        "compute": ("compute", "--degrees", "1..1"),
        "factor-set": ("factor-set", "--case", "trivial-H2", "--indices", "1"),
    }[verb] + ("--group", "2")
    for path in (tmp_path / "missing.txt", tmp_path):
        code, _, err = run(capsys, *args, "--module", f"zmod:2:@{path}")
        assert code == EXIT_PARSE
        assert err.startswith("error: cannot read matrix file")


def test_degree_window_flag(capsys):
    code, _, err = run(
        capsys, "compute", "--group", "2,2", "--module", "trivial", "--degrees", "0..8"
    )
    assert code == EXIT_PARSE and "window" in err
    payload = run_json(
        capsys,
        "compute",
        "--group",
        "2,2",
        "--module",
        "trivial",
        "--degrees",
        "8..8",
        "--max-degree",
        "8",
    )
    assert payload["results"][0]["degree"] == 8


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--group", "2,2", "--module", "trivial", "--degrees", "0..1"],
        ["verify", "--suite", "oracle"],
        ["bench", "--group", "2,2"],
        ["factor-set", "--group", "2", "--case", "trivial-H2", "--indices", "1"],
    ],
)
def test_negative_max_degree_is_exit_two_on_every_verb(capsys, argv):
    # one check in the shared limits, before any verb does work
    code, out, err = run(capsys, *argv, "--max-degree", "-1")
    assert code == EXIT_PARSE, (argv, out)
    assert err == "error: --max-degree must be >= 0\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--group", "2,2", "--module", "trivial", "--degrees", "0..1"],
        ["verify", "--suite", "oracle"],
        ["bench", "--group", "2,2"],
        ["factor-set", "--group", "2", "--case", "trivial-H2", "--indices", "1"],
    ],
)
@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_max_cells_is_exit_two_on_every_verb(capsys, monkeypatch, value, argv):
    monkeypatch.setenv("COHOMOLAB_MAX_CELLS", value)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE, (argv, out)
    assert err.startswith("error: COHOMOLAB_MAX_CELLS must be "), err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--group", "2,2", "--module", "trivial", "--degrees", "0..1"],
        ["verify", "--suite", "oracle"],
        ["bench", "--group", "2,2"],
        ["factor-set", "--group", "2", "--case", "trivial-H2", "--indices", "1"],
    ],
)
@pytest.mark.parametrize("value", ["0", "-2"])
def test_max_group_order_below_one_is_exit_two_on_every_verb(capsys, value, argv):
    # bad input in the shared limits, not a cap that no group can pass
    code, out, err = run(capsys, *argv, "--max-group-order", value)
    assert code == EXIT_PARSE, (argv, out)
    assert err == "error: --max-group-order must be >= 1\n"
    assert out == ""


# ---------------------------------------------------------------------------
# factor-set


def test_factor_set_cyclic_two(capsys):
    payload = run_json(
        capsys, "factor-set", "--group", "2", "--case", "trivial-H2", "--indices", "1"
    )
    assert payload["elements"] == [[0], [1]]
    assert payload["table"] == [[[0], [0]], [[0], [1]]]  # f(a,a)=1, rest 0
    assert payload["class_order"] == 2


def test_factor_set_honours_a_raised_group_order_cap(capsys):
    # the raised cap reaches the cocycle check too, not only the CLI's own check
    code, out, err = run(
        capsys,
        "factor-set",
        "--group",
        "37",
        "--case",
        "trivial-H2",
        "--indices",
        "1",
        "--max-group-order",
        "40",
    )
    assert code == EXIT_OK, err
    assert "order 37" in out
    code, _, err = run(
        capsys, "factor-set", "--group", "37", "--case", "trivial-H2", "--indices", "1"
    )
    assert code == EXIT_CAP and "group order 37" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--group", "2,4", "--module", "trivial", "--degrees", "0..3"],
        ["verify", "--suite", "sigma"],
        ["bench", "--group", "2,2"],
        ["factor-set", "--group", "2,4", "--case", "trivial-H2", "--indices", "1"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_pipe_exits_zero_without_a_traceback(unbuffered, argv):
    # ``cohomolab <verb> ... | head -1``, with the reader gone before
    # anything is written: unbuffered, the first print meets the closed
    # pipe; buffered, the flush does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cohomolab", *argv],
            stdout=w,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(w)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


def test_factor_set_klein_sixteen_binary_entries(capsys):
    payload = run_json(
        capsys, "factor-set", "--group", "2,2", "--case", "trivial-H2", "--indices", "2"
    )
    table = payload["table"]
    assert len(table) == 4 and all(len(row) == 4 for row in table)
    values = {v[0] for row in table for v in row}
    assert values <= {0, 1}
    # identity row and column vanish by normalization
    assert all(v == [0] for v in table[0])
    assert all(row[0] == [0] for row in table)


def test_factor_set_respects_module_argument(capsys):
    code, _, _ = run(
        capsys,
        "factor-set",
        "--group",
        "2",
        "--case",
        "trivial-H2",
        "--indices",
        "1",
        "--module",
        "trivial",
    )
    assert code == EXIT_OK
    code, _, err = run(
        capsys,
        "factor-set",
        "--group",
        "2",
        "--case",
        "trivial-H2",
        "--indices",
        "1",
        "--module",
        "reduce:4(trivial)",
    )
    assert code == EXIT_PARSE and "lives on" in err


def test_factor_set_rejects_a_divisible_dual_module(capsys):
    # dualD(...) parses to a routing marker, not a module with actions
    code, _, err = run(
        capsys,
        "factor-set",
        "--group",
        "2",
        "--case",
        "trivial-H2",
        "--indices",
        "1",
        "--module",
        "dualD(trivial)",
    )
    assert code == EXIT_PARSE and "lives on" in err


def test_factor_set_rejects_degree_one_cases_and_bad_input(capsys):
    code, _, err = run(
        capsys, "factor-set", "--group", "2,2", "--case", "torsion-H1", "--indices", "1"
    )
    assert code == EXIT_PARSE and "degree" in err
    code, _, _ = run(
        capsys, "factor-set", "--group", "2,2", "--case", "no-such-case"
    )
    assert code == EXIT_PARSE
    code, _, _ = run(
        capsys, "factor-set", "--group", "2,2", "--case", "trivial-H2", "--indices", "9"
    )
    assert code == EXIT_PARSE


def test_factor_set_torsion_case(capsys):
    payload = run_json(
        capsys, "factor-set", "--group", "2,4", "--case", "torsion-H2", "--indices", "1,2"
    )
    assert payload["module"].startswith("reduce")
    flat = [tuple(v) for row in payload["table"] for v in row]
    assert any(any(x) for x in flat)  # nontrivial class


# ---------------------------------------------------------------------------
# verify


def test_verify_all_json_is_pinned_byte_for_byte(capsys, monkeypatch):
    # the whole verify output, as checked in from a known-good run: a change
    # that moves any check, status, detail or count shows up here
    monkeypatch.delenv("COHOMOLAB_MAX_CELLS", raising=False)
    code, out, err = run(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == EXIT_OK, err
    pinned = Path(__file__).parent / "data" / "verify_all.json"
    assert out.encode() == pinned.read_bytes()


def test_verify_sigma_suite(capsys):
    payload = run_json(capsys, "verify", "--suite", "sigma")
    assert payload["counts"] == {"PASS": 6}
    names = {c["name"] for c in payload["checks"]}
    assert "sigma/chain-map/2,2,4" in names
    assert "sigma/chain-map/2,2,2,2" in names  # one rank beyond the hand-checked cases


def test_verify_sigma_suite_honours_the_caps(capsys, monkeypatch):
    # every group passes the order cap before any leg or comparison map is built
    over = AssertionError("built over the cap")
    with mock.patch("cohomolab.verify._sigma_faces", side_effect=over), mock.patch(
        "cohomolab.verify._leg_rows", side_effect=over
    ):
        code, _, err = run(capsys, "verify", "--suite", "sigma", "--max-group-order", "2")
    assert code == EXIT_CAP, err
    assert "group order 4 exceeds the configured maximum 2" in err
    # and the standard-resolution legs are sized against the cell cap
    monkeypatch.setenv("COHOMOLAB_MAX_CELLS", "2")
    code, _, err = run(capsys, "verify", "--suite", "sigma")
    assert code == EXIT_CAP and "standard-resolution differential" in err


def test_verify_closed_forms_flags(capsys):
    payload = run_json(capsys, "verify", "--suite", "closed-forms")
    assert payload["counts"].get("FAIL") is None
    assert payload["counts"]["EXPECTED-FLAGGED"] == 2
    flagged = {c["name"] for c in payload["checks"] if c["status"] == "EXPECTED-FLAGGED"}
    assert flagged == {
        "closed-forms/printed-tate-exponent",
        "closed-forms/degree-2-display",
    }
    printed = next(
        c for c in payload["checks"] if c["name"] == "closed-forms/printed-tate-exponent"
    )
    assert "[2, 2, 2]" in printed["detail"] and "[2, 2]" in printed["detail"]


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):  # argparse rejects the choice
        main(["verify", "--suite", "everything"])


# ---------------------------------------------------------------------------
# bench


def test_bench_sizes_exact(capsys):
    payload = run_json(capsys, "bench", "--group", "2,2,2", "--max-degree", "4")
    rows = {r["degree"]: r for r in payload["results"]}
    assert [rows[n]["minimal_size"] for n in range(5)] == [1, 3, 6, 10, 15]
    assert [rows[n]["bar_size"] for n in range(5)] == [1, 7, 49, 343, 2401]
    assert rows[3]["bar_ms"] is not None
    assert rows[4]["bar_ms"] is None  # beyond the bar window


def test_bench_times_one_route_on_both_resolutions(capsys, monkeypatch):
    # the bar/minimal time ratio compares resolutions, not algorithms
    calls = []
    real = cli.ordinary_cohomology

    def spy(M, n, **kw):
        r = real(M, n, **kw)
        calls.append((kw.get("resolution", "minimal"), n, r.route))
        return r

    monkeypatch.setattr(cli, "ordinary_cohomology", spy)
    run_json(capsys, "bench", "--group", "2,2,2", "--max-degree", "3")
    assert {res for res, _, _ in calls} == {"minimal", "bar"}
    assert all(route == "cokernel-torsion" for _, _, route in calls), calls


def test_bench_two_by_four(capsys):
    payload = run_json(capsys, "bench", "--group", "2,4", "--max-degree", "2")
    rows = {r["degree"]: r for r in payload["results"]}
    assert rows[2]["minimal_size"] == 3
    assert rows[2]["bar_size"] == 49
    assert rows[0]["minimal_size"] == rows[0]["bar_size"] == 1


# ---------------------------------------------------------------------------
# error contract: every input maps to exit 0, 2 or 3, never to a traceback

_INT = st.integers(-2, 9).map(str)


def _modules():
    leaves = st.one_of(
        st.just("trivial"),
        st.builds("trivial:{}".format, _INT),
        st.builds(
            "cyclo:{}:{}:{}".format,
            st.sampled_from(["2", "3", "4", "5", "0"]),
            st.sampled_from(["0", "1", "2", "3"]),
            st.lists(st.sampled_from("0123"), min_size=0, max_size=3).map(",".join),
        ),
        st.builds("zmod:{}:{}".format, _INT, st.sampled_from(["", "@", "@/no/such/file"])),
    )

    def wrap(inner):
        return st.one_of(
            st.builds("dualD({})".format, inner),
            st.builds("star({})".format, inner),
            st.builds("reduce:{}({})".format, _INT, inner),
            st.builds("tensor({},{})".format, inner, inner),
        )

    texts = st.one_of(wrap(st.recursive(leaves, wrap, max_leaves=3)), leaves)
    truncated = st.tuples(texts, st.integers(0, 12)).map(lambda t: t[0][: -t[1] or None])
    junk = st.text(alphabet="trivalcyozdDsuemn:(),@0123456789- ", max_size=14)
    return st.one_of(texts, texts, truncated, junk)


_GROUPS = st.one_of(
    st.sampled_from(["2", "3", "4", "5", "9", "2,2", "2,4", "3,3", "2,2,2"]),
    st.lists(st.integers(1, 5), min_size=1, max_size=3).map(lambda o: ",".join(map(str, o))),
    st.sampled_from(["", "0", "-2", "2,,2", "a", "16", "2,2,2,2"]),
)


@st.composite
def _argv(draw):
    common = [
        "--group",
        draw(_GROUPS),
        "--max-group-order",
        str(16 - draw(st.integers(0, 15))),  # mostly 16, so that groups pass
        "--max-degree",
        str(draw(st.integers(0, 6))),
    ]
    if draw(st.booleans()):
        a = draw(st.integers(-4, 6))
        b = draw(st.one_of(st.integers(a, a + 3).map(str), st.sampled_from(["", "x", "-9"])))
        argv = ["compute", "--module", draw(_modules()), "--degrees", f"{a}..{b}"]
        argv += ["--resolution", draw(st.sampled_from(["minimal", "bar"]))]
        if draw(st.booleans()):
            argv.append("--representatives")
    else:
        # mostly valid cases, so that the module check is reached
        h2 = ("trivial-H2", "dual-cyclo-H2")
        cases = st.sampled_from(h2 * 3 + GENERATOR_CASES + ("junk",))
        argv = ["factor-set", "--case", draw(cases)]
        argv += ["--indices", draw(st.sampled_from(["1", "1", "1", "2", "1,2", "", "x"]))]
        if draw(st.integers(0, 3)) < 3:
            argv += ["--module", draw(_modules())]
    argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    return argv + common


@settings(
    max_examples=120, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(_argv())
def test_cli_error_contract_fuzz(argv):
    _assert_error_contract(argv)


def _assert_error_contract(argv):
    # in-process, so a traceback surfaces as the exception itself
    with mock.patch.dict(os.environ, {"COHOMOLAB_MAX_CELLS": "3000"}):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_CAP), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@st.composite
def _bench_argv(draw):
    return [
        "bench",
        "--group",
        draw(_GROUPS),
        "--max-group-order",
        str(16 - draw(st.integers(0, 15))),
        "--max-degree",
        str(draw(st.integers(-2, 8))),
        "--format",
        draw(st.sampled_from(["text", "json"])),
    ]


@settings(
    max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(_bench_argv())
def test_cli_bench_error_contract_fuzz(argv):
    _assert_error_contract(argv)


@st.composite
def _verify_argv(draw):
    # a failed check (exit 4) stays outside the contract: it is a real fault
    return [
        "verify",
        "--suite",
        draw(st.sampled_from(("all",) + SUITE_NAMES)),
        "--max-group-order",
        str(draw(st.integers(-2, 16))),
        "--max-degree",
        str(draw(st.integers(-2, 8))),
        "--format",
        draw(st.sampled_from(["text", "json"])),
    ]


@settings(
    max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(_verify_argv())
def test_cli_verify_error_contract_fuzz(argv):
    _assert_error_contract(argv)
