import json

import pytest

from cohomolab.cli import EXIT_CAP, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main


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


def test_cell_cap_binds_on_cokernel_torsion_image(capsys, monkeypatch):
    # rank 60 takes the cokernel-torsion route, whose 180 x 120 image
    # matrix is over the cap even though no kernel is ever assembled
    monkeypatch.setenv("COHOMOLAB_MAX_CELLS", "1000")
    code, _, err = run(
        capsys, "compute", "--group", "2,2", "--module", "trivial:60", "--degrees", "2..2"
    )
    assert code == EXIT_CAP and "180 x 120" in err


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


# ---------------------------------------------------------------------------
# factor-set


def test_factor_set_cyclic_two(capsys):
    payload = run_json(
        capsys, "factor-set", "--group", "2", "--case", "trivial-H2", "--indices", "1"
    )
    assert payload["elements"] == [[0], [1]]
    assert payload["table"] == [[[0], [0]], [[0], [1]]]  # f(a,a)=1, rest 0
    assert payload["class_order"] == 2


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


def test_verify_sigma_suite(capsys):
    payload = run_json(capsys, "verify", "--suite", "sigma")
    assert payload["counts"] == {"PASS": 6}
    names = {c["name"] for c in payload["checks"]}
    assert "sigma/chain-map/2,2,4" in names
    assert "sigma/chain-map/2,2,2,2" in names  # one rank beyond the hand-checked cases


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


def test_bench_two_by_four(capsys):
    payload = run_json(capsys, "bench", "--group", "2,4", "--max-degree", "2")
    rows = {r["degree"]: r for r in payload["results"]}
    assert rows[2]["minimal_size"] == 3
    assert rows[2]["bar_size"] == 49
    assert rows[0]["minimal_size"] == rows[0]["bar_size"] == 1
