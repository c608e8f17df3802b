from cohomolab import engine, verify
from cohomolab.engine import homology
from cohomolab.group_ring import GroupSpec
from cohomolab.resolutions import monomial_basis
from cohomolab.verify import (
    CAPPED,
    EXPECTED_FLAGGED,
    FAIL,
    PASS,
    CheckResult,
    _regular_module,
    duality_suite,
    resolution_suite,
    run_suite,
    sigma_suite,
)

import pytest


def test_check_result_ok():
    assert CheckResult("x", PASS).ok
    assert CheckResult("x", CAPPED).ok
    assert CheckResult("x", EXPECTED_FLAGGED).ok
    assert not CheckResult("x", FAIL).ok


def test_regular_module_shape():
    G = GroupSpec.of(2, 3)
    R = _regular_module(G)
    assert R.rank == 6 and R.is_lattice
    for A in R.actions:
        assert sorted(sum(row) for row in A.data) == [1] * 6  # permutation matrix
    h0 = homology(R, 0).invariants
    assert (h0.free_rank, h0.torsion) == (1, ())
    assert homology(R, 1).invariants.as_list() == []


_GROUP_NAMES = ["2", "4", "2,2", "2,4", "3,3", "2,2,2", "2,2,4", "2,3"]


def _triples(results):
    return [(r.name, r.status, r.detail) for r in results]


def _suite_green():
    """The full all-PASS output of the resolution suite, check by check; the
    bar squares stop at order 9."""
    want = []
    for g in _GROUP_NAMES:
        want.append((f"resolution/minimal-squares/{g}", PASS, "d.d = 0 for n <= 5"))
        if g != "2,2,4":
            want.append((f"resolution/bar-squares/{g}", PASS, "d.d = 0 for n <= 2"))
    return want + [
        (f"resolution/regular-exactness/{g}", PASS, "H_0 = Z, H_1..H_4 = 0") for g in _GROUP_NAMES
    ]


def test_resolution_suite_green():
    results = resolution_suite()
    assert results and all(r.status == PASS for r in results)
    names = {r.name for r in results}
    assert "resolution/regular-exactness/2,2,4" in names
    assert _triples(results) == _suite_green()


_SIGMA_NAMES = ["2,2", "2,4", "3,3", "2,2,2", "2,2,4", "2,2,2,2"]


def test_sigma_suite_green():
    results = sigma_suite()
    assert all(r.status == PASS for r in results)
    assert _triples(results) == [
        (f"sigma/chain-map/{g}", PASS, "degree-1 and degree-2 identities hold")
        for g in _SIGMA_NAMES
    ]


def _negated(blk):
    return [[(u, -c) for u, c in row] for row in blk]


def _flip_first_face(monkeypatch, source):
    """Negate the block of the first face of monomial source
    ``source(M, m, dual)`` (None: no source) in every monomial leg the
    engine reads, through its one row builder: at source j's rows and
    target k's columns of a plain leg, the other way round in a dual or
    transposed one, and back again in a transposed dual one."""
    real = engine._minimal_rows

    def flipped(M, m, dual, transpose):
        rows = real(M, m, dual, transpose)
        j = source(M, m, dual)
        if j is not None:
            d = M.rank
            k = engine._monomial_skeleton(M.spec.ngens, m)[0][j][0][0]
            r, c = (k, j) if dual != transpose else (j, k)
            for row in rows[r * d : (r + 1) * d]:
                for u in range(c * d, (c + 1) * d):
                    if u in row:
                        row[u] = -row[u]
        return rows

    monkeypatch.setattr(engine, "_minimal_rows", flipped)


def test_resolution_suite_fails_on_a_flipped_minimal_block(monkeypatch):
    # x_1 x_2 meets x_2 through -(A_1 - I) instead of A_1 - I, so d.d no
    # longer vanishes on either side of degree 2; one generator has no such
    # monomial.  The dual legs of the exactness check's homology stay intact
    _flip_first_face(
        monkeypatch, lambda M, m, dual: 1 if m == 2 and M.spec.ngens > 1 and not dual else None
    )
    squares = {r.name: (r.status, r.detail) for r in resolution_suite() if "squares" in r.name}
    assert squares["resolution/minimal-squares/2"] == (PASS, "d.d = 0 for n <= 5")
    for g in _GROUP_NAMES[2:]:
        want = (FAIL, "nonzero d.d at degrees [1, 2]")
        assert squares[f"resolution/minimal-squares/{g}"] == want, g
    assert all(squares[f"resolution/bar-squares/{g}"][0] == PASS for g in ["2", "2,2", "3,3"])


def test_regular_exactness_reports_a_broken_dual_leg_as_fail(monkeypatch):
    # the first block of the first two-face source of the dual degree-2 leg
    # over (2,2,2), negated: the homology of the regular module then fails
    # the engine's own cocycle check, which the suite reports instead of
    # stopping
    table = engine._monomial_skeleton(3, 2)[0]
    j = next(j for j, faces in enumerate(table) if len(faces) == 2)
    _flip_first_face(
        monkeypatch, lambda M, m, dual: j if m == 2 and dual and M.spec.orders == (2, 2, 2) else None
    )
    name = "resolution/regular-exactness/2,2,2"
    detail = "H_1: extracted degree-1 representative is not a cocycle"
    want = [(n, FAIL, detail) if n == name else (n, s, d) for n, s, d in _suite_green()]
    assert _triples(resolution_suite()) == want


def test_sigma_suite_fails_on_a_flipped_mixed_block(monkeypatch):
    # sigma_2 with the sign of its x_j x_i blocks (j < i) flipped is no
    # longer a chain map in degree 2; degree 1 is untouched
    real = verify._sigma_faces

    def flipped(M, m):
        sources = real(M, m)
        if m == 2:
            mixed = {
                k for k, mono in enumerate(monomial_basis(M.spec.ngens, 2)) if max(mono) == 1
            }
            sources = [
                [(k, _negated(blk) if k in mixed else blk) for k, blk in pairs]
                for pairs in sources
            ]
        return sources

    monkeypatch.setattr(verify, "_sigma_faces", flipped)
    assert _triples(sigma_suite()) == [
        (f"sigma/chain-map/{g}", FAIL, "degree 1 ok, degree 2 BROKEN") for g in _SIGMA_NAMES
    ]


def test_duality_suite_green():
    results = duality_suite()
    assert results and all(r.status == PASS for r in results)


def test_run_suite_dispatch():
    assert run_suite("sigma") == sigma_suite()
    with pytest.raises(ValueError):
        run_suite("everything")
