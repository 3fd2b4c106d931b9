"""One analysis per (polytope, cap): every invariant is computed once."""

import json
from collections import Counter

import pytest

from polyfan import analysis, ihsheaf, linalg
from polyfan.analysis import Analysis
from polyfan.cli import main, polytope_to_json
from polyfan.corpus import nonsimplicial_cs_3polytope
from polyfan.polynomials import coeff
from polyfan.polytopes import cross_polytope, cube, simplex
from polyfan.reports import bounds_report, ih_report
from polyfan.scalars import Field

import oracles

COUNTED = (
    (ihsheaf, "build_mes"),
    (ihsheaf, "ih_poincare"),
    (ihsheaf, "sections_poincare"),
    (ihsheaf, "refined_series"),
    (ihsheaf, "lefschetz_maps"),
    (ihsheaf, "minus_lefschetz_table"),
    (ihsheaf, "_involution_on_basis"),
    (analysis, "face_fan"),
    (analysis, "h_polynomial"),
    (analysis, "support_function"),
)


@pytest.fixture
def calls(monkeypatch):
    """Count calls of each layer entry point by name."""
    counts = Counter()
    for owner, name in COUNTED:
        original = getattr(owner, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return counts


def test_ih_report_computes_each_invariant_once(calls):
    a = Analysis(nonsimplicial_cs_3polytope())
    report = ih_report(a, Field.rational())
    bounds_report(a, Field.rational())
    assert all(report["checks"].values())
    even_degrees = a.cap // 2 + 1
    assert calls.pop("_involution_on_basis") == even_degrees
    assert set(calls.values()) == {1}
    assert len(calls) == len(COUNTED) - 1


def test_non_symmetric_report_skips_the_reflection(calls):
    report = ih_report(Analysis(simplex(2)), Field.rational())
    assert "refined_factorization" not in report["checks"]
    assert calls["refined_series"] == calls["_involution_on_basis"] == 0
    assert calls["lefschetz_maps"] == 1


def test_report_all_builds_one_face_fan_per_file(calls, capsys, tmp_path):
    for name, p in (("cube2", cube(2)), ("simplex2", simplex(2))):
        doc = polytope_to_json(p, Field.rational(), name)
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    assert main(["report-all", str(tmp_path), "--json"]) == 0
    capsys.readouterr()
    assert calls["face_fan"] == calls["h_polynomial"] == calls["build_mes"] == 2


def test_reflection_is_cached_per_degree():
    mes = Analysis(cube(2)).sheaf
    for q in range(0, mes.cap + 1, 2):
        c, cbar = mes.reflection(q)
        assert mes.reflection(q)[0] is c
        assert len(c) == len(mes.global_data(q)["sections"].basis)
        assert len(cbar) == len(mes.global_data(q)["complement"])


@pytest.fixture(scope="module")
def oracle_inputs(sheaf_analyses, quadratic_image):
    """The rational sheaf-corpus analyses at cap 8 and the Q(sqrt 2) and
    Q(sqrt 3) images of cross(3)."""
    inputs = [(n, a) for n, a in sheaf_analyses.items() if n != "nonrational-bipyramid"]
    for d in (2, 3):
        inputs.append((f"sqrt{d}-cross-3", Analysis(quadratic_image(cross_polytope(3), d), 8)))
    return inputs


def _dense(columns, nrows: int):
    """The dense matrix with the given sparse columns."""
    return linalg.mat([[col.get(i, 0) for col in columns] for i in range(nrows)])


def _shift(matrix, s: int):
    return linalg.mat(
        [[x + s if i == j else x for j, x in enumerate(row)] for i, row in enumerate(matrix)]
    )


def test_minus_basis_is_shared_and_cached_per_degree(oracle_inputs):
    """The refined series and the minus table read one minus basis per
    degree: the kernel basis of cbar + I, equal to the dense oracle's."""
    for name, a in oracle_inputs:
        u_minus = a.refined[0].minus
        assert a.minus_table
        mes = a.sheaf
        for q in range(0, mes.cap + 1, 2):
            basis = mes.minus_basis(q).basis
            assert mes.minus_basis(q).basis is basis
            _, cbar = mes.reflection(q)
            k = len(cbar)
            expected = oracles.kernel_basis(_shift(_dense(cbar, k), 1), k)
            densified = tuple(tuple(v.get(i, 0) for i in range(k)) for v in basis)
            assert densified == expected, (name, q)
            assert len(basis) == coeff(u_minus, q), (name, q)


def test_reflection_and_lefschetz_ranks_match_the_dense_oracle(oracle_inputs):
    """Densified reflection and Lefschetz matrices, ranked by the dense
    elimination, give the dimensions and ranks the sparse path reports."""
    for name, a in oracle_inputs:
        mes = a.sheaf
        u_ref, v_ref = a.refined
        for q in range(0, a.cap + 1, 2):
            c, cbar = mes.reflection(q)
            for matrix, ref in ((c, v_ref), (cbar, u_ref)):
                dense = _dense(matrix, len(matrix))
                for s, dims in ((-1, ref.plus), (1, ref.minus)):
                    kernel = len(matrix) - oracles.rank(_shift(dense, s))
                    assert kernel == coeff(dims, q), (name, q, s)
        for q, matrix in a.lefschetz_maps.items():
            dense = _dense(matrix, len(mes.global_data(q + 2)["complement"]))
            assert oracles.rank(dense) == a.rank_table[q][2], (name, q)
            _, cbar = mes.reflection(q)
            minus = oracles.kernel_basis(_shift(_dense(cbar, len(cbar)), 1), len(cbar))
            images = [linalg.mat_vec(dense, v) for v in minus]
            rank = oracles.rank(images)
            assert rank == a.minus_table[q][2], (name, q)


def test_translated_input_keeps_its_shift():
    a = Analysis(cube(2).translate((3, 0)))
    assert a.translation == (-3, 0)
    assert a.polytope.origin_is_interior()
    assert a.is_centrally_symmetric
    assert a.h == (1, 2, 1)


def test_degree_cap_is_checked_when_the_sheaf_is_built():
    a = Analysis(cube(2), 3)
    assert a.h == (1, 2, 1)
    with pytest.raises(ihsheaf.DegreeCapError):
        a.sheaf
