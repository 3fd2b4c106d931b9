"""One analysis per (polytope, cap): every invariant is computed once."""

import json
from collections import Counter

import pytest

from polyfan import analysis, ihsheaf, linalg
from polyfan.analysis import Analysis
from polyfan.cli import main, polytope_to_json
from polyfan.corpus import nonsimplicial_cs_3polytope
from polyfan.polytopes import cube, simplex
from polyfan.reports import bounds_report, ih_report
from polyfan.scalars import Field

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
        assert len(c) == len(mes.global_data(q)["basis"])
        assert len(cbar) == len(mes.global_data(q)["complement"])


def test_minus_basis_is_shared_and_cached_per_degree():
    """The refined series and the minus table read one minus basis per
    degree: the kernel basis of cbar + I."""
    a = Analysis(nonsimplicial_cs_3polytope(), 8)
    u_minus = a.refined[0].minus
    assert a.minus_table
    mes = a.sheaf
    for q in range(0, mes.cap + 1, 2):
        basis = mes.minus_basis(q)
        assert mes.minus_basis(q) is basis
        _, cbar = mes.reflection(q)
        shifted = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(cbar)]
        assert basis == linalg.kernel_basis(linalg.mat(shifted))
        assert len(basis) == (u_minus[q] if q < len(u_minus) else 0)


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
