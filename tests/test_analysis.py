"""One analysis per (polytope, cap): every invariant is computed once."""

import json
from collections import Counter

import pytest

from polyfan import analysis, ihsheaf, linalg, polytopes
from polyfan.analysis import Analysis
from polyfan.cli import main, polytope_to_json
from polyfan.corpus import nonsimplicial_cs_3polytope
from polyfan.polynomials import coeff
from polyfan.polytopes import Polytope, cross_polytope, cube, random_cs, simplex
from polyfan.reports import bounds_report, ih_report
from polyfan.scalars import Field, Quadratic

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
    # The halves are computed directly: the reflection's matrix on the
    # unfolded sections is never built.
    assert "_involution_on_basis" not in calls
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
    """The halves of each degree are built once, and together they are
    as large as the oracle's reflection matrices on the unfolded
    sections and on their quotient."""
    mes = Analysis(cube(2)).sheaf
    for q in range(0, mes.cap + 1, 2):
        halves = mes.global_data(q)
        assert mes.global_data(q) is halves
        assert set(halves) == {1, -1}
        c, cbar = oracles.reflection_matrices(mes, q)
        assert len(c) == sum(len(h["sections"].free_cols) for h in halves.values())
        assert len(cbar) == sum(len(h["complement"]) for h in halves.values())


@pytest.fixture(scope="module")
def oracle_inputs(sheaf_analyses, quadratic_image):
    """The rational sheaf-corpus analyses at cap 8 (the prism over the
    diamond among them) and the Q(sqrt 2) and Q(sqrt 3) images of
    cross(3) and cube(3)."""
    inputs = [(n, a) for n, a in sheaf_analyses.items() if n != "nonrational-bipyramid"]
    for name, p in (("cross-3", cross_polytope(3)), ("cube-3", cube(3))):
        for d in (2, 3):
            inputs.append((f"sqrt{d}-{name}", Analysis(quadratic_image(p, d), 8)))
    return inputs


def test_minus_basis_is_shared_and_cached_per_degree(oracle_inputs):
    """The refined series and the minus table read one minus half per
    degree, whose quotient is as large as the oracle's minus basis, the
    kernel of Cbar + I on the unfolded quotient."""
    for name, a in oracle_inputs:
        mes = a.sheaf
        minus = {q: mes.global_data(q)[-1] for q in range(0, mes.cap + 1, 2)}
        u_minus = a.refined[0].minus
        assert a.minus_table
        for q, half in minus.items():
            assert mes.global_data(q)[-1] is half
            assert len(half["complement"]) == len(oracles.minus_basis(mes, q)), (name, q)
            assert len(half["complement"]) == coeff(u_minus, q), (name, q)


def test_reflection_and_lefschetz_ranks_match_the_dense_oracle(oracle_inputs):
    """The full-space path of the oracle (the reflection's matrices on
    the unfolded sections, the dense ranks of C +- I and Cbar +- I, and
    the Lefschetz tables through the full matrices) gives the halves'
    dimensions and both rank tables that the folded path reports."""
    for name, a in oracle_inputs:
        mes = a.sheaf
        u_ref, v_ref = a.refined
        for q in range(0, a.cap + 1, 2):
            c, cbar = oracles.reflection_matrices(mes, q)
            assert oracles.eigen_dims(c) == (coeff(v_ref.plus, q), coeff(v_ref.minus, q)), (name, q)
            assert oracles.eigen_dims(cbar) == (coeff(u_ref.plus, q), coeff(u_ref.minus, q)), (name, q)
        table, minus = oracles.lefschetz_tables(mes, oracles.lefschetz_matrices(mes, a.support))
        assert table == a.rank_table, name
        assert minus == a.minus_table, name


def test_ih_report_builds_two_folded_kernels_per_degree(monkeypatch):
    """On cube(3) the report builds no kernel over all maximal cones: per
    degree exactly two folded kernels, each over half the columns."""
    builds = []
    widths = []
    integral_kernel = linalg.integral_kernel
    section_space = ihsheaf.MinimalExtensionSheaf.section_space

    def kernel(rows, ncols, d):
        widths.append(ncols)
        return integral_kernel(rows, ncols, d)

    def space(mes, max_ids, q, parity=None):
        before = len(widths)
        out = section_space(mes, max_ids, q, parity)
        if len(widths) > before:
            builds.append((max_ids, q, parity, widths[-1]))
        return out

    monkeypatch.setattr(linalg, "integral_kernel", kernel)
    monkeypatch.setattr(ihsheaf.MinimalExtensionSheaf, "section_space", space)
    a = Analysis(cube(3))
    assert all(ih_report(a, Field.rational())["checks"].values())
    mes, max_ids = a.sheaf, a.fan.maximal_ids
    assert not [b for b in builds if b[0] == max_ids]
    folded = [b for b in builds if b[2] is not None]
    assert sorted((q, parity) for _, q, parity, _ in folded) == [
        (q, parity) for q in range(0, a.cap + 1, 2) for parity in (-1, 1)
    ]
    for reps, q, _, width in folded:
        assert reps == mes.representatives
        assert 2 * width == mes.section_layout(max_ids, q)[1]


@pytest.mark.parametrize("name", ["cube-3", "sqrt2-cube-3", "random-cs-3d-p4-s3"])
def test_ih_report_builds_each_degree_once(name, quadratic_image, monkeypatch):
    """The sheaf keeps no section space, so its loops carry each degree's
    sections to the next: during ih_report each half of the global
    sections is built once per degree and each constructed cone's
    boundary once per degree.  Only the zero cone's boundary, which all
    rays share, is built again: once per constructed ray and degree.  A
    transported cone builds none.  cube(3)'s rays are one orbit of its
    symmetries, so one ray is constructed there; the first nonsimplicial
    random_cs(3, 4) draw has several ray orbits."""
    builds, constructed = Counter(), []
    section_space, construct = ihsheaf.MinimalExtensionSheaf.section_space, ihsheaf._construct_module

    def space(mes, max_ids, q, parity=None):
        builds[max_ids, q, parity] += 1
        return section_space(mes, max_ids, q, parity)

    def module(mes, sid):
        constructed.append(sid)
        return construct(mes, sid)

    monkeypatch.setattr(ihsheaf.MinimalExtensionSheaf, "section_space", space)
    monkeypatch.setattr(ihsheaf, "_construct_module", module)
    a = Analysis({
        "cube-3": cube(3),
        "sqrt2-cube-3": quadratic_image(cube(3), 2),
        "random-cs-3d-p4-s3": random_cs(3, 4, 3),
    }[name])
    assert all(ih_report(a, Field.rational() if a.fan.radicand is None else Field.quadratic(2))["checks"].values())
    fan, mes = a.fan, a.sheaf
    degrees = range(0, mes.cap + 1, 2)
    rays = sum(fan.cones[sid].dim == 1 for sid in constructed)
    expected = Counter({(mes.representatives, q, p): 1 for q in degrees for p in (1, -1)})
    for sid in constructed:
        facets = fan.facets_of(sid)
        for q in degrees:
            expected[facets, q, None] = rays if facets == (fan.zero_id,) else 1
    assert builds == expected
    assert rays > 1 if name.startswith("random") else rays == 1


@pytest.mark.parametrize("name", ["cube-3", "prism-over-diamond", "sqrt2-cube-3"])
def test_ih_report_builds_no_scalar(name, quadratic_image, count_scalars, monkeypatch):
    """Once the face fan and the support function are built, ih_report,
    the polytope's symmetry and the fan's antipode map included, runs on
    integral rows alone: it constructs no Fraction and no Quadratic, over
    Q and over Q(sqrt 2)."""
    polytope = {
        "cube-3": cube(3),
        "prism-over-diamond": nonsimplicial_cs_3polytope(),
        "sqrt2-cube-3": quadratic_image(cube(3), 2),
    }[name]
    a = Analysis(polytope, 8)
    assert a.support
    built = count_scalars()
    report = ih_report(a, Field.rational() if a.fan.radicand is None else Field.quadratic(2))
    monkeypatch.undo()
    assert all(report["checks"].values())
    assert not built, built


def test_translated_input_keeps_its_shift():
    a = Analysis(cube(2).translate((3, 0)))
    assert a.translation == (-3, 0)
    assert a.polytope.origin_is_interior()
    assert a.is_centrally_symmetric
    assert a.h == (1, 2, 1)


@pytest.mark.parametrize("name", ["cube-3", "sqrt3-diamond"])
def test_translated_input_builds_one_face_lattice(name, monkeypatch):
    """A translation keeps every face, so an analysis of a polytope whose
    origin is not interior builds one face lattice and the translate
    takes it with the facet rays of its own rows; the Q(sqrt 3) diamond's
    translate is rational.  That lattice equals a fresh build."""
    x = Quadratic(4, 1, 3)
    p = {
        "cube-3": cube(3).translate((3, 0, 0)),
        "sqrt3-diamond": Polytope([(x - 1, 0), (x + 1, 0), (x, 1), (x, -1)]),
    }[name]
    calls = Counter()
    build = polytopes._lattice_from_facets

    def counted(*args):
        calls["lattice"] += 1
        return build(*args)

    monkeypatch.setattr(polytopes, "_lattice_from_facets", counted)
    a = Analysis(p)
    assert a.translation is not None and a.polytope.origin_is_interior()
    assert a.is_centrally_symmetric and a.h
    assert calls["lattice"] == 1
    monkeypatch.undo()
    assert a.polytope.face_lattice() == Polytope(a.polytope.vertices).face_lattice()


def test_degree_cap_is_checked_when_the_sheaf_is_built():
    a = Analysis(cube(2), 3)
    assert a.h == (1, 2, 1)
    with pytest.raises(ihsheaf.DegreeCapError):
        a.sheaf
