import ast
import copy
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import polyfan
from polyfan import fans, hvector, ihsheaf, linalg
from polyfan.analysis import Analysis
from polyfan.checks import ih_checks
from polyfan.corpus import nonrational_cs_polytope, nonsimplicial_cs_3polytope, sheaf_corpus
from polyfan.fans import ConewiseLinear, FanError, face_fan, support_function
from polyfan.hvector import check_cs_bounds, g_polynomial, h_polynomial
from polyfan.ihsheaf import (
    DegreeCapError,
    SheafError,
    _involution_on_basis,
    build_mes,
    check_minimal_extension_axioms,
    ih_poincare,
    kernel_dimensions,
    lefschetz_maps,
    lefschetz_rank_table,
    minus_lefschetz_table,
    monomials,
    refined_series,
    sections_poincare,
)
from polyfan.polynomials import coeff, substitute_t_squared
from polyfan.polytopes import cross_polytope, cube, free_sum, linear_image, product, random_cs, simplex
from polyfan.reports import ih_report, report_passes
from polyfan.scalars import Field, Quadratic

import oracles
from oracles import from_simplicial_cones, restriction_matrix as dense_restriction_matrix

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyfan"


def F(x):
    return Fraction(x)


class TestMonomials:
    def test_counts(self):
        assert len(monomials(3, 2)) == 6
        assert monomials(0, 0) == ((),)
        assert monomials(0, 3) == ()

    def test_order_deterministic(self):
        assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))


class TestConstruction:
    def test_zero_cone_single_generator(self, sheaf_setups):
        _, fan, mes, _ = sheaf_setups["cube-3"]
        assert mes.modules[fan.zero_id].gen_degrees == (0,)

    def test_simplicial_cones_have_one_generator(self, sheaf_setups):
        _, fan, mes, _ = sheaf_setups["cross-3"]
        for cid in fan.cone_ids():
            assert mes.modules[cid].gen_degrees == (0,)

    def test_square_cone_generators(self, sheaf_setups):
        _, fan, mes, _ = sheaf_setups["cube-3"]
        for cid in fan.cones_of_dim(3):
            assert mes.modules[cid].gen_degrees == (0, 2)

    def test_generator_degrees_match_g(self, sheaf_setups):
        # The generator multiset of each cone matches g(t^2).
        for name in ("cube-3", "prism-over-diamond", "nonrational-bipyramid"):
            _, fan, mes, _ = sheaf_setups[name]
            for cid in fan.cone_ids():
                g = g_polynomial(fan, cid)
                expected = []
                for degree, count in enumerate(g):
                    expected.extend([2 * degree] * count)
                assert list(mes.modules[cid].gen_degrees) == expected, (name, cid)

    def test_generator_degrees_disagreeing_with_g_are_rejected(self, monkeypatch):
        fan = face_fan(cube(3))
        cid = next(c for c in fan.cones_of_dim(3) if not fan.is_simplicial_cone(c))
        true_g = hvector.g_polynomial
        # The true g of a square cone is 1 + x.
        monkeypatch.setattr(
            hvector, "g_polynomial", lambda f, c: (1,) if c == cid else true_g(f, c)
        )
        with pytest.raises(SheafError, match=rf"^cone {cid}: 1 generators in degree 2"):
            build_mes(fan)

    def test_axiom_quotient_iso(self, sheaf_setups):
        # Reduction of the boundary restriction is an isomorphism mod m:
        # generator count per degree equals the boundary quotient dim.
        _, fan, mes, _ = sheaf_setups["cube-3"]
        for cid in fan.cone_ids():
            if cid == fan.zero_id:
                continue
            facets = fan.facets_of(cid)
            k = fan.cones[cid].dim
            for q in range(0, mes.cap + 2, 2):
                sections = mes.section_space(facets, q)
                dim = len(sections.free_cols)
                gens_at_q = sum(
                    1 for d in mes.modules[cid].gen_degrees if d == q
                )
                if q < 2:
                    m_dim = 0
                else:
                    prev = oracles.basis_vectors(mes.section_space(facets, q - 2))
                    products = []
                    for vec in prev:
                        for i in range(k):
                            products.append(
                                oracles.multiply_conewise(
                                    mes,
                                    facets,
                                    q - 2,
                                    vec,
                                    tuple(
                                        oracles.substitution_forms(mes, cid, f)[i]
                                        for f in facets
                                    ),
                                )
                            )
                    coords = [
                        oracles.basis_coords(sections, p) for p in products
                    ]
                    m_dim = linalg.rank(_dense(coords, dim)) if coords else 0
                assert gens_at_q == dim - m_dim

    def test_degree_cap_errors(self):
        fan = face_fan(cube(2))
        with pytest.raises(DegreeCapError):
            build_mes(fan, 3)
        with pytest.raises(DegreeCapError):
            build_mes(fan, 2)


class TestSections:
    def test_wall_mode_needs_equidimensional_cones(self):
        fan = face_fan(cube(2))
        mes = build_mes(fan)
        square, ray = fan.maximal_ids[0], fan.cones_of_dim(1)[0]
        with pytest.raises(SheafError, match="equidimensional"):
            mes.section_space((square, ray), 2)

    def test_wall_mode_rejects_a_wall_of_three_cones(self):
        # Three 2-cones on the ray (1, 0): no fan of a polytope, but each
        # cone is simplicial, so the sheaf builds.
        rays = [(F(1), F(0)), (F(0), F(1)), (F(0), F(-1)), (F(1), F(1))]
        fan = from_simplicial_cones(2, rays, [(0, 1), (0, 2), (0, 3)])
        mes = build_mes(fan, 4)
        with pytest.raises(SheafError, match="more than two cones"):
            mes.section_space(fan.maximal_ids, 2)

    def test_one_dim_fan(self):
        fan = face_fan(cube(1))
        mes = build_mes(fan)
        v = sections_poincare(mes)
        assert coeff(v, 0) == 1
        assert coeff(v, 2) == 2

    def test_cross2_conewise_linear(self, sheaf_setups):
        _, _, mes, _ = sheaf_setups["cross-2"]
        assert coeff(sections_poincare(mes), 2) == 4

    def test_constants_one_dimensional(self, sheaf_setups):
        for name, (_, _, mes, _) in sheaf_setups.items():
            assert coeff(sections_poincare(mes), 0) == 1, name


class TestPoincare:
    def test_cross3_betti(self, sheaf_setups):
        _, _, mes, _ = sheaf_setups["cross-3"]
        assert ih_poincare(mes) == (1, 0, 3, 0, 3, 0, 1)

    def test_cube3_betti(self, sheaf_setups):
        _, _, mes, _ = sheaf_setups["cube-3"]
        assert ih_poincare(mes) == (1, 0, 5, 0, 5, 0, 1)

    def test_betti_equals_h_everywhere(self, sheaf_analyses):
        for name, a in sheaf_analyses.items():
            assert a.u == substitute_t_squared(h_polynomial(a.fan)), name
            assert ih_checks(a)["betti_equals_h"], name

    def test_verify_entry_point(self):
        a = Analysis(simplex(2))
        assert a.u == substitute_t_squared(h_polynomial(a.fan))
        assert ih_checks(a)["betti_equals_h"]

    def test_freeness_factorization(self, sheaf_analyses):
        for name, a in sheaf_analyses.items():
            assert ih_checks(a)["freeness_factorization"], name


class TestKernels:
    def test_zero_cone_kernel(self, sheaf_setups):
        _, fan, mes, _ = sheaf_setups["cube-2"]
        assert kernel_dimensions(mes)[fan.zero_id] == (1,)

    def test_ray_kernel(self, sheaf_setups):
        _, fan, mes, _ = sheaf_setups["cube-2"]
        ray = fan.cones_of_dim(1)[0]
        dims = kernel_dimensions(mes)[ray]
        for q in range(2, mes.cap + 1, 2):
            assert coeff(dims, q) == 1
        assert coeff(dims, 0) == 0

    def test_local_global_consistency(self, sheaf_setups):
        for name in ("cube-2", "cross-2", "cube-3"):
            _, fan, mes, _ = sheaf_setups[name]
            # Full fan, all skeleta, and all single-cone star subfans.
            assert oracles.check_local_global_dims(mes, fan.cone_ids()), name
            for k in range(fan.dim):
                ids = [c for c in fan.cone_ids() if fan.cones[c].dim <= k]
                assert oracles.check_local_global_dims(mes, ids), (name, k)
            for cid in fan.cone_ids():
                ids = oracles.faces_below(fan, cid) | {cid}
                assert oracles.check_local_global_dims(mes, ids), (name, cid)


class TestReflection:
    def test_refined_series_cross3(self, sheaf_setups):
        _, _, mes, _ = sheaf_setups["cross-3"]
        u_ref, _ = refined_series(mes)
        assert u_ref.minus == ()  # cross-polytope: no minus part

    def test_refined_series_cube3(self, sheaf_setups):
        _, _, mes, _ = sheaf_setups["cube-3"]
        u_ref, _ = refined_series(mes)
        assert u_ref.plus == (1, 0, 4, 0, 4, 0, 1)
        assert u_ref.minus == (0, 0, 1, 0, 1)

    def test_identities(self, sheaf_analyses):
        for name, a in sheaf_analyses.items():
            checks = ih_checks(a)
            assert checks["refined_splitting"], name
            assert checks["refined_factorization"], name
            assert checks["minus_part_formula"], name

    def test_eigen_split_rejects_a_non_involution(self):
        # The shear e_1 -> e_0 + e_1, as sparse columns: its +1 eigenspace
        # is the line of e_0 and it has no -1 eigenvector, so the oracle's
        # two eigenspaces do not fill the plane.
        shear = ({0: F(1)}, {0: F(1), 1: F(1)})
        with pytest.raises(ValueError, match="not an involution"):
            oracles.eigen_dims(shear)

    def test_product_leaving_its_half_is_rejected(self, monkeypatch):
        # A kernel of E^- at degree 4 on cube(3), folded with the sign of
        # one coordinate of the last representative's antipode flipped, is
        # smaller than the minus half: some product of the other half at
        # degree 2 with a coordinate function leaves the degree-4 half so
        # folded, and the quotient's membership check refuses it.  The
        # sheaf keeps no section space, so the flip stays in place while
        # the global quotients are built.
        mes = build_mes(face_fan(cube(3)), 8)
        reps = mes.representatives
        half = len(build_mes(mes.fan, 8).section_space(reps, 4, -1).free_cols)
        _flip_folded_coordinate(monkeypatch, mes.antipode[reps[-1]], 4, 3)
        assert len(mes.section_space(reps, 4, -1).free_cols) < half
        with pytest.raises(SheafError, match=r"^global half [+-]1, degree 4: a product is not a section"):
            mes.global_data(4)

    def test_reduction_mod_m_needs_fully_reduced_rows(self):
        # A row of m*E that still has an entry at another pivot leaves
        # that pivot uncleared; the reduction must refuse the result.  The
        # rows and coordinates are integral.
        mes = build_mes(face_fan(cube(2)), 4)
        data = mes.global_data(2)[-1]
        p, other = list(data["m_rows"])[:2]
        rows = dict(data["m_rows"])
        rows[p] = {**rows[p], other: 1}
        mes._global[2] = {**mes.global_data(2), -1: {**data, "m_rows": rows}}
        with pytest.raises(SheafError, match="^global half -1, degree 2: reduction modulo m failed to clear pivots$"):
            mes.reduce_mod_m(2, {p: 1}, -1)

    def test_non_cs_fan_rejected(self):
        fan = face_fan(simplex(2))
        mes = build_mes(fan)
        with pytest.raises(Exception, match="symmetric"):
            refined_series(mes)


def _flip_folded_coordinate(monkeypatch, cid: int, q: int, c: int) -> None:
    """Negate column c of every degree-q restriction matrix from cone cid:
    folded onto its antipode's columns, coordinate c of its block then
    takes the wrong sign.  A sheaf built before keeps its folded rows."""
    restriction_matrix = ihsheaf.MinimalExtensionSheaf.restriction_matrix

    def flipped(self, src_id, tgt_id, degree):
        rows, scale = restriction_matrix(self, src_id, tgt_id, degree)
        if (src_id, degree) == (cid, q):
            rows = tuple({k: -v if k == c else v for k, v in row.items()} for row in rows)
        return rows, scale

    monkeypatch.setattr(ihsheaf.MinimalExtensionSheaf, "restriction_matrix", flipped)


class TestLefschetz:
    def test_cube3_rank_pattern(self, sheaf_setups):
        _, _, mes, s = sheaf_setups["cube-3"]
        table = lefschetz_rank_table(mes, lefschetz_maps(mes, s))
        assert table == {0: (1, 5, 1), 2: (5, 5, 5), 4: (5, 1, 1), 6: (1, 0, 0)}

    def test_function_that_is_not_even_is_rejected(self):
        # A linear function is odd under the reflection, so multiplying by
        # it would not keep each half; only an even function is accepted.
        fan = face_fan(cube(2))
        linear = ConewiseLinear(fan, {cid: (F(1), F(0)) for cid in fan.maximal_ids})
        with pytest.raises(FanError, match="not even"):
            lefschetz_maps(build_mes(fan, 4), linear)

    def test_product_leaving_its_half_is_rejected(self, monkeypatch):
        # The minus half of cube(3) at degree 4 replaced by a scratch
        # kernel folded with the sign of coordinate 8 of the last
        # representative's antipode flipped (as in TestReflection), of the
        # same dimension and another span: the support function times the
        # lift of the minus class at degree 2 leaves it, and the
        # membership check of the product refuses it.
        a = Analysis(cube(3), 8)
        mes, reps = a.sheaf, a.sheaf.representatives
        scratch = build_mes(a.fan, 8)
        _flip_folded_coordinate(monkeypatch, mes.antipode[reps[-1]], 4, 8)
        broken = scratch.section_space(reps, 4, -1)
        monkeypatch.undo()
        halves = mes.global_data(4)
        assert broken.free_cols == halves[-1]["sections"].free_cols and broken != halves[-1]["sections"]
        assert len(mes.global_data(2)[-1]["complement"]) == 1
        mes._global[4] = {**halves, -1: {**halves[-1], "sections": broken}}
        with pytest.raises(SheafError, match="^global half -1, degree 2: a Lefschetz product is not a section of its half$"):
            lefschetz_maps(mes, a.support)

    def test_patterns_hold(self, sheaf_analyses):
        for name, a in sheaf_analyses.items():
            checks = ih_checks(a)
            assert checks["lefschetz_pattern"], name
            assert checks["minus_lefschetz_pattern"], name

    def test_map_leaving_the_minus_eigenspace_is_rejected(self, sheaf_setups):
        # In the oracle's full Lefschetz matrix, add a vector outside the
        # minus eigenspace of degree 4 (a unit vector at one of its pivot
        # columns) to a column that the minus eigenvector of degree 2 uses.
        _, _, mes, s = sheaf_setups["cube-3"]
        matrices = oracles.lefschetz_matrices(mes, s)
        assert oracles.lefschetz_tables(mes, matrices)
        (src,) = oracles.minus_basis(mes, 2)
        _, cbar = oracles.reflection_matrices(mes, 4)
        _, pivots = oracles.rref(oracles.shifted(oracles.dense(cbar, len(cbar)), 1))
        j = next(j for j, x in enumerate(src) if x)
        ncols, matrix = matrices[2]
        matrix = [list(row) for row in matrix]
        matrix[pivots[0]][j] += 1
        matrices[2] = (ncols, matrix)
        with pytest.raises(ValueError, match="does not preserve the minus eigenspace"):
            oracles.lefschetz_tables(mes, matrices)


class TestCSReport:
    """The lower-bound mechanism on a centrally symmetric polytope: the
    ih report's minus-eigenspace checks beside the h-vector bounds."""

    def test_cross3_zero_minus(self, sheaf_analyses):
        report = ih_report(sheaf_analyses["cross-3"], Field.rational())
        assert report["ih"]["eigen_minus"] == []
        assert report_passes(report)

    def test_cube3(self, sheaf_analyses):
        report = ih_report(sheaf_analyses["cube-3"], Field.rational())
        assert report["ih"]["eigen_minus"] == [0, 0, 1, 0, 1]
        assert report["checks"]["minus_dims_match_difference"]
        assert report["checks"]["minus_lefschetz_pattern"]
        assert report_passes(report)

    def test_random_cs_consistent_with_bounds(self):
        from polyfan.corpus import random_cs_family

        name, p = next(
            (nm, q) for nm, q in random_cs_family() if q.ambient_dim == 3
        )
        analysis = Analysis(p, 8)
        report = ih_report(analysis, Field.rational(), name)
        bounds = check_cs_bounds(p)
        assert report_passes(report)
        assert bounds.all_bounds_hold()
        assert analysis.bounds == bounds
        assert report["ih"]["betti"] == list(substitute_t_squared(bounds.h))


class TestAxioms:
    def test_axioms_hold_on_sheaf_corpus(self, sheaf_setups):
        from polyfan.ihsheaf import check_minimal_extension_axioms

        for name, (_, _, mes, _) in sheaf_setups.items():
            assert check_minimal_extension_axioms(mes), name


def _constructed(monkeypatch) -> list:
    """Patch ``_construct_module`` to record the cones it builds."""
    built, construct = [], ihsheaf._construct_module

    def module(mes, sid):
        built.append(sid)
        return construct(mes, sid)

    monkeypatch.setattr(ihsheaf, "_construct_module", module)
    return built


class TestOrbitTransport:
    """One cone per orbit of the fan's linear automorphisms is
    constructed; the others are transported and checked."""

    @pytest.mark.parametrize(
        "name, constructed",
        [("cube-3", 3), ("cross-4", 4), ("simplex-3", 3), ("prism", 3), ("sqrt2-cube-3", 3), ("cube-4", 7)],
    )
    def test_transported_sheaves_satisfy_the_axioms(self, name, constructed, quadratic_image, monkeypatch):
        """Every orbit is constructed once; cube(4)'s 4-cones have faces
        over squares with a degree-2 generator, so they are constructed
        once per antipodal pair (4) beside one cone per lower orbit."""
        p = {
            "cube-3": cube(3),
            "cross-4": cross_polytope(4),
            "simplex-3": simplex(3),
            "prism": nonsimplicial_cs_3polytope(),
            "sqrt2-cube-3": quadratic_image(cube(3), 2),
            "cube-4": cube(4),
        }[name]
        built = _constructed(monkeypatch)
        mes = build_mes(face_fan(p), 2 * p.ambient_dim + 2)
        assert len(built) == constructed
        assert not mes._restr  # the construction's matrices are dropped
        assert check_minimal_extension_axioms(mes)

    @pytest.mark.parametrize("name", ["cube-3", "cross-4", "sqrt2-cube-3"])
    def test_transported_modules_match_constructed_ones(self, name, quadratic_image, monkeypatch):
        """Against the sheaf built with the antipode alone (the search's
        budget cut to one node): the same generator degrees on every cone
        and the same local kernel dimensions."""
        p = {"cube-3": cube(3), "cross-4": cross_polytope(4), "sqrt2-cube-3": quadratic_image(cube(3), 2)}[name]
        cap = 2 * p.ambient_dim + 2
        transported = build_mes(face_fan(p), cap)
        with monkeypatch.context() as patch:
            patch.setattr(fans, "SYMMETRY_NODES", 1)
            built = _constructed(patch)
            plain = build_mes(face_fan(p), cap)
            assert len(built) == (len(plain.fan.cones) - 1) // 2
        assert {c: m.gen_degrees for c, m in transported.modules.items()} == {
            c: m.gen_degrees for c, m in plain.modules.items()
        }
        assert kernel_dimensions(transported) == kernel_dimensions(plain)

    def test_a_map_that_is_not_an_automorphism_is_rejected(self, monkeypatch):
        """Swapping the two variables of one facet in the first transport
        of a square cone, where its degree-2 generator's image takes two
        values, which no automorphism of cube(3)'s fan does while keeping
        the other facets, breaks the gluing of that generator."""
        transport = ihsheaf._transport_module
        calls = []

        def swapped(mes, rep_id, new_id, faces, perms=None):
            images = mes.modules[rep_id].images
            if perms is not None and any(mes.modules[rep_id].gen_degrees):
                calls.append(new_id)
                if len(calls) == 1:
                    tau = next(t for t, p in perms.items() if len(p) == 2 and images[t][1].get(0) != images[t][1].get(1))
                    perms = {**perms, tau: perms[tau][::-1]}
            return transport(mes, rep_id, new_id, faces, perms)

        monkeypatch.setattr(ihsheaf, "_transport_module", swapped)
        with pytest.raises(SheafError, match=r"^cone \d+ \(transported from cone \d+\): generator 1 does not glue"):
            build_mes(face_fan(cube(3)))
        assert len(calls) == 1

    def test_generator_degrees_of_a_transported_cone_are_checked(self, monkeypatch):
        fan = face_fan(cube(3))
        rep, cid = fan.cones_of_dim(3)[:2]
        assert fan.symmetries.origin[cid][0] == rep
        true_g = hvector.g_polynomial
        monkeypatch.setattr(hvector, "g_polynomial", lambda f, c: (1,) if c == cid else true_g(f, c))
        with pytest.raises(SheafError, match=rf"^cone {cid} \(transported from cone {rep}\): 1 generators in degree 2"):
            build_mes(fan)

    def test_a_failed_boundary_quotient_names_its_cone(self, monkeypatch):
        """The second ray constructed on an octagon whose only linear
        symmetry is the antipode is not the lowest ray, which all rays'
        boundaries, the zero cone, would name."""
        fan = face_fan(random_cs(2, 4, 4))
        assert fan.symmetries is None
        built = _constructed(monkeypatch)
        products_rref = linalg.products_rref

        def failing(*args):
            return None if len(built) == 2 else products_rref(*args)

        monkeypatch.setattr(linalg, "products_rref", failing)
        with pytest.raises(SheafError, match=r"^cone (\d+), degree 2: a product is not a section") as info:
            build_mes(fan)
        ray = built[1]
        assert fan.cones[ray].dim == 1 and ray != min(fan.cones_of_dim(1))
        assert info.value.args[0].startswith(f"cone {ray}, ")


# The cones that build_mes constructs, per input; the rest are transported.
CONSTRUCTED = {
    "cube-2": (1, 5),
    "cube-3": (1, 9, 21),
    "cross-2": (1, 5),
    "cross-3": (1, 7, 19),
    "prism-over-diamond": (1, 9, 21),
    "nonrational-bipyramid": (1, 9, 11, 15, 23, 31, 35),
    "cube-4": (1, 17, 49, 73, 74, 75, 76),
    "cross-5": (1, 11, 51, 131, 211),
    "prism": (1, 9, 21),
    "sqrt2-cube-3": (1, 9, 21),
    "cube-3+cube-2": (1, 9, 13, 25, 41, 61, 67, 91, *range(147, 160), *range(219, 231)),
}


class TestFacetImages:
    """A module keeps its generators' images on its facets only, and a
    cone's module is one degree-0 generator with image 1 exactly when the
    cone is simplicial: the orbit transport's gate and the shared
    restriction key read the fan's simpliciality on that account."""

    @pytest.mark.parametrize("name", list(CONSTRUCTED))
    def test_images_on_facets_and_simplicial_modules(self, name, quadratic_image, monkeypatch):
        others = {
            "cube-4": lambda: cube(4),
            "cross-5": lambda: cross_polytope(5),
            "prism": nonsimplicial_cs_3polytope,
            "sqrt2-cube-3": lambda: quadratic_image(cube(3), 2),
            "cube-3+cube-2": lambda: free_sum(cube(3), cube(2)),
        }
        p = others[name]() if name in others else dict(sheaf_corpus())[name]
        built = _constructed(monkeypatch)
        mes = build_mes(face_fan(p))
        fan, constant = mes.fan, ({0: mes.ring.one},)
        assert tuple(sorted(built)) == CONSTRUCTED[name]
        for cid, module in mes.modules.items():
            assert sorted(module.images) == list(fan.facets_of(cid)), cid
            canonical = module.gen_degrees == (0,) and all(v == constant for v in module.images.values())
            assert canonical == fan.is_simplicial_cone(cid), cid

    def test_cones_over_3_cubes_are_never_transported_through_their_orbit(self, monkeypatch):
        """cube(4)'s 4-cones lie over 3-cubes, so their facets are square
        cones: each antipodal pair of them is constructed once (4 of the 7
        constructed cones), the other cone of the pair taken by the point
        reflection, and none is transported through its orbit."""
        fan = face_fan(cube(4))
        tops = set(fan.cones_of_dim(4))
        assert not any(fan.is_simplicial_cone(f) for c in tops for f in fan.facets_of(c))
        built, transported, transport = _constructed(monkeypatch), [], ihsheaf._transport_in_orbit

        def recorded(mes, sid, *args):
            module = transport(mes, sid, *args)
            if module is not None:
                transported.append(sid)
            return module

        monkeypatch.setattr(ihsheaf, "_transport_in_orbit", recorded)
        mes = build_mes(fan)
        built_tops = tops.intersection(built)
        assert len(built) == 7 and len(built_tops) == 4
        assert built_tops | {mes.antipode[c] for c in built_tops} == tops
        assert transported and not tops.intersection(transported)


class TestReflectionEquivariance:
    def test_transport_commutes_with_restriction(self, sheaf_setups):
        # A cone's basis is its antipode's negated, so the reflection keeps
        # every variable: the restriction matrix of antipodal cones to
        # antipodal faces is the original, with no sign.
        _, fan, mes, _ = sheaf_setups["cube-3"]
        anti = fan.antipode_map()
        for sid in fan.cones_of_dim(3):
            for tid in fan.facets_of(sid):
                for q in (2, 4):
                    assert mes.restriction_matrix(anti[sid], anti[tid], q) == mes.restriction_matrix(sid, tid, q)

    def test_refined_series_invariant_under_linear_maps(self):
        import random
        from fractions import Fraction

        from polyfan import linalg
        from polyfan.ihsheaf import build_mes, refined_series
        from polyfan.polytopes import linear_image

        rng = random.Random(5)
        p = cube(2)
        fan = face_fan(p)
        reference = refined_series(build_mes(fan, 6))
        for _ in range(2):
            while True:
                m = linalg.mat(
                    [
                        [Fraction(rng.randint(-2, 2)) for _ in range(2)]
                        for _ in range(2)
                    ]
                )
                if linalg.rank(m) == 2:
                    break
            image_fan = face_fan(linear_image(p, m))
            assert refined_series(build_mes(image_fan, 6)) == reference


def _sheaf_data(p) -> dict:
    """The integral data of the sheaf of P at cap 8 that its coordinates
    fix: its ring's radicand, the wall rows of all maximal cones and of
    both halves and the product tables over the representatives per
    degree, the ambient m-forms and the forms that lefschetz_maps hands
    to linalg.products_rref for the support function."""
    fan = face_fan(p)
    mes = build_mes(fan, 8)
    reps, degrees = mes.representatives, range(0, mes.cap + 1, 2)
    seen, products_rref = [], linalg.products_rref

    def spy(source, target, table, forms, select=None):
        seen.append(forms)
        return products_rref(source, target, table, forms, select)

    linalg.products_rref = spy
    try:
        lefschetz_maps(mes, support_function(p, fan))
    finally:
        linalg.products_rref = products_rref
    return {
        "d": mes.ring.d,
        "walls": [mes.wall_rows(fan.maximal_ids, q) for q in degrees],
        "halves": [mes.wall_rows(reps, q, parity) for q in degrees for parity in (1, -1)],
        "tables": [mes._product_table(reps, q) for q in degrees],
        "m": mes.coordinate_forms(reps),
        "lefschetz": seen,
    }


SOURCES = {
    **dict(sheaf_corpus()),
    "irrational-quadrilateral": oracles.irrational_quadrilateral_polytope(),
}


class TestLinearInvariance:
    """A cone's variables are dual to a basis of its own rays, so every
    coefficient of the sheaf is a ratio of determinants of rays, which a
    linear map keeps: the sheaf of g(P) has the matrices of the sheaf of
    P, and runs over Q when P is rational, whatever the field of g."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_an_image_has_the_sheaf_of_its_source(self, data):
        name = data.draw(st.sampled_from(sorted(SOURCES)), label="source")
        p = SOURCES[name]
        source = _sheaf_data(p)
        rational = source["d"] is None
        d = data.draw(st.sampled_from([None, 2, 3] if rational else [None, source["d"]]), label="field")
        n = p.ambient_dim
        part = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        entry = part if d is None else st.builds(lambda a, b: Quadratic(a, b, d), part, part)
        matrix = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n), label="g")
        assume(linalg.rank(matrix) == n)
        image = _sheaf_data(linear_image(p, matrix))
        assert image == source
        assert rational == (name not in ("nonrational-bipyramid", "irrational-quadrilateral"))

    def test_the_nonrational_bipyramid_keeps_pair_arithmetic(self):
        mes = build_mes(face_fan(nonrational_cs_polytope()))
        assert mes.ring.d == 2
        assert all(half["sections"].d == 2 for half in mes.global_data(4).values())


class TestCorpusBettiSweep:
    def test_betti_equals_h_on_all_low_dim_corpus_fans(self):
        # Every corpus fan of dimension <= 3 through the full pipeline.
        from polyfan.corpus import cs_corpus

        checked = 0
        for name, p in cs_corpus():
            if p.ambient_dim > 3:
                continue
            a = Analysis(p)
            assert a.u == substitute_t_squared(a.h), name
            checked += 1
        assert checked >= 15


def _dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def _assert_restriction_matches_oracle(mes, cid, face, q) -> int:
    """The restriction matrix, rows / scale, is exactly the dense
    oracle's, and its rows hold only nonzero integral entries of the
    sheaf's ring (ints, or int pairs over Q(sqrt d)); returns the scale."""
    d = mes.ring.d
    expected = dense_restriction_matrix(mes, cid, face, q)
    rows, scale = mes.restriction_matrix(cid, face, q)
    assert type(scale) is int and scale > 0
    got = [{c: oracles.scalar(x, scale, d) for c, x in row.items()} for row in rows]
    assert _dense(got, mes.module_dim(cid, q)) == expected, (cid, face, q)
    assert all(x != 0 for row in got for x in row.values())
    entries = [x for row in rows for x in row.values()]
    if d is None:
        assert all(type(x) is int for x in entries)
    else:
        assert all(type(x) is tuple and list(map(type, x)) == [int, int] for x in entries)
    return scale


def _assert_restrictions_match_oracle(mes):
    """Every restriction matrix of the sheaf, from a cone to one of its
    facets, matches the dense oracle.  The global sections are built
    first, so the matrices that their walls share are among those
    checked."""
    for q in range(0, mes.cap + 1, 2):
        mes.global_data(q)
    fan = mes.fan
    scales = [
        _assert_restriction_matches_oracle(mes, cid, face, q)
        for cid in fan.cone_ids()
        for face in fan.facets_of(cid)
        for q in range(0, mes.cap + 1, 2)
    ]
    assert scales
    return scales


class TestRestrictionAgainstDenseOracle:
    """Restriction maps built from substituted monomials equal the dense
    product of multiplication and substitution matrices, block by block."""

    def test_rational_sheaf_corpus(self, sheaf_setups):
        for name, (_, _, mes, _) in sheaf_setups.items():
            if name != "nonrational-bipyramid":
                _assert_restrictions_match_oracle(mes)

    def test_quadratic_image(self, quadratic_image):
        mes = build_mes(face_fan(quadratic_image(cube(3), 2)), 8)
        _assert_restrictions_match_oracle(mes)

    def test_substitution_forms_with_denominators(self):
        # In the product of two random centrally symmetric polygons some
        # facets' basis vectors have coordinates over 5 in the bases of
        # the prism cones above them, so those matrices carry scales
        # above 1, and each is the dense oracle's.
        mes = build_mes(face_fan(product(random_cs(2, 3, 0), random_cs(2, 3, 9))), 8)
        fan = mes.fan
        pairs = [(c, f) for c in fan.cone_ids() for f in fan.facets_of(c) if mes._substitution(c, f)[2] > 1]
        assert pairs
        assert max(_assert_restriction_matches_oracle(mes, c, f, q) for c, f in pairs for q in range(0, mes.cap + 1, 2)) > 1

    def test_irrational_coefficients(self):
        # Quadrilateral cones whose rays have irrational coordinates in
        # the fan's basis of rays: the sheaf runs on pairs over Q(sqrt 2).
        mes = build_mes(face_fan(oracles.irrational_quadrilateral_polytope()), 8)
        assert mes.ring.d == 2
        _assert_restrictions_match_oracle(mes)

    def test_random_polygon(self):
        _assert_restrictions_match_oracle(build_mes(face_fan(random_cs(2, 5, 4))))

    def test_equal_forms_with_different_denominators_share_no_matrix(self, monkeypatch):
        """A restriction from a simplicial cone, whose module is one
        degree-0 generator with image 1, is kept under its substituted
        forms and their denominator D.  On the cones' coordinates every
        such D is 1, so on the Q(sqrt 2) image of cross(3) of tests/golden
        one pair of a cone and a facet is given the forms of another with
        D = 2: each keeps its own matrix, of scale D^(q/2), and the first
        is the dense oracle's."""
        mes = build_mes(face_fan(oracles.unitriangular_image(cross_polytope(3), 2)), 8)
        fan, constant = mes.fan, ({0: mes.ring.one},)
        by_forms: dict = {}
        for cid in fan.cone_ids():
            module = mes.modules[cid]
            for face in fan.facets_of(cid):
                if face != fan.zero_id and fan.is_simplicial_cone(cid):
                    assert module.gen_degrees == (0,) and module.images[face] == constant
                    key, forms, den, memo = mes._substitution(cid, face)
                    assert den == 1 and key == (forms, 1, mes.nvars(face))
                    by_forms.setdefault(forms, []).append((cid, face))
        first, second = next(pairs for pairs in by_forms.values() if len(pairs) > 1)[:2]
        (forms, _, width), _, _, memo = mes._keys[second]
        monkeypatch.setitem(mes._keys, second, ((forms, 2, width), forms, 2, memo))
        for q in range(2, mes.cap + 1, 2):
            rows, scale = mes.restriction_matrix(*second, q)
            kept = mes.restriction_matrix(*first, q)
            assert rows is not kept[0] and (rows, scale) == (kept[0], 2 ** (q // 2))
            assert mes.restriction_matrix(*first, q) is kept
            assert _assert_restriction_matches_oracle(mes, *first, q) == 1


class TestPresheaf:
    """A module keeps images on its facets only, so a restriction to a
    smaller face is a composite along facets: the dense oracle's
    composites through every facet that contains the face agree."""

    @staticmethod
    def _assert_path_independent(mes):
        fan, kept = mes.fan, {}

        def dense(src, tgt, q):
            if (src, tgt, q) not in kept:
                kept[src, tgt, q] = dense_restriction_matrix(mes, src, tgt, q)
            return kept[src, tgt, q]

        checked = 0
        for cid in fan.cone_ids():
            for face in sorted(oracles.faces_below(fan, cid)):
                if fan.cones[face].dim > fan.cones[cid].dim - 2:
                    continue
                through = [f for f in fan.facets_of(cid) if face in oracles.faces_below(fan, f)]
                assert len(through) >= 2, (cid, face)
                for q in range(0, mes.cap + 1, 2):
                    # The oracle's composite through facet f.
                    first, *others = (oracles.mat_mul(dense(f, face, q), dense(cid, f, q)) for f in through)
                    assert all(other == first for other in others), (cid, face, q)
                    checked += 1
        assert checked

    def test_sheaf_corpus(self, sheaf_setups):
        for _, (_, _, mes, _) in sheaf_setups.items():
            self._assert_path_independent(mes)

    def test_quadratic_image(self, quadratic_image):
        self._assert_path_independent(build_mes(face_fan(quadratic_image(cube(3), 2)), 8))

    def test_irrational_quadrilateral(self):
        mes = build_mes(face_fan(oracles.irrational_quadrilateral_polytope()), 8)
        assert mes.ring.d == 2
        self._assert_path_independent(mes)


class TestSharedRestrictions:
    """Each restriction matrix is built once per sheaf and shared by every
    pair of cones it serves, and nothing changes a shared matrix."""

    def test_global_walls_of_a_polygon_share_one_matrix_per_antipodal_pair(self):
        """Every module of a polygon's fan is canonical, and a cone's
        variables are dual to its rays, so a wall's matrix depends only on
        the place of the wall's ray in the cone's basis: the global phase
        builds two matrices per degree, the two coordinate projections,
        which every wall and its antipode read.  The report computed
        afterwards leaves them as they were."""
        p = random_cs(2, 5, 4)
        a = Analysis(p)
        mes, fan = a.sheaf, a.fan
        # The construction's maps are dropped.
        assert not any((mes._keys, mes._restr, mes._pairs, mes._scaled, mes._tables, mes._memos))
        degrees = range(0, mes.cap + 1, 2)
        for q in degrees:
            mes.global_data(q)
        assert Counter(q for _, q in mes._restr) == {q: 2 for q in degrees}
        anti = mes.antipode
        for f, (x, y) in fan.maximal_walls.items():
            for q in degrees:
                for side in (x, y):
                    shared = mes.restriction_matrix(side, f, q)
                    assert mes.restriction_matrix(anti[side], anti[f], q) is shared
        snapshot = copy.deepcopy(mes._restr)
        assert report_passes(ih_report(a, Field.rational(), "polygon"))
        assert mes._restr == snapshot


@pytest.mark.parametrize("name", ["cube-2", "cross-3", "prism-over-diamond"])
def test_quadratic_images_match_their_rational_source(name, sheaf_analyses, quadratic_image):
    """A shear image over Q(sqrt 2) and Q(sqrt 3) of a rational polytope
    has the source's cone coordinates, so its sheaf runs over Q, on
    integer rows, and has the source's Betti numbers u, section
    dimensions v, refined series and both Lefschetz tables."""
    source = sheaf_analyses[name]
    expected = (source.u, source.v, source.refined, source.rank_table, source.minus_table)
    for d in (2, 3):
        image = Analysis(quadratic_image(source.polytope, d), 8)
        assert image.fan.radicand == d and image.sheaf.ring.d is None
        assert all(half["sections"].d is None for half in image.sheaf.global_data(4).values())
        found = (image.u, image.v, image.refined, image.rank_table, image.minus_table)
        assert found == expected, (name, d)


class TestMembership:
    """The kernel's integral membership test, through the oracle's scalar
    coordinates, accepts sections and rejects anything else exactly, and
    the reflection's matrix refuses an image that is not a section."""

    @pytest.mark.parametrize("which", ["cube-3", "sqrt2-square", "random-cs-3d-p4-s3"])
    def test_pivot_perturbation_is_rejected(self, which, sheaf_setups, quadratic_image):
        if which == "cube-3":
            mes = sheaf_setups["cube-3"][2]
        elif which == "sqrt2-square":
            mes = build_mes(face_fan(quadratic_image(cube(2), 2)), 6)
        else:
            # The first nonsimplicial random_cs(3, 4, s): its reduced wall
            # equations have denominators (24 at degree 4, 144 at 6).
            fan = face_fan(random_cs(3, 4, 3))
            assert not fan.is_simplicial()
            mes = build_mes(fan, 8)
        reps = mes.representatives
        for q, parity in ((2, 1), (4, -1), (6, 1), (6, -1)):
            sections = mes.global_data(q)[parity]["sections"]
            basis, free_cols = oracles.basis_vectors(sections), sections.free_cols
            section = dict(basis[0])
            for c, x in basis[-1].items():
                section[c] = section.get(c, 0) + 2 * x
            coords = oracles.basis_coords(sections, section)
            assert coords == {0: 1, len(basis) - 1: 2}
            assert coords == {i: section[c] for c, i in free_cols.items() if c in section}
            total = mes.section_layout(reps, q)[1]
            pivots = [c for c in range(total) if c not in free_cols]
            for pivot in (pivots[0], pivots[-1]):
                for delta in (1, Fraction(1, 7)):
                    broken = dict(section)
                    broken[pivot] = broken.get(pivot, 0) + delta
                    assert oracles.basis_coords(sections, broken) is None

    def test_reflection_of_a_non_section_is_rejected(self, monkeypatch):
        # With one maximal cone's block copied onto itself, not onto its
        # antipode's, the reflection sends some section outside the
        # sections.
        mes = build_mes(face_fan(cube(3)), 8)
        cid = mes.fan.maximal_ids[0]
        assert len(_involution_on_basis(mes, 4)) == len(mes.section_space(mes.fan.maximal_ids, 4).free_cols)
        monkeypatch.setitem(mes.antipode, cid, cid)
        with pytest.raises(SheafError, match="not a section"):
            _involution_on_basis(mes, 4)


@pytest.mark.parametrize("name", ["cube-3", "prism-over-diamond", "sqrt2-cube-3", "nonrational-bipyramid"])
def test_section_space_hands_linalg_only_integral_rows(name, sheaf_setups, quadratic_image, monkeypatch):
    """Every row that section_space hands to linalg.integral_kernel, for
    the boundary fans and the halves of the global sections, holds only
    nonzero ints over Q, as on a Q(sqrt 2) image of a rational polytope,
    and only pairs of ints over Q(sqrt 2), as on the nonrational
    bipyramid: no Fraction or Quadratic reaches the elimination."""
    if name.startswith("sqrt2-"):
        polytope = quadratic_image(sheaf_setups[name[len("sqrt2-"):]][0], 2)
    else:
        polytope = sheaf_setups[name][0]
    d = 2 if name == "nonrational-bipyramid" else None
    integral_kernel = linalg.integral_kernel
    calls = []

    def spy(rows, ncols, radicand):
        rows = list(rows)
        for row in rows:
            for x in row.values():
                if d is None:
                    assert type(x) is int and x != 0, x
                else:
                    assert type(x) is tuple and list(map(type, x)) == [int, int] and x != (0, 0), x
        calls.append((radicand, len(rows)))
        return integral_kernel(rows, ncols, radicand)

    monkeypatch.setattr(linalg, "integral_kernel", spy)
    a = Analysis(polytope, 8)
    assert all(ih_report(a, Field(a.fan.radicand))["checks"].values())
    assert calls and all(radicand == d for radicand, _ in calls)
    assert sum(n for _, n in calls) > 100


def test_sheaf_calls_only_sparse_linalg():
    """Every ``linalg`` name ``ihsheaf.py`` uses is a sparse routine or a
    name of the integral format, so no dense matrix path runs in the
    sheaf and no vector of scalars is cleared there."""
    tree = ast.parse((PACKAGE / "ihsheaf.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "linalg"
    }
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and "linalg" in node.module
        for alias in node.names
    }
    assert used
    assert used | imported <= {
        "Kernel",
        # The quotient's products of sections with forms, taken on
        # primitive integral vectors inside linalg.
        "products_rref",
        "sparse_mat_vec",
        # The integral format of the sheaf's rows, vectors and forms, and
        # its arithmetic, chosen once per fan.
        "Ring",
        "ring",
        "cofactors",
        "common_scale",
        "integral_coords",
        "integral_kernel",
        "integral_rank",
        "integral_vector",
    }


def test_sheaf_leaves_row_storage_to_linalg():
    """Kernels keep their integer rows in ``linalg``: ``ihsheaf.py``
    imports neither lcm nor gcd, reads no numerator or denominator and
    defines no NamedTuple of its own."""
    tree = ast.parse((PACKAGE / "ihsheaf.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    bases = {
        ast.unparse(base)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for base in node.bases
    }
    assert not imported & {"lcm", "gcd", "NamedTuple"}
    assert not attributes & {"lcm", "gcd", "numerator", "denominator", "NamedTuple"}
    assert not any("NamedTuple" in base for base in bases)


def _imported_modules(tree) -> set:
    """Last dotted component of every module a parsed file imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            names.update(alias.name for alias in node.names)
    return names


def test_h_recursion_has_no_poset_isomorphism_or_module_cache():
    """No package module imports ``posets`` (its isomorphism search is
    exponential), and ``hvector.py`` binds no module-level value, so no
    g memo can be shared across fans or inputs."""
    for source in sorted(PACKAGE.glob("*.py")):
        if source.name != "posets.py":
            assert "posets" not in _imported_modules(ast.parse(source.read_text())), source.name
    hvector = ast.parse((PACKAGE / "hvector.py").read_text())
    assignments = [
        node
        for node in hvector.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
    ]
    assert assignments == []

REPORT_CHECKS = {
    "h_palindromic",
    "h_ends_are_one",
    "h_subtop_counts_rays",
    "difference_nonnegative_even",
    "difference_palindromic",
    "difference_unimodal",
    "h_unimodal",
    "minimum_iff_cross_polytope",
    "betti_equals_h",
    "freeness_factorization",
    "lefschetz_pattern",
    "refined_factorization",
    "refined_splitting",
    "minus_part_formula",
    "minus_dims_match_difference",
    "minus_lefschetz_pattern",
}


CHECK_FUNCTIONS = {"h_checks", "bounds_checks", "ih_checks", "lefschetz_pattern"}


def _function_names(tree) -> set:
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_only_checks_module_decides_report_checks():
    """``checks.py`` is the one module that names a report check.  The
    only ``check_*`` functions in ``ihsheaf.py`` verify the sheaf's own
    construction, and ``reports.py`` and ``analysis.py`` define no check."""
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text())
        named = {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in REPORT_CHECKS
        }
        assert named == (REPORT_CHECKS if source.name == "checks.py" else set()), source.name
    ihsheaf = _function_names(ast.parse((PACKAGE / "ihsheaf.py").read_text()))
    assert {f for f in ihsheaf if f.startswith("check")} == {"check_minimal_extension_axioms"}
    for name in ("reports.py", "analysis.py"):
        functions = _function_names(ast.parse((PACKAGE / name).read_text()))
        assert not {
            f for f in functions if f.startswith("check") or f in CHECK_FUNCTIONS
        }, name


def test_no_unused_imports():
    """Every name a package module imports is used in it, or exported by
    its ``__all__``."""
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(c.value for c in node.value.elts)
        assert imported <= used, (source.name, sorted(imported - used))


# Top-level functions and methods (as Class.method) that nothing in the
# package calls but that stay, with the reason.
UNCALLED_ALLOWED = {
    # The sheaf's own verifiers: tests and demo 03 check a built sheaf
    # against the definition with them; no report needs them.
    "check_minimal_extension_axioms": "verifier of the sheaf, for tests and demos",
    "kernel_dimensions": "local kernels of the sheaf, printed by demo 03",
    "BoundsReport.all_bounds_hold": "the verdict of a bounds report, printed by demos 02 and 04",
    "Polytope.f_vector": "the face numbers of a polytope, printed by demos 01 and 04",
    # posets.py is unused by the pipeline and goes with the benchmark's
    # tracer of it (ROADMAP item 1).
    "FacePoset.from_relations": "posets.py, kept while the benchmark tracer wraps it",
    "IsomorphismMemo.put": "posets.py, kept while the benchmark tracer wraps it",
}


def _references(node, method: bool = False) -> Counter:
    """How often each name is read under an AST node as an attribute
    (``.name``), and, unless it names a ``method``, as a bare name: a
    method is reached through an attribute, so a local variable of the
    same name is no reference to it."""
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and not method)
    )


def _definitions(tree):
    """(qualified name, node) for each top-level function of a module and
    each non-dunder method of its top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def test_every_function_is_referenced_in_the_package():
    """Every top-level function and every non-dunder method of the
    package is referenced in the package outside its own definition, a
    method through attribute access.  Exempt are the entry points that
    pyproject.toml names, the package's ``__all__``, every name that the
    benchmark in perfbench/ uses (read now, so the exemption shrinks with
    the benchmark; a method as an attribute or as the quoted name that
    its tracer wraps), and UNCALLED_ALLOWED."""
    root = PACKAGE.parent.parent
    trees = {source.name: ast.parse(source.read_text()) for source in sorted(PACKAGE.glob("*.py"))}
    references = {
        method: sum((_references(tree, method) for tree in trees.values()), Counter())
        for method in (False, True)
    }
    entry_points = set(re.findall(r':(\w+)"', (root / "pyproject.toml").read_text()))
    benchmark = "\n".join(p.read_text() for p in sorted((root / "perfbench").glob("*.py")))
    exempt = entry_points | set(polyfan.__all__) | set(UNCALLED_ALLOWED)
    uncalled = []
    for name, tree in trees.items():
        for qualified, node in _definitions(tree):
            method = "." in qualified
            used = rf"\.{node.name}\b|\"{node.name}\"" if method else rf"\b{node.name}\b"
            if (
                references[method][node.name] == _references(node, method)[node.name]
                and qualified not in exempt
                and not re.search(used, benchmark)
            ):
                uncalled.append(f"{name}:{qualified}")
    assert uncalled == []
