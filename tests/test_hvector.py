import json
import random
from dataclasses import asdict, replace
from fractions import Fraction

import pytest

from polyfan import linalg
from polyfan.corpus import (
    cs_corpus,
    nonrational_cs_polytope,
    nonsimplicial_cs_3polytope,
    random_cs_family,
)
from polyfan.fans import Cone, Fan, FanError, face_fan
from polyfan.hvector import (
    check_cs_bounds,
    g_polynomial,
    h_polynomial,
    h_simplicial,
)
from polyfan.polynomials import truncate_below
from polyfan.polytopes import (
    Polytope,
    cross_polytope,
    cube,
    ensure_origin_interior,
    free_sum,
    hull_vertices,
    linear_image,
    simplex,
)

from oracles import (
    cone_fan,
    f_to_h,
    g_by_quotient_fans,
    h_by_quotient_fans,
    h_per_face,
    simplicial_cs_fans,
)


def cone_of_dim(fan, d):
    return fan.cones_of_dim(d)[0]


class TestTruncation:
    def test_spec_examples(self):
        assert truncate_below((1, 3, 3, 1), 2) == (1, 3)
        assert truncate_below((7, 7), 0) == ()
        assert truncate_below((1, 1), 5) == (1, 1)


class TestGPolynomial:
    def test_zero_cone(self):
        fan = face_fan(cube(2))
        assert g_polynomial(fan, fan.zero_id) == (1,)

    def test_simplicial_cones(self):
        fan = face_fan(cross_polytope(3))
        for cid in fan.cone_ids():
            assert g_polynomial(fan, cid) == (1,)

    def test_cone_over_square(self):
        fan = face_fan(cube(3))
        sigma = cone_of_dim(fan, 3)
        assert g_polynomial(fan, sigma) == (1, 1)

    def test_cone_over_cube(self):
        fan = face_fan(cube(4))
        sigma = cone_of_dim(fan, 4)
        assert g_polynomial(fan, sigma) == (1, 4)


class TestHPolynomial:
    def test_cross3(self):
        assert h_polynomial(face_fan(cross_polytope(3))) == (1, 3, 3, 1)

    def test_cube3(self):
        assert h_polynomial(face_fan(cube(3))) == (1, 5, 5, 1)

    def test_simplex2(self):
        assert h_polynomial(face_fan(simplex(2))) == (1, 1, 1)

    def test_incomplete_fan_rejected(self):
        fan = face_fan(cube(2))
        sub = cone_fan(fan, cone_of_dim(fan, 2))
        with pytest.raises(FanError, match="complete"):
            h_polynomial(sub)

    def test_ray_count_identity_on_corpus(self):
        for name, p in cs_corpus():
            fan = face_fan(p)
            h = h_polynomial(fan)
            n = fan.dim
            rays = len(fan.cones_of_dim(1))
            h_vec = list(h) + [0] * (n + 1 - len(h))
            assert h_vec[n - 1] == rays - n, name

    def test_ends_are_one(self):
        for name, p in cs_corpus():
            h = h_polynomial(face_fan(p))
            n = p.ambient_dim
            assert h[0] == 1 and len(h) == n + 1 and h[n] == 1, name


class TestSimplicialAgreement:
    def test_cross3(self):
        fan = face_fan(cross_polytope(3))
        assert h_simplicial(fan) == (1, 3, 3, 1)

    def test_simplex2(self):
        assert h_simplicial(face_fan(simplex(2))) == (1, 1, 1)

    def test_nonsimplicial_rejected(self):
        with pytest.raises(FanError, match="simplicial"):
            h_simplicial(face_fan(cube(3)))

    def test_recursion_equals_shortcut_equals_f_transform(self):
        for name, p, fan in simplicial_cs_fans():
            full = h_polynomial(fan)
            short = h_simplicial(fan)
            oracle = f_to_h(p.f_vector(), p.ambient_dim)
            assert full == short == oracle, name


class TestCombinatorialInvariance:
    def test_h_invariant_under_linear_maps(self):
        rng = random.Random(2024)
        for p in (cube(3), cross_polytope(3), nonsimplicial_cs_3polytope()):
            n = p.ambient_dim
            h = h_polynomial(face_fan(p))
            for _ in range(3):
                m = _random_invertible(rng, n)
                image = linear_image(p, m)
                assert h_polynomial(face_fan(image)) == h


def _hull_clouds(count):
    """Convex hulls of seeded point clouds in {-1, 0, 1}^n, n = 2..4,
    translated to contain the origin; such small coordinates make
    coplanar points, hence nonsimplicial faces, common."""
    rng = random.Random(6)
    out = []
    while len(out) < count:
        n = 2 + len(out) % 3
        points = [
            tuple(Fraction(rng.randint(-1, 1)) for _ in range(n))
            for _ in range(n + 2 + rng.randint(0, 4))
        ]
        offsets = [[a - b for a, b in zip(q, points[0])] for q in points]
        if linalg.rank(linalg.mat(offsets)) < n:
            continue
        out.append(ensure_origin_interior(Polytope(hull_vertices(points)))[0])
    return out


def test_recursion_matches_quotient_fan_oracle(quadratic_image, named_families):
    """h and every cone's g agree with the memo-free recursion through
    geometric quotient fans, over Q and over Q(sqrt 2) and Q(sqrt 3), on
    random families, the CS corpus and the named families."""
    rational = [p for _, p in random_cs_family(20)] + _hull_clouds(30)
    nonsimplicial = [p for p in rational if not face_fan(p).is_simplicial()]
    assert len(nonsimplicial) >= 10
    polytopes = rational + [
        quadratic_image(p, d) for d in (2, 3) for p in nonsimplicial[:6]
    ] + [p for _, p in cs_corpus()] + [p for _, p in named_families]
    assert len(polytopes) >= 60
    for p in polytopes:
        fan = face_fan(p)
        for cid in fan.cone_ids():
            assert g_polynomial(fan, cid) == g_by_quotient_fans(fan, cid), p
        assert h_polynomial(fan) == h_by_quotient_fans(fan), p


def test_collected_sums_match_the_per_face_recursion(lattice_polytopes):
    """h and every cone's g agree with the recursion that sums one term
    per face, on the CS corpus, the benchmark's free sums, the named
    families and the larger cubes and products."""
    for name, p in lattice_polytopes:
        fan = face_fan(p)
        h, g = h_per_face(fan)
        assert h_polynomial(fan) == h, name
        assert {cid: g_polynomial(fan, cid) for cid in fan.cones} == g, name


def test_the_g_memo_is_keyed_by_dimension():
    """A 4-dimensional cone with the proper faces of a square cone has the
    same class counts as that cone, and a different g."""
    fan = face_fan(cube(3))
    square = next(c for c in fan.cones_of_dim(3) if not fan.is_simplicial_cone(c))
    other_ray = next(r for r in fan.rays if r not in fan.ray_ids[square])
    fake = max(fan.cones) + 1
    cones = dict(fan.cones)
    cones[fake] = Cone(fake, fan.cones[square].mask | 1 << other_ray, 4)
    down = dict(fan.down)
    down[fake] = fan.down[square]
    widened = Fan(4, fan.rays, cones, down)
    _, g = h_per_face(widened)
    assert g[square] == (1, 1) and g[fake] == (-1,)
    assert g_polynomial(widened, square) == (1, 1)
    assert g_polynomial(widened, fake) == (-1,)


def _random_invertible(rng, n):
    while True:
        m = linalg.mat(
            [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        )
        if linalg.rank(m) == n:
            return m


class TestBounds:
    def test_cross_polytopes_are_minimum(self):
        for n in range(1, 6):
            report = check_cs_bounds(cross_polytope(n))
            assert report.difference == ()
            assert report.is_minimum
            assert report.is_cross_polytope

    def test_cube3_difference(self):
        report = check_cs_bounds(cube(3))
        assert report.h == (1, 5, 5, 1)
        assert report.difference == (0, 2, 2)  # trailing zero trimmed
        assert report.nonnegative_even_difference
        assert report.difference_palindromic
        assert report.difference_unimodal
        assert not report.is_minimum

    def test_bipyramid_over_square_is_affine_cross(self):
        # cube(2) is an affine cross-polytope, so its free sum with an
        # interval is an affine cross-polytope as well.
        report = check_cs_bounds(free_sum(cube(2), cube(1)))
        assert report.all_bounds_hold()
        assert report.is_minimum
        assert report.is_cross_polytope

    def test_bipyramid_over_hexagon(self):
        from polyfan.polytopes import Polytope

        hexagon = Polytope(
            [
                (Fraction(1), Fraction(0)),
                (Fraction(-1), Fraction(0)),
                (Fraction(0), Fraction(1)),
                (Fraction(0), Fraction(-1)),
                (Fraction(1), Fraction(1)),
                (Fraction(-1), Fraction(-1)),
            ]
        )
        report = check_cs_bounds(free_sum(hexagon, cube(1)))
        assert report.all_bounds_hold()
        assert report.difference != ()
        assert not report.is_minimum

    def test_nonrational(self):
        report = check_cs_bounds(nonrational_cs_polytope())
        assert report.h == (1, 7, 7, 1)
        assert report.all_bounds_hold()

    def test_non_cs_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_cs_bounds(simplex(2))

    def test_report_dict_roundtrip(self):
        d = json.loads(json.dumps(asdict(check_cs_bounds(cube(3)))))
        assert d["h"] == [1, 5, 5, 1]
        assert d["is_minimum"] is False

    @pytest.mark.parametrize(
        "is_minimum, is_cross_polytope", [(False, True), (True, False)]
    )
    def test_minimum_and_cross_polytope_must_agree(self, is_minimum, is_cross_polytope):
        # The report's minimum_iff_cross_polytope is an equivalence, and
        # all_bounds_hold gives the same verdict in both directions.
        report = replace(
            check_cs_bounds(cube(3)),
            is_minimum=is_minimum,
            is_cross_polytope=is_cross_polytope,
        )
        assert not report.all_bounds_hold()
