"""Double-description facet enumeration against the subset-scan oracle.

Point clouds carry interior points and points on facets; images of small
polytopes under unitriangular maps (so always invertible) cover Q and
Q(sqrt 2)/Q(sqrt 3) coordinates.
"""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from polyfan.corpus import nonsimplicial_cs_3polytope
from polyfan.polytopes import (
    _facets,
    cross_polytope,
    cube,
    free_sum,
    hull_vertices,
    linear_image,
)
from polyfan.scalars import Quadratic, is_rational, sign, to_fraction

from oracles import _rank, brute_force_facets

RADICANDS = (None, 2, 3)  # None: rational coordinates


def _scalar(draw, d):
    a = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
    if d is None:
        return a
    return Quadratic(a, draw(st.integers(-2, 2)), d)


@st.composite
def unitriangular(draw, n, d):
    """An n x n upper unitriangular matrix over Q or Q(sqrt d)."""
    return tuple(
        tuple(
            Fraction(1) if i == j else (_scalar(draw, d) if j > i else Fraction(0))
            for j in range(n)
        )
        for i in range(n)
    )


def _apply(matrix, point):
    return tuple(sum((a * x for a, x in zip(row, point)), Fraction(0)) for row in matrix)


@st.composite
def point_clouds(draw):
    """Integer points in [-2, 2]^n plus midpoints of pairs and centroids of
    triples (points inside, or on faces of, the hull), mapped by a
    unitriangular matrix; full-dimensional, no point repeated."""
    n = draw(st.integers(2, 4))
    d = draw(st.sampled_from(RADICANDS))
    coord = st.integers(-2, 2).map(Fraction)
    base = draw(
        st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 4, unique=True)
    )
    points = list(base)
    for size in draw(st.lists(st.sampled_from((2, 3)), max_size=3)):
        picks = draw(st.lists(st.sampled_from(base), min_size=size, max_size=size))
        points.append(tuple(sum(col, Fraction(0)) / size for col in zip(*picks)))
    points = list(dict.fromkeys(points))
    assume(_rank([(Fraction(1),) + p for p in points]) == n + 1)
    matrix = draw(unitriangular(n, d))
    return n, [_apply(matrix, p) for p in points]


def _mask_set(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _assert_matches_oracle(points, n):
    """Facet masks equal the oracle's, and each plane is tight exactly on
    its mask; returns the oracle's facets."""
    expected = brute_force_facets(points)
    facets = _facets(points, n)
    masks = [_mask_set(mask) for mask, _, _ in facets]
    assert len(set(masks)) == len(masks)
    assert set(masks) == expected
    for mask, u, c in facets:
        for i, p in enumerate(points):
            slack = sign(c - sum((a * x for a, x in zip(u, p)), Fraction(0)))
            assert slack >= 0
            assert (slack == 0) == bool(mask >> i & 1)
    return expected


def _assert_normalized(points, facets):
    """Rational input: (c, u) scaled by the common denominator of the
    points is a primitive integer vector.  Over Q(sqrt d): the first
    nonzero entry of (c, u) has absolute value 1."""
    for _, u, c in facets:
        if all(is_rational(x) for p in points for x in p):
            scale = math.lcm(*(to_fraction(x).denominator for p in points for x in p))
            entries = [c * scale] + list(u)
            assert all(Fraction(x).denominator == 1 for x in entries)
            assert math.gcd(*(int(x) for x in entries)) == 1
        else:
            lead = next(x for x in (c,) + tuple(u) if x != 0)
            assert lead in (1, -1)


def _oracle_vertices(points):
    facets = brute_force_facets(points)
    out = set()
    for i, p in enumerate(points):
        containing = [f for f in facets if i in f]
        if containing and frozenset.intersection(*containing) == {i}:
            out.add(p)
    return out


@settings(max_examples=60, deadline=None)
@given(point_clouds())
def test_facets_match_subset_scan(cloud):
    n, points = cloud
    _assert_matches_oracle(points, n)
    _assert_normalized(points, _facets(points, n))


@settings(max_examples=30, deadline=None)
@given(point_clouds())
def test_hull_vertices_match_subset_scan(cloud):
    _, points = cloud
    assert set(hull_vertices(points)) == _oracle_vertices(points)


SMALL = (
    cube(3),
    nonsimplicial_cs_3polytope(),
    free_sum(cube(2), cube(1)),
)


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(SMALL), st.sampled_from(RADICANDS), st.data())
def test_images_of_small_polytopes(p, d, data):
    image = linear_image(p, data.draw(unitriangular(p.ambient_dim, d)))
    expected = _assert_matches_oracle(image.vertices, image.ambient_dim)
    lattice = image.face_lattice()
    assert {frozenset(lattice.vertices_of(f)) for f in lattice.facet_ids()} == expected
    assert image.f_vector() == p.f_vector()


def test_cross4_with_edge_midpoints_in_shuffled_orders():
    """Two facets of cross(4) may meet in an edge; with its midpoint the
    pair shares n - 1 points without being adjacent, which only the
    zero-set test of a third ray rules out."""
    cross = list(cross_polytope(4).vertices)
    midpoints = [
        tuple((a + b) / 2 for a, b in zip(p, q))
        for p, q in itertools.combinations(cross, 2)
        if any(a + b for a, b in zip(p, q))
    ]
    for seed in range(3):
        points = cross + midpoints
        random.Random(seed).shuffle(points)
        expected = {}
        for s in itertools.product((1, -1), repeat=4):
            tight = (i for i, p in enumerate(points) if sum(a * x for a, x in zip(s, p)) == 1)
            expected[sum(1 << i for i in tight)] = (tuple(map(Fraction, s)), 1)
        facets = _facets(points, 4)
        assert len(facets) == 16
        assert {mask: (u, c) for mask, u, c in facets} == expected


def test_cube6_f_vector():
    n = 6
    assert cube(n).f_vector() == tuple(math.comb(n, k) * 2 ** (n - k) for k in range(n))


def test_cross6_f_vector():
    n = 6
    assert cross_polytope(n).f_vector() == tuple(
        2 ** (k + 1) * math.comb(n, k + 1) for k in range(n)
    )
