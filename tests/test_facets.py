"""Double-description facet enumeration against the subset-scan oracle.

Point clouds carry interior points and points on facets; images of small
polytopes under unitriangular maps (so always invertible) cover Q and
Q(sqrt 2)/Q(sqrt 3) coordinates.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyfan import linalg, polytopes
from polyfan.corpus import nonsimplicial_cs_3polytope
from polyfan.polytopes import (
    Polytope,
    PolytopeError,
    _facets,
    _first_simplex,
    cross_polytope,
    cube,
    free_sum,
    hull_vertices,
    linear_image,
    mask_bits,
)
from polyfan.scalars import Quadratic, sign

from oracles import brute_force_facets, rank

RADICANDS = (None, 2, 3)  # None: rational coordinates
SQRT2 = Quadratic(0, 1, 2)


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
    unitriangular matrix; full-dimensional, no point repeated.  Over
    Q(sqrt d) one point is sometimes pushed along its ray by 1 + sqrt(d)/4,
    so that the cloud is not a linear image of a rational one: only then
    do the dot products of rows and rays leave Q, and the rays need their
    leads made rational."""
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
    assume(rank([(Fraction(1),) + p for p in points]) == n + 1)
    matrix = draw(unitriangular(n, d))
    points = [_apply(matrix, p) for p in points]
    if d is not None and draw(st.booleans()):
        i = draw(st.integers(0, len(points) - 1))
        points[i] = tuple(x * Quadratic(1, Fraction(1, 4), d) for x in points[i])
        assume(rank([(Fraction(1),) + p for p in points]) == n + 1)
    return n, points


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
    """Over Q, by the package's one field rule: (c, u) scaled by the
    common denominator of the points is a primitive integer vector.  Over
    Q(sqrt d): the first nonzero entry of (c, u) has absolute value 1."""
    for _, u, c in facets:
        if linalg.radicand(points) is None:
            scale = math.lcm(*(x.denominator for p in points for x in p))
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
# A point with denominators over Q(sqrt 2): scaling the points by a common
# denominator and normalizing before undoing it breaks the unit lead.
@example((2, [(Fraction(0), Fraction(0)), (SQRT2, Fraction(1)), (Fraction(1), Fraction(0)), (SQRT2 / 2, Fraction(1, 2))]))
def test_facets_match_subset_scan(cloud):
    n, points = cloud
    # A Quadratic with zero irrational part becomes its Fraction, as in
    # every Polytope.
    points = list(Polytope(points).vertices)
    _assert_matches_oracle(points, n)
    _assert_normalized(points, _facets(points, n))


@settings(max_examples=30, deadline=None)
@given(point_clouds())
def test_hull_vertices_match_subset_scan(cloud):
    _, points = cloud
    assert set(hull_vertices(points)) == _oracle_vertices(points)


@st.composite
def row_lists(draw):
    """Rows of width 1 to 4 as _facets builds them: integer tuples, or
    Q(sqrt 2) tuples, with sums and multiples of earlier rows and zero
    rows mixed in."""
    width = draw(st.integers(1, 4))
    if draw(st.booleans()):
        entry = st.integers(-3, 3)
    else:
        entry = st.builds(Quadratic, st.integers(-2, 2), st.integers(-2, 2), st.just(2))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("new", "new", "sum", "multiple", "zero")))
        if kind == "new" or not rows:
            rows.append(tuple(draw(entry) for _ in range(width)))
        elif kind == "sum":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(tuple(x + y for x, y in zip(a, b)))
        elif kind == "multiple":
            c = draw(entry.filter(lambda x: x != 0))
            rows.append(tuple(c * x for x in draw(st.sampled_from(rows))))
        else:
            rows.append((0,) * width)
    return width, rows


@settings(max_examples=100, deadline=None)
@given(row_lists())
def test_first_simplex_is_the_greedy_choice(system):
    """The first simplex keeps a row exactly when it raises the oracle's
    rank of the rows kept before it, until ``width`` rows are kept."""
    width, rows = system
    kept = []
    for i, row in enumerate(rows):
        if len(kept) < width and rank([rows[j] for j in kept] + [row]) > len(kept):
            kept.append(i)
    if len(kept) < width:
        with pytest.raises(PolytopeError, match="not full-dimensional"):
            _first_simplex(rows, width)
    else:
        assert list(_first_simplex(rows, width)) == kept


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
    assert {frozenset(mask_bits(lattice.masks[f])) for f in lattice.facet_ids()} == expected
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


def _images_over_quadratic_fields():
    """(source, image) for the Q(sqrt 2) and Q(sqrt 3) images of cube(4)
    and cross(4) under a unitriangular map with fractional entries in
    both parts, each also with its last vertex pushed out along its ray
    by 1 + sqrt(d)/4 before the map (source None then: the push splits
    the cube's facets through it, and no rational polytope maps onto
    it).  An image alone has rational dot products of rows and rays
    (the map cancels), so only the pushed ones give irrational leads."""
    out = []
    for p in (cube(4), cross_polytope(4)):
        for d in (2, 3):
            matrix = tuple(
                tuple(
                    Fraction(1) if i == j
                    else Quadratic(Fraction(1, j - i + 1), Fraction(j, 2), d) if j > i
                    else Fraction(0)
                    for j in range(4)
                )
                for i in range(4)
            )
            out.append((p, linear_image(p, matrix)))
            *rest, last = p.vertices
            pushed = Polytope([*rest, tuple(x * Quadratic(1, Fraction(1, 4), d) for x in last)])
            out.append((None, linear_image(pushed, matrix)))
    return out


def test_pair_rays_keep_a_rational_lead_and_content_one(monkeypatch):
    """Every ray that enters or leaves an insertion over Q(sqrt d) is a
    pair vector whose first nonzero entry is rational, (x, 0), and whose
    parts have gcd 1, so no unit of Z[sqrt d] piles up in the entries."""
    cases = [
        (image, p and {mask for mask, _, _ in _facets(p.vertices, 4)})
        for p, image in _images_over_quadratic_fields()
    ]
    seen, irrational = [], [0]
    insert, pair_ray = polytopes._insert_row, polytopes._pair_ray

    def spy(rays, row, bit, width, d):
        out = insert(rays, row, bit, width, d)
        seen.extend(y for y, _ in rays + out)
        return out

    def leads(y, d):
        irrational[0] += next(v for v in y if v != (0, 0))[1] != 0
        return pair_ray(y, d)

    monkeypatch.setattr(polytopes, "_insert_row", spy)
    monkeypatch.setattr(polytopes, "_pair_ray", leads)
    for image, expected in cases:
        facets = _facets(image.vertices, 4)
        if expected is None:
            assert image.face_lattice().facet_ids()  # Euler and vertex checks
            for mask, u, c in facets:
                for i, v in enumerate(image.vertices):
                    slack = sign(c - sum((a * x for a, x in zip(u, v)), Fraction(0)))
                    assert slack >= 0 and (slack == 0) == bool(mask >> i & 1)
        else:
            assert {mask for mask, _, _ in facets} == expected
        _assert_normalized(image.vertices, facets)
    assert seen and irrational[0] > 0
    for y in seen:
        assert all(type(x) is int and type(z) is int for x, z in y)
        assert next(v for v in y if v != (0, 0))[1] == 0
        assert math.gcd(*(part for v in y for part in v)) == 1


ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


def test_insertions_do_no_quadratic_arithmetic(monkeypatch):
    """The insertion loop over Q(sqrt 2) runs on integer pairs: no
    Quadratic operator is called inside ``_insert_row`` (counted by
    wrapping the operators) on the image of cube(4), with and without a
    pushed vertex."""
    images = [image for _, image in _images_over_quadratic_fields()[:2]]
    calls = [0]
    inside = [False]

    def counted(name):
        original = getattr(Quadratic, name)

        def wrapper(*args):
            calls[0] += inside[0]
            return original(*args)

        return wrapper

    for name in ARITHMETIC:
        monkeypatch.setattr(Quadratic, name, counted(name))
    insert = polytopes._insert_row

    def flagged(*args):
        inside[0] = True
        try:
            return insert(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(polytopes, "_insert_row", flagged)
    for image in images:
        assert len(_facets(image.vertices, 4)) >= 8
    assert calls[0] == 0
    inside[0] = True
    assert SQRT2 * 2 + 1 == Quadratic(1, 2, 2)  # the wrappers do count
    assert calls[0] == 2
