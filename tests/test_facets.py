"""Double-description facet enumeration against the subset-scan oracle.

Point clouds carry interior points and points on facets; images of small
polytopes under unitriangular maps (so always invertible) cover Q and
Q(sqrt 2)/Q(sqrt 3) coordinates.  Each facet's ray is checked against
the plane the oracle puts through the facet.
"""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyfan import linalg, polytopes
from polyfan.analysis import Analysis
from polyfan.cli import main, polytope_to_json
from polyfan.corpus import cs_corpus, nonsimplicial_cs_3polytope
from polyfan.fans import support_function
from polyfan.polytopes import (
    Polytope,
    PolytopeError,
    _facets,
    _first_simplex,
    _insert_row,
    _maximal_proper,
    cross_polytope,
    cube,
    free_sum,
    hull_vertices,
    linear_image,
    mask_bits,
    random_cs,
    simplex,
)
from polyfan.reports import bounds_report, field_json
from polyfan.scalars import Field, Quadratic, sign

from oracles import (
    _solve_hyperplane,
    brute_force_facets,
    canonical_ray,
    down_sets_by_scan,
    insert_row_unpruned,
    inverse,
    rank,
    scalar,
)

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


def _oracle_plane(points, mask: int):
    """The plane (u, c) that the oracle puts through the points in
    ``mask``, oriented so that u.x <= c on every point."""
    u, c = _solve_hyperplane([p for i, p in enumerate(points) if mask >> i & 1], len(points[0]))
    if any(sign(sum((a * x for a, x in zip(u, p)), Fraction(0)) - c) > 0 for p in points):
        return tuple(-a for a in u), -c
    return u, c


def _assert_rays(points, facets):
    """Each ray y is primitive over Q, and over Q(sqrt d) has a rational
    first nonzero entry and parts of gcd 1; on the rows (1, s p) of the
    points at their common scale s it is 0 exactly on its mask and
    positive on the other points."""
    _, s, d = linalg.integral_rows(points, linalg.radicand(points))
    for mask, y in facets:
        if d is None:
            assert all(type(x) is int for x in y) and math.gcd(*y) == 1
        else:
            assert next(v for v in y if v != (0, 0))[1] == 0
            assert math.gcd(*(part for v in y for part in v)) == 1
        y0, *rest = (scalar(x, 1, d) for x in y)
        for i, p in enumerate(points):
            side = sign(y0 + sum((a * s * x for a, x in zip(rest, p)), Fraction(0)))
            assert side >= 0 and (side == 0) == bool(mask >> i & 1)


def _assert_matches_oracle(points, n):
    """Facet masks equal the oracle's, the rays pass :func:`_assert_rays`,
    and each is a positive multiple of (s c, -u) for the oracle's plane
    u.x <= c through its facet; returns the oracle's facets."""
    expected = brute_force_facets(points)
    facets = _facets(points, n)
    masks = [_mask_set(mask) for mask, _ in facets]
    assert len(set(masks)) == len(masks)
    assert set(masks) == expected
    _assert_rays(points, facets)
    _, s, d = linalg.integral_rows(points, linalg.radicand(points))
    for mask, y in facets:
        u, c = _oracle_plane(points, mask)
        plane = [s * c] + [-a for a in u]
        ray = [scalar(x, 1, d) for x in y]
        k = next(j for j, x in enumerate(plane) if x != 0)
        ratio = ray[k] / plane[k]
        assert sign(ratio) > 0 and ray == [ratio * x for x in plane]
    return expected


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
# A point with denominators over Q(sqrt 2): the rays are on the points
# scaled by their common denominator, which (s c, -u) must undo.
@example((2, [(Fraction(0), Fraction(0)), (SQRT2, Fraction(1)), (Fraction(1), Fraction(0)), (SQRT2 / 2, Fraction(1, 2))]))
def test_facets_match_subset_scan(cloud):
    n, points = cloud
    # A Quadratic with zero irrational part becomes its Fraction, as in
    # every Polytope.
    points = list(Polytope(points).vertices)
    _assert_matches_oracle(points, n)


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
    integral, _, d = linalg.integral_rows(rows, linalg.radicand(rows))
    if len(kept) < width:
        with pytest.raises(PolytopeError, match="not full-dimensional"):
            _first_simplex(integral, width, d)
    else:
        assert list(_first_simplex(integral, width, d)[0]) == kept


@st.composite
def full_rank_systems(draw):
    """Rows over Q, Q(sqrt 2) or Q(sqrt 3), with denominators, of rank
    their width, and as many rows as the width or up to three more."""
    width = draw(st.integers(1, 5))
    d = draw(st.sampled_from(RADICANDS))
    rows = [tuple(_scalar(draw, d) for _ in range(width)) for _ in range(width + draw(st.integers(0, 3)))]
    assume(rank(rows) == width)
    return width, rows


@settings(max_examples=150, deadline=None)
@given(full_rank_systems())
def test_start_rays_are_the_primitive_columns_of_the_inverse(system):
    """The rays of the first simplex B, read off the elimination of
    [rows^T | I], are the columns of the dense inverse of B made
    primitive (and over Q(sqrt d) given a rational lead, as every ray
    is): their :func:`canonical_ray`."""
    width, rows = system
    integral, _, d = linalg.integral_rows(rows, linalg.radicand(rows))
    basis, rays = _first_simplex(integral, width, d)
    assert rays == [canonical_ray(column, d) for column in zip(*inverse([rows[i] for i in basis]))]


SUMMANDS = (cube(1), cube(2), cross_polytope(2), simplex(2), simplex(3), nonsimplicial_cs_3polytope())


@st.composite
def hulls_and_free_sums(draw):
    """The vertices of a point cloud's hull, or a free sum of two or three
    small polytopes (simplicial, simple and neither) in dimension <= 6."""
    if draw(st.booleans()):
        return Polytope(hull_vertices(draw(point_clouds())[1]))
    summands = draw(st.lists(st.sampled_from(SUMMANDS), min_size=2, max_size=3))
    assume(sum(p.ambient_dim for p in summands) <= 6)
    return functools.reduce(free_sum, summands)


@settings(max_examples=60, deadline=None)
@given(hulls_and_free_sums())
def test_face_covers_are_the_maximal_meets_with_all_facets(p):
    """Each face's covers, the faces one dimension lower in its down-set,
    are its inclusion-maximal proper meets with all facets, whether the
    lattice took them by the simplex rule or from one upper cover."""
    lattice = p.face_lattice()
    facet_masks = [lattice.masks[f] for f in lattice.facet_ids()]
    for i, mask in enumerate(lattice.masks):
        k = lattice.dims[i]
        if k >= 0:
            covers = {lattice.masks[j] for j in mask_bits(lattice.down[i]) if lattice.dims[j] == k - 1}
            assert covers == set(_maximal_proper(mask, facet_masks))


@pytest.mark.parametrize("d", RADICANDS)
def test_vertex_rows_and_start_simplex_build_no_scalar(d, quadratic_image, count_scalars, monkeypatch):
    """A polytope's vertex rows, its symmetry, the antipode lookup of
    is_cross_polytope, the first simplex and start rays of _facets, and
    the rest of the check-bounds path after parsing (the face lattice,
    the origin test and the bounds report of an analysis) run on
    integers: they construct no Fraction and no Quadratic."""
    sources = (cube(3), cross_polytope(3), nonsimplicial_cs_3polytope())
    vertices = [p.vertices if d is None else quadratic_image(p, d).vertices for p in sources]
    field = Field.rational() if d is None else Field.quadratic(d)
    built = count_scalars()
    ps = [Polytope(vs) for vs in vertices]
    symmetric = [(p.is_centrally_symmetric(), p.is_cross_polytope()) for p in ps]
    assert symmetric == [(True, False), (True, True), (True, False)]
    for p in ps:
        rows, _, field_d = p._integral
        assert field_d == d
        _first_simplex([(linalg.ring(d).one,) + row for row in rows], 4, d)
        assert p.face_lattice().facet_ids() and p.origin_is_interior()
        bounds_report(Analysis(p), field)
    monkeypatch.undo()
    assert not built, built


@pytest.mark.parametrize("d", RADICANDS)
def test_check_bounds_builds_no_scalar(d, quadratic_image, count_scalars, monkeypatch, tmp_path, capsys):
    """check-bounds on a vertex file, from reading the file to writing
    the report, runs on integers: ``cli.main`` on cube(3), cross(3) and
    the prism over a diamond, over Q and their images over Q(sqrt d),
    constructs no Fraction and no Quadratic."""
    field = Field.rational() if d is None else Field.quadratic(d)
    paths = []
    for name, p in (("cube-3", cube(3)), ("cross-3", cross_polytope(3)), ("prism", nonsimplicial_cs_3polytope())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(polytope_to_json(p if d is None else quadratic_image(p, d), field, name)))
        paths.append(str(path))
    built = count_scalars()
    outputs = [(main(["check-bounds", path, "--json"]), capsys.readouterr().out) for path in paths]
    monkeypatch.undo()
    assert all(code == 0 and json.loads(out)["field"] == field_json(field) for code, out in outputs)
    assert not built, built


@pytest.mark.parametrize("d", RADICANDS)
def test_support_function_is_minus_u_over_c_of_the_oracle_planes(d, quadratic_image):
    """On the CS corpus and the Q(sqrt d) images of its rational members
    of dimension 2 and up, each also shrunk by 1/2 (so that the vertex
    rows have a common scale s > 1), the support function's piece on each
    facet is -u/c for the oracle's plane u.x <= c there."""
    for _, p in cs_corpus():
        if d is not None:
            if p.ambient_dim < 2 or linalg.radicand(p.vertices) is not None:
                continue
            p = quadratic_image(p, d)
        half = [[Fraction(i == j, 2) for j in range(p.ambient_dim)] for i in range(p.ambient_dim)]
        for q in (p, linear_image(p, half)):
            lattice = q.face_lattice()
            covectors = support_function(q).covectors
            assert set(covectors) == set(lattice.facet_ids())
            for f, covector in covectors.items():
                u, c = _oracle_plane(q.vertices, lattice.masks[f])
                assert covector == tuple(-x / c for x in u)


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
        # The rows are the points times 2, so the ray of u.x <= 1 is (2, -u).
        expected = {}
        for s in itertools.product((1, -1), repeat=4):
            tight = (i for i, p in enumerate(points) if sum(a * x for a, x in zip(s, p)) == 1)
            expected[sum(1 << i for i in tight)] = (2,) + tuple(-x for x in s)
        facets = _facets(points, 4)
        assert len(facets) == 16
        assert dict(facets) == expected


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
        (image, p and {mask for mask, _ in _facets(p.vertices, 4)})
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
        else:
            assert {mask for mask, _ in facets} == expected
        _assert_rays(image.vertices, facets)
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


def _assert_insertions_match_unpruned(points, n):
    """Run the double description of conv(points) as :func:`_facets` does
    and, before each insertion, compare the package's rays and zero sets
    with the unpruned insertion's.  Every ray holds at least n zeros
    (width - 1; an extreme ray of a pointed cone in n + 1 dimensions),
    which is why no ray can be left out of the third-ray scan for having
    too few.  Returns the number of rays seen."""
    width = n + 1
    vectors, _, d = linalg.integral_rows(points, linalg.radicand(points))
    rows = [(linalg.ring(d).one,) + v for v in vectors]
    basis, start = _first_simplex(rows, width, d)
    all_bits = sum(1 << i for i in basis)
    rays = [(y, all_bits & ~(1 << i)) for i, y in zip(basis, start)]
    seen = 0
    for k, row in enumerate(rows):
        if k in basis:
            continue
        assert all(zeros.bit_count() >= width - 1 for _, zeros in rays)
        got = _insert_row(rays, row, 1 << k, width, d)
        assert got == insert_row_unpruned(rays, row, 1 << k, width, d)
        seen += len(rays)
        rays = got
    assert [(mask, tuple(y)) for y, mask in rays] == _facets(points, n)
    return seen


@settings(max_examples=60, deadline=None)
@given(point_clouds())
def test_insertions_match_the_unpruned_insertion(cloud):
    """Differential test of :func:`_insert_row` against the unpruned scan
    kept in the oracles, over point clouds in Q, Q(sqrt 2) and Q(sqrt 3)
    with points inside and on faces of the hull."""
    n, points = cloud
    _assert_insertions_match_unpruned(points, n)


@pytest.mark.parametrize(
    "p, rays",
    [(cross_polytope(7), 147), (cube(5), 252), (random_cs(5, 14, 3), 2461)],
    ids=["cross-7", "cube-5", "random-cs-5"],
)
def test_insertions_with_many_intermediate_rays_match_the_unpruned_insertion(p, rays):
    """Inputs whose insertions hold many rays: cross(7) ends with 128
    facets from 14 rows and random_cs(5, 14, 3) with 236; ``rays`` is
    the number of rays that enter an insertion, summed."""
    assert _assert_insertions_match_unpruned(p.vertices, p.ambient_dim) == rays


@pytest.mark.parametrize("index", range(8))
def test_pair_insertions_match_the_unpruned_insertion(index):
    """The Q(sqrt 2) and Q(sqrt 3) images of cube(4) and cross(4), with
    and without a pushed vertex: pair rows and rays."""
    image = _images_over_quadratic_fields()[index][1]
    _assert_insertions_match_unpruned(image.vertices, image.ambient_dim)


@st.composite
def lattice_sources(draw):
    """A random_cs draw, a free sum or hull from :func:`hulls_and_free_sums`,
    or a Q(sqrt 2) or Q(sqrt 3) image of a small polytope."""
    kind = draw(st.sampled_from(("random_cs", "sum", "image")))
    if kind == "random_cs":
        n = draw(st.integers(2, 4))
        try:
            return random_cs(n, draw(st.integers(n, n + 4)), draw(st.integers(0, 99)))
        except PolytopeError:
            assume(False)
    if kind == "sum":
        return draw(hulls_and_free_sums())
    p = draw(st.sampled_from(SMALL))
    return linear_image(p, draw(unitriangular(p.ambient_dim, draw(st.sampled_from((2, 3))))))


@settings(max_examples=60, deadline=None)
@given(lattice_sources())
def test_lattice_ids_are_sorted_by_dimension_then_mask(p):
    """Face ids follow (dim, mask) strictly, as the lattice's layers are
    joined in increasing dimension, and every down-set is the set of
    faces whose vertex masks lie in the face's, by a scan of all pairs."""
    lattice = p.face_lattice()
    keys = list(zip(lattice.dims, lattice.masks))
    assert keys == sorted(set(keys))
    assert keys[0] == (-1, 0) and keys[-1] == (p.ambient_dim, (1 << len(p.vertices)) - 1)
    scan = down_sets_by_scan(p)
    for i in range(len(lattice.masks) - 1):
        assert frozenset(mask_bits(lattice.down[i])) == scan[i]
    assert lattice.down[-1] == (1 << (len(lattice.masks) - 1)) - 1
