"""Convex polytopes from exact vertex sets.

Facets are the extreme rays of the homogenized cone of the vertex list,
found by one double-description routine over Q (on integer-scaled rows)
or Q(sqrt d).  The other faces are the intersections of facet vertex
sets, graded from the top down without any rank computation.  The face
lattice is validated on construction: full dimension, Euler's relation,
and for every listed point the vertex criterion on facet masks (the
facets through a vertex meet in that vertex alone), again without any
rank computation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Matrix, Vector
from .scalars import is_rational, sign, to_fraction


class PolytopeError(ValueError):
    pass


class NotAVertexError(PolytopeError):
    """A listed point that is not a vertex of the hull of the list."""

    def __init__(self, index: int, point):
        self.index = index
        coords = ", ".join(str(x) for x in point)
        super().__init__(f"listed point #{index} ({coords}) is not a vertex")


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a polytope as vertex bitmasks, graded by dimension.

    Faces are sorted by (dim, mask); ids are positions in that order.  The
    empty face has dim -1 and the polytope itself dim n.  ``facet_planes``
    maps each facet id to an inequality (u, c) with u.x <= c on P and
    equality exactly on the facet.
    """

    ambient_dim: int
    num_vertices: int
    masks: tuple
    dims: tuple
    facet_planes: dict

    def face_ids(self):
        return range(len(self.masks))

    def faces_of_dim(self, k: int) -> tuple:
        return tuple(i for i, d in enumerate(self.dims) if d == k)

    def proper_face_ids(self) -> tuple:
        n = self.ambient_dim
        return tuple(i for i, d in enumerate(self.dims) if 0 <= d < n)

    def facet_ids(self) -> tuple:
        return self.faces_of_dim(self.ambient_dim - 1)

    def vertices_of(self, face_id: int) -> tuple:
        return _mask_bits(self.masks[face_id])

    def contains(self, small_id: int, big_id: int) -> bool:
        small, big = self.masks[small_id], self.masks[big_id]
        return small & big == small

    def f_vector(self) -> tuple:
        counts = [0] * self.ambient_dim
        for d in self.dims:
            if 0 <= d < self.ambient_dim:
                counts[d] += 1
        return tuple(counts)


def _mask_bits(mask: int) -> tuple:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class Polytope:
    """A full-dimensional polytope given by its exact vertex list."""

    def __init__(self, vertices):
        vs = tuple(tuple(v) for v in vertices)
        if not vs:
            raise PolytopeError("empty vertex list")
        n = len(vs[0])
        if n < 1:
            raise PolytopeError("ambient dimension must be >= 1")
        if any(len(v) != n for v in vs):
            raise PolytopeError("vertices of mixed dimension")
        if len(set(vs)) != len(vs):
            raise PolytopeError("duplicate vertices")
        self.ambient_dim = n
        self.vertices = vs
        self._lattice = None

    def __repr__(self):
        return f"Polytope(dim={self.ambient_dim}, vertices={len(self.vertices)})"

    def face_lattice(self) -> FaceLattice:
        if self._lattice is None:
            self._lattice = _build_face_lattice(self.vertices, self.ambient_dim)
        return self._lattice

    def f_vector(self) -> tuple:
        return self.face_lattice().f_vector()

    def centroid(self) -> Vector:
        m = len(self.vertices)
        return tuple(sum(col, Fraction(0)) / m for col in zip(*self.vertices))

    def translate(self, shift: Vector) -> "Polytope":
        return Polytope(tuple(linalg.vec_add(v, shift) for v in self.vertices))

    def origin_is_interior(self) -> bool:
        lattice = self.face_lattice()
        return all(
            sign(c) > 0 for (_, c) in (lattice.facet_planes[f] for f in lattice.facet_ids())
        )

    def is_centrally_symmetric(self) -> bool:
        vertex_set = set(self.vertices)
        return all(linalg.vec_neg(v) in vertex_set for v in self.vertices)

    def is_cross_polytope(self) -> bool:
        """Whether P is a linear image of conv(+-e_1, ..., +-e_n)."""
        n = self.ambient_dim
        if len(self.vertices) != 2 * n:
            return False
        vertex_set = set(self.vertices)
        representatives = []
        seen = set()
        for v in self.vertices:
            if v in seen:
                continue
            w = linalg.vec_neg(v)
            if w not in vertex_set or w == v:
                return False
            seen.add(v)
            seen.add(w)
            representatives.append(v)
        if len(representatives) != n:
            return False
        return linalg.rank(linalg.mat(representatives)) == n


def ensure_origin_interior(p: Polytope):
    """Return (P', shift) with the origin interior to P'.

    P is returned unchanged (shift None) when the origin is already
    interior; otherwise P is translated by minus the vertex centroid,
    which is always interior for a full-dimensional polytope.
    """
    if p.origin_is_interior():
        return p, None
    shift = linalg.vec_neg(p.centroid())
    return p.translate(shift), shift


# ---------------------------------------------------------------------------
# Facet enumeration


def _build_face_lattice(vertices, n: int) -> FaceLattice:
    return _lattice_from_facets(vertices, n, _facets(vertices, n))


def _facets(points, n: int) -> list:
    """Every facet of conv(points) as (mask, u, c): u.x <= c on the hull,
    with equality exactly on the points in ``mask``.

    Double description (Fukuda-Prodon 1996): a facet is an extreme ray y
    of the cone {y : y.[1|p] >= 0 for every point p}, with (c, u) =
    (y_0, -y_rest).  The cone of a first simplex is refined by one row at
    a time.  Rational points are scaled to integer rows and rays stay
    primitive integer vectors; over Q(sqrt d) a ray is divided by the
    absolute value of its first nonzero entry.  Either way each facet has
    one exact representation, independent of the insertion order.
    """
    width = n + 1
    if all(is_rational(x) for p in points for x in p):
        fracs = [[to_fraction(x) for x in p] for p in points]
        scale = math.lcm(*(x.denominator for p in fracs for x in p))
        rows = [(1,) + tuple(int(x * scale) for x in p) for p in fracs]
        normalize = linalg.primitive
    else:
        scale = None
        rows = [(Fraction(1),) + tuple(p) for p in points]
        normalize = _unit_lead
    basis = _first_simplex(rows, width)
    # {y : B y >= 0} is B^-1 applied to the orthant, so its rays are the
    # columns of B^-1.  Each ray carries its zero set: the rows inserted
    # so far that it satisfies with equality, as a bitmask.
    inverse = linalg.inverse(linalg.mat(rows[i] for i in basis))
    all_bits = sum(1 << i for i in basis)
    rays = [
        (normalize(tuple(r[j] for r in inverse)), all_bits & ~(1 << i))
        for j, i in enumerate(basis)
    ]
    chosen = set(basis)
    for k, row in enumerate(rows):
        if k not in chosen:
            rays = _insert_row(rays, row, 1 << k, width, normalize)
    if scale is None:
        return [(mask, tuple(-x for x in y[1:]), y[0]) for y, mask in rays]
    return [
        (mask, tuple(Fraction(-x) for x in y[1:]), Fraction(y[0], scale))
        for y, mask in rays
    ]


def _first_simplex(rows, width: int) -> tuple:
    """Indices of the first ``width`` linearly independent rows: the
    pivot columns of the transposed rows, whose reduced row echelon form
    pivots on each row that is independent of the rows before it."""
    columns = [{i: row[c] for i, row in enumerate(rows)} for c in range(width)]
    pivots = linalg.sparse_rref(columns)[1]
    if len(pivots) < width:
        raise PolytopeError("not full-dimensional")
    return pivots


def _insert_row(rays, row, bit: int, width: int, normalize) -> list:
    """Extreme rays of the cone cut by one more row from those before it.

    Rays on the positive side and on the row are kept; each adjacent pair
    across the row is combined into a ray on it.  Adjacency is decided on
    zero sets (Fukuda-Prodon, Proposition 7): the pair shares at least
    width - 2 zeros and no third ray vanishes on all of them.
    """
    kept, pos, neg = [], [], []
    for y, zeros in rays:
        s = sum(a * b for a, b in zip(row, y))
        side = sign(s)
        if side > 0:
            kept.append((y, zeros))
            pos.append((y, zeros, s))
        elif side < 0:
            neg.append((y, zeros, s))
        else:
            kept.append((y, zeros | bit))
    if not neg:
        return kept
    zero_sets = [zeros for _, zeros in rays]
    for p, zp, sp in pos:
        for q, zq, sq in neg:
            common = zp & zq
            if common.bit_count() < width - 2:
                continue
            if any(z & common == common and z != zp and z != zq for z in zero_sets):
                continue
            y = normalize(tuple(sp * b - sq * a for a, b in zip(p, q)))
            kept.append((y, common | bit))
    return kept


def _unit_lead(y):
    lead = next(x for x in y if x != 0)
    if sign(lead) < 0:
        lead = -lead
    return tuple(x / lead for x in y)


def _lattice_from_facets(vertices, n: int, facets) -> FaceLattice:
    """Every face as an intersection of facet masks, graded from the top:
    the facets of a k-face are the inclusion-maximal proper intersections
    with facets of P, and they are (k-1)-faces."""
    full_mask = (1 << len(vertices)) - 1
    facet_masks = [mask for mask, _, _ in facets]
    dims = {full_mask: n}
    layer = set(facet_masks)
    for k in range(n - 1, -1, -1):
        below = set()
        for face in layer:
            dims[face] = k
            below.update(_maximal_proper(face, facet_masks))
        layer = below
    dims[0] = -1

    ordered = sorted(dims, key=lambda msk: (dims[msk], msk))
    ids = {mask: i for i, mask in enumerate(ordered)}
    lattice = FaceLattice(
        ambient_dim=n,
        num_vertices=len(vertices),
        masks=tuple(ordered),
        dims=tuple(dims[mask] for mask in ordered),
        facet_planes={ids[mask]: (tuple(u), c) for mask, u, c in facets},
    )
    _validate_lattice(vertices, lattice)
    return lattice


def _maximal_proper(face: int, facet_masks) -> list:
    """Inclusion-maximal masks among face & f that differ from face."""
    candidates = {face & f for f in facet_masks}
    candidates.discard(face)
    out = []
    for c in sorted(candidates, key=int.bit_count, reverse=True):
        if not any(c & o == c for o in out):
            out.append(c)
    return out


def _validate_lattice(vertices, lattice: FaceLattice) -> None:
    n = lattice.ambient_dim
    euler = sum(
        (-1) ** lattice.dims[i]
        for i in lattice.face_ids()
        if 0 <= lattice.dims[i] < n
    )
    if euler != 1 + (-1) ** (n - 1):
        raise PolytopeError(f"face counts violate Euler's relation (sum {euler})")
    facet_masks = [lattice.masks[f] for f in lattice.facet_ids()]
    for i, v in enumerate(vertices):
        if _smallest_face(i, facet_masks) != 1 << i:
            raise NotAVertexError(i, v)


def _smallest_face(i: int, facet_masks) -> int:
    """Mask of the smallest face holding listed point i: the meet of the
    facets through it, or -1 (every bit) when none is.  The point is a
    vertex exactly when this is bit i alone; otherwise it lies in the
    relative interior of a face with at least two listed vertices, or
    in the interior."""
    meet = -1
    for mask in facet_masks:
        if mask >> i & 1:
            meet &= mask
    return meet


# ---------------------------------------------------------------------------
# Generators


def simplex(n: int) -> Polytope:
    """An n-simplex with the origin at the vertex centroid (interior)."""
    if n < 1:
        raise PolytopeError("dimension must be >= 1")
    vs = [linalg.unit(n, i) for i in range(n)]
    vs.append((Fraction(-1),) * n)
    return Polytope(vs)


def cube(n: int) -> Polytope:
    if n < 1:
        raise PolytopeError("dimension must be >= 1")
    vs = []
    for bits in range(1 << n):
        vs.append(tuple(Fraction(1 if bits >> i & 1 else -1) for i in range(n)))
    return Polytope(vs)


def cross_polytope(n: int) -> Polytope:
    if n < 1:
        raise PolytopeError("dimension must be >= 1")
    vs = []
    for i in range(n):
        vs.append(linalg.unit(n, i))
        vs.append(linalg.vec_neg(linalg.unit(n, i)))
    return Polytope(vs)


def product(p: Polytope, q: Polytope) -> Polytope:
    return Polytope(tuple(v + w for v in p.vertices for w in q.vertices))


def free_sum(p: Polytope, q: Polytope) -> Polytope:
    """conv(P x 0 union 0 x Q); both summands need the origin interior."""
    if not (p.origin_is_interior() and q.origin_is_interior()):
        raise PolytopeError("free sum needs the origin interior to both summands")
    a, b = p.ambient_dim, q.ambient_dim
    vs = [v + linalg.zeros(b) for v in p.vertices]
    vs += [linalg.zeros(a) + w for w in q.vertices]
    return Polytope(vs)


def linear_image(p: Polytope, matrix: Matrix) -> Polytope:
    """Image of P under an invertible linear map (rows act on coordinates)."""
    n = p.ambient_dim
    if len(matrix) != n or any(len(row) != n for row in matrix) or linalg.rank(matrix) != n:
        raise PolytopeError("linear image requires an invertible matrix")
    return Polytope(tuple(linalg.mat_vec(matrix, v) for v in p.vertices))


def hull_vertices(points) -> tuple:
    """Extreme points of conv(points), via facet enumeration of the hull:
    a point is extreme when the facets through it meet in it alone."""
    pts = []
    seen = set()
    for p in points:
        t = tuple(p)
        if t not in seen:
            seen.add(t)
            pts.append(t)
    masks = [mask for mask, _, _ in _facets(pts, len(pts[0]))]
    return tuple(p for i, p in enumerate(pts) if _smallest_face(i, masks) == 1 << i)


def random_cs(n: int, pairs: int, seed: int) -> Polytope:
    """A random centrally symmetric polytope conv(+-p_1, ..., +-p_k).

    Deterministic per (n, pairs, seed); non-extreme points are dropped.
    Raises if the result is degenerate (lower-dimensional or too few
    vertices).
    """
    if n < 1:
        raise PolytopeError("dimension must be >= 1")
    if pairs < n:
        raise PolytopeError("need at least n point pairs")
    rng = random.Random(f"cs/{n}/{pairs}/{seed}")
    points = []
    for _ in range(pairs):
        p = (Fraction(0),) * n
        while all(x == 0 for x in p):
            p = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        points.append(p)
        points.append(linalg.vec_neg(p))
    if linalg.rank(linalg.mat(points)) != n:
        raise PolytopeError("degenerate: points span a proper subspace")
    verts = hull_vertices(points)
    if len(verts) < n + 1:
        raise PolytopeError("degenerate: too few extreme points")
    return Polytope(sorted(verts))
