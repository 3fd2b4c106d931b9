"""Convex polytopes from exact vertex sets.

Facets are the extreme rays of the homogenized cone of the vertex list,
found by one double-description routine that runs on integers for both
fields: primitive integer rows and rays over Q, and over Q(sqrt d) rows
and rays of integer pairs (x, y) standing for x + y sqrt d, with no
field arithmetic per ray.  Each facet plane u.x <= c comes out in one
exact form: over Q, (c times the common denominator of the points, u)
is a primitive integer vector; over Q(sqrt d), the first nonzero entry
of (c, u) is 1 or -1.  The other faces are graded from the top down
without any rank computation: by the diamond property (Ziegler,
*Lectures on Polytopes*, Thm 2.7) the facets of a face lie among its
intersections with the other facets of one face it is a facet of, and
the covers found on the way give each face its down-set as a bitset.
The face lattice is validated on construction: full dimension, Euler's
relation, and for every listed point the vertex criterion on facet
masks (the facets through a vertex meet in that vertex alone), again
without any rank computation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Matrix, Vector
from .scalars import Quadratic, quadratic_sign, sign


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
    empty face has dim -1 and the polytope itself dim n.  ``down[i]`` has
    bit j set for each face j strictly below face i.  ``facet_planes``
    maps each facet id to an inequality (u, c) with u.x <= c on P and
    equality exactly on the facet.
    """

    ambient_dim: int
    num_vertices: int
    masks: tuple
    dims: tuple
    down: tuple
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

    def f_vector(self) -> tuple:
        counts = [0] * self.ambient_dim
        for d in self.dims:
            if 0 <= d < self.ambient_dim:
                counts[d] += 1
        return tuple(counts)


def mask_bits(mask: int) -> tuple:
    """Positions of the set bits of a nonnegative integer, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Polytope:
    """A full-dimensional polytope given by its exact vertex list.  A
    Quadratic coordinate with zero irrational part is kept as its
    Fraction, so :func:`linalg.radicand` of the vertices is the field of
    the polytope."""

    def __init__(self, vertices):
        vs = tuple(tuple(x.a if type(x) is Quadratic and not x.b else x for x in v) for v in vertices)
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
        # The vertex list never changes, so each of these is decided once.
        self._lattice = self._symmetric = self._interior = None

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
        if self._interior is None:
            planes = self.face_lattice().facet_planes
            self._interior = all(sign(c) > 0 for _, c in planes.values())
        return self._interior

    def is_centrally_symmetric(self) -> bool:
        if self._symmetric is None:
            vertex_set = set(self.vertices)
            self._symmetric = all(linalg.vec_neg(v) in vertex_set for v in self.vertices)
        return self._symmetric

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
    a time, on integers.  Points over Q (:func:`linalg.radicand` None)
    are scaled to integer rows and rays stay primitive integer vectors.
    Over Q(sqrt d) a row is the primitive pair row of [1|p], a positive
    multiple of it, and a ray keeps a rational first nonzero entry and
    content 1 (:func:`_pair_ray`); at the end (c, u) is divided by the
    absolute value of that entry.  Either way each facet has one exact
    form, whatever the insertion order.
    """
    width = n + 1
    d = linalg.radicand(points)
    if d is None:
        scale = math.lcm(*(x.denominator for p in points for x in p))
        rows = scalar_rows = [
            (1,) + tuple(x.numerator * (scale // x.denominator) for x in p) for p in points
        ]
    else:
        scalar_rows = [(Fraction(1),) + tuple(p) for p in points]
        rows = [linalg._integral(r, d) for r in scalar_rows]
    basis = _first_simplex(scalar_rows, width)
    # {y : B y >= 0} is B^-1 applied to the orthant, so its rays are the
    # columns of B^-1.  Each ray carries its zero set: the rows inserted
    # so far that it satisfies with equality, as a bitmask.
    inverse = linalg.inverse(linalg.mat(scalar_rows[i] for i in basis))
    all_bits = sum(1 << i for i in basis)
    rays = []
    for j, i in enumerate(basis):
        y = linalg._integral([r[j] for r in inverse], d)
        rays.append((y if d is None else _pair_ray(y, d), all_bits & ~(1 << i)))
    chosen = set(basis)
    for k, row in enumerate(rows):
        if k not in chosen:
            rays = _insert_row(rays, row, 1 << k, width, d)
    if d is None:
        return [
            (mask, tuple(Fraction(-x) for x in y[1:]), Fraction(y[0], scale))
            for y, mask in rays
        ]
    out = []
    for y, mask in rays:
        lead = abs(next(x for x, _ in y if x))
        y = [linalg._scalar(v, lead, d) for v in y]
        out.append((mask, tuple(-x for x in y[1:]), y[0]))
    return out


def _first_simplex(rows, width: int) -> tuple:
    """Indices of the first ``width`` linearly independent rows: the
    pivot columns of the transposed rows, whose reduced row echelon form
    pivots on each row that is independent of the rows before it."""
    columns = [{i: row[c] for i, row in enumerate(rows)} for c in range(width)]
    pivots = linalg.sparse_rref(columns)[1]
    if len(pivots) < width:
        raise PolytopeError("not full-dimensional")
    return pivots


def _insert_row(rays, row, bit: int, width: int, d) -> list:
    """Extreme rays of the cone cut by one more row from those before it,
    on integer rows and rays (d None) or pair rows and rays over Q(sqrt d).

    Rays on the positive side and on the row are kept; each adjacent pair
    across the row is combined into a ray on it.  Adjacency is decided on
    zero sets (Fukuda-Prodon, Proposition 7): the pair shares at least
    width - 2 zeros and no third ray vanishes on all of them.
    """
    kept, pos, neg = [], [], []
    for y, zeros in rays:
        if d is None:
            s = sum(a * b for a, b in zip(row, y))
            side = (s > 0) - (s < 0)
        else:
            s = _pair_dot(row, y, d)
            side = quadratic_sign(*s, d)
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
            if d is None:
                y = linalg.primitive([sp * b - sq * a for a, b in zip(p, q)])
            else:
                y = _pair_ray(_pair_combination(p, q, sp, sq, d), d)
            kept.append((y, common | bit))
    return kept


def _pair_dot(row, y, d: int) -> tuple:
    """The dot product of pair vectors over Q(sqrt d), as a pair."""
    sx = sy = 0
    for (a, b), (x, z) in zip(row, y):
        sx += a * x + d * b * z
        sy += a * z + b * x
    return sx, sy


def _pair_combination(p, q, sp, sq, d: int) -> list:
    """sp q - sq p for pair vectors p, q and pair scalars sp, sq."""
    (a, b), (e, f) = sp, sq
    return [
        (a * qx + d * b * qy - e * px - d * f * py, a * qy + b * qx - e * py - f * px)
        for (px, py), (qx, qy) in zip(p, q)
    ]


def _pair_ray(y, d: int) -> list:
    """A nonzero pair vector over Q(sqrt d) scaled by a positive factor to
    a rational first nonzero entry and content 1.  When that entry
    lx + ly sqrt d has ly != 0 the factor is its conjugate lx - ly sqrt d
    times the conjugate's sign, which makes it the integer |lx^2 - d ly^2|;
    without this, units of Z[sqrt d] would pile up in the entries from
    one insertion to the next."""
    lx, ly = next(v for v in y if v[0] or v[1])
    if ly:
        k = quadratic_sign(lx, -ly, d)
        cx, cy = k * lx, -k * ly
        y = [(x * cx + d * z * cy, x * cy + z * cx) for x, z in y]
    g = math.gcd(*(part for v in y for part in v))
    return [(x // g, z // g) for x, z in y]


def _lattice_from_facets(vertices, n: int, facets) -> FaceLattice:
    """Every face as an intersection of facet masks, graded from the top.
    A face H first found as a facet of K keeps K as its upper cover.  By
    the diamond property every facet of H is H & H' for exactly one other
    facet H' of K (Kaibel-Pfetsch 2002), so the facets of H are the
    inclusion-maximal proper meets of H with the facets of K (all facets
    when K is P).  These covers are kept, and in increasing dimension a
    face's down-set is the union of each cover's down-set and the cover."""
    full_mask = (1 << len(vertices)) - 1
    facet_masks = [mask for mask, _, _ in facets]
    dims = {full_mask: n}
    covers = {full_mask: facet_masks}
    layer = dict.fromkeys(facet_masks, full_mask)  # face -> one upper cover
    for k in range(n - 1, -1, -1):
        below = {}
        for face, upper in layer.items():
            dims[face] = k
            covers[face] = _maximal_proper(face, covers[upper])
            for c in covers[face]:
                below.setdefault(c, face)
        layer = below
    dims[0], covers[0] = -1, ()

    ordered = sorted(dims, key=lambda msk: (dims[msk], msk))
    ids = {mask: i for i, mask in enumerate(ordered)}
    down = []
    for mask in ordered:
        bits = 0
        for i in map(ids.__getitem__, covers[mask]):
            bits |= down[i] | 1 << i
        down.append(bits)
    lattice = FaceLattice(
        ambient_dim=n,
        num_vertices=len(vertices),
        masks=tuple(ordered),
        dims=tuple(dims[mask] for mask in ordered),
        down=tuple(down),
        facet_planes={ids[mask]: (tuple(u), c) for mask, u, c in facets},
    )
    _validate_lattice(vertices, lattice)
    return lattice


def _maximal_proper(face: int, candidates) -> list:
    """Inclusion-maximal masks among face & c that differ from face."""
    meets = {face & c for c in candidates}
    meets.discard(face)
    out = []
    for m in sorted(meets, key=int.bit_count, reverse=True):
        for o in out:
            if m & o == m:
                break
        else:
            out.append(m)
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
