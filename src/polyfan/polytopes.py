"""Convex polytopes from exact vertex sets.

A polytope keeps its vertices once as integral rows at one common scale
(ints over Q, integer pairs (x, y) for x + y sqrt d over Q(sqrt d)) and
decides duplicates and central symmetry on them.  Facets are the extreme
rays of the homogenized cone of those rows, found by one double
description on integers for both fields from the first simplex and start
rays of one fraction-free elimination.  Each facet is kept as that
ray, in one exact form: a primitive integer vector over Q, and over
Q(sqrt d) a pair vector with a rational first nonzero entry and content
1; no scalar plane is built.  The other faces are graded from the
top down without any rank computation: a simplex face's facets drop one
vertex each, and by the diamond property (Ziegler, *Lectures on
Polytopes*, Thm 2.7) the facets of any face lie among its intersections
with the facets of one face it is a facet of; the covers found on the
way give each face its down-set as a bitset.  The face lattice is
validated on construction: full dimension, Euler's relation, and for
every listed point the vertex criterion on facet masks (the facets
through a vertex meet in that vertex alone), again without any rank
computation.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg
from .linalg import Matrix
from .scalars import Quadratic, quadratic_sign


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
    bit j set for each face j strictly below face i.  ``facet_rays``
    maps each facet id to its ray y of :func:`_facets`: y.(1, s v) >= 0
    for the polytope's integral vertex rows s v, with equality exactly on
    the facet.
    """

    ambient_dim: int
    masks: tuple
    dims: tuple
    down: tuple
    facet_rays: dict

    def faces_of_dim(self, k: int) -> range:
        return range(bisect_left(self.dims, k), bisect_right(self.dims, k))

    def facet_ids(self) -> range:
        return self.faces_of_dim(self.ambient_dim - 1)

    def f_vector(self) -> tuple:
        return tuple(len(self.faces_of_dim(k)) for k in range(self.ambient_dim))


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
    the polytope; its :func:`linalg.integral_rows` decide duplicates,
    symmetry and facets.  A polytope built :meth:`from_rows` has only
    those rows, and forms ``vertices`` when a caller reads them."""

    def __init__(self, vertices):
        vs = tuple(tuple(x.a if type(x) is Quadratic and not x.b else x for x in v) for v in vertices)
        if not vs:
            raise PolytopeError("empty vertex list")
        n = len(vs[0])
        if n < 1:
            raise PolytopeError("ambient dimension must be >= 1")
        if any(len(v) != n for v in vs):
            raise PolytopeError("vertices of mixed dimension")
        self._set_rows(linalg.integral_rows(vs, linalg.radicand(vs)))
        self.vertices = vs

    @classmethod
    def from_rows(cls, integral) -> "Polytope":
        """The polytope with vertices rows / s for the (rows, s, d) of
        :func:`linalg.integral_rows`: nonempty rows of one length n >= 1,
        s the least scale that makes them integral, and d None when no
        row has an irrational part."""
        p = cls.__new__(cls)
        p._set_rows(integral)
        return p

    def _set_rows(self, integral) -> None:
        rows = integral[0]
        if len(set(rows)) != len(rows):
            raise PolytopeError("duplicate vertices")
        self._integral = integral
        self.ambient_dim = len(rows[0])
        # The vertex list never changes, so each of these is decided once.
        self._lattice = self._symmetric = self._interior = None

    @cached_property
    def vertices(self) -> tuple:
        """The vertices as scalars: Fractions, or Quadratics where the
        irrational part is nonzero."""
        rows, s, d = self._integral
        return tuple(tuple(linalg._scalar(x, s, d) for x in row) for row in rows)

    @property
    def vertex_count(self) -> int:
        return len(self._integral[0])

    def __repr__(self):
        return f"Polytope(dim={self.ambient_dim}, vertices={self.vertex_count})"

    def face_lattice(self) -> FaceLattice:
        if self._lattice is None:
            rows = self._integral[0]
            try:
                self._lattice = _build_face_lattice(rows, self.ambient_dim, self._integral)
            except NotAVertexError as exc:  # raised on a row: name the point as listed
                raise NotAVertexError(exc.index, self.vertices[exc.index]) from None
        return self._lattice

    def f_vector(self) -> tuple:
        return self.face_lattice().f_vector()

    def origin_is_interior(self) -> bool:
        if self._interior is None:
            sign = linalg.ring(self._integral[2]).sign
            self._interior = all(sign(y[0]) > 0 for y in self.face_lattice().facet_rays.values())
        return self._interior

    def is_centrally_symmetric(self) -> bool:
        if self._symmetric is None:
            self._symmetric = linalg.antipodes(self._integral) is not None
        return self._symmetric

    def is_cross_polytope(self) -> bool:
        """Whether P is a linear image of conv(+-e_1, ..., +-e_n)."""
        n = self.ambient_dim
        if self.vertex_count != 2 * n:
            return False
        partner = linalg.antipodes(self._integral)
        if partner is None or any(i == j for i, j in enumerate(partner)):
            return False
        rows, _, d = self._integral
        representatives = [row for i, row in enumerate(rows) if i < partner[i]]
        return len(linalg.stored_rows(representatives, d)) == n


def ensure_origin_interior(p: Polytope):
    """Return (P', shift) with the origin interior to P'.

    P is returned unchanged (shift None) when the origin is already
    interior; otherwise P is translated by minus the vertex centroid,
    which is always interior for a full-dimensional polytope.  That runs
    on the m integral rows R = s v, parts x and y apart over Q(sqrt d):
    with t their sum, the translate's vertices are (m R - t) / (m s),
    whose :func:`linalg.scaled_rows` (over Q when no irrational part is
    left) are its integral rows.  A translation keeps every face, so the
    lattice carries over with the facet rays of the new rows.  Only the
    shift -t / (m s) is formed as scalars.
    """
    if p.origin_is_interior():
        return p, None
    rows, s, d = p._integral
    m = len(rows)
    flat = rows if d is None else [[z for xy in row for z in xy] for row in rows]
    total = [sum(column) for column in zip(*flat)]
    parts = [[linalg.cofactors(m * s, m * z - t) for z, t in zip(v, total)] for v in flat]
    moved = Polytope.from_rows(linalg.scaled_rows(parts, d))
    minus = [-t for t in total]
    shift = tuple(linalg._scalar(x, m * s, d) for x in (minus if d is None else linalg._pairs(minus)))
    lattice = p.face_lattice()
    ids = {lattice.masks[f]: f for f in lattice.facet_rays}
    facets = _facets(moved._integral[0], p.ambient_dim, moved._integral)
    if ids.keys() != {mask for mask, _ in facets}:
        raise PolytopeError("the translate has other facets")
    moved._lattice = replace(lattice, facet_rays={ids[mask]: y for mask, y in facets})
    return moved, shift


# ---------------------------------------------------------------------------
# Facet enumeration


def _build_face_lattice(vertices, n: int, integral=None) -> FaceLattice:
    return _lattice_from_facets(vertices, n, _facets(vertices, n, integral))


def _facets(points, n: int, integral=None) -> list:
    """Every facet of conv(points) as (mask, y): y.(1, s p) >= 0 for
    every point p, with equality exactly on the points in ``mask``.

    Double description (Fukuda-Prodon 1996): a facet is an extreme ray y
    of the cone {y : y.[1|s p] >= 0 for every point p}, with s p the
    points' :func:`linalg.integral_rows` (``integral``, if the caller has
    them), so (-y_rest).x <= y_0 / s is its plane.  The cone of a first
    simplex is refined by one row at a time, on integers: over Q rays
    stay primitive integer vectors; over Q(sqrt d) rows and rays are
    integer pairs and a ray keeps a rational first nonzero entry and
    content 1 (:func:`_pair_ray`).  Either way each facet has one exact
    ray, whatever the insertion order.
    """
    width = n + 1
    vectors, _, d = integral or linalg.integral_rows(points, linalg.radicand(points))
    one = linalg.ring(d).one
    rows = [(one,) + v for v in vectors]
    basis, start = _first_simplex(rows, width, d)
    # Each ray carries its zero set: the rows inserted so far that it
    # satisfies with equality, as a bitmask.
    all_bits = sum(1 << i for i in basis)
    rays = [(y, all_bits & ~(1 << i)) for i, y in zip(basis, start)]
    chosen = set(basis)
    for k, row in enumerate(rows):
        if k not in chosen:
            rays = _insert_row(rays, row, 1 << k, width, d)
    return [(mask, tuple(y)) for y, mask in rays]


def _first_simplex(rows, width: int, d) -> tuple:
    """(basis, rays) for integral rows (ints, or pairs over Q(sqrt d)):
    the first ``width`` linearly independent rows B, and the primitive
    columns of B^-1 (by :func:`_pair_ray` over Q(sqrt d)), the rays of
    {y : B y >= 0}.  One elimination of [rows^T | I] pivots on each row
    independent of the rows before it, and its stored row there,
    primitive, is (t rows^T | t) for t > 0 on a row of (B^-1)^T."""
    m, step = len(rows), linalg.ring(d)
    zero, one = step.zero, step.one
    columns = [{i: row[c] for i, row in enumerate(rows) if row[c] != zero} for c in range(width)]
    for c, column in enumerate(columns):
        column[m + c] = one
    stored = linalg._fraction_free(columns, d)
    basis = tuple(sorted(stored))
    if basis[-1] >= m:
        raise PolytopeError("not full-dimensional")
    tails = ([stored[i].get(m + j, zero) for j in range(width)] for i in basis)
    return basis, [y if d is None else _pair_ray(y, d) for y in tails]


def _insert_row(rays, row, bit: int, width: int, d) -> list:
    """Extreme rays of the cone cut by one more row from those before it,
    on integer rows and rays (d None) or pair rows and rays over Q(sqrt d).

    Rays on the positive side and on the row are kept; each adjacent pair
    across the row is combined into a ray on it.  Adjacency is decided on
    zero sets (Fukuda-Prodon, Proposition 7): the pair shares at least
    width - 2 zeros and no third ray vanishes on all of them.  An extreme
    ray holds at least width - 1 zeros, so no ray can be left out of that.
    """
    kept, pos, neg = [], [], []
    for y, zeros in rays:
        if d is None:
            s = sum(map(mul, row, y))
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
                # Integer entries, so one gcd makes y primitive.
                y = [sp * b - sq * a for a, b in zip(p, q)]
                g = math.gcd(*y)
                y = [x // g for x in y] if g > 1 else y
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
    when K is P); a k-face with k + 1 vertices is a simplex, whose facets
    drop one vertex each.  These covers are kept, and in increasing
    dimension a face's down-set is the union of each cover's down-set
    and the cover."""
    full_mask = (1 << len(vertices)) - 1
    facet_masks = [mask for mask, _ in facets]
    covers = {full_mask: facet_masks}
    layers = [[full_mask]]  # the faces by descending dimension
    layer = dict.fromkeys(facet_masks, full_mask)  # face -> one upper cover
    for k in range(n - 1, -2, -1):
        below = {}
        for face, upper in layer.items():
            if face.bit_count() == k + 1:
                covers[face] = below_face = []
                rest = face
                while rest:
                    below_face.append(face ^ (rest & -rest))
                    rest &= rest - 1
            else:
                covers[face] = _maximal_proper(face, covers[upper])
            for c in covers[face]:
                below.setdefault(c, face)
        layers.append(sorted(layer))
        layer = below

    ordered = [mask for masks in reversed(layers) for mask in masks]
    ids = {mask: i for i, mask in enumerate(ordered)}
    down = []
    for mask in ordered:
        bits = 0
        for i in map(ids.__getitem__, covers[mask]):
            bits |= down[i] | 1 << i
        down.append(bits)
    lattice = FaceLattice(
        ambient_dim=n,
        masks=tuple(ordered),
        dims=tuple(k for k, masks in enumerate(reversed(layers), -1) for _ in masks),
        down=tuple(down),
        facet_rays={ids[mask]: y for mask, y in facets},
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
    euler = sum((-1) ** k * f for k, f in enumerate(lattice.f_vector()))
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
    pts = list(dict.fromkeys(tuple(p) for p in points))
    masks = [mask for mask, _ in _facets(pts, len(pts[0]))]
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
