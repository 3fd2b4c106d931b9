"""Cones and fans with exact ray data.

A fan stores its rays and cones in id-indexed dicts so that a quotient
fan can reuse the ids of the parent fan.  A cone's extreme rays are an
int bitset over ray ids (in a face fan, the face's vertex mask), and its
proper faces an int bitset over cone ids.  A fan converts its rays to
integers once, by :func:`linalg.integral_rows` (ints over Q, integer
pairs over Q(sqrt d)); its field, its antipodes, its cone bases and its
quotient fans read those rows.  The face fan of a polytope, quotient
fans of cones, completeness, central symmetry and the linear
automorphisms of a fan live here, together with conewise-linear support
functions, which convert their rays and covectors the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import prod
from operator import or_
from typing import NamedTuple

from . import linalg
from .polytopes import Polytope, mask_bits


class FanError(ValueError):
    pass


# The most partial ray maps the symmetry search may extend; a fan that
# needs more gets no symmetries, and its sheaf is built as without them.
SYMMETRY_NODES = 10_000


class _OverBudget(Exception):
    pass


class Symmetries(NamedTuple):
    """The linear automorphisms of a fan found by :attr:`Fan.symmetries`.
    ``generators`` are ray permutations (ray id -> ray id) that generate
    the group.  ``orbit_sizes`` holds, per ray of the search's base, the
    size of its orbit under the maps that fix the base rays before it,
    so the group's order is their product.  ``origin`` maps each cone id
    to the least cone r of its orbit and a ray permutation g of the
    group with g r = the cone (the identity on r)."""

    generators: tuple
    orbit_sizes: tuple
    origin: dict


class Cone(NamedTuple):
    """A strictly convex cone inside a fan: ``mask`` has bit r set for
    each extreme ray r, and ``ray_ids`` lists those r ascending.  A
    face fan has one per face, so the record is a light tuple."""

    id: int
    mask: int
    dim: int

    @property
    def ray_ids(self) -> tuple:
        return mask_bits(self.mask)


class Fan:
    """A face-closed set of cones with pairwise common-face intersections.

    Cone ids are nonnegative ints.  ``rays`` maps ray id -> generator
    vector; ``down`` maps cone id -> the bitset of its proper faces (the
    zero cone included), with bit c set for cone id c.
    """

    def __init__(self, ambient_dim: int, rays: dict, cones: dict, down: dict):
        self.ambient_dim = ambient_dim
        self.rays = dict(rays)
        self.cones = dict(cones)
        self.down = dict(down)
        self._dim_masks: dict = {}  # dimension -> bitset of the cones of it
        for cid, c in self.cones.items():
            self._dim_masks[c.dim] = self._dim_masks.get(c.dim, 0) | 1 << cid
        zero = self.cones_of_dim(0)
        if len(zero) != 1 or self.cones[zero[0]].mask:
            raise FanError("a fan must contain exactly one zero cone")
        self.zero_id = zero[0]
        known = sum(self._dim_masks.values())
        below = reduce(or_, self.down.values(), 0)
        unknown = below & ~known
        if unknown:
            cid = next(c for c, bits in self.down.items() if bits & unknown)
            raise FanError(f"cone {cid} lists unknown face {mask_bits(self.down[cid] & unknown)[0]}")
        self.maximal_ids = mask_bits(known & ~below)
        self.dim = max(self._dim_masks)
        self._bases: dict = {}
        self._classes = None  # (dim, g) -> bitset of cones, filled by hvector
        self._antipode = None

    def __repr__(self):
        return (
            f"Fan(ambient={self.ambient_dim}, dim={self.dim}, "
            f"cones={len(self.cones)})"
        )

    @cached_property
    def _integral(self) -> tuple:
        """The :func:`linalg.integral_rows` (rows, s, d) of the rays, in
        the order of ``rays``: the fan's one conversion to integers."""
        rays = list(self.rays.values())
        return linalg.integral_rows(rays, linalg.radicand(rays))

    @cached_property
    def _ray_rows(self) -> dict:
        """Ray id -> its integral row."""
        return dict(zip(self.rays, self._integral[0]))

    @cached_property
    def radicand(self) -> int | None:
        """d when the rays lie in Q(sqrt d), None over Q."""
        return self._integral[2]

    def cone_ids(self) -> tuple:
        return tuple(sorted(self.cones))

    def cones_of_dim(self, k: int) -> tuple:
        return mask_bits(self._dim_masks.get(k, 0))

    def count_of_dim(self, k: int) -> int:
        return self._dim_masks.get(k, 0).bit_count()

    def facets_of(self, cone_id: int) -> tuple:
        k = self.cones[cone_id].dim
        return mask_bits(self.down[cone_id] & self._dim_masks.get(k - 1, 0))

    def is_simplicial_cone(self, cone_id: int) -> bool:
        c = self.cones[cone_id]
        return c.mask.bit_count() == c.dim

    def is_simplicial(self) -> bool:
        return all(self.is_simplicial_cone(cid) for cid in self.cones)

    def cone_basis(self, cone_id: int):
        """Deterministic coordinates on the linear span of a cone.

        Returns (rows, pivots): the stored rows R_p of the elimination of
        the integral rows of the cone's rays (see :mod:`polyfan.linalg`),
        in pivot order, and their pivot columns.  The rows are dense and integral in the
        fan's :class:`linalg.Ring` (ints over Q, int pairs over
        Q(sqrt d)), each with a positive integer d_p at its pivot p and 0
        at the other pivots.  The cone's coordinates are the y with x =
        sum_p y_p R_p, so y_p = x_p / d_p.  The rows depend only on the
        span, so opposite cones share them.  The zero cone yields no rows.
        """
        cached = self._bases.get(cone_id)
        if cached is None:
            d, ray_rows = self.radicand, self._ray_rows
            stored = linalg.stored_rows([ray_rows[r] for r in self.cones[cone_id].ray_ids], d)
            pivots, zero = tuple(sorted(stored)), linalg.ring(d).zero
            rows = tuple(tuple(stored[p].get(c, zero) for c in range(self.ambient_dim)) for p in pivots)
            cached = self._bases[cone_id] = (rows, pivots)
        return cached

    def walls(self, max_ids) -> dict:
        """Each codimension-one face of the given cones, which must share
        one dimension, -> the cones among them that contain it, in the
        order given."""
        top = self.cones[max_ids[0]].dim if max_ids else 0
        walls: dict = {}
        for cid in max_ids:
            for f in mask_bits(self.down[cid] & self._dim_masks.get(top - 1, 0)):
                walls.setdefault(f, []).append(cid)
        return walls

    # -- structural predicates ------------------------------------------

    def is_complete(self) -> bool:
        """Whether the cones cover the whole ambient space."""
        return self._complete

    @cached_property
    def _complete(self) -> bool:
        """:meth:`is_complete`, decided once: a fan does not change.

        Criterion: every maximal cone is full-dimensional, every cone of
        codimension one is a facet of exactly two maximal cones, and the
        wall-crossing graph on maximal cones is connected.
        """
        n = self.ambient_dim
        if n == 0:
            return True
        maximal = self.maximal_ids
        if any(self.cones[cid].dim != n for cid in maximal):
            return False
        walls = self.walls(maximal)
        for f in self.cones_of_dim(n - 1):
            if len(walls.get(f, ())) != 2:
                return False
        if not maximal:
            return False
        adjacency = dict.fromkeys(maximal, 0)  # cone -> bitset of its neighbours
        for a, b in walls.values():
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
        seen, new = 0, 1 << maximal[0]
        while new:
            seen |= new
            new = reduce(or_, map(adjacency.__getitem__, mask_bits(new))) & ~seen
        return seen.bit_count() == len(maximal)

    def is_centrally_symmetric(self) -> bool:
        try:
            self.antipode_map()
        except FanError:
            return False
        return True

    def antipode_map(self) -> dict:
        """Cone-id involution sigma <-> -sigma; raises if not symmetric."""
        if self._antipode is not None:
            return self._antipode
        partner = linalg.antipodes(self._integral)
        if partner is None:
            raise FanError("fan is not centrally symmetric (missing ray)")
        ids = list(self.rays)
        ray_anti = {r: ids[j] for r, j in zip(ids, partner)}
        cone_lookup = self._cone_of_mask
        mapping = {}
        for c in self.cones.values():
            image = _permuted(c.mask, ray_anti)
            if image not in cone_lookup:
                raise FanError("fan is not centrally symmetric (missing cone)")
            mapping[c.id] = cone_lookup[image]
        self._antipode = mapping
        return mapping

    @cached_property
    def _cone_of_mask(self) -> dict:
        """Ray bitset -> the id of the cone with those rays."""
        return {c.mask: c.id for c in self.cones.values()}

    # -- linear automorphisms ----------------------------------------------

    @cached_property
    def symmetries(self) -> Symmetries | None:
        """The group of linear maps that permute the rays and send cones to
        cones, or None when the rays do not span, when the search extends
        more than ``SYMMETRY_NODES`` partial maps, or when it finds no map
        but the identity and the antipode.

        A permutation of spanning rays comes from a linear map iff it keeps
        Q = V^T (V V^T)^-1 V, V the rays as columns (Bremner, Dutour
        Sikiric, Pasechnik, Rehn and Schuermann, "Computing symmetry groups
        of polyhedra", 2014), which a linear image of the fan keeps too; Q
        is taken on the integral rows, scaled to be integral.  The rays'
        classes by their rows of Q are refined until stable.  A map is
        fixed by the images of a base of rays, each in its ray's class and
        keeping Q against the images before it; the rest is read off Q,
        and each map found must send cones to cones.  Per base ray, one map
        per point of its orbit under the maps that fix the rays before it
        is kept (a strong generating set), so the group is never listed.
        """
        ids, rows, d = list(self.rays), self._integral[0], self.radicand
        n, m = self.ambient_dim, len(rows)
        ring = linalg.ring(d)
        dot = ring.dot
        columns = list(zip(*rows))
        inverse = _inverse([[dot(a, b) for b in columns] for a in columns], d)
        if inverse is None:
            return None
        wv = [tuple(dot(w, v) for w in inverse[0]) for v in rows]
        diagonal = [dot(r, w) for r, w in zip(rows, wv)]
        antipode = linalg.antipodes(self._integral)
        # Q(-v, w) = -Q(v, w), so the classes never split an antipodal pair.
        most = m // 2 if antipode else m
        if len(set(diagonal)) == most:
            # Each class is one ray or one antipodal pair, so a map sends
            # each ray to itself or its negative.  Unless it is +-I it
            # fixes a ray v and negates a ray w, and Q(v, w) = -Q(v, w) = 0.
            half = [i for i in range(m) if antipode is None or i < antipode[i]]
            if antipode is None or all(dot(rows[i], wv[j]) != ring.zero for i in half for j in half):
                return None
        q = [[dot(r, w) for w in wv] for r in rows]
        color, count = diagonal, len(set(diagonal))
        while count < most:
            labels: dict = {}
            refined = [labels.setdefault((color[i], tuple(sorted(zip(q[i], color)))), len(labels)) for i in range(m)]
            if len(labels) == count:
                break
            color, count = refined, len(labels)
        members: dict = {}
        for i, c in enumerate(color):
            members.setdefault(c, []).append(i)
        # The base: the first rays that span, smallest classes first.
        order = sorted(range(m), key=lambda i: (len(members[color[i]]), i))
        base = [order[p] for p in sorted(linalg.stored_rows(list(zip(*(rows[i] for i in order))), d))]
        masks = self._cone_of_mask
        rays_of = {c.id: c.ray_ids for c in self.cones.values()}
        nodes = 0

        def fits(c, level, images) -> bool:
            b = base[level]
            return c not in images and all(q[c][x] == q[b][y] for x, y in zip(images, base))

        def extend(images):
            """A map of the group sending the base to ``images`` and on,
            as ray positions, or None."""
            nonlocal nodes
            nodes += 1
            if nodes > SYMMETRY_NODES:
                raise _OverBudget
            level = len(images)
            if level < n:
                for c in members[color[base[level]]]:
                    if fits(c, level, images):
                        found = extend(images + [c])
                        if found:
                            return found
                return None
            lookup = {tuple(q[j][c] for c in images): j for j in range(m)}
            perm = [lookup.get(tuple(q[i][b] for b in base)) for i in range(m)]
            if None in perm:
                return None
            image = dict(zip(ids, (ids[j] for j in perm)))
            return perm if all(sum(1 << image[r] for r in rays) in masks for rays in rays_of.values()) else None

        def orbit(point, maps) -> set:
            seen, todo = {point}, [point]
            for x in todo:
                for g in maps:
                    if g[x] not in seen:
                        seen.add(g[x])
                        todo.append(g[x])
            return seen

        found: list = []  # (level, map): the map fixes the base rays before level
        sizes = []
        try:
            for level in reversed(range(n)):
                acting = [g for k, g in found if k >= level]
                reached, failed = orbit(base[level], acting), set()
                for c in members[color[base[level]]]:
                    if c in reached or c in failed or not fits(c, level, base[:level]):
                        continue
                    g = extend(base[:level] + [c])
                    if g is None:
                        failed |= orbit(c, acting)
                    else:
                        found.append((level, g))
                        acting.append(g)
                        reached = orbit(base[level], acting)
                sizes.append(len(reached))
        except _OverBudget:
            return None
        if prod(sizes) <= 2 and all(g == antipode for _, g in found):
            return None
        generators = tuple(dict(zip(ids, (ids[j] for j in g))) for _, g in found)
        identity = dict(zip(ids, ids))
        origin: dict = {}
        for cid in sorted(self.cones, key=lambda c: (self.cones[c].dim, c)):
            if cid in origin:
                continue
            origin[cid] = (cid, identity)
            todo = [cid]
            for c in todo:
                element = origin[c][1]
                for g in generators:
                    image = masks[sum(1 << g[r] for r in rays_of[c])]
                    if image not in origin:
                        origin[image] = (cid, {r: g[s] for r, s in element.items()})
                        todo.append(image)
        return Symmetries(generators, tuple(reversed(sizes)), origin)

    def cone_image(self, perm: dict, cone_id: int) -> int:
        """The id of the cone whose rays are the images under a ray
        permutation of :attr:`symmetries` of the rays of the given cone."""
        return self._cone_of_mask[_permuted(self.cones[cone_id].mask, perm)]

    def linear_map(self, perm: dict) -> tuple:
        """(rows, n): the matrix of the linear map that sends each ray r to
        perm[r], for a ray permutation of :attr:`symmetries`, as integral
        rows over a positive integer n.  It is B' B^-1 for B the first
        basis among the rays, as columns, and B' their images."""
        base, inverse, n = self._ray_basis
        dot = linalg.ring(self.radicand).dot
        images = list(zip(*(self._ray_rows[perm[b]] for b in base)))
        return tuple(tuple(dot(row, column) for column in zip(*inverse)) for row in images), n

    @cached_property
    def _ray_basis(self) -> tuple:
        """(base, rows, n): the first rays that span the space, in ray
        order (the pivots of the elimination of the rays as columns), and
        the inverse of their matrix as integral rows over n."""
        ids, rows = list(self.rays), self._integral[0]
        pivots = sorted(linalg.stored_rows(list(zip(*rows)), self.radicand))
        inverse = _inverse(list(zip(*(rows[p] for p in pivots))), self.radicand)
        return (tuple(ids[p] for p in pivots), *inverse)

    # -- derived fans ----------------------------------------------------

    def quotient_fan(self, cone_id: int) -> "Fan":
        """Projection of the boundary of a cone along an interior vector.

        The cone's integral rays, read at the pivots of its
        :meth:`cone_basis`, are coordinates on its span, and their sum l
        is interior.  x -> l_j x - x_j l, for j the first nonzero entry of
        l, has the line of l as kernel and 0 at j, which is dropped.  The
        result is a complete fan in dimension dim(cone) - 1, with rays in
        this fan's field, whose face poset is that of the proper faces of
        the cone; cone and ray ids are inherited.
        """
        c = self.cones[cone_id]
        if c.dim < 1:
            raise FanError("quotient fan needs a cone of dimension >= 1")
        d, pivots = self.radicand, self.cone_basis(cone_id)[1]
        ring = linalg.ring(d)
        rows = {r: [self._ray_rows[r][p] for p in pivots] for r in c.ray_ids}
        line = [reduce(ring.add, column) for column in zip(*rows.values())]
        j = next(i for i, x in enumerate(line) if x != ring.zero)
        new_rays = {
            r: tuple(
                linalg._scalar(ring.add(ring.mul(line[j], x), ring.neg(ring.mul(row[j], y))), 1, d)
                for i, (x, y) in enumerate(zip(row, line))
                if i != j
            )
            for r, row in rows.items()
        }
        faces = mask_bits(self.down[cone_id])
        cones = {fid: self.cones[fid] for fid in faces}
        fan = Fan(c.dim - 1, new_rays, cones, {fid: self.down[fid] for fid in faces})
        if any(len(fan.cone_basis(fid)[1]) != cone.dim for fid, cone in fan.cones.items()):
            raise FanError("projection did not preserve cone dimensions")
        return fan


def _permuted(mask: int, perm: dict) -> int:
    """A ray bitset with each ray r moved to perm[r]."""
    return sum(1 << perm[r] for r in mask_bits(mask))


def _inverse(matrix, d) -> tuple | None:
    """(rows, n) for the inverse rows / n of a square integral matrix
    (ints, or pairs over Q(sqrt d)), with n the least positive integer
    that makes the rows integral, or None when the matrix is singular.
    The stored rows of [matrix | I] (see :mod:`polyfan.linalg`) are
    d_p (e_p | row p of the inverse)."""
    k, ring = len(matrix), linalg.ring(d)
    stored = linalg.stored_rows(
        [tuple(row) + tuple(ring.one if j == i else ring.zero for j in range(k)) for i, row in enumerate(matrix)], d
    )
    if any(p not in stored for p in range(k)):
        return None
    pieces = [
        ({j - k: x for j, x in stored[p].items() if j >= k}, stored[p][p] if d is None else stored[p][p][0])
        for p in range(k)
    ]
    rows, n = linalg.common_scale(pieces, d)
    return [tuple(row.get(j, ring.zero) for j in range(k)) for row in rows], n


def face_fan(p: Polytope) -> Fan:
    """The complete fan of cones over the proper faces of a polytope.

    Requires the origin in the interior; rays are the vertex position
    vectors, and cone ids and down-sets are the face lattice's.
    """
    lattice = p.face_lattice()
    if not p.origin_is_interior():
        raise FanError("face fan needs the origin strictly interior")
    proper = range(len(lattice.masks) - 1)  # the polytope itself is last
    cones = {f: Cone(f, mask, k + 1) for f, mask, k in zip(proper, lattice.masks, lattice.dims)}
    return Fan(p.ambient_dim, dict(enumerate(p.vertices)), cones, dict(zip(proper, lattice.down)))


@dataclass(frozen=True)
class ConewiseLinear:
    """A function that is linear on each maximal cone of a complete fan."""

    fan: Fan
    covectors: dict  # maximal cone id -> functional (ambient covector)

    def __post_init__(self):
        fan = self.fan
        if set(self.covectors) != set(fan.maximal_ids):
            raise FanError("conewise data must cover exactly the maximal cones")
        # Two cones meet in the face spanned by their shared rays, so the
        # pieces agree there iff each ray has one value over its cones.
        # With u = U / n and the ray R / m, u.r = U.R / (n m), and every
        # piece has the same n: two values at one ray agree iff U.R = U'.R.
        ring, rays, covectors = self._integral
        values = {}
        for cid in fan.maximal_ids:
            u = covectors[cid]
            for r in fan.cones[cid].ray_ids:
                value = ring.dot(u, rays[r])
                if values.setdefault(r, value) != value:
                    raise FanError("conewise values disagree on a shared face")

    @cached_property
    def _integral(self) -> tuple:
        """The :class:`linalg.Ring` of the field of the fan and the
        covectors, the integral ray vectors (ray id -> R, a positive
        multiple of the ray) and the integral covectors (cone id -> U,
        the covector being U / n for the least positive integer n that
        serves every cone), each from one :func:`linalg.integral_rows`."""
        fan = self.fan
        d = fan.radicand or linalg.radicand(self.covectors.values())
        rays = linalg.integral_rows(list(fan.rays.values()), d)[0]
        covectors = linalg.integral_rows(list(self.covectors.values()), d)[0]
        return linalg.ring(d), dict(zip(fan.rays, rays)), dict(zip(self.covectors, covectors))


def support_function(p: Polytope, fan: Fan | None = None) -> ConewiseLinear:
    """The strictly concave support function of a polytope on its face fan.

    On the cone over a facet F the function is the dual vertex u_F with
    <u_F, v> = -1 for v in F: for the facet's ray y on the vertex rows
    s v (see :attr:`polytopes.FaceLattice.facet_rays`), u_F = s y_rest /
    y_0.  Strict concavity across every wall is verified exactly and a
    failure raises, since it indicates degenerate input.
    """
    if fan is None:
        fan = face_fan(p)
    _, s, d = p._integral
    scale = linalg.ring(d).scale
    covectors = {}
    for fid, (y0, *rest) in p.face_lattice().facet_rays.items():
        # y_0 > 0 is the ray's first nonzero entry, so rational over
        # Q(sqrt d) too: the pair (x, 0).
        n = y0 if d is None else y0[0]
        covectors[fid] = tuple(linalg._scalar(scale(s, x), n, d) for x in rest)
    cl = ConewiseLinear(fan, covectors)
    _check_strictly_concave(cl)
    return cl


def _check_strictly_concave(cl: ConewiseLinear) -> None:
    """Across every wall, the piece of each cone lies strictly above the
    piece of the other cone at the cone's rays off the wall.  On the
    integral covectors U / n and rays R / m that is the sign of
    U'.R - U.R (times n m > 0)."""
    fan = cl.fan
    ring, rays, covectors = cl._integral
    dot, neg, add, sign = ring.dot, ring.neg, ring.add, ring.sign
    for f, pair in fan.walls(fan.maximal_ids).items():
        if len(pair) != 2:
            continue
        a, b = pair
        if covectors[a] == covectors[b]:
            raise FanError("support function is not strictly concave")
        wall = fan.cones[f].mask
        for cid, own, other in (
            (a, covectors[a], covectors[b]),
            (b, covectors[b], covectors[a]),
        ):
            for r in fan.cones[cid].ray_ids:
                if wall >> r & 1:
                    continue
                ray = rays[r]
                gap = add(dot(other, ray), neg(dot(own, ray)))
                if sign(gap) <= 0:
                    raise FanError("support function is not strictly concave")

