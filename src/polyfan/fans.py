"""Cones and fans with exact ray data.

A fan stores its rays and cones in id-indexed dicts so that a quotient
fan can reuse the ids of the parent fan.  A cone's extreme rays are an
int bitset over ray ids (in a face fan, the face's vertex mask), and its
proper faces an int bitset over cone ids.  The face fan of a polytope,
quotient fans of cones, completeness and central symmetry live here,
together with conewise-linear support functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .polytopes import Polytope, mask_bits


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class Cone:
    """A strictly convex cone inside a fan: ``mask`` has bit r set for
    each extreme ray r, and ``ray_ids`` lists those r ascending."""

    id: int
    mask: int
    dim: int

    @cached_property
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
        zero = [cid for cid, c in self.cones.items() if c.dim == 0]
        if len(zero) != 1 or self.cones[zero[0]].mask:
            raise FanError("a fan must contain exactly one zero cone")
        self.zero_id = zero[0]
        self._dim_masks: dict = {}  # dimension -> bitset of the cones of it
        for cid, c in self.cones.items():
            self._dim_masks[c.dim] = self._dim_masks.get(c.dim, 0) | 1 << cid
        known = sum(self._dim_masks.values())
        below = 0
        for bits in self.down.values():
            below |= bits
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
    def radicand(self) -> int | None:
        """d when the rays lie in Q(sqrt d), None over Q."""
        return linalg.radicand(self.rays.values())

    def cone_ids(self) -> tuple:
        return tuple(sorted(self.cones))

    def cones_of_dim(self, k: int) -> tuple:
        return mask_bits(self._dim_masks.get(k, 0))

    def rays_of(self, cone_id: int) -> tuple:
        return tuple(self.rays[r] for r in self.cones[cone_id].ray_ids)

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
        the cone's rays (see :mod:`polyfan.linalg`), in pivot order, and
        their pivot columns.  The rows are dense and integral in the
        fan's :class:`linalg.Ring` (ints over Q, int pairs over
        Q(sqrt d)), each with a positive integer d_p at its pivot p and 0
        at the other pivots.  The cone's coordinates are the y with x =
        sum_p y_p R_p, so y_p = x_p / d_p.  The rows depend only on the
        span, so opposite cones share them.  The zero cone yields no rows.
        """
        cached = self._bases.get(cone_id)
        if cached is None:
            d = self.radicand
            stored = linalg.stored_rows((dict(enumerate(ray)) for ray in self.rays_of(cone_id)), d)
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
        """Whether the cones cover the whole ambient space.

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
        seen = {maximal[0]}
        stack = [maximal[0]]
        adjacency: dict = {cid: set() for cid in maximal}
        for pair in walls.values():
            adjacency[pair[0]].add(pair[1])
            adjacency[pair[1]].add(pair[0])
        while stack:
            for other in adjacency[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == len(maximal)

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
        ray_lookup = {self.rays[r]: r for r in self.rays}
        ray_anti = {}
        for r, v in self.rays.items():
            w = linalg.vec_neg(v)
            if w not in ray_lookup:
                raise FanError("fan is not centrally symmetric (missing ray)")
            ray_anti[r] = ray_lookup[w]
        cone_lookup = {c.mask: c.id for c in self.cones.values()}
        mapping = {}
        for c in self.cones.values():
            image = sum(1 << ray_anti[r] for r in c.ray_ids)
            if image not in cone_lookup:
                raise FanError("fan is not centrally symmetric (missing cone)")
            mapping[c.id] = cone_lookup[image]
        self._antipode = mapping
        return mapping

    # -- derived fans ----------------------------------------------------

    def quotient_fan(self, cone_id: int) -> "Fan":
        """Projection of the boundary of a cone along an interior vector.

        The result is a complete fan in dimension dim(cone) - 1 whose face
        poset is that of the proper faces of the cone; cone and ray ids
        are inherited.
        """
        c = self.cones[cone_id]
        if c.dim < 1:
            raise FanError("quotient fan needs a cone of dimension >= 1")
        pivots = self.cone_basis(cone_id)[1]
        k = c.dim
        interior = self.rays_of(cone_id)[0]
        for ray in self.rays_of(cone_id)[1:]:
            interior = linalg.vec_add(interior, ray)
        proj = linalg.quotient_projection(
            tuple(interior[j] for j in pivots), k
        )
        new_rays = {}
        for r in c.ray_ids:
            coords = tuple(self.rays[r][j] for j in pivots)
            new_rays[r] = linalg.mat_vec(proj, coords)
        faces = mask_bits(self.down[cone_id])
        cones = {fid: self.cones[fid] for fid in faces}
        fan = Fan(k - 1, new_rays, cones, {fid: self.down[fid] for fid in faces})
        for fid in fan.cones:
            got = fan.cones[fid].dim
            expected = linalg.rank(linalg.mat(fan.rays_of(fid))) if fan.cones[fid].mask else 0
            if got != expected:
                raise FanError("projection did not preserve cone dimensions")
        return fan


def face_fan(p: Polytope) -> Fan:
    """The complete fan of cones over the proper faces of a polytope.

    Requires the origin in the interior; rays are the vertex position
    vectors, and cone ids and down-sets are the face lattice's.
    """
    lattice = p.face_lattice()
    if not p.origin_is_interior():
        raise FanError("face fan needs the origin strictly interior")
    proper = range(len(lattice.masks) - 1)  # the polytope itself is last
    cones = {f: Cone(f, lattice.masks[f], lattice.dims[f] + 1) for f in proper}
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
        # With u = U / n and the ray R / m, u.r = U.R / (n m): the values
        # of two pieces at one ray agree iff U.R n' = U'.R n.
        ring, rays, covectors = self._integral
        values = {}
        for cid in fan.maximal_ids:
            u, n = covectors[cid]
            for r in fan.cones[cid].ray_ids:
                value = ring.dot(u, rays[r])
                seen, m = values.setdefault(r, (value, n))
                if ring.scale(m, value) != ring.scale(n, seen):
                    raise FanError("conewise values disagree on a shared face")

    @cached_property
    def _integral(self) -> tuple:
        """The :class:`linalg.Ring` of the fan's field, the integral ray
        vectors (ray id -> R, a positive multiple of the ray) and the
        integral covectors (cone id -> (U, n), the covector being U / n
        with n least)."""
        d = self.fan.radicand or linalg.radicand(self.covectors.values())
        rays = {r: linalg.cleared(ray, d)[0] for r, ray in self.fan.rays.items()}
        covectors = {cid: linalg.cleared(u, d) for cid, u in self.covectors.items()}
        return linalg.ring(d), rays, covectors

    def scale(self, factor) -> "ConewiseLinear":
        return ConewiseLinear(
            self.fan,
            {cid: linalg.vec_scale(factor, u) for cid, u in self.covectors.items()},
        )


def support_function(p: Polytope, fan: Fan | None = None) -> ConewiseLinear:
    """The strictly concave support function of a polytope on its face fan.

    On the cone over a facet F the function is the dual vertex u_F with
    <u_F, v> = -1 for v in F.  Strict concavity across every wall is
    verified exactly and a failure raises, since it indicates degenerate
    input.
    """
    if fan is None:
        fan = face_fan(p)
    lattice = p.face_lattice()
    covectors = {}
    for fid in lattice.facet_ids():
        u, c = lattice.facet_planes[fid]
        covectors[fid] = tuple(-x / c for x in u)
    cl = ConewiseLinear(fan, covectors)
    _check_strictly_concave(cl)
    return cl


def _check_strictly_concave(cl: ConewiseLinear) -> None:
    """Across every wall, the piece of each cone lies strictly above the
    piece of the other cone at the cone's rays off the wall.  On the
    integral covectors U / n and rays R / m that is the sign of
    n U'.R - n' U.R (times n n' m > 0)."""
    fan = cl.fan
    ring, rays, covectors = cl._integral
    dot, scale, neg, add, sign = ring.dot, ring.scale, ring.neg, ring.add, ring.sign
    for f, pair in fan.walls(fan.maximal_ids).items():
        if len(pair) != 2:
            continue
        a, b = pair
        if covectors[a] == covectors[b]:
            raise FanError("support function is not strictly concave")
        wall = fan.cones[f].mask
        for cid, (own, n_own), (other, n_other) in (
            (a, covectors[a], covectors[b]),
            (b, covectors[b], covectors[a]),
        ):
            for r in fan.cones[cid].ray_ids:
                if wall >> r & 1:
                    continue
                ray = rays[r]
                gap = add(scale(n_own, dot(other, ray)), neg(scale(n_other, dot(own, ray))))
                if sign(gap) <= 0:
                    raise FanError("support function is not strictly concave")

