"""Cones and fans with exact ray data.

A fan stores its rays and cones in id-indexed dicts so that a quotient
fan can reuse the ids of the parent fan.  The
face fan of a polytope, quotient fans of cones, completeness and central
symmetry live here, together with conewise-linear support functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .polytopes import Polytope
from .scalars import sign


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class Cone:
    """A strictly convex cone inside a fan, as extreme-ray ids."""

    id: int
    ray_ids: tuple
    dim: int


class Fan:
    """A face-closed set of cones with pairwise common-face intersections.

    ``rays`` maps ray id -> generator vector; ``faces`` maps cone id ->
    frozenset of ids of its proper faces (the zero cone included).
    """

    def __init__(self, ambient_dim: int, rays: dict, cones: dict, faces: dict):
        self.ambient_dim = ambient_dim
        self.rays = dict(rays)
        self.cones = dict(cones)
        self.faces = {cid: frozenset(fs) for cid, fs in faces.items()}
        zero = [cid for cid, c in self.cones.items() if c.dim == 0]
        if len(zero) != 1 or self.cones[zero[0]].ray_ids:
            raise FanError("a fan must contain exactly one zero cone")
        self.zero_id = zero[0]
        for cid, fs in self.faces.items():
            for f in fs:
                if f not in self.cones:
                    raise FanError(f"cone {cid} lists unknown face {f}")
        all_faces = set()
        for fs in self.faces.values():
            all_faces |= fs
        self.maximal_ids = tuple(
            sorted(cid for cid in self.cones if cid not in all_faces)
        )
        self.dim = max(c.dim for c in self.cones.values())
        self._bases: dict = {}
        self._g: dict = {}  # cone id -> g-polynomial, filled by hvector
        self._antipode = None

    def __repr__(self):
        return (
            f"Fan(ambient={self.ambient_dim}, dim={self.dim}, "
            f"cones={len(self.cones)})"
        )

    def cone_ids(self) -> tuple:
        return tuple(sorted(self.cones))

    def cones_of_dim(self, k: int) -> tuple:
        return tuple(sorted(c.id for c in self.cones.values() if c.dim == k))

    def rays_of(self, cone_id: int) -> tuple:
        return tuple(self.rays[r] for r in self.cones[cone_id].ray_ids)

    def facets_of(self, cone_id: int) -> tuple:
        k = self.cones[cone_id].dim
        return tuple(
            sorted(f for f in self.faces[cone_id] if self.cones[f].dim == k - 1)
        )

    def common_face(self, a: int, b: int) -> int:
        """The largest common face of two cones of the fan."""
        if a == b:
            return a
        fa = self.faces[a] | {a}
        fb = self.faces[b] | {b}
        shared = fa & fb
        return max(shared, key=lambda cid: (self.cones[cid].dim, -cid))

    def is_simplicial_cone(self, cone_id: int) -> bool:
        c = self.cones[cone_id]
        return len(c.ray_ids) == c.dim

    def is_simplicial(self) -> bool:
        return all(self.is_simplicial_cone(cid) for cid in self.cones)

    def cone_basis(self, cone_id: int):
        """Deterministic coordinates on the linear span of a cone.

        Returns (basis_rows, pivot_columns): the reduced row echelon basis
        of the span and the ambient coordinates it projects onto
        isomorphically.  The zero cone yields an empty basis.
        """
        cached = self._bases.get(cone_id)
        if cached is None:
            rays = self.rays_of(cone_id)
            if not rays:
                cached = ((), ())
            else:
                reduced, pivots = linalg.rref(linalg.mat(rays))
                cached = (reduced, pivots)
            self._bases[cone_id] = cached
        return cached

    def walls(self, max_ids) -> dict:
        """Each codimension-one face of the given cones, which must share
        one dimension, -> the cones among them that contain it, in the
        order given."""
        top = self.cones[max_ids[0]].dim if max_ids else 0
        walls: dict = {}
        for cid in max_ids:
            for f in self.faces[cid]:
                if self.cones[f].dim == top - 1:
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
        cone_lookup = {
            frozenset(c.ray_ids): c.id for c in self.cones.values()
        }
        mapping = {}
        for c in self.cones.values():
            image = frozenset(ray_anti[r] for r in c.ray_ids)
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
        basis, pivots = self.cone_basis(cone_id)
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
        cones = {}
        faces = {}
        for fid in self.faces[cone_id]:
            f = self.cones[fid]
            cones[fid] = Cone(fid, f.ray_ids, f.dim)
            faces[fid] = self.faces[fid]
        fan = Fan(k - 1, new_rays, cones, faces)
        for fid in fan.cones:
            got = fan.cones[fid].dim
            expected = linalg.rank(linalg.mat(fan.rays_of(fid))) if fan.cones[fid].ray_ids else 0
            if got != expected:
                raise FanError("projection did not preserve cone dimensions")
        return fan


def face_fan(p: Polytope) -> Fan:
    """The complete fan of cones over the proper faces of a polytope.

    Requires the origin in the interior; rays are the vertex position
    vectors and cone ids follow the face-lattice ids.
    """
    lattice = p.face_lattice()
    if not p.origin_is_interior():
        raise FanError("face fan needs the origin strictly interior")
    n = p.ambient_dim
    rays = {i: v for i, v in enumerate(p.vertices)}
    cones = {}
    faces = {}
    empty_id = lattice.faces_of_dim(-1)[0]
    proper = [empty_id] + list(lattice.proper_face_ids())
    for fid in proper:
        vids = lattice.vertices_of(fid)
        cones[fid] = Cone(fid, vids, lattice.dims[fid] + 1)
        faces[fid] = frozenset(
            g for g in proper if g != fid and lattice.contains(g, fid)
        )
    return Fan(n, rays, cones, faces)


@dataclass(frozen=True)
class ConewiseLinear:
    """A function that is linear on each maximal cone of a complete fan."""

    fan: Fan
    covectors: dict  # maximal cone id -> functional (ambient covector)

    def __post_init__(self):
        fan = self.fan
        if set(self.covectors) != set(fan.maximal_ids):
            raise FanError("conewise data must cover exactly the maximal cones")
        for i, a in enumerate(fan.maximal_ids):
            for b in fan.maximal_ids[i + 1 :]:
                shared = fan.common_face(a, b)
                for ray in fan.rays_of(shared):
                    da = linalg.vec_dot(self.covectors[a], ray)
                    db = linalg.vec_dot(self.covectors[b], ray)
                    if da != db:
                        raise FanError(
                            "conewise values disagree on a shared face"
                        )

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
    fan = cl.fan
    for f, pair in fan.walls(fan.maximal_ids).items():
        if len(pair) != 2:
            continue
        a, b = pair
        ua, ub = cl.covectors[a], cl.covectors[b]
        if ua == ub:
            raise FanError("support function is not strictly concave")
        wall_rays = set(fan.cones[f].ray_ids)
        for cid, own, other in ((a, ua, ub), (b, ub, ua)):
            for r in fan.cones[cid].ray_ids:
                if r in wall_rays:
                    continue
                ray = fan.rays[r]
                gap = linalg.vec_dot(other, ray) - linalg.vec_dot(own, ray)
                if sign(gap) <= 0:
                    raise FanError("support function is not strictly concave")

