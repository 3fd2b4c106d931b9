"""A deterministic zoo of test polytopes.

Construction is cached per process so face lattices and fans are shared
between callers.  Seeds for the random families are scanned upward from
zero and filtered for validity, so membership is stable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .fans import face_fan
from .polytopes import (
    Polytope,
    PolytopeError,
    cross_polytope,
    cube,
    free_sum,
    product,
    random_cs,
)
from .scalars import Quadratic


@lru_cache(maxsize=None)
def nonrational_cs_polytope() -> Polytope:
    """A centrally symmetric 3-polytope with genuinely irrational vertex
    coordinates: the +-1 cube with two apexes at (0, 0, +-sqrt(2))."""
    r2 = Quadratic(0, 1, 2)
    verts = list(cube(3).vertices)
    verts.append((Fraction(0), Fraction(0), r2))
    verts.append((Fraction(0), Fraction(0), -r2))
    return Polytope(verts)


@lru_cache(maxsize=None)
def nonsimplicial_cs_3polytope() -> Polytope:
    """A prism over the square diamond: centrally symmetric, not a cube,
    with quadrilateral facets."""
    return product(cross_polytope(2), cube(1))


@lru_cache(maxsize=None)
def _cube(n: int) -> Polytope:
    return cube(n)


@lru_cache(maxsize=None)
def _cross(n: int) -> Polytope:
    return cross_polytope(n)


@lru_cache(maxsize=None)
def _random_cs(n: int, pairs: int, seed: int) -> Polytope:
    return random_cs(n, pairs, seed)


@lru_cache(maxsize=None)
def random_cs_family(count: int = 20) -> tuple:
    """The first ``count`` valid seeded random CS polytopes, cycling
    through dimensions 2..4 with a growing number of point pairs."""
    out = []
    seed = 0
    while len(out) < count:
        n = 2 + (len(out) % 3)
        pairs = n + 1 + (len(out) // 3) % 3
        try:
            out.append((f"random-cs-{n}d-seed{seed}", _random_cs(n, pairs, seed)))
        except PolytopeError:
            pass
        seed += 1
    return tuple(out)


@lru_cache(maxsize=None)
def simplicial_cs_fans(count: int = 20) -> tuple:
    """Seeded random CS polytopes whose face fans are simplicial, with the
    fans attached; dimensions cycle through 2..4."""
    out = []
    seed = 1000
    while len(out) < count:
        n = 2 + (len(out) % 3)
        pairs = n + 1 + (len(out) // 3) % 2
        try:
            p = _random_cs(n, pairs, seed)
        except PolytopeError:
            seed += 1
            continue
        fan = face_fan(p)
        if fan.is_simplicial():
            out.append((f"simplicial-cs-{n}d-seed{seed}", p, fan))
        seed += 1
    return tuple(out)


@lru_cache(maxsize=None)
def cs_corpus() -> tuple:
    """Named centrally symmetric polytopes: crosses and cubes through
    dimension 5, products, free sums, the nonrational example, and twenty
    seeded random ones in dimensions 2 to 4."""
    members = []
    for n in range(1, 6):
        members.append((f"cross-{n}", _cross(n)))
    for n in range(2, 6):
        members.append((f"cube-{n}", _cube(n)))
    members.append(("prism-over-diamond", nonsimplicial_cs_3polytope()))
    members.append(("product-cross2-cross2", product(_cross(2), _cross(2))))
    members.append(("product-cross3-interval", product(_cross(3), _cube(1))))
    members.append(("bipyramid-over-square", free_sum(_cube(2), _cube(1))))
    members.append(("free-sum-cube2-cube2", free_sum(_cube(2), _cube(2))))
    members.append(("free-sum-cross2-cube2", free_sum(_cross(2), _cube(2))))
    members.append(("nonrational-bipyramid", nonrational_cs_polytope()))
    members.extend(random_cs_family())
    return tuple(members)


@lru_cache(maxsize=None)
def sheaf_corpus() -> tuple:
    """The six fans exercised by the full sheaf pipeline: small cubes and
    cross-polytopes, one nonsimplicial CS 3-polytope besides the cube,
    and the nonrational example."""
    return (
        ("cube-2", _cube(2)),
        ("cube-3", _cube(3)),
        ("cross-2", _cross(2)),
        ("cross-3", _cross(3)),
        ("prism-over-diamond", nonsimplicial_cs_3polytope()),
        ("nonrational-bipyramid", nonrational_cs_polytope()),
    )
