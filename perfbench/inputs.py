"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of verifications ("items"), each run once per
pass.  The polytopes are built with polyfan's own constructors (cube,
cross-polytope, product, free sum, linear image, ``random_cs``); that
cost falls in set-up.  The seed moves coordinates only: integer and
Q(sqrt d) linear images and signed coordinate permutations.  The
combinatorial types are fixed: named polytopes and the first valid draws
of ``random_cs`` in a fixed scan of its seeds, not chosen by cost.
Vertex order and summand order are fixed too, because facet
enumeration's cost depends on them by up to a factor of three.  So the bytes the program sees change with the seed
while the cost of a pass stays about the same.

Each item carries what the oracle may expect of its report.  Those
expectations come from closed formulas (``binomial``, ``poly_mul``,
``h_low_dim``), never from the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb
from pathlib import Path

from polyfan import corpus, linalg
from polyfan.fans import face_fan
from polyfan.polytopes import (
    Polytope,
    PolytopeError,
    cross_polytope,
    cube,
    free_sum,
    linear_image,
    random_cs,
)
from polyfan.scalars import Field, Quadratic

WORKLOADS = ("hvector", "sheaf", "quadratic")

# Toric h-vector of the 4-cube's face fan; free sums multiply h-vectors.
H_CUBE4 = (1, 12, 14, 12, 1)


@dataclass(frozen=True)
class Item:
    """One verification: a polytope file, the command run on it, and the
    oracle's expectations.  Reports of one ``group`` (a polytope and its
    images) must agree on h, Betti numbers and Lefschetz ranks."""

    name: str
    command: str  # "check-bounds" or "ih"
    vertices: tuple  # rows of Fraction, or of Quadratic when d is set
    d: int | None  # None for rational input, else the radicand
    group: str
    known_h: tuple | None = None

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def document(self) -> dict:
        field = Field(self.d)
        return {
            "name": self.name,
            "dim": self.dim,
            "field": "rational" if self.d is None else {"quadratic": self.d},
            "vertices": [[field.format(x) for x in v] for v in self.vertices],
        }


# ---------------------------------------------------------------------------
# Expected h-vectors from closed formulas


def binomial(n: int) -> tuple:
    return tuple(comb(n, k) for k in range(n + 1))


def poly_mul(a, b) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def h_low_dim(dim: int, num_vertices: int) -> tuple | None:
    """In dimension <= 3 the toric h-vector is fixed by the vertex count."""
    if dim == 1:
        return (1, 1)
    if dim == 2:
        return (1, num_vertices - 2, 1)
    if dim == 3:
        return (1, num_vertices - 3, num_vertices - 3, 1)
    return None


def known_h(name: str, p: Polytope) -> tuple | None:
    n, v = p.ambient_dim, len(p.vertices)
    if v == 2 * n:  # a centrally symmetric n-polytope with 2n vertices is a cross-polytope image
        return binomial(n)
    if name == "cube-4":
        return H_CUBE4
    return h_low_dim(n, v)


# ---------------------------------------------------------------------------
# Seeded coordinates


def _signed_permutation_matrix(n: int, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return [
        [Fraction(rng.choice((-1, 1))) if j == perm[i] else Fraction(0) for j in range(n)]
        for i in range(n)
    ]


def signed_permutation(p: Polytope, rng: random.Random) -> tuple:
    """Vertices of a seeded signed coordinate permutation of p, in p's order."""
    return linear_image(p, _signed_permutation_matrix(p.ambient_dim, rng)).vertices


def integer_image(p: Polytope, rng: random.Random) -> tuple:
    """Image under a random invertible matrix with entries in [-2, 2]."""
    n = p.ambient_dim
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if linalg.rank(m) == n:
            return linear_image(p, m).vertices


def quadratic_image(p: Polytope, d: int, rng: random.Random) -> tuple:
    """Image of a rational polytope over Q(sqrt d): a seeded signed
    permutation and one shear x_i += +-sqrt(d) x_j.  One shear keeps the
    coordinates short, so the cost hardly depends on the seed."""
    n = p.ambient_dim
    i, j = rng.sample(range(n), 2)
    shear = [[Quadratic(int(r == c), 0, d) for c in range(n)] for r in range(n)]
    shear[i][j] = Quadratic(0, rng.choice((-1, 1)), d)
    verts = linear_image(Polytope(signed_permutation(p, rng)), shear).vertices
    return tuple(tuple(x if isinstance(x, Quadratic) else Quadratic(x, 0, d) for x in v) for v in verts)


# ---------------------------------------------------------------------------
# Fixed random_cs draws


def first_draws(n: int, pairs: int, count: int, simplicial: bool | None = None) -> list:
    """The first ``count`` valid ``random_cs(n, pairs, s)`` for s = 0, 1, ...;
    with ``simplicial`` set, only draws whose face fan is (not) simplicial."""
    out = []
    seed = 0
    while len(out) < count:
        try:
            p = random_cs(n, pairs, seed)
        except PolytopeError:
            p = None
        if p is not None and (simplicial is None or face_fan(p).is_simplicial() == simplicial):
            out.append((f"random-cs-{n}d-p{pairs}-s{seed}", p))
        seed += 1
    return out


# ---------------------------------------------------------------------------
# Workloads

SUMMANDS = {
    "c1": (cube(1), (1, 1)),
    "c3": (cube(3), h_low_dim(3, 8)),
    "c4": (cube(4), H_CUBE4),
    "pod": (corpus.nonsimplicial_cs_3polytope(), h_low_dim(3, 8)),
}

# Nonsimplicial free sums in dimensions 5 and 6, each summand in use.
# Larger ones (1 to 9 s each) would fill a pass; see README.md.
FREE_SUMS = (
    ("c4", "c1"),
    ("c3", "c1", "c1"),
    ("pod", "c1", "c1"),
    ("c3", "c1", "c1", "c1"),
)


def hvector_items(rng: random.Random) -> list:
    """check-bounds on the rational CS corpus, one integer image of each
    member, and nonsimplicial free sums in dimensions 5 and 6."""
    items = []
    for name, p in corpus.cs_corpus():
        if any(isinstance(x, Quadratic) for v in p.vertices for x in v):
            continue  # the Q(sqrt 2) member belongs to the quadratic workload
        h = known_h(name, p)
        items.append(Item(name, "check-bounds", p.vertices, None, name, h))
        items.append(Item(name + "~image", "check-bounds", integer_image(p, rng), None, name, h))
    for names in FREE_SUMS:
        label = "free-sum-" + "-".join(names)
        p = reduce(free_sum, (SUMMANDS[s][0] for s in names))
        h = reduce(poly_mul, (SUMMANDS[s][1] for s in names))
        items.append(Item(label, "check-bounds", signed_permutation(p, rng), None, label, h))
    return items


def sheaf_items(rng: random.Random) -> list:
    """ih on the rational sheaf corpus and on fixed random_cs draws:
    polygons from 3 to 5 point pairs, and the first 3-polytope draw with
    4 pairs whose face fan is nonsimplicial."""
    sources = [(n, p) for n, p in corpus.sheaf_corpus() if n != "nonrational-bipyramid"]
    for pairs in (3, 4, 5):
        sources += first_draws(2, pairs, 8)
    sources += first_draws(3, 4, 1, simplicial=False)
    items = []
    for name, p in sources:
        items.append(Item(name, "ih", signed_permutation(p, rng), None, name, known_h(name, p)))
    return items


def quadratic_items(rng: random.Random) -> list:
    """Genuinely irrational input: check-bounds on the nonrational
    bipyramid, and Q(sqrt 2) and Q(sqrt 3) images of small CS polytopes
    under check-bounds in dimensions 2 to 4 and ih in dimensions 2 and 3.
    ih on three-dimensional irrational input takes 6 to 12 s per polytope
    except on cross(3), so cross(3) is the only one; see README.md."""
    bipyramid = corpus.nonrational_cs_polytope()
    name = "nonrational-bipyramid"
    items = [Item(name, "check-bounds", bipyramid.vertices, 2, name, known_h(name, bipyramid))]
    sources = {
        "cross-2": cross_polytope(2),
        "cube-2": cube(2),
        "cross-3": cross_polytope(3),
        "cube-3": cube(3),
        "prism-over-diamond": corpus.nonsimplicial_cs_3polytope(),
        "cross-4": cross_polytope(4),
        "cube-4": cube(4),
    }
    sources.update(first_draws(2, 4, 2))
    plan = [("check-bounds", n) for n in sources] + [
        ("ih", n) for n, p in sources.items() if p.ambient_dim == 2 or n == "cross-3"
    ]
    for command, name in plan:
        p = sources[name]
        for d in (2, 3):
            label = f"{name}~q{d}"
            items.append(Item(label, command, quadratic_image(p, d, rng), d, name, known_h(name, p)))
    return items


BUILDERS = {"hvector": hvector_items, "sheaf": sheaf_items, "quadratic": quadratic_items}


def build(workload: str, seed: int) -> list:
    rng = random.Random(f"perfbench/{workload}/{seed}")
    return BUILDERS[workload](rng)


def write(items: list, directory: Path) -> tuple:
    """Write one file per item; returns (paths, sha256 of all bytes)."""
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    paths = []
    for i, item in enumerate(items):
        data = json.dumps(item.document(), sort_keys=True).encode()
        path = directory / f"{i:03d}.json"
        path.write_bytes(data)
        digest.update(path.name.encode() + b"\0" + data + b"\0")
        paths.append(path)
    return paths, digest.hexdigest()
