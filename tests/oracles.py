"""Independent test-side oracles, and fixtures the program does not need.

These deliberately avoid the package's search strategies: dense linear
algebra is a plain Gauss-Jordan elimination on field scalars, faces are
found by scanning all vertex subsets with it, the classical f-to-h
transform is the closed binomial formula, the toric h-polynomial
recurses through geometric quotient fans, the dual polytope reverses the
face lattice, and restriction maps of the sheaf are dense products of a
multiplication matrix and a substitution matrix.  Explicit fans
(subfans, fans from simplicial cone lists) build test inputs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from polyfan.fans import Cone, Fan, FanError, face_fan
from polyfan.ihsheaf import monomials
from polyfan.polytopes import Polytope, PolytopeError, random_cs
from polyfan.scalars import Quadratic, sign


def _field(x):
    """x as a field element: a Quadratic stays, ints become Fractions."""
    return x if isinstance(x, Quadratic) else Fraction(x)


def rref(rows) -> tuple:
    """Reduced row echelon form of a dense matrix by plain Gauss-Jordan
    elimination on field scalars, written independently of
    polyfan.linalg: the nonzero reduced rows as tuples and their pivot
    columns."""
    work = [[_field(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][col]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            f = work[i][col]
            if i != r and f != 0:
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
    return tuple(tuple(r) for r in work[: len(pivots)]), tuple(pivots)


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows, ncols: int | None = None) -> tuple:
    """Basis of {x : rows x = 0} over ``ncols`` columns (the row length
    by default): per free column, ascending, the vector with 1 there, 0
    at the other free columns and minus the reduced rows' entries at the
    pivots."""
    reduced, pivots = rref(rows)
    ncols = len(rows[0]) if ncols is None else ncols
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


def rank_vertex_criterion(points, facets) -> list:
    """Per listed point, whether it is a vertex of the hull by the rank
    criterion: the normals of the facets through it (``facets`` holds
    (mask, normal, offset) triples) span the whole space."""
    n = len(points[0])
    return [rank([u for mask, u, _ in facets if mask >> i & 1]) == n for i in range(len(points))]


def _affine_rank(points) -> int:
    """Dimension of the affine hull of a point set (-1 when empty)."""
    if not points:
        return -1
    base = points[0]
    diffs = [
        [x - b for x, b in zip(p, base)] for p in points[1:]
    ]
    return rank(diffs)


def _solve_hyperplane(points, n):
    """Normal (u, c) of the hyperplane through n affinely independent
    points, via kernel of the homogeneous system; None if degenerate."""
    basis = kernel_basis([[1] + list(p) for p in points], n + 1)
    if len(basis) != 1:
        return None
    c0, *u = basis[0]
    return tuple(u), -c0


def brute_force_facets(vertices) -> set:
    """Facet vertex sets by scanning every n-subset of vertices."""
    n = len(vertices[0])
    m = len(vertices)
    facets = set()
    for subset in combinations(range(m), n):
        pts = [vertices[i] for i in subset]
        if _affine_rank(pts) != n - 1:
            continue
        plane = _solve_hyperplane(pts, n)
        if plane is None:
            continue
        u, c = plane
        signs = [sign(sum((a * b for a, b in zip(u, v)), Fraction(0)) - c) for v in vertices]
        if any(s > 0 for s in signs) and any(s < 0 for s in signs):
            continue
        facets.add(frozenset(i for i, s in enumerate(signs) if s == 0))
    return facets


def brute_force_faces(vertices) -> dict:
    """All faces as {vertex frozenset: dim}, by intersecting facet sets
    over every vertex subset; includes the empty face and the polytope."""
    m = len(vertices)
    facets = brute_force_facets(vertices)
    everything = frozenset(range(m))
    faces = {frozenset(): -1, everything: _affine_rank(list(vertices))}
    for size in range(1, m):
        for subset in combinations(range(m), size):
            s = frozenset(subset)
            containing = [f for f in facets if s <= f]
            if not containing:
                continue
            hull = frozenset.intersection(*containing)
            if hull == s:
                faces[s] = _affine_rank([vertices[i] for i in s])
    return faces


def dual_polytope(p: Polytope) -> Polytope:
    """The polytope {u : <u, v> <= -1 for all v in P}; needs 0 interior.

    Its vertices solve <u, v> = -1 across one facet of P each, so the face
    lattice of the result is the order-reversed lattice of P.
    """
    lattice = p.face_lattice()
    if not p.origin_is_interior():
        raise PolytopeError("dual polytope needs the origin strictly interior")
    duals = []
    for f in lattice.facet_ids():
        u, c = lattice.facet_planes[f]
        duals.append(tuple(-x / c for x in u))
    return Polytope(duals)


def f_to_h(f_vector, n: int) -> tuple:
    """Classical h-vector from the face numbers of a simplicial polytope:
    h_i = sum_j (-1)^(i-j) C(n-j, i-j) f_{j-1}."""
    f = [1] + list(f_vector)  # f[j] = number of (j-1)-faces
    h = []
    for i in range(n + 1):
        total = 0
        for j in range(i + 1):
            total += (-1) ** (i - j) * comb(n - j, i - j) * f[j]
        h.append(total)
    while h and h[-1] == 0:
        h.pop()
    return tuple(h)


def _poly_mul(p, q) -> list:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _trimmed(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def g_by_quotient_fans(fan, cone_id) -> tuple:
    """g-polynomial of a cone from the h-polynomial of the quotient fan of
    its boundary, g = tau_{< ceil(d/2)}((1 - x) h); simplicial cones have
    g = 1.  Nothing is memoized, so every quotient fan is built anew."""
    cone = fan.cones[cone_id]
    if len(cone.ray_ids) == cone.dim:
        return (1,)
    h = h_by_quotient_fans(fan.quotient_fan(cone_id))
    return _trimmed(_poly_mul([1, -1], h)[: (cone.dim + 1) // 2])


def h_by_quotient_fans(fan) -> tuple:
    """Toric h-polynomial of a complete fan: the sum over all cones of
    (x - 1)^codim times g, with g from the projected quotient fans."""
    n = fan.dim
    total = [0] * (n + 1)
    for cid, cone in fan.cones.items():
        k = n - cone.dim
        x_minus_one = [comb(k, j) * (-1) ** (k - j) for j in range(k + 1)]
        for i, c in enumerate(_poly_mul(x_minus_one, g_by_quotient_fans(fan, cid))):
            total[i] += c
    return _trimmed(total)


def mul_matrix(poly_coeffs, poly_deg: int, src_deg: int, nvars: int):
    """Dense matrix of multiplication by a fixed homogeneous polynomial
    (coefficients over ``monomials(nvars, poly_deg)``), from ordinary
    degree ``src_deg`` to ``src_deg + poly_deg``."""
    src = monomials(nvars, src_deg)
    tgt_index = {m: i for i, m in enumerate(monomials(nvars, src_deg + poly_deg))}
    rows = [[Fraction(0)] * len(src) for _ in tgt_index]
    for col, alpha in enumerate(src):
        for c, gamma in zip(poly_coeffs, monomials(nvars, poly_deg)):
            if c != 0:
                r = tgt_index[tuple(a + g for a, g in zip(alpha, gamma))]
                rows[r][col] = rows[r][col] + c
    return rows


def subst_matrix(forms, src_deg: int, tgt_nvars: int):
    """Dense matrix, in ordinary degree ``src_deg``, of the ring map that
    sends source variable i to the linear form ``forms[i]`` (a covector
    in the target variables)."""
    src = monomials(len(forms), src_deg)
    tgt_index = {m: i for i, m in enumerate(monomials(tgt_nvars, src_deg))}
    rows = [[Fraction(0)] * len(src) for _ in tgt_index]
    for col, alpha in enumerate(src):
        expansion = {(0,) * tgt_nvars: Fraction(1)}
        for i, e in enumerate(alpha):
            for _ in range(e):
                new: dict = {}
                for mono, c in expansion.items():
                    for j, fj in enumerate(forms[i]):
                        if fj != 0:
                            key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                            new[key] = new.get(key, Fraction(0)) + c * fj
                expansion = new
        for mono, c in expansion.items():
            rows[tgt_index[mono]][col] = c
    return rows


def mat_mul(a, b):
    """Dense matrix product, written independently of polyfan.linalg."""
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def restriction_matrix(mes, src_id: int, tgt_id: int, q: int):
    """Dense degree-q restriction of a sheaf from its generator images:
    per pair of source and target generator blocks, the multiplication
    matrix of the image block times the substitution matrix."""
    src_blocks, src_dim = mes.gen_blocks(src_id, q)
    tgt_blocks, tgt_dim = mes.gen_blocks(tgt_id, q)
    tgt_offset = {g: off for g, _, off, _ in tgt_blocks}
    forms = mes.span_substitution_forms(src_id, tgt_id)
    nv = mes.nvars(tgt_id)
    rows = [[Fraction(0)] * src_dim for _ in range(tgt_dim)]
    for gi, d_i, src_off, _ in src_blocks:
        sub = subst_matrix(forms, (q - d_i) // 2, nv)
        image = mes.modules[src_id].images[tgt_id][gi]
        for gj, d_j, img_off, img_cnt in mes.gen_blocks(tgt_id, d_i)[0]:
            piece = [image.get(c, 0) for c in range(img_off, img_off + img_cnt)]
            mm = mul_matrix(piece, (d_i - d_j) // 2, (q - d_i) // 2, nv)
            for r, row in enumerate(mat_mul(mm, sub), tgt_offset[gj]):
                for c, x in enumerate(row, src_off):
                    rows[r][c] = rows[r][c] + x
    return rows


def subfan(fan: Fan, ids: set) -> Fan:
    """The fan of a face-closed set of cones of ``fan``, reusing ids."""
    for cid in ids:
        if not fan.faces[cid] <= ids:
            raise FanError("subfan is not face-closed")
    cones = {cid: fan.cones[cid] for cid in ids}
    faces = {cid: fan.faces[cid] & ids for cid in ids}
    rays = {r: fan.rays[r] for c in cones.values() for r in c.ray_ids}
    return Fan(fan.ambient_dim, rays, cones, faces)


def cone_fan(fan: Fan, cone_id: int) -> Fan:
    """The fan of all faces of a cone, reusing ids."""
    return subfan(fan, set(fan.faces[cone_id]) | {cone_id})


def boundary_fan(fan: Fan, cone_id: int) -> Fan:
    """The fan of proper faces of a cone, reusing ids."""
    return subfan(fan, set(fan.faces[cone_id]))


def value_on_ray(function, ray_id: int):
    """The value of a conewise-linear function on one ray of its fan,
    read on a maximal cone through the ray."""
    fan = function.fan
    cid = next(c for c in fan.maximal_ids if ray_id in fan.cones[c].ray_ids)
    return sum((a * b for a, b in zip(function.covectors[cid], fan.rays[ray_id])), Fraction(0))


def from_simplicial_cones(ambient_dim: int, rays, maximal_cones) -> Fan:
    """Explicit fan from simplicial maximal cones given as ray-index sets.

    Faces of a simplicial cone are exactly the subsets of its rays, so the
    face structure is generated combinatorially.  Each maximal cone's rays
    must be linearly independent; used for non-polytopal fixtures.
    """
    rays = {i: tuple(v) for i, v in enumerate(rays)}
    subsets: dict = {frozenset(): 0}
    for cone_rays in maximal_cones:
        rs = tuple(sorted(cone_rays))
        if rank([rays[r] for r in rs]) != len(rs):
            raise FanError(f"cone {rs} is not simplicial (dependent rays)")
        for bits in range(1 << len(rs)):
            sub = frozenset(rs[i] for i in range(len(rs)) if bits >> i & 1)
            if sub not in subsets:
                subsets[sub] = len(subsets)
    cones = {}
    faces = {}
    for sub, cid in subsets.items():
        cones[cid] = Cone(cid, tuple(sorted(sub)), len(sub))
        faces[cid] = frozenset(subsets[other] for other in subsets if other < sub)
    return Fan(ambient_dim, rays, cones, faces)


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
            p = random_cs(n, pairs, seed)
        except PolytopeError:
            seed += 1
            continue
        fan = face_fan(p)
        if fan.is_simplicial():
            out.append((f"simplicial-cs-{n}d-seed{seed}", p, fan))
        seed += 1
    return tuple(out)
