"""Independent test-side oracles.

These deliberately avoid the package's search strategies: faces are found
by scanning all vertex subsets with a locally implemented rank routine,
the classical f-to-h transform is the closed binomial formula, the
toric h-polynomial recurses through geometric quotient fans, and
restriction maps of the sheaf are dense products of a multiplication
matrix and a substitution matrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from polyfan.ihsheaf import monomials
from polyfan.scalars import sign


def _rank(rows) -> int:
    """Plain Gaussian elimination rank, written independently of
    polyfan.linalg."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col] / pv
                for j in range(col, ncols):
                    work[i][j] = work[i][j] - factor * work[rank][j]
        rank += 1
    return rank


def rank_vertex_criterion(points, facets) -> list:
    """Per listed point, whether it is a vertex of the hull by the rank
    criterion: the normals of the facets through it (``facets`` holds
    (mask, normal, offset) triples) span the whole space."""
    n = len(points[0])
    return [_rank([u for mask, u, _ in facets if mask >> i & 1]) == n for i in range(len(points))]


def _affine_rank(points) -> int:
    """Dimension of the affine hull of a point set (-1 when empty)."""
    if not points:
        return -1
    base = points[0]
    diffs = [
        [x - b for x, b in zip(p, base)] for p in points[1:]
    ]
    return _rank(diffs)


def _solve_hyperplane(points, n):
    """Normal (u, c) of the hyperplane through n affinely independent
    points, via kernel of the homogeneous system; None if degenerate."""
    rows = [[Fraction(1) * 0 + 1] + list(p) for p in points]
    # Reduce and extract a kernel vector of the (n x (n+1)) system.
    work = [list(r) for r in rows]
    ncols = n + 1
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][col]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    if len(pivots) != n:
        return None
    free = next(j for j in range(ncols) if j not in pivots)
    v = [Fraction(0)] * ncols
    v[free] = Fraction(1)
    for i, p in enumerate(pivots):
        v[p] = -work[i][free]
    c0, u = v[0], tuple(v[1:])
    return u, -c0


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
