"""Independent test-side oracles, and fixtures the program does not need.

These deliberately avoid the package's search strategies: dense linear
algebra is a plain Gauss-Jordan elimination on field scalars, faces are
found by scanning all vertex subsets with it, the classical f-to-h
transform is the closed binomial formula, the face lattice's covers come
from intersections with every facet of the polytope, the toric
h-polynomial recurses through geometric quotient fans or sums one term
per face, the face fan's down-sets come from an all-pairs scan of vertex
masks, and conewise-linear pieces are compared over every pair of
maximal cones; the dual polytope reverses the face lattice, and
restriction maps of the sheaf are dense products of a multiplication
matrix and a substitution matrix.  The sections over a subfan impose
every pairwise contact of its maximal cones on those dense matrices, and
a section is multiplied by a linear form per cone monomial by monomial
on scalars.  The reflection's eigenspaces come from the global sections
over every maximal cone, with no fold: the reflection's matrices on that
basis, the ranks of C +- I and Cbar +- I, the minus basis, and the minus
Lefschetz table through the full matrices, all ranked by the dense
elimination here, as is a dense inverse.  The linear symmetries of a
polytope are every vertex permutation that a linear map induces, found
by trying each ordered choice of images for a basis of vertices and
mapping every vertex through that dense inverse.  Vectors of scalars are
cleared of denominators, or made primitive, by Fraction arithmetic here,
not by the package's :func:`linalg.integral_rows`, and the unpruned facet
insertion takes its side tests and combined rays over Q(sqrt d) in
Quadratic arithmetic, not by the package's integer pair steps.  Scalar
coordinates of a vector in a kernel's basis come from the package's
integral membership test, and the scalar basis vectors of a kernel are
read off its stored columns.  Explicit fans (subfans, fans from
simplicial cone lists) build test inputs; they keep their down-sets and
cone rays as id sets and hand :class:`Fan` and :class:`Cone` the
bitsets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, gcd, lcm

from polyfan import linalg
from polyfan.fans import Cone, Fan, FanError, face_fan
from polyfan.ihsheaf import _involution_on_basis, kernel_dimensions, monomials
from polyfan.polynomials import coeff
from polyfan.polytopes import (
    FaceLattice,
    Polytope,
    PolytopeError,
    _facets,
    _validate_lattice,
    mask_bits,
    random_cs,
)
from polyfan.scalars import Quadratic, sign


def _field(x):
    """x as a field element: a Quadratic stays, ints become Fractions."""
    return x if isinstance(x, Quadratic) else Fraction(x)


def sparse_kernel(rows, ncols: int, d: int | None = None):
    """The :func:`linalg.integral_kernel` of sparse rows of scalars: each
    row cleared of denominators over Q(sqrt d), d by default the
    :func:`linalg.radicand` of the rows, zero entries dropped."""
    rows = [{c: v for c, v in r.items() if v != 0} for r in rows]
    if d is None:
        d = linalg.radicand(r.values() for r in rows)
    return linalg.integral_kernel(
        [dict(zip(r, cleared(r.values(), d)[0])) for r in rows], ncols, d
    )


def basis_coords(kernel, vec: dict) -> dict | None:
    """Sparse coordinates of a sparse vector of scalars in the basis of a
    :class:`linalg.Kernel`, or None when it is not in the span: the
    vector cleared of denominators in the kernel's ring, tested by
    :func:`linalg.integral_coords`, and the coordinates divided back."""
    ints, n = cleared(vec.values(), kernel.d)
    coords = linalg.integral_coords(kernel, dict(zip(vec, ints)))
    return None if coords is None else {i: scalar(x, n, kernel.d) for i, x in coords.items()}


def basis_vectors(kernel) -> list:
    """The basis of a :class:`linalg.Kernel` as sparse vectors of scalars:
    vector i is e_f - sum_p (R_p[f] / d_p) e_p for its free column f."""
    out = []
    for f, i in kernel.free_cols.items():
        vec = {f: Fraction(1)}
        for p, x in kernel.columns[i].items():
            vec[p] = scalar(x, -kernel.pivot_values.get(p, 1), kernel.d)
        out.append(vec)
    return out


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


def inverse(m) -> tuple:
    """The inverse of a square matrix of field scalars: the right half of
    the Gauss-Jordan :func:`rref` of [m | I]; raises on a singular one."""
    n = len(m)
    reduced, pivots = rref([(*row, *(Fraction(int(i == j)) for j in range(n))) for i, row in enumerate(m)])
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def linear_symmetries(p: Polytope) -> set:
    """Every vertex permutation of a full-dimensional polytope induced by
    a linear map, as tuples (vertex index -> index of its image): for
    each ordered choice of distinct images of the first basis among the
    vertices, the map A = B' B^-1 is kept when it sends every vertex to
    a vertex and no two vertices to one.  Exponential in the dimension;
    for small inputs only."""
    vertices = [tuple(_field(x) for x in v) for v in p.vertices]
    n = len(vertices[0])
    basis = list(rref([[v[i] for v in vertices] for i in range(n)])[1])
    binv = inverse([[vertices[b][i] for b in basis] for i in range(n)])
    # The coordinates of each vertex in the basis: B^-1 v.
    coords = [[sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in binv] for v in vertices]
    index = {v: i for i, v in enumerate(vertices)}
    found = set()
    for images in permutations(range(len(vertices)), n):
        perm = []
        for c in coords:
            image = tuple(sum((a * vertices[j][i] for a, j in zip(c, images)), Fraction(0)) for i in range(n))
            if image not in index:
                break
            perm.append(index[image])
        else:
            if len(set(perm)) == len(perm):
                found.add(tuple(perm))
    return found


def cleared(values, d=None) -> tuple:
    """(n values, n) for the least positive integer n that makes the
    scalars integral: ints over Q (d None; every scalar rational), else
    pairs (x, y) standing for x + y sqrt d."""
    parts = [(x.a, x.b) if isinstance(x, Quadratic) else (Fraction(x), Fraction(0)) for x in values]
    n = lcm(*(z.denominator for xy in parts for z in xy))
    ints = [(int(x * n), int(y * n)) for x, y in parts]
    if d is None:
        assert not any(y for _, y in ints), "an irrational scalar over Q"
        return [x for x, _ in ints], n
    return ints, n


def primitive(values, d=None) -> list:
    """The primitive integral vector on the ray of a vector of scalars:
    the :func:`cleared` ints, or pairs over Q(sqrt d), divided by the gcd
    of all their parts.  The zero vector stays zero."""
    ints = cleared(values, d)[0]
    g = gcd(*(ints if d is None else [z for xy in ints for z in xy])) or 1
    return [x // g for x in ints] if d is None else [(x // g, y // g) for x, y in ints]


def canonical_ray(values, d=None) -> list:
    """The one exact ray of a nonzero vector of scalars over Q or
    Q(sqrt d): the positive multiple with a rational first nonzero entry
    and content 1, the :func:`primitive` vector of the values divided by
    the absolute value of that entry."""
    lead = next(x for x in values if x != 0)
    size = lead if sign(lead) > 0 else -lead
    return primitive([_field(x) / size for x in values], d)


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
    the (mask, ray) pairs of ``polytopes._facets``, whose ray is (y_0,
    minus a normal) over Q or Q(sqrt d)) span the whole space."""
    n, d = len(points[0]), linalg.radicand(points)
    normals = [(mask, [scalar(x, 1, d) for x in y[1:]]) for mask, y in facets]
    return [rank([u for mask, u in normals if mask >> i & 1]) == n for i in range(len(points))]


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


def _field_vector(y, d) -> list:
    """An integral vector as field scalars: ints stay, and an integer
    pair (a, b) over Q(sqrt d) becomes the Quadratic a + b sqrt d."""
    return list(y) if d is None else [Quadratic(a, b, d) for a, b in y]


def insert_row_unpruned(rays, row, bit: int, width: int, d) -> list:
    """:func:`polytopes._insert_row` as it was before its integer steps
    were tuned, on field scalars: the side test by a generator of
    products, the third-ray scan over every zero set, and each combined
    ray sp q - sq p given by its :func:`canonical_ray`.  The differential
    tests compare the package's insertion with it after every row."""
    row = _field_vector(row, d)
    kept, pos, neg = [], [], []
    for y, zeros in rays:
        s = sum((a * b for a, b in zip(row, _field_vector(y, d))), 0)
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
            combination = [sp * b - sq * a for a, b in zip(_field_vector(p, d), _field_vector(q, d))]
            kept.append((canonical_ray(combination, d), common | bit))
    return kept


def lattice_by_all_facets(vertices, n: int) -> FaceLattice:
    """The face lattice of conv(vertices) graded from the top with every
    facet of P as a candidate: the facets of a k-face are the
    inclusion-maximal proper intersections of it with the facets of P,
    with no use of the diamond property.  Down-sets, ordering, facet
    rays and validation are as in the package."""
    facets = _facets(vertices, n)
    full_mask = (1 << len(vertices)) - 1
    facet_masks = [mask for mask, _ in facets]
    dims = {full_mask: n}
    covers = {full_mask: facet_masks}
    layer = set(facet_masks)
    for k in range(n - 1, -1, -1):
        below = set()
        for face in layer:
            dims[face] = k
            meets = {face & f for f in facet_masks} - {face}
            covers[face] = []
            for c in sorted(meets, key=int.bit_count, reverse=True):
                if not any(c & o == c for o in covers[face]):
                    covers[face].append(c)
            below.update(covers[face])
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
        masks=tuple(ordered),
        dims=tuple(dims[mask] for mask in ordered),
        down=tuple(down),
        facet_rays={ids[mask]: y for mask, y in facets},
    )
    _validate_lattice(vertices, lattice)
    return lattice


def dual_polytope(p: Polytope) -> Polytope:
    """The polytope {u : <u, v> <= -1 for all v in P}; needs 0 interior.

    Its vertices solve <u, v> = -1 across one facet of P each, so the face
    lattice of the result is the order-reversed lattice of P.  A facet's
    ray y on the vertex rows s v gives u = s y_rest / y_0.
    """
    lattice = p.face_lattice()
    if not p.origin_is_interior():
        raise PolytopeError("dual polytope needs the origin strictly interior")
    _, s, d = linalg.integral_rows(p.vertices, linalg.radicand(p.vertices))
    duals = []
    for f in lattice.facet_ids():
        y0, *rest = (scalar(x, 1, d) for x in lattice.facet_rays[f])
        duals.append(tuple(s * x / y0 for x in rest))
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


def _x_minus_one(k: int) -> list:
    return [comb(k, j) * (-1) ** (k - j) for j in range(k + 1)]


def h_by_quotient_fans(fan) -> tuple:
    """Toric h-polynomial of a complete fan: the sum over all cones of
    (x - 1)^codim times g, with g from the projected quotient fans."""
    n = fan.dim
    total = [0] * (n + 1)
    for cid, cone in fan.cones.items():
        product = _poly_mul(_x_minus_one(n - cone.dim), g_by_quotient_fans(fan, cid))
        for i, c in enumerate(product):
            total[i] += c
    return _trimmed(total)


def bitset(ids) -> int:
    """The int with bit i set for each id i."""
    return sum(1 << i for i in set(ids))


def faces_below(fan: Fan, cone_id: int) -> set:
    """The ids of the proper faces of a cone, as a set."""
    return set(mask_bits(fan.down[cone_id]))


def down_sets_by_scan(p: Polytope) -> dict:
    """Per cone of the face fan of P (the empty face and each proper
    face), the ids of the proper faces strictly below it, by testing the
    vertex masks of every pair: small & big == small."""
    lattice = p.face_lattice()
    masks = lattice.masks
    proper = tuple(i for i, k in enumerate(lattice.dims) if k < lattice.ambient_dim)
    return {
        big: frozenset(
            small
            for small in proper
            if small != big and masks[small] & masks[big] == masks[small]
        )
        for big in proper
    }


def h_per_face(fan) -> tuple:
    """The toric h-polynomial of a complete fan and the g-polynomial of
    every cone, by the g/h recursion over the fan's own down-sets with
    one product and one sum per face: equal terms are not collected.
    Returns (h, {cone id: g})."""
    g: dict = {}

    def h_sum(cone_ids, n):
        total = [0] * (n + 1)
        for cid in cone_ids:
            product = _poly_mul(_x_minus_one(n - fan.cones[cid].dim), g[cid])
            for i, c in enumerate(product):
                total[i] += c
        return _trimmed(total)

    for cid in sorted(fan.cones, key=lambda c: fan.cones[c].dim):
        cone = fan.cones[cid]
        if len(cone.ray_ids) == cone.dim:
            g[cid] = (1,)
        else:
            h = h_sum(faces_below(fan, cid), cone.dim - 1)
            g[cid] = _trimmed(_poly_mul([1, -1], h)[: (cone.dim + 1) // 2])
    return h_sum(fan.cones, fan.dim), g


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


def substitution_forms(mes, src_id: int, tgt_id: int) -> tuple:
    """The sheaf's substitution forms from one cone to a face as dense
    covectors of scalars: the integral forms divided by their common
    denominator."""
    forms, den = mes.span_substitution_forms(src_id, tgt_id)
    nv, d = mes.nvars(tgt_id), mes.ring.d
    return tuple(tuple(scalar(form.get(t, 0), den, d) for t in range(nv)) for form in forms)


def restriction_matrix(mes, src_id: int, tgt_id: int, q: int):
    """Dense degree-q restriction of a sheaf from its generator images
    (integral vectors, read as scalars): per pair of source and target
    generator blocks, the multiplication matrix of the image block times
    the substitution matrix."""
    src_blocks, src_dim = mes.gen_blocks(src_id, q)
    tgt_blocks, tgt_dim = mes.gen_blocks(tgt_id, q)
    tgt_offset = {g: off for g, _, off, _ in tgt_blocks}
    forms = substitution_forms(mes, src_id, tgt_id)
    nv, d = mes.nvars(tgt_id), mes.ring.d
    rows = [[Fraction(0)] * src_dim for _ in range(tgt_dim)]
    for gi, d_i, src_off, _ in src_blocks:
        sub = subst_matrix(forms, (q - d_i) // 2, nv)
        image = mes.modules[src_id].images[tgt_id][gi]
        for gj, d_j, img_off, img_cnt in mes.gen_blocks(tgt_id, d_i)[0]:
            piece = [scalar(image.get(c, 0), 1, d) for c in range(img_off, img_off + img_cnt)]
            mm = mul_matrix(piece, (d_i - d_j) // 2, (q - d_i) // 2, nv)
            for r, row in enumerate(mat_mul(mm, sub), tgt_offset[gj]):
                for c, x in enumerate(row, src_off):
                    rows[r][c] = rows[r][c] + x
    return rows


def check_local_global_dims(mes, cone_ids) -> bool:
    """Dimension consequence of the characteristic-sheaf decomposition:
    for a subfan, the dimension of its sections equals the sum of the
    sheaf's local kernel dimensions over its cones, in every degree up to
    the cap.  The sections are the kernel of every pairwise contact of
    the subfan's maximal cones, restricted to their common face by the
    dense :func:`restriction_matrix`."""
    fan = mes.fan
    ids = set(cone_ids)
    for cid in ids:
        if not faces_below(fan, cid) <= ids:
            raise FanError("subfan is not face-closed")
    max_ids = sorted(ids - set().union(*(faces_below(fan, cid) for cid in ids)))
    kernels = kernel_dimensions(mes)
    for q in range(0, mes.cap + 1, 2):
        dims = [mes.module_dim(cid, q) for cid in max_ids]
        offsets = [sum(dims[:i]) for i in range(len(dims))]
        rows = []
        for (i, a), (j, b) in combinations(enumerate(max_ids), 2):
            f = common_face(fan, a, b)
            for row_a, row_b in zip(restriction_matrix(mes, a, f, q), restriction_matrix(mes, b, f, q)):
                row = [Fraction(0)] * sum(dims)
                row[offsets[i] : offsets[i] + dims[i]] = row_a
                row[offsets[j] : offsets[j] + dims[j]] = [-x for x in row_b]
                rows.append(row)
        if len(kernel_basis(rows, sum(dims))) != sum(coeff(kernels[cid], q) for cid in ids):
            return False
    return True


def multiply_conewise(mes, max_ids, q: int, vec: dict, covectors) -> dict:
    """Product of a sparse degree-q section over the given maximal cones
    with one linear form per cone (a covector in its coordinates, in the
    order of ``max_ids``), on scalars: in each generator block, monomial
    x^alpha times x_j is x^(alpha + e_j) in the same block at q + 2."""
    out: dict = {}
    src_start = tgt_start = 0
    for cid, covector in zip(max_ids, covectors):
        nv = mes.nvars(cid)
        src_blocks, src_dim = mes.gen_blocks(cid, q)
        tgt_blocks, tgt_dim = mes.gen_blocks(cid, q + 2)
        tgt_offset = {g: off for g, _, off, _ in tgt_blocks}
        for g, d, off, _ in src_blocks:
            index = {m: i for i, m in enumerate(monomials(nv, (q + 2 - d) // 2))}
            for i, alpha in enumerate(monomials(nv, (q - d) // 2)):
                v = vec.get(src_start + off + i, 0)
                if not v:
                    continue
                for j, f in enumerate(covector):
                    if f:
                        gamma = tuple(a + (k == j) for k, a in enumerate(alpha))
                        t = tgt_start + tgt_offset[g] + index[gamma]
                        out[t] = out.get(t, 0) + f * v
        src_start += src_dim
        tgt_start += tgt_dim
    return {t: x for t, x in out.items() if x}


def full_quotient(mes, q: int) -> dict:
    """The sheaf's quotient of all global sections at degree q by the
    ambient maximal ideal, over every maximal cone with no fold: the
    coordinate function x_j is row[j] on each stored row of a cone's
    :meth:`Fan.cone_basis`, and the products come from the sections over
    every maximal cone at q - 2."""
    fan = mes.fan
    max_ids = fan.maximal_ids
    forms = [[row[j] for cid in max_ids for row in fan.cone_basis(cid)[0]] for j in range(fan.ambient_dim)]
    below = mes.section_space(max_ids, q - 2) if q >= 2 else None
    return mes.quotient(max_ids, q, forms, below)


def scalar(x, n: int, d):
    """The field scalar x / n of an integral entry x: an int, or a pair
    (a, b) for a + b sqrt d."""
    if isinstance(x, tuple):
        a, b = x
        return Quadratic(Fraction(a, n), Fraction(b, n), d) if b else Fraction(a, n)
    return Fraction(x, n)


def reduce_mod_m(data: dict, coords: dict) -> dict:
    """Sparse coordinates of scalars in the basis of a
    :func:`full_quotient` reduced modulo its rows of m*E, as quotient
    coordinates.  The quotient keeps the stored rows of its elimination,
    which divided by their pivot values are the fully reduced rows."""
    d = data["sections"].d
    res = dict(coords)
    for p, row in data["m_rows"].items():
        f = res.get(p, 0)
        if f:
            n = row[p][0] if d else row[p]
            for c, v in row.items():
                res[c] = res.get(c, 0) - f * scalar(v, n, d)
    assert not any(res.get(p, 0) for p in data["m_rows"])
    return {data["complement"][i]: x for i, x in res.items() if x}


def reflection_matrices(mes, q: int) -> tuple:
    """(C, Cbar): the reflection on the basis of all global sections at
    degree q, as sparse columns, and descended to the quotient modulo m.
    The sheaf gives each column as integral coordinates and the integer
    that divides them."""
    d = mes.ring.d
    c = tuple({i: scalar(x, n, d) for i, x in col.items()} for col, n in _involution_on_basis(mes, q))
    data = full_quotient(mes, q)
    return c, tuple(reduce_mod_m(data, c[i]) for i in data["complement"])


def dense(columns, nrows: int) -> list:
    """The dense matrix with the given sparse columns."""
    return [[col.get(i, 0) for col in columns] for i in range(nrows)]


def shifted(matrix, s: int) -> list:
    """A dense square matrix plus s times the identity."""
    return [[x + s if i == j else x for j, x in enumerate(row)] for i, row in enumerate(matrix)]


def eigen_dims(columns) -> tuple:
    """(+1, -1) eigenspace dimensions of an involution given as sparse
    columns, from the ranks of C - I and C + I; raises ValueError when
    the two do not fill the space."""
    n = len(columns)
    matrix = dense(columns, n)
    plus, minus = n - rank(shifted(matrix, -1)), n - rank(shifted(matrix, 1))
    if plus + minus != n:
        raise ValueError("not an involution")
    return plus, minus


def minus_basis(mes, q: int) -> tuple:
    """The -1 eigenspace of the reflection on the quotient at degree q:
    the kernel basis of Cbar + I, as dense vectors."""
    _, cbar = reflection_matrices(mes, q)
    return kernel_basis(shifted(dense(cbar, len(cbar)), 1), len(cbar))


def lefschetz_matrices(mes, s) -> dict:
    """Per even q below the cap, the dense matrix of multiplication by the
    conewise linear function s from the :func:`full_quotient` at q to the
    one at q + 2."""
    max_ids, d = mes.fan.maximal_ids, mes.ring.d
    covectors = tuple(
        tuple(
            sum((scalar(a, 1, d) * b for a, b in zip(row, s.covectors[cid])), Fraction(0))
            for row in mes.fan.cone_basis(cid)[0]
        )
        for cid in max_ids
    )
    out = {}
    for q in range(0, mes.cap, 2):
        data, target = full_quotient(mes, q), full_quotient(mes, q + 2)
        vectors = basis_vectors(data["sections"])
        columns = [
            reduce_mod_m(
                target,
                basis_coords(
                    target["sections"],
                    multiply_conewise(mes, max_ids, q, vectors[i], covectors),
                ),
            )
            for i in data["complement"]
        ]
        out[q] = (len(columns), dense(columns, len(target["complement"])))
    return out


def lefschetz_tables(mes, matrices: dict) -> tuple:
    """(table, minus table) of :func:`lefschetz_matrices`: per degree
    (dim source, dim target, rank) of the whole map and of its
    restriction to the minus eigenspaces; raises ValueError when the map
    sends a minus eigenvector outside the minus eigenspace."""
    table, minus = {}, {}
    for q, (ncols, matrix) in sorted(matrices.items()):
        table[q] = (ncols, len(matrix), rank(matrix))
        target = minus_basis(mes, q + 2)
        images = [
            tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in matrix)
            for v in minus_basis(mes, q)
        ]
        for image in images:
            if rank([*target, image]) != len(target):
                raise ValueError("multiplication does not preserve the minus eigenspace")
        minus[q] = (len(images), len(target), rank(images))
    return table, minus


def subfan(fan: Fan, ids: set) -> Fan:
    """The fan of a face-closed set of cones of ``fan``, reusing ids."""
    for cid in ids:
        if not faces_below(fan, cid) <= ids:
            raise FanError("subfan is not face-closed")
    cones = {cid: fan.cones[cid] for cid in ids}
    down = {cid: bitset(faces_below(fan, cid) & ids) for cid in ids}
    rays = {r: fan.rays[r] for c in cones.values() for r in c.ray_ids}
    return Fan(fan.ambient_dim, rays, cones, down)


def cone_fan(fan: Fan, cone_id: int) -> Fan:
    """The fan of all faces of a cone, reusing ids."""
    return subfan(fan, faces_below(fan, cone_id) | {cone_id})


def boundary_fan(fan: Fan, cone_id: int) -> Fan:
    """The fan of proper faces of a cone, reusing ids."""
    return subfan(fan, faces_below(fan, cone_id))


def value_on_ray(function, ray_id: int):
    """The value of a conewise-linear function on one ray of its fan,
    read on a maximal cone through the ray."""
    fan = function.fan
    cid = next(c for c in fan.maximal_ids if ray_id in fan.cones[c].ray_ids)
    return sum((a * b for a, b in zip(function.covectors[cid], fan.rays[ray_id])), Fraction(0))


def common_face(fan: Fan, a: int, b: int) -> int:
    """The largest common face of two cones of the fan."""
    if a == b:
        return a
    shared = (faces_below(fan, a) | {a}) & (faces_below(fan, b) | {b})
    return max(shared, key=lambda cid: (fan.cones[cid].dim, -cid))


def conewise_pieces_agree(fan: Fan, covectors: dict) -> bool:
    """Whether linear pieces on the maximal cones agree on every common
    face: for every pair of maximal cones, both pieces take the same
    value on each ray of their largest common face."""
    for a, b in combinations(fan.maximal_ids, 2):
        for ray in map(fan.rays.get, fan.cones[common_face(fan, a, b)].ray_ids):
            values = [sum((x * y for x, y in zip(covectors[c], ray)), Fraction(0)) for c in (a, b)]
            if values[0] != values[1]:
                return False
    return True


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
    down = {}
    for sub, cid in subsets.items():
        cones[cid] = Cone(cid, bitset(sub), len(sub))
        down[cid] = bitset(subsets[other] for other in subsets if other < sub)
    return Fan(ambient_dim, rays, cones, down)


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
