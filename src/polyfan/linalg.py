"""Exact linear algebra over the package's scalar types.

A sparse row (or vector) is a dict from column index to its nonzero
entries only.  Dense vectors are tuples of scalars and dense matrices
tuples of row tuples; polytope constructors and rank checks use them.
There is one elimination, :func:`_fraction_free`, and one conversion to
integers, the common scale of :func:`integral_rows`: that takes scalars,
in the field that :func:`radicand`, the package's one rule, decides, and
:func:`scaled_rows` takes the integer parts a vertex file is read into,
over Q when no part is irrational.  :func:`stored_rows`
takes integral rows; :func:`sparse_rref` and the dense :func:`rref` and
:func:`rank` are adapters that convert their rows of scalars and pass
them on.  The elimination pivots on the first nonzero column, and the
reduced row echelon form of a matrix is unique, so every result is a
deterministic function of the input.

The elimination is one fraction-free loop (Bareiss 1968) over integral
rows.  Over Q an entry is an ``int``; over Q(sqrt d) it is the pair
(x, y) of ints standing for x + y sqrt d, where some entry is a
:class:`~polyfan.scalars.Quadratic`; the content of a pair row is the
gcd of every x and y.  A row is reduced by a stored row as
``(a/g) r - (f/g) s``, where ``a`` is the stored pivot, ``f`` the entry
of ``r`` there and ``g`` the gcd of ``a`` and the parts of ``f``.
So the pivot of a stored row must be an integer: a new pair row is
first multiplied by the conjugate (px, -py) of its pivot, which turns
the pivot into the norm px^2 - d py^2, nonzero because d is square-free
(Cohen 1993, ch. 5).  Every stored row is then divided by its content
and kept with a positive pivot.  These steps multiply rows by nonzero
scalars and subtract multiples of other rows, so each stored row spans
the same line as the row a field elimination would hold, and no
``Quadratic`` is multiplied or added.  Integer rows never pay for pairs:
the arithmetic of one field is a :class:`Ring`, and the loop takes the
integer or the pair step of :func:`ring`, chosen once per system.  Rows
go in by least column, descending (Duff-Erisman-Reid 1986 on the order
of elimination): a new pivot then mostly lies below every stored one,
and no stored row can hold a column below its own pivot, so the stored
rows are scanned for the new pivot only when it does not.

Every consumer reads the same stored rows R_p, with pivot value d_p (the
positive integer at p).  R_p is the least integral multiple of the
reduced row at p, so it depends only on the span of the rows: a
non-simplicial cone's basis (:meth:`polyfan.fans.Fan.cone_coordinates`)
is the stored rows of its rays' coordinates, which a linear map of the
rays keeps.  :func:`sparse_rref` divides each by d_p, which is the reduced row
echelon form exactly, with no modulus and nothing to reconstruct.
:func:`integral_kernel` keeps them in a :class:`Kernel`, each entry
once and no scalar basis vector: the basis vector of free column f is
e_f - sum_p (R_p[f] / d_p) e_p, and an integral x is in the span iff
d_p x_p + sum_f R_p[f] x_f = 0 at every pivot p, which
:func:`integral_coords` tests in the kernel's own ring.

The sheaf (:mod:`polyfan.ihsheaf`) keeps its data integral from the
start, in the :class:`Ring` of its fan: :func:`integral_kernel` and
:func:`integral_rank` take integral rows as they are,
:func:`sparse_mat_vec` applies integral rows to an integral vector,
:func:`integral_vector` reads a kernel basis vector as a primitive
integral vector, :func:`common_scale` puts vectors with denominators
over one least scale, and :func:`cofactors` equates two scaled
matrices.  :func:`products_rref` forms products of kernel vectors (all,
or a selection) with integral linear forms and returns the stored rows
of their elimination, so no scalar is built: their span, and so every
rank, does not depend on the scale of a row.  :func:`integral_rows`
clears vectors of scalars of their denominators at one common scale:
the vertices of a polytope built by a constructor, and the rays and
covectors of a fan or conewise linear function given as scalars
(:mod:`polyfan.fans`).  A vertex file goes through :func:`scaled_rows`,
and a face fan and its support function take the polytope's rows, so
no scalar is built between reading a file and writing its report.
:func:`antipodes` pairs opposite rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import gcd, lcm
from operator import add, mul, neg
from typing import Callable, NamedTuple, Sequence

from .scalars import FieldMismatchError, Quadratic, Scalar, quadratic_from_parts, quadratic_sign

Vector = tuple  # tuple[Scalar, ...]
Matrix = tuple  # tuple[Vector, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def mat(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    out = tuple(tuple(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows in matrix")
    return out


def zeros(n: int) -> Vector:
    return (_ZERO,) * n


def unit(n: int, i: int) -> Vector:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def vec_neg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vec_dot(u: Vector, v: Vector) -> Scalar:
    total = _ZERO
    for a, b in zip(u, v):
        total = total + a * b
    return total


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(vec_dot(row, v) for row in m)


# No caller in the package: kept while perfbench/tracing.py wraps it by name.
def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return ()
    cols = list(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in cols) for row in a)


# No caller in the package: rref and its one step _rref_inplace stay
# while perfbench/tracing.py wraps _rref_inplace by name.
def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns of a dense matrix."""
    rows = [list(r) for r in m]
    pivots = _rref_inplace(rows)
    return tuple(tuple(r) for r in rows[: len(pivots)]), pivots


def _rref_inplace(rows: list[list]) -> tuple[int, ...]:
    """Reduce ``rows`` in place to the :func:`sparse_rref` of the rows,
    written back densely; returns pivot columns.  Nonpivot rows are
    zeroed and moved to the bottom."""
    reduced, pivots = sparse_rref(dict(enumerate(r)) for r in rows)
    for i, row in enumerate(rows):
        new = reduced[i] if i < len(reduced) else {}
        row[:] = [new.get(c, _ZERO) for c in range(len(row))]
    return pivots


def sparse_rref(rows) -> tuple[tuple[dict, ...], tuple[int, ...]]:
    """Reduced row echelon form of sparse rows: the nonzero reduced rows
    in pivot order and their pivot columns.  Rows are inserted one at a
    time; each is reduced by the pivot rows found so far, and its own
    pivot is then eliminated from them, so every stored row stays fully
    reduced.  The loop runs on integral rows (see the module
    docstring)."""
    rows = list(rows)
    d = radicand(r.values() for r in rows)
    zero = ring(d).zero
    integral = integral_rows([r.values() for r in rows], d)[0]
    stored = _fraction_free(({c: v for c, v in zip(r, row) if v != zero} for r, row in zip(rows, integral)), d)
    return _reduced(stored, d)


def stored_rows(rows, d) -> dict:
    """The stored rows of the elimination of dense integral rows (ints,
    or pairs over Q(sqrt d)): pivot column -> primitive integral row with
    a positive integer there and 0 at the other pivots (see the module
    docstring)."""
    zero = ring(d).zero
    return _fraction_free(({c: v for c, v in enumerate(row) if v != zero} for row in rows), d)


def _reduced(stored: dict, d) -> tuple[tuple[dict, ...], tuple[int, ...]]:
    """The :func:`sparse_rref` result of stored rows: each divided by its
    pivot value."""
    pivots = tuple(sorted(stored))
    out = []
    for p in pivots:
        r = stored[p]
        n = r[p] if d is None else r[p][0]
        out.append({c: _scalar(v, n, d) for c, v in r.items()})
    return tuple(out), pivots


def radicand(vectors) -> int | None:
    """The field of the vectors (iterables of scalars): the radicand d of
    their first Quadratic, for Q(sqrt d), or None for Q when there is
    none.  A :class:`~polyfan.polytopes.Polytope` keeps a coordinate with
    zero irrational part as a Fraction, so this decides its field."""
    for values in vectors:
        for v in values:
            if type(v) is Quadratic:
                return v.d
    return None


def _parts(values, d) -> list:
    """The rational parts x, y of each scalar x + y sqrt d, in order."""
    parts = []
    for v in values:
        if type(v) is Quadratic:
            if v.d != d and v.b:
                raise FieldMismatchError(f"cannot mix sqrt({d}) with sqrt({v.d})")
            parts += (v.a, v.b)
        else:
            parts += (v, 0)
    return parts


def _pairs(ints: list) -> list:
    return list(zip(ints[::2], ints[1::2]))


def integral_rows(vectors, d) -> tuple[list, int, int | None]:
    """(rows, s, d) for a sequence of vectors of scalars over Q(sqrt d),
    or over Q when d is None: the rows s v for the least positive integer
    s that clears every denominator, as tuples of ints, or of pairs over
    Q(sqrt d).  This is the package's one conversion of scalars to
    integers; callers decide d with :func:`radicand`.  Its common scale
    step, :func:`_scaled`, also takes a vertex file's integer parts
    (:func:`scaled_rows`)."""
    parts = vectors if d is None else [_parts(v, d) for v in vectors]
    return _scaled([[(x.numerator, x.denominator) for x in v] for v in parts], d)


def scaled_rows(parts, d) -> tuple[list, int, int | None]:
    """The :func:`integral_rows` of vectors given as integer parts: per
    entry one (numerator, denominator) in lowest terms with a positive
    denominator over Q, and over Q(sqrt d) two, those of x and y for
    x + y sqrt d, one after the other.  When every y is zero the vectors
    are over Q (d None), as :func:`radicand` decides for them as
    scalars."""
    if d is not None and not any(y for v in parts for y, _ in v[1::2]):
        parts, d = [v[::2] for v in parts], None
    return _scaled(parts, d)


def _scaled(parts, d) -> tuple[list, int, int | None]:
    """(rows, s, d) for vectors of integer parts (see :func:`scaled_rows`):
    s the lcm of the denominators, each part's numerator times s over its
    denominator, and the parts paired over Q(sqrt d)."""
    s = lcm(*[q for v in parts for _, q in v])
    rows = [[p * (s // q) for p, q in v] for v in parts]
    return [tuple(r) if d is None else tuple(_pairs(r)) for r in rows], s, d


def antipodes(integral) -> list | None:
    """For the (rows, s, d) of :func:`integral_rows`, the index of each
    row's negative among the rows (the last, if it repeats), or None when
    some row's negative is not a row."""
    rows, _, d = integral
    index = {row: i for i, row in enumerate(rows)}
    negate = ring(d).neg
    out = [index.get(tuple(map(negate, row))) for row in rows]
    return None if None in out else out


def common_scale(vectors, d) -> tuple[list, int]:
    """For integral sparse vectors (ints, or pairs over Q(sqrt d)), each
    given with a positive integer n as (vector, n) for vector / n: the
    integral vectors m vector / n, for the least positive integer m that
    makes every one of them integral, and m."""
    pairs = d is not None
    m = 1
    for vec, n in vectors:
        if n != 1:
            parts = [z for xy in vec.values() for z in xy] if pairs else vec.values()
            m = lcm(m, n // gcd(n, *parts))
    out = []
    for vec, n in vectors:
        if m == n:
            out.append(vec)
        elif pairs:
            out.append({c: (x * m // n, y * m // n) for c, (x, y) in vec.items()})
        else:
            out.append({c: x * m // n for c, x in vec.items()})
    return out, m


def cofactors(a: int, b: int) -> tuple[int, int]:
    """(b / g, a / g) for g = gcd(a, b): x / a = y / b iff (b / g) x =
    (a / g) y."""
    g = gcd(a, b)
    return b // g, a // g


def _scalar(x, n: int, d):
    """The scalar x / n of an integral entry x (a pair when d is set)."""
    if d is None:
        return Fraction(x, n)
    a, b = x
    if b:
        return quadratic_from_parts(Fraction(a, n), Fraction(b, n), d)
    return Fraction(a, n)


class Ring(NamedTuple):
    """The arithmetic of integral entries over one field, chosen once per
    system or fan: ints over Q (``d`` None), integer pairs (x, y) for
    x + y sqrt d over Q(sqrt d).  ``scale(k, x)`` is k x for an int k,
    ``dot`` the dot product of two dense vectors, and ``eliminate`` and
    ``normalize`` the steps of :func:`_fraction_free`."""

    d: int | None
    zero: object
    one: object
    add: Callable
    mul: Callable
    neg: Callable
    scale: Callable
    dot: Callable
    sign: Callable
    eliminate: Callable
    normalize: Callable


@lru_cache(maxsize=None)
def ring(d: int | None) -> Ring:
    """The :class:`Ring` of integral entries over Q(sqrt d), or over Q
    when d is None."""
    if d is None:
        return Ring(None, 0, 1, add, mul, neg, mul, lambda u, v: sum(map(mul, u, v)),
                    _int_sign, _eliminate, _normalize)

    def pair_add(u, v):
        return (u[0] + v[0], u[1] + v[1])

    def pair_mul(u, v):
        (ux, uy), (vx, vy) = u, v
        return (ux * vx + d * uy * vy, ux * vy + uy * vx)

    return Ring(
        d,
        _PAIR_ZERO,
        (1, 0),
        pair_add,
        pair_mul,
        lambda u: (-u[0], -u[1]),
        lambda k, u: (k * u[0], k * u[1]),
        lambda u, v: reduce(pair_add, map(pair_mul, u, v), _PAIR_ZERO),
        lambda u: quadratic_sign(u[0], u[1], d),
        partial(_eliminate_pairs, d=d),
        partial(_normalize_pairs, d=d),
    )


def _int_sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _fraction_free(rows, d) -> dict:
    """The stored rows of an elimination of nonzero integral rows (see the
    module docstring): pivot column -> primitive row, a positive integer
    there and 0 at the other pivots.  Each stored row's least column is
    its pivot: a new pivot row is cleared from the stored rows that hold
    its pivot, and only a row with a smaller pivot can.  The rows are
    inserted by least column, descending, so a new pivot is most often
    below every stored one, and then no stored row is scanned."""
    step = ring(d)
    eliminate, normalize = step.eliminate, step.normalize
    reduced: dict = {}
    low = None  # the least stored pivot
    for r in sorted((r for r in rows if r), key=min, reverse=True):
        for p in [c for c in r if c in reduced]:
            eliminate(r, reduced[p], p)
        if not r:
            continue
        p = min(r)
        normalize(r, p)
        if low is None or p < low:
            low = p
        else:
            for other in reduced.values():
                if p in other:
                    eliminate(other, r, p)
                    normalize(other, None)
        reduced[p] = r
    return reduced


def _eliminate(r: dict, s: dict, p: int) -> None:
    """Clear column p of integer row r with integer row s, in place:
    r <- (a/g) r - (f/g) s for a = s[p] > 0, f = r[p], g = gcd(a, f)."""
    a, f = s[p], r[p]
    g = gcd(a, f)
    a //= g
    f //= g
    if a != 1:
        for c in r:
            r[c] *= a
    for c, v in s.items():
        x = r.get(c, 0) - f * v
        if x:
            r[c] = x
        else:
            del r[c]


def _normalize(r: dict, p: int | None) -> None:
    """Divide a nonempty integer row by the gcd of its entries, in place,
    negated when the row is negative at column p."""
    g = gcd(*r.values())
    if p is not None and r[p] < 0:
        g = -g
    if g != 1:
        for c in r:
            r[c] //= g


_PAIR_ZERO = (0, 0)


def _eliminate_pairs(r: dict, s: dict, p: int, d: int) -> None:
    """:func:`_eliminate` on pair rows: s holds the integer (a, 0) at p,
    r holds f = (fx, fy), and g = gcd(a, fx, fy)."""
    a = s[p][0]
    fx, fy = r[p]
    g = gcd(a, fx, fy)
    a //= g
    fx //= g
    fy //= g
    if a != 1:
        for c, (x, y) in r.items():
            r[c] = (a * x, a * y)
    dfy = d * fy
    for c, (sx, sy) in s.items():
        x, y = r.get(c, _PAIR_ZERO)
        x -= fx * sx + dfy * sy
        y -= fx * sy + fy * sx
        if x or y:
            r[c] = (x, y)
        else:
            del r[c]


def _normalize_pairs(r: dict, p: int | None, d: int) -> None:
    """:func:`_normalize` on a pair row; a new pivot row is first
    multiplied by the conjugate (px, -py) of its pivot, which makes the
    pivot the integer norm px^2 - d py^2 (nonzero: d is square-free)."""
    if p is not None:
        px, py = r[p]
        if py:
            for c, (x, y) in r.items():
                r[c] = (x * px - d * y * py, y * px - x * py)
    g = gcd(*(z for xy in r.values() for z in xy))
    if p is not None and r[p][0] < 0:
        g = -g
    if g != 1:
        for c, (x, y) in r.items():
            r[c] = (x // g, y // g)


class Kernel(NamedTuple):
    """The null space of sparse rows with the stored rows R_p that cut it
    out (see the module docstring).  ``free_cols`` maps each free column
    to the index of its basis vector, ascending, so its length is the
    kernel's dimension; ``pivot_values`` holds the d_p other than 1, and
    ``columns`` holds, per basis vector, the R_p[f] of its free column f
    (ints, or pairs over Q(sqrt d) with ``d`` the radicand)."""

    free_cols: dict
    pivot_values: dict
    columns: tuple
    d: int | None


def integral_kernel(rows, ncols: int, d) -> Kernel:
    """The :class:`Kernel` over ``ncols`` columns of integral sparse rows
    (ints, or pairs over Q(sqrt d)), taken as they are: no entry may be
    zero, and the rows are consumed.  Each basis vector has 1 at its
    free column and 0 at the other free columns, free columns
    ascending."""
    stored = _fraction_free(rows, d)
    free = [f for f in range(ncols) if f not in stored]
    free_cols = {f: i for i, f in enumerate(free)}
    columns = tuple({} for _ in free)
    pivot_values = {}
    for p in sorted(stored):
        r = stored[p]
        n = r.pop(p)
        if d is not None:
            n = n[0]
        if n != 1:
            pivot_values[p] = n
        for c, v in r.items():
            columns[free_cols[c]][p] = v
    return Kernel(free_cols, pivot_values, columns, d)


def integral_rank(rows, d) -> int:
    """The rank of integral sparse rows (ints, or pairs over Q(sqrt d))
    with no zero entries; the rows are left as they are."""
    return len(_fraction_free([dict(r) for r in rows], d))


def _members(kernel: Kernel, vec: dict) -> dict | None:
    """For an integral vector X in the kernel's representation, the
    free columns it touches by basis index, or None when X is not in the
    span: the test of d_p X_p + sum_f R_p[f] X_f = 0 at every pivot p."""
    free_cols, pivot_values, columns, d = kernel
    found = {}
    residual: dict = {}
    if d is None:
        for c, n in vec.items():
            i = free_cols.get(c)
            if i is None:
                m = pivot_values.get(c)
                residual[c] = residual.get(c, 0) + (n if m is None else m * n)
                continue
            found[i] = c
            for p, b in columns[i].items():
                residual[p] = residual.get(p, 0) + b * n
        return None if any(residual.values()) else found
    for c, (nx, ny) in vec.items():
        i = free_cols.get(c)
        if i is None:
            m = pivot_values.get(c, 1)
            x, y = residual.get(c, _PAIR_ZERO)
            residual[c] = (x + m * nx, y + m * ny)
            continue
        found[i] = c
        dny = d * ny
        for p, (bx, by) in columns[i].items():
            x, y = residual.get(p, _PAIR_ZERO)
            residual[p] = (x + bx * nx + by * dny, y + bx * ny + by * nx)
    return None if any(x or y for x, y in residual.values()) else found


def integral_coords(kernel: Kernel, vec: dict) -> dict | None:
    """The coordinates in the basis of a kernel of an integral vector in
    its ring, which are the vector's entries at the free columns, or None
    when the vector is not in the span (see the module docstring)."""
    found = _members(kernel, vec)
    return None if found is None else {i: vec[c] for i, c in found.items()}


def products_rref(source: Kernel, target: Kernel, table: dict, forms, select=None) -> dict | None:
    """The stored rows of the elimination (see the module docstring) of
    the coordinates, in the ``target`` basis, of the product of every
    ``source`` basis vector b (or of those whose index is in ``select``)
    with every form phi, where ``table`` gives the bilinear product:
    (b phi)[t] = sum of b[c] phi[k] over (t, k) in table[c].  The forms
    are dense integral vectors in the ring of both kernels.  None when
    some product is not in the span of ``target``.

    The stored rows depend only on the span of the products, so each
    product is taken on the primitive integral vector of b, and each
    form may carry any nonzero constant.  Every product is tested for
    membership exactly, as :func:`integral_coords` tests a vector."""
    d = target.d
    chosen = [f for f, i in source.free_cols.items() if select is None or i in select]
    basis = [integral_vector(source, f) for f in chosen]
    normalize = ring(d).normalize
    rows = []
    for phi in forms:
        for b in basis:
            product = _product(table, b, phi, d)
            found = _members(target, product)
            if found is None:
                return None
            if found:
                row = {i: product[c] for i, c in found.items()}
                normalize(row, None)
                rows.append(row)
    return _fraction_free(rows, d)


def integral_vector(kernel: Kernel, f: int) -> dict:
    """The basis vector of a kernel at free column f as a primitive
    integral vector in the kernel's ring: L e_f - sum_p (L / d_p) R_p[f]
    e_p for L the lcm of the d_p it meets, divided by its content."""
    pivot_values = kernel.pivot_values
    column = kernel.columns[kernel.free_cols[f]]
    big = lcm(*[pivot_values.get(p, 1) for p in column])
    scale = {p: -(big // pivot_values.get(p, 1)) for p in column}
    if kernel.d is None:
        vec = {f: big}
        vec.update((p, scale[p] * x) for p, x in column.items())
        _normalize(vec, None)
        return vec
    vec = {f: (big, 0)}
    vec.update((p, (scale[p] * x, scale[p] * y)) for p, (x, y) in column.items())
    _normalize_pairs(vec, None, kernel.d)
    return vec


def _product(table: dict, b: dict, phi: list, d) -> dict:
    """The bilinear product of :func:`products_rref` on integral vectors,
    without zero entries."""
    out: dict = {}
    if d is None:
        for c, v in b.items():
            for t, k in table[c]:
                f = phi[k]
                if f:
                    out[t] = out.get(t, 0) + f * v
        return {t: x for t, x in out.items() if x}
    for c, (vx, vy) in b.items():
        dvy = d * vy
        for t, k in table[c]:
            fx, fy = phi[k]
            if fx or fy:
                x, y = out.get(t, _PAIR_ZERO)
                out[t] = (x + fx * vx + fy * dvy, y + fx * vy + fy * vx)
    return {t: xy for t, xy in out.items() if xy[0] or xy[1]}


def sparse_mat_vec(rows, vec: dict, d) -> dict:
    """Integral sparse rows applied to an integral sparse vector (ints, or
    pairs over Q(sqrt d)), as a sparse vector."""
    step = ring(d)
    plus, times, zero = step.add, step.mul, step.zero
    out = {}
    for r, row in enumerate(rows):
        total = zero
        for c, v in row.items():
            x = vec.get(c)
            if x is not None:
                total = plus(total, times(v, x))
        if total != zero:
            out[r] = total
    return out


# Wrapped by name in perfbench/tracing.py and called by perfbench/inputs.py.
def rank(m: Matrix) -> int:
    """The number of pivots of the elimination of the rows."""
    d = radicand(m)
    return len(stored_rows(integral_rows(m, d)[0], d))
