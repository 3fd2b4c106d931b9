"""Exact linear algebra over the package's scalar types.

A sparse row (or vector) is a dict from column index to its nonzero
entries only.  Dense vectors are tuples of scalars and dense matrices
tuples of row tuples; the geometry path (the inverse of a facet start
simplex, rank checks, quotient fans) uses them.  There is one
elimination, :func:`_fraction_free`: :func:`stored_rows`,
:func:`sparse_rref` and the dense :func:`rref`, :func:`rank` and
:func:`inverse` are adapters that pass it their rows of scalars, in the
field that :func:`radicand`, the package's one rule, decides.  It pivots
on the first nonzero column, and the reduced row echelon form of a
matrix is unique, so every result is a deterministic function of the
input.

The elimination is one fraction-free loop (Bareiss 1968) over integral
rows.  Over Q an entry is an ``int``; over Q(sqrt d) it is the pair
(x, y) of ints standing for x + y sqrt d.  A row of scalars is scaled to
its :func:`primitive` integer row, or over Q(sqrt d), where some entry
is a :class:`~polyfan.scalars.Quadratic`, to its primitive pair row,
whose content is the gcd of every x and y.  A row is reduced by a stored
row as ``(a/g) r - (f/g) s``, where ``a`` is the stored pivot, ``f`` the
entry of ``r`` there and ``g`` the gcd of ``a`` and the parts of ``f``.
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
reduced row at p, so it depends only on the span of the rows: a cone's
basis (:meth:`polyfan.fans.Fan.cone_basis`) is the stored rows of its
rays.  :func:`sparse_rref` divides each by d_p, which is the reduced row
echelon form exactly, with no modulus and nothing to reconstruct.
:func:`integral_kernel` keeps them in a :class:`Kernel`, each entry
once: the basis vector of free column f is e_f - sum_p (R_p[f] / d_p)
e_p, built from the stored column when it is read, and an integral x is
in the span iff d_p x_p + sum_f R_p[f] x_f = 0 at every pivot p, which
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
rank, does not depend on the scale of a row.  :func:`cleared` clears a
vector of scalars of its denominators, for the conewise linear
functions of :mod:`polyfan.fans`.
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


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: Scalar, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def vec_neg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vec_dot(u: Vector, v: Vector) -> Scalar:
    total = _ZERO
    for a, b in zip(u, v):
        total = total + a * b
    return total


def is_zero_vector(u: Vector) -> bool:
    return all(a == 0 for a in u)


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
    return _reduced(stored_rows(rows, d), d)


def stored_rows(rows, d) -> dict:
    """The stored rows of the elimination of sparse rows of scalars over
    Q(sqrt d) (over Q when d is None): pivot column -> primitive integral
    row with a positive integer there and 0 at the other pivots (see the
    module docstring)."""
    rows = ({c: v for c, v in row.items() if v} for row in rows)
    return _fraction_free((dict(zip(r, _integral(r.values(), d))) for r in rows), d)


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


def _integral(values, d) -> list:
    """The primitive integral vector on the ray of a vector of scalars:
    ints when d is None, else pairs (x, y) standing for x + y sqrt d,
    primitive over all the x and y together."""
    if d is None:
        return primitive(values)
    return _pairs(primitive(_parts(values, d)))


def cleared(values, d) -> tuple[list, int]:
    """(n values, n) for the least positive integer n that makes the
    scalars integral: ints when d is None (a Quadratic must then be
    rational), else pairs (x, y) standing for x + y sqrt d."""
    parts = _parts(values, d)
    n = lcm(*[x.denominator for x in parts])
    ints = [x.numerator * (n // x.denominator) for x in parts]
    return (ints[::2] if d is None else _pairs(ints)), n


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


def primitive(values) -> list:
    """The primitive integer vector on the ray of a vector of ints and
    Fractions: the entries times the lcm of their denominators, divided
    by the gcd of the results.  The zero vector stays zero."""
    den = lcm(*[v.denominator for v in values])
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints)
    return [n // g for n in ints] if g > 1 else ints


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
    to the index of its basis vector, ascending, ``pivot_values`` holds
    the d_p other than 1, ``columns`` holds, per basis vector, the R_p[f]
    of its free column f (ints, or pairs over Q(sqrt d) with ``d`` the
    radicand), and ``basis`` reads the basis vectors off ``columns``."""

    free_cols: dict
    pivot_values: dict
    columns: tuple
    d: int | None
    basis: "KernelBasis"


class KernelBasis:
    """The basis of a :class:`Kernel`, a sequence of sparse vectors:
    vector i is e_f - sum_p (R_p[f] / d_p) e_p for its free column f,
    built from the stored column each time it is read, so the kernel
    keeps every entry once."""

    __slots__ = ("_free", "_pivot_values", "_columns", "_d")

    def __init__(self, free: list, pivot_values: dict, columns: tuple, d):
        self._free = free
        self._pivot_values = pivot_values
        self._columns = columns
        self._d = d

    def __len__(self) -> int:
        return len(self._free)

    def __getitem__(self, i: int) -> dict:
        vec = {self._free[i]: _ONE}
        pivot_values, d = self._pivot_values, self._d
        for p, x in self._columns[i].items():
            vec[p] = _scalar(x, -pivot_values.get(p, 1), d)
        return vec


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
    return Kernel(free_cols, pivot_values, columns, d, KernelBasis(free, pivot_values, columns, d))


def integral_rank(rows, d) -> int:
    """The rank of integral sparse rows (ints, or pairs over Q(sqrt d))
    with no zero entries; the rows are left as they are."""
    return len(_fraction_free([dict(r) for r in rows], d))


def _members(kernel: Kernel, vec: dict) -> dict | None:
    """For an integral vector X in the kernel's representation, the
    free columns it touches by basis index, or None when X is not in the
    span: the test of d_p X_p + sum_f R_p[f] X_f = 0 at every pivot p."""
    free_cols, pivot_values, columns, d, _ = kernel
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
    return len(stored_rows((dict(enumerate(r)) for r in m), radicand(m)))


def inverse(m: Matrix) -> Matrix:
    """The inverse of a square matrix: the right half of the reduced row
    echelon form of [m | I]."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse of a non-square matrix")
    augmented = ({**dict(enumerate(row)), n + i: _ONE} for i, row in enumerate(m))
    reduced, pivots = sparse_rref(augmented)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(r.get(n + j, _ZERO) for j in range(n)) for r in reduced)


def quotient_projection(line: Vector, ambient_dim: int) -> Matrix:
    """Coordinate map R^k -> R^(k-1) whose kernel is the span of ``line``.

    The line is completed to a basis with standard unit vectors in index
    order; the returned (k-1) x k matrix reads off the unit-vector dual
    coordinates, so the result is a deterministic function of ``line``.
    """
    k = ambient_dim
    if len(line) != k:
        raise ValueError("line/ambient dimension mismatch")
    if is_zero_vector(line):
        raise ValueError("cannot project along the zero vector")
    basis = [tuple(line)]
    for i in range(k):
        candidate = basis + [unit(k, i)]
        if rank(mat(candidate)) == len(candidate):
            basis.append(unit(k, i))
        if len(basis) == k:
            break
    inv = inverse(mat(basis))
    # x = c0*line + sum_j c_j e_{i_j}; drop c0, keep the rest.
    return tuple(tuple(inv[i][j] for i in range(k)) for j in range(1, k))
