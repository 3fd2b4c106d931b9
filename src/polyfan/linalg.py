"""Exact linear algebra over the package's scalar types.

A sparse row (or vector) is a dict from column index to scalar holding
the nonzero entries only; the sheaf path (:mod:`polyfan.ihsheaf`) keeps
every matrix in that form and uses :func:`sparse_rref`,
:func:`sparse_kernel`, :func:`kernel_coords`, :func:`sparse_mat_vec`
and :func:`vec_dot`.  Dense vectors are tuples of scalars and dense
matrices tuples of row tuples; the geometry path (facets, cone bases,
quotient fans) uses them, and tests use :func:`rank` and
:func:`kernel_basis` as the dense oracle.  All eliminations pivot on the
first nonzero column, so results are deterministic functions of the
input, and the sparse and the dense reduced row echelon forms of a
matrix are equal.

The sparse elimination has two loops, and the input's scalar types
decide which one runs.  Rows whose entries are all ``int`` or
``Fraction`` are scaled to :func:`primitive` integer rows and
eliminated fraction-free (Bareiss 1968): a row is reduced by a stored
row as ``(a/g) r - (f/g) s`` with ``g = gcd(a, f)``, ``a`` the stored
pivot and ``f`` the entry of ``r`` there, and every stored row is
divided by its content and kept with a positive pivot.  These steps
multiply rows by nonzero integers and subtract multiples of other rows,
so each stored row spans the same line as the rational row the field
loop would hold.  Any other scalar (:class:`~polyfan.scalars.Quadratic`
over Q(sqrt d)) takes the field loop, which divides by the pivot at each
step and stores rows with 1 there.

Both consumers read the same stored rows R_p, with pivot value d_p (the
positive integer at p, or 1 for field rows).  :func:`sparse_rref`
divides each by d_p, which is the field loop's reduced row echelon form
exactly, with no modulus and nothing to reconstruct.
:func:`sparse_kernel` keeps them in a :class:`Kernel`: the basis vector
of free column f is e_f - sum_p (R_p[f] / d_p) e_p, and x is in the span
iff d_p x_p + sum_f R_p[f] x_f = 0 at every pivot p.  The equation is
homogeneous, so :func:`kernel_coords` scales a rational x to its
primitive integer vector and tests it on ints; with d_p = 1 the same
loop is the field test, and a rational side against a Q(sqrt d) side is
the same equation in Q(sqrt d).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .scalars import Scalar

Vector = tuple  # tuple[Scalar, ...]
Matrix = tuple  # tuple[Vector, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_RATIONAL_TYPES = frozenset((int, Fraction))


def mat(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    out = tuple(tuple(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows in matrix")
    return out


def zeros(n: int) -> Vector:
    return (_ZERO,) * n


def unit(n: int, i: int) -> Vector:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def identity(n: int) -> Matrix:
    return tuple(unit(n, i) for i in range(n))


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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return ()
    cols = list(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in cols) for row in a)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (first-nonzero pivoting)."""
    rows = [list(r) for r in m]
    pivots = _rref_inplace(rows)
    return tuple(tuple(r) for r in rows[: len(pivots)]), pivots


def _rref_inplace(rows: list[list]) -> tuple[int, ...]:
    """Reduce ``rows`` in place; returns pivot columns.  Nonpivot rows are
    zeroed and moved to the bottom."""
    if not rows:
        return ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != 1:
            inv = 1 / pv if not isinstance(pv, (int, Fraction)) else Fraction(1) / pv
            row = rows[r]
            for j in range(c, ncols):
                if row[j] != 0:
                    row[j] = row[j] * inv
        row = rows[r]
        nonzero = [(j, row[j]) for j in range(c, ncols) if row[j] != 0]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if f != 0:
                other = rows[i]
                for j, x in nonzero:
                    other[j] = other[j] - f * x
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(pivots)


def sparse_rref(rows) -> tuple[tuple[dict, ...], tuple[int, ...]]:
    """Reduced row echelon form of sparse rows: the nonzero reduced rows
    in pivot order and their pivot columns, equal to :func:`rref` of the
    dense matrix.  Rows are inserted one at a time; each is reduced by
    the pivot rows found so far, and its own pivot is then eliminated
    from them, so every stored row stays fully reduced.  Rational rows
    run this loop on integers (see the module docstring)."""
    stored, integral = _stored_rows(rows)
    pivots = tuple(sorted(stored))
    if not integral:
        return tuple(stored[p] for p in pivots), pivots
    out = []
    for p in pivots:
        r = stored[p]
        a = r[p]
        if a == 1:
            out.append({c: Fraction(v) for c, v in r.items()})
        else:
            out.append({c: Fraction(v, a) for c, v in r.items()})
    return tuple(out), pivots


def _stored_rows(rows) -> tuple[dict, bool]:
    """The rows the elimination keeps, by pivot column, and whether they
    are primitive integer rows (rational input) or rows with 1 at the
    pivot (any other scalar type)."""
    rows = list(rows)
    if all(_RATIONAL_TYPES.issuperset(map(type, row.values())) for row in rows):
        return _integer_rref(rows), True
    return _field_rref(rows), False


def _field_rref(rows) -> dict:
    """The stored rows of :func:`sparse_rref` over any field of scalars,
    dividing by each pivot as it is found."""
    reduced: dict = {}  # pivot column -> row with 1 there, 0 at other pivots
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        for p in [c for c in r if c in reduced]:
            f = r[p]
            for c, v in reduced[p].items():
                x = r.get(c, _ZERO) - f * v
                if x:
                    r[c] = x
                else:
                    del r[c]
        if not r:
            continue
        p = min(r)
        pv = r[p]
        if pv != 1:
            inv = _ONE / pv
            r = {c: v * inv for c, v in r.items()}
        for other in reduced.values():
            f = other.get(p)
            if f is not None:
                for c, v in r.items():
                    x = other.get(c, _ZERO) - f * v
                    if x:
                        other[c] = x
                    else:
                        del other[c]
        reduced[p] = r
    return reduced


def _integer_rref(rows) -> dict:
    """The stored rows of :func:`sparse_rref` for rows of ints and
    Fractions: primitive integer rows, fraction-free."""
    reduced: dict = {}  # pivot column -> primitive row, > 0 there, 0 at other pivots
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        r = dict(zip(r, primitive(r.values())))
        for p in [c for c in r if c in reduced]:
            _eliminate(r, reduced[p], p)
        if not r:
            continue
        p = min(r)
        _divide_content(r, r[p] < 0)
        for other in reduced.values():
            if p in other:
                _eliminate(other, r, p)
                _divide_content(other, False)
        reduced[p] = r
    return reduced


def primitive(values) -> list:
    """The primitive integer vector on the ray of a vector of ints and
    Fractions: the entries times the lcm of their denominators, divided
    by the gcd of the results.  The zero vector stays zero."""
    den = lcm(*[v.denominator for v in values])
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints)
    return [n // g for n in ints] if g > 1 else ints


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


def _divide_content(r: dict, negate: bool) -> None:
    """Divide a nonempty integer row by the gcd of its entries, in place,
    and by -1 as well when ``negate`` is set."""
    g = gcd(*r.values())
    if negate:
        g = -g
    if g != 1:
        for c in r:
            r[c] //= g


class Kernel(NamedTuple):
    """The null space of sparse rows with the stored rows R_p that cut it
    out (see the module docstring): ``basis`` holds one sparse vector per
    free column, ascending, ``free_cols`` maps each free column to the
    index of its vector, ``pivot_values`` holds the d_p other than 1, and
    ``columns`` holds, per basis vector, the R_p[f] of its free column f."""

    basis: tuple
    free_cols: dict
    pivot_values: dict
    columns: tuple


def sparse_kernel(rows, ncols: int) -> Kernel:
    """The :class:`Kernel` of sparse rows over ``ncols`` columns; its
    basis, densified, is the :func:`kernel_basis` of the rows."""
    stored, integral = _stored_rows(rows)
    free = [f for f in range(ncols) if f not in stored]
    free_cols = {f: i for i, f in enumerate(free)}
    basis = tuple({f: _ONE} for f in free)
    columns = tuple({} for _ in free)
    pivot_values = {}
    for p in sorted(stored):
        r = stored[p]
        d = r[p]
        if d != 1:
            pivot_values[p] = d
        for c, v in r.items():
            if c != p:
                i = free_cols[c]
                columns[i][p] = v
                basis[i][p] = Fraction(-v, d) if integral else -v
    return Kernel(basis, free_cols, pivot_values, columns)


def kernel_coords(kernel: Kernel, vec: dict) -> dict | None:
    """Sparse coordinates of a sparse vector x in a :class:`Kernel`
    basis (its entries at the free columns), or None when x is not in
    the span, tested on X = x, or on :func:`primitive` (x) when x is
    rational, as described in the module docstring."""
    _, free_cols, pivot_values, columns = kernel
    scaled = vec.values()
    if _RATIONAL_TYPES.issuperset(map(type, scaled)):
        scaled = primitive(scaled)
    coords = {}
    residual: dict = {}  # pivot column -> d_p X_p + sum_f R_p[f] X_f
    for (c, x), n in zip(vec.items(), scaled):
        i = free_cols.get(c)
        if i is None:
            d = pivot_values.get(c)
            residual[c] = residual.get(c, 0) + (n if d is None else d * n)
            continue
        coords[i] = x
        for p, b in columns[i].items():
            residual[p] = residual.get(p, 0) + b * n
    return None if any(residual.values()) else coords


def sparse_mat_vec(rows, vec: dict) -> dict:
    """Sparse rows applied to a sparse vector, as a sparse vector."""
    out = {}
    for r, row in enumerate(rows):
        total = sum((v * vec[c] for c, v in row.items() if c in vec), _ZERO)
        if total:
            out[r] = total
    return out


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> tuple[Vector, ...]:
    """Deterministic basis of the null space {x : m @ x = 0}.

    Each basis vector carries a 1 in one free column and 0 in the others,
    free columns taken in ascending order.
    """
    if not m:
        return ()
    ncols = len(m[0])
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse of a non-square matrix")
    augmented = tuple(row + unit(n, i) for i, row in enumerate(m))
    reduced, pivots = rref(augmented)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


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
