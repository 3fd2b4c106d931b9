"""Exact linear algebra over the package's scalar types.

A sparse row (or vector) is a dict from column index to scalar holding
the nonzero entries only; the sheaf path (:mod:`polyfan.ihsheaf`) keeps
every matrix in that form and uses :func:`sparse_rref`,
:func:`sparse_kernel`, :func:`sparse_mat_vec` and :func:`vec_dot`.
Dense vectors are tuples of scalars and dense matrices tuples of row
tuples; the geometry path (facets, cone bases, quotient fans) uses them,
and tests use :func:`rank` and :func:`kernel_basis` as the dense oracle.
All eliminations pivot on the first nonzero column, so results are
deterministic functions of the input, and the sparse and the dense
reduced row echelon forms of a matrix are equal.

:func:`sparse_rref` has two loops, and the input's scalar types decide
which one runs.  Rows whose entries are all ``int`` or ``Fraction`` are
scaled to integer rows and eliminated fraction-free (Bareiss 1968): a
row is reduced by a stored row as ``(a/g) r - (f/g) s`` with
``g = gcd(a, f)``, ``a`` the stored pivot and ``f`` the entry of ``r``
there, and every stored row is divided by its content and kept with a
positive pivot.  These steps multiply rows by nonzero integers and
subtract multiples of other rows, so each stored row spans the same line
as the rational row the field loop would hold; only the returned rows
are divided by their pivots, which gives the same reduced row echelon
form exactly, with no modulus and nothing to reconstruct.  Any other
scalar (:class:`~polyfan.scalars.Quadratic` over Q(sqrt d)) takes the
field loop, which divides by the pivot at each step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

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
    rows = list(rows)
    if all(_RATIONAL_TYPES.issuperset(map(type, row.values())) for row in rows):
        return _integer_rref(rows)
    return _field_rref(rows)


def _field_rref(rows) -> tuple[tuple[dict, ...], tuple[int, ...]]:
    """:func:`sparse_rref` over any field of scalars, dividing by each
    pivot as it is found."""
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
    pivots = tuple(sorted(reduced))
    return tuple(reduced[p] for p in pivots), pivots


def _integer_rref(rows) -> tuple[tuple[dict, ...], tuple[int, ...]]:
    """:func:`sparse_rref` of rows of ints and Fractions, run on
    primitive integer rows; only the returned rows are divided by their
    pivots."""
    reduced: dict = {}  # pivot column -> primitive row, > 0 there, 0 at other pivots
    for row in rows:
        r = _primitive_row(row)
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
    pivots = tuple(sorted(reduced))
    out = []
    for p in pivots:
        r = reduced[p]
        a = r[p]
        if a == 1:
            out.append({c: Fraction(v) for c, v in r.items()})
        else:
            out.append({c: Fraction(v, a) for c, v in r.items()})
    return tuple(out), pivots


def _primitive_row(row: dict) -> dict:
    """The nonzero entries of a row of ints and Fractions times the lcm of
    their denominators, divided by the gcd of the results."""
    entries = [(c, v) for c, v in row.items() if v]
    if not entries:
        return {}
    den = lcm(*[v.denominator for _, v in entries])
    r = {c: v.numerator * (den // v.denominator) for c, v in entries}
    _divide_content(r, False)
    return r


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


def sparse_kernel(rows, ncols: int) -> tuple[tuple[dict, ...], tuple[int, ...]]:
    """The :func:`kernel_basis` of sparse rows over ``ncols`` columns, as
    sparse vectors, and the free columns: the vector of free column f has
    a 1 at f, 0 at the other free columns, and minus column f of the
    reduced rows at the pivots."""
    reduced, pivots = sparse_rref(rows)
    pivot_set = set(pivots)
    free = tuple(f for f in range(ncols) if f not in pivot_set)
    basis = {f: {f: _ONE} for f in free}
    for row, p in zip(reduced, pivots):
        for c, v in row.items():
            if c != p:
                basis[c][p] = -v
    return tuple(basis[f] for f in free), free


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
