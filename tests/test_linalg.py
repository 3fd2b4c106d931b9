from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from polyfan import linalg
from polyfan.analysis import Analysis
from polyfan.polytopes import cube
from polyfan.scalars import Quadratic


def F(x):
    return Fraction(x)


def fmat(rows):
    return linalg.mat([[F(x) for x in row] for row in rows])


class TestRank:
    def test_identity(self):
        assert linalg.rank(linalg.identity(3)) == 3

    def test_zero(self):
        assert linalg.rank(fmat([[0, 0, 0, 0], [0, 0, 0, 0]])) == 0

    def test_dependent_rows(self):
        # Third row is the sum of the first two.
        assert linalg.rank(fmat([[1, 0, 1], [0, 1, 1], [1, 1, 2]])) == 2

    def test_quadratic_entries(self):
        r2 = Quadratic(0, 1, 2)
        m = linalg.mat([[r2, F(1)], [F(2), r2]])  # det = 2 - 2 = 0
        assert linalg.rank(m) == 1


class TestKernel:
    def test_identity_kernel_empty(self):
        assert linalg.kernel_basis(linalg.identity(4)) == ()

    def test_zero_row_kernel_full(self):
        basis = linalg.kernel_basis(fmat([[0, 0, 0]]))
        assert len(basis) == 3

    def test_single_row(self):
        basis = linalg.kernel_basis(fmat([[1, 1, -2]]))
        assert len(basis) == 2
        for v in basis:
            assert v[0] + v[1] - 2 * v[2] == 0

    def test_deterministic_free_column_structure(self):
        basis = linalg.kernel_basis(fmat([[1, 2, 3]]))
        # Free columns are 1 and 2, each basis vector has a unit there.
        assert basis[0][1] == 1 and basis[0][2] == 0
        assert basis[1][1] == 0 and basis[1][2] == 1


class TestQuotientProjection:
    def test_unit_line_drops_coordinate(self):
        proj = linalg.quotient_projection((F(1), F(0)), 2)
        assert linalg.mat_vec(proj, (F(1), F(0))) == (F(0),)
        assert linalg.mat_vec(proj, (F(0), F(1))) == (F(1),)

    def test_diagonal_line(self):
        proj = linalg.quotient_projection((F(1), F(1)), 2)
        assert linalg.mat_vec(proj, (F(1), F(1))) == (F(0),)
        assert linalg.rank(proj) == 1

    def test_three_dim(self):
        proj = linalg.quotient_projection((F(1), F(0), F(0)), 3)
        assert len(proj) == 2
        assert linalg.mat_vec(proj, (F(5), F(2), F(3))) == (F(2), F(3))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            linalg.quotient_projection((F(0), F(0)), 2)


small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    return linalg.mat(
        [[F(draw(small_ints)) for _ in range(cols)] for _ in range(rows)]
    )


class TestProperties:
    @settings(max_examples=60)
    @given(matrices())
    def test_rank_nullity(self, m):
        assert linalg.rank(m) + len(linalg.kernel_basis(m)) == len(m[0])

    @settings(max_examples=60)
    @given(matrices())
    def test_kernel_annihilated(self, m):
        for v in linalg.kernel_basis(m):
            assert all(x == 0 for x in linalg.mat_vec(m, v))


# Rational entries as the sparse elimination may meet them: small
# integers as Fractions and as plain ints, mixed in one row, and
# fractions a/b with b up to 12 and numerators far beyond the small ones.
rational_entries = st.one_of(
    small_ints.map(F),
    small_ints,
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 12)),
)


@st.composite
def sparse_systems(draw):
    """Dense matrices with mostly zero entries over Q or Q(sqrt 2), with
    zero rows and repeated rows mixed in, often more rows than columns."""
    cols = draw(st.integers(min_value=1, max_value=6))
    quadratic = draw(st.booleans())

    def entry():
        if quadratic:
            a, b = draw(small_ints), draw(small_ints)
            if draw(st.integers(min_value=0, max_value=2)):
                a = b = 0
            return Quadratic(a, b, 2)
        if draw(st.integers(min_value=0, max_value=2)):
            return F(0)
        return draw(rational_entries)

    rows = [tuple(entry() for _ in range(cols)) for _ in range(draw(st.integers(0, 9)))]
    extra = draw(st.lists(st.sampled_from(("zero", "repeat")), max_size=3))
    for kind in extra:
        if kind == "repeat" and rows:
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
        else:
            zero = Quadratic(0, 0, 2) if quadratic else F(0)
            rows.insert(draw(st.integers(0, len(rows))), (zero,) * cols)
    return cols, linalg.mat(rows)


def as_sparse(row):
    return {c: x for c, x in enumerate(row) if x != 0}


def as_dense(row, cols):
    return tuple(row.get(c, 0) for c in range(cols))


class TestSparseAgainstDense:
    @settings(max_examples=120, deadline=None)
    @given(sparse_systems())
    def test_sparse_rref_equals_rref(self, system):
        cols, m = system
        reduced, pivots = linalg.sparse_rref([as_sparse(r) for r in m])
        dense_reduced, dense_pivots = linalg.rref(m)
        assert pivots == dense_pivots
        assert tuple(as_dense(r, cols) for r in reduced) == dense_reduced
        assert all(x != 0 for r in reduced for x in r.values())

    @settings(max_examples=60, deadline=None)
    @given(sparse_systems())
    def test_sparse_kernel_equals_kernel_basis(self, system):
        cols, m = system
        kernel = linalg.sparse_kernel([as_sparse(r) for r in m], cols)
        pivots = set(linalg.rref(m)[1]) if m else set()
        assert tuple(kernel.free_cols) == tuple(c for c in range(cols) if c not in pivots)
        dense = tuple(as_dense(v, cols) for v in kernel.basis)
        assert dense == (linalg.kernel_basis(m) if m else linalg.identity(cols))

    def test_zero_and_repeated_rows_over_more_rows_than_columns(self):
        r2 = Quadratic(0, 1, 2)
        rows = [{0: r2, 1: F(1)}, {}, {0: r2, 1: F(1)}, {1: F(2)}, {0: F(0)}]
        reduced, pivots = linalg.sparse_rref(rows)
        assert pivots == (0, 1)
        assert reduced == ({0: F(1)}, {1: F(1)})


def lcm_rebuild(kernel):
    """Pivot values and integer columns of a rational kernel rebuilt from
    its Fraction basis: d_p is the lcm of the denominators at pivot p,
    and column f holds d_p times minus the basis entry there."""
    pivot_values = {}
    for f, i in kernel.free_cols.items():
        for p, b in kernel.basis[i].items():
            if p != f and b.denominator != 1:
                pivot_values[p] = lcm(pivot_values.get(p, 1), b.denominator)
    columns = tuple(
        {
            p: -b.numerator * (pivot_values.get(p, 1) // b.denominator)
            for p, b in kernel.basis[i].items()
            if p != f
        }
        for f, i in kernel.free_cols.items()
    )
    return pivot_values, columns


nonzero_rationals = rational_entries.filter(lambda x: x != 0)


class TestKernelRowsAndMembership:
    @settings(max_examples=80, deadline=None)
    @given(sparse_systems(), st.data())
    def test_kernel_rows_and_coordinates(self, system, data):
        cols, m = system
        kernel = linalg.sparse_kernel([as_sparse(r) for r in m], cols)
        free = tuple(kernel.free_cols)
        if all(isinstance(x, (int, Fraction)) for r in m for x in r):
            assert (kernel.pivot_values, kernel.columns) == lcm_rebuild(kernel)
        else:
            assert kernel.pivot_values == {}
            assert kernel.columns == tuple(
                {p: -b for p, b in v.items() if p != f} for v, f in zip(kernel.basis, free)
            )
            # A rational vector at one free column is in the span iff
            # that column of the reduced rows is zero.
            for f, i in kernel.free_cols.items():
                expected = None if kernel.columns[i] else {i: Fraction(3, 2)}
                assert linalg.kernel_coords(kernel, {f: Fraction(3, 2)}) == expected

        coefficients = {
            i: data.draw(nonzero_rationals)
            for i in range(len(free))
            if data.draw(st.booleans())
        }
        vec = {}
        for i, a in coefficients.items():
            for c, b in kernel.basis[i].items():
                vec[c] = vec.get(c, 0) + a * b
        vec = {c: x for c, x in vec.items() if x != 0}
        assert linalg.kernel_coords(kernel, vec) == coefficients

        pivots = [c for c in range(cols) if c not in kernel.free_cols]
        if pivots:
            p = data.draw(st.sampled_from(pivots))
            vec[p] = vec.get(p, 0) + data.draw(nonzero_rationals)
            assert linalg.kernel_coords(kernel, vec) is None

    def test_rational_vector_against_quadratic_kernel(self, monkeypatch):
        """The membership loop scales a rational vector to its primitive
        integer vector before testing it against Q(sqrt 2) rows."""
        r2 = Quadratic(0, 1, 2)
        scaled = []

        def spy(values):
            scaled.append(list(values))
            return primitive(values)

        primitive = linalg.primitive
        monkeypatch.setattr(linalg, "primitive", spy)
        # Rows with 1 at the pivot: x0 + x1 = 0 and x2 + sqrt 2 x3 = 0.
        kernel = linalg.sparse_kernel([{0: r2, 1: r2}, {2: F(1), 3: r2}], 4)
        assert kernel.free_cols == {1: 0, 3: 1}
        assert kernel.pivot_values == {}
        a, b = Fraction(3, 4), Fraction(3, 5)
        assert linalg.kernel_coords(kernel, {0: -a, 1: a}) == {0: a}
        assert scaled == [[-a, a]]
        assert linalg.kernel_coords(kernel, {0: -a, 1: b}) is None
        assert linalg.kernel_coords(kernel, {2: F(1), 3: F(1)}) is None
        assert linalg.kernel_coords(kernel, {2: -r2, 3: F(1)}) == {1: F(1)}


def test_rational_rows_never_take_the_field_loop(monkeypatch):
    """Every elimination of a rational sheaf runs on integer rows: the
    field loop, patched to refuse rows of ints and Fractions, is reached
    only by systems holding another scalar type."""
    field_rref = linalg._field_rref

    def guarded(rows):
        rows = list(rows)
        assert not all(isinstance(v, (int, Fraction)) for r in rows for v in r.values())
        return field_rref(rows)

    monkeypatch.setattr(linalg, "_field_rref", guarded)
    assert Analysis(cube(3), 8).u == (1, 0, 5, 0, 5, 0, 1)
