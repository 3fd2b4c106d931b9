from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from polyfan import linalg
from polyfan.scalars import Quadratic

import oracles


def F(x):
    return Fraction(x)


def fmat(rows):
    return linalg.mat([[F(x) for x in row] for row in rows])


def identity(n):
    return fmat([[int(i == j) for j in range(n)] for i in range(n)])


class TestRank:
    def test_identity(self):
        assert oracles.rank(identity(3)) == 3

    def test_zero(self):
        assert oracles.rank(fmat([[0, 0, 0, 0], [0, 0, 0, 0]])) == 0

    def test_dependent_rows(self):
        # Third row is the sum of the first two.
        assert oracles.rank(fmat([[1, 0, 1], [0, 1, 1], [1, 1, 2]])) == 2

    def test_quadratic_entries(self):
        r2 = Quadratic(0, 1, 2)
        m = linalg.mat([[r2, F(1)], [F(2), r2]])  # det = 2 - 2 = 0
        assert oracles.rank(m) == 1


class TestKernel:
    def test_identity_kernel_empty(self):
        assert oracles.kernel_basis(identity(4)) == ()

    def test_zero_row_kernel_full(self):
        basis = oracles.kernel_basis(fmat([[0, 0, 0]]))
        assert len(basis) == 3

    def test_single_row(self):
        basis = oracles.kernel_basis(fmat([[1, 1, -2]]))
        assert len(basis) == 2
        for v in basis:
            assert v[0] + v[1] - 2 * v[2] == 0

    def test_deterministic_free_column_structure(self):
        basis = oracles.kernel_basis(fmat([[1, 2, 3]]))
        # Free columns are 1 and 2, each basis vector has a unit there.
        assert basis[0][1] == 1 and basis[0][2] == 0
        assert basis[1][1] == 0 and basis[1][2] == 1


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
        assert oracles.rank(m) + len(oracles.kernel_basis(m)) == len(m[0])

    @settings(max_examples=60)
    @given(matrices())
    def test_kernel_annihilated(self, m):
        for v in oracles.kernel_basis(m):
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
        dense_reduced, dense_pivots = oracles.rref(m)
        assert pivots == dense_pivots
        assert tuple(as_dense(r, cols) for r in reduced) == dense_reduced
        assert all(x != 0 for r in reduced for x in r.values())

    @settings(max_examples=60, deadline=None)
    @given(sparse_systems())
    def test_sparse_kernel_equals_kernel_basis(self, system):
        cols, m = system
        kernel = oracles.sparse_kernel([as_sparse(r) for r in m], cols)
        pivots = oracles.rref(m)[1]
        assert tuple(kernel.free_cols) == tuple(c for c in range(cols) if c not in pivots)
        dense = tuple(as_dense(v, cols) for v in oracles.basis_vectors(kernel))
        assert dense == oracles.kernel_basis(m, cols)

    def test_zero_and_repeated_rows_over_more_rows_than_columns(self):
        r2 = Quadratic(0, 1, 2)
        rows = [{0: r2, 1: F(1)}, {}, {0: r2, 1: F(1)}, {1: F(2)}, {0: F(0)}]
        reduced, pivots = linalg.sparse_rref(rows)
        assert pivots == (0, 1)
        assert reduced == ({0: F(1)}, {1: F(1)})


@st.composite
def shuffled_systems(draw):
    """A :func:`sparse_systems` matrix and its rows in a drawn order."""
    cols, m = draw(sparse_systems())
    order = draw(st.permutations(range(len(m))))
    return cols, m, [m[i] for i in order]


class TestRowOrder:
    @settings(max_examples=100, deadline=None)
    @given(shuffled_systems())
    def test_any_row_order_gives_the_dense_rref_and_least_pivots(self, system):
        """The elimination sorts its rows and skips the scan of stored rows
        for a pivot below all of theirs; in any input order of integer or
        pair rows it stores the rows of the dense oracle's RREF, and after
        every insertion each stored row's least column is its pivot."""
        cols, m, shuffled = system
        stored = []  # (pivot, row) of every row stored so far
        ring = linalg.ring

        def watched(d):
            step = ring(d)

            def normalize(r, p):
                step.normalize(r, p)
                if p is not None:
                    # A new pivot row: every earlier insertion is complete.
                    assert all(min(row) == q for q, row in stored)
                    stored.append((p, r))

            return step._replace(normalize=normalize)

        linalg.ring = watched
        try:
            reduced, pivots = linalg.sparse_rref([as_sparse(r) for r in shuffled])
        finally:
            linalg.ring = ring
        assert all(min(row) == q for q, row in stored)
        assert sorted(q for q, _ in stored) == list(pivots)
        assert (tuple(as_dense(r, cols) for r in reduced), pivots) == oracles.rref(m)


class TestDenseAdapters:
    """rref and rank are adapters of the sparse elimination; the dense
    oracle shares none of their code."""

    @settings(max_examples=80, deadline=None)
    @given(sparse_systems())
    def test_rref_and_rank_equal_the_oracle(self, system):
        _, m = system
        expected = oracles.rref(m)
        assert linalg.rref(m) == expected
        assert linalg.rank(m) == len(expected[1])


@settings(max_examples=60, deadline=None)
@given(sparse_systems())
def test_oracle_inverse_of_a_square_matrix(system):
    """The Gauss-Jordan oracle's inverse, which differential tests use in
    place of the package's elimination, is a right inverse, and a
    singular matrix raises."""
    cols, m = system
    m = linalg.mat((m + ((F(1),) * cols,) * cols)[:cols])
    if oracles.rank(m) < cols:
        with pytest.raises(ValueError, match="singular"):
            oracles.inverse(m)
        return
    product = oracles.mat_mul(m, oracles.inverse(m))
    assert product == [list(row) for row in identity(cols)]


def lcm_rebuild(kernel):
    """Pivot values and integer columns of a rational kernel rebuilt from
    its Fraction basis: d_p is the lcm of the denominators at pivot p,
    and column f holds d_p times minus the basis entry there."""
    basis = oracles.basis_vectors(kernel)
    pivot_values = {}
    for f, i in kernel.free_cols.items():
        for p, b in basis[i].items():
            if p != f and b.denominator != 1:
                pivot_values[p] = lcm(pivot_values.get(p, 1), b.denominator)
    columns = tuple(
        {
            p: -b.numerator * (pivot_values.get(p, 1) // b.denominator)
            for p, b in basis[i].items()
            if p != f
        }
        for f, i in kernel.free_cols.items()
    )
    return pivot_values, columns


def _parts(x):
    """The rational parts (a, b) of a + b sqrt d, for any scalar."""
    if isinstance(x, Quadratic):
        return x.a, x.b
    return Fraction(x), Fraction(0)


def pair_rebuild(kernel):
    """Pivot norms and pair columns of a Q(sqrt d) kernel rebuilt from its
    basis.  Stored row p has 1 at p and minus the basis entries at p of
    the free columns, times the smallest positive integer d_p that makes
    every rational part an integer (the row is primitive with a positive
    integer pivot, so d_p is the lcm of the parts' denominators); column
    f then holds the pair d_p times minus the basis entry."""
    basis = oracles.basis_vectors(kernel)
    pivot_values = {}
    for f, i in kernel.free_cols.items():
        for p, b in basis[i].items():
            for part in _parts(b):
                if p != f and part.denominator != 1:
                    pivot_values[p] = lcm(pivot_values.get(p, 1), part.denominator)
    columns = tuple(
        {
            p: tuple(-x.numerator * (pivot_values.get(p, 1) // x.denominator) for x in _parts(b))
            for p, b in basis[i].items()
            if p != f
        }
        for f, i in kernel.free_cols.items()
    )
    return pivot_values, columns


nonzero_rationals = rational_entries.filter(lambda x: x != 0)
nonzero_quadratics = st.builds(Quadratic, small_ints, small_ints, st.just(2)).filter(
    lambda x: x != 0
)


class TestKernelRowsAndMembership:
    @settings(max_examples=80, deadline=None)
    @given(sparse_systems(), st.data())
    def test_kernel_rows_and_coordinates(self, system, data):
        cols, m = system
        kernel = oracles.sparse_kernel([as_sparse(r) for r in m], cols)
        free = tuple(kernel.free_cols)
        if all(isinstance(x, (int, Fraction)) for r in m for x in r):
            coefficient = nonzero_rationals
            assert kernel.d is None
            assert (kernel.pivot_values, kernel.columns) == lcm_rebuild(kernel)
        else:
            # Coefficients in the kernel's own field: the sheaf's kernels
            # and vectors always share one ring.
            coefficient = nonzero_rationals
            if kernel.d is not None:
                coefficient = st.one_of(nonzero_rationals, nonzero_quadratics)
            assert kernel.d in (2, None)
            rebuilt = pair_rebuild(kernel)
            if kernel.d is None:
                # Every entry had irrational part 0: plain integer rows.
                rebuilt = (rebuilt[0], tuple({p: x for p, (x, _) in c.items()} for c in rebuilt[1]))
            assert (kernel.pivot_values, kernel.columns) == rebuilt
            # A rational vector at one free column is in the span iff
            # that column of the reduced rows is zero.
            for f, i in kernel.free_cols.items():
                expected = None if kernel.columns[i] else {i: Fraction(3, 2)}
                assert oracles.basis_coords(kernel, {f: Fraction(3, 2)}) == expected

        coefficients = {
            i: data.draw(coefficient)
            for i in range(len(free))
            if data.draw(st.booleans())
        }
        vec = {}
        basis = oracles.basis_vectors(kernel)
        for i, a in coefficients.items():
            for c, b in basis[i].items():
                vec[c] = vec.get(c, 0) + a * b
        vec = {c: x for c, x in vec.items() if x != 0}
        assert oracles.basis_coords(kernel, vec) == coefficients

        pivots = [c for c in range(cols) if c not in kernel.free_cols]
        if pivots:
            p = data.draw(st.sampled_from(pivots))
            vec[p] = vec.get(p, 0) + data.draw(coefficient)
            assert oracles.basis_coords(kernel, vec) is None

    def test_rational_vector_against_quadratic_kernel(self):
        """Q(sqrt 2) rows are stored as primitive pair rows with an
        integer pivot norm, and a rational vector is tested as the pair
        vector (x, 0) in the kernel's ring."""
        r2 = Quadratic(0, 1, 2)
        # (2 + sqrt 2) x0 + x1 = 0 times the conjugate 2 - sqrt 2 of its
        # pivot is 2 x0 + (2 - sqrt 2) x1 = 0: pivot norm 2.
        kernel = oracles.sparse_kernel([{0: 2 + r2, 1: F(1)}, {2: F(1), 3: r2}], 4)
        assert kernel.free_cols == {1: 0, 3: 1}
        assert kernel.d == 2
        assert (kernel.pivot_values, kernel.columns) == ({0: 2}, ({0: (2, -1)}, {2: (0, 1)}))
        assert (kernel.pivot_values, kernel.columns) == pair_rebuild(kernel)
        # x0 = (sqrt 2 / 2 - 1) x1 and x2 = -sqrt 2 x3.
        assert linalg.integral_coords(kernel, {0: (-3, 0), 1: (3, 0)}) is None
        assert linalg.integral_coords(kernel, {0: (-2, 1), 1: (2, 0)}) == {0: (2, 0)}
        assert linalg.integral_coords(kernel, {2: (1, 0), 3: (1, 0)}) is None
        assert linalg.integral_coords(kernel, {2: (0, -1), 3: (1, 0)}) == {1: (1, 0)}
        a = Fraction(3, 4)
        assert oracles.basis_coords(kernel, {0: -a, 1: a}) is None
        assert oracles.basis_coords(kernel, {0: a * (r2 / 2 - 1), 1: a}) == {0: a}
        assert oracles.basis_coords(kernel, {2: F(1), 3: F(1)}) is None
        assert oracles.basis_coords(kernel, {2: -r2, 3: F(1)}) == {1: F(1)}


def test_quadratic_rows_need_no_quadratic_arithmetic(monkeypatch):
    """Q(sqrt 2) rows are eliminated, stored and tested as integer
    pairs: with the arithmetic operators of Quadratic patched to raise,
    sparse_rref, integral_kernel and integral_coords still succeed and
    agree with the dense oracle, computed before the patch."""
    r2 = Quadratic(0, 1, 2)
    rows = [
        {0: 2 + r2, 1: F(1), 2: r2},
        {1: r2, 2: F(3), 3: 1 - r2},
        {0: F(1), 3: F(2), 4: 3 * r2},
    ]
    dense = linalg.mat([as_dense(r, 5) for r in rows])
    expected_rref = oracles.rref(dense)
    expected_basis = oracles.kernel_basis(dense)
    third = Fraction(1, 3)
    combination = [r2 * a + third * b for a, b in zip(*expected_basis)]
    member = {c: x for c, x in enumerate(combination) if x != 0}
    broken = dict(member)
    broken[0] = member[0] + 1
    # The vectors and the coordinates as pairs, cleared of denominators.
    scale = oracles.cleared(member.values(), 2)[1]
    member, broken = (dict(zip(v, oracles.cleared(v.values(), 2)[0])) for v in (member, broken))
    coords = dict(enumerate(oracles.cleared([scale * r2, scale * third], 2)[0]))

    def refuse(*args):
        raise AssertionError("Quadratic arithmetic in the sparse elimination")

    operators = ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv", "neg", "pow")
    for name in operators:
        monkeypatch.setattr(Quadratic, f"__{name}__", refuse)
    reduced, pivots = linalg.sparse_rref(rows)
    assert (tuple(as_dense(r, 5) for r in reduced), pivots) == expected_rref
    kernel = oracles.sparse_kernel(rows, 5)
    assert tuple(as_dense(v, 5) for v in oracles.basis_vectors(kernel)) == expected_basis
    assert linalg.integral_coords(kernel, member) == coords
    assert linalg.integral_coords(kernel, broken) is None


def as_rref(stored: dict, d) -> tuple:
    """Stored rows of the elimination (pivot -> integral row with a
    positive integer at the pivot and 0 at the other pivots) divided by
    their pivot values, in pivot order, as a sparse_rref result; checks
    the stored-row contract on the way."""
    pivots = tuple(sorted(stored))
    rows = []
    for p in pivots:
        row = stored[p]
        n = row[p][0] if d else row[p]
        assert n > 0 and (not d or row[p][1] == 0)
        assert not any(c in stored for c in row if c != p)
        assert min(row) == p
        rows.append({c: oracles.scalar(v, n, d) for c, v in row.items()})
    return tuple(rows), pivots


@pytest.mark.parametrize("radicand_rows", [True, False])
def test_products_rref_equals_rref_of_scalar_products(radicand_rows):
    """products_rref, on primitive integral vectors, keeps the stored rows
    whose reduced rows are those of the coordinates of the scalar
    products, for a Q(sqrt 2) or a rational source kernel and Q(sqrt 2)
    forms, every kernel and form in the pair rows of Q(sqrt 2); a product
    outside the target kernel gives None."""
    r2 = Quadratic(0, 1, 2)
    row = {0: F(3), 1: r2 if radicand_rows else F(2), 2: Fraction(-1, 2)}
    source = oracles.sparse_kernel([row], 3, 2)
    # Coordinate c of b goes to c times phi[0] and to c + 3 times phi[1].
    table = {c: ((c, 0), (c + 3, 1)) for c in range(3)}
    forms = [(F(1), r2), (1 + r2, Fraction(1, 2)), (F(2), F(0))]
    integral_forms = [oracles.cleared(phi, 2)[0] for phi in forms]
    target = oracles.sparse_kernel([{6: F(1)}], 7, 2)
    products = []
    for phi in forms:
        for b in oracles.basis_vectors(source):
            product = {}
            for c, v in b.items():
                for t, k in table[c]:
                    product[t] = product.get(t, 0) + v * phi[k]
            products.append(oracles.basis_coords(target, {t: x for t, x in product.items() if x}))
    stored = linalg.products_rref(source, target, table, integral_forms)
    assert as_rref(stored, 2) == linalg.sparse_rref(products)
    outside = oracles.sparse_kernel([{5: F(1)}], 7, 2)
    assert linalg.products_rref(source, outside, table, integral_forms) is None


@pytest.mark.parametrize("radicand", [None, 2])
@pytest.mark.parametrize("select", [None, {0, 2}, {1}, set()])
def test_products_rref_of_a_selection_equals_the_dense_rref(radicand, select):
    """products_rref over a selection of the source basis has the dense
    oracle's reduced rows of the selected products, over Q and over
    Q(sqrt 2).  The target kernel keeps every column but the last, so a
    product's coordinates there are its own entries."""
    x = F(3) if radicand is None else Quadratic(1, 1, radicand)
    source = oracles.sparse_kernel([{0: F(2), 1: x, 3: Fraction(-1, 3)}, {2: F(1), 4: x}], 5, radicand)
    # Coordinate c of b goes to c times phi[0], to c + 5 times phi[1] and
    # to 9 - c times phi[2].
    table = {c: ((c, 0), (c + 5, 1), (9 - c, 2)) for c in range(5)}
    forms = [(F(1), x, F(0)), (F(2), F(-1), x)]
    target = oracles.sparse_kernel([{10: F(1)}], 11, radicand)
    chosen = range(len(source.free_cols)) if select is None else sorted(select)
    vectors = oracles.basis_vectors(source)
    products = []
    for phi in forms:
        for i in chosen:
            product = [F(0)] * 10
            for c, v in vectors[i].items():
                for t, k in table[c]:
                    product[t] += v * phi[k]
            products.append(product)
    integral_forms = [oracles.cleared(phi, radicand)[0] for phi in forms]
    reduced, pivots = as_rref(linalg.products_rref(source, target, table, integral_forms, select), radicand)
    assert (tuple(as_dense(r, 10) for r in reduced), pivots) == oracles.rref(products)
