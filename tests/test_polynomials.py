from hypothesis import given, strategies as st

from polyfan.polynomials import (
    RefinedSeries,
    binomial_poly,
    is_palindromic,
    is_unimodal,
    padd,
    pmul,
    psub,
    substitute_t_squared,
    trim,
    truncate_at,
    truncate_below,
    x_minus_one_power,
)


class TestTruncation:
    def test_below_two(self):
        assert truncate_below((1, 3, 3, 1), 2) == (1, 3)

    def test_below_zero_is_zero(self):
        assert truncate_below((5, 7), 0) == ()

    def test_noop_beyond_degree(self):
        assert truncate_below((1, 1), 5) == (1, 1)


class TestBasics:
    def test_binomial(self):
        assert binomial_poly(3) == (1, 3, 3, 1)

    def test_x_minus_one(self):
        assert x_minus_one_power(2) == (1, -2, 1)
        assert x_minus_one_power(0) == (1,)

    def test_mul(self):
        assert pmul((1, 1), (1, 1)) == (1, 2, 1)
        assert pmul((), (1, 2)) == ()

    def test_trim(self):
        assert trim([1, 0, 0]) == (1,)
        assert trim([0, 0]) == ()

    def test_substitute_t_squared(self):
        assert substitute_t_squared((1, 5, 5, 1)) == (1, 0, 5, 0, 5, 0, 1)


class TestShapes:
    def test_palindromic(self):
        assert is_palindromic((1, 5, 5, 1), 3)
        assert not is_palindromic((1, 0, 2), 2)

    def test_unimodal(self):
        assert is_unimodal((1, 5, 5, 1))
        assert not is_unimodal((1, 0, 2))
        assert is_unimodal(())

    @given(st.integers(min_value=1, max_value=8))
    def test_binomials_palindromic_unimodal(self, n):
        p = binomial_poly(n)
        assert is_palindromic(p, n)
        assert is_unimodal(p)


class TestRefinedSeries:
    def test_chi_squares_to_one(self):
        chi = RefinedSeries((), (1,))
        assert chi * chi == RefinedSeries((1,), ())

    def test_mul_mixes_parts(self):
        a = RefinedSeries((1,), (1,))  # 1 + chi
        b = RefinedSeries((0, 1), (0, 2))  # t + 2t*chi
        assert a * b == RefinedSeries((0, 3), (0, 3))

    def test_power_matches_repeated_mul(self):
        base = RefinedSeries((1,), (0, 0, -1))  # 1 - chi t^2
        assert base.power(2) == base * base

    def test_truncate(self):
        s = RefinedSeries((1, 0, 2, 0, 3), (0, 1))
        assert s.truncate_at(2) == RefinedSeries((1, 0, 2), (0, 1))


coeffs = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)


class TestRingProperties:
    @given(coeffs, coeffs, coeffs)
    def test_poly_distributivity(self, a, b, c):
        pa, pb, pc = trim(a), trim(b), trim(c)
        assert pmul(pa, padd(pb, pc)) == padd(pmul(pa, pb), pmul(pa, pc))

    @given(coeffs, coeffs)
    def test_poly_sub_add(self, a, b):
        pa, pb = trim(a), trim(b)
        assert padd(psub(pa, pb), pb) == pa

    @given(coeffs, coeffs, coeffs, coeffs)
    def test_refined_associativity(self, a, b, c, d):
        x = RefinedSeries(trim(a), trim(b))
        y = RefinedSeries(trim(c), trim(d))
        z = RefinedSeries((1, 2), (3,))
        assert (x * y) * z == x * (y * z)

    @given(coeffs, st.integers(min_value=0, max_value=9))
    def test_truncate_at_drops_high_degrees(self, a, cap):
        p = truncate_at(trim(a), cap)
        assert len(p) <= cap + 1
