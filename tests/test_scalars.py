import math
import operator
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from polyfan import scalars
from polyfan.scalars import (
    Field,
    FieldMismatchError,
    Quadratic,
    ScalarParseError,
    is_square_free,
    quadratic_sign,
    sign,
    to_fraction,
)

import oracles


# The interpreter's limit on the digits of an integer read from a string.
MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 4300)()


def q2(a, b):
    return Quadratic(a, b, 2)


class TestArithmetic:
    def test_rational_add(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_sqrt2_squares_to_two(self):
        assert q2(0, 1) * q2(0, 1) == 2

    def test_division_by_conjugate(self):
        # (1 + sqrt2)/(1 - sqrt2) = -3 - 2*sqrt2, verified by re-multiplying.
        quotient = q2(1, 1) / q2(1, -1)
        assert quotient == q2(-3, -2)
        assert quotient * q2(1, -1) == q2(1, 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q2(1, 1) / q2(0, 0)

    def test_mixed_radicals_rejected(self):
        with pytest.raises(FieldMismatchError):
            Quadratic(0, 1, 2) + Quadratic(0, 1, 3)

    def test_mixing_with_fractions(self):
        assert Fraction(1, 2) + q2(0, 1) == q2(Fraction(1, 2), 1)
        assert 2 * q2(1, 1) == q2(2, 2)
        assert 1 / q2(1, 1) == q2(-1, 1)

    def test_power(self):
        assert q2(1, 1) ** 2 == q2(3, 2)
        assert q2(1, 1) ** -1 == q2(-1, 1)

    def test_non_square_free_rejected(self):
        with pytest.raises(ValueError):
            Quadratic(1, 1, 4)
        with pytest.raises(ValueError):
            Quadratic(1, 1, 12)
        assert is_square_free(6)
        assert not is_square_free(9)

    def test_results_skip_the_constructor_checks(self, monkeypatch):
        """Sums, products, quotients and powers are built from their
        Fraction parts without checking the radicand again; the public
        constructor still checks it, and two radicands still do not mix."""
        x, y = q2(1, 2), q2(Fraction(1, 3), -1)
        checked = []
        monkeypatch.setattr(scalars, "is_square_free", lambda d: checked.append(d) or True)
        results = [x + y, x - y, 3 - x, x * y, x * 3, x / y, 1 / x, -x, x**3, x**-2]
        assert checked == []
        assert all(type(r.a) is type(r.b) is Fraction and r.d == 2 for r in results)
        assert results[3] == q2(Fraction(-11, 3), Fraction(-1, 3))
        assert results[8] == q2(25, 22)
        monkeypatch.undo()
        with pytest.raises(ValueError):
            Quadratic(1, 1, 4)
        ops = (operator.add, operator.sub, operator.mul, operator.truediv, operator.lt)
        for op in ops:
            with pytest.raises(FieldMismatchError):
                op(Quadratic(0, 1, 2), Quadratic(0, 1, 3))
            with pytest.raises(FieldMismatchError):
                op(Quadratic(1, 1, 3), Quadratic(0, 1, 2))

    def test_large_radicand_is_factored_once(self):
        """A radicand near the 10^12 cap takes about 0.2 s to factor; sums
        and products must not factor it again."""
        x = Quadratic(1, 1, 999999999989)
        start = time.perf_counter()
        products = [x * Quadratic(k, 1, 999999999989) for k in range(20)]
        assert time.perf_counter() - start < 1
        assert products[2] == Quadratic(999999999991, 3, 999999999989)


class TestSign:
    def test_zero(self):
        assert sign(Fraction(0)) == 0
        assert sign(q2(0, 0)) == 0

    def test_one_minus_sqrt2_is_negative(self):
        assert sign(q2(1, -1)) == -1

    def test_three_minus_two_sqrt2_is_positive(self):
        # 3^2 = 9 > 8 = (2*sqrt2)^2.
        assert sign(q2(3, -2)) == 1

    def test_comparisons(self):
        assert q2(1, 1) > 0
        assert q2(1, -1) < 0
        assert q2(0, 1) > Fraction(7, 5)
        assert q2(0, 1) < Fraction(3, 2)


def isqrt_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b sqrt(d) for integers, bracketing b sqrt(d) between
    consecutive integers with isqrt (sqrt(d b^2) is irrational when b is
    nonzero, so it lies strictly inside the bracket)."""
    if b == 0:
        return (a > 0) - (a < 0)
    s = math.isqrt(d * b * b)  # s < |b| sqrt(d) < s + 1
    if b > 0:
        return 1 if a + s >= 0 else -1
    return 1 if a - s - 1 >= 0 else -1


class TestQuadraticSign:
    """The one sign decision, :func:`quadratic_sign`, on int parts and on
    Fraction parts (through ``Quadratic.sign``), against an isqrt
    bracket; the examples are opposite-sign near-ties, a^2 and d b^2
    one apart."""

    @given(
        st.integers(-10**6, 10**6),
        st.integers(-10**6, 10**6),
        st.integers(1, 50),
        st.sampled_from((2, 3, 5, 6, 7)),
    )
    @example(7, -5, 1, 2)
    @example(-7, 5, 1, 2)
    @example(99, -70, 1, 2)
    @example(-99, 70, 1, 2)
    @example(26, -15, 1, 3)
    @example(-26, 15, 1, 3)
    @example(7, -5, 3, 2)
    @example(0, 0, 1, 2)
    def test_int_and_fraction_parts_agree_with_isqrt(self, a, b, den, d):
        expected = isqrt_sign(a, b, d)
        assert quadratic_sign(a, b, d) == expected
        assert Quadratic(Fraction(a, den), Fraction(b, den), d).sign() == expected
        assert quadratic_sign(Fraction(a, den), Fraction(b, den), d) == expected

    def test_near_ties(self):
        assert quadratic_sign(7, -5, 2) == -1  # 49 < 50
        assert quadratic_sign(99, -70, 2) == 1  # 9801 > 9800
        assert quadratic_sign(26, -15, 3) == 1  # 676 > 675
        assert quadratic_sign(-26, 15, 3) == -1


small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@st.composite
def quadratics(draw):
    return Quadratic(draw(small_fractions), draw(small_fractions), 2)


class TestFieldAxioms:
    @given(quadratics(), quadratics(), quadratics())
    def test_associativity_and_distributivity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(quadratics(), quadratics())
    def test_commutativity(self, x, y):
        assert x + y == y + x
        assert x * y == y * x

    @given(quadratics())
    def test_inverses(self, x):
        assert x + (-x) == 0
        if x != 0:
            assert x * (1 / x) == 1

    @given(quadratics(), quadratics())
    def test_order_compatible_with_addition(self, x, y):
        s = sign(x - y)
        assert s == sign((x + q2(1, 1)) - (y + q2(1, 1)))

    @given(quadratics(), quadratics())
    def test_order_compatible_with_positive_scaling(self, x, y):
        positive = q2(1, 1)  # 1 + sqrt2 > 0
        assert sign(x - y) == sign(x * positive - y * positive)

    @given(small_fractions, small_fractions)
    def test_rational_embedding_commutes(self, a, b):
        assert q2(a, 0) + q2(b, 0) == a + b
        assert q2(a, 0) * q2(b, 0) == a * b
        assert sign(q2(a, 0)) == sign(a)


class TestSerialization:
    """A scalar string is read into its integer parts, each (numerator,
    denominator) in lowest terms with a positive denominator."""

    def test_rational_roundtrip(self):
        f = Field.rational()
        assert f.parse("5/6") == ((5, 6),)
        assert f.parse("-3") == ((-3, 1),)
        assert f.format(Fraction(-3, 7)) == "-3/7"

    def test_quadratic_roundtrip(self):
        f = Field.quadratic(2)
        (a, b), (c, e) = f.parse(["1/2", "-2/3"])
        assert ((a, b), (c, e)) == ((1, 2), (-2, 3))
        assert f.format(Quadratic(Fraction(a, b), Fraction(c, e), 2)) == ["1/2", "-2/3"]

    def test_quadratic_accepts_plain_rational_strings(self):
        f = Field.quadratic(2)
        assert f.parse("3/4") == ((3, 4), (0, 1))

    def test_parse_errors(self):
        with pytest.raises(ScalarParseError):
            Field.rational().parse("1/0")
        with pytest.raises(ScalarParseError):
            Field.rational().parse(["1", "2"])
        with pytest.raises(ScalarParseError):
            Field.quadratic(2).parse(["1"])
        with pytest.raises(ScalarParseError):
            Field.quadratic(2).parse("x+y")

    @pytest.mark.parametrize(
        "text", ["1e3", "1.5", " 1 ", "1_000", "+1", "1/-2", "", "/2", "\u0661", "1 /2"]
    )
    def test_strings_outside_the_grammar_rejected(self, text):
        with pytest.raises(ScalarParseError, match="p/q"):
            Field.rational().parse(text)
        with pytest.raises(ScalarParseError, match="p/q"):
            Field.quadratic(2).parse(["0", text])

    @pytest.mark.parametrize(
        "text,value", [("0", 0), ("-0", 0), ("007", 7), ("-12/8", Fraction(-3, 2)), ("2/4", Fraction(1, 2))]
    )
    def test_grammar_accepts_signed_integers_and_quotients(self, text, value):
        value = Fraction(value)
        assert Field.rational().parse(text) == ((value.numerator, value.denominator),)

    @given(
        st.one_of(
            st.integers().map(str),
            st.tuples(st.integers(), st.integers(0, 10**40)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
            st.from_regex(scalars._RATIONAL, fullmatch=True),
            st.text(max_size=12),
        )
    )
    @example("2/4")
    @example("-12/8")
    @example("1/0")
    @example("-0/0")
    @example("9" * (MAX_DIGITS + 1))
    @example("-1/" + "0" * (MAX_DIGITS + 1))
    @example("1" * MAX_DIGITS + "/" + "0" * MAX_DIGITS)
    @example("+1")
    @example("1e3")
    @example("\u0661")
    def test_parse_agrees_with_fraction_of_the_text(self, text):
        """Every string parses, in both fields, to the parts of the
        Fraction that the oracle reads from it (p, -p, p/q unreduced,
        p/0), or fails with the oracle's error text: outside the grammar,
        a zero denominator, an integer past the interpreter's digit
        limit."""
        try:
            expected = oracles.parse_rational(text)
        except ScalarParseError as exc:
            expected = str(exc)
        else:
            expected = (expected.numerator, expected.denominator)
        for field, item in ((Field.rational(), text), (Field.quadratic(2), ["0", text])):
            try:
                got = field.parse(item)[-1]
            except ScalarParseError as exc:
                got = str(exc)
            assert got == expected

    def test_to_fraction(self):
        assert to_fraction(q2(3, 0)) == 3
        with pytest.raises(ValueError):
            to_fraction(q2(0, 1))

    def test_hash_consistency_with_rationals(self):
        assert hash(q2(Fraction(1, 2), 0)) == hash(Fraction(1, 2))
        assert q2(Fraction(1, 2), 0) == Fraction(1, 2)
