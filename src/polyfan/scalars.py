"""Exact ordered-field scalars: rationals and real quadratic extensions.

Rational values are plain :class:`fractions.Fraction` (or ``int``) objects.
Irrational values are :class:`Quadratic` elements ``a + b*sqrt(d)`` over a
square-free integer ``d >= 2``.  All comparisons are decided by integer
arithmetic; nothing in this package ever rounds to floating point.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union


class FieldMismatchError(ValueError):
    """Raised when quadratic scalars with different radicands are combined."""


class ScalarParseError(ValueError):
    """Raised when a serialized scalar cannot be parsed."""


_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = 1
_BRIEF.maxlist = _BRIEF.maxdict = 4
_BRIEF.maxstring = _BRIEF.maxlong = _BRIEF.maxother = 24


def brief(value) -> str:
    """repr of a value read from an input file, cut short (four items one
    level deep, 24 characters per string or number), so that an error
    line naming it stays short however large the value is."""
    return _BRIEF.repr(value)


# The largest radicand a Field accepts: is_square_free is trial division,
# about 0.2 s at this size, so a bigger one read from a file would stall.
MAX_RADICAND = 10**12


# Every Quadratic built by the public constructor (each parsed scalar
# included) checks its radicand, so each radicand is factored once per
# process.
@lru_cache(maxsize=None)
def is_square_free(d: int) -> bool:
    if d < 2:
        return False
    n, p = d, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1
    return True


class Quadratic:
    """Element ``a + b*sqrt(d)`` of the real quadratic field Q(sqrt(d)).

    ``a`` and ``b`` are stored as reduced fractions, ``d`` is a square-free
    integer >= 2 fixed per computation.  Instances are immutable and mix
    freely with ``int`` and ``Fraction`` operands.  The constructor checks
    the radicand and converts both parts; arithmetic results, whose parts
    are Fractions already and whose radicand ``_coerce`` has matched, are
    built by :func:`quadratic_from_parts` without either step.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        if not is_square_free(d):
            raise ValueError(f"radicand must be square-free and >= 2, got {d}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Quadratic is immutable")

    def _coerce(self, other) -> "Quadratic | None":
        if isinstance(other, Quadratic):
            if other.d != self.d:
                raise FieldMismatchError(
                    f"cannot mix sqrt({self.d}) with sqrt({other.d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            a = other if isinstance(other, Fraction) else Fraction(other)
            return quadratic_from_parts(a, _FRACTION_ZERO, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quadratic_from_parts(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quadratic_from_parts(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quadratic_from_parts(o.a - self.a, o.b - self.b, self.d)

    def __neg__(self):
        return quadratic_from_parts(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quadratic_from_parts(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - o.b * o.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return quadratic_from_parts(
            (self.a * o.a - self.b * o.b * self.d) / norm,
            (self.b * o.a - self.a * o.b) / norm,
            self.d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (1 / self) ** (-exponent)
        out = quadratic_from_parts(_FRACTION_ONE, _FRACTION_ZERO, self.d)
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(d)."""
        return quadratic_sign(self.a, self.b, self.d)

    def __eq__(self, other):
        if isinstance(other, Quadratic):
            if other.d != self.d and (self.b != 0 or other.b != 0):
                return False
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"Quadratic({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        op = "+" if self.b > 0 else "-"
        return f"{self.a}{op}{abs(self.b)}*sqrt({self.d})"


Scalar = Union[int, Fraction, Quadratic]

_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)
_new = object.__new__
_set_a = Quadratic.a.__set__
_set_b = Quadratic.b.__set__
_set_d = Quadratic.d.__set__


def quadratic_from_parts(a: Fraction, b: Fraction, d: int) -> Quadratic:
    """The Quadratic a + b*sqrt(d) for Fractions a and b and a radicand
    already checked, without the checks and conversions of the public
    constructor: for results of arithmetic on Quadratics of radicand d."""
    x = _new(Quadratic)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _frac_sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def quadratic_sign(a, b, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for int or Fraction parts: for parts
    of opposite sign, that of the larger of a^2 and d*b^2 (never equal)."""
    sa, sb = _frac_sign(a), _frac_sign(b)
    if sa == sb or not sb:
        return sa
    if not sa or a * a < d * b * b:
        return sb
    return sa


def sign(x: Scalar) -> int:
    """Exact sign (-1, 0, +1) of a scalar."""
    if isinstance(x, Quadratic):
        return x.sign()
    return _frac_sign(x)


def to_fraction(x: Scalar) -> Fraction:
    """Rational value of a scalar; raises if the scalar is irrational."""
    if isinstance(x, Quadratic):
        if x.b != 0:
            raise ValueError(f"{x} is irrational")
        return x.a
    return Fraction(x)


@dataclass(frozen=True)
class Field:
    """Coefficient-field context: the rationals, or Q(sqrt(d)) for fixed d.

    The context owns scalar (de)serialization.  Rationals serialize as
    ``"p/q"`` or ``"p"``; quadratic scalars as a pair ``["p/q", "r/s"]``
    meaning ``p/q + (r/s)*sqrt(d)``.
    """

    d: int | None = None

    def __post_init__(self):
        d = self.d
        if d is None:
            return
        if not isinstance(d, int) or isinstance(d, bool):
            raise ValueError(f"radicand must be an integer, got {brief(d)}")
        if abs(d) > MAX_RADICAND:
            raise ValueError(f"radicand {brief(d)} is outside the cap |d| <= 10^12")
        if not is_square_free(d):
            raise ValueError(f"radicand must be square-free and >= 2, got {brief(d)}")

    @staticmethod
    def rational() -> "Field":
        return Field(None)

    @staticmethod
    def quadratic(d: int) -> "Field":
        return Field(d)

    @property
    def is_rational(self) -> bool:
        return self.d is None

    def parse(self, item) -> Scalar:
        """Parse one serialized scalar belonging to this field."""
        if isinstance(item, str):
            return _parse_fraction(item)
        if isinstance(item, list):
            if self.is_rational:
                raise ScalarParseError(
                    f"pair {brief(item)} only valid in a quadratic field context"
                )
            if len(item) != 2 or not all(isinstance(s, str) for s in item):
                raise ScalarParseError(f"expected [\"p/q\", \"r/s\"], got {brief(item)}")
            return Quadratic(_parse_fraction(item[0]), _parse_fraction(item[1]), self.d)
        raise ScalarParseError(f"cannot parse scalar {brief(item)}")

    def format(self, x: Scalar):
        """Serialize a scalar of this field (inverse of :meth:`parse`)."""
        if self.is_rational:
            return str(to_fraction(x))
        if isinstance(x, Quadratic):
            if x.d != self.d:
                raise FieldMismatchError(f"scalar {x} not in Q(sqrt({self.d}))")
            return [str(x.a), str(x.b)]
        return [str(Fraction(x)), "0"]


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_fraction(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"``: an optional minus sign and ASCII digits,
    with no spaces, exponents, decimal points or underscores."""
    if not _RATIONAL.fullmatch(text):
        raise ScalarParseError(f"invalid rational {brief(text)}: expected \"p/q\" or \"p\"")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ScalarParseError(f"invalid rational {brief(text)}: {exc}") from None
    except ValueError:  # the interpreter's limit on digits per integer
        raise ScalarParseError(f"invalid rational {brief(text)}: too many digits") from None
