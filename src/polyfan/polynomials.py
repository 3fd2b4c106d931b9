"""Integer polynomials in one variable, plus Z[G]-valued refined series.

Polynomials are tuples of integer coefficients indexed by degree with
trailing zeros trimmed.  :class:`RefinedSeries` holds a pair of such
polynomials representing ``plus + minus * chi`` over the two-element
character group {1, chi}, chi^2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

IntPoly = tuple  # tuple[int, ...]

ZERO_POLY: IntPoly = ()


def trim(coeffs: Sequence[int]) -> IntPoly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def coeff(p: IntPoly, i: int) -> int:
    return p[i] if 0 <= i < len(p) else 0


def degree(p: IntPoly) -> int:
    """Degree of p; -1 for the zero polynomial."""
    return len(p) - 1


def padd(p: IntPoly, q: IntPoly) -> IntPoly:
    n = max(len(p), len(q))
    return trim(tuple(coeff(p, i) + coeff(q, i) for i in range(n)))


def psub(p: IntPoly, q: IntPoly) -> IntPoly:
    n = max(len(p), len(q))
    return trim(tuple(coeff(p, i) - coeff(q, i) for i in range(n)))


def pmul(p: IntPoly, q: IntPoly) -> IntPoly:
    if not p or not q:
        return ZERO_POLY
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def pscale(c: int, p: IntPoly) -> IntPoly:
    return trim(tuple(c * a for a in p))


def truncate_below(p: IntPoly, r: int) -> IntPoly:
    """Keep coefficients of degree < r; tau_{<0} is the zero polynomial."""
    if r <= 0:
        return ZERO_POLY
    return trim(p[:r])


def truncate_at(p: IntPoly, cap: int) -> IntPoly:
    """Keep coefficients of degree <= cap."""
    return truncate_below(p, cap + 1)


def binomial_poly(n: int) -> IntPoly:
    """(1 + x)^n."""
    return tuple(comb(n, j) for j in range(n + 1))


def x_minus_one_power(k: int) -> IntPoly:
    """(x - 1)^k."""
    return tuple(comb(k, j) * (-1) ** (k - j) for j in range(k + 1))


def substitute_t_squared(p: IntPoly) -> IntPoly:
    """p(x) -> p(t^2) as a polynomial in t."""
    if not p:
        return ZERO_POLY
    out = [0] * (2 * len(p) - 1)
    for i, a in enumerate(p):
        out[2 * i] = a
    return trim(out)


def is_palindromic(p: IntPoly, n: int) -> bool:
    """Whether p_j = p_{n-j} for all j, reading p as a degree-n vector."""
    if degree(p) > n:
        return False
    return all(coeff(p, j) == coeff(p, n - j) for j in range(n + 1))


def is_unimodal(p: IntPoly) -> bool:
    """Coefficients rise (weakly) to a peak and then fall (weakly)."""
    cs = list(p)
    i = 0
    while i + 1 < len(cs) and cs[i] <= cs[i + 1]:
        i += 1
    while i + 1 < len(cs) and cs[i] >= cs[i + 1]:
        i += 1
    return i + 1 >= len(cs)


@dataclass(frozen=True)
class RefinedSeries:
    """Element ``plus + minus * chi`` of Z[{1, chi}][t], chi^2 = 1."""

    plus: IntPoly = ZERO_POLY
    minus: IntPoly = ZERO_POLY

    def __post_init__(self):
        object.__setattr__(self, "plus", trim(self.plus))
        object.__setattr__(self, "minus", trim(self.minus))

    @staticmethod
    def of_int(c: int) -> "RefinedSeries":
        return RefinedSeries(trim((c,)), ZERO_POLY)

    def __add__(self, other: "RefinedSeries") -> "RefinedSeries":
        return RefinedSeries(padd(self.plus, other.plus), padd(self.minus, other.minus))

    def __sub__(self, other: "RefinedSeries") -> "RefinedSeries":
        return RefinedSeries(psub(self.plus, other.plus), psub(self.minus, other.minus))

    def __mul__(self, other: "RefinedSeries") -> "RefinedSeries":
        return RefinedSeries(
            padd(pmul(self.plus, other.plus), pmul(self.minus, other.minus)),
            padd(pmul(self.plus, other.minus), pmul(self.minus, other.plus)),
        )

    def scale(self, c: int) -> "RefinedSeries":
        return RefinedSeries(pscale(c, self.plus), pscale(c, self.minus))

    def power(self, n: int) -> "RefinedSeries":
        out = RefinedSeries.of_int(1)
        for _ in range(n):
            out = out * self
        return out

    def truncate_at(self, cap: int) -> "RefinedSeries":
        return RefinedSeries(truncate_at(self.plus, cap), truncate_at(self.minus, cap))
