"""Kunneth identities of the free sum.

The face fan of a free sum P (+) Q is the product of the face fans of P
and Q, so the toric h-polynomial and the halves of intersection
cohomology by the reflection's eigenvalue multiply, the halves in the
ring where chi^2 = 1:

    h(P (+) Q)  = h(P) h(Q)
    u+(P (+) Q) = u+(P) u+(Q) + u-(P) u-(Q)
    u-(P (+) Q) = u+(P) u-(Q) + u-(P) u+(Q)

The sum's sheaf is built on the product fan and shares no state with the
sheaves of its factors, so the identities check the code paths of the
larger fans against two small computations.  Products of polynomials
are taken by the oracle's coefficient convolution.
"""

from functools import lru_cache
from itertools import zip_longest

from hypothesis import given, settings
from hypothesis import strategies as st

from polyfan.analysis import Analysis
from polyfan.polytopes import PolytopeError, cross_polytope, cube, free_sum, random_cs

from oracles import _poly_mul, _trimmed

# Factors by key: ("cube", n), ("cross", n), ("random", pairs, seed) for
# random_cs(2, pairs, seed), and ("image", d, key) for the Q(sqrt d)
# image of a rational factor.
RATIONAL = [("cube", 1), ("cube", 2), ("cube", 3), ("cross", 2), ("cross", 3)]
IMAGED = [("cube", 2), ("cross", 2)]


def _dim(key) -> int:
    return key[1] if key[0] in ("cube", "cross") else 2


def _polytope(key, image):
    kind = key[0]
    if kind == "cube":
        return cube(key[1])
    if kind == "cross":
        return cross_polytope(key[1])
    if kind == "random":
        return random_cs(2, *key[1:])
    return image(_polytope(key[2], image), key[1])


def _builds(pairs: int, seed: int) -> bool:
    try:
        random_cs(2, pairs, seed)
    except PolytopeError:
        return False
    return True


def _invariants(p) -> tuple:
    """(h, u+, u-) of a centrally symmetric polytope."""
    a = Analysis(p)
    u = a.refined[0]
    return a.h, u.plus, u.minus


@lru_cache(maxsize=None)
def _factor(key, image) -> tuple:
    """The :func:`_invariants` of a factor, kept: the draws repeat factors."""
    return _invariants(_polytope(key, image))


def _product(a, b) -> tuple:
    return _trimmed(_poly_mul(a, b))


def _sum(a, b) -> tuple:
    return _trimmed(x + y for x, y in zip_longest(a, b, fillvalue=0))


def _assert_kunneth(first, second, image) -> None:
    h_p, plus_p, minus_p = _factor(first, image)
    h_q, plus_q, minus_q = _factor(second, image)
    h, plus, minus = _invariants(free_sum(_polytope(first, image), _polytope(second, image)))
    where = (first, second)
    assert h == _product(h_p, h_q), where
    assert plus == _sum(_product(plus_p, plus_q), _product(minus_p, minus_q)), where
    assert minus == _sum(_product(plus_p, minus_q), _product(minus_p, plus_q)), where


rational_factors = st.sampled_from(RATIONAL) | st.tuples(
    st.just("random"), st.integers(3, 4), st.integers(0, 40)
).filter(lambda key: _builds(*key[1:]))


@st.composite
def factor_pairs(draw):
    """Two factor keys over one field, Q, Q(sqrt 2) or Q(sqrt 3), of
    total dimension at most 4."""
    d = draw(st.sampled_from((None, 2, 3)))
    if d is not None:
        return tuple(("image", d, draw(st.sampled_from(IMAGED))) for _ in range(2))
    first = draw(rational_factors)
    second = draw(rational_factors.filter(lambda key: _dim(first) + _dim(key) <= 4))
    return first, second


@settings(max_examples=20, deadline=None)
@given(factor_pairs())
def test_free_sums_multiply_h_and_the_halves(quadratic_image, pair):
    _assert_kunneth(*pair, quadratic_image)


def test_five_dimensional_free_sum_multiplies_h_and_the_halves(quadratic_image):
    _assert_kunneth(("cross", 3), ("cube", 2), quadratic_image)
