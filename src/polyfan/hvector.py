"""Generalized h- and g-polynomials of complete fans.

Both polynomials depend only on the face lattice (Stanley's recursion).
h of a complete fan sums (x-1)^codim * g over all cones; g of a cone of
dimension d truncates (1-x) times the same sum over its proper faces,
taken in dimension d - 1, below half its dimension.  A fan's cones are
put once, in increasing dimension, in the bitset of their class (dim, g),
so each sum multiplies once per class by the popcount of its cones'
bitset against the class's.  Simplicial cones have g = 1, and the class
counts of a down-set fix g, so g is memoized on (dimension, counts).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fans import Fan, FanError, face_fan
from .polynomials import (
    IntPoly,
    binomial_poly,
    is_palindromic,
    is_unimodal,
    padd,
    pmul,
    pscale,
    psub,
    truncate_below,
    x_minus_one_power,
)
from .polytopes import Polytope


def g_polynomial(fan: Fan, cone_id: int) -> IntPoly:
    """g-polynomial of a cone of the fan.

    Simplicial cones (the zero cone included) have g = 1.  Otherwise
    g = tau_{< ceil(d/2)}((1 - x) * sum_{tau < sigma} (x-1)^(d-1-dim tau)
    g(tau)), i.e. degrees up to floor((d-1)/2) survive; the ceiling
    reading of the half-dimension bracket is forced by g = 1 on rays.
    """
    if fan.is_simplicial_cone(cone_id):
        return (1,)
    d = fan.cones[cone_id].dim
    return next(g for (k, g), cones in _classes(fan).items() if k == d and cones >> cone_id & 1)


def _classes(fan: Fan) -> dict:
    """(dim, g) -> bitset of the fan's cones of that dimension and g,
    filled in increasing dimension: the classes below a cone are complete
    when its down-set is counted against them."""
    if fan._classes is None:
        classes: dict = {}
        memo: dict = {}
        for d in range(fan.dim + 1):
            keys, masks = tuple(classes), tuple(classes.values())
            for cid in fan.cones_of_dim(d):
                if fan.is_simplicial_cone(cid):
                    g = (1,)
                else:
                    counts = tuple((fan.down[cid] & mask).bit_count() for mask in masks)
                    g = memo.get((d, counts))
                    if g is None:
                        boundary_h = _h_sum(zip(keys, counts), d - 1)
                        g = truncate_below(pmul((1, -1), boundary_h), (d + 1) // 2)
                        memo[d, counts] = g
                classes[d, g] = classes.get((d, g), 0) | 1 << cid
        fan._classes = classes
    return fan._classes


def _h_sum(terms, n: int) -> IntPoly:
    """Sum of count * (x-1)^(n - k) * g over the terms ((k, g), count)."""
    total: IntPoly = ()
    for (k, g), count in terms:
        if count:
            total = padd(total, pscale(count, pmul(x_minus_one_power(n - k), g)))
    return total


def h_polynomial(fan: Fan) -> IntPoly:
    """Generalized h-polynomial of a complete fan."""
    if not fan.is_complete():
        raise FanError("h-polynomial requires a complete fan")
    return _h_sum(((key, cones.bit_count()) for key, cones in _classes(fan).items()), fan.dim)


def h_simplicial(fan: Fan) -> IntPoly:
    """h-polynomial of a simplicial complete fan, computed without the
    recursion: the sum of (x-1)^codim over all cones."""
    if not fan.is_complete():
        raise FanError("h-polynomial requires a complete fan")
    if not fan.is_simplicial():
        raise FanError("h_simplicial requires a simplicial fan")
    n = fan.dim
    total: IntPoly = ()
    for cid in fan.cone_ids():
        total = padd(total, x_minus_one_power(n - fan.cones[cid].dim))
    return total


@dataclass(frozen=True)
class BoundsReport:
    """h-vector of a centrally symmetric polytope against (1+x)^n."""

    dim: int
    h: IntPoly
    difference: IntPoly  # h - (1+x)^n
    palindromic: bool
    unimodal: bool
    nonnegative_even_difference: bool
    difference_palindromic: bool
    difference_unimodal: bool
    is_minimum: bool
    is_cross_polytope: bool

    def all_bounds_hold(self) -> bool:
        """Every flag holds, and h is the minimum (1+x)^n exactly when P
        is a cross-polytope."""
        return (
            self.palindromic
            and self.unimodal
            and self.nonnegative_even_difference
            and self.difference_palindromic
            and self.difference_unimodal
            and self.is_minimum == self.is_cross_polytope
        )


def check_cs_bounds(p: Polytope, h: IntPoly | None = None) -> BoundsReport:
    """h-vector lower-bound report for a centrally symmetric polytope.

    The difference h - (1+x)^n is reported with its nonnegativity,
    evenness, palindromicity and unimodality flags; is_minimum means the
    difference vanishes, which must coincide with P being a linear image
    of the cross-polytope.  ``h`` is the h-polynomial of P's face fan
    when the caller already has it.
    """
    if not p.is_centrally_symmetric():
        raise ValueError("check_cs_bounds requires a centrally symmetric polytope")
    n = p.ambient_dim
    if h is None:
        h = h_polynomial(face_fan(p))
    difference = psub(h, binomial_poly(n))
    return BoundsReport(
        dim=n,
        h=h,
        difference=difference,
        palindromic=is_palindromic(h, n),
        unimodal=is_unimodal(h),
        nonnegative_even_difference=all(
            c >= 0 and c % 2 == 0 for c in difference
        ),
        difference_palindromic=is_palindromic(difference, n),
        difference_unimodal=is_unimodal(difference),
        is_minimum=not difference,
        is_cross_polytope=p.is_cross_polytope(),
    )
