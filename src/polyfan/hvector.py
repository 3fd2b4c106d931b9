"""Generalized h- and g-polynomials of complete fans.

Both polynomials depend only on the face lattice (Stanley's recursion).
h of a complete fan sums (x-1)^codim * g over all cones; g of a cone of
dimension d truncates (1-x) times the same sum over its proper faces,
taken in dimension d - 1, below half its dimension.  Each sum collects
equal (dimension, g) terms and multiplies once per distinct pair, so on
a mostly simplicial lattice it costs a handful of products.  Simplicial
cones short-circuit to g = 1, and each fan memoizes g per cone id, since
g depends only on the lower interval below the cone.
"""

from __future__ import annotations

from collections import Counter
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
    value = fan._g.get(cone_id)
    if value is None:
        d = fan.cones[cone_id].dim
        boundary_h = _h_sum(fan, fan.faces[cone_id], d - 1)
        value = truncate_below(pmul((1, -1), boundary_h), (d + 1) // 2)
        fan._g[cone_id] = value
    return value


def _h_sum(fan: Fan, cone_ids, n: int) -> IntPoly:
    """Sum of (x-1)^(n - dim tau) * g(tau) over the given cones, one
    product per distinct (dim tau, g(tau)) pair."""
    terms = Counter(
        (fan.cones[cid].dim, g_polynomial(fan, cid)) for cid in cone_ids
    )
    total: IntPoly = ()
    for (k, g), count in terms.items():
        total = padd(total, pscale(count, pmul(x_minus_one_power(n - k), g)))
    return total


def h_polynomial(fan: Fan) -> IntPoly:
    """Generalized h-polynomial of a complete fan."""
    if not fan.is_complete():
        raise FanError("h-polynomial requires a complete fan")
    return _h_sum(fan, fan.cone_ids(), fan.dim)


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
