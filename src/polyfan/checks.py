"""Every check a report renders, decided from one :class:`Analysis`.

Each function reads invariants the analysis has computed and returns
check name -> bool; a report puts them in its ``checks`` section.
``h_checks`` hold for every polytope, ``bounds_checks`` for a centrally
symmetric one, and ``ih_checks`` compare the sheaf's Poincare series
with h and give the hard-Lefschetz rank pattern, on the reflection's
minus eigenspaces too when the polytope is centrally symmetric.
"""

from __future__ import annotations

from .analysis import Analysis
from .polynomials import (
    RefinedSeries,
    binomial_poly,
    coeff,
    is_palindromic,
    padd,
    pmul,
    psub,
    substitute_t_squared,
    truncate_at,
)


def h_checks(a: Analysis) -> dict:
    """h is palindromic, starts and ends with 1, and its coefficient
    h_{n-1} is the number of rays minus n."""
    h, n = a.h, a.dim
    return {
        "h_palindromic": is_palindromic(h, n),
        "h_ends_are_one": coeff(h, 0) == 1 and coeff(h, n) == 1,
        "h_subtop_counts_rays": coeff(h, n - 1) == a.fan.count_of_dim(1) - n,
    }


def bounds_checks(a: Analysis) -> dict:
    """The lower bounds: h - (1+x)^n is nonnegative, even, palindromic and
    unimodal, h is unimodal, and h = (1+x)^n exactly for cross-polytopes."""
    b = a.bounds
    return {
        "difference_nonnegative_even": b.nonnegative_even_difference,
        "difference_palindromic": b.difference_palindromic,
        "difference_unimodal": b.difference_unimodal,
        "h_unimodal": b.unimodal,
        "minimum_iff_cross_polytope": b.is_minimum == b.is_cross_polytope,
    }


def ih_checks(a: Analysis) -> dict:
    """The sheaf identities up to the degree cap; the reflection checks
    only on a centrally symmetric polytope.

    With u the Betti numbers, v the section dimensions and chi the sign
    of the reflection: u = h(t^2); v (1 - t^2)^n = u; multiplication by
    the support function has the :func:`lefschetz_pattern`.  Refined:
    v_ref (1 - chi t^2)^n = u_ref; away from degree 0 the sections split
    evenly, 2 (v_ref - 1) = (1 + chi)(v - 1); 2 u_ref = (u + (1+t^2)^n)
    + chi (u - (1+t^2)^n), and twice the minus dimensions equal
    u - (1+t^2)^n with no truncation; the Lefschetz pattern holds on the
    minus eigenspaces.
    """
    n, cap, u, v = a.dim, a.cap, a.u, a.v
    bin_t = substitute_t_squared(binomial_poly(n))
    free = tuple((-1) ** (q // 2) * c for q, c in enumerate(bin_t))  # (1 - t^2)^n
    checks = {
        "betti_equals_h": u == truncate_at(substitute_t_squared(a.h), cap),
        "freeness_factorization": truncate_at(pmul(v, free), cap) == truncate_at(u, cap),
        "lefschetz_pattern": lefschetz_pattern(a.rank_table, n),
    }
    if a.is_centrally_symmetric:
        u_ref, v_ref = a.refined
        one, chi = RefinedSeries.of_int(1), RefinedSeries((), (1,))
        minus_t2 = RefinedSeries((1,), (0, 0, -1))  # 1 - chi t^2
        checks["refined_factorization"] = (
            (v_ref * minus_t2.power(n).truncate_at(cap)).truncate_at(cap)
            == u_ref.truncate_at(cap)
        )
        checks["refined_splitting"] = (
            (v_ref - one).scale(2).truncate_at(cap)
            == ((one + chi) * RefinedSeries(psub(v, (1,)))).truncate_at(cap)
        )
        checks["minus_part_formula"] = u_ref.scale(2).truncate_at(cap) == RefinedSeries(
            truncate_at(padd(u, bin_t), cap), truncate_at(psub(u, bin_t), cap)
        )
        checks["minus_dims_match_difference"] = (
            tuple(2 * c for c in u_ref.minus) == psub(u, bin_t)
        )
        checks["minus_lefschetz_pattern"] = lefschetz_pattern(a.minus_table, n)
    return checks


def lefschetz_pattern(table: dict, n: int) -> bool:
    """Hard Lefschetz from a table of (dim source, dim target, rank) per
    degree q of multiplication q -> q + 2: injective for q <= n - 1 and
    surjective for q >= n - 1."""
    return all(
        (q > n - 1 or rank == src) and (q < n - 1 or rank == tgt)
        for q, (src, tgt, rank) in table.items()
    )
