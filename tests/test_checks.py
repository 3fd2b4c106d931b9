"""Every report check can fail: perturbing the one :class:`Analysis`
value a check reads makes the rendered report name that check."""

import copy
from dataclasses import replace

import pytest

from polyfan.analysis import Analysis
from polyfan.polynomials import RefinedSeries
from polyfan.polytopes import cube
from polyfan.reports import add_ih, bounds_report, failing_checks, report_passes
from polyfan.scalars import Field


def _bump(poly, q):
    """The polynomial with its coefficient of degree q raised by one."""
    out = list(poly) + [0] * (q + 1 - len(poly))
    out[q] += 1
    return tuple(out)


def _zero_ranks(table):
    return {q: (src, tgt, 0) for q, (src, tgt, _) in table.items()}


def _bump_u_minus(refined):
    u_ref, v_ref = refined
    return RefinedSeries(u_ref.plus, _bump(u_ref.minus, 2)), v_ref


def _bump_v_minus(refined):
    u_ref, v_ref = refined
    return u_ref, RefinedSeries(v_ref.plus, _bump(v_ref.minus, 2))


def _flag_off(flag):
    return lambda bounds: replace(bounds, **{flag: False})


# Check name -> (the Analysis value it reads, a perturbation of that value
# on cube(3), where h = (1, 5, 5, 1) and every check passes).
PERTURBATIONS = {
    "h_palindromic": ("h", lambda h: _bump(h, 1)),
    "h_ends_are_one": ("h", lambda h: _bump(h, 0)),
    "h_subtop_counts_rays": ("h", lambda h: _bump(h, 2)),
    "difference_nonnegative_even": ("bounds", _flag_off("nonnegative_even_difference")),
    "difference_palindromic": ("bounds", _flag_off("difference_palindromic")),
    "difference_unimodal": ("bounds", _flag_off("difference_unimodal")),
    "h_unimodal": ("bounds", _flag_off("unimodal")),
    "minimum_iff_cross_polytope": ("bounds", lambda b: replace(b, is_minimum=True)),
    "betti_equals_h": ("u", lambda u: _bump(u, 2)),
    "freeness_factorization": ("u", lambda u: _bump(u, 2)),
    "lefschetz_pattern": ("rank_table", _zero_ranks),
    "refined_factorization": ("refined", _bump_u_minus),
    "refined_splitting": ("refined", _bump_v_minus),
    "minus_part_formula": ("refined", _bump_u_minus),
    "minus_dims_match_difference": ("refined", _bump_u_minus),
    "minus_lefschetz_pattern": ("minus_table", _zero_ranks),
}


def _render(a):
    """Every check of a centrally symmetric polytope in one report, the
    way ``report-all`` renders it."""
    return add_ih(bounds_report(a, Field.rational()), a)


@pytest.fixture(scope="module")
def analysis():
    a = Analysis(cube(3), 8)
    assert report_passes(_render(a))
    return a


def test_perturbations_cover_every_check(analysis):
    assert set(_render(analysis)["checks"]) == set(PERTURBATIONS)


@pytest.mark.parametrize("check", sorted(PERTURBATIONS))
def test_check_fails_on_a_perturbed_value(analysis, check):
    key, perturb = PERTURBATIONS[check]
    perturbed = copy.copy(analysis)
    perturbed.__dict__[key] = perturb(analysis.__dict__[key])
    assert check in failing_checks(_render(perturbed))
    assert not failing_checks(_render(analysis))
