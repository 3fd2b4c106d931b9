"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines and timings.
"""

import random
import time
from fractions import Fraction

from polyfan import linalg
from polyfan.checks import ih_checks
from polyfan.corpus import cs_corpus
from polyfan.fans import face_fan
from polyfan.hvector import check_cs_bounds, h_polynomial, h_simplicial
from polyfan.polynomials import binomial_poly, coeff, substitute_t_squared
from polyfan.polytopes import cross_polytope, cube, linear_image

from oracles import f_to_h, simplicial_cs_fans


def _announce(number, text, t0):
    print(f"criterion {number}: PASS ({text}; {time.time() - t0:.1f}s)")


def test_criterion_1_paper_h_vectors():
    t0 = time.time()
    assert h_polynomial(face_fan(cross_polytope(3))) == (1, 3, 3, 1)
    assert h_polynomial(face_fan(cube(3))) == (1, 5, 5, 1)
    assert time.time() - t0 < 1.0
    _announce(1, "h(cross3)=(1,3,3,1), h(cube3)=(1,5,5,1)", t0)


def test_criterion_2_minimality_over_corpus():
    t0 = time.time()
    for n in range(1, 6):
        assert h_polynomial(face_fan(cross_polytope(n))) == binomial_poly(n)
    corpus = cs_corpus()
    assert len(corpus) >= 30
    for name, p in corpus:
        report = check_cs_bounds(p)
        assert all(c >= 0 for c in report.difference), name
        assert all(c % 2 == 0 for c in report.difference), name
        assert report.difference_palindromic, name
        assert report.difference_unimodal, name
        if report.is_minimum:
            assert report.is_cross_polytope, name
        else:
            assert report.difference != (), name
        n = p.ambient_dim
        from math import comb
        for j in range(1, n // 2 + 1):
            gap = coeff(report.h, j) - coeff(report.h, j - 1)
            assert gap >= comb(n, j) - comb(n, j - 1), (name, j)
    assert time.time() - t0 < 60.0
    _announce(2, f"{len(corpus)} CS polytopes incl. cross(1..5)", t0)


def test_criterion_3_subtop_coefficient_counts_rays():
    t0 = time.time()
    fans = [face_fan(p) for _, p in cs_corpus()]
    fans += [fan for _, _, fan in simplicial_cs_fans()]
    for fan in fans:
        h = h_polynomial(fan)
        n = fan.dim
        rays = len(fan.cones_of_dim(1))
        assert coeff(h, n - 1) == rays - n
    _announce(3, f"h_(n-1) identity on {len(fans)} fans", t0)


def test_criterion_4_simplicial_oracle_equivalence():
    t0 = time.time()
    fans = simplicial_cs_fans(20)
    assert len(fans) == 20
    dims = {p.ambient_dim for _, p, _ in fans}
    assert dims == {2, 3, 4}
    for name, p, fan in fans:
        recursion = h_polynomial(fan)
        shortcut = h_simplicial(fan)
        oracle = f_to_h(p.f_vector(), p.ambient_dim)
        assert recursion == shortcut == oracle, name
    _announce(4, "recursion = shortcut = f-to-h on 20 simplicial CS fans", t0)


def test_criterion_5_betti_equals_h(sheaf_analyses):
    t0 = time.time()
    for name, a in sheaf_analyses.items():
        t1 = time.time()
        assert a.u == substitute_t_squared(h_polynomial(a.fan)), name
        assert ih_checks(a)["betti_equals_h"], name
        assert time.time() - t1 < 300.0, name
    _announce(5, "u = h(t^2) on all six sheaf fans at cap 8", t0)


def test_criterion_6_series_identities(sheaf_analyses):
    t0 = time.time()
    for name, a in sheaf_analyses.items():
        u, n, cap = a.u, a.dim, a.cap
        u_ref, _ = a.refined
        checks = ih_checks(a)
        for identity in (
            "freeness_factorization",
            "refined_factorization",
            "refined_splitting",
            "minus_part_formula",
            "minus_dims_match_difference",
        ):
            assert checks[identity], (name, identity)
        binT = substitute_t_squared(binomial_poly(n))
        for q in range(0, cap + 1):
            assert 2 * coeff(u_ref.minus, q) == coeff(u, q) - coeff(binT, q), name
    _announce(6, "factorizations, splitting, minus-part formula", t0)


def test_criterion_7_lefschetz_patterns(sheaf_analyses):
    t0 = time.time()
    for name, a in sheaf_analyses.items():
        checks = ih_checks(a)
        assert checks["lefschetz_pattern"], name
        assert checks["minus_lefschetz_pattern"], name
    _announce(7, "Lefschetz rank pattern incl. minus restriction", t0)


def test_criterion_8_combinatorial_invariance():
    t0 = time.time()
    rng = random.Random(20240131)
    for name, p in cs_corpus():
        n = p.ambient_dim
        expected = h_polynomial(face_fan(p))
        for _ in range(10):
            m = _random_invertible(rng, n)
            assert h_polynomial(face_fan(linear_image(p, m))) == expected, name
    _announce(8, "h invariant under 10 linear images per corpus polytope", t0)


def _random_invertible(rng, n):
    while True:
        m = linalg.mat(
            [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        )
        if linalg.rank(m) == n:
            return m
