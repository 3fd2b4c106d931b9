"""Machine-readable reports, each rendered from one :class:`Analysis`.

A report is a plain dict (JSON-serializable) with a ``checks`` section of
named booleans; a report "passes" when every check is true.  The shipped
schema ``report.schema.json`` describes the format.
"""

from __future__ import annotations

import json
from importlib import resources

from .analysis import Analysis
from .polynomials import binomial_poly, coeff, is_palindromic
from .scalars import Field


def load_report_schema() -> dict:
    with resources.files("polyfan").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


def _field_json(field: Field):
    return "rational" if field.is_rational else {"quadratic": field.d}


def hvector_report(a: Analysis, field: Field, name: str | None = None) -> dict:
    """h-polynomial of the face fan, with basic sanity identities."""
    p, shift = a.polytope, a.translation
    h, n = a.h, a.dim
    rays = len(a.fan.cones_of_dim(1))
    return {
        "name": name,
        "dim": p.ambient_dim,
        "field": _field_json(field),
        "vertex_count": len(p.vertices),
        "translation": None if shift is None else [field.format(x) for x in shift],
        "h": list(h),
        "h_difference": [
            coeff(h, j) - coeff(binomial_poly(n), j) for j in range(n + 1)
        ],
        "ray_count": rays,
        "checks": {
            "h_palindromic": is_palindromic(h, n),
            "h_ends_are_one": coeff(h, 0) == 1 and coeff(h, n) == 1,
            "h_subtop_counts_rays": coeff(h, n - 1) == rays - n,
        },
    }


def bounds_report(a: Analysis, field: Field, name: str | None = None) -> dict:
    """Lower-bound verification for a centrally symmetric polytope."""
    report = hvector_report(a, field, name)
    bounds = a.bounds
    report["bounds"] = bounds.to_dict()
    checks = report["checks"]
    checks["difference_nonnegative_even"] = bounds.nonnegative_even_difference
    checks["difference_palindromic"] = bounds.difference_palindromic
    checks["difference_unimodal"] = bounds.difference_unimodal
    checks["h_unimodal"] = bounds.unimodal
    checks["minimum_iff_cross_polytope"] = (
        bounds.is_minimum == bounds.is_cross_polytope
    )
    return report


def ih_report(a: Analysis, field: Field, name: str | None = None) -> dict:
    """Full sheaf-cohomology verification of one polytope."""
    report = hvector_report(a, field, name)
    ih_section = {
        "degree_cap": a.cap,
        "betti": list(a.u),
        "section_dims": list(a.v),
        "lefschetz": [
            {"degree": q, "source": src, "target": tgt, "rank": rk}
            for q, (src, tgt, rk, _, _) in sorted(a.rank_table.items())
        ],
    }
    report["checks"].update(a.ih_checks())
    if a.is_centrally_symmetric:
        u_ref, v_ref = a.refined
        ih_section["eigen_plus"] = list(u_ref.plus)
        ih_section["eigen_minus"] = list(u_ref.minus)
        ih_section["section_eigen_plus"] = list(v_ref.plus)
        ih_section["section_eigen_minus"] = list(v_ref.minus)
    report["ih"] = ih_section
    return report


def report_passes(report: dict) -> bool:
    return all(report["checks"].values())


def failing_checks(report: dict) -> list:
    return sorted(k for k, v in report["checks"].items() if not v)


def render_table(report: dict) -> str:
    """Human-readable summary of one report."""
    lines = []
    name = report.get("name") or "<unnamed>"
    lines.append(f"{name}: dim {report['dim']}, {report['vertex_count']} vertices")
    if report.get("translation"):
        lines.append(f"  translated by {report['translation']}")
    lines.append(f"  h            = {report['h']}")
    lines.append(f"  h - (1+x)^n  = {report['h_difference']}")
    if "bounds" in report:
        b = report["bounds"]
        flags = [
            k
            for k in (
                "palindromic",
                "unimodal",
                "nonnegative_even_difference",
                "difference_palindromic",
                "difference_unimodal",
                "is_minimum",
                "is_cross_polytope",
            )
            if b[k]
        ]
        lines.append(f"  bounds flags : {', '.join(flags) if flags else 'none'}")
    if "ih" in report:
        ih = report["ih"]
        lines.append(f"  IH Betti     = {ih['betti']} (cap {ih['degree_cap']})")
        if "eigen_minus" in ih:
            lines.append(f"  minus dims   = {ih['eigen_minus']}")
        ranks = ", ".join(
            f"{row['degree']}->{row['degree']+2}:{row['rank']}"
            for row in ih["lefschetz"]
        )
        lines.append(f"  Lefschetz rk : {ranks}")
    status = "PASS" if report_passes(report) else "FAIL"
    bad = failing_checks(report)
    suffix = "" if not bad else f" ({', '.join(bad)})"
    lines.append(f"  checks       : {status}{suffix}")
    return "\n".join(lines)
