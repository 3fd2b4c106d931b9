"""Machine-readable reports, each rendered from one :class:`Analysis`.

A report is a plain dict (JSON-serializable) with a ``checks`` section of
named booleans, decided by :mod:`polyfan.checks`; a report "passes" when
every check is true.  The shipped schema ``report.schema.json``
describes the format.
"""

from __future__ import annotations

from . import checks
from .analysis import Analysis
from .polynomials import binomial_poly, coeff
from .scalars import Field


def field_json(field: Field):
    """A field as polytope files and reports write it."""
    return "rational" if field.is_rational else {"quadratic": field.d}


def hvector_report(a: Analysis, field: Field, name: str | None = None) -> dict:
    """h-polynomial of the face fan, with basic sanity identities."""
    p, shift = a.polytope, a.translation
    h, n = a.h, a.dim
    return {
        "name": name,
        "dim": p.ambient_dim,
        "field": field_json(field),
        "vertex_count": p.vertex_count,
        "translation": None if shift is None else [field.format(x) for x in shift],
        "h": list(h),
        "h_difference": [
            coeff(h, j) - coeff(binomial_poly(n), j) for j in range(n + 1)
        ],
        "ray_count": a.fan.count_of_dim(1),
        "checks": checks.h_checks(a),
    }


def bounds_report(a: Analysis, field: Field, name: str | None = None) -> dict:
    """Lower-bound verification for a centrally symmetric polytope."""
    report = hvector_report(a, field, name)
    report["bounds"] = dict(vars(a.bounds))  # the fields, in order
    report["checks"].update(checks.bounds_checks(a))
    return report


def ih_report(a: Analysis, field: Field, name: str | None = None) -> dict:
    """Full sheaf-cohomology verification of one polytope."""
    return add_ih(hvector_report(a, field, name), a)


def add_ih(report: dict, a: Analysis) -> dict:
    """Add the sheaf section and checks of the analysis to its report."""
    ih_section = {
        "degree_cap": a.cap,
        "betti": list(a.u),
        "section_dims": list(a.v),
        "lefschetz": [
            {"degree": q, "source": src, "target": tgt, "rank": rk}
            for q, (src, tgt, rk) in sorted(a.rank_table.items())
        ],
    }
    report["checks"].update(checks.ih_checks(a))
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
        flags = [k for k, v in b.items() if isinstance(v, bool) and v]
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
