"""The whole pipeline on a polytope with irrational vertex coordinates.

Toric geometry needs rational data, but the combinatorial theory does
not: every computation below runs in exact arithmetic over Q(sqrt(2)).
The polytope is the +-1 cube with two apexes at (0, 0, +-sqrt(2)).
"""

from fractions import Fraction

from polyfan import Field, Polytope, Quadratic, cube
from polyfan.analysis import Analysis
from polyfan.hvector import check_cs_bounds
from polyfan.reports import failing_checks, ih_report, report_passes

root2 = Quadratic(0, 1, 2)
vertices = list(cube(3).vertices)
vertices.append((Fraction(0), Fraction(0), root2))
vertices.append((Fraction(0), Fraction(0), -root2))
p = Polytope(vertices)

print("vertices:", len(p.vertices), " f-vector:", p.f_vector())
print("centrally symmetric:", p.is_centrally_symmetric())

# The apexes poke out of the cube (sqrt(2) > 1), so the top and bottom
# facets are replaced by eight triangles; four square facets survive.
analysis = Analysis(p, 8)
print("fan is complete over Q(sqrt 2):", analysis.fan.is_complete())

print("\nh =", list(analysis.h))
bounds = check_cs_bounds(p, analysis.h)
print("difference against (1+x)^3:", list(bounds.difference))
print("bounds verified:", bounds.all_bounds_hold())

# One report renders every sheaf invariant of the analysis: Betti
# numbers, the reflection's minus part and both Lefschetz patterns.
report = ih_report(analysis, Field.quadratic(2), "nonrational-bipyramid")
checks = report["checks"]
print("\nBetti numbers:", report["ih"]["betti"])
print("Betti = h(t^2):", checks["betti_equals_h"])
print("reflection minus-part:", report["ih"]["eigen_minus"])
print("Lefschetz pattern:", checks["lefschetz_pattern"])
print("minus-restricted Lefschetz:", checks["minus_lefschetz_pattern"])

ok = report_passes(report) and bounds.all_bounds_hold()
print("\nfull lower-bound verification:", ok)
if not ok:
    raise SystemExit(f"failed checks: {', '.join(failing_checks(report))}")
