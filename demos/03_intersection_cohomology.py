"""Combinatorial intersection cohomology of a polytopal fan.

The minimal extension sheaf assigns each cone a free graded module; the
global sections modulo the maximal ideal have the h-vector as Betti
numbers, and multiplication by the support function realizes the hard
Lefschetz rank pattern.  On a centrally symmetric fan the point
reflection splits everything into eigenspaces whose dimensions encode
the lower bounds.  An Analysis computes each of these once and keeps it.
"""

from polyfan import cube
from polyfan.analysis import Analysis
from polyfan.checks import ih_checks
from polyfan.ihsheaf import check_minimal_extension_axioms, kernel_dimensions

box = Analysis(cube(3), 8)
checks = ih_checks(box)
fan, mes = box.fan, box.sheaf
print("sheaf over the cube(3) fan, degree cap", box.cap)
print("generator degrees per cone dimension:")
for k in range(4):
    cid = fan.cones_of_dim(k)[0]
    print(f"  dim {k}: {mes.modules[cid].gen_degrees}")
print("axioms verified:", check_minimal_extension_axioms(mes))

print("\nBetti numbers u(t)      =", list(box.u))
print("h for comparison        =", list(box.h))
print("section dimensions v(t) =", list(box.v))
print("v * (1-t^2)^3 == u up to cap:", checks["freeness_factorization"])

# Local-to-global bookkeeping: the kernels of the boundary restrictions.
dims = kernel_dimensions(mes)
print("\nlocal kernel dimensions (one cone per dimension):")
for k in range(4):
    cid = fan.cones_of_dim(k)[0]
    print(f"  dim {k}: {list(dims[cid])}")

# The reflection x -> -x acts on everything; its eigenspace dimensions
# refine both Poincare series.
u_ref, _ = box.refined
print("\nrefined Betti numbers: plus =", list(u_ref.plus), " minus =", list(u_ref.minus))
print("splitting identity:", checks["refined_splitting"])
print("refined factorization:", checks["refined_factorization"])

# Multiplication by the support function: injective below the middle
# degree, surjective above.
print("\nLefschetz ranks (degree q -> q+2):")
for q, (src, tgt, rank) in sorted(box.rank_table.items()):
    pattern = "injective" if rank == src else ""
    pattern += " surjective" if rank == tgt else ""
    print(f"  {q:>2} -> {q+2:>2}: {src} -> {tgt}, rank {rank}  {pattern.strip()}")
