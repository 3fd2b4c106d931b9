"""One analysis of a polytope at one degree cap.

Every report renders an :class:`Analysis`.  Each invariant is computed
on first use and then kept, so the face fan, the h-polynomial, the
sheaf, the halves of its global sections by the reflection's eigenvalue
and the Lefschetz maps on them are built once per analysis however many
checks read them.  The maps are kept as their ranks per degree and half
(see :mod:`polyfan.ihsheaf`), which the tables sum.  Nothing here
decides a check: :mod:`polyfan.checks` compares the values computed here,
and :mod:`polyfan.reports` renders them.
"""

from __future__ import annotations

from functools import cached_property

from . import ihsheaf
from .fans import face_fan, support_function
from .hvector import BoundsReport, check_cs_bounds, h_polynomial
from .polytopes import Polytope, ensure_origin_interior


class Analysis:
    """Invariants of a polytope, translated so the origin is interior
    (``translation`` is the shift, or None), with the sheaf truncated at
    ``degree_cap`` (None: the default 2*(dim+1))."""

    def __init__(self, p: Polytope, degree_cap: int | None = None):
        self.polytope, self.translation = ensure_origin_interior(p)
        self.degree_cap = degree_cap

    @cached_property
    def fan(self):
        return face_fan(self.polytope)

    @property
    def dim(self) -> int:
        return self.fan.dim

    @cached_property
    def h(self):
        return h_polynomial(self.fan)

    @cached_property
    def is_centrally_symmetric(self) -> bool:
        return self.polytope.is_centrally_symmetric()

    @cached_property
    def bounds(self) -> BoundsReport:
        return check_cs_bounds(self.polytope, self.h)

    @cached_property
    def sheaf(self) -> ihsheaf.MinimalExtensionSheaf:
        return ihsheaf.build_mes(self.fan, self.degree_cap)

    @property
    def cap(self) -> int:
        return self.sheaf.cap

    @cached_property
    def support(self):
        return support_function(self.polytope, self.fan)

    @cached_property
    def u(self):
        """Betti numbers: graded dimensions of sections modulo m."""
        return ihsheaf.ih_poincare(self.sheaf)

    @cached_property
    def v(self):
        """Graded dimensions of the global sections."""
        return ihsheaf.sections_poincare(self.sheaf)

    @cached_property
    def refined(self):
        """(u_refined, v_refined): the dimensions of the halves."""
        return ihsheaf.refined_series(self.sheaf)

    @cached_property
    def lefschetz_maps(self) -> dict:
        return ihsheaf.lefschetz_maps(self.sheaf, self.support)

    @cached_property
    def rank_table(self) -> dict:
        return ihsheaf.lefschetz_rank_table(self.sheaf, self.lefschetz_maps)

    @cached_property
    def minus_table(self) -> dict:
        return ihsheaf.minus_lefschetz_table(self.sheaf, self.lefschetz_maps)
