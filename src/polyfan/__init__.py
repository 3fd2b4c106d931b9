"""Exact h-vectors and combinatorial intersection cohomology of fans."""

from .scalars import Field, FieldMismatchError, Quadratic, sign
from .polytopes import (
    Polytope,
    PolytopeError,
    cross_polytope,
    cube,
    ensure_origin_interior,
    free_sum,
    linear_image,
    product,
    random_cs,
    simplex,
)
from .fans import Cone, ConewiseLinear, Fan, FanError, face_fan, support_function
from .hvector import BoundsReport, check_cs_bounds, g_polynomial, h_polynomial, h_simplicial
from .polynomials import RefinedSeries, is_palindromic, is_unimodal, truncate_below

__all__ = [
    "BoundsReport",
    "Cone",
    "ConewiseLinear",
    "Fan",
    "FanError",
    "Field",
    "FieldMismatchError",
    "Polytope",
    "PolytopeError",
    "Quadratic",
    "RefinedSeries",
    "check_cs_bounds",
    "cross_polytope",
    "cube",
    "ensure_origin_interior",
    "face_fan",
    "free_sum",
    "g_polynomial",
    "h_polynomial",
    "h_simplicial",
    "is_palindromic",
    "is_unimodal",
    "linear_image",
    "product",
    "random_cs",
    "sign",
    "simplex",
    "support_function",
    "truncate_below",
]

__version__ = "0.1.0"
