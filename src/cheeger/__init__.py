"""Cheeger constants and Cheeger sets of convex plane regions and curved strips.

The exact arc-polygon kernel lives in `geom` (areas and perimeters are the
`area` and `perimeter` properties of `ArcPolygon`), the fixed-width bisection
behind the gallery's defining equations in `roots`, strips and their spinal
curves in `spine`, the inner-Cheeger-formula solvers in `solver` (strips,
and the safeguarded Newton solve both solvers share, whose stop rule is the
constant `solver.RESIDUAL_TOL`) and `convex` (convex regions, with exact
containment of the Cheeger set), the worked example
families in `gallery` (closed forms where the geometry gives one; failed
checks come back as `Check` records, not exceptions), the independent
raster/extrapolation oracles and check suites in `verify`, and the
command-line front end in `cli`.
"""

__version__ = "0.1.0"

from .errors import (CheegerError, DegenerateInnerSet, DomainError,
                     EmptyInnerSet, EmptyRegion, InvalidGeometry, NoRoot,
                     NotADiffeomorphism, PropertyViolation, ReachViolation,
                     SelfIntersecting)
from .geom import (Arc, ArcPolygon, Segment, Vec2, distance_to_boundary, disk,
                   offset_outward_disk, polygon_from_points, reach_lower_bound,
                   round_corners)
from .spine import (Spine, SpinePiece, Strip, build_strip, circular_spine,
                    s_curve_spine, serpentine_spine, straight_spine,
                    strip_measures)
from .solver import (CheegerSolution, StripBounds, check_free_boundary,
                     inner_set, ratio_scan_oracle, solve_strip)
from .convex import (ConvexRegion, convex_from_points, inner_parallel_body,
                     solve_convex)

__all__ = [name for name in dir() if not name.startswith("_")]
