"""Constructible example families: Pinocchio, bow-tie, two ears, two balls.

Each family carries closed-form perimeter/area expressions and an exact
arc-polygon realization; tests hold the two against each other.  The
Pinocchio and two-ears domains are self-Cheeger at the root of their
defining equations, the tight bow-tie has a four-arc Cheeger candidate
certified by the ratio identity, and the loose bow-tie witnesses failure
of the inner Cheeger formula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from . import geom
from .convex import convex_from_points, inner_parallel_body, solve_convex
from .errors import DomainError, EmptyInnerSet, PropertyViolation
from .geom import Arc, ArcPolygon, Segment, Vec2, arc_between
from .reporting import Check
from .roots import bisect

TAU = geom.TAU
SELF_CHEEGER_GRID = 10_000  # alpha grid points of verify_self_cheeger


# ---------------------------------------------------------------------------
# Pinocchio family


def pinocchio_g(theta: float) -> float:
    """Self-Cheeger defining function; its unique root fixes the head angle."""
    s, c = math.sin(theta), math.cos(theta)
    return (2.0 * (math.pi - theta) * s + 0.5 * math.pi * s * s
            - (math.pi - theta) - s * c)


@lru_cache(maxsize=1)
def solve_pinocchio_theta() -> float:
    """Root of g on (0, pi/2); its end values -pi and pi bracket it."""
    if abs(pinocchio_g(0.0) + math.pi) > 1e-12:
        raise PropertyViolation("g(0) != -pi")
    if abs(pinocchio_g(0.5 * math.pi) - math.pi) > 1e-12:
        raise PropertyViolation("g(pi/2) != pi")
    lo, hi = bisect(lambda t: -pinocchio_g(t), 0.0, 0.5 * math.pi, 1e-14)
    return 0.5 * (lo + hi)


def pinocchio_measures(theta: float, alpha: float) -> Tuple[float, float]:
    """(perimeter, area) of the head-and-nose union, in closed form."""
    if not 0.0 < theta < 0.5 * math.pi:
        raise DomainError(f"theta must lie in (0, pi/2), got {theta}")
    if not -1e-12 <= alpha <= 0.5 * math.pi - theta + 1e-12:
        raise DomainError(f"alpha must lie in [0, pi/2 - theta], got {alpha}")
    alpha = min(max(alpha, 0.0), 0.5 * math.pi - theta)
    s, c = math.sin(theta), math.cos(theta)
    sa, ca = math.sin(alpha), math.cos(alpha)
    perim = 2.0 * (math.pi - theta) + (math.pi - 2.0 * alpha) * s / ca
    area = ((math.pi - theta) + s * (c - s * sa / ca)
            + (s * s / (ca * ca)) * (0.5 * math.pi - alpha))
    return perim, area


def pinocchio_region(theta: float, alpha: float = 0.0,
                     nose: float = 0.0) -> ArcPolygon:
    """Exact boundary: one large arc plus the nose disk arc (or a stadium
    nose of length `nose` when alpha = 0)."""
    if nose < 0.0:
        raise DomainError("nose length must be nonnegative")
    if nose > 0.0 and abs(alpha) > 1e-12:
        raise DomainError("nose extension is defined for alpha = 0")
    s, c = math.sin(theta), math.cos(theta)
    m_hi = Vec2(c, s)
    m_lo = Vec2(c, -s)
    big = Arc.from_angles(Vec2(0.0, 0.0), 1.0, theta, TAU - 2.0 * theta)
    if nose == 0.0:
        r_d = s / math.cos(alpha)
        center = Vec2(c - r_d * math.sin(alpha), 0.0)
        small = arc_between(m_lo, m_hi, center, ccw=True)
        return ArcPolygon([big, small])
    tip = Vec2(c + nose, 0.0)
    return ArcPolygon([
        big,
        Segment(m_lo, Vec2(c + nose, -s)),
        Arc.from_angles(tip, s, -0.5 * math.pi, math.pi),
        Segment(Vec2(c + nose, s), m_hi),
    ])


def pinocchio_family(t: float) -> Tuple[float, float, float]:
    """(area, perimeter, ratio) of the nose-elongated set at extension t.

    The ratio perimeter/area stays constant in t, so every truncation of the
    nose is again a Cheeger set of the elongated domain.
    """
    if t < 0.0:
        raise DomainError("nose extension must be nonnegative")
    theta0 = solve_pinocchio_theta()
    r0 = math.sin(theta0)
    p0, a0 = pinocchio_measures(theta0, 0.0)
    area = a0 + 2.0 * r0 * t
    perim = p0 + 2.0 * t
    return area, perim, perim / area


def verify_self_cheeger(theta0: float) -> List[Check]:
    """Grid check that no nose truncation beats the full domain's ratio."""
    s0 = math.sin(theta0)
    alpha_max = 0.5 * math.pi - theta0
    worst_trig = math.inf
    worst_ratio = math.inf
    for i in range(1, SELF_CHEEGER_GRID + 1):
        alpha = alpha_max * i / SELF_CHEEGER_GRID
        sa, ca = math.sin(alpha), math.cos(alpha)
        lhs = 0.5 * math.pi * (1.0 - 2.0 * ca + ca * ca)
        rhs = alpha * (1.0 - 2.0 * ca) + sa * ca
        margin = rhs - lhs
        if alpha >= 1e-4:
            worst_trig = min(worst_trig, margin)
        p, a = pinocchio_measures(theta0, alpha)
        if alpha >= 1e-4:
            worst_ratio = min(worst_ratio, p * s0 - a)
    return [
        Check("pinocchio_trig_inequality", worst_trig > 0.0,
              f"min margin {worst_trig:.3e} over {SELF_CHEEGER_GRID}-point "
              "alpha grid"),
        Check("pinocchio_ratio_inequality", worst_ratio > 0.0,
              f"min of P*sin(theta0) - A is {worst_ratio:.3e}"),
    ]


# ---------------------------------------------------------------------------
# face with two ears


def two_ears_measures(theta: float) -> Tuple[float, float]:
    if not 0.0 < theta < 0.5 * math.pi:
        raise DomainError(f"theta must lie in (0, pi/2), got {theta}")
    s = math.sin(theta)
    perim = 2.0 * (math.pi - 2.0 * theta) + 2.0 * math.pi * s
    area = math.pi - 2.0 * theta + math.sin(2.0 * theta) + math.pi * s * s
    return perim, area


def two_ears_region(theta: float) -> ArcPolygon:
    s, c = math.sin(theta), math.cos(theta)
    right = Arc.from_angles(Vec2(c, 0.0), s, -0.5 * math.pi, math.pi)
    top = Arc.from_angles(Vec2(0.0, 0.0), 1.0, theta, math.pi - 2.0 * theta)
    left = Arc.from_angles(Vec2(-c, 0.0), s, 0.5 * math.pi, math.pi)
    bottom = Arc.from_angles(Vec2(0.0, 0.0), 1.0, math.pi + theta,
                             math.pi - 2.0 * theta)
    return ArcPolygon([right, top, left, bottom])


@lru_cache(maxsize=1)
def two_ears_theta() -> float:
    """Unique angle at which the two-ears face is self-Cheeger."""

    def f(theta: float) -> float:
        p, a = two_ears_measures(theta)
        return p * math.sin(theta) - a

    eps = 1e-12
    if not (f(eps) < 0.0 and f(0.5 * math.pi - eps) > 0.0):
        raise PropertyViolation("defining equation lost its sign change")
    lo, hi = bisect(lambda t: -f(t), eps, 0.5 * math.pi - eps, 1e-14)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# two disjoint balls


@dataclass(frozen=True)
class TwoBallsReport:
    components: Tuple[ArcPolygon, ArcPolygon]
    union_ratio: float
    component_ratios: Tuple[float, float]
    h: float
    union_of_half_balls_exceeds_cheeger_set: bool
    checks: Tuple[Check, ...]


def two_balls_example() -> TwoBallsReport:
    """Union of disjoint balls of radii 1 and 2/3.

    The whole union has ratio 30/13 but the Cheeger set is the large ball
    alone (h = 2), while the union of all contained balls of radius 1/2 is
    the full domain, strictly larger than the Cheeger set.
    """
    b1 = geom.disk(Vec2(0.0, 0.0), 1.0)
    b2 = geom.disk(Vec2(2.5, 0.0), 2.0 / 3.0)
    union_ratio = (b1.perimeter + b2.perimeter) / (b1.area + b2.area)
    r1 = b1.perimeter / b1.area
    r2 = b2.perimeter / b2.area
    h = min(r1, r2)
    # a disk is the union of its balls of radius 1/2 iff its radius >= 1/2
    strictly_larger = min(q.radius for b in (b1, b2) for q in b.pieces) >= 0.5
    checks = (
        Check("two_balls_union_ratio", abs(union_ratio - 30.0 / 13.0) <= 1e-12,
              f"P(G)/|G| = {union_ratio!r} vs 30/13"),
        Check("two_balls_component_ratios",
              abs(r1 - 2.0) <= 1e-12 and abs(r2 - 3.0) <= 1e-12,
              f"ratios {r1!r}, {r2!r}"),
        Check("two_balls_h", abs(h - 2.0) <= 1e-12, f"h = {h!r}"),
        Check("two_balls_union_of_balls_strictly_larger", strictly_larger,
              "every point of both disks is covered by a contained half ball"),
    )
    return TwoBallsReport(components=(b1, b2), union_ratio=union_ratio,
                          component_ratios=(r1, r2), h=h,
                          union_of_half_balls_exceeds_cheeger_set=strictly_larger,
                          checks=checks)


# ---------------------------------------------------------------------------
# bow-ties


@dataclass(frozen=True)
class BowTie:
    gap: float
    region: ArcPolygon
    alpha_corner: float
    cut_x: float
    waist_y: float


@dataclass(frozen=True)
class BowTieCandidate:
    region: ArcPolygon
    radius: float
    ratio: float
    corner_arcs: Tuple[Arc, ...]


@lru_cache(maxsize=1)
def triangle_solution():
    """(region, solution): the unit triangle the bow-ties are cut from, as a
    `ConvexRegion`, and its `solve_convex` solution."""
    tri = convex_from_points([Vec2(0.0, -0.5), Vec2(math.sqrt(3.0) / 2.0, 0.0),
                              Vec2(0.0, 0.5)])
    return tri, solve_convex(tri)


def build_bowtie(gap: float = 0.0) -> BowTie:
    """Cut the unit triangle with the vertical tangent of its Cheeger set and
    reflect; `gap` moves the two waist corners apart vertically."""
    if gap < 0.0:
        raise DomainError("gap must be nonnegative")
    _, sol = triangle_solution()
    x_c = sol.cheeger_set.bounding_box[2]
    w = 0.5 - x_c / math.sqrt(3.0)
    waist_y = w + gap
    if waist_y >= 0.5 - 1e-6:
        raise DomainError(f"gap {gap} opens the waist past the outer corners")
    pts = [Vec2(0.0, -0.5), Vec2(x_c, -waist_y), Vec2(2.0 * x_c, -0.5),
           Vec2(2.0 * x_c, 0.5), Vec2(x_c, waist_y), Vec2(0.0, 0.5)]
    region = geom.polygon_from_points(pts)
    alpha = math.pi - math.atan2(x_c, 0.5 - waist_y)
    return BowTie(gap=gap, region=region, alpha_corner=alpha,
                  cut_x=x_c, waist_y=waist_y)


def bowtie_cheeger_candidate(bt: BowTie) -> BowTieCandidate:
    """Four-arc Cheeger candidate of the tight bow-tie.

    The four convex corners are rounded with a common radius a fixed by the
    ratio identity perimeter = area / a; the two concave waist corners stay,
    since any cut near them trades boundary one-for-one while losing area.
    Rounding a corner of turn t removes a*(2*tan(t/2) - t) of perimeter and
    a^2*(tan(t/2) - t/2) of area, so with c the sum of 2*tan(t/2) - t over
    the rounded corners the identity is (c/2)*a^2 - P*a + A = 0, and a is
    its smaller root.
    """
    if bt.gap != 0.0:
        raise DomainError("the four-arc candidate is built for the tight bow-tie")
    convex_corners = [1, 2, 4, 5]
    turns = geom.junction_turns(bt.region)
    c = sum(2.0 * math.tan(0.5 * turns[i]) - turns[i] for i in convex_corners)
    p0, a0 = bt.region.perimeter, bt.region.area
    a = 2.0 * a0 / (p0 + math.sqrt(p0 * p0 - 2.0 * c * a0))
    region = geom.round_corners(bt.region, a, corners=convex_corners)
    arcs = tuple(p for p in region.pieces if isinstance(p, Arc))
    return BowTieCandidate(region=region, radius=a,
                           ratio=region.perimeter / region.area,
                           corner_arcs=arcs)


def bowtie_arcs_check(cand: BowTieCandidate) -> Check:
    """The candidate's corner arcs are four, with one radius and one sweep."""
    radii = {round(a.radius, 12) for a in cand.corner_arcs}
    sweeps = {round(a.sweep, 12) for a in cand.corner_arcs}
    return Check(
        "bowtie_four_congruent_arcs",
        len(cand.corner_arcs) == 4 and len(radii) == 1 and len(sweeps) == 1,
        f"radii {radii}, sweeps {sweeps}")


def loose_bowtie_inner_formula(alpha_corner: float, r: float) -> float:
    """Area 2*alpha*r^2 of the loose bow-tie inner set at its Cheeger depth,
    which exceeds pi*r^2 whenever the waist half-angle exceeds pi/2."""
    if alpha_corner < 0.5 * math.pi - 1e-12:
        raise DomainError("waist half-angle below pi/2 is not a loose bow-tie")
    if r <= 0.0:
        raise DomainError("depth must be positive")
    return 2.0 * alpha_corner * r * r


def loose_bowtie_inner_set(bt: BowTie, r: float) -> List[ArcPolygon]:
    """Both components of the loose bow-tie region at distance >= r from the
    boundary.  Requires the waist to pinch the set apart (r > waist_y); each
    component is then the inner parallel body of the triangle bounded by an
    end edge and its two sloped edges, extended to the axis.  The two wedge
    tips face each other across the waist at a gap below 2r, so the pair
    cannot have reach r."""
    if bt.gap <= 0.0:
        raise DomainError("use a positive gap for the loose bow-tie")
    if r <= bt.waist_y:
        raise DomainError(
            f"depth {r} does not disconnect the inner set (waist {bt.waist_y})")
    # the left half's sloped edges, extended, meet on the axis at x_a
    x_a = bt.cut_x * 0.5 / (0.5 - bt.waist_y)
    left = [Vec2(0.0, -0.5), Vec2(x_a, 0.0), Vec2(0.0, 0.5)]
    right = [Vec2(2.0 * bt.cut_x - v.x, v.y) for v in left]
    comps = [inner_parallel_body(convex_from_points(tri), r).region
             for tri in (left, right)]
    tip = max(comps[0].vertices(), key=lambda v: v.x)
    if tip.distance(Vec2(bt.cut_x, bt.waist_y)) < r * (1.0 - 1e-12):
        raise EmptyInnerSet(
            "waist corner disk swallows the wedge tip; not a wedge regime")
    return comps
