"""Cheeger constant and Cheeger set of convex regions.

For a bounded convex plane region the Cheeger set is the union of all balls
of radius r = 1/h contained in it, obtained as the outward offset of the
inner parallel body at the unique depth where that body's area equals
pi*r^2.  Inner parallel bodies are built by direct inward offsetting with
vertex clipping, so the area is exact (piecewise quadratic in r).  Pieces
that collapse are dropped one at a time: at the first pair of neighbours
whose offsets do not meet, the one with the shorter original piece (the
first on a tie); otherwise the first piece of least span, when that span
is within 1e-12 of the diameter.  Each drop re-intersects only the two
neighbours it leaves adjacent, not the whole loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import geom
from .errors import EmptyInnerSet, InvalidGeometry, PropertyViolation
from .geom import Arc, ArcPolygon, Segment, Vec2
from .solver import CheegerSolution, _solve_inner_formula


@dataclass(frozen=True)
class ConvexRegion:
    region: ArcPolygon

    def __post_init__(self) -> None:
        if not geom.is_convex(self.region):
            raise InvalidGeometry("region is not convex")

    @property
    def area(self) -> float:
        return self.region.area

    @property
    def perimeter(self) -> float:
        return self.region.perimeter


def convex_from_points(points: Sequence[Vec2]) -> ConvexRegion:
    return ConvexRegion(geom.polygon_from_points(list(points)))


# ---------------------------------------------------------------------------
# inner parallel body by inward offsetting with vertex clipping


class _Support:
    """Supporting curve of one inward-offset boundary piece."""

    __slots__ = ("is_line", "point", "direction", "center", "radius",
                 "hint_start", "hint_end", "orig_sweep", "orig_length")

    def __init__(self, piece, depth: float):
        self.hint_start = piece.start
        self.hint_end = piece.end
        self.orig_length = piece.length
        if isinstance(piece, Segment):
            self.is_line = True
            d = piece.direction()
            self.point = piece.start + depth * d.perp()
            self.direction = d
            self.center = None
            self.radius = 0.0
            self.orig_sweep = 0.0
        else:
            self.is_line = False
            self.point = None
            self.direction = None
            self.center = piece.center
            self.radius = piece.radius - depth
            self.orig_sweep = piece.sweep


def _support_vertex(a: _Support, b: _Support, hint: Vec2) -> Optional[Vec2]:
    if a.is_line and b.is_line:
        denom = a.direction.cross(b.direction)
        if abs(denom) < 1e-14:
            return None
        t = (b.point - a.point).cross(b.direction) / denom
        return a.point + a.direction * t
    if a.is_line or b.is_line:
        line, circ = (a, b) if a.is_line else (b, a)
        off = circ.center - line.point
        if abs(abs(off.cross(line.direction)) - circ.radius) \
                <= 1e-12 * (circ.radius + 1.0):
            # tangential junction: rounding splits the double root about
            # 1e-8 apart, which would tilt the junction past ANG_TOL
            return line.point + line.direction * off.dot(line.direction)
        px, py = line.point.x, line.point.y
        dx, dy = line.direction.x, line.direction.y
        ts = geom._line_circle(px, py, dx, dy, circ.center.x, circ.center.y,
                               circ.radius)
        if not ts:
            return None
        cands = [Vec2(px + dx * t, py + dy * t) for t in ts]
        return min(cands, key=lambda q: q.distance(hint))
    same_center = a.center.distance(b.center) <= 1e-12 * (a.radius + b.radius + 1.0)
    if same_center and abs(a.radius - b.radius) <= 1e-12 * (a.radius + 1.0):
        return a.center + a.radius * (hint - a.center).unit()
    pts = [Vec2(x, y) for x, y in geom._circle_circle(
        a.center.x, a.center.y, a.radius, b.center.x, b.center.y, b.radius)]
    if not pts:
        return None
    return min(pts, key=lambda q: q.distance(hint))


def _junction(supports: List[_Support], i: int) -> Optional[Vec2]:
    """Vertex where support i meets the next one, or None if they miss."""
    a = supports[i]
    b = supports[(i + 1) % len(supports)]
    return _support_vertex(a, b, (a.hint_end + b.hint_start) * 0.5)


def _span(s: _Support, v_prev: Optional[Vec2],
          v_next: Optional[Vec2]) -> Optional[float]:
    """Length of a line support, or sweep of an arc support, between its two
    vertices; None while either vertex is missing."""
    if v_prev is None or v_next is None:
        return None
    if s.is_line:
        return (v_next - v_prev).dot(s.direction)
    a0 = (v_prev - s.center).angle()
    a1 = (v_next - s.center).angle()
    span = (a1 - a0) % geom.TAU
    if span > s.orig_sweep + 0.5:
        return -1.0  # flipped past its original span
    return span


def inner_parallel_body(c: ConvexRegion, r: float) -> ConvexRegion:
    """Points of the region at distance at least r from its boundary.

    Each boundary piece is offset inward by r and joined to its neighbours
    at their crossings.  Supports are then dropped one at a time until
    every junction exists and every span exceeds a 1e-12 * diameter
    tolerance: the first missing junction in loop order drops the support
    of the shorter original piece of its pair (the first on a tie);
    otherwise the first least span drops if it is within the tolerance.
    A drop re-intersects only the two neighbours it leaves adjacent and
    recomputes their spans, so the whole collapse costs O(n) crossings.
    """
    if r < 0.0:
        raise InvalidGeometry("depth must be nonnegative")
    if r == 0.0:
        return c
    scale = max(c.region.diameter, 1.0)
    tol = 1e-12 * scale
    supports: List[_Support] = []
    for piece in c.region.pieces:
        s = _Support(piece, r)
        if not s.is_line and s.radius <= tol:
            continue  # arc swallowed by the offset
        supports.append(s)
    n = len(supports)
    if n < 2:
        raise EmptyInnerSet(f"inner parallel body empty at depth {r}")
    # vertices[i] joins supports i and i + 1; spans[i] lies between
    # vertices i - 1 and i
    vertices = [_junction(supports, i) for i in range(n)]
    spans = [_span(supports[i], vertices[i - 1], vertices[i])
             for i in range(n)]
    while True:
        if None in vertices:
            i = vertices.index(None)
            j = (i + 1) % n
            k = i if supports[i].orig_length <= supports[j].orig_length else j
        else:
            # starting from inf, a NaN span is never the least
            worst = min(math.inf, *spans)
            if worst > tol:
                break
            k = spans.index(worst)
        del supports[k], vertices[k], spans[k]
        n -= 1
        if n < 2:
            raise EmptyInnerSet(f"inner parallel body empty at depth {r}")
        p = (k - 1) % n  # the neighbours k - 1 and k + 1, now p and p + 1
        q = k % n
        vertices[p] = _junction(supports, p)
        spans[p] = _span(supports[p], vertices[p - 1], vertices[p])
        spans[q] = _span(supports[q], vertices[p], vertices[q])
    pieces: List = []
    for i in range(n):
        v_prev = vertices[i - 1]
        v_next = vertices[i]
        s = supports[i]
        if s.is_line:
            pieces.append(Segment(v_prev, v_next))
        else:
            a0 = (v_prev - s.center).angle()
            pieces.append(Arc.from_angles(s.center, s.radius, a0, spans[i]))
    try:
        return ConvexRegion(ArcPolygon(pieces))
    except InvalidGeometry as exc:
        raise EmptyInnerSet(
            f"inner parallel body degenerates at depth {r}: {exc}") from exc


def _arc_depth_floor(region: ArcPolygon, a: Arc) -> float:
    """Lower bound on the depth, in the region, of the points of the inner
    arc `a` whose outward normals lie inside its own angular range.

    A source arc of radius R around the same centre (inner_parallel_body
    keeps each arc's centre) makes the support function center.u + R along
    its angular span, so those normals give depth R - a.radius.  Where `a`
    overruns the span by delta, the source's end point still bounds the
    support from below by center.u + R*cos(delta).  -inf without a source.
    """
    floor = -math.inf
    for src in region.pieces:
        if isinstance(src, Arc) and src.center == a.center:
            s0 = (a.start_angle - src.start_angle + math.pi) % geom.TAU - math.pi
            delta = max(0.0, -s0, s0 + a.sweep - src.sweep)
            floor = max(floor,
                        src.radius * math.cos(min(delta, math.pi)) - a.radius)
    return floor


def solve_convex(c: ConvexRegion) -> CheegerSolution:
    """Cheeger constant and Cheeger set of a convex region.

    r solves area(inner_parallel_body(r)) = pi*r^2 by safeguarded Newton
    steps (`solver._solve_inner_formula`); the Cheeger set is the inner body
    E_r offset back outward by r.  It lies in the region exactly when depth
    >= r on E_r.  Depth is the minimum over supporting lines of the distance
    to the line, so it is concave and its minimum over the convex E_r lies
    at a vertex or on an arc.  Along an arc, a line whose normal lies
    outside the arc's angular range is nearest at an arc end, and the
    normals inside it are bounded by `_arc_depth_floor`.  So testing each
    vertex and each arc floor against r (less 1e-9*scale) is a proof.
    """
    hi = math.sqrt(c.area / math.pi)
    last: dict = {}  # the body at the depth measured last, the root

    def measure(r: float) -> Tuple[float, float]:
        last.clear()
        body = last[r] = inner_parallel_body(c, r).region
        return body.area, body.perimeter

    def build(r: float) -> Tuple[ArcPolygon, ArcPolygon]:
        # convex: infinite reach
        return last[r], geom.offset_outward_disk(last[r], r,
                                                 reach_bound=math.inf)

    sol = _solve_inner_formula(measure, build, 1e-12 * hi, hi)
    # rounding in the offset grows with the coordinates, not just the size
    scale = max(c.region.diameter, 1.0,
                *(abs(v) for v in c.region.bounding_box))
    floor = sol.r - 1e-9 * scale
    # each piece ends where the next one starts, up to the loop's closure
    # gap, so the piece starts are all the vertices
    for piece in sol.inner_set.pieces:
        v = piece.start
        depth = geom.distance_to_boundary(c.region, v)
        if depth < floor:
            raise PropertyViolation(
                f"Cheeger set escapes the region: inner vertex "
                f"({v.x:.6g}, {v.y:.6g}) lies at depth {depth:.6g} < r")
        if isinstance(piece, Arc) and _arc_depth_floor(c.region, piece) < floor:
            raise PropertyViolation(
                f"Cheeger set containment unproven: the inner arc from "
                f"({v.x:.6g}, {v.y:.6g}) leaves the span of its source arc")
    return sol
