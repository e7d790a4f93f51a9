"""Exact planar kernel for regions bounded by line segments and circular arcs.

Areas and perimeters are closed-form (Green's theorem with circular-segment
terms), offsets by a disk stay inside the same representation, and distance
queries and piece-pair scans search a tree of bounding boxes over runs of
consecutive pieces.  Each kernel primitive has one implementation, on plain
floats read from the pieces (_piece_row): the point foot on a segment and on
an arc, the arc's bounding box, line/circle and circle/circle crossings.
They build a Vec2 only for a point a public function returns.  A loop is
checked and measured on its rows (_loop_measures), which also serves
callers that need only a loop's measures and build no pieces; the loop
keeps those rows and piece boxes, and builds its box tree on first use.
Everything is immutable and pure; an arc computes its start angle once, on
first read.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import InvalidGeometry, ReachViolation, SelfIntersecting

TAU = 2.0 * math.pi

# Relative tolerance for endpoint coincidence / on-circle checks.
REL_TOL = 1e-12
# Angular tolerance used when classifying junction turns.
ANG_TOL = 1e-9
# Angle (radians) past either end of an arc that still counts as on the arc.
ARC_END_SLACK = 1e-9
# Directions of the axis-extreme points of a circle, with their cosines and
# sines.
_QUARTER_TURNS = tuple((phi, math.cos(phi), math.sin(phi))
                       for phi in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi))
_by_distance = operator.itemgetter(0)


@dataclass(frozen=True)
class Vec2:
    """Point or displacement in the plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidGeometry(f"non-finite coordinates ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def unit(self) -> "Vec2":
        n = self.norm()
        if n == 0.0:
            raise InvalidGeometry("cannot normalize the zero vector")
        return Vec2(self.x / n, self.y / n)

    def perp(self) -> "Vec2":
        """Rotate by +90 degrees (counterclockwise)."""
        return Vec2(-self.y, self.x)

    def angle(self) -> float:
        return math.atan2(self.y, self.x)

    def distance(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def unit_from_angle(phi: float) -> Vec2:
    return Vec2(math.cos(phi), math.sin(phi))


def _on_arc(phi: float, a0: float, ccw: bool, sweep: float) -> bool:
    """Whether direction phi lies on the arc that starts at direction a0 and
    sweeps `sweep` in its sense, up to ARC_END_SLACK past either end."""
    off = (phi - a0) % TAU if ccw else (a0 - phi) % TAU
    return off <= sweep + ARC_END_SLACK or off >= TAU - ARC_END_SLACK


@dataclass(frozen=True)
class Segment:
    start: Vec2
    end: Vec2

    def __post_init__(self) -> None:
        if self.start.distance(self.end) == 0.0:
            raise InvalidGeometry("zero-length segment")

    @property
    def kind(self) -> str:
        return "segment"

    @property
    def length(self) -> float:
        return self.start.distance(self.end)

    def direction(self) -> Vec2:
        return (self.end - self.start).unit()

    def point_at(self, u: float) -> Vec2:
        return self.start + (self.end - self.start) * u

    def tangent_at_start(self) -> Vec2:
        return self.direction()

    def tangent_at_end(self) -> Vec2:
        return self.direction()

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)

    def translated(self, v: Vec2) -> "Segment":
        return Segment(self.start + v, self.end + v)

    def scaled(self, k: float) -> "Segment":
        return Segment(self.start * k, self.end * k)

    def subpiece(self, u0: float, u1: float) -> "Segment":
        return Segment(self.point_at(u0), self.point_at(u1))

    def bbox(self) -> tuple:
        return _row_box(*_piece_row(self))


@dataclass(frozen=True)
class Arc:
    """Circular arc from `start` to `end` around `center`.

    `ccw` gives the traversal sense, `sweep` the positive opening angle in
    (0, 2*pi).  Full circles are represented by two or more arcs.
    """

    start: Vec2
    end: Vec2
    center: Vec2
    radius: float
    ccw: bool
    sweep: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise InvalidGeometry(f"arc radius must be positive, got {self.radius}")
        if not (0.0 < self.sweep < TAU):
            raise InvalidGeometry(f"arc sweep must lie in (0, 2*pi), got {self.sweep}")
        scale = self.radius + abs(self.center.x) + abs(self.center.y) + 1.0
        for p in (self.start, self.end):
            if abs(p.distance(self.center) - self.radius) > 1e-12 * scale:
                raise InvalidGeometry("arc endpoint does not lie on its circle")

    @property
    def kind(self) -> str:
        return "arc"

    @property
    def length(self) -> float:
        return self.radius * self.sweep

    @property
    def signed_sweep(self) -> float:
        return self.sweep if self.ccw else -self.sweep

    @functools.cached_property
    def start_angle(self) -> float:
        """Direction of the start from the centre, computed on first read."""
        return math.atan2(self.start.y - self.center.y,
                          self.start.x - self.center.x)

    @staticmethod
    def from_angles(center: Vec2, radius: float, start_angle: float,
                    signed_sweep: float) -> "Arc":
        a1 = start_angle + signed_sweep
        return Arc(center + radius * unit_from_angle(start_angle),
                   center + radius * unit_from_angle(a1),
                   center, radius, signed_sweep > 0.0, abs(signed_sweep))

    def angle_at(self, u: float) -> float:
        return self.start_angle + self.signed_sweep * u

    def point_at(self, u: float) -> Vec2:
        return self.center + self.radius * unit_from_angle(self.angle_at(u))

    def tangent_at(self, u: float) -> Vec2:
        radial = unit_from_angle(self.angle_at(u))
        return radial.perp() if self.ccw else -radial.perp()

    def tangent_at_start(self) -> Vec2:
        return self.tangent_at(0.0)

    def tangent_at_end(self) -> Vec2:
        return self.tangent_at(1.0)

    def angle_offset(self, phi: float) -> float:
        """Angular distance from the start of the arc, along its sense."""
        if self.ccw:
            return (phi - self.start_angle) % TAU
        return (self.start_angle - phi) % TAU

    def reversed(self) -> "Arc":
        return Arc(self.end, self.start, self.center, self.radius,
                   not self.ccw, self.sweep)

    def translated(self, v: Vec2) -> "Arc":
        return Arc(self.start + v, self.end + v, self.center + v,
                   self.radius, self.ccw, self.sweep)

    def scaled(self, k: float) -> "Arc":
        return Arc(self.start * k, self.end * k, self.center * k,
                   self.radius * k, self.ccw, self.sweep)

    def subpiece(self, u0: float, u1: float) -> "Arc":
        return Arc.from_angles(self.center, self.radius, self.angle_at(u0),
                               self.signed_sweep * (u1 - u0))

    def bbox(self) -> tuple:
        return _row_box(*_piece_row(self))


BoundaryPiece = Union[Segment, Arc]


def arc_between(start: Vec2, end: Vec2, center: Vec2, ccw: bool) -> Arc:
    """Arc through two given points; sweep is inferred from the angles."""
    radius = start.distance(center)
    a0 = (start - center).angle()
    a1 = (end - center).angle()
    sweep = (a1 - a0) % TAU if ccw else (a0 - a1) % TAU
    if sweep == 0.0:
        sweep = TAU  # antipodal rounding; caller must avoid true full circles
    return Arc(start, end, center, radius, ccw, sweep)


class ArcPolygon:
    """Closed counterclockwise loop of segments and circular arcs.

    Clockwise input is reversed on construction.  Consecutive pieces must
    share endpoints to within 1e-12 of the loop diameter.  The checks and
    measures are `_loop_measures` of the pieces' rows, which the loop keeps
    with their boxes for its index.
    """

    __slots__ = ("pieces", "_area", "_perimeter", "_bbox", "_rows", "_boxes",
                 "_index", "_turns")

    def __init__(self, pieces: Sequence[BoundaryPiece]):
        pieces = tuple(pieces)
        rows = tuple(map(_piece_row, pieces))
        a, perimeter, boxes, bbox, clockwise = _loop_measures(rows)
        if clockwise:
            pieces = tuple(p.reversed() for p in reversed(pieces))
            rows = tuple(map(_piece_row, pieces))
            boxes = [_row_box(*row) for row in rows]
        self.pieces = pieces
        self._area = a
        self._perimeter = perimeter
        self._bbox = bbox
        self._rows = rows
        self._boxes = tuple(boxes)
        self._index = None  # filled by _piece_index
        self._turns = None  # filled by junction_turns

    @property
    def area(self) -> float:
        return self._area

    @property
    def perimeter(self) -> float:
        return self._perimeter

    @property
    def bounding_box(self) -> tuple:
        return self._bbox

    @property
    def diameter(self) -> float:
        x0, y0, x1, y1 = self._bbox
        return math.hypot(x1 - x0, y1 - y0)

    def vertices(self) -> list:
        return [p.start for p in self.pieces]

    def translated(self, v: Vec2) -> "ArcPolygon":
        return ArcPolygon(tuple(p.translated(v) for p in self.pieces))

    def scaled(self, k: float) -> "ArcPolygon":
        if k <= 0.0:
            raise InvalidGeometry("scale factor must be positive")
        return ArcPolygon(tuple(p.scaled(k) for p in self.pieces))

    def __repr__(self) -> str:
        return f"ArcPolygon({len(self.pieces)} pieces, area={self._area:.6g})"


def _loop_measures(rows: Sequence[tuple]) -> tuple:
    """Validate and measure a closed loop of piece rows (_piece_row).

    Returns (area, perimeter, boxes, bbox, clockwise): the enclosed area,
    the perimeter summed along the counterclockwise sense, each piece's box
    (_row_box), the loop's box, and whether the rows run clockwise, in
    which case the area and perimeter are those of the reversed loop.
    Raises InvalidGeometry for fewer than two pieces, a zero diameter, a
    junction gap above 16 * 1e-12 of the loop's coordinates or diameter,
    non-finite measures, or no enclosed area.

    The area is Green's theorem with a circular-segment term per arc.  Each
    junction enters once, as the midpoint of the end of one piece and the
    start of the next.  The two copies differ by up to coordinate*eps, and
    each piece would multiply its copy's error by its lever arm to the
    anchor.  Anchor at the first junction; the integral is translation
    invariant and local coordinates avoid cancellation on small
    far-from-origin loops.
    """
    n = len(rows)
    if n < 2:
        raise InvalidGeometry("an arc-polygon needs at least two pieces")
    boxes = [_row_box(is_arc, v) for is_arc, v in rows]
    xs = [x for box in boxes for x in (box[0], box[2])]
    ys = [y for box in boxes for y in (box[1], box[3])]
    diam = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    if diam == 0.0:
        raise InvalidGeometry("degenerate (zero-diameter) loop")
    # closure roundoff scales with coordinate magnitude, not loop size
    coord = max(map(abs, xs + ys))
    tol = max(diam, coord, 1e-9) * REL_TOL * 16.0
    for i in range(n):
        e = rows[i][1]
        s = rows[(i + 1) % n][1]
        gap = math.hypot(e[2] - s[0], e[3] - s[1])
        if gap > tol:
            raise InvalidGeometry(
                f"loop not closed at junction {i}: gap {gap:.3e} exceeds {tol:.3e}")
    mxs, mys = [], []
    for i in range(n):
        e = rows[i - 1][1]
        s = rows[i][1]
        mxs.append(e[2] + 0.5 * (s[0] - e[2]))
        mys.append(e[3] + 0.5 * (s[1] - e[3]))
    x0, y0 = mxs[0], mys[0]
    a = 0.0
    lengths = []
    for i, (is_arc, v) in enumerate(rows):
        ax, ay = mxs[i] - x0, mys[i] - y0
        bx, by = mxs[(i + 1) % n] - x0, mys[(i + 1) % n] - y0
        if is_arc:
            radius, sweep = v[6], v[9]
            cx, cy = v[4] - x0, v[5] - y0
            a += 0.5 * (radius * radius * (sweep if v[7] else -sweep)
                        + cx * (by - ay) - cy * (bx - ax))
            lengths.append(radius * sweep)
        else:
            a += 0.5 * (ax * by - ay * bx)
            lengths.append(math.hypot(v[0] - v[2], v[1] - v[3]))
    clockwise = a < 0.0
    if clockwise:
        a = -a
        lengths.reverse()
    perimeter = sum(lengths)
    if not (math.isfinite(a) and math.isfinite(perimeter)):
        raise InvalidGeometry(
            f"loop measures overflow: area {a}, perimeter {perimeter}")
    eps = diam * REL_TOL
    if a <= eps * eps:  # eps ** 2 would raise OverflowError on huge loops
        raise InvalidGeometry("loop encloses no area")
    return a, perimeter, boxes, (min(xs), min(ys), max(xs), max(ys)), clockwise


# ---------------------------------------------------------------------------
# point queries


def _piece_row(q: BoundaryPiece) -> tuple:
    """One piece as plain floats: (is_arc, values).  Segment values are
    start, end, end - start and |end - start|^2 (_segment_row); arc values
    are start, end, center, radius, ccw, start angle and sweep."""
    sx, sy, ex, ey = q.start.x, q.start.y, q.end.x, q.end.y
    if isinstance(q, Segment):
        return _segment_row(sx, sy, ex, ey)
    return True, (sx, sy, ex, ey, q.center.x, q.center.y, q.radius, q.ccw,
                  q.start_angle, q.sweep)


def _segment_row(sx: float, sy: float, ex: float, ey: float) -> tuple:
    dx, dy = ex - sx, ey - sy
    return False, (sx, sy, ex, ey, dx, dy, dx * dx + dy * dy)


def _row_piece(is_arc: bool, v: tuple) -> BoundaryPiece:
    """The piece a _piece_row describes."""
    if is_arc:
        return Arc(Vec2(v[0], v[1]), Vec2(v[2], v[3]), Vec2(v[4], v[5]), v[6],
                   v[7], v[9])
    return Segment(Vec2(v[0], v[1]), Vec2(v[2], v[3]))


def _row_box(is_arc: bool, v: tuple) -> tuple:
    """(x0, y0, x1, y1) of a piece row: its ends and, for an arc, each
    axis-extreme point of its circle that lies on it (_on_arc, inlined:
    every loop check and measure computes these boxes)."""
    if not is_arc:
        # min and max of two, spelled out as the builtins decide them
        sx, sy, ex, ey = v[0], v[1], v[2], v[3]
        return (ex if ex < sx else sx, ey if ey < sy else sy,
                ex if ex > sx else sx, ey if ey > sy else sy)
    sx, sy, ex, ey, cx, cy, radius, ccw, a0, sweep = v
    xs = [sx, ex]
    ys = [sy, ey]
    upto = sweep + ARC_END_SLACK
    for phi, cos, sin in _QUARTER_TURNS:
        off = (phi - a0) % TAU if ccw else (a0 - phi) % TAU
        if off <= upto or off >= TAU - ARC_END_SLACK:
            xs.append(cx + cos * radius)
            ys.append(cy + sin * radius)
    return (min(xs), min(ys), max(xs), max(ys))


def _piece_index(p: ArcPolygon) -> tuple:
    """The loop's index, built on first use: (rows, boxes, nodes).

    rows[i] is pieces[i] as a _piece_row and boxes[i] its _row_box, both
    kept from construction.
    nodes[k] = (x0, y0, x1, y1, lo, hi) bounds pieces lo..hi-1; its children
    2k+1 and 2k+2 halve the run, down to single pieces, and unused numbers
    hold None.  Consecutive pieces are neighbours in the plane, so the runs
    have compact boxes.

    Node boxes are padded by 1e-9 of the loop's coordinates plus diameter,
    which covers the rounding of a computed piece distance, and each arc by
    2 * ARC_END_SLACK of its radius on top: the distance to an arc is
    radial, |x - c| - radius, wherever the direction of x from the centre
    lies on the arc or within ARC_END_SLACK past either end (_on_arc).  A
    piece whose computed distance to x is d therefore lies in node boxes
    within d of x, up to the rounding of x's own coordinates.  The index is
    stored by one assignment of a finished tuple; two threads filling it at
    once build equal indexes, so the polygon stays safe to share.
    """
    index = p._index
    if index is None:
        base = 1e-9 * (max(map(abs, p._bbox)) + p.diameter)
        boxes = p._boxes
        nodes: list = [None] * (4 * len(boxes))

        def fill(k: int, lo: int, hi: int) -> tuple:
            if hi - lo == 1:
                q = p.pieces[lo]
                pad = base + 2.0 * ARC_END_SLACK * q.radius \
                    if isinstance(q, Arc) else base
                bx0, by0, bx1, by1 = boxes[lo]
                box = (bx0 - pad, by0 - pad, bx1 + pad, by1 + pad)
            else:
                mid = (lo + hi) // 2
                a = fill(2 * k + 1, lo, mid)
                b = fill(2 * k + 2, mid, hi)
                box = (min(a[0], b[0]), min(a[1], b[1]),
                       max(a[2], b[2]), max(a[3], b[3]))
            nodes[k] = box + (lo, hi)
            return box

        fill(0, 0, len(boxes))
        while nodes[-1] is None:
            nodes.pop()
        index = p._index = (p._rows, boxes, tuple(nodes))
    return index


def _near_pieces(nodes: tuple, box: tuple, first: int, reach: float) -> list:
    """Pieces j >= first, ascending, whose node boxes come within `reach` of
    `box` along both axes.  Each exact box gap along an axis is at least the
    gap of any node box that holds it, so every j whose exact _bbox_gap to
    `box` is at most `reach` is listed."""
    qx0, qy0, qx1, qy1 = box
    found = []
    stack = [0]
    while stack:
        k = stack.pop()
        x0, y0, x1, y1, lo, hi = nodes[k]
        if (hi <= first or qx0 - x1 > reach or x0 - qx1 > reach
                or qy0 - y1 > reach or y0 - qy1 > reach):
            continue
        if hi - lo == 1:
            found.append(lo)
        else:
            stack.append(2 * k + 2)  # the left child pops first
            stack.append(2 * k + 1)
    return found


def _segment_foot(px: float, py: float, row: tuple) -> tuple:
    """(d, at, x, y): the distance from (px, py) to a segment row, where the
    nearest point lies (-1 at or before the start, 1 at or past the end, 0
    between) and that point, the foot of the clamped projection
    t = ((x - s) . d) / |d|^2."""
    sx, sy, _, _, dx, dy, dd = row
    if dd == 0.0:
        return math.hypot(px - sx, py - sy), -1, sx, sy
    t = ((px - sx) * dx + (py - sy) * dy) / dd
    at = -1 if t <= 0.0 else (1 if t >= 1.0 else 0)
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    fx = sx + dx * t
    fy = sy + dy * t
    return math.hypot(px - fx, py - fy), at, fx, fy


def _arc_foot(px: float, py: float, row: tuple) -> tuple:
    """(d, at, x, y) for an arc row, as _segment_foot.  The distance is
    radial, |x - c| - radius, where _on_arc holds for the direction of x
    from the centre (within ARC_END_SLACK past an end the point counts as
    at that end), else to the nearer end, the start on a tie.  At the
    centre every point of the arc is nearest, and `at` is 0."""
    sx, sy, ex, ey, cx, cy, radius, ccw, a0, sweep = row
    vx = px - cx
    vy = py - cy
    r = math.hypot(vx, vy)
    if r > 1e-300:
        phi = math.atan2(vy, vx)
        off = (phi - a0) % TAU if ccw else (a0 - phi) % TAU
        if off <= sweep + ARC_END_SLACK or off >= TAU - ARC_END_SLACK:
            at = 0 if off <= sweep else (1 if off <= sweep + ARC_END_SLACK
                                         else -1)
            k = 1.0 / r
            return (abs(r - radius), at,
                    cx + vx * k * radius, cy + vy * k * radius)
    d0 = math.hypot(px - sx, py - sy)
    d1 = math.hypot(px - ex, py - ey)
    if d0 <= d1:
        return d0, (-1 if r > 1e-300 else 0), sx, sy
    return d1, (1 if r > 1e-300 else 0), ex, ey


def _inner_side(is_arc: bool, row: tuple, px: float, py: float) -> bool:
    """Whether (px, py) lies on the inner side of a piece: left of a
    segment's line, inside a counterclockwise arc's circle, outside a
    clockwise one's."""
    if is_arc:
        cx, cy, radius, ccw = row[4:8]
        return (math.hypot(px - cx, py - cy) < radius) == ccw
    sx, sy, ex, ey, dx, dy, dd = row
    return dx * (py - sy) - dy * (px - sx) > 0.0


def distance_to_boundary(p: ArcPolygon, x: Vec2) -> float:
    """Signed distance to the boundary: positive inside, negative outside.

    A depth-first search of the box tree, nearer child first, skips a node
    only when its padded box lies farther from x than the best distance so
    far by more than the rounding of x's coordinates.  So the magnitude is
    the least _segment_foot or _arc_foot distance over all pieces, bit for
    bit.

    The sign comes from the nearest piece: the open segment from x to a
    nearest boundary point does not meet the boundary.  When that point is
    interior to the piece, x is inside exactly on the piece's inner side.
    When it is a junction, the region near it is the intersection of the
    inner sides of its two pieces where the loop turns left, and their
    union where it turns right.  So in exact arithmetic x is outside at a
    left turn and inside at a right turn; the side tests of the two pieces
    keep that answer when rounding picks the junction over an equally near
    interior point.  At a tangent junction the piece's own side decides.
    """
    return _signed_depth(p, x.x, x.y, 0.0)


def _signed_depth(p: ArcPolygon, px: float, py: float, stop: float) -> float:
    """distance_to_boundary at (px, py), with an early end: the search stops
    at the first piece it finds closer than `stop` and returns that piece's
    distance, unsigned.  A result of magnitude below `stop` says only that
    the boundary comes that close; its sign means nothing.  A search that
    finds no such piece is the full search, so its result is the signed
    distance bit for bit.  With stop = 0 it never ends early.
    """
    rows, _, nodes = _piece_index(p)
    slack = 1e-9 * (abs(px) + abs(py))
    best = limit = limit2 = math.inf
    nearest = where = 0
    stack = [0]
    gaps = [0.0]
    while stack:
        k = stack.pop()
        if gaps.pop() > limit2:
            continue
        _, _, _, _, lo, hi = nodes[k]
        if hi - lo == 1:
            is_arc, row = rows[lo]
            d, at, _, _ = (_arc_foot if is_arc else _segment_foot)(px, py, row)
            if d < best:
                if d < stop:
                    return d
                best, nearest, where = d, lo, at
                limit = best + slack
                limit2 = limit * limit
            continue
        a = 2 * k + 1
        x0, y0, x1, y1, _, _ = nodes[a]
        dx = x0 - px if px < x0 else (px - x1 if px > x1 else 0.0)
        dy = y0 - py if py < y0 else (py - y1 if py > y1 else 0.0)
        ga = dx * dx + dy * dy
        b = a + 1
        x0, y0, x1, y1, _, _ = nodes[b]
        dx = x0 - px if px < x0 else (px - x1 if px > x1 else 0.0)
        dy = y0 - py if py < y0 else (py - y1 if py > y1 else 0.0)
        gb = dx * dx + dy * dy
        if gb < ga:
            a, b, ga, gb = b, a, gb, ga
        # the nearer child goes on top of the stack
        if gb <= limit2:
            stack.append(b)
            gaps.append(gb)
        if ga <= limit2:
            stack.append(a)
            gaps.append(ga)
    inside = _inner_side(*rows[nearest], px, py)
    if where:
        turn = junction_turns(p)[nearest if where > 0 else nearest - 1]
        if abs(turn) > ANG_TOL:
            other = _inner_side(*rows[(nearest + where) % len(rows)], px, py)
            inside = (inside and other) if turn > 0.0 else (inside or other)
    return best if inside else -best


# ---------------------------------------------------------------------------
# piece/piece distances and intersections


def _line_circle(px: float, py: float, dx: float, dy: float,
                 cx: float, cy: float, radius: float) -> list:
    """Parameters t with |(px, py) + t*(dx, dy) - (cx, cy)| = radius; the
    direction need not be a unit."""
    fx = px - cx
    fy = py - cy
    aa = dx * dx + dy * dy
    bb = 2.0 * (fx * dx + fy * dy)
    cc = fx * fx + fy * fy - radius * radius
    disc = bb * bb - 4.0 * aa * cc
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    return [(-bb - root) / (2.0 * aa), (-bb + root) / (2.0 * aa)]


def _circle_circle(ax: float, ay: float, ra: float,
                   bx: float, by: float, rb: float) -> list:
    """Points (x, y) where two circles meet: one where they touch, none
    where they miss or share a centre."""
    dx = bx - ax
    dy = by - ay
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        return []
    m = (ra * ra - rb * rb + dist * dist) / (2.0 * dist)
    h2 = ra * ra - m * m
    if h2 < 0.0:
        return []
    k = 1.0 / dist
    ux = dx * k
    uy = dy * k
    mx = ax + ux * m
    my = ay + uy * m
    h = math.sqrt(h2)
    if h == 0.0:
        return [(mx, my)]
    ox = -uy * h
    oy = ux * h
    return [(mx + ox, my + oy), (mx - ox, my - oy)]


def _nearest(cands: list) -> tuple:
    """The first candidate (d, ax, ay, bx, by) of least d, with its points."""
    d, ax, ay, bx, by = min(cands, key=_by_distance)
    return d, Vec2(ax, ay), Vec2(bx, by)


def _segment_segment(ra: tuple, rb: tuple) -> tuple:
    """(d, point on segment a, point on segment b)."""
    ax, ay, ex, ey, rx, ry, _ = ra
    bx, by, fx, fy, sx, sy, _ = rb
    denom = rx * sy - ry * sx
    if denom != 0.0:
        wx = bx - ax
        wy = by - ay
        t = (wx * sy - wy * sx) / denom
        u = (wx * ry - wy * rx) / denom
        if -1e-12 <= t <= 1.0 + 1e-12 and -1e-12 <= u <= 1.0 + 1e-12:
            x = Vec2(ax + rx * t, ay + ry * t)
            return 0.0, x, x
    cands = []
    for px, py in ((ax, ay), (ex, ey)):
        d, _, qx, qy = _segment_foot(px, py, rb)
        cands.append((d, px, py, qx, qy))
    for px, py in ((bx, by), (fx, fy)):
        d, _, qx, qy = _segment_foot(px, py, ra)
        cands.append((d, qx, qy, px, py))
    return _nearest(cands)


def _arc_segment(ra: tuple, rb: tuple) -> tuple:
    """(d, point on the arc, point on the segment).  A segment whose squared
    length underflows to 0 is a point: only the end candidates remain."""
    asx, asy, aex, aey, cx, cy, radius, ccw, a0, sweep = ra
    sx, sy, ex, ey, dx, dy, dd = rb
    crossings = _line_circle(sx, sy, dx, dy, cx, cy, radius) \
        if dd != 0.0 else []
    for t in crossings:
        if -1e-12 <= t <= 1.0 + 1e-12:
            t = min(max(t, 0.0), 1.0)
            x = sx + dx * t
            y = sy + dy * t
            if _on_arc(math.atan2(y - cy, x - cx), a0, ccw, sweep):
                pt = Vec2(x, y)
                return 0.0, pt, pt
    cands = []
    for px, py in ((sx, sy), (ex, ey)):
        d, _, qx, qy = _arc_foot(px, py, ra)
        cands.append((d, qx, qy, px, py))
    for px, py in ((asx, asy), (aex, aey)):
        d, _, qx, qy = _segment_foot(px, py, rb)
        cands.append((d, px, py, qx, qy))
    # the foot of the centre on the segment, projected radially onto the arc
    t = ((cx - sx) * dx + (cy - sy) * dy) / dd if dd != 0.0 else 0.0
    if 0.0 < t < 1.0:
        fx = sx + dx * t
        fy = sy + dy * t
        vx = fx - cx
        vy = fy - cy
        n = math.hypot(vx, vy)
        if n > 1e-300:
            qx = cx + vx / n * radius
            qy = cy + vy / n * radius
            if _on_arc(math.atan2(qy - cy, qx - cx), a0, ccw, sweep):
                cands.append((math.hypot(qx - fx, qy - fy), qx, qy, fx, fy))
    return _nearest(cands)


def _arc_arc(ra: tuple, rb: tuple) -> tuple:
    """(d, point on arc a, point on arc b)."""
    asx, asy, aex, aey, acx, acy, ar, accw, a0, asw = ra
    bsx, bsy, bex, bey, bcx, bcy, br, bccw, b0, bsw = rb
    atan2 = math.atan2
    for x, y in _circle_circle(acx, acy, ar, bcx, bcy, br):
        if _on_arc(atan2(y - acy, x - acx), a0, accw, asw) and \
           _on_arc(atan2(y - bcy, x - bcx), b0, bccw, bsw):
            pt = Vec2(x, y)
            return 0.0, pt, pt
    cands = []
    for px, py in ((asx, asy), (aex, aey)):
        d, _, qx, qy = _arc_foot(px, py, rb)
        cands.append((d, px, py, qx, qy))
    for px, py in ((bsx, bsy), (bex, bey)):
        d, _, qx, qy = _arc_foot(px, py, ra)
        cands.append((d, qx, qy, px, py))
    dx = bcx - acx
    dy = bcy - acy
    dist = math.hypot(dx, dy)
    if dist > 1e-12 * (ar + br):
        # the points of both circles on the line of centres
        k = 1.0 / dist
        ux = dx * k
        uy = dy * k
        for pax, pay in ((acx + ux * ar, acy + uy * ar),
                         (acx - ux * ar, acy - uy * ar)):
            if not _on_arc(atan2(pay - acy, pax - acx), a0, accw, asw):
                continue
            for pbx, pby in ((bcx + ux * br, bcy + uy * br),
                             (bcx - ux * br, bcy - uy * br)):
                if _on_arc(atan2(pby - bcy, pbx - bcx), b0, bccw, bsw):
                    cands.append((math.hypot(pax - pbx, pay - pby),
                                  pax, pay, pbx, pby))
    else:
        # near-concentric: radial gap wherever the angular spans overlap
        for phi in (a0, atan2(aey - acy, aex - acx),
                    b0, atan2(bey - bcy, bex - bcx)):
            if _on_arc(phi, a0, accw, asw) and _on_arc(phi, b0, bccw, bsw):
                c = math.cos(phi)
                s = math.sin(phi)
                pax = acx + c * ar
                pay = acy + s * ar
                pbx = bcx + c * br
                pby = bcy + s * br
                cands.append((math.hypot(pax - pbx, pay - pby),
                              pax, pay, pbx, pby))
    return _nearest(cands)


def piece_distance(a: BoundaryPiece, b: BoundaryPiece) -> tuple:
    """Minimal distance between two pieces with the realizing points.

    Zero, at a crossing point, when the pieces meet: a segment pair within
    1e-12 of both parameter ranges, or a point where the lines or circles
    cross that lies on both pieces.  Otherwise the least of these candidate
    distances, the first one on a tie: each end of a to b, each end of b to
    a (_segment_foot, _arc_foot), then for a segment and an arc the radial
    projection of the foot of the centre on the segment, and for two arcs
    the points on the line of centres, or, for nearly concentric arcs, the
    radial gaps at the four end directions.  Plain floats throughout; only
    the returned points are built as Vec2.
    """
    a_arc, ra = _piece_row(a)
    b_arc, rb = _piece_row(b)
    if not a_arc:
        if not b_arc:
            return _segment_segment(ra, rb)
        d, pb, pa = _arc_segment(rb, ra)
        return d, pa, pb
    if not b_arc:
        return _arc_segment(ra, rb)
    return _arc_arc(ra, rb)


def _bbox_gap(b1: tuple, b2: tuple) -> float:
    dx = max(b1[0] - b2[2], b2[0] - b1[2], 0.0)
    dy = max(b1[1] - b2[3], b2[1] - b1[3], 0.0)
    return math.hypot(dx, dy)


def assert_simple(p: ArcPolygon, tol: Optional[float] = None) -> None:
    """Raise SelfIntersecting if two non-adjacent pieces come within tol.

    Pieces i and j count as adjacent when every piece between them, one way
    round the loop, is no longer than tol: a run of such short pieces is
    one junction at the scale tol, and the pieces on either side of it meet
    within its length.  So the check proves that any two pieces with a
    piece longer than tol between them both ways round the loop stay more
    than tol apart; it says nothing about the pieces inside one run of
    short pieces.
    """
    if tol is None:
        tol = 1e-9 * p.diameter
    pieces = p.pieces
    n = len(pieces)
    short = [q.length <= tol for q in pieces]
    _, boxes, nodes = _piece_index(p)
    for i in range(n):
        # the first long piece after i, and before i (a negative index
        # wraps round the loop); the pieces up to them are adjacent to i
        after = i + 1
        while after < n and short[after]:
            after += 1
        before = i - 1
        while before > i - n and short[before]:
            before -= 1
        for j in _near_pieces(nodes, boxes[i], after + 1, tol):
            if j >= before + n:
                continue
            if _bbox_gap(boxes[i], boxes[j]) > tol:
                continue
            d, _, _ = piece_distance(pieces[i], pieces[j])
            if d <= tol:
                raise SelfIntersecting(
                    f"pieces {i} and {j} approach within {d:.3e}")


# ---------------------------------------------------------------------------
# turning, convexity, reach


def junction_turns(p: ArcPolygon) -> tuple:
    """Signed tangent turn at every junction (piece i end to piece i+1 start).

    Computed once per loop and filled like _piece_index.
    """
    turns = p._turns
    if turns is None:
        n = len(p.pieces)
        rows = []
        for i in range(n):
            t_in = p.pieces[i].tangent_at_end()
            t_out = p.pieces[(i + 1) % n].tangent_at_start()
            rows.append(math.atan2(t_in.cross(t_out), t_in.dot(t_out)))
        turns = p._turns = tuple(rows)
    return turns


def is_convex(p: ArcPolygon) -> bool:
    if any(isinstance(q, Arc) and not q.ccw for q in p.pieces):
        return False
    return all(t >= -ANG_TOL for t in junction_turns(p))


def reach_lower_bound(p: ArcPolygon) -> float:
    """Certified lower bound on the reach of the closed region.

    Convex regions have infinite reach.  A concave (reflex) vertex gives
    zero.  Otherwise the bound is the minimum of all concave arc radii and
    half the distance of every genuine outside bottleneck: a non-adjacent
    piece pair whose midpoint lies outside at distance about half the pair
    gap, so nothing else is closer to it.

    The pair scan starts from best = the least concave radius and tests
    only pairs whose box gap and distance are below 2 * best.  A pair is
    rejected as soon as some piece lies closer to its midpoint than the
    depth that would accept it, and its midpoint query (_signed_depth)
    ends there.
    """
    if any(t < -ANG_TOL for t in junction_turns(p)):
        return 0.0
    concave_radii = [q.radius for q in p.pieces
                     if isinstance(q, Arc) and not q.ccw]
    if not concave_radii:
        return math.inf  # convex
    best = min(concave_radii)
    pieces = p.pieces
    n = len(pieces)
    _, boxes, nodes = _piece_index(p)
    for i in range(n):
        # best only falls, so the pieces near i at 2 * best now include
        # every j the exact box test below lets through
        for j in _near_pieces(nodes, boxes[i], i + 2, 2.0 * best):
            if i == 0 and j == n - 1:
                continue
            if _bbox_gap(boxes[i], boxes[j]) >= 2.0 * best:
                continue
            d, pa, pb = piece_distance(pieces[i], pieces[j])
            if d >= 2.0 * best or d == 0.0:
                continue
            depth = 0.5 * d * (1.0 - 1e-6)
            sd = _signed_depth(p, (pa.x + pb.x) * 0.5, (pa.y + pb.y) * 0.5,
                               depth)
            if sd < 0.0 and -sd >= depth:
                best = min(best, 0.5 * d)
    return best


def reach_lower_bound_union(polys: Sequence[ArcPolygon]) -> float:
    """Certified reach bound for a disjoint union of regions."""
    best = min(reach_lower_bound(q) for q in polys)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            d = math.inf
            for a in polys[i].pieces:
                for b in polys[j].pieces:
                    dd, _, _ = piece_distance(a, b)
                    d = min(d, dd)
            best = min(best, 0.5 * d)
    return best


# ---------------------------------------------------------------------------
# outward disk offset (Minkowski sum with a ball)


def _outward_normal_at_end(piece: BoundaryPiece) -> Vec2:
    return -piece.tangent_at_end().perp()


def _outward_normal_at_start(piece: BoundaryPiece) -> Vec2:
    return -piece.tangent_at_start().perp()


def offset_outward_disk(p: ArcPolygon, rho: float,
                        reach_bound: Optional[float] = None) -> ArcPolygon:
    """Minkowski sum of the region with a closed disk of radius rho.

    Segments translate outward, counterclockwise arcs grow by rho, clockwise
    arcs shrink by rho, and every convex junction gains a vertex arc.  The
    result satisfies the Steiner identities
        area' = area + rho*perimeter + pi*rho^2
        perimeter' = perimeter + 2*pi*rho
    whenever rho does not exceed the reach of the region.  A caller that
    has proven a bound passes it as `reach_bound` (convex regions pass
    inf); without one the offset runs the pair scan of
    `reach_lower_bound`.  A region whose bound falls below rho raises
    ReachViolation, which names that bound.  Strip solves build their
    Cheeger set from the strip instead (`solver._cheeger_set`).
    """
    if rho < 0.0:
        raise InvalidGeometry("offset distance must be nonnegative")
    if rho == 0.0:
        return p
    if reach_bound is None:
        reach_bound = reach_lower_bound(p)
    if reach_bound < rho * (1.0 - 1e-12):
        raise ReachViolation(
            f"offset {rho} exceeds certified reach {reach_bound}")
    scale = p.diameter
    offset_pieces: list = []
    for piece in p.pieces:
        if isinstance(piece, Segment):
            nrm = _outward_normal_at_start(piece)
            a = piece.start + nrm * rho
            b = piece.end + nrm * rho
            # a segment far shorter than its coordinates can collapse when
            # translated; it contributes nothing to the offset boundary
            offset_pieces.append((piece, Segment(a, b))
                                 if a.distance(b) > 0.0 else (piece, None))
        elif piece.ccw:
            offset_pieces.append((piece, Arc.from_angles(
                piece.center, piece.radius + rho, piece.start_angle,
                piece.signed_sweep)))
        else:
            new_r = piece.radius - rho
            if new_r <= 1e-12 * max(scale, 1.0):
                offset_pieces.append((piece, None))  # arc collapses to a point
            else:
                offset_pieces.append((piece, Arc.from_angles(
                    piece.center, new_r, piece.start_angle, piece.signed_sweep)))
    out: list = []
    turns = junction_turns(p)
    for i, (orig, off) in enumerate(offset_pieces):
        if off is not None:
            out.append(off)
        turn = turns[i]
        # a turn below ANG_TOL still needs its arc once rho*turn, the gap it
        # would leave, outgrows the loop's closure tolerance
        if turn > ANG_TOL or (turn > 0.0 and rho * turn > 1e-12 * scale):
            vertex = orig.end
            a0 = _outward_normal_at_end(orig).angle()
            out.append(Arc.from_angles(vertex, rho, a0, turn))
        elif turn < -1e-7:
            raise ReachViolation(
                f"concave junction at piece {i} cannot be offset outward")
    return ArcPolygon(out)


# ---------------------------------------------------------------------------
# constructors used throughout tests, the gallery and the CLI


def polygon_from_points(points: Sequence[Vec2]) -> ArcPolygon:
    n = len(points)
    if n < 3:
        raise InvalidGeometry("need at least three vertices")
    return ArcPolygon([Segment(points[i], points[(i + 1) % n]) for i in range(n)])


def disk(center: Vec2, radius: float, arcs: int = 4) -> ArcPolygon:
    if arcs < 2:
        raise InvalidGeometry("a disk needs at least two arcs")
    step = TAU / arcs
    return ArcPolygon([Arc.from_angles(center, radius, i * step, step)
                       for i in range(arcs)])


def round_corners(p: ArcPolygon, radius: float,
                  corners: Optional[Iterable[int]] = None) -> ArcPolygon:
    """Replace convex segment junctions by tangent arcs of the given radius.

    `corners` indexes junctions (piece i end); by default every junction
    with a positive turn is rounded.  Adjacent pieces must be segments long
    enough to absorb the tangent cut.
    """
    turns = junction_turns(p)
    n = len(p.pieces)
    if corners is None:
        idx = sorted(i for i in range(n) if turns[i] > ANG_TOL)
    else:
        idx = sorted(set(corners))
    cut_start = [0.0] * n
    cut_end = [0.0] * n
    inserts: dict = {}
    for i in idx:
        j = (i + 1) % n
        a, b = p.pieces[i], p.pieces[j]
        if not (isinstance(a, Segment) and isinstance(b, Segment)):
            raise InvalidGeometry("can only round corners between segments")
        turn = turns[i]
        if turn <= ANG_TOL:
            raise InvalidGeometry(f"junction {i} is not convex")
        cut = radius * math.tan(0.5 * turn)
        cut_end[i] = cut
        cut_start[j] = cut
        vertex = a.end
        bisector = (b.direction() - a.direction()).unit()
        center = vertex + (radius / math.cos(0.5 * turn)) * bisector
        a0 = _outward_normal_at_end(a).angle()
        inserts[i] = Arc.from_angles(center, radius, a0, turn)
    out: list = []
    for i, piece in enumerate(p.pieces):
        if cut_start[i] or cut_end[i]:
            if cut_start[i] + cut_end[i] >= piece.length:
                raise InvalidGeometry(f"fillet radius {radius} too large at piece {i}")
            u0 = cut_start[i] / piece.length
            u1 = 1.0 - cut_end[i] / piece.length
            out.append(piece.subpiece(u0, u1))
        else:
            out.append(piece)
        if i in inserts:
            out.append(inserts[i])
    return ArcPolygon(out)
