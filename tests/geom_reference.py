"""Reference versions of the geom kernel, kept for the tests to compare with.

These are the straightforward per-piece queries written with `Vec2`
operations: the point/piece distances, a piece's bounding box, the
line/circle, circle/circle and segment/segment intersections, the
piece/piece distance with its realising points, and the distance plus
winding number of a point.  The library computes the same expressions on
plain floats (`geom.piece_distance`, `geom.distance_to_boundary`,
`Arc.bbox`); the tests require the results to agree bit for bit.  Nothing
here calls the float primitives it is compared with.

The inner parallel body of a convex region is kept here as the loop that
rebuilds every junction after each collapsed support, which
`convex.inner_parallel_body` must match bit for bit.
"""
from __future__ import annotations

import math
from typing import List, Optional

from cheeger import geom
from cheeger.convex import ConvexRegion, _Support, _support_vertex
from cheeger.errors import EmptyInnerSet, InvalidGeometry
from cheeger.geom import TAU, Arc, ArcPolygon, Segment, Vec2


def end_angle(a: Arc) -> float:
    return (a.end - a.center).angle()


def point_to_segment(x: Vec2, s: Segment) -> tuple:
    d = s.end - s.start
    dd = d.dot(d)
    if dd == 0.0:
        return x.distance(s.start), s.start
    t = (x - s.start).dot(d) / dd
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    foot = s.point_at(t)
    return x.distance(foot), foot


def point_to_arc(x: Vec2, a: Arc) -> tuple:
    v = x - a.center
    r = v.norm()
    if r > 1e-300:
        phi = v.angle()
        if a.contains_angle(phi):
            q = a.center + a.radius * (v * (1.0 / r))
            return abs(r - a.radius), q
    d0 = x.distance(a.start)
    d1 = x.distance(a.end)
    return (d0, a.start) if d0 <= d1 else (d1, a.end)


def point_to_piece(x: Vec2, piece) -> tuple:
    if isinstance(piece, Segment):
        return point_to_segment(x, piece)
    return point_to_arc(x, piece)


def piece_box(piece) -> tuple:
    """(x0, y0, x1, y1): the ends and, for an arc, each axis-extreme point
    of its circle that lies on it."""
    xs = [piece.start.x, piece.end.x]
    ys = [piece.start.y, piece.end.y]
    if isinstance(piece, Arc):
        for phi in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
            if piece.contains_angle(phi):
                p = piece.center + piece.radius * geom.unit_from_angle(phi)
                xs.append(p.x)
                ys.append(p.y)
    return (min(xs), min(ys), max(xs), max(ys))


def line_circle(p0: Vec2, d: Vec2, center: Vec2, radius: float) -> list:
    """Parameters t with |p0 + t*d - center| = radius (d need not be unit)."""
    f = p0 - center
    aa = d.dot(d)
    bb = 2.0 * f.dot(d)
    cc = f.dot(f) - radius * radius
    disc = bb * bb - 4.0 * aa * cc
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    return [(-bb - root) / (2.0 * aa), (-bb + root) / (2.0 * aa)]


def circle_circle(c1: Vec2, r1: float, c2: Vec2, r2: float) -> list:
    d = c2 - c1
    dist = d.norm()
    if dist == 0.0:
        return []
    a = (r1 * r1 - r2 * r2 + dist * dist) / (2.0 * dist)
    h2 = r1 * r1 - a * a
    if h2 < 0.0:
        return []
    u = d * (1.0 / dist)
    mid = c1 + u * a
    h = math.sqrt(max(h2, 0.0))
    if h == 0.0:
        return [mid]
    off = u.perp() * h
    return [mid + off, mid - off]


def segment_intersection(a: Segment, b: Segment) -> Optional[Vec2]:
    p, r = a.start, a.end - a.start
    q, s = b.start, b.end - b.start
    denom = r.cross(s)
    if denom == 0.0:
        return None
    t = (q - p).cross(s) / denom
    u = (q - p).cross(r) / denom
    if -1e-12 <= t <= 1.0 + 1e-12 and -1e-12 <= u <= 1.0 + 1e-12:
        return p + r * t
    return None


def piece_distance(a, b) -> tuple:
    """Minimal distance between two pieces with the realizing points."""
    if isinstance(a, Segment) and isinstance(b, Segment):
        x = segment_intersection(a, b)
        if x is not None:
            return 0.0, x, x
        cands = []
        for pt in (a.start, a.end):
            d, q = point_to_segment(pt, b)
            cands.append((d, pt, q))
        for pt in (b.start, b.end):
            d, q = point_to_segment(pt, a)
            cands.append((d, q, pt))
        return min(cands, key=lambda c: c[0])
    if isinstance(a, Segment):
        d, pb, pa = piece_distance(b, a)
        return d, pa, pb
    if isinstance(b, Segment):
        seg, arc = b, a
        dvec = seg.end - seg.start
        dd = dvec.dot(dvec)
        # a segment whose squared length underflows to 0 is a point
        crossings = line_circle(seg.start, dvec, arc.center, arc.radius) \
            if dd != 0.0 else []
        for t in crossings:
            if -1e-12 <= t <= 1.0 + 1e-12:
                pt = seg.point_at(min(max(t, 0.0), 1.0))
                if arc.contains_angle((pt - arc.center).angle()):
                    return 0.0, pt, pt
        cands = []
        for pt in (seg.start, seg.end):
            d, q = point_to_arc(pt, arc)
            cands.append((d, q, pt))
        for pt in (arc.start, arc.end):
            d, q = point_to_segment(pt, seg)
            cands.append((d, pt, q))
        t = (arc.center - seg.start).dot(dvec) / dd if dd != 0.0 else 0.0
        if 0.0 < t < 1.0:
            foot = seg.point_at(t)
            v = foot - arc.center
            if v.norm() > 1e-300:
                q = arc.center + arc.radius * v.unit()
                if arc.contains_angle((q - arc.center).angle()):
                    cands.append((q.distance(foot), q, foot))
        best = min(cands, key=lambda c: c[0])
        return best[0], best[1], best[2]
    # arc/arc
    for x in circle_circle(a.center, a.radius, b.center, b.radius):
        if a.contains_angle((x - a.center).angle()) and \
           b.contains_angle((x - b.center).angle()):
            return 0.0, x, x
    cands = []
    for pt in (a.start, a.end):
        d, q = point_to_arc(pt, b)
        cands.append((d, pt, q))
    for pt in (b.start, b.end):
        d, q = point_to_arc(pt, a)
        cands.append((d, q, pt))
    sep = b.center - a.center
    dist = sep.norm()
    if dist > 1e-12 * (a.radius + b.radius):
        u = sep * (1.0 / dist)
        for pa in (a.center + u * a.radius, a.center - u * a.radius):
            if not a.contains_angle((pa - a.center).angle()):
                continue
            for pb in (b.center + u * b.radius, b.center - u * b.radius):
                if b.contains_angle((pb - b.center).angle()):
                    cands.append((pa.distance(pb), pa, pb))
    else:
        # near-concentric: radial gap wherever the angular spans overlap
        for phi in (a.start_angle, end_angle(a), b.start_angle, end_angle(b)):
            if a.contains_angle(phi) and b.contains_angle(phi):
                pa = a.center + a.radius * geom.unit_from_angle(phi)
                pb = b.center + b.radius * geom.unit_from_angle(phi)
                cands.append((pa.distance(pb), pa, pb))
    return min(cands, key=lambda c: c[0])


def nearest_and_winding(p: ArcPolygon, x: Vec2) -> tuple:
    """Distance from x to the boundary and the winding number around x.

    One pass over plain floats that evaluates the expressions of
    point_to_segment, point_to_arc and the per-piece winding angle (chord
    angle, in the arc's own sense when x is inside its circle) in their order,
    so the distance equals the least point_to_piece distance bit for bit
    and the winding angles add up in piece order.
    """
    px, py = x.x, x.y
    hypot, atan2, tau = math.hypot, math.atan2, TAU
    wrap = tau - 1e-9
    best = math.inf
    total = 0.0
    for is_arc, row in map(geom._piece_row, p.pieces):
        if is_arc:
            sx, sy, ex, ey, cx, cy, radius, ccw, a0, sweep = row
            vx = px - cx
            vy = py - cy
            r = hypot(vx, vy)
            d = -1.0
            if r > 1e-300:
                phi = atan2(vy, vx)
                off = (phi - a0) % tau if ccw else (a0 - phi) % tau
                if off <= sweep + 1e-9 or off >= wrap:
                    d = abs(r - radius)
            if d < 0.0:
                d0 = hypot(px - sx, py - sy)
                d1 = hypot(px - ex, py - ey)
                d = d0 if d0 <= d1 else d1
        else:
            sx, sy, ex, ey, dx, dy, dd = row
            if dd == 0.0:
                d = hypot(px - sx, py - sy)
            else:
                t = ((px - sx) * dx + (py - sy) * dy) / dd
                t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
                d = hypot(px - (sx + dx * t), py - (sy + dy * t))
        if d < best:
            best = d
        ax = sx - px
        ay = sy - py
        bx = ex - px
        by = ey - py
        w = atan2(ax * by - ay * bx, ax * bx + ay * by)
        if is_arc and r < radius:
            # seen from inside its circle an arc turns only its own way
            w = w % tau if ccw else -(-w % tau)
        total += w
    return best, total / tau


def inner_parallel_body(c: ConvexRegion, r: float) -> ConvexRegion:
    """The inner parallel body rebuilt from scratch after every drop: all
    junctions and all spans are recomputed each time a support collapses,
    so it makes O(n^2) crossings where convex.inner_parallel_body makes
    O(n).  Both share the offset supports and their crossings
    (convex._Support, convex._support_vertex); the tests compare the
    drop loops."""
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
    while True:
        n = len(supports)
        if n < 2:
            raise EmptyInnerSet(f"inner parallel body empty at depth {r}")
        vertices: List[Optional[Vec2]] = []
        failed = -1
        for i in range(n):
            j = (i + 1) % n
            hint = (supports[i].hint_end + supports[j].hint_start) * 0.5
            v = _support_vertex(supports[i], supports[j], hint)
            if v is None:
                failed = i
                break
            vertices.append(v)
        if failed >= 0:
            j = (failed + 1) % n
            drop = failed if supports[failed].orig_length <= \
                supports[j].orig_length else j
            del supports[drop]
            continue
        worst = -1
        worst_span = math.inf
        spans: List[float] = []
        for i in range(n):
            v_prev = vertices[(i - 1) % n]
            v_next = vertices[i]
            s = supports[i]
            if s.is_line:
                span = (v_next - v_prev).dot(s.direction)
            else:
                a0 = (v_prev - s.center).angle()
                a1 = (v_next - s.center).angle()
                span = (a1 - a0) % geom.TAU
                if span > s.orig_sweep + 0.5:
                    span = -1.0  # flipped past its original span
            spans.append(span)
            if span < worst_span:
                worst_span = span
                worst = i
        if worst_span <= tol:
            del supports[worst]
            continue
        pieces: List = []
        for i in range(n):
            v_prev = vertices[(i - 1) % n]
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
