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

An `ArcPolygon` is validated and measured here as it was on its pieces:
`loop_measures` takes every piece box, the diameter, the closure gaps and
`signed_area` on the pieces, reversing a clockwise loop before summing its
perimeter.  `geom._loop_measures` does this on piece rows, for
`ArcPolygon` and for the strip inner sets the solver only measures.

The raster contour length is kept here on `Vec2` points (`grid_perimeter`,
`simplify`); `verify.grid_perimeter` computes it on float pairs.

The strip chain is kept here as it was written with pieces: `level_chain`
builds an `Arc` or `Segment` per spine piece, `chain_pieces` rebuilds each
through `subpiece` and reverses it in a second pass, and `inner_set` reads
those pieces, with its trims found on the whole level chains.
`spine.level_chain` and `solver.inner_set` compute on float rows and must
match them bit for bit, error messages included.  The library finds the
trims once, on the rows near the strip's ends (`solver._strip_ends`), and
makes only the rows between them, so `inner_set_pieces` is the
whole-chain reference for that search, its crossings and its errors.

The ball-to-ball path of a strip lives only here, on that piece chain:
`ball_to_ball_path` inverts the strip parametrization (`locate`), slides
each end along its level curve until the ball touches the left end
(`level_tangency_parameter`, a bisection) and joins the two touching
positions.  The strip property tests in `test_spine.py` run on it.
"""
from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from cheeger import geom
from cheeger.convex import ConvexRegion, _Support, _support_vertex
from cheeger.errors import (CheegerError, DegenerateInnerSet, DomainError,
                            EmptyInnerSet, EmptyRegion, InvalidGeometry,
                            NotADiffeomorphism, SelfIntersecting)
from cheeger.geom import (TAU, Arc, ArcPolygon, BoundaryPiece, Segment, Vec2,
                          unit_from_angle)
from cheeger.roots import bisect
from cheeger.spine import Spine, Strip


def contains_angle(a: Arc, phi: float) -> bool:
    """Whether direction phi lies on the arc, up to ARC_END_SLACK past
    either end."""
    return geom._on_arc(phi, a.start_angle, a.ccw, a.sweep)


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
        if contains_angle(a, phi):
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
            if contains_angle(piece, phi):
                p = piece.center + piece.radius * geom.unit_from_angle(phi)
                xs.append(p.x)
                ys.append(p.y)
    return (min(xs), min(ys), max(xs), max(ys))


def signed_area(pieces: Sequence[BoundaryPiece]) -> float:
    # Each junction enters once, as the midpoint of the end of one piece and
    # the start of the next.  The two copies differ by up to coordinate*eps,
    # and each piece would multiply its copy's error by its lever arm to the
    # anchor.  Anchor at the first junction; the integral is translation
    # invariant and local coordinates avoid cancellation on small
    # far-from-origin loops.
    n = len(pieces)
    xs, ys = [], []
    for i in range(n):
        e, s = pieces[i - 1].end, pieces[i].start
        xs.append(e.x + 0.5 * (s.x - e.x))
        ys.append(e.y + 0.5 * (s.y - e.y))
    x0, y0 = xs[0], ys[0]
    total = 0.0
    for i, p in enumerate(pieces):
        ax, ay = xs[i] - x0, ys[i] - y0
        bx, by = xs[(i + 1) % n] - x0, ys[(i + 1) % n] - y0
        if isinstance(p, Segment):
            total += 0.5 * (ax * by - ay * bx)
        else:
            cx, cy = p.center.x - x0, p.center.y - y0
            total += 0.5 * (p.radius * p.radius * p.signed_sweep
                            + cx * (by - ay) - cy * (bx - ax))
    return total


def loop_measures(pieces: Sequence[BoundaryPiece]) -> tuple:
    """(area, perimeter, pieces, bounding box) of the loop, as
    `ArcPolygon(pieces)` computed them on the pieces; the pieces come back
    counterclockwise."""
    pieces = tuple(pieces)
    if len(pieces) < 2:
        raise InvalidGeometry("an arc-polygon needs at least two pieces")
    xs, ys = [], []
    for p in pieces:
        x0, y0, x1, y1 = piece_box(p)
        xs += [x0, x1]
        ys += [y0, y1]
    diam = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    if diam == 0.0:
        raise InvalidGeometry("degenerate (zero-diameter) loop")
    # closure roundoff scales with coordinate magnitude, not loop size
    coord = max(abs(v) for v in xs + ys)
    tol = max(diam, coord, 1e-9) * geom.REL_TOL * 16.0
    n = len(pieces)
    for i in range(n):
        gap = pieces[i].end.distance(pieces[(i + 1) % n].start)
        if gap > tol:
            raise InvalidGeometry(
                f"loop not closed at junction {i}: gap {gap:.3e} exceeds {tol:.3e}")
    a = signed_area(pieces)
    if a < 0.0:
        pieces = tuple(p.reversed() for p in reversed(pieces))
        a = -a
    perimeter = sum(p.length for p in pieces)
    if not (math.isfinite(a) and math.isfinite(perimeter)):
        raise InvalidGeometry(
            f"loop measures overflow: area {a}, perimeter {perimeter}")
    eps = diam * geom.REL_TOL
    if a <= eps * eps:  # eps ** 2 would raise OverflowError on huge loops
        raise InvalidGeometry("loop encloses no area")
    return a, perimeter, pieces, (min(xs), min(ys), max(xs), max(ys))


def simplify(points: List[Vec2], eps: float) -> List[Vec2]:
    """Douglas-Peucker on an open polyline, endpoints kept."""
    n = len(points)
    if n <= 2:
        return points
    keep = [False] * n
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        i0, i1 = stack.pop()
        if i1 - i0 < 2:
            continue
        a, b = points[i0], points[i1]
        ab = b - a
        ab_len = ab.norm()
        worst, worst_i = -1.0, -1
        for i in range(i0 + 1, i1):
            v = points[i] - a
            d = abs(ab.cross(v)) / ab_len if ab_len > 0 else v.norm()
            if d > worst:
                worst, worst_i = d, i
        if worst > eps:
            keep[worst_i] = True
            stack.append((i0, worst_i))
            stack.append((worst_i, i1))
    return [points[i] for i in range(n) if keep[i]]


def grid_perimeter(m) -> float:
    """`verify.grid_perimeter` on Vec2 points, over the same contour loops."""
    from cheeger import verify

    if m.count == 0:
        raise EmptyRegion("mask holds no set cells")
    total = 0.0
    for loop in verify._boundary_loops(m.bits):
        pts = [Vec2(float(i), float(j)) for i, j in loop]
        raw_len = sum(pts[k].distance(pts[(k + 1) % len(pts)])
                      for k in range(len(pts)))
        eps = min(2.0, raw_len / 20.0)
        far = max(range(len(pts)), key=lambda k: pts[k].distance(pts[0]))
        if far == 0:
            total += raw_len * m.cell
            continue
        half1 = simplify(pts[:far + 1], eps)
        half2 = simplify(pts[far:] + [pts[0]], eps)
        length = sum(half1[k].distance(half1[k + 1])
                     for k in range(len(half1) - 1))
        length += sum(half2[k].distance(half2[k + 1])
                      for k in range(len(half2) - 1))
        total += length * m.cell
    return total


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
                if contains_angle(arc, (pt - arc.center).angle()):
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
                if contains_angle(arc, (q - arc.center).angle()):
                    cands.append((q.distance(foot), q, foot))
        best = min(cands, key=lambda c: c[0])
        return best[0], best[1], best[2]
    # arc/arc
    for x in circle_circle(a.center, a.radius, b.center, b.radius):
        if contains_angle(a, (x - a.center).angle()) and \
           contains_angle(b, (x - b.center).angle()):
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
            if not contains_angle(a, (pa - a.center).angle()):
                continue
            for pb in (b.center + u * b.radius, b.center - u * b.radius):
                if contains_angle(b, (pb - b.center).angle()):
                    cands.append((pa.distance(pb), pa, pb))
    else:
        # near-concentric: radial gap wherever the angular spans overlap
        for phi in (a.start_angle, end_angle(a), b.start_angle, end_angle(b)):
            if contains_angle(a, phi) and contains_angle(b, phi):
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


def level_chain(spine: Spine, level: float) -> List[Tuple[BoundaryPiece, float, float]]:
    """Parallel curve at signed offset `level`, as (piece, t0, t1) entries.

    Traversal follows increasing spine parameter; each entry covers the
    spine interval [t0, t1].
    """
    out: List[Tuple[BoundaryPiece, float, float]] = []
    for i, piece in enumerate(spine.pieces):
        t0, p0, theta0 = spine._states[i]
        t1 = t0 + piece.length
        start = p0 + level * unit_from_angle(theta0).perp()
        if piece.curvature == 0.0:
            end = start + piece.length * unit_from_angle(theta0)
            out.append((Segment(start, end), t0, t1))
        else:
            k = piece.curvature
            if abs(k) * piece.length >= geom.TAU:
                raise SelfIntersecting(
                    f"spine piece {i} turns by {abs(k) * piece.length:.3f} rad "
                    ">= 2*pi; the strip overlaps itself")
            center = p0 + (1.0 / k) * unit_from_angle(theta0).perp()
            radius = abs(1.0 / k - level)
            if radius <= 1e-12:
                raise NotADiffeomorphism(
                    f"parallel curve at level {level} collapses on piece {i}")
            a0 = (start - center).angle()
            out.append((Arc.from_angles(center, radius, a0, k * piece.length),
                        t0, t1))
    return out


def chain_pieces(chain: Sequence[Tuple[BoundaryPiece, float, float]],
                 t_from: float, t_to: float,
                 reverse: bool = False) -> List[BoundaryPiece]:
    """Extract the sub-chain covering [t_from, t_to], optionally reversed."""
    if not t_from < t_to:
        raise DomainError("empty parameter range")
    pieces: List[BoundaryPiece] = []
    for piece, t0, t1 in chain:
        lo = max(t0, t_from)
        hi = min(t1, t_to)
        if hi - lo <= 1e-12 * (t1 - t0):
            continue
        u0 = (lo - t0) / (t1 - t0)
        u1 = (hi - t0) / (t1 - t0)
        sub = piece.subpiece(max(u0, 0.0), min(u1, 1.0))
        pieces.append(sub)
    if reverse:
        pieces = [q.reversed() for q in reversed(pieces)]
    return pieces


def _chain_line_crossings(chain, anchor: Vec2, normal: Vec2, offset: float
                          ) -> List[float]:
    """Spine parameters where a level chain crosses {(x-anchor).normal = offset}."""
    ts: List[float] = []
    # a point of the line and its direction
    tx = anchor.x + normal.x * offset
    ty = anchor.y + normal.y * offset
    dx, dy = -normal.y, normal.x
    for piece, t0, t1 in chain:
        if isinstance(piece, Segment):
            f0 = (piece.start - anchor).dot(normal) - offset
            f1 = (piece.end - anchor).dot(normal) - offset
            if f0 == f1:
                continue
            u = f0 / (f0 - f1)
            if -1e-9 <= u <= 1.0 + 1e-9:
                ts.append(t0 + min(max(u, 0.0), 1.0) * (t1 - t0))
        else:
            cx, cy = piece.center.x, piece.center.y
            for lam in geom._line_circle(tx, ty, dx, dy, cx, cy, piece.radius):
                off = piece.angle_offset(
                    math.atan2(ty + dy * lam - cy, tx + dx * lam - cx))
                if off <= piece.sweep + geom.ARC_END_SLACK:
                    u = min(off / piece.sweep, 1.0)
                    ts.append(t0 + u * (t1 - t0))
                elif off >= geom.TAU - geom.ARC_END_SLACK:
                    ts.append(t0)
    return ts


def inner_set(st: Strip, r: float) -> ArcPolygon:
    """Region of the strip at distance >= r from its boundary."""
    return ArcPolygon(inner_set_pieces(st, r))


def inner_set_pieces(st: Strip, r: float) -> List[BoundaryPiece]:
    """The pieces of the strip's inner set at depth r, in loop order.

    Bounded by the two parallel curves at levels +-(s-r) and two trim
    segments parallel to the end segments at depth r.
    """
    s = st.halfwidth
    if r >= s:
        raise EmptyInnerSet(f"depth {r} is not below the halfwidth {s}")
    if r <= 0.0:
        raise DomainError("depth must be positive")
    spine = st.spine
    L = spine.length
    lo_chain = level_chain(spine, -(s - r))
    hi_chain = level_chain(spine, s - r)
    u_left = spine.direction(0.0)
    a_left = spine.point(0.0)
    u_right = -spine.direction(L)
    a_right = spine.point(L)

    def first_cross(chain) -> float:
        ts = _chain_line_crossings(chain, a_left, u_left, r)
        if not ts:
            raise DegenerateInnerSet("no left trim crossing at this depth")
        return min(ts)

    def last_cross(chain) -> float:
        ts = _chain_line_crossings(chain, a_right, u_right, r)
        if not ts:
            raise DegenerateInnerSet("no right trim crossing at this depth")
        return max(ts)

    tl_lo, tr_lo = first_cross(lo_chain), last_cross(lo_chain)
    tl_hi, tr_hi = first_cross(hi_chain), last_cross(hi_chain)
    if tl_lo >= tr_lo or tl_hi >= tr_hi:
        raise DegenerateInnerSet(
            f"end trims cross at depth {r} (strip too short)")
    bottom = chain_pieces(lo_chain, tl_lo, tr_lo)
    top = chain_pieces(hi_chain, tl_hi, tr_hi, reverse=True)
    p_br = bottom[-1].end
    p_tr = top[0].start
    p_tl = top[-1].end
    p_bl = bottom[0].start
    min_len = 1e-12 * max(L, 1.0)
    if p_br.distance(p_tr) <= min_len or p_tl.distance(p_bl) <= min_len:
        raise DegenerateInnerSet(f"trim segment degenerates at depth {r}")
    return bottom + [Segment(p_br, p_tr)] + top + [Segment(p_tl, p_bl)]


class BallNotContained(CheegerError):
    """A requested ball is not contained in the strip."""


def locate(st: Strip, x: Vec2) -> Tuple[float, float]:
    """Invert the strip parametrization: x = gamma(t) + rho*normal(t)."""
    best: Optional[Tuple[float, float]] = None
    spine = st.spine
    for i, piece in enumerate(spine.pieces):
        t0, p0, theta0 = spine._states[i]
        if piece.curvature == 0.0:
            d = unit_from_angle(theta0)
            u = (x - p0).dot(d)
            if -1e-9 <= u <= piece.length + 1e-9:
                t = t0 + min(max(u, 0.0), piece.length)
                rho = (x - spine.point(t)).dot(spine.normal(t))
                if abs(rho) <= st.halfwidth * (1.0 + 1e-9):
                    if best is None or abs(rho) < abs(best[1]):
                        best = (t, rho)
        else:
            k = piece.curvature
            center = p0 + (1.0 / k) * unit_from_angle(theta0).perp()
            v = x - center
            if v.norm() < 1e-300:
                continue
            # angle of the radial vector advances at rate k along the piece
            a_start = (p0 - center).angle()
            off = ((v.angle() - a_start) % geom.TAU) * (1.0 if k > 0 else -1.0)
            if k < 0:
                off = off % geom.TAU
            dt = off / abs(k)
            for cand in (dt, dt - geom.TAU / abs(k)):
                if -1e-9 <= cand <= piece.length + 1e-9:
                    t = t0 + min(max(cand, 0.0), piece.length)
                    rho = (x - spine.point(t)).dot(spine.normal(t))
                    if abs(rho) <= st.halfwidth * (1.0 + 1e-9):
                        if best is None or abs(rho) < abs(best[1]):
                            best = (t, rho)
    if best is None:
        raise DomainError(f"point ({x.x}, {x.y}) is not inside the strip")
    return best


def level_tangency_parameter(st: Strip, rho: float, r: float,
                             t_hint: float) -> float:
    """Smallest t at which the ball of radius r centered on the level-rho
    curve is still inside the strip; at the returned t it touches the left
    end segment."""
    def clear(t: float) -> float:
        return geom.distance_to_boundary(st.boundary, st.point(t, rho)) - r

    if clear(t_hint) < -1e-9:
        raise BallNotContained("hint center lost containment")
    lo = t_hint
    step = max(t_hint / 8.0, 1e-3 * st.length)
    while lo > 1e-12 * st.length and clear(lo) >= 0.0:
        lo = max(lo - step, 0.0)
        step *= 2.0
        if lo == 0.0:
            break
    if clear(lo) >= 0.0:
        return lo
    width = 1e-12 * max(st.length, 1.0)
    _, hi = bisect(lambda t: -1.0 if clear(t) >= 0.0 else 1.0, lo, t_hint,
                   width)
    return hi


def ball_to_ball_path(st: Strip, r: float, x0: Vec2, x1: Vec2
                      ) -> List[BoundaryPiece]:
    """Piecewise path along which a ball of radius r rolls from x0 to x1.

    Each endpoint is first slid at constant transversal level until its ball
    touches the left end segment, then the two tangent positions are joined
    by a straight segment parallel to that end.  Every piece has curvature
    at most 1/r and the rolling ball stays inside the strip throughout.
    """
    if r > st.halfwidth * (1.0 + 1e-12):
        raise BallNotContained(f"ball radius {r} exceeds halfwidth {st.halfwidth}")
    for x in (x0, x1):
        if geom.distance_to_boundary(st.boundary, x) < r * (1.0 - 1e-9):
            raise BallNotContained(
                f"ball of radius {r} at ({x.x}, {x.y}) is not inside the strip")
    if x0.distance(x1) <= 1e-12 * max(st.length, 1.0):
        return []
    t0, rho0 = locate(st, x0)
    t1, rho1 = locate(st, x1)
    chain0 = level_chain(st.spine, rho0)
    if abs(rho0 - rho1) <= 1e-12 * st.halfwidth:
        lo, hi = min(t0, t1), max(t0, t1)
        return chain_pieces(chain0, lo, hi, reverse=(t0 > t1))
    ta = level_tangency_parameter(st, rho0, r, t0)
    tb = level_tangency_parameter(st, rho1, r, t1)
    pieces: List[BoundaryPiece] = []
    if t0 - ta > 1e-12 * st.length:
        pieces += chain_pieces(chain0, ta, t0, reverse=True)
    pa = st.point(ta, rho0)
    pb = st.point(tb, rho1)
    if pa.distance(pb) > 1e-12 * max(st.length, 1.0):
        pieces.append(Segment(pa, pb))
    if t1 - tb > 1e-12 * st.length:
        chain1 = level_chain(st.spine, rho1)
        pieces += chain_pieces(chain1, tb, t1)
    return pieces
