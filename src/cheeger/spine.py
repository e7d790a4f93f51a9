"""Spinal curves and the curved strips they generate.

A spine is an arc-length parametrized curve of piecewise-constant signed
curvature, so it is C^{1,1} and all of its parallel curves are again exact
chains of segments and circular arcs.  A strip is the union of the open
transversal segments of half-width s centered on the spine; its boundary is
assembled from the two parallel curves at levels +s and -s plus the two end
segments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from . import geom
from .errors import (DomainError, InvalidGeometry, NotADiffeomorphism,
                     SelfIntersecting)
from .geom import Arc, ArcPolygon, BoundaryPiece, Segment, Vec2, unit_from_angle


@dataclass(frozen=True)
class SpinePiece:
    length: float
    curvature: float

    def __post_init__(self) -> None:
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise InvalidGeometry(f"piece length must be positive, got {self.length}")
        # a piece has no halfwidth: build_strip checks the fold rule
        # halfwidth*|curvature| < 1
        if not math.isfinite(self.curvature):
            raise InvalidGeometry(
                f"curvature must be finite, got {self.curvature}")


@dataclass(frozen=True)
class Spine:
    """Arc-length parametrized piecewise-circular curve."""

    pieces: Tuple[SpinePiece, ...]
    start_point: Vec2 = Vec2(0.0, 0.0)
    _states: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        if not self.pieces:
            raise InvalidGeometry("spine needs at least one piece")
        # cumulative (t, point, direction angle) at the start of each piece
        states = []
        t = 0.0
        p = self.start_point
        theta = 0.0  # every spine starts along +x
        for piece in self.pieces:
            states.append((t, p, theta))
            p, theta = _advance(p, theta, piece.curvature, piece.length)
            t += piece.length
        states.append((t, p, theta))
        object.__setattr__(self, "_states", tuple(states))
        if self.point(0.0).distance(self.point(self.length)) \
                <= 1e-9 * max(self.length, 1.0):
            raise InvalidGeometry("closed spines (annuli) are not supported")

    @property
    def length(self) -> float:
        return self._states[-1][0]

    @property
    def max_curvature(self) -> float:
        return max(abs(p.curvature) for p in self.pieces)

    def _locate(self, t: float) -> Tuple[int, float]:
        if t < -1e-12 or t > self.length * (1.0 + 1e-12):
            raise DomainError(f"arclength {t} outside [0, {self.length}]")
        t = min(max(t, 0.0), self.length)
        lo, hi = 0, len(self.pieces) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._states[mid][0] <= t:
                lo = mid
            else:
                hi = mid - 1
        return lo, t - self._states[lo][0]

    def point(self, t: float) -> Vec2:
        i, dt = self._locate(t)
        _, p, theta = self._states[i]
        q, _ = _advance(p, theta, self.pieces[i].curvature, dt)
        return q

    def direction_angle(self, t: float) -> float:
        i, dt = self._locate(t)
        return self._states[i][2] + self.pieces[i].curvature * dt

    def direction(self, t: float) -> Vec2:
        return unit_from_angle(self.direction_angle(t))

    def normal(self, t: float) -> Vec2:
        """Left normal: the direction rotated by +90 degrees."""
        return self.direction(t).perp()

    def scaled(self, k: float) -> "Spine":
        return Spine(tuple(SpinePiece(p.length * k, p.curvature / k)
                           for p in self.pieces),
                     self.start_point * k)


def _advance(p: Vec2, theta: float, kappa: float, ds: float) -> Tuple[Vec2, float]:
    if ds == 0.0:
        return p, theta
    if kappa == 0.0:
        return p + ds * unit_from_angle(theta), theta
    r = 1.0 / kappa
    center = p + r * unit_from_angle(theta).perp()
    theta2 = theta + kappa * ds
    q = center - r * unit_from_angle(theta2).perp()
    return q, theta2


# spine builders ------------------------------------------------------------


def straight_spine(length: float) -> Spine:
    return Spine((SpinePiece(length, 0.0),))


def circular_spine(curvature: float, length: float) -> Spine:
    return Spine((SpinePiece(length, curvature),))


def s_curve_spine(curvature: float, length: float) -> Spine:
    return Spine((SpinePiece(0.5 * length, curvature),
                  SpinePiece(0.5 * length, -curvature)))


def serpentine_spine(curvature: float, length: float,
                     piece_turn: float = 0.7) -> Spine:
    """Wiggly spine of alternating signed curvature with pieces turning by
    about `piece_turn` radians each.  The piece count is even and divides
    the length exactly, so strips of different lengths end in congruent
    wiggle phases; the direction oscillates inside a fixed cone, keeping
    the spine valid at any length."""
    if curvature <= 0.0:
        raise InvalidGeometry("serpentine curvature must be positive")
    n = max(2, 2 * round(length * curvature / (2.0 * piece_turn)))
    ell = length / n
    pieces = [SpinePiece(ell, curvature if i % 2 == 0 else -curvature)
              for i in range(n)]
    return Spine(tuple(pieces))


# strips ---------------------------------------------------------------------


@dataclass(frozen=True)
class Strip:
    spine: Spine
    halfwidth: float
    boundary: ArcPolygon
    # (x, y, ux, uy) at each end: the spine point and the unit direction
    # into the strip, at t = 0 and at t = L
    _ends: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        sp = self.spine
        L = sp.length
        a, u = sp.point(0.0), sp.direction(0.0)
        b, w = sp.point(L), -sp.direction(L)
        object.__setattr__(self, "_ends", ((a.x, a.y, u.x, u.y),
                                           (b.x, b.y, w.x, w.y)))

    @property
    def length(self) -> float:
        return self.spine.length

    def point(self, t: float, rho: float) -> Vec2:
        return self.spine.point(t) + rho * self.spine.normal(t)

    def scaled(self, k: float) -> "Strip":
        return build_strip(self.spine.scaled(k), self.halfwidth * k)


LevelRow = Tuple[bool, float, float, tuple]


def _require_finite(*xy: float) -> None:
    """Raise what Vec2 raises for the first non-finite (x, y) pair.

    Level rows compute in floats the intermediate points that an
    evaluation with Vec2 operations would build.  They call this only when
    a sum of those values is not finite, so an overflow names the
    coordinates of the first point that Vec2 would have rejected."""
    for i in range(0, len(xy), 2):
        Vec2(xy[i], xy[i + 1])


def _level_rows(spine: Spine, level: float) -> List[LevelRow]:
    """Parallel curve at signed offset `level`, one float row per spine piece.

    A row is (is_arc, t0, t1, values) and covers the spine interval
    [t0, t1].  Segment values are (sx, sy, ex, ey); arc values are
    (sx, sy, ex, ey, cx, cy, radius, start angle, signed sweep), where the
    start angle is the one the built arc's `start_angle` returns, the
    direction of its computed start from its centre.  The values are the
    expressions of the Vec2 evaluation (`level_chain` in
    tests/geom_reference.py, through `Arc.from_angles`), in their order,
    so the pieces built from a row equal the ones that evaluation builds,
    bit for bit.  Every check its Vec2, Segment and Arc
    constructors make is made here, at the same piece and in the same
    order, with the same exception type and message, except the Arc
    endpoint-on-circle check, which cannot fail on finite ends (`_sub_rows`
    says why).
    """
    return [_level_row(spine, i, level) for i in range(len(spine.pieces))]


def _level_row(spine: Spine, i: int, level: float) -> LevelRow:
    """The row of `_level_rows` for spine piece i, with its checks."""
    piece = spine.pieces[i]
    t0, p0, theta0 = spine._states[i]
    length = piece.length
    t1 = t0 + length
    ux, uy = math.cos(theta0), math.sin(theta0)
    lx, ly = -uy * level, ux * level  # level * unit_from_angle(theta0).perp()
    sx, sy = p0.x + lx, p0.y + ly
    k = piece.curvature
    if k == 0.0:
        ex, ey = sx + ux * length, sy + uy * length
        if not math.isfinite(sx + sy + ex + ey):
            _require_finite(lx, ly, sx, sy, ex, ey)
        if sx == ex and sy == ey:
            raise InvalidGeometry("zero-length segment")
        return False, t0, t1, (sx, sy, ex, ey)
    if abs(k) * length >= geom.TAU:
        _require_finite(lx, ly, sx, sy)
        raise SelfIntersecting(
            f"spine piece {i} turns by {abs(k) * length:.3f} rad "
            ">= 2*pi; the strip overlaps itself")
    inv = 1.0 / k
    ox, oy = -uy * inv, ux * inv
    cx, cy = p0.x + ox, p0.y + oy
    radius = abs(inv - level)
    if radius <= 1e-12:
        _require_finite(lx, ly, sx, sy, ox, oy, cx, cy)
        raise NotADiffeomorphism(
            f"parallel curve at level {level} collapses on piece {i}")
    vx, vy = sx - cx, sy - cy
    a0 = math.atan2(vy, vx)
    sweep = k * length
    a1 = a0 + sweep
    rx0, ry0 = math.cos(a0) * radius, math.sin(a0) * radius
    rx1, ry1 = math.cos(a1) * radius, math.sin(a1) * radius
    asx, asy, aex, aey = cx + rx0, cy + ry0, cx + rx1, cy + ry1
    if not math.isfinite(sx + sy + cx + cy + vx + vy + asx + asy
                         + aex + aey):
        _require_finite(lx, ly, sx, sy, ox, oy, cx, cy, vx, vy,
                        rx0, ry0, asx, asy, rx1, ry1, aex, aey)
    if sweep == 0.0:
        raise InvalidGeometry(
            f"arc sweep must lie in (0, 2*pi), got {abs(sweep)}")
    return True, t0, t1, (asx, asy, aex, aey, cx, cy, radius,
                          math.atan2(asy - cy, asx - cx), sweep)


def level_chain(spine: Spine, level: float) -> List[Tuple[BoundaryPiece, float, float]]:
    """Parallel curve at signed offset `level`, as (piece, t0, t1) entries.

    Traversal follows increasing spine parameter; each entry covers the
    spine interval [t0, t1].  The curve is computed on float rows
    (`_level_rows`) and each piece is built once, from its row.
    """
    out: List[Tuple[BoundaryPiece, float, float]] = []
    for is_arc, t0, t1, v in _level_rows(spine, level):
        if is_arc:
            sx, sy, ex, ey, cx, cy, radius, _, sweep = v
            piece = Arc(Vec2(sx, sy), Vec2(ex, ey), Vec2(cx, cy), radius,
                        sweep > 0.0, abs(sweep))
        else:
            piece = Segment(Vec2(v[0], v[1]), Vec2(v[2], v[3]))
        out.append((piece, t0, t1))
    return out


def _sub_rows(rows: Sequence[LevelRow], t_from: float, t_to: float,
              reverse: bool = False) -> List[tuple]:
    """The sub-chain of level rows covering [t_from, t_to], optionally
    reversed, as piece rows (`geom._piece_row`).

    Each sub-piece is computed on its row's floats, as `subpiece` of the
    row's piece would compute it.  The rows are made in chain order either
    way, and each makes the checks its Vec2 and Arc or Segment constructors
    would make, in their order, with the same exception type and message;
    a reversed sub-piece is made already reversed.  Two of the Arc checks
    cannot fail on rows of `_level_rows`, so they are not made: the radius
    |1/kappa - level| is above 1e-12 and finite there, and an end
    cx + cos(a)*radius (likewise y) that is finite lies within a few
    rounding units of (|cx| + |cy| + radius) of the circle, far inside the
    on-circle tolerance 1e-12*(radius + |cx| + |cy| + 1).
    """
    if not t_from < t_to:
        raise DomainError("empty parameter range")
    out: List[tuple] = []
    for is_arc, t0, t1, v in rows:
        lo = max(t0, t_from)
        hi = min(t1, t_to)
        if hi - lo <= 1e-12 * (t1 - t0):
            continue
        u0 = max((lo - t0) / (t1 - t0), 0.0)
        u1 = min((hi - t0) / (t1 - t0), 1.0)
        if is_arc:
            cx, cy, radius, a, sweep = v[4:]
            a0 = a + sweep * u0
            sub = sweep * (u1 - u0)
            a1 = a0 + sub
            x0, y0 = cx + math.cos(a0) * radius, cy + math.sin(a0) * radius
            x1, y1 = cx + math.cos(a1) * radius, cy + math.sin(a1) * radius
            if not math.isfinite(x0 + y0 + x1 + y1 + cx + cy):
                _require_finite(x0, y0, x1, y1, cx, cy)
            span = abs(sub)
            if not 0.0 < span < geom.TAU:
                raise InvalidGeometry(
                    f"arc sweep must lie in (0, 2*pi), got {span}")
            if reverse:
                x0, y0, x1, y1 = x1, y1, x0, y0
            out.append((True, (x0, y0, x1, y1, cx, cy, radius,
                               (sub < 0.0) if reverse else (sub > 0.0),
                               math.atan2(y0 - cy, x0 - cx), span)))
        else:
            sx, sy, ex, ey = v
            dx, dy = ex - sx, ey - sy
            if not math.isfinite(dx + dy):
                _require_finite(dx, dy)
            x0, y0 = sx + dx * u0, sy + dy * u0
            x1, y1 = sx + dx * u1, sy + dy * u1
            if not math.isfinite(x0 + y0 + x1 + y1):
                _require_finite(x0, y0, x1, y1)
            if math.hypot(x0 - x1, y0 - y1) == 0.0:
                raise InvalidGeometry("zero-length segment")
            out.append(geom._segment_row(x1, y1, x0, y0) if reverse
                       else geom._segment_row(x0, y0, x1, y1))
    if reverse:
        out.reverse()
    return out


def build_strip(spine: Spine, halfwidth: float) -> Strip:
    """Assemble and validate the strip of half-width s around a spine.

    The Jacobian of the parametrization is 1 - rho*kappa(t), so the map is
    a local diffeomorphism iff s*max|kappa| < 1.  Overlaps are rejected by
    the self-intersection scan of the assembled boundary alone: its Green
    area is the integral of 1 - rho*kappa over [0, L] x [-s, s], 2sL, and
    its length 2L + 4s, whether the strip overlaps itself or not.  The
    check of the computed area and perimeter against those values rejects
    a boundary whose measures lost precision, as near-straight arcs held
    by a far-away centre do.
    """
    s = halfwidth
    if not (s > 0.0 and math.isfinite(s)):
        raise InvalidGeometry(f"halfwidth must be positive, got {s}")
    if s * spine.max_curvature >= 1.0:
        raise NotADiffeomorphism(
            f"halfwidth*|curvature| = {s * spine.max_curvature} >= 1; "
            "the strip parametrization folds over")
    L = spine.length
    bottom = [piece for piece, _, _ in level_chain(spine, -s)]
    top_rev = [piece.reversed() for piece, _, _
               in reversed(level_chain(spine, s))]
    right = Segment(spine.point(L) - s * spine.normal(L),
                    spine.point(L) + s * spine.normal(L))
    left = Segment(spine.point(0.0) + s * spine.normal(0.0),
                   spine.point(0.0) - s * spine.normal(0.0))
    boundary = ArcPolygon(bottom + [right] + top_rev + [left])
    geom.assert_simple(boundary, tol=1e-9 * max(L, 1.0))

    strip = Strip(spine=spine, halfwidth=s, boundary=boundary)
    a, p = strip_measures(strip)
    if abs(boundary.area - a) > 1e-9 * a or abs(boundary.perimeter - p) > 1e-9 * p:
        raise InvalidGeometry(
            "assembled boundary measures disagree with 2sL and 2L+4s")
    return strip


def strip_measures(st: Strip) -> Tuple[float, float]:
    """(area, perimeter) of the strip; both depend only on the spine length."""
    L, s = st.spine.length, st.halfwidth
    return 2.0 * s * L, 2.0 * L + 4.0 * s
