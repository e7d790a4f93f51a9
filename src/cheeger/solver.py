"""Cheeger constant and Cheeger set of a strip via the inner Cheeger formula.

The inner set at depth r is the part of the strip at distance at least r
from the boundary.  Its area is strictly decreasing in r while pi*r^2 is
increasing, so the inner Cheeger formula  area(E_r) = pi*r^2  has a unique
root, found by safeguarded Newton steps on the exact derivative
-perimeter(E_r) - 2*pi*r; the Cheeger set is E_r + B_r and h = 1/r.  A
strip's trial depths read area and perimeter from the band identity
(`_strip_measures`), which makes only the level rows near the strip's
ends.  At the root, E_r is built once, and the Cheeger set, the strip
with its four corners rounded at radius r, is built from E_r's corners
(`_cheeger_set`, proof in its docstring) with no offset and no reach
certificate.  The same solve serves convex regions (`convex`), which
offset their inner body.  An independent grid scan of the Cheeger ratio
over the same one-parameter family, measured on the rows of E_r, serves
as a cross-check oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from . import geom
from .errors import (DegenerateInnerSet, DomainError, EmptyInnerSet, NoRoot,
                     PropertyViolation)
from .geom import Arc, ArcPolygon, Vec2
from .spine import Strip, _level_row, _require_finite, _sub_rows

RESIDUAL_TOL = 1e-10  # largest |f(r)| / (pi*r^2) accepted at the root
MAX_ITERATIONS = 200
MIN_CERTIFIED_LENGTH = 4.5 * math.pi  # normalized spine length, 9*pi/2
SCAN_GRID = 100  # grid intervals per pass of ratio_scan_oracle


@dataclass(frozen=True)
class StripBounds:
    krepra_lower: float
    krepra_upper: float
    asymptotic: float


@dataclass(frozen=True)
class CheegerSolution:
    r: float
    h: float
    inner_set: ArcPolygon
    cheeger_set: ArcPolygon
    residual: float
    iterations: int
    bounds: Optional[StripBounds] = None
    warnings: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# inner sets of strips


def _chain_line_crossings(row: tuple, line: tuple, offset: float
                          ) -> List[float]:
    """Spine parameters where a level row crosses {(x-a).u = offset}, for
    a line (ax, ay, ux, uy) of `Strip._ends`."""
    ax, ay, nx, ny = line
    is_arc, t0, t1, v = row
    if not is_arc:
        sx, sy, ex, ey = v
        f0 = (sx - ax) * nx + (sy - ay) * ny - offset
        f1 = (ex - ax) * nx + (ey - ay) * ny - offset
        if not math.isfinite(f0 + f1):
            _require_finite(sx - ax, sy - ay, ex - ax, ey - ay)
        if f0 != f1:
            u = f0 / (f0 - f1)
            if -1e-9 <= u <= 1.0 + 1e-9:
                return [t0 + min(max(u, 0.0), 1.0) * (t1 - t0)]
        return []
    # a point of the line and its direction
    tx = ax + nx * offset
    ty = ay + ny * offset
    dx, dy = -ny, nx
    cx, cy, radius, a, sweep = v[4:]
    ts: List[float] = []
    for lam in geom._line_circle(tx, ty, dx, dy, cx, cy, radius):
        phi = math.atan2(ty + dy * lam - cy, tx + dx * lam - cx)
        off = (phi - a) % geom.TAU if sweep > 0.0 else (a - phi) % geom.TAU
        if off <= abs(sweep) + geom.ARC_END_SLACK:
            u = min(off / abs(sweep), 1.0)
            ts.append(t0 + u * (t1 - t0))
        elif off >= geom.TAU - geom.ARC_END_SLACK:
            ts.append(t0)
    return ts


def _inner_loop(st: Strip, r: float) -> List[tuple]:
    """E_r as piece rows (`geom._piece_row`), in the order of its loop:
    the lower level curve, the right trim, the upper level curve reversed
    and the left trim.

    Bounded by the two parallel curves at levels +-(s-r) and two trim
    segments parallel to the end segments at depth r.  `_strip_ends`
    finds the trims, corners and end sub-rows and raises every error;
    the missing middle rows are made here and cut by `spine._sub_rows`,
    so no piece is built.  Rows of pieces outside the trimmed range are
    never made: their checks cannot fail (`_strip_measures`, Checks).
    """
    made, (tl_lo, tr_lo, tl_hi, tr_hi), ends, corners = _strip_ends(st, r)
    spine, c = st.spine, st.halfwidth - r

    def level(side: int, t_from: float, t_to: float) -> List[tuple]:
        k, first, m, last = ends[side]
        if k == m:
            return [first]
        rows, rho = made[side], c if side else -c
        between = [rows[i] if i in rows else _level_row(spine, i, rho)
                   for i in range(k + 1, m)]
        middle = _sub_rows(between, t_from, t_to, bool(side))
        return [last] + middle + [first] if side else [first] + middle + [last]

    bottom = level(0, tl_lo, tr_lo)
    top = level(1, tl_hi, tr_hi)
    blx, bly, brx, bry, trx, tr_y, tlx, tly = corners
    return (bottom + [geom._segment_row(brx, bry, trx, tr_y)] + top
            + [geom._segment_row(tlx, tly, blx, bly)])


def _inner_measures(st: Strip, r: float) -> Tuple[float, float]:
    """(area, perimeter) of inner_set(st, r), bit for bit, with its errors,
    measured on the rows without building the set."""
    area, perimeter, _, _, _ = geom._loop_measures(_inner_loop(st, r))
    return area, perimeter


def _level_part(row: tuple, x0: float, y0: float, x1: float, y1: float,
                u: float, reverse: bool = False) -> tuple:
    """The piece row (`geom._piece_row`) of the part of a level row from
    its point (x0, y0) to its point (x1, y1), a fraction u of the row,
    run against the row's sense if `reverse`."""
    is_arc, _, _, v = row
    if not is_arc:
        return geom._segment_row(x0, y0, x1, y1)
    cx, cy, radius, _, sweep = v[4:]
    return True, (x0, y0, x1, y1, cx, cy, radius, (sweep > 0.0) != reverse,
                  math.atan2(y0 - cy, x0 - cx), abs(sweep) * u)


def _strip_ends(st: Strip, r: float) -> tuple:
    """Where the level curves of E_r meet its trims, found on the level
    rows near the strip's ends: the one trim search of E_r, and the one
    place its checks are made (`_strip_measures`, `_inner_loop` and
    `_cheeger_set` read it, and `_strip_measures` says why the checks it
    makes suffice).

    Returns (rows, crossings, ends, corners): the level rows made at
    -(s - r) and s - r, each a dict by piece index; the crossings
    (lower left, lower right, upper left, upper right), which bound the
    trimmed level curves; for the lower and then the upper trimmed level
    curve, (k, first sub-row, m, last sub-row) of its first and last
    pieces k <= m (`spine._sub_rows`, the upper ones reversed); and the
    trims' ends, (x, y) of the lower left, lower right, upper right and
    upper left corner.
    """
    s = st.halfwidth
    if r >= s:
        raise EmptyInnerSet(f"depth {r} is not below the halfwidth {s}")
    if r <= 0.0:
        raise DomainError("depth must be positive")
    spine = st.spine
    n, c = len(spine.pieces), s - r
    left, right = st._ends
    made: Tuple[dict, dict] = ({}, {})

    def row(side: int, i: int) -> tuple:
        rows = made[side]
        if i not in rows:
            rows[i] = _level_row(spine, i, c if side else -c)
        return rows[i]

    def first_cross(side: int) -> Tuple[float, int]:
        best = math.inf
        for i in range(n):
            rw = row(side, i)
            if rw[1] >= best:
                return best, i
            best = min([best] + _chain_line_crossings(rw, left, r))
        if best == math.inf:
            raise DegenerateInnerSet("no left trim crossing at this depth")
        return best, n - 1

    def last_cross(side: int) -> float:
        best = -math.inf
        for i in range(n - 1, -1, -1):
            rw = row(side, i)
            if rw[2] < best:
                break
            best = max([best] + _chain_line_crossings(rw, right, r))
        if best == -math.inf:
            raise DegenerateInnerSet("no right trim crossing at this depth")
        return best

    tl_lo, stop_lo = first_cross(0)
    tr_lo = last_cross(0)
    tl_hi, stop_hi = first_cross(1)
    tr_hi = last_cross(1)
    if tl_lo >= tr_lo or tl_hi >= tr_hi:
        raise DegenerateInnerSet(
            f"end trims cross at depth {r} (strip too short)")

    def trimmed(side: int, t_from: float, t_to: float, stop: int):
        """(k, first sub-row, m, last sub-row) of a trimmed level curve,
        pieces k <= m, or None where it is empty."""
        for k in range(stop + 1):
            first = _sub_rows([row(side, k)], t_from, t_to, bool(side))
            if first:
                break
        else:
            return None
        for m in range(n - 1, k, -1):
            last = _sub_rows([row(side, m)], t_from, t_to, bool(side))
            if last:
                return k, first[0], m, last[0]
        return k, first[0], k, first[0]

    lower = trimmed(0, tl_lo, tr_lo, stop_lo)
    upper = trimmed(1, tl_hi, tr_hi, stop_hi)
    if lower is None or upper is None:
        raise DegenerateInnerSet(
            f"a trimmed level curve is empty at depth {r} (strip too short)")
    # the upper sub-rows run reversed: the first ends on the left trim
    corners = (lower[1][1][:2] + lower[3][1][2:4] + upper[3][1][:2]
               + upper[1][1][2:4])
    blx, bly, brx, bry, trx, tr_y, tlx, tly = corners
    min_len = 1e-12 * max(spine.length, 1.0)
    if (math.hypot(brx - trx, bry - tr_y) <= min_len
            or math.hypot(tlx - blx, tly - bly) <= min_len):
        raise DegenerateInnerSet(f"trim segment degenerates at depth {r}")
    return made, (tl_lo, tr_lo, tl_hi, tr_hi), (lower, upper), corners


def _strip_measures(st: Strip, r: float) -> Tuple[float, float]:
    """(area, perimeter) of inner_set(st, r) from the band identity, with
    the errors of `_strip_ends`; only level rows near the ends are made.

    Let c = s - r and F(t, rho) = gamma(t) + rho*n(t).
    - Area.  Signed Green areas add over chains.  The band loop (the level
      curves at -c and +c and the end fibres) is F of the boundary of
      [0, L] x [-c, c], so its signed area is the integral of the Jacobian
      1 - rho*kappa there, by change of variables piece by piece, which
      needs no injectivity: 2cL, as the rho term is odd.  As chains it is
      E_r's loop plus two caps closed by the trims run backwards: an end
      fibre, the level parts from it to the trim's corners, and the trim.
      So |E_r| = 2cL - cap_L - cap_R, the caps' signed areas taken from
      `geom._loop_measures`.  Each cap's last level part ends on the
      corner that `spine._sub_rows` computes, so the chains cancel exactly.
    - Perimeter.  s*max|kappa| < 1, so the level curve at rho has length
      the integral of 1 - rho*kappa, dt - rho*d(theta) over its trimmed
      range; the trims add their lengths, corner to corner.
    - Rows near the ends.  `_chain_line_crossings` puts a row's crossings
      in [t0, the float after t1].  So scanning rows from the start until
      one starts at or after the least crossing so far, and from the end
      until one ends before the greatest, gives the minimum and maximum
      over the whole level chains bit for bit.  `_sub_rows` drops a row
      only where it meets [t_left, t_right] in at most 1e-12 of its
      length, which only an end row of that range can do: the first kept
      row lies at or before the row where the left scan stopped, and if
      that one is dropped, every row is.
    - Checks.  `_strip_ends` makes every check of E_r that can fail, on
      the rows near the ends, in the order a whole-chain build makes
      them: r in (0, s), each crossing, crossing trims, the sub-rows at
      the four corners, an empty trimmed curve and a degenerate trim.
      The checks of the rows it does not make cannot fail, so neither
      this identity nor `_inner_loop` needs those rows made.
      `build_strip` made the rows at +-s pass the others.
      A row at |rho| <= s has their sweep and turn, a radius |1/kappa -
      rho| no less than the smaller of theirs (float subtraction is
      monotone), coordinates between theirs, and ends that coincide only
      where the piece is shorter than their rounding, as at +-s; a middle
      sub-row is a whole row.  The loops of E_r and of the caps have at
      least two pieces, a trim longer than 1e-12*max(L, 1), and junctions
      that are shared corners or those of consecutive rows, which lie
      rounding apart.  A cap whose level parts all round to points is its
      fibre and trim, meeting at both ends: it counts 0, where
      `_loop_measures` would call it empty.  Any other cap is at least a
      rounding unit of its coordinates wide, far above the
      (1e-12*diameter)^2 that `_loop_measures` asks for.
    """
    (lo, hi), (tl_lo, tr_lo, tl_hi, tr_hi), (lower, upper), corners = \
        _strip_ends(st, r)
    (k_lo, _, m_lo, _), (k_hi, _, m_hi, _) = lower, upper
    blx, bly, brx, bry, trx, tr_y, tlx, tly = corners
    spine = st.spine
    n, L, c = len(spine.pieces), spine.length, st.halfwidth - r

    def whole(rw: tuple, reverse: bool = False) -> tuple:
        sx, sy, ex, ey = rw[3][:4]
        if reverse:
            return _level_part(rw, ex, ey, sx, sy, 1.0, True)
        return _level_part(rw, sx, sy, ex, ey, 1.0)

    def share(rw: tuple, t: float) -> float:
        return (t - rw[1]) / (rw[2] - rw[1])  # as `_sub_rows` computes it

    lo_k, hi_k, lo_m, hi_m = lo[k_lo], hi[k_hi], lo[m_lo], hi[m_hi]
    cap_l = [geom._segment_row(*hi[0][3][:2], *lo[0][3][:2])]
    cap_l += [whole(lo[i]) for i in range(k_lo)]
    if tl_lo > lo_k[1]:
        cap_l.append(_level_part(lo_k, *lo_k[3][:2], blx, bly,
                                 share(lo_k, tl_lo)))
    cap_l.append(geom._segment_row(blx, bly, tlx, tly))
    if tl_hi > hi_k[1]:
        cap_l.append(_level_part(hi_k, tlx, tly, *hi_k[3][:2],
                                 share(hi_k, tl_hi), True))
    cap_l += [whole(hi[i], True) for i in range(k_hi - 1, -1, -1)]

    cap_r = []
    if tr_lo < lo_m[2]:
        cap_r.append(_level_part(lo_m, brx, bry, *lo_m[3][2:4],
                                 1.0 - share(lo_m, tr_lo)))
    cap_r += [whole(lo[i]) for i in range(m_lo + 1, n)]
    cap_r.append(geom._segment_row(*lo[n - 1][3][2:4], *hi[n - 1][3][2:4]))
    cap_r += [whole(hi[i], True) for i in range(n - 1, m_hi, -1)]
    if tr_hi < hi_m[2]:
        cap_r.append(_level_part(hi_m, *hi_m[3][2:4], trx, tr_y,
                                 1.0 - share(hi_m, tr_hi), True))
    cap_r.append(geom._segment_row(trx, tr_y, brx, bry))

    def signed_area(cap: List[tuple]) -> float:
        # a part whose ends round together has no area (a whole row turns
        # less than a full turn), and a cap left with its fibre and trim,
        # which meet at both ends, has none
        cap = [part for part in cap if part[1][:2] != part[1][2:4]]
        if len(cap) == 2:
            return 0.0
        a, _, _, _, clockwise = geom._loop_measures(cap)
        return -a if clockwise else a

    # _loop_measures measures a clockwise E_r reversed
    area = abs(2.0 * c * L - signed_area(cap_l) - signed_area(cap_r))
    theta = spine.direction_angle

    def level_length(level: float, t_from: float, t_to: float) -> float:
        return t_to - t_from - level * (theta(t_to) - theta(t_from))

    perimeter = (level_length(-c, max(tl_lo, lo_k[1]), min(tr_lo, lo_m[2]))
                 + level_length(c, max(tl_hi, hi_k[1]), min(tr_hi, hi_m[2]))
                 + math.hypot(brx - trx, bry - tr_y)
                 + math.hypot(tlx - blx, tly - bly))
    return area, perimeter


def inner_set(st: Strip, r: float) -> ArcPolygon:
    """Region of the strip at distance >= r from its boundary: the loop of
    `_inner_loop`, each piece built once."""
    return ArcPolygon([geom._row_piece(*row) for row in _inner_loop(st, r)])


def _cheeger_set(st: Strip, r: float) -> ArcPolygon:
    """E_r + B_r: the strip with its four corners rounded at radius r,
    built in O(n) from E_r's corners (`_strip_ends`), in the order in which
    `geom.offset_outward_disk` emits the offset of E_r's loop: the lower
    lateral curve, a free arc, the right end segment, a free arc, the upper
    lateral curve reversed, a free arc, the left end segment, a free arc.

    Notation: c = s - r, F(t, rho) = gamma(t) + rho*n(t), phi = rho o F^-1,
    and for an end (a, u) of `Strip._ends`, g(x) = (x - a).u: the end
    segment lies on g = 0 and the trim on g = r.  A corner p's foot is
    p - r*u; its free arc has centre p and radius r.
    (H1) `build_strip` made the strip: s*max|kappa| < 1 and
      `geom.assert_simple` accepted its boundary, a Jordan curve.  F maps
      [0, L] x [-s, s] onto the closed strip with Jacobian 1 - rho*kappa
      > 0; on a segment in the closed strip phi is 1-Lipschitz and rises
      at rate 1 only along a fibre F(t, .).
    (H2) The strip model of `_strip_measures`, not checked (ROADMAP item
      5): E_r is the trimmed band that `_inner_loop` bounds, and it lies
      at depth >= r, so the closed r-ball about each point of E_r lies in
      the closed strip.
    (H3) Not checked either: a free arc meets neither the end segment nor
      the free arcs of the other end.

    The loop is the offset of E_r's loop, piece for piece.
    - A level row at -c over [t0, t1] has outward normal -n(t), and
      F(t, -c) - r*n(t) = F(t, -s): its offset is the sub-row at -s over
      [t0, t1], an arc about the same centre (a level row's centre does
      not depend on the level) of radius |1/kappa + s|, or a segment
      moved by r.  Likewise at +s, reversed.
    - A trim lies on g = r, E_r on its side g >= r: its offset joins its
      corners' feet on g = 0.
    - The level curves are C^1, so only the corners gain arcs.  A level
      curve turns with curvature |kappa/(1 - rho*kappa)| < 1/(s - |rho|)
      <= 1/r, so from its end fibre it advances more than r along u, and
      strays less than r across, before heading pi/2 off u.  At the first
      crossing, which `_strip_ends` takes, it heads within pi/2 of u: the
      corner turns left by less than pi, the sweep of the free arc from
      its lateral end p -+ r*n to its foot.  So each foot lies inside its
      end segment, and the feet of an end come in the order of its corners.

    The loop bounds E_r + B_r, with no reach bound.  For x outside E_r at
    distance <= r, a nearest point p lies on E_r's loop and x - p is an
    outward normal there: -+n, -u, or at a corner a direction of its free
    arc.  So E_r + B_r is E_r and the fins swept from its loop along those
    normals, whose far edges make up the loop; a point p + lambda*nu with
    lambda < r is interior, so the boundary of E_r + B_r lies on the loop.
    The loop is simple.  Its lateral curves and end segments are disjoint
    pieces of the Jordan curve, in its order.  A point q = p + r*nu of a
    free arc lies in the closed strip by (H2); off p's fibre it has
    |phi(q)| < s by (H1), and off the foot g(q) > 0.  The free arcs of an
    end lie beyond their corners along the trim line, and (H3) keeps them
    off the other end.  A compact set with an interior point whose
    boundary lies on a Jordan curve is the closed region the curve
    bounds.  C lies in the strip by construction: its pieces are sub-
    pieces of the strip's boundary and arcs whose balls lie in it (H2).
    """
    _, (tl_lo, tr_lo, tl_hi, tr_hi), ends, corners = _strip_ends(st, r)
    spine, s = st.spine, st.halfwidth
    left, right = st._ends

    def lateral(side: int, t_from: float, t_to: float) -> List[tuple]:
        k, _, m, _ = ends[side]
        level = s if side else -s
        rows = [_level_row(spine, i, level) for i in range(k, m + 1)]
        return _sub_rows(rows, t_from, t_to, bool(side))

    def foot(x: float, y: float, end: tuple) -> Tuple[float, float]:
        return x - r * end[2], y - r * end[3]

    def free_arc(cx: float, cy: float, x0: float, y0: float, x1: float,
                 y1: float) -> tuple:
        a0 = math.atan2(y0 - cy, x0 - cx)
        sweep = (math.atan2(y1 - cy, x1 - cx) - a0) % geom.TAU
        return True, (x0, y0, x1, y1, cx, cy, r, True, a0, sweep)

    bottom, top = lateral(0, tl_lo, tr_lo), lateral(1, tl_hi, tr_hi)
    blx, bly, brx, bry, trx, tr_y, tlx, tly = corners
    fbl, fbr = foot(blx, bly, left), foot(brx, bry, right)
    ftr, ftl = foot(trx, tr_y, right), foot(tlx, tly, left)
    rows = (bottom + [free_arc(brx, bry, *bottom[-1][1][2:4], *fbr),
                      geom._segment_row(*fbr, *ftr),
                      free_arc(trx, tr_y, *ftr, *top[0][1][:2])]
            + top + [free_arc(tlx, tly, *top[-1][1][2:4], *ftl),
                     geom._segment_row(*ftl, *fbl),
                     free_arc(blx, bly, *fbl, *bottom[0][1][:2])])
    return ArcPolygon([geom._row_piece(*row) for row in rows])


# ---------------------------------------------------------------------------
# root solve


def _solve_inner_formula(
        measure: Callable[[float], Tuple[float, float]],
        build: Callable[[float], Tuple[ArcPolygon, ArcPolygon]],
        lo: float, hi: float) -> CheegerSolution:
    """Solve area(E_r) = pi*r^2 on (lo, hi) for the inner set E_r and its
    Cheeger set E_r + B_r.

    `measure(r)` gives (area, perimeter) of E_r, and `build(r)` the pair
    (E_r, E_r + B_r); it is called once, at the root, which is the depth
    measured last.
    f(r) = area(E_r) - pi*r^2 has the exact derivative
    f'(r) = -perimeter(E_r) - 2*pi*r (coarea formula), so the root is found
    by Newton steps from `lo`, safeguarded as in Brent (1973): a step that
    leaves the current sign-change bracket, or starts from an infeasible
    depth, is replaced by the bracket midpoint.  Depths where E_r is
    degenerate or empty count as f = -inf.  The solve stops once the bracket
    is narrower than 1e-13*hi, or once |f| <= RESIDUAL_TOL*pi*r^2 and the
    next Newton step would move r by at most 1e-13*r.  A solve that ends
    with the bracket's upper end at an infeasible depth and |f| above
    RESIDUAL_TOL*pi*r^2 has closed onto the depth where E_r stops existing,
    not onto a root, and raises NoRoot.
    """

    def f(r: float) -> Tuple[float, float]:
        try:
            area, perimeter = measure(r)
        except (DegenerateInnerSet, EmptyInnerSet):
            return -math.inf, math.nan
        return area - math.pi * r * r, -perimeter - 2.0 * math.pi * r

    val, slope = f(lo)
    f_hi = f(hi)[0]
    if not (val > 0.0 and f_hi < 0.0):
        raise NoRoot(
            f"no sign change on ({lo}, {hi}): f={val:.3e}, {f_hi:.3e}")
    r, iterations = lo, 0
    while iterations < MAX_ITERATIONS:
        r = r - val / slope if math.isfinite(val) else math.nan
        if not lo < r < hi:
            r = 0.5 * (lo + hi)
        val, slope = f(r)
        iterations += 1
        if val > 0.0:
            lo = r
        else:
            hi, f_hi = r, val
        if hi - lo <= 1e-13 * hi:
            break
        if (math.isfinite(val) and abs(val) <= RESIDUAL_TOL * math.pi * r * r
                and abs(val / slope) <= 1e-13 * r):
            break
    if f_hi == -math.inf and abs(val) > RESIDUAL_TOL * math.pi * r * r:
        raise NoRoot(f"the sign change at depth {r} borders infeasible depths")
    e_r, cheeger = build(r)
    return CheegerSolution(r=r, h=1.0 / r, inner_set=e_r, cheeger_set=cheeger,
                           residual=abs(val), iterations=iterations)


def solve_strip(st: Strip, allow_short: bool = False) -> CheegerSolution:
    """Cheeger constant, inner set and Cheeger set of a strip.

    The certified regime needs normalized length L/s >= 9*pi/2; shorter
    strips are solved only with `allow_short` and the solution carries an
    'uncertified' warning.
    """
    s = st.halfwidth
    L_norm = st.length / s
    warnings: List[str] = []
    if L_norm < MIN_CERTIFIED_LENGTH * (1.0 - 1e-12):
        if not allow_short:
            raise DomainError(
                f"normalized strip length {L_norm:.4f} is below 9*pi/2; "
                "pass allow_short=True (on the command line, "
                "--allow-short-strip) to solve anyway")
        warnings.append(
            "uncertified: normalized length below 9*pi/2, the four-arc "
            "structure and uniqueness are not guaranteed")

    def measure(r: float) -> Tuple[float, float]:
        return _strip_measures(st, r)

    def build(r: float) -> Tuple[ArcPolygon, ArcPolygon]:
        return inner_set(st, r), _cheeger_set(st, r)

    sol = _solve_inner_formula(measure, build, 1e-9 * s, s * (1.0 - 1e-9))
    bounds = StripBounds(krepra_lower=(1.0 + 1.0 / (400.0 * L_norm)) / s,
                         krepra_upper=(1.0 + 2.0 / L_norm) / s,
                         asymptotic=(1.0 + math.pi / (2.0 * L_norm)) / s)
    return replace(sol, bounds=bounds, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# independent ratio-scan oracle


def ratio_scan_oracle(domain) -> Tuple[float, float]:
    """Minimize the Cheeger ratio of the inner-offset family on an r grid.

    The family member at depth r is E_r + B_r; its measures come from the
    Steiner identities applied to the inner set's area and perimeter, so
    this path never touches the root solver.  The grid is refined twice
    around the minimum.  Accepts a Strip or a ConvexRegion.
    """
    from .convex import ConvexRegion, inner_parallel_body

    if isinstance(domain, Strip):
        hi = domain.halfwidth * (1.0 - 1e-9)

        def measure(r: float) -> Tuple[float, float]:
            return _inner_measures(domain, r)
    elif isinstance(domain, ConvexRegion):
        hi = math.sqrt(domain.region.area / math.pi)

        def measure(r: float) -> Tuple[float, float]:
            e = inner_parallel_body(domain, r).region
            return e.area, e.perimeter
    else:
        raise DomainError(f"cannot scan a {type(domain).__name__}")

    def q(r: float) -> float:
        try:
            a, p = measure(r)
        except (DegenerateInnerSet, EmptyInnerSet):
            return math.inf
        return (p + 2.0 * math.pi * r) / (a + r * p + math.pi * r * r)

    lo = hi * 1e-6
    best_r, best_q = hi, math.inf
    for _ in range(3):
        step = (hi - lo) / SCAN_GRID
        values = [(q(lo + i * step), lo + i * step)
                  for i in range(1, SCAN_GRID)]
        best_q, best_r = min(values)
        lo = max(best_r - step, lo)
        hi = min(best_r + step, hi)
    return best_r, best_q


# ---------------------------------------------------------------------------
# structural checks on the solved Cheeger set


@dataclass(frozen=True)
class FreeArc:
    arc: Arc
    corner: Vec2


def _inner_corner_vertices(e_r: ArcPolygon) -> List[Vec2]:
    turns = geom.junction_turns(e_r)
    n = len(e_r.pieces)
    return [e_r.pieces[(i + 1) % n].start
            for i in range(n) if abs(turns[i]) > 1e-6]


def check_free_boundary(sol: CheegerSolution, st: Strip
                        ) -> Tuple[FreeArc, ...]:
    """Verify the free-boundary structure of a solved strip and return its
    free arcs.

    The free arcs are the corner arcs created by offsetting the inner set:
    radius r, sweep at most a half circle, osculating ball inside the strip,
    tangential contact with the strip boundary, exactly one per corner.
    Raises PropertyViolation on the first failing arc.
    """
    r = sol.r
    scale = max(st.boundary.diameter, 1.0)
    corners = _inner_corner_vertices(sol.inner_set)
    free: List[FreeArc] = []
    for piece in sol.cheeger_set.pieces:
        if not isinstance(piece, Arc):
            continue
        for c in corners:
            if piece.center.distance(c) <= 1e-9 * scale:
                free.append(FreeArc(arc=piece, corner=c))
                break

    def require(name: str, passed: bool, detail: str, arc: Optional[FreeArc]) -> None:
        if not passed:
            where = "" if arc is None else (
                f" at corner ({arc.corner.x:.6g}, {arc.corner.y:.6g})")
            raise PropertyViolation(f"{name}{where}: {detail}")

    require("free_arc_count", len(free) == 4,
            f"found {len(free)} free arcs, expected 4 (one per strip corner)",
            None)
    for fa in free:
        a = fa.arc
        require("free_arc_radius", abs(a.radius - r) <= 1e-9 * max(1.0, r),
                f"radius {a.radius!r} vs r {r!r}", fa)
        require("free_arc_sweep", a.sweep <= math.pi + 1e-9,
                f"sweep {a.sweep} exceeds pi", fa)
        # signed distance is 1-Lipschitz, so a centre at depth >= r - eps
        # puts every point of the ball at signed distance >= -eps
        center_depth = geom.distance_to_boundary(st.boundary, a.center)
        require("free_arc_ball_inside", center_depth >= r - 1e-9 * scale,
                f"osculating ball of radius {r} leaves the strip", fa)
        idx = sol.cheeger_set.pieces.index(a)
        n = len(sol.cheeger_set.pieces)
        prev = sol.cheeger_set.pieces[idx - 1]
        nxt = sol.cheeger_set.pieces[(idx + 1) % n]
        d_in = _tangent_gap(prev.tangent_at_end(), a.tangent_at_start())
        d_out = _tangent_gap(a.tangent_at_end(), nxt.tangent_at_start())
        require("free_arc_tangency", max(d_in, d_out) <= 1e-9,
                f"tangent jump {max(d_in, d_out):.3e} rad at contact", fa)
    return tuple(free)


def _tangent_gap(u: Vec2, v: Vec2) -> float:
    return abs(math.atan2(u.cross(v), u.dot(v)))
