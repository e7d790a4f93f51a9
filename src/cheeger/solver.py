"""Cheeger constant and Cheeger set of a strip via the inner Cheeger formula.

The inner set at depth r is the part of the strip at distance at least r
from the boundary.  Its area is strictly decreasing in r while pi*r^2 is
increasing, so the inner Cheeger formula  area(E_r) = pi*r^2  has a unique
root, found by safeguarded Newton steps on the exact derivative
-perimeter(E_r) - 2*pi*r; the Cheeger set is the outward offset E_r + B_r
and h = 1/r.  A strip's trial depths read area and perimeter from the band
identity (`_strip_measures`), which makes only the level rows near the
strip's ends, and E_r is built once, at the root.  The offset needs
reach(E_r) >= r; a lemma on the strip's rows proves it (`_strip_reach`),
and only a strip outside the lemma's hypotheses gets the piece-pair scan
of `geom.reach_lower_bound`.  The same solve serves convex regions
(`convex`).  An independent grid scan of the Cheeger ratio over the same
one-parameter family, measured on the rows of E_r, serves as a
cross-check oracle.
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


def _inner_loop(st: Strip, r: float) -> Tuple[List[tuple], int, float, float]:
    """E_r as piece rows (`geom._piece_row`), in the order of its loop:
    the lower level curve, the right trim (row k), the upper level curve
    reversed and the left trim (the last row).  Returned as (rows, k,
    t_left, t_right), where t_left is the larger spine parameter of the
    left trim's corners and t_right the smaller one of the right trim's.

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
    rows = (bottom + [geom._segment_row(brx, bry, trx, tr_y)] + top
            + [geom._segment_row(tlx, tly, blx, bly)])
    return rows, len(bottom), max(tl_lo, tl_hi), min(tr_lo, tr_hi)


def _strip_reach(st: Strip, r: float, loop: tuple) -> Optional[float]:
    """r, a lower bound on the reach of E_r, certified from the strip for
    the loop (rows, k, t_left, t_right) of `_inner_loop`; None where a
    hypothesis below fails, and the offset then runs the pair scan.

    Notation: F(t, rho) = gamma(t) + rho*n(t) on [0, L] x [-s, s],
    phi = rho o F^-1, theta(t) the direction angle of the spine, and for
    the ends (a, u) of `Strip._ends`, g(x) = (x - a).u - r, with closed
    half-planes H_L = {g_L >= 0} at the start and H_R = {g_R >= 0} at the
    end, bounded by the trim lines.

    (H1) `build_strip` made the strip (it is the only maker of a Strip):
      s*max|kappa| < 1 and `geom.assert_simple` holds on the boundary.  So
      F has Jacobian 1 - rho*kappa > 0 and is injective on the boundary of
      its rectangle; every point has as many preimages as the boundary's
      winding number about it, 0 or 1, and F is a homeomorphism onto the
      closed strip.  Along any segment in the closed strip, phi is
      1-Lipschitz with gradient n(t), and it rises at rate 1 only along a
      fibre F(t, .), which is straight.
    (H2) E_r lies in D_r = {d(., boundary) >= r}.  Checked here: every row
      lies in H_L and H_R (the ends of a segment, the ends and the point
      farthest out of the half-plane of an arc), the corners of each trim
      lie on its own line, and t_left < t_right.
      A level curve rho = const, |rho| <= s-r, turns with curvature
      |kappa/(1 - rho*kappa)| < 1/(s - |rho|) <= 1/r, so before its
      direction leaves theta(0) by pi/2 it has advanced more than r along
      u: it meets the left trim line first with |theta - theta(0)| < pi/2.
      So on [0, t_left], g_L(F(t, rho)) has t-derivative
      (1 - rho*kappa) cos(theta(t) - theta(0)) > 0.  It is -r at t = 0,
      and >= 0 on the fibre at t_left, which is linear in rho and >= 0 at
      both ends (one is a corner, the other lies past its own crossing).
      So for |rho| <= s-r it has one zero t*(rho) there, continuous in
      rho, and rho -> F(t*(rho), rho) runs along the left trim line from
      corner to corner: it is the left trim.  Likewise the right trim on
      [t_right, L], and t_left < t_right keeps them apart.  So the loop
      is F of a simple loop in the band |rho| <= s-r, and E_r has
      |phi| <= s-r.  Take y in E_r, a boundary point b, and z the first
      boundary point on [y, b].  If z is on a side (|phi| = s), phi gives
      |y - z| >= r; if z is on an end segment, the half-planes do.
    (H3) every corner of the left trim is at least 2r from every corner
      of the right trim.

    Proof of reach(E_r) >= r.  Let x lie at distance delta < r from E_r,
    and p be a nearest point of E_r.
    - p inside a level curve, say phi(p) = s-r: x = F(t_p, s-r+delta).
      For y in E_r within r of x, [x, y] lies in the ball of radius r
      about y, inside the closed strip by (H2), so
      |x - y| >= phi(x) - phi(y) >= delta, with equality only on p's
      fibre, at y = p.
    - p inside a trim: x = p - delta*u and g >= 0 on E_r give the same.
    - Otherwise every nearest point is a corner.  Two corners of one trim
      cannot both be nearest, as the trim's midpoint would be nearer, and
      corners of different trims are 2r > 2*delta apart by (H3).
    So every point within r of E_r has one nearest point, which is
    reach >= r (Federer, Trans. AMS 93, 1959).

    Slack: the checks compare lengths up to tol = 1e-12*(largest
    |coordinate| + diameter) of the strip's boundary.  The rows meet the
    trim lines at the corners to within about 1e-14*r, the rounding of
    their coordinates.  So a row may lie up to tol outside a trim's
    half-plane and a trim's corners up to tol off its line: within the
    relative 1e-12 that `geom.offset_outward_disk` grants any reach bound
    (it accepts reach_bound >= rho*(1 - 1e-12)).
    """
    rows, k, t_left, t_right = loop
    bbox = st.boundary.bounding_box
    tol = 1e-12 * (max(map(abs, bbox)) + st.boundary.diameter)
    if not t_right - t_left > tol:
        return None
    left, right = rows[-1][1], rows[k][1]
    for (ax, ay, ux, uy), trim in zip(st._ends, (left, right)):
        back = math.atan2(-uy, -ux)  # where a circle lies farthest out
        for is_arc, v in rows:
            low = min((v[0] - ax) * ux + (v[1] - ay) * uy,
                      (v[2] - ax) * ux + (v[3] - ay) * uy)
            if is_arc:
                cx, cy, radius, ccw, a0, sweep = v[4:]
                off = (back - a0) % geom.TAU if ccw else (a0 - back) % geom.TAU
                if (off <= sweep + geom.ARC_END_SLACK
                        or off >= geom.TAU - geom.ARC_END_SLACK):
                    low = min(low, (cx - ax) * ux + (cy - ay) * uy - radius)
            if low < r - tol:
                return None
        if max((trim[0] - ax) * ux + (trim[1] - ay) * uy,
               (trim[2] - ax) * ux + (trim[3] - ay) * uy) > r + tol:
            return None
    for lx, ly in (left[:2], left[2:4]):
        for rx, ry in (right[:2], right[2:4]):
            if math.hypot(lx - rx, ly - ry) < 2.0 * r + tol:
                return None
    return r


def _inner_measures(st: Strip, r: float) -> Tuple[float, float]:
    """(area, perimeter) of inner_set(st, r), bit for bit, with its errors,
    measured on the rows without building the set."""
    area, perimeter, _, _, _ = geom._loop_measures(_inner_loop(st, r)[0])
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
    place its checks are made (`_strip_measures` and `_inner_loop` read
    it, and `_strip_measures` says why the checks it makes suffice).

    Returns (rows, crossings, ends, corners): the level rows made at
    -(s - r) and s - r, each a dict by piece index; the crossings
    (lower left, lower right, upper left, upper right) whose extremes
    `_inner_loop` returns; for the lower and then the upper trimmed level
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
    return ArcPolygon([geom._row_piece(*row) for row in _inner_loop(st, r)[0]])


# ---------------------------------------------------------------------------
# root solve


def _solve_inner_formula(
        measure: Callable[[float], Tuple[float, float]],
        build: Callable[[float], Tuple[ArcPolygon, Optional[float]]],
        lo: float, hi: float) -> CheegerSolution:
    """Solve area(E_r) = pi*r^2 on (lo, hi) and offset E_r back by r.

    `measure(r)` gives (area, perimeter) of the inner set E_r, and
    `build(r)` the set itself with a lower bound on its reach, or None for
    the offset to certify one; it is called once, at the root, which is
    the depth measured last.
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
    not onto a root, and raises NoRoot.  The Cheeger set is E_r + B_r,
    offset under the reach bound of `build`.
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
    e_r, reach_bound = build(r)
    cheeger = geom.offset_outward_disk(e_r, r, reach_bound)
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

    def build(r: float) -> Tuple[ArcPolygon, Optional[float]]:
        return inner_set(st, r), _strip_reach(st, r, _inner_loop(st, r))

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
