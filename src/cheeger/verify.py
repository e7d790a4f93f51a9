"""Independent verification tools: raster oracle, Minkowski content,
continuity ladders, and the named cross-check suites.

The rasterizer uses even-odd ray casting (a different algorithm than the
winding test of the exact kernel), so area/perimeter agreement is a genuine
two-route check.  The Minkowski content estimator extrapolates the offset
area growth, which is exactly quadratic for positive-reach regions.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import geom
from .convex import ConvexRegion, convex_from_points, solve_convex
from .errors import DomainError, EmptyRegion, ReachViolation
from .geom import Arc, ArcPolygon, Segment, Vec2
from .reporting import Check
from .solver import CheegerSolution, ratio_scan_oracle, solve_strip
from .spine import (Strip, build_strip, circular_spine, s_curve_spine,
                    serpentine_spine, straight_spine)

# deterministic sub-cell grid shift; keeps sample rows away from tangencies
_JITTER = 0.5 * (math.sqrt(5.0) - 2.0)


@dataclass(frozen=True)
class GridMask:
    cell: float
    bits: Sequence[bytes]  # one row of 0/1 per sample line, read bits[iy][ix]

    @property
    def count(self) -> int:
        return sum(row.count(1) for row in self.bits)


def _monotone_subarcs(arc: Arc) -> List[Arc]:
    """Split an arc at its vertical extremes so each part is y-monotone."""
    cuts = [0.0, 1.0]
    for phi in (0.5 * math.pi, 1.5 * math.pi):
        off = arc.angle_offset(phi)
        if 1e-12 < off < arc.sweep - 1e-12:
            cuts.append(off / arc.sweep)
    cuts.sort()
    return [arc.subpiece(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)
            if cuts[i + 1] - cuts[i] > 1e-15]


def _row_crossings(pieces, y: float) -> List[float]:
    xs: List[float] = []
    for piece, mid_x in pieces:
        y0, y1 = piece.start.y, piece.end.y
        if (y0 > y) == (y1 > y):
            continue
        if isinstance(piece, Segment):
            xs.append(piece.start.x + (y - y0) * (piece.end.x - piece.start.x)
                      / (y1 - y0))
        else:
            dy = y - piece.center.y
            h2 = piece.radius * piece.radius - dy * dy
            root = math.sqrt(max(h2, 0.0))
            xs.append(piece.center.x + (root if mid_x >= piece.center.x
                                        else -root))
    xs.sort()
    return xs


def rasterize(p: ArcPolygon, cell: float) -> GridMask:
    """Center-sampled boolean mask of the region, padded by two cells."""
    if cell > p.diameter / 100.0 * (1.0 + 1e-12):
        raise DomainError(
            f"cell {cell} too coarse; needs <= diameter/100 = {p.diameter / 100.0}")
    x0, y0, x1, y1 = p.bounding_box
    ox = x0 - (2.0 + _JITTER) * cell
    oy = y0 - (2.0 + _JITTER) * cell
    nx = int(math.ceil((x1 - ox) / cell)) + 2
    ny = int(math.ceil((y1 - oy) / cell)) + 2
    flat: List[Tuple] = []
    for piece in p.pieces:
        if isinstance(piece, Segment):
            flat.append((piece, 0.0))
        else:
            for sub in _monotone_subarcs(piece):
                flat.append((sub, sub.point_at(0.5).x))
    rows = [bytearray(nx) for _ in range(ny)]
    for j in range(ny):
        y = oy + (j + 0.5) * cell
        xs = _row_crossings(flat, y)
        if len(xs) % 2 == 1:
            xs = xs[:-1]
        for k in range(0, len(xs), 2):
            lo = max(int(math.ceil((xs[k] - ox) / cell - 0.5)), 0)
            hi = min(int(math.floor((xs[k + 1] - ox) / cell - 0.5)) + 1, nx)
            if hi > lo:
                rows[j][lo:hi] = b"\1" * (hi - lo)
    return GridMask(cell=cell, bits=[bytes(row) for row in rows])


def grid_area(m: GridMask) -> float:
    if m.count == 0:
        raise EmptyRegion("mask holds no set cells")
    return m.count * m.cell * m.cell


def _boundary_loops(bits: Sequence[bytes]) -> List[List[Tuple[int, int]]]:
    """Closed corner-lattice loops around the set cells, region on the left;
    cells add their bottom, right, top and left edges column by column, the
    order that fixes which way each saddle corner turns."""
    blank = bytes(len(bits[0]) + 2)
    padded = [blank] + [b"\0" + row + b"\0" for row in bits] + [blank]
    cols = list(zip(*padded))  # cols[i][j]: cell (i - 1, j - 1)
    edges: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    def add(a: Tuple[int, int], b: Tuple[int, int]) -> None:
        edges.setdefault(a, []).append(b)

    for i, (left, col, right) in enumerate(zip(cols, cols[1:], cols[2:]), 1):
        for j in compress(range(len(col)), col):
            if not col[j - 1]:
                add((i, j), (i + 1, j))
            if not right[j]:
                add((i + 1, j), (i + 1, j + 1))
            if not col[j + 1]:
                add((i + 1, j + 1), (i, j + 1))
            if not left[j]:
                add((i, j + 1), (i, j))
    loops: List[List[Tuple[int, int]]] = []
    while edges:
        start = next(iter(edges))
        loop = [start]
        cur = start
        prev_dir: Optional[Tuple[int, int]] = None
        while True:
            outs = edges.get(cur)
            if not outs:
                break
            if len(outs) == 1 or prev_dir is None:
                nxt = outs.pop()
            else:
                # at a saddle corner prefer the rightmost turn
                right = (prev_dir[1], -prev_dir[0])
                ranked = sorted(
                    outs,
                    key=lambda q: _turn_rank((q[0] - cur[0], q[1] - cur[1]),
                                             prev_dir, right))
                nxt = ranked[0]
                outs.remove(nxt)
            if not outs:
                edges.pop(cur, None)
            prev_dir = (nxt[0] - cur[0], nxt[1] - cur[1])
            cur = nxt
            if cur == start:
                break
            loop.append(cur)
        loops.append(loop)
    return loops


def _turn_rank(d: Tuple[int, int], fwd: Tuple[int, int],
               right: Tuple[int, int]) -> int:
    if d == right:
        return 0
    if d == fwd:
        return 1
    return 2


def _simplify(points: List[Tuple[float, float]], eps: float
              ) -> List[Tuple[float, float]]:
    """Douglas-Peucker on an open polyline of (x, y) pairs, endpoints
    kept."""
    n = len(points)
    if n <= 2:
        return points
    keep = [False] * n
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    hypot = math.hypot
    while stack:
        i0, i1 = stack.pop()
        if i1 - i0 < 2:
            continue
        ax, ay = points[i0]
        bx, by = points[i1]
        abx, aby = bx - ax, by - ay
        ab_len = hypot(abx, aby)
        worst, worst_i = -1.0, -1
        for i in range(i0 + 1, i1):
            px, py = points[i]
            vx, vy = px - ax, py - ay
            d = abs(abx * vy - aby * vx) / ab_len if ab_len > 0 \
                else hypot(vx, vy)
            if d > worst:
                worst, worst_i = d, i
        if worst > eps:
            keep[worst_i] = True
            stack.append((i0, worst_i))
            stack.append((worst_i, i1))
    return [points[i] for i in range(n) if keep[i]]


def _polyline_length(pts: List[Tuple[float, float]], closed: bool) -> float:
    """Sum of the point-to-point distances, in order, round to the first
    point when `closed`."""
    n = len(pts)
    hypot = math.hypot
    return sum(hypot(pts[k][0] - pts[(k + 1) % n][0],
                     pts[k][1] - pts[(k + 1) % n][1])
               for k in range(n if closed else n - 1))


def grid_perimeter(m: GridMask) -> float:
    """Contour length of the mask boundary after staircase smoothing.

    The raw contour is the marching-squares boundary between set and unset
    cells; Douglas-Peucker simplification removes the single-cell staircase
    so smooth shapes measure within about 2 percent.  The smoothing
    tolerance is capped by the loop length, so an isolated cell keeps its
    exact square outline of 4*cell.
    """
    if m.count == 0:
        raise EmptyRegion("mask holds no set cells")
    total = 0.0
    for loop in _boundary_loops(m.bits):
        pts = [(float(i), float(j)) for i, j in loop]
        raw_len = _polyline_length(pts, closed=True)
        eps = min(2.0, raw_len / 20.0)
        # split the closed loop at two far-apart anchors
        x0, y0 = pts[0]
        far = max(range(len(pts)),
                  key=lambda k: math.hypot(pts[k][0] - x0, pts[k][1] - y0))
        if far == 0:
            total += raw_len * m.cell
            continue
        half1 = _simplify(pts[:far + 1], eps)
        half2 = _simplify(pts[far:] + [pts[0]], eps)
        length = _polyline_length(half1, closed=False)
        length += _polyline_length(half2, closed=False)
        total += length * m.cell
    return total


# ---------------------------------------------------------------------------
# outer Minkowski content


def minkowski_content(p: ArcPolygon) -> float:
    """Limit of (area(A + B_rho) - area(A))/rho via Richardson extrapolation.

    The offset area of a positive-reach region is exactly quadratic in rho,
    so the two-point extrapolation is exact up to roundoff and matches the
    perimeter.  The probes shrink to stay within certified reach.
    """
    rb = geom.reach_lower_bound(p)
    if rb <= 0.0:
        raise ReachViolation("region has no certified positive reach")
    base = min(1e-2 * p.diameter, 0.5 * rb)
    growth = []
    for rho in (0.5 * base, 0.25 * base):
        grown = geom.offset_outward_disk(p, rho, reach_bound=rb)
        growth.append((grown.area - p.area) / rho)
    return 2.0 * growth[1] - growth[0]


# ---------------------------------------------------------------------------
# continuity ladders


@dataclass(frozen=True)
class ContinuityReport:
    h_target: float
    h_sequence: Tuple[float, ...]
    deviations: Tuple[float, ...]
    decreasing: bool
    liminf_ok: bool


def _solve_domain(dom: Union[Strip, ConvexRegion]) -> CheegerSolution:
    if isinstance(dom, Strip):
        return solve_strip(dom)
    if isinstance(dom, ConvexRegion):
        return solve_convex(dom)
    raise DomainError(f"cannot solve a {type(dom).__name__}")


def continuity_test(target: Union[Strip, ConvexRegion],
                    sequence: Sequence[Union[Strip, ConvexRegion]]
                    ) -> ContinuityReport:
    """Check that Cheeger constants of a converging domain ladder approach
    the target's constant with (eventually) decreasing deviations, and that
    no term dips below the target beyond its own deviation budget."""
    h_t = _solve_domain(target).h
    hs = tuple(_solve_domain(d).h for d in sequence)
    devs = tuple(abs(h - h_t) for h in hs)
    zero = 1e-12 * max(h_t, 1.0)
    decreasing = all(devs[i + 1] < devs[i] or devs[i + 1] <= zero
                     for i in range(len(devs) - 1))
    liminf_ok = all(h >= h_t - dev - zero for h, dev in zip(hs, devs))
    return ContinuityReport(h_target=h_t, h_sequence=hs, deviations=devs,
                            decreasing=decreasing, liminf_ok=liminf_ok)


# ---------------------------------------------------------------------------
# strip families and the length ladder


LADDER_LENGTHS: Tuple[float, ...] = (4.5 * math.pi, 20.0, 40.0, 80.0, 160.0)


def strip_families() -> Dict[str, Callable[[float], Strip]]:
    """Length-parametrized strip families used by the bound/asymptotic sweeps.

    Constant-curvature magnitudes ride serpentine (alternating-sign) spines,
    since a single arc of curvature kappa self-intersects once kappa*L
    reaches 2*pi; the S-curve family bounds its total turn instead.
    """
    return {
        "straight": lambda L: build_strip(straight_spine(L), 1.0),
        "serpentine_k03": lambda L: build_strip(serpentine_spine(0.3, L), 1.0),
        "serpentine_k05": lambda L: build_strip(serpentine_spine(0.5, L), 1.0),
        "serpentine_k09": lambda L: build_strip(serpentine_spine(0.9, L), 1.0),
        "s_curve": lambda L: build_strip(s_curve_spine(4.0 / L, L), 1.0),
    }


@lru_cache(maxsize=1)
def ladder_solutions() -> Dict[Tuple[str, float], Tuple[Strip, CheegerSolution]]:
    out: Dict[Tuple[str, float], Tuple[Strip, CheegerSolution]] = {}
    for name, make in strip_families().items():
        for L in LADDER_LENGTHS:
            st = make(L)
            out[(name, L)] = (st, solve_strip(st))
    return out


# ---------------------------------------------------------------------------
# named suites


def _steiner_random_convex() -> List[ConvexRegion]:
    """50 hulls of seeded normal point clouds."""
    rng = random.Random(7)
    regions: List[ConvexRegion] = []
    while len(regions) < 50:
        n = rng.randint(3, 8)
        scale = rng.uniform(0.5, 3.0)
        hull = _convex_hull([Vec2(rng.gauss(0.0, scale), rng.gauss(0.0, scale))
                             for _ in range(n + 5)])
        if len(hull) < 3:
            continue
        regions.append(convex_from_points(hull))
    return regions


def _convex_hull(points: List[Vec2]) -> List[Vec2]:
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) < 3:
        return [Vec2(x, y) for x, y in pts]

    def half(seq):
        out: List[Tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2 and \
                    ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return [Vec2(x, y) for x, y in hull]


def stadium(length: float, radius: float) -> ArcPolygon:
    """Convex hull of two disks of equal radius at center distance `length`."""
    a = Vec2(0.0, 0.0)
    b = Vec2(length, 0.0)
    return ArcPolygon([
        Segment(Vec2(0.0, -radius), Vec2(length, -radius)),
        Arc.from_angles(b, radius, -0.5 * math.pi, math.pi),
        Segment(Vec2(length, radius), Vec2(0.0, radius)),
        Arc.from_angles(a, radius, 0.5 * math.pi, math.pi),
    ])


def notched_stadium() -> ArcPolygon:
    """Stadium of length 3 and radius 1 with a half-circle bite of radius
    0.2 in its top edge; positive reach equal to the notch radius,
    tangent-continuous at the junctions."""
    return ArcPolygon([
        Segment(Vec2(0.0, -1.0), Vec2(3.0, -1.0)),
        Arc.from_angles(Vec2(3.0, 0.0), 1.0, -0.5 * math.pi, math.pi),
        Segment(Vec2(3.0, 1.0), Vec2(1.7, 1.0)),
        Arc.from_angles(Vec2(1.5, 1.0), 0.2, 0.0, -math.pi),
        Segment(Vec2(1.3, 1.0), Vec2(0.0, 1.0)),
        Arc.from_angles(Vec2(0.0, 0.0), 1.0, 0.5 * math.pi, math.pi),
    ])


def run_steiner_suite() -> List[Check]:
    checks: List[Check] = []
    worst_area, worst_perim = 0.0, 0.0
    for region in _steiner_random_convex():
        p = region.region
        for rho in (0.01, 0.1, 1.0):
            grown = geom.offset_outward_disk(p, rho, reach_bound=math.inf)
            a_exp = p.area + rho * p.perimeter + math.pi * rho * rho
            p_exp = p.perimeter + 2.0 * math.pi * rho
            worst_area = max(worst_area, abs(grown.area - a_exp) / a_exp)
            worst_perim = max(worst_perim, abs(grown.perimeter - p_exp) / p_exp)
    checks.append(Check("steiner_area_identity", worst_area <= 1e-9,
                        f"max relative error {worst_area:.3e} over 150 offsets"))
    checks.append(Check("steiner_perimeter_identity", worst_perim <= 1e-9,
                        f"max relative error {worst_perim:.3e} over 150 offsets"))
    square = geom.polygon_from_points(
        [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
    shapes = {
        "square": square,
        "disk": geom.disk(Vec2(0, 0), 1.0),
        "stadium": stadium(2.0, 1.0),
        "notched_stadium": notched_stadium(),
    }
    for name, shape in shapes.items():
        est = minkowski_content(shape)
        err = abs(est - shape.perimeter) / shape.perimeter
        checks.append(Check(f"minkowski_content_{name}", err <= 1e-6,
                            f"relative error {err:.3e}"))
    return checks


def run_bounds_suite() -> List[Check]:
    checks: List[Check] = []
    for (name, L), (_, sol) in ladder_solutions().items():
        ok = sol.bounds.krepra_lower <= sol.h <= sol.bounds.krepra_upper
        checks.append(Check(
            f"bounds_{name}_L{L:g}", ok,
            f"h={sol.h:.8f} in [{sol.bounds.krepra_lower:.8f}, "
            f"{sol.bounds.krepra_upper:.8f}]"))
    return checks


ASYMPTOTIC_BUDGET = 5.0  # implementation budget for the O(1/L^2) constant


def run_asymptotic_suite() -> List[Check]:
    checks: List[Check] = []
    sols = ladder_solutions()
    for name in strip_families():
        devs = []
        for L in LADDER_LENGTHS:
            sol = sols[(name, L)][1]
            dev = sol.h - 1.0 - math.pi / (2.0 * L)
            devs.append(dev)
            checks.append(Check(
                f"asymptotic_budget_{name}_L{L:g}",
                L * L * abs(dev) <= ASYMPTOTIC_BUDGET,
                f"L^2*|h - 1 - pi/(2L)| = {L * L * abs(dev):.4f}"))
        orders = [math.log(abs(devs[i] / devs[i + 1]))
                  / math.log(LADDER_LENGTHS[i + 1] / LADDER_LENGTHS[i])
                  for i in range(len(devs) - 1)]
        checks.append(Check(
            f"asymptotic_order_{name}", min(orders) >= 1.9,
            f"consecutive log-log orders {[f'{o:.3f}' for o in orders]}"))
    return checks


def run_gallery_suite() -> List[Check]:
    from . import gallery

    checks: List[Check] = []
    theta0 = gallery.solve_pinocchio_theta()
    checks.append(Check("pinocchio_theta0", abs(theta0 - 0.531) <= 5e-3,
                        f"theta0 = {theta0:.6f}"))
    checks.append(Check(
        "pinocchio_g_endpoints",
        abs(gallery.pinocchio_g(0.0) + math.pi) <= 1e-12
        and abs(gallery.pinocchio_g(0.5 * math.pi) - math.pi) <= 1e-12,
        "g(0) = -pi and g(pi/2) = pi"))
    checks.extend(gallery.verify_self_cheeger(theta0))
    ratios = [gallery.pinocchio_family(t)[2] for t in (0.0, 1.0, 5.0, 10.0)]
    spread = max(ratios) - min(ratios)
    checks.append(Check("pinocchio_family_ratio_constant", spread <= 1e-12,
                        f"ratio spread {spread:.3e} over t in [0, 10]"))
    checks.extend(gallery.two_balls_example().checks)
    theta1 = gallery.two_ears_theta()
    p1, a1 = gallery.two_ears_measures(theta1)
    checks.append(Check(
        "two_ears_defining_identity",
        abs(p1 / a1 - 1.0 / math.sin(theta1)) <= 1e-10,
        f"theta1 = {theta1:.6f} (recorded; no reference value asserted)"))
    bt = gallery.build_bowtie()
    cand = gallery.bowtie_cheeger_candidate(bt)
    h_t = gallery.triangle_solution()[1].h
    checks.append(gallery.bowtie_arcs_check(cand))
    checks.append(Check("bowtie_ratio_below_triangle", cand.ratio < h_t,
                        f"candidate ratio {cand.ratio:.6f} < h(T) = {h_t:.6f}"))
    lb = gallery.build_bowtie(0.03)
    comps = gallery.loose_bowtie_inner_set(lb, 0.16)
    rb = geom.reach_lower_bound_union(comps)
    checks.append(Check("loose_bowtie_reach_witness", rb < 0.16,
                        f"certified reach {rb:.6f} < depth 0.16"))
    checks.append(Check(
        "loose_bowtie_formula_exceeds_disk",
        gallery.loose_bowtie_inner_formula(lb.alpha_corner, 0.16)
        > math.pi * 0.16 ** 2,
        "2*alpha*r^2 > pi*r^2 for alpha > pi/2"))
    return checks


def run_continuity_suite() -> List[Check]:
    checks: List[Check] = []
    unit_square = convex_from_points(
        [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
    squares = [convex_from_points(
        [Vec2(0, 0), Vec2(s, 0), Vec2(s, s), Vec2(0, s)])
        for s in (1.0 - 2.0 ** (-j) for j in range(1, 7))]
    rep = continuity_test(unit_square, squares)
    checks.append(Check("continuity_squares_decreasing", rep.decreasing,
                        f"deviations {[f'{d:.2e}' for d in rep.deviations]}"))
    checks.append(Check("continuity_squares_liminf", rep.liminf_ok,
                        "inner approximations stay above the limit"))
    target = build_strip(straight_spine(20.0), 1.0)
    strips = [build_strip(straight_spine(20.0 * (1.0 + 2.0 ** (-j))), 1.0)
              for j in range(1, 7)]
    rep2 = continuity_test(target, strips)
    checks.append(Check("continuity_strips_decreasing", rep2.decreasing,
                        f"deviations {[f'{d:.2e}' for d in rep2.deviations]}"))
    rep3 = continuity_test(unit_square, [unit_square, unit_square])
    checks.append(Check("continuity_constant_sequence",
                        max(rep3.deviations) == 0.0,
                        "constant sequence has zero deviation"))
    return checks


def _raster_agreement(name: str, p: ArcPolygon) -> List[Check]:
    mask = rasterize(p, p.diameter / 500.0)
    a_err = abs(grid_area(mask) - p.area) / p.area
    p_err = abs(grid_perimeter(mask) - p.perimeter) / p.perimeter
    return [
        Check(f"raster_area_{name}", a_err <= 0.01,
              f"relative error {a_err:.4%}"),
        Check(f"raster_perimeter_{name}", p_err <= 0.02,
              f"relative error {p_err:.4%}"),
    ]


def run_oracle_suite() -> List[Check]:
    from . import gallery

    checks: List[Check] = []
    scan_strips = {
        "straight_L9pi2": build_strip(straight_spine(4.5 * math.pi), 1.0),
        "straight_L20": build_strip(straight_spine(20.0), 1.0),
        "serpentine_k03_L20": build_strip(serpentine_spine(0.3, 20.0), 1.0),
        "serpentine_k05_L9pi2":
            build_strip(serpentine_spine(0.5, 4.5 * math.pi), 1.0),
        "circular_k03_L9pi2":
            build_strip(circular_spine(0.3, 4.5 * math.pi), 1.0),
        "s_curve_L24": build_strip(s_curve_spine(4.0 / 24.0, 24.0), 1.0),
    }
    sols = {}
    for name, st in scan_strips.items():
        sol = sols[name] = solve_strip(st)
        r_scan, _ = ratio_scan_oracle(st)
        checks.append(Check(
            f"cross_oracle_{name}", abs(sol.r - r_scan) <= 1e-5,
            f"|r_solve - r_scan| = {abs(sol.r - r_scan):.2e}"))
    square = geom.polygon_from_points(
        [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
    theta0 = gallery.solve_pinocchio_theta()
    sol = sols["straight_L9pi2"]
    sol_curved = sols["serpentine_k05_L9pi2"]
    shapes = {
        "square": square,
        "disk": geom.disk(Vec2(0, 0), 1.0),
        "filleted_square": geom.round_corners(square, 0.25),
        "pinocchio": gallery.pinocchio_region(theta0),
        "two_ears": gallery.two_ears_region(gallery.two_ears_theta()),
        "bowtie_candidate":
            gallery.bowtie_cheeger_candidate(gallery.build_bowtie()).region,
        "strip_cheeger_set": sol.cheeger_set,
        "curved_inner_set": sol_curved.inner_set,
        "curved_cheeger_set": sol_curved.cheeger_set,
    }
    for name, shape in shapes.items():
        checks.extend(_raster_agreement(name, shape))
    # a grid-aligned band this thin needs thickness-referenced resolution:
    # at diameter/500 the center samples sit a fixed fraction into the band
    # on every column, so the cell is tied to the smaller extent instead
    thin = sol.inner_set
    x0, y0, x1, y1 = thin.bounding_box
    cell = min(thin.diameter / 500.0, min(x1 - x0, y1 - y0) / 50.0)
    mask = rasterize(thin, cell)
    a_err = abs(grid_area(mask) - thin.area) / thin.area
    p_err = abs(grid_perimeter(mask) - thin.perimeter) / thin.perimeter
    checks.append(Check("raster_area_straight_inner_set", a_err <= 0.01,
                        f"relative error {a_err:.4%} at thickness/50 cells"))
    checks.append(Check("raster_perimeter_straight_inner_set", p_err <= 0.02,
                        f"relative error {p_err:.4%} at thickness/50 cells"))
    return checks


SUITES: Dict[str, Callable[[], List[Check]]] = {
    "steiner": run_steiner_suite,
    "bounds": run_bounds_suite,
    "asymptotic": run_asymptotic_suite,
    "gallery": run_gallery_suite,
    "continuity": run_continuity_suite,
    "oracle": run_oracle_suite,
}


def run_suite(name: str) -> List[Check]:
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
