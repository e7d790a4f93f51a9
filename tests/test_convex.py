import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import geom_reference as reference
from cheeger import convex, geom, solver, verify
from cheeger.errors import (CheegerError, EmptyInnerSet, InvalidGeometry,
                            PropertyViolation)
from cheeger.geom import Arc, ArcPolygon, Segment, Vec2
from cheeger.roots import bisect

SQRT_PI = math.sqrt(math.pi)


def square_region(side=1.0):
    return convex.convex_from_points(
        [Vec2(0, 0), Vec2(side, 0), Vec2(side, side), Vec2(0, side)])


def triangle_region():
    return convex.convex_from_points(
        [Vec2(0, 0), Vec2(1, 0), Vec2(0.5, 0.5 * math.sqrt(3.0))])


def inradius(c: convex.ConvexRegion) -> float:
    """Largest depth with a nonempty inner parallel body, by bisection."""
    x0, y0, x1, y1 = c.region.bounding_box
    hi = 0.5 * min(x1 - x0, y1 - y0) * (1.0 + 1e-9)

    def feasible(r: float) -> float:
        try:
            convex.inner_parallel_body(c, r)
        except EmptyInnerSet:
            return -1.0
        return 1.0

    lo, _ = bisect(feasible, 0.0, hi, 1e-12 * max(hi, 1.0))
    return lo


def triangle_root() -> float:
    # analytic solution of A (1 - r/rho_in)^2 = pi r^2 for the unit triangle
    area = math.sqrt(3.0) / 4.0
    rho_in = math.sqrt(3.0) / 6.0
    return math.sqrt(area) / (SQRT_PI + math.sqrt(area) / rho_in)


def test_nonconvex_rejected():
    with pytest.raises(InvalidGeometry):
        convex.convex_from_points(
            [Vec2(0, 0), Vec2(2, 0), Vec2(1, 0.2), Vec2(1, 2)])


def test_inner_body_square():
    inner = convex.inner_parallel_body(square_region(), 0.2)
    assert inner.area == pytest.approx(0.36, abs=1e-13)
    assert inner.perimeter == pytest.approx(2.4, abs=1e-13)


def test_inner_body_disk():
    disk = convex.ConvexRegion(geom.disk(Vec2(0, 0), 1.0))
    inner = convex.inner_parallel_body(disk, 0.4)
    assert inner.area == pytest.approx(math.pi * 0.36, abs=1e-12)


def test_inner_body_triangle_similar():
    inner = convex.inner_parallel_body(triangle_region(), 0.1)
    rho_in = math.sqrt(3.0) / 6.0
    assert inradius(inner) == pytest.approx(rho_in - 0.1, abs=1e-8)


def test_inner_body_empty():
    with pytest.raises(EmptyInnerSet):
        convex.inner_parallel_body(square_region(), 0.55)


def test_inner_body_drops_vanished_edges():
    # clip one corner by a short chamfer; past its offset lifetime the
    # chamfer edge must drop and the area must match the raster oracle
    pts = [Vec2(0.1, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1), Vec2(0, 0.1)]
    region = convex.convex_from_points(pts)
    inner = convex.inner_parallel_body(region, 0.3)
    assert len(inner.region.pieces) == 4  # chamfer edge has vanished
    mask = verify.rasterize(inner.region, inner.region.diameter / 400.0)
    assert verify.grid_area(mask) == pytest.approx(inner.area, rel=0.01)


def test_solve_disks_exact():
    for radius in (0.5, 1.0, 3.0):
        sol = convex.solve_convex(
            convex.ConvexRegion(geom.disk(Vec2(0, 0), radius)))
        assert sol.h == pytest.approx(2.0 / radius, abs=1e-10)
        assert sol.r == pytest.approx(0.5 * radius, abs=1e-10)


def test_solve_unit_square():
    sol = convex.solve_convex(square_region())
    assert sol.h == pytest.approx(2.0 + SQRT_PI, abs=1e-9)
    assert sol.r == pytest.approx(1.0 / (2.0 + SQRT_PI), abs=1e-9)
    assert sol.residual <= 1e-10 * math.pi * sol.r ** 2
    assert sol.iterations == 4


def test_solve_triangle():
    sol = convex.solve_convex(triangle_region())
    assert sol.r == pytest.approx(triangle_root(), abs=1e-10)


def test_square_scan_oracle():
    sol = convex.solve_convex(square_region())
    r_scan, h_scan = solver.ratio_scan_oracle(square_region())
    assert abs(r_scan - sol.r) <= 1e-5
    assert h_scan == pytest.approx(sol.h, abs=1e-8)


def test_ratio_identity():
    for region in (square_region(), triangle_region(),
                   convex.ConvexRegion(geom.disk(Vec2(0, 0), 2.0))):
        sol = convex.solve_convex(region)
        ratio = sol.cheeger_set.perimeter / sol.cheeger_set.area
        assert ratio == pytest.approx(sol.h, abs=1e-9 * sol.h)


def test_steiner_closure_disk_equality():
    disk = convex.ConvexRegion(geom.disk(Vec2(0, 0), 1.0))
    inner = convex.inner_parallel_body(disk, 0.3)
    back = geom.offset_outward_disk(inner.region, 0.3, reach_bound=math.inf)
    assert back.area == pytest.approx(disk.area, rel=1e-12)


def test_steiner_closure_square_strict():
    sq = square_region()
    inner = convex.inner_parallel_body(sq, 0.2)
    back = geom.offset_outward_disk(inner.region, 0.2, reach_bound=math.inf)
    # corners are rounded off: strictly smaller, contained
    assert back.area < sq.area - 1e-3
    for piece in back.pieces:
        for u in (0.0, 0.5):
            assert geom.distance_to_boundary(sq.region, piece.point_at(u)) \
                >= -1e-12


def test_nested_squares_monotone():
    h1 = convex.solve_convex(square_region(1.0)).h
    h2 = convex.solve_convex(square_region(2.0)).h
    assert h1 >= h2
    assert h2 == pytest.approx(0.5 * h1, rel=1e-10)


def test_inradius_square():
    assert inradius(square_region()) == pytest.approx(0.5, abs=1e-9)


def filleted_regular(n, fraction):
    """Regular n-gon of circumradius 1, corners rounded at `fraction` of its
    Cheeger radius, so the Cheeger set and h stay those of the n-gon."""
    poly = geom.polygon_from_points(
        [Vec2(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
         for k in range(n)])
    rho_in = math.cos(math.pi / n)
    area = n * rho_in * rho_in * math.tan(math.pi / n)
    h = 1.0 / rho_in + math.sqrt(math.pi / area)
    return geom.round_corners(poly, fraction / h), h


# segments meeting arcs tangentially: the inner parallel body must keep its
# junctions tangent instead of failing the convexity check
@pytest.mark.parametrize("region, h", [
    *[pytest.param(geom.round_corners(square_region().region, rho),
                   2.0 + SQRT_PI, id=f"square-fillet{rho}")
      for rho in (0.05, 0.15, 0.25)],
    *[pytest.param(*filleted_regular(n, frac), id=f"{n}gon-fillet{frac}")
      for n in (3, 5, 6, 8) for frac in (0.2, 0.9)],
    # unit-radius stadiums are self-Cheeger: h = (2l + 2 pi) / (2l + pi)
    *[pytest.param(verify.stadium(l, 1.0),
                   (2 * l + 2 * math.pi) / (2 * l + math.pi), id=f"stadium{l}")
      for l in (0.5, 1.0, 2.0, 2.2, 3.0)],
])
def test_solve_segments_meeting_arcs(region, h):
    sol = convex.solve_convex(convex.ConvexRegion(region))
    assert sol.h == pytest.approx(h, rel=1e-10)
    assert sol.residual <= 1e-10 * math.pi * sol.r ** 2


def lens(radius, d, center):
    """Intersection of two disks of the given radius, centres d apart."""
    h = math.sqrt(radius * radius - 0.25 * d * d)
    top, bottom = center + Vec2(0.0, h), center + Vec2(0.0, -h)
    return ArcPolygon([
        geom.arc_between(bottom, top, center + Vec2(-0.5 * d, 0.0), ccw=True),
        geom.arc_between(top, bottom, center + Vec2(0.5 * d, 0.0), ccw=True)])


def lens_root(radius, d):
    # the inner body at depth r is the lens of radius rho = radius - r
    def f(r):
        rho = radius - r
        return (2.0 * rho * rho * math.acos(d / (2.0 * rho))
                - 0.5 * d * math.sqrt(4.0 * rho * rho - d * d)
                - math.pi * r * r)

    lo, hi = 0.0, radius - 0.5 * d
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


# the lens corners are arc-arc junctions whose vertex queries land on the
# chords of the boundary arcs
@pytest.mark.parametrize("radius, d", [(1.0, 1.0), (1.0, 1.5), (2.0, 1.0)])
@pytest.mark.parametrize("center", [Vec2(0.0, 0.0), Vec2(3.0, 7.0)])
def test_solve_lens_closed_form(radius, d, center):
    sol = convex.solve_convex(convex.ConvexRegion(lens(radius, d, center)))
    assert sol.r == pytest.approx(lens_root(radius, d), rel=1e-14)


HALF_DISK = ArcPolygon([Arc.from_angles(Vec2(0.0, 0.0), 1.0, 0.0, math.pi),
                        Segment(Vec2(-1.0, 0.0), Vec2(1.0, 0.0))])
_UNIT_SEGMENT = Arc.from_angles(Vec2(0.0, 0.0), 1.0, -1.0, 2.0)


# convex corners where a segment meets an arc at an angle
@pytest.mark.parametrize("region", [
    pytest.param(HALF_DISK, id="half-disk"),
    pytest.param(ArcPolygon([
        Segment(Vec2(0.0, 0.0), Vec2(1.0, 0.0)),
        Arc.from_angles(Vec2(0.0, 0.0), 1.0, 0.0, 0.5 * math.pi),
        Segment(Vec2(0.0, 1.0), Vec2(0.0, 0.0))]), id="quarter-disk"),
    pytest.param(ArcPolygon([
        _UNIT_SEGMENT, Segment(_UNIT_SEGMENT.end, _UNIT_SEGMENT.start)]),
        id="circular-segment"),
    pytest.param(ArcPolygon([
        Segment(Vec2(0.0, -1.0), Vec2(1.0, -1.0)),
        geom.arc_between(Vec2(1.0, -1.0), Vec2(1.0, 1.0), Vec2(0.5, 0.0),
                         ccw=True),
        Segment(Vec2(1.0, 1.0), Vec2(0.0, 1.0)),
        Segment(Vec2(0.0, 1.0), Vec2(0.0, -1.0))]), id="D"),
])
def test_solve_segments_cornering_arcs(region):
    c = convex.ConvexRegion(region)
    sol = convex.solve_convex(c)
    ratio = sol.cheeger_set.perimeter / sol.cheeger_set.area
    assert ratio == pytest.approx(sol.h, rel=1e-12)
    r_scan, _ = solver.ratio_scan_oracle(c)
    assert sol.r == pytest.approx(r_scan, abs=1e-5)


def test_solve_half_disk():
    sol = convex.solve_convex(convex.ConvexRegion(HALF_DISK))
    assert sol.h == pytest.approx(3.154289847262, abs=1e-12)


@pytest.mark.parametrize("region", [
    pytest.param(square_region(), id="square"),
    pytest.param(convex.convex_from_points(
        [geom.unit_from_angle(2.0 * math.pi * k / 64) for k in range(64)]),
        id="64gon"),
    pytest.param(convex.ConvexRegion(geom.disk(Vec2(0.3, -0.2), 1.0)),
                 id="disk"),
])
def test_shallow_inner_body_is_caught(region, monkeypatch):
    # an inner body built a relative 1e-6 too shallow puts its offset
    # outside the region; the vertex depth test must see it
    built = convex.inner_parallel_body
    monkeypatch.setattr(convex, "inner_parallel_body",
                        lambda c, r: built(c, r * (1.0 - 1e-6)))
    with pytest.raises(PropertyViolation, match="inner vertex"):
        convex.solve_convex(region)


def test_arc_depth_floor_charges_span_overrun():
    # half disk of radius 2: one source arc spanning [0, pi] around the origin
    half = ArcPolygon([Arc.from_angles(Vec2(0.0, 0.0), 2.0, 0.0, math.pi),
                       Segment(Vec2(-2.0, 0.0), Vec2(2.0, 0.0))])
    inside = Arc.from_angles(Vec2(0.0, 0.0), 1.5, 0.1, 2.0)
    assert convex._arc_depth_floor(half, inside) == pytest.approx(0.5)
    overrun = Arc.from_angles(Vec2(0.0, 0.0), 1.5, -0.2, 2.0)
    assert convex._arc_depth_floor(half, overrun) == pytest.approx(
        2.0 * math.cos(0.2) - 1.5)
    elsewhere = Arc.from_angles(Vec2(0.1, 0.0), 1.5, 0.1, 2.0)
    assert convex._arc_depth_floor(half, elsewhere) == -math.inf


def regular_region(n, center):
    return convex.convex_from_points(
        [center + geom.unit_from_angle(2.0 * math.pi * k / n) for k in range(n)])


# containment rounding grows with the coordinates, not with the region size
@pytest.mark.parametrize("offset", [1e3, 1e6, 1e8])
def test_solve_translated_far_from_origin(offset):
    h0 = convex.solve_convex(regular_region(7, Vec2(0.0, 0.0))).h
    far = convex.solve_convex(regular_region(7, Vec2(offset, offset)))
    assert far.h == pytest.approx(h0, rel=1e-8)


@given(hst.lists(hst.floats(min_value=1.0, max_value=1.9), min_size=3,
                 max_size=40),
       hst.floats(min_value=-3.0, max_value=3.0),
       hst.floats(min_value=0.0, max_value=2.0 * math.pi),
       hst.floats(min_value=-10.0, max_value=10.0),
       hst.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_tangential_polygon_matches_closed_form(weights, log_rho, turn, cx, cy):
    # polygon circumscribed about a circle of radius rho: its inner parallel
    # bodies are homothetic, so h = 1/rho + sqrt(pi/A) exactly; weights of
    # at most 1.9 keep every gap between edge normals below pi
    rho = 10.0 ** log_rho
    center = Vec2(cx * rho, cy * rho)
    verts, tan_sum, normal = [], 0.0, turn
    for w in weights:
        gap = 2.0 * math.pi * w / sum(weights)
        tan_sum += math.tan(0.5 * gap)
        verts.append(center + (rho / math.cos(0.5 * gap))
                     * geom.unit_from_angle(normal + 0.5 * gap))
        normal += gap
    h = 1.0 / rho + math.sqrt(math.pi / (rho * rho * tan_sum))
    sol = convex.solve_convex(convex.convex_from_points(verts))
    assert sol.h == pytest.approx(h, rel=1e-12)
    assert sol.iterations <= 12


def jittered_ngon(rng, n):
    """n points on a circle at angles jittered by up to a quarter step."""
    rot = rng.uniform(0.0, 2.0 * math.pi)
    step = 2.0 * math.pi / n
    return convex.convex_from_points(
        [geom.unit_from_angle(rot + step * (k + rng.uniform(-0.25, 0.25)))
         for k in range(n)])


def tangential_region(weights, turn):
    """Polygon circumscribed about the unit circle, one edge per weight."""
    verts, normal = [], turn
    for w in weights:
        gap = 2.0 * math.pi * w / sum(weights)
        verts.append(geom.unit_from_angle(normal + 0.5 * gap)
                     * (1.0 / math.cos(0.5 * gap)))
        normal += gap
    return convex.convex_from_points(verts)


# jittered n-gons and tangential polygons drop their shortest spans;
# stadiums, filleted polygons and lenses also swallow arcs and lose junctions
REGION_FAMILIES = ("ngon", "tangential", "stadium", "fillet", "lens")


@hst.composite
def convex_regions(draw, family):
    if family == "ngon":
        return jittered_ngon(draw(hst.randoms(use_true_random=False)),
                             draw(hst.integers(min_value=3, max_value=64)))
    if family == "tangential":
        weights = draw(hst.lists(hst.floats(min_value=1.0, max_value=1.9),
                                 min_size=3, max_size=12))
        return tangential_region(weights, draw(hst.floats(0.0, 2.0 * math.pi)))
    if family == "stadium":
        return convex.ConvexRegion(verify.stadium(
            draw(hst.floats(0.1, 3.0)), draw(hst.floats(0.2, 2.0))))
    if family == "fillet":
        region, _ = filleted_regular(draw(hst.integers(3, 8)),
                                     draw(hst.floats(0.05, 0.95)))
        return convex.ConvexRegion(region)
    radius = draw(hst.floats(0.5, 2.0))
    return convex.ConvexRegion(
        lens(radius, radius * draw(hst.floats(0.2, 1.8)), Vec2(0.3, -0.2)))


def body_bits(build, c, r):
    """Every float of the inner body in float.hex, or the error it raised."""
    try:
        body = build(c, r)
    except CheegerError as exc:
        return type(exc), str(exc)
    bits = [body.area.hex(), body.perimeter.hex()]
    for piece in body.region.pieces:
        points = [piece.start, piece.end]
        if isinstance(piece, Arc):
            points.append(piece.center)
            bits += [piece.radius.hex(), piece.sweep.hex()]
        bits.append(type(piece).__name__)
        bits += [v.hex() for p in points for v in (p.x, p.y)]
    return bits


@pytest.mark.parametrize("family", REGION_FAMILIES)
@given(data=hst.data())
@settings(max_examples=40, deadline=None)
def test_inner_body_matches_rebuilding_reference(family, data):
    # depths up to just past sqrt(A/pi), the root bracket's upper end,
    # where the body empties one support at a time
    c = data.draw(convex_regions(family))
    r = data.draw(hst.floats(min_value=0.0, max_value=1.01)) \
        * math.sqrt(c.area / math.pi)
    assert body_bits(convex.inner_parallel_body, c, r) == \
        body_bits(reference.inner_parallel_body, c, r)


def test_emptying_inner_body_makes_linear_crossings(monkeypatch):
    # past the inradius every support drops in turn; re-intersecting only
    # the neighbours of each drop keeps the crossings linear in n (the
    # loop that rebuilds all junctions after each drop makes about n^2/2)
    n = 256
    c = jittered_ngon(random.Random(0), n)
    calls = []
    crossing = convex._support_vertex

    def counted(*args):
        calls.append(args)
        return crossing(*args)

    monkeypatch.setattr(convex, "_support_vertex", counted)
    with pytest.raises(EmptyInnerSet):
        convex.inner_parallel_body(c, math.sqrt(c.area / math.pi))
    assert len(calls) <= 3 * n
