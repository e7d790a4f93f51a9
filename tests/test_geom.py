import functools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geom_reference as reference
from cheeger import geom, verify
from cheeger.errors import InvalidGeometry, ReachViolation, SelfIntersecting
from cheeger.geom import Arc, ArcPolygon, Segment, Vec2

# analytic fillet values: square of side 1 with four corner arcs of radius 1/4
FILLET_AREA = 1.0 - (4.0 - math.pi) * 0.0625
FILLET_PERIMETER = 4.0 - 8.0 * 0.25 + 2.0 * math.pi * 0.25


def test_square_measures(unit_square):
    assert unit_square.area == pytest.approx(1.0, abs=1e-15)
    assert unit_square.perimeter == pytest.approx(4.0, abs=1e-15)


def test_disk_measures(unit_disk):
    assert unit_disk.area == pytest.approx(math.pi, abs=1e-12)
    assert unit_disk.perimeter == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_filleted_square_measures(filleted_square):
    assert filleted_square.area == pytest.approx(FILLET_AREA, abs=1e-12)
    assert filleted_square.perimeter == pytest.approx(FILLET_PERIMETER, abs=1e-12)


def test_filleted_square_against_raster(filleted_square):
    mask = verify.rasterize(filleted_square, 1e-3 * filleted_square.diameter)
    assert verify.grid_area(mask) == pytest.approx(FILLET_AREA, rel=0.01)
    assert verify.grid_perimeter(mask) == pytest.approx(FILLET_PERIMETER, rel=0.01)


def test_clockwise_input_normalized():
    cw = geom.polygon_from_points([Vec2(0, 0), Vec2(0, 1), Vec2(1, 1), Vec2(1, 0)])
    assert cw.area == pytest.approx(1.0)
    assert geom.is_convex(cw)


def test_area_of_loop_with_junction_gaps():
    # a 1000 x 1 rectangle of 2002 segments whose ends all overshoot the
    # next start by 1e-9 upward, inside the closure tolerance; the area may
    # be off by at most perimeter * gap, however far the gaps are from the
    # anchor
    corners = ([Vec2(float(x), 0.0) for x in range(1001)]
               + [Vec2(float(x), 1.0) for x in range(1000, -1, -1)])
    gap = Vec2(0.0, 1e-9)
    n = len(corners)
    loop = ArcPolygon([Segment(corners[i], corners[(i + 1) % n] + gap)
                       for i in range(n)])
    assert len(loop.pieces) == 2002
    assert abs(loop.area - 1000.0) <= 2002.0 * 1e-9


def test_open_loop_rejected():
    with pytest.raises(InvalidGeometry):
        ArcPolygon([Segment(Vec2(0, 0), Vec2(1, 0)),
                    Segment(Vec2(1, 0.5), Vec2(0, 0))])


# squares whose area or perimeter overflows: nan area at 1e308, inf area at
# 1e160, and at 1e200 an inf area that the zero-area test misreads
@pytest.mark.parametrize("c", [1e308, 1e160, 1e200])
def test_loop_with_overflowing_measures_rejected(c):
    with pytest.raises(InvalidGeometry, match="overflow"):
        geom.polygon_from_points(
            [Vec2(-c, -c), Vec2(c, -c), Vec2(c, c), Vec2(-c, c)])


def test_arc_endpoint_validation():
    with pytest.raises(InvalidGeometry):
        Arc(Vec2(1, 0), Vec2(0, 1.5), Vec2(0, 0), 1.0, True, 0.5 * math.pi)


def test_offset_square():
    square = geom.polygon_from_points(
        [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
    grown = geom.offset_outward_disk(square, 0.5)
    assert grown.area == pytest.approx(1.0 + 2.0 + math.pi * 0.25, abs=1e-12)
    assert grown.perimeter == pytest.approx(4.0 + math.pi, abs=1e-12)


def test_offset_disk(unit_disk):
    grown = geom.offset_outward_disk(unit_disk, 1.0)
    assert grown.area == pytest.approx(4.0 * math.pi, abs=1e-12)
    assert grown.perimeter == pytest.approx(4.0 * math.pi, abs=1e-12)


def test_offset_triangle(equilateral_triangle):
    grown = geom.offset_outward_disk(equilateral_triangle, 0.1)
    assert grown.perimeter == pytest.approx(3.0 + 0.2 * math.pi, abs=1e-12)


def test_offset_requires_reach():
    ell = geom.polygon_from_points(
        [Vec2(0, 0), Vec2(3, 0), Vec2(3, 1), Vec2(1, 1), Vec2(1, 3), Vec2(0, 3)])
    with pytest.raises(ReachViolation):
        geom.offset_outward_disk(ell, 0.1)


def test_distance_examples(unit_square, unit_disk):
    assert geom.distance_to_boundary(unit_square, Vec2(0.5, 0.5)) == \
        pytest.approx(0.5, abs=1e-12)
    assert geom.distance_to_boundary(unit_square, Vec2(2.0, 0.5)) == \
        pytest.approx(-1.0, abs=1e-12)
    assert geom.distance_to_boundary(unit_disk, Vec2(0.3, 0.0)) == \
        pytest.approx(0.7, abs=1e-12)


def test_points_on_arc_chords_inside_disk(unit_disk):
    # on an arc's chord the chord angle is +-pi by the sign of a rounded
    # zero; the arc must still add its own half turn
    for arc in unit_disk.pieces:
        for k in range(1, 20):
            q = arc.start + (arc.end - arc.start) * (k / 20.0)
            assert geom.distance_to_boundary(unit_disk, q) == pytest.approx(
                1.0 - q.norm(), abs=1e-12)


def test_notch_chord_points_outside():
    # the notch of radius 0.2 around (1.5, 1) is cut out of the stadium
    shape = verify.notched_stadium()
    for x in (1.35, 1.4, 1.45, 1.5, 1.55, 1.6, 1.65):
        assert geom.distance_to_boundary(shape, Vec2(x, 1.0)) == \
            pytest.approx(-(0.2 - abs(x - 1.5)), abs=1e-12)


def test_reach_convex(unit_square, unit_disk):
    assert geom.reach_lower_bound(unit_square) == math.inf
    assert geom.reach_lower_bound(unit_disk) == math.inf


def test_reach_concave_vertex():
    ell = geom.polygon_from_points(
        [Vec2(0, 0), Vec2(3, 0), Vec2(3, 1), Vec2(1, 1), Vec2(1, 3), Vec2(0, 3)])
    assert geom.reach_lower_bound(ell) == 0.0


def test_reach_notched_stadium():
    shape = verify.notched_stadium()
    bound = geom.reach_lower_bound(shape)
    assert bound <= 0.2 + 1e-12
    assert bound > 0.0


def test_reach_bound_respected_by_nearest_point_scan():
    # brute force: just outside the notch every probe within the certified
    # reach must keep a unique nearest boundary point
    shape = verify.notched_stadium()
    bound = geom.reach_lower_bound(shape)
    probes = []
    for i in range(40):
        x = 1.3 + 0.4 * i / 39.0
        for j in range(8):
            y = 1.01 + 0.12 * j / 7.0
            probes.append(Vec2(x, y))
    for q in probes:
        sd = geom.distance_to_boundary(shape, q)
        if sd >= 0 or -sd > bound * 0.95:
            continue
        hits = []
        for piece in shape.pieces:
            d, pt = reference.point_to_piece(q, piece)
            hits.append((d, pt))
        dmin = min(h[0] for h in hits)
        close = [pt for d, pt in hits if d <= dmin * (1.0 + 1e-9)]
        for a in close:
            for b in close:
                assert a.distance(b) <= 1e-6, "non-unique projection inside reach"


def test_simple_check_catches_crossing():
    crossed = [Segment(Vec2(0, 0), Vec2(5, 0)), Segment(Vec2(5, 0), Vec2(0, 3)),
               Segment(Vec2(0, 3), Vec2(3, 3)), Segment(Vec2(3, 3), Vec2(0, 0))]
    poly = ArcPolygon(crossed)
    with pytest.raises(SelfIntersecting):
        geom.assert_simple(poly)


@pytest.mark.parametrize("bottom, top", [
    # a clockwise top arc that dips through the bottom segment
    (Segment(Vec2(0, 0), Vec2(4, 0)),
     geom.arc_between(Vec2(4, 1), Vec2(0, 1), Vec2(2, 1.5), ccw=False)),
    # two clockwise arcs that bulge across each other
    (geom.arc_between(Vec2(0, 0), Vec2(4, 0), Vec2(2, -1), ccw=False),
     geom.arc_between(Vec2(4, 1), Vec2(0, 1), Vec2(2, 2), ccw=False)),
], ids=["segment-arc", "arc-arc"])
def test_simple_check_catches_crossing_arcs(bottom, top):
    poly = ArcPolygon([bottom, Segment(Vec2(4, 0), Vec2(4, 1)), top,
                       Segment(Vec2(0, 1), Vec2(0, 0))])
    with pytest.raises(SelfIntersecting):
        geom.assert_simple(poly)


def test_round_corners_too_large(unit_square):
    with pytest.raises(InvalidGeometry):
        geom.round_corners(unit_square, 0.6)


# ---------------------------------------------------------------------------
# property tests

coords = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def convex_polygons(draw):
    pts = draw(st.lists(st.tuples(coords, coords), min_size=5, max_size=14))
    hull = verify._convex_hull([Vec2(x, y) for x, y in pts])
    if len(hull) < 3:
        return None
    try:
        poly = geom.polygon_from_points(hull)
    except InvalidGeometry:
        return None
    if poly.area < 1e-3 or not geom.is_convex(poly):
        return None
    if min(piece.length for piece in poly.pieces) < 1e-7:
        return None
    return poly


# a vertex 1e-9 off a straight edge turns by less than ANG_TOL but still
# needs its vertex arc: without it the offset loop is not closed
NEAR_COLLINEAR = geom.polygon_from_points(
    [Vec2(-1, 0), Vec2(0, -2), Vec2(1e-9, 0), Vec2(0, 2)])


@given(convex_polygons(), st.sampled_from([0.01, 0.1, 1.0]))
@example(NEAR_COLLINEAR, 0.1)
@settings(max_examples=60, deadline=None)
def test_steiner_identities(poly, rho):
    if poly is None:
        return
    grown = geom.offset_outward_disk(poly, rho, reach_bound=math.inf)
    area_exp = poly.area + rho * poly.perimeter + math.pi * rho * rho
    perim_exp = poly.perimeter + 2.0 * math.pi * rho
    assert grown.area == pytest.approx(area_exp, rel=1e-9)
    assert grown.perimeter == pytest.approx(perim_exp, rel=1e-9)


@given(convex_polygons(), st.sampled_from([0.5, 2.0, 10.0]))
@settings(max_examples=40, deadline=None)
def test_scaling_laws(poly, lam):
    if poly is None:
        return
    scaled = poly.scaled(lam)
    assert scaled.area == pytest.approx(lam * lam * poly.area, rel=1e-12)
    assert scaled.perimeter == pytest.approx(lam * poly.perimeter, rel=1e-12)


@given(convex_polygons())
@settings(max_examples=40, deadline=None)
def test_isoperimetric_inequality(poly):
    if poly is None:
        return
    assert poly.perimeter >= 2.0 * math.sqrt(math.pi * poly.area) * (1.0 - 1e-12)


@given(convex_polygons(), st.tuples(coords, coords))
@settings(max_examples=60, deadline=None)
def test_signed_distance_against_halfplane_oracle(poly, xy):
    if poly is None:
        return
    q = Vec2(*xy)
    # independent containment oracle for convex polygons: left of every edge
    inside = all((piece.end - piece.start).cross(q - piece.start) >= 0
                 for piece in poly.pieces)
    sd = geom.distance_to_boundary(poly, q)
    if abs(sd) < 1e-9:
        return
    assert (sd > 0) == inside


def test_isoperimetric_disk_equality(unit_disk):
    assert unit_disk.perimeter == pytest.approx(
        2.0 * math.sqrt(math.pi * unit_disk.area), rel=1e-12)


# ---------------------------------------------------------------------------
# the float kernel behind distance_to_boundary against the per-piece queries

# closest approach, within which the sign oracles below may disagree with
# the computed sign through rounding alone
NEAR = 1e-9
shifts = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
fractions = st.floats(min_value=0.0, max_value=1.0)


def _disk_depth(x):
    return 1.3 - math.hypot(x.x - 0.2, x.y + 0.1)


def _filleted_square_depth(x):
    # unit square with corner radius 1/4: a square of half side 1/4 grown by 1/4
    qx = abs(x.x - 0.5) - 0.25
    qy = abs(x.y - 0.5) - 0.25
    return 0.25 - (math.hypot(max(qx, 0.0), max(qy, 0.0)) + min(max(qx, qy), 0.0))


def _notched_stadium_depth(x):
    # stadium minus the open notch disk: positive exactly inside both parts
    u = min(max(x.x, 0.0), 3.0)
    stadium = 1.0 - math.hypot(x.x - u, x.y)
    notch = math.hypot(x.x - 1.5, x.y - 1.0) - 0.2
    return min(stadium, notch)


@functools.lru_cache(maxsize=1)
def _kernel_shapes():
    square = geom.polygon_from_points(
        [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
    return (
        (geom.disk(Vec2(0.2, -0.1), 1.3, 5), _disk_depth),
        (geom.round_corners(square, 0.25), _filleted_square_depth),
        (verify.notched_stadium(), _notched_stadium_depth),
    )


@functools.lru_cache(maxsize=1)
def _kernel_strips():
    families = verify.strip_families()
    return (families["serpentine_k09"](20.0), families["s_curve"](15.0))


def _nearest_piece_distance(poly, x):
    return min(reference.point_to_piece(x, q)[0] for q in poly.pieces)


@given(st.integers(0, 2), fractions, fractions, shifts, shifts)
@settings(max_examples=150, deadline=None)
def test_signed_distance_matches_piece_queries(which, u, v, dx, dy):
    shape, depth = _kernel_shapes()[which]
    x0, y0, x1, y1 = shape.bounding_box
    local = Vec2(x0 - 0.5 + u * (x1 - x0 + 1.0), y0 - 0.5 + v * (y1 - y0 + 1.0))
    shift = Vec2(dx, dy)
    poly = shape.translated(shift)
    x = local + shift
    sd = geom.distance_to_boundary(poly, x)
    assert abs(sd) == _nearest_piece_distance(poly, x)
    if abs(depth(local)) > NEAR:
        assert (sd > 0.0) == (depth(local) > 0.0)


# check_free_boundary relies on this: a ball whose centre is at depth >= r
# lies inside, with no sampling of the ball itself
@given(st.integers(0, 2), fractions, fractions,
       st.floats(min_value=-6.0, max_value=0.0),
       st.floats(min_value=0.0, max_value=2.0 * math.pi), shifts, shifts)
@settings(max_examples=150, deadline=None)
def test_signed_distance_is_1_lipschitz(which, u, v, log_step, angle, dx, dy):
    shape, _ = _kernel_shapes()[which]
    x0, y0, x1, y1 = shape.bounding_box
    shift = Vec2(dx, dy)
    poly = shape.translated(shift)
    x = Vec2(x0 - 0.5 + u * (x1 - x0 + 1.0),
             y0 - 0.5 + v * (y1 - y0 + 1.0)) + shift
    y = x + 10.0 ** log_step * geom.unit_from_angle(angle)
    rounding = 4.0 * math.ulp(max(abs(x.x), abs(x.y), 1.0))
    gap = abs(geom.distance_to_boundary(poly, x)
              - geom.distance_to_boundary(poly, y))
    assert gap <= x.distance(y) + rounding


@given(st.integers(0, 1), fractions, st.floats(min_value=-1.0, max_value=1.0),
       shifts, shifts)
@settings(max_examples=100, deadline=None)
def test_strip_level_points_inside(which, u, w, dx, dy):
    # gamma(t) + rho * normal(t) with |rho| <= s and 0 <= t <= L lies in
    # the closed strip
    strip = _kernel_strips()[which]
    shift = Vec2(dx, dy)
    poly = strip.boundary.translated(shift)
    x = strip.point(u * strip.length, w * strip.halfwidth) + shift
    sd = geom.distance_to_boundary(poly, x)
    assert abs(sd) == _nearest_piece_distance(poly, x)
    if abs(sd) > NEAR:
        assert sd > 0.0


def test_distance_query_builds_no_vec2(monkeypatch):
    boundary = verify.strip_families()["serpentine_k09"](160.0).boundary
    assert len(boundary.pieces) == 414
    x = Vec2(80.0, 0.5)
    made = []
    post_init = Vec2.__post_init__

    def counting(v):
        made.append(v)
        post_init(v)

    monkeypatch.setattr(Vec2, "__post_init__", counting)
    geom.distance_to_boundary(boundary, x)
    assert len(made) == 0


# ---------------------------------------------------------------------------
# the box-tree search behind distance_to_boundary and the pair scans, against
# the winding reference and an all-pairs loop

ELL = geom.polygon_from_points([Vec2(0, 0), Vec2(2, 0), Vec2(2, 1), Vec2(1, 1),
                                Vec2(1, 2), Vec2(0, 2)])


@functools.lru_cache(maxsize=1)
def _indexed_shapes():
    gon = geom.polygon_from_points([geom.unit_from_angle(geom.TAU * k / 256)
                                    for k in range(256)])
    serpentine = verify.strip_families()["serpentine_k09"](20.0).boundary
    return tuple(shape for shape, _ in _kernel_shapes()) + (ELL, gon, serpentine)


def _winding_signed_distance(poly, x):
    best, winding = reference.nearest_and_winding(poly, x)
    return best if winding > 0.5 else -best


def _matches_winding(poly, x):
    """distance_to_boundary at x; its magnitude must equal the winding
    reference bit for bit, and its sign too wherever that is clear of
    rounding."""
    sd = geom.distance_to_boundary(poly, x)
    ref = _winding_signed_distance(poly, x)
    assert abs(sd) == abs(ref)
    if abs(ref) > NEAR:
        assert sd == ref
    return sd


@given(st.integers(0, 5), fractions, fractions, shifts, shifts)
@settings(max_examples=200, deadline=None)
def test_indexed_distance_matches_winding_reference(which, u, v, dx, dy):
    shape = _indexed_shapes()[which]
    x0, y0, x1, y1 = shape.bounding_box
    shift = Vec2(dx, dy)
    x = Vec2(x0 - 0.5 + u * (x1 - x0 + 1.0),
             y0 - 0.5 + v * (y1 - y0 + 1.0)) + shift
    _matches_winding(shape.translated(shift), x)


STEPS = (1e-6, 1e-3, 0.25)
SQUARE = geom.polygon_from_points([Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])


def _junction_cases():
    """(shape, point, expected signed distance) with the nearest boundary
    point at a junction: left turns, a right turn, tangent junctions."""
    h = math.sqrt(2.0)
    for t in STEPS:
        # outside the square's corners, along the diagonals
        for corner, away in ((Vec2(0, 0), Vec2(-1, -1)), (Vec2(1, 0), Vec2(1, -1)),
                             (Vec2(1, 1), Vec2(1, 1)), (Vec2(0, 1), Vec2(-1, 1))):
            yield SQUARE, corner + away * t, -h * t
        # inside the L shape's reflex corner (1, 1)
        yield ELL, Vec2(1.0 - t, 1.0 - t), h * t
        # on the normal lines through the stadium's segment-arc junctions
        for x, y, inward in ((0.0, -1.0, 1.0), (2.0, -1.0, 1.0),
                             (2.0, 1.0, -1.0), (0.0, 1.0, -1.0)):
            yield verify.stadium(2, 1), Vec2(x, y + inward * t), t
            yield verify.stadium(2, 1), Vec2(x, y - inward * t), -t


@pytest.mark.parametrize("shift", [Vec2(0.0, 0.0), Vec2(1e6, -1e6),
                                   Vec2(-1e6, 1e6)])
def test_indexed_distance_signs_at_junctions(shift):
    for shape, x, expected in _junction_cases():
        sd = _matches_winding(shape.translated(shift), x + shift)
        assert sd == pytest.approx(expected, abs=1e-9)


def test_tree_boxes_are_piece_boxes():
    # the exact box test of the pair scans reads these boxes; compare them
    # bit for bit with the Vec2 reference box
    for shape in _indexed_shapes() + (verify.stadium(2, 1),):
        _, boxes, _ = geom._piece_index(shape)
        expected = tuple(reference.piece_box(q) for q in shape.pieces)
        assert [[float(v).hex() for v in b] for b in boxes] == \
            [[float(v).hex() for v in b] for b in expected]


def _all_pairs_reach_bound(p):
    """reach_lower_bound's pair test over every non-adjacent pair, signed by
    the winding reference; for loops without right-turn junctions."""
    assert min(geom.junction_turns(p)) >= -geom.ANG_TOL
    pieces = p.pieces
    n = len(pieces)
    best = min(q.radius for q in pieces if isinstance(q, Arc) and not q.ccw)
    boxes = [q.bbox() for q in pieces]
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if geom._bbox_gap(boxes[i], boxes[j]) >= 2.0 * best:
                continue
            d, pa, pb = geom.piece_distance(pieces[i], pieces[j])
            if d >= 2.0 * best or d == 0.0:
                continue
            sd = _winding_signed_distance(p, (pa + pb) * 0.5)
            if sd < 0.0 and -sd >= 0.5 * d * (1.0 - 1e-6):
                best = min(best, 0.5 * d)
    return best


def _arc_c():
    # a strip of halfwidth 1 around a C of 40 arc pieces of curvature 0.2
    # turning 5.8 rad in all: the bottleneck between its end caps lies far
    # below the concave radius 1/0.2 - 1 = 4
    from cheeger import spine
    return spine.build_strip(spine.Spine(tuple(
        spine.SpinePiece(29.0 / 40.0, 0.2) for _ in range(40))), 1.0).boundary


def test_reach_bound_set_by_piece_pair_across_many_pieces(monkeypatch):
    from cheeger import spine
    many = _arc_c()
    one = spine.build_strip(spine.circular_spine(0.2, 29.0), 1.0).boundary
    assert (len(many.pieces), len(one.pieces)) == (82, 4)
    single_arc_bound = geom.reach_lower_bound(one)
    index = {id(q): i for i, q in enumerate(many.pieces)}
    tested = []
    piece_distance = geom.piece_distance

    def recording(a, b):
        tested.append((index[id(a)], index[id(b)]))
        return piece_distance(a, b)

    monkeypatch.setattr(geom, "piece_distance", recording)
    bound = geom.reach_lower_bound(many)
    pruned, tested[:] = tested[:], []
    assert bound == _all_pairs_reach_bound(many)
    # the tree lets through exactly the pairs the all-pairs loop tests
    assert pruned == tested
    assert bound < 1.0
    assert bound == pytest.approx(single_arc_bound, rel=1e-12)


@functools.lru_cache(maxsize=1)
def _reach_shapes():
    """(loop, depth, reach bound): the ladder E_r at their roots,
    the gallery loops, the notched stadium, the loose bow-tie components,
    a straight strip, the L shape and the 40-arc C whose bound a piece pair
    sets.  The depth is the root where there is one, else the bound or 1."""
    import gallery_families as families
    from cheeger import gallery
    shapes = [(sol.inner_set, sol.r, geom.reach_lower_bound(sol.inner_set))
              for _, sol in verify.ladder_solutions().values()]
    theta = gallery.solve_pinocchio_theta()
    bowtie = gallery.build_bowtie(0.03)
    loops = [gallery.pinocchio_region(theta),
             gallery.pinocchio_region(theta, nose=0.5),
             families.pinocchio_region_bent(theta, 0.5),
             gallery.two_ears_region(gallery.two_ears_theta()),
             families.two_ears_region_stretched(0.3, 0.5),
             gallery.build_bowtie(0.0).region, bowtie.region,
             verify.notched_stadium(), ELL, _arc_c(),
             verify.strip_families()["straight"](20.0).boundary]
    loops += gallery.loose_bowtie_inner_set(bowtie, 0.16)
    for loop in loops:
        bound = geom.reach_lower_bound(loop)
        shapes.append((loop, bound if 0.0 < bound < math.inf else 1.0, bound))
    return tuple(shapes)


def test_reach_shapes_take_every_path():
    # the bound comes from a reflex junction, from no concave arc at all,
    # from the smallest concave radius and from a piece pair
    sources = set()
    for loop, _, bound in _reach_shapes():
        radii = [q.radius for q in loop.pieces
                 if isinstance(q, Arc) and not q.ccw]
        sources.add("reflex" if bound == 0.0 else "convex"
                    if bound == math.inf else "radius"
                    if bound == min(radii) else "pair")
    assert sources == {"reflex", "convex", "radius", "pair"}


@given(st.integers(0, 5), fractions, fractions, st.data())
@settings(max_examples=200, deadline=None)
def test_signed_depth_decides_as_the_full_query(which, u, v, data):
    # the reach pair test accepts a midpoint when sd < 0 and -sd >= t; the
    # early-ending query must decide the same, and return sd itself when no
    # piece lies closer than t
    shape = _indexed_shapes()[which]
    x0, y0, x1, y1 = shape.bounding_box
    x = Vec2(x0 - 0.5 + u * (x1 - x0 + 1.0), y0 - 0.5 + v * (y1 - y0 + 1.0))
    sd = geom.distance_to_boundary(shape, x)
    dist = abs(sd)
    t = data.draw(st.sampled_from(
        [0.0, dist, math.nextafter(dist, 0.0), math.nextafter(dist, math.inf)])
        | st.floats(0.0, 2.0).map(lambda k: k * dist))
    early = geom._signed_depth(shape, x.x, x.y, t)
    assert (early < 0.0 and -early >= t) == (sd < 0.0 and -sd >= t)
    if dist >= t:
        assert early.hex() == sd.hex()
    else:
        assert abs(early) < t


def test_simple_check_finds_crossing_far_apart_in_loop_order():
    # vertex 150 of a 300-gon pulled out through the opposite side
    points = [geom.unit_from_angle(geom.TAU * k / 300) for k in range(300)]
    points[150] = Vec2(1.5, 0.01)
    with pytest.raises(SelfIntersecting, match="pieces 0 and 149 "):
        geom.assert_simple(geom.polygon_from_points(points))


def test_simple_check_finds_crossing_far_from_short_piece():
    # the same pulled-out vertex, with edge 75 split 1e-12 from its start:
    # the sub-tolerance piece makes its own neighbours adjacent, nothing more
    points = [geom.unit_from_angle(geom.TAU * k / 300) for k in range(300)]
    points[150] = Vec2(1.5, 0.01)
    points.insert(76, points[75] + (points[76] - points[75]) * 1e-12)
    poly = geom.polygon_from_points(points)
    assert poly.pieces[75].length < 1e-9 * poly.diameter
    with pytest.raises(SelfIntersecting, match="pieces 0 and 150 "):
        geom.assert_simple(poly)


# ---------------------------------------------------------------------------
# the float piece/piece kernel against the Vec2 reference, bit for bit

def _bits(result):
    d, pa, pb = result
    return d.hex(), pa.x.hex(), pa.y.hex(), pb.x.hex(), pb.y.hex()


def _assert_kernel_matches_reference(a, b):
    for x, y in ((a, b), (b, a)):
        assert _bits(geom.piece_distance(x, y)) == \
            _bits(reference.piece_distance(x, y))


angles = st.floats(min_value=0.0, max_value=geom.TAU)
lengths = st.floats(min_value=0.05, max_value=3.0)
sweeps = st.builds(lambda s, ccw: s if ccw else -s,
                   st.floats(min_value=0.05, max_value=geom.TAU - 0.05),
                   st.booleans())
PAIR_FAMILIES = ("segments_crossing", "segments_parallel",
                 "segments_collinear", "segment_arc_secant",
                 "segment_arc_tangent", "segment_arc_missing",
                 "arcs_crossing", "arcs_nearly_concentric")


@st.composite
def piece_pairs(draw, family):
    """Two pieces of one family, near the origin or near (+-1e6, -+1e6)."""
    base = draw(st.sampled_from(((0.0, 0.0), (1e6, -1e6), (-1e6, 1e6))))
    ox = base[0] + draw(st.floats(min_value=-1.0, max_value=1.0))
    oy = base[1] + draw(st.floats(min_value=-1.0, max_value=1.0))

    def at(x, y):
        return Vec2(ox + x, oy + y)

    def arc(cx, cy, radius):
        return Arc.from_angles(at(cx, cy), radius, draw(angles), draw(sweeps))

    if family.startswith("segments"):
        # an exactly horizontal first segment makes parallel pairs exact
        th = draw(st.one_of(st.just(0.0), angles))
        c, s = math.cos(th), math.sin(th)
        length = draw(lengths)
        a = Segment(at(0.0, 0.0), at(length * c, length * s))
        if family == "segments_crossing":
            t = draw(st.floats(min_value=0.05, max_value=0.95)) * length
            th2 = th + draw(st.floats(min_value=0.2, max_value=math.pi - 0.2))
            u0, u1 = -draw(lengths), draw(lengths)
            b = Segment(at(t * c + u0 * math.cos(th2), t * s + u0 * math.sin(th2)),
                        at(t * c + u1 * math.cos(th2), t * s + u1 * math.sin(th2)))
        else:
            h = (0.0 if family == "segments_collinear"
                 else draw(st.floats(min_value=1e-9, max_value=2.0)))
            u0 = draw(st.floats(min_value=-1.0, max_value=length))
            u1 = u0 + draw(lengths)
            b = Segment(at(u0 * c - h * s, u0 * s + h * c),
                        at(u1 * c - h * s, u1 * s + h * c))
        return a, b
    ra = draw(st.floats(min_value=0.1, max_value=3.0))
    a = arc(0.0, 0.0, ra)
    if family.startswith("segment_arc"):
        # the segment's line at distance h from the centre
        lo, hi = {"segment_arc_secant": (0.0, 0.99),
                  "segment_arc_tangent": (1.0, 1.0),
                  "segment_arc_missing": (1.01, 3.0)}[family]
        h = ra * draw(st.floats(min_value=lo, max_value=hi))
        psi = draw(angles)
        c, s = math.cos(psi), math.sin(psi)
        u0, u1 = -draw(lengths), draw(lengths)
        return a, Segment(at(h * c - u0 * s, h * s + u0 * c),
                          at(h * c - u1 * s, h * s + u1 * c))
    rb = draw(st.floats(min_value=0.1, max_value=3.0))
    if family == "arcs_crossing":
        # between the centre gaps of internal and external tangency
        u = draw(st.floats(min_value=0.01, max_value=0.99))
        gap = abs(ra - rb) + u * (ra + rb - abs(ra - rb))
    else:
        # a centre offset below 1e-12 * (ra + rb), or none
        tiny = st.floats(min_value=1e-17, max_value=5e-13)
        gap = draw(st.one_of(st.just(0.0), tiny)) * (ra + rb)
    phi = draw(angles)
    return a, arc(gap * math.cos(phi), gap * math.sin(phi), rb)


@pytest.mark.parametrize("family", PAIR_FAMILIES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_piece_distance_matches_vec2_reference(family, data):
    a, b = data.draw(piece_pairs(family))
    _assert_kernel_matches_reference(a, b)


def test_piece_distance_matches_reference_on_strip_pairs():
    pieces = _kernel_strips()[0].boundary.pieces
    for a in pieces:
        for b in pieces:
            _assert_kernel_matches_reference(a, b)


HALF_CIRCLE = Arc(Vec2(1.0, 0.0), Vec2(-1.0, 0.0), Vec2(0.0, 0.0), 1.0, True,
                  math.pi)
_SHORT_ARC = Arc.from_angles(Vec2(-1.0, 0.0), 1.0, -0.5, 1.0)


@pytest.mark.parametrize("a, b, d", [
    # every candidate is sqrt(5) away: the first, the arc's start, wins
    (HALF_CIRCLE, Segment(Vec2(0.0, -2.0), Vec2(0.0, -3.0)), math.sqrt(5.0)),
    # within 1e-12 of both parameter ranges counts as meeting
    (Segment(Vec2(0.0, 0.0), Vec2(1.0, 0.0)),
     Segment(Vec2(0.5, 1e-13), Vec2(0.5, 1.0)), 0.0),
    (Segment(Vec2(0.0, 0.0), Vec2(1.0 - 1e-13, 0.0)),
     Arc.from_angles(Vec2(2.0, 0.0), 1.0, 0.5 * math.pi, math.pi), 0.0),
    # a segment whose squared length underflows to 0 is met as a point
    (_SHORT_ARC, Segment(Vec2(0.0, 0.0), Vec2(1e-170, 0.0)), 0.0),
    (_SHORT_ARC, Segment(Vec2(0.5, 0.0), Vec2(0.5, 1e-170)), 0.5),
], ids=["tie", "segment-stops-short", "circle-stops-short",
        "underflowing-segment-on-arc", "underflowing-segment-off-arc"])
def test_piece_distance_matches_reference_at_ties_and_near_touches(a, b, d):
    assert geom.piece_distance(a, b)[0] == d
    _assert_kernel_matches_reference(a, b)
