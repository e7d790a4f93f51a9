import math

import pytest

from cheeger import geom, solver, spine, verify
from cheeger.errors import (DegenerateInnerSet, DomainError, EmptyInnerSet,
                            PropertyViolation)
from cheeger.geom import Arc, ArcPolygon, Vec2
from conftest import straight_strip_root


def rect_inner_area(L: float, r: float) -> float:
    # inner set of the L x 2 rectangle strip is the (L-2r) x (2-2r) rectangle
    return 2.0 * (1.0 - r) * (L - 2.0 * r)


def test_inner_set_rectangle():
    L = 10.0
    st = spine.build_strip(spine.straight_spine(L), 1.0)
    inner = solver.inner_set(st, 0.25)
    assert inner.area == pytest.approx(1.5 * (L - 0.5), abs=1e-12)
    assert inner.perimeter == pytest.approx(2.0 * (L - 0.5) + 3.0, abs=1e-12)


def test_inner_set_boundary_distance():
    st = spine.build_strip(spine.circular_spine(0.5, 12.0), 1.0)
    inner = solver.inner_set(st, 0.3)
    for piece in inner.pieces:
        for u in (0.0, 0.31, 0.73, 1.0):
            d = geom.distance_to_boundary(st.boundary, piece.point_at(u))
            assert d == pytest.approx(0.3, abs=1e-9)


def test_inner_set_degenerate():
    st = spine.build_strip(spine.straight_spine(1.0), 1.0)
    with pytest.raises(DegenerateInnerSet):
        solver.inner_set(st, 0.6)


def test_inner_set_empty():
    st = spine.build_strip(spine.straight_spine(10.0), 1.0)
    with pytest.raises(EmptyInnerSet):
        solver.inner_set(st, 1.0)


def test_inner_area_closed_form():
    L = 4.5 * math.pi
    st = spine.build_strip(spine.straight_spine(L), 1.0)
    for r in (0.1, 0.4, 0.7, 0.9):
        assert solver.inner_area(st, r) == pytest.approx(
            rect_inner_area(L, r), rel=1e-12)
    # vanishing limit
    assert solver.inner_area(st, 1.0 - 1e-7) < 1e-5 * L


def test_inner_area_vs_raster():
    st = spine.build_strip(spine.circular_spine(0.5, 12.0), 1.0)
    inner = solver.inner_set(st, 0.3)
    mask = verify.rasterize(inner, inner.diameter / 500.0)
    assert verify.grid_area(mask) == pytest.approx(inner.area, rel=0.01)


def test_solve_straight_strip_against_quadratic(straight_strip_9pi2,
                                                straight_solution_9pi2):
    r_exact = straight_strip_root(4.5 * math.pi)
    sol = straight_solution_9pi2
    assert sol.r == pytest.approx(r_exact, abs=1e-9)
    assert sol.h == pytest.approx(1.0 / r_exact, abs=1e-9)
    assert sol.residual <= 1e-10 * math.pi * sol.r ** 2
    assert sol.h == 1.0 / sol.r  # h and r are exact reciprocals by definition
    assert sol.iterations == 40


def test_solve_L100_near_asymptotic():
    st = spine.build_strip(spine.straight_spine(100.0), 1.0)
    sol = solver.solve_strip(st)
    assert sol.r == pytest.approx(straight_strip_root(100.0), abs=1e-9)
    assert abs(sol.h - (1.0 + math.pi / 200.0)) <= 1.5e-4


def test_solve_circular_strip_bounds():
    st = spine.build_strip(spine.circular_spine(0.3, 4.5 * math.pi), 1.0)
    sol = solver.solve_strip(st)
    assert sol.bounds.krepra_lower <= sol.h <= sol.bounds.krepra_upper


def test_short_strip_needs_override():
    st = spine.build_strip(spine.straight_spine(10.0), 1.0)
    with pytest.raises(DomainError):
        solver.solve_strip(st)
    sol = solver.solve_strip(st, allow_short=True)
    assert any("uncertified" in w for w in sol.warnings)
    assert sol.r == pytest.approx(straight_strip_root(10.0), abs=1e-9)


def test_root_sign_changes_once_straight():
    # closed form lets us scan the full depth interval densely
    L = 4.5 * math.pi
    changes = 0
    prev = rect_inner_area(L, 1e-6) - math.pi * 1e-12
    for i in range(1, 10_000):
        r = i / 10_000.0
        val = rect_inner_area(L, r) - math.pi * r * r
        if (val < 0.0) != (prev < 0.0):
            changes += 1
        prev = val
    assert changes == 1


def test_root_sign_changes_once_serpentine():
    st = spine.build_strip(spine.serpentine_spine(0.5, 4.5 * math.pi), 1.0)
    changes = 0
    prev = None
    for i in range(1, 300):
        r = i / 300.0
        try:
            val = solver.inner_area(st, r) - math.pi * r * r
        except (DegenerateInnerSet, EmptyInnerSet):
            val = -1.0
        if prev is not None and (val < 0.0) != (prev < 0.0):
            changes += 1
        prev = val
    assert changes == 1


def test_ratio_scan_agrees_with_bisection(straight_strip_9pi2,
                                          straight_solution_9pi2):
    r_scan, h_scan = solver.ratio_scan_oracle(straight_strip_9pi2)
    assert abs(r_scan - straight_solution_9pi2.r) <= 1e-5
    assert h_scan == pytest.approx(straight_solution_9pi2.h, abs=1e-8)


def test_ratio_scan_grid_precondition(straight_strip_9pi2):
    with pytest.raises(DomainError):
        solver.ratio_scan_oracle(straight_strip_9pi2, grid=50)


def test_ratio_scan_agrees_curved():
    st = spine.build_strip(spine.serpentine_spine(0.5, 4.5 * math.pi), 1.0)
    sol = solver.solve_strip(st)
    r_scan, _ = solver.ratio_scan_oracle(st)
    assert abs(r_scan - sol.r) <= 1e-5


def test_steiner_consistency_identity(straight_solution_9pi2):
    sol = straight_solution_9pi2
    a_r = sol.inner_set.area
    p_r = sol.inner_set.perimeter
    ratio = (p_r + 2.0 * math.pi * sol.r) / \
        (a_r + sol.r * p_r + math.pi * sol.r ** 2)
    assert ratio == pytest.approx(1.0 / sol.r, abs=1e-9)
    direct = sol.cheeger_set.perimeter / sol.cheeger_set.area
    assert direct == pytest.approx(sol.h, rel=1e-8)


def test_scaling_law():
    st = spine.build_strip(spine.straight_spine(4.5 * math.pi), 1.0)
    h1 = solver.solve_strip(st).h
    for lam in (0.5, 2.0):
        h_lam = solver.solve_strip(st.scaled(lam)).h
        assert h_lam == pytest.approx(h1 / lam, rel=1e-8)


def test_free_boundary_straight():
    st = spine.build_strip(spine.straight_spine(20.0), 1.0)
    sol = solver.solve_strip(st)
    report = solver.check_free_boundary(sol, st)
    assert report.passed
    assert len(report.arcs) == 4
    for fa in report.arcs:
        assert fa.arc.radius == pytest.approx(sol.r, abs=1e-9)
        assert fa.arc.sweep == pytest.approx(0.5 * math.pi, abs=1e-9)


def test_free_boundary_serpentine():
    st = spine.build_strip(spine.serpentine_spine(0.5, 20.0), 1.0)
    sol = solver.solve_strip(st)
    report = solver.check_free_boundary(sol, st)
    assert report.passed
    assert len(report.arcs) == 4
    assert all(fa.arc.sweep <= math.pi + 1e-9 for fa in report.arcs)


def test_free_boundary_scales_with_strip():
    # the osculating-ball test compares depths of order s, so its tolerance
    # must grow with the strip as the corner match does
    st = spine.build_strip(spine.s_curve_spine(0.5, 20.0), 1.0)
    h1 = solver.solve_strip(st).h
    big = st.scaled(1e6)
    sol = solver.solve_strip(big)
    assert solver.check_free_boundary(sol, big).passed
    assert sol.h * 1e6 == pytest.approx(h1, rel=1e-12)


def test_free_boundary_rejects_corrupted_set():
    st = spine.build_strip(spine.straight_spine(20.0), 1.0)
    sol = solver.solve_strip(st)
    # shift one free arc center slightly so its ball pokes out of the strip
    bad_pieces = list(sol.cheeger_set.pieces)
    for i, piece in enumerate(bad_pieces):
        if isinstance(piece, Arc) and abs(piece.radius - sol.r) < 1e-9:
            shift = Vec2(0.0, 2e-6)
            bad_pieces[i] = Arc(piece.start + shift, piece.end + shift,
                                piece.center + shift, piece.radius,
                                piece.ccw, piece.sweep)
            break
    bad_inner = sol.inner_set
    bad_sol = solver.CheegerSolution(
        r=sol.r, h=sol.h, inner_set=bad_inner,
        cheeger_set=_loose_polygon(bad_pieces), residual=sol.residual,
        iterations=sol.iterations, bounds=sol.bounds)
    with pytest.raises(PropertyViolation):
        solver.check_free_boundary(bad_sol, st)


def _loose_polygon(pieces):
    poly = ArcPolygon.__new__(ArcPolygon)
    poly.pieces = tuple(pieces)
    poly._area = sum(0.0 for _ in pieces) or 1.0
    poly._perimeter = sum(p.length for p in pieces)
    poly._bbox = (0.0, 0.0, 1.0, 1.0)
    return poly


def test_bounds_fields(straight_solution_9pi2):
    L = 4.5 * math.pi
    b = straight_solution_9pi2.bounds
    assert b.krepra_lower == pytest.approx(1.0 + 1.0 / (400.0 * L), rel=1e-15)
    assert b.krepra_upper == pytest.approx(1.0 + 2.0 / L, rel=1e-15)
    assert b.asymptotic == pytest.approx(1.0 + math.pi / (2.0 * L), rel=1e-15)
