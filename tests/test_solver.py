import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cheeger import cli, geom, solver, spine, verify
from cheeger.errors import (DegenerateInnerSet, DomainError, EmptyInnerSet,
                            NoRoot, PropertyViolation)
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
        assert solver.inner_set(st, r).area == pytest.approx(
            rect_inner_area(L, r), rel=1e-12)
    # vanishing limit
    assert solver.inner_set(st, 1.0 - 1e-7).area < 1e-5 * L


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
    assert sol.iterations == 4


def straight_strip_h(s: float, L: float) -> float:
    """h of the L x 2s rectangle strip: 1/r with r the smaller root of
    (4-pi) r^2 - (2L+4s) r + 2sL = 0, in the form that does not cancel."""
    b = 2.0 * L + 4.0 * s
    c = 2.0 * s * L
    return (b + math.sqrt(b * b - 4.0 * (4.0 - math.pi) * c)) / (2.0 * c)


# the stop rule must be relative: an absolute width test stopped the
# halfwidth-1e-4 strip after 30 evaluations with h*s off by 4.7e-10
@pytest.mark.parametrize("s", [1e-7, 1e-4, 1.0, 1e4, 1e6])
def test_tiny_and_huge_straight_strips_solve_exactly(s):
    spec = {"type": "strip", "halfwidth": s,
            "spine": [{"kind": "line", "length": 20.0 * s}]}
    report = cli.build_report(cli.solve_domain(spec))
    assert [c["name"] for c in report["checks"] if not c["pass"]] == []
    assert report["h"] * s == pytest.approx(1.0801318857980011, rel=1e-12)


@given(hst.floats(min_value=-6.0, max_value=6.0),
       hst.floats(min_value=4.5 * math.pi, max_value=400.0))
@settings(max_examples=60, deadline=None)
def test_straight_strip_matches_closed_form(log_s, length_ratio):
    s = 10.0 ** log_s
    L = length_ratio * s
    sol = solver.solve_strip(spine.build_strip(spine.straight_spine(L), s))
    assert sol.h == pytest.approx(straight_strip_h(s, L), rel=1e-12)
    assert sol.iterations <= 12


# ---------------------------------------------------------------------------
# the safeguarded Newton solve on synthetic inner-set families


def shrinking_disks(R: float, rate: float = 1.0, cut: float = math.inf,
                    evaluated: list = None):
    """inner(r) = disk of radius R - rate*r, empty beyond depth `cut`.

    With rate 1 these are the inner sets of the disk of radius R, f is
    linear and the root is R/2; in general the root is R/(rate + 1)."""

    def inner(r: float) -> ArcPolygon:
        if evaluated is not None:
            evaluated.append(r)
        if r > cut or R - rate * r <= 0.0:
            raise EmptyInnerSet(f"empty at depth {r}")
        return geom.disk(Vec2(0.3, -0.2), R - rate * r)

    return inner


def solve_family(inner, lo: float, hi: float):
    """_solve_inner_formula on a family of convex inner sets, each measured
    and built by one call of `inner`, and offset back by r."""

    def measure(r: float):
        e = inner(r)
        return e.area, e.perimeter

    def build(r: float):
        e = inner(r)
        return e, geom.offset_outward_disk(e, r, math.inf)

    return solver._solve_inner_formula(measure, build, lo, hi)


def test_newton_solves_linear_formula_in_one_step():
    R = 0.25
    sol = solve_family(shrinking_disks(R), 1e-12 * R, R)
    assert sol.iterations == 1
    assert sol.r == pytest.approx(0.5 * R, rel=1e-15)


def test_newton_step_onto_empty_depth_falls_back_to_midpoint():
    # from lo the Newton step lands near R/2, past the cut just above the
    # root R/4, where the family is empty (f = -inf)
    R = 1.0
    root = R / 4.0
    evaluated = []
    inner = shrinking_disks(R, rate=3.0, cut=root * (1.0 + 1e-3),
                            evaluated=evaluated)
    sol = solve_family(inner, 1e-9, 0.6 * R)
    assert evaluated[2] > root * (1.0 + 1e-3)  # first step was infeasible
    assert evaluated[3] == pytest.approx(0.5 * (1e-9 + evaluated[2]))
    assert sol.r == pytest.approx(root, rel=1e-15)
    assert sol.iterations <= 12


def test_newton_without_sign_change_raises():
    with pytest.raises(NoRoot):
        solve_family(shrinking_disks(1.0), 1e-9, 0.4)


def test_sign_change_at_an_empty_depth_is_no_root():
    # f > 0 up to the cut at 0.3, where the family empties: the bracket
    # closes onto the cut with f = pi*(0.7^2 - 0.3^2), not onto a root
    with pytest.raises(NoRoot, match="borders infeasible depths"):
        solve_family(shrinking_disks(1.0, cut=0.3), 1e-9, 0.9)


def test_root_bordering_an_empty_depth_is_kept():
    # the family empties 1e-14 below the root R/4: the bracket closes onto
    # the cut from the feasible side, where |f| is within RESIDUAL_TOL
    cut = 0.25 * (1.0 - 1e-14)
    sol = solve_family(shrinking_disks(1.0, rate=3.0, cut=cut), 1e-9,
                       0.9)
    assert sol.r <= cut
    assert sol.r == pytest.approx(0.25, rel=1e-13)
    assert sol.residual <= solver.RESIDUAL_TOL * math.pi * sol.r ** 2


def test_newton_stops_at_iteration_cap(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 2)
    sol = solve_family(shrinking_disks(1.0, rate=3.0), 1e-9, 0.3)
    assert sol.iterations == 2
    assert sol.r != pytest.approx(0.25, rel=1e-12)


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
            val = solver.inner_set(st, r).area - math.pi * r * r
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


def test_ratio_scan_agrees_curved():
    st = spine.build_strip(spine.serpentine_spine(0.5, 4.5 * math.pi), 1.0)
    sol = solver.solve_strip(st)
    r_scan, _ = solver.ratio_scan_oracle(st)
    assert abs(r_scan - sol.r) <= 1e-5


def test_ratio_scan_rejects_other_domains():
    # an arc polygon that is neither a Strip nor a ConvexRegion has no
    # inner-set family to scan
    square = geom.polygon_from_points(
        [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
    with pytest.raises(DomainError) as info:
        solver.ratio_scan_oracle(square)
    assert str(info.value) == "cannot scan a ArcPolygon"


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
    arcs = solver.check_free_boundary(sol, st)
    assert len(arcs) == 4
    for fa in arcs:
        assert fa.arc.radius == pytest.approx(sol.r, abs=1e-9)
        assert fa.arc.sweep == pytest.approx(0.5 * math.pi, abs=1e-9)


def test_free_boundary_serpentine():
    st = spine.build_strip(spine.serpentine_spine(0.5, 20.0), 1.0)
    sol = solver.solve_strip(st)
    arcs = solver.check_free_boundary(sol, st)
    assert len(arcs) == 4
    assert all(fa.arc.sweep <= math.pi + 1e-9 for fa in arcs)


def test_free_boundary_scales_with_strip():
    # the osculating-ball test compares depths of order s, so its tolerance
    # must grow with the strip as the corner match does
    st = spine.build_strip(spine.s_curve_spine(0.5, 20.0), 1.0)
    h1 = solver.solve_strip(st).h
    big = st.scaled(1e6)
    sol = solver.solve_strip(big)
    assert len(solver.check_free_boundary(sol, big)) == 4
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
