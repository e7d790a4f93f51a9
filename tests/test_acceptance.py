"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and never loosened at runtime.
"""
import math
import time

import pytest

from cheeger import convex, gallery, geom, solver, spine, verify
from cheeger.geom import Vec2
from conftest import straight_strip_root

SQRT_PI = math.sqrt(math.pi)


def _pass(num: int, message: str) -> None:
    print(f"[PASS] criterion {num:2d}: {message}")


@pytest.fixture(scope="module")
def ladder():
    t0 = time.time()
    sols = verify.ladder_solutions()
    return sols, time.time() - t0


def test_criterion_01_disks():
    for radius in (0.5, 1.0, 3.0):
        sol = convex.solve_convex(
            convex.ConvexRegion(geom.disk(Vec2(0, 0), radius)))
        assert abs(sol.h - 2.0 / radius) <= 1e-10
    _pass(1, "h(disk R) = 2/R for R in {0.5, 1, 3} within 1e-10")


def test_criterion_02_unit_square():
    region = convex.convex_from_points(
        [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
    sol = convex.solve_convex(region)
    assert abs(sol.h - (2.0 + SQRT_PI)) <= 1e-9
    assert abs(sol.r - 1.0 / (2.0 + SQRT_PI)) <= 1e-9
    r_scan, _ = solver.ratio_scan_oracle(region)
    assert abs(r_scan - sol.r) <= 1e-5
    _pass(2, f"unit square h = {sol.h:.9f} = 2+sqrt(pi) within 1e-9, "
             "scan oracle within 1e-5")


def test_criterion_03_straight_strip_quadratic():
    L = 4.5 * math.pi
    st = spine.build_strip(spine.straight_spine(L), 1.0)
    sol = solver.solve_strip(st)
    r_exact = straight_strip_root(L)
    assert abs(sol.h - 1.0 / r_exact) <= 1e-9
    _pass(3, f"straight strip L = 9*pi/2: h = {sol.h:.9f} matches the "
             "quadratic root within 1e-9")


def test_criterion_04_bounds_ladder(ladder):
    sols, elapsed = ladder
    for (name, L), (_, sol) in sols.items():
        assert sol.bounds.krepra_lower <= sol.h <= sol.bounds.krepra_upper, \
            (name, L, sol.h)
    assert elapsed < 30.0, f"ladder sweep took {elapsed:.1f}s"
    _pass(4, f"two-sided bounds hold on all {len(sols)} ladder strips "
             f"({elapsed:.1f}s)")


def test_criterion_05_asymptotic(ladder):
    sols, _ = ladder
    worst_budget = 0.0
    worst_order = math.inf
    for name in verify.strip_families():
        devs = []
        for L in verify.LADDER_LENGTHS:
            sol = sols[(name, L)][1]
            dev = sol.h - 1.0 - math.pi / (2.0 * L)
            devs.append(dev)
            worst_budget = max(worst_budget, L * L * abs(dev))
        for i in range(len(devs) - 1):
            order = math.log(abs(devs[i] / devs[i + 1])) / \
                math.log(verify.LADDER_LENGTHS[i + 1] / verify.LADDER_LENGTHS[i])
            worst_order = min(worst_order, order)
    assert worst_budget <= 5.0
    assert worst_order >= 1.9
    _pass(5, f"L^2 deviation <= {worst_budget:.3f} (budget 5) and observed "
             f"order >= {worst_order:.3f} (threshold 1.9)")


def test_criterion_06_strip_measures(ladder):
    sols, _ = ladder
    for (name, L), (st, _) in sols.items():
        area = st.boundary.area
        perim = st.boundary.perimeter
        assert abs(area - 2.0 * L) <= 1e-9 * 2.0 * L, (name, L)
        assert abs(perim - (2.0 * L + 4.0)) <= 1e-9 * (2.0 * L + 4.0), (name, L)
    _pass(6, "every generated strip measures (2L, 2L+4) within 1e-9 relative")


def test_criterion_07_inner_cheeger_consistency(ladder):
    sols, _ = ladder
    worst = 0.0
    for (_, _), (_, sol) in sols.items():
        a_r = sol.inner_set.area
        p_r = sol.inner_set.perimeter
        ratio = (p_r + 2.0 * math.pi * sol.r) / \
            (a_r + sol.r * p_r + math.pi * sol.r ** 2)
        worst = max(worst, abs(ratio - 1.0 / sol.r) * sol.r)
    for region in (convex.ConvexRegion(geom.disk(Vec2(0, 0), 1.0)),
                   convex.convex_from_points(
                       [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)]),
                   convex.convex_from_points(
                       [Vec2(0, 0), Vec2(1, 0), Vec2(0.5, 0.5 * math.sqrt(3))])):
        sol = convex.solve_convex(region)
        a_r = sol.inner_set.area
        p_r = sol.inner_set.perimeter
        ratio = (p_r + 2.0 * math.pi * sol.r) / \
            (a_r + sol.r * p_r + math.pi * sol.r ** 2)
        worst = max(worst, abs(ratio - 1.0 / sol.r) * sol.r)
    assert worst <= 1e-9
    _pass(7, f"perimeter/area of E equals 1/r within {worst:.2e} <= 1e-9 "
             "on every test strip and convex body")


def test_criterion_08_pinocchio():
    theta0 = gallery.solve_pinocchio_theta()
    assert abs(theta0 - 0.531) <= 5e-3
    assert abs(gallery.pinocchio_g(0.0) + math.pi) <= 1e-12
    assert abs(gallery.pinocchio_g(0.5 * math.pi) - math.pi) <= 1e-12
    checks = gallery.verify_self_cheeger(theta0)
    assert all(c.passed for c in checks)
    base = gallery.pinocchio_family(0.0)[2]
    for t in (0.5, 2.0, 5.0, 10.0):
        assert abs(gallery.pinocchio_family(t)[2] - base) <= 1e-12
    _pass(8, f"theta0 = {theta0:.6f} (0.531 +- 5e-3), g endpoints exact, "
             "inequality grid passes, family ratio constant within 1e-12")


def test_criterion_09_two_balls():
    rep = gallery.two_balls_example()
    assert abs(rep.union_ratio - 30.0 / 13.0) <= 1e-12
    assert abs(rep.component_ratios[0] - 2.0) <= 1e-12
    assert abs(rep.component_ratios[1] - 3.0) <= 1e-12
    _pass(9, "two balls: P(G)/|G| = 30/13 within 1e-12, component ratios 2, 3")


def test_criterion_10_steiner_suite():
    checks = verify.run_steiner_suite()
    assert all(c.passed for c in checks), \
        [c for c in checks if not c.passed]
    _pass(10, "Steiner identities on 50 random convex polygons x 3 offsets "
              "within 1e-9; Minkowski content equals perimeter within 1e-6")


def test_criterion_11_cross_oracles():
    checks = verify.run_oracle_suite()
    assert all(c.passed for c in checks), \
        [c for c in checks if not c.passed]
    scans = sum(1 for c in checks if c.name.startswith("cross_oracle"))
    rasters = sum(1 for c in checks if c.name.startswith("raster"))
    _pass(11, f"{scans} bisection-vs-scan agreements within 1e-5; {rasters} "
              "raster agreements within 1%/2% at cell = diameter/500")


def test_criterion_12_scaling_monotonicity_continuity():
    st = spine.build_strip(spine.straight_spine(4.5 * math.pi), 1.0)
    h1 = solver.solve_strip(st).h
    for lam in (0.5, 2.0):
        assert abs(solver.solve_strip(st.scaled(lam)).h - h1 / lam) \
            <= 1e-8 * h1 / lam
    square = convex.convex_from_points(
        [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
    h_sq = convex.solve_convex(square).h
    for lam in (0.5, 2.0):
        assert abs(convex.solve_convex(
            convex.ConvexRegion(square.region.scaled(lam))).h - h_sq / lam) \
            <= 1e-8 * h_sq / lam
    # nested rectangles: the smaller one has the larger constant
    r_small = convex.convex_from_points(
        [Vec2(0, 0), Vec2(1, 0), Vec2(1, 2), Vec2(0, 2)])
    r_big = convex.convex_from_points(
        [Vec2(0, 0), Vec2(2, 0), Vec2(2, 3), Vec2(0, 3)])
    assert convex.solve_convex(r_small).h >= convex.solve_convex(r_big).h
    checks = verify.run_continuity_suite()
    assert all(c.passed for c in checks)
    _pass(12, "scaling law within 1e-8 for lambda in {0.5, 2}, nested "
              "rectangles monotone, continuity ladders strictly decreasing")
