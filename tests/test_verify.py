import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geom_reference as reference
from cheeger import convex, geom, solver, spine, verify
from cheeger.errors import DomainError, EmptyRegion, ReachViolation
from cheeger.geom import Vec2


def test_rasterize_square_cell_count(unit_square):
    mask = verify.rasterize(unit_square, 0.01)
    assert mask.count == pytest.approx(10_000, rel=0.01)
    assert verify.grid_area(mask) == pytest.approx(1.0, rel=0.005)
    assert verify.grid_perimeter(mask) == pytest.approx(4.0, rel=0.02)


def test_rasterize_disk(unit_disk):
    mask = verify.rasterize(unit_disk, 0.005)
    assert verify.grid_area(mask) == pytest.approx(math.pi, rel=0.01)
    assert verify.grid_perimeter(mask) == pytest.approx(2.0 * math.pi, rel=0.02)


def test_rasterize_cell_precondition(unit_square):
    with pytest.raises(DomainError):
        verify.rasterize(unit_square, 0.1)


def test_sliver_produces_empty_mask():
    sliver = geom.polygon_from_points(
        [Vec2(0, 0), Vec2(10, 0), Vec2(10, 1e-5), Vec2(0, 1e-5)])
    mask = verify.rasterize(sliver, 0.05)
    assert mask.count == 0
    with pytest.raises(EmptyRegion):
        verify.grid_area(mask)
    with pytest.raises(EmptyRegion):
        verify.grid_perimeter(mask)


def test_single_cell_mask():
    mask = verify.GridMask(cell=0.1, bits=[b"\1"])
    assert verify.grid_area(mask) == pytest.approx(0.01, rel=1e-12)
    assert verify.grid_perimeter(mask) == pytest.approx(0.4, rel=1e-12)


def test_two_component_mask_perimeter():
    # a 2x2 block (perimeter 8 cells) at ix 0-1 and a 4x3 block (perimeter
    # 14 cells) at ix 5-8, rows iy = 0..3
    bits = [bytes([1, 1, 0, 0, 0, 1, 1, 1, 1])] * 2 + [
        bytes([0, 0, 0, 0, 0, 1, 1, 1, 1]), bytes(9)]
    mask = verify.GridMask(cell=1.0, bits=bits)
    assert verify.grid_perimeter(mask) == pytest.approx(22.0, rel=1e-9)
    assert verify.grid_area(mask) == pytest.approx(16.0)


# cells that meet only at a corner make a saddle, where the loop takes the
# rightmost turn: two diagonal cells give one loop of 8 corners; a 3x3 ring
# without its centre and two opposite corners gives an outer loop of 12 and
# the hole's loop of 4
@pytest.mark.parametrize("bits, loops, perimeter", [
    ([bytes([1, 0]), bytes([0, 1])], [8], 0.8),
    ([bytes([0, 1, 1]), bytes([1, 0, 1]), bytes([1, 1, 0])], [4, 12], 1.6),
], ids=["diagonal", "ring"])
def test_saddle_corner_masks(bits, loops, perimeter):
    assert sorted(len(loop) for loop in verify._boundary_loops(bits)) == loops
    mask = verify.GridMask(cell=0.1, bits=bits)
    assert verify.grid_perimeter(mask) == pytest.approx(perimeter, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(lambda nx: st.lists(
    st.binary(min_size=nx, max_size=nx).map(
        lambda row: bytes(b & 1 for b in row)),
    min_size=1, max_size=10)))
def test_boundary_loops_trace_every_boundary_side(bits):
    """Whatever way the saddle rule turns, each loop closes in unit lattice
    steps, the loops' shoelace areas add up to the set cells, and there is
    one step per set-cell side that faces an unset cell or the border."""
    def cell(ix, iy):
        return 0 <= iy < len(bits) and 0 <= ix < len(bits[0]) \
            and bits[iy][ix] == 1

    loops = verify._boundary_loops(bits)
    steps, area2 = 0, 0
    for loop in loops:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            assert abs(b[0] - a[0]) + abs(b[1] - a[1]) == 1
            area2 += a[0] * b[1] - a[1] * b[0]
        steps += len(loop)
    count = verify.GridMask(cell=1.0, bits=bits).count
    assert area2 == 2 * count
    assert steps == sum(not cell(ix + dx, iy + dy)
                        for iy in range(len(bits)) for ix in range(len(bits[0]))
                        if cell(ix, iy)
                        for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)))


def contour_masks():
    square = geom.polygon_from_points(
        [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
    curved = spine.build_strip(spine.serpentine_spine(0.5, 4.5 * math.pi), 1.0)
    shapes = [square, geom.disk(Vec2(0.3, -0.2), 1.0),
              geom.round_corners(square, 0.25), verify.stadium(3.0, 0.5),
              solver.inner_set(curved, 0.5)]
    masks = [verify.rasterize(p, p.diameter / cells)
             for p in shapes for cells in (100, 333)]
    bit_rows = [[b"\1"], [bytes([1, 0]), bytes([0, 1])],
                [bytes([0, 1, 1]), bytes([1, 0, 1]), bytes([1, 1, 0])],
                [bytes([1, 1, 0, 0, 0, 1, 1, 1, 1])] * 2
                + [bytes([0, 0, 0, 0, 0, 1, 1, 1, 1]), bytes(9)]]
    # small seeded masks: loops short enough that the smoothing tolerance
    # follows their length, with saddles and holes
    rng = random.Random(3)
    for size in range(3, 13):
        bit_rows.append([bytes(rng.random() < 0.6 for _ in range(size))
                         for _ in range(size)])
    return masks + [verify.GridMask(cell=0.1, bits=bits) for bits in bit_rows
                    if any(map(any, bits))]


def test_grid_perimeter_matches_the_vec2_contour():
    # the contour runs on float pairs; the Vec2 version in
    # tests/geom_reference.py must give the same length bit for bit
    for mask in contour_masks():
        assert verify.grid_perimeter(mask).hex() == \
            reference.grid_perimeter(mask).hex()


def test_nothing_needs_numpy():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import cheeger.cli\n"
        "from cheeger import geom, verify\n"
        "assert all(c.passed for c in verify.run_suite('steiner'))\n"
        "disk = geom.disk(geom.Vec2(0.0, 0.0), 1.0)\n"
        "mask = verify.rasterize(disk, 0.02)\n"
        "print(verify.grid_perimeter(mask))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(2.0 * math.pi, rel=0.02)


def test_minkowski_content_matches_perimeter(unit_square, unit_disk):
    for shape in (unit_square, unit_disk, verify.stadium(2.0, 1.0),
                  verify.notched_stadium()):
        est = verify.minkowski_content(shape)
        assert est == pytest.approx(shape.perimeter, rel=1e-6)


def test_minkowski_needs_reach():
    ell = geom.polygon_from_points(
        [Vec2(0, 0), Vec2(3, 0), Vec2(3, 1), Vec2(1, 1), Vec2(1, 3), Vec2(0, 3)])
    with pytest.raises(ReachViolation):
        verify.minkowski_content(ell)


def test_continuity_squares(unit_square_region):
    squares = [convex.convex_from_points(
        [Vec2(0, 0), Vec2(s, 0), Vec2(s, s), Vec2(0, s)])
        for s in (1.0 - 2.0 ** (-j) for j in range(1, 7))]
    rep = verify.continuity_test(unit_square_region, squares)
    assert rep.decreasing
    assert rep.liminf_ok
    assert rep.h_target == pytest.approx(2.0 + math.sqrt(math.pi), abs=1e-9)
    # inner approximations approach from above
    assert all(h >= rep.h_target - 1e-9 for h in rep.h_sequence)


def test_continuity_strips():
    target = spine.build_strip(spine.straight_spine(20.0), 1.0)
    ladder = [spine.build_strip(spine.straight_spine(20.0 * (1 + 2.0 ** (-j))), 1.0)
              for j in range(1, 6)]
    rep = verify.continuity_test(target, ladder)
    assert rep.decreasing


def test_continuity_constant_sequence(unit_square_region):
    rep = verify.continuity_test(unit_square_region,
                                 [unit_square_region, unit_square_region])
    assert max(rep.deviations) == 0.0
    assert rep.decreasing


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        verify.run_suite("nonsense")


def test_steiner_suite_passes():
    checks = verify.run_suite("steiner")
    assert checks and all(c.passed for c in checks)


def test_gallery_suite_passes():
    checks = verify.run_suite("gallery")
    assert checks and all(c.passed for c in checks)


@pytest.mark.parametrize("name", ["bounds", "asymptotic"])
def test_ladder_suites_pass(name):
    checks = verify.run_suite(name)
    assert checks and all(c.passed for c in checks)


def test_continuity_suite_passes():
    checks = verify.run_suite("continuity")
    assert checks and all(c.passed for c in checks)
