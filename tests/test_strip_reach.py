"""The strip reach certificate (`solver._strip_reach`) against the pair scan
it replaces in strip solves, its fallback to that scan, and the Cheeger
set it lets `geom.offset_outward_disk` build, checked without that
function's code.

Wherever the certificate returns r, the uncapped pair scan
(`geom.reach_lower_bound`) stays the oracle: its bound on the reach of E_r
must be at least r(1 - 1e-12).
"""
import functools
import math
import random

import pytest

from cheeger import geom, solver, verify
from cheeger.errors import CheegerError
from cheeger.geom import Arc, Vec2
from cheeger.spine import Spine, SpinePiece, build_strip

U_TURN_GAPS = (0.5, 0.05, 1e-3, 1e-4)
# the hook's return arm runs 5 past its start line, so E_r leaves the left
# trim's half-plane; its h and Cheeger set measures, in float.hex, as the
# solve gave them when every strip solve ran the pair scan
HOOK = ((3.0, 0.0), (2.0 * math.pi, 0.5), (8.0, 0.0))
HOOK_SOLUTION = ("0x1.17cec4f96c18ep+0", "0x1.0ec858b94b7ddp+5",
                 "0x1.27f70e428d840p+5")


def u_turn(gap: float):
    """Halfwidth 1, two straight arms of length 6 joined by a half turn of
    radius 1 + gap/2, so the arms' sides lie `gap` apart."""
    radius = 1.0 + 0.5 * gap
    return build_strip(Spine((SpinePiece(6.0, 0.0),
                              SpinePiece(math.pi * radius, 1.0 / radius),
                              SpinePiece(6.0, 0.0))), 1.0)


def strip_of(pieces):
    return build_strip(Spine(tuple(SpinePiece(*p) for p in pieces)), 1.0)


def certificate(st, r, loop=None):
    return solver._strip_reach(st, r, loop or solver._inner_loop(st, r))


@functools.lru_cache(maxsize=1)
def u_turn_solutions():
    return {gap: (st, solver.solve_strip(st))
            for gap, st in ((g, u_turn(g)) for g in U_TURN_GAPS)}


def random_spine(rng: random.Random) -> Spine:
    """Two to six pieces: lines of length 0.3-6 and arcs of curvature
    0.1-0.98 either way, turning 0.2-0.95 of a half turn."""
    pieces = []
    for _ in range(rng.randint(2, 6)):
        if rng.random() < 0.4:
            pieces.append(SpinePiece(rng.uniform(0.3, 6.0), 0.0))
        else:
            k = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.98)
            pieces.append(SpinePiece(rng.uniform(0.2, 0.95) * math.pi / abs(k),
                                     k))
    return Spine(tuple(pieces))


def test_certificate_covers_the_ladder():
    for (name, L), (st, sol) in verify.ladder_solutions().items():
        assert certificate(st, sol.r) == sol.r, (name, L)
        bound = geom.reach_lower_bound(sol.inner_set)
        assert bound >= sol.r * (1.0 - 1e-12), (name, L)


@pytest.mark.parametrize("gap", U_TURN_GAPS)
def test_certificate_covers_the_u_turns(gap):
    st, sol = u_turn_solutions()[gap]
    assert certificate(st, sol.r) == sol.r
    # the scan's bound is half the gap between E_r's arms, r + gap/2
    bound = geom.reach_lower_bound(sol.inner_set)
    assert bound >= sol.r * (1.0 - 1e-12)
    assert bound == pytest.approx(sol.r + 0.5 * gap, rel=1e-9)


def test_certificate_agrees_with_the_scan_on_random_spines():
    rng = random.Random(1409)
    certified = uncertified = 0
    for _ in range(40):
        try:
            st = build_strip(random_spine(rng), 1.0)
            sol = solver.solve_strip(st)
        except CheegerError:
            continue
        if certificate(st, sol.r) is None:
            uncertified += 1
            continue
        certified += 1
        assert geom.reach_lower_bound(sol.inner_set) >= sol.r * (1.0 - 1e-12)
    assert certified >= 3 and uncertified >= 3


# ---------------------------------------------------------------------------
# fallback: each hypothesis broken on its own


def replaced(loop, index, row):
    rows = list(loop[0])
    rows[index] = row
    return (rows,) + tuple(loop[1:])


def test_each_broken_hypothesis_returns_none():
    st = verify.strip_families()["straight"](20.0)
    r = verify.ladder_solutions()[("straight", 20.0)][1].r
    loop = solver._inner_loop(st, r)
    rows, k, t_left, t_right = loop
    assert certificate(st, r, loop) == r
    # the trims must not overlap along the spine
    assert certificate(st, r, (rows, k, t_right, t_right)) is None
    # a segment end behind the left trim line (the spine runs along +x)
    sx, sy, ex, ey = rows[0][1][:4]
    assert certificate(st, r, replaced(
        loop, 0, geom._segment_row(sx - 1e-6, sy, ex, ey))) is None
    # an arc whose ends lie inside the half-plane but whose middle bulges
    # out of it; a segment with the same ends passes
    a, b = Vec2(sx + 0.1, sy), Vec2(sx + 0.1, sy - 1.0)
    bulge = Arc(a, b, Vec2(sx + 0.1, sy - 0.5), 0.5, True, math.pi)
    assert certificate(st, r, replaced(loop, 0, geom._piece_row(bulge))) is None
    assert certificate(st, r, replaced(
        loop, 0, geom._segment_row(a.x, a.y, b.x, b.y))) == r
    # a left trim corner inside its half-plane, off its own line
    tx, ty, bx, by = rows[-1][1][:4]
    assert certificate(st, r, replaced(
        loop, -1, geom._segment_row(tx + 1e-6, ty, bx, by))) is None


def test_trims_closer_than_2r_return_none():
    # both trims of the U-turn lie on one line, gap + 2r apart; moving the
    # right trim by 1.5 gaps along it leaves every row in the half-planes
    gap = 0.05
    st, sol = u_turn_solutions()[gap]
    loop = solver._inner_loop(st, sol.r)
    rows, k = loop[:2]
    sx, sy, ex, ey = rows[k][1][:4]
    shift = math.copysign(1.5 * gap, rows[-1][1][1] - sy)
    moved = replaced(loop, k, geom._segment_row(sx, sy + shift, ex, ey + shift))
    assert certificate(st, sol.r, moved) is None


def count_scans(monkeypatch):
    calls = []
    scan = geom.reach_lower_bound

    def counting(*args, **kwargs):
        calls.append(kwargs.get("cap"))
        return scan(*args, **kwargs)

    monkeypatch.setattr(geom, "reach_lower_bound", counting)
    return calls


def test_certified_solve_runs_no_scan(monkeypatch):
    calls = count_scans(monkeypatch)
    solver.solve_strip(verify.strip_families()["serpentine_k09"](20.0))
    assert calls == []


def test_uncertified_solve_falls_back_to_the_scan(monkeypatch):
    st = strip_of(HOOK)
    calls = count_scans(monkeypatch)
    sol = solver.solve_strip(st)
    assert certificate(st, sol.r) is None
    assert calls == [sol.r]  # the offset's capped scan
    assert (sol.h.hex(), sol.cheeger_set.area.hex(),
            sol.cheeger_set.perimeter.hex()) == HOOK_SOLUTION


# ---------------------------------------------------------------------------
# the offset, checked without offset_outward_disk


def test_certified_cheeger_sets_are_the_strips_with_rounded_corners():
    # E_r + B_r is the strip with its four corners rounded at radius r:
    # every piece but the four free arcs lies on the strip's boundary
    for (name, L), (st, sol) in verify.ladder_solutions().items():
        assert certificate(st, sol.r) == sol.r
        free = [fa.arc for fa in solver.check_free_boundary(sol, st)]
        tol = 1e-9 * st.boundary.diameter
        pieces = [p for p in sol.cheeger_set.pieces
                  if not any(p is arc for arc in free)]
        assert len(pieces) == len(sol.cheeger_set.pieces) - 4
        for p in pieces:
            for x in (p.start, p.end, p.point_at(0.5)):
                depth = geom.distance_to_boundary(st.boundary, x)
                assert abs(depth) <= tol, (name, L, x, depth)
        if name == "straight":
            area = 2.0 * L - (4.0 - math.pi) * sol.r ** 2
            assert sol.cheeger_set.area == pytest.approx(area, rel=1e-12)
