"""A strip's Cheeger set (`solver._cheeger_set`) against the outward offset
of its inner set, which strip solves no longer run, and against the strip
it rounds.

The reference is `geom.offset_outward_disk(E_r, r)` with no reach bound
passed, so the pair scan of `geom.reach_lower_bound` certifies reach(E_r)
>= r first.  It must give the same pieces: the same kinds in order, the
same arc centres, radii within 1e-14 and ends within 1e-12 of the
diameter, and area and perimeter within 1e-12.  The families are the
ladder roots, the U-turns, the hook and the random mixed spines.
"""
import functools
import math
import random

import pytest

from cheeger import geom, solver, verify
from cheeger.errors import CheegerError
from cheeger.spine import Spine, SpinePiece, build_strip

U_TURN_GAPS = (0.5, 0.05, 1e-3, 1e-4)
# the hook's return arm runs 5 past its start line, so E_r leaves the left
# trim's half-plane; its h and Cheeger set measures, in float.hex, as the
# solve gave them when every strip solve ran the pair scan
HOOK = ((3.0, 0.0), (2.0 * math.pi, 0.5), (8.0, 0.0))
HOOK_SOLUTION = ("0x1.17cec4f96c18ep+0", "0x1.0ec858b94b7ddp+5",
                 "0x1.27f70e428d840p+5")
FAMILIES = ("ladder", "u_turns", "hook", "random")


def u_turn(gap: float):
    """Halfwidth 1, two straight arms of length 6 joined by a half turn of
    radius 1 + gap/2, so the arms' sides lie `gap` apart."""
    radius = 1.0 + 0.5 * gap
    return build_strip(Spine((SpinePiece(6.0, 0.0),
                              SpinePiece(math.pi * radius, 1.0 / radius),
                              SpinePiece(6.0, 0.0))), 1.0)


def strip_of(pieces):
    return build_strip(Spine(tuple(SpinePiece(*p) for p in pieces)), 1.0)


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


@functools.lru_cache(maxsize=None)
def family(name: str) -> tuple:
    """(label, strip, solution) of each solved strip of a family."""
    if name == "ladder":
        return tuple((key, st, sol)
                     for key, (st, sol) in verify.ladder_solutions().items())
    if name == "u_turns":
        return tuple((gap, st, solver.solve_strip(st))
                     for gap, st in ((g, u_turn(g)) for g in U_TURN_GAPS))
    if name == "hook":
        st = strip_of(HOOK)
        return (("hook", st, solver.solve_strip(st)),)
    rng, out = random.Random(1409), []
    for k in range(40):
        try:
            st = build_strip(random_spine(rng), 1.0)
            out.append((k, st, solver.solve_strip(st)))
        except CheegerError:
            continue
    return tuple(out)


def assert_matches_offset(st, sol, label) -> None:
    ref = geom.offset_outward_disk(sol.inner_set, sol.r)
    got = sol.cheeger_set
    assert [p.kind for p in got.pieces] == [p.kind for p in ref.pieces], label
    tol = 1e-12 * st.boundary.diameter
    for i, (p, q) in enumerate(zip(got.pieces, ref.pieces)):
        assert p.start.distance(q.start) <= tol, (label, i)
        assert p.end.distance(q.end) <= tol, (label, i)
        if p.kind == "arc":
            assert p.center == q.center, (label, i)
            assert p.ccw == q.ccw, (label, i)
            assert p.radius == pytest.approx(q.radius, rel=1e-14), (label, i)
    assert got.area == pytest.approx(ref.area, rel=1e-12), label
    assert got.perimeter == pytest.approx(ref.perimeter, rel=1e-12), label


@pytest.mark.parametrize("name", FAMILIES)
def test_cheeger_set_is_the_offset_of_the_inner_set(name):
    solved = family(name)
    assert len(solved) >= {"ladder": 25, "u_turns": 4, "hook": 1,
                           "random": 20}[name]
    for label, st, sol in solved:
        assert_matches_offset(st, sol, label)


@pytest.mark.parametrize("gap", U_TURN_GAPS)
def test_u_turn_scan_bound_is_r_plus_half_the_gap(gap):
    # the scan's bound is half the gap between E_r's arms
    (_, _, sol), = [entry for entry in family("u_turns") if entry[0] == gap]
    bound = geom.reach_lower_bound(sol.inner_set)
    assert bound == pytest.approx(sol.r + 0.5 * gap, rel=1e-9)


def count_calls(monkeypatch):
    calls = []
    for name in ("reach_lower_bound", "offset_outward_disk"):
        fn = getattr(geom, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(geom, name, counting)
    return calls


def test_certified_solve_runs_no_scan(monkeypatch):
    # no strip solve offsets E_r or scans it for its reach, not even the
    # hook, whose return arm runs behind its start line
    calls = count_calls(monkeypatch)
    solver.solve_strip(verify.strip_families()["serpentine_k09"](20.0))
    sol = solver.solve_strip(strip_of(HOOK))
    assert calls == []
    assert (sol.h.hex(), sol.cheeger_set.area.hex(),
            sol.cheeger_set.perimeter.hex()) == HOOK_SOLUTION


# ---------------------------------------------------------------------------
# the Cheeger set, checked without offset_outward_disk


def test_certified_cheeger_sets_are_the_strips_with_rounded_corners():
    # E_r + B_r is the strip with its four corners rounded at radius r:
    # every piece but the four free arcs lies on the strip's boundary
    for name in FAMILIES:
        for label, st, sol in family(name):
            free = [fa.arc for fa in solver.check_free_boundary(sol, st)]
            tol = 1e-9 * st.boundary.diameter
            pieces = [p for p in sol.cheeger_set.pieces
                      if not any(p is arc for arc in free)]
            assert len(pieces) == len(sol.cheeger_set.pieces) - 4
            for p in pieces:
                for x in (p.start, p.end, p.point_at(0.5)):
                    depth = geom.distance_to_boundary(st.boundary, x)
                    assert abs(depth) <= tol, (name, label, x, depth)
            if name == "ladder" and label[0] == "straight":
                area = 2.0 * label[1] - (4.0 - math.pi) * sol.r ** 2
                assert sol.cheeger_set.area == pytest.approx(area, rel=1e-12)
