"""The band identity (`solver._strip_measures`) against the rows of E_r.

The root solve of a strip reads the area of E_r as 2(s - r)L minus two end
caps, and its perimeter from the lengths of the level curves, without
making the rows between the ends.  The row measures
(`solver._inner_measures`) stay the reference.  Wherever they return, the
identity must agree to 1e-12*2sL in area and 1e-12*(2L + 4s) in perimeter,
absolute bounds because near r = s both sums cancel.  Wherever they raise,
the identity must raise the same type and message.

Both read the one trim search, `solver._strip_ends`, which scans only the
rows near the ends.  So the whole level chains stay the references for
it: its crossings must equal, in float.hex, the least and greatest
crossings over every row (`chain_crossings`), and the row measures must
match, in float.hex or in error type and message, the piece chain of
`geom_reference.inner_set_pieces`, which finds its trims on whole chains
of pieces with its own crossing code.
"""
import functools
import importlib.util
import math
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from cheeger import solver, spine
from cheeger.errors import (CheegerError, DegenerateInnerSet, DomainError,
                            EmptyInnerSet)
from cheeger.geom import Vec2
from conftest import straight_strip_root
from test_row_measures import (depth_fractions, measured,
                               reference_measures, short_strips)
from test_strip_reach import HOOK, U_TURN_GAPS, strip_of, u_turn

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@functools.lru_cache(maxsize=1)
def ladder_strips():
    """The 50 strips of the benchmark ladder at seeds 0 and 1."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [spine.build_strip(sp, 1.0) for seed in (0, 1)
            for _, _, sp in workloads.ladder_spines(seed)]


@functools.lru_cache(maxsize=1)
def bent_strips():
    return [u_turn(gap) for gap in U_TURN_GAPS] + [strip_of(HOOK)]


@hst.composite
def mixed_strips(draw):
    """One to six lines and arcs, each arc turning at most 0.9 of a turn,
    at halfwidth up to 0.999/max|curvature|.  Arcs bend by at least 0.05:
    a row computes an arc's ends from its centre, so an arc of radius R
    puts about R*1e-16 of rounding into both measures, and at curvature
    1e-5 the reference reads 2e-10 off the closed form of the straight
    strip, past the bound of this test."""
    pieces = []
    for _ in range(draw(hst.integers(1, 6))):
        if draw(hst.booleans()):
            pieces.append(spine.SpinePiece(draw(hst.floats(0.05, 8.0)), 0.0))
        else:
            k = draw(hst.floats(0.05, 1.0)) * draw(hst.sampled_from((1, -1)))
            turn = draw(hst.floats(0.01, 0.9)) * 2.0 * math.pi
            pieces.append(spine.SpinePiece(turn / abs(k), k))
    sp = spine.Spine(tuple(pieces))
    s = draw(hst.floats(0.02, 0.999)) / max(sp.max_curvature, 0.05)
    return spine.build_strip(sp, s)


FAMILIES = {
    "ladder": lambda: hst.sampled_from(ladder_strips()),
    "bent": lambda: hst.sampled_from(bent_strips()),
    "mixed": mixed_strips,
    "short": short_strips,
}


def outcome(fn, *args):
    try:
        return fn(*args)
    except CheegerError as exc:
        return type(exc), str(exc)


def chain_crossings(st_, r):
    """The four trim crossings of E_r, from whole level chains."""
    c = st_.halfwidth - r
    left, right = st_._ends
    out = []
    for level in (-c, c):
        rows = spine._level_rows(st_.spine, level)
        out += [min(t for row in rows
                    for t in solver._chain_line_crossings(row, left, r)),
                max(t for row in rows
                    for t in solver._chain_line_crossings(row, right, r))]
    return out


def assert_matches_the_pieces(st_, r):
    """The row measures against `geom_reference.inner_set_pieces`; its
    IndexError is the empty trimmed level curve."""
    expected = measured(reference_measures, st_, r)
    if expected == "IndexError":
        expected = (DegenerateInnerSet, EMPTY.format(r=r))
    assert measured(solver._inner_measures, st_, r) == expected


def assert_agrees(st_, r):
    assert_matches_the_pieces(st_, r)
    rows = outcome(solver._inner_measures, st_, r)
    identity = outcome(solver._strip_measures, st_, r)
    if isinstance(rows[0], type):
        assert identity == rows
        return
    s, L = st_.halfwidth, st_.length
    assert abs(identity[0] - rows[0]) <= 1e-12 * 2.0 * s * L
    assert abs(identity[1] - rows[1]) <= 1e-12 * (2.0 * L + 4.0 * s)
    loop = solver._inner_loop(st_, r)
    _, crossings, ((k, _, m, _), _), corners = solver._strip_ends(st_, r)
    brx, bry, trx, tr_y = loop[m - k + 1][1][:4]  # after the lower curve
    tlx, tly, blx, bly = loop[-1][1][:4]
    assert [v.hex() for v in corners] == \
        [v.hex() for v in (blx, bly, brx, bry, trx, tr_y, tlx, tly)]
    assert [v.hex() for v in crossings] == \
        [v.hex() for v in chain_crossings(st_, r)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(data=hst.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_identity_matches_the_rows(family, data):
    try:
        st_ = data.draw(FAMILIES[family]())
    except CheegerError:
        return  # a spine that admits no strip has no inner set
    for frac in data.draw(hst.lists(depth_fractions, min_size=1,
                                    max_size=4)):
        assert_agrees(st_, frac * st_.halfwidth)


def test_identity_matches_the_rows_at_every_ladder_root():
    for st_ in ladder_strips():
        sol = solver.solve_strip(st_)
        assert_agrees(st_, sol.r)


# the strips of EMPTY_TRIM_SPECS in tests/test_cli.py
ONE_ARC = (((0.5, -0.5),), 0.999999999999)
LINE_AND_ARC = (((0.5, 0.0), (0.5, 0.999999999999)), 1.0)
STRAIGHT = (((10.0, 0.0),), 1.0)
EMPTY = "a trimmed level curve is empty at depth {r} (strip too short)"
# each typed error of the identity at a fixed depth; a trimmed level curve
# is empty in a window about 2e-13 wide, just before the trims cross
TYPED = {
    "zero_depth": (ONE_ARC, 0.0, DomainError, "depth must be positive"),
    "halfwidth_depth": (LINE_AND_ARC, 1.0, EmptyInnerSet,
                        "depth {r} is not below the halfwidth 1.0"),
    "no_left_crossing": (ONE_ARC, 0.5, DegenerateInnerSet,
                         "no left trim crossing at this depth"),
    "no_right_crossing": (LINE_AND_ARC, 0.9, DegenerateInnerSet,
                          "no right trim crossing at this depth"),
    "trims_cross": (ONE_ARC, 0.2, DegenerateInnerSet,
                    "end trims cross at depth {r} (strip too short)"),
    "empty_one_arc": (ONE_ARC, 0.1424324626975, DegenerateInnerSet, EMPTY),
    "empty_line_and_arc": (LINE_AND_ARC, 0.3138354803054, DegenerateInnerSet,
                           EMPTY),
    "degenerate_trims": (STRAIGHT, 1.0 - 1e-13, DegenerateInnerSet,
                         "trim segment degenerates at depth {r}"),
}


@pytest.mark.parametrize("name", sorted(TYPED))
def test_identity_raises_as_the_rows(name):
    (pieces, s), r, error, message = TYPED[name]
    st_ = spine.build_strip(
        spine.Spine(tuple(spine.SpinePiece(*p) for p in pieces)), s)
    expected = (error, message.format(r=r))
    assert outcome(solver._inner_measures, st_, r) == expected
    assert outcome(solver._strip_measures, st_, r) == expected
    assert_matches_the_pieces(st_, r)


def test_far_strip_solves_where_a_cap_rounds_away():
    # at (1e8, 1e8) the depth 1e-9 at which the root solve starts is below
    # the rounding of the coordinates: a trim corner rounds onto the end
    # fibre, and that cap counts 0 instead of failing as an empty loop.
    # The rows lose h to 7e-9 there; the identity keeps it to 1.1e-10.
    st_ = spine.build_strip(spine.Spine((spine.SpinePiece(20.0, 0.0),),
                                        Vec2(1e8, 1e8)), 1.0)
    sol = solver.solve_strip(st_)
    assert sol.h * straight_strip_root(20.0) == pytest.approx(1.0, abs=1e-9)
    assert sol.residual <= solver.RESIDUAL_TOL * math.pi * sol.r ** 2
