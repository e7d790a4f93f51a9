"""The strip chain on float rows against the piece chain it replaced.

`spine._level_rows` computes each parallel curve once, in floats, and
`spine.level_chain` and `solver.inner_set` build each piece once from those
rows.  The piece chain in `tests/geom_reference.py` is the old code; every
float must match it in float.hex, and every error its type and message.
"""
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import geom_reference as reference
from cheeger import geom, solver, spine
from cheeger.errors import CheegerError, DegenerateInnerSet
from cheeger.geom import Arc


def loop_bits(pieces):
    """Every float of a piece list in float.hex, with each piece's kind."""
    bits = []
    for piece in pieces:
        points = [piece.start, piece.end]
        if isinstance(piece, Arc):
            points.append(piece.center)
            bits += [piece.radius.hex(), piece.sweep.hex(), piece.ccw]
        bits.append(type(piece).__name__)
        bits += [v.hex() for p in points for v in (p.x, p.y)]
    return bits


def outcome(fn, *args):
    """What fn(*args) returns in float.hex, or the error it raised.  An
    IndexError of the reference reads as DegenerateInnerSet: an empty
    trimmed level curve now raises that instead of indexing past it."""
    try:
        result = fn(*args)
    except IndexError:
        return DegenerateInnerSet
    except CheegerError as exc:
        return type(exc), str(exc)
    if isinstance(result, geom.ArcPolygon):
        return [result.area.hex(), result.perimeter.hex()] \
            + loop_bits(result.pieces)
    if isinstance(result, spine.Strip):
        return outcome(lambda: result.boundary)
    if result and isinstance(result[0], tuple):  # level_chain entries
        return [(loop_bits([q]), t0.hex(), t1.hex()) for q, t0, t1 in result]
    return loop_bits(result)


def reference_strip(sp, s):
    with mock.patch.object(spine, "level_chain", reference.level_chain):
        return spine.build_strip(sp, s)


SPINE_FAMILIES = ("serpentine", "s_curve", "circular", "mixed")


@hst.composite
def strip_spines(draw, family):
    """(spine, halfwidth) with halfwidth * max|curvature| up to 0.999."""
    if family == "serpentine":
        kappa = draw(hst.floats(0.05, 1.0))
        sp = spine.serpentine_spine(kappa, draw(hst.floats(0.3, 40.0)),
                                    draw(hst.floats(0.3, 1.4)))
    elif family == "s_curve":
        kappa = draw(hst.floats(0.02, 1.0))
        sp = spine.s_curve_spine(kappa, draw(hst.floats(0.2, 12.0)))
    elif family == "circular":
        kappa = draw(hst.floats(0.02, 1.0)) * draw(hst.sampled_from((1, -1)))
        sp = spine.circular_spine(
            kappa, draw(hst.floats(0.05, 0.98)) * 2.0 * math.pi / abs(kappa))
    else:
        pieces = draw(hst.lists(
            hst.tuples(hst.floats(0.05, 8.0),
                       hst.just(0.0) | hst.floats(-1.0, 1.0)),
            min_size=1, max_size=6))
        sp = spine.Spine(tuple(spine.SpinePiece(ell, k) for ell, k in pieces))
    kappa = max(sp.max_curvature, 0.05)
    return sp, draw(hst.floats(0.02, 0.999)) / kappa


# depths from just above 0 to just below the halfwidth
depth_fractions = (hst.floats(1e-9, 1.0 - 1e-9)
                   | hst.sampled_from([1e-9, 1e-6, 0.5, 1.0 - 1e-6,
                                       1.0 - 1e-9]))


@pytest.mark.parametrize("family", SPINE_FAMILIES)
@given(data=hst.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_rows_match_the_piece_chain(family, data):
    try:
        sp, s = data.draw(strip_spines(family))
    except CheegerError:
        return  # a closed or overturning spine has no strip to compare
    built = outcome(spine.build_strip, sp, s)
    assert built == outcome(reference_strip, sp, s)
    level = data.draw(hst.floats(-1.0, 1.0)) * s
    assert outcome(spine.level_chain, sp, level) == \
        outcome(reference.level_chain, sp, level)
    if isinstance(built, tuple):
        return
    st_ = spine.build_strip(sp, s)
    for frac in data.draw(hst.lists(depth_fractions, min_size=1, max_size=4)):
        r = frac * s
        assert outcome(solver.inner_set, st_, r) == \
            outcome(reference.inner_set, st_, r)


P = spine.SpinePiece
# each check the skipped Vec2, Segment and Arc constructors made, on a level
# curve or a spine at the edge of the float range
EDGE_LEVELS = {
    "start-overflows": (spine.Spine((P(1.0, 0.0), P(1.0, 0.5)),
                                    geom.Vec2(0.0, 1.7e308)), 1e308),
    "arc-start-overflows": (spine.Spine((P(1.0, 0.5),),
                                        geom.Vec2(0.0, 1.7e308)), 1e308),
    "start-minus-centre-overflows": (spine.Spine((P(1.0, 1e-308),)), -8e307),
    "nan-level": (spine.Spine((P(1.0, 0.5),)), math.nan),
    "infinite-level": (spine.Spine((P(1.0, 0.0),)), math.inf),
    "zero-length-segment": (spine.Spine((P(1e-10, 0.0), P(1e6, 0.0)),
                                        geom.Vec2(1e20, 0.0)), 0.5),
    "underflowing-sweep": (spine.Spine((P(1.0, 0.0), P(1e-30, 1e-300))), 0.5),
    "full-turn": (spine.Spine((P(7.0, 1.0),)), 0.5),
    "collapsing-level": (spine.Spine((P(1.0, 0.5),)), 2.0),
    "huge-radius": (spine.Spine((P(2.0, -1e-300), P(1.0, 0.0))), 1.7e308),
}


@pytest.mark.parametrize("name", sorted(EDGE_LEVELS))
def test_level_rows_raise_as_the_piece_chain(name):
    sp, level = EDGE_LEVELS[name]
    assert outcome(spine.level_chain, sp, level) == \
        outcome(reference.level_chain, sp, level)


def test_inner_set_builds_each_piece_once(monkeypatch):
    # the piece chain built every arc three times (level curve, sub-arc,
    # reversal) and made 8 639 Vec2s for these 410 pieces
    st_ = spine.build_strip(spine.serpentine_spine(0.9, 160.0), 1.0)
    counts = {"Arc": 0, "Segment": 0, "Vec2": 0}
    for cls in (geom.Arc, geom.Segment, geom.Vec2):
        original = cls.__post_init__

        def counting(obj, original=original, name=cls.__name__):
            counts[name] += 1
            original(obj)

        monkeypatch.setattr(cls, "__post_init__", counting)
    e_r = solver.inner_set(st_, 0.9)
    n = len(e_r.pieces)
    assert n == 410
    assert counts["Arc"] + counts["Segment"] == n
    assert counts["Vec2"] <= 3 * n + 16
