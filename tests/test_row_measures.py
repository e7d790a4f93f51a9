"""Inner-set measures on float rows against the pieces they replace.

The ratio-scan oracle reads the area and perimeter of a strip's inner set
from its piece rows (`solver._inner_measures`: `solver._inner_loop` cut by
`spine._sub_rows`, measured by `geom._loop_measures`), the reference of the
root solve's band identity (`tests/test_strip_measures.py`), and the root
solve builds the set as an `ArcPolygon` once, at the root.
`tests/geom_reference.py` keeps the piece chain and the loop checks
and measures as they were written on pieces; every float must match them
in float.hex, and every error its type and message.
"""
import functools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import geom_reference as reference
from cheeger import geom, solver, spine, verify
from cheeger.errors import CheegerError, DegenerateInnerSet
from cheeger.geom import Arc, Vec2

EMPTY_TRIM = "a trimmed level curve is empty at depth"


def measured(fn, *args):
    """(area, perimeter) of fn(*args) in float.hex, or the error it raised;
    an IndexError (the reference's empty trimmed level curve) reads
    "IndexError"."""
    try:
        area, perimeter = fn(*args)[:2]
    except IndexError:
        return "IndexError"
    except CheegerError as exc:
        return type(exc), str(exc)
    return area.hex(), perimeter.hex()


def built_measures(st_, r):
    e = solver.inner_set(st_, r)
    return e.area, e.perimeter


def reference_measures(st_, r):
    return reference.loop_measures(reference.inner_set_pieces(st_, r))


@functools.lru_cache(maxsize=None)
def ladder_strip(family, L):
    return verify.strip_families()[family](L)


@hst.composite
def ladder_strips(draw):
    return ladder_strip(draw(hst.sampled_from(sorted(verify.strip_families()))),
                        draw(hst.sampled_from(verify.LADDER_LENGTHS)))


@hst.composite
def short_strips(draw):
    """One or two pieces of total length 0.1-3 with halfwidth
    (1 - gap)/max|curvature|: the strips `--allow-short-strip` admits,
    whose end trims meet at depths below the halfwidth."""
    count = draw(hst.sampled_from((1, 2)))
    total = draw(hst.floats(0.1, 3.0))
    pieces = [spine.SpinePiece(total / count,
                               draw(hst.just(0.0) | hst.floats(0.1, 1.0))
                               * draw(hst.sampled_from((1, -1))))
              for _ in range(count)]
    gap = draw(hst.sampled_from((1e-12, 1e-9, 1e-6)) | hst.floats(0.0, 0.5))
    kappa = max(abs(p.curvature) for p in pieces) or 1.0
    return spine.build_strip(spine.Spine(tuple(pieces)), (1.0 - gap) / kappa)


# depth / halfwidth: near 0, near 1, inside, and infeasible (<= 0, >= 1)
depth_fractions = (hst.floats(1e-12, 1e-6) | hst.floats(1.0 - 1e-6, 1.0 - 1e-12)
                   | hst.floats(1e-6, 1.0 - 1e-6)
                   | hst.sampled_from([0.0, -0.5, 1.0, 1.0 + 1e-9, 2.0]))


@pytest.mark.parametrize("family", ["ladder", "short"])
@given(data=hst.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_row_measures_match_the_pieces(family, data):
    try:
        st_ = data.draw(ladder_strips() if family == "ladder"
                        else short_strips())
    except CheegerError:
        return  # a spine that admits no strip has no inner set
    for frac in data.draw(hst.lists(depth_fractions, min_size=1,
                                    max_size=4)):
        r = frac * st_.halfwidth
        rows = measured(solver._inner_measures, st_, r)
        assert rows == measured(built_measures, st_, r)
        expected = measured(reference_measures, st_, r)
        if expected == "IndexError":
            assert rows[0] is DegenerateInnerSet
            assert rows[1].startswith(EMPTY_TRIM)
        else:
            assert rows == expected
        if isinstance(rows[0], str):
            # the rows are those of the pieces built from them
            pieces = solver.inner_set(st_, r).pieces
            assert solver._inner_loop(st_, r) == \
                [geom._piece_row(q) for q in pieces]


def loop_bits(pieces):
    bits = []
    for piece in pieces:
        points = [piece.start, piece.end]
        if isinstance(piece, Arc):
            points.append(piece.center)
            bits += [piece.radius.hex(), piece.sweep.hex(), piece.ccw]
        bits.append(type(piece).__name__)
        bits += [v.hex() for p in points for v in (p.x, p.y)]
    return bits


def box_bits(boxes):
    return [[float(v).hex() for v in box] for box in boxes]


def clockwise_loops():
    st_ = ladder_strip("serpentine_k05", verify.LADDER_LENGTHS[0])
    ccw = [geom.round_corners(geom.polygon_from_points(
               [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)]), 0.25),
           verify.stadium(2.0, 1.0).translated(Vec2(1e6, -1e6)),
           solver.inner_set(st_, 0.4)]
    return [[q.reversed() for q in reversed(p.pieces)] for p in ccw]


@pytest.mark.parametrize("pieces", clockwise_loops(),
                         ids=["filleted_square", "far_stadium", "strip_E_r"])
def test_clockwise_loop_is_reversed_as_the_reference(pieces):
    _, _, _, _, clockwise = geom._loop_measures(
        [geom._piece_row(q) for q in pieces])
    assert clockwise
    poly = geom.ArcPolygon(pieces)
    area, perimeter, ref_pieces, bbox = reference.loop_measures(pieces)
    assert (poly.area.hex(), poly.perimeter.hex()) == \
        (area.hex(), perimeter.hex())
    assert box_bits([poly.bounding_box]) == box_bits([bbox])
    assert loop_bits(poly.pieces) == loop_bits(ref_pieces)
    # the rows and boxes of the index are those of the reversed pieces
    rows, boxes, _ = geom._piece_index(poly)
    assert rows == tuple(geom._piece_row(q) for q in poly.pieces)
    assert box_bits(boxes) == box_bits(reference.piece_box(q)
                                       for q in poly.pieces)


def test_solve_strip_builds_the_inner_set_once(monkeypatch):
    # the root solve measures every trial depth on rows and builds E_r at
    # the accepted one only (it built E_r at each of 5 evaluations before)
    st_ = spine.build_strip(spine.serpentine_spine(0.9, 160.0), 1.0)
    depths = []
    build = solver.inner_set

    def counting(st, r):
        depths.append(r)
        return build(st, r)

    monkeypatch.setattr(solver, "inner_set", counting)
    sol = solver.solve_strip(st_)
    assert depths == [sol.r]
    assert sol.inner_set.area - math.pi * sol.r ** 2 == \
        pytest.approx(0.0, abs=solver.RESIDUAL_TOL * math.pi * sol.r ** 2)


# (r, q) of ratio_scan_oracle on the six strips of the oracle suite, in
# float.hex, as the piece-built inner sets gave them
ORACLE_SCANS = {
    "straight_L9pi2": ("0x1.cb830942434f9p-1", "0x1.1d3dbf240e6efp+0"),
    "straight_L20": ("0x1.da040a41ce5d0p-1", "0x1.148385f4de897p+0"),
    "serpentine_k03_L20": ("0x1.d9f907b005ccbp-1", "0x1.148a2212ff87dp+0"),
    "serpentine_k05_L9pi2": ("0x1.cb48d71b1f303p-1", "0x1.1d620f369314ep+0"),
    "circular_k03_L9pi2": ("0x1.cb6fa33537452p-1", "0x1.1d49f2122161ep+0"),
    "s_curve_L24": ("0x1.e008ebc3c9104p-1", "0x1.110be4cfe70fbp+0"),
}
ORACLE_SPINES = {
    "straight_L9pi2": lambda: spine.straight_spine(4.5 * math.pi),
    "straight_L20": lambda: spine.straight_spine(20.0),
    "serpentine_k03_L20": lambda: spine.serpentine_spine(0.3, 20.0),
    "serpentine_k05_L9pi2":
        lambda: spine.serpentine_spine(0.5, 4.5 * math.pi),
    "circular_k03_L9pi2": lambda: spine.circular_spine(0.3, 4.5 * math.pi),
    "s_curve_L24": lambda: spine.s_curve_spine(4.0 / 24.0, 24.0),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SCANS))
def test_oracle_suite_ratio_scans_are_pinned(name):
    r, q = solver.ratio_scan_oracle(spine.build_strip(ORACLE_SPINES[name](),
                                                      1.0))
    assert (r.hex(), q.hex()) == ORACLE_SCANS[name]
