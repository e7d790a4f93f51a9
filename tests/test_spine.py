import math
from typing import Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import geom_reference as reference
from cheeger import cli, geom, spine
from cheeger.errors import (DomainError, InvalidGeometry, NotADiffeomorphism,
                            SelfIntersecting)
from cheeger.geom import Arc, Vec2
from conftest import straight_strip_root


def jacobian(st_: spine.Strip, t: float, rho: float) -> float:
    """Jacobian 1 - rho*kappa(t) of the strip parametrization."""
    if not 0.0 <= t <= st_.length:
        raise DomainError(f"arclength {t} outside [0, {st_.length}]")
    if abs(rho) > st_.halfwidth:
        raise DomainError(f"|rho| = {abs(rho)} exceeds halfwidth {st_.halfwidth}")
    i, _ = st_.spine._locate(t)
    return 1.0 - rho * st_.spine.pieces[i].curvature


def sub_strip_measure(st_: spine.Strip,
                      intervals: Sequence[Tuple[float, float]]) -> float:
    """Area of the union of transversal segments over spine intervals.

    Equals 2s times the total length of the intervals, independent of the
    spine's shape.
    """
    clipped = []
    for a, b in intervals:
        a = max(min(a, b), 0.0)
        b = min(max(a, b), st_.length)
        if b > a:
            clipped.append((a, b))
    clipped.sort()
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return 2.0 * st_.halfwidth * total


def test_straight_strip_is_rectangle():
    st_ = spine.build_strip(spine.straight_spine(10.0), 1.0)
    assert st_.boundary.area == pytest.approx(20.0, abs=1e-12)
    assert st_.boundary.perimeter == pytest.approx(24.0, abs=1e-12)
    assert spine.strip_measures(st_) == (20.0, 24.0)


def test_measures_depend_only_on_length():
    # width-2 strips measure (2L, 2L+4) whatever the spine shape
    L = 4.5 * math.pi
    area, perim = spine.strip_measures(
        spine.build_strip(spine.serpentine_spine(0.5, L), 1.0))
    assert area == pytest.approx(2.0 * L, abs=1e-12)
    assert perim == pytest.approx(2.0 * L + 4.0, abs=1e-12)
    area9, perim9 = spine.strip_measures(
        spine.build_strip(spine.straight_spine(L), 1.0))
    assert area9 == pytest.approx(area, rel=1e-14)
    assert perim9 == pytest.approx(perim, rel=1e-14)


def test_halfwidth_scaling_of_measures():
    st_ = spine.build_strip(spine.straight_spine(10.0), 0.5)
    assert spine.strip_measures(st_) == (10.0, 22.0)
    assert st_.boundary.area == pytest.approx(10.0, abs=1e-12)


def test_circular_spine_annular_sector():
    st_ = spine.build_strip(spine.circular_spine(0.5, math.pi), 1.0)
    assert st_.boundary.area == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert st_.boundary.perimeter == pytest.approx(2.0 * math.pi + 4.0, abs=1e-12)
    radii = sorted(p.radius for p in st_.boundary.pieces if isinstance(p, Arc))
    assert radii == pytest.approx([1.0, 3.0], abs=1e-12)


def test_s_curve_strip():
    st_ = spine.build_strip(spine.s_curve_spine(0.5, 12.0), 1.0)
    assert st_.boundary.area == pytest.approx(24.0, rel=1e-12)
    assert st_.boundary.perimeter == pytest.approx(28.0, rel=1e-12)


def test_jacobian_values():
    st_ = spine.build_strip(spine.circular_spine(0.5, 10.0), 1.0)
    assert jacobian(st_, 1.0, 0.6) == pytest.approx(0.7, abs=1e-15)
    assert jacobian(st_, 3.0, 0.0) == 1.0
    st2 = spine.build_strip(spine.circular_spine(-1.0, 3.0), 0.95)
    assert jacobian(st2, 1.0, 0.9) == pytest.approx(1.9, abs=1e-15)


def test_jacobian_domain_errors():
    st_ = spine.build_strip(spine.straight_spine(5.0), 1.0)
    with pytest.raises(DomainError):
        jacobian(st_, -0.1, 0.0)
    with pytest.raises(DomainError):
        jacobian(st_, 1.0, 1.5)


def band_loop_area(sp: spine.Spine, c: float, a: float, b: float) -> float:
    """Area of the loop of level rows at -c and +c between the fibres at
    spine parameters a and b, measured as the library measures loops."""
    lower = spine._sub_rows(spine._level_rows(sp, -c), a, b)
    upper = spine._sub_rows(spine._level_rows(sp, c), a, b, reverse=True)
    rows = (lower + [geom._segment_row(*lower[-1][1][2:4], *upper[0][1][:2])]
            + upper + [geom._segment_row(*upper[-1][1][2:4],
                                         *lower[0][1][:2])])
    return geom._loop_measures(rows)[0]


def test_sub_strip_measure():
    st_ = spine.build_strip(spine.straight_spine(10.0), 1.0)
    assert sub_strip_measure(st_, [(0.0, 10.0)]) == pytest.approx(20.0)
    assert sub_strip_measure(st_, [(2.0, 5.0)]) == pytest.approx(6.0)
    assert sub_strip_measure(st_, []) == 0.0
    # overlapping intervals merge before measuring
    assert sub_strip_measure(st_, [(1.0, 4.0), (3.0, 6.0)]) == \
        pytest.approx(10.0)
    assert sub_strip_measure(st_, [(-5.0, 25.0)]) == pytest.approx(20.0)


@pytest.mark.parametrize("sp", [
    spine.serpentine_spine(0.5, 20.0),
    spine.s_curve_spine(0.2, 20.0),
    # the hook of tests/test_strip_reach.py: it turns back past its start
    spine.Spine((spine.SpinePiece(3.0, 0.0),
                 spine.SpinePiece(2.0 * math.pi, 0.5),
                 spine.SpinePiece(8.0, 0.0))),
], ids=["serpentine", "s_curve", "hook"])
def test_sub_strip_measure_is_the_band_loop_area(sp):
    # the band identity the root solve of a strip rests on
    # (solver._strip_measures): the loop of the level curves at +-c between
    # two fibres encloses 2c times the spine length between them, whatever
    # the spine's shape
    L = sp.length
    for c in (0.1, 0.5, 0.9):
        st_ = spine.build_strip(sp, c)
        for a, b in ((0.0, L), (0.3 * L, 0.8 * L), (1.234, L - 0.5)):
            assert band_loop_area(sp, c, a, b) == pytest.approx(
                sub_strip_measure(st_, [(a, b)]), rel=1e-12)


def test_fold_over_rejected():
    with pytest.raises(NotADiffeomorphism):
        spine.build_strip(spine.circular_spine(1.0, 3.0), 1.0)


def test_overlapping_annulus_rejected():
    with pytest.raises(SelfIntersecting):
        spine.build_strip(spine.circular_spine(0.5, 20.0), 1.0)


def test_measure_check_rejects_imprecise_not_overlapping_boundaries(
        monkeypatch):
    # the arc of curvature 1e-6, held by a centre 1e6 away, puts the
    # boundary's Green area 7.5e-7 off 2sL: the measure check rejects it
    near_straight = spine.Spine((spine.SpinePiece(2.25, 0.375),
                                 spine.SpinePiece(1.0, 1e-6)))
    with pytest.raises(InvalidGeometry, match="assembled boundary measures "
                       "disagree with 2sL and 2L[+]4s"):
        spine.build_strip(near_straight, 1.0)
    # it cannot see an overlap: Green's area is 2sL either way, so with the
    # simplicity scan stubbed out the overlapping strip passes it
    monkeypatch.setattr(geom, "assert_simple", lambda *args, **kwargs: None)
    overlapping = spine.build_strip(spine.Spine((
        spine.SpinePiece(5.0, 0.0), spine.SpinePiece(3.0 * math.pi, 0.5),
        spine.SpinePiece(10.0, 0.0))), 1.0)
    area, perimeter = spine.strip_measures(overlapping)
    assert overlapping.boundary.area == area
    assert overlapping.boundary.perimeter == perimeter


def test_closed_spine_rejected():
    with pytest.raises((InvalidGeometry, SelfIntersecting)):
        spine.build_strip(spine.circular_spine(0.5, 4.0 * math.pi), 1.0)


# a spine piece far below the simplicity tolerance 1e-9 * L leaves a
# rectangle; its boundary pieces either side must not count as touching
@pytest.mark.parametrize("first", [
    {"kind": "line", "length": 1e-9},
    {"kind": "arc", "length": 1e-12, "curvature": 0.5},
], ids=["line", "arc"])
def test_rectangle_with_sub_tolerance_spine_piece_solves(first):
    spec = {"type": "strip", "halfwidth": 1.0,
            "spine": [first, {"kind": "line", "length": 20.0}]}
    report = cli.build_report(cli.solve_domain(spec))
    assert [c["name"] for c in report["checks"] if not c["pass"]] == []
    L = first["length"] + 20.0
    assert report["h"] == pytest.approx(1.0 / straight_strip_root(L), abs=1e-9)


def test_spine_curvature_limit():
    # the limit is the strip's fold rule halfwidth*|curvature| < 1, not a
    # bound on the piece: curvature 1.5 folds the halfwidth-1 strip, and
    # the half-size copy of a strip (curvature 1.8, halfwidth 0.5) builds
    with pytest.raises(NotADiffeomorphism):
        spine.build_strip(spine.Spine((spine.SpinePiece(1.0, 1.5),)), 1.0)
    half = spine.build_strip(spine.serpentine_spine(0.9, 20.0), 1.0).scaled(0.5)
    assert half.spine.max_curvature == pytest.approx(1.8)
    for kappa in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidGeometry):
            spine.SpinePiece(1.0, kappa)


def test_locate_roundtrip():
    st_ = spine.build_strip(spine.s_curve_spine(0.4, 10.0), 1.0)
    for t, rho in [(0.5, 0.0), (3.3, 0.7), (7.7, -0.9), (9.9, 0.2)]:
        tt, rr = reference.locate(st_, st_.point(t, rho))
        assert tt == pytest.approx(t, abs=1e-9)
        assert rr == pytest.approx(rho, abs=1e-9)


# ---------------------------------------------------------------------------
# ball-to-ball paths

PATH_CLEARANCE_SAMPLES = 1000


def path_points(pieces, n=PATH_CLEARANCE_SAMPLES):
    """n points spread along a piecewise path, proportionally to length."""
    if not pieces:
        return []
    total = sum(p.length for p in pieces)
    pts = []
    for piece in pieces:
        m = max(2, int(round(n * piece.length / total)))
        for k in range(m + 1):
            pts.append(piece.point_at(k / m))
    return pts


def path_max_curvature(pieces):
    return max((1.0 / p.radius for p in pieces if isinstance(p, Arc)),
               default=0.0)


def test_straight_path_is_single_segment():
    st_ = spine.build_strip(spine.straight_spine(10.0), 1.0)
    path = reference.ball_to_ball_path(st_, 0.5, Vec2(1, 0), Vec2(9, 0))
    assert len(path) == 1 and path[0].kind == "segment"
    for q in path_points(path):
        assert geom.distance_to_boundary(st_.boundary, q) >= 0.5 - 1e-9


def test_curved_path_three_pieces():
    st_ = spine.build_strip(spine.circular_spine(0.4, 8.0), 1.0)
    x0 = st_.point(2.0, 0.2)
    x1 = st_.point(6.0, -0.3)
    path = reference.ball_to_ball_path(st_, 0.6, x0, x1)
    assert len(path) == 3
    assert path[0].point_at(0.0).distance(x0) <= 1e-9
    assert path[-1].point_at(1.0).distance(x1) <= 1e-9
    for q in path_points(path):
        assert geom.distance_to_boundary(st_.boundary, q) >= 0.6 - 1e-9
    assert path_max_curvature(path) <= 1.0 / 0.6 + 1e-9


def test_identity_path_empty():
    st_ = spine.build_strip(spine.circular_spine(0.4, 8.0), 1.0)
    x = st_.point(3.0, 0.1)
    assert reference.ball_to_ball_path(st_, 0.6, x, x) == []


def test_ball_not_contained():
    st_ = spine.build_strip(spine.straight_spine(10.0), 1.0)
    with pytest.raises(reference.BallNotContained):
        reference.ball_to_ball_path(st_, 0.5, Vec2(0.1, 0.8), Vec2(9, 0))


# ---------------------------------------------------------------------------
# property tests

piece_lists = st.lists(
    st.tuples(st.floats(min_value=0.8, max_value=4.0),
              st.floats(min_value=-0.55, max_value=0.55)),
    min_size=1, max_size=5)


def _try_strip(pieces):
    try:
        sp = spine.Spine(tuple(spine.SpinePiece(ell, k) for ell, k in pieces))
        return spine.build_strip(sp, 1.0)
    except (InvalidGeometry, SelfIntersecting, NotADiffeomorphism):
        return None


@given(piece_lists)
@settings(max_examples=30, deadline=None)
def test_random_spine_measures_shape_independent(pieces):
    st_ = _try_strip(pieces)
    assume(st_ is not None)
    L = st_.length
    assert abs(st_.boundary.area - 2.0 * L) <= 1e-9 * 2.0 * L
    assert abs(st_.boundary.perimeter - (2.0 * L + 4.0)) <= \
        1e-9 * (2.0 * L + 4.0)


# the radius spans (0.05, 0.95) of the halfwidth 1, and some draws put both
# ends on one level: the path is then one trimmed level chain, reversed
# when the start lies past the end
@given(piece_lists, st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=-0.9, max_value=0.9),
       st.floats(min_value=-0.9, max_value=0.9) | st.none())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_random_ball_paths_keep_clearance(pieces, r, u0, u1, v0, v1):
    st_ = _try_strip(pieces)
    assume(st_ is not None and st_.length > 2.5)
    if v1 is None:
        v1 = v0
    lo, hi = r + 0.2, st_.length - r - 0.2
    x0 = st_.point(lo + u0 * (hi - lo), v0 * (1.0 - r))
    x1 = st_.point(lo + u1 * (hi - lo), v1 * (1.0 - r))
    assume(geom.distance_to_boundary(st_.boundary, x0) >= r)
    assume(geom.distance_to_boundary(st_.boundary, x1) >= r)
    path = reference.ball_to_ball_path(st_, r, x0, x1)
    for q in path_points(path, 400):
        assert geom.distance_to_boundary(st_.boundary, q) >= r - 1e-9
    assert path_max_curvature(path) <= 1.0 / r + 1e-9


@given(piece_lists)
@settings(max_examples=20, deadline=None)
def test_random_strip_jacobian_positive(pieces):
    st_ = _try_strip(pieces)
    assume(st_ is not None)
    L = st_.length
    samples = [L * k / 23.0 for k in range(23)] + [L]
    worst = min(jacobian(st_, t, rho)
                for t in samples
                for rho in (-1.0, -0.5, 0.0, 0.5, 1.0))
    assert worst > 0.0
