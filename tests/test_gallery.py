import math

import pytest

import gallery_families as families
from cheeger import gallery, geom, verify
from cheeger.errors import DomainError


def test_theta0_near_reported_value():
    theta0 = gallery.solve_pinocchio_theta()
    assert abs(theta0 - 0.531) <= 5e-3


def test_g_endpoints_exact():
    assert gallery.pinocchio_g(0.0) == pytest.approx(-math.pi, abs=1e-12)
    assert gallery.pinocchio_g(0.5 * math.pi) == pytest.approx(math.pi, abs=1e-12)


def test_g_strictly_increasing_on_sample():
    for k in range(1, 1000):
        assert families.pinocchio_g_prime(0.5 * math.pi * k / 1000.0) > 0.0


def test_measures_alpha_zero_formulas():
    theta = 0.531
    s, c = math.sin(theta), math.cos(theta)
    p, a = gallery.pinocchio_measures(theta, 0.0)
    assert p == pytest.approx(2.0 * (math.pi - theta) + math.pi * s, abs=1e-14)
    assert a == pytest.approx((math.pi - theta) + s * c
                              + 0.5 * math.pi * s * s, abs=1e-14)


def test_measures_alpha_max_gives_unit_disk():
    p, a = gallery.pinocchio_measures(0.6, 0.5 * math.pi - 0.6)
    assert p == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert a == pytest.approx(math.pi, abs=1e-12)


def test_measures_match_geometry():
    theta0 = gallery.solve_pinocchio_theta()
    for theta, alpha in [(theta0, 0.0), (0.531, 0.2), (0.7, 0.5)]:
        p, a = gallery.pinocchio_measures(theta, alpha)
        region = gallery.pinocchio_region(theta, alpha)
        assert region.perimeter == pytest.approx(p, abs=1e-9)
        assert region.area == pytest.approx(a, abs=1e-9)
        geom.assert_simple(region)


def test_measures_domain_errors():
    with pytest.raises(DomainError):
        gallery.pinocchio_measures(0.0, 0.0)
    with pytest.raises(DomainError):
        gallery.pinocchio_measures(0.5, 1.2)


def test_self_cheeger_ratio_identity():
    theta0 = gallery.solve_pinocchio_theta()
    p, a = gallery.pinocchio_measures(theta0, 0.0)
    assert p / a == pytest.approx(1.0 / math.sin(theta0), rel=1e-12)


def test_self_cheeger_grid_checks():
    theta0 = gallery.solve_pinocchio_theta()
    checks = gallery.verify_self_cheeger(theta0)
    assert all(c.passed for c in checks)


def test_failed_ratio_inequality_is_reported(monkeypatch):
    # a truncated nose with 0.1% more area would beat the full domain
    measures = gallery.pinocchio_measures

    def inflated(theta, alpha):
        p, a = measures(theta, alpha)
        return (p, 1.001 * a) if alpha > 0.0 else (p, a)

    monkeypatch.setattr(gallery, "pinocchio_measures", inflated)
    failed = [c.name for c in verify.run_suite("gallery") if not c.passed]
    assert failed == ["pinocchio_ratio_inequality"]


def test_family_ratio_constant():
    base = gallery.pinocchio_family(0.0)[2]
    for t in (0.01, 0.5, 2.0, 10.0):
        assert abs(gallery.pinocchio_family(t)[2] - base) <= 1e-12


def test_family_area_growth():
    theta0 = gallery.solve_pinocchio_theta()
    r0 = math.sin(theta0)
    a0 = gallery.pinocchio_family(0.0)[0]
    a2 = gallery.pinocchio_family(2.0)[0]
    assert a2 - a0 == pytest.approx(4.0 * r0, abs=1e-12)


def test_nose_geometry_matches_family():
    theta0 = gallery.solve_pinocchio_theta()
    area, perim, _ = gallery.pinocchio_family(2.0)
    region = gallery.pinocchio_region(theta0, 0.0, 2.0)
    assert region.area == pytest.approx(area, abs=1e-9)
    assert region.perimeter == pytest.approx(perim, abs=1e-9)


def test_bent_nose_same_measures():
    theta0 = gallery.solve_pinocchio_theta()
    area, perim, _ = gallery.pinocchio_family(2.0)
    bent = families.pinocchio_region_bent(theta0, 2.0)
    geom.assert_simple(bent)
    assert bent.area == pytest.approx(area, abs=1e-9)
    assert bent.perimeter == pytest.approx(perim, abs=1e-9)


# ---------------------------------------------------------------------------
# two ears


def test_two_ears_root_and_identity():
    theta1 = gallery.two_ears_theta()
    assert 0.0 < theta1 < 0.5 * math.pi
    p, a = gallery.two_ears_measures(theta1)
    assert p / a == pytest.approx(1.0 / math.sin(theta1), rel=1e-10)


def test_two_ears_sign_change():
    def f(theta):
        p, a = gallery.two_ears_measures(theta)
        return p * math.sin(theta) - a

    assert f(1e-9) < 0.0
    assert f(0.5 * math.pi - 1e-9) > 0.0


def test_two_ears_geometry():
    theta1 = gallery.two_ears_theta()
    region = gallery.two_ears_region(theta1)
    p, a = gallery.two_ears_measures(theta1)
    assert region.perimeter == pytest.approx(p, abs=1e-9)
    assert region.area == pytest.approx(a, abs=1e-9)
    geom.assert_simple(region)


def test_two_ears_stretched_family():
    base = families.two_ears_family(0.0, 0.0)[2]
    area, perim, ratio = families.two_ears_family(1.0, 2.5)
    assert abs(ratio - base) <= 1e-12
    region = families.two_ears_region_stretched(1.0, 2.5)
    geom.assert_simple(region)
    assert region.area == pytest.approx(area, abs=1e-9)
    assert region.perimeter == pytest.approx(perim, abs=1e-9)


# ---------------------------------------------------------------------------
# two balls


def test_two_balls_report():
    rep = gallery.two_balls_example()
    assert rep.union_ratio == pytest.approx(30.0 / 13.0, abs=1e-12)
    assert rep.component_ratios[0] == pytest.approx(2.0, abs=1e-12)
    assert rep.component_ratios[1] == pytest.approx(3.0, abs=1e-12)
    assert rep.h == 2.0
    assert rep.union_of_half_balls_exceeds_cheeger_set


# ---------------------------------------------------------------------------
# bow-ties


def test_bowtie_construction():
    bt = gallery.build_bowtie()
    assert bt.gap == 0.0
    assert bt.alpha_corner == pytest.approx(2.0 * math.pi / 3.0, abs=1e-9)
    geom.assert_simple(bt.region)
    # two-fold symmetric hexagon
    assert bt.region.area == pytest.approx(
        2.0 * (math.sqrt(3.0) / 4.0
               - bt.waist_y * (math.sqrt(3.0) / 2.0 - bt.cut_x)), rel=1e-9)


def test_bowtie_candidate_checks():
    bt = gallery.build_bowtie()
    cand = gallery.bowtie_cheeger_candidate(bt)
    geom.assert_simple(cand.region)
    # four congruent arcs, tangent to their edges, radius = 1/ratio
    assert len(cand.corner_arcs) == 4
    radii = [a.radius for a in cand.corner_arcs]
    sweeps = [a.sweep for a in cand.corner_arcs]
    assert max(radii) - min(radii) <= 1e-12
    assert max(sweeps) - min(sweeps) <= 1e-12
    assert cand.ratio == pytest.approx(1.0 / cand.radius, rel=1e-10)
    pieces = cand.region.pieces
    n = len(pieces)
    for i, piece in enumerate(pieces):
        if piece.kind != "arc":
            continue
        before = pieces[(i - 1) % n].tangent_at_end()
        after = pieces[(i + 1) % n].tangent_at_start()
        t0 = piece.tangent_at_start()
        t1 = piece.tangent_at_end()
        assert abs(before.cross(t0)) <= 1e-9
        assert abs(after.cross(t1)) <= 1e-9
    # mirror symmetry in both axes: arc centers come in reflected pairs
    centers = {(round(a.center.x, 9), round(a.center.y, 9))
               for a in cand.corner_arcs}
    mirrored = {(round(2.0 * bt.cut_x - x, 9), round(-y, 9))
                for x, y in centers}
    assert centers == mirrored


def test_bowtie_beats_triangle():
    cand = gallery.bowtie_cheeger_candidate(gallery.build_bowtie())
    h_t = gallery.triangle_solution()[1].h
    assert cand.ratio < h_t - 0.1


def test_loose_bowtie_formula():
    r = 0.5
    assert gallery.loose_bowtie_inner_formula(0.5 * math.pi, r) == \
        pytest.approx(math.pi * r * r, abs=1e-12)
    val = gallery.loose_bowtie_inner_formula(2.0, 0.5)
    assert val == pytest.approx(1.0, abs=1e-15)
    assert val > math.pi * 0.25


def test_loose_bowtie_reach_witness():
    bt = gallery.build_bowtie(0.03)
    assert bt.alpha_corner > 0.5 * math.pi
    r = 0.16
    comps = gallery.loose_bowtie_inner_set(bt, r)
    assert len(comps) == 2
    for comp in comps:
        geom.assert_simple(comp)
        for v in comp.vertices():
            assert geom.distance_to_boundary(bt.region, v) >= r - 1e-9
    assert geom.reach_lower_bound_union(comps) < r


def test_loose_bowtie_depth_domain():
    bt = gallery.build_bowtie(0.03)
    with pytest.raises(DomainError):
        gallery.loose_bowtie_inner_set(bt, 0.05)
    with pytest.raises(DomainError):
        gallery.loose_bowtie_inner_set(gallery.build_bowtie(), 0.16)
