"""Seeded inputs of the three workloads and the per-operation correctness gate.

Importing this module imports `cheeger`, so the import belongs to the timed
set-up.  `build(name, seed)` returns the operations of one pass; each
operation returns the list of its failures (empty when its report checks
pass and its h meets its closed-form reference, if it has one).
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from cheeger import cli, convex, gallery, geom, solver, spine, verify
from cheeger.geom import Vec2

# relative tolerance of the closed-form gate; the tests use 1e-9 for these cases
H_REL_TOL = 1e-9

MODULES = (geom, spine, solver, convex, gallery, verify, cli)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], List[str]]


def h_misses(h: float, ref: Optional[float]) -> Optional[str]:
    """Failure message when h misses its closed-form reference, else None."""
    if ref is None:
        return None
    if not abs(h - ref) <= H_REL_TOL * abs(ref):
        return f"h = {h!r} misses reference {ref!r} (relative {abs(h - ref) / abs(ref):.2e})"
    return None


# collected at import, before tracing rebinds any name
CACHES = [obj for mod in MODULES for obj in vars(mod).values()
          if hasattr(obj, "cache_clear")]


def clear_caches() -> None:
    """Empty every lru_cache in the library, so no operation reads a value
    an earlier operation computed."""
    for obj in CACHES:
        obj.cache_clear()


def report_op(name: str, spec: dict, ref: Optional[float] = None) -> Op:
    """Spec -> cli.solve_domain -> cli.build_report -> JSON, checked."""

    def run() -> List[str]:
        out = cli.solve_domain(spec)
        report = cli.build_report(out)
        json.dumps(report, sort_keys=True)
        failures = [f"check {c['name']} failed: {c['detail']}"
                    for c in report["checks"] if not c["pass"]]
        miss = h_misses(report["h"], ref)
        if miss:
            failures.append(miss)
        return failures

    return Op(name, run)


# ---------------------------------------------------------------------------
# ladder


SERPENTINE = (("serpentine_k03", 0.3), ("serpentine_k05", 0.5),
              ("serpentine_k09", 0.9))
PIECE_TURN = 0.7  # serpentine_spine default


def straight_strip_h(L: float) -> float:
    """h = 1/r for the L x 2 rectangle, r the smaller root of
    (4 - pi) r^2 - (2L + 4) r + 2L = 0."""
    a, b, c = 4.0 - math.pi, -(2.0 * L + 4.0), 2.0 * L
    return 1.0 / ((-b - math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a))


def strip_spec(sp: spine.Spine) -> dict:
    pieces = [{"kind": "line", "length": p.length} if p.curvature == 0.0
              else {"kind": "arc", "length": p.length, "curvature": p.curvature}
              for p in sp.pieces]
    return {"type": "strip", "halfwidth": 1.0, "spine": pieces}


def ladder_spines(seed: int, lengths=verify.LADDER_LENGTHS):
    """(family, L, spine) over the families of `verify.strip_families`.

    Seed 0 is that ladder exactly.  Other seeds scale the serpentine
    curvature and piece turn by one common factor in [0.97, 1.03], which
    keeps every piece count (and s*max|kappa| < 1) while moving the geometry.
    """
    rng = random.Random(seed)
    scale = 1.0 if seed == 0 else rng.uniform(0.97, 1.03)
    makers = [("straight", spine.straight_spine)]
    for name, kappa in SERPENTINE:
        makers.append((name, lambda L, k=kappa: spine.serpentine_spine(
            k * scale, L, PIECE_TURN * scale)))
    makers.append(("s_curve", lambda L: spine.s_curve_spine(4.0 / L, L)))
    return [(name, L, make(L)) for name, make in makers for L in lengths]


def ladder_ops(seed: int, small: bool = False) -> List[Op]:
    lengths = verify.LADDER_LENGTHS[:3] if small else verify.LADDER_LENGTHS
    return [report_op(f"{name}_L{L:g}", strip_spec(sp),
                       straight_strip_h(L) if name == "straight" else None)
            for name, L, sp in ladder_spines(seed, lengths)]


# ---------------------------------------------------------------------------
# convex


def tangential_polygon(normals: List[float], inradius: float, center: Vec2):
    """Vertices of the polygon circumscribed about a circle, one edge per
    outward normal angle (ascending, gaps below pi), and its closed-form
    h = 1/rho + sqrt(pi/A) with A = rho^2 * sum(tan(gap/2))."""
    n = len(normals)
    verts, tan_sum = [], 0.0
    for k in range(n):
        gap = (normals[(k + 1) % n] - normals[k]) % (2.0 * math.pi)
        tan_sum += math.tan(0.5 * gap)
        mid = normals[k] + 0.5 * gap
        d = inradius / math.cos(0.5 * gap)
        verts.append([center.x + d * math.cos(mid), center.y + d * math.sin(mid)])
    area = inradius * inradius * tan_sum
    return verts, 1.0 / inradius + math.sqrt(math.pi / area)


def reuleaux_triangle(corners: List[Vec2]) -> geom.ArcPolygon:
    """Arcs centred on each corner of an equilateral triangle through the
    other two corners."""
    return geom.ArcPolygon([geom.arc_between(corners[k], corners[(k + 1) % 3],
                                             corners[(k + 2) % 3], ccw=True)
                            for k in range(3)])


def _jittered_angles(rng: random.Random, n: int, jitter: float) -> List[float]:
    rot = rng.uniform(0.0, 2.0 * math.pi)
    return [rot + 2.0 * math.pi * (k + rng.uniform(-jitter, jitter)) / n
            for k in range(n)]


def _region_op(name: str, make: Callable[[], geom.ArcPolygon],
               ref: Optional[float]) -> Op:
    """An arc-bounded convex region through convex.solve_convex, checked
    like the CLI checks a convex_polygon report."""

    def run() -> List[str]:
        sol = convex.solve_convex(convex.ConvexRegion(make()))
        failures = []
        if not sol.residual <= 1e-10 * math.pi * sol.r ** 2:
            failures.append(f"residual {sol.residual:.3e}")
        ratio = sol.cheeger_set.perimeter / sol.cheeger_set.area
        if not abs(ratio - sol.h) <= 1e-8 * sol.h:
            failures.append(f"cheeger ratio identity gap {abs(ratio - sol.h):.3e}")
        miss = h_misses(sol.h, ref)
        if miss:
            failures.append(miss)
        return failures

    return Op(name, run)


def convex_ops(seed: int, small: bool = False) -> List[Op]:
    rng = random.Random(seed)
    ops = []
    for n in ((4, 8, 16) if small else (4, 8, 16, 32, 64, 128, 256)):
        radius = rng.uniform(0.8, 1.25)
        verts = [[radius * math.cos(a), radius * math.sin(a)]
                 for a in _jittered_angles(rng, n, 0.25)]
        ops.append(report_op(f"ngon_{n}", {"type": "convex_polygon",
                                            "vertices": verts}))
    ops.append(report_op("square", {"type": "convex_polygon", "vertices":
                                     [[0, 0], [1, 0], [1, 1], [0, 1]]},
                          2.0 + math.sqrt(math.pi)))
    center = Vec2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    for n in (3, 5, 6, 8, 12):
        verts, ref = tangential_polygon(_jittered_angles(rng, n, 0.0),
                                        rng.uniform(0.5, 1.5), center)
        ops.append(report_op(f"regular_{n}", {"type": "convex_polygon",
                                               "vertices": verts}, ref))
    for n in (5, 7):
        verts, ref = tangential_polygon(_jittered_angles(rng, n, 0.2),
                                        rng.uniform(0.5, 1.5), center)
        ops.append(report_op(f"tangential_{n}", {"type": "convex_polygon",
                                                  "vertices": verts}, ref))
    # arc-bounded members (README.md here lists the arc-bounded shapes on
    # which solve_convex fails): disks of four and six arcs, h = 2/R, and a
    # Reuleaux triangle, which has no closed form and is checked like a report
    disk_r = rng.uniform(0.5, 2.0)
    ops.append(_region_op("disk", lambda: geom.disk(center, disk_r), 2.0 / disk_r))
    ops.append(_region_op("disk_6_arcs", lambda: geom.disk(center, disk_r, 6),
                          2.0 / disk_r))
    size = rng.uniform(0.5, 2.0)
    corners = [center + size * geom.unit_from_angle(a)
               for a in _jittered_angles(rng, 3, 0.0)]
    ops.append(_region_op("reuleaux", lambda: reuleaux_triangle(corners), None))
    return ops


# ---------------------------------------------------------------------------
# oracles


ORACLE_SUITES = ("steiner", "gallery", "continuity", "oracle")


def _suite_op(name: str) -> Op:
    def run() -> List[str]:
        return [f"check {c.name} failed: {c.detail}"
                for c in verify.run_suite(name) if not c.passed]

    return Op(f"suite_{name}", run)


def oracle_ops(seed: int, small: bool = False) -> List[Op]:
    rng = random.Random(seed)
    suites = ORACLE_SUITES[:3] if small else ORACLE_SUITES
    ops = [_suite_op(name) for name in suites]
    specs = [
        ("pinocchio_nose", {"type": "pinocchio", "nose": rng.uniform(0.5, 3.0)}),
        ("pinocchio_long_nose",
         {"type": "pinocchio", "nose": rng.uniform(3.0, 6.0)}),
        ("pinocchio", {"type": "pinocchio"}),
        ("pinocchio_alpha", {"type": "pinocchio",
                             "alpha": rng.uniform(0.1, 0.5)}),
        ("two_ears", {"type": "two_ears"}),
        ("bowtie_tight", {"type": "bowtie", "gap": 0}),
        ("bowtie_loose", {"type": "bowtie", "gap": 0.03}),
        ("bowtie_loose_seeded", {"type": "bowtie",
                                 "gap": rng.uniform(0.01, 0.05)}),
        ("two_balls", {"type": "two_balls"}),
    ]
    ops += [report_op(name, spec) for name, spec in specs]
    return ops


BUILDERS = {"ladder": ladder_ops, "convex": convex_ops, "oracles": oracle_ops}


def build(workload: str, seed: int, small: bool = False) -> List[Op]:
    return BUILDERS[workload](seed, small)
