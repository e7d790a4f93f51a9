"""Metric table of the benchmark: names, units, direction, regression bounds,
and for each per-layer metric the end-to-end metric and workload it should
move.  `BENCHMARK.json` mirrors the name/unit/better/bound columns; the
self-test holds the two equal.
"""
from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

WORKLOADS = {
    "ladder": "25-strip ladder (5 families x 5 lengths) through cli.solve_domain;"
              " the reach certificate dominates the long serpentine strips",
    "convex": "seeded convex n-gons (n=4..256), tangential polygons and arc-bounded"
              " regions; inner parallel bodies and containment, no reach or spine",
    "oracles": "verify suites steiner, gallery, continuity, oracle plus one"
               " cli.solve_domain per gallery type; raster and Minkowski oracles",
}

# name, unit, better, bound (share of the parent's median).  The time bounds
# are the largest allowed: on a shared 2-core x86 virtual machine the speed
# of the whole machine drifts by up to 2x over minutes, longer than any
# affordable run.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

# name, unit, better, what it should move
PER_LAYER = [
    ("geom.reach_lower_bound.calls", "count", "lower",
     "wall_s, op_tail_s on ladder; stays 0 on convex"),
    ("geom.reach_lower_bound.self_s", "s", "lower",
     "wall_s, op_tail_s on ladder"),
    ("geom.piece_distance.calls", "count", "lower",
     "wall_s, op_tail_s on ladder"),
    ("geom.pair_test_ratio", "ratio", "lower",
     "wall_s, op_tail_s on ladder"),
    ("geom.distance_to_boundary.calls", "count", "lower",
     "wall_s, op_tail_s on ladder"),
    ("geom.distance_to_boundary.self_s", "s", "lower",
     "wall_s, op_tail_s on ladder"),
    ("geom.offset_outward_disk.self_s", "s", "lower",
     "wall_s on ladder; small everywhere"),
    ("geom.assert_simple.self_s", "s", "lower",
     "wall_s on ladder; small everywhere"),
    ("geom.vec2_constructed", "count", "lower",
     "wall_s on all workloads, peak_rss_mb"),
    ("spine.build_strip.self_s", "s", "lower", "op_p50_s on ladder"),
    ("spine.boundary_pieces", "count", "lower",
     "size count that pins the ladder; should not move"),
    ("solver.solve_strip.s", "s", "lower", "op_p50_s on ladder"),
    ("solver.inner_set.calls", "count", "lower",
     "op_p50_s on ladder; the ratio-scan share stays fixed on oracles"),
    ("solver.inner_set.self_s", "s", "lower", "op_p50_s on ladder"),
    ("solver.inner_set.infeasible", "count", "lower", "op_p50_s on ladder"),
    ("solver.inner_set.useful_ratio", "ratio", "higher", "op_p50_s on ladder"),
    ("solver.root_evals_per_solve", "count", "lower", "op_p50_s on ladder"),
    ("solver.check_free_boundary.self_s", "s", "lower", "op_tail_s on ladder"),
    ("solver.ratio_scan_oracle.s", "s", "lower", "wall_s on oracles only"),
    ("convex.solve_convex.s", "s", "lower", "wall_s on convex"),
    ("convex.inner_parallel_body.calls", "count", "lower", "wall_s on convex"),
    ("convex.inner_parallel_body.self_s", "s", "lower", "wall_s on convex"),
    ("convex.inner_parallel_body.infeasible", "count", "lower",
     "wall_s on convex"),
    ("convex.inner_parallel_body.useful_ratio", "ratio", "higher",
     "wall_s on convex"),
    ("convex.root_evals_per_solve", "count", "lower", "wall_s on convex"),
    ("convex.containment_s", "s", "lower", "op_tail_s and wall_s on convex"),
    ("verify.suite.steiner.s", "s", "lower", "wall_s on oracles only"),
    ("verify.suite.gallery.s", "s", "lower", "wall_s on oracles only"),
    ("verify.suite.continuity.s", "s", "lower", "wall_s on oracles only"),
    ("verify.suite.oracle.s", "s", "lower", "wall_s on oracles only"),
    ("verify.rasterize.s", "s", "lower", "wall_s on oracles only"),
    ("verify.grid_perimeter.s", "s", "lower", "wall_s on oracles only"),
    ("verify.minkowski_content.s", "s", "lower", "wall_s on oracles only"),
    ("gallery.self_s", "s", "lower", "wall_s on oracles only"),
    ("cli.solve_domain.self_s", "s", "lower",
     "op_p50_s on ladder and convex; stays under 1%"),
    ("cli.build_report.s", "s", "lower",
     "op_p50_s on ladder and convex; stays under 1%"),
    ("trace.wall_s", "s", "lower",
     "traced pass time; minus untraced wall_s it is the tracing overhead"),
]

