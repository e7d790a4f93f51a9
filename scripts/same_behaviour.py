#!/usr/bin/env python3
"""Print one JSON digest of what the library computes, to compare two
checkouts.

    python scripts/same_behaviour.py > after.json      # in each checkout
    diff before.json after.json

The package and the benchmark workloads are imported from the checkout
that holds this script (its `src/` and `perfbench/`); `perfbench/` is only
read.  The digest holds the sha256 of:
  - per workload (ladder, convex, oracles) and seed (0, 1), one pass of the
    benchmark's operations: every `cli.build_report` JSON they make, their
    failure lists (an operation that raises records its error type and
    message), and every outward offset they make (`geom.offset_outward_disk`:
    the input's area and perimeter, the radius, the reach bound of
    the input, and the result's area and perimeter, or the error) and every
    Cheeger set an inner-formula solve reports (`cli._inner_formula_outcome`:
    its piece count, piece kinds, area and perimeter), all floats in
    `float.hex`;
  - the check list (name, verdict, detail) of each `verify` suite;
  - the exit code, stdout and stderr of `cheeger solve --allow-short-strip`
    on short and malformed strip specs, among them the two strips whose
    trimmed level curve empties near the root and a seeded sample of one-
    and two-piece strips near the curvature limit;
  - the exit code, stdout and stderr of `cheeger solve` on one spec per
    schema error of every domain type (an unknown, list or missing 'type',
    a file that holds no JSON object, a file that cannot be read) and on
    the six domain examples of README.md.
Each workload also reports how many reports, failures, offsets and Cheeger
sets it made.
Beside the hashes, the digest lists in plain text, one line each, what a
diff should name when a hash moves: the operation, h, r (`float.hex`),
iterations and check verdicts of every ladder and oracles report, and the
exit code and stderr of every `cheeger solve` run.
Compare two checkouts by running one copy of this script in both: its
`ROOT` is the checkout it is copied into.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from cheeger import cli, geom, verify  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1)
SHORT_STRIP_SAMPLE = 40


def sha(items) -> str:
    text = json.dumps(items, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def hexed(x: float) -> str:
    return float(x).hex()


def outcome(fn, *args):
    """fn(*args), or [error type, message]."""
    try:
        return fn(*args)
    except Exception as exc:  # every error is part of the behaviour
        return [type(exc).__name__, str(exc)]


def report_line(op: str, report: dict) -> str:
    """op, h, r, iterations and check verdicts of a report, on one line."""
    h, r = (hexed(v) if isinstance(v, float) else v
            for v in (report["h"], report["r"]))
    checks = " ".join(f"{c['name']}={'pass' if c['pass'] else 'FAIL'}"
                      for c in report["checks"])
    return (f"{op}: h={h} r={r} iterations={report['iterations']} "
            f"{checks}")


def run_workload(name: str, seed: int) -> dict:
    reports, failures, offsets, sets, lines = [], [], [], [], []
    build_report = cli.build_report
    offset = geom.offset_outward_disk
    inner_formula_outcome = cli._inner_formula_outcome
    current = [""]  # the operation running

    def recording_report(out):
        report = build_report(out)
        reports.append(json.dumps(report, sort_keys=True))
        lines.append(report_line(current[0], report))
        return report

    def recording_offset(p, rho, reach_bound=None):
        entry = [hexed(p.area), hexed(p.perimeter), hexed(rho),
                 outcome(lambda: hexed(geom.reach_lower_bound(p)))]
        try:
            grown = offset(p, rho, reach_bound)
        except Exception as exc:
            offsets.append(entry + [type(exc).__name__, str(exc)])
            raise
        offsets.append(entry + [hexed(grown.area), hexed(grown.perimeter)])
        return grown

    def recording_outcome(sol, region):
        c = sol.cheeger_set
        sets.append([len(c.pieces), [p.kind for p in c.pieces],
                     hexed(c.area), hexed(c.perimeter)])
        return inner_formula_outcome(sol, region)

    cli.build_report = recording_report
    geom.offset_outward_disk = recording_offset
    cli._inner_formula_outcome = recording_outcome
    try:
        for op in workloads.build(name, seed):
            workloads.clear_caches()
            current[0] = op.name
            failures.append([op.name, outcome(op.run)])
    finally:
        cli.build_report = build_report
        geom.offset_outward_disk = offset
        cli._inner_formula_outcome = inner_formula_outcome
    digest = {"reports": sha(reports), "failures": sha(failures),
              "offsets": sha(offsets), "cheeger_sets": sha(sets),
              "count": [len(reports), len(failures), len(offsets), len(sets)]}
    if name in ("ladder", "oracles"):
        digest["report_lines"] = lines
    return digest


def suite_checks(name: str) -> str:
    return sha([[c.name, c.passed, c.detail] for c in verify.run_suite(name)])


def short_strip_specs() -> list:
    """Strips the root solve cannot certify: the two whose trimmed lower
    level curve empties near the root, a seeded sample of one or two pieces
    of total length 0.1-3 with halfwidth (1 - gap)/max|curvature|, and
    malformed specs."""
    specs = [
        {"type": "strip", "halfwidth": 0.999999999999,
         "spine": [{"kind": "arc", "length": 0.5, "curvature": -0.5}]},
        {"type": "strip", "halfwidth": 1.0,
         "spine": [{"kind": "line", "length": 0.5},
                   {"kind": "arc", "length": 0.5,
                    "curvature": 0.999999999999}]},
        {"type": "strip", "halfwidth": 1.0,
         "spine": [{"kind": "line", "length": 10.0}]},
        {"type": "strip", "halfwidth": 1.0, "spine": []},
        {"type": "strip", "halfwidth": -1.0,
         "spine": [{"kind": "line", "length": 10.0}]},
        {"type": "strip", "halfwidth": 1.5,
         "spine": [{"kind": "arc", "length": 20.0, "curvature": 0.9}]},
    ]
    rng = random.Random(0)
    for _ in range(SHORT_STRIP_SAMPLE):
        count = rng.choice((1, 2))
        total = rng.uniform(0.1, 3.0)
        pieces = []
        for _ in range(count):
            kind = rng.choice(("line", "arc", "arc"))
            if kind == "line":
                pieces.append({"kind": "line", "length": total / count})
            else:
                pieces.append({"kind": "arc", "length": total / count,
                               "curvature": rng.choice((1, -1))
                               * rng.uniform(0.1, 1.0)})
        kappa = max(abs(p.get("curvature", 0.0)) for p in pieces) or 1.0
        gap = rng.choice((1e-12, 1e-9, 1e-6, rng.uniform(0.0, 0.5)))
        specs.append({"type": "strip", "halfwidth": (1.0 - gap) / kappa,
                      "spine": pieces})
    return specs


def schema_error_specs() -> list:
    """One spec per `SpecError` that `cli.solve_domain` raises, and specs
    whose 'type' is unknown, missing or unhashable, or that are no JSON
    object."""
    def strip(*pieces, halfwidth=1.0):
        return {"type": "strip", "halfwidth": halfwidth, "spine": list(pieces)}

    line, arc = {"kind": "line", "length": 15}, {"kind": "arc", "length": 5}
    return [
        {"type": "strip", "spine": [line]},
        strip(line, halfwidth=0),
        strip(),
        strip(5),
        strip({"kind": "spiral", "length": 5}),
        strip({"kind": "line", "length": -5}),
        strip(arc),
        strip(dict(line, curvature="a")),
        strip(dict(line, curvature=0.5)),
        strip(dict(arc, curvature=0)),
        strip(dict(arc, curvature=0.6), halfwidth=2.0),
        {"type": "convex_polygon", "vertices": [[0, 0], [1, 0]]},
        {"type": "convex_polygon", "vertices": [[0, 0], [1, 0], [0, 10 ** 400]]},
        {"type": "convex_polygon", "vertices": [[0, 0], [1, 0], "x"]},
        {"type": "convex_polygon", "vertices": [[0, 0], [1, 0], [2, 0]]},
        {"type": "convex_polygon", "vertices": [[0, 0], [2, 0], [1, 0.2], [1, 2]]},
        {"type": "pinocchio", "alpha": "x"},
        {"type": "pinocchio", "alpha": True},
        {"type": "pinocchio", "nose": [1]},
        {"type": "pinocchio", "theta": 2.0},
        {"type": "pinocchio", "alpha": 1.5},
        {"type": "pinocchio", "alpha": -0.1},
        {"type": "pinocchio", "nose": -1},
        {"type": "pinocchio", "nose": 1, "alpha": 0.1},
        {"type": "two_ears", "theta": 10 ** 400},
        {"type": "two_ears", "theta": "x"},
        {"type": "bowtie", "gap": "wide"},
        {"type": "bowtie", "gap": -0.1},
        strip(dict(arc, length=20, curvatur=0.5)),
        dict(strip(line), halfwith=2.0),
        {"type": "convex_polygon", "vertices": [[0, 0], [1, 0], [0, 1]],
         "vertex": [0, 0]},
        {"type": "pinocchio", "nsoe": 3.0},
        {"type": "two_ears", "theta0": 0.7},
        {"type": "bowtie", "gpa": 0.03},
        {"type": "two_balls", "radius": 2},
        {"type": "wat"}, {"type": []}, {"type": {}}, {"type": None},
        {"type": 1}, {},
        [], None, 1,
    ]


def readme_specs() -> list:
    """The domain examples of README.md, one JSON object per line group."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("Domain files are one of:", 1)[1]
    block = block.split("```json", 1)[1].split("```", 1)[0]
    return [json.loads(chunk)
            for chunk in re.split(r"\n(?=\{)", block.strip())]


def solve_outcomes(specs: list, flags: list, missing: bool = False) -> list:
    """[exit code, stdout, stderr] of `cheeger solve` with `flags` on each
    spec, and on a file that does not exist if `missing`."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, spec in enumerate(specs):
            paths.append(os.path.join(tmp, f"spec_{k}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(spec, fh)
        if missing:
            paths.append(os.path.join(tmp, "missing.json"))
        for path in paths:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(["solve", *flags, path])
            results.append([code, out.getvalue(),
                            err.getvalue().replace(tmp, "<tmp>")])
    return results


def exit_lines(results: list) -> list:
    """One line per `solve_outcomes` result: its exit code and stderr."""
    return [f"spec {k}: exit {code} {err.strip()}"
            for k, (code, _, err) in enumerate(results)]


def main() -> int:
    runs = {f"{name}/{seed}": run_workload(name, seed)
            for name in workloads.BUILDERS for seed in SEEDS}
    suites = {name: suite_checks(name) for name in verify.SUITES}
    short = solve_outcomes(short_strip_specs(), ["--allow-short-strip"])
    errors = solve_outcomes(schema_error_specs() + readme_specs(), [],
                            missing=True)
    digest = {"workloads": runs, "suites": suites,
              "cli_solve": sha(short),
              "cli_solve_lines": exit_lines(short),
              "cli_errors": sha(errors),
              "cli_errors_lines": exit_lines(errors)}
    print(json.dumps(digest, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
