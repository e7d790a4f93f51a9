#!/usr/bin/env python3
"""Benchmark of the cheeger library: one workload, one process, one thread.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 24 --trace 0

Closed loop with one client: each operation starts when the previous one has
finished. A pass runs every operation of the workload once. A run makes
round(seconds / nominal pass time) passes, at least one; the nominal pass
times were measured on a shared 2-core x86 virtual machine, so a run lasts
about `--seconds` there, and the count depends on nothing but `--seconds`,
so two versions of the program are measured on the same work. Every
lru_cache of the library is emptied before each operation, so no operation
reads a value an earlier one computed. The last stdout line is one JSON
object with keys `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics of a traced run
with `--trace 1`. The lines before it give the same numbers for people, with
sample counts.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import metrics  # noqa: E402  (plain data, imports nothing from the library)

SETUP_REPEATS = 5      # this process plus four fresh interpreters
TAIL_BEYOND = 10       # op_tail_s keeps at least this many samples above it
# untraced, an operation whose first run in a pass is shorter than this runs
# again in SHORT_REPEATS - 1 sweeps after the pass, and its sample is the
# median: a shared machine's speed swings by +-30% over seconds, and these
# short operations set op_p50_s and op_tail_s on ladder
SHORT_OP_S = 0.5
SHORT_REPEATS = 3
NOMINAL_PASS_S = {"ladder": 23.0, "convex": 10.0, "oracles": 4.5}
CROSS_CHECK_OP = "serpentine_k09_L160"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload: str, seed: int, small: bool = False):
    """Import cheeger from this checkout and build the workload's inputs.

    Returns (workloads module, operations, seconds taken)."""
    if not os.path.isfile(os.path.join(SRC, "cheeger", "__init__.py")):
        raise SystemExit(f"error: no cheeger sources under {SRC}; run from a "
                         "checkout of the repository")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    wl = importlib.import_module("workloads")
    ops = wl.build(workload, seed, small)
    elapsed = time.perf_counter() - t0
    lib = os.path.realpath(sys.modules["cheeger"].__file__)
    if not lib.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: imported cheeger from {lib}, not from {SRC}")
    return wl, ops, elapsed


def fresh_setup_times(workload: str, seed: int, count: int) -> list:
    """Set-up time of `count` fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def calibration_ms() -> float:
    """Median of five runs of a fixed pure-Python loop: how fast the machine
    was."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300_000):
            acc += i * 0.5
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def run_passes(ops, passes: int, clear_caches, tracer=None) -> dict:
    """Run `passes` passes over the operations; one time sample per operation
    per pass.  A traced run executes every operation once per pass, so its
    counts repeat exactly."""
    samples = {op.name: [] for op in ops}
    failures = []
    attempted = 0
    watched = None
    for pass_no in range(passes):
        times = {op.name: [] for op in ops}
        for sweep in range(1 if tracer else SHORT_REPEATS):
            for op in ops:
                if sweep and times[op.name][0] >= SHORT_OP_S:
                    continue
                clear_caches()
                gc.collect()
                snap = tracer.snapshot() if tracer and op.name == CROSS_CHECK_OP \
                    and pass_no == 0 else None
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        problems = op.run()
                    else:
                        problems = tracer.span(f"op.{op.name}", op.run)
                except Exception as exc:  # an operation that raises has failed
                    problems = [f"raised {type(exc).__name__}: {exc}"]
                times[op.name].append(time.perf_counter() - t0)
                if snap is not None:
                    watched = (snap, tracer.snapshot(), times[op.name][-1])
                attempted += 1
                if problems:
                    failures.append((op.name, problems))
        for name, ts in times.items():
            samples[name].append(statistics.median(ts))
    return {"samples": samples, "failures": failures, "attempted": attempted,
            "passes": passes, "watched": watched}


def op_summary(samples: dict) -> dict:
    """Statistics over every operation time of the run.

    wall_s is the sum over operations of each one's median over the passes:
    one pass, with stalls that hit a single pass removed.  op_tail_s is the
    highest percentile (nearest rank) with TAIL_BEYOND samples above it."""
    pooled = sorted(t for times in samples.values() for t in times)
    n = len(pooled)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} operation times leave no percentile with "
                         f"{TAIL_BEYOND} samples beyond it")
    k = n - TAIL_BEYOND - 1
    return {"n": n, "ops": len(samples),
            "wall_s": sum(statistics.median(v) for v in samples.values()),
            "op_p50_s": statistics.median(pooled),
            "op_tail_s": pooled[k], "tail_pct": 100.0 * (k + 1) / n}


def layer_metrics(tr, passes: int, samples: dict) -> dict:
    """Per-layer metrics of a traced run, per pass."""
    g, e = tr.get, tr.edge
    pd_tested = (e("geom.assert_simple", "geom.piece_distance").calls
                 + e("geom.reach_lower_bound", "geom.piece_distance").calls)
    inner, ipb = g("solver.inner_set"), g("convex.inner_parallel_body")

    def infeasible(st, *kinds):
        return sum(st.raised.get(k, 0) for k in kinds)

    def ratio(num, den):
        return num / den if den else 0.0

    inner_bad = infeasible(inner, "DegenerateInnerSet", "EmptyInnerSet")
    ipb_bad = infeasible(ipb, "EmptyInnerSet")
    totals = {
        "geom.reach_lower_bound.calls": g("geom.reach_lower_bound").calls,
        "geom.reach_lower_bound.self_s": g("geom.reach_lower_bound").self_time,
        "geom.piece_distance.calls": g("geom.piece_distance").calls,
        "geom.distance_to_boundary.calls": g("geom.distance_to_boundary").calls,
        "geom.distance_to_boundary.self_s":
            g("geom.distance_to_boundary").self_time,
        "geom.offset_outward_disk.self_s": g("geom.offset_outward_disk").self_time,
        "geom.assert_simple.self_s": g("geom.assert_simple").self_time,
        "geom.vec2_constructed": tr.vec2,
        "spine.build_strip.self_s": g("spine.build_strip").self_time,
        "spine.boundary_pieces": tr.boundary_pieces,
        "solver.solve_strip.s": g("solver.solve_strip").incl,
        "solver.inner_set.calls": inner.calls,
        "solver.inner_set.self_s": inner.self_time,
        "solver.inner_set.infeasible": inner_bad,
        "solver.check_free_boundary.self_s":
            g("solver.check_free_boundary").self_time,
        "solver.ratio_scan_oracle.s": g("solver.ratio_scan_oracle").incl,
        "convex.solve_convex.s": g("convex.solve_convex").incl,
        "convex.inner_parallel_body.calls": ipb.calls,
        "convex.inner_parallel_body.self_s": ipb.self_time,
        "convex.inner_parallel_body.infeasible": ipb_bad,
        "convex.containment_s":
            e("convex.solve_convex", "geom.distance_to_boundary").incl,
        "verify.rasterize.s": g("verify.rasterize").incl,
        "verify.grid_perimeter.s": g("verify.grid_perimeter").incl,
        "verify.minkowski_content.s": g("verify.minkowski_content").incl,
        "gallery.self_s": tr.layer_self("gallery"),
        "cli.solve_domain.self_s": g("cli.solve_domain").self_time,
        "cli.build_report.s": g("cli.build_report").incl,
    }
    for suite in ("steiner", "gallery", "continuity", "oracle"):
        totals[f"verify.suite.{suite}.s"] = g(f"op.suite_{suite}").incl
    out = {name: value / passes for name, value in totals.items()}
    out["geom.pair_test_ratio"] = ratio(pd_tested, tr.candidate_pairs)
    out["solver.inner_set.useful_ratio"] = ratio(inner.calls - inner_bad,
                                                 inner.calls)
    out["convex.inner_parallel_body.useful_ratio"] = ratio(ipb.calls - ipb_bad,
                                                           ipb.calls)
    out["solver.root_evals_per_solve"] = ratio(
        tr.under["solver.inner_set"], g("solver.solve_strip").calls)
    out["convex.root_evals_per_solve"] = ratio(
        tr.under["convex.inner_parallel_body"], g("convex.solve_convex").calls)
    out["trace.wall_s"] = op_summary(samples)["wall_s"]
    return out


def cross_check(watched) -> str:
    """Shares of solve_strip time in the traced k09/L160 operation, the base
    of the ROADMAP baseline (7.6 s reach, ~1.9 s bisection over 43 inner
    sets, 24 ms offset, of a 9.5-10.5 s solve_strip)."""
    before, after, op_s = watched

    def delta(name, field):
        return after.get(name, (0, 0.0, 0.0))[field] - \
            before.get(name, (0, 0.0, 0.0))[field]

    solve = delta("solver.solve_strip", 1)
    reach = delta("geom.reach_lower_bound", 1)
    root = delta("solver.inner_set", 1)
    offset = delta("geom.offset_outward_disk", 2)
    return (f"cross-check {CROSS_CHECK_OP} (traced): operation {op_s:.2f} s, "
            f"solve_strip {solve:.2f} s; of solve_strip: reach certificate "
            f"{reach / solve:.1%} ({reach:.2f} s, baseline ~80%), root solve "
            f"{root / solve:.1%} ({root:.2f} s over "
            f"{delta('solver.inner_set', 0)} inner_set calls, baseline ~17%, 43),"
            f" offset {offset / solve:.2%} ({offset * 1e3:.0f} ms, baseline <1%)")


def main(argv=None) -> int:
    args = parse_args(argv)
    tol_env = os.environ.pop("CHEEGER_TOL", None)
    wl, ops, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(own_setup))
        return 0
    if tol_env is not None:
        print(f"note: CHEEGER_TOL={tol_env!r} was set; unset for this run")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    calib_before = calibration_ms()
    res = run_passes(ops, pass_count(args.workload, args.seconds),
                     wl.clear_caches, tracer)
    calib_after = calibration_ms()
    # the fresh set-ups run last: the parent idles while it waits for them,
    # and an idle core runs the next operations slower for a while
    setup_times = [own_setup] + fresh_setup_times(args.workload, args.seed,
                                                  SETUP_REPEATS - 1)
    summary = op_summary(res["samples"])
    failed = len(res["failures"])
    for name, problems in res["failures"]:
        print(f"FAIL {name}: {'; '.join(problems)}", file=sys.stderr)
    e2e = {
        "wall_s": summary["wall_s"],
        "op_p50_s": summary["op_p50_s"],
        "op_tail_s": summary["op_tail_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    n, passes = summary["n"], res["passes"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{passes} pass(es) of {summary['ops']} operations, "
          f"{res['attempted']} attempted, {failed} failed")
    print(f"  wall_s      {e2e['wall_s']:.4f} s  (sum of {summary['ops']} "
          f"per-operation medians over {passes} pass(es))")
    print(f"  op_p50_s    {e2e['op_p50_s']:.4f} s  (median of {n} samples)")
    print(f"  op_tail_s   {e2e['op_tail_s']:.4f} s  (p{summary['tail_pct']:.0f} "
          f"of {n} samples, {TAIL_BEYOND} beyond)")
    print(f"  setup_s     {e2e['setup_s']:.4f} s  (median of {len(setup_times)} "
          "set-ups)")
    print(f"  peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac {failed / res['attempted']:.4f}  "
          f"({failed}/{res['attempted']})")
    print(f"  calibration loop {calib_before:.1f} ms before, {calib_after:.1f} ms "
          "after (machine speed; lower is faster)")
    slow = sorted(res["samples"].items(), key=lambda kv: -statistics.median(kv[1]))
    print("  slowest: " + ", ".join(f"{name} {statistics.median(t):.3f} s"
                                    for name, t in slow[:4]))
    units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    if tracer is not None:
        tracer.uninstall()
        values = layer_metrics(tracer, res["passes"], res["samples"])
        units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
        print(f"  trace overhead: traced wall_s {values['trace.wall_s']:.4f} s; "
              "subtract the untraced wall_s of the same workload")
        if res["watched"] is not None:
            print("  " + cross_check(res["watched"]))
    else:
        values = e2e
    result = {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
