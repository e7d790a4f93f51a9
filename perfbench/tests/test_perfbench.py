"""Self-test of the benchmark: reduced-size smoke runs of every workload,
metric names, the correctness gate, and the fail-fast path without sources.

    python3 -m pytest perfbench/tests -q
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNTS = [name for name, unit, _, _ in metrics.PER_LAYER if unit == "count"]


def test_metric_names_are_well_formed_and_unique():
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    names += list(metrics.WORKLOADS)
    assert all(metrics.NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_benchmark_json_mirrors_the_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b, _ in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert spec["paths"] == ["perfbench"]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_gate_flags_a_reference_perturbed_by_1e_6():
    square = {"type": "convex_polygon",
              "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    exact = 2.0 + math.sqrt(math.pi)
    assert workloads.report_op("square", square, exact).run() == []
    failures = workloads.report_op("square", square, exact * (1 + 1e-6)).run()
    assert len(failures) == 1 and "misses reference" in failures[0]
    assert workloads.h_misses(1.0, 1.0 + 2e-9) is not None
    assert workloads.h_misses(1.0, 1.0 + 5e-10) is None


def test_seed_0_ladder_is_the_verify_ladder(monkeypatch):
    monkeypatch.setattr(workloads.verify, "build_strip", lambda sp, hw: (sp, hw))
    expected = {(name, L): make(L)
                for name, make in workloads.verify.strip_families().items()
                for L in workloads.verify.LADDER_LENGTHS}
    got = {(name, L): (sp, 1.0) for name, L, sp in workloads.ladder_spines(0)}
    assert got == expected
    moved = {(name, L): sp for name, L, sp in workloads.ladder_spines(5)}
    assert moved[("serpentine_k09", 160.0)] != expected[("serpentine_k09", 160.0)][0]
    assert len(moved[("serpentine_k09", 160.0)].pieces) == \
        len(expected[("serpentine_k09", 160.0)][0].pieces)


@pytest.mark.parametrize("workload", sorted(metrics.WORKLOADS))
def test_smoke_run_of_each_workload(workload):
    wl, ops, _ = run.setup(workload, 1, small=True)
    res = run.run_passes(ops, 1, wl.clear_caches)
    assert res["failures"] == []
    assert all(len(times) == 1 for times in res["samples"].values())
    assert res["attempted"] >= len(ops)
    summary = run.op_summary(res["samples"])
    assert 0.0 < summary["op_p50_s"] <= summary["wall_s"]


@pytest.mark.parametrize("workload", sorted(metrics.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    wl, ops, _ = run.setup(workload, 2, small=True)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            res = run.run_passes(ops, 1, wl.clear_caches, tracer)
        finally:
            tracer.uninstall()
        assert res["failures"] == []
        values = run.layer_metrics(tracer, 1, res["samples"])
        assert set(values) == {m[0] for m in metrics.PER_LAYER}
        counts.append({name: values[name] for name in COUNTS})
    assert counts[0] == counts[1]
    if workload == "convex":
        assert counts[0]["geom.reach_lower_bound.calls"] == 0
        assert counts[0]["spine.boundary_pieces"] == 0
    else:
        assert counts[0]["geom.vec2_constructed"] > 0
    # uninstall restores every binding
    assert workloads.cli.solve_domain.__module__ == "cheeger.cli"
    assert not hasattr(workloads.cli.solve_domain, "__wrapped__")


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "convex",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
