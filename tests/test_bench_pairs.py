import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25}]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(seed, side, wall, failed=0, trace=0):
    return {"workload": "ladder", "seed": seed, "trace": trace, "side": side,
            "ran": "first",
            "result": {"failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"}}}}


PARENT = [9.0, 9.5, 10.0, 8.5, 9.2, 9.8, 9.1, 9.6, 10.2, 8.9]
CHANGE = [4.5, 4.6, 4.4, 9.9, 4.5, 4.7, 4.3, 4.8, 4.6, 4.4]


def ten_pairs(change_failed=0):
    runs = [run(100 + i, "parent", p) for i, p in enumerate(PARENT)]
    runs += [run(100 + i, "change", c, failed=change_failed * (i == 0))
             for i, c in enumerate(CHANGE)]
    return runs


def test_summary_applies_the_gain_rule(bench_pairs):
    runs = ten_pairs()
    runs.append(run(0, "change", 1.0, trace=1))   # traced: not a pair
    row = bench_pairs.summarize(runs, METRICS)["ladder"]
    wall = row["wall_s"]
    assert wall["change_wins"] == "9/10"
    assert wall["parent"] == {"q1": 9.025, "median": 9.35, "q3": 9.75}
    assert wall["change"]["median"] == 4.55
    assert wall["gain_rule_met"]
    assert wall["bound_verdict"] == "within"
    assert row["failed"] == {"parent": 0, "change": 0}
    assert row["errored_pairs"] == []


def test_no_gain_when_the_change_fails_more(bench_pairs):
    row = bench_pairs.summarize(ten_pairs(change_failed=1), METRICS)["ladder"]
    assert row["failed"] == {"parent": 0, "change": 1}
    assert row["wall_s"]["change_wins"] == "9/10"
    assert not row["wall_s"]["gain_rule_met"]


def test_an_errored_pair_voids_the_verdicts(bench_pairs):
    runs = ten_pairs()
    runs += [run(110, "parent", 9.3),
             {"workload": "ladder", "seed": 110, "trace": 0, "side": "change",
              "ran": "second", "result": {"error": "exit 1: boom"}}]
    row = bench_pairs.summarize(runs, METRICS)["ladder"]
    assert row["errored_pairs"] == [110]
    assert row["wall_s"]["change_wins"] == "9/10"   # the ten clean pairs
    assert not row["wall_s"]["gain_rule_met"]
    assert row["wall_s"]["bound_verdict"] == "unresolved"


def test_no_gain_from_fewer_than_ten_pairs(bench_pairs):
    runs = [r for r in ten_pairs() if r["seed"] >= 104]
    wall = bench_pairs.summarize(runs, METRICS)["ladder"]["wall_s"]
    assert wall["change_wins"] == "6/6"
    assert not wall["gain_rule_met"]
    assert wall["bound_verdict"] == "within"


def test_summary_flags_a_regression(bench_pairs):
    runs = [run(i, "parent", 1.0 + 0.01 * i) for i in range(4)]
    runs += [run(i, "change", 1.5 + 0.01 * i) for i in range(4)]
    wall = bench_pairs.summarize(runs, METRICS)["ladder"]["wall_s"]
    assert wall["change_wins"] == "0/4"
    assert not wall["gain_rule_met"]
    assert wall["median_worse_by"] == pytest.approx(0.5 / 1.015, abs=1e-4)
    assert wall["bound_verdict"] == "exceeded"


def test_a_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    parent = [1.0, 2.0, 1.0, 2.0]                 # q3 - q1 = 1, median 1.5
    change = [0.9, 2.1, 0.9, 2.1]
    runs = [run(i, "parent", p) for i, p in enumerate(parent)]
    runs += [run(i, "change", c) for i, c in enumerate(change)]
    wall = bench_pairs.summarize(runs, METRICS)["ladder"]["wall_s"]
    assert wall["change_wins"] == "2/4"
    assert wall["bound_verdict"] == "unresolved"
    for factor, verdict in ((0.5, "unresolved"), (0.4, "within")):
        runs = [run(i, "parent", p) for i, p in enumerate(parent)]
        runs += [run(i, "change", factor * p) for i, p in enumerate(parent)]
        wall = bench_pairs.summarize(runs, METRICS)["ladder"]["wall_s"]
        assert wall["change_wins"] == "4/4"
        # within only once every change run beats every parent run
        assert wall["bound_verdict"] == verdict
