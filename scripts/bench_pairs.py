#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written to BENCH_<label>.json.

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --label newton_root \\
        --workload ladder:101 --workload convex:201 --workload oracles:301

For each `--workload NAME:FIRST_SEED`, pair i (i = 0..9) runs `perfbench/run.py
--workload NAME --seed FIRST_SEED+i --seconds S --trace 0` in the parent
checkout and in the change checkout, each with its own benchmark code, where
S is `run_seconds` of the change checkout's BENCHMARK.json; even pairs run
the parent first, odd pairs the change.  One `--trace 1` run per side and
workload at seed 0 follows, for the per-layer counts.  Every run's last-line
JSON goes into the file, which is rewritten after each run, so an
interrupted sweep keeps what it measured.  Each side is recorded as
`git describe --always --dirty` and the tree hash of its `src/`, so the file
shows whether the measured code is a committed one.

The summary gives, per workload and end-to-end metric, each side's q1,
median and q3 over the pairs, how many pairs the change won (ties count for
neither), and two verdicts:
  - `gain_rule_met`: all ten pairs ran without error, the change failed no
    more operations than the parent, it won at least 9/10 of the pairs, and
    the medians differ by more than the parent's q3 - q1;
  - `bound_verdict`: "within" or "exceeded" as the change's median is no
    more or more than `bound` (relative) worse than the parent's, and
    "unresolved" when a pair errored, or when the parent's relative q3 - q1
    is wider than the bound and not every run of the change reads better
    than every run of the parent.
The direction ("better") and the bound of each metric come from the change
checkout's BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

PAIRS = 10        # the gain rule asks for at least ten pairs
TRACED_SEED = 0


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--label", required=True, help="names BENCH_<label>.json")
    ap.add_argument("--workload", action="append", required=True,
                    metavar="NAME:FIRST_SEED")
    ap.add_argument("--out", default=".", help="directory of the JSON file")
    return ap.parse_args(argv)


def git(checkout: str, *args: str) -> Optional[str]:
    proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def revision(checkout: str) -> dict:
    """The commit of a checkout, marked -dirty if tracked files differ from
    it, and the tree hash of its committed src/."""
    return {"commit": git(checkout, "describe", "--always", "--dirty"),
            "src_tree": git(checkout, "rev-parse", "HEAD:src")}


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One perfbench run; its last stdout line, or the error it ended in."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"no JSON result line: {lines[-1][:200]}"}


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4)}


def summarize(runs: List[dict], end_to_end: List[dict]) -> dict:
    summary: Dict[str, dict] = {}
    untraced = [r for r in runs if r["trace"] == 0]
    for workload in dict.fromkeys(r["workload"] for r in untraced):
        sides: Dict[int, Dict[str, dict]] = {}
        for r in untraced:
            if r["workload"] == workload:
                sides.setdefault(r["seed"], {})[r["side"]] = r["result"]
        errored = [seed for seed, s in sides.items()
                   if any("error" in result for result in s.values())]
        pairs = [s for seed, s in sides.items()
                 if len(s) == 2 and seed not in errored]
        failed = {side: sum(p[side]["failed"] for p in pairs)
                  for side in ("parent", "change")}
        clean = (not errored and len(pairs) >= PAIRS
                 and failed["change"] <= failed["parent"])
        rows: Dict[str, object] = {}
        for metric in end_to_end if pairs else ():
            name, lower = metric["name"], metric["better"] == "lower"
            par = [p["parent"]["metrics"][name]["value"] for p in pairs]
            chg = [p["change"]["metrics"][name]["value"] for p in pairs]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
            qp, qc = quartiles(par), quartiles(chg)
            spread = qp["q3"] - qp["q1"]
            gain = (qp["median"] - qc["median"]) * (1 if lower else -1)
            worse = -gain / abs(qp["median"]) if qp["median"] else 0.0
            wide = qp["median"] and spread / abs(qp["median"]) > metric["bound"]
            apart = max(chg) < min(par) if lower else min(chg) > max(par)
            if errored or (wide and not apart):
                verdict = "unresolved"
            else:
                verdict = "within" if worse <= metric["bound"] else "exceeded"
            rows[name] = {
                "parent": qp, "change": qc,
                "change_wins": f"{wins}/{len(pairs)}",
                "gain_rule_met": clean and wins >= 0.9 * len(pairs)
                and gain > spread,
                "median_worse_by": round(worse, 4),
                "bound_verdict": verdict,
            }
        rows["failed"] = failed
        rows["errored_pairs"] = errored
        summary[workload] = rows
    return summary


def traced_table(runs: List[dict]) -> dict:
    table: Dict[str, dict] = {}
    for r in runs:
        if r["trace"] == 1 and "metrics" in r["result"]:
            rows = table.setdefault(r["workload"], {})
            for name, m in r["result"]["metrics"].items():
                rows.setdefault(name, {})[r["side"]] = m["value"]
    return table


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    plan = []
    for spec in args.workload:
        name, _, first = spec.partition(":")
        first_seed = int(first or 0)
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            plan += [(name, first_seed + i, 0, side, rank)
                     for rank, side in zip(("first", "second"), order)]
        plan += [(name, TRACED_SEED, 1, "parent", "first"),
                 (name, TRACED_SEED, 1, "change", "second")]
    doc = {
        "label": args.label,
        "what": git(checkouts["change"], "log", "-1", "--format=%s"),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace T",
        "parent": revision(checkouts["parent"]),
        "change": revision(checkouts["change"]),
        "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                   f"{platform.system()}, Python {platform.python_version()}, "
                   "PYTHONDONTWRITEBYTECODE=1",
        "pairing": f"{PAIRS} untraced pairs per workload, alternating which "
                   "side runs first; seeds " + ", ".join(args.workload)
                   + f"; traced runs use seed {TRACED_SEED}",
        "summary": {}, "traced": {}, "runs": [],
    }
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    for k, (workload, seed, trace, side, rank) in enumerate(plan, 1):
        result = run_once(checkouts[side], workload, seed, seconds, trace)
        doc["runs"].append({"workload": workload, "seed": seed, "trace": trace,
                            "side": side, "ran": rank, "result": result})
        wall = result.get("metrics", {}).get("wall_s", {}).get("value")
        print(f"[{k}/{len(plan)}] {workload} seed {seed} trace {trace} "
              f"{side}: " + (result["error"] if "error" in result else
                             f"failed {result['failed']}"
                             + ("" if wall is None else f", wall_s {wall:.3f}")),
              file=sys.stderr, flush=True)
        doc["summary"] = summarize(doc["runs"], end_to_end)
        doc["traced"] = traced_table(doc["runs"])
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print(json.dumps(doc["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
