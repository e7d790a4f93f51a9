#!/usr/bin/env python3
"""List the `raise` statements of src/cheeger that a Tier-1 run never executes.

    python scripts/unreached_raises.py              # the whole Tier-1 suite
    python scripts/unreached_raises.py tests/test_solver.py -k inner

Runs pytest on `tests/` (or on the given pytest arguments) in this process
under a line tracer (`sys.settrace`, standard library only) that watches
the frames of src/cheeger alone, then prints each unreached `raise` as
`path:line  function  statement`, a count per module, and the total.  A
statement spanning several lines counts as reached when any of its lines
runs.  Code that the tests run in a subprocess is not traced, and sites
that only some hypothesis draws reach may come and go between runs.
Exits with pytest's exit code.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cheeger")


def raise_sites(path: str) -> List[Tuple[int, int, str]]:
    """(first line, last line, enclosing function) of each `raise` in a
    source file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
            else:
                if isinstance(child, ast.Raise):
                    sites.append((child.lineno, child.end_lineno,
                                  where or "<module>"))
                visit(child, where)

    visit(tree, "")
    return sorted(sites)


def main(argv: List[str]) -> int:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    # as the Tier-1 command sets it, for the tests that start a subprocess
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    sites: Dict[str, List[Tuple[int, int, str]]] = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            sites[path] = raise_sites(path)
    watched: Dict[str, Set[int]] = {
        path: {line for first, last, _ in found
               for line in range(first, last + 1)}
        for path, found in sites.items()}
    hit: Dict[str, Set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            lines = watched[frame.f_code.co_filename]
            if frame.f_lineno in lines:
                hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in watched:
            return local
        return None

    import pytest

    args = argv or ["-q", "-p", "no:cacheprovider",
                    "--continue-on-collection-errors",
                    os.path.join(ROOT, "tests")]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unreached = 0
    per_module = []
    for path, found in sites.items():
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        missed = [(first, where) for first, last, where in found
                  if not hit[path] & set(range(first, last + 1))]
        rel = os.path.relpath(path, ROOT)
        for first, where in missed:
            print(f"{rel}:{first}  {where}  {source[first - 1].strip()}")
        total += len(found)
        unreached += len(missed)
        per_module.append(f"{os.path.basename(path)} {len(missed)} of "
                          f"{len(found)}")
    print("unreached by module: " + ", ".join(per_module))
    print(f"{unreached} of {total} raise statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
