"""Layer tracing from outside the library.

`Tracer.install()` rebinds every public function of the layer modules, in
every `cheeger` module that holds it, to a wrapper
that records a span: name, parent span, inclusive and self time, and the
exception type when the call raises.  Spans are aggregated in memory per
function and per (parent, child) edge; nothing is written until the run
ends.  It also counts `Vec2` constructions and the piece pairs of every
polygon handed to `assert_simple` or `reach_lower_bound`.  `uninstall()`
restores the original bindings.  Nothing inside `src/cheeger` changes.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

LAYERS = ("geom", "spine", "solver", "convex", "gallery", "verify", "cli")

# per-point helpers called once per boundary piece inside every distance or
# winding query; wrapping them would multiply the traced run's cost, and
# their time stays in the self time of the function that calls them
HOT_LEAVES = {"geom.point_to_piece", "geom.point_to_segment",
              "geom.point_to_arc", "geom.unit_from_angle"}

# child -> ancestor: count the child's calls made anywhere below the ancestor
UNDER = {"solver.inner_set": "solver.solve_strip",
         "convex.inner_parallel_body": "convex.solve_convex"}


class Stat:
    __slots__ = ("calls", "incl", "self_time", "raised")

    def __init__(self) -> None:
        self.calls = 0       # outermost (non-recursive) calls
        self.incl = 0.0      # inclusive time of outermost calls
        self.self_time = 0.0
        self.raised: Dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = defaultdict(Stat)
        self.edges: Dict[Tuple[Optional[str], str], Stat] = defaultdict(Stat)
        self.stack: List[list] = []          # [name, child inclusive time]
        self.depth: Dict[str, int] = defaultdict(int)
        self.under: Dict[str, int] = defaultdict(int)
        self.vec2 = 0
        self.candidate_pairs = 0
        self.boundary_pieces = 0
        self._restore: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        parent = self.stack[-1][0] if self.stack else None
        frame = [name, 0.0]
        self.stack.append(frame)
        self.depth[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.stats[name].raised[type(exc).__name__] += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            self.depth[name] -= 1
            st = self.stats[name]
            st.self_time += dt - frame[1]
            if self.stack:
                self.stack[-1][1] += dt
            if self.depth[UNDER.get(name, "")] > 0:
                self.under[name] += 1
            if parent != name:
                st.calls += 1
                edge = self.edges[(parent, name)]
                edge.calls += 1
                edge.incl += dt
                if self.depth[name] == 0:
                    st.incl += dt

    def _wrap(self, name: str, fn):
        tracer = self
        if name in ("geom.assert_simple", "geom.reach_lower_bound"):
            def before(args):
                n = len(args[0].pieces)
                tracer.candidate_pairs += n * (n - 3) // 2 if n > 3 else 0
        else:
            before = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            result = tracer.span(name, fn, *args, **kwargs)
            if name == "spine.build_strip":
                tracer.boundary_pieces += len(result.boundary.pieces)
            return result

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        from cheeger import geom

        layer_mods = [sys.modules[f"cheeger.{m}"] for m in LAYERS]
        targets = {}
        for mod in layer_mods:
            short = mod.__name__.split(".")[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or f"{short}.{attr}" in HOT_LEAVES:
                    continue
                fn = getattr(obj, "__wrapped__", obj)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        holders = [m for n, m in sys.modules.items()
                   if n == "cheeger" or n.startswith("cheeger.")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, targets[id(obj)][1])

        original_post_init = geom.Vec2.__post_init__
        tracer = self

        def counting_post_init(v):
            tracer.vec2 += 1
            original_post_init(v)

        self._restore.append((geom.Vec2, "__post_init__", original_post_init))
        geom.Vec2.__post_init__ = counting_post_init

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._restore):
            setattr(holder, attr, obj)
        self._restore.clear()

    # -- queries -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the counters, for per-operation differences."""
        return {name: (st.calls, st.incl, st.self_time)
                for name, st in self.stats.items()}

    def layer_self(self, layer: str) -> float:
        return sum(st.self_time for name, st in self.stats.items()
                   if name.startswith(layer + "."))

    def edge(self, parent: Optional[str], child: str) -> Stat:
        return self.edges.get((parent, child), Stat())

    def get(self, name: str) -> Stat:
        return self.stats.get(name, Stat())
