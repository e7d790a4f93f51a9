"""Bracketed bisection shared by the root solves that have no derivative.

The gallery fixes its self-Cheeger angles and the bow-tie corner radius as
roots of their defining equations, ball paths locate where a rolling ball
first touches an end segment, and `convex.inradius` finds the largest
feasible depth.  All of them halve one bracket; each caller keeps its own
sign convention, stop rule and return choice.  The inner Cheeger formula
has an exact derivative and is solved by safeguarded Newton steps in
`solver._solve_inner_formula` instead.
"""
from __future__ import annotations

from typing import Callable, Tuple


def bisect(f: Callable[[float], float], lo: float, hi: float,
           done: Callable[[float, float, float, float], bool],
           max_iter: int = 200) -> Tuple[float, float, float, int]:
    """Halve [lo, hi] around a sign change of f; f > 0 on the lo side.

    Each step evaluates f at the midpoint and moves `lo` there when the
    value is positive, `hi` otherwise.  It stops after `max_iter`
    evaluations or as soon as `done(lo, hi, mid, f(mid))` holds on the
    updated bracket.  Returns (lo, hi, last midpoint, evaluations).
    """
    mid = 0.5 * (lo + hi)
    evaluations = 0
    while evaluations < max_iter:
        mid = 0.5 * (lo + hi)
        val = f(mid)
        evaluations += 1
        if val > 0.0:
            lo = mid
        else:
            hi = mid
        if done(lo, hi, mid, val):
            break
    return lo, hi, mid, evaluations
