"""Bracketed bisection for the root solves that have no derivative.

The gallery fixes its Pinocchio and two-ears self-Cheeger angles as roots
of their defining equations: each solve halves one bracket to a fixed
width and reads its answer off the returned bracket.  The inner Cheeger
formula has an exact derivative and is solved by safeguarded Newton steps
in `solver._solve_inner_formula` instead.
"""
from __future__ import annotations

from typing import Callable, Tuple


def bisect(f: Callable[[float], float], lo: float, hi: float,
           width: float) -> Tuple[float, float]:
    """Halve [lo, hi] around a sign change of f; f > 0 on the lo side.

    Each step evaluates f at the midpoint and moves `lo` there when the
    value is positive, `hi` otherwise (zero and NaN included).  It stops
    once hi - lo <= width, or once the midpoint rounds to an end of the
    bracket, which ends every solve even at width 0.  Returns (lo, hi).
    """
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi
