"""Gallery families that only the tests read.

The derivative of the Pinocchio defining function, the Pinocchio head with
its nose bent along an S-shaped spine, and the two-ears face with each ear
stretched by its own length: `test_gallery.py` holds them against the
closed forms of `cheeger.gallery`, and `test_geom.py` takes the bent and
stretched loops as reach-bound shapes.
"""
from __future__ import annotations

import math
from typing import List, Tuple

from cheeger.errors import DomainError
from cheeger.gallery import two_ears_measures, two_ears_theta
from cheeger.geom import TAU, Arc, ArcPolygon, Segment, Vec2, arc_between
from cheeger.spine import Spine, SpinePiece, level_chain


def pinocchio_g_prime(theta: float) -> float:
    s, c = math.sin(theta), math.cos(theta)
    return 2.0 * (math.pi - theta) * c + s * (2.0 * s + math.pi * c - 2.0)


def pinocchio_region_bent(theta: float, nose: float) -> ArcPolygon:
    """Same family with the nose bent along an S-shaped spine of equal length.

    The spine's curvature 0.8 times the nose radius sin(theta) stays below 1,
    so the nose's level curves are regular."""
    if nose <= 0.0:
        raise DomainError("bent nose needs a positive length")
    s, c = math.sin(theta), math.cos(theta)
    spine = Spine((SpinePiece(0.5 * nose, 0.8), SpinePiece(0.5 * nose, -0.8)),
                  start_point=Vec2(c, 0.0))
    lo = [piece for piece, _, _ in level_chain(spine, -s)]
    hi = [piece.reversed() for piece, _, _ in reversed(level_chain(spine, s))]
    tip = spine.point(nose)
    cap_start = tip - s * spine.normal(nose)
    cap = arc_between(cap_start, tip + s * spine.normal(nose), tip, ccw=True)
    big = Arc.from_angles(Vec2(0.0, 0.0), 1.0, theta, TAU - 2.0 * theta)
    return ArcPolygon([big] + lo + [cap] + hi)


def two_ears_family(t_left: float, t_right: float
                    ) -> Tuple[float, float, float]:
    """(area, perimeter, ratio) after stretching the ears independently."""
    if t_left < 0.0 or t_right < 0.0:
        raise DomainError("ear extensions must be nonnegative")
    th = two_ears_theta()
    r1 = math.sin(th)
    p0, a0 = two_ears_measures(th)
    area = a0 + 2.0 * r1 * (t_left + t_right)
    perim = p0 + 2.0 * (t_left + t_right)
    return area, perim, perim / area


def two_ears_region_stretched(t_left: float, t_right: float) -> ArcPolygon:
    th = two_ears_theta()
    s, c = math.sin(th), math.cos(th)
    pieces: List = []
    pieces.append(Segment(Vec2(c, -s), Vec2(c + t_right, -s))
                  if t_right > 0 else None)
    pieces.append(Arc.from_angles(Vec2(c + t_right, 0.0), s,
                                  -0.5 * math.pi, math.pi))
    pieces.append(Segment(Vec2(c + t_right, s), Vec2(c, s))
                  if t_right > 0 else None)
    pieces.append(Arc.from_angles(Vec2(0.0, 0.0), 1.0, th, math.pi - 2.0 * th))
    pieces.append(Segment(Vec2(-c, s), Vec2(-c - t_left, s))
                  if t_left > 0 else None)
    pieces.append(Arc.from_angles(Vec2(-c - t_left, 0.0), s,
                                  0.5 * math.pi, math.pi))
    pieces.append(Segment(Vec2(-c - t_left, -s), Vec2(-c, -s))
                  if t_left > 0 else None)
    pieces.append(Arc.from_angles(Vec2(0.0, 0.0), 1.0, math.pi + th,
                                  math.pi - 2.0 * th))
    return ArcPolygon([p for p in pieces if p is not None])
