"""Command-line front end: solve domain files, run check suites, render SVG.

Domain files are JSON objects (see `DOMAINS`); reports are machine
readable JSON on stdout with a human log on stderr.  Exit codes: 0 success,
1 input error, 2 failed property or check.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .convex import convex_from_points, solve_convex
from .errors import CheegerError, PropertyViolation
from .gallery import (bowtie_arcs_check, bowtie_cheeger_candidate,
                      build_bowtie, pinocchio_g, pinocchio_measures,
                      pinocchio_region, solve_pinocchio_theta,
                      two_balls_example, two_ears_measures, two_ears_region,
                      two_ears_theta)
from .geom import ArcPolygon, Segment, Vec2
from .reporting import Check
from .solver import (RESIDUAL_TOL, CheegerSolution, check_free_boundary,
                     solve_strip)
from .spine import Spine, SpinePiece, build_strip
from .verify import run_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2


class SpecError(ValueError):
    """Domain file fails schema validation."""


@dataclass
class Outcome:
    h: Optional[float] = None
    r: Optional[float] = None
    residual: Optional[float] = None
    iterations: Optional[int] = None
    bounds: Optional[dict] = None
    checks: List[Check] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    regions: List[ArcPolygon] = field(default_factory=list)
    inner: Optional[ArcPolygon] = None
    cheeger: Optional[ArcPolygon] = None
    balls: List[Tuple[Vec2, float]] = field(default_factory=list)


def _finite_number(val) -> Optional[float]:
    """val as a float if it is a finite, non-bool JSON number, else None."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return None
    try:
        x = float(val)
    except OverflowError:  # an integer beyond the float range
        return None
    return x if math.isfinite(x) else None


def _require_number(obj: dict, key: str, where: str) -> float:
    if key not in obj:
        raise SpecError(f"{where}: missing field {key!r}")
    x = _finite_number(obj[key])
    if x is None:
        raise SpecError(f"{where}: field {key!r} must be a finite number")
    return x


def _optional_number(obj: dict, key: str, default: float, where: str) -> float:
    if key not in obj:
        return default
    return _require_number(obj, key, where)


def _known_fields(obj: dict, fields: Tuple[str, ...], where: str) -> None:
    """Reject a field that is not read, such as a misspelt one."""
    for key in obj:
        if key not in fields:
            raise SpecError(f"{where}: unknown field {key!r}")


def parse_spine(items, halfwidth: float) -> Spine:
    if not isinstance(items, list) or not items:
        raise SpecError("'spine': expected a nonempty list of pieces")
    pieces = []
    for i, item in enumerate(items):
        where = f"spine[{i}]"
        if not isinstance(item, dict):
            raise SpecError(f"{where}: expected an object")
        _known_fields(item, ("kind", "length", "curvature"), where)
        piece_kind = item.get("kind")
        if piece_kind not in ("line", "arc"):
            raise SpecError(f"{where}: 'kind' must be 'line' or 'arc'")
        length = _require_number(item, "length", where)
        if length <= 0.0:
            raise SpecError(f"{where}: 'length' must be positive")
        if piece_kind == "line":
            kappa = _optional_number(item, "curvature", 0.0, where)
            if kappa != 0.0:
                raise SpecError(f"{where}: a line piece cannot carry curvature")
        else:
            kappa = _require_number(item, "curvature", where)
            if kappa == 0.0:
                raise SpecError(f"{where}: an arc piece needs nonzero curvature")
        if abs(kappa) * halfwidth >= 1.0:
            raise SpecError(
                f"{where}: |curvature|*halfwidth = {abs(kappa) * halfwidth} "
                "must stay below 1")
        pieces.append(SpinePiece(length, kappa))
    return Spine(tuple(pieces))


def _inner_formula_outcome(sol: CheegerSolution, region: ArcPolygon
                           ) -> Outcome:
    """Outcome of an inner-formula solve with its residual and ratio checks."""
    ratio = sol.cheeger_set.perimeter / sol.cheeger_set.area
    err = abs(ratio - sol.h) / sol.h
    return Outcome(
        h=sol.h, r=sol.r, residual=sol.residual, iterations=sol.iterations,
        bounds=None if sol.bounds is None else asdict(sol.bounds),
        warnings=list(sol.warnings), regions=[region], inner=sol.inner_set,
        cheeger=sol.cheeger_set,
        checks=[Check("inner_cheeger_residual",
                      sol.residual <= RESIDUAL_TOL * math.pi * sol.r ** 2,
                      f"|area(E_r) - pi r^2| = {sol.residual:.3e}"),
                Check("cheeger_ratio_identity", err <= 1e-8,
                      f"perimeter/area vs h relative gap {err:.3e}")])


def _closed_form_outcome(region: ArcPolygon, perim: float, area: float,
                         warnings: List[str]) -> Outcome:
    """Outcome of a region that is its own Cheeger set, h = perim/area from
    a closed form, checked against the region's exact measures."""
    h = perim / area
    geo_gap = max(abs(region.perimeter - perim) / perim,
                  abs(region.area - area) / area)
    return Outcome(h=h, r=1.0 / h, residual=0.0, iterations=0,
                   warnings=warnings, regions=[region], cheeger=region,
                   checks=[Check("formula_geometry_agreement",
                                 geo_gap <= 1e-9,
                                 f"relative gap {geo_gap:.3e}")])


def _theta(spec: dict, where: str, root: Callable[[], float]
           ) -> Tuple[float, bool]:
    """The 'theta' field and whether it was 'auto' (the default), which
    takes the self-Cheeger root from `root()`; else an angle in (0, pi/2)."""
    raw = spec.get("theta", "auto")
    if raw == "auto":
        return root(), True
    theta = _finite_number(raw)
    if theta is None:
        raise SpecError(f"{where}: 'theta' must be a number or 'auto'")
    if not 0.0 < theta < 0.5 * math.pi:
        raise SpecError(f"{where}: 'theta' must lie in (0, pi/2)")
    return theta, False


def _solve_strip(spec: dict, allow_short: bool) -> Outcome:
    hw = _require_number(spec, "halfwidth", "strip")
    if hw <= 0.0:
        raise SpecError("strip: 'halfwidth' must be positive")
    spine = parse_spine(spec.get("spine"), hw)
    strip = build_strip(spine, hw)
    sol = solve_strip(strip, allow_short=allow_short)
    out = _inner_formula_outcome(sol, strip.boundary)
    if not sol.warnings:
        out.checks.append(Check(
            "strip_bounds",
            sol.bounds.krepra_lower <= sol.h <= sol.bounds.krepra_upper,
            f"h = {sol.h:.8f}"))
    try:
        arcs = check_free_boundary(sol, strip)
        out.checks.append(Check("free_boundary", True,
                                f"{len(arcs)} free arcs verified"))
        out.balls = [(fa.arc.center, sol.r) for fa in arcs]
    except PropertyViolation as exc:
        out.checks.append(Check("free_boundary", False, str(exc)))
    return out


def _solve_convex_polygon(spec: dict, allow_short: bool) -> Outcome:
    verts = spec.get("vertices")
    if not isinstance(verts, list) or len(verts) < 3:
        raise SpecError("convex_polygon: 'vertices' needs >= 3 entries")
    pts = []
    for i, xy in enumerate(verts):
        if (not isinstance(xy, (list, tuple)) or len(xy) != 2
                or any(_finite_number(v) is None for v in xy)):
            raise SpecError(f"vertices[{i}]: expected [x, y] numbers")
        pts.append(Vec2(float(xy[0]), float(xy[1])))
    try:
        region = convex_from_points(pts)
    except CheegerError as exc:
        raise SpecError(f"convex_polygon: {exc}") from exc
    out = _inner_formula_outcome(solve_convex(region), region.region)
    out.checks.append(Check("cheeger_set_contained", True,
                            "proven during solve: every vertex of E_r "
                            "lies at depth >= r in the region"))
    return out


def _solve_pinocchio(spec: dict, allow_short: bool) -> Outcome:
    alpha = _optional_number(spec, "alpha", 0.0, "pinocchio")
    nose = _optional_number(spec, "nose", 0.0, "pinocchio")
    theta, auto = _theta(spec, "pinocchio", solve_pinocchio_theta)
    warnings: List[str] = []
    if not auto:
        g_val = pinocchio_g(theta)
        if abs(g_val) > 1e-6:
            warnings.append(
                f"theta is not the self-Cheeger root: g(theta) = {g_val:.3e}")
    if alpha < 0.0 or alpha > 0.5 * math.pi - theta + 1e-12:
        raise SpecError("pinocchio: 'alpha' must lie in [0, pi/2 - theta]")
    if nose < 0.0:
        raise SpecError("pinocchio: 'nose' must be nonnegative")
    if nose > 0.0 and alpha != 0.0:
        raise SpecError("pinocchio: nose extension requires alpha = 0")
    nose_radius = math.sin(theta)
    perim, area = pinocchio_measures(theta, alpha)
    perim += 2.0 * nose
    area += 2.0 * nose_radius * nose
    if alpha > 0.0:
        warnings.append("alpha > 0 truncates the nose; the reported h is "
                        "the region's own ratio")
    out = _closed_form_outcome(pinocchio_region(theta, alpha, nose),
                               perim, area, warnings)
    if auto and alpha == 0.0:
        out.checks.append(Check(
            "self_cheeger_identity",
            abs(out.h - 1.0 / nose_radius) <= 1e-9 * out.h,
            f"h = {out.h!r} vs 1/sin(theta0)"))
        tau = min(nose, 1.0)
        out.balls = [(Vec2(math.cos(theta) + t, 0.0), nose_radius)
                     for t in (0.0, 0.5 * tau, tau)] if nose > 0 else \
                    [(Vec2(math.cos(theta), 0.0), nose_radius)]
    return out


def _solve_two_ears(spec: dict, allow_short: bool) -> Outcome:
    theta, auto = _theta(spec, "two_ears", two_ears_theta)
    perim, area = two_ears_measures(theta)
    warnings = []
    if not auto and abs(perim * math.sin(theta) - area) > 1e-6:
        warnings.append("theta is not the self-Cheeger root")
    out = _closed_form_outcome(two_ears_region(theta), perim, area, warnings)
    out.balls = [(Vec2(math.cos(theta), 0.0), math.sin(theta)),
                 (Vec2(-math.cos(theta), 0.0), math.sin(theta))]
    return out


def _solve_bowtie(spec: dict, allow_short: bool) -> Outcome:
    gap = _optional_number(spec, "gap", 0.0, "bowtie")
    if gap < 0.0:
        raise SpecError("bowtie: 'gap' must be nonnegative")
    bt = build_bowtie(gap)
    if gap == 0.0:
        cand = bowtie_cheeger_candidate(bt)
        return Outcome(
            h=cand.ratio, r=cand.radius,
            residual=abs(cand.ratio - 1.0 / cand.radius), iterations=0,
            warnings=["candidate ratio from the four-arc construction; "
                      "global optimality is not certified"],
            regions=[bt.region], cheeger=cand.region,
            checks=[bowtie_arcs_check(cand)],
            balls=[(a.center, cand.radius) for a in cand.corner_arcs])
    h = bt.region.perimeter / bt.region.area
    return Outcome(
        h=h, r=1.0 / h, residual=0.0, iterations=0,
        warnings=["loose bow-tie: reported h is the domain's own ratio, "
                  "an upper bound only; the inner Cheeger formula fails "
                  "here"],
        regions=[bt.region],
        checks=[Check("loose_bowtie_waist_angle",
                      bt.alpha_corner > 0.5 * math.pi,
                      f"alpha = {bt.alpha_corner:.6f}")])


def _solve_two_balls(spec: dict, allow_short: bool) -> Outcome:
    rep = two_balls_example()
    return Outcome(h=rep.h, r=1.0 / rep.h, residual=0.0, iterations=0,
                   regions=list(rep.components),
                   cheeger=rep.components[0], checks=list(rep.checks))


# The domain types of `cheeger solve`: a domain file's 'type' -> the entry
# that parses its fields, solves it and checks the result, and the fields
# besides 'type' that it reads.  Only 'strip' reads allow_short.
DOMAINS: Dict[str, Tuple[Callable[[dict, bool], Outcome], Tuple[str, ...]]] = {
    "strip": (_solve_strip, ("halfwidth", "spine")),
    "convex_polygon": (_solve_convex_polygon, ("vertices",)),
    "pinocchio": (_solve_pinocchio, ("theta", "alpha", "nose")),
    "two_ears": (_solve_two_ears, ("theta",)),
    "bowtie": (_solve_bowtie, ("gap",)),
    "two_balls": (_solve_two_balls, ())}


def solve_domain(spec: dict, allow_short: bool = False) -> Outcome:
    """Solve a domain file's JSON object through its `DOMAINS` entry."""
    if not isinstance(spec, dict):
        raise SpecError("domain file must hold a JSON object")
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in DOMAINS:
        raise SpecError(f"unknown domain type {kind!r}")
    solve, fields = DOMAINS[kind]
    _known_fields(spec, ("type",) + fields, kind)
    return solve(spec, allow_short)


# ---------------------------------------------------------------------------
# report assembly


def build_report(out: Outcome) -> dict:
    return {
        "version": __version__,
        "h": out.h,
        "r": out.r,
        "residual": out.residual,
        "iterations": out.iterations,
        "bounds": out.bounds,
        "checks": [c.as_dict() for c in out.checks],
        "warnings": list(out.warnings),
    }


def _emit(report: dict, log_lines: Sequence[str]) -> None:
    for line in log_lines:
        print(line, file=sys.stderr)
    print(json.dumps(report, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# SVG emission


def _svg_path(p: ArcPolygon) -> str:
    cmds = [f"M {p.pieces[0].start.x:.9g} {-p.pieces[0].start.y:.9g}"]
    for piece in p.pieces:
        e = piece.end
        if isinstance(piece, Segment):
            cmds.append(f"L {e.x:.9g} {-e.y:.9g}")
        else:
            large = 1 if piece.sweep > math.pi else 0
            sweep = 0 if piece.ccw else 1
            cmds.append(f"A {piece.radius:.9g} {piece.radius:.9g} 0 "
                        f"{large} {sweep} {e.x:.9g} {-e.y:.9g}")
    cmds.append("Z")
    return " ".join(cmds)


def render_svg(out: Outcome, path: str, show_inner: bool,
               show_cheeger: bool, show_balls: bool) -> None:
    xs, ys = [], []
    for region in out.regions:
        x0, y0, x1, y1 = region.bounding_box
        xs += [x0, x1]
        ys += [y0, y1]
    pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys))
    vx, vy = min(xs) - pad, -(max(ys) + pad)
    vw, vh = (max(xs) - min(xs)) + 2 * pad, (max(ys) - min(ys)) + 2 * pad
    stroke = max(vw, vh) / 400.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="{vx:.6g} {vy:.6g} {vw:.6g} {vh:.6g}" '
             f'width="640" height="{640.0 * vh / vw:.6g}">']
    for region in out.regions:
        parts.append(f'<path d="{_svg_path(region)}" fill="white" '
                     f'stroke="black" stroke-width="{2 * stroke:.6g}"/>')
    if show_cheeger and out.cheeger is not None:
        parts.append(f'<path d="{_svg_path(out.cheeger)}" fill="#c8c8c8" '
                     f'stroke="none"/>')
    if show_inner and out.inner is not None:
        parts.append(f'<path d="{_svg_path(out.inner)}" fill="#606060" '
                     f'stroke="none"/>')
    if show_balls:
        for center, radius in out.balls:
            parts.append(
                f'<circle cx="{center.x:.9g}" cy="{-center.y:.9g}" '
                f'r="{radius:.9g}" fill="none" stroke="#b03030" '
                f'stroke-width="{stroke:.6g}" '
                f'stroke-dasharray="{4 * stroke:.6g} {4 * stroke:.6g}"/>')
    parts.append("</svg>")
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise SpecError(f"{path}: cannot parse as JSON: {exc}") from exc


def cmd_solve(args: argparse.Namespace) -> int:
    out = solve_domain(_load_spec(args.file),
                       allow_short=args.allow_short_strip)
    log = [f"h = {out.h!r}, r = {out.r!r}"]
    log += [f"warning: {w}" for w in out.warnings]
    if args.svg:
        render_svg(out, args.svg, show_inner=True, show_cheeger=True,
                   show_balls=False)
        log.append(f"figure written to {args.svg}")
    _emit(build_report(out), log)
    return EXIT_OK if all(c.passed for c in out.checks) else EXIT_VIOLATION


def cmd_verify(args: argparse.Namespace) -> int:
    name = args.suite
    checks = run_suite(name)
    report = {
        "version": __version__,
        "suite": name,
        "passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
    }
    log = [f"suite {name}: {sum(c.passed for c in checks)}/{len(checks)} "
           "checks passed"]
    log += [f"FAIL {c.name}: {c.detail}" for c in checks if not c.passed]
    _emit(report, log)
    return EXIT_OK if report["passed"] else EXIT_VIOLATION


def cmd_render(args: argparse.Namespace) -> int:
    out = solve_domain(_load_spec(args.file),
                       allow_short=args.allow_short_strip)
    render_svg(out, args.out, show_inner=args.show_inner,
               show_cheeger=args.show_cheeger, show_balls=args.show_balls)
    print(f"figure written to {args.out}", file=sys.stderr)
    return EXIT_OK if all(c.passed for c in out.checks) else EXIT_VIOLATION


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cheeger",
        description="Cheeger constants and Cheeger sets of convex regions "
                    "and curved strips")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="solve a domain file")
    p_solve.add_argument("file")
    p_solve.add_argument("--svg", metavar="OUT.SVG", default=None)
    p_solve.add_argument("--allow-short-strip", action="store_true")
    p_solve.set_defaults(func=cmd_solve)
    p_verify = sub.add_parser("verify", help="run a named check suite")
    p_verify.add_argument("suite")
    p_verify.set_defaults(func=cmd_verify)
    p_render = sub.add_parser("render", help="render a domain to SVG")
    p_render.add_argument("file")
    p_render.add_argument("out")
    p_render.add_argument("--show-inner", action="store_true")
    p_render.add_argument("--show-cheeger", action="store_true")
    p_render.add_argument("--show-balls", action="store_true")
    p_render.add_argument("--allow-short-strip", action="store_true")
    p_render.set_defaults(func=cmd_render)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (SpecError, CheegerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
