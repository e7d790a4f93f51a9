import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheeger import cli, solver, spine, verify
from cheeger.errors import CheegerError, NoRoot, PropertyViolation
from cheeger.reporting import Check
from conftest import straight_strip_root


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_main(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


STRIP_SPEC = {"type": "strip", "halfwidth": 1.0,
              "spine": [{"kind": "line", "length": 4.5 * math.pi}]}
SQUARE_SPEC = {"type": "convex_polygon",
               "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}


def test_solve_strip(tmp_path, capsys):
    path = write_spec(tmp_path, "strip.json", STRIP_SPEC)
    code, out, _ = run_main(capsys, ["solve", path])
    assert code == 0
    report = json.loads(out)
    r_exact = straight_strip_root(4.5 * math.pi)
    assert report["h"] == pytest.approx(1.0 / r_exact, abs=1e-9)
    assert report["r"] == pytest.approx(r_exact, abs=1e-9)
    assert report["h"] == 1.0 / report["r"]
    assert report["bounds"]["krepra_lower"] <= report["h"] <= \
        report["bounds"]["krepra_upper"]
    assert all(c["pass"] for c in report["checks"])
    assert report["version"]


def test_solve_curved_strip_spec(tmp_path, capsys):
    spec = {"type": "strip", "halfwidth": 1.0,
            "spine": [{"kind": "arc", "length": 8.0, "curvature": 0.3},
                      {"kind": "line", "length": 4.0},
                      {"kind": "arc", "length": 8.0, "curvature": -0.3}]}
    path = write_spec(tmp_path, "curved.json", spec)
    code, out, _ = run_main(capsys, ["solve", path])
    assert code == 0
    report = json.loads(out)
    assert report["bounds"]["krepra_lower"] <= report["h"] <= \
        report["bounds"]["krepra_upper"]


def test_solve_square(tmp_path, capsys):
    path = write_spec(tmp_path, "square.json", {
        "type": "convex_polygon",
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]})
    code, out, _ = run_main(capsys, ["solve", path])
    assert code == 0
    report = json.loads(out)
    assert report["h"] == pytest.approx(2.0 + math.sqrt(math.pi), abs=1e-9)


def test_solve_pinocchio_auto(tmp_path, capsys):
    path = write_spec(tmp_path, "pin.json", {
        "type": "pinocchio", "theta": "auto", "alpha": 0.0, "nose": 2.0})
    code, out, _ = run_main(capsys, ["solve", path])
    assert code == 0
    report = json.loads(out)
    assert report["h"] == pytest.approx(1.9744507641138362, abs=1e-9)


def test_solve_pinocchio_explicit_theta_warns(tmp_path, capsys):
    path = write_spec(tmp_path, "pin2.json", {
        "type": "pinocchio", "theta": 0.5, "alpha": 0.0, "nose": 0.0})
    code, out, _ = run_main(capsys, ["solve", path])
    assert code == 0
    report = json.loads(out)
    assert any("self-Cheeger root" in w for w in report["warnings"])


def test_solve_two_ears_auto(tmp_path, capsys):
    path = write_spec(tmp_path, "ears.json", {"type": "two_ears",
                                              "theta": "auto"})
    code, out, _ = run_main(capsys, ["solve", path])
    assert code == 0
    report = json.loads(out)
    from cheeger.gallery import two_ears_theta
    assert report["h"] == pytest.approx(1.0 / math.sin(two_ears_theta()),
                                        rel=1e-10)


def test_solve_two_balls(tmp_path, capsys):
    path = write_spec(tmp_path, "balls.json", {"type": "two_balls"})
    code, out, _ = run_main(capsys, ["solve", path])
    assert code == 0
    report = json.loads(out)
    assert report["h"] == 2.0


def test_solve_bowtie(tmp_path, capsys):
    path = write_spec(tmp_path, "bow.json", {"type": "bowtie", "gap": 0})
    code, out, _ = run_main(capsys, ["solve", path])
    assert code == 0
    report = json.loads(out)
    assert report["h"] < 6.16
    assert report["warnings"]


def test_bowtie_arcs_check_matches_gallery_suite():
    out = cli.solve_domain({"type": "bowtie", "gap": 0})
    suite = {c.name: c for c in verify.run_gallery_suite()}
    assert out.checks == [suite["bowtie_four_congruent_arcs"]]


@pytest.mark.parametrize("command", ["solve", "render"])
@pytest.mark.parametrize("payload, expected", [
    (b"{not json", "line"),
    (b"\xff\xfe{}", "can't decode byte 0xff"),
    (b"[" * 100_000 + b"]" * 100_000, "recursion"),
    (b'{"type": "two_ears", "theta": ' + b"1" * 5000 + b"}", "digits"),
], ids=["malformed", "undecodable", "deeply_nested", "huge_integer"])
def test_malformed_json_exit_1(tmp_path, capsys, command, payload, expected):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    argv = {"solve": ["solve", str(path)],
            "render": ["render", str(path), str(tmp_path / "fig.svg")]}
    code, _, err = run_main(capsys, argv[command])
    assert code == 1
    assert err.startswith("error: ")
    assert expected in err


def strip_of(*pieces, halfwidth=1.0):
    return {"type": "strip", "halfwidth": halfwidth, "spine": list(pieces)}


# one case per SpecError message of solve_domain, with its exact stderr
SCHEMA_ERRORS = [
    ({"type": "strip", "spine": [{"kind": "line", "length": 5}]},
     "strip: missing field 'halfwidth'"),
    (strip_of({"kind": "line", "length": 15}, halfwidth=0),
     "strip: 'halfwidth' must be positive"),
    (strip_of(), "'spine': expected a nonempty list of pieces"),
    (strip_of(5), "spine[0]: expected an object"),
    (strip_of({"kind": "spiral", "length": 5}),
     "spine[0]: 'kind' must be 'line' or 'arc'"),
    (strip_of({"kind": "line", "length": -5}),
     "spine[0]: 'length' must be positive"),
    (strip_of({"kind": "arc", "length": 5}),
     "spine[0]: missing field 'curvature'"),
    (strip_of({"kind": "line", "length": 15, "curvature": "a"}),
     "spine[0]: field 'curvature' must be a finite number"),
    (strip_of({"kind": "line", "length": 15, "curvature": 0.5}),
     "spine[0]: a line piece cannot carry curvature"),
    (strip_of({"kind": "arc", "length": 5, "curvature": 0}),
     "spine[0]: an arc piece needs nonzero curvature"),
    (strip_of({"kind": "arc", "length": 5, "curvature": 0.6}, halfwidth=2.0),
     "spine[0]: |curvature|*halfwidth = 1.2 must stay below 1"),
    ({"type": "convex_polygon", "vertices": [[0, 0], [1, 0]]},
     "convex_polygon: 'vertices' needs >= 3 entries"),
    ({"type": "convex_polygon", "vertices": [[0, 0], [1, 0], [0, 10 ** 400]]},
     "vertices[2]: expected [x, y] numbers"),
    ({"type": "convex_polygon", "vertices": [[0, 0], [1, 0], "x"]},
     "vertices[2]: expected [x, y] numbers"),
    ({"type": "convex_polygon", "vertices": [[0, 0], [1, 0], [2, 0]]},
     "convex_polygon: loop encloses no area"),
    ({"type": "convex_polygon", "vertices": [[0, 0], [2, 0], [1, 0.2], [1, 2]]},
     "convex_polygon: region is not convex"),
    ({"type": "pinocchio", "alpha": "x"},
     "pinocchio: field 'alpha' must be a finite number"),
    ({"type": "pinocchio", "alpha": True},
     "pinocchio: field 'alpha' must be a finite number"),
    ({"type": "pinocchio", "nose": [1]},
     "pinocchio: field 'nose' must be a finite number"),
    ({"type": "pinocchio", "theta": 2.0},
     "pinocchio: 'theta' must lie in (0, pi/2)"),
    ({"type": "pinocchio", "alpha": 1.5},
     "pinocchio: 'alpha' must lie in [0, pi/2 - theta]"),
    ({"type": "pinocchio", "alpha": -0.1},
     "pinocchio: 'alpha' must lie in [0, pi/2 - theta]"),
    ({"type": "pinocchio", "nose": -1}, "pinocchio: 'nose' must be nonnegative"),
    ({"type": "pinocchio", "nose": 1, "alpha": 0.1},
     "pinocchio: nose extension requires alpha = 0"),
    ({"type": "two_ears", "theta": 10 ** 400},
     "two_ears: 'theta' must be a number or 'auto'"),
    ({"type": "bowtie", "gap": "wide"},
     "bowtie: field 'gap' must be a finite number"),
    ({"type": "bowtie", "gap": -0.1}, "bowtie: 'gap' must be nonnegative"),
    # a field that no parser reads, such as a misspelt one, is an error
    # rather than a solve of the default domain
    (strip_of({"kind": "arc", "length": 20, "curvatur": 0.5}),
     "spine[0]: unknown field 'curvatur'"),
    (dict(strip_of({"kind": "line", "length": 15}), halfwith=2.0),
     "strip: unknown field 'halfwith'"),
    ({"type": "convex_polygon", "vertices": [[0, 0], [1, 0], [0, 1]],
      "vertex": [0, 0]}, "convex_polygon: unknown field 'vertex'"),
    ({"type": "pinocchio", "nsoe": 3.0}, "pinocchio: unknown field 'nsoe'"),
    ({"type": "two_ears", "theta0": 0.7}, "two_ears: unknown field 'theta0'"),
    ({"type": "bowtie", "gpa": 0.03}, "bowtie: unknown field 'gpa'"),
    ({"type": "two_balls", "radius": 2}, "two_balls: unknown field 'radius'"),
    # a list or dict 'type' cannot be a table key: a lookup must not raise
    # TypeError on it
    ({"type": "wat"}, "unknown domain type 'wat'"),
    ({"type": []}, "unknown domain type []"),
    ({"type": {}}, "unknown domain type {}"),
    ({"type": None}, "unknown domain type None"),
    ({"type": 1}, "unknown domain type 1"),
    ({}, "unknown domain type None"),
    ([], "domain file must hold a JSON object"),
    (None, "domain file must hold a JSON object"),
    (1, "domain file must hold a JSON object"),
]


def test_schema_errors_exit_1(tmp_path, capsys):
    for i, (spec, message) in enumerate(SCHEMA_ERRORS):
        path = write_spec(tmp_path, f"case{i}.json", spec)
        code, out, err = run_main(capsys, ["solve", path])
        assert (code, out, err) == (1, "", f"error: {message}\n"), spec


@pytest.mark.parametrize("command", ["solve", "render"])
def test_unreadable_domain_file_exit_1(tmp_path, capsys, command):
    path = str(tmp_path / "missing.json")
    argv = {"solve": ["solve", path],
            "render": ["render", path, str(tmp_path / "fig.svg")]}
    code, out, err = run_main(capsys, argv[command])
    assert (code, out) == (1, "")
    assert err == (f"error: cannot read {path}: [Errno 2] No such file or "
                   f"directory: {path!r}\n")


# the fold rule is halfwidth*|curvature| < 1: the half-size copy of a strip
# solves, with curvature 1.5, and h scales as 1/length
HALF_SIZE_STRIP = strip_of({"kind": "arc", "length": 3.0, "curvature": 1.5},
                           {"kind": "line", "length": 5.0}, halfwidth=0.5)
DOUBLE_SIZE_STRIP = strip_of(
    {"kind": "arc", "length": 6.0, "curvature": 0.75},
    {"kind": "line", "length": 10.0})


def test_half_size_strip_solves(tmp_path, capsys):
    reports = []
    for name, spec in [("half", HALF_SIZE_STRIP), ("double", DOUBLE_SIZE_STRIP)]:
        path = write_spec(tmp_path, f"{name}.json", spec)
        code, out, err = run_main(capsys, ["solve", path])
        assert code == 0, err
        reports.append(json.loads(out))
    half, double = reports
    assert all(c["pass"] for c in half["checks"])
    assert [c["name"] for c in half["checks"]] == \
        [c["name"] for c in double["checks"]]
    assert half["h"] == pytest.approx(2.0 * double["h"], rel=1e-12)
    assert double["h"] == pytest.approx(1.1012207666142126, rel=1e-12)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


def fuzzed_spec(kind, key, value):
    if kind == "strip":
        return {"type": "strip", "halfwidth": 1.0,
                "spine": [{"kind": "line", "length": 15.0, key: value}]}
    return {"type": kind, key: value}


@given(st.sampled_from([("pinocchio", "alpha"), ("pinocchio", "nose"),
                        ("pinocchio", "theta"), ("two_ears", "theta"),
                        ("bowtie", "gap"), ("strip", "curvature")]),
       json_values)
@settings(max_examples=100, deadline=None)
def test_spec_fields_fail_typed(field, value):
    try:
        cli.solve_domain(fuzzed_spec(*field, value))
    except (cli.SpecError, CheegerError):
        pass


def test_readme_domain_examples_solve(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Domain files are one of:", 1)[1]
    block = block.split("```json", 1)[1].split("```", 1)[0]
    specs = [json.loads(chunk)
             for chunk in re.split(r"\n(?=\{)", block.strip())]
    assert len(specs) == 6
    for i, spec in enumerate(specs):
        path = write_spec(tmp_path, f"readme{i}.json", spec)
        code, _, err = run_main(capsys, ["solve", path])
        assert code == 0, (spec, err)


def test_short_strip_needs_flag(tmp_path, capsys):
    spec = {"type": "strip", "halfwidth": 1.0,
            "spine": [{"kind": "line", "length": 10.0}]}
    path = write_spec(tmp_path, "short.json", spec)
    code, _, err = run_main(capsys, ["solve", path])
    assert code == 1
    assert "--allow-short-strip" in err
    code, out, _ = run_main(capsys, ["solve", path, "--allow-short-strip"])
    assert code == 0
    report = json.loads(out)
    assert any("uncertified" in w for w in report["warnings"])


def test_reports_are_deterministic(tmp_path, capsys):
    path = write_spec(tmp_path, "strip.json", STRIP_SPEC)
    _, out1, _ = run_main(capsys, ["solve", path])
    _, out2, _ = run_main(capsys, ["solve", path])
    assert out1 == out2


def test_tolerance_env_ignored(tmp_path, capsys, monkeypatch):
    # the root solve's stop rule is a constant, so a stray CHEEGER_TOL
    # in the environment changes nothing
    path = write_spec(tmp_path, "strip.json", STRIP_SPEC)
    monkeypatch.delenv("CHEEGER_TOL", raising=False)
    code, plain, _ = run_main(capsys, ["solve", path])
    assert code == 0
    monkeypatch.setenv("CHEEGER_TOL", "banana")
    code, out, _ = run_main(capsys, ["solve", path])
    assert code == 0
    assert out == plain


def test_render_svg(tmp_path, capsys):
    path = write_spec(tmp_path, "strip.json", STRIP_SPEC)
    out_svg = tmp_path / "strip.svg"
    code, _, _ = run_main(capsys, [
        "render", path, str(out_svg), "--show-inner", "--show-cheeger"])
    assert code == 0
    text = out_svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<path") >= 3  # outline + Cheeger set + inner set
    assert "A " in text  # exact arcs, no tessellation


def test_render_bowtie_and_balls(tmp_path, capsys):
    path = write_spec(tmp_path, "bow.json", {"type": "bowtie", "gap": 0})
    out_svg = tmp_path / "bow.svg"
    code, _, _ = run_main(capsys, [
        "render", path, str(out_svg), "--show-cheeger", "--show-balls"])
    assert code == 0
    assert "<circle" in out_svg.read_text()


def test_render_unwritable_path(tmp_path, capsys):
    path = write_spec(tmp_path, "strip.json", STRIP_SPEC)
    code, _, err = run_main(capsys, [
        "render", path, str(tmp_path / "no" / "dir" / "x.svg")])
    assert code == 1
    assert "error" in err


def exit_code_argv(command, tmp_path):
    path = write_spec(tmp_path, "square.json", SQUARE_SPEC)
    return {"solve": ["solve", path, "--svg", str(tmp_path / "fig.svg")],
            "render": ["render", path, str(tmp_path / "fig.svg")],
            "verify": ["verify", "doomed"]}[command]


@pytest.mark.parametrize("command", ["solve", "render", "verify"])
def test_solve_property_violation_exit_2(command, tmp_path, capsys,
                                         monkeypatch):
    def explode(*args, **kwargs):
        raise PropertyViolation("synthetic structural failure")

    monkeypatch.setattr(cli, "solve_domain", explode)
    monkeypatch.setitem(verify.SUITES, "doomed", explode)
    code, out, err = run_main(capsys, exit_code_argv(command, tmp_path))
    assert code == 2
    assert err == "property violation: synthetic structural failure\n"
    assert out == ""


@pytest.mark.parametrize("command", ["solve", "render", "verify"])
def test_library_error_exit_1(command, tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise NoRoot("synthetic bracket failure")

    monkeypatch.setattr(cli, "solve_domain", explode)
    monkeypatch.setitem(verify.SUITES, "doomed", explode)
    code, out, err = run_main(capsys, exit_code_argv(command, tmp_path))
    assert code == 1
    assert err == "error: synthetic bracket failure\n"
    assert out == ""


@pytest.mark.parametrize("command", ["solve", "render"])
def test_failing_check_exit_2_after_figure(command, tmp_path, capsys,
                                           monkeypatch):
    solve_domain = cli.solve_domain

    def failing(spec, allow_short=False):
        out = solve_domain(spec, allow_short)
        out.checks.append(Check("always_fails", False, "by design"))
        return out

    monkeypatch.setattr(cli, "solve_domain", failing)
    code, _, err = run_main(capsys, exit_code_argv(command, tmp_path))
    assert code == 2
    assert f"figure written to {tmp_path / 'fig.svg'}" in err
    assert (tmp_path / "fig.svg").read_text().startswith("<svg")


def test_failed_free_boundary_is_reported(tmp_path, capsys, monkeypatch):
    def explode(sol, st):
        raise PropertyViolation("synthetic free-boundary failure")

    monkeypatch.setattr(cli, "check_free_boundary", explode)
    out = cli.solve_domain(STRIP_SPEC)
    assert out.checks[-1] == Check("free_boundary", False,
                                   "synthetic free-boundary failure")
    path = write_spec(tmp_path, "strip.json", STRIP_SPEC)
    code, stdout, _ = run_main(capsys, ["solve", path])
    assert code == 2
    report = json.loads(stdout)
    assert report["checks"][-1]["pass"] is False


def test_verify_suite_failure_exit_2(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "doomed",
                        lambda: [Check("always_fails", False, "by design")])
    code, out, err = run_main(capsys, ["verify", "doomed"])
    assert code == 2
    assert "FAIL always_fails" in err
    report = json.loads(out)
    assert report["passed"] is False


def test_verify_unknown_suite(capsys):
    code, _, err = run_main(capsys, ["verify", "nope"])
    assert code == 1
    assert "unknown suite" in err


def test_verify_continuity_suite(capsys):
    code, out, _ = run_main(capsys, ["verify", "continuity"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["suite"] == "continuity"


def test_console_entry_point(tmp_path):
    path = write_spec(tmp_path, "square.json", {
        "type": "convex_polygon",
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]})
    proc = subprocess.run([sys.executable, "-m", "cheeger.cli", "solve", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["h"] == pytest.approx(2.0 + math.sqrt(math.pi), abs=1e-9)


# One report per branch of each cli.DOMAINS entry, generated before the
# branches were folded onto shared helpers: check names and verdicts in
# order, warnings, bounds keys, iterations, and h and r to 1e-12 relative.
STRIP_BOUNDS = ["asymptotic", "krepra_lower", "krepra_upper"]
RESIDUAL_RATIO = [("inner_cheeger_residual", True),
                  ("cheeger_ratio_identity", True)]
UNCERTIFIED = ("uncertified: normalized length below 9*pi/2, the four-arc "
               "structure and uniqueness are not guaranteed")
PINNED_REPORTS = {
    "certified_strip": (
        {"type": "strip", "halfwidth": 1.0,
         "spine": [{"kind": "arc", "length": 8.0, "curvature": 0.25},
                   {"kind": "line", "length": 8.0}]}, False,
        1.1006788277283732, 0.9085302404370235, 4, STRIP_BOUNDS,
        RESIDUAL_RATIO + [("strip_bounds", True), ("free_boundary", True)],
        []),
    "short_strip": (
        {"type": "strip", "halfwidth": 1.0,
         "spine": [{"kind": "line", "length": 10.0}]}, True,
        1.1630982442523121, 0.8597725986963738, 4, STRIP_BOUNDS,
        RESIDUAL_RATIO + [("free_boundary", True)], [UNCERTIFIED]),
    "square": (
        SQUARE_SPEC, False, 3.772453850906155, 0.26507945213426454, 4, None,
        RESIDUAL_RATIO + [("cheeger_set_contained", True)], []),
    "pinocchio_nose": (
        {"type": "pinocchio", "theta": "auto", "nose": 2.0}, False,
        1.9744507641138367, 0.506469960241736, 0, None,
        [("formula_geometry_agreement", True),
         ("self_cheeger_identity", True)], []),
    "pinocchio_theta_alpha": (
        {"type": "pinocchio", "theta": 0.5, "alpha": 0.2}, False,
        1.9810965232163236, 0.5047709630909317, 0, None,
        [("formula_geometry_agreement", True)],
        ["theta is not the self-Cheeger root: g(theta) = -1.684e-01",
         "alpha > 0 truncates the nose; the reported h is the region's own "
         "ratio"]),
    "two_ears_auto": (
        {"type": "two_ears"}, False, 1.9491539946875271, 0.5130430959921728,
        0, None, [("formula_geometry_agreement", True)], []),
    "two_ears_theta": (
        {"type": "two_ears", "theta": 0.7}, False, 1.8683193798758728,
        0.5352403934633692, 0, None, [("formula_geometry_agreement", True)],
        ["theta is not the self-Cheeger root"]),
    "bowtie_tight": (
        {"type": "bowtie", "gap": 0}, False, 5.708717858956236,
        0.17517068187756532, 0, None, [("bowtie_four_congruent_arcs", True)],
        ["candidate ratio from the four-arc construction; global optimality "
         "is not certified"]),
    "bowtie_loose": (
        {"type": "bowtie", "gap": 0.03}, False, 5.914404101792772,
        0.16907874111897095, 0, None, [("loose_bowtie_waist_angle", True)],
        ["loose bow-tie: reported h is the domain's own ratio, an upper "
         "bound only; the inner Cheeger formula fails here"]),
    "two_balls": (
        {"type": "two_balls"}, False, 2.0, 0.5, 0, None,
        [("two_balls_union_ratio", True), ("two_balls_component_ratios", True),
         ("two_balls_h", True),
         ("two_balls_union_of_balls_strictly_larger", True)], []),
}


def test_long_serpentine_strip_passes_every_check():
    # 430 boundary pieces with coordinates near 300: the two copies of each
    # junction differ by about coordinate*eps, which once pushed the area
    # residual past its bound
    sp = spine.serpentine_spine(0.3, 500.0)
    spec = {"type": "strip", "halfwidth": 1.0,
            "spine": [{"kind": "arc", "length": p.length,
                       "curvature": p.curvature} for p in sp.pieces]}
    out = cli.solve_domain(spec)
    assert [c for c in out.checks if not c.passed] == []
    # the root solve measures E_r without summing its 430 rows, so no
    # rounding accumulates: the residual stays far inside its bound
    assert out.residual <= solver.RESIDUAL_TOL * math.pi * out.r ** 2 / 100


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_pinned_per_branch(name):
    # every entry of the domain table has a pinned report
    assert {entry[0]["type"] for entry in PINNED_REPORTS.values()} == \
        set(cli.DOMAINS)
    spec, allow_short, h, r, iterations, bounds, checks, warnings = \
        PINNED_REPORTS[name]
    report = cli.build_report(cli.solve_domain(spec, allow_short=allow_short))
    assert [(c["name"], c["pass"]) for c in report["checks"]] == checks
    assert report["warnings"] == warnings
    assert (None if report["bounds"] is None
            else sorted(report["bounds"])) == bounds
    assert report["iterations"] == iterations
    assert report["h"] == pytest.approx(h, rel=1e-12)
    assert report["r"] == pytest.approx(r, rel=1e-12)


SPEC_FIELDS = ("type", "halfwidth", "spine", "vertices", "theta", "alpha",
               "nose", "gap")
near_number = (st.floats(-0.5, 2.0) | st.integers(-1, 3)
               | st.sampled_from([0.5 * math.pi, 1e-300, 1e300, "auto"]))
spine_piece = st.fixed_dictionaries(
    {"kind": st.sampled_from(["line", "arc", "arc", "spiral"]),
     "length": st.floats(-1.0, 20.0)},
    optional={"curvature": st.floats(-1.0, 1.0) | near_number})
near_strip = st.fixed_dictionaries(
    {"type": st.just("strip"), "halfwidth": st.floats(0.2, 1.0) | json_values,
     "spine": st.lists(spine_piece | json_values, min_size=1, max_size=3)})


def polygon_on_circle(angles, radius):
    return [[radius * math.cos(a), radius * math.sin(a)]
            for a in sorted(angles)]


near_polygon = st.fixed_dictionaries(
    {"type": st.just("convex_polygon"),
     "vertices": st.builds(polygon_on_circle,
                           st.lists(st.floats(0.0, 6.0), max_size=7),
                           st.floats(1e-3, 2.0))
     | st.lists(st.lists(st.floats(-2.0, 2.0) | json_values,
                         min_size=2, max_size=2) | json_values,
                min_size=3, max_size=5)})
# each gallery type draws only the optional fields it reads, so its specs
# reach its parser instead of stopping at the unknown-field error
GALLERY_TYPES = sorted(set(cli.DOMAINS) - {"strip", "convex_polygon"})
near_gallery = st.sampled_from(GALLERY_TYPES).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"type": st.just(kind)},
        optional={key: near_number for key in cli.DOMAINS[kind][1]}))
any_fields = st.fixed_dictionaries(
    {"type": st.sampled_from(sorted(cli.DOMAINS)) | json_values},
    optional={key: json_values for key in SPEC_FIELDS[1:]})
any_object = st.dictionaries(st.sampled_from(SPEC_FIELDS) | st.text(max_size=3),
                             json_values, max_size=4)


@given(near_strip | near_polygon | near_gallery | any_fields | any_object
       | json_values, st.booleans())
@settings(max_examples=150, deadline=None)
def test_whole_spec_fails_typed(spec, allow_short):
    try:
        json.dumps(cli.build_report(cli.solve_domain(spec, allow_short)))
    except (cli.SpecError, CheegerError):
        pass


# Short strips whose trims meet within 1e-12 of a spine piece at some depth
# of the root solve: the trimmed lower level curve was empty there, and
# indexing its last piece raised IndexError.  On both, the root bracket
# closes onto the depth where E_r stops existing, with f far from 0.
EMPTY_TRIM_SPECS = [
    ({"type": "strip", "halfwidth": 0.999999999999,
      "spine": [{"kind": "arc", "length": 0.5, "curvature": -0.5}]}, 1),
    ({"type": "strip", "halfwidth": 1.0,
      "spine": [{"kind": "line", "length": 0.5},
                {"kind": "arc", "length": 0.5,
                 "curvature": 0.999999999999}]}, 1),
]


@pytest.mark.parametrize("spec, expected", EMPTY_TRIM_SPECS)
def test_empty_trimmed_level_curve_is_a_typed_outcome(spec, expected,
                                                      tmp_path, capsys):
    path = write_spec(tmp_path, "strip.json", spec)
    code, out, err = run_main(capsys, ["solve", "--allow-short-strip", path])
    assert code == expected
    assert out == ""
    assert re.fullmatch(r"error: the sign change at depth \S+ borders "
                        r"infeasible depths\n", err)


short_strip_piece = st.tuples(st.sampled_from(["line", "arc", "arc"]),
                              st.floats(0.1, 3.0), st.floats(0.1, 1.0),
                              st.sampled_from([1.0, -1.0]))


@given(st.lists(short_strip_piece, min_size=1, max_size=2),
       st.sampled_from([1e-12, 1e-9, 1e-6]) | st.floats(0.0, 0.5))
@settings(max_examples=60, deadline=None)
def test_short_strips_near_the_curvature_limit_end_typed(pieces, gap):
    # one or two pieces of total length 0.1-3, halfwidth (1 - gap)/max|kappa|:
    # depths near the halfwidth, where the end trims meet
    spine_spec = [{"kind": "line", "length": length / len(pieces)}
                  if kind == "line" else
                  {"kind": "arc", "length": length / len(pieces),
                   "curvature": sign * kappa}
                  for kind, length, kappa, sign in pieces]
    kappa_max = max(abs(p.get("curvature", 0.0)) for p in spine_spec)
    spec = {"type": "strip", "halfwidth": (1.0 - gap) / (kappa_max or 1.0),
            "spine": spine_spec}
    try:
        json.dumps(cli.build_report(cli.solve_domain(spec, allow_short=True)))
    except (cli.SpecError, CheegerError):
        pass


def test_render_gallery_script(tmp_path, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "render_gallery.py"
    module_spec = importlib.util.spec_from_file_location("render_gallery",
                                                         script)
    render_gallery = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(render_gallery)
    render_gallery.main(str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        render_gallery.FIGURES)
    assert len(render_gallery.FIGURES) == 5
    for name in render_gallery.FIGURES:
        assert (tmp_path / name).read_text().startswith("<svg")
