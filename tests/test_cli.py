import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheeger import cli
from cheeger.errors import CheegerError
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


def test_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_main(capsys, ["solve", str(path)])
    assert code == 1
    assert "line" in err


def test_schema_errors_exit_1(tmp_path, capsys):
    cases = [
        {"type": "strip", "spine": [{"kind": "line", "length": 5}]},
        {"type": "strip", "halfwidth": 1.0,
         "spine": [{"kind": "arc", "length": 5}]},
        {"type": "strip", "halfwidth": 2.0,
         "spine": [{"kind": "arc", "length": 5, "curvature": 0.6}]},
        {"type": "convex_polygon", "vertices": [[0, 0], [1, 0]]},
        {"type": "wat"},
        {"type": "pinocchio", "alpha": "x"},
        {"type": "pinocchio", "alpha": True},
        {"type": "pinocchio", "nose": [1]},
        {"type": "bowtie", "gap": "wide"},
        {"type": "two_ears", "theta": 10 ** 400},
        {"type": "convex_polygon",
         "vertices": [[0, 0], [1, 0], [0, 10 ** 400]]},
        {"type": "strip", "halfwidth": 1.0,
         "spine": [{"kind": "line", "length": 15, "curvature": "a"}]},
    ]
    for i, spec in enumerate(cases):
        path = write_spec(tmp_path, f"case{i}.json", spec)
        code, _, err = run_main(capsys, ["solve", path])
        assert code == 1, spec
        assert err.startswith("error:")


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


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path, "strip.json", STRIP_SPEC)
    monkeypatch.setenv("CHEEGER_TOL", "1e-6")
    code, out, _ = run_main(capsys, ["solve", path])
    assert code == 0
    monkeypatch.setenv("CHEEGER_TOL", "banana")
    code, _, _ = run_main(capsys, ["solve", path])
    assert code == 1


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


def test_solve_property_violation_exit_2(tmp_path, capsys, monkeypatch):
    from cheeger.errors import PropertyViolation

    def explode(spec, allow_short=False):
        raise PropertyViolation("synthetic structural failure")

    monkeypatch.setattr(cli, "solve_domain", explode)
    path = write_spec(tmp_path, "strip.json", STRIP_SPEC)
    code, _, err = run_main(capsys, ["solve", path])
    assert code == 2
    assert "property violation" in err


def test_verify_suite_failure_exit_2(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "doomed",
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
