import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from curveflow import __version__
from curveflow import cli
from curveflow.fixtures import load_fixtures
from curveflow.gridfn import GridFunction1D, GridFunction2D, write_grid_function


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str) -> dict:
    for line in reversed(stdout.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise AssertionError(f"no JSON line in output: {stdout!r}")


def test_check_curve_passes_alpha_two(capsys):
    code, out, _ = run_cli(capsys, "check-curve", "--curve", "power", "--alpha", "2")
    assert code == 0
    d = last_json(out)
    assert d["all_pass"] is True
    assert d["constants"]["c1"] == pytest.approx(2.0, rel=1e-6)
    assert d["constants"]["c4"] == pytest.approx(2.0, rel=1e-6)


def test_check_curve_alpha_one_fails_condition_iii(capsys):
    code, out, _ = run_cli(capsys, "check-curve", "--curve", "power", "--alpha", "1")
    assert code == 1
    assert "condition_iii" in out
    assert last_json(out)["condition_iii"]["passed"] is False


def test_carleson_inline_indicator_matches_log(capsys):
    code, out, _ = run_cli(capsys, "carleson", "--u", "const:0",
                           "--f", "indicator:-1:1", "--at", "2")
    assert code == 0
    value = float(out.strip().splitlines()[0])
    assert abs(value - math.log(3.0)) < 1e-2


def test_carleson_at_outside_grid_is_config_error(capsys):
    code, _, err = run_cli(capsys, "carleson", "--u", "const:0",
                           "--f", "indicator:-1:1", "--at", "50")
    assert code == 2
    assert "outside the grid" in err


def test_carleson_strict_coverage_gate(capsys):
    # a gaussian this wide leaves visible mass at the grid edge
    code, _, err = run_cli(capsys, "carleson", "--u", "const:0",
                           "--f", "gauss:0:4", "--at", "1")
    assert code == 2
    assert "cover" in err
    code2, out, _ = run_cli(capsys, "carleson", "--u", "const:0",
                            "--f", "gauss:0:4", "--at", "1", "--no-strict")
    assert code2 == 0


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as e:
        cli.main(["frobnicate"])
    assert e.value.code == 2


def test_transform_requires_input(capsys):
    code, _, err = run_cli(capsys, "transform")
    assert code == 2
    assert "--f" in err


def test_config_schema_rejects_unknown_keys(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # jobs was a field until --jobs (which changed nothing) was deleted
    bad.write_text('{"bogus_key": 1, "jobs": 2}')
    code, _, err = run_cli(capsys, "norm-sweep", "--config", str(bad))
    assert code == 2
    assert "bogus_key" in err and "jobs" in err


def test_bump_check_default_window(capsys):
    code, out, _ = run_cli(capsys, "bump-check", "--points", "20001")
    assert code == 0
    assert last_json(out)["max_deviation"] < 1e-10


def test_bump_check_refuses_an_infinite_window(capsys):
    code, _, err = run_cli(capsys, "bump-check", "--hi", "inf")
    assert code == 2
    assert "need 0 < lo < hi < inf" in err


def test_geometry_worked_example(capsys):
    code, out, _ = run_cli(capsys, "geometry", "--curve", "power", "--alpha", "2",
                           "--u-abs", "1.0", "--l", "0", "--k", "0", "--tau", "0")
    assert code == 0
    d = last_json(out)
    assert d["N_k"] == 3
    assert d["interval_length"] == pytest.approx(0.5, rel=1e-12)
    assert d["sigma_values"] == pytest.approx([1 / 7, 4 / 9, 9 / 11], rel=1e-12)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_geometry_refuses_a_non_finite_u_abs(capsys, value):
    code, _, err = run_cli(capsys, "geometry", "--u-abs", value)
    assert code == 2
    assert f"u_abs must be positive and finite, got {value}" in err


@pytest.mark.parametrize("flag,value", [("--s", "nan"), ("--s", "0.5,inf"), ("--u-x", "nan"),
                                        ("--u-z", "inf")])
def test_kernel_decay_refuses_non_finite_phase_data(capsys, flag, value):
    code, out, err = run_cli(capsys, "kernel-decay", flag, value)
    assert code == 2
    assert f"PhaseParams.{flag[2:].replace('-', '_')} is" in err and "must be finite" in err
    assert "FAIL" not in out


def test_geometry_infeasible_bracket_fails(capsys):
    code, out, _ = run_cli(capsys, "geometry", "--curve", "power", "--alpha", "2",
                           "--u-abs", "0.4", "--l", "0", "--k", "0", "--tau", "0")
    assert code == 1
    assert "FAIL" in out and "no admissible interval count" in out


def test_config_hash_ignores_output_directory(tmp_path, capsys):
    def config_hash(out, *extra):
        code, _, _ = run_cli(capsys, "geometry", "--out", str(tmp_path / out), *extra)
        assert code == 0
        return json.loads((tmp_path / out / "manifest.json").read_text())["config_hash"]

    h1 = config_hash("h1")
    assert config_hash("h2") == h1
    assert config_hash("h3", "--k", "1") != h1


def test_lemma_check_small_run(capsys):
    code, out, _ = run_cli(capsys, "lemma-check", "--seed", "9", "--draws", "40")
    assert code == 0
    d = last_json(out)
    assert d["oscillation_bound_failures"] == 0
    assert d["matrix_lower_bound_failures"] == 0
    assert d["interval_count_unstable"] == 0
    assert d["interval_count_max_seen"] <= d["interval_count_gate"]
    assert d["seed"] == 9


def test_norm_sweep_artifacts_and_reproducibility(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "curve": {"family": "power", "alpha": 2.0},
        "family": {"generator": "gaussians", "count": 2, "seed": 11,
                   "grid": [-8.0, 8.0, 401]},
        "modulations": ["const:0.5", {"kind": "piecewise",
                                      "breakpoints": [0.0], "levels": [1.0, 3.0]}],
        "p": 2.0,
        "threshold": 100.0,
        "seed": 77,
    }))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1, _, _ = run_cli(capsys, "norm-sweep", "--config", str(cfg), "--out", str(out1))
    code2, _, _ = run_cli(capsys, "norm-sweep", "--config", str(cfg), "--out", str(out2))
    assert code1 == 0 and code2 == 0
    assert (out1 / "norm-sweep.csv").read_bytes() == (out2 / "norm-sweep.csv").read_bytes()
    r1 = json.loads((out1 / "norm-sweep.json").read_text())
    r2 = json.loads((out2 / "norm-sweep.json").read_text())
    r1.pop("environment"), r2.pop("environment")
    assert r1 == r2
    man = json.loads((out1 / "manifest.json").read_text())
    assert man["tool"] == "curveflow"
    assert man["seed"] == 77
    assert man["subcommand"] == "norm-sweep"
    assert "norm-sweep.json" in man["artifacts"]
    assert len(man["config_hash"]) == 16
    assert man["wall_time_s"] > 0


def test_non_finite_input_file_exits_2(tmp_path, capsys):
    xs = np.linspace(-4.0, 4.0, 161)
    vals = np.exp(-xs**2) + 0j
    vals[80] = np.nan
    p = tmp_path / "f.cfgf"
    write_grid_function(str(p), GridFunction1D(-4.0, 0.05, vals))
    code, _, err = run_cli(capsys, "carleson", "--u", "const:0", "--f", str(p), "--at", "1")
    assert code == 2
    assert "NaN or inf" in err


@pytest.mark.parametrize("text", [
    "# grid1d 0.0 0.1\n0,0\n1,0\n",
    "# grid1d 0.0 0.1 3\n0\n1\n2\n",
], ids=["short-header", "one-column"])
def test_malformed_csv_input_exits_2(tmp_path, capsys, text):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    code, _, err = run_cli(capsys, "carleson", "--f", str(p))
    assert code == 2
    assert str(p) in err


def test_fixtures_env_override(tmp_path, capsys, monkeypatch):
    fx = tmp_path / "fx.json"
    # a gate no fitted exponent can beat forces the verdict failure branch
    fx.write_text(json.dumps({"shift_growth_b_max": -10.0}))
    monkeypatch.setenv("CURVEFLOW_FIXTURES", str(fx))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sigmas": [0.0, 4.0],
        "family": {"generator": "indicators", "count": 2, "seed": 3,
                   "grid": [-8.0, 8.0, 1025]},
        "p": 2.0,
    }))
    code, out, _ = run_cli(capsys, "shift-growth", "--config", str(cfg))
    assert code == 1
    assert "FAIL" in out and "growth exponent" in out
    monkeypatch.delenv("CURVEFLOW_FIXTURES")
    code2, out2, _ = run_cli(capsys, "shift-growth", "--config", str(cfg))
    assert code2 == 0


def test_fixtures_env_beats_explicit_path(tmp_path, capsys, monkeypatch):
    lax, strict = tmp_path / "lax.json", tmp_path / "strict.json"
    lax.write_text(json.dumps({"shift_growth_b_max": 10.0}))
    strict.write_text(json.dumps({"shift_growth_b_max": -10.0}))
    monkeypatch.setenv("CURVEFLOW_FIXTURES", str(strict))
    assert load_fixtures(str(lax)) == {"shift_growth_b_max": -10.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sigmas": [0.0, 4.0],
        "family": {"generator": "indicators", "count": 2, "seed": 3,
                   "grid": [-8.0, 8.0, 1025]},
        "p": 2.0,
    }))
    argv = ["shift-growth", "--config", str(cfg), "--fixtures", str(lax)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1 and "growth exponent" in out
    monkeypatch.delenv("CURVEFLOW_FIXTURES")
    assert load_fixtures(str(lax)) == {"shift_growth_b_max": 10.0}
    code2, _, _ = run_cli(capsys, *argv)
    assert code2 == 0


def test_module_entry_point_version():
    # the child needs the repo's src/ on its path when curveflow is not installed
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "curveflow", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert __version__ in proc.stdout


def test_lemma_check_missing_frozen_gate_exits_2(tmp_path, capsys, monkeypatch):
    fx = tmp_path / "fx.json"
    fx.write_text(json.dumps({"shift_growth_b_max": 2.0}))
    monkeypatch.setenv("CURVEFLOW_FIXTURES", str(fx))
    code, _, err = run_cli(capsys, "lemma-check", "--draws", "2")
    assert code == 2
    assert "interval_count_max" in err


def test_missing_fixtures_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nowhere.json"
    code, _, err = run_cli(capsys, "shift-growth", "--fixtures", str(missing))
    assert code == 2
    assert str(missing) in err


def test_non_finite_modulation_exits_2(capsys):
    code, _, err = run_cli(capsys, "carleson", "--f", "indicator:-1:1", "--u", "const:nan")
    assert code == 2
    assert "NaN or inf" in err


@pytest.mark.parametrize("flag,value", [("--step", "0"), ("--step", "-0.01"), ("--span", "nan")],
                         ids=["step-zero", "step-negative", "span-nan"])
def test_inline_grid_refuses_bad_span_or_step(capsys, flag, value):
    code, _, err = run_cli(capsys, "carleson", "--f", "gauss:0:1", flag, value)
    assert code == 2
    assert f"inline grid {flag[2:]} must be finite and positive" in err


# a flag outside the schema is a usage error, never a pass or a failed verdict
@pytest.mark.parametrize("argv", [
    ["lemma-check", "--draws", "0"],
    ["bump-check", "--points", "3"],
    ["bump-check", "--tol", "-1"],
    ["kernel-decay", "--r1", "-1"],
], ids=["draws-zero", "points-three", "tol-negative", "r1-negative"])
def test_flags_outside_the_schema_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "config rejected by schema" in err
    assert out == ""


@pytest.mark.parametrize("kind", ["constant", "piecewise", "polynomial", "grid"])
def test_modulation_object_without_its_field_exits_2(tmp_path, capsys, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u": {"kind": kind}}))
    code, _, err = run_cli(capsys, "carleson", "--f", "indicator:-1:1", "--config", str(cfg))
    assert code == 2
    assert f"bad modulation spec {{'kind': '{kind}'}}: missing field" in err


def test_modulation_steps_file_must_hold_an_object(tmp_path, capsys):
    steps = tmp_path / "steps.json"
    steps.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "carleson", "--f", "indicator:-1:1", "--u", f"steps:{steps}")
    assert code == 2
    assert f"bad modulation spec 'steps:{steps}'" in err


def test_modulation_grid_file_must_be_1d(tmp_path, capsys):
    g = tmp_path / "u2d.csv"
    write_grid_function(str(g), GridFunction2D(-1.0, 0.5, -1.0, 0.5, np.ones((5, 5))))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u": {"kind": "grid", "path": str(g)}}))
    for argv in (["--u", f"grid:{g}"], ["--config", str(cfg)]):
        code, _, err = run_cli(capsys, "carleson", "--f", "indicator:-1:1", *argv)
        assert code == 2
        assert "must be 1D, got GridFunction2D" in err


# every subcommand at its defaults; the two transforms need an input and
# are the two that take --no-strict
ALL_SUBCOMMANDS = {
    "check-curve": [], "bump-check": [], "kernel-decay": [], "lemma-check": [],
    "norm-sweep": [], "sk-decay": [], "annulus": [], "square-fn": [],
    "shift-growth": [], "geometry": [], "dominate": [],
    "transform": ["--f", "f2d.csv", "--no-strict"],
    "carleson": ["--f", "indicator:-1:1", "--no-strict"],
}


@pytest.mark.parametrize("name", sorted(ALL_SUBCOMMANDS))
def test_every_subcommand_runs_end_to_end(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    x = -1.0 + 0.25 * np.arange(9)
    vals = np.exp(-10.0 * (x[:, None] ** 2 + x[None, :] ** 2))
    write_grid_function("f2d.csv", GridFunction2D(-1.0, 0.25, -1.0, 0.25, vals))
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, name, *ALL_SUBCOMMANDS[name], "--out", str(out))
    assert code == 0
    assert isinstance(last_json(stdout), dict)
    man = json.loads((out / "manifest.json").read_text())
    assert set(man["artifacts"]) | {"manifest.json"} == {p.name for p in out.iterdir()}
    assert "no_strict" not in man["config"]
    if "--no-strict" in ALL_SUBCOMMANDS[name]:
        assert man["config"]["strict"] is False
