"""Command-line front end.

One executable, one subcommand per experiment.  Every run can be driven
from a JSON config file (validated against ``data/config_schema.json``);
command-line flags override config fields.  Exit status: 0 when every
verdict passes, 1 when a verdict fails (the failing invariant is named on
stdout), 2 on usage or configuration errors and on input with NaN or inf
samples.

Artifacts: with ``--out DIR`` each run writes ``<subcommand>.json`` (the
report), a per-sample CSV where the experiment has rows, and
``manifest.json`` (tool version, config hash, seed, wall time, artifact
list).  Without ``--out`` the report goes to stdout only.

The thresholds fixture defaults to the packaged ``data/thresholds.json``;
a ``--fixtures`` flag or config field can point elsewhere, and the
environment variable ``CURVEFLOW_FIXTURES`` overrides both.  Gate values
written as ``"fixtures:<key>"`` are looked up in that file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import pathlib
import sys
import time
from typing import Optional

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from . import __version__
from .curves import Curve, builtin_curve, check_conditions
from .dyadic import make_bump
from .errors import CoverageError, GeometryError, HypothesisError, NonFiniteError
from .fixtures import fixtures_path, load_fixtures
from .gridfn import (
    GridFunction1D,
    GridFunction2D,
    ModulationField,
    read_grid_function,
    write_grid_function,
)
from .harness import (
    TestFunctionFamily,
    _default_cfg,
    covering_geometry,
    decay_experiment,
    domination_experiment,
    shifted_growth_probe,
    single_annulus_experiment,
    square_function_experiment,
    sweep_modulations,
)
from .kernel import (
    PhaseParams,
    interval_count,
    matrix_lower_bound_check,
    van_der_corput_check,
    verify_kernel_bound,
)
from .operators import PVConfig, carleson_apply, hilbert_variable_apply

_DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config plumbing


def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)!r}")


def _dumps(obj, indent=None) -> str:
    return json.dumps(obj, indent=indent, sort_keys=True, default=_json_default)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    p = pathlib.Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if jsonschema is not None:
        schema = json.loads((_DATA_DIR / "config_schema.json").read_text())
        try:
            jsonschema.validate(cfg, schema)
        except jsonschema.ValidationError as e:
            raise ConfigError(f"config rejected by schema: {e.message}") from e
    return cfg


def _merged(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    cfg = dict(defaults)
    cfg.update(_load_config(getattr(args, "config", None)))
    for key, val in vars(args).items():
        if key in ("func", "config", "command") or val is None:
            continue
        cfg[key] = val
    return cfg


def _fixtures_path(cfg: dict) -> pathlib.Path:
    return fixtures_path(cfg.get("fixtures"))


def _load_fixtures(cfg: dict) -> dict:
    path = _fixtures_path(cfg)
    if not path.is_file():
        raise ConfigError(f"thresholds fixture not found: {path}")
    return load_fixtures(cfg.get("fixtures"))


def _resolve_gate(value, cfg: dict):
    """A numeric gate, a 'fixtures:<key>' reference, or None (no gate)."""
    if value is None:
        return None
    if isinstance(value, str):
        if not value.startswith("fixtures:"):
            raise ConfigError(f"gate must be a number or 'fixtures:<key>', got {value!r}")
        key = value.split(":", 1)[1]
        fixtures = _load_fixtures(cfg)
        if key not in fixtures:
            raise ConfigError(f"fixture key {key!r} not in {_fixtures_path(cfg)}")
        return float(fixtures[key])
    return float(value)


def _curve_from(cfg: dict) -> Curve:
    spec = cfg.get("curve", {"family": "power", "alpha": 2.0})
    if isinstance(spec, str):
        spec = {"family": spec, "alpha": cfg.get("alpha")}
    fam = spec.get("family")
    alpha = spec.get("alpha")
    if cfg.get("alpha") is not None:
        alpha = cfg["alpha"]
    if fam is None:
        raise ConfigError("curve spec needs a 'family'")
    return builtin_curve(fam, alpha)


def _pv_from(cfg: dict) -> PVConfig:
    base = _default_cfg()
    pv = cfg.get("pv", {})
    eps = cfg.get("eps", pv.get("epsilon", base.epsilon))
    radius = cfg.get("radius", pv.get("radius", base.radius))
    substep = cfg.get("substep", pv.get("substep", base.substep))
    return PVConfig(epsilon=float(eps), radius=float(radius), substep=float(substep))


def _family_from(cfg: dict, key: str = "family") -> TestFunctionFamily:
    spec = cfg.get(key)
    if spec is None:
        raise ConfigError(f"missing function family block {key!r}")
    try:
        grid = spec["grid"]
        if isinstance(grid[0], (list, tuple)):
            grid = tuple(tuple(ax) for ax in grid)
        else:
            grid = tuple(grid)
        return TestFunctionFamily(spec["generator"], int(spec["count"]),
                                  int(spec["seed"]), grid)
    except (KeyError, TypeError, IndexError) as e:
        raise ConfigError(f"bad family block: {e}") from e


def _modulation_from(spec) -> ModulationField:
    if isinstance(spec, ModulationField):
        return spec
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "constant":
            return ModulationField.constant(spec["value"])
        if kind == "piecewise":
            return ModulationField.piecewise(spec["breakpoints"], spec["levels"])
        if kind == "polynomial":
            return ModulationField.polynomial(spec["coeffs"])
        if kind == "grid":
            return ModulationField.from_grid(read_grid_function(spec["path"]))
        raise ConfigError(f"unknown modulation kind {kind!r}")
    txt = str(spec)
    kind, sep, rest = txt.partition(":")
    if not sep:
        raise ConfigError(f"modulation spec needs 'kind:params', got {txt!r}")
    try:
        if kind == "const":
            return ModulationField.constant(float(rest))
        if kind == "poly":
            return ModulationField.polynomial([float(c) for c in rest.split(",")])
        if kind == "steps":
            data = json.loads(pathlib.Path(rest).read_text())
            return ModulationField.piecewise(data["breakpoints"], data["levels"])
        if kind == "grid":
            return ModulationField.from_grid(read_grid_function(rest))
    except (ValueError, OSError, KeyError) as e:
        raise ConfigError(f"bad modulation spec {txt!r}: {e}") from e
    raise ConfigError(f"unknown modulation kind {kind!r} in {txt!r}")


def _inline_function(spec: str, span: float, step: float) -> GridFunction1D:
    """Inline 1D test inputs: indicator:a:b or gauss:center:width.

    Indicator edges that land on grid nodes get the midpoint value 1/2,
    which keeps the sampled jump centred and the quadrature second order.
    """
    parts = spec.split(":")
    n = int(round(2.0 * span / step)) + 1
    xs = -span + step * np.arange(n)
    if parts[0] == "indicator" and len(parts) == 3:
        a, b = float(parts[1]), float(parts[2])
        if not a < b:
            raise ConfigError("indicator needs a < b")
        vals = ((xs > a) & (xs < b)).astype(float)
        edge = np.isclose(xs, a, atol=step * 1e-6) | np.isclose(xs, b, atol=step * 1e-6)
        vals[edge] = 0.5
        return GridFunction1D(-span, step, vals)
    if parts[0] == "gauss" and len(parts) == 3:
        c, w = float(parts[1]), float(parts[2])
        if w <= 0:
            raise ConfigError("gauss needs width > 0")
        return GridFunction1D(-span, step, np.exp(-(((xs - c) / w) ** 2)))
    raise ConfigError(f"unrecognized inline function {spec!r}")


def _function_1d(cfg: dict) -> GridFunction1D:
    spec = cfg.get("f")
    if spec is None:
        raise ConfigError("missing input function: pass --f FILE or an inline spec")
    if ":" in str(spec) and not pathlib.Path(spec).is_file():
        return _inline_function(str(spec), float(cfg.get("span", 6.0)),
                                float(cfg.get("step", 5e-3)))
    f = read_grid_function(str(spec))
    if not isinstance(f, GridFunction1D):
        raise ConfigError("expected a 1D grid-function file")
    return f


# ---------------------------------------------------------------------------
# artifact emission


def _emit(cfg: dict, name: str, report: dict, wall: float,
          csv_spec: Optional[tuple] = None) -> None:
    outdir = cfg.get("out")
    if outdir is None:
        return
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    rp = out / f"{name}.json"
    rp.write_text(_dumps(report, indent=2) + "\n")
    artifacts.append(rp.name)
    if csv_spec is not None:
        header, rows = csv_spec
        cp = out / f"{name}.csv"
        with cp.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        artifacts.append(cp.name)
    public = {k: v for k, v in cfg.items() if k not in ("func",)}
    manifest = {
        "tool": "curveflow",
        "version": __version__,
        "subcommand": name,
        "seed": cfg.get("seed"),
        "fixtures": str(_fixtures_path(cfg)),
        "config": public,
        "config_hash": hashlib.sha256(_dumps(public).encode()).hexdigest()[:16],
        "wall_time_s": wall,
        "artifacts": artifacts,
    }
    (out / "manifest.json").write_text(_dumps(manifest, indent=2) + "\n")


def _finish(cfg: dict, name: str, report: dict, wall: float,
            csv_spec: Optional[tuple] = None, failures: Optional[list] = None) -> int:
    report = dict(report)
    report.setdefault("seed", cfg.get("seed"))
    _emit(cfg, name, report, wall, csv_spec)
    print(_dumps(report))
    if failures:
        for inv in failures:
            print(f"FAIL {inv}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_curve(args) -> int:
    cfg = _merged(args, {})
    curve = _curve_from(cfg)
    t0 = time.perf_counter()
    rep = check_conditions(curve)
    wall = time.perf_counter() - t0
    d = rep.to_dict()
    failures = []
    for cond in ("condition_i", "condition_ii", "condition_iii", "condition_iv"):
        if not d[cond]["passed"]:
            failures.append(f"curve {cond} ({d[cond]['detail']})")
    return _finish(cfg, "check-curve", d, wall, failures=failures)


def cmd_bump_check(args) -> int:
    cfg = _merged(args, {"lo": 2.0**-8, "hi": 2.0**8, "points": 50001, "tol": 1e-10})
    lo, hi = float(cfg["lo"]), float(cfg["hi"])
    if not 0 < lo < hi:
        raise ConfigError("need 0 < lo < hi")
    bump = make_bump()
    ts = np.geomspace(lo, hi, int(cfg["points"]))
    l_min = int(math.floor(math.log2(lo))) - 2
    l_max = int(math.ceil(math.log2(hi))) + 2
    t0 = time.perf_counter()
    acc = np.zeros_like(ts)
    for l in range(l_min, l_max + 1):
        acc += bump.dilated(l, ts)
    dev = float(np.max(np.abs(acc - 1.0)))
    wall = time.perf_counter() - t0
    report = {
        "max_deviation": dev,
        "window": [lo, hi],
        "points": int(cfg["points"]),
        "levels": [l_min, l_max],
        "tol": float(cfg["tol"]),
        "pass": dev <= float(cfg["tol"]),
    }
    failures = [] if report["pass"] else [
        f"partition-of-unity deviation {dev:g} exceeds {cfg['tol']:g}"]
    return _finish(cfg, "bump-check", report, wall, failures=failures)


def _transform_stats(values: np.ndarray) -> dict:
    a = np.abs(values)
    return {"max_abs": float(a.max()), "mean_abs": float(a.mean())}


def cmd_transform(args) -> int:
    cfg = _merged(args, {"u": "const:1", "strict": True})
    if cfg.get("no_strict"):
        cfg["strict"] = False
    if cfg.get("f") is None:
        raise ConfigError("transform needs --f FILE (a 2D grid function)")
    f = read_grid_function(str(cfg["f"]))
    if not isinstance(f, GridFunction2D):
        raise ConfigError("transform expects a 2D grid-function file")
    curve = _curve_from(cfg)
    u = _modulation_from(cfg["u"])
    pv = _pv_from(cfg)
    t0 = time.perf_counter()
    g = hilbert_variable_apply(f, u, curve, pv, strict=bool(cfg["strict"]))
    wall = time.perf_counter() - t0
    report = {"pv": {"epsilon": pv.epsilon, "radius": pv.radius, "substep": pv.substep},
              "curve": curve.label, **_transform_stats(g.values)}
    if cfg.get("out") is not None:
        out = pathlib.Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        write_grid_function(str(out / "transform_output.csv"), g)
        report["output"] = "transform_output.csv"
    return _finish(cfg, "transform", report, wall)


def cmd_carleson(args) -> int:
    cfg = _merged(args, {"u": "const:0", "strict": True})
    if cfg.get("no_strict"):
        cfg["strict"] = False
    f = _function_1d(cfg)
    curve = _curve_from(cfg)
    u = _modulation_from(cfg["u"])
    pv = _pv_from(cfg)
    t0 = time.perf_counter()
    g = carleson_apply(f, u, curve, pv, strict=bool(cfg["strict"]))
    wall = time.perf_counter() - t0
    report = {"pv": {"epsilon": pv.epsilon, "radius": pv.radius, "substep": pv.substep},
              "curve": curve.label, **_transform_stats(g.values)}
    at = cfg.get("at")
    if at is not None:
        x = float(at)
        idx = int(round((x - g.origin) / g.step))
        if not 0 <= idx < g.n:
            raise ConfigError(f"--at {x:g} is outside the grid")
        v = complex(g.values[idx])
        report["at"] = g.origin + idx * g.step
        report["value_re"] = v.real
        report["value_im"] = v.imag
        if abs(v.imag) <= 1e-9 * max(1.0, abs(v.real)):
            print(f"{v.real:.12g}")
        else:
            print(f"{v.real:.12g}{v.imag:+.12g}j")
    if cfg.get("out") is not None:
        out = pathlib.Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        write_grid_function(str(out / "carleson_output.csv"), g)
        report["output"] = "carleson_output.csv"
    return _finish(cfg, "carleson", report, wall)


def _parse_k_range(spec) -> list:
    if isinstance(spec, (list, tuple)):
        return sorted({int(k) for k in spec})
    txt = str(spec)
    if ":" in txt:
        lo, hi = txt.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return sorted({int(k) for k in txt.split(",")})


def cmd_kernel_decay(args) -> int:
    cfg = _merged(args, {"k_range": "2:6", "s": "0.5,2.0", "u_x": 1.0, "u_z": 1.0,
                         "n_x": 0, "n_z": 0, "r1": 1.0 / 8.0, "r2": 7.0 / 16.0})
    curve = _curve_from(cfg)
    ks = _parse_k_range(cfg["k_range"])
    if any(k < 0 for k in ks):
        raise ConfigError("k_range must be nonnegative")
    s_vals = cfg["s"]
    if isinstance(s_vals, str):
        s_vals = [float(v) for v in s_vals.split(",")]
    samples = [
        PhaseParams(k, int(cfg["n_x"]), int(cfg["n_z"]), float(cfg["u_x"]),
                    float(cfg["u_z"]), float(s), curve)
        for k in ks for s in s_vals
    ]
    t0 = time.perf_counter()
    rep = verify_kernel_bound(curve, samples, r1=float(cfg["r1"]), r2=float(cfg["r2"]))
    wall = time.perf_counter() - t0
    d = rep.to_dict()
    rows = [(s["k"], s["s"], s["lhs"], s["shape"], s["ratio"]) for s in d["samples"]]
    unbounded = [s for s in d["samples"] if math.isinf(s["ratio"])]
    d["verdicts"] = {
        "bounded_ratios": not unbounded,
        "replay_pass": d["all_pass"],
    }
    failures = []
    if unbounded:
        failures.append("kernel mass outside the declared decay support "
                        f"({len(unbounded)} samples with shape 0, lhs > 0)")
    return _finish(cfg, "kernel-decay", d, wall,
                   csv_spec=(("k", "s", "lhs", "shape", "ratio"), rows),
                   failures=failures)


def _lemma_vdc_draw(rng) -> dict:
    kind = int(rng.integers(3))
    length = float(rng.uniform(0.5, 4.0))
    if kind == 0:
        a = float(rng.uniform(-3.0, 3.0))
        lam = float(rng.uniform(1.0, 50.0)) * float(rng.choice([-1.0, 1.0]))
        mu = float(rng.uniform(-3.0, 3.0))
        pe = lambda t: (lam * t + mu, np.full_like(t, lam), np.zeros_like(t))
        return van_der_corput_check(pe, a, a + length)
    # keep 0 out of the window so phi' cannot vanish
    a = float(rng.uniform(0.3, 3.0)) * float(rng.choice([-1.0, 1.0]))
    lo, hi = (a, a + length) if a > 0 else (a - length, a)
    lam = float(rng.uniform(1.0, 20.0)) * float(rng.choice([-1.0, 1.0]))
    if kind == 1:
        pe = lambda t: (lam * t * t, 2.0 * lam * t, np.full_like(t, 2.0 * lam))
    else:
        pe = lambda t: (lam * t**3, 3.0 * lam * t * t, 6.0 * lam * t)
    return van_der_corput_check(pe, lo, hi)


def cmd_lemma_check(args) -> int:
    cfg = _merged(args, {"seed": 0, "draws": 200})
    curve = _curve_from(cfg)
    draws = int(cfg["draws"])
    fixtures = _load_fixtures(cfg)
    count_max = int(fixtures.get("interval_count_max", 4))
    rng = np.random.default_rng(int(cfg["seed"]))
    t0 = time.perf_counter()
    vdc_fail = sum(0 if _lemma_vdc_draw(rng)["pass"] else 1 for _ in range(draws))
    mat_fail = 0
    for _ in range(draws):
        while True:
            A = rng.standard_normal((2, 2))
            if abs(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) > 1e-2:
                break
        x = rng.standard_normal(2)
        if not matrix_lower_bound_check(A, x)["pass"]:
            mat_fail += 1
    worst = 0
    unstable = 0
    margin_flips = 0
    for _ in range(draws):
        a, b = rng.uniform(-20.0, 20.0, 2)
        c = float(rng.uniform(-10.0, 10.0))
        d = float(10.0 ** rng.uniform(-2.0, 1.5))
        n1 = interval_count(curve, a, b, c, d, (-16.0, 16.0), 4096)
        n2 = interval_count(curve, a, b, c, d, (-16.0, 16.0), 8192)
        worst = max(worst, n1, n2)
        # the puncture margin (10 grid steps) shrinks with resolution and
        # can reveal one extra run; anything beyond +-1 is real instability
        if abs(n1 - n2) > 1:
            unstable += 1
        elif n1 != n2:
            margin_flips += 1
    wall = time.perf_counter() - t0
    report = {
        "draws": draws,
        "oscillation_bound_failures": vdc_fail,
        "matrix_lower_bound_failures": mat_fail,
        "interval_count_max_seen": worst,
        "interval_count_gate": count_max,
        "interval_count_unstable": unstable,
        "interval_count_margin_flips": margin_flips,
    }
    failures = []
    if vdc_fail:
        failures.append(f"oscillation bound violated on {vdc_fail}/{draws} draws")
    if mat_fail:
        failures.append(f"matrix lower bound violated on {mat_fail}/{draws} draws")
    if worst > count_max:
        failures.append(f"interval count {worst} exceeds frozen bound {count_max}")
    if unstable:
        failures.append(
            f"interval count moved by more than 1 under refinement on {unstable} draws")
    return _finish(cfg, "lemma-check", report, wall, failures=failures)


def cmd_norm_sweep(args) -> int:
    cfg = _merged(args, {
        "curve": {"family": "power", "alpha": 2.0},
        "family": {"generator": "gaussians", "count": 2, "seed": 11,
                   "grid": [-8.0, 8.0, 401]},
        "modulations": ["const:0.5", "const:4.0"],
        "p": 2.0,
        "strict": False,
    })
    curve = _curve_from(cfg)
    pv = _pv_from(cfg)
    fam = _family_from(cfg)
    us = [_modulation_from(s) for s in cfg["modulations"]]
    thr = _resolve_gate(cfg.get("threshold"), cfg)
    strict = bool(cfg.get("strict", False))
    builder = lambda u: (lambda g: carleson_apply(g, u, curve, pv, strict=strict))
    t0 = time.perf_counter()
    rep = sweep_modulations(builder, us, fam, float(cfg["p"]), threshold=thr)
    wall = time.perf_counter() - t0
    rows = [(r["u_index"], r["norm"], r["skipped"]) for r in rep.per_sample]
    failures = []
    if thr is not None and not rep.verdicts["dispersion_within_threshold"]:
        failures.append(
            f"norm dispersion {rep.aggregate['dispersion']:g} exceeds {thr:g}")
    return _finish(cfg, "norm-sweep", rep.to_dict(), wall,
                   csv_spec=(("u_index", "norm", "skipped"), rows),
                   failures=failures)


def cmd_sk_decay(args) -> int:
    cfg = _merged(args, {
        "curve": {"family": "power", "alpha": 2.0},
        "u": "const:1",
        "family": {"generator": "modulated_gaussians", "count": 2, "seed": 21,
                   "grid": [-600.0, 600.0, 60001]},
        "k_max": 5,
        "strict": False,
    })
    curve = _curve_from(cfg)
    fam = _family_from(cfg)
    u = _modulation_from(cfg["u"])
    gate = _resolve_gate(cfg.get("slope_max"), cfg)
    t0 = time.perf_counter()
    fit = decay_experiment(curve, u, fam, int(cfg["k_max"]),
                           strict=bool(cfg.get("strict", False)))
    wall = time.perf_counter() - t0
    d = fit.to_dict()
    d["slope_max"] = gate
    rows = list(zip(d["k_values"], d["log2_ratios"]))
    failures = []
    if gate is not None and fit.slope > gate:
        failures.append(f"decay slope {fit.slope:g} above gate {gate:g}")
    return _finish(cfg, "sk-decay", d, wall,
                   csv_spec=(("k", "log2_ratio"), rows), failures=failures)


def cmd_annulus(args) -> int:
    cfg = _merged(args, {
        "curve": {"family": "power", "alpha": 2.0},
        "u": "const:1",
        "family": {"generator": "gaussians", "count": 2, "seed": 19,
                   "grid": [[-10.0, 10.0, 161], [-30.0, 30.0, 401]]},
        "levels": [-1, 0, 1],
        "p": 2.0,
        "strict": False,
    })
    curve = _curve_from(cfg)
    fam = _family_from(cfg)
    u = _modulation_from(cfg["u"])
    thr = _resolve_gate(cfg.get("threshold"), cfg)
    t0 = time.perf_counter()
    rep = single_annulus_experiment(curve, u, fam, [int(l) for l in cfg["levels"]],
                                    float(cfg["p"]), cfg=_pv_from(cfg),
                                    strict=bool(cfg.get("strict", False)),
                                    threshold=thr)
    wall = time.perf_counter() - t0
    rows = [(r["l"], r["norm"], r["skipped"]) for r in rep.per_sample]
    failures = []
    if thr is not None and not rep.verdicts["dispersion_within_threshold"]:
        failures.append(
            f"annulus dispersion {rep.aggregate['dispersion']:g} exceeds {thr:g}")
    return _finish(cfg, "annulus", rep.to_dict(), wall,
                   csv_spec=(("l", "norm", "skipped"), rows), failures=failures)


def cmd_square_fn(args) -> int:
    cfg = _merged(args, {
        "curve": {"family": "power", "alpha": 2.0},
        "u": "const:0.9",
        "family": {"generator": "gaussians", "count": 1, "seed": 19,
                   "grid": [[-10.0, 10.0, 161], [-30.0, 30.0, 401]]},
        "levels": [-1, 0, 1],
        "p": 2.0,
        "strict": False,
    })
    curve = _curve_from(cfg)
    u = _modulation_from(cfg["u"])
    if cfg.get("f") is not None:
        f = read_grid_function(str(cfg["f"]))
        if not isinstance(f, GridFunction2D):
            raise ConfigError("square-fn expects a 2D grid-function file")
    else:
        f = _family_from(cfg).members()[0]
        if not isinstance(f, GridFunction2D):
            raise ConfigError("square-fn needs a 2D family or --f FILE")
    t0 = time.perf_counter()
    out = square_function_experiment(curve, u, f, [int(l) for l in cfg["levels"]],
                                     float(cfg["p"]), cfg=_pv_from(cfg),
                                     strict=bool(cfg.get("strict", False)))
    wall = time.perf_counter() - t0
    return _finish(cfg, "square-fn", out, wall)


def cmd_shift_growth(args) -> int:
    cfg = _merged(args, {
        "sigmas": [0.0, 4.0, 16.0, 64.0],
        "family": {"generator": "indicators", "count": 4, "seed": 3,
                   "grid": [-8.0, 8.0, 4097]},
        "p": 2.0,
        "b_max": "fixtures:shift_growth_b_max",
    })
    fam = _family_from(cfg)
    gate = _resolve_gate(cfg.get("b_max"), cfg)
    t0 = time.perf_counter()
    rep = shifted_growth_probe([float(s) for s in cfg["sigmas"]], fam, float(cfg["p"]))
    wall = time.perf_counter() - t0
    rows = [(r["sigma"], r["norm"], r["skipped"]) for r in rep.per_sample]
    d = rep.to_dict()
    d["b_max"] = gate
    failures = []
    if gate is not None and rep.aggregate["fitted_b"] > gate:
        failures.append(
            f"fitted growth exponent {rep.aggregate['fitted_b']:g} above gate {gate:g}")
    return _finish(cfg, "shift-growth", d, wall,
                   csv_spec=(("sigma", "norm", "skipped"), rows), failures=failures)


def cmd_geometry(args) -> int:
    cfg = _merged(args, {"u_abs": 1.0, "l": 0, "k": 0, "tau": 0})
    curve = _curve_from(cfg)
    t0 = time.perf_counter()
    geom = covering_geometry(curve, float(cfg["u_abs"]), int(cfg["l"]),
                             int(cfg["k"]), int(cfg["tau"]))
    wall = time.perf_counter() - t0
    d = geom.to_dict()
    rows = list(zip(d["m_indices"], d["J_lengths"], d["sigma_values"]))
    return _finish(cfg, "geometry", d, wall,
                   csv_spec=(("m", "J_length", "sigma"), rows))


def cmd_dominate(args) -> int:
    cfg = _merged(args, {
        "curve": {"family": "power", "alpha": 2.0},
        "u": "const:1",
        "family": {"generator": "gaussians", "count": 2, "seed": 23,
                   "grid": [[-12.0, 12.0, 97], [-20.0, 20.0, 267]]},
        "k_list": [0, 1],
        "l": 0,
        "tau_hi": 2,
        "m_cap": 16,
        "strict": False,
    })
    curve = _curve_from(cfg)
    fam = _family_from(cfg)
    u = _modulation_from(cfg["u"])
    tau_hi = int(cfg["tau_hi"])
    if tau_hi < 0:
        raise ConfigError("tau_hi must be nonnegative")
    t0 = time.perf_counter()
    rep = domination_experiment(curve, u, fam, [int(k) for k in cfg["k_list"]],
                                int(cfg["l"]), range(-tau_hi, tau_hi + 1),
                                m_cap=int(cfg["m_cap"]),
                                strict=bool(cfg.get("strict", False)))
    wall = time.perf_counter() - t0
    rows = [(r["member"], r["k"], r["ratio"]) for r in rep.per_sample]
    failures = []
    if not rep.verdicts["zero_unbounded_points"]:
        failures.append("pointwise domination broke: unbounded ratio recorded")
    return _finish(cfg, "dominate", rep.to_dict(), wall,
                   csv_spec=(("member", "k", "ratio"), rows), failures=failures)


# ---------------------------------------------------------------------------
# parser


def _add_common(sp) -> None:
    sp.add_argument("--config", help="JSON config file; flags override its fields")
    sp.add_argument("--out", help="output directory for report, CSV, and manifest")
    sp.add_argument("--seed", type=int, help="run seed, recorded in every output")
    sp.add_argument("--fixtures", help="thresholds fixture path "
                    "(CURVEFLOW_FIXTURES overrides)")


def _add_curve_flags(sp) -> None:
    sp.add_argument("--curve", dest="curve", help="curve family name")
    sp.add_argument("--alpha", type=float, help="family parameter where required")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveflow",
        description="Numerical toolkit for modulated singular integrals "
                    "along plane curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check-curve", help="verify the four curve conditions")
    _add_common(sp)
    _add_curve_flags(sp)
    sp.set_defaults(func=cmd_check_curve)

    sp = sub.add_parser("bump-check", help="partition-of-unity deviation")
    _add_common(sp)
    sp.add_argument("--lo", type=float)
    sp.add_argument("--hi", type=float)
    sp.add_argument("--points", type=int)
    sp.add_argument("--tol", type=float)
    sp.set_defaults(func=cmd_bump_check)

    for name, fn, is2d in (("transform", cmd_transform, True),
                           ("carleson", cmd_carleson, False)):
        sp = sub.add_parser(name, help=f"apply the {'2D' if is2d else '1D'} "
                            "modulated transform")
        _add_common(sp)
        _add_curve_flags(sp)
        sp.add_argument("--f", help="grid-function file" +
                        ("" if is2d else " or inline indicator:a:b / gauss:c:w"))
        sp.add_argument("--u", help="modulation: const:V, poly:c0,c1..., "
                        "steps:FILE, grid:FILE")
        sp.add_argument("--eps", type=float, help="principal-value cutoff")
        sp.add_argument("--radius", type=float, help="outer truncation radius")
        sp.add_argument("--substep", type=float, help="quadrature substep")
        sp.add_argument("--no-strict", action="store_true", dest="no_strict",
                        help="skip the grid-coverage precondition")
        if not is2d:
            sp.add_argument("--at", type=float, help="print the value at x")
            sp.add_argument("--span", type=float, help="inline grid half-width")
            sp.add_argument("--step", type=float, help="inline grid step")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("kernel-decay", help="kernel modulus vs decay shape")
    _add_common(sp)
    _add_curve_flags(sp)
    sp.add_argument("--k-range", dest="k_range", help="lo:hi or comma list")
    sp.add_argument("--s", help="comma list of rescaled frequencies, |s| <= 4")
    sp.add_argument("--u-x", dest="u_x", type=float)
    sp.add_argument("--u-z", dest="u_z", type=float)
    sp.add_argument("--n-x", dest="n_x", type=int)
    sp.add_argument("--n-z", dest="n_z", type=int)
    sp.add_argument("--r1", type=float, help="near-zero decay rate")
    sp.add_argument("--r2", type=float, help="annulus decay rate")
    sp.set_defaults(func=cmd_kernel_decay)

    sp = sub.add_parser("lemma-check", help="randomized inequality checkers")
    _add_common(sp)
    _add_curve_flags(sp)
    sp.add_argument("--draws", type=int, help="draws per checker")
    sp.set_defaults(func=cmd_lemma_check)

    for name, fn in (("norm-sweep", cmd_norm_sweep), ("sk-decay", cmd_sk_decay),
                     ("annulus", cmd_annulus), ("square-fn", cmd_square_fn),
                     ("shift-growth", cmd_shift_growth), ("dominate", cmd_dominate)):
        sp = sub.add_parser(name, help=f"{name} experiment (config-driven)")
        _add_common(sp)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("geometry", help="annulus covering at one (u, l, k, tau)")
    _add_common(sp)
    _add_curve_flags(sp)
    sp.add_argument("--u-abs", dest="u_abs", type=float, help="|u|, positive")
    sp.add_argument("--l", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--tau", type=int)
    sp.set_defaults(func=cmd_geometry)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except GeometryError as e:
        print(f"FAIL covering geometry: {e}")
        return 1
    except HypothesisError as e:
        print(f"FAIL hypothesis: {e}")
        return 1
    except (CoverageError, NonFiniteError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
