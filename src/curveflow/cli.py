"""Command-line front end.

One executable, one subcommand per experiment.  Every run can be driven
from a JSON config file; command-line flags override config fields, which
override the subcommand's defaults.  Every value, a default, a config field
or a flag, is checked once against the packaged ``data/config_schema.json``
after the merge, and a value outside the schema exits 2.  Exit status: 0
when every verdict passes, 1 when a verdict fails (the failing invariant is
named on stdout), 2 on usage or configuration errors and on input with NaN
or inf samples.

One command table (``_COMMANDS``) declares every subcommand: its name,
handler, help text, defaults and extra flags.  ``build_parser`` reads the
table, and one runner (``_run``) drives each handler: it merges the config,
times the handler, prints the report and writes the artifacts.  A handler
maps the merged config to (report, CSV spec, failures, extra artifacts).

Artifacts: with ``--out DIR`` each run writes ``<subcommand>.json`` (the
report), a per-sample CSV where the experiment has rows, any extra files
the handler produces (the transformed grid function of ``transform`` and
``carleson``), and ``manifest.json`` (tool version, config hash, seed, wall
time, artifact list).  The artifact list names every file written besides
the manifest.  ``wall_time_s`` covers the whole handler, config resolution
(curve, modulation, family, gates) included.  Without ``--out`` the report
goes to stdout only.

The thresholds fixture defaults to the packaged ``data/thresholds.json``;
a ``--fixtures`` flag or config field can point elsewhere, and the
environment variable ``CURVEFLOW_FIXTURES`` overrides both.  Gate values
written as ``"fixtures:<key>"`` are looked up in that file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import pathlib
import sys
import time
from typing import Optional

import jsonschema
import numpy as np

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
    return cfg


@functools.lru_cache(maxsize=None)
def _schema_validator():
    schema = json.loads((_DATA_DIR / "config_schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _merged(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags, checked once against the schema."""
    cfg = dict(defaults)
    cfg.update(_load_config(getattr(args, "config", None)))
    for key, val in vars(args).items():
        if key in ("func", "config", "command") or val is None:
            continue
        cfg[key] = val
    # the error jsonschema.validate would raise
    e = jsonschema.exceptions.best_match(_schema_validator().iter_errors(cfg))
    if e is not None:
        field = ".".join(map(str, e.absolute_path))
        raise ConfigError(f"config rejected by schema: {field + ': ' if field else ''}"
                          f"{e.message}") from e
    return cfg


def _resolve_gate(value, cfg: dict):
    """A numeric gate, a 'fixtures:<key>' reference, or None (no gate)."""
    if value is None:
        return None
    if isinstance(value, str):
        key = value.split(":", 1)[1]
        fixtures = load_fixtures(cfg.get("fixtures"))
        if key not in fixtures:
            raise ConfigError(f"fixture key {key!r} not in {fixtures_path(cfg.get('fixtures'))}")
        return float(fixtures[key])
    return float(value)


def _curve_from(cfg: dict) -> Curve:
    spec = cfg.get("curve", _PARABOLA)
    if isinstance(spec, str):
        spec = {"family": spec}
    alpha = cfg["alpha"] if cfg.get("alpha") is not None else spec.get("alpha")
    return builtin_curve(spec["family"], alpha)


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


# each kind:params string stands for one modulation config object
_MODULATION_STRINGS = {
    "const": lambda rest: {"kind": "constant", "value": float(rest)},
    "poly": lambda rest: {"kind": "polynomial", "coeffs": [float(c) for c in rest.split(",")]},
    "steps": lambda rest: {**json.loads(pathlib.Path(rest).read_text()), "kind": "piecewise"},
    "grid": lambda rest: {"kind": "grid", "path": rest},
}
_MODULATION_KINDS = {
    "constant": lambda spec: ModulationField.constant(spec["value"]),
    "piecewise": lambda spec: ModulationField.piecewise(spec["breakpoints"], spec["levels"]),
    "polynomial": lambda spec: ModulationField.polynomial(spec["coeffs"]),
    "grid": lambda spec: ModulationField.from_grid(read_grid_function(spec["path"])),
}


def _modulation_from(spec) -> ModulationField:
    """A modulation from its config object or from a kind:params string."""
    try:
        obj = spec
        if isinstance(spec, str):
            kind, _, rest = spec.partition(":")
            if kind not in _MODULATION_STRINGS:
                raise ValueError("want const:V, poly:c0,c1..., steps:FILE or grid:FILE")
            obj = _MODULATION_STRINGS[kind](rest)
        return _MODULATION_KINDS[obj["kind"]](obj)
    except (ValueError, OSError, KeyError, TypeError) as e:
        detail = f"missing field {e}" if isinstance(e, KeyError) else e
        raise ConfigError(f"bad modulation spec {spec!r}: {detail}") from e


def _inline_function(spec: str, span: float, step: float) -> GridFunction1D:
    """Inline 1D test inputs: indicator:a:b or gauss:center:width.

    Indicator edges that land on grid nodes get the midpoint value 1/2,
    which keeps the sampled jump centred and the quadrature second order.
    """
    for name, value in (("span", span), ("step", step)):
        if not 0 < value < math.inf:
            raise ConfigError(f"inline grid {name} must be finite and positive, got {value!r}")
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
# subcommands: each maps the merged config to (report, CSV spec or None,
# failures, extra artifacts as {file name: grid function})


def _columns(samples: list, keys: tuple) -> tuple:
    """CSV spec with the named columns of a list of per-sample dicts."""
    return keys, [tuple(s[k] for k in keys) for s in samples]


def _gate_failures(what: str, value: float, gate) -> list:
    return [f"{what} {value:g} above gate {gate:g}"] if gate is not None and value > gate else []


def _dispersion_failures(what: str, rep, thr) -> list:
    if thr is None or rep.verdicts["dispersion_within_threshold"]:
        return []
    return [f"{what} dispersion {rep.aggregate['dispersion']:g} exceeds {thr:g}"]


def _function_2d(path, name: str) -> GridFunction2D:
    f = read_grid_function(str(path))
    if not isinstance(f, GridFunction2D):
        raise ConfigError(f"{name} expects a 2D grid-function file")
    return f


def _check_curve(cfg):
    d = check_conditions(_curve_from(cfg)).to_dict()
    failures = [f"curve {c} ({d[c]['detail']})"
                for c in ("condition_i", "condition_ii", "condition_iii", "condition_iv")
                if not d[c]["passed"]]
    return d, None, failures, {}


def _bump_check(cfg):
    lo, hi = float(cfg["lo"]), float(cfg["hi"])
    if not 0 < lo < hi < math.inf:
        raise ConfigError("need 0 < lo < hi < inf")
    bump = make_bump()
    ts = np.geomspace(lo, hi, int(cfg["points"]))
    l_min = int(math.floor(math.log2(lo))) - 2
    l_max = int(math.ceil(math.log2(hi))) + 2
    acc = np.zeros_like(ts)
    for l in range(l_min, l_max + 1):
        acc += bump.dilated(l, ts)
    dev = float(np.max(np.abs(acc - 1.0)))
    ok = dev <= float(cfg["tol"])
    report = {"max_deviation": dev, "window": [lo, hi], "points": int(cfg["points"]),
              "levels": [l_min, l_max], "tol": float(cfg["tol"]), "pass": ok}
    failures = [] if ok else [f"partition-of-unity deviation {dev:g} exceeds {cfg['tol']:g}"]
    return report, None, failures, {}


def _apply_and_describe(cfg, name: str, apply, f):
    """Apply a modulated transform to f; report its settings and output size."""
    curve, u, pv = _curve_from(cfg), _modulation_from(cfg["u"]), _pv_from(cfg)
    g = apply(f, u, curve, pv, strict=bool(cfg["strict"]))
    a = np.abs(g.values)
    report = {"pv": {"epsilon": pv.epsilon, "radius": pv.radius, "substep": pv.substep},
              "curve": curve.label, "max_abs": float(a.max()), "mean_abs": float(a.mean())}
    extra = {}
    if cfg.get("out") is not None:
        report["output"] = f"{name}_output.csv"
        extra[report["output"]] = g
    return g, report, extra


def _transform(cfg):
    if cfg.get("f") is None:
        raise ConfigError("transform needs --f FILE (a 2D grid function)")
    f = _function_2d(cfg["f"], "transform")
    _, report, extra = _apply_and_describe(cfg, "transform", hilbert_variable_apply, f)
    return report, None, [], extra


def _carleson(cfg):
    g, report, extra = _apply_and_describe(cfg, "carleson", carleson_apply, _function_1d(cfg))
    if cfg.get("at") is not None:
        x = float(cfg["at"])
        idx = int(round((x - g.origin) / g.step))
        if not 0 <= idx < g.n:
            raise ConfigError(f"--at {x:g} is outside the grid")
        v = complex(g.values[idx])
        report.update(at=g.origin + idx * g.step, value_re=v.real, value_im=v.imag)
        if abs(v.imag) <= 1e-9 * max(1.0, abs(v.real)):
            print(f"{v.real:.12g}")
        else:
            print(f"{v.real:.12g}{v.imag:+.12g}j")
    return report, None, [], extra


def _parse_k_range(spec) -> list:
    if isinstance(spec, (list, tuple)):
        return sorted({int(k) for k in spec})
    txt = str(spec)
    if ":" in txt:
        lo, hi = txt.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return sorted({int(k) for k in txt.split(",")})


def _kernel_decay(cfg):
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
    d = verify_kernel_bound(curve, samples, r1=float(cfg["r1"]), r2=float(cfg["r2"])).to_dict()
    unbounded = [s for s in d["samples"] if math.isinf(s["ratio"])]
    d["verdicts"] = {"bounded_ratios": not unbounded, "replay_pass": d["all_pass"]}
    failures = [f"kernel mass outside the declared decay support "
                f"({len(unbounded)} samples with shape 0, lhs > 0)"] if unbounded else []
    return d, _columns(d["samples"], ("k", "s", "lhs", "shape", "ratio")), failures, {}


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


def _lemma_check(cfg):
    curve = _curve_from(cfg)
    draws = int(cfg["draws"])
    count_max = int(_resolve_gate("fixtures:interval_count_max", cfg))
    rng = np.random.default_rng(int(cfg["seed"]))
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
    worst = unstable = margin_flips = 0
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
    return report, None, failures, {}


def _norm_sweep(cfg):
    curve, pv, fam = _curve_from(cfg), _pv_from(cfg), _family_from(cfg)
    us = [_modulation_from(s) for s in cfg["modulations"]]
    thr = _resolve_gate(cfg.get("threshold"), cfg)
    strict = bool(cfg["strict"])
    builder = lambda u: (lambda g: carleson_apply(g, u, curve, pv, strict=strict))
    rep = sweep_modulations(builder, us, fam, float(cfg["p"]), threshold=thr)
    return (rep.to_dict(), _columns(rep.per_sample, ("u_index", "norm", "skipped")),
            _dispersion_failures("norm", rep, thr), {})


def _sk_decay(cfg):
    curve, fam, u = _curve_from(cfg), _family_from(cfg), _modulation_from(cfg["u"])
    gate = _resolve_gate(cfg.get("slope_max"), cfg)
    fit = decay_experiment(curve, u, fam, int(cfg["k_max"]), strict=bool(cfg["strict"]))
    d = dict(fit.to_dict(), slope_max=gate)
    return (d, (("k", "log2_ratio"), list(zip(d["k_values"], d["log2_ratios"]))),
            _gate_failures("decay slope", fit.slope, gate), {})


def _annulus(cfg):
    curve, fam, u = _curve_from(cfg), _family_from(cfg), _modulation_from(cfg["u"])
    thr = _resolve_gate(cfg.get("threshold"), cfg)
    rep = single_annulus_experiment(curve, u, fam, [int(l) for l in cfg["levels"]],
                                    float(cfg["p"]), cfg=_pv_from(cfg),
                                    strict=bool(cfg["strict"]), threshold=thr)
    return (rep.to_dict(), _columns(rep.per_sample, ("l", "norm", "skipped")),
            _dispersion_failures("annulus", rep, thr), {})


def _square_fn(cfg):
    curve, u = _curve_from(cfg), _modulation_from(cfg["u"])
    if cfg.get("f") is not None:
        f = _function_2d(cfg["f"], "square-fn")
    else:
        f = _family_from(cfg).members()[0]
        if not isinstance(f, GridFunction2D):
            raise ConfigError("square-fn needs a 2D family or --f FILE")
    out = square_function_experiment(curve, u, f, [int(l) for l in cfg["levels"]],
                                     float(cfg["p"]), cfg=_pv_from(cfg),
                                     strict=bool(cfg["strict"]))
    return out, None, [], {}


def _shift_growth(cfg):
    fam = _family_from(cfg)
    gate = _resolve_gate(cfg.get("b_max"), cfg)
    rep = shifted_growth_probe([float(s) for s in cfg["sigmas"]], fam, float(cfg["p"]))
    return (dict(rep.to_dict(), b_max=gate), _columns(rep.per_sample, ("sigma", "norm", "skipped")),
            _gate_failures("fitted growth exponent", rep.aggregate["fitted_b"], gate), {})


def _geometry(cfg):
    d = covering_geometry(_curve_from(cfg), float(cfg["u_abs"]), int(cfg["l"]),
                          int(cfg["k"]), int(cfg["tau"])).to_dict()
    rows = list(zip(d["m_indices"], d["J_lengths"], d["sigma_values"]))
    return d, (("m", "J_length", "sigma"), rows), [], {}


def _dominate(cfg):
    curve, fam, u = _curve_from(cfg), _family_from(cfg), _modulation_from(cfg["u"])
    tau_hi = int(cfg["tau_hi"])
    rep = domination_experiment(curve, u, fam, [int(k) for k in cfg["k_list"]],
                                int(cfg["l"]), range(-tau_hi, tau_hi + 1),
                                m_cap=int(cfg["m_cap"]), strict=bool(cfg["strict"]))
    failures = [] if rep.verdicts["zero_unbounded_points"] else [
        "pointwise domination broke: unbounded ratio recorded"]
    return rep.to_dict(), _columns(rep.per_sample, ("member", "k", "ratio")), failures, {}


# ---------------------------------------------------------------------------
# the runner and the command table


def _run(name: str, run, defaults: dict, args) -> int:
    """Merge the config, time run(cfg), print the report, write the artifacts."""
    cfg = _merged(args, defaults)
    t0 = time.perf_counter()
    report, csv_spec, failures, extra = run(cfg)
    wall = time.perf_counter() - t0
    report.setdefault("seed", cfg.get("seed"))
    if cfg.get("out") is not None:
        out = pathlib.Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        artifacts = [f"{name}.json"]
        (out / artifacts[0]).write_text(_dumps(report, indent=2) + "\n")
        if csv_spec is not None:
            artifacts.append(f"{name}.csv")
            with (out / artifacts[-1]).open("w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(csv_spec[0])
                w.writerows(csv_spec[1])
        for fname, g in extra.items():
            write_grid_function(str(out / fname), g)
            artifacts.append(fname)
        manifest = {
            "tool": "curveflow",
            "version": __version__,
            "subcommand": name,
            "seed": cfg.get("seed"),
            "fixtures": str(fixtures_path(cfg.get("fixtures"))),
            "config": cfg,
            # where the run is written is not part of what it computes
            "config_hash": hashlib.sha256(
                _dumps({k: v for k, v in cfg.items() if k != "out"}).encode()
            ).hexdigest()[:16],
            "wall_time_s": wall,
            "artifacts": artifacts,
        }
        (out / "manifest.json").write_text(_dumps(manifest, indent=2) + "\n")
    print(_dumps(report))
    for inv in failures:
        print(f"FAIL {inv}")
    return 1 if failures else 0


_COMMON = (
    ("--config", dict(help="JSON config file; flags override its fields")),
    ("--out", dict(help="output directory for report, CSV, and manifest")),
    ("--seed", dict(type=int, help="run seed, recorded in every output")),
    ("--fixtures", dict(help="thresholds fixture path (CURVEFLOW_FIXTURES overrides)")),
)
_CURVE = (
    ("--curve", dict(help="curve family name")),
    ("--alpha", dict(type=float, help="family parameter where required")),
)
_TRANSFORM = (
    ("--u", dict(help="modulation: const:V, poly:c0,c1..., steps:FILE, grid:FILE")),
    ("--eps", dict(type=float, help="principal-value cutoff")),
    ("--radius", dict(type=float, help="outer truncation radius")),
    ("--substep", dict(type=float, help="quadrature substep")),
    ("--no-strict", dict(action="store_false", dest="strict", default=None,
                         help="skip the grid-coverage precondition")),
)
_PARABOLA = {"family": "power", "alpha": 2.0}

# name, handler, help (None: a config-driven experiment), defaults (below
# the config file and the flags), flags beyond the common four
_COMMANDS = (
    ("check-curve", _check_curve, "verify the four curve conditions", {}, _CURVE),
    ("bump-check", _bump_check, "partition-of-unity deviation",
     {"lo": 2.0**-8, "hi": 2.0**8, "points": 50001, "tol": 1e-10},
     tuple((flag, dict(type=t)) for flag, t in
           (("--lo", float), ("--hi", float), ("--points", int), ("--tol", float)))),
    ("transform", _transform, "apply the 2D modulated transform",
     {"u": "const:1", "strict": True},
     _CURVE + (("--f", dict(help="grid-function file")),) + _TRANSFORM),
    ("carleson", _carleson, "apply the 1D modulated transform",
     {"u": "const:0", "strict": True},
     _CURVE + (("--f", dict(help="grid-function file or inline indicator:a:b / gauss:c:w")),)
     + _TRANSFORM + (
         ("--at", dict(type=float, help="print the value at x")),
         ("--span", dict(type=float, help="inline grid half-width")),
         ("--step", dict(type=float, help="inline grid step")),
     )),
    ("kernel-decay", _kernel_decay, "kernel modulus vs decay shape",
     {"k_range": "2:6", "s": "0.5,2.0", "u_x": 1.0, "u_z": 1.0,
      "n_x": 0, "n_z": 0, "r1": 1.0 / 8.0, "r2": 7.0 / 16.0},
     _CURVE + (
         ("--k-range", dict(help="lo:hi or comma list")),
         ("--s", dict(help="comma list of rescaled frequencies, |s| <= 4")),
         ("--u-x", dict(type=float)),
         ("--u-z", dict(type=float)),
         ("--n-x", dict(type=int)),
         ("--n-z", dict(type=int)),
         ("--r1", dict(type=float, help="near-zero decay rate")),
         ("--r2", dict(type=float, help="annulus decay rate")),
     )),
    ("lemma-check", _lemma_check, "randomized inequality checkers",
     {"seed": 0, "draws": 200},
     _CURVE + (("--draws", dict(type=int, help="draws per checker")),)),
    ("norm-sweep", _norm_sweep, None, {
        "curve": _PARABOLA, "modulations": ["const:0.5", "const:4.0"], "p": 2.0, "strict": False,
        "family": {"generator": "gaussians", "count": 2, "seed": 11, "grid": [-8.0, 8.0, 401]},
    }, ()),
    ("sk-decay", _sk_decay, None, {
        "curve": _PARABOLA, "u": "const:1", "k_max": 5, "strict": False,
        "family": {"generator": "modulated_gaussians", "count": 2, "seed": 21,
                   "grid": [-600.0, 600.0, 60001]},
    }, ()),
    ("annulus", _annulus, None, {
        "curve": _PARABOLA, "u": "const:1", "levels": [-1, 0, 1], "p": 2.0, "strict": False,
        "family": {"generator": "gaussians", "count": 2, "seed": 19,
                   "grid": [[-10.0, 10.0, 161], [-30.0, 30.0, 401]]},
    }, ()),
    ("square-fn", _square_fn, None, {
        "curve": _PARABOLA, "u": "const:0.9", "levels": [-1, 0, 1], "p": 2.0, "strict": False,
        "family": {"generator": "gaussians", "count": 1, "seed": 19,
                   "grid": [[-10.0, 10.0, 161], [-30.0, 30.0, 401]]},
    }, ()),
    ("shift-growth", _shift_growth, None, {
        "sigmas": [0.0, 4.0, 16.0, 64.0], "p": 2.0, "b_max": "fixtures:shift_growth_b_max",
        "family": {"generator": "indicators", "count": 4, "seed": 3, "grid": [-8.0, 8.0, 4097]},
    }, ()),
    ("dominate", _dominate, None, {
        "curve": _PARABOLA, "u": "const:1", "k_list": [0, 1], "l": 0, "tau_hi": 2, "m_cap": 16,
        "strict": False,
        "family": {"generator": "gaussians", "count": 2, "seed": 23,
                   "grid": [[-12.0, 12.0, 97], [-20.0, 20.0, 267]]},
    }, ()),
    ("geometry", _geometry, "annulus covering at one (u, l, k, tau)",
     {"u_abs": 1.0, "l": 0, "k": 0, "tau": 0},
     _CURVE + (
         ("--u-abs", dict(type=float, help="|u|, positive")),
         ("--l", dict(type=int)),
         ("--k", dict(type=int)),
         ("--tau", dict(type=int)),
     )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveflow",
        description="Numerical toolkit for modulated singular integrals "
                    "along plane curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text, defaults, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_text or f"{name} experiment (config-driven)")
        for flag, kw in _COMMON + flags:
            sp.add_argument(flag, **kw)
        sp.set_defaults(func=functools.partial(_run, name, run, defaults))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as e:
        print(f"FAIL covering geometry: {e}")
        return 1
    except HypothesisError as e:
        print(f"FAIL hypothesis: {e}")
        return 1
    except (ValueError, OSError, CoverageError, NonFiniteError) as e:
        # ConfigError is a ValueError
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
