"""Experiment harness: norms, uniformity sweeps, decay fits, covering geometry.

Everything here measures rather than proves.  Empirical operator norms are
lower bounds on the true ones (a max over a finite test family), uniformity
claims are recorded as dispersion = max/min across the swept parameter, and
pointwise dominations are fitted: the harness finds the smallest constant
that works on the sampled grid and reports how stable it is across the scale
parameter.  Thresholds live in a versioned fixtures file; none are invented
here.

The covering construction partitions the annulus |t| ~ 2^{k+n_l} into N_k
congruent pieces whose images under t -> v*gamma(t) have length ~ 1, which
is what lets a unit-interval average in the second variable be replaced by
a shifted maximal function.  covering_geometry computes that construction
literally (interval count bracket, piece length, image intervals J_m, shift
parameters sigma_m) and verifies its sandwich identities; the domination
experiment then rebuilds the right-hand side out of those pieces.
"""

from __future__ import annotations

import datetime
import functools
import math
import platform
import sys
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import zeta

from . import __version__
from .curves import Curve, LogGrid, check_conditions
from .dyadic import frequency_index, max_projection_level, project
from .errors import GeometryError, HypothesisError
from .gridfn import (
    GridFunction1D, GridFunction2D, ModulationField, _axes, _grid_function, _require_finite,
)
from .operators import (
    PVConfig,
    _group_by_value,
    _prefix_sums,
    _shifted_maximal_rows,
    annulus_piece_apply,
    hilbert_variable_apply,
    shifted_maximal,
    truncated_piece_apply,
)

__all__ = [
    "TestFunctionFamily",
    "DecayFit",
    "ShiftGeometry",
    "ExperimentReport",
    "lp_norm",
    "estimate_operator_norm",
    "sweep_modulations",
    "fit_decay",
    "decay_experiment",
    "single_annulus_experiment",
    "square_function_experiment",
    "shifted_growth_probe",
    "covering_geometry",
    "domination_experiment",
]

_GENERATORS = ("indicators", "gaussians", "modulated_gaussians", "random_bandlimited")
_LOWEST_RATE = {"modulated_gaussians": 1.0, "random_bandlimited": 0.5}  # wave rate floors

_RATIO_FLOOR = 1e-14  # decay ratios below this are quadrature noise
_BAND_SKIP = 1e-12  # relative norm under which a projected band counts as empty

GridFn = Union[GridFunction1D, GridFunction2D]


def _environment_stamp() -> dict:
    return {
        "tool_version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


# ---------------------------------------------------------------------------
# norms and test families


def _cell_weights(n: int, step: float) -> np.ndarray:
    # each sample owns its cell within the domain; the two boundary samples
    # own half cells, so grid-aligned indicators integrate exactly
    w = np.full(n, step)
    w[0] = w[-1] = 0.5 * step
    return w


def lp_norm(f: GridFn, p: float) -> float:
    """Riemann-sum L^p norm: (sum |f|^p * cell volume)^(1/p)."""
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 1):
        raise ValueError("p must be finite and > 1")
    a = np.abs(f.values) ** p
    w = functools.reduce(np.multiply.outer, [_cell_weights(n, h) for _, h, n in _axes(f)])
    return float(np.sum(a * w)) ** (1.0 / p)


@dataclass(frozen=True)
class TestFunctionFamily:
    """Deterministic generator of grid-sampled test functions.

    grid is (x0, x1, n) for 1D or ((x0, x1, n1), (y0, y1, n2)) for 2D;
    endpoints are included, so the step is (x1-x0)/(n-1).  Members are drawn
    sequentially from one seeded generator, so the family is a pure function
    of (generator, count, seed, grid).
    """

    generator: str
    count: int
    seed: int
    grid: tuple

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise ValueError(
                f"unknown generator {self.generator!r}; choose from {_GENERATORS}"
            )
        if self.count < 1:
            raise ValueError("count must be at least 1")
        object.__setattr__(self, "grid", _canon_grid(self.grid))
        # waves draw rates from [low, pi/(6 step)], empty on a coarser axis;
        # modulated gaussians oscillate on the last axis only
        low = _LOWEST_RATE.get(self.generator, 0.0)
        axes = self._axes()
        for i, (_, _, _, step) in enumerate(axes):
            waves = self.generator == "random_bandlimited" or i == len(axes) - 1
            if waves and _resolvable_rate(step) < low:
                raise ValueError(
                    f"{self.generator} needs step <= pi/{6.0 * low:g} = "
                    f"{math.pi / (6.0 * low):.6g} on grid axis {i}; its step is {step:.6g}"
                )

    @property
    def is_2d(self) -> bool:
        return isinstance(self.grid[0], tuple)

    def _axes(self) -> List[Tuple[float, float, int, float]]:
        """(x0, x1, n, step) per axis; a 1D grid is one axis."""
        return [(x0, x1, n, (x1 - x0) / (n - 1))
                for x0, x1, n in (self.grid if self.is_2d else (self.grid,))]

    def descriptor(self) -> dict:
        return {
            "generator": self.generator,
            "count": self.count,
            "seed": self.seed,
            "grid": self.grid,
        }

    def members(self) -> List[GridFn]:
        rng = np.random.default_rng(self.seed)
        return [self._member(rng) for _ in range(self.count)]

    def _member(self, rng) -> GridFn:
        axes = self._axes()
        coords = [x0 + h * np.arange(n) for x0, _, n, h in axes]
        if self.generator == "random_bandlimited":
            vals = _bandlimited(rng, axes, coords)
        else:
            # a product of per-axis profiles drawn in axis order; the
            # oscillation lives on the last axis, where the band projections act
            gen = self.generator
            inner = "gaussians" if gen == "modulated_gaussians" else gen
            vals = functools.reduce(np.multiply.outer, [
                _draw_profile(rng, gen if i == len(axes) - 1 else inner, xs, axis)
                for i, (xs, axis) in enumerate(zip(coords, axes))
            ])
        return _grid_function([(x0, h, n) for x0, _, n, h in axes], vals)


def _canon_grid(grid) -> tuple:
    def axis(spec):
        x0, x1, n = float(spec[0]), float(spec[1]), int(spec[2])
        if not (x1 > x0 and n >= 8):
            raise ValueError("axis spec needs x1 > x0 and n >= 8")
        return (x0, x1, n)

    if len(grid) == 3 and np.isscalar(grid[0]):
        return axis(grid)
    if len(grid) == 2:
        return (axis(grid[0]), axis(grid[1]))
    raise ValueError("grid must be (x0, x1, n) or ((x0,x1,n1), (y0,y1,n2))")


def _gauss(xs, c, w):
    return np.exp(-(((xs - c) / w) ** 2))


def _resolvable_rate(step: float) -> float:
    return float(min(32.0, np.pi / (6.0 * step)))


def _draw_profile(rng, generator, xs, axis) -> np.ndarray:
    # profiles live near the grid center at O(1) scale (capped at 20 length
    # units) so that wide grids leave room for large operator translates
    x0, x1, _, step = axis
    body = min(x1 - x0, 20.0)
    mid = 0.5 * (x0 + x1)
    if generator == "indicators":
        width = max(rng.uniform(0.05, 0.3) * body, 5.0 * step)
        a = mid + rng.uniform(-0.4, 0.4) * body - 0.5 * width
        return ((xs >= a) & (xs <= a + width)).astype(float)
    c = mid + rng.uniform(-0.08, 0.08) * body
    w = rng.uniform(0.05, 0.15) * body
    if generator == "gaussians":
        return _gauss(xs, c, w)
    # modulated_gaussians
    om = rng.uniform(_LOWEST_RATE[generator], _resolvable_rate(step))
    ph = rng.uniform(0.0, 2.0 * np.pi)
    return _gauss(xs, c, w) * np.cos(om * xs + ph)


def _bandlimited(rng, axes, coords) -> np.ndarray:
    # a product envelope times four plane waves; each wave draws its
    # amplitude, then one rate per axis, then its phase
    env = functools.reduce(np.multiply.outer, [
        _gauss(xs, 0.5 * (x0 + x1), 0.3 * min(x1 - x0, 20.0))
        for xs, (x0, x1, _, _) in zip(coords, axes)
    ])
    low = _LOWEST_RATE["random_bandlimited"]
    acc = np.zeros(env.shape)
    for _ in range(4):
        amp = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        rates = [rng.uniform(low, _resolvable_rate(axis[3])) for axis in axes]
        ph = rng.uniform(0.0, 2.0 * np.pi)
        acc += amp * np.cos(sum(w * x for w, x in zip(rates, np.ix_(*coords))) + ph)
    return env * acc


# ---------------------------------------------------------------------------
# reports


@dataclass
class ExperimentReport:
    experiment: str
    parameters: dict
    per_sample: List[dict]
    aggregate: dict
    verdicts: dict
    environment: dict = field(default_factory=_environment_stamp)

    def to_dict(self) -> dict:
        return asdict(self)

    def core_dict(self) -> dict:
        """Everything except the environment stamp (the deterministic part)."""
        d = self.to_dict()
        d.pop("environment")
        return d


def _family_norm(
    op: Callable[[GridFn], GridFn], members: Sequence[GridFn], p: float
) -> Tuple[float, int]:
    """Max norm ratio over the family; returns (ratio, skipped count)."""
    best = None
    skipped = 0
    for i, f in enumerate(members):
        base = lp_norm(f, p)
        if base == 0.0:
            warnings.warn(f"family member {i} has zero norm; skipped")
            skipped += 1
            continue
        r = lp_norm(op(f), p) / base
        best = r if best is None else max(best, r)
    if best is None:
        raise ValueError("every family member was skipped (zero norm)")
    return best, skipped


def estimate_operator_norm(
    op: Callable[[GridFn], GridFn], family: TestFunctionFamily, p: float
) -> float:
    """Empirical operator norm: max over the family of ||op f||_p / ||f||_p."""
    best, _ = _family_norm(op, family.members(), p)
    return best


def sweep_modulations(
    op_builder: Callable[[ModulationField], Callable[[GridFn], GridFn]],
    u_family: Sequence[ModulationField],
    family: TestFunctionFamily,
    p: float,
    threshold: Optional[float] = None,
) -> ExperimentReport:
    """Estimated norms across a family of modulations; dispersion = max/min."""
    if not u_family:
        raise ValueError("need at least one modulation")
    members = family.members()
    rows = []
    for j, u in enumerate(u_family):
        norm, skipped = _family_norm(op_builder(u), members, p)
        rows.append({"u_index": j, "norm": norm, "skipped": skipped})
    norms = [r["norm"] for r in rows]
    dispersion, verdicts = _dispersion(norms, threshold)
    return ExperimentReport(
        experiment="sweep_modulations",
        parameters={"p": p, "u_count": len(u_family), "family": family.descriptor()},
        per_sample=rows,
        aggregate={"norms": norms, "dispersion": dispersion},
        verdicts=verdicts,
    )


def _dispersion(norms: Sequence[float], threshold: Optional[float]) -> Tuple[float, dict]:
    """max/min across a sweep (1 when every norm is 0) and its threshold verdict."""
    low, high = min(norms), max(norms)
    if low == 0.0:
        dispersion = 1.0 if high == 0.0 else math.inf
    else:
        dispersion = high / low
    verdicts = {} if threshold is None else {
        "threshold": threshold,
        "dispersion_within_threshold": bool(dispersion <= threshold),
    }
    return dispersion, verdicts


def _stability(values: Iterable[float]) -> float:
    """max/min over the finite positive values; 1 when fewer than two remain."""
    kept = [v for v in values if 0.0 < v < math.inf]
    return max(kept) / min(kept) if len(kept) >= 2 else 1.0


# ---------------------------------------------------------------------------
# scale-piece decay


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line through (k, log2 ratio_k)."""

    k_values: Tuple[int, ...]
    log2_ratios: Tuple[float, ...]
    slope: float
    intercept: float
    residual: float
    note: str = ""

    def to_dict(self) -> dict:
        return {**asdict(self), "k_values": list(self.k_values),
                "log2_ratios": list(self.log2_ratios)}


def fit_decay(k_values: Sequence[int], ratios: Sequence[float]) -> DecayFit:
    """Fit log2 ratio_k ~ slope*k + intercept, truncating underflowed ratios."""
    k = np.asarray(list(k_values), dtype=float)
    r = np.asarray(list(ratios), dtype=float)
    if k.size != r.size or k.size == 0:
        raise ValueError("k_values and ratios must be equal-length and nonempty")
    if np.any(r < 0):
        raise ValueError("ratios must be nonnegative")
    note = ""
    under = np.nonzero(r < _RATIO_FLOOR)[0]
    if under.size:
        cut = int(under[0])
        note = (
            f"fit truncated to the first {cut} points: ratio at k={int(k[cut])} "
            f"fell below {_RATIO_FLOOR:g}"
        )
        k, r = k[:cut], r[:cut]
    if k.size < 2:
        raise ValueError("need at least two resolvable ratios to fit a slope")
    y = np.log2(r)
    return DecayFit(
        tuple(int(v) for v in k), tuple(float(v) for v in y), *_line_fit(k, y), note
    )


def _line_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares y ~ slope*x + intercept: (slope, intercept, residual)."""
    a = np.stack([x, np.ones_like(x)], axis=1)
    sol, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(sol[0]), float(sol[1]), float(np.linalg.norm(a @ sol - y))


def decay_experiment(
    curve: Curve,
    u: ModulationField,
    family: TestFunctionFamily,
    k_max: int,
    strict: bool = False,
) -> DecayFit:
    """L2 decay of the k-th truncated scale piece across a 1D family."""
    if k_max < 4:
        raise ValueError("k_max must be at least 4")
    if family.is_2d:
        raise ValueError("decay_experiment expects a 1D family")
    members = family.members()
    uvals = u.eval(members[0].xs())
    if float(np.min(np.abs(uvals))) == 0.0:
        raise ValueError("modulation must be bounded away from zero")
    ratios = []
    for k in range(k_max + 1):
        best, _ = _family_norm(
            lambda g: truncated_piece_apply(g, u, curve, k, strict=strict),
            members,
            2.0,
        )
        ratios.append(best)
    return fit_decay(list(range(k_max + 1)), ratios)


# ---------------------------------------------------------------------------
# single-annulus uniformity and the square function


def _default_cfg() -> PVConfig:
    return PVConfig(epsilon=1e-2, radius=8.0, substep=1e-2)


def single_annulus_experiment(
    curve: Curve,
    u: ModulationField,
    family: TestFunctionFamily,
    l_range: Iterable[int],
    p: float,
    cfg: Optional[PVConfig] = None,
    strict: bool = False,
    threshold: Optional[float] = None,
) -> ExperimentReport:
    """Norm ratios of the full transform on single-band projections, per l."""
    if not family.is_2d:
        raise ValueError("single_annulus_experiment expects a 2D family")
    ls = sorted(set(int(l) for l in l_range))
    if not ls:
        raise ValueError("l_range is empty")
    h2 = (family.grid[1][1] - family.grid[1][0]) / (family.grid[1][2] - 1)
    l_max = max_projection_level(h2)
    if max(ls) > l_max:
        raise ValueError(f"l_range not resolvable: need l <= {l_max} at h2={h2:g}")
    cfg = cfg if cfg is not None else _default_cfg()
    members = family.members()
    rows = []
    per_l: Dict[int, float] = {}
    for l in ls:
        best = None
        skipped = 0
        for f in members:
            pf = project(f, l)
            base = lp_norm(pf, p)
            if base <= _BAND_SKIP * lp_norm(f, p):
                skipped += 1
                continue
            r = lp_norm(hilbert_variable_apply(pf, u, curve, cfg, strict=strict), p)
            best = r / base if best is None else max(best, r / base)
        rows.append({"l": l, "norm": best, "skipped": skipped})
        if best is not None:
            per_l[l] = best
    if not per_l:
        raise ValueError("every (l, member) pair was skipped")
    dispersion, verdicts = _dispersion(list(per_l.values()), threshold)
    aggregate = {
        "norms_by_l": {str(l): v for l, v in sorted(per_l.items())},
        "dispersion": dispersion,
    }
    return ExperimentReport(
        experiment="single_annulus",
        parameters={"p": p, "l_range": ls, "family": family.descriptor()},
        per_sample=rows,
        aggregate=aggregate,
        verdicts=verdicts,
    )


def square_function_experiment(
    curve: Curve,
    u: ModulationField,
    f: GridFunction2D,
    l_range: Iterable[int],
    p: float,
    cfg: Optional[PVConfig] = None,
    strict: bool = False,
) -> dict:
    """(sum_l |H P_l f|^2)^(1/2) measured against ||f||_p."""
    ls = sorted(set(int(l) for l in l_range))
    if not ls:
        raise ValueError("l_range is empty")
    cfg = cfg if cfg is not None else _default_cfg()
    f_norm = lp_norm(f, p)
    if f_norm == 0.0:
        return {"sq_norm": 0.0, "f_norm": 0.0, "ratio": None, "skipped": True}
    acc = np.zeros((f.n1, f.n2))
    for l in ls:
        hp = hilbert_variable_apply(project(f, l), u, curve, cfg, strict=strict)
        acc += np.abs(hp.values) ** 2
    sq = f.with_values(np.sqrt(acc))
    sq_norm = lp_norm(sq, p)
    return {
        "sq_norm": sq_norm,
        "f_norm": f_norm,
        "ratio": sq_norm / f_norm,
        "skipped": False,
    }


# ---------------------------------------------------------------------------
# shifted-maximal growth


def shifted_growth_probe(
    sigma_list: Sequence[float], family: TestFunctionFamily, p: float
) -> ExperimentReport:
    """Norm of the shifted maximal operator along a sigma ladder, with the
    growth model norm ~ a * [log(2 + sigma)]^b fitted by least squares."""
    sigmas = [float(s) for s in sigma_list]
    if len(sigmas) < 2:
        raise ValueError("need at least two sigma values")
    if any(s < 0 for s in sigmas):
        raise ValueError("sigma values must be nonnegative")
    if any(b < a for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError("sigma_list must be sorted ascending")
    if family.is_2d:
        raise ValueError("shifted_growth_probe expects a 1D family")
    members = family.members()
    rows = []
    for s in sigmas:
        norm, skipped = _family_norm(
            lambda g: shifted_maximal(g, s), members, p
        )
        rows.append({"sigma": s, "norm": norm, "skipped": skipped})
    norms = np.array([r["norm"] for r in rows])
    if np.any(norms <= 0):
        raise ValueError("zero operator norm in the ladder; cannot fit growth")
    b_fit, log_a, _ = _line_fit(np.log(np.log(2.0 + np.array(sigmas))), np.log(norms))
    # norm(sigma)/norm(0) - 1 <= fitted * log^2(2+sigma): per-sigma constants
    base = norms[0]
    growth = []
    for s, nv in zip(sigmas, norms):
        if s == 0.0:
            continue
        growth.append((nv / base - 1.0) / math.log(2.0 + s) ** 2)
    aggregate = {
        "norms": [float(v) for v in norms],
        "fitted_b": b_fit,
        "fitted_log_a": log_a,
        "growth_constants": growth,
        "growth_stability": _stability(growth),
    }
    return ExperimentReport(
        experiment="shifted_growth",
        parameters={"p": p, "sigmas": sigmas, "family": family.descriptor()},
        per_sample=rows,
        aggregate=aggregate,
        verdicts={},
    )


# ---------------------------------------------------------------------------
# covering geometry


@functools.lru_cache(maxsize=64)
def _verified_constants(curve: Curve):
    report = check_conditions(curve, LogGrid())
    if not report.all_pass:
        raise HypothesisError(
            f"curve {curve.label!r} fails its hypotheses; covering geometry undefined"
        )
    return report.constants


@dataclass(frozen=True)
class ShiftGeometry:
    """The annulus covering at one (k, l, u) and its image-interval data.

    m_indices records which pieces were materialized (all of them when N_k
    is small; an endpoints-inclusive subsample otherwise).  J_lengths and
    sigma_values align with m_indices.
    """

    k: int
    l: int
    n_l: int
    N_k: int
    tau: int
    u_abs: float
    v: float
    scale: float
    interval_length: float
    bracket: Tuple[float, float]
    m_indices: np.ndarray = field(repr=False)
    J_lengths: np.ndarray = field(repr=False)
    sigma_values: np.ndarray = field(repr=False)
    c1: float = 0.0

    def sandwich_value(self) -> float:
        return 1.0 / (self.N_k * self.interval_length)

    def to_dict(self) -> dict:
        return {**asdict(self), "bracket": list(self.bracket),
                "m_indices": self.m_indices.tolist(), "J_lengths": self.J_lengths.tolist(),
                "sigma_values": self.sigma_values.tolist()}


def covering_geometry(
    curve: Curve,
    u_abs: float,
    l: int,
    k: int,
    tau: int,
    max_stored: int = 4096,
) -> ShiftGeometry:
    """Partition of the annulus |t| ~ 2^{k+n_l} into unit-image pieces.

    N_k is the smallest integer in the admissible bracket
    [1.5 * 2^{k+n_l} v gamma'(2^{k+n_l}), 2 * (same)], v = 2^l u_abs; a
    bracket containing no integer raises GeometryError.  Pieces have exact
    length 1/(v gamma'(2^{k+n_l})), so N_k * |I_m| lands in
    [1.5, 2] * 2^{k+n_l} by construction; the sandwich is still re-verified
    within 4 ulp.
    """
    if not 0 < u_abs < math.inf:
        raise ValueError(f"u_abs must be positive and finite, got {u_abs}")
    if k < 0:
        raise ValueError("k must be >= 0")
    constants = _verified_constants(curve)
    n_l = frequency_index(u_abs, curve, l)
    v = 2.0 ** l * u_abs
    scale = 2.0 ** (k + n_l)
    gp = float(curve.deriv(scale, 1, check=False))
    lo = 1.5 * scale * v * gp
    hi = 2.0 * scale * v * gp
    n_k = max(int(math.ceil(lo - 1e-12 * max(1.0, abs(lo)))), 1)
    if n_k > hi * (1.0 + 1e-12):
        raise GeometryError(
            f"no admissible interval count: bracket [{lo:.6g}, {hi:.6g}] "
            "contains no positive integer"
        )
    ilen = 1.0 / (v * gp)
    val = 1.0 / (n_k * ilen)
    ulp4 = 4.0 * np.finfo(float).eps
    if not (0.5 / scale * (1.0 - ulp4) <= val <= (2.0 / 3.0) / scale * (1.0 + ulp4)):
        raise GeometryError(
            f"interval-count sandwich violated: 1/(N_k |I_m|) = {val:.17g} "
            f"outside [{0.5 / scale:.17g}, {(2.0 / 3.0) / scale:.17g}]"
        )
    if n_k <= max_stored:
        m_idx = np.arange(n_k, dtype=np.int64)
    else:
        m_idx = np.unique(
            np.round(np.linspace(0, n_k - 1, max_stored)).astype(np.int64)
        )
    pos = scale / 2.0 + m_idx * ilen
    g_pos = np.asarray(curve.deriv(pos, 0, check=False), dtype=float)
    g_next = np.asarray(curve.deriv(pos + ilen, 0, check=False), dtype=float)
    j_len = 1.0 + v * (g_next - g_pos)
    if np.any(j_len < 1.0 - ulp4):
        raise GeometryError("image interval shorter than 1 (gamma not increasing?)")
    sigma = (v * g_pos + float(tau)) / j_len
    return ShiftGeometry(
        k=int(k),
        l=int(l),
        n_l=int(n_l),
        N_k=int(n_k),
        tau=int(tau),
        u_abs=float(u_abs),
        v=float(v),
        scale=float(scale),
        interval_length=float(ilen),
        bracket=(float(lo), float(hi)),
        m_indices=m_idx,
        J_lengths=j_len,
        sigma_values=sigma,
        c1=float(constants.c1),
    )


# ---------------------------------------------------------------------------
# domination by shifted maximal averages


def domination_experiment(
    curve: Curve,
    u: ModulationField,
    family: TestFunctionFamily,
    k_range: Iterable[int],
    l: int,
    tau_range: Iterable[int],
    m_cap: int = 24,
    strict: bool = False,
) -> ExperimentReport:
    """Pointwise check of the annulus piece against covering-built averages.

    The right side is assembled exactly as the covering argument dictates:
    (1+|tau|)^-4 weights, the 1/N_k average over pieces (estimated on the
    at most m_cap pieces covering_geometry stores), piece averages of
    the shifted maximal function in the second variable read at x1 - t, and
    an analytic tail for the dropped |tau| (quartic series remainder times
    the largest computed per-tau average).  The fitted constant is the max
    over the grid of left/right; its stability across k is the verdict.
    """
    if not family.is_2d:
        raise ValueError("domination_experiment expects a 2D family")
    k_list = sorted(set(int(k) for k in k_range))
    if not k_list or k_list[0] < 0:
        raise ValueError("k_range must be nonempty with k >= 0")
    taus = sorted(set(int(t) for t in tau_range))
    if not taus:
        raise ValueError("tau_range is empty")
    tau_hi = max(abs(t) for t in taus)
    # sum_{|tau| > tau_hi} (1+|tau|)^-4, both signs
    tail = 2.0 * float(zeta(4.0, tau_hi + 2.0))
    members = family.members()
    rows = []
    violations = 0
    for fi, f in enumerate(members):
        _require_finite(f.values, f"domination_experiment member {fi}")
        pf = project(f, l)
        pabs = np.abs(pf.values)
        prefix = _prefix_sums(pabs)
        n1, n2 = pabs.shape
        groups = _group_by_value(np.asarray(u.eval(f.x1s()), dtype=float))
        for k in k_list:
            lhs = np.abs(annulus_piece_apply(pf, u, curve, k, l, strict=strict).values)
            rhs = np.zeros_like(lhs)
            for uval, ridx in groups:
                if uval == 0.0:
                    continue  # the piece operator is zero on these rows
                geom = covering_geometry(curve, abs(float(uval)), l, k, 0, max_stored=m_cap)
                m_sub, j_len, ilen = geom.m_indices, geom.J_lengths, geom.interval_length
                pos = geom.scale / 2.0 + m_sub * ilen
                # v*gamma(pos) is not stored; sigma needs it for every tau
                g_pos = np.asarray(curve.deriv(pos, 0, check=False), dtype=float)
                n_t = max(1, min(3, int(ilen / f.h1)))
                offs = (np.arange(n_t) + 0.5) / n_t * ilen
                # piece j reads g2 at x1 -+ t for each of its n_t nodes t;
                # rows read off the grid add nothing
                shifts = []
                for p_j in pos:
                    ds = [int(round((p_j + off) / f.h1)) for off in offs]
                    shifts.append([s for d in ds for s in (-d, d) if abs(s) < n1])
                # a group of every row (constant |u|) reads piece as a view
                sel = slice(None) if ridx.size == n1 else ridx
                acc = np.zeros((ridx.size, n2))
                peak = np.zeros_like(acc)
                for tau in taus:
                    w_tau = (1.0 + abs(tau)) ** -4
                    a_tau = np.zeros_like(acc)
                    for j in range(m_sub.size):
                        sig = abs((geom.v * g_pos[j] + tau) / j_len[j])
                        g2 = _shifted_maximal_rows(pabs, sig, prefix)
                        piece = np.zeros_like(g2)
                        for s in shifts[j]:
                            piece[max(-s, 0) : n1 - max(s, 0)] += g2[max(s, 0) : n1 - max(-s, 0)]
                        a_tau += piece[sel] / (n_t * m_sub.size)
                    acc += w_tau * a_tau
                    np.maximum(peak, a_tau, out=peak)
                rhs[ridx] = acc + tail * peak
            lmax = float(lhs.max())
            if lmax == 0.0:
                rows.append({"member": fi, "k": k, "ratio": 0.0})
                continue
            # floor against FFT round-off measured on the input scale, not
            # lhs.max(): a faraway annulus leaves lhs itself near the noise
            floor = max(1e-13 * lmax, 1e-12 * float(pabs.max()))
            mask = lhs > floor
            if not np.any(mask):
                rows.append({"member": fi, "k": k, "ratio": 0.0})
                continue
            bad = mask & (rhs == 0.0)
            if np.any(bad):
                violations += int(np.count_nonzero(bad))
                rows.append({"member": fi, "k": k, "ratio": math.inf})
                continue
            ratio = float(np.max(lhs[mask] / rhs[mask]))
            rows.append({"member": fi, "k": k, "ratio": ratio})
    per_k: Dict[int, float] = {}
    for r in rows:
        per_k[r["k"]] = max(per_k.get(r["k"], 0.0), r["ratio"])
    fitted = max((r["ratio"] for r in rows), default=0.0)
    aggregate = {
        "fitted_constant": fitted,
        "per_k_max": {str(k): v for k, v in sorted(per_k.items())},
        "stability": _stability(per_k.values()),
        "tau_tail": tail,
    }
    verdicts = {"zero_unbounded_points": violations == 0}
    return ExperimentReport(
        experiment="domination",
        parameters={
            "l": l,
            "k_range": k_list,
            "tau_range": taus,
            "m_cap": m_cap,
            "family": family.descriptor(),
        },
        per_sample=rows,
        aggregate=aggregate,
        verdicts=verdicts,
    )
