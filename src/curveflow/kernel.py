"""Oscillatory kernel of the scale-interaction computation, plus the three
inequality checkers it leans on.

The kernel couples two dyadic scales 2^{n_x+k} and 2^{n_z+k} of the modulated
transform; after rescaling, everything depends on the scale ratio h and the
rescaled separation s.  verify_kernel_bound measures the kernel modulus
against the two-term shape chi_{|s| <= 2^{-k r1}} + 2^{-k r2} chi_{|s| <= 4}
and fits the single constant in front, reporting per-k stability instead of
an absolute constant (the only falsifiable content at desk scale).  Both
window factors are the dyadic bump psi, and kernel_integral and
van_der_corput_check sum by one chunked midpoint rule.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .curves import Curve, LogGrid, check_conditions
from .dyadic import make_bump
from .errors import HypothesisError, NonFiniteError

__all__ = [
    "PhaseParams",
    "KernelEstimateReport",
    "SampleEstimate",
    "phase",
    "kernel_integral",
    "verify_kernel_bound",
    "van_der_corput_check",
    "matrix_lower_bound_check",
    "interval_count",
    "case_b_matrix",
]

# baseline quadrature step before the oscillation rule tightens it
BASE_STEP = 2.0 ** -12
_PROBE_PER_UNIT = 1000
_CHUNK = 1 << 20  # midpoint nodes evaluated at once
_PSI = make_bump()  # the dyadic window of both kernel factors


@dataclass(frozen=True)
class PhaseParams:
    """Rescaled two-point phase data.

    The roles are normalized so the first scale is the finer one: when the
    supplied indices have n_x > n_z the constructor swaps (n_x, u_x) with
    (n_z, u_z) and maps s -> -s * 2^(n_z - n_x), which leaves the kernel
    modulus invariant.  h = 2^(n_x - n_z) <= 1 is computed after
    normalization, never passed in.  A NaN or inf s, u_x or u_z is refused
    with a NonFiniteError naming the field.
    """

    k: int
    n_x: int
    n_z: int
    u_x: float
    u_z: float
    s: float
    curve: Curve
    h: float = field(init=False)

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be >= 0")
        for name in ("s", "u_x", "u_z"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise NonFiniteError(f"PhaseParams.{name} is {value}; it must be finite")
        n_x, n_z, u_x, u_z, s = self.n_x, self.n_z, self.u_x, self.u_z, self.s
        if n_x > n_z:
            n_x, n_z = self.n_z, self.n_x
            u_x, u_z = self.u_z, self.u_x
            s = -s * 2.0 ** (self.n_z - self.n_x)
        object.__setattr__(self, "n_x", n_x)
        object.__setattr__(self, "n_z", n_z)
        object.__setattr__(self, "u_x", u_x)
        object.__setattr__(self, "u_z", u_z)
        object.__setattr__(self, "s", float(s))
        object.__setattr__(self, "h", 2.0 ** (n_x - n_z))


def phase(params: PhaseParams, t, order: int = 0):
    """Q(t) and its first two derivatives for the rescaled phase.

    Q(t) = u_x gamma(2^{n_x+k} t) - u_z gamma(2^{n_z+k} (h t - s)).
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    a = 2.0 ** (params.n_x + params.k)
    b = 2.0 ** (params.n_z + params.k)
    arg1 = a * t_arr
    arg2 = b * (params.h * t_arr - params.s)
    g1 = params.curve.deriv(arg1, order, check=False)
    g2 = params.curve.deriv(arg2, order, check=False)
    c1 = params.u_x * a ** order
    c2 = params.u_z * (b * params.h) ** order
    out = c1 * g1 - c2 * g2
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out[0])
    return out


def _support_intersection(h: float, s: float) -> List[Tuple[float, float]]:
    """Subintervals of the bump support where both window factors can live."""
    pieces = []
    for lo2, hi2 in ((s - 2.0, s - 0.5), (s + 0.5, s + 2.0)):
        for lo1, hi1 in ((-2.0, -0.5), (0.5, 2.0)):
            lo = max(lo1, lo2 / h)
            hi = min(hi1, hi2 / h)
            if hi > lo:
                pieces.append((lo, hi))
    pieces.sort()
    return pieces


def _midpoint_sum(values, lo: float, hi: float, m: int, total: complex) -> complex:
    """total plus the m-cell midpoint rule for values on [lo, hi], added chunk by chunk."""
    w = (hi - lo) / m
    for start in range(0, m, _CHUNK):
        t = lo + (np.arange(start, min(start + _CHUNK, m)) + 0.5) * w
        total += w * np.sum(values(t))
    return total


def kernel_integral(params: PhaseParams) -> complex:
    """Oscillatory integral of e^{iQ} against the two window factors.

    Supports exclude the singular points, so this is plain quadrature; the
    step is min(BASE_STEP, 1/(8 (1 + max|Q'|))) per subinterval so each
    oscillation is sampled at least eight times.  |s| > 2 + 2h gives an
    exact 0 (the windows cannot overlap).
    """
    h, s = params.h, params.s
    if abs(s) > 2.0 + 2.0 * h:
        return 0.0 + 0.0j

    def integrand(t):
        ht_s = h * t - s
        win = _PSI(ht_s)
        quot = np.zeros_like(win)
        np.divide(win, ht_s, out=quot, where=win != 0.0)
        return np.exp(1j * phase(params, t, 0)) * quot * _PSI(t) / t

    total = 0.0 + 0.0j
    for lo, hi in _support_intersection(h, s):
        probe = np.linspace(lo, hi, max(64, int(_PROBE_PER_UNIT * (hi - lo))) + 1)
        qmax = float(np.max(np.abs(phase(params, probe, 1))))
        step = min(BASE_STEP, 1.0 / (8.0 * (1.0 + qmax)))
        total = _midpoint_sum(integrand, lo, hi, int(math.ceil((hi - lo) / step)), total)
    return complex(total)


@dataclass(frozen=True)
class SampleEstimate:
    k: int
    h: float
    s: float
    case: str
    lhs: float
    shape: float
    ratio: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class KernelEstimateReport:
    samples: Tuple[SampleEstimate, ...]
    c_hat: float
    per_k_max: Dict[int, float]
    r1: float
    r2: float
    case_threshold: float

    @property
    def all_pass(self) -> bool:
        return all(s.passed for s in self.samples)

    def stability(self) -> float:
        """Spread (max/min) of the nonzero per-k ratio maxima."""
        vals = [v for v in self.per_k_max.values() if v > 0]
        if len(vals) < 2:
            return 1.0
        return max(vals) / min(vals)

    def to_dict(self) -> dict:
        return {
            "c_hat": self.c_hat,
            "r1": self.r1,
            "r2": self.r2,
            "case_threshold": self.case_threshold,
            "per_k_max": {str(k): v for k, v in sorted(self.per_k_max.items())},
            "stability": self.stability(),
            "all_pass": self.all_pass,
            "samples": [s.to_dict() for s in self.samples],
        }


def _shape(s: float, k: int, r1: float, r2: float) -> float:
    val = 0.0
    if abs(s) <= 2.0 ** (-k * r1):
        val += 1.0
    if abs(s) <= 4.0:
        val += 2.0 ** (-k * r2)
    return val


def verify_kernel_bound(
    curve: Curve,
    samples: Sequence[PhaseParams],
    r1: float = 1.0 / 8.0,
    r2: float = 7.0 / 16.0,
) -> KernelEstimateReport:
    """Measure the kernel against the two-term decay shape and fit c_hat."""
    if not samples:
        raise ValueError("need at least one sample")
    c = check_conditions(curve, LogGrid()).constants
    threshold = 1.0 / (4.0 * c.c1**3 * c.c4)
    measured = []
    per_k: Dict[int, float] = {}
    for p in samples:
        lhs = abs(kernel_integral(p))
        shp = _shape(p.s, p.k, r1, r2)
        ratio = lhs / shp if shp > 0 else (0.0 if lhs == 0.0 else math.inf)
        measured.append((p, lhs, shp, ratio))
        per_k[p.k] = max(per_k.get(p.k, 0.0), ratio)
    c_hat = max(ratio for *_, ratio in measured)
    # with the fitted constant every sample passes by construction; the row
    # verdict records lhs <= c_hat * shape + tol so a frozen c_hat can be
    # replayed against fresh samples
    rows = tuple(
        SampleEstimate(p.k, p.h, p.s, "A" if p.h <= threshold else "B", lhs, shp, ratio,
                       lhs <= c_hat * shp + 1e-12)
        for p, lhs, shp, ratio in measured
    )
    return KernelEstimateReport(rows, c_hat, per_k, r1, r2, threshold)


def van_der_corput_check(
    phase_eval: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]],
    a: float,
    b: float,
) -> dict:
    """First-derivative oscillation bound: |int e^{i phi}| vs 2/s1 + (b-a) s2/s1^2.

    phase_eval(t) must return (phi, phi', phi'') arrays.  The hypothesis
    extrema are taken over a dense sample; a vanishing sampled |phi'| means
    the premise fails and raises HypothesisError.
    """
    if not a < b:
        raise ValueError("need a < b")
    probe = np.linspace(a, b, 1001)
    _, d1, d2 = phase_eval(probe)
    sigma1 = float(np.min(np.abs(d1)))
    sigma2 = float(np.max(np.abs(d2)))
    if sigma1 == 0.0:
        raise HypothesisError("phi' vanishes on the sampled interval")
    step = min((b - a) / 2000.0, 1.0 / (8.0 * (1.0 + float(np.max(np.abs(d1))))))
    m = int(math.ceil((b - a) / step))
    w = (b - a) / m
    lhs = abs(_midpoint_sum(lambda t: np.exp(1j * phase_eval(t)[0]), a, b, m, 0.0 + 0.0j))
    rhs = 2.0 / sigma1 + (b - a) * sigma2 / sigma1**2
    # composite midpoint error: (b-a) w^2 max|(e^{i phi})''| / 24, and the
    # bound can be attained (linear phases), so the slack must absorb it
    d1max = float(np.max(np.abs(d1)))
    quad_error = (b - a) * w * w * (sigma2 + d1max * d1max) / 24.0
    return {
        "lhs": lhs,
        "rhs": rhs,
        "sigma1": sigma1,
        "sigma2": sigma2,
        "quad_error": quad_error,
        "pass": bool(lhs <= rhs + quad_error + 1e-8),
    }


def _spectral_norm_2x2(A: np.ndarray) -> float:
    fro2 = float(np.sum(A * A))
    det = float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    disc = max(fro2 * fro2 - 4.0 * det * det, 0.0)
    return math.sqrt((fro2 + math.sqrt(disc)) / 2.0)


def matrix_lower_bound_check(A, x) -> dict:
    """|Ax| >= |det A| ||A||^(1-n) |x| for an invertible 2x2 matrix."""
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    if A.shape != (2, 2) or x.shape != (2,):
        raise ValueError("A must be 2x2 and x a 2-vector")
    det = float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    if abs(det) <= 1e-12:
        raise HypothesisError("matrix is numerically singular")
    norm = _spectral_norm_2x2(A)
    lhs = float(np.linalg.norm(A @ x))
    rhs = abs(det) / norm * float(np.linalg.norm(x))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "norm": norm,
        "det": det,
        "pass": bool(lhs >= rhs - 1e-9 * (1.0 + rhs)),
    }


def interval_count(
    curve: Curve,
    a: float,
    b: float,
    c: float,
    d: float,
    t_window: Tuple[float, float],
    resolution: int = 4096,
) -> int:
    """Number of maximal sample runs where |a g'(t) - b g'(t-c)| > d.

    Samples within 10 grid steps of the punctures t = 0 and t = c are
    removed before counting, and a run continuing across a puncture counts
    once (the predicate is not evaluated there at all).
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if resolution < 1000:
        raise ValueError("resolution must be at least 1000")
    lo, hi = float(t_window[0]), float(t_window[1])
    if not lo < hi:
        raise ValueError("empty window")
    t = np.linspace(lo, hi, resolution + 1)
    dt = (hi - lo) / resolution
    keep = (np.abs(t) > 10.0 * dt) & (np.abs(t - c) > 10.0 * dt)
    t = t[keep]
    if t.size == 0:
        return 0
    g_t = curve.deriv(t, 1, check=False)
    g_tc = curve.deriv(t - c, 1, check=False)
    pred = np.abs(a * g_t - b * g_tc) > d
    if not np.any(pred):
        return 0
    starts = np.count_nonzero(pred[1:] & ~pred[:-1]) + int(pred[0])
    return int(starts)


def case_b_matrix(params: PhaseParams, t: float) -> dict:
    """Scale-interaction matrix, its conditioning, and the product bound.

    Row one pairs the two phase-gradient entries; row two carries the
    log-derivative ratio g''/g' at each rescaled argument.  The returned
    lower_bound_237 is |det M| * ||M||^-1 * |Upsilon|, which the matrix
    inequality places below |(Q', Q'')|.
    """
    aa = 2.0 ** (params.n_x + params.k)
    bb = 2.0 ** (params.n_z + params.k)
    arg1 = aa * float(t)
    arg2 = bb * (params.h * float(t) - params.s)
    if arg1 == 0.0 or arg2 == 0.0:
        raise HypothesisError("rescaled argument hits the origin")
    g1p = float(params.curve.deriv(arg1, 1, check=False))
    g2p = float(params.curve.deriv(arg2, 1, check=False))
    if g1p == 0.0 or g2p == 0.0:
        raise HypothesisError("gamma' vanishes at a needed argument")
    w1 = float(params.curve.deriv(arg1, 2, check=False)) / g1p
    w2 = float(params.curve.deriv(arg2, 2, check=False)) / g2p
    M = np.array(
        [
            [1.0, params.h],
            [aa * w1, bb * w2 * params.h**2],
        ]
    )
    ups = np.array([params.u_x * aa * g1p, -params.u_z * bb * g2p])
    det = float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    norm = _spectral_norm_2x2(M)
    ups_norm = float(np.linalg.norm(ups))
    return {
        "det": det,
        "norm": norm,
        "upsilon_norm": ups_norm,
        "lower_bound_237": abs(det) / norm * ups_norm,
        "matrix": M,
        "upsilon": ups,
    }
