"""Plane curve model: builtin families, parity extension, condition certification.

A curve here is the scalar profile gamma appearing in the integration path
(t, u(x) gamma(t)).  Each instance carries closed-form derivatives of orders
0..3 on the open half-line t > 0 plus a parity flag; values at t < 0 follow
from the declared odd/even extension.  The admissibility class is certified
numerically on a log-spaced grid:

  (i)   t -> gamma'(2t)/gamma'(t) is non-increasing and bounded above,
  (ii)  t gamma''(t)/gamma'(t) is bounded above,
  (iii) t^2 |(gamma''/gamma')'(t)| is bounded below by a positive constant,
  (iv)  gamma'''/gamma'' is strictly monotone or constant.

The report records the observed extrema (the constants c1..c4) and a witness
point for every failed condition.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "Curve",
    "CurveConstants",
    "ConditionVerdict",
    "CurveReport",
    "LogGrid",
    "BUILTIN_FAMILIES",
    "builtin_curve",
    "check_conditions",
]

# Tolerance for "does not increase" style checks, scaled by 1 + |value|.
MONO_TOL = 1e-9

BUILTIN_FAMILIES = ("power", "power_odd", "t2log", "int_power_log")


def _powterm(coef: float, expo: float, t: np.ndarray) -> np.ndarray:
    # A zero coefficient must short-circuit: 0 * t**negative would give NaN.
    if coef == 0.0:
        return np.zeros_like(t)
    with np.errstate(over="ignore"):
        return coef * t ** expo


def _power_derivs(alpha: float) -> tuple:
    a = float(alpha)
    coef = (1.0, a, a * (a - 1.0), a * (a - 1.0) * (a - 2.0))

    def make(k: int) -> Callable[[np.ndarray], np.ndarray]:
        def dk(t: np.ndarray) -> np.ndarray:
            return _powterm(coef[k], a - k, t)

        return dk

    return tuple(make(k) for k in range(4))


def _t2log_derivs() -> tuple:
    def d0(t):
        return t * t * np.log1p(t)

    def d1(t):
        return 2.0 * t * np.log1p(t) + t * t / (1.0 + t)

    def d2(t):
        return 2.0 * np.log1p(t) + 4.0 * t / (1.0 + t) - (t / (1.0 + t)) ** 2

    def d3(t):
        w = 1.0 + t
        return (2.0 * t * t + 6.0 * t + 6.0) / (w * w * w)

    return (d0, d1, d2, d3)


# 24-node Gauss-Legendre rule, reused by the integral-defined family.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def _int_power_log_derivs(alpha: float) -> tuple:
    a = float(alpha)

    def integrand(tau):
        return tau ** a * np.log1p(tau)

    def d1(t):
        return integrand(t)

    def d2(t):
        return _powterm(a, a - 1.0, t) * np.log1p(t) + t ** a / (1.0 + t)

    def d3(t):
        w = 1.0 + t
        return (
            _powterm(a * (a - 1.0), a - 2.0, t) * np.log1p(t)
            + _powterm(2.0 * a, a - 1.0, t) / w
            - t ** a / (w * w)
        )

    # Order 0 is the defining integral.  Composite Gauss-Legendre on dyadic
    # panels: the log factor keeps its singularity at tau = -1, far from
    # every panel, so 24 nodes per panel are spectrally accurate.
    edges = np.concatenate(([0.0], 2.0 ** np.arange(-20.0, 61.0)))
    cum = np.zeros(len(edges))
    for j in range(len(edges) - 1):
        half = 0.5 * (edges[j + 1] - edges[j])
        mid = edges[j] + half
        cum[j + 1] = cum[j] + half * float(integrand(mid + half * _GL_X) @ _GL_W)

    def d0(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, len(edges) - 2)
        half = 0.5 * (t - edges[idx])
        nodes = (edges[idx] + half)[..., None] + half[..., None] * _GL_X
        return cum[idx] + half * (integrand(nodes) @ _GL_W)

    return (d0, d1, d2, d3)


@dataclass(frozen=True)
class Curve:
    """Parity-extended plane curve with derivatives of orders 0..3."""

    label: str
    family: str
    parity: str  # 'odd' or 'even'
    alpha: Optional[float]
    derivs: tuple = field(repr=False)  # order k -> callable on t > 0 arrays

    def deriv(self, t, order: int, check: bool = True):
        """Evaluate the order-th derivative at t (scalar or array).

        Negative t uses the parity extension; t = 0 returns 0 for orders 0
        and 1 and is rejected for orders 2 and 3.
        """
        if order not in (0, 1, 2, 3):
            raise ValueError(f"unsupported derivative order {order!r}; expected 0..3")
        t_in = np.asarray(t, dtype=float)
        scalar = t_in.ndim == 0
        tt = np.atleast_1d(t_in)
        at = np.abs(tt)
        nz = at > 0.0
        if order >= 2 and not nz.all():
            raise ValueError(f"order-{order} derivative is undefined at t = 0")
        out = np.zeros(tt.shape, dtype=float)
        if nz.any():
            vals = np.asarray(self.derivs[order](at[nz]), dtype=float)
            # For an even curve the odd-order derivatives flip sign at -t;
            # for an odd curve the even-order ones do.
            if (self.parity == "even") == (order % 2 == 1):
                vals = vals * np.sign(tt[nz])
            out[nz] = vals
        if check and not np.isfinite(out).all():
            raise OverflowError(
                f"curve {self.label}: order-{order} evaluation overflowed"
            )
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class CurveConstants:
    """Grid extrema of the four condition functionals."""

    c1: float  # sup gamma'(2t)/gamma'(t)
    c2: float  # sup t gamma''/gamma'
    c3: float  # inf t^2 |(gamma''/gamma')'|
    c4: float  # sup t gamma'/gamma

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConditionVerdict:
    passed: bool
    witness_t: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LogGrid:
    """Log-spaced grid 2**(lo_exp .. hi_exp) used for condition checking."""

    lo_exp: int = -20
    hi_exp: int = 20
    per_octave: int = 16

    def points(self) -> np.ndarray:
        n = (self.hi_exp - self.lo_exp) * self.per_octave
        exps = self.lo_exp + np.arange(n + 1) / float(self.per_octave)
        return 2.0 ** exps

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CurveReport:
    label: str
    condition_i: ConditionVerdict
    condition_ii: ConditionVerdict
    condition_iii: ConditionVerdict
    condition_iv: ConditionVerdict
    constants: CurveConstants
    grid: LogGrid
    origin_values: Tuple[float, float]  # (gamma, gamma') at t = 2**lo_exp

    @property
    def all_pass(self) -> bool:
        return (
            self.condition_i.passed
            and self.condition_ii.passed
            and self.condition_iii.passed
            and self.condition_iv.passed
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "origin_values": list(self.origin_values),
                "all_pass": self.all_pass}


def builtin_curve(family: str, alpha: Optional[float] = None) -> Curve:
    """Construct one of the builtin curve families.

    power / power_odd: t**alpha with alpha >= 1 (alpha = 1 is constructible
    on purpose as the canonical condition-(iii) failure); t2log: t^2 log(1+t),
    even; int_power_log: the antiderivative of t**alpha log(1+t), odd,
    alpha > 1.
    """
    fam = str(family).strip().lower().replace("-", "_")
    if fam in ("power", "power_odd"):
        if alpha is None:
            raise ValueError("family 'power' requires alpha")
        if not alpha >= 1.0:
            raise ValueError(f"power alpha must be >= 1, got {alpha!r}")
        parity = "even" if fam == "power" else "odd"
        return Curve(
            label=f"{fam}(alpha={alpha:g})",
            family=fam,
            parity=parity,
            alpha=float(alpha),
            derivs=_power_derivs(alpha),
        )
    if fam == "t2log":
        if alpha is not None:
            raise ValueError("family 't2log' takes no alpha")
        return Curve(
            label="t2log",
            family=fam,
            parity="even",
            alpha=None,
            derivs=_t2log_derivs(),
        )
    if fam == "int_power_log":
        if alpha is None or not alpha > 1.0:
            raise ValueError(f"int_power_log requires alpha > 1, got {alpha!r}")
        return Curve(
            label=f"int_power_log(alpha={alpha:g})",
            family=fam,
            parity="odd",
            alpha=float(alpha),
            derivs=_int_power_log_derivs(alpha),
        )
    raise ValueError(
        f"unknown curve family {family!r}; choose from {', '.join(BUILTIN_FAMILIES)}"
    )


def _ratio_derivative(curve: Curve, t: np.ndarray) -> np.ndarray:
    """(gamma''/gamma')'(t) in closed form."""
    g1 = curve.deriv(t, 1)
    g2 = curve.deriv(t, 2)
    g3 = curve.deriv(t, 3)
    return g3 / g1 - (g2 / g1) ** 2


def check_conditions(curve: Curve, grid: Optional[LogGrid] = None) -> CurveReport:
    """Certify conditions (i)-(iv) on the grid and report constants/witnesses."""
    if grid is None:
        grid = LogGrid()
    if grid.per_octave < 4:
        raise ValueError("grid too coarse: need at least 4 points per octave")
    t = grid.points()
    g0 = curve.deriv(t, 0)
    g1 = curve.deriv(t, 1)
    g2 = curve.deriv(t, 2)

    origin = (float(g0[0]), float(g1[0]))

    # (i): doubling ratio of gamma', non-increasing and bounded.
    ratio = curve.deriv(2.0 * t, 1) / g1
    c1 = float(np.max(ratio))
    increases = ratio[1:] - ratio[:-1]
    bad_i = increases > MONO_TOL * (1.0 + np.abs(ratio[:-1]))
    if not np.isfinite(ratio).all():
        j = int(np.argmin(np.isfinite(ratio)))
        verdict_i = ConditionVerdict(False, float(t[j]), "non-finite doubling ratio")
    elif bad_i.any():
        j = int(np.argmax(bad_i))
        verdict_i = ConditionVerdict(
            False, float(t[j]), f"doubling ratio increases by {increases[j]:.3e}"
        )
    else:
        verdict_i = ConditionVerdict(True, None, f"non-increasing, sup {c1:.12g}")

    # (ii): t gamma''/gamma' bounded above; convexity folded in here.
    q2 = t * g2 / g1
    c2 = float(np.max(q2))
    if not (np.isfinite(q2).all() and (g1 > 0).all()):
        j = int(np.argmax(~(np.isfinite(q2) & (g1 > 0))))
        verdict_ii = ConditionVerdict(False, float(t[j]), "gamma' not positive or ratio not finite")
    elif (g2 < -MONO_TOL * (1.0 + np.abs(g1))).any():
        j = int(np.argmax(g2 < -MONO_TOL * (1.0 + np.abs(g1))))
        verdict_ii = ConditionVerdict(False, float(t[j]), "gamma'' negative (not convex)")
    else:
        verdict_ii = ConditionVerdict(True, None, f"sup {c2:.12g}")

    # (iii): t^2 |(gamma''/gamma')'| bounded below by a positive constant.
    w = _ratio_derivative(curve, t)
    cond3 = t * t * np.abs(w)
    c3 = float(np.min(cond3))
    if not np.isfinite(cond3).all():
        j = int(np.argmin(np.isfinite(cond3)))
        verdict_iii = ConditionVerdict(False, float(t[j]), "non-finite curvature ratio")
    elif c3 <= MONO_TOL:
        j = int(np.argmin(cond3))
        verdict_iii = ConditionVerdict(
            False, float(t[j]), f"infimum {c3:.3e} is not bounded away from zero"
        )
    else:
        verdict_iii = ConditionVerdict(True, None, f"inf {c3:.12g}")

    # (iv): gamma'''/gamma'' strictly monotone or constant.
    g3 = curve.deriv(t, 3)
    if (g2 == 0.0).any():
        j = int(np.argmax(g2 == 0.0))
        verdict_iv = ConditionVerdict(
            False, float(t[j]), "gamma'' vanishes; third-to-second ratio ill-defined"
        )
    else:
        v = g3 / g2
        dv = np.diff(v)
        rng = float(np.max(v) - np.min(v))
        tol4 = MONO_TOL * (1.0 + rng)
        total_var = float(np.sum(np.abs(dv)))
        inc_ok = bool(np.all(dv >= -tol4))
        dec_ok = bool(np.all(dv <= tol4))
        if total_var < tol4 or (inc_ok and dec_ok):
            verdict_iv = ConditionVerdict(True, None, "constant")
        elif inc_ok:
            verdict_iv = ConditionVerdict(True, None, "strictly increasing")
        elif dec_ok:
            verdict_iv = ConditionVerdict(True, None, "strictly decreasing")
        else:
            trend_up = v[-1] >= v[0]
            viol = dv < -tol4 if trend_up else dv > tol4
            j = int(np.argmax(viol))
            verdict_iv = ConditionVerdict(
                False, float(t[j]), "changes monotonicity direction"
            )

    c4 = float(np.max(t * g1 / g0))
    constants = CurveConstants(c1=c1, c2=c2, c3=c3, c4=c4)
    return CurveReport(
        label=curve.label,
        condition_i=verdict_i,
        condition_ii=verdict_ii,
        condition_iii=verdict_iii,
        condition_iv=verdict_iv,
        constants=constants,
        grid=grid,
        origin_values=origin,
    )
