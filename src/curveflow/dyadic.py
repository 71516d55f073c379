"""Dyadic partition of unity, frequency cutoffs, projections, frequency index.

Both dyadic windows are eta(a|t|) - eta(b|t|), with eta the standard
exp(-1/s) smooth step (1 on [0,1], 0 on [2,inf)).  The bump psi has
(a, b) = (1, 2): it lives on 1/2 <= |t| <= 2, is even (so several
principal-value integrals vanish by parity), and its dilates
psi_l(t) = psi(2^{-l} t) telescope to 1 for every t != 0.  The cutoff rho
has (a, b) = (1/2, 4): it lives on 1/4 <= |xi| <= 4 and is 1 on
1/2 <= |xi| <= 2.

Projections act in the second variable of a 2D grid function as frequency
multipliers (psi_l for the band projection, rho_l for the plateau cutoff),
applied via the FFT.  For band-limited grid data this is identical to the
spatial convolution definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import Curve
from .gridfn import GridFunction2D

__all__ = [
    "BumpFunction",
    "FrequencyCutoff",
    "make_bump",
    "make_frequency_cutoff",
    "project",
    "frequency_index",
    "max_projection_level",
]


def _glue(s: np.ndarray) -> np.ndarray:
    """exp(-1/s) for s > 0, zero otherwise (smooth at 0 from the right)."""
    out = np.zeros_like(s)
    pos = s > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / s[pos])
    return out


def smooth_step(s) -> np.ndarray:
    """eta: 1 on [0, 1], 0 on [2, inf), smooth exp(-1/s) glue in between."""
    s = np.abs(np.asarray(s, dtype=float))
    a = _glue(2.0 - s)
    b = _glue(s - 1.0)
    with np.errstate(invalid="ignore"):
        mid = a / (a + b)
    return np.where(s <= 1.0, 1.0, np.where(s >= 2.0, 0.0, mid))


@dataclass(frozen=True)
class BumpFunction:
    """The dyadic bump psi supported on {1/2 <= |t| <= 2}, even, 0 <= psi <= 1."""

    _scales = (1.0, 2.0)  # (a, b) of the window eta(a|t|) - eta(b|t|)

    def __call__(self, t) -> np.ndarray:
        t = np.abs(np.asarray(t, dtype=float))
        a, b = self._scales
        return smooth_step(a * t) - smooth_step(b * t)

    def dilated(self, l: int, t) -> np.ndarray:
        """The window at 2^{-l} t: psi_l(t) = psi(2^{-l} t)."""
        return self(np.asarray(t, dtype=float) * 2.0 ** (-l))


class FrequencyCutoff(BumpFunction):
    """rho supported on {1/4 <= |xi| <= 4}, equal to 1 on {1/2 <= |xi| <= 2}."""

    _scales = (0.5, 4.0)


def make_bump() -> BumpFunction:
    return BumpFunction()


def make_frequency_cutoff() -> FrequencyCutoff:
    return FrequencyCutoff()


def max_projection_level(h2: float) -> int:
    """Largest l with 2^{l+2} <= pi/h2 (multiplier support inside Nyquist)."""
    return int(np.floor(np.log2(np.pi / h2))) - 2


def project(f: GridFunction2D, l: int, which: str = "P") -> GridFunction2D:
    """Littlewood-Paley projection in the second variable.

    which = 'P' multiplies the second-variable spectrum by psi_l, 'PP' by
    rho_l (the plateau cutoff).  Frequencies are angular.
    """
    if which not in ("P", "PP"):
        raise ValueError("which must be 'P' (band) or 'PP' (plateau cutoff)")
    l_max = max_projection_level(f.h2)
    if l > l_max:
        raise ValueError(
            f"projection level {l} not resolvable: need 2^(l+2) <= pi/h2, so l <= {l_max}"
        )
    omega = 2.0 * np.pi * np.fft.fftfreq(f.n2, d=f.h2)
    window = make_bump() if which == "P" else make_frequency_cutoff()
    mult = window.dilated(l, omega)
    spec = np.fft.fft(f.values, axis=1)
    out = np.fft.ifft(spec * mult[None, :], axis=1)
    return f.with_values(out)


NO_HIGH_PART = None  # sentinel returned for u = 0: the decomposition is all-low


def frequency_index(u_abs: float, curve: Curve, l: int = 0) -> Optional[int]:
    """Largest integer n with gamma(2^n) <= 1 / (2^l * u_abs).

    Returns the no-high-part sentinel (None) when u_abs == 0.  The returned
    n satisfies the sandwich 1/gamma(2^{n+1}) <= 2^l u_abs <= 1/gamma(2^n).
    """
    if u_abs < 0:
        raise ValueError("frequency_index expects |u|; got a negative value")
    if u_abs == 0:
        return NO_HIGH_PART
    target = 1.0 / (2.0 ** l * u_abs)

    def g(n: int) -> float:
        return float(curve.deriv(2.0 ** n, 0, check=False))

    # exponential bracketing on the integer exponent
    if g(0) <= target:
        lo, hi, step = 0, 1, 1
        while g(hi) <= target:
            lo = hi
            step *= 2
            hi += step
    else:
        hi, lo, step = 0, -1, 1
        while g(lo) > target:
            hi = lo
            step *= 2
            lo -= step
    # invariant: g(lo) <= target < g(hi); binary search for the largest such lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo
