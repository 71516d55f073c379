"""Singular integral and maximal operators on grid functions.

Principal-value integrals are discretized by pairing +t with -t on a graded
node set (fine near the inner cutoff, geometrically coarsening outward, with
an oscillation-aware refinement of at least 8 nodes per phase period).  The
paired integrand [g(t) f(x-t) - g(-t) f(x+t)] / t cancels the singularity
analytically.

Fast path: because f is read by linear (bilinear in 2D) interpolation on a
uniform grid, the quadrature sum over nodes is *exactly* a discrete
convolution of the grid samples with a kernel obtained by hat-binning the
node weights onto the grid lattice.  One routine, _assemble, builds every
such kernel in one pass over the nodes; an operator supplies only its node
plan, its reach and its weights at +t and -t (and, in 2D, where a node
lands on x2).  For modulation fields taking few values the operator is
evaluated per constant-u group of output points with one FFT convolution
each, by one routine, _apply_groups; this reorders the same floating-point
sum, it is not an approximation.  One group (constant u) skips the sort and
keeps its convolution whole.  Each FFT runs over the per-axis box of the
input's nonzero samples only, computed once per call: samples outside it
add exact zeros, and the result is placed at the box's start minus the
kernel's reach.  An input whose first and last sample on every axis carry
mass has the whole grid as its box, found without a scan, and gets the
full-grid FFT's result bit for bit, in a fresh grid-sized array.  A direct
chunked evaluation covers the many-valued case and doubles as the oracle in
tests.

Kernel memo: the 1D grouped operators (carleson_apply, truncated_piece_apply
and both channels of low_split_apply) build their kernels in module-level
functions of hashable arguments only, keyed on (curve, v, cfg, step),
(curve, v, k, step) and (curve, v, cfg, step) respectively, and keep them in
one least-recently-used memo of at most _KERNEL_MEMO_BYTES kernel bytes.
maximal_truncated_hilbert takes each octave shell [a, b] from the same
builder as carleson_apply, at v = 0 with the range (a, b).  A
hit returns the arrays the first build made, marked read-only, so results
are bit-identical to a fresh build.  Curve equality compares the derivative
callables by identity: two separately built curves never share an entry.
Input checks, coverage, grouping, convolution and silencing stay per call,
and 2D kernels are built afresh every time.

Out-of-grid reads are zero (compact-support convention).  With strict=True
an operator refuses, with a CoverageError naming the extent read on each axis,
inputs whose boundary samples carry mass while translates read beyond them.
Every operator refuses NaN or inf input with a NonFiniteError, since one
FFT would spread it to every output.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple, Union

import numpy as np
from scipy.ndimage import maximum_filter1d
from scipy.signal import fftconvolve

from .curves import Curve, builtin_curve
from .dyadic import frequency_index, make_bump, smooth_step
from .errors import CoverageError
from .gridfn import GridFunction1D, GridFunction2D, ModulationField, _axes, _require_finite

__all__ = [
    "PVConfig",
    "carleson_apply",
    "hilbert_variable_apply",
    "truncated_piece_apply",
    "annulus_piece_apply",
    "low_split_apply",
    "hl_maximal",
    "maximal_truncated_hilbert",
    "shifted_maximal",
]

# node budget per kernel; octave plans are rescaled (and flagged unresolved)
# rather than letting a wild modulation run away with memory
MAX_KERNEL_NODES = 20_000_000
_NODE_CHUNK = 1_000_000
_EDGE_TOL = 1e-9
_GROUP_LIMIT = 64  # beyond this many distinct u values, fall back to direct
_PSI = make_bump()  # the dyadic window of every annulus piece
_KERNEL_MEMO_BYTES = 64 * 2 ** 20  # total kernel bytes the 1D memo keeps

# phase factors short-circuit at u = 0, but keep a real curve for safety
_LINE = builtin_curve("power", 1.0)


@dataclass(frozen=True)
class PVConfig:
    """Truncation and quadrature parameters for principal-value integrals."""

    epsilon: float
    radius: float
    substep: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.radius > self.epsilon:
            raise ValueError("radius must exceed epsilon")
        if not 0 < self.substep <= self.epsilon:
            raise ValueError("substep must lie in (0, epsilon]")

    def refined(self, factor: float = 2.0) -> "PVConfig":
        return PVConfig(self.epsilon / factor, self.radius, self.substep / factor)


# ---------------------------------------------------------------------------
# graded node plans and kernel binning


def _octave_plans(
    eps: float,
    radius: float,
    substep: float,
    rate_fn: Optional[Callable[[float, float], float]] = None,
) -> Tuple[List[Tuple[float, float, int]], bool]:
    """Midpoint-panel counts per octave of [eps, radius]; see module docstring."""
    plans: List[Tuple[float, float, int]] = []
    a = eps
    total = 0
    while a < radius:
        b = min(2.0 * a, radius)
        width = b - a
        h = substep * max(1.0, a)
        m = int(math.ceil(width / h))
        if rate_fn is not None:
            nu = float(rate_fn(a, b))
            if nu > 0 and np.isfinite(nu):
                m = max(m, int(math.ceil(width * 8.0 * nu / (2.0 * math.pi))))
        m = max(m, 4)
        plans.append((a, b, m))
        total += m
        a = b
    resolved = True
    if total > MAX_KERNEL_NODES:
        scale = MAX_KERNEL_NODES / float(total)
        plans = [(a, b, max(4, int(m * scale))) for a, b, m in plans]
        resolved = False
    return plans, resolved


def _iter_nodes(plans: Iterable[Tuple[float, float, int]]):
    """Yield (t_midpoints, weights) arrays, chunked to bound memory."""
    for a, b, m in plans:
        h = (b - a) / m
        start = 0
        while start < m:
            stop = min(start + _NODE_CHUNK, m)
            idx = np.arange(start, stop, dtype=float)
            yield a + (idx + 0.5) * h, np.full(stop - start, h)
            start = stop


def _assemble(plans, steps, reach, weights, shift=None) -> List[np.ndarray]:
    """Kernels from one pass over the nodes of plans, paired over +t and -t.

    weights(t, w) gives, for each output channel, the complex weights at +t
    and at -t.  A node s sits at s/steps[0] on axis 0 and, for the 2D
    kernels, at shift(s)/steps[1] on axis 1; lattice index reach[i] is the
    origin of axis i, and the kernel spans 2*reach[i] + 2 cells there.
    """
    shape = tuple(2 * r + 2 for r in reach)
    kernels: List[np.ndarray] = []
    for t, w in _iter_nodes(plans):
        pairs = weights(t, w)
        if not kernels:
            kernels = [np.zeros(shape, dtype=np.complex128) for _ in pairs]
        for side, s in enumerate((t, -t)):
            pos = [s / steps[0] + reach[0]]
            if shift is not None:
                pos.append(shift(s) / steps[1] + reach[1])
            _bin_hat(kernels, pos, [pair[side] for pair in pairs])
        del pairs  # else the next chunk's weights are built beside it: higher peak memory
    return kernels


def _bin_hat(kernels: List[np.ndarray], pos: List[np.ndarray], qs: List[np.ndarray]) -> None:
    """Hat-bin complex weights qs[c] at real lattice positions pos into kernels[c].

    pos holds one coordinate array per axis.  The corners are visited with
    axis 0 fastest, so every bincount add comes in one fixed order.
    """
    base = [np.floor(p).astype(np.int64) for p in pos]
    frac = [p - i for p, i in zip(pos, base)]
    shape, size = kernels[0].shape, kernels[0].size
    for corner in itertools.product((0, 1), repeat=len(pos)):
        corner = corner[::-1]
        # temporaries are made per corner: holding all of them is slower
        lin = base[0] + 1 if corner[0] else base[0]
        hat = frac[0] if corner[0] else 1 - frac[0]
        for ax in range(1, len(pos)):
            lin = lin * shape[ax] + (base[ax] + corner[ax])
            hat = hat * (frac[ax] if corner[ax] else 1 - frac[ax])
        for acc, q in zip(kernels, qs):
            flat = acc.reshape(-1)
            flat.real += np.bincount(lin, weights=q.real * hat, minlength=size)[:size]
            flat.imag += np.bincount(lin, weights=q.imag * hat, minlength=size)[:size]


def _phase_factor(curve: Curve, v: float, t: np.ndarray) -> np.ndarray:
    """e^{i v gamma(t)}.  An even curve gives the same array at -t bit for
    bit, so its -t weights are the negated +t weights."""
    if v == 0.0:
        return np.ones(t.shape, dtype=np.complex128)
    return np.exp(1j * v * curve.deriv(t, 0, check=False))


class _KernelMemo:
    """Least-recently-used memo of 1D kernel builds, bounded in total bytes.

    Decorates a build(*args) -> (kernels, reach) or None and keys each entry
    on the build and its arguments.  Kernels are made read-only before they
    are returned, so no caller can change one that the memo shares.  A build
    larger than _KERNEL_MEMO_BYTES is returned but not kept.
    """

    def __init__(self):
        self.entries: "collections.OrderedDict[tuple, tuple]" = collections.OrderedDict()
        self.nbytes = 0
        self.hits = 0

    def clear(self) -> None:
        self.entries.clear()
        self.nbytes = 0
        self.hits = 0

    def __call__(self, build):
        @functools.wraps(build)
        def cached(*args):
            key = (build, *args)
            if key in self.entries:
                self.entries.move_to_end(key)
                self.hits += 1
                return self.entries[key][0]
            built = build(*args)
            size = 0
            if built is not None:
                for kernel in built[0]:
                    kernel.flags.writeable = False
                    size += kernel.nbytes
            if size <= _KERNEL_MEMO_BYTES:
                self.entries[key] = (built, size)
                self.nbytes += size
                while self.nbytes > _KERNEL_MEMO_BYTES:
                    _, (_, old) = self.entries.popitem(last=False)
                    self.nbytes -= old
            return built

        return cached


_kernel_memo = _KernelMemo()


# ---------------------------------------------------------------------------
# coverage policy


def _check_coverage(
    f: Union[GridFunction1D, GridFunction2D], reach: Tuple[float, ...], strict: bool
) -> None:
    """With strict, refuse f when its edge samples carry mass: translates by
    up to reach[axis] on each axis then read beyond the grid."""
    if not strict:
        return
    av = np.abs(f.values)
    peak = float(np.max(av))
    edge = max(float(np.take(av, [0, 1, -2, -1], axis=ax).max()) for ax in range(av.ndim))
    if peak > 0.0 and edge > _EDGE_TOL * peak:
        extent = tuple((o - r, o + h * (n - 1) + r) for (o, h, n), r in zip(_axes(f), reach))
        span = " x ".join(f"[{lo:g}, {hi:g}]" for lo, hi in extent)
        raise CoverageError(
            f"grid does not cover the translate range {span} and the boundary "
            "samples are not negligible",
            missing_extent=extent,
        )


def _group_by_value(vals: np.ndarray) -> List[Tuple[float, np.ndarray]]:
    # one group, no sort (-0.0 and 0.0 are one value, as in np.unique); the
    # end test turns most mixed u away without a pass over them
    if vals.size and vals[0] == vals[-1] and (vals == vals[0]).all():
        return [(float(vals[0]), np.arange(vals.size))]
    uniq, inverse = np.unique(vals, return_inverse=True)
    return [(float(uniq[g]), np.nonzero(inverse == g)[0]) for g in range(uniq.size)]


def _nonzero_box(values: np.ndarray) -> Tuple[Tuple[int, int], ...]:
    """Per-axis [start, stop) of the nonzero samples.

    The box is the whole grid exactly when the first and last slice along
    every axis hold a nonzero sample, which is checked before any scan.  An
    all-zero input gives an empty box.
    """
    if values.ndim == 1:
        whole = bool(values[0]) and bool(values[-1])
    else:
        whole = all(e.any() for e in (values[0], values[-1], values[:, 0], values[:, -1]))
    if whole:
        return tuple((0, n) for n in values.shape)
    nz = values != 0
    box = []
    for ax in range(values.ndim):
        hit = nz.any(axis=tuple(a for a in range(values.ndim) if a != ax))
        lo = int(hit.argmax())
        if not hit[lo]:
            return ((0, 0),) * values.ndim
        box.append((lo, hit.size - int(hit[::-1].argmax())))
    return tuple(box)


def _convolve(values: np.ndarray, kernel: np.ndarray, reach: Tuple[int, ...], box) -> np.ndarray:
    """values convolved with kernel, whose lattice index reach[i] is the origin.

    box is _nonzero_box(values).  Samples outside it add exact zeros, so only
    the box is transformed and the result lands in a fresh zero array at the
    box's start minus the reach.  A whole-grid box crops nothing, so the
    transform is the full-grid one, bit for bit.
    """
    out = np.zeros(values.shape, dtype=np.complex128)
    if any(lo == hi for lo, hi in box):
        return out
    full = fftconvolve(values[tuple(slice(lo, hi) for lo, hi in box)], kernel, mode="full")
    dst, src = [], []
    for (lo, _), r, n, m in zip(box, reach, values.shape, full.shape):
        start = lo - r  # the grid index of full's first entry on this axis
        a, b = max(start, 0), min(start + m, n)
        dst.append(slice(a, b))
        src.append(slice(a - start, b - start))
    out[tuple(dst)] = full[tuple(src)]
    return out


def _silence(values: np.ndarray, outs: List[np.ndarray], reach) -> None:
    """Set exact zero in outs wherever the read window carries no mass.

    reach is the window half-width in cells per axis.  The FFT smears
    rounding noise everywhere, but a point whose translates only ever read
    zeros must come out zero.
    """
    if any(reach):
        act = (np.abs(values) > 0.0).astype(np.uint8)
        for axis, r in enumerate(reach):
            act = maximum_filter1d(act, size=2 * r + 1, mode="constant", cval=0, axis=axis)
        for out in outs:
            out[act == 0] = 0.0


def _apply_groups(values: np.ndarray, groups, build, channels: int = 1) -> List[np.ndarray]:
    """Per constant-u group, convolve with its kernels and keep its rows.

    build(v) returns (kernels, reach), one kernel per output channel, or
    None for a group that is zero.  Afterwards the outputs are silenced
    with the largest reach + 1 on each axis.
    """
    outs = [np.zeros(values.shape, dtype=np.complex128) for _ in range(channels)]
    reach = [0] * values.ndim
    box = _nonzero_box(values)
    for v, rows in groups:
        built = build(v)
        if built is None:
            continue
        kernels, r = built
        for c, kernel in enumerate(kernels):
            if len(groups) == 1:  # the group holds every row
                outs[c] = _convolve(values, kernel, r, box)
            else:
                outs[c][rows] = _convolve(values, kernel, r, box)[rows]
        reach = [max(a, m + 1) for a, m in zip(reach, r)]
    _silence(values, outs, reach)
    return outs


# ---------------------------------------------------------------------------
# Carleson-type modulated singular integral (1D)


def _carleson_plans(curve: Curve, v: float, cfg: PVConfig):
    rate = None
    if v != 0.0:
        rate = lambda a, b: abs(v) * float(curve.deriv(b, 1, check=False))
    return _octave_plans(cfg.epsilon, cfg.radius, cfg.substep, rate)


@_kernel_memo
def _carleson_kernel(curve: Curve, v: float, cfg: PVConfig, step: float):
    """carleson_apply's kernel and reach for the group at modulation v, and
    at v = 0 one octave shell of maximal_truncated_hilbert."""
    plans, _ = _carleson_plans(curve, v, cfg)
    M = int(math.ceil(cfg.radius / step)) + 1

    def weights(t, w):
        plus = w * _phase_factor(curve, v, t) / t
        minus = -plus if curve.parity == "even" else -w * _phase_factor(curve, v, -t) / t
        return [(plus, minus)]

    return tuple(_assemble(plans, (step,), (M,), weights)), (M,)


def _carleson_direct(
    f: GridFunction1D, u_vals: np.ndarray, curve: Curve, cfg: PVConfig
) -> np.ndarray:
    """Chunked per-point evaluation; reference path for many-valued u."""
    xs = f.xs()
    out = np.zeros(f.n, dtype=np.complex128)
    for v, rows in _group_by_value(u_vals):
        plans, _ = _carleson_plans(curve, v, cfg)
        x = xs[rows]
        acc = np.zeros(rows.size, dtype=np.complex128)
        for t, w in _iter_nodes(plans):
            blk = max(1, int(2_000_000 // max(1, t.size)))
            gp = w * _phase_factor(curve, v, t) / t
            gm = w * _phase_factor(curve, v, -t) / t
            for s in range(0, x.size, blk):
                xx = x[s : s + blk, None]
                acc[s : s + blk] += (f.sample(xx - t) * gp).sum(axis=1)
                acc[s : s + blk] -= (f.sample(xx + t) * gm).sum(axis=1)
        out[rows] = acc
    return out


def carleson_apply(
    f: GridFunction1D,
    u: ModulationField,
    curve: Curve,
    cfg: PVConfig,
    *,
    strict: bool = False,
) -> GridFunction1D:
    """Modulated principal-value transform with phase u(x) * gamma(t)."""
    _require_finite(f.values, "carleson_apply input")
    _check_coverage(f, (cfg.radius,), strict)
    u_vals = np.asarray(u.eval(f.xs()), dtype=float)
    groups = _group_by_value(u_vals)
    if len(groups) > _GROUP_LIMIT:
        return f.with_values(_carleson_direct(f, u_vals, curve, cfg))
    (out,) = _apply_groups(f.values, groups, lambda v: _carleson_kernel(curve, v, cfg, f.step))
    return f.with_values(out)


def maximal_truncated_hilbert(
    f: GridFunction1D, cfg: PVConfig, *, strict: bool = False
) -> GridFunction1D:
    """Max over geometric truncation pairs of the plain Hilbert integral."""
    _require_finite(f.values, "maximal_truncated_hilbert input")
    _check_coverage(f, (cfg.radius,), strict)
    shells: List[np.ndarray] = []
    box = _nonzero_box(f.values)
    a, M = cfg.epsilon, -1  # the last (widest) shell sets the silence reach
    while a < cfg.radius:
        b = min(2.0 * a, cfg.radius)
        (kernel,), (M,) = _carleson_kernel(_LINE, 0.0, PVConfig(a, b, cfg.substep), f.step)
        shells.append(_convolve(f.values, kernel, (M,), box))
        a = b
    cum = np.zeros((len(shells) + 1, f.n), dtype=np.complex128)
    for j, s in enumerate(shells):
        cum[j + 1] = cum[j] + s
    best = np.zeros(f.n)
    for bidx in range(1, len(shells) + 1):
        for aidx in range(bidx):
            np.maximum(best, np.abs(cum[bidx] - cum[aidx]), out=best)
    _silence(f.values, [best], (M + 1,))
    return f.with_values(best.astype(np.complex128))


# ---------------------------------------------------------------------------
# 2D transforms along the variable curve


def hilbert_variable_apply(
    f: GridFunction2D,
    u: ModulationField,
    curve: Curve,
    cfg: PVConfig,
    *,
    strict: bool = False,
) -> GridFunction2D:
    """Transform along the variable curve (x1 - t, x2 - u(x1) gamma(t))."""
    _require_finite(f.values, "hilbert_variable_apply input")
    u_vals = np.asarray(u.eval(f.x1s()), dtype=float)
    vmax = float(np.max(np.abs(u_vals))) if u_vals.size else 0.0
    shift_cap = abs(vmax) * float(curve.deriv(cfg.radius, 0, check=False)) if vmax else 0.0
    _check_coverage(f, (cfg.radius, shift_cap), strict)

    def weights(t, w):
        q = (w / t).astype(np.complex128)
        return [(q, -q)]

    def build(v):
        # the x2 shift must be resolved to the grid scale alongside the grading
        rate = lambda a, b: abs(v) * float(curve.deriv(b, 1, check=False)) / f.h2
        plans, _ = _octave_plans(cfg.epsilon, cfg.radius, cfg.substep, rate)
        sb = abs(v) * float(curve.deriv(cfg.radius, 0, check=False)) + 1.0
        reach = (int(math.ceil(cfg.radius / f.h1)) + 1, int(math.ceil(sb / f.h2)) + 1)
        on_x2 = lambda s: v * curve.deriv(s, 0, check=False)
        return _assemble(plans, (f.h1, f.h2), reach, weights, on_x2), reach

    (out,) = _apply_groups(f.values, _group_by_value(u_vals), build)
    return f.with_values(out)


# ---------------------------------------------------------------------------
# dyadic annulus pieces


def _annulus_plan(
    scale: float, rate: float, f_step: float
) -> Tuple[List[Tuple[float, float, int]], bool]:
    """Uniform-step plan over the annulus [scale/2, 2*scale]."""
    h = min(f_step, scale / 64.0)
    if rate > 0 and np.isfinite(rate):
        h = min(h, 2.0 * math.pi / (8.0 * rate))
    m = int(math.ceil(1.5 * scale / h))
    resolved = m <= MAX_KERNEL_NODES
    m = min(m, MAX_KERNEL_NODES)
    return [(0.5 * scale, 2.0 * scale, m)], resolved


def truncated_piece_apply(
    f: GridFunction1D,
    u: ModulationField,
    curve: Curve,
    k: int,
    *,
    strict: bool = False,
) -> GridFunction1D:
    """Single dyadic piece of the modulated transform at relative scale k.

    The integration annulus sits at 2^{k+n(x)} where n(x) is the frequency
    index of u(x); points with u(x) = 0 have an empty high-frequency part
    and return 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _require_finite(f.values, "truncated_piece_apply input")
    u_vals = np.asarray(u.eval(f.xs()), dtype=float)

    def build(v):
        if v == 0.0:
            return None
        _check_coverage(f, (2.0 * _piece_scale(curve, v, k),), strict)
        return _piece_kernel(curve, v, k, f.step)

    (out,) = _apply_groups(f.values, _group_by_value(u_vals), build)
    return f.with_values(out)


def _piece_scale(curve: Curve, v: float, k: int) -> float:
    """Centre 2^{k+n} of the annulus at modulation v != 0."""
    return 2.0 ** (k + frequency_index(abs(v), curve, 0))


@_kernel_memo
def _piece_kernel(curve: Curve, v: float, k: int, step: float):
    """truncated_piece_apply's kernel and reach for the group at v != 0."""
    scale = _piece_scale(curve, v, k)
    rate = abs(v) * float(curve.deriv(2.0 * scale, 1, check=False))
    plans, _ = _annulus_plan(scale, rate, step)
    M = int(math.ceil(2.0 * scale / step)) + 1

    def weights(t, w):
        window = _PSI(t / scale) / t
        plus = w * _phase_factor(curve, v, t) * window
        minus = -plus if curve.parity == "even" else -w * _phase_factor(curve, v, -t) * window
        return [(plus, minus)]

    return tuple(_assemble(plans, (step,), (M,), weights)), (M,)


def annulus_piece_apply(
    f: GridFunction2D,
    u: ModulationField,
    curve: Curve,
    k: int,
    l: int,
    *,
    strict: bool = False,
) -> GridFunction2D:
    """Single annulus piece of the 2D transform applied to a band-projected f."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _require_finite(f.values, "annulus_piece_apply input")
    u_vals = np.asarray(u.eval(f.x1s()), dtype=float)

    def build(v):
        if v == 0.0:
            return None
        n = frequency_index(abs(v), curve, l)
        scale = 2.0 ** (k + n)
        shift = abs(v) * float(curve.deriv(2.0 * scale, 0, check=False))
        _check_coverage(f, (2.0 * scale, shift), strict)
        rate2 = abs(v) * float(curve.deriv(2.0 * scale, 1, check=False)) / f.h2
        plans, _ = _annulus_plan(scale, rate2, f.h1)
        reach = (int(math.ceil(2.0 * scale / f.h1)) + 1,
                 int(math.ceil((shift + 1.0) / f.h2)) + 1)

        def weights(t, w):
            window = (w * _PSI(t / scale) / t).astype(np.complex128)
            return [(window, -window)]

        on_x2 = lambda s: v * curve.deriv(s, 0, check=False)
        return _assemble(plans, (f.h1, f.h2), reach, weights, on_x2), reach

    (out,) = _apply_groups(f.values, _group_by_value(u_vals), build)
    return f.with_values(out)


def low_split_apply(
    f: GridFunction1D,
    u: ModulationField,
    curve: Curve,
    cfg: PVConfig,
    *,
    strict: bool = False,
) -> Tuple[GridFunction1D, GridFunction1D]:
    """Low-frequency part of the modulated transform, split into two terms.

    The low cutoff phi is the telescoped tail of the dyadic bumps below the
    frequency index: phi(t) = eta(2^{-(n-1)} |t|), supported on |t| <= 2^n.
    Term one carries the bounded factor (e^{i u gamma} - 1), term two is the
    plain principal-value part; both are dominated by maximal functions.
    For u(x) = 0 the whole transform is low frequency: term one vanishes and
    term two is the truncated Hilbert integral over the full cfg range.
    Both kernels of a group come from one pass over its nodes.
    """
    _require_finite(f.values, "low_split_apply input")
    _check_coverage(f, (cfg.radius,), strict)
    u_vals = np.asarray(u.eval(f.xs()), dtype=float)
    build = lambda v: _low_split_kernels(curve, v, cfg, f.step)
    t1, t2 = _apply_groups(f.values, _group_by_value(u_vals), build, channels=2)
    return f.with_values(t1), f.with_values(t2)


@_kernel_memo
def _low_split_kernels(curve: Curve, v: float, cfg: PVConfig, step: float):
    """low_split_apply's two kernels and reach for the group at v, or None."""
    if v == 0.0:
        lo_cut = cfg.radius
        phi = lambda t: np.ones_like(t)
    else:
        n = frequency_index(abs(v), curve, 0)
        lo_cut = min(2.0 ** n, cfg.radius)
        phi = lambda t: smooth_step(np.abs(t) * 2.0 ** (-(n - 1)))
    if lo_cut <= cfg.epsilon:
        return None
    plans, _ = _carleson_plans(curve, v, PVConfig(cfg.epsilon, lo_cut, cfg.substep))
    M = int(math.ceil(lo_cut / step)) + 1

    def weights(t, w):
        q_base_p = w * phi(t) / t
        q_base_m = -q_base_p
        plus = q_base_p * (_phase_factor(curve, v, t) - 1.0)
        minus = -plus if curve.parity == "even" else q_base_m * (_phase_factor(curve, v, -t) - 1.0)
        return [(plus, minus), (q_base_p, q_base_m)]

    return tuple(_assemble(plans, (step,), (M,), weights)), (M,)


# ---------------------------------------------------------------------------
# maximal operators


def _prefix_sums(a2: np.ndarray) -> np.ndarray:
    """Zero-led running sums of each row of a2, stored with x along axis 0.

    Entry [j, r] is a2[r, :j].sum() accumulated left to right, j = 0 .. n.
    """
    rows, n = a2.shape
    prefix = np.empty((n + 1, rows))
    prefix[0] = 0.0
    np.cumsum(a2.T, axis=0, out=prefix[1:])
    return prefix


def _segment_sums(prefix: np.ndarray, lo: int, width: int, count: int) -> np.ndarray:
    """Sums over the samples [lo+i, lo+i+width) of every row, i = 0 .. count-1.

    Each sum is P[hi] - P[lo] with the indices clipped to the grid, so reads
    left of it are 0 and reads right of it are P[n].  The clipped ends are
    filled with those constants and the rest is a difference of two
    contiguous slices: the same floats as a clipped gather, no padding.
    """
    n = prefix.shape[0] - 1
    hi = lo + width
    out = np.empty((count, prefix.shape[1]))

    def clip(i: int) -> int:
        return min(max(i, 0), count)

    # the hi read is 0 below i = a_hi and P[n] from b_hi on; likewise lo
    a_hi, b_hi = clip(-hi), clip(n + 1 - hi)
    a_lo, b_lo = clip(-lo), clip(n + 1 - lo)
    out[:a_hi] = 0.0
    mid = min(a_lo, b_hi)
    out[a_hi:mid] = prefix[hi + a_hi : hi + mid]
    if a_lo <= b_hi:
        np.subtract(prefix[hi + a_lo : hi + b_hi], prefix[lo + a_lo : lo + b_hi],
                    out=out[a_lo:b_hi])
    else:
        out[b_hi:a_lo] = prefix[n]
    top = max(a_lo, b_hi)
    np.subtract(prefix[n], prefix[lo + top : lo + b_lo], out=out[top:b_lo])
    out[b_lo:] = 0.0
    return out


def _shifted_maximal_rows(
    a2: np.ndarray, sigma: float, prefix: Optional[np.ndarray] = None
) -> np.ndarray:
    """Shifted maximal function of each row of a nonnegative (rows, n) array.

    The one implementation behind shifted_maximal and hl_maximal(...,
    'aligned'); a 1D input is one row.  Level m = 1, 2, 4, .. < 2n holds the
    windows of m samples, and d = round(sigma*m) is all that depends on
    sigma.  Window i (left end i-(m-1)) averages the pieces shifted by -d and
    +d (their union, counted once) over m; reads off the grid are zero mass.
    Each point then takes the max over the m windows containing it, by
    log2(m) doubling passes.  A level with d >= n+m-1 puts both pieces past
    the grid for every window, so its means are 0 and it is skipped.  Pass
    prefix = _prefix_sums(a2) to reuse it across calls on the same rows.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    rows, n = a2.shape
    if prefix is None:
        prefix = _prefix_sums(a2)
    best = np.zeros((n, rows))
    m = 1
    while m < 2 * n:
        d = int(round(sigma * m))
        if d < n + m - 1:
            count = n + m - 1
            first = -(m - 1)
            if d == 0:
                ws = _segment_sums(prefix, first, m, count)
            elif 2 * d >= m:  # pieces [s-d, s-d+m) and [s+d, s+d+m) are disjoint
                ws = _segment_sums(prefix, first - d, m, count)
                ws += _segment_sums(prefix, first + d, m, count)
            else:  # they overlap; the union is one interval, counted once
                ws = _segment_sums(prefix, first - d, m + 2 * d, count)
            ws /= float(m)
            k = 1
            while k < m:  # ws[z] becomes max ws[z : z+2k]
                ws = np.maximum(ws[:-k], ws[k:])
                k *= 2
            np.maximum(best, ws, out=best)
        m *= 2
    return np.ascontiguousarray(best.T)


def hl_maximal(f: GridFunction1D, family: str = "centered") -> GridFunction1D:
    """Maximal averages of |f| over a geometric interval family.

    family='centered': centered sample means over radii step*2^j (plus the
    point value itself).  family='aligned': grid-aligned windows of length
    step*2^j containing the point, the sigma = 0 case of shifted_maximal
    (the same row routine, no separate code path).
    """
    _require_finite(f.values, "hl_maximal input")
    a = np.abs(f.values)
    n = a.size
    if family == "centered":
        prefix = _prefix_sums(a[None, :])
        best = a.copy()
        m = 1
        while m < 2 * n:
            ws = _segment_sums(prefix, -m, 2 * m + 1, n)[:, 0]
            np.maximum(best, ws / (2 * m + 1), out=best)
            m *= 2
        return f.with_values(best.astype(np.complex128))
    if family == "aligned":
        return shifted_maximal(f, 0.0)
    raise ValueError("family must be 'centered' or 'aligned'")


def shifted_maximal(f: GridFunction1D, sigma: float) -> GridFunction1D:
    """Shifted maximal operator over grid-aligned dyadic-length windows.

    For each window I of length step*2^j containing the point, averages |f|
    over the two-piece shifted set I +- sigma|I| (union, counted once),
    normalized by |I| as in the defining display.  A thin wrapper: |f| is
    one row of _shifted_maximal_rows, which skips the lengths whose shifted
    pieces miss the grid entirely.
    """
    _require_finite(f.values, "shifted_maximal input")
    best = _shifted_maximal_rows(np.abs(f.values)[None, :], sigma)[0]
    return f.with_values(best.astype(np.complex128))
