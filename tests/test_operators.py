"""Operator tests: closed-form values, fine-step oracles, exact identities."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter1d
from scipy.signal import fftconvolve

from curveflow.curves import Curve, builtin_curve
from curveflow.dyadic import frequency_index, make_bump
from curveflow.errors import CoverageError, NonFiniteError
from curveflow.gridfn import GridFunction1D, GridFunction2D, ModulationField, _axes
from curveflow.operators import (
    PVConfig,
    annulus_piece_apply,
    carleson_apply,
    hilbert_variable_apply,
    hl_maximal,
    low_split_apply,
    maximal_truncated_hilbert,
    shifted_maximal,
    truncated_piece_apply,
)
from curveflow import operators
from curveflow.operators import (
    _carleson_direct,
    _carleson_kernel,
    _kernel_memo,
    _prefix_sums,
    _segment_sums,
    _shifted_maximal_rows,
)


def indicator(lo, hi, origin, step, n):
    xs = origin + step * np.arange(n)
    vals = ((xs >= lo) & (xs <= hi)).astype(np.complex128)
    return GridFunction1D(origin, step, vals)


def gaussian(origin, step, n, width=1.0, center=0.0):
    xs = origin + step * np.arange(n)
    return GridFunction1D(origin, step, np.exp(-((xs - center) / width) ** 2).astype(np.complex128))


# ---------------------------------------------------------------------------
# configuration types


def test_pvconfig_validation():
    PVConfig(1e-4, 1.0, 1e-4)
    with pytest.raises(ValueError):
        PVConfig(0.0, 1.0, 1e-4)
    with pytest.raises(ValueError):
        PVConfig(1.0, 0.5, 1e-4)
    with pytest.raises(ValueError):
        PVConfig(1e-4, 1.0, 2e-4)
    r = PVConfig(1e-2, 4.0, 1e-2).refined()
    assert r.epsilon == 5e-3 and r.substep == 5e-3 and r.radius == 4.0


# ---------------------------------------------------------------------------
# plain Hilbert integral through the modulated operator (u = 0)


def test_hilbert_indicator_log_value():
    # H(chi_[-1,1])(x) = log((x+1)/(x-1)) for x > 1; at x = 2 this is log 3
    f = indicator(-1.0, 1.0, -4.0, 1e-3, 8001)
    cfg = PVConfig(1e-4, 16.0, 1e-4)
    out = carleson_apply(f, ModulationField.constant(0.0), builtin_curve("power", 2.0), cfg)
    at2 = out.values[6000]
    assert abs(at2 - math.log(3.0)) < 3e-3
    assert abs(at2.imag) < 1e-12
    # odd symmetry: the value at the center of an even function vanishes
    assert abs(out.values[4000]) < 1e-9


def test_carleson_vanishing_window_is_exact_zero():
    xs = -8.0 + 0.01 * np.arange(1601)
    vals = np.where((xs >= 3.0) & (xs <= 4.0), 1.0, 0.0).astype(np.complex128)
    f = GridFunction1D(-8.0, 0.01, vals)
    cfg = PVConfig(1e-3, 1.0, 1e-3)
    out = carleson_apply(f, ModulationField.constant(7.0), builtin_curve("t2log"), cfg)
    # reads at x = 0 stay inside [-1, 1] where f is identically zero
    assert out.values[800] == 0.0


def test_carleson_conjugation_symmetry():
    f = gaussian(-4.0, 0.01, 801)
    cfg = PVConfig(1e-3, 2.0, 1e-3)
    curve = builtin_curve("t2log")
    plus = carleson_apply(f, ModulationField.constant(1.3), curve, cfg)
    minus = carleson_apply(f, ModulationField.constant(-1.3), curve, cfg)
    assert np.allclose(minus.values, np.conj(plus.values), atol=1e-12)


def test_carleson_linearity():
    cfg = PVConfig(1e-3, 2.0, 1e-3)
    curve = builtin_curve("power", 2.0)
    u = ModulationField.piecewise([0.0], [0.5, 2.0])
    f = gaussian(-4.0, 0.01, 801, width=0.7)
    g = gaussian(-4.0, 0.01, 801, width=1.3, center=0.4)
    combo = f.with_values(2.0 * f.values + 3.0j * g.values)
    lhs = carleson_apply(combo, u, curve, cfg).values
    rhs = (
        2.0 * carleson_apply(f, u, curve, cfg).values
        + 3.0j * carleson_apply(g, u, curve, cfg).values
    )
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_fast_path_matches_direct_evaluation():
    # binned-kernel convolution must reproduce the per-point quadrature sum
    xs = -2.0 + 0.01 * np.arange(401)
    vals = np.exp(-8.0 * xs**2) * (np.abs(xs) < 1.5)
    f = GridFunction1D(-2.0, 0.01, vals.astype(np.complex128))
    cfg = PVConfig(1e-3, 4.0, 1e-3)
    curve = builtin_curve("t2log")
    u = ModulationField.piecewise([-0.5, 0.5], [0.7, 2.3, 0.7])
    u_vals = u.eval(f.xs())
    fast = carleson_apply(f, u, curve, cfg).values
    direct = _carleson_direct(f, u_vals, curve, cfg)
    assert np.allclose(fast, direct, rtol=1e-9, atol=1e-12)


def test_carleson_deterministic():
    f = gaussian(-4.0, 0.02, 401)
    cfg = PVConfig(1e-3, 2.0, 1e-3)
    curve = builtin_curve("power", 3.0)
    u = ModulationField.constant(2.0)
    a = carleson_apply(f, u, curve, cfg).values
    b = carleson_apply(f, u, curve, cfg).values
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# 2D transforms


def make_2d(n1, h1, o1, n2, h2, o2, fn):
    x1 = o1 + h1 * np.arange(n1)
    x2 = o2 + h2 * np.arange(n2)
    vals = fn(x1[:, None], x2[None, :]).astype(np.complex128)
    return GridFunction2D(o1, h1, o2, h2, vals)


def test_hilbert2d_even_curve_row_constant_vanishes():
    # gamma even makes the +-t contributions cancel when f ignores x1
    f = make_2d(81, 0.05, -2.0, 161, 0.1, -8.0, lambda a, b: np.exp(-(b / 2.0) ** 2) + 0.0 * a)
    cfg = PVConfig(1e-2, 0.5, 1e-2)
    out = hilbert_variable_apply(f, ModulationField.constant(1.0), builtin_curve("t2log"), cfg)
    inner = np.abs(f.x1s()) <= 1.4
    assert np.max(np.abs(out.values[inner, :])) < 1e-8


def test_directional_matches_rescaled_curve():
    double = Curve(
        label="2t^2",
        family="custom",
        parity="even",
        alpha=None,
        derivs=(
            lambda t: 2.0 * t * t,
            lambda t: 4.0 * t,
            lambda t: 4.0 * np.ones_like(t),
            lambda t: np.zeros_like(t),
        ),
    )
    f = make_2d(101, 0.04, -2.0, 201, 0.05, -5.0, lambda a, b: np.exp(-a**2 - (b / 2.0) ** 2))
    cfg = PVConfig(1e-3, 1.0, 1e-3)
    via_lambda = hilbert_variable_apply(f, ModulationField.constant(2.0), builtin_curve("power", 2.0), cfg)
    via_curve = hilbert_variable_apply(f, ModulationField.constant(1.0), double, cfg)
    assert np.allclose(via_lambda.values, via_curve.values, atol=1e-10)


def test_directional_zero_is_the_plain_row_transform():
    f = make_2d(64, 0.05, -1.6, 96, 0.1, -4.8, lambda a, b: np.exp(-a**2 - b**2))
    cfg = PVConfig(1e-2, 1.0, 1e-2)
    a = hilbert_variable_apply(f, ModulationField.constant(0.0), builtin_curve("power", 2.0), cfg)
    b = hilbert_variable_apply(f, ModulationField.constant(0.0), builtin_curve("t2log"), cfg)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# dyadic pieces


def test_truncated_piece_even_curve_constant_input():
    xs = -8.0 + 0.01 * np.arange(1601)
    f = GridFunction1D(-8.0, 0.01, np.ones(1601, dtype=np.complex128))
    out = truncated_piece_apply(f, ModulationField.constant(1.0), builtin_curve("power", 2.0), 1)
    inner = np.abs(xs) <= 3.9
    assert np.max(np.abs(out.values[inner])) < 1e-9


def test_truncated_piece_zero_modulation_gives_zero():
    f = gaussian(-4.0, 0.01, 801)
    out = truncated_piece_apply(f, ModulationField.constant(0.0), builtin_curve("power", 2.0), 2)
    assert np.all(out.values == 0.0)


def test_truncated_piece_fine_step_oracle():
    curve = builtin_curve("power", 2.0)
    f = GridFunction1D(-4.0, 2e-3, np.exp(-50.0 * (-4.0 + 2e-3 * np.arange(4001)) ** 2).astype(np.complex128))
    out = truncated_piece_apply(f, ModulationField.constant(1.0), curve, 0)
    x = 1.0
    h_o = 1e-4
    m = int(round(1.5 / h_o))
    t = 0.5 + (np.arange(m) + 0.5) * h_o
    psi = make_bump()
    w = psi(t) / t
    plus = np.exp(1j * curve.deriv(t, 0)) * f.sample(x - t)
    minus = np.exp(1j * curve.deriv(-t, 0)) * f.sample(x + t)
    oracle = np.sum(h_o * w * (plus - minus))
    got = out.values[int(round((x - f.origin) / f.step))]
    assert abs(got - oracle) < 1e-4


def test_annulus_piece_fine_step_oracle():
    curve = builtin_curve("power", 2.0)
    f = make_2d(
        121, 0.05, -3.0, 481, 0.05, -12.0,
        lambda a, b: np.exp(-a**2 - (b / 2.0) ** 2) * np.cos(1.5 * b),
    )
    out = annulus_piece_apply(f, ModulationField.constant(1.0), curve, 0, 0)
    row = 70  # x1 = 0.5
    x1 = f.x1s()[row]
    cols = np.arange(100, 380, 7)
    x2 = f.x2s()[cols]
    h_o = 1.25e-3
    m = int(round(1.5 / h_o))
    t = 0.5 + (np.arange(m) + 0.5) * h_o
    psi = make_bump()
    w = h_o * psi(t) / t
    gp = curve.deriv(t, 0)
    gm = curve.deriv(-t, 0)
    oracle = np.array(
        [
            np.sum(w * (f.sample(x1 - t, z - gp) - f.sample(x1 + t, z - gm)))
            for z in x2
        ]
    )
    assert np.max(np.abs(out.values[row, cols] - oracle)) < 1e-3


def test_low_plus_pieces_reassemble_the_transform():
    # phi + sum of the k = 0..3 windows tiles [eps, 8] exactly, and the
    # gaussian has no mass where the tiling decays, so the split must match
    curve = builtin_curve("power", 2.0)
    u = ModulationField.constant(1.0)
    f = gaussian(-6.0, 5e-3, 2401)
    cfg = PVConfig(1e-3, 32.0, 1e-3)
    whole = carleson_apply(f, u, curve, cfg).values
    t1, t2 = low_split_apply(f, u, curve, cfg)
    total = t1.values + t2.values
    for k in range(4):
        total = total + truncated_piece_apply(f, u, curve, k).values
    inner = np.abs(f.xs()) <= 2.0
    num = np.linalg.norm((whole - total)[inner])
    den = np.linalg.norm(whole[inner])
    assert num / den < 1e-3


def test_low_split_zero_modulation_has_no_first_term():
    f = gaussian(-4.0, 0.01, 801)
    cfg = PVConfig(1e-3, 4.0, 1e-3)
    t1, t2 = low_split_apply(f, ModulationField.constant(0.0), builtin_curve("power", 2.0), cfg)
    assert np.all(t1.values == 0.0)
    ref = carleson_apply(f, ModulationField.constant(0.0), builtin_curve("power", 2.0), cfg)
    assert np.allclose(t2.values, ref.values, atol=1e-12)


# ---------------------------------------------------------------------------
# the shared grouped apply: silence contract and per-group rows

GROUP_CURVE = builtin_curve("power", 2.0)
# groups run in ascending u: the widest reach (smallest |u|) comes first, so
# a silence reach taken from the last group alone would show
GROUP_LEVELS = (-0.7, 0.0, 1.3)
CFG_1D = PVConfig(1e-2, 1.0, 1e-2)
CFG_2D = PVConfig(1e-2, 0.5, 1e-2)


def _annulus_reach(v, k, l):
    # x1 extent 2*scale; x2 extent |v| gamma(2*scale) + 1, as the kernel spans
    if v == 0.0:
        return (0.0, 0.0)
    scale = 2.0 ** (k + frequency_index(abs(v), GROUP_CURVE, l))
    return (2.0 * scale, abs(v) * float(GROUP_CURVE.deriv(2.0 * scale, 0)) + 1.0)


# name -> (2D input?, apply returning its output arrays, reach per axis at u = v)
GROUPED = {
    "carleson": (
        False,
        lambda f, u: [carleson_apply(f, u, GROUP_CURVE, CFG_1D).values],
        lambda v: (CFG_1D.radius,),
    ),
    "truncated": (
        False,
        lambda f, u: [truncated_piece_apply(f, u, GROUP_CURVE, 1).values],
        lambda v: _annulus_reach(v, 1, 0)[:1],
    ),
    "low_split": (
        False,
        lambda f, u: [t.values for t in low_split_apply(f, u, GROUP_CURVE, CFG_1D)],
        lambda v: (CFG_1D.radius,),
    ),
    "hilbert": (
        True,
        lambda f, u: [hilbert_variable_apply(f, u, GROUP_CURVE, CFG_2D).values],
        lambda v: (CFG_2D.radius, abs(v) * float(GROUP_CURVE.deriv(CFG_2D.radius, 0)) + 1.0),
    ),
    "annulus": (
        True,
        lambda f, u: [annulus_piece_apply(f, u, GROUP_CURVE, 0, 0).values],
        lambda v: _annulus_reach(v, 0, 0),
    ),
}


def grouped_input(is2d):
    """Indicator supported on [-0.5, 0.5] (times [-0.5, 0.5] in 2D), and u."""
    u = ModulationField.piecewise([-0.3, 0.2], list(GROUP_LEVELS))
    if not is2d:
        return indicator(-0.5, 0.5, -6.0, 0.05, 241), u, (0.05,)
    f = make_2d(61, 0.1, -3.0, 121, 0.1, -6.0,
                lambda a, b: (np.abs(a) <= 0.5) & (np.abs(b) <= 0.5))
    return f, u, (0.1, 0.1)


# the maximal truncated transform ignores u but shares the silencing step
SILENCED = {
    **GROUPED,
    "maximal_truncated": (
        False,
        lambda f, u: [maximal_truncated_hilbert(f, CFG_1D).values],
        lambda v: (CFG_1D.radius,),
    ),
}


@pytest.mark.parametrize("name", sorted(SILENCED))
def test_grouped_output_is_exact_zero_out_of_reach(name):
    # hat-binning puts kernel weight up to ceil(R/h) + 1 cells out, so the
    # contract is exact 0 beyond the reach R plus three grid steps
    is2d, apply, reach = SILENCED[name]
    f, u, steps = grouped_input(is2d)
    axes = [f.xs()] if not is2d else [f.x1s(), f.x2s()]
    outs = apply(f, u)
    for axis, (x, h) in enumerate(zip(axes, steps)):
        r = max(reach(v)[axis] for v in GROUP_LEVELS)
        far = np.abs(x) > 0.5 + r + 3.0 * h
        assert np.any(far)
        for out in outs:
            assert np.all(np.take(out, np.nonzero(far)[0], axis=axis) == 0.0)


@pytest.mark.parametrize("name", sorted(GROUPED))
def test_grouped_rows_match_the_constant_level_run(name):
    is2d, apply, _ = GROUPED[name]
    f, u, _ = grouped_input(is2d)
    u_vals = u.eval(f.x1s() if is2d else f.xs())
    mixed = apply(f, u)
    for v in GROUP_LEVELS:
        rows = u_vals == v
        assert np.any(rows)
        for got, ref in zip(mixed, apply(f, ModulationField.constant(v))):
            assert np.max(np.abs(got[rows] - ref[rows])) <= 1e-12


def test_grouped_silence_keeps_every_value_in_reach():
    # silencing zeroes only what no translate reaches: on a grid much wider
    # than the reach the fast path still matches the direct sum everywhere
    f, u, _ = grouped_input(False)
    fast = carleson_apply(f, u, GROUP_CURVE, CFG_1D).values
    direct = _carleson_direct(f, u.eval(f.xs()), GROUP_CURVE, CFG_1D)
    assert np.any(fast == 0.0) and np.any(np.abs(direct) > 0.0)
    assert np.allclose(fast, direct, rtol=1e-9, atol=1e-12)


# every public operator, applied to a given input
PUBLIC_OPERATORS = {
    "carleson_apply": lambda f: carleson_apply(f, ModulationField.constant(0.7), GROUP_CURVE, CFG_1D),
    "maximal_truncated_hilbert": lambda f: maximal_truncated_hilbert(f, CFG_1D),
    "truncated_piece_apply": lambda f: truncated_piece_apply(f, ModulationField.constant(0.7), GROUP_CURVE, 0),
    "low_split_apply": lambda f: low_split_apply(f, ModulationField.constant(0.7), GROUP_CURVE, CFG_1D),
    "hl_maximal_centered": lambda f: hl_maximal(f, "centered"),
    "hl_maximal_aligned": lambda f: hl_maximal(f, "aligned"),
    "shifted_maximal": lambda f: shifted_maximal(f, 0.7),
    "hilbert_variable_apply": lambda f: hilbert_variable_apply(f, ModulationField.constant(0.7), GROUP_CURVE, CFG_2D),
    "annulus_piece_apply": lambda f: annulus_piece_apply(f, ModulationField.constant(0.7), GROUP_CURVE, 0, 0),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("name", sorted(PUBLIC_OPERATORS))
def test_operators_refuse_non_finite_input(name, bad):
    f, _, _ = grouped_input(name in ("hilbert_variable_apply", "annulus_piece_apply"))
    PUBLIC_OPERATORS[name](f)  # the finite input is accepted
    vals = f.values.copy()
    vals.flat[vals.size // 3] = bad
    with pytest.raises(NonFiniteError, match="1 of"):
        PUBLIC_OPERATORS[name](f.with_values(vals))


# ---------------------------------------------------------------------------
# convolution over the box of nonzero samples

CROP_STEP = 0.05
CROP_KINDS = ("interval", "two", "left", "right", "single", "zeros")


def _support(rng, kind, shape):
    """A 0/1 mask of the given kind: pieces inside a zero grid on every axis."""
    mask = np.zeros(shape, dtype=bool)
    if kind == "zeros":
        return mask

    def span(lo, hi):  # [a, b) with lo <= a < b <= hi
        a = int(rng.integers(lo, hi))
        return a, int(rng.integers(a + 1, hi + 1))

    def inner():
        return [span(1, n - 1) for n in shape[1:]]

    if kind == "single":
        boxes = [[(int(i), int(i) + 1) for i in (rng.integers(0, n) for n in shape)]]
    elif kind == "two":  # disjoint along axis 0, one empty cell at least between
        cut = int(rng.integers(2, shape[0] - 2))
        boxes = [[span(1, cut)] + inner(), [span(cut + 1, shape[0] - 1)] + inner()]
    else:
        first = span(1, shape[0] - 1)
        if kind == "left":
            first = (0, first[1])
        elif kind == "right":
            first = (first[0], shape[0])
        boxes = [[first] + inner()]
    for box in boxes:
        mask[tuple(slice(a, b) for a, b in box)] = True
    return mask


def _crop_input(is2d, kind, seed, shape):
    rng = np.random.default_rng(seed)
    shape = shape if is2d else shape[:1]
    mask = _support(rng, kind, shape)
    vals = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * mask
    return vals, rng


def _on_grid(is2d, vals, lead=(0, 0)):
    """vals on a CROP_STEP grid centred near 0, the first lead[i] cells prepended."""
    origins = [-CROP_STEP * (n // 2 + p) for n, p in zip(vals.shape, lead)]
    if not is2d:
        return GridFunction1D(origins[0], CROP_STEP, vals)
    return GridFunction2D(origins[0], CROP_STEP, origins[1], CROP_STEP, vals)


def _full_grid_run(apply, f, u):
    """apply's outputs with every convolution one fftconvolve over the whole
    grid, and the sum over the kernels it convolved with of sum |K|."""
    kernel_mass = []

    def full_grid(values, kernel, reach, box):
        kernel_mass.append(float(np.abs(kernel).sum()))
        full = fftconvolve(values, kernel, mode="full")
        return full[tuple(slice(r, r + n) for r, n in zip(reach, values.shape))]

    with mock.patch.object(operators, "_convolve", full_grid):
        outs = apply(f, u)
    return outs, sum(kernel_mass)


# The cropped and the full-grid path differ by FFT rounding only: measured
# at most 2.4e-16 * max|f| * sum|K| over 400 draws of these inputs per
# operator, half of them at the three-level u.  The bound leaves a factor 4.
CROP_RTOL = 1e-15


@pytest.mark.parametrize("name", sorted(SILENCED))
@given(
    kind=st.sampled_from(CROP_KINDS),
    seed=st.integers(0, 2 ** 32 - 1),
    shape=st.tuples(st.integers(6, 48), st.integers(6, 40)),
    pads=st.tuples(*[st.integers(0, 7)] * 4),
    mixed=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_cropped_convolution_is_exact_in_place(name, kind, seed, shape, pads, mixed):
    is2d, apply, _ = SILENCED[name]
    vals, rng = _crop_input(is2d, kind, seed, shape)
    f = _on_grid(is2d, vals)
    u = ModulationField.piecewise([-0.3, 0.2], list(GROUP_LEVELS)) if mixed else \
        ModulationField.constant(0.7)
    outs = apply(f, u)

    # agrees with the full-grid path to rounding
    refs, kernel_mass = _full_grid_run(apply, f, u)
    scale = float(np.max(np.abs(vals), initial=0.0)) * kernel_mass
    for got, ref in zip(outs, refs):
        assert np.max(np.abs(got - ref)) <= CROP_RTOL * scale
    if mixed:  # the exact shift properties below hold for constant u
        return

    # zero-padding either side leaves the original points bit for bit
    lead, trail = pads[:vals.ndim], pads[2:2 + vals.ndim]
    padded = np.pad(vals, list(zip(lead, trail)))
    inner = tuple(slice(p, p + n) for p, n in zip(lead, vals.shape))
    for got, ref in zip(apply(_on_grid(is2d, padded, lead), u), outs):
        assert np.array_equal(got[inner], ref)

    # translating inside the zero grid by whole cells translates the output
    nz = np.nonzero(vals)
    shift = [int(rng.integers(-int(i.min()), n - int(i.max()))) if i.size else 1
             for i, n in zip(nz, vals.shape)]
    moved = np.zeros_like(vals)
    src = tuple(slice(max(-d, 0), n - max(d, 0)) for d, n in zip(shift, vals.shape))
    dst = tuple(slice(max(d, 0), n - max(-d, 0)) for d, n in zip(shift, vals.shape))
    moved[dst] = vals[src]
    assert np.count_nonzero(moved) == np.count_nonzero(vals)
    for got, ref in zip(apply(_on_grid(is2d, moved), u), outs):
        assert np.array_equal(got[dst], ref[src])


@pytest.mark.parametrize("edges_only", [False, True])
@pytest.mark.parametrize("name", sorted(SILENCED))
def test_nonzero_edges_give_the_full_grid_result(name, edges_only):
    # the box is the whole grid once every axis has a nonzero first and last
    # slice, however empty the interior
    is2d, apply, _ = SILENCED[name]
    shape = (24, 30) if is2d else (61,)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if edges_only:
        vals[tuple(slice(1, -1) for _ in shape)] = 0.0
    assert operators._nonzero_box(vals) == tuple((0, n) for n in shape)
    f = _on_grid(is2d, vals)
    u = ModulationField.constant(0.7)
    refs, _ = _full_grid_run(apply, f, u)
    for got, ref in zip(apply(f, u), refs):
        assert np.array_equal(got, ref)
        assert got.base is None  # keeps no longer FFT buffer alive


def test_nonzero_box_bounds_every_axis():
    vals = np.zeros((7, 9), dtype=np.complex128)
    assert operators._nonzero_box(vals) == ((0, 0), (0, 0))
    vals[2, 3] = 1j
    vals[4, 1] = -0.5
    assert operators._nonzero_box(vals) == ((2, 5), (1, 4))
    vals[1:-1, 0] = vals[1:-1, -1] = vals[0, 4] = 1.0
    assert operators._nonzero_box(vals) == ((0, 6), (0, 9))
    vals[-1, 2] = 1.0
    assert operators._nonzero_box(vals) == ((0, 7), (0, 9))
    line = np.array([1.0, 0.0, 2.0, -0.0])
    assert operators._nonzero_box(line) == ((0, 3),)


def test_group_by_value_is_one_group_only_when_every_value_is_equal():
    (v, rows), = operators._group_by_value(np.full(5, 2.5))
    assert v == 2.5 and np.array_equal(rows, np.arange(5))
    assert [v for v, _ in operators._group_by_value(np.array([1.0, 2.0, 1.0]))] == [1.0, 2.0]


@pytest.mark.parametrize("name", sorted(GROUPED))
def test_signed_zero_modulation_is_the_zero_modulation(name):
    # u = -0.0 left of 0 and +0.0 right of it is one group with the u = 0 kernels
    is2d, apply, _ = GROUPED[name]
    f, _, _ = grouped_input(is2d)
    signed = ModulationField.piecewise([0.0], [-0.0, 0.0])
    assert np.any(np.signbit(signed.eval(f.x1s() if is2d else f.xs())))
    for got, ref in zip(apply(f, signed), apply(f, ModulationField.constant(0.0))):
        assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# maximal operators


def brute_hl_centered(vals):
    a = np.abs(vals)
    n = a.size
    out = a.copy()
    for z in range(n):
        m = 1
        while m < 2 * n:
            lo, hi = max(0, z - m), min(n, z + m + 1)
            out[z] = max(out[z], a[lo:hi].sum() / (2 * m + 1))
            m *= 2
    return out


def brute_shifted(vals, sigma):
    a = np.abs(vals)
    n = a.size

    def seg(lo, hi):
        lo, hi = max(lo, 0), min(hi, n)
        return a[lo:hi].sum() if hi > lo else 0.0

    out = np.zeros(n)
    for z in range(n):
        m = 1
        while m < 2 * n:
            d = int(round(sigma * m))
            for s in range(z - m + 1, z + 1):
                if d == 0:
                    tot = seg(s, s + m)
                elif 2 * d >= m:
                    tot = seg(s - d, s - d + m) + seg(s + d, s + d + m)
                else:
                    tot = seg(s - d, s + d + m)
                out[z] = max(out[z], tot / m)
            m *= 2
    return out


def gather_shifted_rows(a2, sigma):
    """The clipped-gather + maximum_filter1d row routine, kept as the oracle.

    It evaluates every level, including those whose shifted pieces miss the
    grid, so it also checks that skipping them changes nothing.
    """
    rows, n = a2.shape
    prefix = np.concatenate([np.zeros((rows, 1)), np.cumsum(a2, axis=1)], axis=1)

    def seg(lo, hi):
        return prefix[:, np.clip(hi, 0, n)] - prefix[:, np.clip(lo, 0, n)]

    best = np.zeros_like(a2)
    m = 1
    while m < 2 * n:
        d = int(round(sigma * m))
        starts = np.arange(-(m - 1), n)
        if d == 0:
            total = seg(starts, starts + m)
        elif 2 * d >= m:
            total = seg(starts - d, starts - d + m) + seg(starts + d, starts + d + m)
        else:
            total = seg(starts - d, starts + d + m)
        ws = total / float(m)
        if m == 1:
            trail = ws[:, :n]
        else:
            ext = np.concatenate([ws, np.zeros((rows, m))], axis=1)
            mf = maximum_filter1d(ext, size=m, axis=1, mode="constant", cval=0.0)
            trail = mf[:, m // 2 : m // 2 + n]
        np.maximum(best, trail, out=best)
        m *= 2
    return best


def level_sigmas(n):
    """Sigmas putting some level m at each branch edge of d = round(sigma*m).

    d = 0; 2d = m (first disjoint shift); 2d = m-2 (last overlapping shift
    for even m; 2d = m-1 only occurs at m = 1, d = 0); d = n+m-2 (last level
    read) and d = n+m-1 (first skipped).
    """
    out = {0.0}
    m = 1
    while m < 2 * n:
        for d in (m // 2, m // 2 - 1, n + m - 2, n + m - 1):
            if d >= 0:
                out.add(d / m)
        m *= 2
    return sorted(out)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_segment_sums_equal_clipped_gather(n):
    a2 = np.random.default_rng(n).random((2, n))
    prefix = _prefix_sums(a2)
    for lo in range(-(n + 4), n + 5):
        for width in range(1, 2 * n + 4):
            for count in (1, 3, 2 * n + width + 6):
                i = lo + np.arange(count)
                want = prefix[np.clip(i + width, 0, n)] - prefix[np.clip(i, 0, n)]
                got = _segment_sums(prefix, lo, width, count)
                assert np.array_equal(got, want), (lo, width, count)


@pytest.mark.parametrize("rows,n", [(1, 1), (3, 1), (1, 2), (2, 7), (4, 64), (3, 403)])
def test_shifted_rows_equal_gather_reference(rows, n):
    rng = np.random.default_rng(1000 * rows + n)
    a2 = rng.random((rows, n))
    a2[rng.random((rows, n)) < 0.3] = 0.0  # exact zeros give ties in the max
    prefix = _prefix_sums(a2)
    for sig in level_sigmas(n):
        want = gather_shifted_rows(a2, sig)
        assert np.array_equal(_shifted_maximal_rows(a2, sig), want), sig
        assert np.array_equal(_shifted_maximal_rows(a2, sig, prefix), want), sig


@given(
    rows=st.integers(1, 4),
    n=st.integers(1, 90),
    sigma=st.one_of(st.floats(0.0, 200.0), st.integers(0, 300).map(lambda k: k / 8.0)),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=150, deadline=None)
def test_shifted_rows_property_equal_gather_reference(rows, n, sigma, seed):
    a2 = np.random.default_rng(seed).random((rows, n))
    assert np.array_equal(_shifted_maximal_rows(a2, sigma), gather_shifted_rows(a2, sigma))


def test_hl_maximal_matches_brute_force():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=33) + 1j * rng.normal(size=33)
    f = GridFunction1D(0.0, 0.25, vals)
    got = hl_maximal(f).values.real
    want = brute_hl_centered(vals)
    assert np.allclose(got, want, atol=1e-12)


def test_hl_maximal_indicator_values():
    f = indicator(0.0, 1.0, -4.0, 2e-3, 6001)
    out = hl_maximal(f).values.real
    i_half = int(round((0.5 + 4.0) / 2e-3))
    i_two = int(round((2.0 + 4.0) / 2e-3))
    assert abs(out[i_half] - 1.0) < 1e-12
    assert abs(out[i_two] - 0.25) <= 5 * 2e-3


def test_hl_maximal_constant_is_fixed_point():
    f = GridFunction1D(0.0, 0.1, np.full(257, 3.5, dtype=np.complex128))
    for fam in ("centered", "aligned"):
        assert np.allclose(hl_maximal(f, fam).values.real, 3.5, atol=1e-12)
    with pytest.raises(ValueError):
        hl_maximal(f, "other")


def test_hl_aligned_equals_shift_zero():
    rng = np.random.default_rng(11)
    f = GridFunction1D(-1.0, 0.05, rng.normal(size=64) + 0j)
    assert np.array_equal(hl_maximal(f, "aligned").values, shifted_maximal(f, 0.0).values)


@pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0, 3.0])
def test_shifted_maximal_matches_brute_force(sigma):
    rng = np.random.default_rng(int(10 * sigma) + 1)
    vals = np.abs(rng.normal(size=48)) + 0j
    f = GridFunction1D(0.0, 1.0, vals)
    got = shifted_maximal(f, sigma).values.real
    want = brute_shifted(vals, sigma)
    assert np.allclose(got, want, atol=1e-12)


def test_shifted_maximal_far_indicator():
    # the window [0,1] shifted by sigma = 10 lands exactly on [10, 11]
    step = 1.0 / 64.0
    f = indicator(10.0, 11.0, 0.0, step, 16 * 64 + 1)
    out = shifted_maximal(f, 10.0).values.real
    assert abs(out[0] - 1.0) < 1e-12
    with pytest.raises(ValueError):
        shifted_maximal(f, -1.0)


def test_maximal_truncated_hilbert_indicator():
    f = indicator(-1.0, 1.0, -4.0, 2e-3, 4001)
    cfg = PVConfig(2.0 ** -8, 8.0, 2.0 ** -8)
    star = maximal_truncated_hilbert(f, cfg).values.real
    i_two = int(round((2.0 + 4.0) / 2e-3))
    assert abs(star[i_two] - math.log(3.0)) < 5e-3
    plain = carleson_apply(f, ModulationField.constant(0.0), builtin_curve("power", 2.0), cfg)
    assert np.all(star >= np.abs(plain.values) - 1e-9)


# ---------------------------------------------------------------------------
# coverage policy


def test_strict_coverage_rejects_boundary_mass():
    f = GridFunction1D(-1.0, 0.01, np.ones(201, dtype=np.complex128))
    cfg = PVConfig(1e-3, 2.0, 1e-3)
    with pytest.raises(CoverageError) as exc:
        carleson_apply(f, ModulationField.constant(1.0), builtin_curve("power", 2.0), cfg, strict=True)
    # one (lo, hi) per axis: the grid widened by the reach on both sides
    ((lo, hi),) = exc.value.missing_extent
    assert (lo, hi) == (pytest.approx(-3.0), pytest.approx(3.0))
    # lenient mode accepts the same input
    carleson_apply(f, ModulationField.constant(1.0), builtin_curve("power", 2.0), cfg)


def _profile_2d(p1, p2):
    x1 = -3.0 + 0.05 * np.arange(121)
    x2 = -6.0 + 0.05 * np.arange(241)
    return GridFunction2D(-3.0, 0.05, -6.0, 0.05, np.outer(p1(x1), p2(x2)) + 0j)


def _edge_free(x):
    return np.exp(-4.0 * x ** 2)  # below 1e-15 of its peak at every grid edge


@pytest.mark.parametrize("apply", [
    lambda f: hilbert_variable_apply(f, ModulationField.constant(1.0), builtin_curve("power", 2.0),
                                     PVConfig(0.05, 1.0, 0.01), strict=True),
    lambda f: annulus_piece_apply(f, ModulationField.constant(1.0), builtin_curve("power", 2.0),
                                  0, 0, strict=True),
], ids=["hilbert_variable", "annulus_piece"])
@pytest.mark.parametrize("p1,p2,refused", [
    (np.ones_like, _edge_free, True),
    (_edge_free, np.ones_like, True),
    (_edge_free, _edge_free, False),
], ids=["mass-on-axis0-edge", "mass-on-axis1-edge", "compact"])
def test_strict_coverage_2d_checks_both_axes(apply, p1, p2, refused):
    f = _profile_2d(p1, p2)
    if not refused:
        assert apply(f).values.shape == f.values.shape
        return
    with pytest.raises(CoverageError) as exc:
        apply(f)
    # one (lo, hi) per axis, each reaching past its edge of the grid
    extent = exc.value.missing_extent
    assert len(extent) == 2
    for (lo, hi), (o, h, n) in zip(extent, _axes(f)):
        assert lo < o and hi > o + h * (n - 1)
    assert " x " in str(exc.value)


def test_strict_coverage_accepts_compact_support():
    f = indicator(-0.5, 0.5, -4.0, 0.01, 801)
    cfg = PVConfig(1e-3, 2.0, 1e-3)
    out = carleson_apply(f, ModulationField.constant(1.0), builtin_curve("power", 2.0), cfg, strict=True)
    assert out.n == f.n


# ---------------------------------------------------------------------------
# the kernel memo of the 1D grouped operators

MEMO_CFG = PVConfig(0.04, 2.0, 0.02)
MEMO_OPERATORS = {
    "carleson": lambda f, v, c, cfg, k: [carleson_apply(f, ModulationField.constant(v), c, cfg).values],
    "truncated_piece": lambda f, v, c, cfg, k: [
        truncated_piece_apply(f, ModulationField.constant(v), c, k).values],
    "low_split": lambda f, v, c, cfg, k: [
        t.values for t in low_split_apply(f, ModulationField.constant(v), c, cfg)],
}


@pytest.fixture
def memo():
    _kernel_memo.clear()
    yield _kernel_memo
    _kernel_memo.clear()


def memo_base():
    return dict(f=gaussian(-6.0, 0.05, 241), v=0.7, c=builtin_curve("power", 2.0), cfg=MEMO_CFG, k=0)


def fresh(apply, args):
    _kernel_memo.clear()
    return apply(**args)


def same(xs, ys):
    return len(xs) == len(ys) and all(np.array_equal(x, y) for x, y in zip(xs, ys))


# the maximal truncation reads one memo entry per octave shell of MEMO_CFG
MEMO_READERS = {
    **{name: (apply, 1) for name, apply in MEMO_OPERATORS.items()},
    "maximal_truncated_hilbert": (lambda f, v, c, cfg, k: [maximal_truncated_hilbert(f, cfg).values], 6),
}


@pytest.mark.parametrize("name", sorted(MEMO_READERS))
def test_memo_hit_equals_fresh_build(name, memo):
    (apply, reads), args = MEMO_READERS[name], memo_base()
    first = apply(**args)
    assert len(memo.entries) == reads
    hits = memo.hits
    again = apply(**args)
    assert memo.hits == hits + reads
    assert same(again, first) and same(again, fresh(apply, args))


# each variant changes one key field of the base call
MEMO_VARIANTS = {
    "step": ("all", dict(f=gaussian(-6.0, 0.04, 301))),
    "epsilon": ("cfg", dict(cfg=PVConfig(0.03, 2.0, 0.02))),
    "radius": ("cfg", dict(cfg=PVConfig(0.04, 0.9, 0.02))),  # low split: below 2^n = 1
    "substep": ("cfg", dict(cfg=PVConfig(0.04, 2.0, 0.01))),
    "minus_v": ("all", dict(v=-0.7)),
    "k": ("k", dict(k=1)),
    "family_sibling": ("all", dict(c=builtin_curve("power", 1.5))),
}
MEMO_CASES = [
    (name, variant)
    for variant, (uses, _) in MEMO_VARIANTS.items()
    for name in sorted(MEMO_OPERATORS)
    if uses == "all" or (uses == "k") == (name == "truncated_piece")
]


@pytest.mark.parametrize("name,variant", MEMO_CASES)
def test_memo_key_fields_each_get_their_own_kernel(name, variant, memo):
    apply, base = MEMO_OPERATORS[name], memo_base()
    other = {**base, **MEMO_VARIANTS[variant][1]}
    want_base, want_other = fresh(apply, base), fresh(apply, other)
    assert not same(want_base, want_other)  # a key that missed the field would show
    memo.clear()
    apply(**base)
    assert same(apply(**other), want_other)
    assert same(apply(**base), want_base)


@pytest.mark.parametrize("name", sorted(MEMO_OPERATORS))
def test_memo_signed_zero_and_twin_curves(name, memo):
    apply, base = MEMO_OPERATORS[name], memo_base()
    zero, minus_zero = {**base, "v": 0.0}, {**base, "v": -0.0}
    want = fresh(apply, minus_zero)
    memo.clear()
    apply(**zero)
    assert same(apply(**minus_zero), want)
    # a separately built curve of the same family and alpha is a new key
    memo.clear()
    apply(**base)
    entries = len(memo.entries)
    twin = {**base, "c": builtin_curve("power", 2.0)}
    assert same(apply(**twin), fresh(apply, base))
    memo.clear()
    apply(**base)
    apply(**twin)
    assert len(memo.entries) == 2 * entries


def test_memo_kernels_refuse_writes(memo):
    kernels, _ = _carleson_kernel(builtin_curve("power", 2.0), 0.7, MEMO_CFG, 0.05)
    with pytest.raises(ValueError):
        kernels[0][0] = 1.0
    again, _ = _carleson_kernel(builtin_curve("power", 2.0), 0.7, MEMO_CFG, 0.05)
    assert not again[0].flags.writeable


def test_memo_strict_piece_refuses_edge_mass_on_miss_and_hit(memo):
    f = GridFunction1D(-1.0, 0.01, np.ones(201, dtype=np.complex128))
    u, c = ModulationField.constant(0.7), builtin_curve("power", 2.0)
    with pytest.raises(CoverageError):
        truncated_piece_apply(f, u, c, 0, strict=True)
    truncated_piece_apply(f, u, c, 0)  # lenient: builds and keeps the kernel
    assert len(memo.entries) == 1
    hits = memo.hits
    with pytest.raises(CoverageError):
        truncated_piece_apply(f, u, c, 0, strict=True)
    assert memo.hits == hits  # refused before the memo is read


def test_memo_stays_under_its_byte_cap(memo, monkeypatch):
    base = memo_base()
    calls = [(name, {**base, "v": v}) for v in (0.7, -1.3, 2.9, 0.0) for name in sorted(MEMO_OPERATORS)]
    wants = [fresh(MEMO_OPERATORS[name], args) for name, args in calls]
    cap = 3 * _carleson_kernel(base["c"], 0.7, base["cfg"], base["f"].step)[0][0].nbytes
    memo.clear()
    monkeypatch.setattr(operators, "_KERNEL_MEMO_BYTES", cap)
    for _ in range(2):
        for (name, args), want in zip(calls, wants):
            assert same(MEMO_OPERATORS[name](**args), want)
            assert memo.nbytes <= cap
            assert memo.nbytes == sum(size for _, size in memo.entries.values())
    assert len(memo.entries) < len(calls)
    # a kernel larger than the cap is returned but not kept
    memo.clear()
    monkeypatch.setattr(operators, "_KERNEL_MEMO_BYTES", 16)
    assert same(MEMO_OPERATORS["carleson"](**base), wants[0])
    assert memo.nbytes == 0 and not memo.entries
