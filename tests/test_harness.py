import json
import math
import pathlib

import numpy as np
import pytest

from curveflow.curves import builtin_curve
from curveflow.dyadic import project
from curveflow.errors import GeometryError
from curveflow.gridfn import GridFunction1D, GridFunction2D, ModulationField
from curveflow.operators import carleson_apply, hl_maximal, shifted_maximal
from curveflow.harness import (  # noqa: F401
    TestFunctionFamily as FnFamily,
    _default_cfg,
    _shifted_maximal_rows,
    covering_geometry,
    decay_experiment,
    domination_experiment,
    estimate_operator_norm,
    fit_decay,
    lp_norm,
    shifted_growth_probe,
    single_annulus_experiment,
    square_function_experiment,
    sweep_modulations,
)

PARAB = builtin_curve("power", 2.0)

THRESHOLDS = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "src" / "curveflow" / "data"
     / "thresholds.json").read_text()
)


# ---------------------------------------------------------------------------
# lp_norm


def test_lp_norm_cell_aligned_indicator_exact():
    # every sample is 1, cell weights tile [0,1] exactly
    f = GridFunction1D(0.0, 0.01, np.ones(101))
    assert lp_norm(f, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert lp_norm(f, 4.0 / 3.0) == pytest.approx(1.0, abs=1e-14)


def test_lp_norm_linear_profile_matches_closed_form():
    n = 1001
    f = GridFunction1D(0.0, 1e-3, np.linspace(0.0, 1.0, n))
    assert abs(lp_norm(f, 2.0) - 1.0 / math.sqrt(3.0)) < 1e-4


def test_lp_norm_homogeneity_exact():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(257)
    f = GridFunction1D(-1.0, 0.01, vals)
    for c in (3.0, -2.5, 1e-7):
        lhs = lp_norm(f.with_values(c * vals), 2.0)
        assert lhs == pytest.approx(abs(c) * lp_norm(f, 2.0), rel=1e-13)


def test_lp_norm_refinement_is_second_order():
    # |f|^2 = x^2 has unequal end derivatives, so the h^2 quadrature term
    # is live and halving the step should cut the error by about 4
    exact = 1.0 / math.sqrt(3.0)

    def err(h):
        n = int(round(1.0 / h)) + 1
        f = GridFunction1D(0.0, h, np.linspace(0.0, 1.0, n))
        return abs(lp_norm(f, 2.0) - exact)

    e1, e2 = err(0.02), err(0.01)
    assert 3.0 < e1 / e2 < 5.0


def test_lp_norm_2d_and_validation():
    g = GridFunction2D(0.0, 0.5, 0.0, 0.5, np.ones((5, 5)))
    assert lp_norm(g, 2.0) == pytest.approx(2.0, rel=1e-12)  # area 2x2
    f = GridFunction1D(0.0, 0.1, np.ones(16))
    for bad in (1.0, 0.5, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            lp_norm(f, bad)


# ---------------------------------------------------------------------------
# test-function families


def test_family_members_deterministic():
    fam = FnFamily("gaussians", 3, 42, (-6.0, 6.0, 301))
    a = [m.values.copy() for m in fam.members()]
    b = [m.values.copy() for m in fam.members()]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_family_every_generator_produces_signal():
    for gen in ("indicators", "gaussians", "modulated_gaussians", "random_bandlimited"):
        fam = FnFamily(gen, 3, 7, (-8.0, 8.0, 513))
        for m in fam.members():
            assert lp_norm(m, 2.0) > 1e-8
        fam2 = FnFamily(gen, 2, 7, ((-6.0, 6.0, 65), (-6.0, 6.0, 97)))
        for m in fam2.members():
            assert m.values.shape == (65, 97)
            assert lp_norm(m, 2.0) > 1e-8


# second member of seed 7 on the grids above: L2 norm and three samples (flat
# index -> value) at the first, middle and last nonzero entries
PINNED_MEMBERS = [
    ("indicators", 1, 1.9685019685029528, {82: 1.0, 144: 1.0, 205: 1.0}),
    ("indicators", 2, 0.9682458365518543, {4727: 1.0, 5115: 1.0, 5410: 1.0}),
    ("gaussians", 1, 1.205926978683573,
     {0: 3.569261765101695e-25, 256: 0.6907681741152571, 512: 6.878447445692419e-18}),
    ("gaussians", 2, 2.0260628764349815,
     {0: 3.5595977330142174e-10, 3152: 0.6615751344801059, 6304: 1.3826289056865714e-15}),
    ("modulated_gaussians", 1, 1.1392683789859497,
     {0: -8.482326032590288e-06, 256: 0.4099253493463158, 512: 9.437197215006067e-08}),
    ("modulated_gaussians", 2, 1.240033374255517,
     {0: -4.0415962641148233e-19, 3152: -0.09749126742244224, 6304: 8.134358144003298e-19}),
    ("random_bandlimited", 1, 2.3282618229326415,
     {0: -0.0891554363843676, 256: 2.0329334044171823, 512: 0.01408283636732075}),
    ("random_bandlimited", 2, 6.487109891237665,
     {0: -0.004657036949530692, 3152: 0.4998277856436658, 6304: 0.009448630583193108}),
]


@pytest.mark.parametrize("gen,dim,norm,samples", PINNED_MEMBERS)
def test_family_members_pinned(gen, dim, norm, samples):
    grid = (-8.0, 8.0, 513) if dim == 1 else ((-6.0, 6.0, 65), (-6.0, 6.0, 97))
    m = FnFamily(gen, 2, 7, grid).members()[1]
    assert lp_norm(m, 2.0) == pytest.approx(norm, rel=1e-12, abs=0.0)
    flat = m.values.ravel()
    for i, v in samples.items():
        assert flat[i] == pytest.approx(v, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("gen,grid,axis,limit", [
    ("modulated_gaussians", (-600.0, 600.0, 801), 0, "pi/6"),
    ("modulated_gaussians", ((-600.0, 600.0, 801), (-6.0, 6.0, 97)), None, None),
    ("modulated_gaussians", ((-6.0, 6.0, 97), (-600.0, 600.0, 801)), 1, "pi/6"),
    ("random_bandlimited", (-30.0, 30.0, 41), 0, "pi/3"),
    ("random_bandlimited", ((-30.0, 30.0, 41), (-6.0, 6.0, 97)), 0, "pi/3"),
    ("random_bandlimited", (-30.0, 30.0, 61), None, None),
])
def test_family_refuses_unresolvable_grid_at_construction(gen, grid, axis, limit):
    if axis is None:  # coarse only where the generator does not oscillate
        assert FnFamily(gen, 1, 0, grid).members()
        return
    with pytest.raises(ValueError) as e:
        FnFamily(gen, 1, 0, grid)
    msg = str(e.value)
    assert f"axis {axis}" in msg and limit in msg and "step is 1.5" in msg


def test_family_grid_validation():
    with pytest.raises(ValueError):
        FnFamily("gaussians", 2, 1, (-1.0, 1.0, 4))
    with pytest.raises(ValueError):
        FnFamily("gaussians", 2, 1, (2.0, -2.0, 64))
    with pytest.raises(ValueError):
        FnFamily("no_such_generator", 2, 1, (-1.0, 1.0, 64))


# ---------------------------------------------------------------------------
# operator norm estimation


def test_norm_identity_is_one():
    fam = FnFamily("gaussians", 3, 11, (-6.0, 6.0, 257))
    assert estimate_operator_norm(lambda f: f, fam, 2.0) == 1.0


def test_norm_scalar_multiple():
    fam = FnFamily("indicators", 3, 11, (-6.0, 6.0, 257))
    op = lambda f: f.with_values(2.0 * f.values)
    assert estimate_operator_norm(op, fam, 2.0) == pytest.approx(2.0, rel=1e-13)


def test_norm_hl_indicator_regression():
    fam = FnFamily("indicators", 4, 3, (-8.0, 8.0, 4097))
    val = estimate_operator_norm(hl_maximal, fam, 2.0)
    assert val == pytest.approx(THRESHOLDS["hl_indicator_norm"], rel=1e-6)


def test_norm_zero_operator_is_zero():
    fam = FnFamily("gaussians", 2, 11, (-6.0, 6.0, 257))
    op = lambda f: f.with_values(np.zeros_like(f.values))
    assert estimate_operator_norm(op, fam, 2.0) == 0.0


# ---------------------------------------------------------------------------
# decay fitting


def test_fit_decay_recovers_exact_slope():
    ks = list(range(6))
    fit = fit_decay(ks, [2.0 ** (-k) for k in ks])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.residual < 1e-12
    assert fit.note == ""


def test_fit_decay_constant_sequence():
    fit = fit_decay([0, 1, 2, 3], [0.7, 0.7, 0.7, 0.7])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_truncates_underflow():
    ks = [0, 1, 2, 3, 4]
    fit = fit_decay(ks, [1.0, 0.5, 0.25, 1e-16, 1e-18])
    assert "truncated" in fit.note
    assert list(fit.k_values) == [0, 1, 2]


def test_fit_decay_validation():
    with pytest.raises(ValueError):
        fit_decay([0], [1.0])
    with pytest.raises(ValueError):
        fit_decay([0, 1], [1.0])
    with pytest.raises(ValueError):
        fit_decay([0, 1], [1.0, -0.5])


def test_decay_experiment_validation():
    fam1 = FnFamily("gaussians", 2, 1, (-6.0, 6.0, 257))
    fam2 = FnFamily("gaussians", 2, 1, ((-4.0, 4.0, 33), (-4.0, 4.0, 33)))
    with pytest.raises(ValueError):
        decay_experiment(PARAB, ModulationField.constant(1.0), fam1, 3)
    with pytest.raises(ValueError):
        decay_experiment(PARAB, ModulationField.constant(1.0), fam2, 5)
    with pytest.raises(ValueError):
        decay_experiment(PARAB, ModulationField.constant(0.0), fam1, 5)


def test_decay_experiment_smoke_negative_slope():
    # domain must be wide enough for the high-k pieces to live on-grid
    fam = FnFamily("modulated_gaussians", 2, 21, (-600.0, 600.0, 60001))
    fit = decay_experiment(PARAB, ModulationField.constant(1.0), fam, 5)
    assert fit.slope <= -0.5


# ---------------------------------------------------------------------------
# modulation sweeps


def test_sweep_single_modulation_dispersion_one():
    fam = FnFamily("gaussians", 2, 11, (-8.0, 8.0, 801))
    cfg = _default_cfg()
    builder = lambda u: (lambda f: carleson_apply(f, u, PARAB, cfg))
    rep = sweep_modulations(builder, [ModulationField.constant(2.0)], fam, 2.0)
    assert rep.aggregate["dispersion"] == 1.0


def test_sweep_zero_modulation_matches_direct_carleson():
    fam = FnFamily("gaussians", 3, 11, (-10.0, 10.0, 1001))
    cfg = _default_cfg()
    u0 = ModulationField.constant(0.0)
    builder = lambda u: (lambda f: carleson_apply(f, u, PARAB, cfg))
    rep = sweep_modulations(builder, [u0], fam, 2.0)
    best = max(
        lp_norm(carleson_apply(f, u0, PARAB, cfg), 2.0) / lp_norm(f, 2.0)
        for f in fam.members()
    )
    assert rep.per_sample[0]["norm"] == best


def test_sweep_deterministic_modulo_environment():
    fam = FnFamily("gaussians", 2, 11, (-8.0, 8.0, 401))
    cfg = _default_cfg()
    builder = lambda u: (lambda f: carleson_apply(f, u, PARAB, cfg))
    us = [ModulationField.constant(0.5), ModulationField.constant(4.0)]
    r1 = sweep_modulations(builder, us, fam, 2.0)
    r2 = sweep_modulations(builder, us, fam, 2.0)
    assert r1.core_dict() == r2.core_dict()
    assert "timestamp" in r1.to_dict()["environment"]


def test_sweep_threshold_verdict():
    fam = FnFamily("gaussians", 2, 11, (-8.0, 8.0, 401))
    cfg = _default_cfg()
    builder = lambda u: (lambda f: carleson_apply(f, u, PARAB, cfg))
    us = [ModulationField.constant(0.5), ModulationField.constant(1.5)]
    rep = sweep_modulations(builder, us, fam, 2.0, threshold=100.0)
    assert rep.verdicts["dispersion_within_threshold"] is True


# ---------------------------------------------------------------------------
# single-annulus and square-function experiments


def test_annulus_rejects_unresolvable_level():
    fam = FnFamily("gaussians", 2, 19, ((-6.0, 6.0, 65), (-6.0, 6.0, 97)))
    # h2 ~ 0.125 resolves l <= 2 only
    with pytest.raises(ValueError):
        single_annulus_experiment(PARAB, ModulationField.constant(1.0), fam, [9], 2.0)


def test_annulus_zero_modulation_level_independent():
    # u == 0 kills the second-variable shift; product members then see a pure
    # first-variable convolution whose ratio cannot depend on l
    fam = FnFamily("gaussians", 2, 19, ((-10.0, 10.0, 161), (-30.0, 30.0, 401)))
    rep = single_annulus_experiment(PARAB, ModulationField.constant(0.0), fam, range(-2, 3), 2.0)
    norms = [r["norm"] for r in rep.per_sample]
    assert max(norms) / min(norms) == pytest.approx(1.0, rel=1e-9)
    assert rep.aggregate["dispersion"] == pytest.approx(1.0, rel=1e-9)


def _single_band_profile():
    n1, n2 = 161, 1601
    x1 = -10.0 + np.arange(n1) * 0.125
    x2 = -100.0 + np.arange(n2) * 0.125
    env1 = np.exp(-(((x1 - 0.4) / 1.8) ** 2))
    env2 = np.exp(-(((x2 + 0.7) / 6.0) ** 2))
    return GridFunction2D(-10.0, 0.125, -100.0, 0.125, np.outer(env1, env2 * np.cos(2.0 * x2)))


def test_square_function_single_band_assembly():
    from curveflow.operators import hilbert_variable_apply

    f = _single_band_profile()
    u = ModulationField.constant(0.9)
    p1 = project(f, 1)
    assert lp_norm(p1, 2.0) / lp_norm(f, 2.0) > 0.95
    out = square_function_experiment(PARAB, u, f, range(-2, 3), 2.0)
    direct = lp_norm(hilbert_variable_apply(p1, u, PARAB, _default_cfg()), 2.0)
    assert out["sq_norm"] >= direct  # square sum dominates its largest term
    assert abs(out["sq_norm"] - direct) / direct < 1e-2
    assert out["ratio"] == pytest.approx(out["sq_norm"] / out["f_norm"], rel=1e-12)


def test_square_function_zero_input_skipped():
    f = GridFunction2D(0.0, 0.25, 0.0, 0.25, np.zeros((33, 65)))
    out = square_function_experiment(PARAB, ModulationField.constant(1.0), f, [0, 1], 2.0)
    assert out["skipped"] is True
    assert out["ratio"] is None


# ---------------------------------------------------------------------------
# shifted-maximal growth probe


def test_growth_sigma_zero_equals_aligned_hl():
    fam = FnFamily("indicators", 4, 3, (-8.0, 8.0, 4097))
    probe = shifted_growth_probe([0.0, 4.0], fam, 2.0)
    aligned = estimate_operator_norm(lambda g: hl_maximal(g, "aligned"), fam, 2.0)
    assert probe.aggregate["norms"][0] == aligned


def test_growth_large_shift_exceeds_unshifted():
    fam = FnFamily("indicators", 4, 3, (-8.0, 8.0, 16385))
    probe = shifted_growth_probe([0.0, 4.0, 16.0, 64.0, 256.0, 1024.0], fam, 2.0)
    norms = probe.aggregate["norms"]
    assert norms[-1] > norms[0]
    assert probe.aggregate["fitted_b"] <= THRESHOLDS["shift_growth_b_max"]


def test_growth_probe_validation():
    fam = FnFamily("indicators", 2, 3, (-8.0, 8.0, 1025))
    with pytest.raises(ValueError):
        shifted_growth_probe([0.0], fam, 2.0)
    with pytest.raises(ValueError):
        shifted_growth_probe([4.0, 0.0], fam, 2.0)
    with pytest.raises(ValueError):
        shifted_growth_probe([-1.0, 2.0], fam, 2.0)


# ---------------------------------------------------------------------------
# covering geometry


def test_covering_worked_example():
    geom = covering_geometry(PARAB, 1.0, 0, 0, 0)
    assert geom.n_l == 0
    assert geom.N_k == 3
    assert geom.interval_length == pytest.approx(0.5, rel=1e-12)
    assert geom.bracket == pytest.approx((3.0, 4.0), rel=1e-12)
    assert np.allclose(geom.sigma_values, [1.0 / 7.0, 4.0 / 9.0, 9.0 / 11.0], rtol=1e-12)
    assert np.all(geom.J_lengths >= 1.0)
    assert np.all(geom.J_lengths <= 1.0 + geom.c1**2 + 1e-6)
    sv = geom.sandwich_value()
    assert 0.5 / geom.scale <= sv * (1 + 1e-12)
    assert sv <= (2.0 / 3.0) / geom.scale * (1 + 1e-12)


def test_covering_infeasible_bracket_raises():
    # X = 0.8 puts the bracket at [1.2, 1.6]: no integer count exists
    with pytest.raises(GeometryError):
        covering_geometry(PARAB, 0.4, 0, 0, 0)


def test_covering_shift_values_scale_with_tau():
    g0 = covering_geometry(PARAB, 1.0, 0, 2, 0)
    g5 = covering_geometry(PARAB, 1.0, 0, 2, 5)
    assert np.array_equal(g0.J_lengths, g5.J_lengths)  # tau cannot move J
    assert np.all(g5.sigma_values > g0.sigma_values)


def test_covering_validation():
    with pytest.raises(ValueError):
        covering_geometry(PARAB, 0.0, 0, 0, 0)
    with pytest.raises(ValueError):
        covering_geometry(PARAB, -2.0, 0, 0, 0)
    with pytest.raises(ValueError):
        covering_geometry(PARAB, 1.0, 0, -1, 0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"u_abs must be positive and finite, got {bad}"):
            covering_geometry(PARAB, bad, 0, 0, 0)


def test_covering_random_draw_invariants():
    curves = [builtin_curve("power", a) for a in (1.5, 2.0, 3.0)] + [
        builtin_curve("t2log")]
    rng = np.random.default_rng(31)
    done = 0
    while done < 100:
        cv = curves[rng.integers(len(curves))]
        u_abs = float(10.0 ** rng.uniform(-3, 3))
        l = int(rng.integers(-3, 4))
        k = int(rng.integers(0, 5))
        tau = int(rng.integers(-6, 7))
        try:
            geom = covering_geometry(cv, u_abs, l, k, tau)
        except GeometryError:
            continue
        lo, hi = geom.bracket
        assert lo <= geom.N_k <= hi * (1 + 1e-12)
        sv = geom.sandwich_value()
        assert 0.5 / geom.scale <= sv * (1 + 1e-9)
        assert sv <= (2.0 / 3.0) / geom.scale * (1 + 1e-9)
        assert np.all(geom.J_lengths >= 1.0 - 1e-9)
        assert np.all(geom.J_lengths <= 1.0 + geom.c1**2 + 1e-6)
        assert geom.m_indices.size <= 4096
        done += 1


# ---------------------------------------------------------------------------
# domination by shifted maximal averages


def test_rows_maximal_matches_operator_exactly():
    rng = np.random.default_rng(7)
    a2 = rng.random((5, 403))
    for sig in (0.0, 0.7, 3.0, 12.5, 250.0, 1000.0):
        g2 = _shifted_maximal_rows(a2, sig)
        for i in range(a2.shape[0]):
            ref = shifted_maximal(GridFunction1D(0.0, 0.1, a2[i]), sig).values
            assert np.array_equal(g2[i], ref)


def test_domination_zero_modulation_is_zero():
    fam = FnFamily("gaussians", 2, 19, ((-10.0, 10.0, 161), (-30.0, 30.0, 401)))
    rep = domination_experiment(PARAB, ModulationField.constant(0.0), fam, [0, 1], 0,
                                range(-2, 3), m_cap=6)
    assert {r["ratio"] for r in rep.per_sample} == {0.0}
    assert rep.verdicts["zero_unbounded_points"] is True


def test_domination_smoke_bounded_ratios():
    fam = FnFamily("gaussians", 2, 23, ((-12.0, 12.0, 97), (-20.0, 20.0, 267)))
    # piecewise [1, 2, 1] leaves the |u| = 1 rows in two runs, one each side
    for u in (ModulationField.constant(1.0),
              ModulationField.piecewise([-4.0, 4.0], [1.0, 2.0, 1.0])):
        rep = domination_experiment(PARAB, u, fam, [0, 1], 0, range(-2, 3), m_cap=16)
        per_k = rep.aggregate["per_k_max"]
        assert set(per_k) == {"0", "1"}
        for v in per_k.values():
            assert 0.0 < v < math.inf
        assert rep.verdicts["zero_unbounded_points"] is True
        assert rep.aggregate["tau_tail"] > 0.0


def test_domination_validation():
    fam1 = FnFamily("gaussians", 2, 1, (-6.0, 6.0, 257))
    fam2 = FnFamily("gaussians", 2, 1, ((-4.0, 4.0, 33), (-4.0, 4.0, 33)))
    with pytest.raises(ValueError):
        domination_experiment(PARAB, ModulationField.constant(1.0), fam1, [0], 0, [0])
    with pytest.raises(ValueError):
        domination_experiment(PARAB, ModulationField.constant(1.0), fam2, [-1], 0, [0])
    with pytest.raises(ValueError):
        domination_experiment(PARAB, ModulationField.constant(1.0), fam2, [0], 0, [])
