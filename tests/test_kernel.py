"""Tests for the rescaled two-scale phase, its oscillatory integral, and the
three inequality checkers."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from curveflow.curves import builtin_curve
from curveflow.dyadic import make_bump
from curveflow.errors import HypothesisError, NonFiniteError
from curveflow.fixtures import load_fixtures
from curveflow.kernel import (
    PhaseParams,
    case_b_matrix,
    interval_count,
    kernel_integral,
    matrix_lower_bound_check,
    phase,
    van_der_corput_check,
    verify_kernel_bound,
)

PARAB = builtin_curve("power", 2.0)
CUBIC = builtin_curve("power", 3.0)


# ---------------------------------------------------------------- PhaseParams


def test_phase_params_normalizes_finer_scale_first():
    p = PhaseParams(k=1, n_x=2, n_z=0, u_x=3.0, u_z=5.0, s=1.0, curve=PARAB)
    assert (p.n_x, p.n_z) == (0, 2)
    assert (p.u_x, p.u_z) == (5.0, 3.0)
    # s -> -s * 2^(n_z - n_x) under the role swap
    assert p.s == -0.25
    assert p.h == 0.25


def test_phase_params_no_swap_when_already_normalized():
    p = PhaseParams(k=0, n_x=-1, n_z=3, u_x=1.0, u_z=2.0, s=0.7, curve=PARAB)
    assert (p.n_x, p.n_z, p.u_x, p.u_z, p.s) == (-1, 3, 1.0, 2.0, 0.7)
    assert p.h == 2.0 ** -4


def test_phase_params_rejects_negative_k():
    with pytest.raises(ValueError):
        PhaseParams(k=-1, n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=0.0, curve=PARAB)


@pytest.mark.parametrize("field", ["s", "u_x", "u_z"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_params_refuses_non_finite_fields(field, bad):
    kw = dict(k=0, n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=0.5, curve=PARAB)
    kw[field] = bad
    with pytest.raises(NonFiniteError, match=f"PhaseParams.{field} is"):
        PhaseParams(**kw)


# ---------------------------------------------------------------------- phase


def test_phase_zero_modulation_vanishes():
    p = PhaseParams(k=2, n_x=1, n_z=3, u_x=0.0, u_z=0.0, s=0.4, curve=PARAB)
    t = np.linspace(0.5, 2.0, 17)
    for order in (0, 1, 2):
        assert np.all(phase(p, t, order) == 0.0)


def test_phase_second_derivative_closed_form_parabola():
    # gamma = t^2: Q'' = 2 u_x 4^{n_x+k} - 2 u_z 4^{n_z+k} h^2, constant in t
    for k, n_x, n_z, u_x, u_z in [(1, 0, 1, 1.0, 0.5), (0, -1, 2, -2.0, 3.0),
                                  (3, 0, 0, 1.5, 1.5)]:
        p = PhaseParams(k=k, n_x=n_x, n_z=n_z, u_x=u_x, u_z=u_z, s=0.3,
                        curve=PARAB)
        want = (2.0 * p.u_x * 4.0 ** (p.n_x + k)
                - 2.0 * p.u_z * 4.0 ** (p.n_z + k) * p.h ** 2)
        got = phase(p, np.array([0.7, 1.0, 1.8]), 2)
        assert np.allclose(got, want, rtol=1e-12)


def test_phase_invalid_order():
    p = PhaseParams(k=0, n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=0.0, curve=PARAB)
    with pytest.raises(ValueError):
        phase(p, 1.0, 3)


def test_phase_derivative_matches_finite_differences():
    rng = np.random.default_rng(2024)
    ratios = []
    for _ in range(100):
        k = int(rng.integers(0, 4))
        n_x = int(rng.integers(-2, 3))
        n_z = int(rng.integers(-2, 3))
        u_x = float(rng.uniform(-4, 4))
        u_z = float(rng.uniform(-4, 4))
        t = float(rng.uniform(0.6, 1.9))
        s = float(rng.uniform(-1.5, 1.5))
        p = PhaseParams(k=k, n_x=n_x, n_z=n_z, u_x=u_x, u_z=u_z, s=s,
                        curve=CUBIC)
        if abs(p.h * t - p.s) < 0.05:
            continue  # second argument too close to the curve's kink
        exact = phase(p, t, 1)

        def fd(d):
            return (phase(p, t + d, 0) - phase(p, t - d, 0)) / (2 * d)

        e_coarse = abs(fd(1e-4) - exact)
        e_fine = abs(fd(5e-5) - exact)
        if e_fine < 1e-12:
            continue  # truncation below rounding noise; ratio uninformative
        ratios.append(e_coarse / e_fine)
    ratios = np.asarray(ratios)
    assert ratios.size >= 60
    # central differences are second order: halving the step should shrink
    # the error ~4x; rounding can spoil isolated draws but not the bulk
    assert np.median(ratios) >= 3.5
    assert np.mean(ratios > 3.0) >= 0.85


# ------------------------------------------------------------ kernel_integral


def test_kernel_integral_exact_zero_beyond_window_overlap():
    p = PhaseParams(k=0, n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=4.5, curve=PARAB)
    assert kernel_integral(p) == 0.0 + 0.0j
    # h = 1/4: windows cannot meet once |s| > 2 + 2h = 2.5
    p2 = PhaseParams(k=0, n_x=-2, n_z=0, u_x=1.0, u_z=1.0, s=2.7, curve=PARAB)
    assert kernel_integral(p2) == 0.0 + 0.0j


def test_kernel_integral_unmodulated_plateau_against_quad():
    # u = 0, s = 0, h = 1: integrand collapses to psi(t)^2 / t^2, even and
    # positive, so the integral is 2 int_{1/2}^2 psi^2/t^2 dt
    bump = make_bump()
    oracle, err = quad(lambda t: bump(np.array([t]))[0] ** 2 / t ** 2,
                       0.5, 2.0, limit=200)
    assert err < 1e-8
    p = PhaseParams(k=0, n_x=0, n_z=0, u_x=0.0, u_z=0.0, s=0.0, curve=PARAB)
    v = kernel_integral(p)
    assert abs(v.imag) < 1e-12
    assert v.real > 1.0
    assert abs(v - 2.0 * oracle) < 1e-6


def test_kernel_integral_triangle_bound():
    # |psi/t| <= 2 on the support, intersection length <= 3
    rng = np.random.default_rng(5)
    for _ in range(8):
        p = PhaseParams(k=int(rng.integers(0, 3)), n_x=0,
                        n_z=int(rng.integers(0, 3)),
                        u_x=float(rng.uniform(-2, 2)),
                        u_z=float(rng.uniform(-2, 2)),
                        s=float(rng.uniform(-3, 3)), curve=PARAB)
        assert abs(kernel_integral(p)) <= 12.0


def test_kernel_integral_parabola_regression_fixture():
    fx = load_fixtures()["kernel_example_per_k"]
    for k, s, frozen in fx["rows"]:
        p = PhaseParams(k=int(k), n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=float(s),
                        curve=PARAB)
        lhs = abs(kernel_integral(p))
        assert math.isclose(lhs, frozen, rel_tol=1e-6), (k, s, lhs, frozen)
    # far enough out in k the same rows sink under quadrature noise
    for k, s in [(4, 2.0), (5, 0.5), (6, 2.0)]:
        p = PhaseParams(k=k, n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=s, curve=PARAB)
        assert abs(kernel_integral(p)) < fx["noise_floor"]


# --------------------------------------------------------- verify_kernel_bound


def test_verify_kernel_bound_requires_samples():
    with pytest.raises(ValueError):
        verify_kernel_bound(PARAB, [])


def test_verify_kernel_bound_case_split_and_fit():
    samples = [
        # h = 1 > 1/64: scale ratio too close for the determinant route
        PhaseParams(k=2, n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=2.0 ** -5,
                    curve=PARAB),
        # h = 1/128 <= 1/64: separated scales
        PhaseParams(k=2, n_x=0, n_z=7, u_x=1.0, u_z=2.0 ** -14, s=0.8,
                    curve=PARAB),
        PhaseParams(k=3, n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=2.0 ** -7,
                    curve=PARAB),
        PhaseParams(k=3, n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=5.0, curve=PARAB),
    ]
    rep = verify_kernel_bound(PARAB, samples)
    # power alpha=2: c1 = 2, c4 = 2 so the case threshold is 1/64
    assert math.isclose(rep.case_threshold, 1.0 / 64.0, rel_tol=1e-5)
    cases = [s.case for s in rep.samples]
    assert cases == ["B", "A", "B", "B"]
    assert rep.c_hat == max(s.ratio for s in rep.samples)
    assert all(s.ratio <= rep.c_hat for s in rep.samples)
    assert rep.all_pass
    # the |s| > 4 row is an exact zero with zero shape weight
    far = rep.samples[3]
    assert far.lhs == 0.0 and far.shape == 0.0 and far.ratio == 0.0
    assert set(rep.per_k_max) == {2, 3}
    assert rep.stability() >= 1.0
    d = rep.to_dict()
    assert d["all_pass"] and len(d["samples"]) == 4


def test_verify_kernel_bound_deep_plateau_rows_stay_order_one():
    # s = 2^{-2k-1} with equal modulations keeps |Q'| = 1 on the support:
    # no oscillation gain, so the kernel stays O(1) for every k
    samples = [
        PhaseParams(k=k, n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=2.0 ** (-2 * k - 1),
                    curve=PARAB)
        for k in (2, 5, 8)
    ]
    rep = verify_kernel_bound(PARAB, samples)
    for s in rep.samples:
        assert 0.3 < s.lhs < 0.7
    assert rep.stability() < 2.0


# -------------------------------------------------------- van_der_corput_check


def test_van_der_corput_linear_phase():
    def ph(t):
        return 10.0 * t, np.full_like(t, 10.0), np.zeros_like(t)

    r = van_der_corput_check(ph, 0.0, 1.0)
    want = abs(math.sin(5.0)) / 5.0  # |(e^{10i}-1)/10|
    assert math.isclose(r["lhs"], want, rel_tol=1e-4)
    assert math.isclose(r["rhs"], 0.2, rel_tol=1e-12)
    assert r["sigma1"] == 10.0 and r["sigma2"] == 0.0
    assert r["pass"]


def test_van_der_corput_quadratic_phase():
    def ph(t):
        return t ** 2 / 2.0, t, np.ones_like(t)

    r = van_der_corput_check(ph, 1.0, 2.0)
    assert math.isclose(r["sigma1"], 1.0, rel_tol=1e-9)
    assert math.isclose(r["sigma2"], 1.0, rel_tol=1e-12)
    assert math.isclose(r["rhs"], 3.0, rel_tol=1e-9)
    assert r["lhs"] < 1.1
    assert r["pass"]


def test_van_der_corput_fast_phase_tight_bound():
    def ph(t):
        return 1000.0 * t, np.full_like(t, 1000.0), np.zeros_like(t)

    r = van_der_corput_check(ph, 0.0, 1.0)
    assert math.isclose(r["rhs"], 0.002, rel_tol=1e-12)
    assert r["lhs"] <= r["rhs"] + 1e-8
    assert r["pass"]


def test_van_der_corput_rejects_stationary_point():
    def ph(t):
        return t ** 2, 2.0 * t, np.full_like(t, 2.0)

    with pytest.raises(HypothesisError):
        van_der_corput_check(ph, -1.0, 1.0)


def test_van_der_corput_rejects_empty_interval():
    def ph(t):
        return t, np.ones_like(t), np.zeros_like(t)

    with pytest.raises(ValueError):
        van_der_corput_check(ph, 1.0, 1.0)


# ---------------------------------------------------- matrix_lower_bound_check


def test_matrix_bound_identity_is_sharp():
    r = matrix_lower_bound_check(np.eye(2), [0.6, -0.8])
    assert math.isclose(r["lhs"], 1.0, rel_tol=1e-12)
    assert math.isclose(r["rhs"], 1.0, rel_tol=1e-12)
    assert r["pass"]


def test_matrix_bound_diagonal_is_sharp():
    # diag(2,3), x = e1: |Ax| = 2 and |det|/||A|| |x| = 6/3 = 2
    r = matrix_lower_bound_check([[2.0, 0.0], [0.0, 3.0]], [1.0, 0.0])
    assert math.isclose(r["lhs"], 2.0, rel_tol=1e-12)
    assert math.isclose(r["rhs"], 2.0, rel_tol=1e-12)
    assert r["norm"] == 3.0 and r["det"] == 6.0
    assert r["pass"]


def test_matrix_bound_rejects_singular():
    with pytest.raises(HypothesisError):
        matrix_lower_bound_check([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


def test_matrix_bound_rejects_bad_shapes():
    with pytest.raises(ValueError):
        matrix_lower_bound_check(np.eye(3), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        matrix_lower_bound_check(np.eye(2), [1.0, 0.0, 0.0])


def test_matrix_bound_random_draws_never_violate():
    rng = np.random.default_rng(99)
    done = 0
    while done < 200:
        A = rng.normal(size=(2, 2))
        if abs(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) <= 1e-6:
            continue
        x = rng.normal(size=2)
        r = matrix_lower_bound_check(A, x)
        assert r["pass"], (A, x, r)
        done += 1


# -------------------------------------------------------------- interval_count


def test_interval_count_zero_coefficients():
    assert interval_count(PARAB, 0.0, 0.0, 0.5, 1.0, (-5.0, 5.0)) == 0


def test_interval_count_parabola_two_sided():
    # |2t| > 1 away from the origin splits into exactly two runs
    assert interval_count(PARAB, 1.0, 0.0, 0.0, 1.0, (-10.0, 10.0)) == 2


def test_interval_count_constant_difference_bridges_punctures():
    # gamma = t^2, a = b = 1, c = 1: |2t - 2(t-1)| = 2 > 1/2 everywhere,
    # and removing the punctured samples must not split the single run
    assert interval_count(PARAB, 1.0, 1.0, 1.0, 0.5, (-10.0, 10.0)) == 1


def test_interval_count_validation():
    with pytest.raises(ValueError):
        interval_count(PARAB, 1.0, 0.0, 0.0, 0.0, (-1.0, 1.0))
    with pytest.raises(ValueError):
        interval_count(PARAB, 1.0, 0.0, 0.0, 1.0, (-1.0, 1.0), resolution=999)
    with pytest.raises(ValueError):
        interval_count(PARAB, 1.0, 0.0, 0.0, 1.0, (1.0, 1.0))


def test_interval_count_stable_under_refinement():
    curve = builtin_curve("t2log")
    for (a, b, c, d) in [(3.0, 2.0, 0.7, 2.5), (1.0, -1.0, 0.4, 1.0),
                         (0.5, 0.25, 1.3, 0.2)]:
        n1 = interval_count(curve, a, b, c, d, (-5.0, 5.0), resolution=4096)
        n2 = interval_count(curve, a, b, c, d, (-5.0, 5.0), resolution=8192)
        assert abs(n2 - n1) <= 2, (a, b, c, d, n1, n2)


# -------------------------------------------------------------- case_b_matrix


def test_case_b_matrix_zero_modulation():
    p = PhaseParams(k=1, n_x=0, n_z=1, u_x=0.0, u_z=0.0, s=0.4, curve=PARAB)
    r = case_b_matrix(p, 1.2)
    assert r["upsilon_norm"] == 0.0
    assert r["lower_bound_237"] == 0.0


def test_case_b_matrix_degenerate_at_equal_scales_zero_shift():
    # n_x = n_z, s = 0 makes both rescaled arguments equal: rank drops
    p = PhaseParams(k=0, n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=0.0, curve=PARAB)
    r = case_b_matrix(p, 1.3)
    assert r["det"] == 0.0


def test_case_b_matrix_parabola_determinant_closed_form():
    # gamma = t^2 gives det = h s / (t (h t - s))
    p = PhaseParams(k=1, n_x=0, n_z=2, u_x=1.0, u_z=0.1, s=0.8, curve=PARAB)
    t = 1.1
    r = case_b_matrix(p, t)
    want = p.h * p.s / (t * (p.h * t - p.s))
    assert math.isclose(r["det"], want, rel_tol=1e-8)


def test_case_b_matrix_reproduces_phase_derivatives():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = PhaseParams(k=int(rng.integers(0, 3)), n_x=int(rng.integers(-1, 2)),
                        n_z=int(rng.integers(-1, 2)),
                        u_x=float(rng.uniform(0.2, 3)),
                        u_z=float(rng.uniform(0.2, 3)),
                        s=float(rng.uniform(-1.5, 1.5)), curve=PARAB)
        t = float(rng.uniform(0.6, 1.9))
        if abs(p.h * t - p.s) < 0.05:
            continue
        r = case_b_matrix(p, t)
        mu = r["matrix"] @ r["upsilon"]
        q1, q2 = phase(p, t, 1), phase(p, t, 2)
        assert np.allclose(mu, [q1, q2], rtol=1e-9, atol=1e-12)
        # the matrix inequality chains |det|/||M|| |Upsilon| <= |M Upsilon|
        qnorm = math.hypot(q1, q2)
        assert r["lower_bound_237"] <= qnorm + 1e-9 * (1.0 + qnorm)


def test_case_b_matrix_rejects_puncture():
    p = PhaseParams(k=0, n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=1.0, curve=PARAB)
    with pytest.raises(HypothesisError):
        case_b_matrix(p, 1.0)  # h t - s = 0 exactly
