import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from curveflow.curves import (
    LogGrid,
    builtin_curve,
    check_conditions,
)
from curveflow.fixtures import load_fixtures


def test_power_eval_trivial():
    even = builtin_curve("power", 2.0)
    assert even.deriv(3.0, 0) == 9.0
    assert even.deriv(-3.0, 0) == 9.0
    odd = builtin_curve("power_odd", 2.0)
    assert odd.deriv(-3.0, 0) == -9.0


def test_power_derivative_orders():
    c = builtin_curve("power", 2.0)
    assert c.deriv(3.0, 1) == 6.0
    assert c.deriv(3.0, 2) == 2.0
    assert c.deriv(3.0, 3) == 0.0
    # zero-coefficient guard: order 3 of t^2 must not produce NaN at small t
    assert c.deriv(1e-200, 3) == 0.0


def test_eval_at_zero():
    c = builtin_curve("power", 1.5)
    assert c.deriv(0.0, 0) == 0.0
    assert c.deriv(0.0, 1) == 0.0
    with pytest.raises(ValueError):
        c.deriv(0.0, 2)


def test_bad_order_rejected():
    c = builtin_curve("power", 2.0)
    with pytest.raises(ValueError):
        c.deriv(1.0, 4)
    with pytest.raises(ValueError):
        c.deriv(1.0, -1)


def test_overflow_raises():
    c = builtin_curve("power", 3.0)
    with pytest.raises(OverflowError):
        c.deriv(1e200, 0)


def test_t2log_values():
    c = builtin_curve("t2log")
    assert c.deriv(1.0, 0) == pytest.approx(math.log(2.0), rel=1e-14)
    assert c.deriv(1.0, 1) == pytest.approx(2.0 * math.log(2.0) + 0.5, rel=1e-14)


@pytest.mark.parametrize("fam,alpha", [("t2log", None), ("int_power_log", 2.5)])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_closed_form_derivatives_match_finite_differences(fam, alpha, order):
    c = builtin_curve(fam, alpha)
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.1, 50.0, size=12):
        h = t * 1e-6
        fd = (c.deriv(t + h, order - 1) - c.deriv(t - h, order - 1)) / (2 * h)
        assert c.deriv(t, order) == pytest.approx(fd, rel=2e-7, abs=1e-12)


def test_int_power_log_first_derivative():
    c = builtin_curve("int_power_log", 2.0)
    assert c.deriv(1.0, 1) == pytest.approx(math.log(2.0), rel=1e-14)


def test_int_power_log_antiderivative_against_quad():
    c = builtin_curve("int_power_log", 2.0)
    for t in (0.3, 1.0, 7.5, 100.0):
        ref = quad(lambda s: s * s * np.log1p(s), 0.0, t, limit=200)[0]
        assert c.deriv(t, 0) == pytest.approx(ref, rel=1e-10)


def test_unknown_family_and_alpha_validation():
    with pytest.raises(ValueError):
        builtin_curve("cubic_spline")
    with pytest.raises(ValueError):
        builtin_curve("power", 0.5)
    with pytest.raises(ValueError):
        builtin_curve("power")
    with pytest.raises(ValueError):
        builtin_curve("int_power_log", 1.0)
    with pytest.raises(ValueError):
        builtin_curve("t2log", 2.0)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_power_constants_closed_form(alpha):
    report = check_conditions(builtin_curve("power", alpha))
    assert report.all_pass
    k = report.constants
    assert k.c1 == pytest.approx(2.0 ** (alpha - 1.0), rel=1e-6)
    assert k.c2 == pytest.approx(alpha - 1.0, rel=1e-6)
    assert k.c3 == pytest.approx(alpha - 1.0, rel=1e-6)
    assert k.c4 == pytest.approx(alpha, rel=1e-6)


def test_power_alpha_one_fails_condition_iii():
    report = check_conditions(builtin_curve("power", 1.0))
    assert not report.condition_iii.passed
    assert report.condition_iii.witness_t is not None
    # gamma'' vanishes identically, so (iv) is ill-defined too
    assert not report.condition_iv.passed
    assert report.condition_i.passed and report.condition_ii.passed


@pytest.mark.parametrize(
    "fam,alpha,key",
    [("t2log", None, "t2log"), ("int_power_log", 2.0, "int_power_log_alpha2")],
)
def test_transcendental_families_pass_with_frozen_constants(fam, alpha, key):
    report = check_conditions(builtin_curve(fam, alpha))
    assert report.all_pass
    frozen = load_fixtures()["curve_constants"][key]
    for name in ("c1", "c2", "c3", "c4"):
        assert getattr(report.constants, name) == pytest.approx(frozen[name], rel=1e-6)


def test_constants_internal_inequalities():
    for fam, alpha in [("power", 2.0), ("power", 1.5), ("t2log", None), ("int_power_log", 2.0)]:
        k = check_conditions(builtin_curve(fam, alpha)).constants
        assert k.c1 >= 1.0
        assert k.c4 >= 1.0
        assert k.c4 <= k.c2 + 1.0 + 1e-6


def test_report_is_deterministic():
    a = check_conditions(builtin_curve("t2log"))
    b = check_conditions(builtin_curve("t2log"))
    assert a.to_dict() == b.to_dict()


def test_grid_too_coarse_rejected():
    with pytest.raises(ValueError):
        check_conditions(builtin_curve("power", 2.0), LogGrid(per_octave=3))


def test_origin_limits_recorded():
    report = check_conditions(builtin_curve("power", 2.0))
    g0, g1 = report.origin_values
    assert abs(g0) < 1e-10
    assert abs(g1) < 1e-5


@given(
    t=st.floats(min_value=1e-6, max_value=1e6),
    order=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_parity_signs(t, order):
    even = builtin_curve("t2log")
    odd = builtin_curve("int_power_log", 2.0)
    s_even = 1.0 if order % 2 == 0 else -1.0
    assert even.deriv(-t, order) == pytest.approx(
        s_even * even.deriv(t, order), rel=1e-12, abs=1e-300
    )
    s_odd = -s_even
    assert odd.deriv(-t, order) == pytest.approx(
        s_odd * odd.deriv(t, order), rel=1e-12, abs=1e-300
    )


def test_vectorized_eval_matches_scalar():
    c = builtin_curve("t2log")
    ts = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    vec = c.deriv(ts, 1)
    for i, t in enumerate(ts):
        assert vec[i] == pytest.approx(c.deriv(float(t), 1), rel=1e-14, abs=0.0)
