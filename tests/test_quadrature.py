import math

import pytest
from hypothesis import given, strategies as st

from bundlezeta.errors import PreconditionError, QuadratureError
from bundlezeta.quadrature import (
    QuadratureResult,
    QuadratureSpec,
    TailRule,
    _mellin_split,
    integrate_interval,
    integrate_semi_infinite,
)
from bundlezeta.zeta import _rectified_unit_integrand


def test_interval_polynomial_exact():
    res = integrate_interval(lambda t: 3.0 * t * t, 0.0, 2.0)
    assert res.value == pytest.approx(8.0, abs=1e-13)
    assert res.error_estimate <= 1e-12


def test_semi_infinite_exponential():
    res = integrate_semi_infinite(lambda t: math.exp(-t), 0.0)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.error_estimate <= 1e-10  # default rel_tol budget


def test_semi_infinite_power_tail():
    # int_1^inf t^{-3/2} dt = 2
    res = integrate_semi_infinite(
        lambda t: t**-1.5, 1.0, tail=TailRule("power", 1.5)
    )
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_power_tail_overflow_raises_quadrature_error():
    # at p = 1.01 the substitution t = cut v^{-100} leaves the float range near v = 0: once a bare OverflowError
    with pytest.raises(QuadratureError, match="overflowed"):
        integrate_semi_infinite(lambda t: t**-1.01 * math.log(t) / (1.0 + math.log(t)), 1.0, tail=TailRule("power", 1.01))


def test_semi_infinite_gaussian_against_closed_form():
    res = integrate_semi_infinite(
        lambda t: math.exp(-t * t), 0.0, tail=TailRule("exp", 2.0)
    )
    assert res.value == pytest.approx(0.5 * math.sqrt(math.pi), abs=1e-12)


def test_fast_exponential_tail_is_resolved():
    # the finite head of an exp tail ends at lower + 30/rate; a floor of 2 put every node past e^{-3.6e12 t}
    f = lambda t: math.exp(-3.6e12 * t)
    ref = math.exp(-0.36) / 3.6e12
    fine = integrate_semi_infinite(f, 1e-13, QuadratureSpec(abs_tol=1e-30, rel_tol=1e-12), TailRule("exp", 3.6e12))
    assert fine.value == pytest.approx(ref, rel=1e-12, abs=0.0)
    default = integrate_semi_infinite(f, 1e-13, tail=TailRule("exp", 3.6e12))
    assert default.value > 0.0 and abs(default.value - ref) <= default.error_estimate


def test_mellin_split_estimate_covers_cancellation():
    # exact pieces that cancel: the quadrature estimates are 0, the rounding of the sum is not
    value, err = _mellin_split(lambda t: 1.0, lambda t: 0.0, TailRule("exp", 1.0), 2.0, (-2.0,), QuadratureSpec())
    assert value == 0.0 and err == 4.0 * math.ulp(1.0)
    # elsewhere the estimate is the sum of the two quadrature estimates, unchanged
    spec, rule = QuadratureSpec(), TailRule("exp", 1.0)
    head = integrate_interval(lambda t: t, 0.0, 1.0, spec)
    tail = integrate_semi_infinite(lambda t: math.exp(-t), 1.0, spec, tail=rule)
    value, err = _mellin_split(lambda t: t, lambda t: math.exp(-t), rule, 1.0, (-0.5,), spec)
    assert value == head.value + tail.value - 0.5
    assert err == head.error_estimate + tail.error_estimate > math.ulp(1.0) * (head.value + tail.value + 0.5)


def test_singular_endpoint_power():
    # int_0^1 t^{-1/2} e^{-t} dt = sqrt(pi) erf(1), rectified by t = u^2
    res = integrate_interval(_rectified_unit_integrand(lambda t: math.exp(-t) / math.sqrt(t), -0.5), 0.0, 1.0)
    assert res.value == pytest.approx(math.sqrt(math.pi) * math.erf(1.0), rel=1e-13, abs=0.0)


def test_positive_exponent_rectification():
    # int_0^1 t^{1/4} e^{-t} dt = lower incomplete gamma(5/4, 1) = sum_k (-1)^k / (k! (5/4 + k))
    expected = math.fsum((-1) ** k / (math.factorial(k) * (1.25 + k)) for k in range(30))
    res = integrate_interval(_rectified_unit_integrand(lambda t: t**0.25 * math.exp(-t), 0.25), 0.0, 1.0)
    assert res.value == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_lattice_constant_style_integrand_vanishes_in_dimension_one():
    # int_0^inf (e^{-2t} I_0(2t) - e^{-t}) dt/t = 0 (minus the d = 1 constant)
    from bundlezeta.special_functions import bessel_i_scaled

    res = integrate_semi_infinite(
        lambda t: (bessel_i_scaled(0, 2.0 * t) - math.exp(-t)) / t,
        0.0,
        QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10),
        tail=TailRule("power", 1.5),
    )
    assert abs(res.value) <= 1e-8


def test_self_consistency_under_tolerance_halving():
    spec_coarse = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-7)
    spec_fine = QuadratureSpec(abs_tol=5e-9, rel_tol=5e-8)
    f = lambda t: math.exp(-2.0 * t) * math.cos(3.0 * t) ** 2
    coarse = integrate_semi_infinite(f, 0.0, spec_coarse, TailRule("exp", 2.0))
    fine = integrate_semi_infinite(f, 0.0, spec_fine, TailRule("exp", 2.0))
    assert abs(coarse.value - fine.value) <= coarse.error_estimate + 1e-15


def test_non_convergence_is_reported():
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)  # unreachable: stops at the subdivision cap
    with pytest.raises(QuadratureError, match="did not converge after 8000 subdivisions"):
        integrate_interval(lambda t: math.sin(50.0 * t) / (1e-4 + abs(t - 0.31)), 0.0, 1.0, spec)


def test_stop_rests_on_the_exact_sum_of_live_panel_estimates():
    # the running error sum drifted below zero: c_3 at tol 1e-18 stopped on -1.0e-16, where its live panels sum
    # to 2.2e-16, and a divergent integrand read 0.0 +- 0.0; a NaN estimate stopped the loop and read NaN +- NaN
    from bundlezeta.zeta import lattice_constant_eval

    _, err = lattice_constant_eval(3, QuadratureSpec(abs_tol=1e-18, rel_tol=1e-18))
    assert 0.0 < err <= 1e-18
    for f in (lambda t: 1.0 / (1e-300 + abs(t - 0.31)), lambda t: math.nan):
        with pytest.raises(QuadratureError):
            integrate_interval(f, 0.0, 1.0, QuadratureSpec(1e-13, 1e-13))


def test_bad_inputs_refused():
    for tol in (-1.0, 0.0, math.inf, math.nan):  # an infinite tolerance once let any estimate pass
        with pytest.raises(PreconditionError):
            QuadratureSpec(abs_tol=tol)
        with pytest.raises(PreconditionError):
            QuadratureSpec(rel_tol=tol)
    with pytest.raises(PreconditionError):
        TailRule("power", 0.5)
    with pytest.raises(PreconditionError):
        TailRule("nope", 1.0)
    with pytest.raises(PreconditionError):
        integrate_semi_infinite(lambda t: 0.0, -1.0)


@given(st.floats(0.3, 4.0), st.floats(0.2, 3.0))
def test_exponential_moments(rate, power):
    # int_0^inf t^{p} e^{-c t} dt = Gamma(p+1) / c^{p+1}
    res = integrate_semi_infinite(
        lambda t: t**power * math.exp(-rate * t),
        0.0,
        tail=TailRule("exp", rate),
    )
    expected = math.gamma(power + 1.0) / rate ** (power + 1.0)
    assert res.value == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_result_is_frozen_record():
    res = QuadratureResult(1.0, 0.0, 15)
    with pytest.raises(Exception):
        res.value = 2.0
