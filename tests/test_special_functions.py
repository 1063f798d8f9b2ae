import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bundlezeta.errors import PreconditionError
from bundlezeta.special_functions import (
    bessel_i_complex,
    bessel_i_scaled,
    bessel_i_scaled_many,
    bessel_k,
    hurwitz_zeta,
    log_bessel_i0_scaled,
    reciprocal_gamma,
    sin_pi,
)

from helpers import bessel_i_series


def test_bessel_at_zero_argument():
    assert bessel_i_scaled(0, 0.0) == 1.0
    assert bessel_i_scaled(3, 0.0) == 0.0


def test_bessel_small_argument_series_oracle():
    # power-series oracle: sum (x/2)^{2j}/(j!)^2 scaled by e^{-x}
    assert bessel_i_scaled(0, 2.0) == pytest.approx(0.308508322553671, abs=1e-14)
    for order, x in [(1, 0.5), (4, 3.0), (10, 20.0), (25, 12.0)]:
        expected = bessel_i_series(order, x) * math.exp(-x)
        assert bessel_i_scaled(order, x) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_bessel_range_and_monotonicity_in_order():
    for x in (0.5, 2.0, 10.0, 100.0, 1e4, 1e8):
        vals = [bessel_i_scaled(n, x) for n in (0, 1, 2, 5, 9)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("x", [0.5, 2.0, 10.0, 100.0])
def test_bessel_recurrence(x):
    # I_{m-1}(x) - I_{m+1}(x) = (2m/x) I_m(x), in scaled form
    vals = bessel_i_scaled_many(60, x)
    for m in range(1, 51):
        lhs = vals[m - 1] - vals[m + 1]
        rhs = 2.0 * m / x * vals[m]
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("z", [0.7, 2.0, 9.5])
def test_bessel_generating_function(z):
    # sum_k t^k I_k(z) = e^{(z/2)(t + 1/t)}; on |t| = 1 the exponent is
    # z cos(theta), so the scaled sum must equal e^{z(cos(theta) - 1)}.
    vals = bessel_i_scaled_many(80, z)
    for angle in (0.0, 0.3, 0.71):
        t = complex(math.cos(2 * math.pi * angle), math.sin(2 * math.pi * angle))
        acc = complex(vals[0])
        for k in range(1, 81):
            acc += vals[k] * (t**k + t**-k)
        rhs = math.exp(z * (math.cos(2 * math.pi * angle) - 1.0))
        assert abs(acc - rhs) < 1e-12 * (1.0 + abs(rhs))


def test_bessel_branch_consistency():
    from bundlezeta.special_functions import (
        _bessel_asymptotic_scaled,
        _bessel_debye_scaled,
        _bessel_miller_scaled,
        _bessel_series_scaled,
    )

    # series vs Miller at the same argument around the cutoff
    for x in (30.0, 35.0):
        arr = _bessel_miller_scaled(8, x)
        for n in (0, 1, 3, 8):
            assert _bessel_series_scaled(n, x) == pytest.approx(float(arr[n]), rel=1e-12, abs=0.0)
    # Miller vs asymptotic for small order, large argument
    for x in (50.0, 300.0, 5e4):
        arr = _bessel_miller_scaled(3, x)
        for n in range(4):
            assert _bessel_asymptotic_scaled(n, x) == pytest.approx(float(arr[n]), rel=1e-11, abs=0.0)
    # Debye vs Miller at the order cutoff
    direct = float(_bessel_miller_scaled(1100, 900.0)[1000])
    assert _bessel_debye_scaled(1000, 900.0) == pytest.approx(direct, rel=1e-9, abs=0.0)
    # both underflow to zero together when the order dwarfs the argument
    assert _bessel_debye_scaled(1000, 120.0) == float(_bessel_miller_scaled(1000, 120.0)[1000]) == 0.0


@pytest.mark.parametrize(
    "order,x", [(1000, 2.0 * 1000**2 + 35.0), (3000, 2.0 * 3000**2 + 35.0), (1000, 1e6), (5000, 1e6)]
)
def test_bessel_debye_branch_large_argument_against_mpmath(order, x):
    # root - x in the Debye exponent cancels for x >> order unless formed as order^2/(root + x)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = float(mpmath.besseli(order, x) * mpmath.exp(-x))
    assert abs(bessel_i_scaled(order, x) / exact - 1.0) <= 1e-13


def test_bessel_huge_argument_matches_leading_asymptotics():
    # e^{-x} I_0(x) -> (2 pi x)^{-1/2} (1 + 1/(8x) + ...)
    for x in (1e6, 1e12, 1e20):
        lead = 1.0 / math.sqrt(2.0 * math.pi * x) * (1.0 + 1.0 / (8.0 * x))
        assert bessel_i_scaled(0, x) == pytest.approx(lead, rel=1e-10, abs=0.0)


def test_bessel_rejects_bad_input():
    with pytest.raises(PreconditionError):
        bessel_i_scaled(-1, 1.0)
    with pytest.raises(PreconditionError):
        bessel_i_scaled(0, float("nan"))
    with pytest.raises(PreconditionError):
        bessel_i_scaled(0, -1.0)
    with pytest.raises(PreconditionError):
        bessel_i_scaled(10**6 + 1, 1.0)


@pytest.mark.parametrize("max_order, x", [(5, math.inf), (5, math.nan), (5, -1.0), (5.5, 1.0), (-1, 1.0)])
def test_bessel_many_rejects_bad_input(max_order, x):
    # the guard of bessel_i_scaled: an integer order >= 0 and a finite argument >= 0
    with pytest.raises(PreconditionError):
        bessel_i_scaled_many(max_order, x)


def test_bessel_complex_matches_real_axis():
    for n in (0, 2, 7):
        for x in (0.5, 1.7, 3.0):
            expected = bessel_i_series(n, x)
            got = bessel_i_complex(n, complex(x))
            assert got.real == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert abs(got.imag) < 1e-15 * (1 + abs(got.real))


def test_bessel_complex_conjugate_symmetry():
    z = complex(3.0, 1.0)
    for n in (0, 1, 5):
        a = bessel_i_complex(n, z)
        b = bessel_i_complex(n, z.conjugate())
        assert a == pytest.approx(b.conjugate(), rel=1e-13, abs=0.0)


def test_log_bessel_i0_scaled_small_and_moderate():
    assert log_bessel_i0_scaled(0.0) == 0.0
    for x in (1e-8, 1e-4):
        # leading Taylor term of log I_0 suffices at this scale
        assert log_bessel_i0_scaled(x) == pytest.approx(0.25 * x * x - x, rel=1e-12, abs=0.0)
    for x in (0.02, 0.09):
        oracle = math.log(bessel_i_series(0, x)) - x
        assert log_bessel_i0_scaled(x) == pytest.approx(oracle, rel=1e-12, abs=0.0)
    for x in (0.5, 4.0, 80.0):
        assert log_bessel_i0_scaled(x) == pytest.approx(
            math.log(bessel_i_scaled(0, x)), rel=1e-13, abs=0.0
        )


# ---------------------------------------------------------------------------
# Hurwitz zeta / gamma
# ---------------------------------------------------------------------------


def test_hurwitz_zeta_trivial_values():
    assert hurwitz_zeta(0.0, 0.5) == pytest.approx(0.0, abs=1e-14)
    assert hurwitz_zeta(0.0, 0.3) == pytest.approx(0.2, abs=1e-14)
    # zeta(2, 1) = pi^2/6 against the plain series oracle
    oracle = sum(1.0 / k**2 for k in range(1, 200000))
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(oracle, abs=1e-5)
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-13, abs=0.0)


@given(st.floats(0.05, 0.95))
def test_hurwitz_zeta_minus_one_is_bernoulli(lam):
    expected = -(lam * lam - lam + 1.0 / 6.0) / 2.0
    assert hurwitz_zeta(-1.0, lam) == pytest.approx(expected, abs=1e-13)


def test_hurwitz_zeta_value_from_spec_arithmetic():
    # -B2(0.3)/2 with B2(0.3) = 0.09 - 0.3 + 1/6
    assert hurwitz_zeta(-1.0, 0.3) == pytest.approx(0.021666666666666667, abs=1e-13)


def test_hurwitz_zeta_series_oracle_seam():
    # direct lattice tail: zeta(3, a) should match brute-force summation
    for a in (0.25, 0.8, 7.5):
        oracle = sum((k + a) ** -3.0 for k in range(40000))
        assert hurwitz_zeta(3.0, a) == pytest.approx(oracle, rel=1e-7, abs=0.0)


HURWITZ_FIGURES = [(s, 1e-14, 5e-15) for s in (0.25, 0.5, 2.0, 4.0, 8.0)] + [
    (-0.25, 1.8e-13, 0.0),
    (-1.0, 1.1e-12, 0.0),
    (-2.0, 3.7e-11, 0.0),
]


@pytest.mark.parametrize("s,rel,floor", HURWITZ_FIGURES, ids=[str(f[0]) for f in HURWITZ_FIGURES])
def test_hurwitz_zeta_against_mpmath_on_documented_range(s, rel, floor):
    # the docstring's measured figures: for s > 0, 1e-14 relative or 5e-15 absolute near a
    # zero of zeta(s, a) (zeta(0.5, 0.3) = 0.011 sits next to one); below 0, relative only
    mpmath = pytest.importorskip("mpmath")
    for a in (0.01, 0.3, 0.7, 2.5, 31.3, 64.9):
        with mpmath.workdps(40):  # at default precision mpmath's zeta(12, 65.3) is 2.6e-8 off
            exact = float(mpmath.zeta(s, a))
        assert abs(hurwitz_zeta(s, a) - exact) <= max(rel * abs(exact), floor)


@pytest.mark.parametrize(
    "s,a_values",
    [(6.0, (0.01, 0.3, 1.3, 2.0)), (20.0, (0.01, 0.3, 1.3, 2.0)), (30.0, (0.01, 0.3, 1.3, 2.0))]
    + [(s, (64.0, 65.3, 66.0)) for s in (8.0, 21.5, 41.0)],
)
def test_hurwitz_zeta_against_mpmath_above_eight(s, a_values):
    # the docstring's claim for the calls above s = 8: within 9e-16 relative
    mpmath = pytest.importorskip("mpmath")
    for a in a_values:
        with mpmath.workdps(80):  # at 40 digits mpmath's zeta(21.5, 65) is 2e-11 off
            exact = float(mpmath.zeta(s, a))
        assert hurwitz_zeta(s, a) == pytest.approx(exact, rel=9e-16, abs=0.0)


def test_bessel_k_against_mpmath():
    # the docstring's measured range, one vector call per order (one step and grid for all x)
    mpmath = pytest.importorskip("mpmath")
    x = np.array([1.0, 1.3, 2.0, 3.7, 2.0 * math.pi, 10.0, 42.0, 100.0, 300.0, 700.0])
    for nu in (-0.5, 0.0, 0.5, 1.0, 2.5, 4.5, 7.25, 10.0, 29.5):
        exact = [float(mpmath.besselk(nu, xi)) for xi in x]
        assert bessel_k(nu, x) == pytest.approx(exact, rel=5e-15, abs=0.0), nu
        for xi, e in zip(x[::3], exact[::3]):
            assert bessel_k(nu, np.array([xi]))[0] == pytest.approx(e, rel=5e-15, abs=0.0), (nu, xi)


def test_bessel_k_refuses_small_argument():
    for bad in (0.99, 0.0, -1.0, math.nan):
        with pytest.raises(PreconditionError):
            bessel_k(0.5, np.array([2.0, bad]))


def test_hurwitz_zeta_pole_refused():
    with pytest.raises(PreconditionError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(PreconditionError):
        hurwitz_zeta(2.0, 0.0)


@pytest.mark.parametrize("s", [-2.5, -6.0, math.nan])
def test_hurwitz_zeta_refuses_below_minus_two(s):
    # below s = -2 the explicit sum cancels to 4.5e-10 (s = -3) and 1.2e-4 (s = -6) relative
    with pytest.raises(PreconditionError, match="below s = -2"):
        hurwitz_zeta(s, 0.3)


def test_reciprocal_gamma_zeros_and_values():
    for s in (0.0, -1.0, -2.0, -7.0):
        assert reciprocal_gamma(s) == 0.0
    assert reciprocal_gamma(3.0) == pytest.approx(0.5, rel=1e-14, abs=0.0)
    assert reciprocal_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13, abs=0.0)
    assert reciprocal_gamma(-0.5) == pytest.approx(
        1.0 / math.gamma(-0.5), rel=1e-12, abs=0.0
    )


def test_sin_pi_exactness():
    assert sin_pi(0.5) == 1.0
    assert sin_pi(1.0) == 0.0
    assert sin_pi(123456789.0) == 0.0
    assert sin_pi(0.25) == pytest.approx(math.sqrt(0.5), rel=1e-14, abs=0.0)
    # full relative accuracy near an integer (2^-40 is exactly representable)
    eps = 2.0**-40
    assert sin_pi(1.0 + eps) == pytest.approx(-math.pi * eps, rel=1e-12, abs=0.0)
