import cmath
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundlezeta import heat_theta
from bundlezeta.bundle_graph import TorusBundleSpec, build_torus, laplacian, torus_eigenvalues
from bundlezeta.errors import PreconditionError
from bundlezeta.heat_theta import (
    ContinuousTorusSpec,
    bessel_progression_sides,
    heat_kernel,
    heat_kernel_column,
    theta_continuous,
    theta_continuous_minus_leading,
    theta_discrete,
    theta_discrete_minus_leading,
)
from bundlezeta.special_functions import bessel_i_scaled


def unit(turns):
    return cmath.exp(2j * math.pi * turns)


def random_spec(rng, d, a):
    return TorusBundleSpec(d, a, [[unit(rng.uniform(0, 1)) for _ in range(ai)] for ai in a])


def spectral_heat_column(spec, t):
    op = laplacian(build_torus(spec))
    evals, vecs = np.linalg.eigh(op.entries)
    return (vecs * np.exp(-t * evals)) @ vecs.conj().T[:, 0]


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------


def test_heat_kernel_initial_condition():
    spec = TorusBundleSpec.single_twist(2, (3, 4), (0.3, 0.6))
    assert heat_kernel(spec, 0.0, (0, 0)) == 1.0
    for x in [(1, 0), (0, 2), (2, 3)]:
        assert heat_kernel(spec, 0.0, x) == 0.0


def test_heat_kernel_diagonal_matches_eigen_sum():
    # trivial weights, d=1, a=3: K(t,0) = (1/3) sum_j e^{-4 t sin^2(pi j/3)}
    spec = TorusBundleSpec.single_twist(1, (3,), (0.0,))
    t = 0.5
    oracle = sum(math.exp(-4.0 * t * math.sin(math.pi * j / 3) ** 2) for j in range(3)) / 3.0
    got = heat_kernel(spec, t, (0,))
    assert got.real == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert abs(got.imag) < 1e-14


def test_heat_kernel_matches_matrix_exponential_entrywise():
    rng = np.random.default_rng(23)
    cases = [(1, (ai,)) for ai in range(1, 6)]
    cases += [(2, (a1, a2)) for a1 in range(1, 6) for a2 in range(1, 6)]
    for d, a in cases:
        spec = random_spec(rng, d, a)
        for t in (0.1, 1.0, 5.0):
            dense = spectral_heat_column(spec, t)
            series = heat_kernel_column(spec, t)
            assert np.abs(series - dense).max() < 1e-10


def test_heat_kernel_solves_heat_equation():
    rng = np.random.default_rng(4)
    h = 1e-4
    for d, a in [(1, (4,)), (2, (3, 5)), (2, (2, 2))]:
        spec = random_spec(rng, d, a)
        op = laplacian(build_torus(spec)).entries
        for t in (0.1, 1.0, 5.0):
            k_mid = heat_kernel_column(spec, t)
            dt = (heat_kernel_column(spec, t + h) - heat_kernel_column(spec, t - h)) / (2 * h)
            residual = op @ k_mid + dt
            assert np.abs(residual).max() < 1e-6


def test_heat_kernel_rejects_bad_time():
    spec = TorusBundleSpec.single_twist(1, (3,), (0.5,))
    with pytest.raises(PreconditionError):
        heat_kernel(spec, -1.0, (0,))
    with pytest.raises(PreconditionError):
        heat_kernel(spec, math.inf, (0,))


def test_heat_kernel_rejects_point_of_wrong_dimension():
    spec = TorusBundleSpec.single_twist(1, (5,), (0.3,))
    for x in [(1, 2), ()]:
        with pytest.raises(PreconditionError, match="wrong dimension"):
            heat_kernel(spec, 1.0, x)
    for x in [(1.5,), (True,), (math.nan,)]:  # (1.5,) once returned K(1, 1)
        with pytest.raises(PreconditionError, match="must be an integer"):
            heat_kernel(spec, 1.0, x)
    assert heat_kernel(spec, 1.0, (-4.0,)) == heat_kernel(spec, 1.0, (1,))


def test_heat_kernel_large_time_against_mpmath():
    # K(t, 3) is 6e-9, 1e-25 and 1e-241 here: far below the single Bessel terms (~0.01)
    mpmath = pytest.importorskip("mpmath")
    a, lam, x = 8, 0.3, 3
    spec = TorusBundleSpec.single_twist(1, (a,), (lam,))
    for t in (300.0, 1000.0, 1e4):
        with mpmath.workdps(40):
            phases = [(j + mpmath.mpf(lam)) / a for j in range(a)]
            ref = complex(sum(
                mpmath.exp(-t * 4 * mpmath.sin(mpmath.pi * p) ** 2 - 2j * mpmath.pi * p * x)
                for p in phases
            ) / a)
        assert abs(heat_kernel(spec, t, (x,)) - ref) <= 1e-11 * abs(ref)


def test_line_forms_agree_at_threshold(monkeypatch):
    # both forms of each cycle factor at its switch: t = a^2 / 8 for the column,
    # t = m^2 / 8 for theta - lead, m = 2a at the quarter turns where the order-a
    # phase vanishes; at both times the form the rule picks keeps the Bessel accuracy
    for a in (1, 2, 3, 4, 5, 8, 16, 40):
        for lam in (0.0, 0.25, 0.3, 0.5, 0.75):
            m = 2 * a if lam in (0.25, 0.75) else a
            ts = (a * a / 8.0, m * m / 8.0)
            spec = TorusBundleSpec.single_twist(1, (a,), (lam,))
            by_rule = [theta_discrete_minus_leading(spec, t) for t in ts]
            forms = []
            for spectral_from in (0.0, math.inf):  # every t spectral, then every t Bessel
                with monkeypatch.context() as patch:
                    patch.setattr(heat_theta, "_SPECTRAL_FROM", spectral_from)
                    forms.append((heat_kernel_column(spec, ts[0]), [theta_discrete_minus_leading(spec, t) for t in ts]))
            (col_s, gaps_s), (col_b, gaps_b) = forms
            assert np.abs(col_s - col_b).max() <= 1e-15
            assert abs(gaps_s[1] - gaps_b[1]) <= 1e-13 * abs(gaps_b[1])
            for got, want in zip(by_rule, gaps_b):
                assert abs(got - want) <= 1e-13 * abs(want)


def test_heat_kernel_column_cap_refused():
    # 4,002,000 entries: refused before any column is built
    big = TorusBundleSpec.single_twist(2, (2001, 2000), (0.5, 0.5))
    with pytest.raises(PreconditionError, match="above the cap"):
        heat_kernel_column(big, 1.0)


def test_heat_kernel_column_40x40_is_fast():
    spec = TorusBundleSpec.single_twist(2, (40, 40), (0.3, 0.7))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        heat_kernel_column(spec, 2.0)
        best = min(best, time.perf_counter() - start)
    assert best < 0.02


# ---------------------------------------------------------------------------
# Bessel progression identity
# ---------------------------------------------------------------------------


def test_progression_identity_reduces_to_generating_function():
    lhs, rhs = bessel_progression_sides(1, 2.0, 1.0)
    assert rhs == pytest.approx(math.exp(2.0), rel=1e-14, abs=0.0)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=0.0)


def test_progression_identity_even_part_cosh():
    lhs, rhs = bessel_progression_sides(2, 1.0, 1.0)
    # (e + e^{-1})/2, and independently I_0(1) + 2 sum I_{2k}(1)
    assert rhs == pytest.approx(math.cosh(1.0), rel=1e-14, abs=0.0)
    even = bessel_i_scaled(0, 1.0) + 2.0 * sum(
        bessel_i_scaled(2 * k, 1.0) for k in range(1, 15)
    )
    assert lhs.real == pytest.approx(even * math.exp(1.0), rel=1e-12, abs=0.0)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=0.0)


def test_progression_identity_complex_grid():
    lhs, rhs = bessel_progression_sides(4, 1.7, cmath.exp(1j * math.pi / 5))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))
    for n in range(1, 7):
        for z in (0.5, 1.7, 3 + 1j):
            for j in range(8):
                t = cmath.exp(2j * math.pi * j / 8)
                lhs, rhs = bessel_progression_sides(n, z, t)
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_progression_rejects_degenerate_input():
    with pytest.raises(PreconditionError):
        bessel_progression_sides(0, 1.0, 1.0)
    for t in (0.0, math.nan, math.inf, complex(1.0, math.nan)):  # NaN once ended in SeriesTruncationError
        with pytest.raises(PreconditionError):
            bessel_progression_sides(2, 1.0, t)
    with pytest.raises(PreconditionError):
        bessel_progression_sides(2.5, 1, 1)  # once a TypeError from range(2.5)


# ---------------------------------------------------------------------------
# discrete theta
# ---------------------------------------------------------------------------


def test_theta_discrete_at_zero_counts_vertices():
    spec = TorusBundleSpec.single_twist(2, (3, 4), (0.2, 0.8))
    assert theta_discrete(spec, 0.0) == pytest.approx(12.0, rel=1e-14, abs=0.0)


def test_theta_discrete_two_site_half_twist():
    spec = TorusBundleSpec.single_twist(1, (2,), (0.5,))
    assert theta_discrete(spec, 1.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-13, abs=0.0)


def test_theta_discrete_equals_trace_and_bessel_form():
    rng = np.random.default_rng(8)
    for d, a in [(1, (5,)), (2, (3, 4)), (2, (2, 5))]:
        spec = random_spec(rng, d, a)
        for t in (0.3, 1.0, 2.7):
            theta = theta_discrete(spec, t)
            trace = float(np.exp(-t * torus_eigenvalues(spec)).sum())
            assert theta == pytest.approx(trace, rel=1e-10, abs=0.0)
            kernel_trace = spec.vertex_count * heat_kernel(spec, t, (0,) * d).real
            assert theta == pytest.approx(kernel_trace, rel=1e-10, abs=0.0)
            # weighted Bessel form per direction
            bessel_form = 1.0
            for ai, li in zip(spec.a, spec.holonomies):
                acc = bessel_i_scaled(0, 2.0 * t)
                for k in range(1, 200):
                    term = bessel_i_scaled(k * ai, 2.0 * t)
                    acc += 2.0 * term * math.cos(2.0 * math.pi * k * li)
                    if term < 1e-18:
                        break
                bessel_form *= ai * acc
            assert theta == pytest.approx(bessel_form, rel=1e-11, abs=0.0)


def test_theta_discrete_strictly_decreasing_for_positive_spectrum():
    spec = TorusBundleSpec.single_twist(2, (3, 4), (0.5, 0.25))
    ts = np.linspace(0.0, 4.0, 25)
    vals = [theta_discrete(spec, t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_theta_discrete_small_t_expansion_order():
    # |theta(t) - prod(a) (e^{-2t} I_0(2t))^d| = O(t^{min a}); slope check
    spec = TorusBundleSpec.single_twist(2, (2, 3), (0.3, 0.3))
    ts = np.geomspace(1e-2, 1e-1, 7)
    gaps = []
    for t in ts:
        lead = 6.0 * bessel_i_scaled(0, 2.0 * t) ** 2
        gaps.append(abs(theta_discrete(spec, t) - lead))
    slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


# ---------------------------------------------------------------------------
# continuous theta
# ---------------------------------------------------------------------------


def test_theta_continuous_large_t_leading_term():
    spec = ContinuousTorusSpec((1.0,), (0.5,))
    for t in (4.0, 6.0):
        expected = 2.0 * math.exp(-math.pi**2 * t)
        assert theta_continuous(spec, t) == pytest.approx(expected, rel=1e-8, abs=0.0)


def test_theta_continuous_small_t_leading_term():
    spec = ContinuousTorusSpec((1.0, 1.0), (0.5, 0.5))
    for t in (1e-3, 1e-2):
        assert theta_continuous(spec, t) == pytest.approx(1.0 / (4.0 * math.pi * t), rel=1e-10, abs=0.0)


def test_theta_forms_agree_at_unit_time():
    spec = ContinuousTorusSpec((1.0,), (0.5,))
    s = theta_continuous(spec, 1.0, form="spectral")
    d = theta_continuous(spec, 1.0, form="dual")
    assert abs(s - d) < 1e-13 * (1.0 + s)


def test_poisson_duality_random_parameters():
    rng = np.random.default_rng(17)
    ts = np.geomspace(0.05, 10.0, 11)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        spec = ContinuousTorusSpec(
            rng.uniform(0.5, 2.5, d), rng.uniform(0.0, 1.0, d)
        )
        for t in ts:
            a = theta_continuous(spec, float(t), form="spectral")
            b = theta_continuous(spec, float(t), form="dual")
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_theta_minus_leading_no_cancellation():
    spec = ContinuousTorusSpec((1.0, 2.0), (0.3, 0.0))
    # where the difference is well above float noise, plain subtraction agrees
    for t in (0.05, 0.4, 1.0):
        direct = theta_continuous(spec, t, form="dual") - (
            1.0 * 2.0 / (4.0 * math.pi * t)
        )
        controlled = theta_continuous_minus_leading(spec, t)
        assert controlled == pytest.approx(direct, rel=1e-9, abs=0.0)
    # deep in the cancellation regime (difference ~ 1e-52 vs theta ~ 1e2) the
    # controlled form must still match the analytic k = 1 term
    t = 2e-3
    lead = (1.0 * 2.0) / (4.0 * math.pi * t)
    k1 = 2.0 * math.exp(-1.0 / (4.0 * t)) * math.cos(2.0 * math.pi * 0.3)
    controlled = theta_continuous_minus_leading(spec, t)
    assert controlled == pytest.approx(lead * k1, rel=1e-8, abs=0.0)
    assert controlled < 0.0  # cos(0.6 pi) < 0 fixes the sign


def test_theta_handles_boundary_holonomy_one():
    a = ContinuousTorusSpec((1.3,), (1.0,))
    b = ContinuousTorusSpec((1.3,), (0.0,))
    for t in (0.1, 1.0, 3.0):
        assert theta_continuous(a, t) == pytest.approx(theta_continuous(b, t), rel=1e-13, abs=0.0)


@given(st.floats(0.05, 1e4), st.floats(1e-3, 100.0), st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_theta_positive_and_decreasing_in_t(t, alpha, lam):
    # values that underflow read 0, never a negative rounding residue
    spec = ContinuousTorusSpec((alpha,), (lam,))
    v1 = theta_continuous(spec, t)
    v2 = theta_continuous(spec, t * 1.5)
    assert v1 >= 0 and v2 >= 0
    assert v2 <= v1 * (1.0 + 1e-12)


def continuum_reference(alpha, lam, t):
    """(theta_1, theta_1 - lead) at 50 digits, from the form with the larger Gaussian rate."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        alpha, lam, t = mpmath.mpf(alpha), mpmath.mpf(lam), mpmath.mpf(t)
        lead = alpha / mpmath.sqrt(4 * mpmath.pi * t)
        rate, dual_rate = 4 * mpmath.pi**2 * t / alpha**2, alpha**2 / (4 * t)
        if rate >= dual_rate:
            c = lam - mpmath.nint(lam)
            half = mpmath.sqrt(c**2 + 200 / rate)
            ks = range(int(mpmath.ceil(-c - half)), int(mpmath.floor(half - c)) + 1)
            theta = mpmath.fsum(mpmath.exp(-rate * (k + c) ** 2) for k in ks)
            return theta, theta - lead
        ks = range(1, int(mpmath.sqrt(4 + 200 / dual_rate)) + 2)
        bracket = 2 * mpmath.fsum(mpmath.exp(-dual_rate * k * k) * mpmath.cospi(2 * lam * k) for k in ks)
        return lead * (1 + bracket), lead * bracket


def test_theta_continuous_against_mpmath_grid():
    # e^x from an x good to a few ulps is good to ~|x| ulps: the bound grows with |log value|;
    # values below 1e-290 (subnormal or underflowed) must only stay there
    for alpha in (1e-4, 0.01, 0.5, 1.0, 2.5, 100.0):
        for lam in (0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0):
            spec = ContinuousTorusSpec((alpha,), (lam,))
            for t in np.geomspace(1e-4, 1e4, 33):
                refs = continuum_reference(alpha, lam, float(t))
                gots = (theta_continuous(spec, float(t)), theta_continuous_minus_leading(spec, float(t)))
                for got, ref in zip(gots, refs):
                    ref = float(ref)
                    if abs(ref) > 1e-290:
                        assert abs(got - ref) <= 2e-15 * (1.0 + max(0.0, -math.log(abs(ref)))) * abs(ref)
                    else:
                        assert abs(got) <= 1e-290


def test_continuum_forms_agree_at_switch(monkeypatch):
    # both forms of each direction at the switch t = alpha^2 / pi
    for alpha in (1e-4, 0.01, 0.5, 1.0, 2.5, 100.0):
        t = alpha * alpha / math.pi
        for lam in (0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0):
            spec = ContinuousTorusSpec((alpha,), (lam,))
            forms = []
            for dual_below in (0.0, math.inf):  # every t spectral, then every t dual
                monkeypatch.setattr(heat_theta, "_DUAL_BELOW", dual_below)
                forms.append((theta_continuous(spec, t), theta_continuous_minus_leading(spec, t)))
            (theta_s, gap_s), (theta_d, gap_d) = forms
            assert abs(theta_s - theta_d) <= 1e-15 * theta_d
            assert abs(gap_s - gap_d) <= 4e-15 * abs(gap_d)


def test_theta_continuous_past_underflow():
    # every Gaussian term underflows: 0 at once, and theta - lead is -lead
    spec = ContinuousTorusSpec((1.0,), (0.3,))
    assert theta_continuous(spec, 250.0) == 0.0
    assert theta_continuous_minus_leading(spec, 250.0) == -1.0 / math.sqrt(1000.0 * math.pi)
    # small alpha below t = 1: the spectral form, not a dual sum truncated to a negative residue
    assert theta_continuous(ContinuousTorusSpec((0.01,), (0.3,)), 0.9) == 0.0
    assert theta_continuous(ContinuousTorusSpec((1e-5,), (0.3,)), 0.5) == 0.0


def test_theta_continuous_minus_leading_at_large_t():
    # lambda = 0: theta = 1 to rounding far past the 1e5 dual terms a truncated sum would stop at
    spec = ContinuousTorusSpec((1.0,), (0.0,))
    for t in (1e9, 1e10):
        expected = 1.0 - 1.0 / math.sqrt(4.0 * math.pi * t)
        assert theta_continuous_minus_leading(spec, t) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_quarter_turns_keep_minus_leading():
    # the k = 1 phase cos(pi / 2) is exactly 0, so the first surviving order is k = 2
    assert heat_theta.cos_2pi(0.25) == 0.0 and heat_theta.cos_2pi(0.75) == 0.0
    t = 0.01
    for lam in (0.25, 0.75):
        gap = theta_continuous_minus_leading(ContinuousTorusSpec((1.0,), (lam,)), t)
        expected = -2.0 * math.exp(-1.0 / t) / math.sqrt(4.0 * math.pi * t)  # the k = 2 term
        assert gap == pytest.approx(expected, rel=1e-14, abs=0.0)
    # discrete: theta - lead = 2 a e^{-2t} sum_k I_{ka}(2t) cos(pi k / 2), k = 2 first
    mpmath = pytest.importorskip("mpmath")
    a = 4
    for t in (1e-4, 1e-3, 0.1):
        with mpmath.workdps(40):
            ref = float(2 * a * mpmath.exp(-2 * t) * mpmath.fsum(
                mpmath.besseli(k * a, 2 * t) * mpmath.cospi(mpmath.mpf(k) / 2) for k in range(1, 40)
            ))
        got = theta_discrete_minus_leading(TorusBundleSpec.single_twist(1, (a,), (0.25,)), t)
        assert abs(got - ref) <= 1e-14 * abs(ref)


def test_continuum_theta_refusals():
    spec = ContinuousTorusSpec((1.0,), (0.3,))
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(PreconditionError, match="finite"):
            theta_continuous(spec, t)
        with pytest.raises(PreconditionError, match="finite"):
            theta_continuous_minus_leading(spec, t)
    for alpha in (math.inf, math.nan, 0.0):
        with pytest.raises(PreconditionError, match="alpha"):
            ContinuousTorusSpec((alpha,), (0.3,))
    with pytest.raises(PreconditionError, match="unknown theta form"):
        theta_continuous(spec, 1.0, form="bessel")
    # a forced form past its rate needs ~1e6 terms: refused, never truncated
    with pytest.raises(PreconditionError, match="cap"):
        theta_continuous(spec, 1e-12, form="spectral")
    with pytest.raises(PreconditionError, match="cap"):
        theta_continuous(spec, 1e12, form="dual")
