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
    assert got.real == pytest.approx(oracle, rel=1e-12)
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
    # both forms of each cycle factor at the switch t = a^2 / 8
    for a in (1, 2, 3, 4, 5, 8, 16, 40):
        t = a * a / 8.0
        for lam in (0.0, 0.3, 0.5):
            spec = TorusBundleSpec.single_twist(1, (a,), (lam,))
            forms = []
            for spectral_from in (0.0, math.inf):  # every t spectral, then every t Bessel
                monkeypatch.setattr(heat_theta, "_SPECTRAL_FROM", spectral_from)
                forms.append((heat_kernel_column(spec, t), theta_discrete_minus_leading(spec, t)))
            (col_s, gap_s), (col_b, gap_b) = forms
            assert np.abs(col_s - col_b).max() <= 1e-15
            assert abs(gap_s - gap_b) <= 1e-13 * abs(gap_b)


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
    assert rhs == pytest.approx(math.exp(2.0), rel=1e-14)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_progression_identity_even_part_cosh():
    lhs, rhs = bessel_progression_sides(2, 1.0, 1.0)
    # (e + e^{-1})/2, and independently I_0(1) + 2 sum I_{2k}(1)
    assert rhs == pytest.approx(math.cosh(1.0), rel=1e-14)
    even = bessel_i_scaled(0, 1.0) + 2.0 * sum(
        bessel_i_scaled(2 * k, 1.0) for k in range(1, 15)
    )
    assert lhs.real == pytest.approx(even * math.exp(1.0), rel=1e-12)
    assert lhs == pytest.approx(rhs, rel=1e-13)


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
    with pytest.raises(PreconditionError):
        bessel_progression_sides(2, 1.0, 0.0)


# ---------------------------------------------------------------------------
# discrete theta
# ---------------------------------------------------------------------------


def test_theta_discrete_at_zero_counts_vertices():
    spec = TorusBundleSpec.single_twist(2, (3, 4), (0.2, 0.8))
    assert theta_discrete(spec, 0.0) == pytest.approx(12.0, rel=1e-14)


def test_theta_discrete_two_site_half_twist():
    spec = TorusBundleSpec.single_twist(1, (2,), (0.5,))
    assert theta_discrete(spec, 1.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-13)


def test_theta_discrete_equals_trace_and_bessel_form():
    rng = np.random.default_rng(8)
    for d, a in [(1, (5,)), (2, (3, 4)), (2, (2, 5))]:
        spec = random_spec(rng, d, a)
        for t in (0.3, 1.0, 2.7):
            theta = theta_discrete(spec, t)
            trace = float(np.exp(-t * torus_eigenvalues(spec)).sum())
            assert theta == pytest.approx(trace, rel=1e-10)
            kernel_trace = spec.vertex_count * heat_kernel(spec, t, (0,) * d).real
            assert theta == pytest.approx(kernel_trace, rel=1e-10)
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
            assert theta == pytest.approx(bessel_form, rel=1e-11)


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
        assert theta_continuous(spec, t) == pytest.approx(1.0 / (4.0 * math.pi * t), rel=1e-10)


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
        assert controlled == pytest.approx(direct, rel=1e-9)
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
        assert theta_continuous(a, t) == pytest.approx(theta_continuous(b, t), rel=1e-13)


@given(st.floats(0.05, 5.0), st.floats(0.6, 2.0), st.floats(0.0, 1.0))
@settings(max_examples=25)
def test_theta_positive_and_decreasing_in_t(t, alpha, lam):
    spec = ContinuousTorusSpec((alpha,), (lam,))
    v1 = theta_continuous(spec, t)
    v2 = theta_continuous(spec, t * 1.5)
    assert v1 > 0 and v2 > 0
    assert v2 < v1 * (1.0 + 1e-12)
