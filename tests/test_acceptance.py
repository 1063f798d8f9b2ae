"""Acceptance suite: one test per criterion, at its stated tolerance and
runtime budget.  Each test prints a single PASS line (visible with -s;
under plain `pytest -v` the per-test verdict line serves the same role).
"""

import cmath
import itertools
import math
import time

import numpy as np
import pytest

from bundlezeta.asymptotics import (
    TorusFamily,
    log_f,
    logdet_correction,
    logdet_correction_integral,
    logdet_limit_residuals,
    product_formula_check,
    zeta_limit_residuals,
)
from bundlezeta.bundle_graph import (
    LineBundleGraph,
    TorusBundleSpec,
    build_torus,
    laplacian,
)
from bundlezeta.crsf import kenyon_sum
from bundlezeta.heat_theta import (
    ContinuousTorusSpec,
    bessel_progression_sides,
    heat_kernel_column,
    theta_continuous,
)
from bundlezeta.zeta import (
    epstein_hurwitz_deriv0,
    kronecker_deriv0,
    lattice_constant,
    lattice_zeta_deriv0,
)

from helpers import catalan_constant


def _pass(num: int, elapsed: float, limit: float, detail: str):
    print(f"ACCEPTANCE {num:02d}: PASS in {elapsed:.2f}s (budget {limit:g}s) - {detail}")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def unit(turns):
    return cmath.exp(2j * math.pi * turns)


def test_criterion_01_c1_vanishes():
    start = time.perf_counter()
    value = lattice_constant(1)
    elapsed = time.perf_counter() - start
    assert abs(value) <= 1e-8
    _pass(1, elapsed, 1.0, f"c_1 = {value:.3e}")


def test_criterion_02_c2_equals_4G_over_pi():
    start = time.perf_counter()
    value = lattice_constant(2)
    target = 4.0 * catalan_constant() / math.pi
    elapsed = time.perf_counter() - start
    assert abs(value - target) <= 1e-6
    _pass(2, elapsed, 10.0, f"c_2 - 4G/pi = {value - target:.3e}")


def test_criterion_03_kenyon_identity_randomized():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    bundles = 0

    def check(graph):
        nonlocal worst, bundles
        det = laplacian(graph).det().real
        ks = kenyon_sum(graph)
        worst = max(worst, abs(ks - det) / (1.0 + abs(det)))
        bundles += 1

    for n in range(3, 9):
        for _ in range(20):
            edges = [(i, (i + 1) % n, unit(rng.uniform(0, 1))) for i in range(n)]
            check(LineBundleGraph(n, edges))
    for sides in [(2, 2), (2, 3), (3, 3)]:
        for _ in range(30):
            spec = TorusBundleSpec(
                2, sides, [[unit(rng.uniform(0, 1)) for _ in range(k)] for k in sides]
            )
            check(build_torus(spec))
    elapsed = time.perf_counter() - start
    assert bundles >= 200
    assert worst <= 1e-9
    _pass(3, elapsed, 120.0, f"{bundles} bundles, worst rel err {worst:.2e}")


def test_criterion_04_bessel_progression_identity_grid():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for z in (0.5, 1.7, 3 + 1j):
            for j in range(8):
                t = cmath.exp(2j * math.pi * j / 8.0)
                lhs, rhs = bessel_progression_sides(n, z, t)
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    _pass(4, elapsed, 5.0, f"worst deviation {worst:.2e}")


def test_criterion_05_poisson_duality():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    ts = np.geomspace(0.05, 10.0, 11)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 3))
        spec = ContinuousTorusSpec(rng.uniform(0.5, 2.5, d), rng.uniform(0.0, 1.0, d))
        for t in ts:
            a = theta_continuous(spec, float(t), form="spectral")
            b = theta_continuous(spec, float(t), form="dual")
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    _pass(5, elapsed, 5.0, f"worst duality gap {worst:.2e}")


def test_criterion_06_heat_kernel_vs_spectral_and_heat_equation():
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    worst_entry = 0.0
    worst_resid = 0.0
    h = 1e-4
    cases = [(1, (a,)) for a in range(1, 6)]
    cases += [(2, (a1, a2)) for a1 in range(1, 6) for a2 in range(1, 6)]
    for d, a in cases:
        spec = TorusBundleSpec(
            d, a, [[unit(rng.uniform(0, 1)) for _ in range(k)] for k in a]
        )
        op = laplacian(build_torus(spec)).entries
        evals, vecs = np.linalg.eigh(op)
        for t in (0.1, 1.0, 5.0):
            spectral = (vecs * np.exp(-t * evals)) @ vecs.conj().T[:, 0]
            series = heat_kernel_column(spec, t)
            worst_entry = max(worst_entry, float(np.abs(series - spectral).max()))
            dt = (heat_kernel_column(spec, t + h) - heat_kernel_column(spec, t - h)) / (
                2.0 * h
            )
            resid = op @ series + dt
            worst_resid = max(worst_resid, float(np.abs(resid).max()))
    elapsed = time.perf_counter() - start
    assert worst_entry <= 1e-10
    assert worst_resid <= 1e-6
    _pass(
        6,
        elapsed,
        30.0,
        f"entrywise {worst_entry:.2e}, heat-equation residual {worst_resid:.2e}",
    )


def test_criterion_07_dimension_one_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for lam in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
        target = -2.0 * (math.log(math.sin(math.pi * lam)) + math.log(2.0))
        for alpha in (0.5, 1.0, 2.5):
            got = epstein_hurwitz_deriv0(ContinuousTorusSpec((alpha,), (lam,)), method="integral_split").value
            worst = max(worst, abs(got - target))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    _pass(7, elapsed, 30.0, f"worst |integral - closed form| = {worst:.2e}")


def test_criterion_08_kronecker_limit_formula():
    start = time.perf_counter()
    # three both-nontrivial, three lam1-trivial, three lam2-trivial pairs
    grid = [
        (0.3, 0.7),
        (0.5, 0.5),
        (0.2, 0.4),
        (0.0, 0.5),
        (0.0, 0.3),
        (1.0, 0.6),
        (0.5, 0.0),
        (0.3, 1.0),
        (0.7, 0.0),
    ]
    worst = 0.0
    for lam1, lam2 in grid:
        for ratio in (0.5, 1.0, 2.0):
            spec = ContinuousTorusSpec((ratio, 1.0), (lam1, lam2))
            integral = epstein_hurwitz_deriv0(spec, method="integral_split").value
            closed = kronecker_deriv0(ratio, 1.0, lam1, lam2)
            worst = max(worst, abs(integral - closed))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    _pass(8, elapsed, 120.0, f"worst |integral - Kronecker| = {worst:.2e}")


def test_criterion_09_infinite_product_identity():
    start = time.perf_counter()
    num = 1.0
    for n in range(1, 60):
        num *= 1.0 + math.exp(-2.0 * math.pi * n)
    den = 1.0
    for n in range(0, 60):
        den *= 1.0 - math.exp(-(2.0 * n + 1.0) * math.pi)
    ratio = num / den
    target = math.exp(math.pi / 8.0) / math.sqrt(2.0)
    elapsed = time.perf_counter() - start
    assert abs(ratio - target) <= 1e-10
    _pass(9, elapsed, 1.0, f"|ratio - e^(pi/8)/sqrt(2)| = {abs(ratio - target):.2e}")


def test_criterion_10_logdet_asymptotics_d2():
    start = time.perf_counter()
    family = TorusFamily.from_multipliers((1.0, 1.0), (0.3, 0.7))
    series = logdet_limit_residuals(family, (32, 64, 128))
    r = [abs(x) for x in series.residuals]
    elapsed = time.perf_counter() - start
    assert r[2] < r[1] < r[0]
    assert r[2] <= 1e-3
    _pass(10, elapsed, 30.0, f"|r| = {r[0]:.2e} > {r[1]:.2e} > {r[2]:.2e}")


def test_criterion_11_spectral_zeta_asymptotics():
    start = time.perf_counter()
    fam2 = TorusFamily.from_multipliers((1.0, 1.0), (0.3, 0.7))
    series2 = zeta_limit_residuals(fam2, 0.5, (32, 64, 128))
    r2 = [abs(x) for x in series2.residuals]
    fam1 = TorusFamily.from_multipliers((1.0,), (0.5,))
    series1 = zeta_limit_residuals(fam1, 0.25, (32, 64, 128))
    r1 = [abs(x) for x in series1.residuals]
    elapsed = time.perf_counter() - start
    assert r2[2] < r2[1] < r2[0]
    assert r1[2] < r1[1] < r1[0]
    _pass(11, elapsed, 60.0, f"d=2: {r2[2]:.2e}; d=1: {r1[2]:.2e}")


def test_criterion_12_product_formula_and_divisibility():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 4):
        lhs, rhs = product_formula_check((2,), n, (unit(0.3),))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    for m, n, z in [((2, 2), 2, (1.0, 1.0)), ((3, 2), 2, (1j, -1.0))]:
        lhs, rhs = product_formula_check(m, n, z)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    for n in (1, 2):
        ratio = math.exp(log_f((2 * n, 2 * n), (1, 1)) - log_f((n, n), (1, 1)))
        assert abs(ratio - 4.0 * round(ratio / 4.0)) <= 1e-6 * ratio
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    _pass(12, elapsed, 30.0, f"worst log deviation {worst:.2e}; ratios divisible by 4")


def test_criterion_13_lattice_zeta_derivative_matches_constant():
    start = time.perf_counter()
    worst = 0.0
    for d in (1, 2):
        deriv = lattice_zeta_deriv0(d).value
        worst = max(worst, abs(-deriv - lattice_constant(d)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    _pass(13, elapsed, 30.0, f"worst |zeta'(0) + c_d| = {worst:.2e}")


def test_criterion_14_exact_decomposition():
    start = time.perf_counter()
    cases = [
        (1, (6,), (0.3,)),
        (1, (9,), (0.5,)),
        (2, (4, 4), (0.3, 0.7)),
        (2, (2, 3), (0.5, 0.0)),
        (2, (8, 8), (0.25, 0.5)),
        (3, (2, 2, 3), (0.3, 0.0, 0.0)),
        (3, (4, 4, 4), (0.5, 0.25, 0.0)),
    ]
    worst = 0.0
    for d, a, lam in cases:
        assert math.prod(a) <= 64
        spec = TorusBundleSpec.single_twist(d, a, lam)
        gap = abs(logdet_correction(spec) - logdet_correction_integral(spec))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    _pass(14, elapsed, 60.0, f"worst algebraic-vs-integral gap {worst:.2e}")
