import cmath
import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bundlezeta.asymptotics import (
    ResidualSeries,
    TorusFamily,
    log_det,
    log_det_lu,
    log_det_star,
    log_f,
    logdet_correction,
    logdet_correction_integral,
    logdet_limit_residuals,
    product_formula_check,
    rescaled_theta_gap,
    zeta_limit_residuals,
)
from bundlezeta.bundle_graph import TorusBundleSpec, build_torus, laplacian, torus_eigenvalues
from bundlezeta.errors import PreconditionError
from bundlezeta.heat_theta import ContinuousTorusSpec

from helpers import spanning_edge_subsets


def unit(turns):
    return cmath.exp(2j * math.pi * turns)


# ---------------------------------------------------------------------------
# log-determinants
# ---------------------------------------------------------------------------


def test_log_det_cycle_closed_form():
    # the n-cycle determinant is 4 sin^2(pi lam) for every n
    for n in (3, 7, 30):
        spec = TorusBundleSpec.single_twist(1, (n,), (0.3,))
        assert log_det(spec) == pytest.approx(
            math.log(4.0 * math.sin(0.3 * math.pi) ** 2), abs=1e-11
        )


def test_log_det_2x2_half_twists():
    spec = TorusBundleSpec.single_twist(2, (2, 2), (0.5, 0.5))
    assert log_det(spec) == pytest.approx(math.log(256.0), abs=1e-12)


def test_log_det_refuses_trivial_bundle():
    with pytest.raises(PreconditionError):
        log_det(TorusBundleSpec.single_twist(1, (4,), (0.0,)))


def test_log_det_matches_lu_route():
    rng = np.random.default_rng(12)
    for d, a in [(1, (6,)), (2, (3, 4)), (2, (5, 5))]:
        lam = tuple(rng.uniform(0.05, 0.95, d))
        spec = TorusBundleSpec.single_twist(d, a, lam)
        assert log_det(spec) == pytest.approx(log_det_lu(spec), abs=1e-9)


_LU_PEAK_CHILD = """
from bundlezeta.asymptotics import log_det_lu
from bundlezeta.bundle_graph import TorusBundleSpec

def hwm_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

log_det_lu(TorusBundleSpec.single_twist(2, (3, 4), (0.3, 0.7)))  # LAPACK's one-time buffers
before = hwm_kib()
log_det_lu(TorusBundleSpec.single_twist(2, (44, 45), (0.3, 0.7)))
print(hwm_kib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_log_det_lu_peak_at_most_2_3_matrices():
    # slogdet copies the matrix for LAPACK's LU, so the peak is the matrix twice plus assembly slack
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LU_PEAK_CHILD], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    matrix = 16 * 1980**2  # 44 x 45 vertices of complex128: 62.7 MB
    assert 1024 * int(proc.stdout) <= 2.3 * matrix


def test_log_det_star_small_cases():
    # triangle: eigenvalues {0, 3, 3}, det* = 9 = n * (#spanning trees)
    assert log_det_star(TorusBundleSpec.single_twist(1, (3,), (0.0,))) == pytest.approx(
        math.log(9.0), abs=1e-12
    )
    # doubled-edge 2-cycle: eigenvalues {0, 4}
    assert log_det_star(TorusBundleSpec.single_twist(1, (2,), (0.0,))) == pytest.approx(
        math.log(4.0), abs=1e-12
    )


def test_log_det_star_counts_spanning_trees_on_2x2():
    spec = TorusBundleSpec.single_twist(2, (2, 2), (0.0, 0.0))
    g = build_torus(spec)
    # spanning trees = CRSF-oracle style subsets of size n-1 that are acyclic;
    # count them by brute force over C(8,3) subsets
    import itertools

    endpoints = list(g.edge_endpoints)
    trees = 0
    for subset in itertools.combinations(range(len(endpoints)), 3):
        parent = list(range(4))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for idx in subset:
            a, b = endpoints[idx]
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        trees += ok
    assert log_det_star(spec) == pytest.approx(math.log(4.0 * trees), abs=1e-12)


def test_log_det_star_single_vertex():
    spec = TorusBundleSpec.single_twist(2, (1, 1), (0.0, 0.0))
    assert log_det_star(spec) == 0.0


def test_log_det_star_refuses_twisted():
    with pytest.raises(PreconditionError):
        log_det_star(TorusBundleSpec.single_twist(1, (4,), (0.5,)))


def test_collapsed_log_det_matches_eigenvalue_sum():
    # two routes: the collapsed longest direction against fsum of all N logs
    # of the sorted closed-form spectrum.  The tolerance is relative to
    # sum |log ev|, the scale of the rounding in either sum (log det itself
    # can sit near 0).
    rng = np.random.default_rng(41)
    for d in (1, 2, 3):
        for sides in itertools.product((1, 2, 3, 4, 5, 9, 32), repeat=d):
            k = sides.index(max(sides))
            lams = [
                tuple(rng.uniform(0.05, 0.95, d)),
                (0.999,) * d,
                tuple(0.0 if i == k else 0.4 for i in range(d)),
                tuple(0.6 if i == k else 0.0 for i in range(d)),
            ]
            for lam in filter(any, lams):
                spec = TorusBundleSpec.single_twist(d, sides, lam)
                logs = np.log(torus_eigenvalues(spec))
                scale = float(np.abs(logs).sum())
                assert abs(log_det(spec) - math.fsum(logs.tolist())) <= 1e-13 * scale
            spec = TorusBundleSpec.single_twist(d, sides, (0.0,) * d)
            logs = np.log(torus_eigenvalues(spec)[1:])
            scale = float(np.abs(logs).sum())
            assert abs(log_det_star(spec) - math.fsum(logs.tolist())) <= 1e-13 * scale


def test_log_det_large_torus_is_fast():
    # 10^10 vertices: only the 10^5 transverse eigenvalues are built
    spec = TorusBundleSpec.single_twist(2, (100000, 100000), (0.3, 0.7))
    start = time.perf_counter()
    value = log_det(spec)
    assert time.perf_counter() - start < 0.1
    assert value == pytest.approx(1e10 * 4.0 * 0.915965594177219015 / math.pi, rel=1e-9, abs=0.0)


def test_log_det_long_cycle_costs_its_closed_form_with_the_spec_build():
    # 2^21 weights: the spec's numpy rows and holonomy sum, not a Python loop per edge
    start = time.perf_counter()
    value = log_det(TorusBundleSpec.single_twist(1, (2**21,), (0.3,)))
    assert time.perf_counter() - start < 0.3
    assert value == pytest.approx(math.log(4.0 * math.sin(0.3 * math.pi) ** 2), rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# exact decomposition
# ---------------------------------------------------------------------------


def test_logdet_correction_d1_is_logdet():
    # c_1 = 0, so the correction equals the log determinant itself
    spec = TorusBundleSpec.single_twist(1, (9,), (0.25,))
    assert logdet_correction(spec) == pytest.approx(
        math.log(4.0 * math.sin(0.25 * math.pi) ** 2), abs=1e-7
    )


@pytest.mark.parametrize(
    "d,a,lam",
    [
        (1, (6,), (0.3,)),
        (2, (4, 4), (0.3, 0.7)),
        (2, (2, 3), (0.5, 0.0)),
        (2, (8, 8), (0.25, 0.5)),
        (3, (2, 2, 3), (0.3, 0.0, 0.0)),
    ],
)
def test_decomposition_exactness_algebraic_vs_integral(d, a, lam):
    spec = TorusBundleSpec.single_twist(d, a, lam)
    assert logdet_correction(spec) == pytest.approx(
        logdet_correction_integral(spec), abs=1e-6
    )


def test_correction_tends_to_minus_deriv0():
    from bundlezeta.zeta import epstein_hurwitz_deriv0

    fam = TorusFamily.from_multipliers((1.0,), (0.3,))
    target = -epstein_hurwitz_deriv0(fam.limit).value
    gaps = [abs(logdet_correction(fam.spec(n)) - target) for n in (8, 32, 128)]
    assert gaps[2] < 1e-8  # d = 1 converges immediately (constant residual)


# ---------------------------------------------------------------------------
# residual series
# ---------------------------------------------------------------------------


def test_logdet_residuals_dimension_one_closed_loop():
    fam = TorusFamily.from_multipliers((1.0,), (0.3,))
    series = logdet_limit_residuals(fam, (8, 16, 64))
    for r in series.residuals:
        assert abs(r) <= 1e-10
    assert series.slope is None or abs(series.residuals[0]) > 0


def test_logdet_residuals_dimension_one_at_rounding_level():
    # c_1 = 0 exactly, so nothing grows like N: each residual is a few roundings
    for lam in (0.07, 0.3, 0.5):
        fam = TorusFamily.from_multipliers((1.0,), (lam,))
        series = logdet_limit_residuals(fam, (64, 512, 4096, 65536))
        for r in series.residuals:
            assert abs(r) <= 4.0 * math.ulp(1.0)


def test_logdet_residuals_decrease_d2():
    fam = TorusFamily.from_multipliers((1.0, 1.0), (0.3, 0.7))
    series = logdet_limit_residuals(fam, (16, 32, 64))
    r = [abs(x) for x in series.residuals]
    assert r[2] < r[1] < r[0]


def test_logdet_residuals_rectangular_family():
    fam = TorusFamily.from_multipliers((1.0, 2.0), (0.5, 0.5))
    series = logdet_limit_residuals(fam, (8, 16, 32))
    r = [abs(x) for x in series.residuals]
    assert r[2] < r[1] < r[0]


def test_zeta_residuals_decrease():
    fam = TorusFamily.from_multipliers((1.0, 1.0), (0.3, 0.7))
    series = zeta_limit_residuals(fam, 0.5, (16, 32, 64))
    r = [abs(x) for x in series.residuals]
    assert r[2] < r[1] < r[0]
    fam1 = TorusFamily.from_multipliers((1.0,), (0.5,))
    series1 = zeta_limit_residuals(fam1, 0.25, (16, 32, 64))
    r1 = [abs(x) for x in series1.residuals]
    assert r1[2] < r1[1] < r1[0]


def test_zeta_residuals_window_refused():
    fam = TorusFamily.from_multipliers((1.0,), (0.5,))
    with pytest.raises(PreconditionError):
        zeta_limit_residuals(fam, 0.5, (8, 16))
    with pytest.raises(PreconditionError):
        zeta_limit_residuals(fam, -0.1, (8, 16))


def test_zeta_residual_consistency_at_s_formally_zero():
    # sanity identity behind the s = 0 endpoint: the torus zeta counts
    # eigenvalues and the lattice zeta value is 1, so the residual numerator
    # vanishes identically
    from bundlezeta.zeta import lattice_zeta, torus_zeta

    spec = TorusBundleSpec.single_twist(2, (5, 5), (0.3, 0.7))
    count = torus_zeta(0.0, spec).real
    assert count == pytest.approx(25.0, abs=1e-12)
    assert lattice_zeta(0.0, 2).value == 1.0


def test_rescaled_theta_gap_decays():
    fam = TorusFamily.from_multipliers((1.0,), (0.5,))
    gaps = [rescaled_theta_gap(fam, n, 1.0) for n in (4, 16, 64)]
    assert gaps[2] < gaps[1] < gaps[0]
    fam2 = TorusFamily.from_multipliers((1.0, 1.0), (0.3, 0.7))
    gaps2 = [rescaled_theta_gap(fam2, n, 0.5) for n in (4, 8, 16)]
    assert gaps2[2] < gaps2[1] < gaps2[0]


def test_rescaled_theta_gap_large_time_both_tiny():
    fam = TorusFamily.from_multipliers((1.0,), (0.5,))
    assert rescaled_theta_gap(fam, 8, 6.0) < 1e-12


def test_residual_series_fit_slope():
    series = ResidualSeries.fit((2, 4, 8), (0.1, 0.025, 0.00625))
    assert series.slope == pytest.approx(-2.0, abs=1e-12)
    flat = ResidualSeries.fit((2, 4), (0.0, 0.0))
    assert flat.slope is None


# ---------------------------------------------------------------------------
# product formula
# ---------------------------------------------------------------------------


def test_product_formula_d1():
    for n in (1, 2, 3, 4):
        lhs, rhs = product_formula_check((2,), n, (unit(0.3),))
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1.0 + abs(lhs)))


def test_product_formula_two_by_two_trivial():
    lhs, rhs = product_formula_check((2, 2), 2, (1.0, 1.0))
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1.0 + abs(lhs)))
    # cross-check the four factors against dense determinants
    total = 0.0
    for z1 in (1.0, -1.0):
        for z2 in (1.0, -1.0):
            total += log_f((2, 2), (z1, z2))
    assert total == pytest.approx(lhs, abs=1e-9)


def test_product_formula_mixed_roots():
    lhs, rhs = product_formula_check((3, 2), 2, (1j, -1.0))
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1.0 + abs(lhs)))


def test_divisibility_of_spanning_tree_ratio():
    for n in (1, 2, 3):
        ratio = math.exp(log_f((2 * n, 2 * n), (1, 1)) - log_f((n, n), (1, 1)))
        assert abs(ratio - 4.0 * round(ratio / 4.0)) <= 1e-6 * ratio


def test_log_f_dispatch_matches_dense_determinants():
    # twisted slot: ordinary determinant
    val = log_f((2, 2), (1.0, -1.0))
    spec = TorusBundleSpec.single_twist(2, (2, 2), (0.0, 0.5))
    sign, logabs = laplacian(build_torus(spec)).slogdet()
    assert val == pytest.approx(logabs, abs=1e-10)
    with pytest.raises(PreconditionError):
        log_f((2, 2), (1.0, 1.1))


def test_family_spec_construction():
    fam = TorusFamily.from_multipliers((1.0, 2.0), (0.3, 0.4))
    spec = fam.spec(3)
    assert spec.a == (3, 6)
    assert spec.holonomies[0] == pytest.approx(0.3, abs=1e-12)
    assert spec.holonomies[1] == pytest.approx(0.4, abs=1e-12)
    assert fam.limit.alpha == (1.0, 2.0)
