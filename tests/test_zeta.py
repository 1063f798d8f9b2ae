import functools
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bundlezeta.quadrature as quadrature
import bundlezeta.zeta as zeta_module
from bundlezeta.bundle_graph import TorusBundleSpec, build_torus, laplacian
from bundlezeta.errors import PreconditionError, QuadratureError
from bundlezeta.heat_theta import ContinuousTorusSpec
from bundlezeta.quadrature import QuadratureSpec
from bundlezeta.special_functions import hurwitz_zeta, reciprocal_gamma
from bundlezeta.zeta import (
    EULER_GAMMA,
    ZetaEvaluation,
    _chowla_selberg,
    _lattice_bracket,
    bernoulli_b2,
    epstein_hurwitz_deriv0,
    epstein_hurwitz_zeta,
    kronecker_deriv0,
    lattice_constant,
    lattice_constant_eval,
    lattice_zeta,
    lattice_zeta_deriv0,
    torus_zeta,
)

from helpers import catalan_constant


# ---------------------------------------------------------------------------
# lattice constant
# ---------------------------------------------------------------------------


def test_lattice_constant_dimension_one_vanishes():
    assert abs(lattice_constant(1)) <= 1e-8
    assert lattice_constant_eval(1) == (0.0, 0.0)


def test_lattice_constant_dimension_two_catalan():
    expected = 4.0 * catalan_constant() / math.pi
    assert lattice_constant(2) == pytest.approx(expected, abs=1e-6)


def test_lattice_constant_d3_stable_under_tolerance_halving():
    coarse_spec = QuadratureSpec(abs_tol=2e-9, rel_tol=2e-9)
    fine_spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
    coarse, err = lattice_constant_eval(3, coarse_spec)
    fine, _ = lattice_constant_eval(3, fine_spec)
    assert abs(coarse - fine) <= max(err, 1e-8)
    assert abs(coarse - fine) <= 1e-8


def test_lattice_constant_rejects_bad_dimension():
    with pytest.raises(PreconditionError):
        lattice_constant(0)
    with pytest.raises(PreconditionError):
        lattice_constant(11)
    # not truncated: lattice_zeta(0.5, 2.5) once returned the d = 2 value, lattice_constant(True) the d = 1 one
    for refused in (lambda: lattice_constant(True), lambda: lattice_constant(2.5), lambda: lattice_zeta(0.5, 2.5),
                    lambda: lattice_zeta_deriv0(math.nan), lambda: lattice_zeta_deriv0(0)):
        with pytest.raises(PreconditionError):
            refused()


# ---------------------------------------------------------------------------
# Epstein-Hurwitz zeta
# ---------------------------------------------------------------------------


def test_eh_half_twist_classical_series():
    # (2 pi)^{-2} sum (k + 1/2)^{-2} = (2 pi)^{-2} pi^2 = 1/4
    spec = ContinuousTorusSpec((1.0,), (0.5,))
    for method in ("eigensum", "integral_split"):
        res = epstein_hurwitz_zeta(1.0, spec, method=method)
        assert res.value == pytest.approx(0.25, abs=2e-11)
        assert res.method == method


def test_eh_zero_at_nonpositive_integers_via_split():
    spec = ContinuousTorusSpec((1.3, 0.8), (0.4, 0.9))
    for s in (0.0, -1.0):
        res = epstein_hurwitz_zeta(s, spec, method="integral_split")
        assert abs(res.value) <= 1e-9


def test_eh_d1_hurwitz_reduction():
    # (2 pi)^{-2s} alpha^{2s} (zeta(2s, lam) + zeta(2s, 1 - lam))
    for alpha in (1.0, 2.5):
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
            spec = ContinuousTorusSpec((alpha,), (lam,))
            for s in (0.75, 1.0, 2.0):
                expected = (
                    (2.0 * math.pi) ** (-2.0 * s)
                    * alpha ** (2.0 * s)
                    * (hurwitz_zeta(2.0 * s, lam) + hurwitz_zeta(2.0 * s, 1.0 - lam))
                )
                res = epstein_hurwitz_zeta(s, spec, method="integral_split")
                assert res.value == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_eh_method_agreement_d1():
    spec = ContinuousTorusSpec((1.7,), (0.3,))
    for s in (0.75, 1.0, 2.0):
        a = epstein_hurwitz_zeta(s, spec, method="eigensum")
        b = epstein_hurwitz_zeta(s, spec, method="integral_split")
        assert abs(a.value - b.value) <= 1e-9 * (1.0 + abs(a.value))


def test_eh_method_agreement_d2():
    spec = ContinuousTorusSpec((1.0, 1.4), (0.3, 0.7))
    for s in (1.5, 2.0, 3.0):
        a = epstein_hurwitz_zeta(s, spec, method="eigensum")
        b = epstein_hurwitz_zeta(s, spec, method="integral_split")
        assert abs(a.value - b.value) <= 1e-9 * (1.0 + abs(a.value))
    # long thin tori: the split at t = 1 read 0.0 +- 0.0 at (1e-6, 1), s = 2, where the zeta is 4.1e-20
    cases = [(2.0, (1e-6, 1.0), (0.3, 0.3)), (2.0, (1.0, 1e-6), (0.3, 0.3))]
    cases += [(s, (r, 1.0), lam) for r in (1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e6) for lam in ((0.3, 0.7), (0.02, 0.5)) for s in (1.5, 3.0)]
    for s, alpha, lam in cases:
        spec = ContinuousTorusSpec(alpha, lam)
        a = epstein_hurwitz_zeta(s, spec, method="eigensum")
        b = epstein_hurwitz_zeta(s, spec, method="integral_split")
        assert b.value == pytest.approx(a.value, rel=1e-10, abs=0.0), (s, alpha, lam)


def test_eh_refusals():
    trivial = ContinuousTorusSpec((1.0, 1.0), (0.0, 1.0))
    with pytest.raises(PreconditionError):
        epstein_hurwitz_zeta(2.0, trivial)
    spec = ContinuousTorusSpec((1.0,), (0.5,))
    with pytest.raises(PreconditionError):
        epstein_hurwitz_zeta(0.5, spec)  # pole at d/2
    with pytest.raises(PreconditionError):
        epstein_hurwitz_zeta(0.6, spec, method="eigensum")  # too close to pole
    with pytest.raises(PreconditionError):
        epstein_hurwitz_zeta(
            1.6, ContinuousTorusSpec((1.0, 1.0, 1.0), (0.5, 0.5, 0.5)), method="eigensum"
        )  # below d/2 + 0.25


def _eh_chowla_selberg_mpmath(mpmath, besselk, s, alpha, lam):
    """The d = 2 continuum zeta in mpmath (16 digits), rows along the shorter side.

    The leading terms of the rows |k1 + l1| >= 1 are two Hurwitz zetas.  Rows
    with c = (b2/b1)|k1 + l1| >= 1/2 add mpmath besselk terms up to
    2 pi m c = 40 + s, past which a term is below 1e-15 of its row for s <= 5.
    Rows with c < 1/2 (only k1 = 0, -1) are summed term by term for
    |k2 + l2| < 3 and by the binomial series in (c/v)^2 <= 1/36 with mpmath's
    Hurwitz zeta beyond.
    """
    with mpmath.workdps(16):
        s = mpmath.mpf(s)
        (b1, l1), (b2, l2) = sorted((mpmath.mpf(a) / (2 * mpmath.pi), mpmath.mpf(x)) for a, x in zip(alpha, lam))
        rho, nu = b2 / b1, s - 0.5
        lead = b2 * mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu) / mpmath.gamma(s) * b1 ** (2 * s - 1)
        coef = 4 * mpmath.pi**s * b2 ** (2 * s) / mpmath.gamma(s)
        total = lead * (mpmath.zeta(2 * s - 1, 1 + l1) + mpmath.zeta(2 * s - 1, 2 - l1))
        reach = 40 + s
        top = int(reach / (2 * mpmath.pi * rho)) + 2
        for k1 in range(-top, top + 1):
            u = abs(k1 + l1)
            c = rho * u
            if c < 0.5:
                row = sum((c * c + (k + l2) ** 2) ** (-s) for k in range(-3, 4) if abs(k + l2) < 3)
                lo, hi = min(k + l2 for k in range(6) if k + l2 >= 3), min(k - l2 for k in range(6) if k - l2 >= 3)
                for j in range(40):
                    row += mpmath.binomial(-s, j) * c ** (2 * j) * (mpmath.zeta(2 * s + 2 * j, lo) + mpmath.zeta(2 * s + 2 * j, hi))
                total += b2 ** (2 * s) * row
                continue
            if k1 in (0, -1):
                total += lead * u ** (1 - 2 * s)
            m = 1
            while 2 * mpmath.pi * m * c <= reach:
                total += coef * (m / c) ** nu * besselk(nu, 2 * mpmath.pi * m * c) * mpmath.cos(2 * mpmath.pi * m * l2)
                m += 1
        return float(total)


@pytest.mark.parametrize("s", [1.5, 3.0, 5.0])
def test_eh_eigensum_against_mpmath_grid(s):
    # aspect ratios 1e-4 to 1e4 and holonomies at 0, 1/4, 1/2 and next to 1: the oriented
    # row sum keeps 1e-12 relative (its stated accuracy) with a cost fixed in advance
    mpmath = pytest.importorskip("mpmath")
    besselk = functools.lru_cache(maxsize=None)(mpmath.besselk)  # the mirrored pairs share rows at ratio 1
    for ratio in (1e-4, 1e-2, 1.0, 1e2, 1e4):
        for lam in ((0.0, 0.25), (0.5, 0.999), (0.999, 0.5)):
            ref = _eh_chowla_selberg_mpmath(mpmath, besselk, s, (ratio, 1.0), lam)
            res = epstein_hurwitz_zeta(s, ContinuousTorusSpec((ratio, 1.0), lam))
            assert res.method == "eigensum"
            assert res.value == pytest.approx(ref, rel=1e-12, abs=0.0), (ratio, lam)


def test_eh_refuses_s_outside_window():
    spec = ContinuousTorusSpec((1.0, 1.0), (0.3, 0.7))
    for s in (math.nan, math.inf, -math.inf, 10.5, 200.0, -2.5, -60.5):
        for method in ("auto", "eigensum", "integral_split"):
            with pytest.raises(PreconditionError, match="finite and in"):
                epstein_hurwitz_zeta(s, spec, method=method)


def test_eh_d1_eigensum_at_window_edge_against_mpmath():
    # s = 10: (2 pi)^{-2s} alone is 1e-16, the value 3e-7; two Hurwitz zetas keep 1e-13
    mpmath = pytest.importorskip("mpmath")
    for alpha, lam in ((1.0, 0.3), (0.01, 0.02), (100.0, 0.5)):
        with mpmath.workdps(40):
            ref = float((mpmath.mpf(alpha) / (2 * mpmath.pi)) ** 20 * (mpmath.zeta(20, lam) + mpmath.zeta(20, 1 - mpmath.mpf(lam))))
        res = epstein_hurwitz_zeta(10.0, ContinuousTorusSpec((alpha,), (lam,)))
        assert res.method == "eigensum"
        assert abs(res.value - ref) <= res.error_estimate


def test_eh_boundary_holonomy_folds_to_zero():
    a = ContinuousTorusSpec((1.0, 1.0), (1.0, 0.5))
    b = ContinuousTorusSpec((1.0, 1.0), (0.0, 0.5))
    ra = epstein_hurwitz_zeta(2.0, a, method="eigensum")
    rb = epstein_hurwitz_zeta(2.0, b, method="eigensum")
    assert ra.value == pytest.approx(rb.value, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# derivative at zero
# ---------------------------------------------------------------------------


def test_eh_deriv0_d1_closed_form_and_alpha_independence():
    for lam in (0.1, 0.3, 0.5, 0.8):
        expected = -2.0 * (math.log(math.sin(math.pi * lam)) + math.log(2.0))
        for alpha in (0.5, 1.0, 2.5):
            spec = ContinuousTorusSpec((alpha,), (lam,))
            res = epstein_hurwitz_deriv0(spec, method="integral_split")
            assert res.value == pytest.approx(expected, abs=1e-8)


def test_eh_deriv0_small_and_large_alpha():
    # -2 log(2 sin pi lam) for every alpha: the theta integrands follow the form rule at every t
    expected = -2.0 * math.log(2.0 * math.sin(0.3 * math.pi))
    for alpha in (1e-4, 0.01, 0.1, 1.0, 100.0):
        res = epstein_hurwitz_deriv0(ContinuousTorusSpec((alpha,), (0.3,)), method="integral_split")
        assert res.value == pytest.approx(expected, rel=0.0, abs=1e-13)


def _eh_d1_mpmath(mpmath, s, alpha, lam):
    with mpmath.workdps(30):
        lam = mpmath.mpf(lam)
        return float((2 * mpmath.pi / alpha) ** (-2 * s) * (mpmath.zeta(2 * s, lam) + mpmath.zeta(2 * s, 1 - lam)))


def test_eh_split_small_alpha_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    s, alpha, lam = 0.25, 0.1, 0.3
    res = epstein_hurwitz_zeta(s, ContinuousTorusSpec((alpha,), (lam,)))
    assert res.method == "integral_split"
    assert res.value == pytest.approx(_eh_d1_mpmath(mpmath, s, alpha, lam), rel=1e-13, abs=0.0)
    # the split point follows the torus's scale: at t = 1, alpha = 1e4, s = -1.8 read -385 +- 1e-16 (zeta 2.07e-14)
    cases = [(-1.8, 1e4, 0.02)]
    cases += [(s, alpha, lam) for alpha in (0.01, 1.0, 100.0, 1e4) for s in (-2.0, -1.0, 0.25, 2.0, 10.0) for lam in (0.02, 0.3)]
    for s, alpha, lam in cases:
        ref = _eh_d1_mpmath(mpmath, s, alpha, lam)
        res = epstein_hurwitz_zeta(s, ContinuousTorusSpec((alpha,), (lam,)), method="integral_split")
        assert abs(res.value - ref) <= min(1e-10 * abs(ref), res.error_estimate), (s, alpha, lam)


def test_eh_deriv0_matches_kronecker_on_mixed_case():
    spec = ContinuousTorusSpec((1.0, 1.0), (0.0, 0.5))
    integral = epstein_hurwitz_deriv0(spec, method="integral_split")
    closed = kronecker_deriv0(1.0, 1.0, 0.0, 0.5)
    assert integral.value == pytest.approx(closed, abs=1e-8)
    # near trivial holonomy the rows' log1p(q (q - 2 cos 2 pi lam_p)) cancelled: (1, 1, 1e-9, 1e-9) read inf,
    # (1, 3, 1e-9, 1e-9) was 3e-3 off, (1, 1, 1e-6, 1e-6) 3e-8 and (1, 1, 1e-4, 0) 1.3e-11
    for alpha, lam in (((1.0, 1.0), (1e-9, 1e-9)), ((1.0, 3.0), (1e-9, 1e-9)), ((1.0, 1.0), (1e-6, 1e-6)),
                       ((1.0, 1.0), (1e-4, 0.0)), ((1.0, 1.0, 1.0), (1e-7, 0.3, 0.5)), ((1.0, 1.0, 1.0), (1e-7, 1e-7, 0.3))):
        split = epstein_hurwitz_deriv0(ContinuousTorusSpec(alpha, lam), method="integral_split").value
        assert _cs_deriv0(alpha, lam) == pytest.approx(split, rel=1e-12, abs=0.0), (alpha, lam)
    assert kronecker_deriv0(1.0, 1.0, 1e-9, 1e-9) == pytest.approx(38.132318641509855, rel=1e-12, abs=0.0)  # mpmath


def test_kronecker_value_direct_assembly():
    # lam1 = 0, lam2 = 1/2: 2 pi B2(1/2) - 2 log prod (1 - e^{-2 pi |n + 1/2|})
    prod = 1.0
    for m in range(0, 40):
        prod *= (1.0 - math.exp(-2.0 * math.pi * (m + 0.5))) ** 2
    expected = 2.0 * math.pi * (-1.0 / 12.0) - 2.0 * math.log(prod)
    assert kronecker_deriv0(1.0, 1.0, 0.0, 0.5) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_kronecker_value_half_twist_first_slot():
    # lam1 = 1/2, lam2 = 0: 2 pi/6 - 2 log(2 prod (1 + e^{-2 pi n})^2)
    prod = 2.0
    for n in range(1, 40):
        prod *= (1.0 + math.exp(-2.0 * math.pi * n)) ** 2
    expected = 2.0 * math.pi / 6.0 - 2.0 * math.log(prod)
    assert kronecker_deriv0(1.0, 1.0, 0.5, 0.0) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_kronecker_symmetric_pair():
    a = kronecker_deriv0(1.0, 1.0, 0.2, 0.6)
    b = kronecker_deriv0(1.0, 1.0, 0.6, 0.2)
    assert a == pytest.approx(b, abs=1e-10)


def test_kronecker_long_thin_matches_integral():
    # rho = 1e-6: swapped to rho = 1e6, a handful of factors and no drift
    spec = ContinuousTorusSpec((1e-6, 1.0), (0.3, 0.5))
    closed = kronecker_deriv0(1e-6, 1.0, 0.3, 0.5)
    assert closed == pytest.approx(epstein_hurwitz_deriv0(spec, method="integral_split").value, rel=1e-13, abs=0.0)


def test_kronecker_refuses_doubly_trivial():
    with pytest.raises(PreconditionError):
        kronecker_deriv0(1.0, 1.0, 0.0, 1.0)


def test_half_period_product_identity():
    # prod(1 + e^{-2 n pi}) / prod(1 - e^{-(2n+1) pi}) = e^{pi/8} / sqrt(2)
    num = 1.0
    for n in range(1, 40):
        num *= 1.0 + math.exp(-2.0 * math.pi * n)
    den = 1.0
    for n in range(0, 40):
        den *= 1.0 - math.exp(-(2.0 * n + 1.0) * math.pi)
    assert num / den == pytest.approx(math.exp(math.pi / 8.0) / math.sqrt(2.0), abs=1e-10)
    # and the identity is forced by symmetry of the closed form
    assert kronecker_deriv0(1.0, 1.0, 0.0, 0.5) == pytest.approx(
        kronecker_deriv0(1.0, 1.0, 0.5, 0.0), abs=1e-12
    )


@given(
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
    st.floats(0.5, 2.0),
)
@settings(max_examples=15)
def test_kronecker_matches_integral_randomized(lam1, lam2, ratio):
    spec = ContinuousTorusSpec((ratio, 1.0), (lam1, lam2))
    integral = epstein_hurwitz_deriv0(spec, method="integral_split")
    closed = kronecker_deriv0(ratio, 1.0, lam1, lam2)
    assert integral.value == pytest.approx(closed, abs=5e-9)


# ---------------------------------------------------------------------------
# Chowla-Selberg rows in every dimension
# ---------------------------------------------------------------------------


def _cs_deriv0(alpha, lam):
    return _chowla_selberg(0.0, np.array(alpha) / (2.0 * math.pi), np.array(lam, dtype=float), True)


def test_eh_method_agreement_d3_d4():
    # the eigensum refused d > 2 before; d = 3 at s = 2 is the case that refusal was tested on
    cases = [(2.0, (1.0, 1.0, 1.0), (0.5, 0.5, 0.5)), (1.75, (1.0, 2.0, 0.5), (0.3, 0.7, 0.2)), (6.0, (45.7, 4.76, 319.0), (0.5, 0.01, 0.0))]
    cases += [(2.25, (1.0, 1.0, 1.0, 1.0), (0.3, 0.7, 0.2, 0.1)), (9.5, (0.2, 440.0, 0.016, 850.0), (0.5, 0.99, 0.99, 0.01))]
    for s, alpha, lam in cases:
        spec = ContinuousTorusSpec(alpha, lam)
        a = epstein_hurwitz_zeta(s, spec)
        b = epstein_hurwitz_zeta(s, spec, method="integral_split")
        assert a.method == "eigensum"
        assert abs(a.value - b.value) <= max(1e-12 * abs(a.value), b.error_estimate), (s, alpha, lam)


@given(
    st.sampled_from((1, 2, 3, 4)),
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.lists(st.sampled_from((0.0, 0.01, 0.5, 0.99)), min_size=4, max_size=4),
    st.floats(0.0, 1.0),
)
@settings(max_examples=80)
def test_chowla_selberg_matches_split_d1_to_d4(d, log_ratios, lams, u):
    # aspect ratios 1e-3..1e3 against the first side, holonomies at the edges of [0, 1); the split runs at
    # rel_tol 1e-12, tighter than its default
    lam = tuple(lams[:d])
    assume(any(lam))
    alpha = (1.0,) + tuple(10.0**x for x in log_ratios[: d - 1])
    spec, quad = ContinuousTorusSpec(alpha, lam), QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12)
    rows, split = epstein_hurwitz_deriv0(spec), epstein_hurwitz_deriv0(spec, "integral_split", quad)
    assert (rows.method, rows.error_estimate) == ("eigensum", 1e-12 * (1.0 + abs(rows.value)))
    assert abs(rows.value - split.value) <= max(1e-12 * abs(rows.value), split.error_estimate), (alpha, lam)
    s = 0.5 * d + 0.25 + u * (9.75 - 0.5 * d)
    res, split = epstein_hurwitz_zeta(s, spec, method="eigensum"), epstein_hurwitz_zeta(s, spec, "integral_split", quad)
    assert abs(res.value - split.value) <= max(1e-12 * abs(res.value), split.error_estimate), (s, alpha, lam)


def test_eh_split_next_to_the_d4_pole_within_its_estimate():
    # the adaptive split read 255970.9095023727 +- 2.8e-6 here, 1.2e-5 (4.3 times its estimate) off the rows
    spec = ContinuousTorusSpec((1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.01))
    rows, split = epstein_hurwitz_zeta(2.25, spec), epstein_hurwitz_zeta(2.25, spec, method="integral_split")
    assert rows.method == "eigensum" and rows.value == pytest.approx(255970.90951448106, rel=1e-15, abs=0.0)
    assert abs(split.value - rows.value) <= split.error_estimate <= 1e-13 * abs(rows.value)


def _eh_cs_mpmath(mp, s, alpha, lam, depth=45):
    """Z(s) = sum over K of |((k_i + lam_i)/b_i)_i|^{-2s}, b = alpha/(2 pi) (so the continuum zeta), every lam_i in
    (0, 1), by the Chowla-Selberg recursion in mpmath (20 digits) with no rows summed directly: Poisson over the
    direction p of largest b turns row K' (c = b_p M, M = |((k_i + lam_i)/b_i)_{i != p}| > 0) into
    4 pi^s b_p^{2s}/Gamma(s) sum_m (m/c)^{s-1/2} K_{s-1/2}(2 pi m c) cos(2 pi m lam_p) plus a lead; the leads add up
    to b_p sqrt(pi) Gamma(s - 1/2)/Gamma(s) Z_{d-1}(s - 1/2), and the d = 1 end is b^{2s} (zeta(2s, lam) +
    zeta(2s, 1 - lam)) by mpmath's Hurwitz zeta, continued to every s but its pole.  Terms with 2 pi m c > depth
    (below e^-depth of their row's lead) are dropped.  Valid away from s - 1/2, s - 1, ... at the poles of Gamma.
    """
    with mp.workdps(20):
        b, lam, s = [mp.mpf(a) / (2 * mp.pi) for a in alpha], [mp.mpf(x) for x in lam], mp.mpf(s)
        if len(b) == 1:
            return b[0] ** (2 * s) * (mp.zeta(2 * s, lam[0]) + mp.zeta(2 * s, 1 - lam[0]))
        p = max(range(len(b)), key=lambda i: b[i])
        bp, lp = b.pop(p), lam.pop(p)
        total = bp * mp.sqrt(mp.pi) * mp.gamma(s - 0.5) / mp.gamma(s) * _eh_cs_mpmath(mp, s - 0.5, [2 * mp.pi * x for x in b], lam, depth)
        reach, rows = depth / (2 * mp.pi), 0
        ranges = [range(int(mp.floor(-reach * x / bp - l)), int(mp.ceil(reach * x / bp - l)) + 1) for x, l in zip(b, lam)]
        for ks in itertools.product(*ranges):
            c, m = bp * mp.sqrt(sum(((k + l) / x) ** 2 for k, l, x in zip(ks, lam, b))), 1
            while 2 * mp.pi * m * c <= depth:
                rows += (m / c) ** (s - 0.5) * mp.besselk(s - 0.5, 2 * mp.pi * m * c) * mp.cos(2 * mp.pi * m * lp)
                m += 1
        return total + 4 * mp.pi**s * bp ** (2 * s) / mp.gamma(s) * rows


@pytest.mark.parametrize(
    "s, alpha, lam",
    [(s, (1.0, 1.4), (0.3, 0.7)) for s in (0.2, 0.35, 0.75, 0.95)]
    + [(s, (2.0, 1.0, 1.3), (0.3, 0.7, 0.2)) for s in (0.3, 0.8, 1.2, 1.45)],
)
def test_eh_split_below_the_pole_against_mpmath(s, alpha, lam):
    # 0 < s < d/2, where the rows refuse and the split is the route of "auto" (thm13's continuum term)
    mpmath = pytest.importorskip("mpmath")
    ref = float(_eh_cs_mpmath(mpmath, s, alpha, lam))
    res = epstein_hurwitz_zeta(s, ContinuousTorusSpec(alpha, lam))
    assert res.method == "integral_split"
    assert abs(res.value - ref) <= res.error_estimate <= 1e-14 * abs(ref), (s, ref, res)


def test_eh_split_runs_no_adaptive_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature ran")

    monkeypatch.setattr(quadrature, "integrate_interval", refuse)
    for s, alpha, lam in ((0.25, (1.0,), (0.3,)), (3.0, (1.0,), (0.02,)), (0.5, (1.0, 1.4), (0.3, 0.7)),
                          (2.0, (1.0, 1e-3), (0.5, 0.01)), (1.2, (1.0, 2.0, 0.5), (0.3, 0.0, 0.2)), (6.0, (1.0, 1.0, 1.0), (0.5, 0.5, 0.5))):
        epstein_hurwitz_zeta(s, ContinuousTorusSpec(alpha, lam), method="integral_split")
    for d in (1, 2, 3):
        epstein_hurwitz_deriv0(ContinuousTorusSpec((1.0,) * d, (0.3,) * d), method="integral_split")
    res = epstein_hurwitz_deriv0(ContinuousTorusSpec((1.0, 1.1, 0.9, 1.2, 1.0), (0.3, 0.2, 0.4, 0.1, 0.6)))
    assert res.method == "integral_split"


def _eh_deriv0_d3_mpmath(mpmath, alpha, lam):
    """zeta_EH'(0) in d = 3 by Epstein's functional equation, in mpmath (16 digits), b = alpha/(2 pi):

        prod(b) Zhat/(2 pi) - sum_{k2, k3} log|1 - e^{-2 pi b1 M + 2 pi i lam1}|^2,

    M = |((k2 + lam2)/b2, (k3 + lam3)/b3)|, and Zhat = sum_{m != 0} cos(2 pi m.(lam2, lam3))/|(b2 m2, b3 m3)|^3
    Poisson-summed over m2: the row m3 = 0 is 2 Re Li_3(e^{2 pi i lam2})/b2^3, and a row m3 != 0, A = b3 |m3|, is
    cos(2 pi m3 lam3) (4 pi/b2) sum_j (|eta|/A) K_1(2 pi A |eta|), eta = (j - lam2)/b2 (lam2 not 0).  Bessel
    terms past 2 pi A |eta| = 36 (below 1e-15) and factors past 2 pi b1 M = 40 are dropped.
    """
    mp = mpmath
    with mp.workdps(16):
        (b1, b2, b3), (l1, l2, l3) = [mp.mpf(a) / (2 * mp.pi) for a in alpha], [mp.mpf(x) for x in lam]
        zhat = 2 * mp.re(mp.polylog(3, mp.expjpi(2 * l2))) / b2**3
        for m3 in range(1, int(36 * b2 / (2 * mp.pi * b3 * min(l2, 1 - l2))) + 2):
            a, r = b3 * m3, 36 * b2 / (2 * mp.pi * b3 * m3)  # the terms kept have |j - lam2| <= r
            row = sum(abs(j - l2) / (a * b2) * mp.besselk(1, 2 * mp.pi * a * abs(j - l2) / b2) for j in range(int(l2 - r), int(l2 + r) + 1))
            zhat += 2 * mp.cos(2 * mp.pi * m3 * l3) * 4 * mp.pi / b2 * row
        logs, reach = 0, 40 / (2 * mp.pi * b1)
        for k2 in range(int(-reach * b2 - l2) - 1, int(reach * b2 - l2) + 2):
            for k3 in range(int(-reach * b3 - l3) - 1, int(reach * b3 - l3) + 2):
                c = b1 * mp.sqrt(((k2 + l2) / b2) ** 2 + ((k3 + l3) / b3) ** 2)
                if c <= reach * b1:
                    logs += mp.log(abs(1 - mp.exp(-2 * mp.pi * c + 2j * mp.pi * l1)) ** 2)
        return float(b1 * b2 * b3 * zhat / (2 * mp.pi) - logs)


@pytest.mark.parametrize(
    "alpha, lam, expected",
    [((1.0, 1.0, 1.0), (0.3, 0.7, 0.2), -0.145309690347362), ((2.0, 1.0, 1.0), (0.3, 0.7, 0.2), -0.131490470459783),
     ((1.0, 1.0, 1.0), (0.5, 0.5, 0.5), -0.515443140336976)],
)
def test_chowla_selberg_deriv0_d3_against_mpmath(alpha, lam, expected):
    mpmath = pytest.importorskip("mpmath")
    ref = _eh_deriv0_d3_mpmath(mpmath, alpha, lam)
    assert ref == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert _cs_deriv0(alpha, lam) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_chowla_selberg_deriv0_ends():
    # d = 1: -log(4 sin^2 pi lam) at every alpha; d = 2: the Kronecker form
    for alpha, lam in ((0.01, 0.3), (1.0, 0.02), (50.0, 0.5)):
        assert _cs_deriv0((alpha,), (lam,)) == pytest.approx(-2.0 * math.log(2.0 * math.sin(math.pi * lam)), rel=1e-14, abs=0.0)
    assert _cs_deriv0((1.1, 0.9), (0.3, 0.7)) == kronecker_deriv0(1.1, 0.9, 0.3, 0.7)


def test_chowla_selberg_cap_refused():
    # d = 5 at unit ratios has 16^4 rows at s = 3, above the 2^15 cap: refused before they are built,
    # and "auto" takes the integral split there
    spec = ContinuousTorusSpec((1.0,) * 5, (0.3,) * 5)
    with pytest.raises(PreconditionError, match="above the cap"):
        epstein_hurwitz_zeta(3.0, spec, method="eigensum")
    assert epstein_hurwitz_zeta(3.0, spec).method == "integral_split"
    # at s = -1/2 the row with k3 + lam3 = 1e-7 would need 7e7 Bessel terms
    with pytest.raises(PreconditionError, match="above the cap"):
        _cs_deriv0((1.0, 1.0, 1.0), (0.5, 0.5, 1e-7))


def test_eh_deriv0_d5_refuses_rows_and_splits():
    # the d = 1 end of the recursion has no s = -2 case: the rows once read -0.07343 here, the split -0.33345
    spec = ContinuousTorusSpec((1.0, 1.1, 0.9, 1.2, 1.0), (0.3, 0.2, 0.4, 0.1, 0.6))
    with pytest.raises(PreconditionError, match="no d = 1 Chowla-Selberg end"):
        _cs_deriv0(spec.alpha, spec.lam)
    with pytest.raises(PreconditionError, match="no d = 1 Chowla-Selberg end"):
        epstein_hurwitz_deriv0(spec, method="eigensum")
    res = epstein_hurwitz_deriv0(spec)
    assert res == epstein_hurwitz_deriv0(spec, method="integral_split")
    assert res.method == "integral_split"
    assert res.value == pytest.approx(-0.33345, abs=1e-5)


def test_hurwitz_calls_stay_in_documented_range(monkeypatch):
    # hurwitz_zeta's docstring: every call in the package has s >= 1.5, at a = 1 (s <= 44) or a in [65, 66] (s <= 60)
    calls = []
    monkeypatch.setattr(zeta_module, "hurwitz_zeta", lambda s, a: calls.append((s, a)) or hurwitz_zeta(s, a))
    for d in (1, 2, 3, 4):
        for s in (0.5 * d + 0.25, 10.0):
            for alpha, lam in (((1.0,) * d, (0.3, 0.7, 0.2, 0.4)[:d]), (tuple(10.0 ** np.linspace(-3, 3, d)), (0.01, 0.0, 0.5, 0.99)[:d])):
                epstein_hurwitz_zeta(s, ContinuousTorusSpec(alpha, lam), method="eigensum")
    kronecker_deriv0(1.1, 0.9, 0.3, 0.7)
    for alpha, lam in (((1.0, 1.0, 1.0), (0.3, 0.7, 0.2)), ((1e-3, 1.0, 1e3), (0.0, 0.01, 0.99))):
        _cs_deriv0(alpha, lam)
    assert {a for _, a in calls} & {1.0}
    for s, a in calls:
        assert s >= 1.5 and ((a == 1.0 and s <= 44.0) or (65.0 <= a <= 66.0 and s <= 60.0)), (s, a)


# ---------------------------------------------------------------------------
# lattice zeta
# ---------------------------------------------------------------------------


def test_lattice_zeta_window_and_poles():
    for refused in (lambda: lattice_zeta(0.5, 1), lambda: lattice_zeta(1.6, 1), lambda: lattice_zeta(-1.0, 2),
                    lambda: lattice_zeta(0.5, 11), lambda: lattice_zeta_deriv0(11)):
        with pytest.raises(PreconditionError):
            refused()
    for d in (2, 3, 10):  # no quadrature runs for the exact 1
        assert lattice_zeta(0.0, d) == ZetaEvaluation(1.0, 0.0, "closed_form")


def test_lattice_zeta_d1_closed_form():
    # the split, now only the cross-check in d = 1, against zeta_{Z}(s) = Gamma(1/2 - s) / (4^s sqrt(pi) Gamma(1 - s))
    quad = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10)
    for s in (0.25, 0.4, -0.3, 1.2):
        expected = math.gamma(0.5 - s) / (4.0**s * math.sqrt(math.pi) * math.gamma(1.0 - s))
        bracket, _ = _lattice_bracket(s, 1, quad)
        assert reciprocal_gamma(s) * (bracket + 1.0 / s) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert lattice_zeta(s, 1).value == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_lattice_zeta_d1_closed_form_against_mpmath():
    # the split was 1.6e-14 to 1.5e-13 relative off mpmath at s = 0.25, -0.3, 0.9 and 1.2
    mpmath = pytest.importorskip("mpmath")
    for s in (-0.9, -0.3, 0.25, 0.49, 0.51, 0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.2, 1.49):
        with mpmath.workdps(40):
            exact = 0.0 if s == 1.0 else float(mpmath.gamma(1 - 2 * mpmath.mpf(s)) / mpmath.gamma(1 - mpmath.mpf(s)) ** 2)
        res = lattice_zeta(s, 1, QuadratureSpec(abs_tol=1e-20, rel_tol=1e-20))  # no quadrature runs
        assert res.method == "closed_form"
        assert abs(res.value - exact) <= 4.0 * math.ulp(exact), s
    # the stated estimate covers the whole window
    for s in np.linspace(-0.999, 1.499, 200):
        with mpmath.workdps(40):
            exact = float(mpmath.gamma(1 - 2 * mpmath.mpf(s)) / mpmath.gamma(1 - mpmath.mpf(s)) ** 2)
        res = lattice_zeta(float(s), 1)
        assert abs(res.value - exact) <= res.error_estimate, s


def test_lattice_zeta_stable_under_tolerance_halving():
    coarse = lattice_zeta(0.25, 2, QuadratureSpec(abs_tol=2e-9, rel_tol=2e-9))
    fine = lattice_zeta(0.25, 2, QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9))
    assert abs(coarse.value - fine.value) <= max(coarse.error_estimate, 1e-9)


def test_lattice_zeta_deriv0_equals_minus_lattice_constant():
    assert lattice_zeta_deriv0(1) == ZetaEvaluation(0.0, 0.0, "closed_form")
    bracket, err = _lattice_bracket(0.0, 1, QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11))
    assert abs(EULER_GAMMA + bracket) <= err  # the split in d = 1, the cross-check of the exact 0
    for d in range(2, 11):  # lattice_constant integrates its own integrand, adaptively
        deriv, (c_d, c_err) = lattice_zeta_deriv0(d), lattice_constant_eval(d)
        assert abs(-deriv.value - c_d) <= deriv.error_estimate + c_err, d
    # 4G/pi and mpmath's -zeta'_{Z^3}(0)
    assert abs(-lattice_zeta_deriv0(2).value - 1.166243616123275120553538) <= math.ulp(1.1662436161232751)
    assert abs(-lattice_zeta_deriv0(3).value - 1.673389302970196732) <= 2.0 * math.ulp(1.673389302970196732)


@functools.cache
def _lattice_bracket_mpmath(d: int):
    """B(s) = Gamma(s) zeta_{Z^d}(s) - 1/s in mpmath at 30 digits, sharing no code with ``_lattice_sum``: on (0, 1]
    the Taylor series of (e^{-2t} I_0(2t))^d - 1 integrated term by term (mpmath's quad of it is 2.1e-2 off at
    d = 2, s = -0.95), on [1, e^20] 24-point Gauss-Legendre panels of width 1/2 in log t over mpmath's besseli, and above
    e^20 the 1/t series of (e^{-2t} I_0(2t))^d (4 pi t)^{d/2} - 1 integrated term by term."""
    mpmath = pytest.importorskip("mpmath")
    n, mpf = 40 + 15 * d, mpmath.mpf  # Taylor terms: (4d)^n/n! is below 1e-30 at t = 1
    with mpmath.workdps(30):
        heat = [mpf((-1) ** k * math.comb(2 * k, k)) / mpmath.factorial(k) for k in range(n)]
        step = [mpf(1)]
        for j in range(1, 8):
            step.append(step[-1] * (2 * j - 1) ** 2 / (16 * j))
        coef, ratio = [mpf(1)] + [mpf(0)] * (n - 1), [mpf(1)] + [mpf(0)] * 7
        for _ in range(d):
            coef = [mpmath.fsum(coef[j] * heat[k - j] for j in range(k + 1)) for k in range(n)]
            ratio = [mpmath.fsum(ratio[j] * step[k - j] for j in range(k + 1)) for k in range(8)]
        lead, half = (4 * mpmath.pi) ** (-mpf(d) / 2), mpf(d) / 2
        nodes = []
        for j in range(40):
            for x, w in mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec):
                t = mpmath.exp((j + (x + 1) / 2) / 2)
                nodes.append((t, w / 4, (mpmath.exp(-2 * t) * mpmath.besseli(0, 2 * t)) ** d - lead * t**-half))

    def bracket(s):
        with mpmath.workdps(30):
            s = mpf(s)
            head = mpmath.fsum(coef[k] / (s + k) for k in range(1, n))
            tail = mpmath.fsum(w * g * t**s for t, w, g in nodes)
            far = lead * mpmath.fsum(ratio[k] * mpmath.exp(20 * (s - half - k)) / (k + half - s) for k in range(1, 8))
            return head + tail + far + lead / (half - s)

    return mpmath, bracket


@pytest.mark.parametrize("d", [2, 3, 4])
def test_lattice_zeta_against_mpmath(d):
    # s = d/2 + 0.99 crashed with an OverflowError in the adaptive split's power-tail substitution
    mpmath, bracket = _lattice_bracket_mpmath(d)
    for s in (-0.95, -0.5, 0.25, 0.75, 0.5 * d - 0.05, 0.5 * d + 0.05, 0.5 * d + 0.5, 0.5 * d + 0.99):
        res, b = lattice_zeta(s, d), bracket(s)
        exact = (b + 1 / mpmath.mpf(s)) / mpmath.gamma(s)
        assert res.method == "integral_split"
        assert abs(res.value - exact) <= res.error_estimate, (d, s)
        assert res.error_estimate <= 1e-13 * float(abs(b) + 1 / abs(s)) * abs(reciprocal_gamma(s)), (d, s)
    exact = -bracket(0) - mpmath.euler
    assert abs(-lattice_zeta_deriv0(d).value - exact) <= lattice_zeta_deriv0(d).error_estimate


@pytest.mark.parametrize("d", range(2, 11))
def test_lattice_table_agrees_with_adaptive_split(d):
    quad = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10)
    for s in (-0.95, -0.4, 0.0, 0.3, 0.5 * d - 0.3, 0.5 * d + 0.3, 0.5 * d + 0.7):
        bracket, err = _lattice_bracket(s, d, quad)
        table, est = zeta_module._lattice_sum(s, d, 0.0, quad)
        assert abs(table - bracket) <= err + est, (d, s)
    with pytest.raises(QuadratureError, match="overflowed"):  # a power tail t^{-1.01}: once a bare OverflowError
        _lattice_bracket(0.5 * d + 0.99, d, quad)


def test_lattice_zeta_runs_no_adaptive_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature ran")

    monkeypatch.setattr(quadrature, "integrate_interval", refuse)
    zeta_module._lattice_table.cache_clear()
    for d in (2, 3, 7, 10):
        for s in (-0.5, 0.3, 0.5 * d + 0.5):
            lattice_zeta(s, d)
        lattice_zeta_deriv0(d)
    # one table, built once, with no argument: no cache is keyed by s or d
    assert zeta_module._lattice_table.cache_info()[1:] == (1, None, 1)
    assert not inspect.signature(zeta_module._lattice_table).parameters
    assert [name for name, f in vars(zeta_module).items() if hasattr(f, "cache_info")] == ["_lattice_table"]


def test_lattice_zeta_d3_matches_torus_trend():
    # zeta_{G_n}(1)/n^3 approaches prod(alpha) zeta_{Z^3}(1) from the
    # finite-torus eigensums; the gap must shrink along n
    target = lattice_zeta(1.0, 3).value
    gaps = []
    for n in (6, 10, 14):
        spec = TorusBundleSpec.single_twist(3, (n, n, n), (0.3, 0.2, 0.0))
        val = torus_zeta(1.0, spec).real / n**3
        gaps.append(abs(val - target))
    assert gaps[2] < gaps[1] < gaps[0]


# ---------------------------------------------------------------------------
# torus spectral zeta
# ---------------------------------------------------------------------------


def test_torus_zeta_counts_at_zero():
    spec = TorusBundleSpec.single_twist(2, (3, 4), (0.3, 0.0))
    assert torus_zeta(0.0, spec) == pytest.approx(12.0 + 0.0j, abs=1e-12)


def test_torus_zeta_two_site_half_twist():
    spec = TorusBundleSpec.single_twist(1, (2,), (0.5,))
    # eigenvalues {2, 2}: sum of inverses is 1
    assert torus_zeta(1.0, spec) == pytest.approx(1.0 + 0.0j, abs=1e-13)


def test_torus_zeta_derivative_at_zero_is_minus_logdet():
    # complex step: zeta(i h) = sum exp(-i h log ev), so Im zeta(i h) / h = -sum log ev
    # up to h^2, with no difference of nearby values
    rng = np.random.default_rng(31)
    for d, a in [(1, (5,)), (2, (2, 3)), (2, (3, 3))]:
        lam = tuple(rng.uniform(0.05, 0.95, d))
        spec = TorusBundleSpec.single_twist(d, a, lam)
        sign, logdet = laplacian(build_torus(spec)).slogdet()
        assert abs(sign - 1.0) < 1e-9
        assert torus_zeta(1e-20j, spec).imag / 1e-20 == pytest.approx(-logdet, abs=1e-10)


def test_torus_zeta_complex_argument():
    spec = TorusBundleSpec.single_twist(1, (4,), (0.3,))
    v = torus_zeta(0.5 + 1.0j, spec)
    w = torus_zeta(0.5 - 1.0j, spec)
    assert v == pytest.approx(w.conjugate(), rel=1e-13, abs=0.0)


def test_torus_zeta_refuses_trivial_bundle_and_cap():
    spec = TorusBundleSpec.single_twist(1, (4,), (0.3,))
    for s in (math.nan, complex(1.0, math.inf)):
        with pytest.raises(PreconditionError, match="finite"):
            torus_zeta(s, spec)
    trivial = TorusBundleSpec.single_twist(2, (3, 3), (0.0, 0.0))
    with pytest.raises(PreconditionError):
        torus_zeta(1.0, trivial)
    # 4,002,000 eigenvalues: refused by the closed-form spectrum's cap, before allocating
    big = TorusBundleSpec.single_twist(2, (2001, 2000), (0.5, 0.5))
    with pytest.raises(PreconditionError, match="above the cap"):
        torus_zeta(1.0, big)


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_bernoulli_b2_values():
    assert bernoulli_b2(0.5) == pytest.approx(-1.0 / 12.0, abs=1e-16)
    assert bernoulli_b2(0.0) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert bernoulli_b2(1.0) == pytest.approx(1.0 / 6.0, abs=1e-16)


def test_zeta_evaluation_validates():
    with pytest.raises(PreconditionError):
        ZetaEvaluation(1.0, -1.0, "eigensum")
    with pytest.raises(PreconditionError):
        ZetaEvaluation(1.0, 0.0, "magic")
