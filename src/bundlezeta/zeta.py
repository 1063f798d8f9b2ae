"""Spectral zeta functions: lattice constants, Epstein-Hurwitz zeta with
analytic continuation, the two-dimensional Kronecker-type closed form, and
the spectral zeta of the integer lattice and of finite bundle tori.

Two independent evaluation routes are kept alive wherever the package
cross-validates itself:

* ``eigensum``       -- lattice sums over the continuum spectrum (d <= 2),
                        in oriented Chowla-Selberg rows of bounded cost,
* ``integral_split`` -- Mellin integrals of the theta function, split at
                        t0 with the (4 pi t)^{-d/2} leading term removed on
                        (0, t0]; this is the analytic continuation and is
                        valid for every s away from the pole at d/2.  For the
                        continuum torus t0 follows theta's own decay scale
                        (``_eh_bracket``); the integer lattice splits at 1.

Each derivative at s = 0 is its own split bracket at s = 0 (the zeta
vanishes there), so it shares the integrals of its zeta.  On (0, t0] the
continuum integrand is theta minus its leading term, taken without
cancellation (the Poisson-dual bracket at small t).  Every bracket is one
call of ``quadrature._mellin_split``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle_graph import TorusBundleSpec, _refuse_trivial, torus_eigenvalues
from .errors import PreconditionError
from .heat_theta import ContinuousTorusSpec, theta_continuous, theta_continuous_minus_leading
from .quadrature import QuadratureSpec, TailRule, _mellin_split, integrate_semi_infinite
from .special_functions import (
    bessel_i0_scaled_ratio_minus_one,
    bessel_i_scaled,
    bessel_k,
    hurwitz_zeta,
    log_bessel_i0_scaled,
    reciprocal_gamma,
)

EULER_GAMMA = 0.57721566490153286060651209008240243

ZETA_METHODS = ("eigensum", "integral_split", "poisson_dual")


@dataclass(frozen=True)
class ZetaEvaluation:
    value: float | complex
    error_estimate: float
    method: str

    def __post_init__(self):
        if self.error_estimate < 0:
            raise PreconditionError("error estimate must be nonnegative")
        if self.method not in ZETA_METHODS:
            raise PreconditionError(f"unknown method {self.method!r}")


def bernoulli_b2(x: float) -> float:
    """Second Bernoulli polynomial x^2 - x + 1/6."""
    return x * x - x + 1.0 / 6.0


def _scaled_i0_power(d: int, t: float) -> float:
    """(e^{-2t} I_0(2t))^d, the integrand core shared by c_d and the lattice zeta."""
    return bessel_i_scaled(0, 2.0 * t) ** d


def _scaled_i0_power_minus_one(d: int, t: float) -> float:
    """(e^{-2t} I_0(2t))^d - 1 without cancellation for small t."""
    return math.expm1(d * log_bessel_i0_scaled(2.0 * t))


def _scaled_i0_power_minus_leading(d: int, t: float) -> float:
    """(e^{-2t} I_0(2t))^d - (4 pi t)^{-d/2} without cancellation for large t."""
    r = bessel_i0_scaled_ratio_minus_one(2.0 * t)
    return (4.0 * math.pi * t) ** (-0.5 * d) * math.expm1(d * math.log1p(r))


# ---------------------------------------------------------------------------
# lattice constant c_d
# ---------------------------------------------------------------------------


def lattice_constant(d: int, quad: QuadratureSpec | None = None) -> float:
    """The per-vertex log-determinant constant

        - integral over (0, inf) of ((e^{-2dt} I_0(2t)^d - e^{-t}) / t) dt.

    Known values: 0 in dimension one (returned exactly, with error 0) and
    4G/pi (G Catalan) in dimension two.
    """
    value, _ = lattice_constant_eval(d, quad)
    return value


def lattice_constant_eval(d: int, quad: QuadratureSpec | None = None) -> tuple[float, float]:
    if not 1 <= d <= 10:
        raise PreconditionError(f"dimension must be in 1..10, got {d}")
    if d == 1:
        # c_1 = int_0^1 log(4 sin^2 pi x) dx = 0 exactly; quadrature would leave ~1e-16
        return 0.0, 0.0
    quad = quad or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11, max_subdivisions=8000)

    def integrand(t: float) -> float:
        if t < 0.5:
            # e^{-t} expm1(d log(e^{-2t} I_0(2t)) + t) avoids the 1 - 1 loss
            return math.exp(-t) * math.expm1(d * log_bessel_i0_scaled(2.0 * t) + t) / t
        return (_scaled_i0_power(d, t) - math.exp(-t)) / t

    res = integrate_semi_infinite(
        integrand,
        0.0,
        quad,
        tail=TailRule("power", 0.5 * d + 1.0),
    )
    return -res.value, res.error_estimate


# ---------------------------------------------------------------------------
# Epstein-Hurwitz zeta
# ---------------------------------------------------------------------------


def _require_nontrivial(spec: ContinuousTorusSpec):
    if not spec.has_nontrivial_holonomy:
        raise PreconditionError(
            "all holonomies are trivial; the continuum spectral zeta has a "
            "zero mode and is refused"
        )


def _min_frequency(spec: ContinuousTorusSpec) -> float:
    """min over the dual lattice of sum ((k_i + lam_i)/alpha_i)^2 (> 0)."""
    return sum((min(l, 1.0 - l) / a) ** 2 for a, l in zip(spec.alpha, spec.canonical_lam()))


def _inner_line_sum(c: float, s: float, lam: float) -> float:
    """sum over k of (c^2 + (k + lam)^2)^{-s} for 0 <= c < 1: 129 terms, then the binomial
    series (c^2 + v^2)^{-s} = sum_m C(-s, m) c^{2m} v^{-2s-2m} summed over v > 64 by Hurwitz zetas."""
    acc = float(np.sum((c * c + (np.arange(-64, 65) + lam) ** 2) ** -s))
    coeff = 1.0
    for m in range(0, 11):
        acc += coeff * c ** (2 * m) * (hurwitz_zeta(2 * s + 2 * m, 65 + lam) + hurwitz_zeta(2 * s + 2 * m, 65 - lam))
        coeff *= -(s + m) / (m + 1.0)
    return acc


def _eigensum(s: float, alpha, lam) -> tuple[float, float]:
    """The lattice sum of (sum_i ((k_i + lam_i)/b_i)^2)^{-s}, b_i = alpha_i/(2 pi), d <= 2.

    d = 1 is two Hurwitz zetas.  In d = 2 the rows run along the shorter side b1,
    Poisson-summed over k2 (Chowla-Selberg): with c = (b2/b1)|k1 + lam1|, row k1 is
    b2^{2s} [sqrt(pi) Gamma(s-1/2)/Gamma(s) c^{1-2s} + 4 pi^s/Gamma(s) sum_m (m/c)^{s-1/2}
    K_{s-1/2}(2 pi m c) cos(2 pi m lam2)].  The leading terms of the rows k1 >= 1 and
    k1 <= -2 add up to two Hurwitz zetas; the rows k1 = 0, -1 are summed directly when
    c < 1.  Elsewhere c >= 1, so Bessel terms with 2 pi m c <= 42 make at most 14 rows
    of at most 6 terms at any aspect ratio.
    """
    b = [a / (2.0 * math.pi) for a in alpha]
    if len(b) == 1:
        value = b[0] ** (2.0 * s) * (hurwitz_zeta(2.0 * s, lam[0]) + hurwitz_zeta(2.0 * s, 1.0 - lam[0]))
        return value, 1e-13 * abs(value)
    (b1, lam1), (b2, lam2) = sorted(zip(b, lam))
    rho = b2 / b1
    lead = b2 * math.sqrt(math.pi) * math.exp(math.lgamma(s - 0.5) - math.lgamma(s)) * b1 ** (2.0 * s - 1.0)
    total = lead * (hurwitz_zeta(2.0 * s - 1.0, 1.0 + lam1) + hurwitz_zeta(2.0 * s - 1.0, 2.0 - lam1))
    for u in (lam1, 1.0 - lam1):  # |k1 + lam1| on the rows k1 = 0 and -1
        if rho * u < 1.0:
            total += b2 ** (2.0 * s) * _inner_line_sum(rho * u, s, lam2)
        else:
            total += lead * u ** (1.0 - 2.0 * s)
    reach = 42.0 / (2.0 * math.pi)  # Bessel terms with 2 pi m c > 42 are below e^{-42} of their row
    k1 = np.arange(math.ceil(-reach / rho - lam1), math.floor(reach / rho - lam1) + 1)
    c, m = np.meshgrid(rho * np.abs(k1 + lam1), np.arange(1, int(reach) + 1))
    keep = (c >= 1.0) & (m * c <= reach)
    c, m = c[keep], m[keep]
    terms = (m / c) ** (s - 0.5) * bessel_k(s - 0.5, 2.0 * math.pi * m * c) * np.cos(2.0 * math.pi * m * lam2)
    total += 4.0 * math.exp(s * math.log(math.pi * b2 * b2) - math.lgamma(s)) * float(terms.sum())
    return total, 1e-12 * abs(total)


def epstein_hurwitz_zeta(
    s: float,
    spec: ContinuousTorusSpec,
    method: str = "auto",
    quad: QuadratureSpec | None = None,
) -> ZetaEvaluation:
    """Continuum spectral zeta  (2 pi)^{-2s} sum_K (sum_i ((k_i+lam_i)/alpha_i)^2)^{-s}.

    ``method="eigensum"`` (d <= 2, s >= d/2 + 0.25) is the oriented row sum of
    ``_eigensum``, of bounded cost at every aspect ratio, with the nominal estimate
    1e-13 |value| (d = 1) or 1e-12 |value| (d = 2); ``method="integral_split"`` is
    the Mellin-split analytic continuation (``_eh_bracket``).  Holonomy 1 is folded to 0.

    s must lie in [-2, 10]: there both routes kept their stated accuracy against
    mpmath at alpha in [0.01, 1e4] (d = 1; 1e-10 relative for the split) and, in
    d = 2, at aspect ratios 1e-4 to 1e4 (eigensum) or 1e-6 to 1e6 (split, checked
    against the eigensum at s = 1.5, 2 and 3).  Above 10 the dropped Bessel terms
    pass 1e-12; below -2 no route has been checked.
    """
    if not -2.0 <= s <= 10.0:
        raise PreconditionError(f"s must be finite and in [-2, 10], got {s}")
    _require_nontrivial(spec)
    d = spec.d
    if s == 0.5 * d:
        raise PreconditionError(f"pole at s = d/2 = {0.5 * d}")
    if method == "auto":
        method = "eigensum" if (d <= 2 and s >= 0.5 * d + 0.25) else "integral_split"
    if method == "eigensum":
        if d > 2 or s < 0.5 * d + 0.25:
            raise PreconditionError(f"the eigensum route needs d <= 2 and s >= d/2 + 0.25, got d = {d}, s = {s}")
        return ZetaEvaluation(*_eigensum(s, spec.alpha, spec.canonical_lam()), "eigensum")
    if method != "integral_split":
        raise PreconditionError(f"unknown method {method!r} for epstein_hurwitz_zeta")

    quad = quad or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=8000)
    rg = reciprocal_gamma(s)
    bracket, err = _eh_bracket(s, spec, quad)
    return ZetaEvaluation(rg * bracket, abs(rg) * err, "integral_split")


def _eh_bracket(s: float, spec: ContinuousTorusSpec, quad: QuadratureSpec) -> tuple[float, float]:
    """Gamma(s) times the continuum zeta by the Mellin split at t0, and its error estimate:

        int_0^t0 (theta(t) - prod(alpha) (4 pi t)^{-d/2}) t^{s-1} dt
        + int_t0^inf theta(t) t^{s-1} dt
        + prod(alpha) (4 pi)^{-d/2} t0^{s-d/2} / (s - d/2).

    Both integrands follow the form rule of ``heat_theta``, the head one without
    cancellation.  t0 is 1 clamped into [T, 10 T], T = 1/(4 pi^2 min_freq) the
    decay scale of theta (so t0 = 1 exactly when T is in [0.1, 1]).  Measured
    against mpmath and Chowla-Selberg sums (d = 1 at alpha 0.01..1e4, d = 2 at
    aspect ratios 1e-6..1e6), every t0 in [0.1 T, 10 T] kept 1e-11 relative;
    100 T lost 1e-2 at s = 10, and 1e-3 T lost 1e-4 beyond its estimate.  The
    split runs in units of t0 (t0^s factored out), so its absolute tolerance is
    taken at the torus's own scale.  With no zero mode the zeta vanishes at 0, so at s = 0 the bracket
    is the derivative there.
    """
    d, rate = spec.d, 4.0 * math.pi**2 * _min_frequency(spec)
    t0 = min(max(1.0, 1.0 / rate), 10.0 / rate)
    value, err = _mellin_split(
        lambda t: theta_continuous_minus_leading(spec, t) * (t / t0) ** (s - 1.0) / t0,
        lambda t: theta_continuous(spec, t) * (t / t0) ** (s - 1.0) / t0,
        TailRule("exp", rate),
        t0,
        (math.prod(spec.alpha) * (4.0 * math.pi * t0) ** (-0.5 * d) / (s - 0.5 * d),),
        quad,
    )
    return t0**s * value, t0**s * err


def epstein_hurwitz_deriv0(spec: ContinuousTorusSpec, quad: QuadratureSpec | None = None) -> ZetaEvaluation:
    """d/ds at s = 0 of the continuum spectral zeta: ``_eh_bracket`` at s = 0, where
    its closed-form term is -(2/d) prod(alpha) (4 pi t0)^{-d/2}.  In dimension two
    ``kronecker_deriv0`` is the independent closed form.
    """
    _require_nontrivial(spec)
    quad = quad or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11, max_subdivisions=8000)
    value, err = _eh_bracket(0.0, spec, quad)
    return ZetaEvaluation(value, err, "poisson_dual")


def kronecker_deriv0(alpha1: float, alpha2: float, lam1: float, lam2: float) -> float:
    """Closed form for the derivative at 0 in dimension two:

        2 pi (alpha1/alpha2) B2(lam2)
        - 2 log prod over n in Z of |1 - e^{2 pi i lam1} e^{-2 pi (alpha1/alpha2)|n + lam2|}|.

    The form is symmetric in the two directions.  Taken with alpha1 >= alpha2,
    the factors with |n + lam2| >= 7 differ from 1 by less than e^{-14 pi} and are dropped.
    """
    _require_nontrivial(ContinuousTorusSpec((alpha1, alpha2), (lam1, lam2)))  # else the n = 0 factor vanishes
    if alpha1 < alpha2:
        alpha1, alpha2, lam1, lam2 = alpha2, alpha1, lam2, lam1
    rho = alpha1 / alpha2
    r = np.exp(-2.0 * math.pi * rho * np.abs(np.arange(-7, 7) + lam2))
    log_product = 0.5 * float(np.sum(np.log1p(r * (r - 2.0 * math.cos(2.0 * math.pi * lam1)))))
    return 2.0 * math.pi * rho * bernoulli_b2(lam2) - 2.0 * log_product


# ---------------------------------------------------------------------------
# spectral zeta of the integer lattice
# ---------------------------------------------------------------------------


def _lattice_bracket(s: float, d: int, quad: QuadratureSpec) -> tuple[float, float]:
    """Gamma(s) times the lattice zeta less its 1/s term, split at t = 1, and its error estimate."""

    def head(t: float) -> float:
        return _scaled_i0_power_minus_one(d, t) * t ** (s - 1.0)

    return _mellin_split(
        _rectified_unit_integrand(head, s) if s < 1.0 else head,  # head ~ -2d t^s at 0
        lambda t: _scaled_i0_power_minus_leading(d, t) * t ** (s - 1.0),
        TailRule("power", 0.5 * d + 2.0 - s),
        1.0,
        ((4.0 * math.pi) ** (-0.5 * d) / (0.5 * d - s),),
        quad,
    )


def _rectified_unit_integrand(f, beta: float):
    """g with int_0^1 g = int_0^1 f for f ~ C t^{beta} at 0 (beta > -1): t = u^{1/(1+beta)} makes g smooth."""
    gamma = 1.0 / (1.0 + beta)
    return lambda u: f(u**gamma) * gamma * u ** (gamma - 1.0)


def lattice_zeta(s: float, d: int, quad: QuadratureSpec | None = None) -> ZetaEvaluation:
    """Spectral zeta of the integer lattice in dimension d.

    Implemented continuation window: -1 < s < d/2 + 1 with the pole at
    s = d/2 excluded (split at t = 1 and one subtracted asymptotic term of
    the Bessel integrand on the tail).  s = 0 returns the exact value 1.
    """
    if d < 1:
        raise PreconditionError("dimension must be >= 1")
    if s == 0.5 * d:
        raise PreconditionError(f"pole at s = d/2 = {0.5 * d}")
    if not (-1.0 < s < 0.5 * d + 1.0):
        raise PreconditionError(
            f"s = {s} outside the implemented continuation window "
            f"(-1, {0.5 * d + 1.0}) for d = {d}"
        )
    if s == 0.0:
        return ZetaEvaluation(1.0, 0.0, "integral_split")
    quad = quad or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10, max_subdivisions=8000)
    bracket, err = _lattice_bracket(s, d, quad)
    rg = reciprocal_gamma(s)
    return ZetaEvaluation(rg * (bracket + 1.0 / s), abs(rg) * err, "integral_split")


def lattice_zeta_deriv0(d: int, quad: QuadratureSpec | None = None) -> ZetaEvaluation:
    """d/ds at 0 of the lattice zeta: Euler's gamma plus the split bracket of
    ``lattice_zeta`` at s = 0 less its 1/s term; equals minus the lattice constant."""
    if d < 1:
        raise PreconditionError("dimension must be >= 1")
    quad = quad or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11, max_subdivisions=8000)
    bracket, err = _lattice_bracket(0.0, d, quad)
    return ZetaEvaluation(EULER_GAMMA + bracket, err, "integral_split")


# ---------------------------------------------------------------------------
# spectral zeta of a finite bundle torus
# ---------------------------------------------------------------------------


def torus_zeta(s: complex, spec: TorusBundleSpec) -> complex:
    """Entire spectral zeta sum over the closed-form torus eigenvalues.

    ``torus_eigenvalues`` refuses above ``MAX_EIGENVALUES`` before allocating.
    """
    if not np.isfinite(s):
        raise PreconditionError(f"s must be finite, got {s}")
    _refuse_trivial(spec)
    evs = torus_eigenvalues(spec)
    if evs[0] <= 0.0:
        raise PreconditionError("nonpositive eigenvalue encountered")
    return complex(np.exp(-complex(s) * np.log(evs)).sum())
