"""Heat kernel on bundle tori, and discrete / continuous theta functions.

The heat kernel factorizes over directions.  Writing a for the side
length, lam for the holonomy and P_x for the product of the first x edge
weights of a cyclic factor, the one-dimensional kernel is

    K(t, x) = e^{-2t} P_x^{-1} sum_{k in Z} I_{x + k a}(2t) e^{-2 pi i lam k},

with I the modified Bessel function of the first kind (the floor-bracket
weight exponents collapse to exactly this form).  The trace of e^{-tL}
equals the product over directions of the closed eigenvalue sums

    theta_i(t) = sum_j exp(-4 t sin^2(pi (j + lam_i) / a_i)),

and the continuum limit theta_inf admits both a spectral (Gaussian-sum)
form, fast for large t, and a Poisson-dual form, fast for small t.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundle_graph import TorusBundleSpec
from .errors import PreconditionError, SeriesTruncationError
from .special_functions import bessel_i_complex, bessel_i_scaled, sin_pi

_HEAT_TERM_CAP = 100_000
_PROGRESSION_TERM_CAP = 400


@dataclass(frozen=True)
class ContinuousTorusSpec:
    """Limit data (alpha_i, lambda_i) of a torus family.

    ``has_nontrivial_holonomy`` records whether some lambda_i avoids
    {0, 1}; spectral-zeta operations refuse when it is False.
    """

    alpha: tuple[float, ...]
    lam: tuple[float, ...]

    def __init__(self, alpha: Sequence[float], lam: Sequence[float]):
        alpha = tuple(float(x) for x in alpha)
        lam = tuple(float(x) for x in lam)
        if len(alpha) != len(lam) or not alpha:
            raise PreconditionError("need matching nonempty alpha and lambda vectors")
        if any(not (a > 0) for a in alpha):
            raise PreconditionError("alpha entries must be positive")
        if any(not (0.0 <= x <= 1.0) for x in lam):
            raise PreconditionError("lambda entries must lie in [0, 1]")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "lam", lam)

    @property
    def d(self) -> int:
        return len(self.alpha)

    @property
    def has_nontrivial_holonomy(self) -> bool:
        return any(0.0 < x < 1.0 for x in self.lam)

    def canonical_lam(self) -> tuple[float, ...]:
        """Holonomies with the boundary value 1 folded to 0 (index shift)."""
        return tuple(0.0 if x == 1.0 else x for x in self.lam)


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------


def _heat_kernel_1d(a: int, lam: float, prefix: complex, t: float, x: int) -> complex:
    # coefficient of I_{x+ka}(2t) is (prod of the first x weights) e^{2 pi i lam k};
    # fixed by matching the recurrence of e^{-tL} for the stored orientation
    two_t = 2.0 * t
    phase = cmath.exp(2j * math.pi * lam)
    total = complex(bessel_i_scaled(x, two_t))
    scale = abs(total)
    for k in range(1, _HEAT_TERM_CAP):
        up = bessel_i_scaled(x + k * a, two_t)
        down = bessel_i_scaled(abs(x - k * a), two_t)
        total += up * phase**k + down * phase**-k
        scale += up + down
        next_min_order = (k + 1) * a - x
        ratio = t / (next_min_order + 1.0)
        if ratio < 1.0:
            tail = 2.0 * bessel_i_scaled(next_min_order, two_t) / (1.0 - ratio)
            if tail <= 1e-14 * max(scale, 1e-300):
                return prefix * total
    raise SeriesTruncationError(
        f"heat kernel series did not certify its tail within {_HEAT_TERM_CAP} terms"
    )


def heat_kernel(spec: TorusBundleSpec, t: float, x: Sequence[int]) -> complex:
    """Heat kernel K(t, x) of the bundle Laplacian, x reduced mod the torus.

    K(0, x) is the Kronecker delta at 0; for t > 0 the Bessel series is
    truncated with a certified geometric tail bound below 1e-14 of the
    partial sum.
    """
    if not (t >= 0.0) or math.isinf(t):
        raise PreconditionError(f"time must be finite and >= 0, got {t}")
    coords = [int(c) % ai for c, ai in zip(x, spec.a)]
    if len(coords) != spec.d:
        raise PreconditionError("lattice point has wrong dimension")
    value = 1.0 + 0.0j
    for i in range(spec.d):
        prefix = 1.0 + 0.0j
        for w in spec.weights[i][: coords[i]]:
            prefix *= w
        value *= _heat_kernel_1d(spec.a[i], spec.holonomies[i], prefix, t, coords[i])
    return value


def heat_kernel_column(spec: TorusBundleSpec, t: float) -> np.ndarray:
    """K(t, x) for every vertex x, row-major; column 0 of e^{-tL}."""
    shape = spec.a
    out = np.empty(math.prod(shape), dtype=complex)
    for idx in range(out.size):
        rem = idx
        coords = []
        for ai in reversed(shape):
            coords.append(rem % ai)
            rem //= ai
        coords.reverse()
        out[idx] = heat_kernel(spec, t, coords)
    return out


# ---------------------------------------------------------------------------
# Bessel progression identity (circulant average of the generating function)
# ---------------------------------------------------------------------------


def bessel_progression_sides(n: int, z: complex, t: complex) -> tuple[complex, complex]:
    """Both sides of  sum_k t^{kn} I_{kn}(z)
                      = (1/n) sum_j exp((z/2)(e^{2 pi i j/n}/t + t e^{-2 pi i j/n})).

    Returns (series side, circulant side); the series is truncated when the
    certified factorial decay leaves a tail below 1e-15 of the sum.
    """
    if n < 1:
        raise PreconditionError("progression step n must be >= 1")
    if t == 0:
        raise PreconditionError("t must be nonzero")
    z = complex(z)
    t = complex(t)

    lhs = bessel_i_complex(0, z)
    scale = abs(lhs)
    converged = False
    for k in range(1, _PROGRESSION_TERM_CAP + 1):
        order = k * n
        bes = bessel_i_complex(order, z)
        lhs += bes * (t**order + t**-order)
        # phase-independent magnitude: individual terms may vanish by phase
        mag = abs(bes) * (abs(t) ** order + abs(t) ** -order)
        scale += mag
        # |I_{m+n}(z)/I_m(z)| <= ((|z|/2)/(m+1))^n once m > |z|
        if order > abs(z):
            decay = ((abs(z) / 2.0) / (order + 1.0)) ** n * max(abs(t), 1 / abs(t)) ** n
            if decay < 0.5:
                tail = mag * decay / (1.0 - decay)
                if tail <= 1e-15 * max(scale, 1e-300):
                    converged = True
                    break
    if not converged:
        raise SeriesTruncationError(
            f"progression series not converged within {_PROGRESSION_TERM_CAP} terms"
        )

    rhs = 0.0 + 0.0j
    for j in range(n):
        omega = cmath.exp(2j * math.pi * j / n)
        rhs += cmath.exp(0.5 * z * (omega / t + t / omega))
    rhs /= n
    return lhs, rhs


# ---------------------------------------------------------------------------
# theta functions
# ---------------------------------------------------------------------------


def theta_discrete(spec: TorusBundleSpec, t: float) -> float:
    """Trace of e^{-tL} on the discrete torus: product of eigenvalue sums."""
    if not (t >= 0.0):
        raise PreconditionError(f"time must be >= 0, got {t}")
    value = 1.0
    for ai, li in zip(spec.a, spec.holonomies):
        evs = np.array([4.0 * sin_pi((j + li) / ai) ** 2 for j in range(ai)])
        value *= float(np.exp(-t * evs).sum())
    return value


def _theta_spectral_1d(alpha: float, lam: float, t: float) -> float:
    rate = 4.0 * (math.pi / alpha) ** 2 * t
    k0 = int(round(-lam))
    total = 0.0
    k = k0
    while True:  # ascending side
        term = math.exp(-rate * (k + lam) ** 2)
        total += term
        if term < 1e-18 * total and k > k0:
            break
        k += 1
    k = k0 - 1
    while True:  # descending side
        term = math.exp(-rate * (k + lam) ** 2)
        total += term
        if term < 1e-18 * total:
            break
        k -= 1
    return total


def _theta_dual_bracket_1d(alpha: float, lam: float, t: float) -> float:
    """sum_k e^{-(alpha k)^2/(4t)} cos(2 pi lam k) over k != 0, times 2."""
    total = 0.0
    for k in range(1, _HEAT_TERM_CAP):
        e = -((alpha * k) ** 2) / (4.0 * t)
        if e < -745.0:
            break
        term = math.exp(e) * cos_2pi(lam * k)
        total += 2.0 * term
        if abs(math.exp(e)) < 1e-18:
            break
    return total


def cos_2pi(x: float) -> float:
    n = round(x)
    return math.cos(2.0 * math.pi * (x - n))


def theta_continuous(spec: ContinuousTorusSpec, t: float, form: str | None = None) -> float:
    """Continuum theta: spectral Gaussian sum or its Poisson-dual resummation.

    ``form`` is "spectral", "dual", or None for automatic switching at
    t = 1 (dual converges fast for small t, spectral for large t).
    """
    if not t > 0:
        raise PreconditionError(f"theta_continuous needs t > 0, got {t}")
    if form is None:
        form = "dual" if t < 1.0 else "spectral"
    if form not in ("spectral", "dual"):
        raise PreconditionError(f"unknown theta form {form!r}")
    value = 1.0
    for alpha, lam in zip(spec.alpha, spec.lam):
        if form == "spectral":
            value *= _theta_spectral_1d(alpha, lam, t)
        else:
            lead = alpha / math.sqrt(4.0 * math.pi * t)
            value *= lead * (1.0 + _theta_dual_bracket_1d(alpha, lam, t))
    return value


def theta_discrete_minus_leading(spec: TorusBundleSpec, t: float) -> float:
    """theta(t) - prod(a_i) (e^{-2t} I_0(2t))^d without cancellation.

    Uses the weighted Bessel form of each factor: with
    u_i = 2 sum_{k>=1} (I_{k a_i}/I_0)(2t) cos(2 pi k lam_i), the difference
    is prod(a_i I_0-term) * (prod(1 + u_i) - 1), accumulated so that the
    O(t^{min a_i}) small-t size is preserved exactly.
    """
    if not (t >= 0.0):
        raise PreconditionError(f"time must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    two_t = 2.0 * t
    base = bessel_i_scaled(0, two_t)
    lead = 1.0
    q = 0.0
    for ai, li in zip(spec.a, spec.holonomies):
        lead *= ai * base
        u = 0.0
        for k in range(1, _HEAT_TERM_CAP):
            term = bessel_i_scaled(k * ai, two_t)
            if term == 0.0:
                break
            u += 2.0 * (term / base) * cos_2pi(k * li)
            next_order = (k + 1) * ai
            ratio = t / (next_order + 1.0)
            if ratio < 1.0:
                tail = 2.0 * bessel_i_scaled(next_order, two_t) / base / (1.0 - ratio)
                if tail <= 1e-16 * (1.0 + abs(u)):
                    break
        else:
            raise SeriesTruncationError("Bessel-form theta series did not truncate")
        q = q * (1.0 + u) + u
    return lead * q


def theta_continuous_minus_leading(spec: ContinuousTorusSpec, t: float) -> float:
    """theta_inf(t) - prod(alpha_i) (4 pi t)^{-d/2} without cancellation.

    Uses the dual form: with s_i the (exponentially small for small t)
    non-constant part of each factor, the difference is
    prod(lead_i) * (prod(1 + s_i) - 1), and the last parenthesis is
    accumulated as q <- q (1 + s) + s so no large terms ever cancel.
    """
    if not t > 0:
        raise PreconditionError(f"need t > 0, got {t}")
    lead = 1.0
    q = 0.0
    for alpha, lam in zip(spec.alpha, spec.lam):
        lead *= alpha / math.sqrt(4.0 * math.pi * t)
        s = _theta_dual_bracket_1d(alpha, lam, t)
        q = q * (1.0 + s) + s
    return lead * q
