"""Heat kernel on bundle tori, and discrete / continuous theta functions.

The heat kernel and the heat trace factor over directions.  With a the
side, lam the holonomy, mu_j = 4 sin^2(pi (j + lam) / a) the line spectrum
and P_x the product of the first x edge weights, a cycle factor is

    K(t, x) = P_x e^{-2 pi i lam x / a} / a  sum_j e^{-t mu_j} e^{-2 pi i j x / a}
            = P_x sum_{k in Z} e^{-2t} I_{|x + k a|}(2t) e^{2 pi i lam k},

and the trace is prod_i theta_i(t), theta_i(t) = sum_j e^{-t mu_j}.  From
t = a^2 / 8 the spectral form (an FFT) is used, exact to rounding; below
it the Bessel form, whose dropped orders are bounded a priori, so that the
tiny entries far from 0 and theta - a e^{-2t} I_0(2t) = O(t^a) keep their
relative accuracy at small t.

The continuum limit theta_inf factors the same way.  Per direction the
form rule takes the Poisson-dual Gaussian sum below t = alpha^2 / pi and
the spectral one from it, at an ascending array of t in one numpy pass;
both sums run over ranges fixed by its extreme t before any term is
summed, and a forced form past ``_GAUSS_TERM_CAP`` terms refuses, never truncates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .bundle_graph import TorusBundleSpec, _refuse_above_cap, line_spectrum
from .errors import PreconditionError, SeriesTruncationError, _count
from .special_functions import bessel_i_complex, bessel_i_scaled, bessel_i_scaled_many

_PROGRESSION_TERM_CAP = 400


@dataclass(frozen=True)
class ContinuousTorusSpec:
    """Limit data (alpha_i, lambda_i) of a torus family; lambda_i = 1 is stored as 0 (the same twist).

    ``is_trivial`` (every lambda_i 0) marks a zero mode, which the spectral-zeta operations refuse.
    """

    alpha: tuple[float, ...]
    lam: tuple[float, ...]

    def __init__(self, alpha: Sequence[float], lam: Sequence[float]):
        alpha = tuple(float(x) for x in alpha)
        lam = tuple(float(x) for x in lam)
        if len(alpha) != len(lam) or not alpha:
            raise PreconditionError("need matching nonempty alpha and lambda vectors")
        if any(not (0.0 < a < math.inf) for a in alpha):
            raise PreconditionError("alpha entries must be positive and finite")
        if any(not (0.0 <= x <= 1.0) for x in lam):
            raise PreconditionError("lambda entries must lie in [0, 1]")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "lam", tuple(0.0 if x == 1.0 else x for x in lam))

    @property
    def d(self) -> int:
        return len(self.alpha)

    @property
    def is_trivial(self) -> bool:
        """Every holonomy is 0, so the spectrum holds the eigenvalue 0."""
        return all(x == 0.0 for x in self.lam)


def _require_time(t: float, zero: bool = False) -> None:
    """Refuse a time that is not finite and > 0; with ``zero`` (the discrete torus, e^{-0 L} = 1), >= 0."""
    if not (0.0 <= t if zero else 0.0 < t) or t == math.inf:
        raise PreconditionError(f"time must be finite and {'>=' if zero else '>'} 0, got {t}")


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

_SPECTRAL_FROM = 1.0 / 8.0  # the form rule: spectral from t = a^2 / 8, Bessel below


def _last_order(t: float, m: int, start: int) -> int:
    """Smallest M >= start with sum_{n > M} e^{-2t} I_n(2t) <= 2^-60 e^{-2t} I_m(2t), m <= start.

    A priori at every t, from I_{n+1}(x) / I_n(x) <= x / (n + 1/2 + sqrt((n + 1/2)^2 + x^2))
    (Amos 1974), which falls with n, so the tail is geometric past M.
    """
    x, bound, last = 2.0 * t, 1.0, m - 1
    while True:
        ratio = x / (last + 1.5 + math.hypot(last + 1.5, x))
        if bound <= 2.0**-60 * (1.0 - ratio):
            return max(last, start)
        bound *= ratio
        last += 1


def _line_column(a: int, lam: float, t: float) -> np.ndarray:
    """K_1(t, x), x = 0..a-1, of the cycle of side a and holonomy lam, in the form the rule picks."""
    if t >= _SPECTRAL_FROM * a * a:
        twist = np.exp(-2j * np.pi * lam * np.arange(a) / a) / a
        return np.fft.fft(np.exp(-t * line_spectrum(a, lam))) * twist
    last = _last_order(t, a // 2, a)
    wraps = last // a + 1
    values = np.zeros((wraps + 1) * a)
    values[: last + 1] = bessel_i_scaled_many(last, 2.0 * t)
    k = np.arange(-wraps, wraps + 1)
    phase = np.exp(2j * np.pi * ((lam * k) % 1.0))
    return (values[np.abs(np.arange(a) + a * k[:, None])] * phase[:, None]).sum(axis=0)


def _prefixed_columns(spec: TorusBundleSpec, t: float) -> list[np.ndarray]:
    """Per direction, K_1(t, x) times the product of the first x edge weights."""
    _require_time(t, zero=True)
    return [
        np.cumprod(np.append(1.0 + 0.0j, row[:-1])) * _line_column(a, lam, t)
        for a, lam, row in zip(spec.a, spec.holonomies, spec.weights)
    ]


def heat_kernel(spec: TorusBundleSpec, t: float, x: Sequence[int]) -> complex:
    """Heat kernel K(t, x) of the bundle Laplacian, x an integer point reduced mod the torus.

    One cycle factor per direction: from t = a^2 / 8 the spectral form,
    exact to rounding; below it the Bessel form, whose dropped orders stay
    below 2^-59 of the leading term of each entry, so that the tiny entries
    far from 0 keep their relative accuracy.  K(0, x) is the Kronecker delta.
    """
    if len(x) != spec.d:
        raise PreconditionError("lattice point has wrong dimension")
    value = 1.0 + 0.0j
    for col, a, c in zip(_prefixed_columns(spec, t), spec.a, x):
        value *= col[_count(c, "a lattice point coordinate", -math.inf) % a]
    return complex(value)


def heat_kernel_column(spec: TorusBundleSpec, t: float) -> np.ndarray:
    """K(t, x) for every vertex x, row-major; column 0 of e^{-tL}.

    The Kronecker product of the cycle factors; refuses above ``MAX_EIGENVALUES`` entries first.
    """
    _refuse_above_cap(spec.vertex_count, "heat-kernel entries")
    return reduce(np.kron, _prefixed_columns(spec, t))


# ---------------------------------------------------------------------------
# Bessel progression identity (circulant average of the generating function)
# ---------------------------------------------------------------------------


def bessel_progression_sides(n: int, z: complex, t: complex) -> tuple[complex, complex]:
    """Both sides of  sum_k t^{kn} I_{kn}(z)
                      = (1/n) sum_j exp((z/2)(e^{2 pi i j/n}/t + t e^{-2 pi i j/n})).

    Returns (series side, circulant side); the series is truncated when the
    certified factorial decay leaves a tail below 1e-15 of the sum.  n must be an integer >= 1.
    """
    n = _count(n, "progression step n")
    z = complex(z)
    t = complex(t)
    if not 0 < abs(t) < math.inf:
        raise PreconditionError(f"t must be finite and nonzero, got {t}")

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
    """Trace of e^{-tL} on the discrete torus: product of eigenvalue sums; t finite and >= 0."""
    _require_time(t, zero=True)
    value = 1.0
    for ai, li in zip(spec.a, spec.holonomies):
        value *= float(np.exp(-t * line_spectrum(ai, li)).sum())
    return value


_DUAL_BELOW = 1.0 / math.pi  # the continuum form rule: Poisson-dual below t = alpha^2 / pi, spectral from it
_GAUSS_DEPTH = 42.0  # a Gaussian sum keeps every term within e^-42 of its first nonzero one
_GAUSS_TERM_CAP = 10_000  # a forced form that needs more terms refuses


def cos_2pi(x):
    """cos(2 pi x) of a float or an array, reduced on x itself and exactly 0 at the quarter turns."""
    return np.sin(np.pi * (0.5 - 2.0 * np.abs(x - np.rint(x))))


def _first_order(lam: float) -> int:
    """The first k >= 1 with cos(2 pi lam k) != 0: 2 at the quarter turns 1/4 and 3/4, 1 elsewhere."""
    return 2 if lam in (0.25, 0.75) else 1


def _refusal(form: str, t: float) -> PreconditionError:
    return PreconditionError(
        f"the {form} form of theta_continuous at t = {t} needs more terms than the cap "
        f"{_GAUSS_TERM_CAP}; the form rule (form=None) needs a few"
    )


def _spectral_1d(alpha: float, lam: float, t: np.ndarray) -> np.ndarray:
    """sum_k e^{-r (k + c)^2} at every t, r = 4 pi^2 t / alpha^2, c = lam - round(lam), over exactly the k with
    r (k + c)^2 <= r c^2 + 42 at the smallest t (the terms this adds at a larger t are below e^-42 of the first)."""
    c, w, low = lam - round(lam), 2.0 * math.pi / alpha, t.min()
    half = math.hypot(c, math.sqrt(_GAUSS_DEPTH / low) / w)
    if not 2.0 * half < _GAUSS_TERM_CAP:
        raise _refusal("spectral", low)
    k = np.arange(math.ceil(-c - half), math.floor(half - c) + 1)
    return np.exp(-t[:, None] * ((k + c) * w) ** 2).sum(axis=1)


def _dual_bracket_1d(alpha: float, lam: float, t: np.ndarray) -> np.ndarray:
    """2 sum_k e^{-r' k^2} cos(2 pi lam k) at every t, r' = alpha^2 / 4t, over k = 1..floor(sqrt(m^2 + 42 / r')) at
    the largest t, m = ``_first_order(lam)`` (the terms this adds at a smaller t are below e^-42 of the first)."""
    last = math.hypot(_first_order(lam), 2.0 * math.sqrt(_GAUSS_DEPTH * t.max()) / alpha)
    if not last < _GAUSS_TERM_CAP:
        raise _refusal("dual", t.max())
    k = np.arange(1, math.floor(last) + 1)
    return 2.0 * (np.exp(-((alpha * k) ** 2) / (4.0 * t[:, None])) * cos_2pi(lam * k)).sum(axis=1)


def _theta_pair(spec: ContinuousTorusSpec, t: np.ndarray, form: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(theta, theta - L) at the ascending array t (finite, > 0), each direction's t in the form the rule (or ``form``)
    picks: theta as the product of the directions' values, theta - L as ``theta_continuous_minus_leading`` says."""
    value, lead, q = 1.0, 1.0, 0.0
    for alpha, lam in zip(spec.alpha, spec.lam):
        k = int(np.searchsorted(t, _DUAL_BELOW * alpha * alpha)) if form is None else len(t) * (form == "dual")
        lead_1 = alpha / np.sqrt(4.0 * math.pi * t)
        bracket = _dual_bracket_1d(alpha, lam, t[:k]) if k else t[:0]
        spectral = _spectral_1d(alpha, lam, t[k:]) if k < len(t) else t[k:]
        value = value * np.concatenate((lead_1[:k] * (1.0 + bracket), spectral))
        s = np.concatenate((bracket, spectral / lead_1[k:] - 1.0))
        lead, q = lead * lead_1, q * (1.0 + s) + s
    return value, lead * q


def theta_continuous(spec: ContinuousTorusSpec, t: float, form: str | None = None) -> float:
    """Continuum theta: the spectral Gaussian sum or its Poisson-dual resummation, per direction

        theta_1(t) = sum_k e^{-4 pi^2 t (k + lam)^2 / alpha^2}
                   = alpha / sqrt(4 pi t) (1 + 2 sum_{k >= 1} e^{-(alpha k)^2 / 4t} cos(2 pi lam k)).

    The form rule takes the dual form below t = alpha^2 / pi and the spectral
    form from it, so that both rates are bounded (>= pi / 4 and >= 4 pi) and
    each sum holds a few terms.  Both ranges are fixed before summing: the
    spectral k with r (k + c)^2 <= r c^2 + 42, c = lam - round(lam), and the
    dual k = 1..floor(sqrt(m^2 + 42 / r')), m = 2 at the quarter turns and 1
    elsewhere.  ``form`` ("spectral" or "dual") forces one form; one that
    would need more than ``_GAUSS_TERM_CAP`` terms refuses, nothing is
    truncated.  t must be finite and > 0.
    """
    _require_time(t)
    if form not in (None, "spectral", "dual"):
        raise PreconditionError(f"unknown theta form {form!r}")
    return float(_theta_pair(spec, np.array([t], dtype=float), form)[0][0])


def theta_discrete_minus_leading(spec: TorusBundleSpec, t: float) -> float:
    """theta(t) - prod(a_i) (e^{-2t} I_0(2t))^d without cancellation.

    With u_i = theta_i(t) / (a_i e^{-2t} I_0(2t)) - 1, the difference is
    prod(a_i e^{-2t} I_0(2t)) * (prod(1 + u_i) - 1), accumulated as
    q <- q (1 + u) + u.  The form threshold is t = m^2 / 8 with m the first
    order whose phase is nonzero: a_i, or 2 a_i at the quarter turns.  Below
    it u_i comes from the Bessel orders k a_i alone, so its O(t^m) size keeps
    full relative accuracy.  t must be finite and >= 0.
    """
    _require_time(t, zero=True)
    base = bessel_i_scaled(0, 2.0 * t)
    lead = 1.0
    q = 0.0
    for ai, li in zip(spec.a, spec.holonomies):
        lead *= ai * base
        m = ai * _first_order(li)
        if t >= _SPECTRAL_FROM * m * m:
            u = float(np.exp(-t * line_spectrum(ai, li)).sum()) / (ai * base) - 1.0
        else:
            orders = range(ai, _last_order(t, m, m) + 1, ai)
            u = 2.0 * sum(bessel_i_scaled(n, 2.0 * t) * cos_2pi(n // ai * li) for n in orders) / base
        q = q * (1.0 + u) + u
    return lead * q


def theta_continuous_minus_leading(spec: ContinuousTorusSpec, t: float) -> float:
    """theta_inf(t) - prod(alpha_i) (4 pi t)^{-d/2} without cancellation.

    With s_i = theta_i / lead_i - 1 per direction (the dual bracket below
    t = alpha_i^2 / pi, exponentially small there; spectral / lead - 1 from
    it), the difference is prod(lead_i) * (prod(1 + s_i) - 1), and the last
    parenthesis is accumulated as q <- q (1 + s) + s so no large terms cancel.
    """
    _require_time(t)
    return float(_theta_pair(spec, np.array([t], dtype=float))[1][0])
