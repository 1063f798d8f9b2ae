"""Spectral zeta functions: lattice constants, the continuum (Epstein-Hurwitz) zeta with its analytic
continuation and its derivative at 0 (Kronecker's second limit formula in d = 2), and the spectral zeta of
the integer lattice and of finite bundle tori.

Two independent routes cross-validate each number:

* ``eigensum``       -- the lattice sum in Chowla-Selberg rows (``_chowla_selberg``): one Poisson
                        recursion in every d, for s >= d/2 + 0.25 and (d <= 4) the derivative at 0,
                        where it is the production route,
* ``integral_split`` -- Mellin integrals of theta split at t0, with the (4 pi t)^{-d/2} leading term
                        removed on (0, t0] without cancellation: the analytic continuation, valid for
                        every s away from the pole at d/2, and the fallback where the rows are refused.
                        The continuum torus splits at theta's own decay scale, on one fixed grid in
                        log t (``_eh_bracket``), the integer lattice at 1.

In d = 1 the lattice zeta is the ``closed_form`` Gamma(1 - 2s)/Gamma(1 - s)^2.  In d = 2..10 its Mellin
integral is dot products over one table of (e^{-2t} I_0(2t))^d, built once per process and independent of
s and d (``_lattice_sum``).  In every d the adaptive split (``_lattice_bracket``) is the cross-check, and the
lattice constant's own integral that of the derivative at 0.  Each derivative at s = 0 is its bracket at
s = 0, where the zeta vanishes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bundle_graph import TorusBundleSpec, _refuse_trivial, torus_eigenvalues
from .errors import PreconditionError, QuadratureError, _count
from .heat_theta import ContinuousTorusSpec, _theta_pair
from .quadrature import QuadratureSpec, TailRule, _grid_sum, _log_time_panels, _mellin_split, integrate_semi_infinite
from .special_functions import bessel_i0_scaled_ratio_minus_one, bessel_i_scaled, bessel_k, hurwitz_zeta
from .special_functions import log_bessel_i0_scaled, reciprocal_gamma, sin_pi

EULER_GAMMA = 0.57721566490153286060651209008240243

ZETA_METHODS = ("eigensum", "integral_split", "closed_form")


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


def lattice_constant(d: int) -> float:
    """The per-vertex log-determinant constant in integer dimension d in 1..10,

        - integral over (0, inf) of ((e^{-2dt} I_0(2t)^d - e^{-t}) / t) dt.

    Known values: 0 in dimension one (returned exactly, with error 0) and
    4G/pi (G Catalan) in dimension two.
    """
    value, _ = lattice_constant_eval(d)
    return value


def _lattice_dimension(d) -> int:
    """d as an int in 1..10, the dimensions of the lattice constant and the lattice zeta."""
    if (d := _count(d, "dimension")) > 10:
        raise PreconditionError(f"dimension must be in 1..10, got {d}")
    return d


def lattice_constant_eval(d: int, quad: QuadratureSpec | None = None) -> tuple[float, float]:
    if (d := _lattice_dimension(d)) == 1:
        # c_1 = int_0^1 log(4 sin^2 pi x) dx = 0 exactly; quadrature would leave ~1e-16
        return 0.0, 0.0
    quad = quad or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)

    def integrand(t: float) -> float:
        if t < 0.5:
            # e^{-t} expm1(d log(e^{-2t} I_0(2t)) + t) avoids the 1 - 1 loss
            return math.exp(-t) * math.expm1(d * log_bessel_i0_scaled(2.0 * t) + t) / t
        return (_scaled_i0_power(d, t) - math.exp(-t)) / t

    res = integrate_semi_infinite(integrand, 0.0, quad, tail=TailRule("power", 0.5 * d + 1.0))
    return -res.value, res.error_estimate


# ---------------------------------------------------------------------------
# Epstein-Hurwitz zeta
# ---------------------------------------------------------------------------


def _min_frequency(spec: ContinuousTorusSpec) -> float:
    """min over the dual lattice of sum ((k_i + lam_i)/alpha_i)^2 (> 0)."""
    return sum((min(l, 1.0 - l) / a) ** 2 for a, l in zip(spec.alpha, spec.lam))


_MAX_ROW_TERMS = 2**15  # rows of a level, and its Bessel terms: every d <= 4 torus fits at s <= 10
_ZETA3 = 1.2020569031595942


def _line_row(c: float, s: float, lam: float, whole: bool, reach: float) -> float:
    """sum over k of (c^2 + (k + lam)^2)^{-s}, s > 1/2, without k = 0, -1 unless ``whole`` (never a zero term).
    Up to c = reach: 128 terms, then the binomial series (c^2 + v^2)^{-s} = sum_m C(-s, m) c^{2m} v^{-2s-2m} over
    v > 64 in Hurwitz zetas until a term is below 1e-17 of the sum (for c, s <= 10 each is below a quarter of the
    one before).  Beyond reach, the Poisson lead (its Bessel terms are dropped)."""
    ends = sum(w**-s for w in (c * c + lam * lam, c * c + (1.0 - lam) ** 2) if w > 0.0)
    if c > reach:
        return math.sqrt(math.pi) * math.exp(math.lgamma(s - 0.5) - math.lgamma(s)) * c ** (1 - 2 * s) - (0.0 if whole else ends)
    v = np.concatenate((np.arange(1, 65) + lam, np.arange(2, 66) - lam))
    acc, coeff = float(np.sum((c * c + v * v) ** -s)) + (ends if whole else 0.0), 1.0
    for m in range(20):
        term = coeff * c ** (2 * m) * (hurwitz_zeta(2 * s + 2 * m, 65 + lam) + hurwitz_zeta(2 * s + 2 * m, 66 - lam))
        acc += term
        if abs(term) < 1e-17 * acc:
            break
        coeff *= -(s + m) / (m + 1.0)
    return acc


def _clausen3(lam: float) -> float:
    """sum over m >= 1 of cos(2 pi m lam)/m^3 (no Bernoulli form) = Re Li_3(e^{i theta}), theta = 2 pi min(lam, 1 - lam):
    zeta(3) - theta^2 (3/2 - log theta)/2 - 2 theta^2 sum_j zeta(2j) (theta/2 pi)^{2j}/(2j (2j+1) (2j+2)).  Term j is
    below 2 pi^2 zeta(2) 4^{-j}/(8 j^3) at theta <= pi, so the terms past j = 22 add less than 1e-17."""
    theta = 2.0 * math.pi * min(lam, 1.0 - lam)
    t = (theta / (2.0 * math.pi)) ** 2
    series = sum(hurwitz_zeta(2.0 * j, 1.0) * t**j / (2 * j * (2 * j + 1) * (2 * j + 2)) for j in range(1, 23))
    return _ZETA3 - theta * theta * (0.5 * (1.5 - math.log(theta) if theta else 0.0) + 2.0 * series)


def _chowla_selberg(s: float, b: np.ndarray, lam: np.ndarray, deriv: bool = False, whole: bool = False) -> float:
    """Z(s) = sum over K of |((k_i + lam_i)/b_i)_i|^{-2s} (K != 0), or with ``deriv`` Z'(s), row by row after a
    Poisson sum over the direction p of largest b (Chowla-Selberg 1967, Elizalde 1998); b = alpha/(2 pi) gives
    zeta_EH.  Row K' of the rest, M = |((k_i + lam_i)/b_i)_{i != p}| and c = b_p M, adds 4 pi^s b_p^{2s}/Gamma(s)
    sum_{m >= 1} (m/c)^{s-1/2} K_{s-1/2}(2 pi m c) cos(2 pi m lam_p) to its lead; the leads add up to
    b_p sqrt(pi) Gamma(s-1/2)/Gamma(s) Z_{d-1}(s-1/2).  Terms with 2 pi m c > 42 + 2|s-1/2| (about e^{-39} of
    their row's lead for s <= 10) are dropped, so rows and terms are counted, and refused above the cap, first.
    * s > d/2: the corner rows (every k_i in {0, -1}) are summed directly and left out of the lead, so every
      Poisson row has c >= 1; Z leaves out its own corner terms too, unless ``whole``.
    * s = 0, -1/2, -1, -3/2 (d <= 4 at s = 0): every row is a Poisson row, and one with M = 0 a d = 1 sum.  At a
      pole -k of Gamma(s - 1/2), Z_{d-1}(-k) = 0: the lead takes the residue (-1)^k/k! times Z_{d-1}'(-k), and
      (1/Gamma)'(-j) = (-1)^j j!.  At s = 0 the rows are -log|1 - e^{-2 pi c + 2 pi i lam_p}|^2,
      summed as -log(expm1(-2 pi c)^2 + 4 e^{-2 pi c} sin^2(pi lam_p)), which does not cancel as c and lam_p go to 0.
    """
    i = int(np.argmax(b))
    bp, lp, b, lam = b[i], lam[i], np.delete(b, i), np.delete(lam, i)
    if not len(b) and s < 0:  # the d = 1 sums Z(-1/2) = -B_2/b, Z'(-1) and Z(-3/2) = -B_4/(2 b^3)
        if s < -1.5:  # no end at Z'(-2), which the derivative at 0 in d >= 5 would need: refused before any row
            raise PreconditionError(f"no d = 1 Chowla-Selberg end at s = {s}: the rows give the derivative at 0 in d <= 4")
        clausen = -_clausen3(lp) / (math.pi * bp) ** 2 if deriv else -((lp * (1.0 - lp)) ** 2 - 1.0 / 30.0) / (2.0 * bp**3)
        return -bernoulli_b2(lp) / bp if s == -0.5 else clausen
    rg = (-1) ** round(-s) * math.factorial(round(-s)) if deriv else reciprocal_gamma(s)
    pole, k = not deriv and s < 0, round(0.5 - s)
    coef = rg * ((-1) ** k / math.factorial(k) if pole else math.gamma(s - 0.5))  # of the lead, over b_p sqrt(pi)
    total = bp * math.sqrt(math.pi) * coef * _chowla_selberg(s - 0.5, b, lam, pole) if len(b) else 0.0
    reach = (42.0 + 2.0 * abs(s - 0.5)) / (2.0 * math.pi)
    axes = [np.arange(math.ceil(-reach * x / bp - l), math.floor(reach * x / bp - l) + 1) + l for x, l in zip(b, lam)]
    if (rows := math.prod(map(len, axes))) > _MAX_ROW_TERMS:
        raise PreconditionError(f"{rows} Chowla-Selberg rows, above the cap {_MAX_ROW_TERMS}")
    shifts = np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(b), rows)  # the rows' k_i + lam_i
    c = bp * np.sqrt(np.sum((shifts / b[:, None]) ** 2, axis=0))
    if deriv and s == 0.0:
        e = -2.0 * math.pi * c[c <= reach]
        return total - float(np.sum(np.log(np.expm1(e) ** 2 + 4.0 * np.exp(e) * sin_pi(lp) ** 2)))
    if s > 0:
        for u in itertools.product(*((x, 1.0 - x) for x in lam)):  # |k_i + lam_i| on the corner rows
            total += bp ** (2.0 * s) * _line_row(bp * math.hypot(*(np.array(u) / b)), s, lp, whole, reach)
        c = c[~np.all((shifts >= -1.0) & (shifts < 1.0), axis=0)]
    elif np.any(c == 0.0):
        total += _chowla_selberg(s, np.array([bp]), np.array([lp]), deriv)
    c = c[(c > 0.0) & (c <= reach)]
    if (count := np.floor(reach / c).astype(int)).sum() > _MAX_ROW_TERMS:
        raise PreconditionError(f"{count.sum()} Chowla-Selberg Bessel terms, above the cap {_MAX_ROW_TERMS}")
    c, m = np.repeat(c, count), np.arange(1, count.sum() + 1) - np.repeat(np.cumsum(count) - count, count)
    terms = (m / c) ** (s - 0.5) * bessel_k(s - 0.5, 2.0 * math.pi * m * c) * np.cos(2.0 * math.pi * m * lp)
    return total + 4.0 * math.pi**s * bp ** (2.0 * s) * rg * float(terms.sum())


def _rows_or_split(s: float, spec: ContinuousTorusSpec, method: str, quad: QuadratureSpec, deriv: bool) -> ZetaEvaluation:
    """The route rule of ``epstein_hurwitz_zeta`` and (``deriv``, at s = 0) ``epstein_hurwitz_deriv0``: ``"eigensum"``
    takes the rows or raises, ``"integral_split"`` the split, and ``"auto"`` the rows unless they are refused (s below
    d/2 + 0.25, a derivative in d >= 5, rows above the cap), the split then."""
    if method not in ("auto", "eigensum", "integral_split"):
        raise PreconditionError(f"unknown method {method!r}")
    if method != "integral_split":
        try:
            if not (deriv or s >= 0.5 * spec.d + 0.25):
                raise PreconditionError(f"the eigensum route needs s >= d/2 + 0.25, got d = {spec.d}, s = {s}")
            value = _chowla_selberg(s, np.array(spec.alpha) / (2.0 * math.pi), np.array(spec.lam), deriv, whole=True)
            nominal = 1e-12 * (1.0 + abs(value)) if deriv else (1e-13 if spec.d == 1 else 1e-12) * abs(value)
            return ZetaEvaluation(value, nominal, "eigensum")
        except PreconditionError:
            if method == "eigensum":
                raise
    rg = 1.0 if deriv else reciprocal_gamma(s)
    bracket, err = _eh_bracket(s, spec, quad)
    return ZetaEvaluation(rg * bracket, abs(rg) * err, "integral_split")


def epstein_hurwitz_zeta(s: float, spec: ContinuousTorusSpec, method: str = "auto", quad: QuadratureSpec | None = None) -> ZetaEvaluation:
    """Continuum spectral zeta  (2 pi)^{-2s} sum_K (sum_i ((k_i+lam_i)/alpha_i)^2)^{-s} (holonomy 1 is stored as 0).

    ``method="eigensum"`` (s >= d/2 + 0.25, the choice of ``"auto"`` there unless its rows pass the cap) is
    ``_chowla_selberg``, of bounded cost at every aspect ratio, with the nominal estimate 1e-13 |value| in d = 1
    and 1e-12 |value| above; ``"integral_split"`` is the Mellin split (``_eh_bracket``).  s must lie in [-2, 10],
    where both kept their stated accuracy: against mpmath at alpha in [0.01, 1e4] (d = 1; 1e-10 relative for the
    split) and at aspect ratios 1e-4 to 1e4 (d = 2, eigensum), and against each other at ratios 1e-6 to 1e6
    (d = 2) and 1e-3 to 1e3 (d = 3, 4).  Below -2 no route has been checked.
    """
    if not -2.0 <= s <= 10.0:
        raise PreconditionError(f"s must be finite and in [-2, 10], got {s}")
    _refuse_trivial(spec)
    if s == 0.5 * spec.d:
        raise PreconditionError(f"pole at s = d/2 = {0.5 * spec.d}")
    return _rows_or_split(s, spec, method, quad or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10), False)


_EH_DEPTH = 60.0  # the grid's ends drop below e^-60 of the closed term (head) and of theta(t0) (tail)


def _decay_end(p: float, offset: float) -> tuple[float, float]:
    """An x >= 2 max(p - 1, 5) where offset + the log of a bound on int_x^inf y^{p-1} e^{-y} dy,
    x^{p-1} e^{-x} / (1 - max(p - 1, 0)/x), is about -``_EH_DEPTH`` (four fixed-point steps), and that sum."""
    x = _EH_DEPTH
    for _ in range(4):
        x = max(_EH_DEPTH + offset + (p - 1.0) * math.log(x), 2.0 * max(p - 1.0, 5.0))
    return x, offset + (p - 1.0) * math.log(x) - x - math.log1p(-max(p - 1.0, 0.0) / x)


def _eh_bracket(s: float, spec: ContinuousTorusSpec, quad: QuadratureSpec) -> tuple[float, float]:
    """Gamma(s) times the continuum zeta by the Mellin split at t0, and its error estimate:

        int_0^t0 (theta(t) - prod(alpha) (4 pi t)^{-d/2}) t^{s-1} dt
        + int_t0^inf theta(t) t^{s-1} dt
        + prod(alpha) (4 pi)^{-d/2} t0^{s-d/2} / (s - d/2).

    t0 is 1 clamped into [T, 10 T], T = 1/rate the decay scale of theta, rate = 4 pi^2 min_freq.  The integrals are
    one ``quadrature._grid_sum`` over GK15 panels in log(t / t0), in units of t0 (the absolute tolerance is taken at
    the torus's scale): theta - L at the head nodes, theta at the tail nodes, in one numpy pass each.  The ends are
    fixed a priori: below t = alpha_min^2 / 4X the head drops at most 2.01 d prod(alpha) (4 pi)^{-d/2} int
    t^{s-1-d/2} e^{-alpha_min^2/4t} dt (each dual bracket is below 2 e^{-alpha_min^2/4t}), and past the last node t_n
    the tail at most theta(t_n) e^{rate t_n} int t^{s-1} e^{-rate t} dt (theta e^{rate t} does not grow).  The panels
    are halved while the estimate misses ``quad``, to width 1/16, then ``QuadratureError``.  With no zero mode the
    zeta vanishes at 0, so at s = 0 the bracket is the derivative.
    """
    d, rate = spec.d, 4.0 * math.pi**2 * _min_frequency(spec)
    t0 = min(max(1.0, 1.0 / rate), 10.0 / rate)
    closed, a, p = math.prod(spec.alpha) * (4.0 * math.pi * t0) ** (-0.5 * d), min(spec.alpha) ** 2 / (4.0 * t0), 0.5 * d - s
    (x, head_log), (y, tail_log) = _decay_end(p, math.log(2.01 * d) - p * math.log(a)), _decay_end(s, rate * t0 - s * math.log(rate * t0))
    lo, hi = -0.5 * max(1, math.ceil(2.0 * math.log(x / a))), 0.5 * max(1, math.ceil(2.0 * math.log(y / (rate * t0))))
    for width in (0.5, 0.25, 0.125, 0.0625):
        u, wk, wd = _log_time_panels(lo, hi, width)
        r, n = np.exp(u), 15 * round(-lo / width)
        f = np.concatenate((_theta_pair(spec, t0 * r[:n])[1], _theta_pair(spec, t0 * r[n:])[0]))
        dropped = closed * math.exp(head_log) + f[-1] * math.exp(rate * t0 * (r[-1] - 1.0) + tail_log)
        total, err = _grid_sum(f * r**s, wk, wd, [closed / (s - 0.5 * d)], dropped)
        if err <= (tol := max(quad.abs_tol, quad.rel_tol * abs(total))):
            return t0**s * total, t0**s * err
    msg = f"continuum zeta estimate {t0**s * err:.3g} above the tolerance {t0**s * tol:.3g} with panels of width {width}"
    raise QuadratureError(msg, value=t0**s * total, error_estimate=t0**s * err)


def epstein_hurwitz_deriv0(spec: ContinuousTorusSpec, method: str = "auto", quad: QuadratureSpec | None = None) -> ZetaEvaluation:
    """d/ds at s = 0 of the continuum spectral zeta.  ``method="eigensum"`` (d <= 4, the choice of ``"auto"`` there
    unless its rows pass the cap) is ``_chowla_selberg`` at s = 0 (``kronecker_deriv0`` in d = 2), with the nominal,
    not computed, estimate 1e-12 (1 + |value|); ``"integral_split"`` (``"auto"`` in d >= 5) is ``_eh_bracket`` at
    s = 0, where its closed-form term is -(2/d) prod(alpha) (4 pi t0)^{-d/2}, and the only route ``quad`` reaches.
    """
    _refuse_trivial(spec)
    return _rows_or_split(0.0, spec, method, quad or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11), True)


def kronecker_deriv0(alpha1: float, alpha2: float, lam1: float, lam2: float) -> float:
    """Kronecker's second limit formula, the derivative at 0 in d = 2: ``_chowla_selberg`` at s = 0, whose lead
    is -2 pi b_p Z_1(-1/2) = 2 pi rho B2(lam_q), rho = alpha_p/alpha_q >= 1.  It drops the factors of
    prod_n |1 - e^{2 pi i lam_p} e^{-2 pi rho |n + lam_q|}|^2 that differ from 1 by less than e^{-41}.
    """
    spec = ContinuousTorusSpec((alpha1, alpha2), (lam1, lam2))
    _refuse_trivial(spec)
    return _chowla_selberg(0.0, np.array(spec.alpha) / (2.0 * math.pi), np.array(spec.lam), True)


# ---------------------------------------------------------------------------
# spectral zeta of the integer lattice
# ---------------------------------------------------------------------------


def _lattice_bracket(s: float, d: int, quad: QuadratureSpec) -> tuple[float, float]:
    """Gamma(s) times the lattice zeta less its 1/s term, split at t = 1, and its error estimate: the adaptive
    cross-check of ``_lattice_sum`` (tests only)."""

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


_LOG_T_PANELS = (-8.0, 14.0, 0.5)  # u = log t from -8 to 14 in panels of width 1/2
_TAYLOR_TERMS, _ASYMPTOTIC_TERMS = 8, 4  # kept below t = e^-8 and above e^14; the next one is the estimate


@functools.cache
def _lattice_table() -> tuple[np.ndarray, ...]:
    """What the lattice zeta needs of (e^{-2t} I_0(2t))^d that depends on neither s nor d: the GK15 nodes t = e^u
    of ``_LOG_T_PANELS``, their Kronrod and Kronrod-less-Gauss weights in u, log(e^{-2t} I_0(2t)) at t < 1 and
    log(1 + r), r = sqrt(4 pi t) e^{-2t} I_0(2t) - 1, at t > 1, and in row d - 1 (d <= 10) the Taylor coefficients
    of (e^{-2t} I_0(2t))^d, from e^{-2t} I_0(2t) = sum_k (-1)^k C(2k, k) t^k / k!, and those of (1 + r)^d in 1/t."""
    u, wk, wd = _log_time_panels(*_LOG_T_PANELS)
    t = np.exp(u)
    logs = np.array([log_bessel_i0_scaled(2 * v) if v < 1 else math.log1p(bessel_i0_scaled_ratio_minus_one(2 * v)) for v in t])
    k, m = np.arange(_TAYLOR_TERMS + 2), np.arange(1, _ASYMPTOTIC_TERMS + 2)
    heat = (-1.0) ** k * np.array([math.comb(2 * j, j) / math.factorial(j) for j in k])
    ratio = np.cumprod(np.concatenate(([1.0], (2 * m - 1) ** 2 / (16.0 * m))))
    rows = [list(itertools.accumulate(range(9), lambda p, _, c=c: np.convolve(p, c)[: len(c)], initial=c)) for c in (heat, ratio)]
    return t, wk, wd, logs, *map(np.array, rows)


def _lattice_sum(s: float, d: int, extra: float, quad: QuadratureSpec) -> tuple[float, float]:
    """B + ``extra`` and its error estimate, B = Gamma(s) zeta_{Z^d}(s) - 1/s (the bracket of ``_lattice_bracket``)
    from ``_lattice_table``: in t^s dt/t, the Taylor series of (e^{-2t} I_0(2t))^d - 1 integrated exactly below e^-8,
    the Kronrod dot products of that function up to t = 1 and of (e^{-2t} I_0(2t))^d - (4 pi t)^{-d/2} (as
    (4 pi t)^{-d/2} expm1(d log1p r)) up to e^14, the 1/t series of the latter integrated exactly above, and the
    closed (4 pi)^{-d/2}/(d/2 - s).  The estimate adds |Kronrod - Gauss| over the panels, both series' first dropped
    terms and 4 eps of the parts' absolute sum (rounding; against mpmath the bracket kept 2.4 eps of it, d = 2..10).
    ``QuadratureError`` if it misses ``quad`` on the sum."""
    t, wk, wd, logs, taylor, asymptotic = _lattice_table()
    lo, hi, _ = _LOG_T_PANELS
    lead = (4.0 * math.pi) ** (-0.5 * d)
    f = np.expm1(d * logs) * np.where(t < 1.0, t**s, lead * t ** (s - 0.5 * d))
    k, m = np.arange(1, _TAYLOR_TERMS + 2), np.arange(1, _ASYMPTOTIC_TERMS + 2)
    below = taylor[d - 1, 1:] * np.exp(lo * (s + k)) / (s + k)
    above = lead * asymptotic[d - 1, 1:] * np.exp(hi * (s - 0.5 * d - m)) / (m + 0.5 * d - s)
    total, err = _grid_sum(f, wk, wd, np.r_[below[:-1], above[:-1], lead / (0.5 * d - s), extra], abs(below[-1]) + abs(above[-1]))
    if not err <= (tol := max(quad.abs_tol, quad.rel_tol * abs(total))):
        raise QuadratureError(f"lattice zeta estimate {err:.3g} above the tolerance {tol:.3g}", value=total, error_estimate=err)
    return total, err


def lattice_zeta(s: float, d: int, quad: QuadratureSpec | None = None) -> ZetaEvaluation:
    """Spectral zeta of the integer lattice in integer dimension d in 1..10.

    Implemented continuation window: -1 < s < d/2 + 1 with the pole at
    s = d/2 excluded.  In d = 1 it is the closed form Gamma(1 - 2s)/Gamma(1 - s)^2
    (0 at s = 1, its limit) and ``quad`` is not used; its estimate is a few ulps, 16 ulp
    of the value (against mpmath it kept 13 ulp over the window).  s = 0 returns the
    exact value 1 (``"closed_form"``).  Otherwise it is the Mellin integral on one fixed
    table (``_lattice_sum``, no adaptive quadrature), with a computed estimate (plus
    8 eps (1 + |log Gamma(s)|) of the value for 1/Gamma(s)); ``quad`` is the tolerance
    that estimate must meet on Gamma(s) zeta(s), or ``QuadratureError`` is raised.
    """
    d = _lattice_dimension(d)
    if s == 0.5 * d:
        raise PreconditionError(f"pole at s = d/2 = {0.5 * d}")
    if not (-1.0 < s < 0.5 * d + 1.0):
        raise PreconditionError(f"s = {s} outside the implemented continuation window (-1, {0.5 * d + 1.0}) for d = {d}")
    if d == 1:
        value = 0.0 if s == 1.0 else math.gamma(1.0 - 2.0 * s) / math.gamma(1.0 - s) ** 2
        return ZetaEvaluation(value, 16.0 * math.ulp(value), "closed_form")
    if s == 0.0:
        return ZetaEvaluation(1.0, 0.0, "closed_form")
    total, err = _lattice_sum(s, d, 1.0 / s, quad or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10))
    value = (rg := reciprocal_gamma(s)) * total
    rounding = 8.0 * math.ulp(1.0) * abs(value) * (1.0 + abs(math.lgamma(s)))  # 1/Gamma kept 4.7 eps of it
    return ZetaEvaluation(value, abs(rg) * err + rounding, "integral_split")


def lattice_zeta_deriv0(d: int) -> ZetaEvaluation:
    """d/ds at 0 of the lattice zeta (integer d in 1..10): Euler's gamma plus the bracket of ``lattice_zeta`` at
    s = 0 less its 1/s term, by ``_lattice_sum``; equals minus the lattice constant, so 0 exactly in d = 1."""
    if (d := _lattice_dimension(d)) == 1:
        return ZetaEvaluation(0.0, 0.0, "closed_form")
    return ZetaEvaluation(*_lattice_sum(0.0, d, EULER_GAMMA, QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)), "integral_split")


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
