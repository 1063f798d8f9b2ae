"""Scaled modified Bessel functions, Hurwitz zeta and gamma-family helpers.

The Bessel evaluator returns the exponentially scaled function
``e^{-x} I_n(x)`` so that the huge time arguments appearing in rescaled
heat-kernel sums never overflow.  Branch layout:

* ``x <= 35``           -- all-positive power series (no cancellation),
* ``n >= 1000``         -- uniform large-order (Debye) expansion,
* ``x >= 2 n^2 + 35``   -- large-argument asymptotic series,
* otherwise             -- backward (Miller) recurrence normalised with
                           ``e^{-x}(I_0 + 2 sum_{k>=1} I_k) = 1``.

Hurwitz zeta uses Euler-Maclaurin with a fixed Bernoulli table; for real
``s`` in ``[0.25, 8]`` away from the pole at 1 its error stays at a few
rounding units of the terms summed (measured range in ``hurwitz_zeta``).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PreconditionError, SeriesTruncationError, _count

# B_2, B_4, ..., B_24 as exact fractions evaluated in double precision.
_BERNOULLI_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
)


def sin_pi(x: float) -> float:
    """sin(pi*x) with argument reduction done on x itself.

    Keeps full relative accuracy when x sits close to an integer, which the
    eigenvalue products need (4 sin^2 terms appear inside logarithms).
    """
    n = round(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


# ---------------------------------------------------------------------------
# Scaled modified Bessel function of the first kind
# ---------------------------------------------------------------------------

_SERIES_CUTOFF = 35.0
_DEBYE_MIN_ORDER = 1000
_MILLER_MAX_START = 20_000_000


def _bessel_series_scaled(n: int, x: float) -> float:
    # e^{-x} (x/2)^n / n! * sum_j (x/2)^{2j} / (j! (n+1)_j); all terms >= 0.
    half = 0.5 * x
    if n <= 20:
        lead = half**n / math.factorial(n) * math.exp(-x)
    else:
        log_lead = n * math.log(half) - math.lgamma(n + 1.0) - x
        if log_lead < -745.0:
            return 0.0
        lead = math.exp(log_lead)
    if lead == 0.0:
        return 0.0
    term = 1.0
    total = 1.0
    hh = half * half
    for j in range(1, 400):
        term *= hh / (j * (j + n))
        total += term
        if term < 1e-18 * total:
            break
    return lead * total


def _bessel_asymptotic_scaled(n: int, x: float) -> float:
    # e^{-x} I_n(x) ~ (2 pi x)^{-1/2} sum_k (-1)^k a_k(n)/x^k, valid x >> n^2.
    mu = 4.0 * n * n
    term = 1.0
    total = 1.0
    prev = math.inf
    for k in range(1, 80):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(term) >= prev:
            break  # asymptotic series started diverging; stop at best term
        total += term
        prev = abs(term)
        if prev < 1e-17 * abs(total):
            break
    return total / math.sqrt(2.0 * math.pi * x)


def _debye_u(k: int, p: float) -> float:
    if k == 0:
        return 1.0
    if k == 1:
        return (3.0 * p - 5.0 * p**3) / 24.0
    if k == 2:
        return (81.0 * p**2 - 462.0 * p**4 + 385.0 * p**6) / 1152.0
    if k == 3:
        return (
            30375.0 * p**3 - 369603.0 * p**5 + 765765.0 * p**7 - 425425.0 * p**9
        ) / 414720.0
    return (
        4465125.0 * p**4
        - 94121676.0 * p**6
        + 349922430.0 * p**8
        - 446185740.0 * p**10
        + 185910725.0 * p**12
    ) / 39813120.0


def _bessel_debye_scaled(n: int, x: float) -> float:
    # Uniform large-order expansion of e^{-x} I_n(x); machine precision for
    # n >= ~1000 at any x > 0.
    nu = float(n)
    root = math.hypot(nu, x)
    # eta = root - x + nu log(x / (nu + root)), with root - x = nu^2 / (root + x)
    # so that neither term cancels when x >> nu
    gap = nu * nu / (root + x)
    eta = gap - nu * math.log1p((nu + gap) / x)
    if eta < -745.0:
        return 0.0
    p = nu / root
    total = 0.0
    for k in range(5):
        total += _debye_u(k, p) / nu**k
    return math.exp(eta) * total / math.sqrt(2.0 * math.pi * root)


def _miller_start_index(nmax: int, x: float) -> int:
    # Start high enough that the spurious solution has decayed by e^{-45}
    # relative to the largest order we report.
    def log_scale(m: float) -> float:
        root = math.hypot(m, x)
        return root + m * math.log(x / (m + root)) if m > 0 else x

    base = max(nmax, int(x))
    ref = log_scale(max(nmax, 1))
    m = base + 10
    step = max(8, int(math.sqrt(base) + 0.5))
    while log_scale(m) - ref > -45.0:
        m += step
        if m > _MILLER_MAX_START:
            raise SeriesTruncationError(
                f"backward recurrence start index above {_MILLER_MAX_START} "
                f"for order {nmax}, argument {x}"
            )
    return m


def _bessel_miller_scaled(nmax: int, x: float) -> np.ndarray:
    m = _miller_start_index(nmax, x)
    values = np.zeros(nmax + 1)
    high = 0.0
    cur = 1e-290
    norm = 0.0
    for k in range(m, -1, -1):
        nxt = high + (2.0 * (k + 1) / x) * cur
        high, cur = cur, nxt
        if k <= nmax:
            values[k] = cur
        if k > 0:
            norm += 2.0 * cur
        else:
            norm += cur
        if abs(cur) > 1e280:
            cur *= 1e-280
            high *= 1e-280
            norm *= 1e-280
            values *= 1e-280
    return values / norm


def _bessel_order(order: int, x: float) -> int:
    """The order as an int, once it is an integer >= 0 and x is finite and >= 0."""
    n = _count(order, "order", 0)
    if not 0.0 <= x < math.inf:
        raise PreconditionError(f"argument must be finite and >= 0, got {x}")
    return n


def bessel_i_scaled(order: int, x: float) -> float:
    """e^{-x} I_order(x) for integer order >= 0 and real x >= 0.

    Always in [0, 1]; accurate to ~1e-13 relative across the supported
    range (order <= 1e6, any finite x).  Callers map negative orders via
    I_{-n} = I_n.
    """
    n = _bessel_order(order, x)
    if n > 10**6:
        raise PreconditionError(f"order {n} above supported cap 1e6")
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x <= _SERIES_CUTOFF:
        return _bessel_series_scaled(n, x)
    if n >= _DEBYE_MIN_ORDER:
        return _bessel_debye_scaled(n, x)
    if x >= 2.0 * n * n + 35.0:
        return _bessel_asymptotic_scaled(n, x)
    return float(_bessel_miller_scaled(n, x)[n])


def bessel_i_scaled_many(max_order: int, x: float) -> np.ndarray:
    """Array of e^{-x} I_n(x) for n = 0..max_order at a shared argument (0 past the first underflow)."""
    top = _bessel_order(max_order, x)
    out = np.zeros(top + 1)
    if x <= _SERIES_CUTOFF:
        first, each = 0, _bessel_series_scaled
    else:
        first, each = min(top + 1, _DEBYE_MIN_ORDER), _bessel_debye_scaled
        out[:first] = _bessel_miller_scaled(first - 1, x)
    for n in range(first, top + 1):
        out[n] = each(n, x)
        if out[n] == 0.0:
            break
    return out


def bessel_i_complex(order: int, z: complex) -> complex:
    """Unscaled I_order(z) for integer order >= 0 and complex z by power series (|z| <= 60)."""
    n = _count(order, "order", 0)
    z = complex(z)
    if not abs(z) <= 60.0:
        raise PreconditionError(
            f"complex-argument series limited to |z| <= 60, got |z| = {abs(z):g}"
        )
    if z == 0:
        return complex(1.0 if n == 0 else 0.0)
    quarter = 0.25 * z * z
    if n <= 150:
        lead = (0.5 * z) ** n / math.gamma(n + 1)
    else:
        lead = cmath.exp(n * cmath.log(0.5 * z) - math.lgamma(n + 1.0))
    term = complex(1.0)
    total = complex(1.0)
    for j in range(1, 500):
        term *= quarter / (j * (j + n))
        total += term
        if abs(term) < 1e-20 * (1.0 + abs(total)):
            break
    return lead * total


def bessel_i0_scaled_ratio_minus_one(x: float) -> float:
    """sqrt(2 pi x) e^{-x} I_0(x) - 1, free of cancellation from x = 35.

    For x >= 35 this is the large-argument series with its leading 1
    dropped (all terms positive); subtracting the leading power of the
    integer-lattice heat integrand through this helper keeps full relative
    accuracy at arbitrarily large times.  Against mpmath, below 35 (where it
    subtracts 1) the absolute error is at most 11 eps and the relative one
    up to 2.8e3 eps; from 35 the relative error is at most 4 eps.
    """
    if not x > 0:
        raise PreconditionError("needs x > 0")
    if x < _SERIES_CUTOFF:
        return math.sqrt(2.0 * math.pi * x) * bessel_i_scaled(0, x) - 1.0
    term = 1.0
    total = 0.0
    prev = math.inf
    for k in range(1, 80):
        term *= (2 * k - 1) ** 2 / (8.0 * k * x)
        if term >= prev:
            break
        total += term
        prev = term
        if term < 1e-17 * (1.0 + total):
            break
    return total


def log_bessel_i0_scaled(x: float) -> float:
    """log(e^{-x} I_0(x)), accurate also when x is tiny."""
    if x < 0:
        raise PreconditionError("argument must be nonnegative")
    if x <= 0.1:
        t = 0.25 * x * x  # I_0(x) = sum (x^2/4)^j / (j!)^2
        series = t * (1.0 + t * (0.25 + t * (1.0 / 36.0 + t / 576.0)))
        return math.log1p(series) - x
    return math.log(bessel_i_scaled(0, x))


def bessel_k(nu: float, x: np.ndarray) -> np.ndarray:
    """K_nu(x) at a 1-D array of x: the trapezoid rule on int_0^inf e^{-x cosh u} cosh(nu u) du.

    The integrand is analytic in a strip and decays double-exponentially: the step 0.5/sqrt(max x + |nu|)
    leaves a strip error below rounding, and the grid ends at the first node u_end past where x (cosh u - 1)
    reaches 45 + 8 |nu| at the smallest x; an x where e^{-x} underflows (above ~745) reads 0 and sizes nothing.
    Refused: a non-finite nu, any x not finite and > 0, and |nu| u_end > 700, where cosh(nu u) would overflow
    (nu = 100 at x = 1; nu = -2 below x = 1.2e-150).
    Against mpmath, one vector call per order: within 9e-16 relative over x in [1e-12, 700] for nu in
    {-2.5, -2, -1.5, -1, -0.5, 0, 0.5, 2.5}, 1.3e-15 for nu = 9.5 and 15; within 5e-15 over x in [1, 700]
    for nu in [-0.5, 30], and 8e-15 at x = 1 up to nu = 90.
    """
    if not (math.isfinite(nu) and np.all((x > 0.0) & (x < math.inf))):
        raise PreconditionError(f"bessel_k needs a finite order and every argument finite and > 0, got order {nu}")
    out, live = np.zeros(x.shape), np.exp(-x) > 0.0  # K_nu(x) reads 0 where e^{-x} underflows; the rest size the grid
    x = x[live]
    h = min(0.2, 0.5 / math.sqrt(x.max(initial=1.0) + abs(nu)))
    steps = math.acosh(1.0 + (45.0 + 8.0 * abs(nu)) / float(x.min(initial=np.inf))) / h  # inf below x ~ 1e-307
    if not (steps < math.inf and abs(nu) * (h * (int(steps) + 1)) <= 700.0):
        raise PreconditionError(f"bessel_k of order {nu} at x = {x.min(initial=math.inf):g}: cosh(nu u) overflows on its grid")
    u = h * np.arange(int(steps) + 2)
    u = np.concatenate((-u[:0:-1], u))  # the even integrand over the whole line, halved below
    # x (cosh u - 1) = 2 x sinh^2(u/2), without cancellation at small u
    out[live] = 0.5 * h * (np.exp(-2.0 * x[:, None] * np.sinh(0.5 * u) ** 2) @ np.cosh(nu * u)) * np.exp(-x)
    return out


# ---------------------------------------------------------------------------
# Hurwitz zeta and reciprocal gamma
# ---------------------------------------------------------------------------


def reciprocal_gamma(s: float) -> float:
    """1/Gamma(s) on the real line, zero at the poles s = 0, -1, -2, ..."""
    if s > 0:
        return math.exp(-math.lgamma(s))
    if s == math.floor(s):
        return 0.0
    # reflection: 1/Gamma(s) = Gamma(1-s) sin(pi s)/pi
    return math.exp(math.lgamma(1.0 - s)) * sin_pi(s) / math.pi


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta(s, a) for real s >= -2, s != 1, and finite a > 0 (Euler-Maclaurin).

    Measured against 40-digit mpmath for a in [0.01, 65]: for s in
    [0.25, 8] the error is within 1e-14 relative, or 5e-15 absolute where
    zeta(s, a) is near a zero in s (1.7e-13 relative at s = 0.5, a = 0.3,
    where the value is 0.011).  Below s = 0 the explicit sum cancels: the
    worst relative error is 1.8e-13 at s = -0.25, 1.1e-12 at -1 and
    3.7e-11 at -2.  Below s = -2 it is refused before summing (it would be
    4.5e-10 off at -3 and 1.2e-4 at -6).  Every call in the package has
    s >= 1.5, at a = 1 (zeta(2j), 2j <= 44) or, in the binomial tails of the
    Chowla-Selberg rows, a in [65, 66] (s <= 60): within 9e-16 relative of
    80-100 digit mpmath for s in [6, 44] at a in [0.01, 2] and [8, 60] at [64, 66].
    """
    if s == 1.0:
        raise PreconditionError("hurwitz_zeta has a pole at s = 1")
    if not s >= -2.0:
        raise PreconditionError(f"hurwitz_zeta is refused below s = -2 (its error grows to 1.2e-4 at s = -6), got s = {s}")
    if not 0 < a < math.inf:
        raise PreconditionError(f"hurwitz_zeta requires a finite a > 0, got {a}")
    # keep the shifted argument just large enough for the Bernoulli tail;
    # a smaller explicit sum limits cancellation when s <= 0
    n_terms = max(0, int(math.ceil(max(14.0, 1.6 * abs(s) + 8.0) - a)))
    total = 0.0
    for k in range(n_terms):
        total += (k + a) ** (-s)
    big = n_terms + a
    total += big ** (1.0 - s) / (s - 1.0)
    total += 0.5 * big ** (-s)
    # Bernoulli correction sum: B_{2j}/(2j)! * (s)_{2j-1} * big^{-s-2j+1}
    poch = s  # (s)_1
    power = big ** (-s - 1.0)
    fact = 2.0  # (2j)! running value, j = 1
    inv_big2 = 1.0 / (big * big)
    for j, b2j in enumerate(_BERNOULLI_EVEN, start=1):
        total += b2j / fact * poch * power
        poch *= (s + 2.0 * j - 1.0) * (s + 2.0 * j)
        power *= inv_big2
        fact *= (2.0 * j + 1.0) * (2.0 * j + 2.0)
    return total
