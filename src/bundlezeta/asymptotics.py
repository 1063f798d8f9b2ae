"""Limit-theorem harness: exact log-determinant decomposition, residuals of
the determinant and spectral-zeta asymptotics, rescaled-theta convergence,
and the root-splitting product formula for torus determinants.

``log_det`` and ``log_det_star`` collapse the longest torus direction k in
closed form: for x = 2 cosh(theta) - 2,

    prod_j (x + 4 sin^2(pi (j + lam) / a)) = 4 sinh^2(a theta / 2) + 4 sin^2(pi lam),

so log det is a ``math.fsum`` over the N / a_k transverse eigenvalues x,
in O(N / a_max) time and memory.  Everything built on them (``log_f``,
``product_formula_check``, ``logdet_limit_residuals``, ``logdet_correction``,
the CLI ``detlog``) takes this route; the sorted closed-form spectrum
``torus_eigenvalues`` and the dense LU ``log_det_lu`` are the independent
routes that check it.

``log_f`` is the determinant functional used by the product formula: the
determinant of the bundle Laplacian of a torus carrying one twisted edge
per direction, falling back to the product of nonzero eigenvalues when
every twist is trivial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundle_graph import TorusBundleSpec, _holonomy_of_row, _one_twist_rows, _refuse_above_cap, _refuse_trivial, build_torus, laplacian, line_spectrum, outer_spectrum
from .errors import PreconditionError, _count
from .heat_theta import ContinuousTorusSpec, theta_continuous, theta_discrete, theta_discrete_minus_leading
from .quadrature import QuadratureSpec, TailRule, _mellin_split, integrate_semi_infinite
from .special_functions import sin_pi
from .zeta import (
    _scaled_i0_power,
    epstein_hurwitz_deriv0,
    epstein_hurwitz_zeta,
    lattice_constant_eval,
    lattice_zeta,
    torus_zeta,
)

@dataclass(frozen=True)
class TorusFamily:
    """Torus bundles with sides a_i(n) = round(alpha_i n), n an integer >= 1, and continuum limit (alpha, lam).

    The whole holonomy of each direction sits on a single edge, so the
    holonomies stay constant along the family.
    """

    limit: ContinuousTorusSpec

    def spec(self, n: int) -> TorusBundleSpec:
        n = _count(n, "family size n")
        sides = tuple(round(m * n) for m in self.limit.alpha)
        return TorusBundleSpec.single_twist(self.limit.d, sides, self.limit.lam)

    @staticmethod
    def from_multipliers(multipliers: Sequence[float], lam: Sequence[float]) -> "TorusFamily":
        """Family a_i(n) = round(m_i n), converging to alpha = multipliers."""
        return TorusFamily(ContinuousTorusSpec(multipliers, lam))


@dataclass(frozen=True)
class ResidualSeries:
    ns: tuple[int, ...]
    residuals: tuple[float, ...]
    slope: float | None

    @staticmethod
    def fit(ns: Sequence[int], residuals: Sequence[float]) -> "ResidualSeries":
        ns = tuple(_count(n, "a family size") for n in ns)
        res = tuple(float(r) for r in residuals)
        if len(ns) != len(res):
            raise PreconditionError("ns and residuals must align")
        slope = None
        if len(ns) >= 2 and all(abs(r) > 1e-300 for r in res):
            slope = float(
                np.polyfit(np.log(np.array(ns, dtype=float)), np.log(np.abs(res)), 1)[0]
            )
        return ResidualSeries(ns, res, slope)


# ---------------------------------------------------------------------------
# log-determinants
# ---------------------------------------------------------------------------


def _collapse(spec: TorusBundleSpec) -> tuple[np.ndarray, int, float]:
    """The N / a_k eigenvalues x of all directions but the longest, k, with (a_k, lam_k)."""
    k = spec.a.index(max(spec.a))
    rest = [i for i in range(spec.d) if i != k]
    x = outer_spectrum([spec.a[i] for i in rest], [spec.holonomies[i] for i in rest])
    return x, spec.a[k], spec.holonomies[k]


def _line_log_dets(x: np.ndarray, a: int, lam: float) -> np.ndarray:
    """log prod_j (x + 4 sin^2(pi (j + lam) / a)) for each transverse eigenvalue x.

    With x = 2 cosh(theta) - 2 and y = a theta the product is
    4 sinh^2(y/2) + 4 sin^2(pi lam), which has no cancellation; beyond
    y = 30 the equal form y + log1p(e^{-2y} - 2 cos(2 pi lam) e^{-y})
    cannot overflow.
    """
    y = 2.0 * a * np.arcsinh(0.5 * np.sqrt(x))
    small = y <= 30.0
    out = np.empty_like(y)
    out[small] = np.log(4.0 * np.sinh(0.5 * y[small]) ** 2 + 4.0 * sin_pi(lam) ** 2)
    e = np.exp(-y[~small])
    out[~small] = y[~small] + np.log1p(e * e - 2.0 * math.cos(2.0 * math.pi * lam) * e)
    return out


def _sum_logs(terms: np.ndarray) -> float:
    """Exactly rounded sum of the line terms; a zero eigenvalue shows as -inf."""
    if not np.all(np.isfinite(terms)):
        raise PreconditionError("nonpositive eigenvalue encountered")
    return math.fsum(terms.tolist())


def log_det(spec: TorusBundleSpec) -> float:
    """log det of the bundle Laplacian, with the longest direction collapsed in closed form.

    The product over that direction's a_k eigenvalues is taken exactly
    (``_line_log_dets``), leaving N / a_k line terms summed with
    ``math.fsum``: O(N / a_max) time and memory, no N-element array.
    ``torus_eigenvalues`` stays the independent route (sum of N logs).
    """
    _refuse_trivial(spec)
    return _sum_logs(_line_log_dets(*_collapse(spec)))


def log_det_lu(spec: TorusBundleSpec) -> float:
    """Independent LU route through the dense assembled Laplacian (refused above ``MAX_DENSE_BYTES``).

    Peaks at a little over twice the matrix (2.3 times at 44 x 45): ``slogdet`` copies it for the LU.
    """
    sign, logabs = laplacian(build_torus(spec)).slogdet()
    if abs(sign - 1.0) > 1e-6:
        raise PreconditionError(f"determinant is not positive real (sign {sign})")
    return logabs


def log_det_star(spec: TorusBundleSpec) -> float:
    """log of the product of nonzero eigenvalues of the trivial bundle.

    Same collapse as ``log_det``; the transverse zero mode x[0] = 0 is the
    one line holding the zero eigenvalue, and its nonzero eigenvalues
    multiply to prod_{j=1}^{a-1} 4 sin^2(pi j / a) = a^2.
    """
    if not spec.is_trivial:
        raise PreconditionError("log_det_star is only defined for the trivial bundle")
    x, a, _ = _collapse(spec)
    return _sum_logs(np.append(_line_log_dets(x[1:], a, 0.0), 2.0 * math.log(a)))


def log_f(sides: Sequence[int], z: Sequence[complex]) -> float:
    """Determinant functional of the one-twisted-edge-per-direction torus.

    Dispatches to the nonzero-eigenvalue product when every twist is
    trivial (its spectrum then contains the single zero mode).
    """
    if len(z) != len(sides):
        raise PreconditionError("need one twist per direction")
    spec = TorusBundleSpec(len(sides), sides, _one_twist_rows(len(sides), sides, z))
    if spec.is_trivial:
        return log_det_star(spec)
    return log_det(spec)


# ---------------------------------------------------------------------------
# exact decomposition of log det
# ---------------------------------------------------------------------------


def logdet_correction(spec: TorusBundleSpec) -> float:
    """log det minus (number of vertices) times the lattice constant."""
    c_d, _ = lattice_constant_eval(spec.d)
    return log_det(spec) - spec.vertex_count * c_d


def logdet_correction_integral(spec: TorusBundleSpec) -> float:
    """The same correction from its defining heat-trace integral

        - int_0^inf (theta(t) - N (e^{-2t} I_0(2t))^d) dt/t,   N = prod a_i,

    as one Mellin split at t = 1 whose third piece is N int_1^inf (e^{-2t} I_0(2t))^d dt/t.
    Exactness of the decomposition means this must agree with the
    algebraic route to quadrature accuracy.
    """
    _refuse_trivial(spec)
    quad = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
    d = spec.d
    # the smallest eigenvalue: the sum of the smallest line eigenvalues
    evs_min = sum(float(line_spectrum(a, lam).min()) for a, lam in zip(spec.a, spec.holonomies))
    lead_tail = integrate_semi_infinite(
        lambda t: _scaled_i0_power(d, t) / t, 1.0, quad, tail=TailRule("power", 0.5 * d + 1.0)
    )
    value, _ = _mellin_split(
        lambda t: theta_discrete_minus_leading(spec, t) / t,
        lambda t: theta_discrete(spec, t) / t,
        TailRule("exp", evs_min),
        1.0,
        (-spec.vertex_count * lead_tail.value,),
        quad,
    )
    return -value


# ---------------------------------------------------------------------------
# residual series for the limit theorems
# ---------------------------------------------------------------------------


def logdet_limit_residuals(family: TorusFamily, ns: Sequence[int]) -> ResidualSeries:
    """r(n) = log det - N(n) c_d + zeta_EH'(0) for the family's limit."""
    deriv0 = epstein_hurwitz_deriv0(family.limit).value  # refuses a limit with only trivial holonomies
    c_d, _ = lattice_constant_eval(family.limit.d)
    residuals = []
    for n in ns:
        spec = family.spec(n)
        residuals.append(log_det(spec) - spec.vertex_count * c_d + deriv0)
    return ResidualSeries.fit(ns, residuals)


def zeta_limit_residuals(family: TorusFamily, s: float, ns: Sequence[int]) -> ResidualSeries:
    """Normalized spectral-zeta residuals

        r(n) = (zeta_torus(s) - N(n) zeta_lattice(s) - zeta_EH(s) n^{2s}) / n^{2s}.
    """
    d = family.limit.d
    if not (0.0 < s < 0.5 * d):
        raise PreconditionError(
            f"implemented residual window is 0 < s < d/2; got s = {s} for d = {d}"
        )
    lattice = lattice_zeta(s, d).value
    continuum = epstein_hurwitz_zeta(s, family.limit).value
    residuals = []
    for n in ns:
        spec = family.spec(n)
        value = torus_zeta(s, spec).real
        scale = float(n) ** (2.0 * s)
        residuals.append((value - spec.vertex_count * lattice - continuum * scale) / scale)
    return ResidualSeries.fit(ns, residuals)


def rescaled_theta_gap(family: TorusFamily, n: int, t: float) -> float:
    """|theta_discrete(n^2 t) - theta_continuous(t)| along the family; t finite and > 0."""
    return abs(theta_continuous(family.limit, t) - theta_discrete(family.spec(n), float(n) ** 2 * t))


# ---------------------------------------------------------------------------
# product formula
# ---------------------------------------------------------------------------


def product_formula_check(m: Sequence[int], n: int, z: Sequence[complex]) -> tuple[float, float]:
    """log of both sides of the root-splitting determinant identity

        F_{(m_1 n, ..., m_d n)}(z) = prod over all root tuples u_i^{m_i} = z_i
                                     of F_{(n, ..., n)}(u_1, ..., u_d).

    Returns (log lhs, log rhs); the identity is exact, so the two must
    agree to float accumulation error.  Every m_i and n must be an integer
    >= 1; the cap bounds the prod(m_i) root tuples as well as the product torus.
    """
    m, n = tuple(_count(x, "a multiplier m_i") for x in m), _count(n, "base size n")
    _refuse_above_cap(math.prod(mi * n for mi in m), "product-torus vertices")

    lhs = log_f(tuple(mi * n for mi in m), z)

    lam = [_holonomy_of_row((w,)) for w in z]
    rhs = 0.0
    for ks in np.ndindex(*m):
        roots = [
            cmath.exp(2j * math.pi * (k + li) / mi) for k, li, mi in zip(ks, lam, m)
        ]
        rhs += log_f((n,) * len(m), roots)
    return lhs, rhs
