"""Adaptive Gauss-Kronrod quadrature with semi-infinite tail substitutions.

Finite segments use the classical 7/15-point Gauss-Kronrod pair with
bisection driven by a worst-panel heap.  The unbounded tail [T, inf) is
folded onto (0, 1] with a substitution chosen from the tail class the
caller declares:

* exponential decay ``f ~ e^{-c t}``:  t = T - log(v)/c,
* power decay       ``f ~ t^{-p}``  :  t = T * v^{-1/(p-1)}  (p > 1).

``_mellin_split`` (head on (0, t0], tail on [t0, inf), closed-form terms) serves the log-det correction and
the lattice zeta's cross-check; the zeta brackets sum fixed GK15 grids in log t (``_log_time_panels``).

Non-convergence always raises; a value is never silently returned with an
unmet tolerance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, QuadratureError

_MAX_SUBDIVISIONS = 8000  # bisections of one finite interval before non-convergence is raised
# 15-point Kronrod nodes on [-1, 1] (nonnegative half; symmetric).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
# Kronrod weights matching _XGK.
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
# 7-point Gauss weights (even-index Kronrod nodes are the Gauss nodes).
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy budget for the adaptive integrators."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise PreconditionError(f"quadrature tolerances must be finite and > 0, got {self.abs_tol}, {self.rel_tol}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class TailRule:
    """Declared behavior of the integrand as t -> infinity."""

    kind: str  # "exp" or "power"
    rate: float  # c in e^{-c t}, or the exponent p in t^{-p} (p > 1)

    def __post_init__(self):
        if self.kind not in ("exp", "power"):
            raise PreconditionError(f"unknown tail kind {self.kind!r}")
        if self.kind == "exp" and not self.rate > 0:
            raise PreconditionError("exponential tail needs a positive rate")
        if self.kind == "power" and not self.rate > 1:
            raise PreconditionError("power tail needs exponent > 1")


def _kronrod_panel(f, a: float, b: float):
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fv = [0.0] * 15
    resk = 0.0
    resg = 0.0
    for i, x in enumerate(_XGK):
        if i == 7:
            fc = f(center)
            fv[7] = fc
            resk += _WGK[7] * fc
            resg += _WG[3] * fc
            continue
        f1 = f(center - half * x)
        f2 = f(center + half * x)
        fv[i] = f1
        fv[14 - i] = f2
        resk += _WGK[i] * (f1 + f2)
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fv[7] - reskh)
    for i in range(7):
        resasc += _WGK[i] * (abs(fv[i] - reskh) + abs(fv[14 - i] - reskh))
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, err


def integrate_interval(f, a: float, b: float, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Adaptive integral of f over the finite interval [a, b]."""
    spec = spec or QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError("integrate_interval needs finite endpoints")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    total, total_err = _kronrod_panel(f, a, b)
    heap = [(-total_err, a, b, total)]
    evals = 15
    splits = 0
    # the running error sum drifts (it can go negative), so a stop rests on the exact sum of the live panels
    while not (total_err <= (tol := max(spec.abs_tol, spec.rel_tol * abs(total)))
               and (total_err := math.fsum(-e for e, *_ in heap)) <= tol):
        if splits >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"quadrature did not converge after {splits} subdivisions: "
                f"value {total:.17g}, error estimate {total_err:.3g}",
                value=total,
                error_estimate=total_err,
            )
        neg_err, left, right, val = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        if mid <= left or mid >= right:
            # Panel width at rounding limit: cannot be refined further.
            raise QuadratureError(
                f"panel [{left:.17g}, {right:.17g}] reached rounding limit with "
                f"total error estimate {total_err:.3g} above tolerance",
                value=total,
                error_estimate=total_err,
            )
        v1, e1 = _kronrod_panel(f, left, mid)
        v2, e2 = _kronrod_panel(f, mid, right)
        evals += 30
        total += v1 + v2 - val
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, left, mid, v1))
        heapq.heappush(heap, (-e2, mid, right, v2))
        splits += 1

    return QuadratureResult(total, total_err, evals)


def _tail_cut(lower: float, tail: TailRule) -> float:
    if tail.kind == "exp":
        return lower + 30.0 / tail.rate
    return max(20.0, 2.0 * (lower + 1.0))


def integrate_semi_infinite(
    f,
    lower: float,
    spec: QuadratureSpec | None = None,
    tail: TailRule | None = None,
) -> QuadratureResult:
    """Integral of f over [lower, infinity).

    ``tail`` declares the decay class at infinity (defaults to exponential
    with rate 1).
    """
    spec = spec or QuadratureSpec()
    tail = tail or TailRule("exp", 1.0)
    if lower < 0 or not math.isfinite(lower):
        raise PreconditionError("lower limit must be finite and >= 0")

    cut = _tail_cut(lower, tail)
    sub_spec = QuadratureSpec(spec.abs_tol / 3.0, spec.rel_tol / 2.0)
    head = integrate_interval(f, lower, cut, sub_spec)
    if tail.kind == "exp":

        def tail_integrand(v, c=tail.rate):
            return f(cut - math.log(v) / c) / (c * v)

    else:
        e = 1.0 / (tail.rate - 1.0)

        def tail_integrand(v):
            return f(cut * v**-e) * e * cut * v ** (-e - 1.0)

    try:
        res = integrate_interval(tail_integrand, 0.0, 1.0, sub_spec)
    except OverflowError as exc:  # cut v^{-e} passes the float range near v = 0 when p is close to 1
        raise QuadratureError(f"the power-tail substitution overflowed: {exc}", value=head.value) from exc
    value = head.value + res.value
    error = head.error_estimate + res.error_estimate
    evals = head.evaluations + res.evaluations

    if error > max(spec.abs_tol, spec.rel_tol * abs(value)):
        raise QuadratureError(
            f"semi-infinite quadrature error estimate {error:.3g} exceeds tolerance",
            value=value,
            error_estimate=error,
        )
    return QuadratureResult(value, error, evals)


def _log_time_panels(lo: float, hi: float, width: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The GK15 nodes u of the panels of ``width`` tiling [lo, hi], panel by panel, their Kronrod weights and their
    Kronrod-less-Gauss-7 weights."""
    n = round((hi - lo) / width)
    x, wg = np.array(_XGK[:7]), np.zeros(15)
    wg[1::2] = _WG + _WG[2::-1]
    wk = np.array(_WGK + _WGK[6::-1])
    u = lo + width * (np.arange(n)[:, None] + 0.5 + 0.5 * np.concatenate((-x, [0.0], x[::-1])))
    return u.ravel(), np.tile(wk, n) * (0.5 * width), np.tile(wk - wg, n) * (0.5 * width)


def _grid_sum(f: np.ndarray, wk: np.ndarray, wd: np.ndarray, known: np.ndarray, dropped: float) -> tuple[float, float]:
    """sum(wk f) + sum(known) by one ``math.fsum``, and its estimate: |Kronrod - Gauss-7| summed over the panels,
    plus ``dropped`` (the mass past the grid's ends), plus 4 eps of the parts' absolute sum (rounding)."""
    parts, gaps = np.concatenate((wk * f, known)), (wd * f).reshape(-1, 15).sum(axis=1)
    return math.fsum(parts.tolist()), float(np.abs(gaps).sum() + dropped + 4.0 * math.ulp(1.0) * np.abs(parts).sum())


def _mellin_split(head, tail, rule: TailRule, t0: float, known, spec: QuadratureSpec) -> tuple[float, float]:
    """int_0^t0 head + int_t0^inf tail + sum(known), and its error estimate.

    Each integral is asked for at ``spec``; ``rule`` declares the tail's decay.
    The estimate is the sum of the two quadrature estimates, or the rounding
    eps (|head| + |tail| + sum |known|) where the bracket cancels more, so a
    cancelled bracket cannot report 0.
    """
    lo = integrate_interval(head, 0.0, t0, spec)
    hi = integrate_semi_infinite(tail, t0, spec, tail=rule)
    parts = (lo.value, hi.value, *known)
    cancellation = math.ulp(1.0) * sum(abs(p) for p in parts)
    return sum(parts), max(lo.error_estimate + hi.error_estimate, cancellation)
