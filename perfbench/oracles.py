"""Reference values for the benchmark, computed without bundlezeta.

Nothing here imports the package under test.  Each function says which
identity or textbook formula it evaluates; ``selftest.py`` checks every one
of them against an independent value on a small case.  scipy and mpmath
are imported lazily, so the worker process that runs the timed operations
never loads them.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import combinations

import numpy as np

EPS = 2.0**-52
CATALAN = 0.915965594177219015054603514932384110774
EULER_GAMMA = 0.577215664901532860606512090082402431


# ---------------------------------------------------------------------------
# closed-form spectra and the one-direction collapse
# ---------------------------------------------------------------------------


def line_spectrum(a: int, lam: float) -> np.ndarray:
    """4 sin^2(pi (j + lam) / a), j = 0..a-1, reduced so small values keep full relative accuracy."""
    x = (np.arange(a, dtype=float) + lam) / a
    return 4.0 * np.sin(np.pi * (x - np.rint(x))) ** 2


def torus_spectrum(sides, lams) -> np.ndarray:
    """All eigenvalues sum_i 4 sin^2(pi (j_i + lam_i) / a_i) (unsorted)."""
    total = np.zeros(1)
    for a, lam in zip(sides, lams):
        total = (total[:, None] + line_spectrum(a, lam)[None, :]).ravel()
    return total


def collapsed_line_logs(x: np.ndarray, a: int, lam: float) -> np.ndarray:
    """log prod_j (x + 4 sin^2(pi (j + lam)/a)) = log(2 cosh(a theta) - 2 cos 2 pi lam), x = 2 cosh theta - 2.

    2 cosh(a theta) - 2 cos(2 pi lam) = 4 sinh^2(a theta / 2) + 4 sin^2(pi lam) has no cancellation;
    for large a theta the form a theta + log|1 - e^{-a theta + 2 pi i lam}|^2 avoids overflow.
    """
    theta = 2.0 * np.arcsinh(np.sqrt(np.maximum(x, 0.0)) / 2.0)
    y = a * theta
    lam_r = lam - round(lam)
    s2 = 4.0 * math.sin(math.pi * lam_r) ** 2
    small = y <= 30.0
    out = np.empty_like(y)
    ys = y[small]
    out[small] = np.log(4.0 * np.sinh(0.5 * ys) ** 2 + s2)
    yl = y[~small]
    e = np.exp(-yl)
    out[~small] = yl + np.log1p(e * e - 2.0 * math.cos(2.0 * math.pi * lam_r) * e)
    return out


def log_det_collapse(sides, lams) -> tuple[float, float]:
    """log det of the torus bundle Laplacian by collapsing the last direction.

    Returns (value, rounding bound).  Each of the N/a_d line terms is a
    closed form; the terms are summed exactly with math.fsum.
    """
    sides = tuple(int(a) for a in sides)
    x = torus_spectrum(sides[:-1], lams[:-1])
    terms = collapsed_line_logs(x, sides[-1], lams[-1])
    if not np.all(np.isfinite(terms)):
        raise ValueError("zero mode: use log_det_star_collapse")
    n_vertices = math.prod(sides)
    bound = EPS * (4.0 * (len(sides) + 2) * n_vertices + 16.0 * float(np.abs(terms).sum()))
    return math.fsum(terms.tolist()), bound


def log_det_star_collapse(sides) -> tuple[float, float]:
    """log of the product of nonzero eigenvalues of the trivial bundle.

    Lines with x > 0 use the collapse identity at lam = 0; the x = 0 line
    contributes prod_{j=1}^{a-1} 4 sin^2(pi j / a) = a^2.
    """
    sides = tuple(int(a) for a in sides)
    x = torus_spectrum(sides[:-1], [0.0] * (len(sides) - 1))
    zero = int(np.argmin(x))
    rest = np.delete(x, zero)
    terms = collapsed_line_logs(rest, sides[-1], 0.0).tolist()
    terms.append(2.0 * math.log(sides[-1]))
    n_vertices = math.prod(sides)
    bound = EPS * (4.0 * (len(sides) + 2) * n_vertices + 16.0 * sum(abs(t) for t in terms))
    return math.fsum(terms), bound


def logsum_rounding_bound(sides, lams) -> float:
    """Rounding bound for a pairwise float64 sum of the N logs of the closed-form eigenvalues."""
    evs = torus_spectrum(sides, lams)
    evs = evs[evs > 0]
    n = evs.size
    abs_logs = float(np.abs(np.log(evs)).sum())
    return EPS * (4.0 * (len(sides) + 2) * n + (math.ceil(math.log2(max(n, 2))) + 2) * abs_logs)


def torus_zeta_eigensum(s: complex, sides, lams) -> tuple[complex, float]:
    """sum over eigenvalues of ev^{-s}, real and imaginary parts summed with fsum; with a rounding bound."""
    evs = torus_spectrum(sides, lams)
    logs = np.log(evs)
    terms = np.exp(-complex(s) * logs)
    value = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    n = evs.size
    growth = math.ceil(math.log2(max(n, 2))) + 8 + abs(complex(s)) * float(np.abs(logs).max())
    bound = 8.0 * EPS * growth * float(np.abs(terms).sum())
    return value, bound


def holonomy_of(weights) -> float:
    """arg(prod of weights) / 2 pi folded into [0, 1)."""
    turns = sum(cmath.phase(w) for w in weights) / (2.0 * math.pi)
    lam = turns - math.floor(turns)
    return 0.0 if lam >= 1.0 else lam


# ---------------------------------------------------------------------------
# dense Laplacian assembled here, and what is computed from it
# ---------------------------------------------------------------------------


def torus_edges(sides, weights):
    """Cayley edges (tails, heads, weights): vertex v (row-major) emits its +e_i edge for i = 0..d-1, in that order."""
    sides = tuple(int(a) for a in sides)
    n = math.prod(sides)
    coords = np.indices(sides).reshape(len(sides), n)
    idx = np.arange(n).reshape(sides)
    tails = np.repeat(np.arange(n), len(sides))
    heads = np.stack([np.roll(idx, -1, axis=i).ravel() for i in range(len(sides))], axis=1).ravel()
    ws = np.stack(
        [np.asarray(weights[i], dtype=complex)[coords[i]] for i in range(len(sides))], axis=1
    ).ravel()
    return n, tails, heads, ws


def dense_laplacian(n: int, tails, heads, ws) -> np.ndarray:
    """(L f)(v) = sum over edge-ends at v of f(v) - w_{u->v} f(u); reversed orientation carries 1/w."""
    tails = np.asarray(tails)
    heads = np.asarray(heads)
    ws = np.asarray(ws, dtype=complex)
    m = np.zeros((n, n), dtype=complex)
    np.add.at(m, (tails, tails), 1.0)
    np.add.at(m, (heads, heads), 1.0)
    np.add.at(m, (heads, tails), -ws)
    np.add.at(m, (tails, heads), -1.0 / ws)
    return m


def slogdet_bound(m: np.ndarray, kappa: float) -> tuple[float, float]:
    """(log |det|, bound) of a Hermitian positive definite matrix with condition number kappa.

    The bound is N kappa (8 N eps): first-order change of log det under a
    backward error of 8 N eps ||L|| in LU with partial pivoting.
    """
    _, logabs = np.linalg.slogdet(m)
    n = m.shape[0]
    return float(logabs), 8.0 * n * n * kappa * EPS


def heat_column_eigh(m: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """Column 0 of exp(-t L) by the dense Hermitian eigensolver, with an error bound."""
    evals, vecs = np.linalg.eigh(m)
    col = (vecs * np.exp(-t * evals)) @ vecs.conj()[0, :]
    n = m.shape[0]
    norm = float(np.abs(evals).max())
    bound = 16.0 * n * EPS * (1.0 + t * norm)
    return col, bound


# ---------------------------------------------------------------------------
# cycle-rooted spanning forests, enumerated here by brute force
# ---------------------------------------------------------------------------


def _components(n_vertices, endpoints, subset):
    parent = list(range(n_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in subset:
        a, b = endpoints[e]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    edges_in = {}
    verts_in = {}
    for v in range(n_vertices):
        r = find(v)
        verts_in[r] = verts_in.get(r, 0) + 1
    for e in subset:
        r = find(endpoints[e][0])
        edges_in[r] = edges_in.get(r, 0) + 1
    return verts_in, edges_in


def is_crsf(n_vertices, endpoints, subset) -> bool:
    """N edges, and every connected component has as many edges as vertices (one cycle)."""
    if len(subset) != n_vertices:
        return False
    verts_in, edges_in = _components(n_vertices, endpoints, subset)
    return all(edges_in.get(r, 0) == k for r, k in verts_in.items())


@lru_cache(maxsize=None)
def crsf_count(n_vertices: int, endpoints: tuple) -> int:
    """Number of CRSFs, by testing every N-edge subset."""
    return sum(
        1 for sub in combinations(range(len(endpoints)), n_vertices) if is_crsf(n_vertices, endpoints, sub)
    )


def cycle_phases(n_vertices, endpoints, phases, subset) -> list[float]:
    """Monodromy phase of each cycle of a CRSF, found by stripping leaves and walking the rest."""
    incident = {v: [] for v in range(n_vertices)}
    for e in subset:
        a, b = endpoints[e]
        incident[a].append(e)
        incident[b].append(e)
    alive = set(subset)
    deg = {v: len(es) for v, es in incident.items()}
    leaves = [v for v, k in deg.items() if k == 1]
    while leaves:
        v = leaves.pop()
        if deg[v] != 1:
            continue
        e = next(x for x in incident[v] if x in alive)
        alive.discard(e)
        a, b = endpoints[e]
        u = b if a == v else a
        deg[v] -= 1
        deg[u] -= 1
        if deg[u] == 1:
            leaves.append(u)
    out = []
    while alive:
        e0 = min(alive)
        start, v = endpoints[e0]
        total = phases[e0]
        alive.discard(e0)
        while v != start:
            e = next(x for x in incident[v] if x in alive)
            alive.discard(e)
            a, b = endpoints[e]
            total += phases[e] if a == v else -phases[e]
            v = b if a == v else a
        out.append(total)
    return out


def forest_summary(n_vertices, endpoints, weights, edge_subsets) -> tuple[int, int, int, float]:
    """(forests, malformed, duplicates, fsum of prod over cycles of 2 - 2 cos(phase))."""
    phases = [math.atan2(w.imag, w.real) for w in weights]
    seen = set()
    bad = 0
    dup = 0
    terms = []
    for sub in edge_subsets:
        key = tuple(sorted(sub))
        if key in seen:
            dup += 1
        seen.add(key)
        if not is_crsf(n_vertices, endpoints, key):
            bad += 1
            continue
        w = 1.0
        for ph in cycle_phases(n_vertices, endpoints, phases, key):
            w *= 2.0 - 2.0 * math.cos(ph)
        terms.append(w)
    return len(seen) + dup, bad, dup, math.fsum(terms)


def kenyon_bound(n_forests: int, n_vertices: int, det: float) -> float:
    """Rounding bound for a float64 sum of n_forests cycle products whose exact total is det >= 0.

    Each cycle phase carries at most 2 pi N eps, each factor 2 - 2 cos is at
    most 4 with absolute error 4 N eps, and a forest has at most N/2 cycles.
    """
    per_forest = 4.0 ** (n_vertices // 2) * (8.0 * n_vertices + 8.0) * EPS
    return n_forests * per_forest + 4.0 * EPS * n_forests * abs(det)


# ---------------------------------------------------------------------------
# theta functions
# ---------------------------------------------------------------------------


def theta_line(alpha: float, lam: float, t: float) -> float:
    """sum over k of exp(-4 pi^2 t (k + lam)^2 / alpha^2) (or its Poisson dual for small t), fsum."""
    rate = 4.0 * math.pi**2 * t / alpha**2
    if rate >= 0.5:
        reach = int(math.ceil(math.sqrt(46.0 / rate))) + 2
        k = np.arange(-reach, reach + 1) - round(lam)
        return math.fsum(np.exp(-rate * (k + lam) ** 2).tolist())
    lead = alpha / math.sqrt(4.0 * math.pi * t)
    reach = int(math.ceil(math.sqrt(46.0 * 4.0 * t) / alpha)) + 2
    k = np.arange(1, reach + 1)
    tail = 2.0 * np.exp(-((alpha * k) ** 2) / (4.0 * t)) * np.cos(2.0 * math.pi * lam * k)
    return lead * (1.0 + math.fsum(tail.tolist()))


def theta_product(alphas, lams, t: float) -> float:
    return math.prod(theta_line(a, l, t) for a, l in zip(alphas, lams))


def theta_discrete(sides, lams, t: float) -> float:
    """Trace of exp(-t L): product over directions of sum_j exp(-t 4 sin^2(pi (j + lam)/a))."""
    return math.prod(
        math.fsum(np.exp(-t * line_spectrum(a, l)).tolist()) for a, l in zip(sides, lams)
    )


# ---------------------------------------------------------------------------
# lattice constant and integer-lattice zeta (scipy quad with i0e)
# ---------------------------------------------------------------------------


def _scaled_i0_power_minus_one(d: int, t: float) -> float:
    """(e^{-2t} I0(2t))^d - 1 without cancellation: series of log I0 for small t."""
    from scipy.special import i0e

    if t < 0.1:
        q = t * t
        series = q * (1.0 + q * (0.25 + q * (1.0 / 36.0 + q * (1.0 / 576.0 + q / 14400.0))))
        return math.expm1(d * (math.log1p(series) - 2.0 * t))
    return float(i0e(2.0 * t)) ** d - 1.0


def _scaled_i0_power_minus_lead(d: int, t: float) -> float:
    """(e^{-2t} I0(2t))^d - (4 pi t)^{-d/2}; for t >= 50 from the large-argument series of I0,
    so the difference keeps its relative accuracy where the integrand is a tiny remainder."""
    from scipy.special import i0e

    lead = (4.0 * math.pi * t) ** (-0.5 * d)
    if t < 50.0:
        return float(i0e(2.0 * t)) ** d - lead
    x = 2.0 * t
    term = 1.0
    r = 0.0
    for k in range(1, 30):
        term *= (2 * k - 1) ** 2 / (8.0 * k * x)
        r += term
        if term < 1e-18 * r:
            break
    return lead * math.expm1(d * math.log1p(r))


def _quad(f, a, b, **kw):
    from scipy.integrate import quad

    value, err = quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=400, **kw)
    return value, err


def lattice_constant_quad(d: int) -> tuple[float, float]:
    """c_d = -int_0^inf ((e^{-2t} I0(2t))^d - e^{-t}) dt / t by scipy quad; returns (value, error)."""
    from scipy.special import exp1

    lead = (4.0 * math.pi) ** (-0.5 * d)
    head, e1 = _quad(lambda t: (_scaled_i0_power_minus_one(d, t) - math.expm1(-t)) / t, 0.0, 1.0)
    tail, e2 = _quad(lambda t: _scaled_i0_power_minus_lead(d, t) / t, 1.0, np.inf)
    value = head + tail + lead * 2.0 / d - float(exp1(1.0))
    return -value, e1 + e2 + 8.0 * EPS


def lattice_constant(d: int) -> tuple[float, float]:
    """c_d with its error: 0 for d = 1 and 4G/pi for d = 2 exactly, scipy quad above."""
    if d == 1:
        return 0.0, 0.0
    if d == 2:
        return 4.0 * CATALAN / math.pi, 4.0 * EPS
    return lattice_constant_quad(d)


def lattice_mellin(s: float, d: int) -> tuple[float, float, float]:
    """Integer-lattice spectral zeta by its Mellin form, continued to -1 < s < d/2 + 1.

    zeta(s) = (1/Gamma(s)) [ int_0^1 t^{s-1} (f - 1) dt + 1/s
                             + int_1^inf t^{s-1} (f - (4 pi t)^{-d/2}) dt + (4 pi)^{-d/2} / (d/2 - s) ],
    f = (e^{-2t} I0(2t))^d.  At s = 0 the bracket is the derivative at 0 less
    Euler's gamma.  Returns (value, error, |first integral| + |second integral|).
    """
    lead = (4.0 * math.pi) ** (-0.5 * d)
    # (f - 1)/t is smooth on [0, 1]; the t^s factor is handled by the algebraic weight
    head, e1 = _quad(
        lambda t: _scaled_i0_power_minus_one(d, t) / t if t > 0.0 else -2.0 * d,
        0.0,
        1.0,
        weight="alg",
        wvar=(s, 0.0),
    )
    tail, e2 = _quad(lambda t: _scaled_i0_power_minus_lead(d, t) * t ** (s - 1.0), 1.0, np.inf)
    pieces = abs(head) + abs(tail)
    if s == 0.0:
        value = EULER_GAMMA + head + tail + lead * 2.0 / d
        return value, e1 + e2 + 8.0 * EPS * (pieces + 1.0), pieces
    bracket = head + 1.0 / s + tail + lead / (0.5 * d - s)
    rg = 1.0 / math.gamma(s)
    value = rg * bracket
    return value, abs(rg) * (e1 + e2) + 16.0 * EPS * abs(value), pieces


def lattice_zeta(s: float, d: int) -> tuple[float, float, float]:
    """(value, error, Mellin pieces) of the lattice zeta; d = 1 uses Gamma(1-2s)/Gamma(1-s)^2."""
    value, err, pieces = lattice_mellin(s, d)
    if d == 1:
        value = math.gamma(1.0 - 2.0 * s) / math.gamma(1.0 - s) ** 2
        err = 16.0 * EPS * abs(value)
    return value, err, pieces


# ---------------------------------------------------------------------------
# Epstein-Hurwitz zeta of the continuum torus
# ---------------------------------------------------------------------------


def eh_zeta_d1(s: float, alpha: float, lam: float) -> tuple[float, float]:
    """(alpha / 2 pi)^{2s} [zeta(2s, lam) + zeta(2s, 1 - lam)] with mpmath."""
    import mpmath

    with mpmath.workdps(30):
        lam_m = mpmath.mpf(lam)
        v = (mpmath.mpf(alpha) / (2 * mpmath.pi)) ** (2 * s) * (
            mpmath.zeta(2 * s, lam_m) + mpmath.zeta(2 * s, 1 - lam_m)
        )
    value = float(v)
    return value, 4.0 * EPS * abs(value)


def eh_zeta_d2(s: float, alphas, lams) -> tuple[float, float]:
    """Chowla-Selberg expansion of (2 pi)^{-2s} sum_K ((k1+l1)^2/a1^2 + (k2+l2)^2/a2^2)^{-s}.

    Poisson summation over k2 turns each row into a Hurwitz-zeta term plus
    K-Bessel terms that decay like exp(-2 pi m a2 |k1 + l1| / a1).  This is
    the analytic continuation for every real s other than the pole s = 1.
    """
    import mpmath
    from scipy.special import kv

    a1, a2 = (float(a) for a in alphas)
    l1, l2 = (float(x) for x in lams)
    l1 = 0.0 if l1 == 1.0 else l1
    l2 = 0.0 if l2 == 1.0 else l2
    with mpmath.workdps(30):
        gs = mpmath.gamma(s)
        lead = a2 * mpmath.sqrt(mpmath.pi) * mpmath.gamma(s - 0.5) / gs * mpmath.mpf(a1) ** (2 * s - 1)
        if l1 == 0.0:
            if l2 == 0.0:
                raise ValueError("both holonomies trivial: zero mode")
            # the k1 = 0 row has u = 0: a one-dimensional Hurwitz sum of its own
            hur = 2 * mpmath.zeta(2 * s - 1, 1)
            zero_row = mpmath.mpf(a2) ** (2 * s) * (mpmath.zeta(2 * s, l2) + mpmath.zeta(2 * s, 1 - l2))
        else:
            hur = mpmath.zeta(2 * s - 1, l1) + mpmath.zeta(2 * s - 1, 1 - l1)
            zero_row = 0
        total = lead * hur + zero_row
        coef = float(4.0 * mpmath.pi**s / gs * mpmath.mpf(a2) ** (2 * s))
    nu = s - 0.5
    bessel_terms = []
    reach = int(math.ceil(40.0 * a1 / (2.0 * math.pi * a2))) + 3
    for k1 in range(-reach, reach + 1):
        u = abs(k1 + l1) / a1
        if u == 0.0:
            continue
        c = a2 * u
        m_max = int(math.ceil(40.0 / (2.0 * math.pi * c))) + 2
        m = np.arange(1, m_max + 1)
        terms = (m / c) ** nu * kv(nu, 2.0 * math.pi * m * c) * np.cos(2.0 * math.pi * m * l2)
        bessel_terms.extend((coef * terms).tolist())
    total_f = float(total) + math.fsum(bessel_terms)
    value = (2.0 * math.pi) ** (-2.0 * s) * total_f
    bound = 64.0 * EPS * (2.0 * math.pi) ** (-2.0 * s) * (abs(float(total)) + sum(abs(x) for x in bessel_terms))
    return value, bound


def eh_deriv0_d1(lam: float) -> float:
    """-2 log(2 sin(pi lam)); independent of alpha."""
    return -2.0 * math.log(2.0 * math.sin(math.pi * lam))


def kronecker_d2(alpha1: float, alpha2: float, lam1: float, lam2: float) -> float:
    """Kronecker second limit formula: 2 pi rho B2(lam2) - sum_n log|1 - e^{2 pi i lam1} e^{-2 pi rho |n + lam2|}|^2."""
    rho = alpha1 / alpha2
    reach = int(math.ceil(40.0 / (2.0 * math.pi * rho))) + 2
    n = np.arange(-reach, reach + 1, dtype=float)
    q = np.exp(-2.0 * math.pi * rho * np.abs(n + lam2)) * np.exp(2j * math.pi * lam1)
    logs = np.log(np.abs(1.0 - q) ** 2)
    b2 = lam2 * lam2 - lam2 + 1.0 / 6.0
    return 2.0 * math.pi * rho * b2 - math.fsum(logs.tolist())


def eh_mellin(s: float, alphas, lams) -> tuple[float, float, float]:
    """Continuum zeta by the Mellin transform of theta split at t = 1 (scipy quad).

    Returns (value, error, |head| + |tail|), where the head integrates theta
    minus its leading term over (0, 1] and the tail theta over [1, inf).
    """
    d = len(alphas)
    vol = math.prod(alphas)

    def head(t):
        lead = vol * (4.0 * math.pi * t) ** (-0.5 * d)
        q = 0.0
        for a, l in zip(alphas, lams):
            reach = int(math.ceil(math.sqrt(46.0 * 4.0 * t) / a)) + 2
            k = np.arange(1, reach + 1)
            b = 2.0 * float(np.sum(np.exp(-((a * k) ** 2) / (4.0 * t)) * np.cos(2.0 * math.pi * l * k)))
            q = q * (1.0 + b) + b
        return lead * q * t ** (s - 1.0)

    h, e1 = _quad(head, 0.0, 1.0)
    tl, e2 = _quad(lambda t: theta_product(alphas, lams, t) * t ** (s - 1.0), 1.0, np.inf)
    lead_term = vol * (4.0 * math.pi) ** (-0.5 * d)
    pieces = abs(h) + abs(tl)
    if s == 0.0:
        value = h + tl - (2.0 / d) * lead_term
        return value, e1 + e2 + 8.0 * EPS * pieces, pieces
    rg = 1.0 / math.gamma(s)
    value = rg * (h + tl + lead_term / (s - 0.5 * d))
    return value, abs(rg) * (e1 + e2) + 16.0 * EPS * abs(value), pieces


def theta_discrete_tail(sides, lams) -> tuple[float, float]:
    """int_1^inf theta_discrete(t) dt / t (scipy quad): a piece of the exact log-det decomposition."""
    value, err = _quad(lambda t: theta_discrete(sides, lams, t) / t, 1.0, np.inf)
    return value, err


def scaled_i0_tail(d: int) -> tuple[float, float]:
    """int_1^inf (e^{-2t} I0(2t))^d dt / t (scipy quad)."""
    from scipy.special import i0e

    return _quad(lambda t: float(i0e(2.0 * t)) ** d / t, 1.0, np.inf)
