"""Reference value and tolerance for every case, and the check of an output against them.

An expectation maps each number an operation returns, by its path, to
(target, tolerance).  Targets come from ``oracles.py`` or from an exact
property (zeta_torus(0) = N, zeta_torus(-1) = 2dN, lhs = rhs of the product
formula, a count of forests).  A tolerance is the sum of the program's
stated accuracy (the quadrature tolerance a function asks for, its
documented truncation or series accuracy, or a float64 rounding bound for
a closed-form sum) and the oracle's own error bound.  No target is a copy of
an earlier output of the program.
"""

from __future__ import annotations

import cmath
import json
import math
from functools import lru_cache

import numpy as np

import oracles as o
import workloads
from oracles import EPS


def _listed(targets, tols) -> dict:
    return {str(i): (float(t), float(e)) for i, (t, e) in enumerate(zip(targets, tols))}


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def log_det(sides, lams) -> tuple[float, float]:
    """(log det, tolerance for the program's eigenvalue-sum route)."""
    if all(l == 0.0 for l in lams):
        value, bound = o.log_det_star_collapse(sides)
    else:
        value, bound = o.log_det_collapse(sides, lams)
    return value, bound + o.logsum_rounding_bound(sides, lams)


def lu_bound(sides, lams) -> float:
    """LU rounding bound with the condition number taken from the closed-form spectrum."""
    evs = o.torus_spectrum(sides, lams)
    n = evs.size
    return 8.0 * n * n * float(evs.max() / evs.min()) * EPS


@lru_cache(maxsize=None)
def lattice_constant(d: int) -> tuple[float, float]:
    return o.lattice_constant(d)


def quad_tol(abs_tol, rel_tol, pieces, parts=2, scale=1.0) -> float:
    """What an integral split into `parts` adaptive pieces promises: each within max(abs_tol, rel_tol |piece|)."""
    return abs(scale) * (parts * abs_tol + rel_tol * pieces)


def eh_deriv0(alphas, lams) -> tuple[float, float]:
    """(zeta'(0), tolerance of the program's Poisson-dual route: abs 1e-12, rel 1e-11, two integrals)."""
    mel, mel_err, pieces = o.eh_mellin(0.0, alphas, lams)
    canon = tuple(0.0 if l == 1.0 else l for l in lams)
    if len(alphas) == 1:
        value, err = o.eh_deriv0_d1(canon[0]), 8.0 * EPS
    elif len(alphas) == 2:
        value, err = o.kronecker_d2(alphas[0], alphas[1], canon[0], canon[1]), 64.0 * EPS
    else:
        value, err = mel, mel_err
    return value, quad_tol(1e-12, 1e-11, pieces) + err


def eh_zeta(s, alphas, lams) -> tuple[float, float, float]:
    """(value, oracle error, Mellin pieces) of the continuum zeta."""
    if len(alphas) == 1:
        value, err = o.eh_zeta_d1(s, alphas[0], lams[0])
    else:
        value, err = o.eh_zeta_d2(s, alphas, lams)
    _, _, pieces = o.eh_mellin(s, alphas, lams)
    return value, err, pieces


def eh_integral_tol(s, pieces) -> float:
    """epstein_hurwitz_zeta(method='integral_split') asks abs 1e-12, rel 1e-10 of two integrals, times 1/Gamma(s)."""
    return quad_tol(1e-12, 1e-10, pieces, scale=1.0 / math.gamma(s))


def lattice_zeta_tol(s, pieces) -> float:
    """lattice_zeta asks abs 1e-11, rel 1e-10 of two integrals, times 1/Gamma(s)."""
    return quad_tol(1e-11, 1e-10, pieces, scale=1.0 / math.gamma(s))


def slope_expect(ns, residuals, tols) -> tuple[float, float]:
    """Least-squares slope of log|r| on log n, and the first-order bound from the residual tolerances."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.abs(np.asarray(residuals)))
    xc = x - x.mean()
    w = xc / float(np.sum(xc * xc))
    slope = float(np.sum(w * y))
    bound = float(np.sum(np.abs(w) * np.asarray(tols) / np.abs(np.asarray(residuals))))
    return slope, bound + 1e-12 * (1.0 + abs(slope))


def theta_tol(alphas, lams, t) -> float:
    """Rounding bound for a product of one-dimensional Gaussian or Poisson-dual sums."""
    total = 1.0
    terms = 0.0
    for a, l in zip(alphas, lams):
        lead = a / math.sqrt(4.0 * math.pi * t)
        total *= o.theta_line(a, l, t) + lead
        terms += 4.0 + math.sqrt(184.0 * t) / a + math.sqrt(46.0 * a * a / (4.0 * math.pi**2 * t))
    return 64.0 * EPS * total * terms


def weights_of(turns):
    return [[workloads.unit(x) for x in row] for row in turns]


def dense_of(sides, weights):
    return o.dense_laplacian(*o.torus_edges(sides, weights))


def det_of(m) -> tuple[float, float]:
    """det of a Hermitian matrix as the product of its eigenvalues, with a first-order error bound."""
    evs = np.linalg.eigvalsh(m)
    n = m.shape[0]
    det = float(np.prod(evs))
    norm = float(np.abs(evs).max())
    return det, abs(det) * n * EPS * 8.0 * norm * float(np.sum(1.0 / np.abs(evs))) + 64.0 * EPS * abs(det)


@lru_cache(maxsize=None)
def crsf_count_for(sides) -> int:
    n, tails, heads, _ = o.torus_edges(sides, [[1.0] * a for a in sides])
    return o.crsf_count(n, tuple(zip(tails.tolist(), heads.tolist())))


def single_twist_weights(sides, lams):
    return [[1.0 + 0.0j] * (a - 1) + [cmath.exp(2j * math.pi * l)] for a, l in zip(sides, lams)]


# ---------------------------------------------------------------------------
# per kind
# ---------------------------------------------------------------------------


def _thm11(p):
    d = len(p["alpha"])
    c, c_err = lattice_constant(d)
    deriv, deriv_tol = eh_deriv0(p["alpha"], p["lam"])
    res, tols = [], []
    for n in p["ns"]:
        sides = tuple(int(round(m * n)) for m in p["alpha"])
        ld, ld_tol = log_det(sides, tuple(p["lam"]))
        nv = math.prod(sides)
        res.append(ld - nv * c + deriv)
        tols.append(ld_tol + nv * (max(1e-11, 1e-11 * abs(c)) + c_err) + deriv_tol + 4.0 * EPS * abs(ld))
    slope, slope_tol = slope_expect(p["ns"], res, tols)
    return _listed(res + [slope], tols + [slope_tol])


def _thm13(p):
    d = len(p["alpha"])
    s = p["s"]
    lat, lat_err, lat_pieces = o.lattice_zeta(s, d)
    lat_tol = lattice_zeta_tol(s, lat_pieces) + lat_err
    eh, eh_err, eh_pieces = eh_zeta(s, p["alpha"], p["lam"])
    eh_tol = eh_integral_tol(s, eh_pieces) + eh_err
    res, tols = [], []
    for n in p["ns"]:
        sides = tuple(int(round(m * n)) for m in p["alpha"])
        z, z_bound = o.torus_zeta_eigensum(s, sides, p["lam"])
        nv = math.prod(sides)
        scale = float(n) ** (2.0 * s)
        res.append((z.real - nv * lat - eh * scale) / scale)
        tols.append((3.0 * z_bound + nv * lat_tol + eh_tol * scale) / scale + 8.0 * EPS * (abs(z) + nv * abs(lat)) / scale)
    slope, slope_tol = slope_expect(p["ns"], res, tols)
    return _listed(res + [slope], tols + [slope_tol])


def _product_formula(p):
    m, n, lam = p["m"], p["n"], tuple(p["turns"])
    lhs, lhs_tol = log_det(tuple(mi * n for mi in m), lam)
    rhs_tol = 0.0
    for ks in np.ndindex(*m):
        roots = tuple((k + l) / mi for k, l, mi in zip(ks, lam, m))
        value, tol = log_det((n,) * len(m), roots)
        rhs_tol += tol + 4.0 * EPS * abs(value) * len(ks)
    return _listed([lhs, lhs], [lhs_tol, lhs_tol + rhs_tol])


def _torus_zeta(p):
    sides, lam, s = tuple(p["sides"]), tuple(p["lam"]), p["s"]
    value, bound = o.torus_zeta_eigensum(s, sides, lam)
    nv = math.prod(sides)
    if s == 0.0:
        value = complex(nv)
    elif s == -1.0:
        value = complex(2 * len(sides) * nv)  # trace of L: every vertex has degree 2d when all sides are >= 2
    tol = 2.0 * bound
    return _listed([value.real, value.imag], [tol, tol])


def _lattice_zeta(p):
    value, err, pieces = o.lattice_zeta(p["s"], p["d"])
    return _listed([value], [lattice_zeta_tol(p["s"], pieces) + err])


def _lattice_constant(p):
    c, c_err = lattice_constant(p["d"])
    return _listed([c], [max(1e-11, 1e-11 * abs(c)) + c_err])  # lattice_constant asks abs = rel = 1e-11


def _lattice_deriv0(p):
    c, c_err = lattice_constant(p["d"])
    _, _, pieces = o.lattice_mellin(0.0, p["d"])
    return _listed([-c], [quad_tol(1e-11, 1e-11, pieces) + c_err])


def _eh_zeta(p):
    s = p["s"]
    value, err, pieces = eh_zeta(s, p["alpha"], p["lam"])
    if p["method"] == "eigensum":
        tol = (1e-13 if len(p["alpha"]) == 1 else 1e-12) * abs(value)  # the route's stated relative accuracy
    else:
        tol = eh_integral_tol(s, pieces)
    return _listed([value], [tol + err])


def _correction_integral(p):
    sides, lam = tuple(p["sides"]), tuple(p["lam"])
    d = len(sides)
    nv = math.prod(sides)
    c, c_err = lattice_constant(d)
    ld, ld_tol = log_det(sides, lam)
    target = ld - nv * c
    theta_tail, e1 = o.theta_discrete_tail(sides, lam)
    lead_tail, e2 = o.scaled_i0_tail(d)
    head = -target - theta_tail + nv * lead_tail
    pieces = abs(head) + abs(theta_tail) + nv * abs(lead_tail)
    tol = quad_tol(1e-9, 1e-9, pieces, parts=3) + ld_tol + nv * c_err + e1 + nv * e2
    return _listed([target], [tol])


def _build_torus(p):
    n, tails, heads, ws = o.torus_edges(p["sides"], weights_of(p["turns"]))
    flat = [n]
    for a, b, w in zip(tails.tolist(), heads.tolist(), ws.tolist()):
        flat += [a, b, w.real, w.imag]
    return _listed(flat, [0.0] * len(flat))


def _crsf_det(p):
    m = dense_of(p["sides"], weights_of(p["turns"]))
    det, det_err = det_of(m)
    count = crsf_count_for(tuple(p["sides"]))
    return det, det_err + o.kenyon_bound(count, m.shape[0], det), count


def _kenyon(p):
    det, tol, _ = _crsf_det(p)
    return _listed([det], [tol])


def _enumerate(p):
    det, tol, count = _crsf_det(p)
    n, tails, heads, ws = o.torus_edges(p["sides"], weights_of(p["turns"]))
    forests = {"vertices": n, "endpoints": tuple(zip(tails.tolist(), heads.tolist())), "weights": ws.tolist()}
    return {"forests": forests, "summary": _listed([count, 0, 0, det], [0.0, 0.0, 0.0, tol])}


_FOREST_SUMMARIES = {}


def _forest_values(exp: dict, values: list) -> list:
    """[forests, malformed, duplicates, weight sum] of an enumeration given as edge lists.

    Rounds of one run return the same lists; each distinct list is analysed once.
    """
    key = (id(exp), tuple(values))
    if key not in _FOREST_SUMMARIES:
        f = exp["forests"]
        n = f["vertices"]
        subsets = [tuple(int(x) for x in values[i : i + n]) for i in range(0, len(values), n)]
        _FOREST_SUMMARIES[key] = list(o.forest_summary(n, f["endpoints"], f["weights"], subsets))
    return _FOREST_SUMMARIES[key]


def _laplacian(p):
    sides, lam = tuple(p["sides"]), tuple(p["lam"])
    m = dense_of(sides, single_twist_weights(sides, lam))
    n = m.shape[0]
    probe = np.random.default_rng(p["probe_seed"]).standard_normal((n, 2)) @ np.array([1.0, 1j])
    value = m @ probe
    bound = (4.0 * len(sides) + 8.0) * EPS * (np.abs(m) @ np.abs(probe))
    arr = np.column_stack([value.real, value.imag]).ravel()
    tol = np.repeat(bound, 2)
    return _listed(arr.tolist(), tol.tolist())


def _log_det_lu(p):
    sides, lam = tuple(p["sides"]), tuple(p["lam"])
    value, tol = log_det(sides, lam)
    return _listed([value], [tol + lu_bound(sides, lam)])


def _heat_column(p):
    m = dense_of(p["sides"], weights_of(p["turns"]))
    col, bound = o.heat_column_eigh(m, p["t"])
    # the Bessel series is stated to 1e-13 per term and certifies its tail below 1e-14 of sum |terms| <= 1
    tol = bound + 2e-13 * len(p["sides"])
    arr = np.column_stack([col.real, col.imag]).ravel()
    return _listed(arr.tolist(), [tol] * arr.size)


def _theta(p):
    return _listed([o.theta_product(p["alpha"], p["lam"], p["t"])], [theta_tol(p["alpha"], p["lam"], p["t"])])


KINDS = {
    "log_det": lambda p: _listed(*zip(log_det(tuple(p["sides"]), tuple(p["lam"])))),
    "log_det_star": lambda p: _listed(*zip(log_det(tuple(p["sides"]), (0.0,) * len(p["sides"])))),
    "logdet_limit_residuals": _thm11,
    "zeta_limit_residuals": _thm13,
    "product_formula_check": _product_formula,
    "torus_zeta": _torus_zeta,
    "lattice_constant": _lattice_constant,
    "lattice_zeta_deriv0": _lattice_deriv0,
    "lattice_zeta": _lattice_zeta,
    "epstein_hurwitz_zeta": _eh_zeta,
    "epstein_hurwitz_deriv0": lambda p: _listed(*zip(eh_deriv0(p["alpha"], p["lam"]))),
    "logdet_correction_integral": _correction_integral,
    "theta_continuous": _theta,
    "build_torus": _build_torus,
    "kenyon_sum": _kenyon,
    "enumerate_crsfs": _enumerate,
    "laplacian": _laplacian,
    "log_det_lu": _log_det_lu,
    "heat_kernel_column": _heat_column,
}


# ---------------------------------------------------------------------------
# command lines
# ---------------------------------------------------------------------------


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _floats(text):
    return tuple(float(x) for x in text.split(","))


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _parse_weight(obj) -> complex:
    if isinstance(obj, dict) and "angle" in obj:
        return cmath.exp(2j * math.pi * float(obj["angle"]))
    if isinstance(obj, dict):
        return complex(float(obj["re"]), float(obj["im"]))
    return complex(obj)


def _detlog(sides, lams, weights=None) -> dict:
    value, tol = log_det(tuple(sides), tuple(lams))
    out = {"eigen_logdet": (value, tol)}
    for i, l in enumerate(lams):
        out[f"holonomies.{i}"] = (l, 8.0 * EPS)
    if math.prod(sides) <= 2000:
        if weights is None:
            out["lu_logdet"] = (value, tol + lu_bound(tuple(sides), tuple(lams)))
        else:
            m = dense_of(sides, weights)
            lu, bound = o.slogdet_bound(m, _kappa(m))
            out["lu_logdet"] = (lu, 2.0 * bound)
    return out


def _kappa(m) -> float:
    evs = np.linalg.eigvalsh(m)
    return float(evs.max() / evs.min())


def _graph_check(n, endpoints, weights) -> dict:
    tails = [a for a, _ in endpoints]
    heads = [b for _, b in endpoints]
    m = o.dense_laplacian(n, tails, heads, weights)
    det, det_err = det_of(m)
    count = o.crsf_count(n, tuple(endpoints))
    ken_tol = det_err + o.kenyon_bound(count, n, det)
    return {
        "crsf_count": (count, 0.0),
        "kenyon_sum": (det, ken_tol),
        "det": (det, det_err + 8.0 * n * n * _kappa(m) * EPS * abs(det)),
        "abs_err": (0.0, 2.0 * ken_tol + 8.0 * n * n * _kappa(m) * EPS * abs(det)),
    }


def _zeta_report(value, tol, stated) -> dict:
    return {"value": (value, tol), "error_estimate": (0.0, 2.0 * stated)}


def _cli_expect(case) -> dict:
    argv = list(case.params["argv"])
    cmd = argv[0]
    if cmd == "detlog":
        if "--weights-file" in argv:
            doc = json.loads(open(_flag(argv, "--weights-file")).read())
            sides = tuple(int(a) for a in doc["sides"])
            weights = [[_parse_weight(w) for w in row] for row in doc["weights"]]
            lams = tuple(o.holonomy_of(row) for row in weights)
            return _detlog(sides, lams, weights)
        return _detlog(_ints(_flag(argv, "--a")), _floats(_flag(argv, "--lambda")))
    if cmd == "crsf-check":
        spec = case.params.get("spec")
        if spec is not None:
            n, tails, heads, ws = o.torus_edges(spec["sides"], [[_parse_weight({"angle": x}) for x in row] for row in spec["turns"]])
            return _graph_check(n, list(zip(tails.tolist(), heads.tolist())), ws.tolist())
        doc = json.loads(open(_flag(argv, "--weights-file")).read())
        endpoints = [(int(e["tail"]), int(e["head"])) for e in doc["edges"]]
        weights = [_parse_weight(e["weight"]) for e in doc["edges"]]
        return _graph_check(int(doc["vertices"]), endpoints, weights)
    if cmd == "zeta":
        kind = argv[1]
        if kind == "cd":
            c, err = lattice_constant(int(_flag(argv, "--d")))
            stated = max(1e-11, 1e-11 * abs(c))
            return _zeta_report(c, stated + err, stated)
        if kind == "eh":
            alphas, lams, s = _floats(_flag(argv, "--alpha")), _floats(_flag(argv, "--lambda")), float(_flag(argv, "--s"))
            value, err, _ = eh_zeta(s, alphas, lams)
            stated = 1e-12 * abs(value)  # eigensum route (d = 2, s >= 1.25), stated relative accuracy
            return _zeta_report(value, stated + err, stated)
        if kind == "eh-deriv0":
            alphas, lams = _floats(_flag(argv, "--alpha")), _floats(_flag(argv, "--lambda"))
            value, tol = eh_deriv0(alphas, lams)
            return _zeta_report(value, tol, tol)
        if kind == "kronecker":
            alphas, lams = _floats(_flag(argv, "--alpha")), _floats(_flag(argv, "--lambda"))
            value = o.kronecker_d2(alphas[0], alphas[1], lams[0], lams[1])
            return _zeta_report(value, 64.0 * EPS * (1.0 + abs(value)) + 1e-15, 1e-12 * (1.0 + abs(value)))
        if kind == "zd":
            d, s = int(_flag(argv, "--d")), float(_flag(argv, "--s"))
            value, err, pieces = o.lattice_zeta(s, d)
            stated = lattice_zeta_tol(s, pieces)
            return _zeta_report(value, stated + err, stated)
        if kind == "gn":
            sides, lams = _ints(_flag(argv, "--a")), _floats(_flag(argv, "--lambda"))
            s = complex(_flag(argv, "--s").replace("i", "j"))
            value, bound = o.torus_zeta_eigensum(s, sides, lams)
            return {
                "value.re": (value.real, 2.0 * bound),
                "value.im": (value.imag, 2.0 * bound),
                "error_estimate": (0.0, 2e-12 * (1.0 + abs(value))),
            }
    if cmd == "asymptotics":
        kind = argv[1]
        lams = _floats(_flag(argv, "--lambda") or "0")
        if kind in ("thm11", "thm13"):
            d = int(_flag(argv, "--d"))
            ns = _ints(_flag(argv, "--ns"))
            p = {"alpha": (1.0,) * d, "lam": lams, "ns": ns}
            if kind == "thm13":
                p["s"] = float(_flag(argv, "--s"))
            listed = _thm11(p) if kind == "thm11" else _thm13(p)
            out = {}
            for i, n in enumerate(ns):
                out[f"rows.{i}.0"] = (n, 0.0)
                out[f"rows.{i}.1"] = listed[str(i)]
            out["slope"] = listed[str(len(ns))]
            return out
        if kind == "theta-gap":
            ns, t = _ints(_flag(argv, "--ns")), float(_flag(argv, "--t"))
            out = {"t": (t, 0.0)}
            alphas = (1.0,) * len(lams)
            cont = o.theta_product(alphas, lams, t)
            for i, n in enumerate(ns):
                disc = o.theta_discrete((n,) * len(lams), lams, n * n * t)
                out[f"rows.{i}.0"] = (n, 0.0)
                out[f"rows.{i}.1"] = (abs(disc - cont), theta_tol(alphas, lams, t) + 16.0 * EPS * n * len(lams) * (1.0 + disc))
            return out
        if kind == "product-formula":
            m, n = _ints(_flag(argv, "--m")), int(_flag(argv, "--n"))
            twists = [complex(x.replace("i", "j")) for x in _flag(argv, "--z").split(",")]
            turns = tuple(o.holonomy_of([z]) for z in twists)
            listed = _product_formula({"m": m, "n": n, "turns": turns})
            lhs, tol_l = listed["0"]
            _, tol_r = listed["1"]
            return {"log_lhs": (lhs, tol_l), "log_rhs": (lhs, tol_r), "abs_err": (0.0, tol_l + tol_r)}
    if cmd == "theta":
        sides, lams, grid = _ints(_flag(argv, "--a")), _floats(_flag(argv, "--lambda")), _floats(_flag(argv, "--t-grid"))
        out = {}
        for r, t in enumerate(grid):
            value = o.theta_discrete(sides, lams, t)
            out[f"{r}.t"] = (t, 0.0)
            out[f"{r}.theta_discrete"] = (value, 16.0 * EPS * sum(sides) * (1.0 + value))
        return out
    raise KeyError(f"no expectation for command line {' '.join(argv)!r}")


def expect(case) -> dict:
    if case.kind == "cli":
        return _cli_expect(case)
    return KINDS[case.kind](case.params)


def summarize(exp: dict, record: dict) -> tuple[dict, list[str], list[float]]:
    """(expectation, paths, values) of a record; an enumeration is first reduced to its summary."""
    values = record["values"]
    if "forests" in exp:
        return exp["summary"], [str(i) for i in range(4)], _forest_values(exp, values)
    paths = record.get("paths") or [str(i) for i in range(len(values))]
    return exp, paths, values


def compare(exp: dict, op_id: str, paths, values) -> list[str]:
    """Every number that misses its target by more than its tolerance, as text."""
    got = dict(zip(paths, values))
    out = []
    if set(got) != set(exp):
        out.append(f"{op_id}: output paths {sorted(set(got) ^ set(exp))[:6]} do not match the expectation")
    for path, (target, tol) in exp.items():
        if path not in got:
            continue
        value = got[path]
        if not (abs(value - target) <= tol):
            out.append(f"{op_id}[{path}]: got {value!r}, expected {target!r} within {tol:.3g}")
    return out


def problems(exp: dict, record: dict) -> list[str]:
    exp, paths, values = summarize(exp, record)
    return compare(exp, record["id"], paths, values)
