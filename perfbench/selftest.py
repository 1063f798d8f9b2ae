"""Self-test of the benchmark: oracles against textbook values, checks that bite, tracer counts.

    python3 perfbench/selftest.py            (or: python3 -m pytest perfbench/selftest.py)

Run from the root of a checkout.  It

* checks every oracle against an independent value on a small case (the
  collapse identity against eigvalsh on 3x4 tori, c_1 = 0 and c_2 = 4G/pi
  through the general quadrature, the Mellin form against Gamma(1-2s)/Gamma(1-s)^2,
  Chowla-Selberg and Kronecker against the Mellin form, ...);
* runs one round of each workload at a tiny size (the first two cases of
  each kind; every command line for ``cli``), requires every output to pass,
  and requires every check to reject the same output shifted by ten times
  its tolerance (by one where the tolerance is zero);
* checks the tracer's counts on a known case: lattice_constant(2) takes 210
  integrand evaluations (14 Gauss-Kronrod panels);
* runs ``run.py`` in a directory that holds only BENCHMARK.json and this
  directory, where it must fail without printing a result.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import expect  # noqa: E402
import oracles as o  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _close(a, b, tol):
    assert abs(a - b) <= tol, f"{a!r} vs {b!r} (tolerance {tol:g})"


# ---------------------------------------------------------------------------
# oracles against independent values
# ---------------------------------------------------------------------------


def test_collapse_identity_against_eigvalsh():
    rng = np.random.default_rng(7)
    for _ in range(4):
        lam = tuple(rng.uniform(0.05, 0.95, 2))
        sides = (3, 4)
        m = expect.dense_of(sides, expect.single_twist_weights(sides, lam))
        evs = np.linalg.eigvalsh(m)
        value, bound = o.log_det_collapse(sides, lam)
        _close(value, float(np.sum(np.log(evs))), bound + 1e-13)
        np.testing.assert_allclose(np.sort(o.torus_spectrum(sides, lam)), evs, atol=1e-13)
    m = expect.dense_of((3, 4), [[1.0] * 3, [1.0] * 4])
    evs = np.linalg.eigvalsh(m)
    _close(o.log_det_star_collapse((3, 4))[0], float(np.sum(np.log(evs[1:]))), 1e-12)
    # the one-line identity itself, at a few x
    for x, a, lam in ((0.3, 5, 0.2), (2.0, 7, 0.9), (1e-6, 4, 0.5)):
        direct = math.fsum(math.log(x + 4.0 * math.sin(math.pi * (j + lam) / a) ** 2) for j in range(a))
        _close(float(o.collapsed_line_logs(np.array([x]), a, lam)[0]), direct, 1e-13 * a)


def test_dense_laplacian_definition():
    # side lengths 1, 2, 3: a self-loop, doubled edges and a plain cycle
    sides = (1, 2, 3)
    rng = np.random.default_rng(3)
    weights = [[cmath.exp(2j * math.pi * rng.uniform()) for _ in range(a)] for a in sides]
    n, tails, heads, ws = o.torus_edges(sides, weights)
    m = o.dense_laplacian(n, tails, heads, ws)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lf = np.zeros(n, dtype=complex)
    for a, b, w in zip(tails, heads, ws):
        lf[b] += f[b] - w * f[a]
        lf[a] += f[a] - f[b] / w
    np.testing.assert_allclose(m @ f, lf, atol=1e-13)


def test_lattice_constants_through_the_general_quadrature():
    value, err = o.lattice_constant_quad(1)
    _close(value, 0.0, 1e-13)
    value, err = o.lattice_constant_quad(2)
    _close(value, 4.0 * o.CATALAN / math.pi, 1e-13)


def test_lattice_mellin_against_gamma_closed_form():
    for s in (-0.7, -0.3, 0.3, 0.8):
        value, err, _ = o.lattice_mellin(s, 1)
        _close(value, math.gamma(1.0 - 2.0 * s) / math.gamma(1.0 - s) ** 2, 1e-12)
    # derivative at 0 is minus the lattice constant
    _close(o.lattice_mellin(0.0, 2)[0], -4.0 * o.CATALAN / math.pi, 1e-12)


def test_epstein_hurwitz_routes_agree():
    import mpmath

    # d = 1: Hurwitz closed form against a direct mpmath lattice sum at s = 2
    alpha, lam, s = 1.3, 0.3, 2.0
    direct = float(mpmath.nsum(lambda k: (4 * mpmath.pi**2 * (k + lam) ** 2 / alpha**2) ** (-s), [-mpmath.inf, mpmath.inf]))
    _close(o.eh_zeta_d1(s, alpha, lam)[0], direct, 1e-13)
    _close(o.eh_mellin(s, (alpha,), (lam,))[0], direct, 1e-12)
    # d = 2: Chowla-Selberg against the Mellin form, inside and outside the convergent range
    for s in (2.0, 0.3, -0.4):
        _close(o.eh_zeta_d2(s, (1.0, 1.5), (0.3, 0.7))[0], o.eh_mellin(s, (1.0, 1.5), (0.3, 0.7))[0], 1e-12)
    # and against a brute-force lattice sum at s = 3 (tail beyond radius 300 is below 1e-10)
    k = np.arange(-300, 301)
    k1, k2 = np.meshgrid(k, k)
    q = ((k1 + 0.3) / 1.0) ** 2 + ((k2 + 0.7) / 1.5) ** 2
    brute = (2.0 * math.pi) ** -6.0 * math.fsum(np.ravel(q**-3.0).tolist())
    _close(o.eh_zeta_d2(3.0, (1.0, 1.5), (0.3, 0.7))[0], brute, 1e-10)


def test_derivative_closed_forms_against_mellin():
    for lam in (0.1, 0.5, 0.85):
        _close(o.eh_deriv0_d1(lam), o.eh_mellin(0.0, (2.5,), (lam,))[0], 1e-12)
    for a1, l1, l2 in ((1.0, 0.3, 0.7), (0.5, 0.0, 0.5), (2.0, 0.5, 0.0)):
        _close(o.kronecker_d2(a1, 1.0, l1, l2), o.eh_mellin(0.0, (a1, 1.0), (l1, l2))[0], 1e-11)


def test_theta_line_against_defining_sum():
    for alpha, lam, t in ((1.0, 0.3, 0.01), (2.5, 0.9, 0.05), (0.5, 0.1, 1.0)):
        k = np.arange(-4000, 4001)
        direct = math.fsum(np.exp(-4.0 * math.pi**2 * t * (k + lam) ** 2 / alpha**2).tolist())
        _close(o.theta_line(alpha, lam, t), direct, 1e-13 * direct)


def test_heat_column_against_expm():
    from scipy.linalg import expm

    rng = np.random.default_rng(5)
    sides = (3, 4)
    m = expect.dense_of(sides, [[cmath.exp(2j * math.pi * rng.uniform()) for _ in range(a)] for a in sides])
    for t in (0.1, 2.0):
        col, bound = o.heat_column_eigh(m, t)
        np.testing.assert_allclose(col, expm(-t * m)[:, 0], atol=bound + 1e-13)


def test_crsf_brute_force_and_kenyon_identity():
    # a cycle has exactly one CRSF (itself); the weighted sum over CRSFs is det L (Kenyon)
    _close(expect.crsf_count_for((5,)), 1, 0)
    rng = np.random.default_rng(11)
    sides = (2, 3)
    turns = [rng.uniform(0, 1, a) for a in sides]
    weights = expect.weights_of(turns)
    n, tails, heads, ws = o.torus_edges(sides, weights)
    endpoints = tuple(zip(tails.tolist(), heads.tolist()))
    from itertools import combinations

    subsets = [s for s in combinations(range(len(endpoints)), n) if o.is_crsf(n, endpoints, s)]
    count, bad, dup, total = o.forest_summary(n, endpoints, ws.tolist(), subsets)
    assert (count, bad, dup) == (expect.crsf_count_for(sides), 0, 0)
    det, err = expect.det_of(o.dense_laplacian(n, tails, heads, ws))
    _close(total, det, 1e-10 * det)


def test_torus_zeta_properties():
    for sides in ((3, 4), (5, 2, 3)):
        lam = (0.3,) * len(sides)
        n = math.prod(sides)
        _close(o.torus_zeta_eigensum(0.0, sides, lam)[0].real, n, 1e-12 * n)
        _close(o.torus_zeta_eigensum(-1.0, sides, lam)[0].real, 2 * len(sides) * n, 1e-12 * n)


# ---------------------------------------------------------------------------
# every check bites
# ---------------------------------------------------------------------------


def _round(workload, seed, limit, trace=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _shifted_outputs_rejected(workload, limit):
    seed = 12345
    cases = workloads.cases_for(workload, seed, limit)
    rnd = _round(workload, seed, limit)
    assert [op["id"] for op in rnd["ops"]] == [c.id for c in cases]
    checked = 0
    for case, record in zip(cases, rnd["ops"]):
        assert record["error"] is None, f"{case.id}: {record['error']}"
        exp, paths, values = expect.summarize(expect.expect(case), record)
        assert expect.compare(exp, case.id, paths, values) == [], expect.compare(exp, case.id, paths, values)
        for i, path in enumerate(paths):
            target, tol = exp[path]
            for sign in (1.0, -1.0):
                bent = list(values)
                bent[i] = values[i] + sign * (10.0 * tol if tol > 0 else 1.0)
                assert expect.compare(exp, case.id, paths, bent), f"{case.id}[{path}] accepts a shift of 10x its tolerance"
                checked += 1
    return checked


def test_logdet_ladder_checks_bite():
    assert _shifted_outputs_rejected("logdet-ladder", 2) > 0


def test_zeta_quadrature_checks_bite():
    assert _shifted_outputs_rejected("zeta-quadrature", 2) > 0


def test_crsf_dense_checks_bite():
    assert _shifted_outputs_rejected("crsf-dense", 2) > 0


def test_cli_checks_bite():
    assert _shifted_outputs_rejected("cli", None) > 0


# ---------------------------------------------------------------------------
# tracer and the runner
# ---------------------------------------------------------------------------


def test_tracer_counts_lattice_constant():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import json, tracer, bundlezeta as bz;"
        "tr = tracer.Tracer(); tr.install(bz); tr.active = True; bz.lattice_constant(2); tr.active = False;"
        "print(json.dumps(tracer.layer_metrics(tr.snapshot(), [])))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout)
    assert layers["quadrature.evaluations"] == 210, layers
    assert layers["quadrature.integrals"] == 1, layers
    assert layers["zeta.evaluations"] == 1, layers
    assert layers["special_functions.bessel_calls"] > 0 and layers["quadrature.self_s"] > 0


def test_traced_counts_repeat():
    a = _round("crsf-dense", 4, 2, trace=True)["layers"]
    b = _round("crsf-dense", 4, 2, trace=True)["layers"]
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(a) | {"cli.import_s", "trace.wall_s"} == set(units), set(units) ^ set(a)
    for name, unit in units.items():
        if unit in run.COUNT_UNITS and name in a:
            assert a[name] == b[name], name


def test_runner_refuses_without_source():
    bare = ROOT / workloads.SPEC_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            env=env,
            capture_output=True,
            text=True,
            timeout=170,
        )
        assert proc.returncode != 0 and proc.stdout.strip() == "", (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every failing test, then exit non-zero
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
