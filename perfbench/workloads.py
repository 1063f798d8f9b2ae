"""The four workloads as lists of cases, generated from a seed.

A case is one operation: one call into a public function of bundlezeta,
or one command-line invocation.  ``worker.py`` turns a case into the timed
call; ``expect.py`` turns the same case into the reference value and its
tolerance.  Both regenerate the cases from the seed, so nothing but the
seed crosses the process boundary.

The seed moves holonomies, aspect ratios, zeta arguments, times and edge
weights; it never moves a size, so every seed asks for the same amount of
work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOAD_NAMES = ("logdet-ladder", "zeta-quadrature", "crsf-dense", "cli")


@dataclass(frozen=True)
class Case:
    id: str
    kind: str
    params: dict = field(hash=False)
    tag: str = ""


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_NAMES.index(name)])


def _lams(rng, d, low=0.05, high=0.95):
    return tuple(float(x) for x in rng.uniform(low, high, d))


# ---------------------------------------------------------------------------
# logdet-ladder: closed-form spectra along growing tori
# ---------------------------------------------------------------------------


def logdet_ladder(seed: int) -> list[Case]:
    rng = _rng(seed, "logdet-ladder")
    cases = []
    families = [
        ("d1", [(a,) for a in (256, 1024, 4096, 16384, 65536)], _lams(rng, 1)),
        ("d2-fixed", [(n, n) for n in (32, 64, 128, 256, 512, 1024, 2048)], (0.3, 0.7)),
        ("d2", [(n, n) for n in (32, 64, 128, 256, 512, 1024, 2048)], _lams(rng, 2)),
        ("d2-aspect", [(n, 2 * n) for n in (16, 32, 64, 128, 256, 512, 1024)], _lams(rng, 2)),
        ("d3", [(n, n, n) for n in (8, 16, 32, 64, 128)], _lams(rng, 3)),
    ]
    for label, ladder, lam in families:
        for sides in ladder:
            cases.append(Case(f"log_det/{label}/{'x'.join(map(str, sides))}", "log_det", {"sides": sides, "lam": lam}))
    # d = 1 is left out: there log det = log(4 sin^2 pi lam) exactly, so every residual is rounding noise
    for d, ns in ((2, (32, 64, 128, 256, 512, 1024)), (3, (8, 16, 32, 64))):
        lam = _lams(rng, d, 0.15, 0.85)
        cases.append(Case(f"thm11/d{d}", "logdet_limit_residuals", {"alpha": (1.0,) * d, "lam": lam, "ns": ns}))
    for sides in ((1000,), (64, 64), (256, 256), (16, 16, 16)):
        cases.append(Case(f"log_det_star/{'x'.join(map(str, sides))}", "log_det_star", {"sides": sides}))
    for m, n in (((2, 2), 8), ((3, 2), 8), ((2,), 64)):
        turns = tuple(float(x) for x in rng.uniform(0.05, 0.95, len(m)))
        cases.append(Case(f"product_formula/{'x'.join(map(str, m))}/{n}", "product_formula_check", {"m": m, "n": n, "turns": turns}))
    cases.append(Case("product_formula/2x2/4/trivial", "product_formula_check", {"m": (2, 2), "n": 4, "turns": (0.0, 0.0)}))
    lam = _lams(rng, 2)
    s_real = float(rng.uniform(0.3, 2.5))
    s_cplx = complex(rng.uniform(-1.0, 2.0), rng.uniform(-2.0, 2.0))
    for label, s in (("s0", 0.0), ("s-1", -1.0), ("real", s_real), ("complex", s_cplx)):
        cases.append(Case(f"torus_zeta/256x256/{label}", "torus_zeta", {"sides": (256, 256), "lam": lam, "s": s}))
    s3 = complex(rng.uniform(-1.0, 2.0), rng.uniform(-2.0, 2.0))
    cases.append(Case("torus_zeta/32x32x32/complex", "torus_zeta", {"sides": (32, 32, 32), "lam": _lams(rng, 3), "s": s3}))
    return cases


# ---------------------------------------------------------------------------
# zeta-quadrature: many small adaptive integrals
# ---------------------------------------------------------------------------

CRITERION_07_LAMS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
CRITERION_07_ALPHAS = (0.5, 1.0, 2.5)
CRITERION_08_LAMS = ((0.3, 0.7), (0.5, 0.5), (0.2, 0.4), (0.0, 0.5), (0.0, 0.3), (1.0, 0.6), (0.5, 0.0), (0.3, 1.0), (0.7, 0.0))
CRITERION_08_RATIOS = (0.5, 1.0, 2.0)
CRITERION_14_TORI = (
    ((6,), (0.3,)),
    ((9,), (0.5,)),
    ((4, 4), (0.3, 0.7)),
    ((2, 3), (0.5, 0.0)),
    ((8, 8), (0.25, 0.5)),
    ((2, 2, 3), (0.3, 0.0, 0.0)),
    ((4, 4, 4), (0.5, 0.25, 0.0)),
)


def _jitter(rng, x, width=0.03):
    return float(x + rng.uniform(-width, width))


ZETA_REPEATS = 3  # seeded grids drawn this many times, so a round lasts about a second


def _zeta_seeded(rng, rep: int) -> list[Case]:
    cases = []
    for d in (1, 2, 3):
        half = 0.5 * d
        grid = (-0.8, -0.55, -0.3, 0.15, 0.35, 0.6, half - 0.25, half + 0.15, half + 0.4, half + 0.7)
        for i, s in enumerate(grid):
            cases.append(Case(f"lattice_zeta/{rep}/d{d}/{i}", "lattice_zeta", {"d": d, "s": _jitter(rng, s)}))
    for i, s in enumerate((0.9, 1.2, 1.6, 1.9, 2.2, 2.5, 2.9, 3.3)):
        spec = {"alpha": (float(rng.uniform(0.5, 2.5)),), "lam": _lams(rng, 1), "s": _jitter(rng, s, 0.1)}
        for method in ("eigensum", "integral_split"):
            cases.append(Case(f"eh_zeta/{rep}/d1/{i}/{method}", "epstein_hurwitz_zeta", dict(spec, method=method)))
    for i, s in enumerate((-0.8, -0.55, -0.25, 0.15, 0.3, 0.4)):
        spec = {"alpha": (float(rng.uniform(0.5, 2.5)),), "lam": _lams(rng, 1), "s": _jitter(rng, s, 0.05), "method": "integral_split"}
        cases.append(Case(f"eh_zeta/{rep}/d1/cont{i}", "epstein_hurwitz_zeta", spec))
    for i, s in enumerate((1.4, 1.7, 2.0, 2.4, 2.8, 3.2)):
        spec = {"alpha": tuple(float(x) for x in rng.uniform(0.7, 1.5, 2)), "lam": _lams(rng, 2), "s": _jitter(rng, s, 0.1)}
        for method in ("eigensum", "integral_split"):
            cases.append(Case(f"eh_zeta/{rep}/d2/{i}/{method}", "epstein_hurwitz_zeta", dict(spec, method=method)))
    # s stays 0.1 away from 1/2, where the Chowla-Selberg oracle cancels (Gamma(s - 1/2) times a Hurwitz sum near 0)
    for i, s in enumerate((-0.75, -0.45, -0.2, 0.2, 0.7, 0.9)):
        spec = {"alpha": tuple(float(x) for x in rng.uniform(0.7, 1.5, 2)), "lam": _lams(rng, 2), "s": _jitter(rng, s, 0.05), "method": "integral_split"}
        cases.append(Case(f"eh_zeta/{rep}/d2/cont{i}", "epstein_hurwitz_zeta", spec))
    for i in range(6):
        spec = {"alpha": tuple(float(x) for x in rng.uniform(0.7, 1.5, 3)), "lam": _lams(rng, 3, 0.15, 0.85)}
        cases.append(Case(f"eh_deriv0/{rep}/d3/{i}", "epstein_hurwitz_deriv0", spec))
    for d in (1, 2, 3):
        for j in range(3):
            alpha = tuple(float(x) for x in rng.uniform(0.5, 2.5, d))
            lam = tuple(float(x) for x in rng.uniform(0.0, 1.0, d))
            for t in (0.05, 0.3, 1.0, 3.0):
                for form in ("spectral", "dual"):
                    cases.append(Case(f"theta_continuous/{rep}/d{d}/{j}/{t}/{form}", "theta_continuous", {"alpha": alpha, "lam": lam, "t": t, "form": form}))
    for j in range(2):
        spec = {"alpha": (1.0,), "lam": _lams(rng, 1, 0.15, 0.85), "s": float(rng.uniform(0.1, 0.4)), "ns": (16, 32, 64, 128)}
        cases.append(Case(f"thm13/{rep}/d1/{j}", "zeta_limit_residuals", spec))
    cases.append(Case(f"thm13/{rep}/d2", "zeta_limit_residuals", {"alpha": (1.0, 1.0), "lam": _lams(rng, 2, 0.15, 0.85), "s": float(rng.uniform(0.3, 0.9)), "ns": (16, 32, 64)}))
    return cases


def zeta_quadrature(seed: int) -> list[Case]:
    rng = _rng(seed, "zeta-quadrature")
    cases = []
    for d in range(1, 7):
        cases.append(Case(f"lattice_constant/d{d}", "lattice_constant", {"d": d}))
        cases.append(Case(f"lattice_zeta_deriv0/d{d}", "lattice_zeta_deriv0", {"d": d}))
    for lam in CRITERION_07_LAMS:
        for alpha in CRITERION_07_ALPHAS:
            cases.append(Case(f"eh_deriv0/c07/{lam}/{alpha}", "epstein_hurwitz_deriv0", {"alpha": (alpha,), "lam": (lam,)}))
    for lam1, lam2 in CRITERION_08_LAMS:
        for ratio in CRITERION_08_RATIOS:
            cases.append(Case(f"eh_deriv0/c08/{lam1},{lam2}/{ratio}", "epstein_hurwitz_deriv0", {"alpha": (ratio, 1.0), "lam": (lam1, lam2)}))
    for sides, lam in CRITERION_14_TORI:
        cases.append(Case(f"logdet_correction_integral/{'x'.join(map(str, sides))}", "logdet_correction_integral", {"sides": sides, "lam": lam}))
    for rep in range(ZETA_REPEATS):
        cases += _zeta_seeded(rng, rep)
    return cases


# ---------------------------------------------------------------------------
# crsf-dense: CRSF enumeration on reused shapes, dense assembly and LU
# ---------------------------------------------------------------------------

CRSF_SHAPES = tuple((n,) for n in range(3, 9)) + ((2, 2), (2, 3), (2, 4), (3, 3))
CRSF_BUNDLES = 8
LU_SIDES = ((12, 12), (24, 24), (44, 45))
HEAT_SHAPES = ((12,), (4, 4), (3, 5), (6, 6), (4, 4, 4))
HEAT_TIMES = (0.1, 1.0, 2.5, 5.0)


def _turns(rng, sides):
    return tuple(tuple(float(x) for x in rng.uniform(0.0, 1.0, a)) for a in sides)


def crsf_dense(seed: int) -> list[Case]:
    rng = _rng(seed, "crsf-dense")
    cases = []
    for sides in CRSF_SHAPES:
        label = "x".join(map(str, sides))
        for b in range(CRSF_BUNDLES):
            turns = _turns(rng, sides)
            cases.append(Case(f"build_torus/{label}/{b}", "build_torus", {"sides": sides, "turns": turns}))
            cases.append(Case(f"kenyon_sum/{label}/{b}", "kenyon_sum", {"sides": sides, "turns": turns}, "cold" if b == 0 else "warm"))
            if b < 2:
                cases.append(Case(f"enumerate_crsfs/{label}/{b}", "enumerate_crsfs", {"sides": sides, "turns": turns}))
    for sides in LU_SIDES:
        label = "x".join(map(str, sides))
        lam = _lams(rng, 2, 0.2, 0.8)
        cases.append(Case(f"laplacian/{label}", "laplacian", {"sides": sides, "lam": lam, "probe_seed": int(rng.integers(1 << 30))}))
        cases.append(Case(f"log_det_lu/{label}", "log_det_lu", {"sides": sides, "lam": lam}))
    for sides in HEAT_SHAPES:
        turns = _turns(rng, sides)
        label = "x".join(map(str, sides))
        for t in HEAT_TIMES:
            t = float(t * (1.0 + rng.uniform(-0.05, 0.0)))
            cases.append(Case(f"heat_kernel_column/{label}/{t:.3f}", "heat_kernel_column", {"sides": sides, "turns": turns, "t": t}))
    return cases


# ---------------------------------------------------------------------------
# cli: every command line of README.md, plus the LU cross-check and a 3x3 CRSF check
# ---------------------------------------------------------------------------

README_COMMANDS = (
    "detlog --d 2 --a 4,4 --lambda 0.3,0.7",
    "detlog --weights-file sample_specs/torus22.json",
    "crsf-check --weights-file sample_specs/cycle5.json",
    "zeta cd --d 2",
    "zeta eh --alpha 1,1 --lambda 0.3,0.7 --s 2",
    "zeta eh-deriv0 --alpha 1 --lambda 0.5",
    "zeta kronecker --alpha 1,1 --lambda 0,0.5",
    "zeta zd --d 2 --s 0.5",
    "zeta gn --d 1 --a 4 --lambda 0.3 --s 1+0.5i",
    "asymptotics thm11 --d 2 --lambda 0.3,0.7 --ns 32,64,128",
    "asymptotics thm13 --d 1 --lambda 0.5 --s 0.25 --ns 16,32,64",
    "asymptotics theta-gap --d 1 --lambda 0.5 --ns 4,16,64 --t 1",
    "asymptotics product-formula --m 2,2 --n 2 --z 1,1",
    "theta --d 1 --a 4 --lambda 0.25 --t-grid 0.1,1,5 --format csv",
)
SPEC_DIR = ".perfbench"


def torus33_spec_path(seed: int) -> str:
    return f"{SPEC_DIR}/torus33-seed{seed}.json"


def cli(seed: int) -> list[Case]:
    rng = _rng(seed, "cli")
    cases = [Case(f"cli/{i:02d}", "cli", {"argv": tuple(line.split())}) for i, line in enumerate(README_COMMANDS)]
    lam = _lams(rng, 2, 0.2, 0.8)
    cases.append(
        Case("cli/detlog-40x40", "cli", {"argv": ("detlog", "--d", "2", "--a", "40,40", "--lambda", f"{lam[0]!r},{lam[1]!r}")})
    )
    turns = _turns(rng, (3, 3))
    cases.append(
        Case(
            "cli/crsf-check-3x3",
            "cli",
            {"argv": ("crsf-check", "--weights-file", torus33_spec_path(seed)), "spec": {"sides": (3, 3), "turns": turns}},
        )
    )
    return cases


def torus33_document(turns) -> dict:
    return {"dimension": 2, "sides": [3, 3], "weights": [[{"angle": x} for x in row] for row in turns]}


GENERATORS = {"logdet-ladder": logdet_ladder, "zeta-quadrature": zeta_quadrature, "crsf-dense": crsf_dense, "cli": cli}


def cases_for(name: str, seed: int, limit: int | None = None) -> list[Case]:
    """The workload's cases; with `limit`, only the first `limit` of each kind (the self-test's tiny size)."""
    cases = GENERATORS[name](seed)
    if limit is None:
        return cases
    kept, seen = [], {}
    for case in cases:
        seen[case.kind] = seen.get(case.kind, 0) + 1
        if seen[case.kind] <= limit:
            kept.append(case)
    return kept


def unit(turns: float) -> complex:
    return complex(math.cos(2.0 * math.pi * turns), math.sin(2.0 * math.pi * turns))
