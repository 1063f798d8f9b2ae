"""Command-line front end.

One computation per invocation; reports are emitted as JSON (default) or
CSV with 17-significant-digit floats.  Exit codes: 0 success, 2 refused
precondition, 3 numeric non-convergence.

Commands
--------
detlog            log determinant of a torus bundle (eigen + LU routes)
crsf-check        CRSF count / weighted sum vs dense determinant
zeta KIND         KIND in {eh, eh-deriv0, kronecker, zd, gn, cd}
asymptotics KIND  KIND in {thm11, thm13, theta-gap, product-formula}
theta             theta-function table over a time grid
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .asymptotics import (
    TorusFamily,
    log_det,
    log_det_lu,
    logdet_limit_residuals,
    product_formula_check,
    rescaled_theta_gap,
    zeta_limit_residuals,
)
from .bundle_graph import TorusBundleSpec, _dense_fits, build_torus, laplacian, load_spec_file
from .crsf import enumerate_crsfs, kenyon_sum
from .errors import NonConvergenceError, PreconditionError
from .heat_theta import ContinuousTorusSpec, theta_continuous, theta_discrete
from .quadrature import QuadratureSpec
from .zeta import (
    epstein_hurwitz_deriv0,
    epstein_hurwitz_zeta,
    kronecker_deriv0,
    lattice_constant_eval,
    lattice_zeta,
    torus_zeta,
)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _complexes(text: str) -> tuple[complex, ...]:
    out = []
    for token in text.split(","):
        token = token.strip().replace("i", "j")
        out.append(complex(token))
    return tuple(out)


def _quad_spec(args) -> QuadratureSpec | None:
    if args.tol is None:
        return None
    return QuadratureSpec(abs_tol=args.tol, rel_tol=args.tol, max_subdivisions=8000)


def _torus_from_args(args) -> TorusBundleSpec:
    if args.weights_file:
        spec = load_spec_file(args.weights_file)
        if not isinstance(spec, TorusBundleSpec):
            raise PreconditionError("spec file does not describe a torus bundle")
        return spec
    if args.d is None or args.a is None or args.lam is None:
        raise PreconditionError("need either --weights-file or all of --d, --a, --lambda")
    return TorusBundleSpec.single_twist(args.d, args.a, args.lam)


def _continuum_from_args(args) -> ContinuousTorusSpec:
    if args.lam is None:
        raise PreconditionError("need --lambda")
    alpha = args.alpha
    if alpha is None:
        if args.d is None:
            raise PreconditionError("need --alpha, or --d for unit aspect ratios")
        alpha = (1.0,) * args.d
    return ContinuousTorusSpec(alpha, args.lam)


def _format_value(value):
    if isinstance(value, complex):
        if value.imag == 0.0:
            return value.real
        return {"re": value.real, "im": value.imag}
    return value


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = _to_csv(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, dict):
        return format(value.get("re", 0.0), ".17g") + "+" + format(value.get("im", 0.0), ".17g") + "j"
    return str(value)


def _to_csv(report: dict) -> str:
    if "error" in report:
        return "error,kind\n" + f"\"{report['error']}\",{report['kind']}\n"
    result = report["result"]
    if "rows" in result:
        header = ",".join(result["columns"])
        lines = [header]
        for row in result["rows"]:
            lines.append(",".join(_csv_cell(x) for x in row))
        return "\n".join(lines) + "\n"
    keys = sorted(result)
    lines = [",".join(keys), ",".join(_csv_cell(result[k]) for k in keys)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_detlog(args) -> dict:
    spec = _torus_from_args(args)
    result = {
        "eigen_logdet": log_det(spec),
        "holonomies": list(spec.holonomies),
    }
    if _dense_fits(spec.vertex_count):
        result["lu_logdet"] = log_det_lu(spec)
    return result


def _cmd_crsf_check(args) -> dict:
    if not args.weights_file:
        raise PreconditionError("crsf-check needs --weights-file")
    loaded = load_spec_file(args.weights_file)
    graph = build_torus(loaded) if isinstance(loaded, TorusBundleSpec) else loaded
    count = sum(1 for _ in enumerate_crsfs(graph))
    weighted = kenyon_sum(graph)
    det = laplacian(graph).det().real
    return {
        "crsf_count": count,
        "kenyon_sum": weighted,
        "det": det,
        "abs_err": abs(weighted - det),
    }


def _estimate(value, error_estimate: float, method: str) -> dict:
    return {"value": _format_value(value), "error_estimate": error_estimate, "method": method}


def _evaluation(res) -> dict:
    return _estimate(res.value, res.error_estimate, res.method)


def _nominal(value, method: str) -> dict:
    """Report with the fixed estimate 1e-12 (1 + |value|), not a computed one."""
    return _estimate(value, 1e-12 * (1.0 + abs(value)), method)


def _series(series) -> dict:
    rows = [[n, r] for n, r in zip(series.ns, series.residuals)]
    return {"columns": ["n", "residual"], "rows": rows, "slope": series.slope}


def _kronecker(args) -> dict:
    if args.alpha is None or args.lam is None or len(args.alpha) != 2 or len(args.lam) != 2:
        raise PreconditionError("kronecker needs --alpha a1,a2 and --lambda l1,l2")
    return _nominal(kronecker_deriv0(args.alpha[0], args.alpha[1], args.lam[0], args.lam[1]), "kronecker_d2")


def _theta_gap(args) -> dict:
    t = args.t if args.t is not None else 1.0
    family = TorusFamily(_continuum_from_args(args))
    return {"columns": ["n", "gap"], "rows": [[n, rescaled_theta_gap(family, n, t)] for n in args.ns], "t": t}


def _product_formula(args) -> dict:
    lhs, rhs = product_formula_check(args.m, args.n, args.z)
    return {"log_lhs": lhs, "log_rhs": rhs, "abs_err": abs(lhs - rhs)}


# kind -> (flags it needs, report); zeta reports also take the quadrature spec
_ZETA_KINDS = {
    "eh": (("s",), lambda a, q: _evaluation(epstein_hurwitz_zeta(a.s.real, _continuum_from_args(a), quad=q))),
    "eh-deriv0": ((), lambda a, q: _evaluation(epstein_hurwitz_deriv0(_continuum_from_args(a), quad=q))),
    "kronecker": ((), lambda a, q: _kronecker(a)),
    "zd": (("d", "s"), lambda a, q: _evaluation(lattice_zeta(a.s.real, a.d, q))),
    "gn": (("s",), lambda a, q: _nominal(torus_zeta(a.s, _torus_from_args(a)), "eigensum")),
    "cd": (("d",), lambda a, q: _estimate(*lattice_constant_eval(a.d, q), "integral_split")),
}
_ASYMPTOTICS_KINDS = {
    "thm11": (("ns",), lambda a: _series(logdet_limit_residuals(TorusFamily(_continuum_from_args(a)), a.ns))),
    "thm13": (("ns", "s"), lambda a: _series(zeta_limit_residuals(TorusFamily(_continuum_from_args(a)), a.s.real, a.ns))),
    "theta-gap": (("ns",), _theta_gap),
    "product-formula": (("m", "n", "z"), _product_formula),
}


def _run_kind(kinds: dict, args, *context) -> dict:
    needs, report = kinds[args.kind]
    if any(getattr(args, dest) is None for dest in needs):
        flags = [f"--{dest}" for dest in needs]
        listed = flags[0] if len(flags) == 1 else ", ".join(flags[:-1]) + " and " + flags[-1]
        raise PreconditionError(f"{args.kind} needs {listed}")
    return report(args, *context)


def _cmd_theta(args) -> dict:
    grid = args.t_grid or (0.1, 0.5, 1.0, 2.0, 5.0)
    rows = []
    if args.alpha is not None:
        spec = _continuum_from_args(args)
        for t in grid:
            rows.append([t, theta_continuous(spec, t)])
        label = "theta_continuous"
    else:
        spec = _torus_from_args(args)
        for t in grid:
            rows.append([t, theta_discrete(spec, t)])
        label = "theta_discrete"
    return {"columns": ["t", label], "rows": rows}


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundlezeta",
        description="bundle Laplacians on discrete tori: determinants, "
        "CRSF sums, theta and zeta functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--d", type=int, default=None, help="dimension")
        p.add_argument("--a", type=_ints, default=None, help="side lengths, comma separated")
        p.add_argument(
            "--lambda",
            dest="lam",
            type=_floats,
            default=None,
            help="holonomies in [0,1], comma separated",
        )
        p.add_argument("--alpha", type=_floats, default=None, help="limit shape alpha_i")
        p.add_argument("--weights-file", default=None, help="JSON torus/graph spec")
        p.add_argument("--s", type=lambda x: complex(x.replace("i", "j")), default=None)
        p.add_argument("--ns", type=_ints, default=None, help="family sizes, comma separated")
        p.add_argument("--m", type=_ints, default=None, help="product-formula multipliers")
        p.add_argument("--n", type=int, default=None, help="product-formula base size")
        p.add_argument("--z", type=_complexes, default=None, help="unit twists, e.g. i,-1")
        p.add_argument("--t", type=float, default=None, help="time parameter")
        p.add_argument("--t-grid", type=_floats, default=None, help="theta table grid")
        p.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report to this path")

    p_detlog = sub.add_parser("detlog", help="log determinant of a torus bundle")
    common(p_detlog)

    p_crsf = sub.add_parser("crsf-check", help="CRSF sum vs dense determinant")
    common(p_crsf)

    p_zeta = sub.add_parser("zeta", help="zeta-function evaluations")
    p_zeta.add_argument("kind", choices=tuple(_ZETA_KINDS))
    common(p_zeta)

    p_asym = sub.add_parser("asymptotics", help="limit-theorem residual tables")
    p_asym.add_argument("kind", choices=tuple(_ASYMPTOTICS_KINDS))
    common(p_asym)

    p_theta = sub.add_parser("theta", help="theta-function table over a t grid")
    common(p_theta)

    return parser


_DISPATCH = {
    "detlog": _cmd_detlog,
    "crsf-check": _cmd_crsf_check,
    "zeta": lambda args: _run_kind(_ZETA_KINDS, args, _quad_spec(args)),
    "asymptotics": lambda args: _run_kind(_ASYMPTOTICS_KINDS, args),
    "theta": _cmd_theta,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = _DISPATCH[args.command](args)
    except PreconditionError as exc:
        _emit({"command": args.command, "error": str(exc), "kind": "precondition"}, args)
        return 2
    except NonConvergenceError as exc:
        _emit({"command": args.command, "error": str(exc), "kind": "non-convergence"}, args)
        return 3
    report = {"command": args.command, "result": result}
    if getattr(args, "kind", None):
        report["kind"] = args.kind
    _emit(report, args)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
