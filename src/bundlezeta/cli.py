"""Command-line front end.

One computation per invocation; reports are emitted as JSON (default) or
CSV with 17-significant-digit floats.  Exit codes: 0 success, 2 refused
precondition or a flag the route does not read, 3 numeric non-convergence.

Commands
--------
detlog            log determinant of a torus bundle (eigen + LU routes)
crsf-check        CRSF count / weighted sum vs dense determinant
zeta KIND         KIND in {eh, eh-deriv0, kronecker, zd, gn, cd}
asymptotics KIND  KIND in {thm11, thm13, theta-gap, product-formula}
theta             theta-function table over a time grid

``_COMMANDS`` gives every route (a command, or a kind of zeta or asymptotics)
the flags it reads, the flags it needs and its report; its parser holds only
those (``_FLAGS``) and ``--format``/``--out``, so any other flag exits 2.
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


def _complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


def _complexes(text: str) -> tuple[complex, ...]:
    return tuple(_complex(x) for x in text.split(","))


# dest -> (flag, type, help); --s is real except for zeta gn
_FLAGS = {
    "d": ("--d", int, "dimension"),
    "a": ("--a", _ints, "side lengths, comma separated"),
    "lam": ("--lambda", _floats, "holonomies in [0,1], comma separated"),
    "alpha": ("--alpha", _floats, "limit shape alpha_i"),
    "weights_file": ("--weights-file", str, "JSON torus/graph spec"),
    "s": ("--s", float, "real exponent s"),
    "complex_s": ("--s", _complex, "complex exponent s, e.g. 1+0.5i"),
    "ns": ("--ns", _ints, "family sizes, comma separated"),
    "m": ("--m", _ints, "product-formula multipliers"),
    "n": ("--n", int, "product-formula base size"),
    "z": ("--z", _complexes, "unit twists, e.g. i,-1"),
    "t": ("--t", float, "time parameter"),
    "t_grid": ("--t-grid", _floats, "theta table grid"),
    "tol": ("--tol", float, "quadrature tolerance"),
}


def _quad(args) -> QuadratureSpec | None:
    if args.tol is None:
        return None
    return QuadratureSpec(abs_tol=args.tol, rel_tol=args.tol)


def _torus(args) -> TorusBundleSpec:
    if args.weights_file is not None:
        if (args.d, args.a, args.lam) != (None, None, None):
            raise PreconditionError("--weights-file excludes --d, --a and --lambda")
        spec = load_spec_file(args.weights_file)
        if not isinstance(spec, TorusBundleSpec):
            raise PreconditionError("spec file does not describe a torus bundle")
        return spec
    if args.d is None or args.a is None or args.lam is None:
        raise PreconditionError("need either --weights-file or all of --d, --a, --lambda")
    return TorusBundleSpec.single_twist(args.d, args.a, args.lam)


def _continuum(args) -> ContinuousTorusSpec:
    if args.lam is None:
        raise PreconditionError("need --lambda")
    if args.alpha is None:
        if args.d is None:
            raise PreconditionError("need --alpha, or --d for unit aspect ratios")
        return ContinuousTorusSpec((1.0,) * args.d, args.lam)
    if args.d not in (None, len(args.alpha)):
        raise PreconditionError(f"--alpha has {len(args.alpha)} entries but --d is {args.d}")
    return ContinuousTorusSpec(args.alpha, args.lam)


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
    spec = _torus(args)
    result = {
        "eigen_logdet": log_det(spec),
        "holonomies": list(spec.holonomies),
    }
    if _dense_fits(spec.vertex_count):
        result["lu_logdet"] = log_det_lu(spec)
    return result


def _cmd_crsf_check(args) -> dict:
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
    family = TorusFamily(_continuum(args))
    return {"columns": ["n", "gap"], "rows": [[n, rescaled_theta_gap(family, n, t)] for n in args.ns], "t": t}


def _product_formula(args) -> dict:
    lhs, rhs = product_formula_check(args.m, args.n, args.z)
    return {"log_lhs": lhs, "log_rhs": rhs, "abs_err": abs(lhs - rhs)}


def _cmd_theta(args) -> dict:
    grid = args.t_grid or (0.1, 0.5, 1.0, 2.0, 5.0)
    if args.alpha is None:
        spec, theta, label = _torus(args), theta_discrete, "theta_discrete"
    elif args.a is not None or args.weights_file is not None:
        raise PreconditionError("--alpha excludes --a and --weights-file")
    else:
        spec, theta, label = _continuum(args), theta_continuous, "theta_continuous"
    return {"columns": ["t", label], "rows": [[t, theta(spec, t)] for t in grid]}


# command -> (help, route), or (help, {kind: route}) for zeta and asymptotics; a route is
# (the _FLAGS it reads, those of them it needs, its report), each a space-separated list
_COMMANDS = {
    "detlog": ("log determinant of a torus bundle", ("d a lam weights_file", "", _cmd_detlog)),
    "crsf-check": ("CRSF sum vs dense determinant", ("weights_file", "weights_file", _cmd_crsf_check)),
    "zeta": ("zeta-function evaluations", {
        "eh": ("d alpha lam s tol", "s", lambda a: _evaluation(epstein_hurwitz_zeta(a.s, _continuum(a), quad=_quad(a)))),
        "eh-deriv0": ("d alpha lam tol", "", lambda a: _evaluation(epstein_hurwitz_deriv0(_continuum(a), quad=_quad(a)))),
        "kronecker": ("alpha lam", "", _kronecker),
        "zd": ("d s tol", "d s", lambda a: _evaluation(lattice_zeta(a.s, a.d, _quad(a)))),
        "gn": ("d a lam weights_file complex_s", "complex_s", lambda a: _nominal(torus_zeta(a.complex_s, _torus(a)), "eigensum")),
        "cd": ("d tol", "d", lambda a: _estimate(*lattice_constant_eval(a.d, _quad(a)), "integral_split")),
    }),
    "asymptotics": ("limit-theorem residual tables", {
        "thm11": ("d alpha lam ns", "ns", lambda a: _series(logdet_limit_residuals(TorusFamily(_continuum(a)), a.ns))),
        "thm13": ("d alpha lam ns s", "ns s", lambda a: _series(zeta_limit_residuals(TorusFamily(_continuum(a)), a.s, a.ns))),
        "theta-gap": ("d alpha lam ns t", "ns", _theta_gap),
        "product-formula": ("m n z", "m n z", _product_formula),
    }),
    "theta": ("theta-function table over a t grid", ("d a lam alpha weights_file t_grid", "", _cmd_theta)),
}


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
    for command, (text, routes) in _COMMANDS.items():
        # allow_abbrev=False: --a must not pass for --alpha, nor --n for --ns
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        if isinstance(routes, dict):
            kinds = p.add_subparsers(dest="kind", required=True)
            leaves = [(kinds.add_parser(kind, allow_abbrev=False), kind, route) for kind, route in routes.items()]
        else:
            leaves = [(p, command, routes)]
        for leaf, name, (reads, needs, run) in leaves:
            for dest in reads.split():
                flag, parse, about = _FLAGS[dest]
                leaf.add_argument(flag, dest=dest, type=parse, help=about)
            leaf.add_argument("--format", choices=("json", "csv"), default="json")
            leaf.add_argument("--out", help="write the report to this path")
            leaf.set_defaults(route=(name, needs.split(), run))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name, needs, run = args.route
    try:
        if args.out and not Path(args.out).parent.is_dir():
            out, args.out = args.out, None  # the refusal goes to stdout, since the file cannot be written
            raise PreconditionError(f"--out {out}: its directory does not exist")
        if any(getattr(args, dest) is None for dest in needs):
            flags = [_FLAGS[dest][0] for dest in needs]
            listed = flags[0] if len(flags) == 1 else ", ".join(flags[:-1]) + " and " + flags[-1]
            raise PreconditionError(f"{name} needs {listed}")
        result = run(args)
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
