"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--spans-out PATH] [--limit K]

Run from the root of a checkout with ``src`` on PYTHONPATH (``run.py``
does this).  Imports bundlezeta, regenerates the workload's cases from the
seed, and times each operation.  Whatever is not the operation itself
(building arguments, reducing a result to numbers) runs outside the timed
span.  Nothing is checked here: ``run.py`` checks the numbers, so the
oracles never add to this process's memory.  Prints one JSON object:
per operation its wall and CPU seconds and the numbers it produced, plus the
process's peak resident set.  With ``--trace`` the public functions of
every layer are wrapped (see ``tracer.py``) and the layer totals are added.

Every round runs in its own process so that each one starts with the same
cold caches: the first ``kenyon_sum`` on a shape is cold in every round.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _cplx(values) -> list[float]:
    arr = np.asarray(values, dtype=complex).ravel()
    return np.column_stack([arr.real, arr.imag]).ravel().tolist()


def _torus_spec(bz, sides, turns):
    return bz.TorusBundleSpec(len(sides), sides, [[workloads.unit(x) for x in row] for row in turns])


def _twist(bz, sides, lam):
    return bz.TorusBundleSpec.single_twist(len(sides), tuple(sides), tuple(lam))


def _series(series) -> list[float]:
    return list(series.residuals) + [series.slope if series.slope is not None else math.nan]


def program_op(bz, case: workloads.Case):
    """(prepare, call, reduce) for one case: prepare and reduce run untimed."""
    p = case.params
    k = case.kind
    none = lambda: None  # noqa: E731
    if k == "log_det":
        return none, lambda _: bz.log_det(_twist(bz, p["sides"], p["lam"])), lambda r: [r]
    if k == "log_det_star":
        return none, lambda _: bz.log_det_star(_twist(bz, p["sides"], (0.0,) * len(p["sides"]))), lambda r: [r]
    if k == "logdet_limit_residuals":
        fam = lambda: bz.TorusFamily.from_multipliers(p["alpha"], p["lam"])  # noqa: E731
        return fam, lambda f: bz.logdet_limit_residuals(f, p["ns"]), _series
    if k == "zeta_limit_residuals":
        fam = lambda: bz.TorusFamily.from_multipliers(p["alpha"], p["lam"])  # noqa: E731
        return fam, lambda f: bz.zeta_limit_residuals(f, p["s"], p["ns"]), _series
    if k == "product_formula_check":
        z = tuple(workloads.unit(x) for x in p["turns"])
        return none, lambda _: bz.product_formula_check(p["m"], p["n"], z), list
    if k == "torus_zeta":
        return none, lambda _: bz.torus_zeta(p["s"], _twist(bz, p["sides"], p["lam"])), _cplx
    if k == "lattice_constant":
        return none, lambda _: bz.lattice_constant(p["d"]), lambda r: [r]
    if k == "lattice_zeta_deriv0":
        return none, lambda _: bz.lattice_zeta_deriv0(p["d"]), lambda r: [r.value]
    if k == "lattice_zeta":
        return none, lambda _: bz.lattice_zeta(p["s"], p["d"]), lambda r: [r.value]
    if k == "epstein_hurwitz_zeta":
        spec = lambda: bz.ContinuousTorusSpec(p["alpha"], p["lam"])  # noqa: E731
        return spec, lambda sp: bz.epstein_hurwitz_zeta(p["s"], sp, method=p["method"]), lambda r: [r.value]
    if k == "epstein_hurwitz_deriv0":
        spec = lambda: bz.ContinuousTorusSpec(p["alpha"], p["lam"])  # noqa: E731
        return spec, lambda sp: bz.epstein_hurwitz_deriv0(sp), lambda r: [r.value]
    if k == "logdet_correction_integral":
        return none, lambda _: bz.logdet_correction_integral(_twist(bz, p["sides"], p["lam"])), lambda r: [r]
    if k == "theta_continuous":
        spec = lambda: bz.ContinuousTorusSpec(p["alpha"], p["lam"])  # noqa: E731
        return spec, lambda sp: bz.theta_continuous(sp, p["t"], form=p["form"]), lambda r: [r]
    if k == "build_torus":

        def reduce_graph(g):
            rows = [[a, b, w.real, w.imag] for a, b, w in g.edges]
            return [g.vertex_count] + [x for row in rows for x in row]

        return none, lambda _: bz.build_torus(_torus_spec(bz, p["sides"], p["turns"])), reduce_graph
    if k == "kenyon_sum":
        graph = lambda: bz.build_torus(_torus_spec(bz, p["sides"], p["turns"]))  # noqa: E731
        return graph, bz.kenyon_sum, lambda r: [r]
    if k == "enumerate_crsfs":
        graph = lambda: bz.build_torus(_torus_spec(bz, p["sides"], p["turns"]))  # noqa: E731
        return graph, lambda g: list(bz.enumerate_crsfs(g)), lambda fs: [e for f in fs for e in f.edges]
    if k == "laplacian":
        graph = lambda: bz.build_torus(_twist(bz, p["sides"], p["lam"]))  # noqa: E731
        n = math.prod(p["sides"])
        probe = np.random.default_rng(p["probe_seed"]).standard_normal((n, 2)) @ np.array([1.0, 1j])
        return graph, bz.laplacian, lambda op: _cplx(op.entries @ probe)
    if k == "log_det_lu":
        return none, lambda _: bz.log_det_lu(_twist(bz, p["sides"], p["lam"])), lambda r: [r]
    if k == "heat_kernel_column":
        spec = lambda: _torus_spec(bz, p["sides"], p["turns"])  # noqa: E731
        return spec, lambda sp: bz.heat_kernel_column(sp, p["t"]), _cplx
    raise KeyError(f"no program route for case kind {k!r}")


# ---------------------------------------------------------------------------
# command-line cases
# ---------------------------------------------------------------------------


def cli_numbers(stdout: str, csv: bool) -> dict:
    """Every number of a CLI report by its path (JSON keys joined by '.', CSV row.column)."""
    out = {}
    if csv:
        lines = stdout.strip().splitlines()
        header = lines[0].split(",")
        for r, line in enumerate(lines[1:]):
            for name, cell in zip(header, line.split(",")):
                out[f"{r}.{name}"] = float(cell)
        return out

    def walk(prefix, obj):
        if isinstance(obj, bool) or obj is None or isinstance(obj, str):
            return
        if isinstance(obj, (int, float)):
            out[prefix] = float(obj)
        elif isinstance(obj, dict):
            for key, val in obj.items():
                walk(f"{prefix}.{key}" if prefix else key, val)
        elif isinstance(obj, list):
            for i, val in enumerate(obj):
                walk(f"{prefix}.{i}", val)

    walk("", json.loads(stdout)["result"])
    return out


def cli_op(case, ctx):
    argv = list(case.params["argv"])
    spec = case.params.get("spec")
    trace_dir = ctx.get("trace_dir")

    def prepare():
        if spec is not None:
            path = Path(argv[argv.index("--weights-file") + 1])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(workloads.torus33_document(spec["turns"])))
        if trace_dir is None:
            return [sys.executable, "-m", "bundlezeta", *argv], None
        out = Path(trace_dir) / f"{case.id.replace('/', '_')}.json"
        here = os.path.dirname(os.path.abspath(__file__))
        return [sys.executable, os.path.join(here, "traced_cli.py"), str(out), *argv], out

    def call(prepared):
        cmd, _ = prepared
        return subprocess.run(cmd, capture_output=True, text=True, timeout=120), prepared[1]

    def reduce(result):
        proc, trace_file = result
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stdout.strip()} {proc.stderr.strip()[-300:]}")
        numbers = cli_numbers(proc.stdout, "csv" in argv)
        if trace_file is not None:
            ctx["child_snapshots"].append(json.loads(Path(trace_file).read_text()))
            Path(trace_file).unlink()
        paths = sorted(numbers)
        ctx["paths"] = paths
        return [numbers[k] for k in paths]

    return prepare, call, reduce


# ---------------------------------------------------------------------------
# the round
# ---------------------------------------------------------------------------


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_round(workload: str, seed: int, trace: bool, spans_out: str | None, limit: int | None = None) -> dict:
    cases = workloads.cases_for(workload, seed, limit)
    ctx = {"child_snapshots": []}
    bz = None
    tr = None
    if workload != "cli":
        import bundlezeta as bz

        if trace:
            tr = tracing.Tracer()
            tr.install(bz)
    elif trace:
        ctx["trace_dir"] = os.path.join(workloads.SPEC_DIR, f"trace-{workload}-{seed}-{os.getpid()}")
        os.makedirs(ctx["trace_dir"], exist_ok=True)

    ops = []
    for case in cases:
        ctx.pop("paths", None)
        if workload == "cli":
            prepare, call, reduce = cli_op(case, ctx)
        else:
            prepare, call, reduce = program_op(bz, case)
        record = {"id": case.id, "wall": 0.0, "cpu": 0.0, "values": None, "error": None}
        try:
            args = prepare()
            if tr is not None:
                tr.tag = case.tag
                tr.active = True
            c0 = time.process_time() + _children_cpu()
            t0 = time.perf_counter()
            try:
                result = call(args)
            finally:
                record["wall"] = time.perf_counter() - t0
                record["cpu"] = time.process_time() + _children_cpu() - c0
                if tr is not None:
                    tr.active = False
            record["values"] = [float(v) for v in reduce(result)]
            if "paths" in ctx:
                record["paths"] = ctx["paths"]
        except Exception as exc:  # an operation that raises is counted as failed, and the round goes on
            record["error"] = f"{type(exc).__name__}: {exc}"
        ops.append(record)

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {"ops": ops, "peak_rss_kb": child_rss if workload == "cli" else self_rss}
    if trace:
        if workload == "cli":
            snap = tracing.merge(s["tracer"] for s in ctx["child_snapshots"])
            spans = [s["spans"] for s in ctx["child_snapshots"]]
            shutil.rmtree(ctx["trace_dir"], ignore_errors=True)
        else:
            snap = tr.snapshot()
            spans = tr.spans
        walls = [op["wall"] for op in ops] if workload == "cli" else []
        out["layers"] = tracing.layer_metrics(snap, walls)
        if spans_out:
            Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
            Path(spans_out).write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans, "totals": snap}))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--limit", type=int, default=None, help="run only the first LIMIT cases of each kind")
    args = parser.parse_args()
    result = run_round(args.workload, args.seed, args.trace, args.spans_out, args.limit)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
