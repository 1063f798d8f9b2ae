"""Benchmark of bundlezeta: one workload, checked against independent oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: logdet-ladder,
zeta-quadrature, crsf-dense, cli (see README.md in this directory).

The run repeats whole rounds of the workload's operations for S seconds,
each round in a fresh interpreter (``worker.py``) so every round starts from
the same cold caches, then checks every output of every round against
``expect.py``.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  With ``--trace 0`` the metrics are
the end-to-end ones (setup_s, wall_s, cpu_s, peak_rss_mb); with
``--trace 1`` they are the per-layer ones from a traced run.  A full record
(every round, the machine note, any failed check) goes to
``.perfbench/results/``; the spans of a traced run to ``.perfbench/trace/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 9
MIN_ROUNDS = 3
COUNT_UNITS = {"count", "bytes", "ratio"}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_note() -> dict:
    import numpy as np

    sha = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


SETUP_PROBE = "import time, bundlezeta; print(time.perf_counter())"
IMPORT_PROBE = "import time; t = time.perf_counter(); import bundlezeta, bundlezeta.cli; print(time.perf_counter() - t)"


def measure_setup(env) -> list[float]:
    """Interpreter start plus `import bundlezeta`, in fresh interpreters.

    The child reports the monotonic clock (system-wide on Linux) once the
    import is done, so the interpreter's teardown and this process's
    wake-up are not counted.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, check=True, timeout=120, capture_output=True, text=True)
        times.append(float(proc.stdout.strip()) - t0)
    return times


def measure_import(env) -> list[float]:
    """Time of `import bundlezeta, bundlezeta.cli` alone, in fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True, timeout=120, capture_output=True, text=True)
        out.append(float(proc.stdout.strip()))
    return out


def run_round(workload, seed, trace, env, spans_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "bundlezeta" / "__init__.py").is_file():
        print(f"no bundlezeta source under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    env = child_env()
    out_dir = ROOT / workloads.SPEC_DIR
    trace = bool(args.trace)

    setup = measure_import(env) if trace else measure_setup(env)

    import expect  # loads the oracles only in this process, never in a worker

    cases = workloads.cases_for(args.workload, args.seed)
    expected = {case.id: expect.expect(case) for case in cases}

    rounds = []
    spans_out = str(out_dir / "trace" / f"{args.workload}-seed{args.seed}.json") if trace else None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(args.workload, args.seed, trace, env, spans_out if not rounds else None))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + last > args.seconds:
            break

    errors = []  # operations that raised: counted as failed
    problems = []  # outputs that miss their reference: the run is not correct
    for rnd in rounds:
        for record in rnd["ops"]:
            if record["error"] is not None:
                errors.append(f"{record['id']}: raised {record['error']}")
            else:
                problems += expect.problems(expected[record["id"]], record)
    attempted = sum(len(rnd["ops"]) for rnd in rounds)

    drift = []  # per-layer counts that do not repeat: a fault of the tracing, not of an output
    walls = [sum(op["wall"] for op in rnd["ops"]) for rnd in rounds]
    cpus = [sum(op["cpu"] for op in rnd["ops"]) for rnd in rounds]

    if trace:
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        layer_rows = [rnd["layers"] for rnd in rounds]
        metrics = {
            "cli.import_s": {"value": statistics.median(setup), "unit": "s"},
            # the statistic of wall_s, on traced rounds: trace.wall_s / wall_s - 1 is the tracing overhead
            "trace.wall_s": {"value": statistics.median(walls), "unit": "s"},
        }
        for name in layer_rows[0]:
            unit = units[name]
            values = [row[name] for row in layer_rows]
            if unit in COUNT_UNITS:
                if any(v != values[0] for v in values):
                    drift.append(f"layer count {name} differs between rounds: {values}")
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024.0, "unit": "MB"},
        }

    note = machine_note()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": note,
        "rounds": len(rounds),
        "operations_per_round": len(cases),
        "round_wall_s": walls,
        "round_cpu_s": cpus,
        "round_peak_rss_kb": [r["peak_rss_kb"] for r in rounds],
        "interpreter_probes_s": setup,
        "errors": errors[:200],
        "problems": problems[:200],
        "count_drift": drift,
        "op_wall_s": {op["id"]: [rnd["ops"][i]["wall"] for rnd in rounds] for i, op in enumerate(rounds[0]["ops"])},
    }
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    (out_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for line in errors[:10] + problems[:20] + drift:
        print(f"check: {line}")
    print("machine: " + json.dumps(note, sort_keys=True))
    result = {"correct": not problems, "attempted": attempted, "failed": len(errors), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
