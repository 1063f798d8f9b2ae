"""The scripts under scripts/ run to completion on tiny arguments and print their CSV header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("run_logdet_asymptotics.py", ["--ns", "8,16"], "family,n,residual,slope"),
        ("run_kronecker_grid.py", ["--ratios", "1", "--lams", "0.25"], "ratio,lam1,lam2,integral,closed_form,abs_diff"),
        ("run_crsf_census.py", ["--bundles", "1"], "graph,crsf_count,kenyon_sum,det,abs_err"),
    ],
)
def test_script_runs_and_prints_csv(script, args, header):
    lines = run_script(script, args, timeout=60)
    assert lines[0] == header
    assert len(lines) > 1
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines[1:])


def run_script(script, args, timeout):
    return run_python([str(REPO / "scripts" / script), *args], timeout)


def run_python(argv, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_runtime_imports_only_numpy_and_the_standard_library():
    # mpmath, scipy and networkx serve the tests as oracles: a stray import of one in the package would pass
    # every other test where they are installed, and add to the start-up time of every command
    probe = (
        "import sys; before = set(sys.modules); import bundlezeta, bundlezeta.cli; "
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))"
    )
    (line,) = run_python(["-c", probe], timeout=60)
    new = set(line.split())
    assert {"numpy", "bundlezeta"} <= new
    assert new - {"numpy", "bundlezeta"} - sys.stdlib_module_names == set()


def test_kronecker_grid_at_extreme_aspect_ratios():
    # both routes have a cost bounded at every aspect ratio, and they agree there
    lines = run_script("run_kronecker_grid.py", ["--ratios", "1e-6,1e6", "--lams", "0.3"], timeout=10)
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [float(row["ratio"]) for row in rows] == [1e-6, 1e6]
    for row in rows:
        assert float(row["abs_diff"]) <= 1e-9 * abs(float(row["closed_form"]))
