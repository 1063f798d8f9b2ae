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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines[1:])
