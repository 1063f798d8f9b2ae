import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bundlezeta import bundle_graph
from bundlezeta.cli import main
from bundlezeta.heat_theta import ContinuousTorusSpec
from bundlezeta.zeta import epstein_hurwitz_deriv0, epstein_hurwitz_zeta

REPO = Path(__file__).resolve().parent.parent
CYCLE5 = str(REPO / "sample_specs" / "cycle5.json")
TORUS22 = str(REPO / "sample_specs" / "torus22.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# detlog
# ---------------------------------------------------------------------------


def test_detlog_three_cycle(capsys):
    code, rep = run_json(capsys, "detlog", "--d", "1", "--a", "3", "--lambda", "0.5")
    assert code == 0
    assert rep["result"]["eigen_logdet"] == pytest.approx(math.log(4.0), abs=1e-10)
    assert rep["result"]["lu_logdet"] == pytest.approx(math.log(4.0), abs=1e-10)
    assert rep["result"]["holonomies"] == [0.5]


def test_detlog_skips_lu_above_dense_budget(capsys, monkeypatch):
    monkeypatch.setattr(bundle_graph, "MAX_DENSE_BYTES", 16 * 9 * 9)
    code, rep = run_json(capsys, "detlog", "--d", "2", "--a", "4,4", "--lambda", "0.3,0.7")
    assert code == 0
    assert "lu_logdet" not in rep["result"]
    assert rep["result"]["eigen_logdet"] > 0.0


def test_detlog_2x2_from_file(capsys):
    code, rep = run_json(capsys, "detlog", "--weights-file", TORUS22)
    assert code == 0
    assert rep["result"]["eigen_logdet"] == pytest.approx(math.log(256.0), abs=1e-10)


def test_detlog_trivial_bundle_structured_error(capsys):
    code, rep = run_json(capsys, "detlog", "--d", "1", "--a", "4", "--lambda", "0")
    assert code == 2
    assert rep["kind"] == "precondition"
    assert "zero eigenvalue" in rep["error"]


def test_detlog_eigenvalue_cap_refused(capsys):
    # 4000^3 vertices: the 4000^2 transverse eigenvalues are above the cap
    code, rep = run_json(capsys, "detlog", "--d", "3", "--a", "4000,4000,4000", "--lambda", "0.3,0.4,0.5")
    assert code == 2
    assert rep["kind"] == "precondition"
    assert "cap" in rep["error"]


# ---------------------------------------------------------------------------
# crsf-check
# ---------------------------------------------------------------------------


def test_crsf_check_cycle5(capsys):
    code, rep = run_json(capsys, "crsf-check", "--weights-file", CYCLE5)
    assert code == 0
    assert rep["result"]["crsf_count"] == 1
    assert rep["result"]["abs_err"] < 1e-9


def test_crsf_check_torus22(capsys):
    code, rep = run_json(capsys, "crsf-check", "--weights-file", TORUS22)
    assert code == 0
    assert rep["result"]["abs_err"] < 1e-9
    assert rep["result"]["det"] == pytest.approx(256.0, rel=1e-11, abs=0.0)


def test_crsf_check_oversized_graph_refused(capsys, tmp_path):
    spec = {
        "dimension": 2,
        "sides": [4, 4],
        "weights": [[{"angle": 0.0}] * 4, [{"angle": 0.1}] + [{"angle": 0.0}] * 3],
    }
    p = tmp_path / "big.json"
    p.write_text(json.dumps(spec))
    code, rep = run_json(capsys, "crsf-check", "--weights-file", str(p))
    assert code == 2
    assert "cap" in rep["error"]


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------


def test_zeta_cd_dimension_two(capsys):
    code, rep = run_json(capsys, "zeta", "cd", "--d", "2")
    assert code == 0
    assert rep["result"]["value"] == pytest.approx(1.166243616123275, abs=1e-6)
    assert rep["result"]["error_estimate"] <= 1e-6


def test_zeta_eh_deriv0_half_twist(capsys):
    code, rep = run_json(
        capsys, "zeta", "eh-deriv0", "--alpha", "1", "--lambda", "0.5"
    )
    assert code == 0
    assert rep["result"]["value"] == pytest.approx(-2.0 * math.log(2.0), abs=1e-8)


def test_zeta_eh_deriv0_alpha_defaults_from_dimension(capsys):
    code, rep = run_json(capsys, "zeta", "eh-deriv0", "--d", "1", "--lambda", "0.5")
    assert code == 0
    assert rep["result"]["value"] == pytest.approx(-2.0 * math.log(2.0), abs=1e-8)


def test_zeta_kronecker_matches_deriv0(capsys):
    code1, rep1 = run_json(
        capsys, "zeta", "kronecker", "--alpha", "1,1", "--lambda", "0,0.5"
    )
    code2, rep2 = run_json(
        capsys, "zeta", "eh-deriv0", "--alpha", "1,1", "--lambda", "0,0.5"
    )
    assert code1 == code2 == 0
    assert rep1["result"]["value"] == pytest.approx(rep2["result"]["value"], abs=1e-8)


def test_zeta_gn_complex_value(capsys):
    code, rep = run_json(
        capsys, "zeta", "gn", "--s", "1+0.5i", "--d", "1", "--a", "4", "--lambda", "0.3"
    )
    assert code == 0
    value = rep["result"]["value"]
    assert isinstance(value, dict) and set(value) == {"re", "im"}


def test_zeta_eh_pole_refused(capsys):
    code, rep = run_json(
        capsys, "zeta", "eh", "--s", "0.5", "--alpha", "1", "--lambda", "0.5"
    )
    assert code == 2


def test_zeta_s_outside_window_refused(capsys):
    # each once crashed (exit 1) or returned rounding noise with exit 0
    for argv in (
        ("zeta", "eh", "--alpha", "1,1", "--lambda", "0.3,0.7", "--s", "nan"),
        ("zeta", "eh", "--alpha", "1,1", "--lambda", "0.3,0.7", "--s", "200"),
        ("zeta", "eh", "--alpha", "1", "--lambda", "0.3", "--s", "200"),
        ("zeta", "eh", "--alpha", "1", "--lambda", "0.3", "--s", "250"),
        ("zeta", "eh", "--alpha", "1,1", "--lambda", "0.3,0.7", "--s", "-60.5"),
        ("zeta", "gn", "--d", "1", "--a", "4", "--lambda", "0.3", "--s", "nan"),
    ):
        code, rep = run_json(capsys, *argv)
        assert code == 2, argv
        assert rep["kind"] == "precondition"
        assert "finite" in rep["error"]


def _cli_subprocess(*argv) -> dict:
    """One CLI run in a fresh interpreter, with a timeout so that a runaway loop fails the test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bundlezeta", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout)["result"]


def test_zeta_eh_long_thin_torus_is_bounded():
    # alpha1/alpha2 = 1e6 once meant ~1e7 rows of lattice sum (about 40 minutes)
    rep = _cli_subprocess("zeta", "eh", "--alpha", "1e6,1", "--lambda", "0.3,0.3", "--s", "2")
    assert rep["method"] == "eigensum"
    split = epstein_hurwitz_zeta(2.0, ContinuousTorusSpec((1e6, 1.0), (0.3, 0.3)), method="integral_split")
    assert rep["value"] == pytest.approx(split.value, rel=1e-12, abs=0.0)


def test_zeta_kronecker_long_thin_torus_is_bounded():
    # rho = 1e-8 once meant ~1e9 factors in the product (minutes)
    rep = _cli_subprocess("zeta", "kronecker", "--alpha", "1e-8,1", "--lambda", "0.3,0.5")
    integral = epstein_hurwitz_deriv0(ContinuousTorusSpec((1e-8, 1.0), (0.3, 0.5)))
    assert rep["value"] == pytest.approx(integral.value, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_asymptotics_thm11_decreasing(capsys):
    code, rep = run_json(
        capsys,
        "asymptotics",
        "thm11",
        "--d",
        "2",
        "--lambda",
        "0.3,0.7",
        "--ns",
        "8,16,32",
    )
    assert code == 0
    rows = rep["result"]["rows"]
    residuals = [abs(r[1]) for r in rows]
    assert residuals[2] < residuals[1] < residuals[0]


def test_asymptotics_thm13_csv(capsys):
    code, out = run(
        capsys,
        "asymptotics",
        "thm13",
        "--d",
        "1",
        "--s",
        "0.25",
        "--lambda",
        "0.5",
        "--ns",
        "16,32,64",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,residual"
    vals = [abs(float(line.split(",")[1])) for line in lines[1:]]
    assert vals[2] < vals[1] < vals[0]


def test_asymptotics_product_formula(capsys):
    code, rep = run_json(
        capsys, "asymptotics", "product-formula", "--m", "2,2", "--n", "2", "--z", "1,1"
    )
    assert code == 0
    assert rep["result"]["abs_err"] < 1e-9


def test_asymptotics_theta_gap(capsys):
    code, rep = run_json(
        capsys,
        "asymptotics",
        "theta-gap",
        "--d",
        "1",
        "--lambda",
        "0.5",
        "--ns",
        "4,16",
        "--t",
        "1.0",
    )
    assert code == 0
    rows = rep["result"]["rows"]
    assert rows[1][1] < rows[0][1]


# ---------------------------------------------------------------------------
# theta tables
# ---------------------------------------------------------------------------


def test_theta_table_discrete_csv(capsys):
    code, out = run(
        capsys,
        "theta",
        "--d",
        "1",
        "--a",
        "2",
        "--lambda",
        "0.5",
        "--t-grid",
        "1.0",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,theta_discrete"
    assert float(lines[1].split(",")[1]) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12, abs=0.0)


def test_theta_table_continuous(capsys):
    code, rep = run_json(
        capsys, "theta", "--alpha", "1", "--lambda", "0.5", "--t-grid", "4.0"
    )
    assert code == 0
    val = rep["result"]["rows"][0][1]
    assert val == pytest.approx(2.0 * math.exp(-math.pi**2 * 4.0), rel=1e-6, abs=0.0)


def test_theta_table_continuous_past_underflow(capsys):
    code, rep = run_json(capsys, "theta", "--alpha", "1", "--lambda", "0.3", "--t-grid", "250")
    assert code == 0
    assert rep["result"]["rows"] == [[250.0, 0.0]]


def test_non_finite_continuum_input_refused(capsys):
    for argv in (
        ("theta", "--alpha", "inf", "--lambda", "0.3", "--t-grid", "1"),
        ("zeta", "eh", "--alpha", "inf", "--lambda", "0.3", "--s", "2"),
        ("zeta", "kronecker", "--alpha", "1,inf", "--lambda", "0.3,0.5"),
        ("asymptotics", "theta-gap", "--d", "1", "--lambda", "0.5", "--ns", "4", "--t", "inf"),
        ("theta", "--alpha", "1", "--lambda", "0.3", "--t-grid", "inf"),
        ("theta", "--alpha", "1", "--lambda", "0.3", "--t-grid", "nan"),
    ):
        code, rep = run_json(capsys, *argv)
        assert code == 2
        assert rep["kind"] == "precondition"
        assert "finite" in rep["error"]


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_json_report_roundtrips_byte_identical(capsys):
    code, out = run(capsys, "detlog", "--d", "1", "--a", "3", "--lambda", "0.5")
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out


def test_output_file_and_threads_flag(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["detlog", "--d", "1", "--a", "3", "--lambda", "0.5", "--out", str(target)])
    assert code == 0
    rep = json.loads(target.read_text())
    assert rep["result"]["eigen_logdet"] == pytest.approx(math.log(4.0), abs=1e-10)
    # --threads did nothing and is gone: argparse refuses it with exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["detlog", "--d", "1", "--a", "3", "--lambda", "0.5", "--threads", "4"])
    assert exc.value.code == 2


def test_csv_floats_17_digits(capsys):
    code, out = run(
        capsys, "detlog", "--d", "1", "--a", "3", "--lambda", "0.5", "--format", "csv"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    idx = header.split(",").index("eigen_logdet")
    cell = row.split(",")[idx]
    assert float(cell) == pytest.approx(math.log(4.0), abs=1e-10)
    assert len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 16


@pytest.mark.parametrize(
    "argv",
    [
        "detlog --d 1 --a 4 --lambda 0",
        "detlog --d 2 --a 4 --lambda 0.3,0.5",
        "zeta eh --alpha 1 --lambda 1 --s 2",
        "zeta eh-deriv0 --alpha 1,2 --lambda 0,1",
        "asymptotics thm11 --alpha 1,1 --lambda 0.3 --ns 8,16",
        "asymptotics thm13 --d 2 --lambda 0.3 --s 0.5 --ns 8",
        "theta --alpha 1 --lambda 0.3 --t-grid 0",
        "asymptotics theta-gap --d 1 --lambda 0.5 --ns 4 --t nan",
        "asymptotics product-formula --m 2000,2000 --n 2 --z 1,1",
        "zeta gn --d 2 --a 2001,2000 --lambda 0.5,0.5 --s 2",
        "theta --d 1 --a 4 --lambda 0 --t-grid inf",
    ],
)
def test_precondition_refusal_table(capsys, argv):
    # each precondition has one owner; every CLI route to it still refuses with exit 2
    code, rep = run_json(capsys, *argv.split())
    assert code == 2, argv
    assert rep["kind"] == "precondition"


_TORUS_FILE = {"dimension": 1, "sides": [3], "weights": [[1.0, 1.0, {"angle": 0.3}]]}
_GRAPH_FILE = {"vertices": 2, "edges": [{"tail": 0, "head": 1, "weight": 1.0}, {"tail": 1, "head": 0, "weight": {"angle": 0.3}}]}


@pytest.mark.parametrize(
    "command, text",
    [
        ("detlog", None),
        ("detlog", '{"dimension": 1,'),
        ("crsf-check", json.dumps({**_GRAPH_FILE, "edges": [{"tail": 0, "head": 1}]})),
        ("detlog", json.dumps({**_TORUS_FILE, "sides": ["a"]})),
        ("detlog", json.dumps({**_TORUS_FILE, "weights": [[1.0, 1.0, {"angle": "x"}]]})),
        ("detlog", json.dumps({**_TORUS_FILE, "dimension": 1.7})),
        ("detlog", json.dumps({**_TORUS_FILE, "sides": [3.7]})),
        ("crsf-check", json.dumps({**_GRAPH_FILE, "vertices": 2.7})),
    ],
    ids=["missing", "not-json", "edge-without-weight", "side-not-a-number", "angle-not-a-number",
         "dimension-1.7", "side-3.7", "vertices-2.7"],
)
def test_malformed_spec_file_refused(capsys, tmp_path, command, text):
    path = tmp_path / "spec.json"
    if text is not None:
        path.write_text(text)
    code, rep = run_json(capsys, command, "--weights-file", str(path))
    assert code == 2
    assert rep["kind"] == "precondition"


def test_missing_arguments_refused(capsys):
    code, rep = run_json(capsys, "detlog")
    assert code == 2
    assert rep["kind"] == "precondition"
