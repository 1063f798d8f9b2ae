"""Every command line of README.md against its report frozen in data/cli_golden.json.

The fixture holds, per command, the exit code and the JSON report (or the
CSV cells) as the CLI printed them before the command handlers became
table-driven.  Keys, strings and exit codes must match exactly; floats to
1e-13 relative, with no absolute slack.
"""

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

from bundlezeta.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text())


def readme_commands() -> list[str]:
    lines = (REPO / "README.md").read_text().splitlines()
    return [line[len("bundlezeta ") :].strip() for line in lines if line.startswith("bundlezeta ")]


def assert_same(got, want, path="report"):
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    else:
        assert got == want, path


def csv_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def test_fixture_covers_every_readme_command():
    assert [entry["command"] for entry in GOLDEN] == readme_commands()


@pytest.mark.parametrize("entry", GOLDEN, ids=[entry["command"] for entry in GOLDEN])
def test_readme_command_matches_golden_report(entry, monkeypatch):
    monkeypatch.chdir(REPO)  # README paths are relative to the repository root
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(entry["command"]))
    assert code == entry["exit_code"]
    if "csv" in entry:
        got = [[csv_cell(cell) for cell in row.split(",")] for row in out.getvalue().strip().splitlines()]
        want = [[csv_cell(cell) for cell in row] for row in entry["csv"]]
        assert_same(got, want)
    else:
        assert_same(json.loads(out.getvalue()), entry["report"])
