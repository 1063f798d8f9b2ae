"""Every ``approx(..., rel=...)`` in the tests states its ``abs=`` too.

pytest's default absolute tolerance of 1e-12 is wider than ``rel`` times the
expected value whenever that value is below 1e-12 / rel, so a rel-only call
can be far looser than it reads.  This scan keeps the default from coming back.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def rel_only_approx_calls(source: str) -> list[int]:
    """Line numbers of ``approx`` calls that pass ``rel=`` without ``abs=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        keywords = {k.arg for k in node.keywords}
        if name == "approx" and "rel" in keywords and "abs" not in keywords:
            lines.append(node.lineno)
    return lines


def test_scan_flags_rel_only_calls():
    assert rel_only_approx_calls("pytest.approx(1.0, rel=1e-9)\napprox(2.0, rel=1e-9)") == [1, 2]
    assert rel_only_approx_calls("pytest.approx(1.0, rel=1e-9, abs=0.0)\npytest.approx(1.0, abs=1e-9)") == []


def test_every_rel_approx_states_abs():
    offenders = [
        f"{path.name}:{line}" for path in sorted(TESTS.glob("*.py")) for line in rel_only_approx_calls(path.read_text())
    ]
    assert offenders == []
