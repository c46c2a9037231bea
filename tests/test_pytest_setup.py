"""The suite's pytest settings let a failing hypothesis test report its
falsifying example: every warning is an error, except the one hypothesis
triggers while it prints that example."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    command = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider"]
    done = subprocess.run(command + ["test_fails.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
