"""README's library example runs as written and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_its_commented_values():
    code = library_example()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    # each top-level print writes one line, in order
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    lines = done.stdout.splitlines()
    assert len(lines) == len(prints)
    expected = {i: m.group(1) for i, line in enumerate(prints) if (m := re.search(r"\)\s*# (\S+)$", line))}
    assert expected == {1: "72", 2: "False"}
    for i, value in expected.items():
        assert lines[i] == value, (prints[i], lines[i])
