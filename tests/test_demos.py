"""Smoke test: every script in demos/ runs to completion, and the README's
Quick tour prints what its comments say."""

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import meadows

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script):
    src = str(Path(meadows.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_quick_tour():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    # Each print states its output in a comment at the end of its line, or
    # on the next line when the call fills its own.
    lines = block.splitlines()
    expected = []
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("print("):
            inline = re.fullmatch(r"print\(.*\) +# (.*)", line)
            expected.append(inline.group(1) if inline else after.removeprefix("# "))
    out = io.StringIO()
    with redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected
    assert len(expected) == 7
