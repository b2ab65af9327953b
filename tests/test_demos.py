"""Smoke test of the demos and of the README's library quick start: each
runs in a fresh interpreter on the package's source tree and exits 0, so
an API change that breaks one shows here."""

import pathlib
import re
import subprocess
import sys

import pytest

from conftest import source_env

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


def run_python(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=source_env(), capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    result = run_python(str(ROOT / "demos" / demo))
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "solve_relaxed" in code
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
