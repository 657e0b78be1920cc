"""Smoke test: every demo script, and the README's Quick start, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(path, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    result = run_script(demo, tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs(tmp_path):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start", 1)[1]
    script = tmp_path / "quick_start.py"
    script.write_text(section.split("```python\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    result = run_script(script, tmp_path)
    assert result.returncode == 0, result.stderr
    assert "raw_gap=" in result.stdout
