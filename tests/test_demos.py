"""Smoke tests: demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_explore_strategies_demo_runs():
    result = run_demo("04_explore_strategies.py")
    assert result.returncode == 0, result.stderr
    assert "forecast-optimal probe budget: tau = 2" in result.stdout
