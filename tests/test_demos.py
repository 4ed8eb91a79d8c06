"""Smoke tests: demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# the quick demos (under 5 s each); 03, 05 and 07 take 11-55 s and stay out
@pytest.mark.parametrize("name, last_line", [
    ("01_belief_filtering.py", "  after 3 silent steps: belief=[0.9803 0.0197]"),
    ("02_probe_arm_scores.py", "  probe arm unshifted: 2, shifted by +10: 2"),
    ("06_dataset_pipeline.py", "  final mean regret agemts: 96.14"),
])
def test_demo_prints_its_result(name, last_line):
    result = run_demo(name)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == last_line
