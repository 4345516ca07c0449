"""Every demo script runs, and every demo manifold file validates, in a
fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_script_runs(script):
    result = run_python(str(script))
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.manifold")), ids=lambda p: p.name)
def test_demo_manifold_validates(path):
    result = run_python("-m", "swcalc.cli", "validate", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok: ")
