"""Every demo script prints its recorded output, and every demo manifold
file validates, in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden_demos"


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
    golden = GOLDEN / f"{script.stem}.stdout"
    assert result.stdout.encode("utf-8") == golden.read_bytes()


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.manifold")), ids=lambda p: p.name)
def test_demo_manifold_validates(path):
    result = run_python("-m", "swcalc.cli", "validate", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok: ")


def test_cubic_surface_table_runs():
    # Both pipelines at -K, with the 27 lines as the effective cone. Every
    # c in {-1, 1}^7 has c^2 = 1 - 6 < 2*euler + 3*signature = 3, so w_c < 0.
    result = run_python(
        "-m", "swcalc.cli", "sw-table", "demos/cubic_surface.manifold", "--cmin=-1", "--cmax=1"
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert len(rows) == 2 ** 7
    assert all(row.endswith("\t0\t0") for row in rows)
