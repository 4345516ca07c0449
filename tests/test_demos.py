"""Every demo script prints its recorded output, and every demo manifold
file validates, in a fresh interpreter."""

from __future__ import annotations

from pathlib import Path

import pytest

import swcalc
from conftest import SWCALC_PATH, run_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden_demos"


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


def test_s2xs2_blown_up_table_runs():
    # Both pipelines on a form whose first pivot needs the symmetric swap.
    # Swapping F and S is the reflection in F - S, which fixes the form,
    # K and both rays and permutes the effective cone, so it fixes the table.
    result = run_python(
        "-m", "swcalc.cli", "sw-table", "demos/s2xs2_blown_up.manifold", "--cmin=-5", "--cmax=5"
    )
    assert result.returncode == 0, result.stderr
    header, *lines = result.stdout.splitlines()
    assert header == "c\tsw_plus\tsw_minus"
    table = {}
    for line in lines:
        c, plus, minus = line.split("\t")
        table[tuple(map(int, c.split(",")))] = (int(plus), int(minus))
    assert len(lines) == len(table) == 150
    assert table[(2, -1, 2)] == (1, 0)
    assert table[(-2, 1, -2)] == (0, -1)
    assert {(f, e, s): v for (s, e, f), v in table.items()} == table


def test_swcalc_comes_from_the_first_pythonpath_entry():
    # PYTHONPATH=<tree>/src tests that tree, here and in the children.
    assert Path(swcalc.__file__).resolve().is_relative_to(Path(SWCALC_PATH[0]).resolve())
    result = run_python("-c", "import swcalc; print(swcalc.__file__)")
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.strip()).resolve() == Path(swcalc.__file__).resolve()
