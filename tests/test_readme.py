"""The README's "Library quick start" block runs and computes what its
comments claim, and the README names every demo manifold file."""

from __future__ import annotations

import re
from pathlib import Path

from swcalc import expected_dim_abelian

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library quick start\n+```python\n(.*?)```", text, re.DOTALL)
    assert match, "README has no python block under 'Library quick start'"
    return match.group(1)


def test_library_quick_start_block():
    namespace: dict = {}
    exec(compile(quick_start_block(), "README.md", "exec"), namespace)
    assert expected_dim_abelian(namespace["plane"], (3,)) == 0
    rows = namespace["rows"]
    assert [row.c for row in rows] == [(c,) for c in range(-9, 10, 2)]
    for row in rows:
        (c,) = row.c
        assert row.sw_plus == (1 if c >= 3 else 0)
        assert row.sw_minus == (-1 if c <= -3 else 0)


def test_readme_names_every_demo_manifold_file():
    text = README.read_text(encoding="utf-8")
    demos = sorted(path.name for path in (ROOT / "demos").glob("*.manifold"))
    assert demos, "demos/ holds no manifold file"
    assert [name for name in demos if f"`demos/{name}`" not in text] == []
