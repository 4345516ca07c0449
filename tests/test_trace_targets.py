"""Every name the benchmark tracer wraps still resolves on swcalc.

The traced benchmark runs look each entry of ``benchmarks/spans.py`` up
with ``getattr``, so a deleted or renamed function fails them. This test
reads the two target lists from that file, unedited, and catches the
same fault without a benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _targets() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPAN_TARGETS + spans.COUNT_TARGETS


@pytest.mark.parametrize("target", _targets())
def test_traced_name_resolves(target):
    mod_name, fn_name = target.split(".")
    assert callable(getattr(importlib.import_module(f"swcalc.{mod_name}"), fn_name, None))
