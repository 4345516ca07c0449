"""Span and call-count tracing of swcalc's public functions, installed
from outside the package.

Each target function is replaced, in every swcalc module namespace that
holds it, by a wrapper. Span targets record (operation id, span id,
parent span, name, start, end) in memory; count targets only count
calls, because they run millions of times per table and a span each
would cost more than the work. A layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
import statistics
from array import array
from collections import Counter
from time import perf_counter_ns

SPAN_TARGETS = (
    "cli.main",
    "manifoldfile.parse_manifold_text",
    "manifoldfile.emit_manifold_text",
    "topology.validate_topology",
    "topology.require_characteristic",
    "chambers.classify_chamber_oriented",
    "kahler.sw_table",
    "kahler.validate_kahler_facts",
    "extalg.wedge_power",
    "extalg.cup_form",
    "linalg.cone_contains",
    "linalg.integer_combination",
    "linalg.determinant",
    "linalg.inertia",
)

COUNT_TARGETS = (
    "topology.expected_dim_abelian",
    "kahler.douady_nonempty",
    "extalg.wall_crossing_delta",
    "extalg.wedge",
    "linalg.rank",
    "linalg.quadratic",
    "linalg.pairing",
    "linalg.dot",
)


class Tracer:
    """Spans of one traced pass, kept in flat arrays until written out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op_ids = array("q")
        self.parents = array("q")
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.starts)
        self.op_ids.append(self.op_id)
        self.parents.append(self.stack[-1])
        self.name_ids.append(nid)
        self.ends.append(0)
        self.stack.append(sid)
        self.starts.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter_ns()
        self.stack.pop()

    def span(self, name: str, fn):
        nid = self._name_id(name)
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(sid)

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        if name == "extalg.wedge":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                out = fn(*args, **kwargs)
                counts["extalg.wedge.terms_out"] += len(out.coeffs)
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target in every swcalc module that binds it."""
        import swcalc

        modules = [swcalc] + [
            importlib.import_module(f"swcalc.{info.name}")
            for info in pkgutil.iter_modules(swcalc.__path__)
        ]
        for target in SPAN_TARGETS + COUNT_TARGETS:
            mod_name, fn_name = target.split(".")
            original = getattr(importlib.import_module(f"swcalc.{mod_name}"), fn_name)
            if target in SPAN_TARGETS:
                wrapper = self.span(target, original)
            else:
                wrapper = self.counter(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def run_op(self, op_id: int, kind: str, call):
        """Run one operation under a root span named 'op:<kind>'."""
        self.op_id = op_id
        sid = self._open(self._name_id(f"op:{kind}"))
        try:
            return call()
        finally:
            self._close(sid)

    def self_times(self) -> tuple[dict[str, int], dict[str, list[int]]]:
        """Per name: total self time in ns, and every span's duration."""
        n = len(self.starts)
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        total: Counter = Counter()
        durations: dict[str, list[int]] = {}
        for i in range(n):
            name = self.names[self.name_ids[i]]
            dur = self.ends[i] - self.starts[i]
            total[name] += dur - child[i]
            durations.setdefault(name, []).append(dur)
        return dict(total), durations

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{self.op_ids[i]},{i},{self.parents[i]},{self.names[self.name_ids[i]]},"
                    f"{self.starts[i]},{self.ends[i]}\n"
                )


def layer_metrics(tracer: Tracer, cycles: int, rows_per_cycle: int) -> dict[str, float]:
    """Per-layer figures of one traced cycle, named after the traced function.

    Self times are per cycle in ms and as a share of the cycle's
    operation time; calls are per cycle and per table row (0 when the
    workload computes no rows). Cycles repeat identical work, so counts
    per cycle are exact.
    """
    self_ns, durations = tracer.self_times()
    op_ns = sum(sum(d) for k, d in durations.items() if k.startswith("op:")) or 1
    calls = Counter(tracer.counts)
    calls.update({k: len(d) for k, d in durations.items()})
    out: dict[str, float] = {}
    for name in SPAN_TARGETS:
        out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6 / cycles
        out[f"{name}.self_pct"] = 100.0 * self_ns.get(name, 0) / op_ns
    cone = durations.get("linalg.cone_contains", [])
    out["linalg.cone_contains.p50_ms"] = statistics.median(cone) / 1e6 if cone else 0.0
    out["linalg.cone_contains.max_ms"] = max(cone) / 1e6 if cone else 0.0
    for name in SPAN_TARGETS + COUNT_TARGETS:
        out[f"{name}.calls"] = calls[name] / cycles
        out[f"{name}.calls_per_row"] = (
            calls[name] / (rows_per_cycle * cycles) if rows_per_cycle else 0.0
        )
    out["extalg.wedge.terms_out"] = calls["extalg.wedge.terms_out"] / cycles
    return out
