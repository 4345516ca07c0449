"""swcalc benchmark: one workload, one run, one JSON result line.

    python3 benchmarks/run.py --workload cli --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It generates the workload's inputs
from the seed, sets up three times (cold import of swcalc in a child
interpreter, input generation, one warm-up operation) and reports the
median as setup_s. Then it repeats whole cycles of the workload's
operations, one at a time, until the next cycle would overrun --seconds,
and checks every output against oracles that do not call swcalc.

With --trace 0 the operations run untraced and the result holds the
end-to-end metrics of BENCHMARK.json. With --trace 1 a third of the time
runs untraced and the rest under the span tracer of spans.py, and the
result holds the per-layer metrics; the spans are written to
benchmarks/.out/spans-<workload>.csv.gz. The cli workload runs its
commands as child processes untraced and in-process through
swcalc.cli.main when traced.

The line before the result is a report: the stamp (git SHA, Python,
nproc, seed), the sample count and percentile behind each timing, the
per-operation medians, fail_ratio, the first failures, and in a traced
run every per-layer figure. The last line is the result.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
SETUP_REPS = 3
STARTUP_REPS = 7
TRACE_UNTRACED_SHARE = 1 / 3


@dataclass
class Tally:
    """Outcome of repeating whole cycles of a workload's operations."""

    durations: list[float] = field(default_factory=list)
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    by_op: dict[int, list[float]] = field(default_factory=dict)
    units_by_kind: dict[str, int] = field(default_factory=dict)
    cycle_times: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    units: int = 0
    cycles: int = 0

    def record(self, position: int, op, seconds: float, failure) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"{op.kind}: {failure}")
        self.durations.append(seconds)
        self.by_kind.setdefault(op.kind, []).append(seconds)
        self.by_op.setdefault(position, []).append(seconds)
        self.units += op.units
        self.units_by_kind[op.kind] = self.units_by_kind.get(op.kind, 0) + op.units


def run_op(op, call):
    """Time one operation and judge its output; a raising operation or
    check is a failure, never a crash of the benchmark."""
    t0 = perf_counter()
    try:
        out = call()
    except Exception:  # noqa: BLE001 - counted as a failed operation
        return perf_counter() - t0, traceback.format_exc(limit=2).strip().splitlines()[-1]
    seconds = perf_counter() - t0
    try:
        ok = op.check(out)
    except Exception:  # noqa: BLE001 - an unreadable output is a wrong one
        ok = False
    return seconds, None if ok else "output does not match the oracle"


def repeat_cycles(ops, seconds: float, tally: Tally, tracer=None) -> Tally:
    start = perf_counter()
    while True:
        gc.collect()
        cycle_start = perf_counter()
        busy = 0.0
        for position, op in enumerate(ops):
            if tracer is None:
                call = op.call
            else:
                call = functools.partial(tracer.run_op, tally.attempted, op.kind, op.call)
            dt, failure = run_op(op, call)
            tally.record(position, op, dt, failure)
            busy += dt
        tally.cycles += 1
        tally.cycle_times.append(busy)
        now = perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return tally


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def time_child(code: str) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True, timeout=120)
    return perf_counter() - t0


def git_sha() -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(tally: Tally, setup: list[float], children: bool) -> dict[str, float]:
    """Latency percentiles are taken over the cycle's operations, each
    represented by its median over the run's cycles: a cycle mixes a few
    operations of very different cost, and a percentile of the raw
    samples would fall between two of them and jump with single samples."""
    per_op = [statistics.median(v) for v in tally.by_op.values()]
    deciles = statistics.quantiles(per_op, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(children),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "work_per_s": tally.units / sum(tally.durations),
    }


def named_figures(workload: str, metrics: dict[str, float], tally: Tally) -> dict[str, float]:
    """Per-kind medians, and the figures the workload exists for under
    their own names."""
    out = {f"{k}_ms": statistics.median(v) * 1e3 for k, v in tally.by_kind.items()}
    if workload == "cli":
        out.update(cli_p50_ms=metrics["op_p50_ms"], cli_p90_ms=metrics["op_p90_ms"])
    if workload == "tables":
        for pipeline in ("psc", "kahler"):
            kinds = [k for k in tally.by_kind if k.startswith(pipeline)]
            rows = sum(tally.units_by_kind[k] for k in kinds)
            out[f"{pipeline}_rows_per_s"] = rows / sum(sum(tally.by_kind[k]) for k in kinds)
    return out


def startup_floor() -> dict[str, float]:
    """Interpreter start and the swcalc.cli import on top of it, in ms.

    Each is the fastest of a few child processes: a start-up is short
    enough that the fastest one is the one the host disturbed least."""
    bare, loaded = [], []
    for _ in range(STARTUP_REPS):
        bare.append(time_child("pass"))
        loaded.append(time_child("import swcalc.cli"))
    return {"cli.interp_ms": min(bare) * 1e3, "cli.import_ms": (min(loaded) - min(bare)) * 1e3}


def select(spec: list[dict], values: dict[str, float]) -> dict[str, dict]:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "swcalc" / "__init__.py").is_file():
        print(f"error: no swcalc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    build = workloads.BUILDERS[args.workload]
    traced = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    try:
        tally = Tally()
        setup = []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            wl = build(args.seed, root=ROOT, workdir=workdir, in_process=traced)
            time_child(wl.import_stmt)
            _, failure = run_op(wl.warmup, wl.warmup.call)
            setup.append(perf_counter() - t0)
            tally.attempted += 1
            if failure:
                tally.failures.append(f"warm-up {wl.warmup.kind}: {failure}")
        rows_per_cycle = sum(op.rows for op in wl.ops)
        if not traced:
            repeat_cycles(wl.ops, args.seconds, tally)
            values = end_to_end(tally, setup, children=args.workload == "cli")
            metrics = select(spec["end_to_end"], values)
            report = {**values, **named_figures(args.workload, values, tally)}
        else:
            from spans import Tracer, layer_metrics

            floor = startup_floor()
            plain = repeat_cycles(wl.ops, args.seconds * TRACE_UNTRACED_SHARE, Tally())
            tracer = Tracer()
            tracer.install()
            try:
                repeat_cycles(wl.ops, args.seconds * (1 - TRACE_UNTRACED_SHARE), tally, tracer)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"spans-{args.workload}.csv.gz")
            values = layer_metrics(tracer, tally.cycles, rows_per_cycle)
            values.update(floor)
            traced_ms = statistics.median(tally.cycle_times) * 1e3
            plain_ms = statistics.median(plain.cycle_times) * 1e3
            values["trace.overhead_ms"] = traced_ms - plain_ms
            values["trace.overhead_pct"] = 100 * (traced_ms / plain_ms - 1)
            tally.attempted += plain.attempted
            tally.failures += plain.failures
            metrics = select(spec["per_layer"], values)
            report = dict(values)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.failures)
    attempted = max(tally.attempted, 1)
    n = len(tally.durations)
    per_op = {"each_a_median_of": tally.cycles, "raw_samples": n}
    report.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "fail_ratio": failed / attempted,
            "failures": tally.failures[:5],
            "cycles": tally.cycles,
            "rows_per_cycle": rows_per_cycle,
            "samples": {
                "setup_s": {"samples": len(setup), "percentile": 50},
                "op_p50_ms": {"operations": len(tally.by_op), "percentile": 50, **per_op},
                "op_p90_ms": {"operations": len(tally.by_op), "percentile": 90, **per_op},
                "work_per_s": {"samples": n, "units": tally.units},
                "per_kind_ms": {
                    k: {"samples": len(v), "percentile": 50} for k, v in tally.by_kind.items()
                },
            },
        }
    )
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
