"""Steadiness self-check: run the benchmark twice on the same commit and
report, per workload and metric, whether the two sets agree within the
bounds of BENCHMARK.json.

    python3 benchmarks/steady.py --runs 10 --sets 2
    python3 benchmarks/steady.py --workloads algebra --runs 5 --sets 1
    python3 benchmarks/steady.py --trace-repeats 2

Each set runs every workload --runs times, each time with another seed,
one run at a time, workloads interleaved. For each end-to-end metric it
prints the median of each set, the spread (distance between the first
and third quartile as statistics.quantiles gives them, over the median),
and whether the spread stays within a third of the bound (steady),
within the bound (accepted), and whether the later set's median is
worse than the first by no more than the bound. setup_s is exempt from
the spread test. With --trace-repeats N it also makes N traced runs per
workload with one seed and checks that every count repeats exactly.
Exits with 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "count/row")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output: {proc.stdout.splitlines()[-2]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-repeats", type=int, default=0)
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")

    ok = True
    sets: list[dict[str, list[dict]]] = []
    for s in range(args.sets):
        results: dict[str, list[dict]] = {w: [] for w in chosen}
        for i in range(args.runs):
            for w in chosen:
                results[w].append(run_once(w, args.first_seed + 100 * s + i, args.seconds, 0))
        sets.append(results)
        print(json.dumps({"set": s, "runs": results}), file=sys.stderr)

    for w in chosen if sets else ():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r[name] for r in results[w]] for results in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in per_set]
            exempt = name == "setup_s"
            steady = exempt or max(spreads) < bound / 3
            accepted = exempt or max(spreads) <= bound
            drift = max((worse_by(medians[0], m, metric["better"]) for m in medians[1:]), default=0.0)
            agree = drift <= bound
            ok &= accepted and agree
            print(
                f"{w:13} {name:12} medians {' '.join(f'{m:.4g}' for m in medians):24} "
                f"spreads {' '.join(f'{x:.3f}' for x in spreads):14} bound {bound:.2f} "
                f"steady={steady} accepted={accepted} agree={agree} (worse by {drift:+.3f})"
            )

    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    for w in chosen if args.trace_repeats else ():
        runs = [run_once(w, args.first_seed, args.seconds, 1) for _ in range(args.trace_repeats)]
        differ = [n for n in counts if len({r[n] for r in runs}) > 1]
        ok &= not differ
        print(f"{w:13} traced counts repeat exactly: {not differ} {differ or ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
