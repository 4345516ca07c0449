"""The benchmark workloads: seeded inputs, one cycle of operations,
and an oracle check for each operation's output.

A cycle is a fixed list of operations; the runner repeats whole cycles,
so every run measures the same mix. swcalc is imported only inside the
builders, after the runner has put the checkout's src/ on sys.path.
Operations look swcalc's functions up on the package at call time, so
that the tracer's wrappers see them.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import inputs as gen
import oracles

TABLE_PSC_K = (3, 4, 5)
TABLE_PSC_BOX = (-3, 3)
TABLE_KAHLER_K = (1, 2, 3, 4)
TABLE_KAHLER_BOX = (-5, 5)
VALIDATE_RANKS = (22, 40)
WALL_GENERA = (5, 6)
WALL_C = (2, 2)


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` does the work and ``check`` judges its result."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    units: int = 1
    rows: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Op
    import_stmt: str


def _topology(lat: gen.Lattice):
    from swcalc import ManifoldTopology

    return ManifoldTopology(
        name=lat.name,
        b1=0,
        bplus=1,
        bminus=lat.k,
        euler=lat.euler,
        signature=lat.signature,
        intersection_form=lat.form,
        w2=lat.w2,
    )


def _row_tuples(rows) -> list[tuple]:
    return [(r.c, r.sw_plus, r.sw_minus) for r in rows]


def _psc_ops(rng: random.Random) -> list[Op]:
    """sw_table over the box [-3, 3] with the PSC ray -K, for each k in
    the diagonal basis and in a seeded dense basis."""
    import swcalc
    from swcalc import PeriodRay

    ops = []
    for k in TABLE_PSC_K:
        for basis, lat in (("diag", gen.blowup(k)), ("dense", gen.blowup(k, rng, odd_w2=True))):
            m = _topology(lat)
            ray = PeriodRay(lat.minus_k)
            expected = gen.characteristic_box(lat.w2, *TABLE_PSC_BOX)

            def call(m=m, ray=ray):
                c_list = swcalc.characteristic_range(m, *TABLE_PSC_BOX)
                return swcalc.sw_table(m, c_list, psc_ray=ray)

            def check(rows, lat=lat, expected=expected):
                return oracles.table_ok(lat, expected, _row_tuples(rows), kahler=False)

            ops.append(Op(f"psc_k{k}_{basis}", call, check, len(expected), len(expected)))
    return ops


def _kahler_ops(rng: random.Random) -> list[Op]:
    """sw_table with the PSC ray and the Kahler facts, both rays -K, on
    every characteristic vector with w_c >= 0 of a box in the diagonal
    basis, written in a seeded dense basis. The seed moves the basis, not
    the classes, so every seed asks the cone the same questions."""
    import swcalc
    from swcalc import KahlerFacts, PeriodRay

    ops = []
    for k in TABLE_KAHLER_K:
        diag = gen.blowup(k)
        lat = gen.blowup(k, rng)
        to_lat = gen.inverse_map(lat)
        c_list = [
            to_lat(c)
            for c in gen.characteristic_box(diag.w2, *TABLE_KAHLER_BOX)
            if gen.expected_dim(diag.form, diag.signature, diag.euler, c) >= 0
        ]
        m = _topology(lat)
        ray = PeriodRay(lat.minus_k)
        facts = KahlerFacts(lat.canonical, lat.ns_basis, lat.cone, True, PeriodRay(lat.minus_k))

        def call(m=m, c_list=c_list, ray=ray, facts=facts):
            return swcalc.sw_table(m, c_list, psc_ray=ray, kahler_facts=facts)

        def check(rows, lat=lat, c_list=c_list):
            return oracles.table_ok(lat, c_list, _row_tuples(rows), kahler=True)

        ops.append(Op(f"kahler_k{k}", call, check, len(c_list), len(c_list)))
    return ops


def tables(seed: int, **_) -> Workload:
    """Both table pipelines: the PSC tables, which never call
    cone_contains, then the Kahler tables, where every row does."""
    rng = random.Random(f"tables:{seed}")
    ops = _psc_ops(rng) + _kahler_ops(rng)
    return Workload("tables", ops, ops[0], "import swcalc")


def algebra(seed: int, **_) -> Workload:
    """validate_topology on dense P2#21(-P2) and P2#39(-P2), and the
    wall-crossing jump on Sigma_g x S^2 in a dense basis of H^1."""
    import swcalc
    from swcalc import ExtForm, ManifoldTopology

    rng = random.Random(f"algebra:{seed}")
    ops = []
    for rank in VALIDATE_RANKS:
        m = _topology(gen.blowup(rank - 1, rng))
        call = lambda m=m: swcalc.validate_topology(m)  # noqa: E731
        ops.append(Op(f"validate_r{rank}", call, lambda v: v == []))
    for g in WALL_GENERA:
        surface = gen.product_surface(g, rng)
        m = ManifoldTopology(
            name=f"Sigma{g}xS2",
            b1=surface.b1,
            bplus=1,
            bminus=1,
            euler=surface.euler,
            signature=0,
            intersection_form=((0, 1), (1, 0)),
            w2=(0, 0),
            triple_cup=surface.cup,
        )
        form = ExtForm.scalar(surface.b1, 1)
        want = surface.wall_delta(WALL_C)
        ops.append(
            Op(
                f"wall_b1_{surface.b1}",
                lambda m=m, form=form: swcalc.wall_crossing_delta(m, WALL_C, form),
                lambda v, want=want: v == want,
            )
        )
    return Workload("algebra", ops, ops[2], "import swcalc")


def _spawn(root: Path, argv: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "swcalc.cli", *argv],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def _in_process(argv: list[str]) -> tuple[int, str]:
    import swcalc.cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = swcalc.cli.main(argv)
        except SystemExit as exc:  # argparse exits on a bad command line
            code = exc.code
    return code, out.getvalue()


def _char_vector(rng: random.Random, lat: gen.Lattice, spread: int) -> gen.Vector:
    return tuple(w + 2 * rng.randint(-spread, spread) for w in lat.w2)


def _pu2_args(rng: random.Random, lat: gen.Lattice) -> tuple[int, gen.Vector]:
    """An admissible (p1, c1): p1 == (w2 + c1)^2 (mod 4)."""
    c1 = tuple(rng.randint(-2, 2) for _ in lat.w2)
    lifted = [w + v for w, v in zip(lat.w2, c1)]
    return gen.pair(lat.form, lifted, lifted) % 4 - 4 * rng.randint(0, 6), c1


def cli(seed: int, root: Path, workdir: Path, in_process: bool = False) -> Workload:
    """The command mix of a shell user: one child process per command."""
    rng = random.Random(f"cli:{seed}")
    demos = root / "demos"
    p2 = gen.blowup(0, name="P2")
    dp = {k: gen.blowup(k) for k in (1, 2, 3)}
    dense = gen.blowup(21, rng)
    texts = {f"dp{k}": gen.lattice_text(lat, kahler=True, psc=True) for k, lat in dp.items()}
    texts["dense21"] = gen.lattice_text(dense, kahler=False, psc=False)
    files = {"p2": demos / "p2.manifold", "quadric": demos / "quadric.manifold"}
    for key, text in texts.items():
        files[key] = workdir / f"{key}.manifold"
        files[key].write_text(text, encoding="utf-8")
    texts.update({key: files[key].read_text(encoding="utf-8") for key in ("p2", "quadric")})
    f = {key: str(path) for key, path in files.items()}
    vec = oracles.vec

    def same(expected: str):
        return lambda r: r == (0, expected)

    def echo(key: str):
        return lambda r: r[0] == 0 and oracles.echo_ok(texts[key], r[1])

    c_p2 = (rng.choice(range(-9, 10, 2)),)
    c_dp2 = rng.choice(gen.characteristic_box(dp[2].w2, -5, 5))
    c_dense = _char_vector(rng, dense, 2)
    pu2_p2 = _pu2_args(rng, p2)
    pu2_dp3 = _pu2_args(rng, dp[3])
    strata_dp1 = _pu2_args(rng, dp[1])
    chamber_dp2 = rng.choice(gen.characteristic_box(dp[2].w2, -5, 5))
    chamber_dense = _char_vector(rng, dense, 2)
    degree, rank = rng.randint(-20, 20), rng.randint(1, 5)
    p = [rng.randint(-3, 3) for _ in range(3)]
    q = [rng.randint(-3, 3) for _ in range(rng.randint(2, 3))]

    plan = [
        ("validate", ["validate", f["p2"]], same(oracles.validate_stdout("P2"))),
        ("validate_echo", ["validate", f["quadric"], "--echo"], echo("quadric")),
        ("validate_echo", ["validate", f["dp3"], "--echo"], echo("dp3")),
        ("validate_r22", ["validate", f["dense21"]], same(oracles.validate_stdout(dense.name))),
        ("dim", ["dim", f["p2"], f"--c={vec(c_p2)}"], same(oracles.dim_stdout(p2, c_p2))),
        ("dim", ["dim", f["dp2"], f"--c={vec(c_dp2)}"], same(oracles.dim_stdout(dp[2], c_dp2))),
        (
            "dim_r22",
            ["dim", f["dense21"], f"--c={vec(c_dense)}"],
            same(oracles.dim_stdout(dense, c_dense)),
        ),
    ]
    for key, lat, (p1, c1) in (("p2", p2, pu2_p2), ("dp3", dp[3], pu2_dp3)):
        plan.append(
            (
                "dim_pu2",
                ["dim", f[key], "--pu2", f"--p1={p1}", f"--c1={vec(c1)}"],
                same(oracles.pu2_stdout(lat, p1, c1)),
            )
        )
    p1, c1 = strata_dp1
    plan += [
        (
            "strata",
            ["strata", f["dp1"], f"--p1={p1}", f"--c1={vec(c1)}"],
            same(oracles.strata_stdout(dp[1], p1, c1)),
        ),
        (
            "chamber",
            ["chamber", f["dp2"], f"--c={vec(chamber_dp2)}", f"--h={vec(dp[2].minus_k)}"],
            same(oracles.chamber_stdout(dp[2], chamber_dp2, dp[2].minus_k)),
        ),
        (
            "chamber_r22",
            ["chamber", f["dense21"], f"--c={vec(chamber_dense)}", f"--h={vec(dense.hyperplane)}"],
            same(oracles.chamber_stdout(dense, chamber_dense, dense.hyperplane)),
        ),
        (
            "stability",
            ["stability", "slope", f"--degree={degree}", f"--rank={rank}"],
            same(oracles.slope_stdout(degree, rank)),
        ),
        (
            "stability",
            ["stability", "poly-compare", f"--p={vec(p)}", f"--q={vec(q)}"],
            same(oracles.poly_compare_stdout(p, q)),
        ),
    ]
    lo, hi = Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-6, 6), 3)
    plan.append(
        (
            "stability",
            ["stability", "rho-interval", f"--m-under={lo}", f"--m-over={hi}"],
            same(oracles.rho_stdout(lo, hi)),
        )
    )
    run = _in_process if in_process else (lambda argv: _spawn(root, argv))
    ops = [Op(kind, lambda a=argv: run(a), check) for kind, argv, check in plan]
    # Every sw-table file carries both [kahler] and [psc].
    for key, lat, lo, hi in (("p2", p2, -9, 9), ("dp2", dp[2], -3, 3), ("dp3", dp[3], -1, 3)):
        expected = gen.characteristic_box(lat.w2, lo, hi)

        def check(r, lat=lat, expected=expected):
            return r[0] == 0 and oracles.table_ok(
                lat, expected, oracles.parse_table_stdout(r[1]), kahler=True
            )

        argv = ["sw-table", f[key], f"--cmin={lo}", f"--cmax={hi}"]
        ops.append(Op("sw_table", lambda a=argv: run(a), check, 1, len(expected)))
    return Workload("cli", ops, ops[0], "import swcalc.cli")


BUILDERS = {
    "cli": cli,
    "tables": tables,
    "algebra": algebra,
}
