"""Tests of the benchmark's input generator and oracles.

    python3 -m pytest benchmarks

They sit outside the package's test paths, so the package's own suite
does not collect them.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import inputs as gen
import oracles
import workloads
from swcalc import (
    ExtForm,
    KahlerFacts,
    ManifoldTopology,
    PeriodRay,
    characteristic_range,
    emit_manifold_text,
    parse_manifold_text,
    sw_table,
    validate_kahler_facts,
    validate_topology,
    wall_crossing_delta,
)

SEEDS = (0, 1, 2)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("k, count", [(1, 1), (2, 3), (3, 6), (4, 10), (5, 16), (6, 27)])
def test_minus_one_class_counts(k, count):
    classes = gen.minus_one_classes(k)
    assert len(classes) == count
    lat = gen.blowup(k)
    for d in classes:
        assert gen.pair(lat.form, d, d) == -1
        assert gen.pair(lat.form, lat.canonical, d) == -1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, det", [(1, 1), (5, -1), (12, 1), (40, -1)])
def test_unimodular_inverse(seed, n, det):
    u, u_inv = gen.unimodular(n, random.Random(seed), det)
    assert gen.matmul(u, u_inv) == identity(n)


def generated_lattices(seed):
    rng = random.Random(seed)
    for k in (0, 1, 2, 3, 4, 5, 6):
        yield gen.blowup(k), True
        yield gen.blowup(k, rng, odd_w2=k >= 3), k > 0
    yield gen.blowup(21, rng), False
    yield gen.blowup(39, rng), False


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_files_validate_and_round_trip(seed):
    for lat, kahler in generated_lattices(seed):
        text = gen.lattice_text(lat, kahler=kahler, psc=lat.k <= 8)
        data = parse_manifold_text(text)
        assert emit_manifold_text(data) == text
        assert validate_topology(data.topology) == []
        if kahler:
            assert validate_kahler_facts(data.topology, data.kahler) == []
        assert gen.parse_text(emit_manifold_text(data)) == gen.parse_text(text)


def test_odd_w2_keeps_the_box_size():
    lat = gen.blowup(5, random.Random(7), odd_w2=True)
    assert lat.w2 == (1,) * 6
    assert len(gen.characteristic_box(lat.w2, -3, 3)) == 4**6


def topology(lat):
    return parse_manifold_text(gen.lattice_text(lat, kahler=False, psc=False)).topology


@pytest.mark.parametrize("seed", SEEDS)
def test_table_oracle_agrees_with_both_pipelines(seed):
    rng = random.Random(seed)
    for k in (1, 2, 3):
        for lat in (gen.blowup(k), gen.blowup(k, rng, odd_w2=True)):
            m = topology(lat)
            ray = PeriodRay(lat.minus_k)
            c_list = characteristic_range(m, -3, 3)
            assert c_list == gen.characteristic_box(lat.w2, -3, 3)
            rows = [(r.c, r.sw_plus, r.sw_minus) for r in sw_table(m, c_list, psc_ray=ray)]
            assert oracles.table_ok(lat, c_list, rows, kahler=False)
            facts = KahlerFacts(lat.canonical, lat.ns_basis, lat.cone, True, ray)
            rows = sw_table(m, c_list, psc_ray=ray, kahler_facts=facts)
            rows = [(r.c, r.sw_plus, r.sw_minus) for r in rows]
            assert oracles.table_ok(lat, c_list, rows, kahler=True)
            i = next(i for i, row in enumerate(rows) if row[1:] == (1, 0))
            rows[i] = (rows[i][0], 0, -1)
            assert not oracles.table_ok(lat, c_list, rows, kahler=True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_wall_crossing_closed_form(seed, g):
    surface = gen.product_surface(g, random.Random(seed))
    m = ManifoldTopology(
        name="S",
        b1=surface.b1,
        bplus=1,
        bminus=1,
        euler=surface.euler,
        signature=0,
        intersection_form=((0, 1), (1, 0)),
        w2=(0, 0),
        triple_cup=surface.cup,
    )
    assert validate_topology(m) == []
    for c in ((2, 2), (0, 4), (2, -2)):
        value = wall_crossing_delta(m, c, ExtForm.scalar(surface.b1, 1))
        assert value == surface.wall_delta(c)


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_cycle_passes_its_oracles(seed, tmp_path):
    root = Path(__file__).resolve().parent.parent
    wl = workloads.cli(seed, root=root, workdir=tmp_path, in_process=True)
    for op in wl.ops:
        assert op.check(op.call()), op.kind
    for text in (p.read_text() for p in tmp_path.glob("*.manifold")):
        data = parse_manifold_text(text)
        assert emit_manifold_text(data) == text
        assert validate_topology(data.topology) == []
        if data.kahler is not None:
            assert validate_kahler_facts(data.topology, data.kahler) == []
    wrong = wl.ops[4].call()
    assert not wl.ops[4].check((wrong[0], wrong[1] + "\n"))
