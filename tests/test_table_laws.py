"""Laws of an invariant table that need no second pipeline.

Each law is checked on the PSC pipeline and on the Kahler pipeline on
their own, so a fault the two pipelines share, or a fault in a file
with one kind of facts only, can still break it.

- Charge conjugation: on b1 = 0 the row of -c is (-SW-(c), -SW+(c)).
- Reflections: let r be a class with r^2 = -2 and r.K = 0 that is
  orthogonal to the rays, and whose reflection s(x) = x + (x.r) r maps
  the effective cone's generators onto themselves. Then s preserves the
  form, w2, K, the rays and the cone, so row(s c) = row(c). On
  P2 # k(-P2) the roots E_i - E_(i+1) and H - E1 - E2 - E3 generate the
  Weyl group W(E_k), which permutes the (-1)-classes (Manin, *Cubic
  Forms*; Dolgachev, *Classical Algebraic Geometry*, Ch. 8); on the
  cubic surface (k = 6) these are the 27 lines of its effective cone.
- Blow-ups: let X' = X # (-P2), with the form q + (-1), w2 extended by
  1, each ray h extended to (h, -1/10), K' = (K, 1) and the effective
  cone of X'. Then row_X'((c, +-1)) = row_X(c). Both e + 1 and
  signature - 1 cancel against c^2 - 1 in w_c, and both rays stay in
  the chamber pulled back from X (the blow-up formula: Fintushel and
  Stern, Turkish J. Math. 19 (1995) 145-157). Checked from P2 # k(-P2)
  to P2 # (k + 1)(-P2).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import minus_one_classes
from swcalc import KahlerFacts, ManifoldTopology, PeriodRay, load_manifold_file, sw_table

DEMOS = Path(__file__).resolve().parent.parent / "demos"
CUBIC = load_manifold_file(DEMOS / "cubic_surface.manifold")
PIPELINES = {"psc": dict(psc_ray=CUBIC.psc_ray), "kahler": dict(kahler_facts=CUBIC.kahler)}
# Coordinates on H, E1, ..., E6.
ROOTS = {
    "E1-E2": (0, 1, -1, 0, 0, 0, 0),
    "E5-E6": (0, 0, 0, 0, 0, 1, -1),
    "H-E1-E2-E3": (1, -1, -1, -1, 0, 0, 0),
}
# Every characteristic class with c0 in [-7, 7] and c_i in [-3, 3]:
# w2 = (1, ..., 1), so 8 * 4^6 = 32,768 odd vectors.
BOX = list(itertools.product(range(-7, 8, 2), *[range(-3, 4, 2)] * 6))
# Classes of the box whose image under the root's reflection is in the box.
PAIRS_IN_BOX = {"E1-E2": 32_768, "E5-E6": 32_768, "H-E1-E2-E3": 8_576}


def del_pezzo(k: int) -> ManifoldTopology:
    """P2 # k(-P2) on H, E1, ..., Ek."""
    n = k + 1
    q = tuple(tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n)) for i in range(n))
    return ManifoldTopology(
        name=f"P2#{k}(-P2)", b1=0, bplus=1, bminus=k, euler=3 + k, signature=1 - k,
        intersection_form=q, w2=(1,) * (k + 1),
    )


def roots(k: int) -> list[tuple[int, ...]]:
    """The simple roots E_i - E_(i+1) and, for k >= 3, H - E1 - E2 - E3."""
    out = [(0,) * i + (1, -1) + (0,) * (k - i - 1) for i in range(1, k)]
    return out + [(1, -1, -1, -1) + (0,) * (k - 3)] if k >= 3 else out


def pair(m: ManifoldTopology, x, y):
    return sum(xi * qij * yj for xi, row in zip(x, m.intersection_form) for qij, yj in zip(row, y))


def reflection(m: ManifoldTopology, r):
    """s(x) = x + (x.r) r, with x.r read off the one vector q r."""
    qr = [sum(map(mul, row, r)) for row in m.intersection_form]

    def s(c) -> tuple[int, ...]:
        t = sum(map(mul, c, qr))
        return tuple(ci + t * ri for ci, ri in zip(c, r))

    return s


def negate(value):
    return None if value is None else -value


def conjugate(row):
    """The row the law predicts at -c: (-c, -SW-(c), -SW+(c)); undetermined stays so."""
    return (tuple(-v for v in row.c), negate(row.sw_minus), negate(row.sw_plus))


@functools.cache
def box_table(pipeline: str) -> dict:
    return {row.c: row for row in sw_table(CUBIC.topology, BOX, **PIPELINES[pipeline])}


@pytest.mark.parametrize("name", ROOTS)
def test_cubic_roots_fix_the_canonical_class_and_the_rays(name):
    m, r = CUBIC.topology, ROOTS[name]
    assert pair(m, r, r) == -2
    assert pair(m, r, CUBIC.kahler.canonical_class) == 0
    assert pair(m, r, CUBIC.psc_ray.h) == pair(m, r, CUBIC.kahler.kahler_ray.h) == 0


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_charge_conjugation_on_the_cubic_box(pipeline):
    table = box_table(pipeline)
    assert len(table) == len(BOX)
    bad = [c for c, row in table.items() if table[tuple(-v for v in c)] != conjugate(row)]
    assert bad == []


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("name", ROOTS)
def test_reflection_on_the_cubic_box(pipeline, name):
    table = box_table(pipeline)
    images = dict(zip(table, map(reflection(CUBIC.topology, ROOTS[name]), table)))
    pairs = [(c, s) for c, s in images.items() if s in table]
    assert len(pairs) == PAIRS_IN_BOX[name]
    bad = [c for c, s in pairs if table[s][1:] != table[c][1:]]
    assert bad == []


@settings(max_examples=60)
@given(
    pipeline=st.sampled_from(sorted(PIPELINES)),
    root=st.sampled_from(sorted(ROOTS)),
    c=st.tuples(*[st.integers(-7, 7)] + [st.integers(-5, 5)] * 6).map(
        lambda v: tuple(2 * x + 1 for x in v)
    ),
)
def test_cubic_laws_on_drawn_rows(pipeline, root, c):
    m = CUBIC.topology
    s, minus = reflection(m, ROOTS[root])(c), tuple(-v for v in c)
    rows = {row.c: row for row in sw_table(m, [c, s, minus], **PIPELINES[pipeline])}
    assert rows[s][1:] == rows[c][1:]
    assert rows[minus] == conjugate(rows[c])


@settings(max_examples=60)
@given(data=st.data(), k=st.integers(1, 8))
def test_psc_laws_on_del_pezzo_rows(data, k):
    # -K = (3, -1, ..., -1) has square 9 - k > 0 and is orthogonal to every root.
    m, ray = del_pezzo(k), PeriodRay((3,) + (-1,) * k)
    c = tuple(2 * x + 1 for x in data.draw(st.tuples(*[st.integers(-6, 6)] * (k + 1)), "c"))
    minus = tuple(-v for v in c)
    images = [reflection(m, r)(c) for r in roots(k)]
    rows = {row.c: row for row in sw_table(m, [c, minus, *images], psc_ray=ray)}
    assert rows[minus] == conjugate(rows[c])
    assert [rows[s][1:] for s in images] == [rows[c][1:]] * len(images)


@functools.cache
def blow_up_pipelines(k: int, depth: int) -> dict:
    """Both pipelines on P2 # k(-P2) with the rays of P2 # (k - depth)(-P2)
    at -K, each extended by -1/10 per blow-up, K = (-3, 1, ..., 1) and the
    effective cone of the (-1)-classes (for k <= 1 also H, or the fibre
    H - E1, which the (-1)-classes miss)."""
    h = (Fraction(3),) + (Fraction(-1),) * (k - depth) + (Fraction(-1, 10),) * depth
    cone = minus_one_classes(k) + {0: [(1,)], 1: [(1, -1)]}.get(k, [])
    facts = KahlerFacts(
        canonical_class=(-3,) + (1,) * k,
        ns_basis=tuple(tuple(int(i == j) for j in range(k + 1)) for i in range(k + 1)),
        effective_cone=tuple(tuple(map(Fraction, g)) for g in cone),
        pg_zero=True,
        kahler_ray=PeriodRay(h),
    )
    return {"psc": dict(psc_ray=PeriodRay(h)), "kahler": dict(kahler_facts=facts)}


def blow_up_rows(k: int, pipeline: str, c_list) -> tuple[dict, dict]:
    """The rows of c_list on P2 # k(-P2), and of every (c, +-1) on its blow-up."""
    blown_up = [(*c, e) for c in c_list for e in (1, -1)]
    rows = sw_table(del_pezzo(k), c_list, **blow_up_pipelines(k, 0)[pipeline])
    rows_up = sw_table(del_pezzo(k + 1), blown_up, **blow_up_pipelines(k + 1, 1)[pipeline])
    return {row.c: row[1:] for row in rows}, {row.c: row[1:] for row in rows_up}


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("k", range(6))
def test_blow_up_on_del_pezzo_boxes(pipeline, k):
    # c0 in [-5, 5] and c_i in [-3, 3]: 6 * 4^k classes, 6,144 at k = 5.
    box = list(itertools.product(range(-5, 6, 2), *[range(-3, 4, 2)] * k))
    table, table_up = blow_up_rows(k, pipeline, box)
    assert len(table_up) == 2 * len(table) == 2 * len(box)
    bad = [c for c, row in table_up.items() if row != table[c[:-1]]]
    assert bad == []
    assert {row for row in table.values()} >= {(0, 0), (1, 0), (0, -1)}


@settings(max_examples=40)
@given(data=st.data(), k=st.integers(1, 7), pipeline=st.sampled_from(sorted(PIPELINES)))
def test_blow_up_on_drawn_rows(data, k, pipeline):
    c = tuple(2 * x + 1 for x in data.draw(st.tuples(*[st.integers(-6, 6)] * (k + 1)), "c"))
    table, table_up = blow_up_rows(k, pipeline, [c])
    assert table_up == {(*c, 1): table[c], (*c, -1): table[c]}
