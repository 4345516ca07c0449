"""Chamber classification, the wall predicate, and their symmetries."""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import pytest
from conftest import congruent, dense_unimodular, oracle_wall_side
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from swcalc import (
    Chamber,
    DimensionMismatchError,
    DomainError,
    KahlerFacts,
    ManifoldTopology,
    OrientationData,
    PeriodRay,
    SolvabilitySide,
    abelian_solvability_side,
    classify_chamber,
    classify_chamber_oriented,
    expected_dim_abelian,
    is_c_good,
    sw_table,
)


FLIPPED = {
    Chamber.C_PLUS: Chamber.C_MINUS,
    Chamber.C_MINUS: Chamber.C_PLUS,
    Chamber.ON_WALL: Chamber.ON_WALL,
}


def test_p2_fubini_study_pair_computes_minus_side(p2, p2_ray):
    # c.h = 5 > 0 puts the untwisted pair on the C_minus side.
    assert classify_chamber(p2, (5,), p2_ray, (0,)) is Chamber.C_MINUS
    assert classify_chamber(p2, (-5,), p2_ray, (0,)) is Chamber.C_PLUS


def test_on_wall_when_pairing_vanishes(p2, p2_ray):
    assert classify_chamber(p2, (5,), p2_ray, (5,)) is Chamber.ON_WALL
    assert classify_chamber(p2, (5,), p2_ray, (Fraction(5),)) is Chamber.ON_WALL
    assert FLIPPED[Chamber.ON_WALL] is Chamber.ON_WALL


def test_requires_bplus_one(p2):
    two_plus = type(p2)(
        name="K3ish", b1=0, bplus=2, bminus=0, euler=6, signature=2,
        intersection_form=((1, 0), (0, 1)), w2=(1, 1),
    )
    with pytest.raises(DomainError):
        classify_chamber(two_plus, (1, 1), PeriodRay((Fraction(1), Fraction(0))), (0, 0))
    with pytest.raises(DomainError):
        is_c_good(two_plus, (1, 1), PeriodRay((Fraction(1), Fraction(0))), (0, 0))


def test_rejects_nonpositive_ray(s2xs2, p2, p2_ray):
    ray = PeriodRay((Fraction(1), Fraction(-1)))  # square -2
    with pytest.raises(DomainError):
        classify_chamber(s2xs2, (0, 0), ray, (0, 0))
    with pytest.raises(DimensionMismatchError, match="twisting class has length 2"):
        classify_chamber(p2, (1,), p2_ray, (0, 0))
    with pytest.raises(ValueError, match="component_sign must be"):
        PeriodRay((1,), 2)
    with pytest.raises(ValueError, match="o1_sign must be"):
        OrientationData(0)


def test_positive_rescaling_invariance_and_flip(s2xs2):
    rng = random.Random(3)
    for _ in range(50):
        c = (2 * rng.randint(-3, 3), 2 * rng.randint(-3, 3))
        b = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
             Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        h = (Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5)))
        ray = PeriodRay(h)
        scaled = PeriodRay(tuple(Fraction(7, 3) * v for v in h))
        flipped = PeriodRay(tuple(-v for v in h))
        base = classify_chamber(s2xs2, c, ray, b)
        assert classify_chamber(s2xs2, c, scaled, b) is base
        assert classify_chamber(s2xs2, c, flipped, b) is FLIPPED[base]


def test_component_sign_composition(p2, p2_ray):
    minus_component = PeriodRay(p2_ray.h, -1)
    assert classify_chamber_oriented(p2, (5,), p2_ray, (0,)) is Chamber.C_MINUS
    assert classify_chamber_oriented(p2, (5,), minus_component, (0,)) is Chamber.C_PLUS
    assert classify_chamber_oriented(p2, (5,), minus_component, (5,)) is Chamber.ON_WALL


@pytest.mark.parametrize(
    "call",
    [
        lambda m, ray: classify_chamber(m, (3,), ray, (0,)),
        lambda m, ray: classify_chamber_oriented(m, (3,), ray, (0,)),
        lambda m, ray: is_c_good(m, (3,), ray, (0,)),
        lambda m, ray: sw_table(m, [(3,)], psc_ray=ray),
    ],
    ids=["classify_chamber", "classify_chamber_oriented", "is_c_good", "sw_table"],
)
def test_a_ray_that_is_no_period_ray_is_refused(p2, call):
    with pytest.raises(DomainError, match=r"^period ray must be a PeriodRay, got \(1,\)$"):
        call(p2, (1,))


def test_kahler_facts_refuse_a_ray_that_is_no_period_ray():
    with pytest.raises(DomainError, match=r"^kahler_ray must be a PeriodRay, got \(1,\)$"):
        KahlerFacts((-3,), ((1,),), ((1,),), True, (1,))


def test_c_good_examples(p2, s2xs2, p2_ray):
    # The untwisted pair is good for every characteristic element here.
    for c in ((1,), (3,), (-7,)):
        assert is_c_good(p2, c, p2_ray, (0,))
    # c = b puts the harmonic representative at zero, which is antiselfdual.
    assert not is_c_good(p2, (3,), p2_ray, (3,))
    # c - b = (1, -1) pairs to zero with the diagonal ray.
    ray = PeriodRay((Fraction(1), Fraction(1)))
    assert not is_c_good(s2xs2, (0, 0), ray, (-1, 1))


def test_c_good_iff_not_on_wall(s2xs2):
    rng = random.Random(19)
    ray = PeriodRay((Fraction(1), Fraction(1)))
    for _ in range(80):
        c = (2 * rng.randint(-3, 3), 2 * rng.randint(-3, 3))
        b = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        on_wall = classify_chamber(s2xs2, c, ray, b) is Chamber.ON_WALL
        assert is_c_good(s2xs2, c, ray, b) == (not on_wall)


def test_wall_is_affine_in_b(s2xs2):
    # Two twisting classes on the wall of c stay on it under convex
    # combinations.
    ray = PeriodRay((Fraction(2), Fraction(1)))
    c = (2, 4)
    b0 = (Fraction(2), Fraction(4))  # b = c
    b1 = (Fraction(4), Fraction(3))  # b = c + (2,-1), and (2,-1) . Qh = 0
    assert classify_chamber(s2xs2, c, ray, b0) is Chamber.ON_WALL
    assert classify_chamber(s2xs2, c, ray, b1) is Chamber.ON_WALL
    for t in (Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)):
        mix = tuple(t * x + (1 - t) * y for x, y in zip(b0, b1))
        assert classify_chamber(s2xs2, c, ray, mix) is Chamber.ON_WALL


def _unimodular_inverse(p):
    """The integer inverse of a unimodular matrix, by Gauss-Jordan in Fractions."""
    n = len(p)
    a = [[Fraction(v) for v in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(p)]
    for k in range(n):
        r = next(i for i in range(k, n) if a[i][k])
        a[k], a[r] = a[r], a[k]
        a[k] = [v / a[k][k] for v in a[k]]
        for i in range(n):
            if i != k:
                a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
    return [[int(v) for v in row[n:]] for row in a]


# Distinct denominators for the ray entries, one prime per coordinate.
_PRIMES = (2, 3, 5, 7, 11)


@st.composite
def wall_cases(draw):
    """A dense unimodular bplus = 1 lattice q = P^T A P, with A =
    diag(1, -1, ..., -1) of rank 1..5 or the hyperbolic plane; in about a
    quarter of the draws q gets a skew integer part, which changes no
    square but makes x . (q h) differ from h . (q x). Two rays: P^-1 of an
    integer vector of positive square in A, either sign, plus r_i / p_i
    in coordinate i for distinct primes p_i; the PSC ray with either
    component sign, the Kahler ray with +1. Then characteristic classes, a
    canonical class, a line class and a rational twisting class b, moved
    onto the wall of the first class half of the time."""
    n = draw(st.integers(1, 5))
    even = n == 2 and draw(st.booleans())
    if even:
        base = [[0, 1], [1, 0]]
    else:
        base = [[(1 if i == 0 else -1) if i == j else 0 for j in range(n)] for i in range(n)]
    rng = draw(st.randoms(use_true_random=False))
    p = dense_unimodular(n, rng, draw(st.sampled_from((1, -1))))
    p_inv = _unimodular_inverse(p)
    q = congruent(p, base)
    if draw(st.integers(0, 3)) == 0:
        for i in range(n):
            for j in range(i + 1, n):
                s = draw(st.integers(-2, 2))
                q[i][j] += s
                q[j][i] -= s
    # w2 is P^-1 of (1, ..., 1) for the odd form and 0 for the even one.
    w2 = [0 if even else sum(row) % 2 for row in p_inv]
    m = ManifoldTopology(
        name="dense", b1=0, bplus=1, bminus=n - 1, euler=2 + n, signature=2 - n,
        intersection_form=q, w2=w2,
    )

    def ray(component_sign):
        if even:
            h0 = [draw(st.integers(1, 4)), draw(st.integers(1, 4))]
        else:
            tail = [draw(st.integers(-3, 3)) for _ in range(n - 1)]
            h0 = [isqrt(sum(v * v for v in tail)) + draw(st.integers(1, 3))] + tail
        scale = draw(st.sampled_from((-20, 20)))
        h = [
            scale * sum(a * v for a, v in zip(row, h0)) + Fraction(draw(st.integers(1, d - 1)), d)
            for row, d in zip(p_inv, _PRIMES)
        ]
        assume(oracle_wall_side(m, h, h) > 0)
        return PeriodRay(h, component_sign)

    psc = ray(draw(st.sampled_from((1, -1))))
    kahler = ray(1)
    lattice = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    c_list = [
        tuple(w + 2 * v for w, v in zip(w2, y))
        for y in draw(st.lists(lattice, min_size=1, max_size=6))
    ]
    canonical = tuple(w + 2 * v for w, v in zip(w2, draw(lattice)))
    line_class = tuple(draw(lattice))
    b = [Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4))) for _ in range(n)]
    if draw(st.booleans()):
        qh = [sum(v * hj for v, hj in zip(row, psc.h)) for row in q]
        j = next(j for j, v in enumerate(qh) if v)
        b[j] += sum((ci - bi) * v for ci, bi, v in zip(c_list[0], b, qh)) / qh[j]
    return m, psc, kahler, c_list, canonical, line_class, b


_CHAMBERS = {-1: Chamber.C_PLUS, 0: Chamber.ON_WALL, 1: Chamber.C_MINUS}
_SIDES = {-1: SolvabilitySide.DOU_M, 0: SolvabilitySide.ON_WALL, 1: SolvabilitySide.DOU_K_MINUS_M}


@settings(max_examples=200)
@given(wall_cases())
def test_every_wall_decision_matches_the_oracle(case):
    m, psc, kahler, c_list, canonical, line_class, b = case
    c = c_list[0]
    side = oracle_wall_side(m, [ci - bi for ci, bi in zip(c, b)], psc.h)
    event(f"wall side {side}")
    assert classify_chamber(m, c, psc, b) is _CHAMBERS[side]
    assert classify_chamber_oriented(m, c, psc, b) is _CHAMBERS[psc.component_sign * side]
    assert is_c_good(m, c, psc, b) == (side != 0)

    identity = [[int(i == j) for j in range(m.b2)] for i in range(m.b2)]
    facts = KahlerFacts(canonical, identity, identity, True, kahler)
    twice = [2 * lv - kv - bv for lv, kv, bv in zip(line_class, canonical, b)]
    assert abelian_solvability_side(m, facts, line_class, b) is _SIDES[
        oracle_wall_side(m, twice, kahler.h)
    ]

    if psc.component_sign * oracle_wall_side(m, psc.h, kahler.h) < 0:
        event("components differ")
        with pytest.raises(DomainError, match="different hyperbola components"):
            sw_table(m, [], psc_ray=psc, kahler_facts=facts)
    else:
        assert sw_table(m, [], psc_ray=psc, kahler_facts=facts) == []

    for row in sw_table(m, c_list, psc_ray=psc):
        row_side = psc.component_sign * oracle_wall_side(m, row.c, psc.h)
        if expected_dim_abelian(m, row.c) < 0:
            want = (0, 0)
        else:
            event(f"PSC row side {row_side}")
            want = {1: (1, 0), -1: (0, -1), 0: (None, None)}[row_side]
        assert (row.sw_plus, row.sw_minus) == want
