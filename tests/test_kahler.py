"""Solvability sides, Douady nonemptiness, and the table synthesis."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import chain_indices, del_pezzo_slab, minus_one_classes
from swcalc import (
    Chamber,
    DimensionMismatchError,
    DomainError,
    ExtForm,
    InvalidTopologyError,
    KahlerFacts,
    ManifoldTopology,
    PeriodRay,
    SolvabilitySide,
    SWRow,
    abelian_solvability_side,
    characteristic_range,
    classify_chamber_oriented,
    douady_nonempty,
    expected_dim_abelian,
    expected_dim_pu2,
    load_manifold_file,
    require_characteristic,
    spin_u2_admissible,
    sw_pg0_invariants,
    sw_table,
    validate_kahler_facts,
    validate_topology,
    wall_crossing_delta,
)
from swcalc import chambers, kahler
from swcalc.chambers import wall_vector
from swcalc.linalg import _Cone, cone_contains, dot
from swcalc.topology import (
    _as_int_vector,
    _box_squares,
    _squares,
    characteristic_square,
    spinor_c2,
)


def quadric_facts() -> KahlerFacts:
    # Product of two lines: both rulings span the Neron-Severi lattice
    # and the effective cone is the first quadrant.
    return KahlerFacts(
        canonical_class=(-2, -2),
        ns_basis=((1, 0), (0, 1)),
        effective_cone=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        pg_zero=True,
        kahler_ray=PeriodRay((Fraction(1), Fraction(1))),
    )


# A dense unimodular change of basis and its inverse.
U = ((2, 1, 1), (3, 2, 1), (2, 1, 2))
U_INV = ((3, -1, -1), (-4, 2, 1), (-1, 0, 1))


def to_new(v):
    """Coordinates in the basis of U's columns of a class given in the
    diagonal basis (H, E1, E2)."""
    return tuple(sum(U_INV[i][j] * v[j] for j in range(3)) for i in range(3))


def p2_blown_up_twice_dense():
    """P2#2(-P2) in the basis given by the columns of U, with both rays
    at -K, the effective cone spanned by the (-1)-curves E1, E2 and
    H - E1 - E2, and the characteristic vectors of the diagonal box
    [-3, 3]^3 written in that basis."""
    diag = (1, -1, -1)
    q = tuple(
        tuple(sum(U[k][i] * diag[k] * U[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    m = ManifoldTopology(
        name="P2#2-P2 dense", b1=0, bplus=1, bminus=2, euler=5, signature=-1,
        intersection_form=q, w2=tuple(v % 2 for v in to_new((1, 1, 1))),
    )
    minus_k = PeriodRay(tuple(Fraction(v) for v in to_new((3, -1, -1))))
    facts = KahlerFacts(
        canonical_class=to_new((-3, 1, 1)),
        ns_basis=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        effective_cone=tuple(
            tuple(Fraction(v) for v in to_new(g))
            for g in ((0, 1, 0), (0, 0, 1), (1, -1, -1))
        ),
        pg_zero=True,
        kahler_ray=minus_k,
    )
    box = itertools.product((-3, -1, 1, 3), repeat=3)
    return m, minus_k, facts, [to_new(c) for c in box]


def test_validate_kahler_facts_p2(p2, p2_kahler):
    assert validate_kahler_facts(p2, p2_kahler) == []


def test_validate_kahler_facts_catches_bad_data(p2):
    bad = KahlerFacts(
        canonical_class=(-2,),  # not characteristic
        ns_basis=((1,), (2,)),  # dependent rows
        effective_cone=((Fraction(1),),),  # wrong length: needs 2 coordinates
        pg_zero=True,
        kahler_ray=PeriodRay((Fraction(1),), -1),
    )
    violations = validate_kahler_facts(p2, bad)
    assert any("characteristic" in v for v in violations)
    assert any("dependent" in v for v in violations)
    assert any("coordinates" in v for v in violations)
    assert any("component" in v for v in violations)


def test_validate_kahler_facts_reports_past_length_errors(p2):
    # A bad length skips only the check that needs the field.
    bad = KahlerFacts(
        canonical_class=(-3, 1),
        ns_basis=((1, 0),),
        effective_cone=((Fraction(1),),),
        pg_zero=True,
        kahler_ray=PeriodRay((Fraction(1), Fraction(2)), -1),
    )
    assert validate_kahler_facts(p2, bad) == [
        "canonical class has length 2, expected b2 = 1",
        "every ns_basis row must have length b2",
        "kahler_ray: period ray has length 2, expected b2 = 1",
        "kahler_ray must designate the component containing Kahler classes "
        "(component_sign = +1)",
    ]
    flat = KahlerFacts((-3,), ((1,),), ((Fraction(1),),), True, PeriodRay((Fraction(0),)))
    assert validate_kahler_facts(p2, flat) == [
        "kahler_ray: period ray must have positive square, got h.h = 0"
    ]


def test_a_tampered_kahler_ray_is_a_violation(p2, p2_kahler):
    # A ray swapped past __post_init__ is reported, not read for its sign.
    facts = dataclasses.replace(p2_kahler)
    object.__setattr__(facts, "kahler_ray", (1, 1))
    message = "kahler_ray: period ray must be a PeriodRay, got (1, 1)"
    assert validate_kahler_facts(p2, facts) == [message]
    with pytest.raises(DomainError, match=re.escape(f"invalid Kahler facts: {message}")):
        sw_table(p2, characteristic_range(p2, -3, 3), kahler_facts=facts)


def test_a_cone_generator_not_positive_on_the_kahler_ray_is_a_violation():
    # F_5 on (F, C_5) with the ray C_5 + 6F: h.F = 1 and h.C_5 = 1, but
    # h.(C_5 - F) = 0, so C_5 - F cannot be effective. A zero generator is no class.
    m = ManifoldTopology(
        name="F_5", b1=0, bplus=1, bminus=1, euler=4, signature=0,
        intersection_form=((0, 1), (1, -5)), w2=(1, 0),
    )
    ray = PeriodRay((6, 1))
    facts = KahlerFacts((-7, -2), ((1, 0), (0, 1)), ((1, 0), (0, 1), (0, 0)), True, ray)
    assert validate_kahler_facts(m, facts) == []
    planted = dataclasses.replace(facts, effective_cone=facts.effective_cone + ((-1, 1),))
    message = "effective cone generator 4 = (-1, 1) is not positive on the Kahler ray"
    assert validate_kahler_facts(m, planted) == [message]
    with pytest.raises(DomainError, match=re.escape(f"invalid Kahler facts: {message}")):
        sw_table(m, characteristic_range(m, -3, 3), psc_ray=ray, kahler_facts=planted)
    # Generators are read through ns_basis: -F in the basis (-F, C_5) is F.
    flipped = dataclasses.replace(facts, ns_basis=((-1, 0), (0, 1)))
    assert validate_kahler_facts(m, flipped) == [
        "effective cone generator 1 = (1, 0) is not positive on the Kahler ray"
    ]
    # The ray's component sign is its own violation, not one per generator.
    other_side = dataclasses.replace(facts, kahler_ray=PeriodRay((6, 1), -1))
    assert validate_kahler_facts(m, other_side) == [
        "kahler_ray must designate the component containing Kahler classes "
        "(component_sign = +1)"
    ]


def test_solvability_side_p2(p2, p2_kahler):
    # (2m - K) . h = 7 > 0 for m = 2h, so the moduli sit on the K - m side.
    assert (
        abelian_solvability_side(p2, p2_kahler, (2,), (0,))
        is SolvabilitySide.DOU_K_MINUS_M
    )
    assert (
        abelian_solvability_side(p2, p2_kahler, (2,), (Fraction(9),))
        is SolvabilitySide.DOU_M
    )
    assert (
        abelian_solvability_side(p2, p2_kahler, (2,), (Fraction(7),))
        is SolvabilitySide.ON_WALL
    )


def test_douady_nonempty_p2(p2, p2_kahler):
    assert douady_nonempty(p2, p2_kahler, (2,))
    assert douady_nonempty(p2, p2_kahler, (0,))
    assert not douady_nonempty(p2, p2_kahler, (-1,))


def test_kahler_inputs_check_their_shapes(p2, p2_kahler):
    with pytest.raises(DimensionMismatchError):
        abelian_solvability_side(p2, p2_kahler, (1, 2), (0,))
    with pytest.raises(DimensionMismatchError, match="line class has length 2, expected b2 = 1"):
        douady_nonempty(p2, p2_kahler, (1, 2))
    # Both lengths are checked before the line class's entries.
    with pytest.raises(DimensionMismatchError, match="line class has length 2, expected b2 = 1"):
        abelian_solvability_side(p2, p2_kahler, (Fraction(1, 2), 2), (0,))
    with pytest.raises(DimensionMismatchError, match="twisting class has length 2"):
        abelian_solvability_side(p2, p2_kahler, (Fraction(1, 2),), (0, 0))
    with pytest.raises(DomainError, match="requires bplus = 1, got 2"):
        sw_pg0_invariants(dataclasses.replace(p2, bplus=2), p2_kahler, (2,))


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda m, facts, ray: require_characteristic(m, (1, 1)), "characteristic vector"),
        (lambda m, facts, ray: sw_table(m, [(1, 1)], psc_ray=ray), "characteristic vector"),
        (
            lambda m, facts, ray: wall_crossing_delta(m, (1, 1), ExtForm.scalar(0, 1)),
            "characteristic vector",
        ),
        (lambda m, facts, ray: spin_u2_admissible(m, 0, (0, 0)), "c"),
        (lambda m, facts, ray: expected_dim_pu2(m, 0, (0, 0)), "c"),
        (lambda m, facts, ray: classify_chamber_oriented(m, (1,), ray, (0, 0)), "twisting class"),
        (lambda m, facts, ray: douady_nonempty(m, facts, (1, 2)), "line class"),
        (lambda m, facts, ray: sw_pg0_invariants(m, facts, (1, 2)), "line class"),
    ],
)
def test_b2_length_texts(p2, p2_kahler, p2_ray, call, text):
    with pytest.raises(DimensionMismatchError) as info:
        call(p2, p2_kahler, p2_ray)
    assert str(info.value) == f"{text} has length 2, expected b2 = 1"


def test_kahler_inputs_refuse_to_truncate(p2, p2_kahler, p2_ray):
    half = (Fraction(5, 2),)
    for call in (
        lambda: douady_nonempty(p2, p2_kahler, half),
        lambda: sw_pg0_invariants(p2, p2_kahler, half),
        lambda: abelian_solvability_side(p2, p2_kahler, half, (0,)),
        lambda: sw_table(p2, [(Fraction(7, 2),)], psc_ray=p2_ray),
        lambda: KahlerFacts(half, ((1,),), ((Fraction(1),),), True, p2_ray),
        lambda: KahlerFacts((-3,), (half,), ((Fraction(1),),), True, p2_ray),
    ):
        with pytest.raises(DomainError, match="must be an integer"):
            call()
    whole = (Fraction(4, 2),)
    assert douady_nonempty(p2, p2_kahler, whole) == douady_nonempty(p2, p2_kahler, (2,))
    assert abelian_solvability_side(p2, p2_kahler, whole, (0,)) is abelian_solvability_side(
        p2, p2_kahler, (2,), (0,)
    )
    rows = sw_table(p2, [(Fraction(10, 2),)], psc_ray=p2_ray)
    assert rows == sw_table(p2, [(5,)], psc_ray=p2_ray)


def test_douady_requires_ns_membership(s2xs2):
    facts = KahlerFacts(
        canonical_class=(-2, -2),
        ns_basis=((1, 0),),
        effective_cone=((Fraction(1),),),
        pg_zero=True,
        kahler_ray=PeriodRay((Fraction(1), Fraction(1))),
    )
    assert douady_nonempty(s2xs2, facts, (3, 0))
    assert not douady_nonempty(s2xs2, facts, (0, 1))  # outside the NS span
    assert not douady_nonempty(s2xs2, facts, (-1, 0))
    # A lattice of index 2 in its span: (1, 0) is in the span, off the lattice.
    facts = KahlerFacts(
        canonical_class=(-2, -2),
        ns_basis=((2, 0), (0, 1)),
        effective_cone=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        pg_zero=True,
        kahler_ray=PeriodRay((Fraction(1), Fraction(1))),
    )
    assert not douady_nonempty(s2xs2, facts, (1, 0))
    assert douady_nonempty(s2xs2, facts, (2, 0))
    assert not douady_nonempty(s2xs2, facts, (-2, 0))


def test_douady_monotone_under_adding_effective_generators(p2, p2_kahler):
    rng = random.Random(59)
    for _ in range(30):
        base = rng.randint(0, 5)
        extra = rng.randint(0, 4)
        assert douady_nonempty(p2, p2_kahler, (base,))
        assert douady_nonempty(p2, p2_kahler, (base + extra,))


def test_sw_pg0_invariants_examples(p2, p2_kahler):
    assert sw_pg0_invariants(p2, p2_kahler, (2,)) == (1, 0)
    # m = -2h gives c = -h with negative expected dimension.
    assert sw_pg0_invariants(p2, p2_kahler, (-2,)) == (0, 0)
    # m = -3h gives c = -3h, w = 0, and an empty Douady space.
    assert sw_pg0_invariants(p2, p2_kahler, (-3,)) == (0, -1)


def test_sw_pg0_requires_pg_zero(p2, p2_kahler, t2xs2):
    with pytest.raises(DomainError, match="requires b1 = 0, got 2"):
        sw_pg0_invariants(t2xs2, p2_kahler, (2, 0))
    facts = KahlerFacts(
        canonical_class=p2_kahler.canonical_class,
        ns_basis=p2_kahler.ns_basis,
        effective_cone=p2_kahler.effective_cone,
        pg_zero=False,
        kahler_ray=p2_kahler.kahler_ray,
    )
    with pytest.raises(DomainError):
        sw_pg0_invariants(p2, facts, (2,))
    # The table checks the facts once at entry, before any row.
    for c_list in ([(3,)], []):
        with pytest.raises(DomainError, match="p_g = 0"):
            sw_table(p2, c_list, kahler_facts=facts)


def test_sw_pg0_invariants_checks_like_its_table(p2, p2_kahler):
    bad_facts = dataclasses.replace(p2_kahler, canonical_class=(-2,))
    # The line class is checked before the facts.
    with pytest.raises(DimensionMismatchError, match="^line class has length 2"):
        sw_pg0_invariants(p2, bad_facts, (1, 2))
    with pytest.raises(DomainError, match="^invalid Kahler facts: canonical class is not"):
        sw_pg0_invariants(p2, bad_facts, (2,))
    # Inconsistent Betti data gets the table's refusal.
    with pytest.raises(InvalidTopologyError, match="^signature \\+ euler = 5 is not divisible"):
        sw_pg0_invariants(dataclasses.replace(p2, euler=4), p2_kahler, (2,))


def test_sw_table_p2_psc_threshold_profile(p2, p2_ray):
    rows = sw_table(p2, characteristic_range(p2, -9, 9), psc_ray=p2_ray)
    assert len(rows) == 10
    for row in rows:
        c = row.c[0]
        assert row.sw_plus == (1 if c >= 3 else 0)
        assert row.sw_minus == (-1 if c <= -3 else 0)


def test_sw_table_cross_path_consistency(p2, p2_ray, p2_kahler):
    dense = p2_blown_up_twice_dense()
    assert validate_topology(dense[0]) == []
    assert validate_kahler_facts(dense[0], dense[2]) == []
    for m, ray, facts, c_list in (
        (p2, p2_ray, p2_kahler, characteristic_range(p2, -9, 9)),
        dense,
    ):
        psc_rows = sw_table(m, c_list, psc_ray=ray)
        kahler_rows = sw_table(m, c_list, kahler_facts=facts)
        both = sw_table(m, c_list, psc_ray=ray, kahler_facts=facts)
        assert psc_rows == kahler_rows == both
        assert any(row.sw_plus == 1 for row in both)


def test_sw_table_small_dimension_rows_are_zero(p2, p2_ray):
    rows = sw_table(p2, [(1,), (-1,)], psc_ray=p2_ray)
    assert rows == [SWRow((-1,), 0, 0), SWRow((1,), 0, 0)]
    # A row is a named tuple: it is the plain triple (c, SW+, SW-).
    assert SWRow._fields == ("c", "sw_plus", "sw_minus")
    assert rows == [((-1,), 0, 0), ((1,), 0, 0)]
    # Repeats collapse and the rows come out sorted.
    assert sw_table(p2, [(1,), (-1,), (1,)], psc_ray=p2_ray) == rows


def test_sw_table_undetermined_on_wall():
    # One positive and ten negative directions: c = (3,1,...,1) has
    # square -1 and w = 0, and the ray (10,3,...,3) lies on its wall, so
    # the PSC argument has no chamber anchor and the row stays open.
    n = 11
    q = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n))
        for i in range(n)
    )
    m = ManifoldTopology(
        name="ten-blowups", b1=0, bplus=1, bminus=10, euler=13, signature=-9,
        intersection_form=q, w2=(1,) * n,
    )
    ray = PeriodRay(tuple(Fraction(v) for v in (10,) + (3,) * 10))
    c = (3,) + (1,) * 10
    rows = sw_table(m, [c], psc_ray=ray)
    assert rows == [SWRow(c, None, None)]
    # A slight tilt of the ray anchors the vanishing argument again.
    tilted = PeriodRay(tuple(Fraction(v) for v in (11,) + (3,) * 10))
    assert sw_table(m, [c], psc_ray=tilted) == [SWRow(c, 1, 0)]


def test_sw_table_requires_facts_and_small_betti(p2, s2xs2, p2_ray, t2xs2):
    with pytest.raises(DomainError):
        sw_table(p2, [(1,)])
    with pytest.raises(DomainError):
        sw_table(t2xs2, [(0, 0)], psc_ray=PeriodRay((Fraction(1), Fraction(1))))
    two_plus = ManifoldTopology(
        name="two-plus", b1=0, bplus=2, bminus=0, euler=4, signature=2,
        intersection_form=((1, 0), (0, 1)), w2=(1, 1),
    )
    with pytest.raises(DomainError):
        sw_table(two_plus, [(1, 1)], psc_ray=PeriodRay((Fraction(1), Fraction(0))))


def test_sw_table_flipped_component_negates_and_swaps(p2, p2_ray):
    plus_rows = sw_table(p2, characteristic_range(p2, -9, 9), psc_ray=p2_ray)
    minus_rows = sw_table(
        p2,
        characteristic_range(p2, -9, 9),
        psc_ray=PeriodRay(p2_ray.h, -1),
    )
    for a, b in zip(plus_rows, minus_rows):
        assert b.sw_plus == -a.sw_minus
        assert b.sw_minus == -a.sw_plus


def test_sw_table_rejects_conflicting_orientations(p2, p2_ray, p2_kahler):
    with pytest.raises(DomainError):
        sw_table(
            p2,
            [(3,)],
            psc_ray=PeriodRay(p2_ray.h, -1),
            kahler_facts=p2_kahler,
        )


def test_sw_table_refuses_disagreeing_facts(p2, p2_ray):
    # An empty effective cone with K = 5H contradicts the PSC vanishing on
    # both sides of the wall: only L = 0 is effective, so the Kahler rule
    # gives (1, 0) at c = -5 (L = 0) and (0, -1) at c = 5 (L = 5H).
    facts = KahlerFacts(
        canonical_class=(5,),
        ns_basis=((1,),),
        effective_cone=(),
        pg_zero=True,
        kahler_ray=p2_ray,
    )
    for c, plus_psc, plus_kahler in (((5,), 1, 0), ((-5,), 0, 1)):
        message = (
            f"the PSC and Kahler pipelines disagree at c = {list(c)}: "
            f"SW+ = {plus_psc} vs {plus_kahler}; the supplied facts are inconsistent"
        )
        with pytest.raises(DomainError, match=re.escape(message)):
            sw_table(p2, [c], psc_ray=p2_ray, kahler_facts=facts)


def test_sw_table_refuses_odd_dimension(p2, p2_ray):
    # euler = 5 makes w_c = (9 - 13) / 4 = -1 odd at c = 3, euler = 4 makes
    # it fractional; both are refused once at entry, even with no rows.
    for euler, c_list in [(5, [(3,)]), (4, [(3,)]), (5, [])]:
        wrong_euler = dataclasses.replace(p2, euler=euler)
        with pytest.raises(
            InvalidTopologyError, match=rf"^signature \+ euler = {1 + euler} is not divisible by 4"
        ):
            sw_table(wrong_euler, c_list, psc_ray=p2_ray)


def test_sw_table_quadric_cross_path(s2xs2):
    # The product metric on the quadric has positive curvature. Both
    # pipelines must fill the whole box.
    facts = quadric_facts()
    ray = PeriodRay((Fraction(1), Fraction(1)))
    c_list = characteristic_range(s2xs2, -4, 4)
    assert len(c_list) == 25
    psc_rows = sw_table(s2xs2, c_list, psc_ray=ray)
    kahler_rows = sw_table(s2xs2, c_list, kahler_facts=facts)
    both = sw_table(s2xs2, c_list, psc_ray=ray, kahler_facts=facts)
    assert psc_rows == kahler_rows == both
    by_c = {row.c: (row.sw_plus, row.sw_minus) for row in psc_rows}
    # w = (c1*c2 - 4)/2, positive side where c1 + c2 > 0.
    assert by_c[(2, 2)] == (1, 0)
    assert by_c[(4, 2)] == (1, 0)
    assert by_c[(-2, -2)] == (0, -1)
    assert by_c[(-4, -2)] == (0, -1)
    assert by_c[(2, -2)] == (0, 0)
    assert by_c[(0, 0)] == (0, 0)
    for (c1, c2), (plus, minus) in by_c.items():
        w = (c1 * c2 - 4) // 2
        if w < 0:
            assert (plus, minus) == (0, 0)
        elif c1 + c2 > 0:
            assert (plus, minus) == (1, 0)
        else:
            assert (plus, minus) == (0, -1)


def test_dimension_coherence_with_linear_systems(p2, p2_kahler):
    # w for c = 2m - K doubles the projective dimension of the degree-m
    # system, counted independently by binomials.
    for m in range(0, 11):
        c = (2 * m + 3,)
        w = expected_dim_abelian(p2, c)
        h0 = (m + 1) * (m + 2) // 2
        assert w == m * (m + 3) == 2 * (h0 - 1)


def public_row(m, c, psc_ray, facts):
    """One table row composed from the public, validating functions."""
    w = expected_dim_abelian(m, c)
    delta = wall_crossing_delta(m, c, ExtForm.scalar(0, 1))
    pairs = []
    if psc_ray is not None:
        # The PSC metric's chamber at b = 0 carries the value 0; the
        # other chamber differs by the wall-crossing jump.
        chamber = classify_chamber_oriented(m, c, psc_ray, (0,) * m.b2)
        if w < 0:
            pairs.append((0, 0))
        elif chamber is Chamber.C_MINUS:
            pairs.append((delta, 0))
        elif chamber is Chamber.C_PLUS:
            pairs.append((0, -delta))
        else:
            pairs.append((None, None))
    if facts is not None:
        # The p_g = 0 rule: the Douady space of the line class decides.
        line_class = tuple((cv + kv) // 2 for cv, kv in zip(c, facts.canonical_class))
        if w < 0:
            pairs.append((0, 0))
        else:
            pairs.append((1, 0) if douady_nonempty(m, facts, line_class) else (0, -1))
    plus = [p for p, _ in pairs if p is not None]
    minus = [q for _, q in pairs if q is not None]
    assert len(set(plus)) <= 1 and len(set(minus)) <= 1
    return SWRow(c, plus[0] if plus else None, minus[0] if minus else None)


# A ray whose entries have distinct denominators, so that the wall sign
# runs on the ray scaled to integers.
FRACTIONAL_RAY = to_new((Fraction(3), Fraction(-1, 2), Fraction(-2, 3)))


@pytest.mark.parametrize(
    "lattice, mode",
    [
        *itertools.product(["p2", "quadric", "p2#2 dense"], ["psc", "kahler", "both"]),
        ("p2#2 dense fractional ray", "psc"),
        ("p2#2 dense fractional ray flipped", "psc"),
    ],
)
def test_sw_table_rows_match_public_composition(lattice, mode, p2, p2_ray, p2_kahler, s2xs2):
    dense = p2_blown_up_twice_dense()
    m, ray, facts, c_list = {
        "p2": (p2, p2_ray, p2_kahler, characteristic_range(p2, -9, 9)),
        "quadric": (
            s2xs2,
            PeriodRay((Fraction(1), Fraction(1))),
            quadric_facts(),
            characteristic_range(s2xs2, -4, 4),
        ),
        "p2#2 dense": dense,
        "p2#2 dense fractional ray": (dense[0], PeriodRay(FRACTIONAL_RAY), None, dense[3]),
        "p2#2 dense fractional ray flipped": (
            dense[0], PeriodRay(FRACTIONAL_RAY, -1), None, dense[3],
        ),
    }[lattice]
    ray = ray if mode != "kahler" else None
    facts = facts if mode != "psc" else None
    rows = sw_table(m, c_list, psc_ray=ray, kahler_facts=facts)
    assert rows == [public_row(m, c, ray, facts) for c in sorted(c_list)]


def del_pezzo(k):
    """P2 blown up at k general points, both rays at -K, the effective
    cone spanned by the (-1)-classes."""
    m = ManifoldTopology(
        name=f"P2#{k}-P2", b1=0, bplus=1, bminus=k, euler=3 + k, signature=1 - k,
        intersection_form=tuple(
            tuple((1 if i == 0 else -1) if i == j else 0 for j in range(k + 1))
            for i in range(k + 1)
        ),
        w2=(1,) * (k + 1),
    )
    minus_k = PeriodRay((Fraction(3),) + (Fraction(-1),) * k)
    facts = KahlerFacts(
        canonical_class=(-3,) + (1,) * k,
        ns_basis=tuple(tuple(int(i == j) for j in range(k + 1)) for i in range(k + 1)),
        effective_cone=tuple(tuple(Fraction(v) for v in d) for d in minus_one_classes(k)),
        pg_zero=True,
        kahler_ray=minus_k,
    )
    return m, minus_k, facts


def del_pezzo_c_list(k, count):
    """A fixed sample of characteristic vectors: odd degree up to 7 and
    entries +-1, up to four of them tripled, so that rows with w_c < 0,
    with an effective line class and with a non-effective one all occur."""
    rng = random.Random(f"del Pezzo {k}")
    out = set()
    while len(out) < count:
        c = [rng.choice((-7, -5, -3, -1, 1, 3, 5, 7))] + [rng.choice((-1, 1)) for _ in range(k)]
        for j in rng.sample(range(1, k + 1), rng.randint(0, min(4, k))):
            c[j] *= 3
        out.add(tuple(c))
    return sorted(out)


@pytest.mark.parametrize("k, count", [(5, 400), (6, 400), (7, 300), (8, 120)])
def test_sw_table_del_pezzo_cross_path(k, count):
    m, minus_k, facts = del_pezzo(k)
    assert len(facts.effective_cone) == {5: 16, 6: 27, 7: 56, 8: 240}[k]
    assert validate_topology(m) == []
    assert validate_kahler_facts(m, facts) == []
    c_list = del_pezzo_c_list(k, count)
    psc_rows = sw_table(m, c_list, psc_ray=minus_k)
    kahler_rows = sw_table(m, c_list, kahler_facts=facts)
    assert psc_rows == kahler_rows
    seen = set()
    for row in kahler_rows:
        c = row.c
        w = expected_dim_abelian(m, c)
        c_dot_minus_k = 3 * c[0] + sum(c[1:])
        if w < 0:
            expected = (0, 0)
        elif c_dot_minus_k > 0:
            expected = (1, 0)
        else:
            expected = (0, -1)
        assert (row.sw_plus, row.sw_minus) == expected, c
        seen.add(expected)
    assert seen == {(0, 0), (1, 0), (0, -1)}


@pytest.mark.parametrize("table", ["del Pezzo 6", "p2#2 dense"])
def test_sw_table_rows_do_not_depend_on_the_other_rows(table):
    # The cone decides the rows of a table in one batch, its chains going
    # through other rows, yet each row equals the table of that row alone.
    if table == "del Pezzo 6":
        m, ray, facts = del_pezzo(6)
        c_list = del_pezzo_c_list(6, 400)
    else:
        m, ray, facts, c_list = p2_blown_up_twice_dense()
    rows = sw_table(m, c_list, psc_ray=ray, kahler_facts=facts)
    assert rows == [sw_table(m, [c], psc_ray=ray, kahler_facts=facts)[0] for c in sorted(c_list)]
    assert rows == sw_table(m, c_list, kahler_facts=facts)


def test_del_pezzo_k8_cone_reuses_checked_certificates():
    classes = minus_one_classes(8)
    cone_gens = [tuple(Fraction(v) for v in d) for d in classes]
    cone = _Cone(cone_gens, 9)
    runs = []
    phase1 = cone.phase1

    def counted(target):
        runs.append(phase1(target))
        return runs[-1]

    cone.phase1 = counted
    rng = random.Random("del Pezzo 8 certificates")
    inside = [
        tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(9))
        for gens, weights in (
            (rng.sample(classes, 3), [rng.randint(1, 3) for _ in range(3)]) for _ in range(40)
        )
    ]
    # H is nef, so classes of negative H-degree are not effective.
    outside = [
        (rng.randint(-6, -1),) + tuple(rng.randint(-4, 4) for _ in range(8)) for _ in range(40)
    ]
    targets = [(t, True) for t in inside] + [(t, False) for t in outside]
    rng.shuffle(targets)
    # One batch in increasing h.t for h = -K, whose wall vector is (3, 1, ..., 1).
    cols = list(zip(*(t for t, _ in targets)))
    key = [3 * t[0] + sum(t[1:]) for t, _ in targets]
    answers = cone.decide(cols, key)
    for (target, answer), (inside_found, witness) in zip(targets, answers):
        assert inside_found is answer
        if answer:
            # The target minus the chain is in the cone of the basis: it is 0
            # when the basis is empty, so a pure chain sums to the target.
            basis, chain = witness
            steps = chain_indices(chain)
            rest = [t - sum(cone.gens[j][i] for j in steps) for i, t in enumerate(target)]
            assert cone_contains([cone.gens[j] for j in basis], rest)
        else:
            assert all(dot(witness, g) >= 0 for g in cone.gens) and dot(witness, target) < 0
    # One Farkas vector, swept over the batch, can refuse every class of
    # negative degree, so a few simplex runs decide all 40 of them.
    assert len(runs) < len(targets)
    assert sum(not found for found, _ in runs) <= 4
    # The cone keeps no certificates between batches: the same batch again
    # gives the same answers from as many simplex runs.
    first = len(runs)
    assert cone.decide(cols, key) == answers and len(runs) == 2 * first


@pytest.mark.parametrize(
    "k, kind, bound, size",
    [(8, "slab", 1, 2), (8, "slab", 3, 484), (8, "slab", 5, 18726), (6, "box", 5, 24576)],
)
def test_del_pezzo_tables_are_decided_by_chains(monkeypatch, k, kind, bound, size):
    # In increasing h.L the chain decides every inside class but a few:
    # on the k = 8 slab, 0, the 240 generators and their sums g + g' come
    # before -K, which alone needs the simplex; on the cubic-surface box
    # with c0 in [-5, 5] and ci in [-3, 3], all 1,472 inside classes chain.
    # One Farkas vector refuses every outside class. Both pipelines run in
    # one call and agree row by row.
    m, minus_k, facts = del_pezzo(k)
    if kind == "slab":
        c_list = del_pezzo_slab(k, bound)
    else:
        c_list = list(itertools.product(range(-bound, bound + 1, 2), *[(-3, -1, 1, 3)] * k))
    runs = []
    phase1 = _Cone.phase1

    def counted(cone, target):
        runs.append(phase1(cone, target))
        return runs[-1]

    monkeypatch.setattr(_Cone, "phase1", counted)
    rows = sw_table(m, c_list, psc_ray=minus_k, kahler_facts=facts)
    assert len(rows) == size and len(runs) <= 4
    assert [(r.sw_plus, r.sw_minus) for r in rows] == [
        (0, 0) if expected_dim_abelian(m, c) < 0 else (1, 0) if 3 * c[0] + sum(c[1:]) > 0
        else (0, -1)
        for c in sorted(c_list)
    ]


def test_a_table_with_both_rays_scales_a_ray_three_times(monkeypatch):
    # The PSC ray once, for its wall functional; the Kahler ray once in the
    # facts check, whose functional orders the cone test, and once for the
    # one-component check. No check scales a ray it has scaled before.
    m, ray, facts, c_list = p2_blown_up_twice_dense()
    scaled = []
    integer_rows = chambers._integer_rows

    def counted(rows):
        scaled.append(rows)
        return integer_rows(rows)

    monkeypatch.setattr(chambers, "_integer_rows", counted)
    sw_table(m, c_list, psc_ray=ray, kahler_facts=facts)
    assert scaled == [[ray.h], [facts.kahler_ray.h], [facts.kahler_ray.h]]


def test_del_pezzo_k8_cone_membership_known_answers():
    cone = [tuple(Fraction(v) for v in d) for d in minus_one_classes(8)]
    rng = random.Random("del Pezzo 8 membership")
    for _ in range(12):
        gens = rng.sample(cone, rng.randint(1, 6))
        weights = [rng.randint(1, 3) for _ in gens]
        target = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(9))
        assert cone_contains(cone, target)
    # H is nef, so classes of negative H-degree are not effective; H - E1
    # is nef too, so neither is a class with d + a1 < 0.
    for _ in range(12):
        target = (rng.randint(-6, -1),) + tuple(rng.randint(-4, 4) for _ in range(8))
        assert not cone_contains(cone, target)
    for d in range(4):
        target = (d, -d - 1) + tuple(rng.randint(-2, 2) for _ in range(7))
        assert not cone_contains(cone, target)


def row_at_a_time(m, c_list, psc_ray=None, facts=None):
    """sw_table from the single-vector checks: the entry checks of the
    empty table, every entry of every c read as an int in input order,
    characteristic_square of every row in sorted order, and only then,
    row by row, spinor_c2, dot with the wall vector and the Douady rule."""
    sw_table(m, [], psc_ray=psc_ray, kahler_facts=facts)
    u = wall_vector(m, psc_ray) if psc_ray is not None else None
    cs = sorted(set(_as_int_vector(c, "characteristic vector entry") for c in c_list))
    squares = [characteristic_square(m, c) for c in cs]
    rows = []
    for c, square in zip(cs, squares):
        if spinor_c2(m, square, 1) < 0:
            rows.append(SWRow(c, 0, 0))
            continue
        pair = (None, None)
        if u is not None:
            s = dot(c, u)
            pair = (1, 0) if s > 0 else (0, -1) if s < 0 else (None, None)
        if facts is not None:
            line_class = tuple((cv + kv) // 2 for cv, kv in zip(c, facts.canonical_class))
            douady = (1, 0) if douady_nonempty(m, facts, line_class) else (0, -1)
            if pair[0] is not None and pair != douady:
                raise DomainError(
                    f"the PSC and Kahler pipelines disagree at c = {list(c)}: "
                    f"SW+ = {pair[0]} vs {douady[0]}; the supplied facts are inconsistent"
                )
            pair = douady
        rows.append(SWRow(c, *pair))
    return rows


def outcome(call, *args, **kwargs):
    """The repr of what call returns, so that types count, or the class
    and text of the DomainError or TypeError it raises."""
    try:
        return repr(call(*args, **kwargs))
    except (DomainError, TypeError) as error:
        return type(error), str(error)


@st.composite
def column_tables(draw):
    """A square integer form of rank 0..7: symmetric, symmetric plus a
    skew part (which changes no square), or arbitrary. A w2 that is
    characteristic for the symmetric part (then every characteristic c
    has the same c^2 mod 8) or arbitrary; a signature that the first row
    meets mod 8 or an arbitrary one; euler with signature + euler == 0
    (mod 4); a ray h of positive square; a canonical class; and a c-list
    that may be empty, repeat rows or be unsorted, that holds rows of the
    wrong parity now and then and, rarely, a row of the wrong length."""
    n = draw(st.integers(0, 7))
    entries = st.integers(-3, 3)
    q = [[draw(entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["symmetric", "skew part", "arbitrary"]))
    if shape != "arbitrary":
        q = [[q[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    w2 = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if shape != "arbitrary" and draw(st.integers(0, 3)):
        # Make q_ii == sum_j w_j q_ji (mod 2): an even q_ij where w_i = w_j = 1
        # settles the rows with w_i = 1, and the diagonal the others.
        for i, j in itertools.combinations(range(n), 2):
            if w2[i] and w2[j]:
                q[i][j] = q[j][i] = q[i][j] - q[i][j] % 2
        for i in range(n):
            if not w2[i]:
                q[i][i] += (q[i][i] - sum(w * q[j][i] for j, w in enumerate(w2))) % 2
    if shape == "skew part":
        for i, j in itertools.combinations(range(n), 2):
            s = draw(st.integers(-2, 2))
            q[i][j] += s
            q[j][i] -= s
    lattice = st.lists(entries, min_size=n, max_size=n)
    characteristic = lattice.map(lambda y: tuple(w + 2 * v for w, v in zip(w2, y)))
    row = characteristic if draw(st.integers(0, 3)) else st.one_of(characteristic, lattice.map(tuple))
    rows = draw(st.lists(row, max_size=10))
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    if draw(st.integers(0, 9)) == 0:
        rows.append(tuple(draw(st.lists(entries, min_size=n + 1, max_size=n + 1))))
    rows = draw(st.permutations(rows))
    square = lambda x: sum(x[i] * q[i][j] * x[j] for i in range(n) for j in range(n))
    if rows and len(rows[0]) == n and draw(st.integers(0, 3)):
        signature = square(rows[0]) + 8 * draw(st.integers(-1, 1))
    else:
        signature = draw(st.integers(-8, 8))
    m = ManifoldTopology(
        name="columns", b1=0, bplus=1, bminus=0, euler=4 * draw(st.integers(-2, 2)) - signature,
        signature=signature, intersection_form=q, w2=w2,
    )
    h = draw(lattice)
    assume(n == 0 or square(h) > 0)
    return m, rows, h, draw(characteristic)


@settings(max_examples=300)
@given(column_tables())
def test_column_squares_match_characteristic_square(case):
    m, rows, _, _ = case

    def one(c):
        try:
            return characteristic_square(m, c)
        except DomainError:
            return None

    want = [one(c) for c in rows] if all(len(c) == m.b2 for c in rows) else [None]
    assert repr(_squares(m, rows)) == repr(None if None in want else want)


@settings(max_examples=300)
@given(
    column_tables(),
    st.sampled_from(["psc", "psc flipped", "kahler", "both"]),
    st.sampled_from([1, 2, 3, kahler._ROW_BLOCK]),
)
def test_sw_table_columns_match_the_row_at_a_time_oracle(case, mode, block):
    # Same rows, types included, or the same refusal at the same row, also
    # when a failing row sits in a later block of the column pass.
    m, rows, h, canonical = case
    ray = PeriodRay(h, -1 if mode == "psc flipped" else 1)
    identity = tuple(tuple(int(i == j) for j in range(m.b2)) for i in range(m.b2))
    facts = KahlerFacts(canonical, identity, identity, True, PeriodRay(h))
    psc_ray = ray if mode != "kahler" else None
    facts = facts if mode in ("kahler", "both") else None
    want = outcome(row_at_a_time, m, rows, psc_ray, facts)
    default, kahler._ROW_BLOCK = kahler._ROW_BLOCK, block
    try:
        got = outcome(sw_table, m, rows, psc_ray=psc_ray, kahler_facts=facts)
    finally:
        kahler._ROW_BLOCK = default
    assert got == want


def planted_disagreement():
    """A rank-2 form diag(1, -3), not unimodular, with w2 = (1, 0), which
    is not characteristic for it: c = (a, b) meets c^2 == 1 (mod 8)
    exactly when b == 0 (mod 4). The effective cone is empty, so the
    Kahler pipeline gives (0, -1) at c = (5, 0), where the PSC pipeline
    gives (1, 0)."""
    m = ManifoldTopology(
        name="planted", b1=0, bplus=1, bminus=1, euler=3, signature=1,
        intersection_form=((1, 0), (0, -3)), w2=(1, 0),
    )
    ray = PeriodRay((Fraction(1), Fraction(0)))
    facts = KahlerFacts(
        canonical_class=(-3, 0),
        ns_basis=((1, 0), (0, 1)),
        effective_cone=(),
        pg_zero=True,
        kahler_ray=ray,
    )
    return m, ray, facts


@pytest.mark.parametrize(
    "bad, error",
    [
        ((1,), DimensionMismatchError),
        ((6,), DimensionMismatchError),
        ((4, 0), DomainError),  # wrong parity
        ((6, 0), DomainError),
        ((1, 2), InvalidTopologyError),  # c^2 == 5 (mod 8)
        ((7, 2), InvalidTopologyError),
    ],
)
def test_a_failing_row_and_a_disagreement_raise_in_row_order(bad, error):
    # The failing row raises with its own class and text wherever it sorts,
    # also after the disagreement at (5, 0): every row's own checks run
    # before any row is decided.
    m, ray, facts = planted_disagreement()
    c_list = [(7, 0), bad, (5, 0), (-1, 0), (5, 0)]
    want = outcome(row_at_a_time, m, c_list, ray, facts)
    assert outcome(sw_table, m, c_list, psc_ray=ray, kahler_facts=facts) == want
    assert want == outcome(characteristic_square, m, bad)
    assert want[0] is error
    c_list.remove(bad)
    assert outcome(sw_table, m, c_list, psc_ray=ray, kahler_facts=facts) == (DomainError, (
        "the PSC and Kahler pipelines disagree at c = [5, 0]: "
        "SW+ = 1 vs 0; the supplied facts are inconsistent"
    ))


# P2 # 4(-P2) with both rays at -K: 1,024 classes in the box [-3, 3], four
# row blocks; the 32 rows with w_c >= 0 are rows 85-170 and 853-938.
DP4, DP4_RAY, DP4_FACTS = del_pezzo(4)
DP4_BOX = characteristic_range(DP4, -3, 3)
PIPELINES = {"psc": (DP4_RAY, None), "kahler": (None, DP4_FACTS), "both": (DP4_RAY, DP4_FACTS)}


def same_as_row_at_a_time(m, c_list, psc_ray=None, facts=None):
    """The outcome of sw_table, which must be that of the oracle."""
    want = outcome(row_at_a_time, m, c_list, psc_ray, facts)
    assert outcome(sw_table, m, c_list, psc_ray=psc_ray, kahler_facts=facts) == want
    return want


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize(
    "c_list",
    [
        DP4_BOX,
        DP4_BOX[::-1],
        random.Random(4).sample(DP4_BOX, len(DP4_BOX)),
        DP4_BOX + DP4_BOX[300:700],
        # Sorted but for one repeat: not strictly increasing, so it is deduplicated.
        DP4_BOX[:500] + DP4_BOX[499:],
        [list(c) for c in DP4_BOX],
    ],
    ids=["sorted", "reversed", "shuffled", "repeated", "adjacent repeat", "lists"],
)
def test_sw_table_orders_match_the_row_at_a_time_oracle(c_list, pipeline):
    psc_ray, facts = PIPELINES[pipeline]
    want = same_as_row_at_a_time(DP4, c_list, psc_ray, facts)
    assert want == outcome(sw_table, DP4, iter(DP4_BOX), psc_ray=psc_ray, kahler_facts=facts)
    assert want.count("SWRow(") == len(DP4_BOX)


def with_entry(box, where, value):
    """box as lists, the coordinate 2 of row where replaced by value(old entry)."""
    rows = [list(c) for c in box]
    rows[where][2] = value(rows[where][2])
    return rows


ENTRIES = {
    "bool": (lambda v: True, "True"),
    "integral float": (float, None),
    "Fraction(2v, 2)": (lambda v: Fraction(2 * v, 2), None),
    "Fraction(10, 2)": (lambda v: Fraction(10, 2), None),
    "Fraction(7, 2)": (lambda v: Fraction(7, 2), "Fraction(7, 2)"),
}


@pytest.mark.parametrize("where", [0, 517, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_sw_table_entries_match_the_row_at_a_time_oracle(entry, where):
    # A bool or a non-integral entry is refused by name; an integral float or
    # Fraction is read as its int (Fraction(10, 2) as 5, which moves its row
    # out of the box).
    value, refused = ENTRIES[entry]
    c_list = with_entry(DP4_BOX, where, value)
    want = same_as_row_at_a_time(DP4, c_list, psc_ray=DP4_RAY)
    if refused is not None:
        assert want == (DomainError, f"characteristic vector entry must be an integer, got {refused}")
    elif entry != "Fraction(10, 2)":
        assert want == outcome(sw_table, DP4, DP4_BOX, psc_ray=DP4_RAY)


@pytest.mark.parametrize(
    "first, then",
    [("Fraction(7, 2)", "bool"), ("bool", "Fraction(7, 2)"), ("integral float", "bool")],
)
@pytest.mark.parametrize("where", [(0, -1), (3, 4), (517, 900)])
def test_the_first_bad_entry_in_input_order_raises(first, then, where):
    c_list = with_entry(with_entry(DP4_BOX, where[0], ENTRIES[first][0]), where[1], ENTRIES[then][0])
    refused = ENTRIES[first][1] or ENTRIES[then][1]
    want = same_as_row_at_a_time(DP4, c_list[::-1], psc_ray=DP4_RAY)
    assert want[1].endswith(f"got {ENTRIES[then][1]}")
    want = same_as_row_at_a_time(DP4, c_list, psc_ray=DP4_RAY)
    assert want == (DomainError, f"characteristic vector entry must be an integer, got {refused}")
    # A row that is not iterable after the bad entry does not hide it.
    assert same_as_row_at_a_time(DP4, c_list + [5], psc_ray=DP4_RAY) == want
    assert same_as_row_at_a_time(DP4, DP4_BOX + [5], psc_ray=DP4_RAY)[0] is TypeError


def wrong_parity_last(block):
    """block with the coordinate 3 of its last row made even: its column's
    only wrong-parity value comes after all the right ones."""
    *rows, last = block
    return rows + [last[:3] + (last[3] + 1,) + last[4:]]


def test_squares_find_a_late_wrong_parity_value():
    for block in (DP4_BOX[:256], DP4_BOX[512:768]):
        assert _squares(DP4, block) == [characteristic_square(DP4, c) for c in block]
        assert _squares(DP4, wrong_parity_last(block)) is None


@st.composite
def boxes(draw):
    """A form of rank 1..6 and one value list per column. The form is a sum
    of hyperbolic planes (w2 = 0 on them) and +-1 entries (w2 = 1), in a
    dense basis made as in test_topology._dense_blowup, plus a skew part,
    which changes no square. Now and then w2 or the signature is drawn
    instead, so that c^2 == signature (mod 8) fails for some or all c. The
    values of each column have the parity of w2 there, now and then but
    one of them."""
    n = draw(st.integers(1, 6))
    q, w2, i = [[0] * n for _ in range(n)], [0] * n, 0
    while i < n:
        if i + 1 < n and draw(st.booleans()):
            q[i][i + 1] = q[i + 1][i] = 1
            i += 2
        else:
            q[i][i], w2[i] = draw(st.sampled_from((1, -1))), 1
            i += 1
    signature = sum(q[i][i] for i in range(n))
    for _ in range(draw(st.integers(0, 3 * n)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        s = draw(st.sampled_from((-1, 1)))
        q[i] = [x + s * y for x, y in zip(q[i], q[j])]
        for row in q:
            row[i] += s * row[j]
        w2[j] = (w2[j] + w2[i]) % 2
    for i, j in itertools.combinations(range(n), 2):
        s = draw(st.integers(-2, 2))
        q[i][j] += s
        q[j][i] -= s
    if draw(st.integers(0, 3)) == 0:
        w2 = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        signature = draw(st.integers(-8, 8))
    values = [
        [w + 2 * v for v in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))]
        for w in w2
    ]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, n - 1))
        values[i].insert(draw(st.integers(0, len(values[i]))), 2 * draw(st.integers(-2, 2)) + 1 - w2[i])
    m = ManifoldTopology(
        name="box", b1=0, bplus=1, bminus=n - 1, euler=2 + n, signature=signature,
        intersection_form=q, w2=w2,
    )
    return m, values


@settings(max_examples=200, deadline=None)
@given(boxes())
def test_box_squares_are_the_squares_of_the_product(case):
    # In itertools.product order, or None exactly when a class is refused.
    m, values = case
    try:
        want = [characteristic_square(m, c) for c in itertools.product(*values)]
    except DomainError:
        want = None
    event("refused" if want is None else "squares")
    assert _box_squares(m, values) == want


F3 = load_manifold_file(Path(__file__).resolve().parent.parent / "demos" / "hirzebruch_f3.manifold")
DENSE = p2_blown_up_twice_dense()[:3]
# A lattice, its PSC ray, its Kahler facts and a box of its characteristic
# classes: diagonal, dense and off-diagonal with an odd w2.
BOX_TABLES = {
    "P2#4(-P2)": (DP4, DP4_RAY, DP4_FACTS, DP4_BOX),
    "P2#2(-P2) dense": (*DENSE, characteristic_range(DENSE[0], -5, 5)),
    "F3": (F3.topology, F3.psc_ray, F3.kahler, characteristic_range(F3.topology, -9, 9)),
}


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.manifold"))


def same_as_a_plain_list(m, box, psc_ray=None, facts=None):
    """The outcome of sw_table on box, which must be that on a plain list of its rows."""
    want = outcome(sw_table, m, list(box), psc_ray=psc_ray, kahler_facts=facts)
    assert outcome(sw_table, m, box, psc_ray=psc_ray, kahler_facts=facts) == want
    return want


def spy_box_route(monkeypatch) -> list:
    """What each call of sw_table's box route returns, recorded in order."""
    results = []

    def spy(m, values):
        results.append(_box_squares(m, values))
        return results[-1]

    monkeypatch.setattr(kahler, "_box_squares", spy)
    return results


@pytest.mark.parametrize("pipeline", ["psc", "kahler", "both"])
@pytest.mark.parametrize("lattice", BOX_TABLES)
def test_a_box_takes_the_box_route_with_the_block_routes_rows(monkeypatch, lattice, pipeline):
    # One more class past the box gives its first column one more value: the
    # rows are no box, and take the block route.
    m, ray, facts, box = BOX_TABLES[lattice]
    psc_ray, facts = (ray if pipeline != "kahler" else None), (facts if pipeline != "psc" else None)
    results = spy_box_route(monkeypatch)
    outside = (box[-1][0] + 2,) + box[-1][1:]
    by_blocks = sw_table(m, box + [outside], psc_ray=psc_ray, kahler_facts=facts)
    assert results == [] and by_blocks[-1].c == outside
    assert sw_table(m, box, psc_ray=psc_ray, kahler_facts=facts) == by_blocks[:-1]
    assert len(results) == 1 and results[0] is not None
    # A plain list of the range's rows is read by its columns, to the same rows.
    assert same_as_a_plain_list(m, box, psc_ray, facts).count("SWRow(") == len(box)


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_a_range_on_a_demo_gives_the_rows_of_a_plain_list(path):
    # The file's own facts; a file without them, or with b1 > 0, is refused alike.
    data = load_manifold_file(path)
    box = characteristic_range(data.topology, -3, 3)
    same_as_a_plain_list(data.topology, box, data.psc_ray, data.kahler)


def with_row_entry(value):
    """A change that sets the coordinate 2 of row 517 of a box to value."""
    def change(box):
        box[517] = box[517][:2] + (value,) + box[517][3:]
    return change


MUTATIONS = {
    "True": with_row_entry(True),
    "Fraction(1)": with_row_entry(Fraction(1)),
    "1.0": with_row_entry(1.0),
    "list.__setitem__": lambda box: list.__setitem__(box, 517, box[517][:2] + (True,) + box[517][3:]),
    "reverse": lambda box: box.reverse(),
    "append a repeat": lambda box: box.append(box[3]),
    "del": lambda box: box.__delitem__(517),
    "extend past the box": lambda box: box.extend([(box[-1][0] + 2,) + box[-1][1:]]),
}


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_a_mutated_range_gives_the_rows_of_a_plain_list(monkeypatch, mutation, pipeline):
    # Once its rows change, a range is read as any list: a True is refused by
    # name, and a row that is no longer the product takes the block route.
    box = characteristic_range(DP4, -3, 3)
    MUTATIONS[mutation](box)
    results = spy_box_route(monkeypatch)
    want = outcome(sw_table, DP4, list(box), *PIPELINES[pipeline])
    plain, results[:] = results[:], []
    assert outcome(sw_table, DP4, box, *PIPELINES[pipeline]) == want
    assert results == plain
    assert same_as_row_at_a_time(DP4, box, *PIPELINES[pipeline]) == want
    if mutation in ("True", "list.__setitem__"):
        assert want == (DomainError, "characteristic vector entry must be an integer, got True")


@pytest.mark.parametrize(
    "built_on, used_on",
    [("P2#4(-P2)", "P2#2(-P2) dense"), ("F3", "hirzebruch_f2"), ("F3", "hirzebruch_f1")],
    ids=["another b2", "another w2", "same b2 and w2"],
)
def test_a_range_of_another_manifold_gives_the_rows_of_a_plain_list(built_on, used_on):
    box = BOX_TABLES[built_on][3]
    if used_on in BOX_TABLES:
        m, ray, facts, _ = BOX_TABLES[used_on]
    else:
        data = load_manifold_file(DEMOS[0].parent / f"{used_on}.manifold")
        m, ray, facts = data.topology, data.psc_ray, data.kahler
    want = same_as_a_plain_list(m, box, ray, facts)
    if used_on == "hirzebruch_f1":
        assert want.count("SWRow(") == len(box)
    else:
        assert want[0] in (DimensionMismatchError, DomainError)


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_an_empty_range_and_copies_give_the_rows_of_a_plain_list(pipeline):
    assert same_as_a_plain_list(DP4, characteristic_range(DP4, 3, -3), *PIPELINES[pipeline]) == "[]"
    assert same_as_a_plain_list(DP4, characteristic_range(DP4, 0, 0), *PIPELINES[pipeline]) == "[]"
    # On F3 (w2 = (1, 0)) the box [0, 0] has an empty first column and a full second one.
    assert same_as_a_plain_list(F3.topology, characteristic_range(F3.topology, 0, 0), F3.psc_ray) == "[]"
    box = characteristic_range(DP4, -3, 3)
    for copied in (copy.copy(box), copy.deepcopy(box), pickle.loads(pickle.dumps(box))):
        assert copied == box and repr(copied) == repr(box)
        assert same_as_a_plain_list(DP4, copied, *PIPELINES[pipeline]) == outcome(
            sw_table, DP4, box, *PIPELINES[pipeline]
        )
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(box, protocol)) == box


@pytest.mark.parametrize("lattice", BOX_TABLES)
def test_an_intact_range_reaches_the_box_route_without_a_scan(monkeypatch, lattice):
    # No entry-type scan (chain.from_iterable) and no sortedness scan (islice):
    # the range hands over its coordinate ranges. A plain list of its rows is
    # scanned and goes by blocks.
    m, ray, _, box = BOX_TABLES[lattice]
    want = sw_table(m, list(box), psc_ray=ray)
    scans = []

    def spied(name, call):
        def spy(*args):
            scans.append(name)
            return call(*args)
        return spy

    monkeypatch.setattr(kahler, "chain", SimpleNamespace(from_iterable=spied("entries", itertools.chain.from_iterable)))
    monkeypatch.setattr(kahler, "islice", spied("order", itertools.islice))
    results = spy_box_route(monkeypatch)
    assert sw_table(m, box, psc_ray=ray) == want
    assert scans == [] and len(results) == 1 and results[0] is not None
    assert sw_table(m, list(box), psc_ray=ray) == want
    assert scans == ["entries", "order"] and len(results) == 1


NEAR_BOXES = {
    "minus one row": lambda box: box[:517] + box[518:],
    "repeats": lambda box: box + box[::7],
    "shuffled": lambda box: random.Random(30).sample(box, len(box)),
}


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("near", NEAR_BOXES)
def test_near_boxes_match_the_row_at_a_time_oracle(monkeypatch, near, pipeline):
    # Repeats and order do not matter: sorted and deduplicated, those are the
    # box's rows. No plain list takes the box route.
    results = spy_box_route(monkeypatch)
    want = same_as_row_at_a_time(DP4, NEAR_BOXES[near](DP4_BOX), *PIPELINES[pipeline])
    assert want.count("SWRow(") == len(DP4_BOX) - (near == "minus one row")
    assert results == []


def test_a_lopsided_plain_list_never_takes_the_box_route(monkeypatch):
    # On P2#9(-P2), one column of 2,001 values and nine of one: the rows are
    # a box, but a plain list goes by blocks.
    m = del_pezzo(9)[0]
    results = spy_box_route(monkeypatch)
    c_list = [(a,) + (1,) * 9 for a in range(-2001, 2001, 2)]
    want = same_as_row_at_a_time(m, c_list, PeriodRay((1,) + (0,) * 9))
    assert want.count("SWRow(") == len(c_list) and results == []


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_a_box_with_a_wrong_parity_value_is_refused_at_its_row(monkeypatch, pipeline):
    results = spy_box_route(monkeypatch)
    c_list = list(itertools.product(*[[-3, -1, 1, 3]] * 4, [-3, -1, 0, 1, 3]))
    want = same_as_row_at_a_time(DP4, c_list, *PIPELINES[pipeline])
    assert want == (DomainError, "c = [-3, -3, -3, -3, 0] is not characteristic: c != w2 (mod 2)")
    assert results == []
    # A range built for a w2 that differs in the last coordinate fails the
    # box route's parity check and is refused at its first row by blocks.
    box = characteristic_range(dataclasses.replace(DP4, w2=(1, 1, 1, 1, 0)), -3, 3)
    want = same_as_row_at_a_time(DP4, box, *PIPELINES[pipeline])
    assert want == (DomainError, "c = [-3, -3, -3, -3, -2] is not characteristic: c != w2 (mod 2)")
    assert results == [None]


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_a_box_on_an_inconsistent_lattice_is_refused_at_its_row(monkeypatch, pipeline):
    # On the planted lattice c^2 == signature (mod 8) fails for c = (a, b)
    # with b == 2 (mod 4): first at the second row of the box.
    m, ray, facts = planted_disagreement()
    psc_ray, facts = (ray if pipeline != "kahler" else None), (facts if pipeline != "psc" else None)
    results = spy_box_route(monkeypatch)
    c_list = list(itertools.product([-3, -1, 1, 3], [-4, -2, 0, 2, 4]))
    want = same_as_row_at_a_time(m, c_list, psc_ray, facts)
    assert want == (InvalidTopologyError, (
        "characteristic vector c = [-3, -2] violates c^2 == signature (mod 8); "
        "the lattice data is inconsistent"
    ))
    assert results == []
    # The range of the same rows fails the box route's mod-8 check, and is
    # refused at the same row by blocks.
    box = characteristic_range(m, -4, 4)
    assert box == c_list and same_as_row_at_a_time(m, box, psc_ray, facts) == want
    assert results == [None]


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("block", [1, 2, 3])
def test_a_late_wrong_parity_value_is_refused_at_its_row(pipeline, block):
    # The bad row is the last of its block; no row is decided before it
    # is refused, in any block.
    c_list = DP4_BOX[:256 * (block - 1)] + wrong_parity_last(DP4_BOX[256 * (block - 1):256 * block])
    c_list += DP4_BOX[256 * block:]
    want = same_as_row_at_a_time(DP4, c_list, *PIPELINES[pipeline])
    assert want[0] is DomainError and "not characteristic" in want[1]


def failing_row(kind, c):
    """c with an even coordinate 4, or with a sixth coordinate: a row that
    sorts right after c."""
    return c[:4] + (c[4] + 1,) if kind == "wrong parity" else c + (1,)


@pytest.mark.parametrize("bad_at", [0, 100, 500, 853, 854, 1023])
@pytest.mark.parametrize("kind", ["wrong parity", "wrong length"])
def test_blocks_mixing_a_failing_row_with_decided_rows(kind, bad_at):
    # Without the (-1)-class E4 in the cone the pipelines disagree first at
    # row 854. The failing row sorts right after row bad_at: before, among
    # or after the rows with w_c >= 0, in their block or another one. It
    # raises, also where the disagreement comes first.
    cone = [g for g in DP4_FACTS.effective_cone if g != (0, 0, 0, 0, 1)]
    facts = dataclasses.replace(DP4_FACTS, effective_cone=tuple(cone))
    bad = failing_row(kind, DP4_BOX[bad_at])
    want = same_as_row_at_a_time(DP4, [bad] + DP4_BOX, DP4_RAY, facts)
    assert want == outcome(characteristic_square, DP4, bad)
    assert want[0] is (DomainError if kind == "wrong parity" else DimensionMismatchError)
    assert "disagree at c = [3, -1, -1, -1, 1]" in outcome(sw_table, DP4, DP4_BOX, DP4_RAY, facts)[1]


@pytest.mark.parametrize("kind", ["wrong parity", "wrong length"])
def test_a_failing_row_two_blocks_after_a_disagreement_raises(kind):
    # With K = -c for the c of row 85, the first row with w_c >= 0, its line
    # class is 0, which is effective, so the pipelines disagree first at row
    # 85, in block 0. The failing row sorts after row 600, in block 2, a
    # whole block later.
    facts = dataclasses.replace(DP4_FACTS, canonical_class=tuple(-v for v in DP4_BOX[85]))
    disagreement = outcome(sw_table, DP4, DP4_BOX, DP4_RAY, facts)
    assert disagreement[1].startswith(f"the PSC and Kahler pipelines disagree at c = {list(DP4_BOX[85])}")
    bad = failing_row(kind, DP4_BOX[600])
    want = same_as_row_at_a_time(DP4, DP4_BOX + [bad], DP4_RAY, facts)
    assert want == outcome(characteristic_square, DP4, bad)
