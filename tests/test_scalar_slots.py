"""Every public scalar slot checks its caller value where it enters.

An integer slot reads an integral float as the int and refuses anything
else; a rational slot takes an int, a Fraction or an integral float; a
sign slot is an integer slot that must hold +1 or -1. So 0.1 raises a
DomainError naming the slot, and 2.0 gives what 2 gives, with no float
left anywhere in the result. A flag slot takes True or False only.
"""

from __future__ import annotations

import dataclasses
from decimal import Decimal
from fractions import Fraction

import pytest

from swcalc import (
    DomainError,
    ExtForm,
    HilbertPoly,
    KahlerFacts,
    ManifoldTopology,
    OrientationData,
    PairProfile,
    PeriodRay,
    Stability,
    abelian_solvability_side,
    c2_spinor_bundle,
    characteristic_range,
    classify_chamber,
    classify_chamber_oriented,
    cup_form,
    douady_nonempty,
    expected_dim_abelian,
    expected_dim_pu2,
    framing_defect,
    is_c_good,
    is_characteristic,
    oriented_pair_status_rank2,
    require_characteristic,
    rho_interval,
    slope,
    spin_sp1_admissible,
    spin_u2_admissible,
    spinor_sup_bound,
    sw_pg0_invariants,
    sw_table,
    triple_cup_from_entries,
    uhlenbeck_strata,
    wall_crossing_delta,
    wedge_power,
)
from swcalc.chambers import wall_vector

P2_FIELDS = dict(
    name="P2", b1=0, bplus=1, bminus=0, euler=3, signature=1,
    intersection_form=((1,),), w2=(1,),
)
P2 = ManifoldTopology(**P2_FIELDS)
RAY = PeriodRay((1,))
FACTS = KahlerFacts((-3,), ((1,),), ((1,),), True, RAY)
POLY = HilbertPoly((0, 1, 1))
KERNEL = HilbertPoly((0, 0, Fraction(1, 2)))
FORM = ExtForm(4, {(1, 2): 1, (3, 4): 1})


def _topology(**changes):
    return ManifoldTopology(**{**P2_FIELDS, **changes})


def _pair(rank=3, kermax_rank=1, subsheaf_rank=1):
    return PairProfile(
        rank, POLY, False, True, (kermax_rank, KERNEL), ((subsheaf_rank, POLY),)
    )


def _ray(entry):
    ray = PeriodRay((entry,))
    return ray, wall_vector(P2, ray)


def _signed_ray(sign):
    ray = PeriodRay((1,), sign)
    return ray, wall_vector(P2, ray)


# (slot name as the error states it, call with the slot's value, an
# accepted integral value besides 2)
INTEGER_SLOTS = [
    ("b1", lambda v: _topology(b1=v), 0),
    ("euler", lambda v: _topology(euler=v), 3),
    ("tors2_order", lambda v: _topology(tors2_order=v), 1),
    ("intersection form entry", lambda v: _topology(intersection_form=((v,),)), 1),
    ("w2 entry", lambda v: _topology(w2=(v,)), 1),
    ("triple cup entry", lambda v: triple_cup_from_entries(2, 1, [(1, 2, 1, v)]), 1),
    ("b1", lambda v: triple_cup_from_entries(v, 1, [(1, 2, 1, 1)]), 3),
    ("b2", lambda v: triple_cup_from_entries(2, v, [(1, 2, 1, 1)]), 1),
    ("characteristic vector entry", lambda v: is_characteristic(P2, (v,)), 3),
    ("characteristic vector entry", lambda v: require_characteristic(P2, (v,)), 3),
    ("characteristic vector entry", lambda v: expected_dim_abelian(P2, (v,)), 3),
    ("characteristic vector entry", lambda v: c2_spinor_bundle(P2, (v,), 1), 3),
    ("characteristic vector entry", lambda v: cup_form(P2, (v,)), 3),
    ("characteristic vector entry",
     lambda v: wall_crossing_delta(P2, (v,), ExtForm.scalar(0, 1)), 3),
    ("characteristic vector entry", lambda v: classify_chamber(P2, (v,), RAY, (0,)), 3),
    ("characteristic vector entry", lambda v: sw_table(P2, [(v,)], psc_ray=RAY), 3),
    ("Pontryagin number", lambda v: spin_sp1_admissible(P2, v), 1),
    ("Pontryagin number", lambda v: spin_u2_admissible(P2, v, (4,)), -3),
    ("c entry", lambda v: spin_u2_admissible(P2, -3, (v,)), 4),
    ("Pontryagin number", lambda v: expected_dim_pu2(P2, v, (4,)), -3),
    ("c entry", lambda v: expected_dim_pu2(P2, -3, (v,)), 4),
    ("Pontryagin number", lambda v: uhlenbeck_strata(P2, v, (4,)), -3),
    ("c entry", lambda v: uhlenbeck_strata(P2, -3, (v,)), 4),
    ("max_level", lambda v: uhlenbeck_strata(P2, -3, (4,), v), 0),
    ("cmin", lambda v: characteristic_range(P2, v, 5), -5),
    ("cmax", lambda v: characteristic_range(P2, -5, v), 5),
    ("canonical class entry", lambda v: KahlerFacts((v,), ((1,),), ((1,),), True, RAY), -3),
    ("ns_basis entry", lambda v: KahlerFacts((-3,), ((v,),), ((1,),), True, RAY), 1),
    ("line class entry", lambda v: douady_nonempty(P2, FACTS, (v,)), 3),
    ("line class entry", lambda v: sw_pg0_invariants(P2, FACTS, (v,)), 3),
    ("line class entry", lambda v: abelian_solvability_side(P2, FACTS, (v,), (0,)), 3),
    ("b1", lambda v: ExtForm(v, {}), 4),
    ("form index", lambda v: ExtForm(4, {(v,): 1}), 1),
    ("form coefficient", lambda v: ExtForm(4, {(1,): v}), -1),
    ("form scalar", lambda v: v * FORM, -1),
    ("wedge power exponent", lambda v: wedge_power(FORM, v), 0),
    ("rank", lambda v: slope(3, v), 1),
    ("sheaf rank", lambda v: framing_defect(POLY, v, KERNEL, 1), 1),
    ("kernel rank", lambda v: framing_defect(POLY, 2, KERNEL, v), 1),
    ("pair rank", lambda v: _pair(rank=v), 3),
    ("kernel rank", lambda v: _pair(kermax_rank=v), 1),
    ("subsheaf rank", lambda v: _pair(subsheaf_rank=v), 1),
]

SIGN_SLOTS = [
    ("component_sign", _signed_ray, -1),
    ("o1_sign", lambda v: OrientationData(v), -1),
    ("o1_sign",
     lambda v: wall_crossing_delta(P2, (3,), ExtForm.scalar(0, 1), OrientationData(v)), -1),
    ("sign", lambda v: c2_spinor_bundle(P2, (3,), v), -1),
]

RATIONAL_SLOTS = [
    ("period ray entry", _ray, 1),
    ("twisting class entry", lambda v: classify_chamber(P2, (3,), RAY, (v,)), 5),
    ("twisting class entry", lambda v: classify_chamber_oriented(P2, (3,), RAY, (v,)), 3),
    ("twisting class entry", lambda v: is_c_good(P2, (3,), RAY, (v,)), 3),
    ("twisting class entry", lambda v: abelian_solvability_side(P2, FACTS, (1,), (v,)), 5),
    ("effective cone entry", lambda v: KahlerFacts((-3,), ((1,),), ((v,),), True, RAY), 1),
    ("sup_term", spinor_sup_bound, -1),
    ("polynomial coefficient", lambda v: HilbertPoly((v,)), 0),
    ("polynomial coefficient", lambda v: HilbertPoly.from_coeffs((1, v)), 0),
    ("scale factor", POLY.scale, -1),
    ("evaluation point", POLY.evaluate, -1),
    ("degree", lambda v: slope(v, 2), -3),
    ("mu_div", lambda v: oriented_pair_status_rank2(False, Stability.NEITHER, v, 3), 3),
    ("mu_e", lambda v: oriented_pair_status_rank2(False, Stability.NEITHER, 1, v), 1),
    ("m_under", lambda v: rho_interval(v, 3), 3),
    ("m_over", lambda v: rho_interval(1, v), 1),
]

ALL_SLOTS = INTEGER_SLOTS + SIGN_SLOTS + RATIONAL_SLOTS
SLOT_IDS = [f"{i}-{case[0]}" for i, case in enumerate(ALL_SLOTS)]


def floats_in(value) -> list:
    """Every float inside value, through containers and dataclass fields."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        return floats_in(list(value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        return [f for item in value for f in floats_in(item)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return floats_in([getattr(value, f.name) for f in dataclasses.fields(value)])
    return []


def outcome(call, value):
    """The result of call(value), or the type and text of its refusal."""
    try:
        return call(value)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("what, call, accepted", ALL_SLOTS, ids=SLOT_IDS)
def test_integral_float_acts_as_its_int(what, call, accepted):
    for value in (2, accepted):
        expected = outcome(call, value)
        got = outcome(call, float(value))
        assert got == expected
        assert floats_in(got) == []


@pytest.mark.parametrize("what, call, accepted", ALL_SLOTS, ids=SLOT_IDS)
def test_non_integral_float_is_refused_by_name(what, call, accepted):
    kind = "an int or a Fraction" if (what, call, accepted) in RATIONAL_SLOTS else "an integer"
    with pytest.raises(DomainError, match=f"^{what} must be {kind}, got 0.1$"):
        call(0.1)


@pytest.mark.parametrize("what, call, accepted", ALL_SLOTS, ids=SLOT_IDS)
def test_bool_is_refused_by_name(what, call, accepted):
    # bool is an int subclass, so without a check True would count as 1.
    kind = "an int or a Fraction" if (what, call, accepted) in RATIONAL_SLOTS else "an integer"
    for value in (True, False):
        with pytest.raises(DomainError, match=f"^{what} must be {kind}, got {value}$"):
            call(value)


@pytest.mark.parametrize(
    "value", ["1/2", "2", Decimal("0.5"), Decimal(2), 2 + 0j, None, float("inf"), float("nan")]
)
def test_rational_slot_refuses_non_numbers(value):
    with pytest.raises(DomainError, match="^period ray entry must be an int or a Fraction"):
        PeriodRay((value,))


def test_rational_slots_keep_fractions():
    ray = PeriodRay((2, Fraction(1, 3), 4.0))
    assert ray.h == (2, Fraction(1, 3), 4)
    assert all(type(v) is Fraction for v in ray.h)
    assert type(spinor_sup_bound(2)) is Fraction
    assert rho_interval(Fraction(1, 3), 1) == (Fraction(1, 3), 1)
    assert slope(Fraction(3, 2), 3) == Fraction(1, 2)
    assert all(type(v) is Fraction for v in HilbertPoly.from_coeffs((1, 2.0)).coeffs)


def test_sign_slots_store_ints_and_refuse_other_values():
    assert type(PeriodRay((1,), 1.0).component_sign) is int
    assert wall_vector(P2, PeriodRay((1,), 1.0)) == [1]
    assert type(OrientationData(-1.0).o1_sign) is int
    assert type(wall_crossing_delta(P2, (3,), ExtForm.scalar(0, 1), OrientationData(1.0))) is int
    with pytest.raises(DomainError, match="^component_sign must be \\+1 or -1, got 2$"):
        PeriodRay((1,), 2.0)
    with pytest.raises(DomainError, match="^o1_sign must be \\+1 or -1, got 0$"):
        OrientationData(0)
    with pytest.raises(DomainError, match="^o1_sign must be an integer, got '1'$"):
        OrientationData("1")


def test_float_slope_is_not_read_as_its_binary_expansion():
    # Fraction(0.1) exceeds 1/10, so reading 0.1 that way would answer NEITHER
    # for two equal slopes.
    with pytest.raises(DomainError, match="^mu_div must be an int or a Fraction, got 0.1$"):
        oriented_pair_status_rank2(False, Stability.NEITHER, 0.1, Fraction(1, 10))


@pytest.mark.parametrize(
    "call",
    [
        lambda v: is_characteristic(P2, (v,)),
        lambda v: triple_cup_from_entries(v, 1, [(1, 2, 1, 1)]),
        lambda v: triple_cup_from_entries(2, v, [(1, 2, 1, 1)]),
    ],
    ids=["is_characteristic", "cup b1", "cup b2"],
)
def test_integer_slots_refuse_strings(call):
    with pytest.raises(DomainError, match="must be an integer, got '1'$"):
        call("1")


FLAG_SLOTS = [
    ("pg_zero", lambda v: KahlerFacts((-3,), ((1,),), ((1,),), v, RAY)),
    ("phi_injective", lambda v: PairProfile(3, POLY, v, True, (1, KERNEL))),
    ("epsilon_iso", lambda v: PairProfile(3, POLY, False, v, (1, KERNEL))),
    ("phi_zero", lambda v: oriented_pair_status_rank2(v, Stability.NEITHER, None, 3)),
]


@pytest.mark.parametrize("what, call", FLAG_SLOTS, ids=[case[0] for case in FLAG_SLOTS])
def test_flag_slots_take_only_bools(what, call):
    for value in ("false", "true", 0, 1, 1.0, None):
        with pytest.raises(DomainError, match=f"^{what} must be True or False, got {value!r}$"):
            call(value)
