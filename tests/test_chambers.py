"""Chamber classification, the wall predicate, and their symmetries."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from swcalc import (
    Chamber,
    DimensionMismatchError,
    DomainError,
    OrientationData,
    PeriodRay,
    classify_chamber,
    classify_chamber_oriented,
    is_c_good,
)


def test_p2_fubini_study_pair_computes_minus_side(p2, p2_ray):
    # c.h = 5 > 0 puts the untwisted pair on the C_minus side.
    assert classify_chamber(p2, (5,), p2_ray, (0,)) is Chamber.C_MINUS
    assert classify_chamber(p2, (-5,), p2_ray, (0,)) is Chamber.C_PLUS


def test_on_wall_when_pairing_vanishes(p2, p2_ray):
    assert classify_chamber(p2, (5,), p2_ray, (5,)) is Chamber.ON_WALL
    assert classify_chamber(p2, (5,), p2_ray, (Fraction(5),)) is Chamber.ON_WALL


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
        assert classify_chamber(s2xs2, c, flipped, b) is base.flipped()


def test_component_sign_composition(p2, p2_ray):
    minus_component = PeriodRay(p2_ray.h, -1)
    assert classify_chamber_oriented(p2, (5,), p2_ray, (0,)) is Chamber.C_MINUS
    assert classify_chamber_oriented(p2, (5,), minus_component, (0,)) is Chamber.C_PLUS
    assert classify_chamber_oriented(p2, (5,), minus_component, (5,)) is Chamber.ON_WALL


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
