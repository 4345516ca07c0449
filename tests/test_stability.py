"""Slope and Hilbert-polynomial stability predicates against
independent large-argument evaluation oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from swcalc import (
    DomainError,
    HilbertPoly,
    Ordering,
    PairProfile,
    Stability,
    framing_defect,
    oriented_pair_status_rank2,
    oriented_sheaf_semistable,
    poly_compare,
    rho_interval,
    slope,
)

EVAL_POINT = 10**6


def test_slope_examples():
    assert slope(6, 2) == 3
    assert slope(0, 7) == 0
    assert slope(-3, 2) == Fraction(-3, 2)
    with pytest.raises(DomainError):
        slope(1, 0)
    # A float rank used to give a float slope.
    assert slope(1, 2.0) == Fraction(1, 2) and type(slope(1, 2.0)) is Fraction
    with pytest.raises(DomainError, match="rank must be an integer, got 1.5"):
        slope(1, 1.5)
    with pytest.raises(DomainError, match="rank must be a positive integer, got -1"):
        slope(1, -1)


def test_slope_is_scale_invariant():
    rng = random.Random(61)
    for _ in range(50):
        degree = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        rank = rng.randint(1, 6)
        k = rng.randint(1, 5)
        assert slope(degree * k, rank * k) == slope(degree, rank)


def test_pair_status_with_vanishing_section():
    assert oriented_pair_status_rank2(True, Stability.STABLE, None, 1) is Stability.STABLE
    assert (
        oriented_pair_status_rank2(True, Stability.POLYSTABLE, None, 1)
        is Stability.POLYSTABLE
    )
    assert oriented_pair_status_rank2(True, Stability.NEITHER, None, 1) is Stability.NEITHER
    with pytest.raises(DomainError):
        oriented_pair_status_rank2(True, Stability.STABLE, Fraction(1), 1)


def test_pair_status_split_pair_example():
    # E = O(D) + (L - D) with the section cutting out D: stability is the
    # strict inequality mu(O(2D)) < mu(L), i.e. mu(O(D)) < mu(E).
    deg_d, deg_l = 1, 3
    mu_div = slope(deg_d, 1)
    mu_e = slope(deg_l, 2)
    assert oriented_pair_status_rank2(False, Stability.NEITHER, mu_div, mu_e) is Stability.STABLE
    assert slope(2 * deg_d, 1) < slope(deg_l, 1)
    # Equality of slopes breaks stability.
    assert (
        oriented_pair_status_rank2(False, Stability.NEITHER, Fraction(3, 2), Fraction(3, 2))
        is Stability.NEITHER
    )
    with pytest.raises(DomainError):
        oriented_pair_status_rank2(False, Stability.NEITHER, None, 1)


def test_pair_status_translation_invariance():
    rng = random.Random(67)
    for _ in range(50):
        mu_div = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        mu_e = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        shift = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        assert oriented_pair_status_rank2(
            False, Stability.NEITHER, mu_div, mu_e
        ) is oriented_pair_status_rank2(
            False, Stability.NEITHER, mu_div + shift, mu_e + shift
        )


def test_rho_interval():
    assert rho_interval(1, 3) == (Fraction(1), Fraction(3))
    assert rho_interval(3, 3) is None
    assert rho_interval(Fraction(5), Fraction(2)) is None


def test_rho_interval_plantiko_pair():
    # Rank-2 pair on the plane with determinant of degree 1: the bundle
    # slope is 1/2, the section line gives the lower witness 0, and the
    # rank-1 quotient of degree 1 gives the upper witness 1.
    mu_e = slope(1, 2)
    m_under = max(mu_e, slope(0, 1))
    m_over = slope(1, 1)
    interval = rho_interval(m_under, m_over)
    assert interval == (Fraction(1, 2), Fraction(1))
    lo, hi = interval
    assert lo < Fraction(3, 4) < hi


def test_rho_interval_monotone_in_witnesses():
    # Enlarging the witness lists raises m_under and lowers m_over.
    base = rho_interval(Fraction(0), Fraction(2))
    tighter = rho_interval(Fraction(1), Fraction(3, 2))
    assert base is not None and tighter is not None
    assert base[0] <= tighter[0] and tighter[1] <= base[1]
    assert rho_interval(Fraction(3, 2), Fraction(1)) is None


def test_poly_compare_examples():
    x2 = HilbertPoly.from_coeffs((0, 0, 1))
    x100 = HilbertPoly.from_coeffs((0, 100))
    assert poly_compare(x2, x100) is Ordering.GREATER
    line = HilbertPoly.from_coeffs((1, 2))
    assert poly_compare(line, HilbertPoly.from_coeffs((1, 2))) is Ordering.EQUAL
    assert poly_compare(HilbertPoly(()), line) is Ordering.LESS


def test_poly_add_refuses_another_type():
    # NotImplemented lets Python raise its own TypeError.
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+: 'HilbertPoly' and 'int'"):
        HilbertPoly((0, 1)) + 3


def test_poly_sub_refuses_another_type():
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: 'HilbertPoly' and 'int'"):
        HilbertPoly((0, 1)) - 3


def _random_poly(rng: random.Random, max_degree: int = 4) -> HilbertPoly:
    coeffs = [
        Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        for _ in range(rng.randint(0, max_degree + 1))
    ]
    return HilbertPoly.from_coeffs(coeffs)


def test_poly_compare_against_evaluation_oracle():
    rng = random.Random(71)
    for _ in range(300):
        p = _random_poly(rng)
        q = _random_poly(rng)
        diff = p.evaluate(EVAL_POINT) - q.evaluate(EVAL_POINT)
        order = poly_compare(p, q)
        if p == q:
            assert order is Ordering.EQUAL
        elif diff > 0:
            assert order is Ordering.GREATER
        else:
            assert order is Ordering.LESS


def test_poly_compare_is_total_and_additive():
    rng = random.Random(73)
    for _ in range(100):
        p = _random_poly(rng)
        q = _random_poly(rng)
        r = _random_poly(rng)
        order = poly_compare(p, q)
        flipped = poly_compare(q, p)
        assert (order, flipped) in (
            (Ordering.LESS, Ordering.GREATER),
            (Ordering.GREATER, Ordering.LESS),
            (Ordering.EQUAL, Ordering.EQUAL),
        )
        assert poly_compare(p + r, q + r) is order


def test_framing_defect_examples():
    p_ker = HilbertPoly.from_coeffs((1, 2))
    assert framing_defect(p_ker.scale(2), 2, p_ker, 1).is_zero
    p_e = HilbertPoly.from_coeffs((0, 1, 1))
    half_sq = HilbertPoly.from_coeffs((0, 0, Fraction(1, 2)))
    assert framing_defect(p_e, 2, half_sq, 1) == HilbertPoly.from_coeffs((0, 1))
    with pytest.raises(DomainError):
        framing_defect(p_e, 2, p_ker, 0)
    with pytest.raises(DomainError, match="sheaf rank must be a positive integer, got 0"):
        framing_defect(p_e, 0, p_ker, 1)
    # An integral float rank used to raise a bare TypeError from Fraction.
    assert framing_defect(p_e, 2.0, half_sq, Fraction(2, 2)) == framing_defect(p_e, 2, half_sq, 1)
    with pytest.raises(DomainError, match="kernel rank must be an integer, got 0.5"):
        framing_defect(p_e, 2, p_ker, 0.5)
    with pytest.raises(DomainError, match="sheaf rank must be an integer, got 2.5"):
        framing_defect(p_e, 2.5, p_ker, 1)


def test_framing_defect_degree_drop_on_slope_match():
    # Matching top-order behaviour cancels the leading term.
    p_e = HilbertPoly.from_coeffs((5, 1, 2))
    p_ker = HilbertPoly.from_coeffs((0, 0, 1))
    defect = framing_defect(p_e, 2, p_ker, 1)
    assert defect.degree < p_e.degree


def test_semistable_injective_framing():
    profile = PairProfile(
        rank=2,
        hilbert=HilbertPoly.from_coeffs((0, 0, 1)),
        phi_injective=True,
        epsilon_iso=False,
    )
    assert oriented_sheaf_semistable(profile)


def test_semistable_negative_defect_fails():
    profile = PairProfile(
        rank=2,
        hilbert=HilbertPoly.from_coeffs((0, 0, 1)),
        phi_injective=False,
        epsilon_iso=True,
        kermax=(1, HilbertPoly.from_coeffs((0, 0, 1))),
    )
    # defect = x^2 - 2x^2 < 0
    assert not oriented_sheaf_semistable(profile)


def test_semistable_needs_kermax():
    profile = PairProfile(
        rank=2,
        hilbert=HilbertPoly.from_coeffs((0, 0, 1)),
        phi_injective=False,
        epsilon_iso=True,
    )
    with pytest.raises(DomainError):
        oriented_sheaf_semistable(profile)
    no_orientation = PairProfile(
        rank=2,
        hilbert=HilbertPoly.from_coeffs((0, 0, 1)),
        phi_injective=False,
        epsilon_iso=False,
    )
    assert not oriented_sheaf_semistable(no_orientation)


def _positive_poly(rng: random.Random, max_degree: int = 3) -> HilbertPoly:
    degree = rng.randint(0, max_degree)
    coeffs = [
        Fraction(rng.randint(-10, 10), rng.randint(1, 6)) for _ in range(degree)
    ]
    coeffs.append(Fraction(rng.randint(1, 10), rng.randint(1, 6)))
    return HilbertPoly.from_coeffs(coeffs)


def random_pair_profile(rng: random.Random) -> PairProfile:
    rank = rng.randint(2, 4)
    injective = rng.random() < 0.2
    kermax = None
    if not injective:
        kermax = (rng.randint(1, rank - 1), _positive_poly(rng))
    subsheaves = tuple(
        (rng.randint(1, rank - 1), _positive_poly(rng))
        for _ in range(rng.randint(0, 3))
    )
    return PairProfile(
        rank=rank,
        hilbert=_positive_poly(rng),
        phi_injective=injective,
        epsilon_iso=rng.random() < 0.8,
        kermax=kermax,
        subsheaves=subsheaves,
    )


def oracle_semistable(profile: PairProfile, n: int = EVAL_POINT) -> bool:
    """Directly evaluate the defining inequalities at a large argument."""
    if profile.phi_injective:
        return True
    if not profile.epsilon_iso:
        return False
    rk_ker, p_ker = profile.kermax
    defect = profile.hilbert - p_ker.scale(Fraction(profile.rank, rk_ker))
    if defect.evaluate(n) < 0:
        return False
    for rk_f, p_f in profile.subsheaves:
        lhs = (p_f.evaluate(n) - defect.evaluate(n)) / rk_f
        rhs = (profile.hilbert.evaluate(n) - defect.evaluate(n)) / profile.rank
        if lhs > rhs:
            return False
    return True


def test_semistable_against_evaluation_oracle():
    rng = random.Random(79)
    for _ in range(100):
        profile = random_pair_profile(rng)
        assert oriented_sheaf_semistable(profile) == oracle_semistable(profile)


def test_pair_profile_validation():
    one = HilbertPoly.from_coeffs((1,))
    negative = HilbertPoly.from_coeffs((0, -1))
    for extra, message in [
        ({"hilbert": negative}, "a nonzero sheaf needs a positive leading"),
        ({"phi_injective": False, "kermax": (2, one)}, "kernel rank must lie strictly"),
        ({"phi_injective": False, "kermax": (1, negative)}, "the kernel polynomial must"),
        ({"subsheaves": ((2, one),)}, "subsheaf rank must lie strictly"),
        ({"subsheaves": ((1, negative),)}, "the subsheaf polynomial must"),
        ({"rank": 0}, "pair rank must be a positive integer, got 0"),
        ({"rank": 2.5}, "pair rank must be an integer, got 2.5"),
        ({"phi_injective": False, "kermax": (1.5, one)}, "kernel rank must be an integer"),
        ({"subsheaves": ((Fraction(1, 2), one),)}, "subsheaf rank must be an integer"),
        ({"phi_injective": False, "kermax": (1,)},
         r"^kernel witness must be a \(rank, polynomial\) pair, got \(1,\)$"),
        ({"phi_injective": False, "kermax": one}, "kernel witness must be a"),
        ({"subsheaves": ((1,),)},
         r"^subsheaf witness must be a \(rank, polynomial\) pair, got \(1,\)$"),
        ({"subsheaves": ((1, one, one),)}, "subsheaf witness must be a"),
    ]:
        fields = {"rank": 2, "hilbert": HilbertPoly.from_coeffs((0, 1)),
                  "phi_injective": True, "epsilon_iso": True, **extra}
        with pytest.raises(DomainError, match=message):
            PairProfile(**fields)
    profile = PairProfile(2.0, HilbertPoly.from_coeffs((0, 1)), True, True)
    assert profile.rank == 2 and type(profile.rank) is int
