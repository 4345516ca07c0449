"""Exterior algebra laws, the halved cup form, and wall crossing."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from swcalc import (
    DimensionMismatchError,
    DomainError,
    ExtForm,
    InvalidTopologyError,
    ManifoldTopology,
    OrientationData,
    cup_form,
    triple_cup_from_entries,
    wall_crossing_delta,
    wedge,
    wedge_power,
)

from conftest import (
    congruent,
    dense_unimodular,
    hyperbolic_topology,
    oracle_wall_jump,
    oracle_wedge,
    random_sparse_form,
    symplectic_form,
)


def test_wedge_basis_products():
    e1 = ExtForm.term(3, (1,))
    e2 = ExtForm.term(3, (2,))
    assert wedge(e1, e2) == ExtForm.term(3, (1, 2))
    assert wedge(e1, e1).is_zero
    assert wedge(e2, e1) == ExtForm.term(3, (1, 2), -1)


def test_wedge_mixed_terms_example():
    # (e1 + e2) ^ e13: the first summand dies, the second picks up a sign.
    x = ExtForm(3, {(1,): 1, (2,): 1})
    y = ExtForm.term(3, (1, 3))
    assert wedge(x, y) == ExtForm.term(3, (1, 2, 3), -1)


def test_wedge_rejects_mismatched_algebras():
    with pytest.raises(DimensionMismatchError):
        wedge(ExtForm.term(2, (1,)), ExtForm.term(3, (1,)))


def test_wedge_laws_against_oracle():
    rng = random.Random(41)
    for _ in range(300):
        b1 = rng.randint(0, 6)
        x = random_sparse_form(rng, b1)
        y = random_sparse_form(rng, b1)
        z = random_sparse_form(rng, b1)
        assert wedge(x, y) == oracle_wedge(x, y)
        assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))
        assert wedge(x + y, z) == wedge(x, z) + wedge(y, z)
        assert wedge(z, x + y) == wedge(z, x) + wedge(z, y)


def test_graded_commutativity_on_homogeneous_forms():
    rng = random.Random(43)
    for _ in range(200):
        b1 = rng.randint(1, 6)
        r = rng.randint(0, b1)
        s = rng.randint(0, b1)
        x = random_sparse_form(rng, b1, degree=r)
        y = random_sparse_form(rng, b1, degree=s)
        sign = -1 if (r * s) % 2 else 1
        assert wedge(x, y) == sign * wedge(y, x)


def test_wedge_power_counts_divided_powers():
    # (a12 + a34)^2 = 2 * a1234; the 2-fold power is divisible by 2!.
    u = ExtForm(4, {(1, 2): 1, (3, 4): 1})
    assert wedge_power(u, 2) == ExtForm.term(4, (1, 2, 3, 4), 2)
    assert wedge_power(u, 0) == ExtForm.scalar(4, 1)
    with pytest.raises(DomainError, match="nonnegative exponent"):
        wedge_power(u, -1)
    # The exponent is read as an integer: integral values of other types act
    # as the int, anything else is refused.
    assert wedge_power(u, 2.0) == wedge_power(u, 2)
    assert wedge_power(u, Fraction(4, 2)) == wedge_power(u, 2)
    for k in (1.5, "2", None):
        with pytest.raises(DomainError, match="wedge power exponent must be an integer"):
            wedge_power(u, k)


def test_cup_form_zero_when_no_odd_cohomology(p2):
    assert cup_form(p2, (3,)).is_zero


def test_cup_form_halves_the_pairing(t2xs2):
    # Coefficient on a1 ^ a2 is (c . T)/2 = 6/2 with c = (6, 0).
    assert cup_form(t2xs2, (6, 0)) == ExtForm.term(2, (1, 2), 3)


def test_cup_form_shift_by_even_vector_is_linear(t2xs2):
    base = cup_form(t2xs2, (2, 0))
    shifted = cup_form(t2xs2, (2 + 2 * 3, 0))
    x = (3, 0)
    expected = sum(
        x[k - 1] * v for i, j, k, v in t2xs2.triple_cup if (i, j) == (1, 2)
    )
    assert shifted.coefficient((1, 2)) - base.coefficient((1, 2)) == expected


def test_cup_form_rejects_odd_pairing():
    # T[1][2][1] = 1 against an odd c coordinate makes the pairing odd.
    m = ManifoldTopology(
        name="odd", b1=2, bplus=1, bminus=0, euler=-1, signature=1,
        intersection_form=((1,),), w2=(1,),
        triple_cup=triple_cup_from_entries(2, 1, [(1, 2, 1, 1)]),
    )
    with pytest.raises(InvalidTopologyError):
        cup_form(m, (1,))


def test_wall_crossing_p2_scalar(p2):
    assert wall_crossing_delta(p2, (5,), ExtForm.scalar(0, 1)) == 1
    assert wall_crossing_delta(p2, (3,), ExtForm.scalar(0, 1)) == 1
    # Negative expected dimension vanishes through the degree bound.
    assert wall_crossing_delta(p2, (1,), ExtForm.scalar(0, 1)) == 0
    assert wall_crossing_delta(p2, (5,), ExtForm.scalar(0, 7)) == 7


def test_wall_crossing_degree_two_coefficient(t2xs2):
    # With the cup form k * a1^a2 the scalar jump is -k.
    for k in (1, 2, 5):
        delta = wall_crossing_delta(t2xs2, (2 * k, 0), ExtForm.scalar(2, 1))
        assert delta == -k


def test_wall_crossing_vanishes_beyond_the_bound(t2xs2):
    # w = 0 for these classes, so any positive degree vanishes.
    lam = ExtForm.term(2, (1, 2))
    assert wall_crossing_delta(t2xs2, (4, 0), lam) == 0
    # Negative expected dimension: w = -2 for c = (2, -2).
    assert wall_crossing_delta(t2xs2, (2, -2), ExtForm.scalar(2, 1)) == 0


def test_wall_crossing_is_linear_in_the_test_form(t2xs2):
    rng = random.Random(47)
    for _ in range(40):
        c = (2 * rng.randint(-3, 3), 2 * rng.randint(-3, 3))
        x = random_sparse_form(rng, 2, degree=0)
        y = random_sparse_form(rng, 2, degree=0)
        dx = wall_crossing_delta(t2xs2, c, x)
        dy = wall_crossing_delta(t2xs2, c, y)
        assert wall_crossing_delta(t2xs2, c, x + y) == dx + dy
        assert wall_crossing_delta(t2xs2, c, 3 * x) == 3 * dx


def test_wall_crossing_flips_with_orientation(p2, t2xs2):
    plus = OrientationData(o1_sign=1)
    minus = OrientationData(o1_sign=-1)
    assert wall_crossing_delta(p2, (5,), ExtForm.scalar(0, 1), minus) == -1
    lam = ExtForm.scalar(2, 1)
    assert wall_crossing_delta(t2xs2, (4, 0), lam, minus) == -wall_crossing_delta(
        t2xs2, (4, 0), lam, plus
    )


def test_wall_crossing_two_fold_divided_power():
    # b1 = 4 with cup form a1^a2 + a3^a4: the scalar jump divides the
    # squared form by 2! exactly, and a degree-2 test form picks out the
    # complementary coefficient with one sign.
    m = ManifoldTopology(
        name="b1four", b1=4, bplus=1, bminus=1, euler=-4, signature=0,
        intersection_form=((0, 1), (1, 0)), w2=(0, 0),
        triple_cup=triple_cup_from_entries(4, 2, [(1, 2, 1, 1), (3, 4, 1, 1)]),
    )
    assert cup_form(m, (2, 0)) == ExtForm(4, {(1, 2): 1, (3, 4): 1})
    assert wall_crossing_delta(m, (2, 0), ExtForm.scalar(4, 1)) == 1
    assert wall_crossing_delta(m, (2, 0), ExtForm.term(4, (1, 2))) == -1
    assert wall_crossing_delta(m, (2, 4), ExtForm.term(4, (3, 4))) == -1


def test_wall_crossing_rejects_parity_mismatch(t2xs2):
    # w = 0 for c = (4, 0); a degree-1 test form has the wrong parity.
    with pytest.raises(DomainError):
        wall_crossing_delta(t2xs2, (4, 0), ExtForm.term(2, (1,)))


def test_wall_crossing_rejects_odd_b1_minus_degree(t2xs2):
    # euler = 2 makes w = 1 for c = (2, 2), so r = 1 passes the parity
    # test and b1 - r = 1 exposes the inconsistent Betti data.
    with pytest.raises(InvalidTopologyError, match="b1 - r = 1 is odd"):
        wall_crossing_delta(replace(t2xs2, euler=2), (2, 2), ExtForm.term(2, (1,)))


def test_wall_crossing_requires_bplus_one():
    m = ManifoldTopology(
        name="two-plus", b1=0, bplus=2, bminus=0, euler=4, signature=2,
        intersection_form=((1, 0), (0, 1)), w2=(1, 1),
    )
    with pytest.raises(DomainError):
        wall_crossing_delta(m, (1, 1), ExtForm.scalar(0, 1))


def test_wall_crossing_rejects_test_form_of_other_b1(p2):
    with pytest.raises(DimensionMismatchError, match="test form has b1 = 2, manifold has b1 = 0"):
        wall_crossing_delta(p2, (1,), ExtForm.scalar(2, 1))


def test_ext_form_validation():
    with pytest.raises(ValueError, match="b1 must be nonnegative"):
        ExtForm(-1, {})
    with pytest.raises(ValueError):
        ExtForm(2, {(2, 1): 1})
    with pytest.raises(ValueError):
        ExtForm(2, {(1, 3): 1})
    assert ExtForm(2, {(1,): 0}).is_zero
    with pytest.raises(DomainError):
        ExtForm(2, {(): 1, (1,): 1}).degree()
    assert ExtForm(2, {}).degree() is None


def test_ext_form_text():
    assert str(ExtForm(2, {})) == "0"
    assert str(ExtForm(2, {(): 1, (1, 2): -3})) == "+1*1 -3*a1^a2"


def test_ext_form_refuses_to_truncate():
    with pytest.raises(DomainError):
        ExtForm(2, {(1, 2): Fraction(3, 2)})
    with pytest.raises(DomainError):
        Fraction(1, 2) * ExtForm.term(2, (1, 2), 3)
    with pytest.raises(DomainError):
        ExtForm(2, {(1, Fraction(5, 2)): 1})
    integral = ExtForm(2, {(1, Fraction(4, 2)): Fraction(6, 2)})
    assert integral == ExtForm.term(2, (1, 2), 3)
    assert all(type(v) is int for key in integral.coeffs for v in key + (integral.coeffs[key],))


def test_ext_form_refuses_non_integral_b1():
    with pytest.raises(DomainError, match="b1 must be an integer"):
        ExtForm(Fraction(5, 2), {(1, 2): 1})
    with pytest.raises(DomainError, match="b1 must be an integer"):
        ExtForm.scalar(1.5, 1)
    for b1 in (None, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="b1 must be an integer"):
            ExtForm(b1, {})
    form = ExtForm(Fraction(4, 2), {(1, 2): 1})
    assert form.b1 == 2 and type(form.b1) is int


@st.composite
def wall_cases(draw):
    """b1 <= 10 over the hyperbolic H^2 of the t2xs2 fixture with a random
    integer cup tensor, dense or mostly zero; an even c = (2a, 2b), so
    w = 2ab - 2 + b1; a test form of any degree 0..b1 with 1-4 terms; and
    either orientation sign."""
    b1 = draw(st.integers(0, 10))
    kind = draw(st.sampled_from(["dense", "sparse"]))
    entry = st.integers(-3, 3) if kind == "dense" else st.sampled_from((0, 0, 0, 1, -2))
    cup = [[(0, 0)] * b1 for _ in range(b1)]
    for i in range(b1):
        for j in range(i + 1, b1):
            x, y = draw(entry), draw(entry)
            cup[i][j], cup[j][i] = (x, y), (-x, -y)
    c = (2 * draw(st.integers(-2, 3)), 2 * draw(st.integers(-2, 3)))
    # w has the parity of b1; every other draw keeps that parity for r.
    r = draw(st.sampled_from(range(b1 % 2, b1 + 1, 2)) | st.integers(0, b1))
    index = st.integers(1, max(b1, 1))
    index_set = st.lists(index, min_size=r, max_size=r, unique=True).map(sorted).map(tuple)
    coeffs: dict = {}
    terms = st.lists(st.tuples(index_set, st.integers(-5, 5)), min_size=1, max_size=4)
    for key, value in draw(terms):
        coeffs[key] = coeffs.get(key, 0) + value
    return hyperbolic_topology(cup), c, ExtForm(b1, coeffs), draw(st.sampled_from((1, -1)))


def _outcome(call):
    try:
        return call()
    except DomainError as exc:
        return type(exc)


@settings(max_examples=300)
@given(wall_cases())
def test_wall_crossing_matches_sparse_oracle(case):
    m, c, form, o1_sign = case
    got = _outcome(lambda: wall_crossing_delta(m, c, form, OrientationData(o1_sign=o1_sign)))
    assert got == _outcome(lambda: oracle_wall_jump(m, c, form, o1_sign))
    event(got.__name__ if isinstance(got, type) else "nonzero" if got else "zero")


@pytest.mark.parametrize("g", [5, 8, 10])
def test_wall_crossing_closed_form_on_dense_ruled_surfaces(g):
    # In a basis P of H^1 of Sigma_g x S^2 the cup form is (c_2/2) P^T J P,
    # so the scalar jump is (-1)^g Pf((c_2/2) P^T J P) = (-1)^g (c_2/2)^g det P.
    rng = random.Random(f"ruled:{g}")
    for det_p in (1, -1):
        cup = congruent(dense_unimodular(2 * g, rng, det_p), symplectic_form(g))
        assert sum(1 for row in cup for v in row if v) > len(cup) ** 2 // 2
        m = hyperbolic_topology([[(0, v) for v in row] for row in cup])
        for c in ((2, 2), (2, 6)):
            want = (-1) ** g * (c[1] // 2) ** g * det_p
            assert wall_crossing_delta(m, c, ExtForm.scalar(2 * g, 1)) == want
