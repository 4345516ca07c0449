"""Exact linear algebra helpers against hand-checked and classical cases."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import (
    chain_indices,
    charpoly,
    charpoly_inertia,
    congruent,
    dense_unimodular,
    fm_cone_contains,
    oracle_integer_combination,
    oracle_pfaffian,
    symplectic_form,
)
from swcalc.errors import DimensionMismatchError, DomainError
from swcalc.linalg import (
    _Cone,
    _integer_rows,
    _pfaffian,
    _pivot,
    _Span,
    cone_contains,
    determinant,
    dot,
    inertia,
    inertia_and_determinant,
    integer_combination,
    matvec,
    pairing,
    quadratic,
    rank,
)

# The E8 lattice matrix: even, unimodular, positive definite.
E8 = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)

HYPERBOLIC = ((0, 1), (1, 0))
F = Fraction


def test_determinant_basics():
    assert determinant(()) == 1
    assert determinant(((5,),)) == 5
    assert determinant(HYPERBOLIC) == -1
    assert determinant(E8) == 1
    assert determinant(((1, 2), (2, 4))) == 0


def test_inertia_diagonal_and_hyperbolic():
    assert inertia(((1,),)) == (1, 0, 0)
    assert inertia(((-1,),)) == (0, 1, 0)
    assert inertia(HYPERBOLIC) == (1, 1, 0)
    assert inertia(E8) == (8, 0, 0)
    neg_e8 = tuple(tuple(-v for v in row) for row in E8)
    assert inertia(neg_e8) == (0, 8, 0)
    assert inertia(((0, 0), (0, 0))) == (0, 0, 2)
    assert inertia(((1, 1), (1, 1))) == (1, 0, 1)
    # Zero pivots met by symmetric swaps between rows of different
    # denominators: scaling each row alone is no congruence.
    a = (
        (0, 0, F(1, 3), F(1, 3), -2),
        (0, 0, F(-3, 2), F(-3, 2), 2),
        (F(1, 3), F(-3, 2), 0, 0, F(1, 3)),
        (F(1, 3), F(-3, 2), 0, 0, F(-1, 2)),
        (-2, 2, F(1, 3), F(-1, 2), 0),
    )
    assert inertia(a) == charpoly_inertia(a) == (2, 2, 1)


def test_inertia_matches_eigen_signs_on_random_symmetric():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        pos, neg, zero = inertia(a)
        assert pos + neg + zero == n
        # Rank from elimination must agree with the nonzero count.
        assert rank(a) == pos + neg
        assert (pos, neg, zero) == charpoly_inertia(a)


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices up to 7x7 with int and Fraction entries. Zero
    diagonals and low rank are drawn often, so that elimination meets
    zero pivots, taken at once or after a symmetric swap, and zero rows,
    on rows of different denominators too."""
    n = draw(st.integers(0, 7))
    entry = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    kind = draw(st.sampled_from(["full", "zero diagonal", "low rank"]))
    event(kind)
    if kind == "low rank":
        r = draw(st.integers(0, n))
        b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
        d = draw(st.lists(st.sampled_from([-2, -1, F(1, 3), 1]), min_size=r, max_size=r))
        return [
            [sum(d[t] * b[t][i] * b[t][j] for t in range(r)) for j in range(n)]
            for i in range(n)
        ]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(entry)
    if kind == "zero diagonal":
        for i in range(n):
            if draw(st.integers(0, 3)):
                a[i][i] = 0
    return a


@given(symmetric_matrices())
def test_inertia_agrees_with_characteristic_polynomial(a):
    pos, neg, zero = inertia(a)
    assert (pos, neg, zero) == charpoly_inertia(a)
    assert rank(a) == pos + neg
    # det A = (-1)^n c_0, from det(x I - A) at x = 0.
    det = (-1) ** len(a) * charpoly(a)[-1]
    assert inertia_and_determinant(a) == (pos, neg, zero, det)
    assert det == determinant(a)


@pytest.mark.parametrize(
    "a, want",
    [
        # Schur block [[0, -1], [-1, 0]]: a zero pivot with b != 0, taken by
        # a 2x2 step.
        (((1, 1, 1), (1, 1, 0), (1, 0, 1)), (2, 1, 0, -1)),
        # Schur block [[0, 0], [0, 2]]: its first row pairs to zero with the
        # block, so it counts a zero and the 2 is the last pivot.
        (((1, 1, 0), (1, 1, 0), (0, 0, 2)), (2, 0, 1, 0)),
        # Schur block [[0, -1], [-1, 0]], while the entry below its diagonal
        # still holds the +1 from before the step.
        (((-1, 0, 0), (0, 0, 1), (0, 1, 0)), (1, 2, 0, 1)),
    ],
    ids=["addition", "swap", "addition below a stale entry"],
)
def test_inertia_fixes_a_zero_pivot_that_appears_after_a_step(a, want):
    assert inertia_and_determinant(a) == want
    assert charpoly_inertia(a) == want[:3]


def direct_sum(*blocks):
    n = sum(map(len, blocks))
    out = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            out[at + i][at:at + len(block)] = row
        at += len(block)
    return out


def bordered(head, tail, seed):
    """P^T (head + tail) P for P = [[I, X], [0, I]] with X seeded in
    [-2, 2]: once head's rows are eliminated the trailing block is tail
    times the last pivot, whatever X is, so tail's zero pattern decides
    the next step."""
    rng = random.Random(seed)
    h, n = len(head), len(head) + len(tail)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(h):
        p[i][h:] = [rng.randint(-2, 2) for _ in range(h, n)]
    return congruent(p, direct_sum(head, tail))


# Zero diagonal and b = 0 at the first pivot, with and without a nonzero
# diagonal entry further down: both swap column k+2 into k+1 and take the
# hyperbolic pair.
SWAP_TAIL = ((0, 0, 1, 1), (0, 0, 1, 2), (1, 1, 2, 1), (1, 2, 1, 0))
ADDITION_TAIL = ((0, 0, 1, 1), (0, 0, 1, 2), (1, 1, 0, 1), (1, 2, 1, 0))
# a = 0 and b != 0: the pair needs no swap.
NEXT_TAIL = ((0, 2, 1), (2, 0, 1), (1, 1, -1))
# a = b = 0: the first nonzero entry is three columns on and another one
# follows, so the step reads the rows that the swap moves across the diagonal.
FAR_TAIL = ((0, 0, 0, 1, 1), (0, 1, 1, 0, 1), (0, 1, -1, 0, 0), (1, 0, 0, 2, 1), (1, 1, 0, 1, 0))
# a = b = 0: the first nonzero entry is in the last column.
LAST_TAIL = ((0, 0, 0, 3), (0, 1, 1, 0), (0, 1, -1, 0), (3, 0, 0, 0))
# A zero row first and last, a hyperbolic pair and a one-pivot step between.
ZERO_ROWS_TAIL = (
    (0, 0, 0, 0, 0), (0, 0, 2, 1, 0), (0, 2, 0, 0, 0), (0, 1, 0, -1, 0), (0, 0, 0, 0, 0)
)
A2 = ((2, 1), (1, 2))


@pytest.mark.parametrize(
    "a, want",
    [
        (HYPERBOLIC, (1, 1, 0, -1)),
        (direct_sum(HYPERBOLIC, HYPERBOLIC), (2, 2, 0, 1)),
        (bordered(HYPERBOLIC, congruent(dense_unimodular(8, random.Random(8)), E8), 1),
         (9, 1, 0, -1)),
        (bordered(((3,),), HYPERBOLIC, 2), (2, 1, 0, -3)),
        (bordered(((-1,),), SWAP_TAIL, 3), (2, 3, 0, -1)),
        (bordered(HYPERBOLIC, SWAP_TAIL, 4), (3, 3, 0, -1)),
        (bordered(((-1,),), ADDITION_TAIL, 5), (2, 3, 0, -1)),
        (bordered(HYPERBOLIC, ADDITION_TAIL, 6), (3, 3, 0, -1)),
        (bordered(HYPERBOLIC, ((5,),), 7), (2, 1, 0, -5)),
        (bordered(direct_sum(HYPERBOLIC, A2), ((-2,),), 8), (3, 2, 0, 6)),
        (bordered(HYPERBOLIC, ((0,),), 9), (1, 1, 1, 0)),
        (direct_sum(HYPERBOLIC, A2), (3, 1, 0, -3)),
        (bordered(HYPERBOLIC, A2, 10), (3, 1, 0, -3)),
        (bordered(HYPERBOLIC, NEXT_TAIL, 11), (2, 3, 0, -8)),
        (bordered(((-1,),), FAR_TAIL, 13), (2, 4, 0, 1)),
        (bordered(HYPERBOLIC, FAR_TAIL, 12), (3, 4, 0, 1)),
        (bordered(((2,),), LAST_TAIL, 14), (3, 2, 0, 36)),
        (bordered(((1,),), ZERO_ROWS_TAIL, 15), (2, 2, 2, 0)),
    ],
    ids=["H", "H + H", "H + E8 dense", "one pivot, then a = 0 and b != 0",
         "swap after one pivot", "swap after a 2x2 step",
         "addition after one pivot", "addition after a 2x2 step",
         "odd n ends on one pivot", "odd n ends on one pivot after det2 > 0",
         "odd n ends on a zero row",
         "det2 > 0 after a negative pivot", "det2 > 0 after a negative pivot, dense",
         "a = 0 and b != 0 after a 2x2 step, no swap", "swap to j = k+3 after one pivot",
         "swap to j = k+3 after a 2x2 step", "swap to j = n-1",
         "a zero row mid-matrix and another last"],
)
def test_inertia_takes_each_step_of_the_elimination(a, want):
    # Each case reaches one branch of the loop first: a 2x2 step with a = 0,
    # the one-pivot step where det2 = 0, a zero pivot after either step,
    # taken as it is or after the symmetric swap of k+1 and j, a skipped
    # zero row, the last row of an odd n, and two positive signs after
    # prev < 0.
    assert inertia_and_determinant(a) == want
    assert charpoly_inertia(a) == want[:3]
    assert determinant(a) == want[3]


@pytest.mark.parametrize("n", [22, 40])
def test_inertia_of_large_congruent_forms(n):
    # U^T D U for U unimodular has D's inertia and determinant, at sizes the
    # symmetric-matrix strategy never draws. D = H + H + diag(+-1) first,
    # then an even D of +-E8 and H blocks, then D with a zero row.
    rng = random.Random(n)
    signs = [rng.choice((-1, 1)) for _ in range(n - 4)]
    d = [[0] * n for _ in range(n)]
    for i in (0, 2):
        d[i][i + 1] = d[i + 1][i] = 1
    for i, s in enumerate(signs, 4):
        d[i][i] = s
    a = congruent(dense_unimodular(n, rng, rng.choice((-1, 1))), d)
    want = (2 + signs.count(1), 2 + signs.count(-1), 0, (-1) ** signs.count(-1))
    assert inertia_and_determinant(a) == want
    e8_signs = [rng.choice((-1, 1)) for _ in range((n - 6) // 8)]
    h = (n - 8 * len(e8_signs)) // 2
    d = direct_sum(*[[[s * v for v in row] for row in E8] for s in e8_signs], *[HYPERBOLIC] * h)
    a = congruent(dense_unimodular(n, rng, rng.choice((-1, 1))), d)
    want = (h + 8 * e8_signs.count(1), h + 8 * e8_signs.count(-1), 0, (-1) ** h)
    assert inertia_and_determinant(a) == want
    d = direct_sum(HYPERBOLIC, HYPERBOLIC, *[[[s]] for s in signs[:-1]], [[0]])
    a = congruent(dense_unimodular(n, rng, rng.choice((-1, 1))), d)
    want = (2 + signs[:-1].count(1), 2 + signs[:-1].count(-1), 1, 0)
    assert inertia_and_determinant(a) == want


def test_determinant_and_inertia_reject_non_square():
    for q in ([[1, 2]], [[0, 0, 1], [1, 0, 0]], [[1], [2]], [[1, 2], [3]]):
        with pytest.raises(DimensionMismatchError):
            determinant(q)
        with pytest.raises(DimensionMismatchError):
            inertia(q)


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda: determinant([[0.5]]), 0.5),
        (lambda: rank([[1, 2.0]]), 2.0),
        (lambda: inertia([[1, 0], [0, 0.5]]), 0.5),
        (lambda: inertia_and_determinant([[1, "1"], ["1", 1]]), "1"),
        (lambda: integer_combination([[0.5]], [1]), 0.5),
        (lambda: cone_contains([[1.0]], [1]), 1.0),
        (lambda: cone_contains([[1]], [0.5]), 0.5),
        (lambda: determinant([[True, 0], [0, 1]]), True),
        (lambda: rank([[1, 0], [0, 1], [False, 1]]), False),
        (lambda: inertia_and_determinant([[1, 0], [0, True]]), True),
        (lambda: cone_contains([[True, 0], [0, 1]], [1, 1]), True),
        (lambda: cone_contains([[1, 0], [0, 1]], [1, False]), False),
        (lambda: integer_combination([[1, 0], [0, True]], [1, 1]), True),
    ],
    ids=["determinant", "rank", "inertia", "inertia_and_determinant",
         "integer_combination", "cone generator", "cone target",
         "determinant bool", "rank bool", "inertia_and_determinant bool",
         "cone generator bool", "cone target bool", "integer_combination row bool"],
)
def test_entries_must_be_ints_or_fractions(call, bad):
    # Integral floats too: these helpers compute with int and Fraction only.
    # A bool has a numerator and a denominator, yet it is refused as well.
    text = f"matrix entry must be an int or a Fraction, got {bad!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        call()


def test_pairing_and_quadratic():
    assert pairing(HYPERBOLIC, (1, 0), (0, 1)) == 1
    assert quadratic(HYPERBOLIC, (1, 1)) == 2
    assert quadratic(((1,),), (3,)) == 9
    with pytest.raises(DimensionMismatchError):
        pairing(HYPERBOLIC, (1,), (0, 1))
    with pytest.raises(DimensionMismatchError, match="matrix width does not match"):
        matvec([[1, 2]], [1])


def test_integer_combination_solves_and_rejects():
    for solve in (integer_combination, oracle_integer_combination):
        rows = ((2, 0), (0, 3))
        assert solve(rows, (4, -3)) == [2, -1]
        assert solve(rows, (1, 0)) is None
        assert solve(((1, 1), (0, 2)), (1, 3)) == [1, 1]
        assert solve((), (0, 0)) == []
        assert solve((), (1, 0)) is None
    # Dependent rows still span correctly in the echelon.
    assert oracle_integer_combination(((1, 2), (2, 4)), (3, 6)) is not None


def test_integer_combination_random_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        k = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        target = [sum(coeffs[i] * rows[i][j] for i in range(k)) for j in range(n)]
        found = oracle_integer_combination(rows, target)
        assert found is not None
        rebuilt = [sum(found[i] * rows[i][j] for i in range(k)) for j in range(n)]
        assert rebuilt == target


def test_integer_combination_is_exact_and_requires_a_basis():
    assert integer_combination([[1, 0], [0, 1]], [F(7, 2), 1]) is None
    assert integer_combination([[F(1, 2)]], [1]) == [2]
    assert integer_combination([[F(2, 3), 0], [0, 1]], [F(4, 3), F(5, 1)]) == [2, 5]
    assert integer_combination([[F(1, 2), 0], [0, F(1, 3)]], [F(3, 2), F(2, 3)]) == [3, 2]
    assert integer_combination([[F(1, 2), 0], [0, F(1, 3)]], [F(3, 4), 0]) is None
    for rows in (((1, 2), (2, 4)), ((1,), (2,)), ((0, 0),), ((),), ((F(1, 2), 1), (1, 2))):
        with pytest.raises(DomainError, match=f"the {len(rows)} rows are linearly dependent"):
            integer_combination(rows, [0] * len(rows[0]))
    with pytest.raises(DimensionMismatchError):
        integer_combination(((1, 2),), (3, 6, 1))


@pytest.mark.parametrize("bad", [2.0, 0.5])
def test_integer_combination_refuses_a_float_target(bad):
    # 2.0 would solve to [2.0] and 0.5 to None; both are refused by name.
    text = f"target entry must be an int or a Fraction, got {bad!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        integer_combination([[1]], [bad])
    (x,) = integer_combination([[1]], [F(2)])
    assert x == 2 and type(x) is int


@pytest.mark.parametrize("bad", [True, False, 0.0, "1", None])
def test_integer_combination_checks_every_target_entry_before_the_solve(bad):
    # With no rows the solve reads no entry, and a bool would read as 0 or 1.
    text = f"target entry must be an int or a Fraction, got {bad!r}"
    for rows, target in (([], [bad]), ([[1, 0], [0, 1]], [bad, 2])):
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            integer_combination(rows, target)


@st.composite
def bases_with_targets(draw):
    """Independent integer bases, k <= n <= 6, entries in [-4, 4]. Row 0
    is a multiple s * b of a smaller row b, so for s > 1 the lattice is
    not saturated in its span. The target is an integer combination of
    the rows, that plus a multiple of b not divisible by s (in the span,
    off the lattice), or a free vector (mostly outside the span)."""
    kind = draw(st.sampled_from(["lattice", "span", "free"]))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    s = draw(st.integers(2 if kind == "span" else 1, 4))
    b = draw(st.lists(st.integers(-4 // s, 4 // s), min_size=n, max_size=n))
    rest = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=max(k - 1, 0), max_size=max(k - 1, 0)))
    rows = [[s * v for v in b]] + rest if k else []
    assume(laplace_rank(rows) == k)
    if kind == "free":
        return rows, draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    x = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    target = [sum(xi * row[j] for xi, row in zip(x, rows)) for j in range(n)]
    if kind == "span" and k:
        extra = draw(st.integers(1, s - 1))
        target = [t + extra * v for t, v in zip(target, b)]
    return rows, target


@settings(max_examples=400)
@given(bases_with_targets())
def test_integer_combination_agrees_with_echelon_oracle(case):
    rows, target = case
    found = integer_combination(rows, target)
    assert found == oracle_integer_combination(rows, target)
    if found is not None:
        event("in the lattice")
    elif laplace_rank(rows + [target]) == len(rows):
        event("in the span, off the lattice")
    else:
        event("outside the span")


def scaled_solve(span, t):
    """d*x for the target t from the span's M, or None if t is outside the
    span: (M t)[:k] is d*x when (M t)[k:] vanishes."""
    mt = [sum(a * v for a, v in zip(row, t)) for row in span.m]
    return None if any(mt[span.k:]) else mt[:span.k]


@settings(max_examples=300)
@given(bases_with_targets())
def test_prepared_span_agrees_with_echelon_oracle(case):
    rows, target = case
    n = len(target)
    span = _Span(rows, n)
    scaled = scaled_solve(span, target)
    if laplace_rank(rows + [target]) > len(rows):
        assert scaled is None
    else:
        # d*x reproduces d*target, whether or not x is integral.
        assert [sum(v * row[j] for v, row in zip(scaled, rows)) for j in range(n)] == [
            span.d * t for t in target
        ]
    x = oracle_integer_combination(rows, target)
    assert span.integral(target) == x
    # The same prepared span answers further targets, rational ones
    # included: t/2 is in the lattice iff t is, with even coordinates.
    half = [v // 2 for v in x] if x is not None and all(v % 2 == 0 for v in x) else None
    assert span.integral([F(t, 2) for t in target]) == half
    assert span.integral([0] * n) == [0] * len(rows)


def test_cone_contains_basics():
    gens = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert cone_contains(gens, (Fraction(3), Fraction(2)))
    assert not cone_contains(gens, (Fraction(-1), Fraction(0)))
    assert cone_contains(gens, (Fraction(0), Fraction(0)))
    # One generator spans a ray only.
    ray = ((Fraction(1), Fraction(2)),)
    assert cone_contains(ray, (Fraction(2), Fraction(4)))
    assert not cone_contains(ray, (Fraction(2), Fraction(3)))
    assert not cone_contains((), (Fraction(1),))
    assert cone_contains((), (Fraction(0),))


def test_cone_contains_interior_combination():
    gens = (
        (Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(0)),
    )
    target = tuple(
        Fraction(1) * g[0] + Fraction(1, 2) * g[1] + Fraction(3, 2) * g[2]
        for g in zip(*gens)
    )
    assert cone_contains(gens, target)


def test_cone_contains_random_memberships():
    rng = random.Random(23)
    for _ in range(60):
        g = rng.randint(1, 4)
        n = rng.randint(1, 3)
        gens = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(g)
        ]
        weights = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(g)]
        target = tuple(
            sum((w * gen[i] for w, gen in zip(weights, gens)), Fraction(0))
            for i in range(n)
        )
        assert cone_contains(gens, target)


# The cone over a square: |x| + |y| <= z.
SQUARE = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))

DEGENERATE_CONES = [
    # The zero target is in every cone.
    ((), (0, 0, 0), True),
    (((1, 2, 0),), (0, 0, 0), True),
    (SQUARE, (0, 0, 0), True),
    # The empty generator list spans only the zero target.
    ((), (0, 0, 1), False),
    ((), (), True),
    # Zero generators span nothing.
    (((0, 0),), (0, 0), True),
    (((0, 0),), (1, 0), False),
    (((0, 0), (0, 0), (1, 1)), (F(5, 2), F(5, 2)), True),
    (((0, 0), (1, 1)), (1, 0), False),
    # Duplicated generators span the same cone.
    (((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0)), (1, 2, 0), True),
    (((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0)), (1, 0, 1), False),
    (((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0)), (-1, 0, 0), False),
    # Antiparallel generators span a line.
    (((1, 2), (-1, -2)), (-3, -6), True),
    (((1, 2), (-1, -2)), (F(1, 2), 1), True),
    (((1, 2), (-1, -2)), (1, 1), False),
    (((1, 0, 0), (-1, 0, 0), (0, 1, 0)), (-4, 1, 0), True),
    (((1, 0, 0), (-1, 0, 0), (0, 1, 0)), (-4, -1, 0), False),
    # Targets on faces, on rays and just outside them.
    (SQUARE, (F(1, 2), F(1, 2), 1), True),
    (SQUARE, (F(1, 2), F(2, 3), 1), False),
    (SQUARE, (0, -3, 3), True),
    (SQUARE, (0, 0, 1), True),
    (SQUARE, (F(-1, 3), F(-2, 3), 1), True),
    (SQUARE, (0, 0, -1), False),
    (((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)), (2, 3, 0), True),
    (((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)), (2, -3, 0), False),
]


@pytest.mark.parametrize("gens, target, inside", DEGENERATE_CONES)
def test_cone_contains_degenerate_cones(gens, target, inside):
    gens = [tuple(F(v) for v in gen) for gen in gens]
    target = tuple(F(v) for v in target)
    assert cone_contains(gens, target) is inside
    assert fm_cone_contains(gens, target) is inside
    cone, t = _Cone(gens, len(target)), integer_target(target)
    assert cone.phase1(t) == fraction_key_phase1(cone, t)


def test_cone_contains_rejects_mismatched_lengths():
    with pytest.raises(DimensionMismatchError):
        cone_contains(((F(1), F(2)),), (F(1), F(2), F(3)))


@st.composite
def cones_with_targets(draw):
    """At most 5 generators in dimension <= 3 or 4 in dimension 4, where
    Fourier-Motzkin still finishes quickly. A combination of the
    generators with weights of either sign lands inside or outside the
    cone; a free target lands mostly outside."""
    n = draw(st.integers(1, 4))
    g = draw(st.integers(0, 4 if n == 4 else 5))
    entry = st.integers(-3, 3).map(F) | st.fractions(-3, 3, max_denominator=3)
    gens = draw(st.lists(st.tuples(*[entry] * n), min_size=g, max_size=g))
    if draw(st.booleans()):
        weights = draw(
            st.lists(st.fractions(-2, 4, max_denominator=3), min_size=g, max_size=g)
        )
        target = tuple(
            sum((w * gen[i] for w, gen in zip(weights, gens)), F(0)) for i in range(n)
        )
    else:
        target = draw(st.tuples(*[st.fractions(-4, 4, max_denominator=3)] * n))
    return gens, target


@given(cones_with_targets())
def test_cone_contains_agrees_with_fourier_motzkin(case):
    gens, target = case
    inside = cone_contains(gens, target)
    event("inside" if inside else "outside")
    assert inside == fm_cone_contains(gens, target)


@st.composite
def cone_streams(draw):
    """A cone of at most 5 generators (4 in dimension 4) and a stream of
    targets through it. The generators are rational combinations of r
    random vectors, so the cone has rank <= r, possibly below n, and may
    hold zero, repeated or opposite generators. The targets are
    combinations of the generators with weights of either sign,
    combinations of the r vectors, free vectors and repeats of these,
    shuffled."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, n))
    entry = st.integers(-3, 3)
    base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    weight = st.fractions(-2, 2, max_denominator=2)

    def combination(vectors, weights):
        return tuple(sum((w * v[i] for w, v in zip(weights, vectors)), F(0)) for i in range(n))

    limit = 4 if n == 4 else 5
    gens = [
        combination(base, draw(st.lists(weight, min_size=r, max_size=r)))
        for _ in range(draw(st.integers(0, limit)))
    ]
    extras = draw(st.lists(st.sampled_from(["zero", "repeat", "opposite"]), max_size=2))
    for extra in extras[:limit - len(gens)]:
        if extra == "zero" or not gens:
            gens.append((F(0),) * n)
        else:
            gens.append(gens[0] if extra == "repeat" else tuple(-v for v in gens[0]))
    kinds = draw(st.lists(st.sampled_from(["cone", "span", "free"]), min_size=1, max_size=6))
    cone_weight = st.fractions(-1, 4, max_denominator=3)
    free = st.tuples(*[st.fractions(-4, 4, max_denominator=3)] * n)
    targets = []
    for kind in kinds:
        if kind == "cone":
            weights = st.lists(cone_weight, min_size=len(gens), max_size=len(gens))
            targets.append(combination(gens, draw(weights)))
        elif kind == "span":
            targets.append(combination(base, draw(st.lists(weight, min_size=r, max_size=r))))
        else:
            targets.append(draw(free))
    repeats = draw(st.lists(st.sampled_from(targets), max_size=3))
    return gens, draw(st.permutations(targets + repeats))


def integer_target(target):
    """target scaled to integers by a positive factor, which keeps its
    cone membership."""
    return _integer_rows([target])[0][0]


def fraction_key_phase1(cone, target):
    """:meth:`_Cone.phase1` with the ratio test of min() over the key
    (Fraction(rhs, entry), basic index): the reference for the
    cross-multiplied test."""
    n, g = cone.n, len(cone.gens)
    signs = [1 if v >= 0 else -1 for v in target]
    tableau = [
        [s * v for v in row] + [int(i == j) for j in range(n)] + [s * t]
        for i, (row, s, t) in enumerate(zip(cone.rows, signs, target))
    ]
    objective = [-sum(col) for col in zip([0] * (g + n + 1), *tableau)]
    objective[g:g + n] = [0] * n
    tableau.append(objective)
    basis, prev = list(range(g, g + n)), 1
    while tableau[n][-1]:
        s = next((j for j in range(g) if tableau[n][j] < 0), None)
        if s is None:
            z = [-sign * (prev - tableau[n][g + i]) for i, sign in enumerate(signs)]
            return False, [v // gcd(*z) for v in z]
        r = min(
            (i for i in range(n) if tableau[i][s] > 0),
            key=lambda i: (F(tableau[i][-1], tableau[i][s]), basis[i]),
        )
        prev = _pivot(tableau, r, s, prev)
        basis[r] = s
    return True, [j for j in basis if j < g]


@st.composite
def cone_batches(draw):
    """A cone of :func:`cone_streams`, its first generator possibly doubled
    (so its scaled generator need not be primitive), and a batch of integer
    targets: the stream scaled by one common factor, and chains from those
    targets and from 0 through the scaled generators, so that t - g is
    often a target of either answer. With them a random integer h, which
    is <= 0 on some generator of most cones."""
    gens, stream = draw(cone_streams())
    n = len(stream[0])
    if gens and draw(st.booleans()):
        gens[0] = tuple(2 * v for v in gens[0])
    scale = lcm(*(v.denominator for t in stream for v in t))
    targets = [tuple(int(v * scale) for v in t) for t in stream]
    scaled = _integer_rows(gens)[0]
    for t in targets[:] + [(0,) * n]:
        for j in draw(st.lists(st.integers(0, len(gens) - 1), max_size=3)) if gens else ():
            t = tuple(a + b for a, b in zip(t, scaled[j]))
            targets.append(t)
    h = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return gens, targets, h


@given(cone_batches())
def test_batch_cone_agrees_with_uncached_and_fourier_motzkin(case):
    gens, targets, h = case
    cone = _Cone(gens, len(h))
    answers = cone.decide(list(zip(*targets)), [dot(h, t) for t in targets])
    farkas = set()
    # The one-target simplex and the certificates are checked over the whole
    # batch first; a batch that fails them never runs the Fourier-Motzkin oracle.
    for target, (inside, witness) in zip(targets, answers):
        assert inside == cone_contains(gens, target)
        check_answer(cone, target, inside, witness)
        if inside:
            route = ("zero", "generator", "chain")[min(len(chain_indices(witness[1])), 2)]
            event(route + (" over a simplex basis" if witness[0] else ""))
        else:
            event("Farkas sweep" if id(witness) in farkas else "simplex, outside")
            farkas.add(id(witness))
        # The cross-multiplied ratio test gives the same answer and the same
        # certificate as the Fraction key.
        assert cone.phase1(target) == fraction_key_phase1(cone, target)
    for target, (inside, _) in zip(targets, answers):
        assert inside == fm_cone_contains(gens, target)
    event("h.g <= 0" if any(dot(h, g) <= 0 for g in cone.gens) else "h.g > 0")


def test_batch_solves_keep_the_sign_of_d():
    # Eliminating the single row (-1) leaves d = -1, so the scaled
    # coordinate of t = 2 is d*x = 2 for x = -2 < 0: outside the ray.
    span = _Span([[-1]], 1)
    assert (span.d, scaled_solve(span, [2])) == (-1, [2])
    assert span.integral_columns([[2, -3, 0]], 3) == ([True] * 3, [[-2, 3, 0]])
    for gens, stream in (
        (((-1,),), [(-1,), (2,), (-3,)]),
        (((0, -1), (-1, 0)), [(-1, -2), (1, 2), (0, 1), (0, -1)]),
    ):
        gens = [tuple(F(v) for v in gen) for gen in gens]
        cone = _Cone(gens, len(stream[0]))
        for target in stream:
            assert cone.decide([[v] for v in target], [0])[0][0] == cone_contains(gens, target)


def test_an_unchecked_farkas_vector_refuses_no_other_target():
    # On the quadrant, t = (-1, 0) is outside, and z = (1, -5) has z.t < 0
    # but fails on the generator (0, 1). Swept, it would refuse (1, 1),
    # which lies inside and comes after t in increasing h.t, h = (1, 1).
    cone = _Cone([(1, 0), (0, 1)], 2)
    cone.phase1 = lambda target: (False, [1, -5])
    (outside, z), (inside, cert) = cone.decide([(-1, 1), (0, 1)], [-1, 2])
    assert (outside, z, inside, cert) == (False, [1, -5], True, ([], (0, (1, ()))))


def test_a_chain_goes_only_through_targets_inside():
    # In the cone of (1, 2) and (2, 1), t = (-1, -1) is outside, with the
    # Farkas vector (1, 1), which refuses neither (0, 1) = t + (1, 2) nor
    # (-1, 1) = (1, 2) - (2, 1). Both are outside, yet a chain through t,
    # or through a generator taking t + g for t - g, would put them inside.
    cone = _Cone([(1, 2), (2, 1)], 2)
    first = cone.decide([(-1, 0), (-1, 1)], [-2, 1])
    assert first[0] == (False, [1, 1]) and dot([1, 1], (0, 1)) > 0 and not first[1][0]
    assert cone.decide([(-1,), (1,)], [0]) == [(False, [2, -1])]


def test_a_chain_shares_the_certificate_of_t_minus_g():
    # On the ray of (1,), each of the targets 2, ..., 1999 chains through
    # the one before it. Its certificate links to that target's chain, so a
    # batch holds one link per target, not a copy of every chain.
    n = 2000
    answers = _Cone([(1,)], 1).decide([list(range(n))], list(range(n)))
    for t in range(2, n):
        inside, (basis, chain) = answers[t]
        assert inside and not basis and chain[1] is answers[t - 1][1][1]
    assert chain_indices(answers[-1][1][1]) == [0] * (n - 1)


@settings(max_examples=300)
@given(bases_with_targets(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_span_columns_agree_with_the_one_target_solve(case, weights):
    # A batch of the target, its multiples and shifts by the rows, and 0.
    rows, target = case
    n = len(target)
    batch = [
        [a * t + sum(w * row[j] for w, row in zip(weights, rows)) for j, t in enumerate(target)]
        for a in (1, 2, -3)
    ] + [target, [0] * n]
    span = _Span(rows, n)
    keep, coords = span.integral_columns(list(zip(*batch)), len(batch))
    solved = [span.integral(t) for t in batch]
    assert keep == [x is not None for x in solved]
    found = [x for x in solved if x is not None]
    assert coords == [[x[i] for x in found] for i in range(len(rows))]


def fraction_solve(columns, target):
    """x with sum_j x[j] * columns[j] == target, for independent columns,
    by Gauss-Jordan elimination over the rationals; None if there is none."""
    k = len(columns)
    a = [[F(col[i]) for col in columns] + [F(t)] for i, t in enumerate(target)]
    for j in range(k):
        p = next(i for i in range(j, len(a)) if a[i][j])
        a[j], a[p] = a[p], a[j]
        a[j] = [v / a[j][j] for v in a[j]]
        for i in range(len(a)):
            if i != j:
                a[i] = [v - a[i][j] * w for v, w in zip(a[i], a[j])]
    if any(row[-1] for row in a[k:]):
        return None
    return [a[j][-1] for j in range(k)]


def check_certificate(gens, target, inside, witness):
    if inside:
        x = fraction_solve([gens[j] for j in witness], target)
        assert x is not None and all(v >= 0 for v in x)
    else:
        assert all(sum(z * v for z, v in zip(witness, gen)) >= 0 for gen in gens)
        assert sum(z * t for z, t in zip(witness, target)) < 0


def check_answer(cone, target, inside, witness):
    """An answer of :meth:`_Cone.decide` against its certificate, on the
    cone's scaled generators. Inside, target minus the chain's generators
    is a nonnegative combination of the basis, so it is 0 for a chain."""
    if inside:
        basis, chain = witness
        steps = chain_indices(chain)
        rest = [t - sum(cone.gens[j][i] for j in steps) for i, t in enumerate(target)]
        check_certificate(cone.gens, rest, True, basis)
    else:
        check_certificate(cone.gens, target, False, witness)


@given(cone_streams())
def test_cone_certificates_check_exactly(case):
    gens, stream = case
    cone = _Cone(gens, len(stream[0]))
    for target in stream:
        t = integer_target(target)
        check_certificate(gens, target, *cone.phase1(t))
        check_answer(cone, t, *cone.decide([[v] for v in t], [0])[0])


def laplace_det(a):
    """Determinant by cofactor expansion along the first row."""
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * laplace_det([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(len(a))
        if a[0][j]
    )


def laplace_rank(a):
    """Size of the largest nonvanishing minor, each minor by cofactors."""
    rows, cols = len(a), len(a[0]) if a else 0
    for k in range(min(rows, cols), 0, -1):
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                if laplace_det([[a[i][j] for j in ci] for i in ri]):
                    return k
    return 0


def random_matrix(rng, rows, cols, rational):
    def entry():
        if rational:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        return rng.randint(-4, 4)

    a = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.4:
        # Make the matrix singular: one row becomes a combination of two.
        i, j, k = (rng.randrange(rows) for _ in range(3))
        f, g = rng.randint(-2, 2), Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        a[i] = [f * x + g * y for x, y in zip(a[j], a[k])]
    return a


def test_determinant_and_rank_against_laplace_oracle():
    rng = random.Random(31)
    singular = 0
    for trial in range(240):
        rational = trial % 2 == 1
        n = rng.randint(0, 6)
        a = random_matrix(rng, n, n, rational)
        det = laplace_det(a)
        singular += det == 0
        assert determinant(a) == det
        assert rank(a) == laplace_rank(a)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        b = random_matrix(rng, rows, cols, rational)
        assert rank(b) == laplace_rank(b)
    assert singular > 40
    assert rank(E8) == 8 and rank(HYPERBOLIC) == 2
    assert rank(((0, 0), (0, 0))) == 0 and rank(()) == 0


def random_skew(rng, n):
    """A skew integer matrix of a random density. Every third one has a
    zero (0, 1) entry, so the first step must swap; every fourth is
    P^T B P for a skew B of smaller even size, so it is singular."""
    size = n - 2 if n >= 2 and rng.random() < 0.25 else n
    density = rng.choice((0.3, 0.7, 1.0))
    b = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
                b[i][j] = rng.randint(-4, 4)
                b[j][i] = -b[i][j]
    if size < n:
        p = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(size)]
        return [[sum(p[s][i] * b[s][t] * p[t][j] for s in range(size) for t in range(size))
                 for j in range(n)] for i in range(n)]
    if n >= 2 and rng.random() < 1 / 3:
        b[0][1] = b[1][0] = 0
    return b


def test_pfaffian_squares_to_determinant_and_matches_expansion():
    rng = random.Random(53)
    swapped = singular = 0
    for _ in range(400):
        a = random_skew(rng, rng.randint(0, 10))
        pf = _pfaffian([row[:] for row in a])
        assert pf * pf == determinant(a)
        assert pf == oracle_pfaffian(a)
        swapped += len(a) >= 2 and a[0][1] == 0 and any(a[0])
        singular += pf == 0 and len(a) % 2 == 0
    assert swapped > 40 and singular > 40


def test_pfaffian_of_a_dense_symplectic_basis_is_its_determinant():
    # Pf(P^T J P) = det P * Pf(J), and Pf(J) = 1.
    rng = random.Random(59)
    for g in range(1, 11):
        for det_p in (1, -1):
            p = dense_unimodular(2 * g, rng, det_p)
            assert determinant(p) == det_p
            assert _pfaffian(congruent(p, symplectic_form(g))) == det_p
    assert _pfaffian([]) == 1 and _pfaffian([[0]]) == 0
