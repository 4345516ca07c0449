"""Exact linear algebra helpers against hand-checked and classical cases."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import (
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
    _Span,
    cone_contains,
    determinant,
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
    # Zero pivots fixed by row-and-column additions between rows of
    # different denominators: scaling each row alone is no congruence.
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
    zero pivots fixed by a symmetric swap and by a row-and-column
    addition, on rows of different denominators too."""
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
    ],
    ids=["determinant", "rank", "inertia", "inertia_and_determinant",
         "integer_combination", "cone generator", "cone target"],
)
def test_entries_must_be_ints_or_fractions(call, bad):
    # Integral floats too: these helpers compute with int and Fraction only.
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


@settings(max_examples=300)
@given(bases_with_targets())
def test_prepared_span_agrees_with_echelon_oracle(case):
    rows, target = case
    n = len(target)
    span = _Span(rows, n)
    scaled = span.scaled(target)
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


@given(cone_streams())
def test_cached_cone_agrees_with_uncached_and_fourier_motzkin(case):
    gens, stream = case
    cone = _Cone(gens, len(stream[0]))
    for target in stream:
        cached = {id(z) for z in cone.farkas} | {id(b) for b, _ in cone.bases}
        inside, witness = cone.contains(integer_target(target))
        event("cache hit" if id(witness) in cached else "simplex")
        assert inside == cone_contains(gens, target) == fm_cone_contains(gens, target)


def test_cached_basis_is_checked_with_the_sign_of_d():
    # Eliminating the single row (-1) leaves d = -1, so the scaled
    # coordinate of t = 2 is d*x = 2 for x = -2 < 0: outside the ray.
    span = _Span([[-1]], 1)
    assert (span.d, span.scaled([2])) == (-1, [2])
    for gens, stream in (
        (((-1,),), [(-1,), (2,), (-3,)]),
        (((0, -1), (-1, 0)), [(-1, -2), (1, 2), (0, 1), (0, -1)]),
    ):
        gens = [tuple(F(v) for v in gen) for gen in gens]
        cone = _Cone(gens, len(stream[0]))
        for target in stream:
            assert cone.contains(target)[0] == cone_contains(gens, target)


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


@given(cone_streams())
def test_cone_certificates_check_exactly(case):
    gens, stream = case
    cone = _Cone(gens, len(stream[0]))
    for target in stream:
        t = integer_target(target)
        check_certificate(gens, target, *cone.phase1(t))
        check_certificate(gens, target, *cone.contains(t))


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
