"""Shared fixtures: canonical manifolds, randomized lattice generators,
and brute-force oracles kept independent of the code paths they check."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Optional, Sequence

import pytest
from hypothesis import settings

from swcalc import (
    DimensionMismatchError,
    DomainError,
    ExtForm,
    InvalidTopologyError,
    KahlerFacts,
    ManifoldTopology,
    PeriodRay,
    cup_form,
    expected_dim_abelian,
    triple_cup_from_entries,
    wedge,
    wedge_power,
)

# Property tests draw the same examples on every run, and a slow host
# cannot fail them by a per-example deadline.
settings.register_profile("swcalc", derandomize=True, deadline=None)
settings.load_profile("swcalc")

P2_FILE_TEXT = """\
[manifold]
name = P2
b1 = 0
bplus = 1
bminus = 0
euler = 3
signature = 1

[intersection_form]
1

[w2]
1

[torsion]
tors2_order = 1

[kahler]
canonical_class = -3
ns_basis = 1
effective_cone = 1
pg_zero = true
kahler_ray = 1

[psc]
psc_ray = 1
"""


def b2_zero_text(name: str, b1: int, euler: int) -> str:
    """The canonical file of a manifold with b2 = 0: [intersection_form]
    has no lines and [w2] one empty line."""
    return (
        f"[manifold]\nname = {name}\nb1 = {b1}\nbplus = 0\nbminus = 0\n"
        f"euler = {euler}\nsignature = 0\n"
        "\n[intersection_form]\n\n[w2]\n\n\n[torsion]\ntors2_order = 1\n"
    )


# (name, b1, euler) of S^4 and S^1 x S^3.
B2_ZERO = [("S4", 0, 2), ("S1xS3", 1, 0)]


@pytest.fixture
def p2() -> ManifoldTopology:
    return ManifoldTopology(
        name="P2",
        b1=0,
        bplus=1,
        bminus=0,
        euler=3,
        signature=1,
        intersection_form=((1,),),
        w2=(1,),
    )


@pytest.fixture
def p2_kahler() -> KahlerFacts:
    return KahlerFacts(
        canonical_class=(-3,),
        ns_basis=((1,),),
        effective_cone=((Fraction(1),),),
        pg_zero=True,
        kahler_ray=PeriodRay((Fraction(1),)),
    )


@pytest.fixture
def p2_ray() -> PeriodRay:
    return PeriodRay((Fraction(1),))


@pytest.fixture
def s2xs2() -> ManifoldTopology:
    return ManifoldTopology(
        name="S2xS2",
        b1=0,
        bplus=1,
        bminus=1,
        euler=4,
        signature=0,
        intersection_form=((0, 1), (1, 0)),
        w2=(0, 0),
    )


@pytest.fixture
def t2xs2() -> ManifoldTopology:
    # b1 = 2 with one hyperbolic pair in H^2 and cup number
    # <a_1 u a_2 u e_1, [X]> = 1; the shape of the product of a torus
    # and a sphere.
    return ManifoldTopology(
        name="T2xS2",
        b1=2,
        bplus=1,
        bminus=1,
        euler=0,
        signature=0,
        intersection_form=((0, 1), (1, 0)),
        w2=(0, 0),
        triple_cup=triple_cup_from_entries(2, 2, [(1, 2, 1, 1)]),
    )


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.manifold"
    path.write_text(P2_FILE_TEXT, encoding="utf-8")
    return path


def random_block_topology(
    rng: random.Random, max_size: int = 10, b1: int = 0, name: str = "random"
) -> ManifoldTopology:
    """Random block-diagonal unimodular form built from diagonal +-1
    entries and hyperbolic 2x2 blocks, with the forced w2 reduction."""
    target = rng.randint(1, max_size)
    blocks: list[list[list[int]]] = []
    w2: list[int] = []
    pos = neg = size = 0
    while size < target:
        kind = rng.choice(("plus", "minus", "hyperbolic"))
        if kind == "hyperbolic":
            if size + 2 > target:
                continue
            blocks.append([[0, 1], [1, 0]])
            w2.extend([0, 0])
            pos += 1
            neg += 1
            size += 2
        elif kind == "plus":
            blocks.append([[1]])
            w2.append(1)
            pos += 1
            size += 1
        else:
            blocks.append([[-1]])
            w2.append(1)
            neg += 1
            size += 1
    q = [[0] * size for _ in range(size)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, value in enumerate(row):
                q[offset + i][offset + j] = value
        offset += len(block)
    return ManifoldTopology(
        name=name,
        b1=b1,
        bplus=pos,
        bminus=neg,
        euler=2 - 2 * b1 + size,
        signature=pos - neg,
        intersection_form=tuple(tuple(row) for row in q),
        w2=tuple(w2),
    )


def random_characteristic(
    rng: random.Random, m: ManifoldTopology, lo: int = -5, hi: int = 5
) -> tuple[int, ...]:
    out = []
    for w in m.w2:
        values = [v for v in range(lo, hi + 1) if (v - w) % 2 == 0]
        out.append(rng.choice(values))
    return tuple(out)


def random_sparse_form(
    rng: random.Random,
    b1: int,
    degree: int | None = None,
    max_terms: int = 4,
    coeff_bound: int = 5,
) -> ExtForm:
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        r = degree if degree is not None else rng.randint(0, b1)
        key = tuple(sorted(rng.sample(range(1, b1 + 1), r))) if r else ()
        value = rng.randint(-coeff_bound, coeff_bound)
        coeffs[key] = coeffs.get(key, 0) + value
    return ExtForm(b1, coeffs)


def oracle_wedge(x: ExtForm, y: ExtForm) -> ExtForm:
    """Brute-force exterior product: concatenate index tuples and count
    bubble-sort swaps for the sign. Independent of the library's
    inversion-count implementation."""
    out: dict[tuple[int, ...], int] = {}
    for ka, va in x.coeffs.items():
        for kb, vb in y.coeffs.items():
            merged = list(ka) + list(kb)
            if len(set(merged)) != len(merged):
                continue
            arr = merged[:]
            swaps = 0
            for i in range(len(arr)):
                for j in range(len(arr) - 1):
                    if arr[j] > arr[j + 1]:
                        arr[j], arr[j + 1] = arr[j + 1], arr[j]
                        swaps += 1
            sign = -1 if swaps % 2 else 1
            key = tuple(arr)
            out[key] = out.get(key, 0) + sign * va * vb
    return ExtForm(x.b1, out)


def oracle_wall_jump(m: ManifoldTopology, c, test_form: ExtForm, o1_sign: int) -> int:
    """The wall-crossing jump by sparse wedge powers: the top coefficient
    of test_form ^ cup_form^k, times (-1)^k * o1_sign, divided by k!
    exactly (k = (b1 - r) / 2). It runs the same degree and parity checks
    as the library and raises InvalidTopologyError on a remainder."""
    if test_form.is_zero:
        return 0
    w = expected_dim_abelian(m, c)
    r = test_form.degree()
    if (r - w) % 2:
        raise DomainError(f"test form degree {r} and w = {w} differ in parity")
    if r > min(m.b1, w):
        return 0
    if (m.b1 - r) % 2:
        raise InvalidTopologyError(f"b1 - r = {m.b1 - r} is odd")
    k = (m.b1 - r) // 2
    product = wedge(test_form, wedge_power(cup_form(m, c), k))
    top = product.coefficient(tuple(range(1, m.b1 + 1)))
    value = Fraction((-1) ** k * o1_sign * top, factorial(k))
    if value.denominator != 1:
        raise InvalidTopologyError(f"wall crossing value {value} is not an integer")
    return int(value)


def oracle_pfaffian(a) -> int:
    """Pfaffian by expansion along the first row:
    Pf(A) = sum_j (-1)^(j-1) a_0j Pf(A without rows and columns 0, j)."""
    n = len(a)
    if n % 2:
        return 0
    if not n:
        return 1
    total = 0
    for j in range(1, n):
        if a[0][j]:
            rest = [i for i in range(1, n) if i != j]
            sub = [[a[x][y] for y in rest] for x in rest]
            total += (-1) ** (j - 1) * a[0][j] * oracle_pfaffian(sub)
    return total


def _row_sub(a: list[list[int]], u: list[list[int]], i: int, base: int, f: int) -> None:
    a[i] = [x - f * y for x, y in zip(a[i], a[base])]
    u[i] = [x - f * y for x, y in zip(u[i], u[base])]


def oracle_integer_combination(
    rows: Sequence[Sequence[int]], target: Sequence[int]
) -> Optional[list[int]]:
    """Integer coefficients x with sum_i x[i]*rows[i] == target, or None.

    Echelonizes the rows over the integers while recording the
    unimodular transform, then reduces the target greedily against the
    pivots. Returns None when the target is not an integral combination.
    Dependent rows are echelonized too; entries go through int(), so
    only integer input is meaningful.
    """
    k = len(rows)
    n = len(target)
    for row in rows:
        if len(row) != n:
            raise DimensionMismatchError(
                f"row length {len(row)} does not match target length {n}"
            )
    a = [[int(v) for v in row] for row in rows]
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(n):
        if r == k:
            break
        nz = [i for i in range(r, k) if a[i][col] != 0]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda i: abs(a[i][col]))
            base = nz[0]
            for i in nz[1:]:
                f = a[i][col] // a[base][col]
                if f:
                    _row_sub(a, u, i, base, f)
            nz = [i for i in nz if a[i][col] != 0]
        base = nz[0]
        if a[base][col] < 0:
            a[base] = [-v for v in a[base]]
            u[base] = [-v for v in u[base]]
        if base != r:
            a[base], a[r] = a[r], a[base]
            u[base], u[r] = u[r], u[base]
        pivots.append((r, col))
        r += 1
    t = [int(v) for v in target]
    coeff = [0] * k
    for (ri, ci) in pivots:
        if t[ci] % a[ri][ci]:
            return None
        f = t[ci] // a[ri][ci]
        if f:
            t = [x - f * y for x, y in zip(t, a[ri])]
        coeff[ri] = f
    if any(t):
        return None
    return [sum(coeff[i] * u[i][j] for i in range(k)) for j in range(k)]


def symplectic_form(g: int) -> list[list[int]]:
    """The standard symplectic form J on Z^2g: J[2i][2i+1] = 1."""
    j = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        j[2 * i][2 * i + 1], j[2 * i + 1][2 * i] = 1, -1
    return j


def dense_unimodular(n: int, rng: random.Random, det_sign: int = 1) -> list[list[int]]:
    """A dense integer matrix of determinant det_sign: 3n seeded column
    operations col_i += s * col_j (s = +-1) on the identity, then the
    first column negated when det_sign is -1."""
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        for row in p:
            row[i] += s * row[j]
    if det_sign < 0:
        for row in p:
            row[0] = -row[0]
    return p


def congruent(p, a) -> list[list[int]]:
    """P^T A P."""
    n = len(p)
    ap = [[sum(a[i][t] * p[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(p[t][i] * ap[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def oracle_wall_side(m: ManifoldTopology, x, h) -> int:
    """Sign (-1, 0 or +1) of x . (q h), summed term by term in Fractions:
    the side of the wall orthogonal to x on which h lies."""
    s = sum(
        Fraction(xi) * v * Fraction(hj)
        for xi, row in zip(x, m.intersection_form)
        for v, hj in zip(row, h)
    )
    return (s > 0) - (s < 0)


def hyperbolic_topology(cup, name: str = "hyperbolic") -> ManifoldTopology:
    """b1 = len(cup) over the hyperbolic H^2 = (u, v), u.v = 1, of the
    t2xs2 fixture, with cup numbers (<a_i u a_j u u>, <a_i u a_j u v>) =
    cup[i][j], an antisymmetric array of integer pairs. With cup numbers
    against v only it is Sigma_g x S^2 in some basis of H^1."""
    b1 = len(cup)
    return ManifoldTopology(
        name=name, b1=b1, bplus=1, bminus=1, euler=4 - 2 * b1, signature=0,
        intersection_form=((0, 1), (1, 0)), w2=(0, 0),
        triple_cup=tuple(tuple(tuple(pair) for pair in row) for row in cup),
    )


def _canon_ineq(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[tuple[int, ...], int]:
    """Scale an inequality sum(coeffs*t) <= rhs to coprime integers."""
    denoms = [c.denominator for c in coeffs] + [rhs.denominator]
    scale = lcm(*denoms) if denoms else 1
    ints = [int(c * scale) for c in coeffs]
    r = int(rhs * scale)
    g = 0
    for v in ints:
        g = gcd(g, v)
    g = gcd(g, r)
    if g > 1:
        ints = [v // g for v in ints]
        r //= g
    return tuple(ints), r


def fm_cone_contains(generators, target) -> bool:
    """Cone membership by Fourier-Motzkin elimination on the feasibility
    system {t >= 0, sum_j t_j * generators[j] = target}: sound and
    complete over the rationals, but doubly exponential in the number of
    generators, so keep it to a handful."""
    g = len(generators)
    n = len(target)
    ineqs: set[tuple[tuple[int, ...], int]] = set()
    for j in range(g):
        coeffs = [Fraction(0)] * g
        coeffs[j] = Fraction(-1)
        ineqs.add(_canon_ineq(coeffs, Fraction(0)))
    for i in range(n):
        coeffs = [Fraction(generators[j][i]) for j in range(g)]
        rhs = Fraction(target[i])
        ineqs.add(_canon_ineq(coeffs, rhs))
        ineqs.add(_canon_ineq([-c for c in coeffs], -rhs))
    for v in range(g):
        pos = [iq for iq in ineqs if iq[0][v] > 0]
        neg = [iq for iq in ineqs if iq[0][v] < 0]
        keep = {iq for iq in ineqs if iq[0][v] == 0}
        for (ap, cp) in pos:
            for (am, cm) in neg:
                coeffs = [
                    Fraction(ap[u]) * (-am[v]) + Fraction(am[u]) * ap[v]
                    for u in range(g)
                ]
                rhs = Fraction(cp) * (-am[v]) + Fraction(cm) * ap[v]
                if all(c == 0 for c in coeffs):
                    if rhs < 0:
                        return False
                    continue
                keep.add(_canon_ineq(coeffs, rhs))
        ineqs = keep
        for (coeffs_i, rhs_i) in ineqs:
            if all(c == 0 for c in coeffs_i) and rhs_i < 0:
                return False
    return all(rhs_i >= 0 for (_, rhs_i) in ineqs)


def charpoly(a) -> list[Fraction]:
    """Coefficients [1, c_(n-1), ..., c_0] of det(x I - A) for a square
    rational matrix, by the Faddeev-LeVerrier recursion over Fraction
    (M_k = A M_(k-1) + c_(n-k+1) I, c_(n-k) = -tr(A M_k) / k)."""
    n = len(a)
    a = [[Fraction(v) for v in row] for row in a]
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [
            [sum(a[i][t] * m[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        trace = sum(a[i][t] * m[t][i] for i in range(n) for t in range(n))
        coeffs.append(-trace / k)
    return coeffs


def charpoly_inertia(a) -> tuple[int, int, int]:
    """Counts (positive, negative, zero) of the eigenvalues of a symmetric
    rational matrix, from its characteristic polynomial (:func:`charpoly`).

    Every eigenvalue of a symmetric matrix is real, so Descartes' rule of
    signs counts the positive roots exactly, and the negative ones on
    p(-x); the trailing zero coefficients give the multiplicity of 0.
    """
    n = len(a)
    coeffs = charpoly(a)  # c_n, c_(n-1), ..., c_0
    zero = 0
    while zero < n and coeffs[n - zero] == 0:
        zero += 1

    def sign_changes(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    pos = sign_changes(coeffs)
    # Coefficient c_d of x^d sits at index n - d; p(-x) flips odd degrees.
    neg = sign_changes([c if (n - i) % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return pos, neg, zero
