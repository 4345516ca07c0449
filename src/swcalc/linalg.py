"""Exact linear algebra over the integers and rationals.

Everything here is exact: vectors and matrices carry ``int`` or
``fractions.Fraction`` entries and no floating point is ever
introduced. Determinant, rank, the integer coordinates of a vector in
a lattice basis (the Neron-Severi solve) and the simplex of cone
membership share one fraction-free Gauss-Jordan pivot step on input
scaled to integers, so entries grow only as minors of the input do.
Two congruences have steps of their own. Inertia pivots on the diagonal,
two at a time through the 2x2 bordered minor (one at a time when that
block is singular), and updates only the upper triangle of the symmetric
trailing block, the Schur complement, which is all Sylvester's law
needs. The Pfaffian clears two rows and columns at once, and a one-sided
row step would find only det = Pf^2, losing the sign. Both meet a zero
pivot by one rule: a symmetric swap brings the first nonzero entry of
the row next to the diagonal, so every congruence they apply is a
permutation.

Both solves are prepared once and take a batch of targets by columns. A
:class:`_Span` eliminates its basis once (the Neron-Severi solve); a
:class:`_Cone` scales its generators once and decides a batch in one pass,
with a certificate per answer (McConnell et al., "Certifying algorithms",
2011): chains of generators inside, checked Farkas vectors outside.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count, repeat
from math import gcd, lcm, prod
from operator import add, floordiv, lt, mod, mul, not_, sub
from typing import Optional, Sequence

from .errors import DimensionMismatchError, DomainError, Scalar

Vector = Sequence[Scalar]
Matrix = Sequence[Sequence[Scalar]]
# A batch of integer vectors by columns: cols[i][r] is entry i of vector r.
Columns = Sequence[Sequence[int]]


def dot(x: Vector, y: Vector) -> Scalar:
    if len(x) != len(y):
        raise DimensionMismatchError(f"vector lengths differ: {len(x)} vs {len(y)}")
    return sum(map(mul, x, y))


def matvec(q: Matrix, x: Vector) -> list[Scalar]:
    if any(len(row) != len(x) for row in q):
        raise DimensionMismatchError(f"matrix width does not match vector length {len(x)}")
    return [sum(map(mul, row, x)) for row in q]


def _column_dot(cols: Columns, v: Sequence[int], size: int) -> list[int]:
    """x . v for each of size vectors x by columns: a pass per nonzero v[i]."""
    total = None
    for a, col in zip(v, cols):
        if a:
            term = col if a == 1 else map(mul, col, repeat(a))
            total = list(term) if total is None else list(map(add, total, term))
    return [0] * size if total is None else total


def pairing(q: Matrix, x: Vector, y: Vector) -> Scalar:
    """Bilinear pairing x^T q y."""
    return dot(x, matvec(q, y))


def quadratic(q: Matrix, x: Vector) -> Scalar:
    """Quadratic value x^T q x."""
    return dot(x, matvec(q, x))


def _require_square(q: Matrix) -> None:
    if any(len(row) != len(q) for row in q):
        raise DimensionMismatchError(f"matrix with {len(q)} rows is not square")


def _integer_rows(q: Matrix) -> tuple[list[list[int]], list[int]]:
    """Rows of q scaled to integers by their denominators' lcm, and those
    scales. An entry that is a bool, or not an int or a Fraction, raises
    DomainError. One scan of the entry types decides: an int matrix is
    copied as it is."""
    types = set(map(type, chain.from_iterable(q)))
    if types <= {int}:
        return [list(row) for row in q], [1] * len(q)
    if bool in types or not all(issubclass(t, (int, Fraction)) for t in types):
        bad = next(
            v for row in q for v in row if type(v) is bool or not isinstance(v, (int, Fraction))
        )
        raise DomainError(f"matrix entry must be an int or a Fraction, got {bad!r}")
    rows, scales = [], []
    for row in q:
        d = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (d // v.denominator) for v in row])
        scales.append(d)
    return rows, scales


def _pivot(rows: list[list[int]], r: int, col: int, prev: int) -> int:
    """Clear column col in every row but r, in place, and return the pivot
    rows[r][col]. Entries stay integer minors of the starting matrix, so
    dividing by the previous step's pivot prev (first 1) is exact."""
    top = rows[r]
    p = top[col]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
    return p


def _pfaffian(a: list[list[int]]) -> int:
    """Pfaffian of a skew-symmetric integer matrix by fraction-free
    elimination, in place. Step k pivots on p = a[k][k+1] after a
    symmetric swap (a sign flip) and turns the trailing block into the
    congruent Schur complement times p / prev. Entries stay Pfaffians of
    principal minors, so dividing by the previous pivot prev is exact and
    the last pivot is the Pfaffian up to sign. A row with no pivot makes
    the matrix singular, so the Pfaffian is 0."""
    n = len(a)
    if n % 2:
        return 0
    sign, prev = 1, 1
    for k in range(0, n, 2):
        j = next((j for j in range(k + 1, n) if a[k][j]), None)
        if j is None:
            return 0
        if j != k + 1:
            a[k + 1], a[j] = a[j], a[k + 1]
            for row in a:
                row[k + 1], row[j] = row[j], row[k + 1]
            sign = -sign
        p = a[k][k + 1]
        top, nxt = a[k][k + 2:], a[k + 1][k + 2:]
        for i in range(k + 2, n):
            row, f, g = a[i], a[k + 1][i], a[k][i]
            row[k + 2:] = [
                (p * x + f * y - g * z) // prev for x, y, z in zip(row[k + 2:], top, nxt)
            ]
        prev = p
    return sign * prev


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free reduced row echelon form (after Bareiss 1968), in place.

    Returns the rank and the last pivot times the sign of the row swaps;
    for a nonsingular square matrix that is its determinant.
    """
    sign, prev, r = 1, 1, 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        prev = _pivot(rows, r, col, prev)
        r += 1
    return r, sign * prev


def determinant(q: Matrix) -> Fraction:
    """Exact determinant of a square matrix by fraction-free elimination."""
    _require_square(q)
    rows, scales = _integer_rows(q)
    r, last = _bareiss(rows)
    return Fraction(last if r == len(rows) else 0, prod(scales))


def rank(q: Matrix) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    return _bareiss(_integer_rows(q)[0])[0]


def inertia(q: Matrix) -> tuple[int, int, int]:
    """The first three values of :func:`inertia_and_determinant`."""
    return inertia_and_determinant(q)[:3]


def inertia_and_determinant(q: Matrix) -> tuple[int, int, int, Fraction]:
    """Counts (positive, negative, zero) of eigenvalue signs of a
    symmetric rational matrix, and its determinant, from one elimination.

    Fraction-free pivots on the diagonal of the congruent integer matrix
    D q D (D the row scales), keeping the upper triangle of the trailing
    block, whose entries are bordered minors (after Bareiss 1968). A pair
    (k, k+1) whose block [[a, b], [b, c]] has det2 = a*c - b*b != 0 goes
    in one pass: each entry becomes its 3x3 bordered minor over prev^2,
    exact by Sylvester's identity, and prev becomes det2 / prev. Otherwise
    a alone is the pivot. If a = 0, the pair is (k, j) for the first j > k
    with a nonzero entry in row k, after a symmetric swap of k+1 and j, the
    Pfaffian's pivot rule (and Bunch and Kaufman's, 1977): then b != 0 and
    det2 = -b^2 < 0. With no such j, row k pairs to zero with the trailing
    block and is skipped. By Sylvester's law of inertia a lone pivot has
    the sign of a * prev, and a pair one of each sign if det2 < 0, else
    two of the sign of a * prev. The swaps are permutations, so the last
    prev is det(D q D); a skipped row means det(q) = 0.
    """
    _require_square(q)
    rows, scales = _integer_rows(q)
    if any(d != 1 for d in scales):
        rows = [[v * d for v, d in zip(row, scales)] for row in rows]
    n = len(rows)
    pos = neg = 0
    prev, k = 1, 0
    while k < n:
        top = rows[k]
        if top[k] == 0:
            j = next((j for j in range(k + 1, n) if top[j]), None)
            if j is None:
                # Row k pairs to zero with the whole trailing block.
                k += 1
                continue
            if j != k + 1:
                # The steps keep only the upper triangle of the trailing
                # block; the swap moves entries across it, so mirror it first.
                for i in range(k + 1, n):
                    rows[i][k:i] = [rows[t][i] for t in range(k, i)]
                rows[k + 1], rows[j] = rows[j], rows[k + 1]
                for row in rows:
                    row[k + 1], row[j] = row[j], row[k + 1]
        a = top[k]
        b, c = (top[k + 1], rows[k + 1][k + 1]) if k + 1 < n else (0, 0)
        det2 = a * c - b * b
        if det2 < 0:
            pos, neg = pos + 1, neg + 1
        elif a * prev > 0:
            pos += 1 + (det2 > 0)
        else:
            neg += 1 + (det2 > 0)
        if det2:
            nxt, pp = rows[k + 1], prev * prev
            for i in range(k + 2, n):
                row, al, be = rows[i], c * top[i] - b * nxt[i], a * nxt[i] - b * top[i]
                row[i:] = [
                    (det2 * x - al * y - be * z) // pp
                    for x, y, z in zip(row[i:], top[i:], nxt[i:])
                ]
            prev, k = det2 // prev, k + 2
        else:
            for i in range(k + 1, n):
                row, f = rows[i], top[i]
                row[i:] = [(a * x - f * y) // prev for x, y in zip(row[i:], top[i:])]
            prev, k = a, k + 1
    zero = n - pos - neg
    return pos, neg, zero, Fraction(0 if zero else prev, prod(scales) ** 2)


class _Span:
    """Prepared solve of sum_i x[i]*rows[i] == t for k independent rows of
    length n, the same rows for many targets t.

    One fraction-free elimination of [rows^T | I_n], each equation scaled
    to integers, leaves M (the right block) with M rows^T = d [I_k; 0],
    d the last pivot. M is invertible, so an integer target t is in the
    rational span iff (M t)[k:] vanishes, and then (M t)[:k] is d*x; for
    a rational t the same holds in exact Fractions.
    """

    def __init__(self, rows: Matrix, n: int):
        k = len(rows)
        eye = [[int(i == j) for i in range(n)] for j in range(n)]
        a = _integer_rows([[row[j] for row in rows] + eye[j] for j in range(n)])[0]
        _bareiss(a)
        # In reduced echelon form a column without a pivot leaves a zero on
        # the diagonal, so the rows are independent iff a[i][i] != 0, i < k.
        if k > n or not all(a[i][i] for i in range(k)):
            raise DomainError(f"the {k} rows are linearly dependent; a basis is required")
        self.k, self.d = k, a[0][0] if k else 1
        self.m = [row[k:] for row in a]

    def integral(self, t: Vector) -> Optional[list[int]]:
        """Integer x with sum_i x[i]*rows[i] == t, or None: a batch of one."""
        keep, coords = self.integral_columns([[v] for v in t], 1)
        return [col[0] for col in coords] if keep[0] else None

    def integral_columns(self, cols: Columns, size: int) -> tuple[list[bool], list[list[int]]]:
        """:meth:`integral` of size targets by columns, one column pass per
        row of M: which targets have integer coordinates, and their columns."""
        k, d = self.k, self.d
        m_t = [_column_dot(cols, row, size) for row in self.m]
        misses = zip(*m_t[k:], *(map(mod, v, repeat(d)) for v in m_t[:k]))
        keep = list(map(not_, map(any, misses))) if m_t else [True] * size
        return keep, [list(compress(map(floordiv, v, repeat(d)), keep)) for v in m_t[:k]]


def integer_combination(rows: Matrix, target: Vector) -> Optional[list[int]]:
    """Integer coefficients x with sum_i x[i]*rows[i] == target, or None.

    The rows must be linearly independent (a basis of the lattice they
    span, as a Neron-Severi basis is); dependent rows raise DomainError,
    as does a target entry that is a bool or not an int or a Fraction.
    One :class:`_Span` of the rows solves for the target.
    """
    for v in target:
        if type(v) is bool or not isinstance(v, (int, Fraction)):
            raise DomainError(f"target entry must be an int or a Fraction, got {v!r}")
    n = len(target)
    for row in rows:
        if len(row) != n:
            raise DimensionMismatchError(
                f"row length {len(row)} does not match target length {n}"
            )
    return _Span(rows, n).integral(target)


class _Cone:
    """A cone prepared for many integer targets: the generators scaled to
    integers once (a positive scale each, so the same cone). An outside
    answer's certificate is a Farkas vector z: z.g >= 0 for every generator
    g and z.t < 0; an inside one is (basis, chain), chain a linked list
    (j, rest) ending in (): t minus the generators g_j along it is 0 or a
    nonnegative combination of the independent generators in basis."""

    def __init__(self, generators: Sequence[Vector], n: int):
        self.n = n
        self.gens = _integer_rows(generators)[0]
        self.rows = [[gen[i] for gen in self.gens] for i in range(n)]

    def phase1(self, target: Sequence[int]) -> tuple[bool, list[int]]:
        """Whether {A x = target, x >= 0} is feasible, where the columns
        of A are the generators, by phase 1 of the simplex method: rows
        are flipped so that every right-hand side is >= 0, each row gets
        an artificial variable, and the sum of the artificials is
        minimised. The target is in the cone iff that minimum is 0.

        Every tableau entry is the current basis determinant prev > 0
        times the rational entry (integer pivoting by :func:`_pivot`).
        Pivots follow Bland's rule (Bland 1977): the lowest-index
        generator column with negative reduced cost enters, and
        ratio-test ties leave by the lowest basic index, the artificials
        numbered after the generators. Bland's rule cannot cycle, so the
        method ends after finitely many pivots even on degenerate cones,
        where many targets lie on faces. An artificial that leaves the
        basis is not re-entered, which only fixes it to 0.

        The artificial columns are kept: at the end the objective row
        holds prev * (1 - y_i) there, y the multipliers of the flipped
        rows, and a positive minimum y.t' with y.a' <= 0 on every flipped
        generator column a' makes z_i = -sign_i * y_i the Farkas vector.
        """
        n, g = self.n, len(self.gens)
        signs = [1 if v >= 0 else -1 for v in target]
        tableau = [
            [s * v for v in row] + [int(i == j) for j in range(n)] + [s * t]
            for i, (row, s, t) in enumerate(zip(self.rows, signs, target))
        ]
        # The reduced costs of the phase-1 objective, then minus its value.
        objective = [-sum(col) for col in zip([0] * (g + n + 1), *tableau)]
        objective[g:g + n] = [0] * n
        tableau.append(objective)
        basis = list(range(g, g + n))
        prev = 1
        while tableau[n][-1]:
            s = next((j for j in range(g) if tableau[n][j] < 0), None)
            if s is None:
                z = [-sign * (prev - tableau[n][g + i]) for i, sign in enumerate(signs)]
                common = gcd(*z)
                return False, [v // common for v in z]
            # A negative reduced cost is minus the sum of the column's
            # entries in rows with a basic artificial, so some entry is
            # positive.
            # The ratio test by cross-multiplication: entries a > 0, so
            # b / a < br / ar exactly when b * ar < br * a.
            r = ar = br = None
            for i in range(n):
                a, b = tableau[i][s], tableau[i][-1]
                if a > 0 and (r is None or (b * ar, basis[i]) < (br * a, basis[r])):
                    r, ar, br = i, a, b
            prev = _pivot(tableau, r, s, prev)
            basis[r] = s
        return True, [j for j in basis if j < g]

    def decide(self, cols: Columns, key: Sequence[Scalar]) -> list[tuple]:
        """(inside, certificate) for each of the len(key) targets by columns,
        in increasing key: t is inside if it is 0, a generator, repeated, or
        g plus a target inside (its chain extends that target's chain); else
        :meth:`phase1` decides t, and a Farkas vector checked on every
        generator refuses every target it separates, in one column sweep.
        Any order is exact; a key positive on the generators puts t - g first."""
        size, gens = len(key), list(map(tuple, self.gens))
        targets = list(zip(*cols)) if cols else [()] * size
        known = {(0,) * self.n: ([], ())}
        for j, g in enumerate(gens):
            known.setdefault(g, ([], (j, ())))
        answers: list = [None] * size
        for i in sorted(range(size), key=key.__getitem__):
            if answers[i] is not None:
                continue
            t = targets[i]
            cert = known.get(t) or next(
                ((p[0], (j, p[1])) for j, g in enumerate(gens)
                 if (p := known.get(tuple(map(sub, t, g))))),
                None,
            )
            if cert is None:
                inside, witness = self.phase1(t)
                if not inside:
                    answers[i] = (False, witness)
                    if all(sum(map(mul, witness, g)) >= 0 for g in gens):
                        sweep = _column_dot(cols, witness, size)
                        for r in compress(count(), map(lt, sweep, repeat(0))):
                            answers[r] = answers[r] or answers[i]
                    continue
                cert = (witness, ())
            known[t] = cert
            answers[i] = (True, cert)
        return answers


def cone_contains(generators: Sequence[Vector], target: Vector) -> bool:
    """Exact membership of target in the cone of nonnegative rational
    combinations of the generators, by one :meth:`_Cone.phase1` alone
    on the target scaled to integers (a positive scale, so the same
    question)."""
    n = len(target)
    for gen in generators:
        if len(gen) != n:
            raise DimensionMismatchError(
                f"generator length {len(gen)} does not match target length {n}"
            )
    (t,), _ = _integer_rows([target])
    return _Cone(generators, n).phase1(t)[0]
