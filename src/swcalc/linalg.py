"""Exact linear algebra over the integers and rationals.

Everything here is exact: vectors and matrices carry ``int`` or
``fractions.Fraction`` entries and no floating point is ever
introduced. Determinant, rank, inertia (pivoting on the diagonal only),
the integer coordinates of a vector in a lattice basis (the Neron-Severi
solve) and the simplex of cone membership share one fraction-free
Gauss-Jordan pivot step on input scaled to integers, so entries grow
only as minors of the input do. The Pfaffian has its own step: it
clears two rows and columns at once by a congruence, and a one-sided
row step would find only det = Pf^2, losing the sign.

Both solves can be prepared once for many targets. A :class:`_Span`
eliminates its basis once (the Neron-Severi solve, and the check of a
cone basis); a :class:`_Cone` scales its generators once, returns a
certificate with each answer (McConnell et al., "Certifying algorithms",
2011) and reuses a few, each checked exactly on the new target.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionMismatchError, DomainError

Scalar = int | Fraction
Vector = Sequence[Scalar]
Matrix = Sequence[Sequence[Scalar]]


def dot(x: Vector, y: Vector) -> Scalar:
    if len(x) != len(y):
        raise DimensionMismatchError(f"vector lengths differ: {len(x)} vs {len(y)}")
    return sum(map(mul, x, y))


def matvec(q: Matrix, x: Vector) -> list[Scalar]:
    if any(len(row) != len(x) for row in q):
        raise DimensionMismatchError(f"matrix width does not match vector length {len(x)}")
    return [sum(map(mul, row, x)) for row in q]


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
    scales. An entry that is not an int or a Fraction raises DomainError."""
    rows, scales = [], []
    try:
        for row in q:
            d = lcm(*(v.denominator for v in row))
            rows.append([v.numerator * (d // v.denominator) for v in row])
            scales.append(d)
    except AttributeError:  # named only on failure: the good path checks nothing
        bad = next(v for row in q for v in row if not isinstance(v, (int, Fraction)))
        raise DomainError(f"matrix entry must be an int or a Fraction, got {bad!r}") from None
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
    D q D (D the row scales); a zero pivot is first fixed by a symmetric
    swap or row-and-column addition. Each pivot times the previous one
    has the sign of a diagonal entry of LDL^T, so by Sylvester's law of
    inertia the counts are exact. The swaps and additions are unimodular,
    so the n-th pivot is det(D q D); a skipped row means det(q) = 0.
    """
    _require_square(q)
    rows, scales = _integer_rows(q)
    rows = [[v * d for v, d in zip(row, scales)] for row in rows]
    n = len(rows)
    pos = neg = 0
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            j = next((i for i in range(k + 1, n) if rows[i][i]), None)
            if j is not None:
                rows[k], rows[j] = rows[j], rows[k]
                for row in rows:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((i for i in range(k + 1, n) if rows[k][i]), None)
                if j is None:
                    # Row k pairs to zero with the whole trailing block.
                    continue
                # Every trailing diagonal entry vanishes here, so the
                # congruence row/column addition makes (k, k) twice (k, j).
                rows[k] = [x + y for x, y in zip(rows[k], rows[j])]
                for row in rows:
                    row[k] += row[j]
        if rows[k][k] * prev > 0:
            pos += 1
        else:
            neg += 1
        prev = _pivot(rows, k, k, prev)
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

    def scaled(self, t: Vector) -> Optional[list[Scalar]]:
        """d*x for the target t, or None if t is outside the span."""
        if any(sum(map(mul, row, t)) for row in self.m[self.k:]):
            return None
        return [sum(map(mul, row, t)) for row in self.m[:self.k]]

    def integral(self, t: Vector) -> Optional[list[int]]:
        """Integer x with sum_i x[i]*rows[i] == t, or None."""
        v = self.scaled(t)
        if v is None or any(x % self.d for x in v):
            return None
        return [x // self.d for x in v]


def integer_combination(rows: Matrix, target: Vector) -> Optional[list[int]]:
    """Integer coefficients x with sum_i x[i]*rows[i] == target, or None.

    The rows must be linearly independent (a basis of the lattice they
    span, as a Neron-Severi basis is); dependent rows raise DomainError.
    One :class:`_Span` of the rows solves for the target.
    """
    n = len(target)
    for row in rows:
        if len(row) != n:
            raise DimensionMismatchError(
                f"row length {len(row)} does not match target length {n}"
            )
    return _Span(rows, n).integral(target)


# Caps on the witnesses one _Cone keeps. Scanning the cache costs too, so
# a larger one decides more targets without the simplex but each one slower.
_FARKAS_CAP = 8
_BASIS_CAP = 16


class _Cone:
    """A cone prepared for many integer targets: the generators scaled to
    integers once (a positive scale each, so the same cone), and caches
    of the certificates its answers came with. Outside, a Farkas vector
    z: z.g >= 0 for every generator g and z.t < 0. Inside, the indices of
    independent generators with a nonnegative combination equal to t.
    """

    def __init__(self, generators: Sequence[Vector], n: int):
        self.n = n
        self.gens = _integer_rows(generators)[0]
        self.rows = [[gen[i] for gen in self.gens] for i in range(n)]
        self.farkas: list[list[int]] = []
        self.bases: list[tuple[list[int], _Span]] = []

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
            r = min(
                (i for i in range(n) if tableau[i][s] > 0),
                key=lambda i: (Fraction(tableau[i][-1], tableau[i][s]), basis[i]),
            )
            prev = _pivot(tableau, r, s, prev)
            basis[r] = s
        return True, [j for j in basis if j < g]

    def contains(self, target: Sequence[int]) -> tuple[bool, list[int]]:
        """:meth:`phase1`, but the cached certificates are tried first,
        each checked exactly on the target: one dot product for a Farkas
        vector (checked on every generator when cached), one span solve
        and a sign check for a basis. So a cached answer is as exact as
        a fresh one."""
        for z in self.farkas:
            if sum(map(mul, z, target)) < 0:
                return False, z
        for i, (basis, span) in enumerate(self.bases):
            x = span.scaled(target)
            if x is not None and all(v * span.d >= 0 for v in x):
                self.bases.insert(0, self.bases.pop(i))
                return True, basis
        inside, witness = self.phase1(target)
        if inside:
            span = _Span([self.gens[j] for j in witness], self.n)
            self.bases = [(witness, span)] + self.bases[:_BASIS_CAP - 1]
        elif all(sum(map(mul, witness, gen)) >= 0 for gen in self.gens):
            self.farkas = [witness] + self.farkas[:_FARKAS_CAP - 1]
        return inside, witness


def cone_contains(generators: Sequence[Vector], target: Vector) -> bool:
    """Exact membership of target in the cone of nonnegative rational
    combinations of the generators, by one uncached :meth:`_Cone.phase1`
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
