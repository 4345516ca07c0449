"""Exact linear algebra over the integers and rationals.

Everything here is exact: vectors and matrices carry ``int`` or
``fractions.Fraction`` entries and no floating point is ever
introduced. Determinant and rank use one fraction-free (Bareiss)
elimination and cone membership a fraction-free simplex with Bland's
rule, so integer entries grow only as minors of the input do; inertia
is congruence diagonalization over ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import DimensionMismatchError

Scalar = int | Fraction
Vector = Sequence[Scalar]
Matrix = Sequence[Sequence[Scalar]]


def dot(x: Vector, y: Vector) -> Scalar:
    if len(x) != len(y):
        raise DimensionMismatchError(f"vector lengths differ: {len(x)} vs {len(y)}")
    return sum(a * b for a, b in zip(x, y))


def matvec(q: Matrix, x: Vector) -> list[Scalar]:
    if any(len(row) != len(x) for row in q):
        raise DimensionMismatchError(f"matrix width does not match vector length {len(x)}")
    return [dot(row, x) for row in q]


def pairing(q: Matrix, x: Vector, y: Vector) -> Scalar:
    """Bilinear pairing x^T q y."""
    return dot(x, matvec(q, y))


def quadratic(q: Matrix, x: Vector) -> Scalar:
    """Quadratic value x^T q x."""
    return pairing(q, x, x)


def _integer_rows(q: Matrix) -> tuple[list[list[int]], int]:
    """Rows of q scaled to integers by their denominators' lcm, and the scales' product."""
    rows, scale = [], 1
    for row in q:
        d = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (d // v.denominator) for v in row])
        scale *= d
    return rows, scale


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free row echelon form (Bareiss 1968), in place.

    Every entry stays an integer minor of the input, so each division
    is exact. Returns the rank and the last pivot times the sign of the
    row swaps; for a nonsingular square matrix that is its determinant.
    """
    sign, prev, r = 1, 1, 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top = rows[r]
        p = top[col]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[col]
            rows[i] = row[:col] + [(p * x - f * y) // prev for x, y in zip(row[col:], top[col:])]
        prev = p
        r += 1
    return r, sign * prev


def determinant(q: Matrix) -> Fraction:
    """Exact determinant of a square matrix by fraction-free elimination."""
    rows, scale = _integer_rows(q)
    r, last = _bareiss(rows)
    return Fraction(last if r == len(rows) else 0, scale)


def rank(q: Matrix) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    return _bareiss(_integer_rows(q)[0])[0]


def _swap_symmetric(a: list[list[Fraction]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_symmetric(a: list[list[Fraction]], k: int, j: int) -> None:
    n = len(a)
    for col in range(n):
        a[k][col] += a[j][col]
    for row in range(n):
        a[row][k] += a[row][j]


def inertia(q: Matrix) -> tuple[int, int, int]:
    """Counts (positive, negative, zero) of eigenvalue signs of a
    symmetric rational matrix.

    Computed by exact congruence diagonalization, which preserves the
    signs by Sylvester's law of inertia. No floating point is used, so
    the counts are always correct.
    """
    n = len(q)
    a = [[Fraction(q[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if j is not None:
                _swap_symmetric(a, k, j)
            else:
                j = next((i for i in range(k + 1, n) if a[k][i] != 0), None)
                if j is None:
                    # Row k pairs to zero with the whole trailing block.
                    zero += 1
                    continue
                # Every trailing diagonal entry vanishes here, so the
                # congruence row/column addition makes a[k][k] = 2*a[k][j].
                _add_symmetric(a, k, j)
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            f = a[i][k] / d
            for col in range(n):
                a[i][col] -= f * a[k][col]
            for row in range(n):
                a[row][i] -= f * a[row][k]
    return pos, neg, zero


def _row_sub(a: list[list[int]], u: list[list[int]], i: int, base: int, f: int) -> None:
    a[i] = [x - f * y for x, y in zip(a[i], a[base])]
    u[i] = [x - f * y for x, y in zip(u[i], u[base])]


def integer_combination(
    rows: Sequence[Sequence[int]], target: Sequence[int]
) -> Optional[list[int]]:
    """Integer coefficients x with sum_i x[i]*rows[i] == target, or None.

    Echelonizes the rows over the integers while recording the
    unimodular transform, then reduces the target greedily against the
    pivots. Returns None when the target is not an integral combination.
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


def cone_contains(generators: Sequence[Vector], target: Vector) -> bool:
    """Exact membership of target in the cone of nonnegative rational
    combinations of the generators.

    Decides whether {A t = target, t >= 0} is feasible, where the
    columns of A are the generators, by phase 1 of the simplex method:
    rows are flipped so that every right-hand side is >= 0, each row
    gets an artificial variable, and the sum of the artificials is
    minimised. The target is in the cone iff that minimum is 0.

    The tableau is kept fraction-free (integer pivoting): every entry is
    the current basis determinant times the rational entry, so each
    update divides exactly by the previous pivot. Pivots follow Bland's
    rule (Bland 1977): the lowest-index column with negative reduced
    cost enters, and ratio-test ties leave by the lowest basic index,
    the artificials numbered after the generators. Bland's rule cannot
    cycle, so the method ends after finitely many pivots even on
    degenerate cones, where many targets lie on faces. An artificial
    that leaves the basis is not re-entered, which only fixes it to 0.
    """
    n = len(target)
    for gen in generators:
        if len(gen) != n:
            raise DimensionMismatchError(
                f"generator length {len(gen)} does not match target length {n}"
            )
    g = len(generators)
    tableau = _integer_rows([[gen[i] for gen in generators] + [target[i]] for i in range(n)])[0]
    tableau = [row if row[-1] >= 0 else [-v for v in row] for row in tableau]
    # The reduced costs of the phase-1 objective, then minus its value.
    tableau.append([-sum(col) for col in zip([0] * (g + 1), *tableau)])
    basis = list(range(g, g + n))
    prev = 1
    while tableau[n][-1]:
        s = next((j for j in range(g) if tableau[n][j] < 0), None)
        if s is None:
            return False
        # A negative reduced cost is minus the sum of the column's entries
        # in rows with a basic artificial, so some entry is positive.
        r = min(
            (i for i in range(n) if tableau[i][s] > 0),
            key=lambda i: (Fraction(tableau[i][-1], tableau[i][s]), basis[i]),
        )
        top = tableau[r]
        p = top[s]
        for i, row in enumerate(tableau):
            if i != r:
                f = row[s]
                tableau[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        basis[r] = s
        prev = p
    return True
