"""Topological input data for closed oriented 4-manifolds, with the
closed-form dimension and admissibility arithmetic built on it.

The central type is :class:`ManifoldTopology`: the intersection lattice
on H^2/Tors in a fixed basis e_1..e_b2 together with Betti data, a
mod-2 coordinate vector for the second Stiefel-Whitney class, the order
of the 2-torsion subgroup of H^2, and the nonzero triple cup numbers on
a basis a_1..a_b1 of H^1/Tors as sparse entries. Characteristic elements
(integral lifts of w_2) are plain integer tuples validated by
:func:`is_characteristic` / :func:`require_characteristic`. A table
checks its classes column by column instead: the parity of each
coordinate against w2 comes from the distinct values of its column, the
square c^2 of every class from one product pass per coordinate (of a box
of classes, from sums kept once per prefix of coordinates; the list of
:func:`characteristic_range` carries its coordinate ranges for this), and
only a class that fails a check is looked at on its own.

All arithmetic is exact. Quantities that are integral for consistent
input, such as the expected dimension of the abelian monopole moduli
space, are integrality-checked; a failure raises
:class:`InvalidTopologyError`, signaling contradictory input data
rather than a rounding problem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mod, mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DimensionMismatchError, DomainError, InvalidTopologyError, Scalar
from .errors import _as_fraction, _as_instance, _as_int_vector, _as_integer, _as_sign
from .linalg import determinant, inertia_and_determinant, quadratic

IntVector = tuple[int, ...]
_RANGE_LIMIT = 200_000  # the most vectors characteristic_range lists


def _b2_vector(m: ManifoldTopology, values: Sequence, what: str) -> Sequence:
    """values, checked to hold one entry per basis vector of H^2/Tors; a
    wrong length raises DimensionMismatchError naming values as what."""
    if len(values) != m.b2:
        raise DimensionMismatchError(f"{what} has length {len(values)}, expected b2 = {m.b2}")
    return values


@dataclass(frozen=True)
class ManifoldTopology:
    """Topological invariants of a closed oriented 4-manifold.

    Fields describe H^2(X,Z)/Tors in a fixed basis: ``intersection_form``
    is the symmetric unimodular pairing matrix, ``w2`` the mod-2
    coordinates of an integral lift of the second Stiefel-Whitney class,
    ``tors2_order`` the order of the 2-torsion subgroup of H^2(X,Z), and
    ``triple_cup`` the sorted 1-based entries (i, j, k, value), mirror
    (j, i, k) included, of the nonzero cup numbers <a_i u a_j u e_k, [X]>
    for a fixed basis a_1..a_b1 of H^1/Tors. The constructor converts
    such entries, or a dense b1 x b1 x b2 tensor, once.

    Construction only enforces integrality and shape consistency; the
    semantic invariants (unimodularity, signature decomposition, the
    Euler identity, antisymmetry of the cup numbers, w2 being
    characteristic) are checked by :func:`validate_topology`, which
    reports every violation instead of raising.

    Instances are immutable and safe to share across threads.
    """

    name: str
    b1: int
    bplus: int
    bminus: int
    euler: int
    signature: int
    intersection_form: tuple[IntVector, ...]
    w2: IntVector
    tors2_order: int = 1
    triple_cup: tuple[tuple[int, int, int, int], ...] = ()

    def __post_init__(self):
        _as_instance(self.name, str, "name")
        q = tuple(
            _as_int_vector(row, "intersection form entry") for row in self.intersection_form
        )
        object.__setattr__(self, "intersection_form", q)
        n = len(q)
        if any(len(row) != n for row in q):
            raise ValueError("intersection form must be a square matrix")
        for key in ("b1", "bplus", "bminus", "euler", "signature", "tors2_order"):
            object.__setattr__(self, key, _as_integer(getattr(self, key), key))
        if min(self.b1, self.bplus, self.bminus) < 0:
            raise ValueError("Betti numbers must be nonnegative")
        if self.tors2_order < 1:
            raise ValueError("tors2_order must be a positive integer")
        w2 = _as_int_vector(self.w2, "w2 entry")
        if len(w2) != n:
            raise ValueError(f"w2 has length {len(w2)}, expected b2 = {n}")
        if any(v not in (0, 1) for v in w2):
            raise ValueError("w2 entries must be 0 or 1")
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "triple_cup", _cup_entries(tuple(self.triple_cup), self.b1, n))

    @property
    def b2(self) -> int:
        return len(self.intersection_form)


def _cup_entries(cup, b1: int, b2: int) -> tuple[tuple[int, int, int, int], ...]:
    """The sorted nonzero entries (i, j, k, value) of cup, given as entries or
    densely; an index outside its range or a repeated cell raises ValueError."""
    if cup and isinstance(cup[0], Sequence) and cup[0] and isinstance(cup[0][0], Sequence):
        if len(cup) != b1 or any(len(p) != b1 or any(len(r) != b2 for r in p) for p in cup):
            raise ValueError("triple cup tensor must have shape b1 x b1 x b2")
        cup = [
            (i + 1, j + 1, k + 1, v)
            for i, p in enumerate(cup) for j, r in enumerate(p) for k, v in enumerate(r)
        ]
    cells: dict[tuple[int, int, int], int] = {}
    for entry in cup:
        i, j, k, v = _cup_entry(entry)
        if not (1 <= i <= b1 and 1 <= j <= b1 and 1 <= k <= b2):
            raise ValueError(f"triple cup index ({i},{j},{k}) out of range")
        if (i, j, k) in cells:
            raise ValueError(f"duplicate triple cup entry for ({i},{j},{k})")
        cells[(i, j, k)] = v
    return tuple(sorted((*key, v) for key, v in cells.items() if v))


def _cup_entry(entry) -> IntVector:
    """entry as the integers (i, j, k, value); another length, or an entry
    that is not iterable, raises ValueError."""
    cell = _as_int_vector(entry, "triple cup entry") if isinstance(entry, Iterable) else entry
    if not isinstance(cell, tuple) or len(cell) != 4:
        raise ValueError(f"triple cup entry must be (i, j, k, value), got {cell}")
    return cell


def triple_cup_from_entries(
    b1: int, b2: int, entries: Iterable[tuple[int, int, int, int]]
) -> tuple[tuple[int, int, int, int], ...]:
    """The stored cup numbers from sparse 1-based entries (i, j, k, value).

    b1, b2 and the values must be integers. Each entry's mirror
    (j, i, k, -value) is filled in, and a diagonal entry (i, i, k) must
    be 0; the constructor's normaliser checks index ranges and repeated
    cells. Refusals raise ValueError.
    """
    b1, b2 = _as_integer(b1, "b1"), _as_integer(b2, "b2")
    cup = [_cup_entry(entry) for entry in entries]
    cup = _cup_entries(cup + [(j, i, k, -v) for i, j, k, v in cup if i != j], b1, b2)
    for i, j, k, _ in cup:
        if i == j:
            raise ValueError(f"triple cup entry ({i},{i},{k}) must vanish by antisymmetry")
    return cup


def validate_topology(m: ManifoldTopology) -> list[str]:
    """Return every violated invariant of the data set, empty iff valid.

    Each entry names the violated identity and a witness. The checks are
    purely arithmetic: one fraction-free elimination of a symmetric form
    gives its inertia and its determinant; no realizability question is
    decided.
    """
    violations: list[str] = []
    q = m.intersection_form
    n = m.b2
    if m.bplus + m.bminus != n:
        violations.append(
            f"bplus + bminus = {m.bplus + m.bminus} does not match the "
            f"intersection form size b2 = {n}"
        )
    i = next((i for i, (row, col) in enumerate(zip(q, zip(*q))) if row != col), None)
    symmetric = i is None
    if symmetric:
        pos, neg, _, det = inertia_and_determinant(q)
    else:
        # Every earlier row matched its column, so row i differs first at j > i.
        j = next(j for j in range(n) if q[i][j] != q[j][i])
        violations.append(
            f"intersection form not symmetric at ({i + 1},{j + 1}): {q[i][j]} vs {q[j][i]}"
        )
        det = determinant(q)
    if abs(det) != 1:
        violations.append(f"intersection form not unimodular: det = {det}")
    if symmetric:
        if (pos, neg) != (m.bplus, m.bminus):
            violations.append(
                f"intersection form has {pos} positive and {neg} negative "
                f"eigenvalues, expected bplus = {m.bplus}, bminus = {m.bminus}"
            )
        if pos - neg != m.signature:
            violations.append(
                f"signature field {m.signature} does not equal the computed "
                f"signature {pos - neg}"
            )
    expected_euler = 2 - 2 * m.b1 + n
    if m.euler != expected_euler:
        violations.append(
            f"euler = {m.euler} violates euler = 2 - 2*b1 + b2 = {expected_euler}"
        )
    # A cell and its mirror violate together; an absent cell is 0.
    cup = {(i, j, k): v for i, j, k, v in m.triple_cup}
    bad = [min((i, j, k), (j, i, k)) for i, j, k, v in m.triple_cup if v + cup.get((j, i, k), 0)]
    if bad:
        violations.append("triple cup tensor not antisymmetric at ({},{},{})".format(*min(bad)))
    violations.extend(_characteristic_violations(m))
    return violations


def _characteristic_violations(m: ManifoldTopology) -> list[str]:
    # x^T Q x == w2^T Q x (mod 2) for all x reduces to the basis vectors,
    # since squares agree with first powers mod 2.
    q = m.intersection_form
    return [
        f"w2 is not characteristic: x^T Q x != w2^T Q x (mod 2) for x = e_{i + 1}"
        for i, column in enumerate(zip(*q))
        if (q[i][i] - sum(map(mul, m.w2, column))) % 2
    ]


def is_characteristic(m: ManifoldTopology, c: Sequence[int]) -> bool:
    """True iff c is an integral lift of w2, i.e. c == w2 (mod 2)."""
    return _lifts_w2(m, _as_int_vector(c, "characteristic vector entry"))


def _lifts_w2(m: ManifoldTopology, c: IntVector) -> bool:
    """:func:`is_characteristic` for an integer tuple c."""
    c = _b2_vector(m, c, "characteristic vector")
    return not any(map(mod, map(sub, c, m.w2), itertools.repeat(2)))


def characteristic_square(m: ManifoldTopology, c: IntVector) -> int:
    """c^2 for an integer tuple c, checked as in :func:`require_characteristic`."""
    if not _lifts_w2(m, c):
        raise DomainError(f"c = {list(c)} is not characteristic: c != w2 (mod 2)")
    square = quadratic(m.intersection_form, c)
    if (square - m.signature) % 8:
        raise InvalidTopologyError(
            f"characteristic vector c = {list(c)} violates "
            "c^2 == signature (mod 8); the lattice data is inconsistent"
        )
    return square


def _squares(m: ManifoldTopology, cs: Sequence[IntVector]) -> Optional[list[int]]:
    """:func:`characteristic_square` of each integer tuple c of cs, or None
    when that call would raise for some c. Works on the columns x_i of cs.
    Parity against w2 reads the distinct values of each column. The square
    is c^2 = sum_i x_i y_i with y_i = sum_{j>=i} a_ij x_j, a_ii = q_ii and
    a_ij = q_ij + q_ji (the form need not be symmetric, so not 2 q_ij):
    one product pass per coordinate."""
    n, q = m.b2, m.intersection_form
    if cs and set(map(len, cs)) != {n}:
        return None
    cols = list(zip(*cs))
    if any((v - w) % 2 for x, w in zip(cols, m.w2) for v in set(x)):
        return None
    total = [0] * len(cs)
    for i, x in enumerate(cols):
        y, sign = None, 1
        for j in range(i, n):
            a = q[i][j] + q[j][i] if j > i else q[i][i]
            if a:
                if y is None:
                    # y_i is kept divided by the sign of its first coefficient,
                    # so a coefficient of +-1 costs no multiplication pass.
                    sign = -1 if a < 0 else 1
                a *= sign
                term = cols[j] if abs(a) == 1 else map(mul, cols[j], itertools.repeat(abs(a)))
                y = term if y is None else map(add if a > 0 else sub, y, term)
        if y is not None:
            total = list(map(add if sign > 0 else sub, total, map(mul, x, y)))
    return total if set(map(mod, total, itertools.repeat(8))) <= {m.signature % 8} else None


def _box_squares(m: ManifoldTopology, values: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """:func:`characteristic_square` of each c of itertools.product(*values),
    in that order, or None when that call would raise for some c. Parity
    against w2 reads the value lists. As in :func:`_squares`,
    c^2 = sum_k x_k (q_kk x_k + l_k) with l_k = sum_{j<k} (q_jk + q_kj) x_j;
    each partial sum and each l_i is kept once per prefix x_0..x_k, so a c
    costs about one multiply-add."""
    n, q = m.b2, m.intersection_form
    if len(values) != n or any((v - w) % 2 for x, w in zip(values, m.w2) for v in x):
        return None
    total, lin = [0], [[0]] * n  # per prefix: the partial sum and every l_i
    for k, x in enumerate(values):
        # Prefix p and value t of column k make the prefix p * step + t.
        step, out = len(x), [0] * (len(total) * len(x))
        for t, v in enumerate(x):
            out[t::step] = map(add, map((q[k][k] * v * v).__add__, total), map(v.__mul__, lin[k]))
        total = out
        for i in range(k + 1, n):
            col, lin[i] = lin[i], [0] * len(out)
            for t, v in enumerate(x):
                shift = (q[k][i] + q[i][k]) * v
                lin[i][t::step] = map(shift.__add__, col) if shift else col
    return total if set(map(mod, total, itertools.repeat(8))) <= {m.signature % 8} else None


def require_characteristic(m: ManifoldTopology, c: Sequence[int]) -> IntVector:
    """Validate c as a characteristic element and return it as a tuple.

    Besides the mod-2 parity, the van der Blij congruence
    c^2 == signature (mod 8) is checked; it holds automatically on any
    unimodular lattice, so a failure exposes inconsistent input data.
    """
    c = _as_int_vector(c, "characteristic vector entry")
    characteristic_square(m, c)
    return c


def spinor_c2(m: ManifoldTopology, c_square: int, sign: int) -> int:
    """(c^2 - 3*signature - 2*sign*euler) / 4 from a checked c^2."""
    num = c_square - 3 * m.signature - 2 * sign * m.euler
    if num % 4:
        raise InvalidTopologyError(
            f"spinor bundle c2 numerator {num} is not divisible by 4; "
            "the topology data is inconsistent"
        )
    return num // 4


def expected_dim_abelian(m: ManifoldTopology, c: Sequence[int]) -> int:
    """Expected dimension of the abelian monopole moduli space,
    (c^2 - 3*signature - 2*euler) / 4, which is c2_spinor_bundle(m, c, +1).

    The value depends only on c and the characteristic numbers of the
    manifold. Integrality is checked exactly; failure means the input
    data is inconsistent.
    """
    return c2_spinor_bundle(m, c, 1)


def c2_spinor_bundle(m: ManifoldTopology, c: Sequence[int], sign: int) -> int:
    """Second Chern number of a half-spinor bundle for Chern class c:
    (c^2 - 3*signature - 2*euler)/4 for the positive bundle (sign=+1) and
    (c^2 - 3*signature + 2*euler)/4 for the negative one (sign=-1).
    """
    sign = _as_sign(sign, "sign")
    c = _as_int_vector(c, "characteristic vector entry")
    return spinor_c2(m, characteristic_square(m, c), sign)


def spinc_count_per_chern(m: ManifoldTopology) -> int:
    """Number of Spin^c classes sharing a single Chern class.

    The classes with fixed Chern class form a torsor under the 2-torsion
    subgroup of H^2(X,Z), so the count is its order.
    """
    return m.tors2_order


def spin_sp1_admissible(m: ManifoldTopology, p: int) -> bool:
    """Whether p occurs as first Pontryagin number of a Spin^Sp(1)
    structure: p == w2^2 (mod 4) for any integral lift of w2.

    Sp(1) = SU(2) is the part of U(2) with trivial determinant, so this is
    :func:`spin_u2_admissible` at c = 0. Well defined because
    (w + 2x)^2 == w^2 (mod 4) for every integer x.
    """
    return spin_u2_admissible(m, p, (0,) * m.b2)


def spin_u2_admissible(m: ManifoldTopology, p: int, c: Sequence[int]) -> bool:
    """Whether (p, c) occurs for a Spin^U(2) structure:
    p == (w2 + c)^2 (mod 4) for any integral lift of w2."""
    c = _b2_vector(m, c, "c")
    p = _as_integer(p, "Pontryagin number")
    lifted = [w + v for w, v in zip(m.w2, _as_int_vector(c, "c entry"))]
    return (p - quadratic(m.intersection_form, lifted)) % 4 == 0


def expected_dim_pu2(m: ManifoldTopology, p1: int, c1: Sequence[int]) -> int:
    """Expected dimension of the PU(2) monopole moduli space,
    (-3*p1 + c1^2)/2 - (3*euler + 4*signature)/2.

    Requires (p1, c1) to be Spin^U(2)-admissible; the total expression
    is then an integer, which is checked exactly. The formula reads p1
    and c1 as ints, converted as in :func:`spin_u2_admissible`.
    """
    c1 = _b2_vector(m, c1, "c")
    p1 = _as_integer(p1, "Pontryagin number")
    c1 = _as_int_vector(c1, "c entry")
    if not spin_u2_admissible(m, p1, c1):
        raise DomainError(
            f"(p1, c1) = ({p1}, {list(c1)}) is not Spin^U(2)-admissible: "
            "p1 must equal (w2 + c1)^2 (mod 4)"
        )
    num = -3 * p1 + quadratic(m.intersection_form, c1) - (3 * m.euler + 4 * m.signature)
    if num % 2:
        raise InvalidTopologyError(
            f"PU(2) index numerator {num} is odd; the topology data is inconsistent"
        )
    return num // 2


class UhlenbeckStratum(NamedTuple):
    """One stratum of the ideal-monopole compactification."""

    level: int
    p1: int
    dim: int


def uhlenbeck_strata(
    m: ManifoldTopology, p1: int, c1: Sequence[int], max_level: Optional[int] = None
) -> list[UhlenbeckStratum]:
    """Enumerate ideal-monopole strata (l, p1 + 4l, chi - 2l).

    Level l pairs monopoles for the shifted structure, whose first
    Pontryagin number grows by 4l and whose expected dimension drops by
    6l, with unordered l-point configurations contributing 4l
    dimensions; the stratum dimension is therefore chi - 2l. Levels are
    listed while the stratum dimension stays nonnegative and, when an
    integer max_level is given, up to it (a negative cap lists nothing).
    """
    p1 = _as_integer(p1, "Pontryagin number")
    chi = expected_dim_pu2(m, p1, c1)
    top = chi // 2 if max_level is None else min(chi // 2, _as_integer(max_level, "max_level"))
    return [UhlenbeckStratum(level, p1 + 4 * level, chi - 2 * level) for level in range(top + 1)]


def spinor_sup_bound(sup_term: Scalar) -> Fraction:
    """A priori sup bound for the squared spinor component:
    max(0, sup_term) for the caller-computed curvature/scalar term."""
    s = _as_fraction(sup_term, "sup_term")
    return s if s > 0 else Fraction(0)


class _Box(list):
    """characteristic_range's rows, its coordinate ranges (values) and the rows as a tuple."""


def characteristic_range(m: ManifoldTopology, cmin: int, cmax: int) -> list[IntVector]:
    """All characteristic vectors with every coordinate in [cmin, cmax],
    in lexicographic order.

    Works coordinatewise: entry i runs over the values of the correct
    parity w2[i] in the box. A non-integral bound, or an enumeration
    over a fixed cap of 200,000 vectors, raises DomainError. sw_table
    reads the list without a scan while its rows are unchanged.
    """
    cmin, cmax = _as_integer(cmin, "cmin"), _as_integer(cmax, "cmax")
    per_coord = [range(cmin + (cmin - w) % 2, cmax + 1, 2) for w in m.w2]
    if math.prod(len(values) for values in per_coord) > _RANGE_LIMIT:
        raise DomainError(
            f"characteristic range would enumerate more than {_RANGE_LIMIT} vectors"
        )
    box = _Box(itertools.product(*per_coord))
    box.values, box.rows = tuple(per_coord), tuple(box)
    return box
