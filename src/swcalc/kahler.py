"""Invariant tables from geometric facts: positive-scalar-curvature
vanishing, the Kahler p_g = 0 rule through effective-cone membership,
and the abelian vortex solvability inequality.

The geometric inputs are bundled in :class:`KahlerFacts`: the canonical
class, an integral basis of the Neron-Severi lattice, a finite rational
generator list for the effective cone (so membership is decidable by
exact feasibility), the p_g = 0 flag and the Kahler period ray.

Two independent pipelines can fill a table of invariant pairs on a
manifold with b1 = 0 and bplus = 1: vanishing for a positive scalar
curvature metric combined with the wall-crossing jump, or the Douady
nonemptiness rule for Kahler surfaces with p_g = 0. When both are
available they must agree, and the table builder checks that they do.
Entries the supplied facts cannot decide are reported as undetermined,
never guessed.
The table builder checks every input before it decides any row (the
squares of an unchanged characteristic_range by sums over its coordinate
ranges, read without a scan; of any other list by columns), then decides
the line classes L of its Kahler rows at once, in increasing h.L (h the
Kahler ray), by a chain of generators summing to L, the simplex, or a
Farkas vector the simplex found; sw_pg0_invariants is a one-row table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, islice, repeat
from operator import ge, is_, lt
from typing import Callable, NamedTuple, Optional, Sequence

from .chambers import PeriodRay, _twisted_sign, require_one_component, wall_vector
from .errors import DomainError, InvalidTopologyError, Scalar
from .errors import _as_flag, _as_fraction, _as_instance, _as_int_vector
from .linalg import Columns, _column_dot, _Cone, _integer_rows, _Span, dot
from .topology import (
    IntVector,
    ManifoldTopology,
    _b2_vector,
    _Box,
    _box_squares,
    _lifts_w2,
    _squares,
    characteristic_square,
)

# Rows per column pass in sw_table: a pass holds the columns and partial
# sums of one block, so its memory does not grow with the table.
_ROW_BLOCK = 256


class SolvabilitySide(enum.Enum):
    """Which Douady space the abelian vortex moduli are identified with."""

    DOU_M = "dou_m"
    DOU_K_MINUS_M = "dou_K_minus_m"
    ON_WALL = "on_wall"


_SIDE_SOLVABILITY = {
    -1: SolvabilitySide.DOU_M,
    1: SolvabilitySide.DOU_K_MINUS_M,
    0: SolvabilitySide.ON_WALL,
}


@dataclass(frozen=True)
class KahlerFacts:
    """Complex-geometric facts about a Kahler surface underlying the
    p_g = 0 invariant rule.

    ``effective_cone`` generators are given in coordinates with respect
    to ``ns_basis``; the effective classes are exactly the nonnegative
    rational combinations of the generators that are integral in the
    Neron-Severi lattice. Surfaces whose effective cone is not finitely
    generated are out of reach of this representation.
    """

    canonical_class: IntVector
    ns_basis: tuple[IntVector, ...]
    effective_cone: tuple[tuple[Fraction, ...], ...]
    pg_zero: bool
    kahler_ray: PeriodRay

    def __post_init__(self):
        canonical = _as_int_vector(self.canonical_class, "canonical class entry")
        object.__setattr__(self, "canonical_class", canonical)
        ns_basis = tuple(_as_int_vector(row, "ns_basis entry") for row in self.ns_basis)
        object.__setattr__(self, "ns_basis", ns_basis)
        cone = [[_as_fraction(v, "effective cone entry") for v in g] for g in self.effective_cone]
        object.__setattr__(self, "effective_cone", tuple(map(tuple, cone)))
        _as_flag(self.pg_zero, "pg_zero")
        _as_instance(self.kahler_ray, PeriodRay, "kahler_ray")


def validate_kahler_facts(m: ManifoldTopology, facts: KahlerFacts) -> list[str]:
    """Report every violated invariant of the Kahler facts, empty iff valid."""
    return _check_facts(m, facts)[0]


def _check_facts(
    m: ManifoldTopology, facts: KahlerFacts
) -> tuple[list[str], Optional[_Span], Optional[list[int]], Optional[list[list[int]]]]:
    """The violations, the Neron-Severi solve when the basis is one (its
    elimination is the independence check), the Kahler ray's wall functional
    when the ray is a period ray (:func:`wall_vector` is its check), and, with
    both, the cone generators, each scaled to integers by a positive factor."""
    violations, ns, u, gens = [], None, None, None
    if len(_as_instance(facts, KahlerFacts, "Kahler facts").canonical_class) != m.b2:
        violations.append(
            f"canonical class has length {len(facts.canonical_class)}, "
            f"expected b2 = {m.b2}"
        )
    elif not _lifts_w2(m, facts.canonical_class):
        violations.append("canonical class is not characteristic (K != w2 mod 2)")
    if any(len(row) != m.b2 for row in facts.ns_basis):
        violations.append("every ns_basis row must have length b2")
    else:
        try:
            ns = _Span(facts.ns_basis, m.b2)
        except DomainError:
            violations.append("ns_basis rows are linearly dependent; a basis is required")
    if any(len(gen) != len(facts.ns_basis) for gen in facts.effective_cone):
        violations.append(
            "effective cone generators must be given in ns_basis coordinates "
            f"(length {len(facts.ns_basis)})"
        )
    try:
        u = wall_vector(m, facts.kahler_ray)
    except DomainError as problem:
        violations.append(f"kahler_ray: {problem}")
    if isinstance(facts.kahler_ray, PeriodRay) and facts.kahler_ray.component_sign != 1:
        violations.append(
            "kahler_ray must designate the component containing Kahler classes "
            "(component_sign = +1)"
        )
    if ns is not None and u is not None:
        # A Kahler class h has h.g > 0 on every nonzero effective class g.
        degrees = [facts.kahler_ray.component_sign * dot(row, u) for row in facts.ns_basis]
        gens = _integer_rows(facts.effective_cone)[0]
        violations += [
            f"effective cone generator {i} = ({', '.join(map(str, g))}) is not positive "
            "on the Kahler ray" for i, (g, x) in enumerate(zip(facts.effective_cone, gens), 1)
            if len(x) == len(degrees) and any(x) and dot(x, degrees) <= 0
        ]
    return violations, ns, u, gens


def _require_valid_facts(
    m: ManifoldTopology, facts: KahlerFacts
) -> tuple[_Span, list[int], list[list[int]]]:
    """The Neron-Severi solve, the Kahler ray's wall functional and the
    integer cone generators of valid facts; invalid ones raise."""
    violations, ns, u, gens = _check_facts(m, facts)
    if violations:
        raise DomainError("invalid Kahler facts: " + "; ".join(violations))
    return ns, u, gens


def abelian_solvability_side(
    m: ManifoldTopology,
    facts: KahlerFacts,
    line_class: Sequence[int],
    b: Sequence[Scalar],
) -> SolvabilitySide:
    """Which branch of the vortex solvability dichotomy (2m - K - b) . h
    selects for the twisted abelian equations on a Kahler surface.

    Negative pairing identifies the moduli space with the Douady space
    of the line class itself, positive pairing with that of K minus the
    class; a vanishing pairing sits on the wall, where the dichotomy is
    silent. On the positive branch the identification reverses complex
    orientations by the parity of the holomorphic Euler characteristic
    of the line bundle; that twist is a statement about orientations
    only and is not applied to any value computed here.
    """
    u = _require_valid_facts(m, facts)[1]
    b = _b2_vector(m, b, "twisting class")
    line_class = _require_line_class(m, line_class)
    c = [2 * mv - kv for mv, kv in zip(line_class, facts.canonical_class)]
    return _SIDE_SOLVABILITY[_twisted_sign(c, u, b)]


def _require_line_class(m: ManifoldTopology, line_class: Sequence[int]) -> IntVector:
    return _as_int_vector(_b2_vector(m, line_class, "line class"), "line class entry")


def douady_nonempty(
    m: ManifoldTopology, facts: KahlerFacts, line_class: Sequence[int]
) -> bool:
    """Whether an effective divisor with the given class exists.

    True iff the class is an integral combination of the Neron-Severi
    basis and, in those coordinates, a nonnegative rational combination
    of the effective cone generators. Both checks are exact; classes
    outside the Neron-Severi lattice give an empty moduli space.
    """
    return _douady_test(m, facts)([[v] for v in _require_line_class(m, line_class)], 1)[0]


def _douady_test(m: ManifoldTopology, facts: KahlerFacts) -> Callable[[Columns, int], list[bool]]:
    """The Douady nonemptiness test of the facts, checked first, for a
    batch of line classes L by columns: the Neron-Severi solve, and the
    effective cone (:class:`linalg._Cone`) deciding L in increasing h.L."""
    ns, u, gens = _require_valid_facts(m, facts)
    cone = _Cone(gens, len(facts.ns_basis))

    def nonempty(cols: Columns, size: int) -> list[bool]:
        keep, coords = ns.integral_columns(cols, size)
        answers = iter(cone.decide(coords, list(compress(_column_dot(cols, u, size), keep))))
        return [kept and next(answers)[0] for kept in keep]

    return nonempty


def sw_pg0_invariants(
    m: ManifoldTopology, facts: KahlerFacts, line_class: Sequence[int]
) -> tuple[int, int]:
    """The invariant pair for the class 2m - K on a Kahler surface with
    p_g = 0 and b1 = 0, oriented by the component containing Kahler
    classes.

    This is the one row of :func:`sw_table` for that class and these
    facts: both values vanish for negative expected dimension; otherwise
    SW+ = 1 if the Douady space of the line class is nonempty, else
    SW- = -1, and the other value is 0. The line class is checked first.
    """
    line_class = _require_line_class(m, line_class)
    canonical = _as_instance(facts, KahlerFacts, "Kahler facts").canonical_class
    c = [2 * mv - kv for mv, kv in zip(line_class, canonical)]
    (row,) = sw_table(m, [c], kahler_facts=facts)
    return (row.sw_plus, row.sw_minus)


class SWRow(NamedTuple):
    """One table row, a named tuple: the characteristic element and the invariant pair.

    ``None`` renders as "undetermined": the supplied facts cannot decide
    the value (for instance on a wall), and the table never extrapolates.
    """

    c: IntVector
    sw_plus: Optional[int]
    sw_minus: Optional[int]


def sw_table(
    m: ManifoldTopology,
    c_list: Sequence[Sequence[int]],
    psc_ray: Optional[PeriodRay] = None,
    kahler_facts: Optional[KahlerFacts] = None,
) -> list[SWRow]:
    """Invariant pairs for each characteristic element, for b1 = 0 and
    bplus = 1, from the supplied geometric facts.

    Three arguments fill a row: negative expected dimension forces
    (0, 0); a positive-scalar-curvature ray zeroes the chamber
    containing (ray, 0) and the wall-crossing jump fills the other,
    which for b1 = 0 is 1 when w_c >= 0; the p_g = 0 Douady rule decides
    both values at once. Rows are emitted in lexicographically sorted c
    order; a strictly increasing list is not sorted again.

    Every check comes before any decision, in this order, and the first
    failure raises. (1) The table: the manifold (b1 = 0, bplus = 1), the
    rays (length b2, positive square, one hyperbola component for both),
    the Kahler facts (:func:`validate_kahler_facts`, then p_g = 0), and
    signature + euler == 0 (mod 4), which given c^2 == signature (mod 8)
    holds exactly when every w_c is an even integer, so it is checked
    even for an empty c_list. (2) The entry types, in one scan, and the
    order; a list that is not all int tuples is read entry by entry as by
    :func:`require_characteristic`, in input order. A :func:`characteristic_range`
    whose rows are all still the objects it made skips both. (3) Each row's
    own checks (length b2, c == w2 mod 2, c^2 == signature mod 8) in sorted
    order: on such a range, by sums over its coordinate ranges
    (:func:`topology._box_squares`); on any other list, or a failing range,
    per column on blocks of rows (:func:`topology._squares`), a failing
    block row by row, so the first failing row raises as a row-at-a-time
    check would. (4) The decisions, by columns on the rows
    with w_c >= 0 (the others are (0, 0)): the sign of c.u, u the PSC
    ray's wall vector, and the cone test of each L = (c + K)/2 in
    increasing h.L (h the Kahler ray) by three routes: a chain of
    generators summing to L, the simplex, or a Farkas vector it found for
    an earlier L. The first row where both pipelines decide and disagree
    raises. Each route is exact in any order, so a row is its table alone
    (:func:`sw_pg0_invariants`)."""
    if m.b1 != 0:
        raise DomainError(f"the table synthesis requires b1 = 0, got {m.b1}")
    if m.bplus != 1:
        raise DomainError(f"the table synthesis requires bplus = 1, got {m.bplus}")
    if psc_ray is None and kahler_facts is None:
        raise DomainError(
            "insufficient facts: supply a positive-scalar-curvature period ray "
            "or Kahler facts"
        )
    if psc_ray is not None:
        u = wall_vector(m, psc_ray)
    if kahler_facts is not None:
        douady = _douady_test(m, kahler_facts)
        if not kahler_facts.pg_zero:
            raise DomainError("the invariant rule applies only when p_g = 0")
    if psc_ray is not None and kahler_facts is not None:
        require_one_component(m, psc_ray, kahler_facts.kahler_ray)
    if (m.signature + m.euler) % 4:
        raise InvalidTopologyError(
            f"signature + euler = {m.signature + m.euler} is not divisible by 4, so "
            "the expected dimensions are not even integers; the topology data is "
            "inconsistent"
        )
    values, box = None, type(c_list) is _Box and len(c_list) == len(c_list.rows)
    if box and all(map(is_, c_list, c_list.rows)):
        # An unchanged characteristic_range: sorted int tuples, the product of its ranges.
        cs, values = c_list.rows, c_list.values
    else:
        cs = []
        try:
            cs.extend(map(tuple, c_list))
        finally:
            # One scan of the entry types; on any other type the entries are
            # checked one by one, so the first bad one raises, also ahead of a
            # later row that is not iterable.
            if not {int}.issuperset(map(type, chain.from_iterable(cs))):
                cs = [_as_int_vector(c, "characteristic vector entry") for c in cs]
        if not all(map(lt, cs, islice(cs, 1, None))):
            # dict.fromkeys drops repeats in order.
            cs = sorted(dict.fromkeys(cs))
    squares = None if values is None else _box_squares(m, values)
    if squares is None:
        # A block failing a column check is checked row by row, to raise at its first failing row.
        squares = []
        for start in range(0, len(cs), _ROW_BLOCK):
            block = cs[start:start + _ROW_BLOCK]
            squares += _squares(m, block) or [characteristic_square(m, c) for c in block]
    # Given c^2 == signature (mod 8) and signature + euler == 0 (mod 4), the
    # numerator c^2 - 3 signature - 2 euler of w_c is a multiple of 8, so
    # w_c < 0 exactly when c^2 < 3 signature + 2 euler; such a row stays (0, 0).
    threshold = 3 * m.signature + 2 * m.euler
    decided = list(compress(count(), map(ge, squares, repeat(threshold))))
    cols, size = list(zip(*map(cs.__getitem__, decided))), len(decided)
    psc = kahler = repeat(None)
    if psc_ray is not None:
        # A positive-scalar-curvature metric has empty untwisted moduli, so
        # the chamber containing (ray, 0) carries 0 and the other one the jump 1.
        sides = _column_dot(cols, u, size)
        psc = [(1, 0) if s > 0 else (0, -1) if s < 0 else (None, None) for s in sides]
    if kahler_facts is not None:
        # c and K are both characteristic, so c + K is even.
        halves = [[(v + k) // 2 for v in col] for col, k in zip(cols, kahler_facts.canonical_class)]
        kahler = [(1, 0) if x else (0, -1) for x in douady(halves, size)]
    plus, minus = [0] * len(cs), [0] * len(cs)
    for r, pair, kpair in zip(decided, psc, kahler):
        if pair and kpair and pair[0] is not None and pair != kpair:
            raise DomainError(
                f"the PSC and Kahler pipelines disagree at c = {list(cs[r])}: "
                f"SW+ = {pair[0]} vs {kpair[0]}; the supplied facts are inconsistent"
            )
        plus[r], minus[r] = kpair or pair
    return list(map(tuple.__new__, repeat(SWRow), zip(cs, plus, minus)))
