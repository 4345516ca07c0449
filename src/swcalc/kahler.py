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
The table builder decides its rows from a plan built once per table;
the p_g = 0 pair of one class is the one row of its table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .chambers import PeriodRay, _twisted_sign, component_violation, ray_violation, wall_vector
from .errors import DomainError, InvalidTopologyError
from .linalg import Scalar, _Cone, _Span, dot
from .topology import (
    IntVector,
    ManifoldTopology,
    _as_flag,
    _as_fraction,
    _as_int_vector,
    _b2_vector,
    characteristic_square,
    is_characteristic,
    spinor_c2,
)


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
        if not isinstance(self.kahler_ray, PeriodRay):
            raise DomainError(f"kahler_ray must be a PeriodRay, got {self.kahler_ray!r}")


def validate_kahler_facts(m: ManifoldTopology, facts: KahlerFacts) -> list[str]:
    """Report every violated invariant of the Kahler facts, empty iff valid."""
    return _check_facts(m, facts)[0]


def _check_facts(m: ManifoldTopology, facts: KahlerFacts) -> tuple[list[str], Optional[_Span]]:
    """The violations, and the Neron-Severi solve when the basis is one:
    its elimination is the independence check."""
    violations, ns = [], None
    if len(facts.canonical_class) != m.b2:
        violations.append(
            f"canonical class has length {len(facts.canonical_class)}, "
            f"expected b2 = {m.b2}"
        )
    elif not is_characteristic(m, facts.canonical_class):
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
    problem = ray_violation(m, facts.kahler_ray)
    if problem is not None:
        violations.append(f"kahler_ray: {problem}")
    if facts.kahler_ray.component_sign != 1:
        violations.append(
            "kahler_ray must designate the component containing Kahler classes "
            "(component_sign = +1)"
        )
    return violations, ns


def _require_valid_facts(m: ManifoldTopology, facts: KahlerFacts) -> _Span:
    """The Neron-Severi solve of valid facts; invalid ones raise."""
    violations, ns = _check_facts(m, facts)
    if violations:
        raise DomainError("invalid Kahler facts: " + "; ".join(violations))
    return ns


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
    _require_valid_facts(m, facts)
    b = _b2_vector(m, b, "twisting class")
    line_class = _require_line_class(m, line_class)
    c = [2 * mv - kv for mv, kv in zip(line_class, facts.canonical_class)]
    return _SIDE_SOLVABILITY[_twisted_sign(m, c, facts.kahler_ray, b)]


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
    ns = _require_valid_facts(m, facts)
    return _douady_test(facts, ns)(_require_line_class(m, line_class))


def _douady_test(facts: KahlerFacts, ns: _Span) -> Callable[[Sequence[int]], bool]:
    """The Douady nonemptiness test of valid facts, prepared once for
    many line classes: ns, the facts' Neron-Severi solve, and the
    effective cone with its certificate caches (see :class:`linalg._Cone`)."""
    cone = _Cone(facts.effective_cone, len(facts.ns_basis))

    def nonempty(line_class: Sequence[int]) -> bool:
        coords = ns.integral(line_class)
        return coords is not None and cone.contains(coords)[0]

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
    if m.b1 != 0:
        raise DomainError(f"the p_g = 0 rule requires b1 = 0, got {m.b1}")
    if m.bplus != 1:
        raise DomainError(f"the p_g = 0 rule requires bplus = 1, got {m.bplus}")
    line_class = _require_line_class(m, line_class)
    c = [2 * mv - kv for mv, kv in zip(line_class, facts.canonical_class)]
    (row,) = sw_table(m, [c], kahler_facts=facts)
    return (row.sw_plus, row.sw_minus)


@dataclass(frozen=True)
class SWRow:
    """One table row: the characteristic element and the invariant pair.

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
    order.

    The manifold (b1 = 0, bplus = 1), the rays (length b2, positive
    square, one hyperbola component for both) and the Kahler facts
    (:func:`validate_kahler_facts`, then the p_g = 0 flag) are checked
    once, before any row, and then signature + euler == 0 (mod 4): given the row
    congruence c^2 == signature (mod 8), that is exactly when every w_c
    is an even integer, so inconsistent Betti data is refused even for
    an empty c_list. Each row then checks only its own c (length b2,
    c == w2 mod 2, c^2 == signature mod 8) and, where both pipelines
    decide the row, that they agree.

    The rows share a plan built once: the integer wall vector u of the
    PSC ray, and the Douady test with its Neron-Severi solve and cone
    prepared. The cone caches a few certificates (Farkas vectors,
    generator bases) for the rest of the table and checks each one
    exactly on a new class, so every row is what a table of that row
    alone would give; :func:`sw_pg0_invariants` is such a table.
    """
    if m.b1 != 0:
        raise DomainError(f"the table synthesis requires b1 = 0, got {m.b1}")
    if m.bplus != 1:
        raise DomainError(f"the table synthesis requires bplus = 1, got {m.bplus}")
    if psc_ray is None and kahler_facts is None:
        raise DomainError(
            "insufficient facts: supply a positive-scalar-curvature period ray "
            "or Kahler facts"
        )
    problem = ray_violation(m, psc_ray) if psc_ray is not None else None
    if problem is not None:
        raise problem
    if kahler_facts is not None:
        ns = _require_valid_facts(m, kahler_facts)
        if not kahler_facts.pg_zero:
            raise DomainError("the invariant rule applies only when p_g = 0")
    if psc_ray is not None and kahler_facts is not None:
        problem = component_violation(m, psc_ray, kahler_facts.kahler_ray)
        if problem is not None:
            raise problem
    if (m.signature + m.euler) % 4:
        raise InvalidTopologyError(
            f"signature + euler = {m.signature + m.euler} is not divisible by 4, so "
            "the expected dimensions are not even integers; the topology data is "
            "inconsistent"
        )
    u = wall_vector(m, psc_ray) if psc_ray is not None else None
    if kahler_facts is not None:
        douady = _douady_test(kahler_facts, ns)
    rows = []
    for c in sorted(set(_as_int_vector(c, "characteristic vector entry") for c in c_list)):
        if spinor_c2(m, characteristic_square(m, c), 1) < 0:
            rows.append(SWRow(c, 0, 0))
            continue
        pair: tuple[Optional[int], Optional[int]] = (None, None)
        if psc_ray is not None:
            # A positive-scalar-curvature metric has empty untwisted moduli,
            # so the chamber containing (ray, 0) carries 0 and the other one
            # the jump 1.
            s = dot(c, u)
            pair = (1, 0) if s > 0 else (0, -1) if s < 0 else (None, None)
        if kahler_facts is not None:
            # c and K are both characteristic, so c + K is even.
            line_class = [(cv + kv) // 2 for cv, kv in zip(c, kahler_facts.canonical_class)]
            kahler = (1, 0) if douady(line_class) else (0, -1)
            if pair[0] is not None and pair != kahler:
                raise DomainError(
                    f"the PSC and Kahler pipelines disagree at c = {list(c)}: "
                    f"SW+ = {pair[0]} vs {kahler[0]}; the supplied facts are inconsistent"
                )
            pair = kahler
        rows.append(SWRow(c, *pair))
    return rows
