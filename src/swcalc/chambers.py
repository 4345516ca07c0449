"""Chamber geometry for manifolds with one positive direction in H^2.

When b+ = 1, the invariants depend on a chamber structure: for a
characteristic element c, the wall is the locus (c - b) . h = 0 inside
(period point, twisting class) pairs, and its complement has the two
half-chambers C_plus and C_minus relative to a chosen hyperbola
component. Period points are modeled as unnormalized rational rays,
which is enough because every predicate here only uses the sign of a
linear pairing against the ray and is therefore invariant under
positive rescaling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionMismatchError, DomainError
from .linalg import Scalar, pairing, quadratic
from .topology import ManifoldTopology, require_characteristic


class Chamber(enum.Enum):
    """Position of a (ray, twisting class) pair relative to the wall of c."""

    C_PLUS = "C_plus"
    C_MINUS = "C_minus"
    ON_WALL = "on_wall"

    def flipped(self) -> "Chamber":
        if self is Chamber.C_PLUS:
            return Chamber.C_MINUS
        if self is Chamber.C_MINUS:
            return Chamber.C_PLUS
        return self


_SIDE_CHAMBERS = {-1: Chamber.C_PLUS, 1: Chamber.C_MINUS, 0: Chamber.ON_WALL}


@dataclass(frozen=True)
class PeriodRay:
    """Positive ray in H^2 de Rham cohomology standing for a period point.

    ``h`` must have positive square against the intersection form; it is
    kept unnormalized since only pairing signs are ever used.
    ``component_sign`` selects the hyperbola component designated as the
    reference component: +1 for the one containing h, -1 for the other.
    """

    h: tuple[Fraction, ...]
    component_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(Fraction(v) for v in self.h))
        if self.component_sign not in (1, -1):
            raise ValueError(f"component_sign must be +1 or -1, got {self.component_sign!r}")


@dataclass(frozen=True)
class OrientationData:
    """Orientation conventions entering wall crossing.

    ``o1_sign`` orients H^1(X,R) by fixing the generator
    o1_sign * a_1 ^ ... ^ a_b1 of its top exterior power.
    """

    o1_sign: int = 1

    def __post_init__(self):
        if self.o1_sign not in (1, -1):
            raise ValueError(f"o1_sign must be +1 or -1, got {self.o1_sign!r}")


def _require_bplus_one(m: ManifoldTopology) -> None:
    if m.bplus != 1:
        raise DomainError(
            f"chamber predicates require bplus = 1, got bplus = {m.bplus}; "
            "for bplus > 1 the wall condition depends on metric data"
        )


def ray_violation(m: ManifoldTopology, ray: PeriodRay) -> Optional[DomainError]:
    """Why ray is no period ray of m (length b2, positive square), or None."""
    if len(ray.h) != m.b2:
        return DimensionMismatchError(
            f"period ray has length {len(ray.h)}, expected b2 = {m.b2}"
        )
    square = quadratic(m.intersection_form, ray.h)
    if square <= 0:
        return DomainError(
            f"period ray must have positive square, got h.h = {square}"
        )
    return None


def pairing_sign(m: ManifoldTopology, x: Sequence[Scalar], h: Sequence[Scalar]) -> int:
    """Sign (-1, 0 or +1) of the pairing x . h: the side of the wall
    orthogonal to x on which h lies."""
    s = pairing(m.intersection_form, x, h)
    return (s > 0) - (s < 0)


def require_same_component(
    m: ManifoldTopology, psc_ray: PeriodRay, kahler_ray: PeriodRay
) -> None:
    """Raise DomainError unless the two rays designate the same hyperbola
    component. For bplus = 1 and rays of length b2 with positive square,
    they do iff their component-signed pairing is positive (never 0)."""
    signs = psc_ray.component_sign * kahler_ray.component_sign
    if signs * pairing_sign(m, psc_ray.h, kahler_ray.h) < 0:
        raise DomainError(
            "the PSC ray and the Kahler ray designate different hyperbola "
            "components; the two pipelines would use different orientation data"
        )


def _wall_sign(
    m: ManifoldTopology, c: Sequence[int], ray: PeriodRay, b: Sequence[Scalar]
) -> int:
    _require_bplus_one(m)
    c = require_characteristic(m, c)
    if len(b) != m.b2:
        raise DimensionMismatchError(
            f"twisting class has length {len(b)}, expected b2 = {m.b2}"
        )
    problem = ray_violation(m, ray)
    if problem is not None:
        raise problem
    return pairing_sign(m, [ci - Fraction(bi) for ci, bi in zip(c, b)], ray.h)


def classify_chamber(
    m: ManifoldTopology, c: Sequence[int], ray: PeriodRay, b: Sequence[Scalar]
) -> Chamber:
    """Half-chamber of the pair (ray, b) relative to the wall of c.

    Computes s = (c - b) . h and returns C_plus for s < 0, C_minus for
    s > 0 and ON_WALL for s = 0. The result is stated relative to the
    supplied ray vector; callers composing with a component choice flip
    the label when ``component_sign`` is -1 (see
    :func:`classify_chamber_oriented`).
    """
    return _SIDE_CHAMBERS[_wall_sign(m, c, ray, b)]


def classify_chamber_oriented(
    m: ManifoldTopology, c: Sequence[int], ray: PeriodRay, b: Sequence[Scalar]
) -> Chamber:
    """Like :func:`classify_chamber`, composed with the ray's component
    choice: a component_sign of -1 swaps C_plus and C_minus."""
    result = classify_chamber(m, c, ray, b)
    return result if ray.component_sign == 1 else result.flipped()


def is_c_good(
    m: ManifoldTopology, c: Sequence[int], ray: PeriodRay, b: Sequence[Scalar]
) -> bool:
    """Whether (ray, b) avoids the wall of c, so no reducible solutions
    occur.

    For bplus = 1 the harmonic representative of c - b fails to be
    antiselfdual exactly when its pairing with the period ray is
    nonzero; for bplus > 1 the condition needs metric data unavailable
    here and a DomainError is raised.
    """
    return _wall_sign(m, c, ray, b) != 0
