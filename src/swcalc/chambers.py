"""Chamber geometry for manifolds with one positive direction in H^2.

When b+ = 1, the invariants depend on a chamber structure: for a
characteristic element c, the wall is the locus (c - b) . h = 0 inside
(period point, twisting class) pairs, and its complement has the two
half-chambers C_plus and C_minus relative to a chosen hyperbola
component. Period points are modeled as unnormalized rational rays,
which is enough because every predicate here only uses the sign of a
linear pairing against the ray and is therefore invariant under
positive rescaling. Every wall sign in the package is the sign of
x . u for the one functional u of :func:`wall_vector`, which is also the
one check that a ray is a period ray: each caller checks a ray once and
reads its functional from that check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import DimensionMismatchError, DomainError, Scalar, _as_fraction, _as_sign
from .linalg import _integer_rows, dot, matvec
from .topology import ManifoldTopology, _b2_vector, require_characteristic


class Chamber(enum.Enum):
    """Position of a (ray, twisting class) pair relative to the wall of c."""

    C_PLUS = "C_plus"
    C_MINUS = "C_minus"
    ON_WALL = "on_wall"


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
        object.__setattr__(self, "h", tuple(_as_fraction(v, "period ray entry") for v in self.h))
        object.__setattr__(self, "component_sign", _as_sign(self.component_sign, "component_sign"))


@dataclass(frozen=True)
class OrientationData:
    """Orientation conventions entering wall crossing.

    ``o1_sign`` orients H^1(X,R) by fixing the generator
    o1_sign * a_1 ^ ... ^ a_b1 of its top exterior power.
    """

    o1_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "o1_sign", _as_sign(self.o1_sign, "o1_sign"))


def wall_vector(m: ManifoldTopology, ray: PeriodRay) -> list[int]:
    """The wall functional of a period ray of m, after the one check that
    ray is one (a PeriodRay, length b2, positive square; else DomainError):
    u = q h scaled to integers by a positive factor, times the component
    sign. The sign of x . u is the side, relative to the designated
    component, of the wall orthogonal to x on which the ray lies. With
    h = h'/d, h' integer, u = v / gcd(d, v) for v = q h', the least such scale."""
    if not isinstance(ray, PeriodRay):
        raise DomainError(f"period ray must be a PeriodRay, got {ray!r}")
    if len(ray.h) != m.b2:
        raise DimensionMismatchError(f"period ray has length {len(ray.h)}, expected b2 = {m.b2}")
    (h,), (d,) = _integer_rows([ray.h])
    v = matvec(m.intersection_form, h)
    square = dot(h, v)
    if square <= 0:
        raise DomainError(
            f"period ray must have positive square, got h.h = {Fraction(square, d * d)}"
        )
    common = gcd(d, *v)
    return [ray.component_sign * x // common for x in v]


def require_one_component(m: ManifoldTopology, psc_ray: PeriodRay, kahler_ray: PeriodRay) -> None:
    """Raise unless the two rays designate one hyperbola component. For
    bplus = 1 and period rays, they do iff their component-signed pairing
    is positive (never 0)."""
    if psc_ray.component_sign * dot(psc_ray.h, wall_vector(m, kahler_ray)) < 0:
        raise DomainError(
            "the PSC ray and the Kahler ray designate different hyperbola "
            "components; the two pipelines would use different orientation data"
        )


def _twisted_sign(x: Sequence[int], u: Sequence[int], b: Sequence) -> int:
    """Sign of (x - b) . u, u a ray's wall functional, for a twisting
    class b of length b2."""
    diff = [xi - _as_fraction(bi, "twisting class entry") for xi, bi in zip(x, b)]
    s = dot(diff, u)
    return (s > 0) - (s < 0)


def classify_chamber_oriented(
    m: ManifoldTopology, c: Sequence[int], ray: PeriodRay, b: Sequence[Scalar]
) -> Chamber:
    """Half-chamber of the pair (ray, b) relative to the wall of c.

    With s = (c - b) . h, returns C_plus for s < 0, C_minus for s > 0 and
    ON_WALL for s = 0; a component_sign of -1 swaps C_plus and C_minus.
    """
    if m.bplus != 1:
        raise DomainError(
            f"chamber predicates require bplus = 1, got bplus = {m.bplus}; "
            "for bplus > 1 the wall condition depends on metric data"
        )
    c = require_characteristic(m, c)
    b = _b2_vector(m, b, "twisting class")
    return _SIDE_CHAMBERS[_twisted_sign(c, wall_vector(m, ray), b)]


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
    return classify_chamber_oriented(m, c, ray, b) is not Chamber.ON_WALL
