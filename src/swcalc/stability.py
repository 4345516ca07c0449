"""Exact stability predicates for sheaf pairs: slopes, the rank-2
oriented-pair test, parameter-stability intervals, and the
Hilbert-polynomial semistability inequality.

Everything here operates on caller-supplied numeric or polynomial
witness data (slopes, Hilbert polynomials, the maximal-kernel subsheaf,
finite subsheaf lists), not on sheaves themselves: the suprema and
infima in the definitions range over infinite families that no finite
program can enumerate, so this module is an exact inequality engine
plus witness bookkeeping. Completeness of a witness list is the
caller's obligation, and every predicate is stated relative to the
witnesses supplied.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import DomainError, Scalar, _as_flag, _as_fraction, _as_instance, _as_integer


class Stability(enum.Enum):
    STABLE = "stable"
    POLYSTABLE = "polystable"
    NEITHER = "neither"


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


@dataclass(frozen=True)
class HilbertPoly:
    """Polynomial with exact rational coefficients, stored ascending.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial has an empty coefficient tuple.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        normalized = [_as_fraction(v, "polynomial coefficient") for v in self.coeffs]
        while normalized and normalized[-1] == 0:
            normalized.pop()
        object.__setattr__(self, "coeffs", tuple(normalized))

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Scalar]) -> "HilbertPoly":
        return cls(tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __add__(self, other: "HilbertPoly") -> "HilbertPoly":
        if not isinstance(other, HilbertPoly):
            return NotImplemented
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return HilbertPoly(tuple(a + b for a, b in pairs))

    def __sub__(self, other: "HilbertPoly") -> "HilbertPoly":
        if not isinstance(other, HilbertPoly):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, factor: Scalar) -> "HilbertPoly":
        f = _as_fraction(factor, "scale factor")
        return HilbertPoly(tuple(f * v for v in self.coeffs))

    def evaluate(self, n: Scalar) -> Fraction:
        n, total = _as_fraction(n, "evaluation point"), Fraction(0)
        for coeff in reversed(self.coeffs):
            total = total * n + coeff
        return total


def poly_compare(p: HilbertPoly, q: HilbertPoly) -> Ordering:
    """Eventual-dominance order on polynomials: lexicographic comparison
    from the highest-degree coefficient downward.

    This is a total order compatible with addition, and for any two
    distinct polynomials it agrees with the sign of p(n) - q(n) for all
    sufficiently large n.
    """
    # p - q has its trailing zeros stripped, so its leading coefficient
    # is the highest one where p and q differ.
    lead = (_as_instance(p, HilbertPoly, "p") - _as_instance(q, HilbertPoly, "q")).leading
    if lead < 0:
        return Ordering.LESS
    if lead > 0:
        return Ordering.GREATER
    return Ordering.EQUAL


def _positive_rank(value, what: str) -> int:
    rank = _as_integer(value, what)
    if rank < 1:
        raise DomainError(f"{what} must be a positive integer, got {rank}")
    return rank


def slope(degree: Scalar, rank: int) -> Fraction:
    """Slope of a torsion-free sheaf: polarized degree over integer rank >= 1."""
    return _as_fraction(degree, "degree") / _positive_rank(rank, "rank")


def oriented_pair_status_rank2(
    phi_zero: bool,
    e_stability: Stability,
    mu_div: Optional[Fraction],
    mu_e: Scalar,
) -> Stability:
    """(Poly)stability of a rank-2 oriented pair from slope witnesses.

    With vanishing section the pair inherits the slope classification of
    the bundle. With a nonzero section the test is the strict slope
    inequality mu(divisorial zero component) < mu(bundle); supply
    ``mu_div`` exactly in that case. Only the difference of the two
    slopes matters, so simultaneous translation leaves the result
    unchanged.
    """
    _as_instance(e_stability, Stability, "e_stability")
    if _as_flag(phi_zero, "phi_zero"):
        if mu_div is not None:
            raise DomainError("mu_div must be omitted when the section vanishes")
        return e_stability
    if mu_div is None:
        raise DomainError("mu_div is required when the section is nonzero")
    if _as_fraction(mu_div, "mu_div") < _as_fraction(mu_e, "mu_e"):
        return Stability.STABLE
    return Stability.NEITHER


def rho_interval(
    m_under: Scalar, m_over: Scalar
) -> Optional[tuple[Fraction, Fraction]]:
    """Open interval of parameters certifying parameter-stability, or
    None when empty.

    ``m_under`` is the max of the bundle slope and the supplied subsheaf
    slopes, ``m_over`` the min of the supplied section-compatible
    quotient slopes; the caller computes both from finite witness lists.
    A nonempty interval means some parameter makes the pair stable;
    enlarging the witness lists can only shrink the interval.
    """
    lo, hi = _as_fraction(m_under, "m_under"), _as_fraction(m_over, "m_over")
    if lo < hi:
        return (lo, hi)
    return None


def framing_defect(
    p_e: HilbertPoly, rk_e: int, p_ker: HilbertPoly, rk_ker: int
) -> HilbertPoly:
    """Defect polynomial P_E - (rk_E / rk_ker) * P_ker of a non-injective
    framing, exact; both ranks must be positive integers."""
    _as_instance(p_e, HilbertPoly, "p_e")
    _as_instance(p_ker, HilbertPoly, "p_ker")
    rk_ker = _positive_rank(rk_ker, "kernel rank")
    return p_e - p_ker.scale(Fraction(_positive_rank(rk_e, "sheaf rank"), rk_ker))


@dataclass(frozen=True)
class PairProfile:
    """Witness data for one oriented sheaf pair.

    ``kermax`` is the (rank, Hilbert polynomial) of the maximal-kernel
    subsheaf of the framing, required whenever the framing is not
    injective; ``subsheaves`` lists the (rank, Hilbert polynomial) test
    objects against which semistability is checked. The predicate is
    relative to this list, and supplying every relevant subsheaf is the
    caller's responsibility.
    """

    rank: int
    hilbert: HilbertPoly
    phi_injective: bool
    epsilon_iso: bool
    kermax: Optional[tuple[int, HilbertPoly]] = None
    subsheaves: tuple[tuple[int, HilbertPoly], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rank", _positive_rank(self.rank, "pair rank"))
        for key in ("phi_injective", "epsilon_iso"):
            _as_flag(getattr(self, key), key)
        nonzero = "a nonzero sheaf needs a positive leading coefficient"
        _require_positive_leading(self.hilbert, "hilbert", nonzero)
        if self.kermax is not None:
            object.__setattr__(self, "kermax", self._witness(self.kermax, "kernel"))
        witnesses = (self._witness(w, "subsheaf") for w in self.subsheaves)
        object.__setattr__(self, "subsheaves", tuple(witnesses))

    def _witness(self, witness: tuple[int, HilbertPoly], what: str) -> tuple[int, HilbertPoly]:
        """witness as (rank, polynomial), the rank strictly between 0 and the pair's."""
        if not isinstance(witness, (tuple, list)) or len(witness) != 2:
            raise DomainError(f"{what} witness must be a (rank, polynomial) pair, got {witness!r}")
        rk = _as_integer(witness[0], f"{what} rank")
        if not 0 < rk < self.rank:
            raise DomainError(f"{what} rank must lie strictly between 0 and {self.rank}, got {rk}")
        return rk, _require_positive_leading(witness[1], f"{what} polynomial")


def _require_positive_leading(poly: HilbertPoly, slot: str, message: str = "") -> HilbertPoly:
    """poly, a HilbertPoly with a positive leading coefficient; slot names it."""
    if _as_instance(poly, HilbertPoly, slot).is_zero or poly.leading <= 0:
        raise DomainError(message or f"the {slot} must have a positive leading coefficient")
    return poly


def oriented_sheaf_semistable(profile: PairProfile) -> bool:
    """Semistability of an oriented sheaf pair relative to its witnesses.

    The pair is semistable when the framing is injective, or when the
    orientation is an isomorphism, the framing defect is nonnegative in
    the eventual-dominance order, and every supplied subsheaf (rk_F, P_F)
    satisfies (P_F - defect)/rk_F <= (P_E - defect)/rk_E. The strict
    stability refinement is not implemented.
    """
    if profile.phi_injective:
        return True
    if not profile.epsilon_iso:
        return False
    if profile.kermax is None:
        raise DomainError(
            "a non-injective framing needs the maximal-kernel subsheaf witness"
        )
    rk_ker, p_ker = profile.kermax
    defect = framing_defect(profile.hilbert, profile.rank, p_ker, rk_ker)
    if poly_compare(defect, HilbertPoly(())) is Ordering.LESS:
        return False
    # Cross-multiplied by the positive ranks to avoid rational division:
    # (P_F - defect)/rk_F <= (P_E - defect)/rk_E.
    bound = profile.hilbert - defect
    for rk_f, p_f in profile.subsheaves:
        lhs = (p_f - defect).scale(profile.rank)
        rhs = bound.scale(rk_f)
        if poly_compare(lhs, rhs) is Ordering.GREATER:
            return False
    return True
