"""Exception types shared across the package and the argument checks that raise them."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Scalar = int | Fraction


class DomainError(ValueError):
    """A precondition of an operation was violated.

    Raised when the caller's data lies outside an operation's stated
    domain (wrong chamber setting, inadmissible characteristic numbers,
    missing witness data, and so on). The command line maps this to
    exit code 2.
    """


class DimensionMismatchError(DomainError):
    """A vector or matrix does not match the ambient lattice rank."""


class InvalidTopologyError(DomainError):
    """Input data contradicts an identity valid for every closed
    oriented 4-manifold.

    Quantities like the expected dimension of the abelian monopole
    moduli space are integers whenever the input describes an actual
    manifold; a failed integrality or congruence check therefore means
    the data set is inconsistent, never that rounding is called for.
    """


class ManifoldFileError(Exception):
    """A manifold description file could not be parsed.

    Carries the 1-based line and column of the offending token when
    known. The command line maps this to exit code 3.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _as_integer(value, what: str) -> int:
    """value as an int; a non-integral value or a bool raises DomainError
    instead of being truncated. Integral rationals such as Fraction(4, 2) pass."""
    if type(value) is int:
        return value
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return n


def _as_fraction(value, what: str) -> Fraction:
    """value as a Fraction: an int or a Fraction keeps its value, an integral
    float is read as by :func:`_as_integer`, and a bool or anything else raises DomainError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
        raise DomainError(f"{what} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def _as_sign(value, what: str) -> int:
    """:func:`_as_integer` on value, which must then be +1 or -1."""
    sign = _as_integer(value, what)
    if sign not in (1, -1):
        raise DomainError(f"{what} must be +1 or -1, got {sign!r}")
    return sign


def _as_flag(value, what: str) -> bool:
    """value, which must be True or False; a truthy stand-in raises DomainError."""
    if type(value) is not bool:
        raise DomainError(f"{what} must be True or False, got {value!r}")
    return value


def _as_instance(value, kind: type, what: str):
    """value, which must be a kind; anything else raises DomainError."""
    if not isinstance(value, kind):
        raise DomainError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def _as_int_vector(values: Iterable, what: str) -> tuple[int, ...]:
    """:func:`_as_integer` on every entry; what names one entry."""
    values = tuple(values)
    if {int}.issuperset(map(type, values)):
        return values
    return tuple(_as_integer(v, what) for v in values)
