"""Integer exterior algebra on H^1/Tors and the universal wall-crossing
difference.

Multivectors are sparse integer combinations of basis wedges
a_S = a_{s1} ^ ... ^ a_{sr} indexed by strictly increasing subsets S of
{1..b1}. The two operations that consume them are :func:`cup_form`,
the degree-2 form pairing two H^1 classes through the triple cup
product with a characteristic element, and
:func:`wall_crossing_delta`, the jump of the invariant pair across the
wall of c evaluated on a test multivector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .chambers import OrientationData
from .errors import DimensionMismatchError, DomainError, InvalidTopologyError
from .linalg import _pfaffian
from .topology import IntVector, ManifoldTopology, _as_int_vector, _as_integer
from .topology import characteristic_square, require_characteristic, spinor_c2

Key = tuple[int, ...]


def _validate_key(key: Key, b1: int) -> Key:
    key = _as_int_vector(key, "form index")
    if any(not 1 <= i <= b1 for i in key):
        raise ValueError(f"index set {key} out of range 1..{b1}")
    if any(a >= b for a, b in zip(key, key[1:])):
        raise ValueError(f"index set {key} must be strictly increasing")
    return key


@dataclass(frozen=True)
class ExtForm:
    """Element of the integer exterior algebra on b1 generators.

    ``coeffs`` maps strictly increasing index tuples to nonzero integer
    coefficients; absent keys are zero, and the zero form has an empty
    map. Instances are normalized on construction and treated as
    immutable.
    """

    b1: int
    coeffs: Mapping[Key, int]

    def __post_init__(self):
        object.__setattr__(self, "b1", _as_integer(self.b1, "b1"))
        if self.b1 < 0:
            raise ValueError("b1 must be nonnegative")
        normalized = {}
        for key, value in self.coeffs.items():
            key = _validate_key(key, self.b1)
            value = _as_integer(value, "form coefficient")
            if value:
                normalized[key] = value
        object.__setattr__(self, "coeffs", normalized)

    @classmethod
    def scalar(cls, b1: int, value: int) -> "ExtForm":
        return cls(b1, {(): value})

    @classmethod
    def term(cls, b1: int, indices: Sequence[int], value: int = 1) -> "ExtForm":
        return cls(b1, {tuple(indices): value})

    def coefficient(self, indices: Sequence[int]) -> int:
        return self.coeffs.get(tuple(indices), 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous form, None for zero, error if mixed."""
        degs = {len(key) for key in self.coeffs}
        if not degs:
            return None
        if len(degs) > 1:
            raise DomainError(f"form is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def _check_compatible(self, other: "ExtForm") -> None:
        if self.b1 != other.b1:
            raise DimensionMismatchError(
                f"forms live on different algebras: b1 = {self.b1} vs {other.b1}"
            )

    def __add__(self, other: "ExtForm") -> "ExtForm":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, 0) + value
        return ExtForm(self.b1, out)

    def __rmul__(self, scalar: int) -> "ExtForm":
        return ExtForm(self.b1, {k: scalar * v for k, v in self.coeffs.items()})

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs, key=lambda k: (len(k), k)):
            value = self.coeffs[key]
            basis = "^".join(f"a{i}" for i in key) if key else "1"
            parts.append(f"{value:+d}*{basis}")
        return " ".join(parts)


def _merge_sign(left: Key, right: Key) -> int:
    # Number of transpositions moving the concatenation into increasing
    # order; the index sets are disjoint, so it is the inversion count.
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions % 2 else 1


def wedge(x: ExtForm, y: ExtForm) -> ExtForm:
    """Exterior product with shuffle signs.

    Bilinear, associative and graded-commutative:
    x ^ y = (-1)^(deg x * deg y) y ^ x on homogeneous forms.
    """
    x._check_compatible(y)
    out: dict[Key, int] = {}
    for ka, va in x.coeffs.items():
        set_a = set(ka)
        for kb, vb in y.coeffs.items():
            if set_a.intersection(kb):
                continue
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, 0) + va * vb * _merge_sign(ka, kb)
    return ExtForm(x.b1, out)


def wedge_power(x: ExtForm, k: int) -> ExtForm:
    k = _as_integer(k, "wedge power exponent")
    if k < 0:
        raise DomainError("wedge power wants a nonnegative exponent")
    result = ExtForm.scalar(x.b1, 1)
    for _ in range(k):
        result = wedge(result, x)
    return result


def cup_form(m: ManifoldTopology, c: Sequence[int]) -> ExtForm:
    """Degree-2 integer form sending a_i ^ a_j to half the cup number
    sum_k c_k * <a_i u a_j u e_k, [X]>.

    For characteristic c the pairing is even; an odd value signals
    inconsistent input and raises InvalidTopologyError instead of
    rounding.
    """
    return ExtForm(m.b1, _cup_form(m, require_characteristic(m, c)))


def _cup_form(m: ManifoldTopology, c: IntVector) -> dict[Key, int]:
    """:func:`cup_form` as a map {(i, j): value}, i < j, for a checked c."""
    # The stored entries are sorted, so the pairs come in (i, j) order.
    totals: dict[Key, int] = {}
    for i, j, k, v in m.triple_cup:
        if i < j:
            totals[(i, j)] = totals.get((i, j), 0) + c[k - 1] * v
    for (i, j), total in totals.items():
        if total % 2:
            raise InvalidTopologyError(
                f"cup pairing of (a_{i}, a_{j}) with c is odd ({total}); "
                "the half-integral form does not exist for this data"
            )
    return {key: total // 2 for key, total in totals.items()}


def wall_crossing_delta(
    m: ManifoldTopology,
    c: Sequence[int],
    test_form: ExtForm,
    orient: OrientationData = OrientationData(),
) -> int:
    """Jump of the invariant pair across the wall of c, evaluated on a
    homogeneous test multivector of degree r.

    For r <= min(b1, w_c) the value is
    (-1)^k / k! * <test_form ^ cup_form^k, generator(o1_sign)> with
    k = (b1 - r) / 2, where the pairing extracts the top-degree
    coefficient against o1_sign * a_1 ^ ... ^ a_b1; the difference
    vanishes for r > min(b1, w_c). For test_form = sum_S theta_S a_S the
    top coefficient of test_form ^ cup_form^k / k! is the integer
    sum_S theta_S (-1)^(sum_i (s_i - i)) Pf(cup_form on the complement of
    S), so a call costs the number of test-form terms times O(b1^3).

    Requires bplus = 1 and the degree parity r == w_c (mod 2); a parity
    mismatch is rejected rather than treated as zero.
    """
    if m.bplus != 1:
        raise DomainError(
            f"wall crossing requires bplus = 1, got bplus = {m.bplus}"
        )
    if test_form.b1 != m.b1:
        raise DimensionMismatchError(
            f"test form has b1 = {test_form.b1}, manifold has b1 = {m.b1}"
        )
    c = _as_int_vector(c, "characteristic vector entry")
    w = spinor_c2(m, characteristic_square(m, c), 1)
    return wall_crossing_jump(m, c, w, test_form, orient.o1_sign)


def wall_crossing_jump(
    m: ManifoldTopology, c: IntVector, w: int, test_form: ExtForm, o1_sign: int
) -> int:
    """:func:`wall_crossing_delta` for a checked characteristic c with
    expected dimension w, a test form on b1 generators and bplus = 1."""
    if test_form.is_zero:
        return 0
    r = test_form.degree()
    if (r - w) % 2:
        raise DomainError(
            f"test form degree r = {r} must have the parity of the expected "
            f"dimension w = {w}"
        )
    if r > min(m.b1, w):
        return 0
    if (m.b1 - r) % 2:
        raise InvalidTopologyError(
            f"b1 - r = {m.b1 - r} is odd although r == w (mod 2); "
            "the Betti data is inconsistent"
        )
    n = m.b1
    omega = [[0] * n for _ in range(n)]
    for (i, j), v in _cup_form(m, c).items():
        omega[i - 1][j - 1], omega[j - 1][i - 1] = v, -v
    top = 0
    for s, theta in test_form.coeffs.items():
        rest = [i for i in range(n) if i + 1 not in s]
        pf = _pfaffian([[omega[i][j] for j in rest] for i in rest])
        # a_S ^ a_rest = (-1)^(sum of s_i - i) a_1 ^ ... ^ a_b1.
        top += (-1) ** (sum(s) - r * (r + 1) // 2) * theta * pf
    return (-1) ** ((n - r) // 2) * o1_sign * top
