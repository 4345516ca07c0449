"""Seeded input generator for the swcalc benchmark.

Everything here is plain integer arithmetic and never imports swcalc, so
the oracles can use the same values to check swcalc's answers.

Lattices are the blow-ups P2#k(-P2): the diagonal form diag(1, -1, ..., -1)
in the basis H, E_1..E_k, with K = -3H + sum E_i. A dense basis is a seeded
unimodular change of basis U (its columns are the new basis vectors in the
old coordinates), applied to every class at once: the form becomes U^T Q U
and each class vector x becomes U^-1 x. Cup tensors are those of
Sigma_g x S^2 in a seeded dense basis P of H^1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def matmul(a, b) -> Matrix:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def matvec(a, x) -> Vector:
    return tuple(sum(r * v for r, v in zip(row, x)) for row in a)


def transpose(a) -> Matrix:
    return tuple(zip(*a))


def pair(q, x, y):
    """x^T q y."""
    return sum(xi * qij * yj for xi, row in zip(x, q) for qij, yj in zip(row, y))


def _unitriangular(n: int, rng: random.Random, lower: bool) -> list[list[int]]:
    return [
        [1 if i == j else (rng.choice((-1, 0, 1)) if (i > j) == lower else 0) for j in range(n)]
        for i in range(n)
    ]


def _unitriangular_inverse(t: list[list[int]], lower: bool) -> list[list[int]]:
    # Solve t x = e_j column by column; the unit diagonal keeps it integral.
    n = len(t)
    inv = [[0] * n for _ in range(n)]
    order = range(n) if lower else range(n - 1, -1, -1)
    for j in range(n):
        x = [0] * n
        for i in order:
            known = range(i) if lower else range(i + 1, n)
            x[i] = (1 if i == j else 0) - sum(t[i][m] * x[m] for m in known)
        for i in range(n):
            inv[i][j] = x[i]
    return inv


def unimodular(n: int, rng: random.Random, det_sign: int = 1) -> tuple[Matrix, Matrix]:
    """A dense integer matrix U with det U = det_sign, and its inverse.

    U = R L with R upper and L lower unitriangular, entries in {-1, 0, 1};
    a negative det_sign flips the sign of the first column.
    """
    r = _unitriangular(n, rng, lower=False)
    low = _unitriangular(n, rng, lower=True)
    u = [list(row) for row in matmul(r, low)]
    inv = matmul(_unitriangular_inverse(low, True), _unitriangular_inverse(r, False))
    inv = [list(row) for row in inv]
    if det_sign < 0:
        for row in u:
            row[0] = -row[0]
        inv[0] = [-v for v in inv[0]]
    return tuple(map(tuple, u)), tuple(map(tuple, inv))


def minus_one_classes(k: int) -> list[Vector]:
    """Classes D = dH - sum a_i E_i with D^2 = -1 and K.D = -1, in the
    diagonal coordinates (d, -a_1, ..., -a_k), sorted.

    Such a class has d <= 6 for every k <= 8, and each a_i lies in [-1, d]:
    those are the bounds of the search.
    """
    found = []

    def extend(prefix, left, sq_left, sum_left, d):
        if left == 0:
            if sq_left == 0 and sum_left == 0:
                found.append((d,) + tuple(-a for a in prefix))
            return
        for a in range(-1, d + 1):
            if a * a <= sq_left:
                extend(prefix + (a,), left - 1, sq_left - a * a, sum_left - a, d)

    for d in range(0, 7):
        # D^2 = -1 gives sum a_i^2 = d^2 + 1; K.D = -1 gives sum a_i = 3d - 1.
        extend((), k, d * d + 1, 3 * d - 1, d)
    return sorted(found)


def effective_cone(k: int) -> list[Vector]:
    """Generators of the effective cone of P2 blown up at k <= 6 general points.

    For k >= 2 the (-1)-classes generate it. For k = 1 the only (-1)-class
    is E_1, and the ruling H - E_1 is added.
    """
    gens = minus_one_classes(k)
    if k == 1:
        gens.append((1, -1))
    return gens


@dataclass(frozen=True)
class Lattice:
    """P2#k(-P2) in some basis, with the classes the workloads use.

    ``to_diag`` is U: it maps coordinates in this basis back to the
    diagonal basis, where the oracles decide each table row.
    """

    name: str
    k: int
    form: Matrix
    w2: Vector
    canonical: Vector
    hyperplane: Vector
    ns_basis: Matrix
    cone: tuple[Vector, ...]
    to_diag: Matrix

    @property
    def minus_k(self) -> Vector:
        return tuple(-v for v in self.canonical)

    @property
    def euler(self) -> int:
        return 3 + self.k

    @property
    def signature(self) -> int:
        return 1 - self.k


def blowup(
    k: int,
    rng: Optional[random.Random] = None,
    name: Optional[str] = None,
    odd_w2: bool = False,
) -> Lattice:
    """P2#k(-P2), in the diagonal basis or, given rng, in a seeded dense basis.

    The dense basis U = U0 S is a fixed dense basis U0 of this rank whose
    vectors the seed reorders and flips in sign (S is a signed
    permutation). Each seed therefore writes the same lattice in other
    coordinates with entries of the same sizes, and a coordinate box such
    as [-3, 3]^n holds the same classes, so the cost of a workload does not
    depend on the seed. With odd_w2, U0 is chosen so that w2 stays all
    ones and such a box has as many points as in the diagonal basis
    (about 2^(k+1) draws of U0; use it for small k only).

    The dense basis moves every class: w2 (mod 2), K, H and the
    Neron-Severi basis vectors. Cone generators are stored in coordinates
    of the Neron-Severi basis, which moves with the lattice, so they keep
    their diagonal values while the basis rows become dense.
    """
    n = k + 1
    q = tuple(tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n)) for i in range(n))
    w2 = (1,) * n
    canonical = (-3,) + (1,) * k
    hyperplane = (1,) + (0,) * k
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    cone = tuple(effective_cone(k)) if k <= 6 else ()
    if rng is None:
        return Lattice(name or f"blowup{k}", k, q, w2, canonical, hyperplane, ident, cone, ident)
    fixed = random.Random(f"dense-basis:{k}:{odd_w2}")
    u0, u0_inv = unimodular(n, fixed)
    while odd_w2 and not all(v % 2 for v in matvec(u0_inv, w2)):
        u0, u0_inv = unimodular(n, fixed)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    u = tuple(tuple(signs[j] * row[perm[j]] for j in range(n)) for row in u0)
    u_inv = tuple(tuple(signs[j] * v for v in u0_inv[perm[j]]) for j in range(n))
    q = matmul(matmul(transpose(u), q), u)
    move = lambda x: matvec(u_inv, x)  # noqa: E731
    return Lattice(
        name or f"blowup{k}-dense",
        k,
        q,
        tuple(v % 2 for v in move(w2)),
        move(canonical),
        move(hyperplane),
        tuple(move(row) for row in ident),
        cone,
        u,
    )


def diag_coords(lat: Lattice, c) -> Vector:
    return matvec(lat.to_diag, c)


def inverse_map(lat: Lattice):
    """The map from diagonal coordinates to this lattice's basis.

    The Neron-Severi basis rows are the images of the diagonal basis
    vectors, so they are the columns of U^-1."""
    u_inv = transpose(lat.ns_basis)
    return lambda x: matvec(u_inv, x)


@dataclass(frozen=True)
class ProductSurface:
    """Sigma_g x S^2: b1 = 2g, H^2 basis (u, v) with u.v = 1, and the
    cup tensor T[i][j] = (0, J'_ij) for J' = P^T J P, P a seeded dense basis
    of H^1 and J the standard symplectic form."""

    g: int
    p_det: int
    cup: tuple[tuple[Vector, ...], ...] = field(repr=False)

    @property
    def b1(self) -> int:
        return 2 * self.g

    @property
    def euler(self) -> int:
        return 4 - 4 * self.g

    def wall_delta(self, c: Vector) -> int:
        """Closed form of the wall-crossing jump on the unit scalar test
        form: (-1)^g (c_2/2)^g det P when w_c = (c.c - 2 euler)/4 >= 0,
        and 0 below that."""
        if 2 * c[0] * c[1] - 2 * self.euler < 0:
            return 0
        return (-1) ** self.g * (c[1] // 2) ** self.g * self.p_det


def product_surface(g: int, rng: random.Random) -> ProductSurface:
    n = 2 * g
    j = [[0] * n for _ in range(n)]
    for i in range(g):
        j[2 * i][2 * i + 1] = 1
        j[2 * i + 1][2 * i] = -1
    det = rng.choice((1, -1))
    p, _ = unimodular(n, rng, det)
    jp = matmul(matmul(transpose(p), j), p)
    cup = tuple(tuple((0, jp[a][b]) for b in range(n)) for a in range(n))
    return ProductSurface(g, det, cup)


def characteristic_box(w2: Vector, lo: int, hi: int) -> list[Vector]:
    """Every c == w2 (mod 2) with all coordinates in [lo, hi], sorted."""
    out = [()]
    for w in w2:
        vals = [v for v in range(lo, hi + 1) if (v - w) % 2 == 0]
        out = [c + (v,) for c in out for v in vals]
    return out


def expected_dim(q, signature: int, euler: int, c) -> int:
    num = pair(q, c, c) - 3 * signature - 2 * euler
    assert num % 4 == 0, "characteristic data is inconsistent"
    return num // 4


def _vec(values) -> str:
    return ",".join(str(v) for v in values)


def lattice_text(lat: Lattice, kahler: bool, psc: bool) -> str:
    """Manifold file text in the canonical layout that swcalc emits."""
    out = [
        "[manifold]",
        f"name = {lat.name}",
        "b1 = 0",
        "bplus = 1",
        f"bminus = {lat.k}",
        f"euler = {lat.euler}",
        f"signature = {lat.signature}",
        "",
        "[intersection_form]",
        *(" ".join(str(v) for v in row) for row in lat.form),
        "",
        "[w2]",
        " ".join(str(v) for v in lat.w2),
        "",
        "[torsion]",
        "tors2_order = 1",
    ]
    if kahler:
        out += ["", "[kahler]", f"canonical_class = {_vec(lat.canonical)}"]
        out += [f"ns_basis = {_vec(row)}" for row in lat.ns_basis]
        out += [f"effective_cone = {_vec(gen)}" for gen in lat.cone]
        out += ["pg_zero = true", f"kahler_ray = {_vec(lat.minus_k)}"]
    if psc:
        out += ["", "[psc]", f"psc_ray = {_vec(lat.minus_k)}"]
    return "\n".join(out) + "\n"


def parse_text(text: str) -> dict:
    """Independent reader for manifold files, for comparing two texts.

    Returns each section as normalized data: key/value sections as dicts
    of token tuples (repeatable keys as lists), the form as rows, w2 as a
    tuple and the cup tensor as a dict over i < j. Rationals are read as
    Fractions so that '2/4' and '1/2' compare equal; component signs
    default to 1 as they do in the format.
    """
    sections: dict = {}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line[1:-1].strip()
            sections[section] = [] if section in ("intersection_form", "w2", "triple_cup") else {}
            continue
        if isinstance(sections[section], dict):
            key, _, value = (s.strip() for s in line.partition("="))
            if key in ("name", "pg_zero"):
                parsed = value
            else:
                parsed = tuple(Fraction(v) for v in value.split(","))
            if key in ("ns_basis", "effective_cone"):
                sections[section].setdefault(key, []).append(parsed)
            else:
                sections[section][key] = parsed
        else:
            sections[section].append(tuple(int(t) for t in line.split()))
    if "w2" in sections:
        sections["w2"] = tuple(v for row in sections["w2"] for v in row)
    cup = {}
    for i, j, k, v in sections.pop("triple_cup", []):
        if v:
            cup[(min(i, j), max(i, j), k)] = v if i < j else -v
    sections["triple_cup"] = cup
    for sec, key in (("kahler", "kahler_component_sign"), ("psc", "psc_component_sign")):
        if sec in sections:
            sections[sec].setdefault(key, (Fraction(1),))
    return sections
