"""Dimension formulas, admissibility sets, and the validation report."""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from swcalc import (
    DimensionMismatchError,
    DomainError,
    InvalidTopologyError,
    ManifoldTopology,
    c2_spinor_bundle,
    characteristic_range,
    expected_dim_abelian,
    expected_dim_pu2,
    is_characteristic,
    require_characteristic,
    spin_sp1_admissible,
    spin_u2_admissible,
    spinc_count_per_chern,
    spinor_sup_bound,
    triple_cup_from_entries,
    uhlenbeck_strata,
    validate_topology,
)
from swcalc import topology
from swcalc.linalg import inertia, quadratic

from conftest import random_block_topology, random_characteristic


def test_validate_p2_is_clean(p2):
    assert validate_topology(p2) == []


def test_validate_catches_euler_identity(p2):
    bad = ManifoldTopology(
        name="P2", b1=0, bplus=1, bminus=0, euler=4, signature=1,
        intersection_form=((1,),), w2=(1,),
    )
    violations = validate_topology(bad)
    assert any("euler" in v for v in violations)
    extra = dataclasses.replace(p2, bminus=1)
    assert (
        "bplus + bminus = 2 does not match the intersection form size b2 = 1"
        in validate_topology(extra)
    )


def test_validate_catches_non_unimodular():
    bad = ManifoldTopology(
        name="bad", b1=0, bplus=1, bminus=0, euler=3, signature=1,
        intersection_form=((2,),), w2=(0,),
    )
    violations = validate_topology(bad)
    assert any("unimodular" in v for v in violations)


def test_validate_reports_det_of_non_symmetric_and_singular_forms():
    skew = ManifoldTopology(
        name="bad", b1=0, bplus=1, bminus=1, euler=4, signature=0,
        intersection_form=((1, 2), (0, 3)), w2=(1, 1),
    )
    violations = validate_topology(skew)
    assert "intersection form not symmetric at (1,2): 2 vs 0" in violations
    assert "intersection form not unimodular: det = 3" in violations
    singular = ManifoldTopology(
        name="bad", b1=0, bplus=1, bminus=1, euler=4, signature=0,
        intersection_form=((1, 1), (1, 1)), w2=(0, 0),
    )
    assert "intersection form not unimodular: det = 0" in validate_topology(singular)


def test_validate_catches_signature_and_w2(s2xs2):
    bad = ManifoldTopology(
        name="bad", b1=0, bplus=2, bminus=0, euler=4, signature=2,
        intersection_form=((0, 1), (1, 0)), w2=(1, 0),
    )
    violations = validate_topology(bad)
    assert any("eigenvalues" in v for v in violations)
    assert any("signature" in v for v in violations)
    assert any("characteristic" in v for v in violations)
    assert validate_topology(s2xs2) == []


def test_validate_catches_cup_antisymmetry():
    cup = (((1, 0), (1, 0)), ((1, 0), (0, 0)))
    bad = ManifoldTopology(
        name="bad", b1=2, bplus=1, bminus=1, euler=0, signature=0,
        intersection_form=((0, 1), (1, 0)), w2=(0, 0), triple_cup=cup,
    )
    assert any("antisymmetric" in v for v in validate_topology(bad))
    assert validate_topology(bad) == ["triple cup tensor not antisymmetric at (1,1,1)"]
    # A zero cell whose mirror is nonzero is named by the first of the two.
    bad = dataclasses.replace(bad, triple_cup=(((0, 0), (0, 0)), ((1, 0), (0, 0))))
    assert validate_topology(bad) == ["triple cup tensor not antisymmetric at (1,2,1)"]


def test_scalar_fields_refuse_to_truncate(p2):
    # tors2_order = 3/2 used to make spinc_count_per_chern return 3/2.
    for key in ("b1", "bplus", "bminus", "euler", "signature", "tors2_order"):
        for value in (Fraction(3, 2), 1.5):
            with pytest.raises(DomainError, match=f"^{key} must be an integer"):
                dataclasses.replace(p2, **{key: value})
    m = dataclasses.replace(p2, tors2_order=Fraction(4, 2))
    assert m.tors2_order == 2 and type(m.tors2_order) is int
    assert spinc_count_per_chern(m) == 2


def test_is_characteristic_examples(p2, s2xs2):
    assert is_characteristic(p2, (3,))
    assert not is_characteristic(p2, (2,))
    assert is_characteristic(s2xs2, (2, 4))
    with pytest.raises(DimensionMismatchError):
        is_characteristic(p2, (1, 1))


def test_expected_dim_abelian_p2(p2):
    assert expected_dim_abelian(p2, (3,)) == 0
    assert expected_dim_abelian(p2, (1,)) == -2
    # Direct evaluation of (49 - 9)/4; the Kahler module cross-checks
    # this against twice the dimension of the degree-2 linear system.
    assert expected_dim_abelian(p2, (7,)) == 10
    with pytest.raises(DomainError):
        expected_dim_abelian(p2, (2,))
    # Inconsistent characteristic numbers: c^2 = 1 against signature 5
    # breaks the mod-8 congruence, euler = 4 the divisibility by 4.
    with pytest.raises(InvalidTopologyError, match=r"c\^2 == signature \(mod 8\)"):
        expected_dim_abelian(dataclasses.replace(p2, signature=5), (1,))
    with pytest.raises(InvalidTopologyError, match="numerator -10 is not divisible by 4"):
        expected_dim_abelian(dataclasses.replace(p2, euler=4), (1,))


def test_characteristic_vectors_refuse_to_truncate(p2):
    # 7/2 used to become 3, a characteristic class with w = 0.
    half = (Fraction(7, 2),)
    for call in (
        lambda: require_characteristic(p2, half),
        lambda: expected_dim_abelian(p2, half),
        lambda: c2_spinor_bundle(p2, half, -1),
    ):
        with pytest.raises(DomainError, match="must be an integer"):
            call()
    assert require_characteristic(p2, (Fraction(6, 2),)) == (3,)
    assert type(require_characteristic(p2, (Fraction(6, 2),))[0]) is int
    assert expected_dim_abelian(p2, (Fraction(6, 2),)) == 0
    assert c2_spinor_bundle(p2, (Fraction(6, 2),), -1) == 3


def test_c2_spinor_bundle_examples(p2):
    assert c2_spinor_bundle(p2, (3,), +1) == 0
    assert c2_spinor_bundle(p2, (3,), -1) == 3
    with pytest.raises(DomainError):
        c2_spinor_bundle(p2, (3,), 2)
    # An integral float sign used to make the result the float 0.0.
    assert type(c2_spinor_bundle(p2, (3,), 1.0)) is int
    assert c2_spinor_bundle(p2, (3,), Fraction(-2, 2)) == 3
    with pytest.raises(DomainError, match="sign must be an integer, got 0.5"):
        c2_spinor_bundle(p2, (3,), 0.5)


def test_c2_difference_is_minus_euler():
    rng = random.Random(5)
    for _ in range(40):
        m = random_block_topology(rng, max_size=6)
        c = random_characteristic(rng, m)
        assert c2_spinor_bundle(m, c, +1) - c2_spinor_bundle(m, c, -1) == -m.euler


def test_spinc_count_reads_torsion(p2, s2xs2):
    assert spinc_count_per_chern(p2) == 1
    two = ManifoldTopology(
        name="t2", b1=0, bplus=1, bminus=1, euler=4, signature=0,
        intersection_form=s2xs2.intersection_form, w2=(0, 0), tors2_order=2,
    )
    assert spinc_count_per_chern(two) == 2
    four = ManifoldTopology(
        name="t4", b1=0, bplus=1, bminus=1, euler=4, signature=0,
        intersection_form=s2xs2.intersection_form, w2=(0, 0), tors2_order=4,
    )
    assert spinc_count_per_chern(four) == 4


def test_spin_sp1_admissible(p2, s2xs2):
    assert spin_sp1_admissible(p2, 1)
    assert not spin_sp1_admissible(p2, 2)
    assert spin_sp1_admissible(s2xs2, -8)
    assert spin_sp1_admissible(p2, -3)  # -3 == 1 (mod 4)


def test_spin_u2_admissible(p2, s2xs2):
    assert spin_u2_admissible(p2, -3, (4,))
    assert not spin_u2_admissible(p2, -2, (4,))
    assert spin_u2_admissible(s2xs2, 0, (0, 0))
    with pytest.raises(DimensionMismatchError):
        spin_u2_admissible(p2, 0, (0, 0))


def test_pu2_arithmetic_refuses_to_truncate(p2, s2xs2):
    half = Fraction(1, 2)
    for call in (
        lambda: spin_sp1_admissible(s2xs2, half),
        lambda: spin_u2_admissible(s2xs2, 2, (half, 2)),
        lambda: spin_u2_admissible(s2xs2, half, (0, 0)),
        lambda: expected_dim_pu2(s2xs2, 2, (half, 2)),
        lambda: uhlenbeck_strata(p2, Fraction(-7, 2), (4,)),
        lambda: uhlenbeck_strata(p2, -3, (4,), Fraction(3, 2)),
    ):
        with pytest.raises(DomainError, match="must be an integer"):
            call()
    whole = Fraction(4, 2)
    assert spin_sp1_admissible(p2, whole) == spin_sp1_admissible(p2, 2)
    assert spin_u2_admissible(s2xs2, whole, (whole, 0)) == spin_u2_admissible(s2xs2, 2, (2, 0))
    assert expected_dim_pu2(p2, -3, (Fraction(8, 2),)) == expected_dim_pu2(p2, -3, (4,))
    strata = uhlenbeck_strata(p2, Fraction(-6, 2), (4,))
    assert strata == uhlenbeck_strata(p2, -3, (4,))
    assert all(type(s.p1) is int for s in strata)
    # Integral floats used to give float dimensions, and a cap of 3/2
    # used to be truncated to 1.
    assert type(expected_dim_pu2(p2, -3, (4.0,))) is int
    assert type(expected_dim_pu2(p2, -3.0, (4,))) is int
    strata = uhlenbeck_strata(p2, -3.0, (4.0,))
    assert strata == uhlenbeck_strata(p2, -3, (4,))
    assert all(type(s.dim) is int for s in strata)
    assert uhlenbeck_strata(p2, -3, (4,), Fraction(4, 2)) == uhlenbeck_strata(p2, -3, (4,), 2)
    assert len(uhlenbeck_strata(p2, -3, (4,), Fraction(4, 2))) == 3
    assert uhlenbeck_strata(p2, -3, (4,), -1) == []
    with pytest.raises(DomainError, match=r"is not Spin\^U\(2\)-admissible"):
        expected_dim_pu2(p2, -6, (-5.0,))


def test_spin_u2_admissible_invariant_under_even_shift():
    rng = random.Random(13)
    for _ in range(60):
        m = random_block_topology(rng, max_size=6)
        c = [rng.randint(-4, 4) for _ in range(m.b2)]
        lifted = [w + v for w, v in zip(m.w2, c)]
        p = quadratic(m.intersection_form, lifted) + 4 * rng.randint(-3, 3)
        shift = [v + 2 * rng.randint(-2, 2) for v in c]
        assert spin_u2_admissible(m, p, c)
        assert spin_u2_admissible(m, p, shift)


def test_expected_dim_pu2_examples(p2):
    assert expected_dim_pu2(p2, -3, (4,)) == 6
    assert expected_dim_pu2(p2, 1, (4,)) == 0
    with pytest.raises(DomainError):
        expected_dim_pu2(p2, -2, (4,))
    with pytest.raises(InvalidTopologyError, match="numerator -19 is odd"):
        expected_dim_pu2(dataclasses.replace(p2, euler=4), 1, (0,))


def test_expected_dim_pu2_shift_by_four():
    rng = random.Random(17)
    for _ in range(40):
        m = random_block_topology(rng, max_size=6)
        c1 = [rng.randint(-4, 4) for _ in range(m.b2)]
        lifted = [w + v for w, v in zip(m.w2, c1)]
        p1 = quadratic(m.intersection_form, lifted) - 4 * rng.randint(0, 3)
        assert expected_dim_pu2(m, p1 + 4, c1) == expected_dim_pu2(m, p1, c1) - 6


def test_uhlenbeck_strata_plantiko(p2):
    assert uhlenbeck_strata(p2, -3, (4,)) == [(0, -3, 6), (1, 1, 4), (2, 5, 2), (3, 9, 0)]


def test_uhlenbeck_strata_empty_and_capped(p2):
    # chi = -8 here, so there is no stratum of nonnegative dimension.
    assert uhlenbeck_strata(p2, 1, (0,)) == []
    assert uhlenbeck_strata(p2, -3, (4,), max_level=1) == [(0, -3, 6), (1, 1, 4)]


def test_uhlenbeck_strata_recurrence(p2):
    strata = uhlenbeck_strata(p2, -3, (4,))
    for a, b in zip(strata, strata[1:]):
        assert b.p1 - a.p1 == 4
        assert b.dim - a.dim == -2


def test_spinor_sup_bound():
    assert spinor_sup_bound(-5) == 0
    assert spinor_sup_bound(0) == 0
    assert spinor_sup_bound(Fraction(7, 2)) == Fraction(7, 2)


def test_van_der_blij_small_suite():
    rng = random.Random(29)
    for _ in range(200):
        m = random_block_topology(rng)
        c = random_characteristic(rng, m)
        assert (quadratic(m.intersection_form, c) - m.signature) % 8 == 0


def test_dim_parity_small_suite():
    rng = random.Random(31)
    for _ in range(200):
        m = random_block_topology(rng, b1=rng.randint(0, 3))
        c = random_characteristic(rng, m)
        num = Fraction(
            quadratic(m.intersection_form, c) - 3 * m.signature - 2 * m.euler, 4
        )
        assert num.denominator == 1
        w = expected_dim_abelian(m, c)
        assert w == num
        assert (w - (1 + m.b1 + m.bplus)) % 2 == 0


def test_characteristic_range(p2, s2xs2, monkeypatch):
    assert characteristic_range(p2, -3, 3) == [(-3,), (-1,), (1,), (3,)]
    values = characteristic_range(s2xs2, -2, 2)
    assert (0, 0) in values and (-2, 2) in values
    assert all(is_characteristic(s2xs2, c) for c in values)
    # Non-integral bounds used to raise a bare TypeError from range.
    with pytest.raises(DomainError, match=r"cmin must be an integer, got Fraction\(-3, 2\)"):
        characteristic_range(p2, Fraction(-3, 2), 3)
    with pytest.raises(DomainError, match="cmax must be an integer, got 2.5"):
        characteristic_range(p2, -3, 2.5)
    values = characteristic_range(p2, -3.0, Fraction(6, 2))
    assert values == [(-3,), (-1,), (1,), (3,)]
    assert all(type(v) is int for c in values for v in c)
    monkeypatch.setattr(topology, "_RANGE_LIMIT", 3)
    with pytest.raises(DomainError):
        characteristic_range(s2xs2, -2, 2)


def test_characteristic_range_matches_filtered_box(monkeypatch):
    # Oracle: every vector of the box, kept when each entry has the
    # parity of its w2 entry; empty boxes (cmin > cmax) included.
    for n in range(4):
        form = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for w2 in itertools.product((0, 1), repeat=n):
            m = ManifoldTopology(
                name="box", b1=0, bplus=n, bminus=0, euler=n + 2, signature=n,
                intersection_form=form, w2=w2,
            )
            for cmin, cmax in itertools.product(range(-4, 5), repeat=2):
                box = itertools.product(range(cmin, cmax + 1), repeat=n)
                expected = [
                    c for c in box if all((v - w) % 2 == 0 for v, w in zip(c, w2))
                ]
                assert characteristic_range(m, cmin, cmax) == expected
                count = len(expected)
                with monkeypatch.context() as patch:
                    patch.setattr(topology, "_RANGE_LIMIT", count)
                    assert characteristic_range(m, cmin, cmax) == expected
                    if count:
                        # count = limit + 1 vectors is one too many.
                        patch.setattr(topology, "_RANGE_LIMIT", count - 1)
                        with pytest.raises(DomainError):
                            characteristic_range(m, cmin, cmax)


def _k3_like() -> ManifoldTopology:
    # Two negative-definite E8 blocks plus three hyperbolic planes: the
    # even unimodular lattice of signature -16 in rank 22.
    e8 = [
        [2, -1, 0, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, 0, 0, 0, 0],
        [0, 0, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, -1],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, 0],
        [0, 0, 0, 0, -1, 0, 0, 2],
    ]
    n = 22
    q = [[0] * n for _ in range(n)]
    for block_start in (0, 8):
        for i in range(8):
            for j in range(8):
                q[block_start + i][block_start + j] = -e8[i][j]
    for pair_start in (16, 18, 20):
        q[pair_start][pair_start + 1] = 1
        q[pair_start + 1][pair_start] = 1
    return ManifoldTopology(
        name="K3", b1=0, bplus=3, bminus=19, euler=24, signature=-16,
        intersection_form=tuple(tuple(row) for row in q), w2=(0,) * n,
    )


def test_k3_lattice_validates_and_has_zero_dimensional_core():
    k3 = _k3_like()
    assert validate_topology(k3) == []
    # The trivial class is characteristic on the even lattice, with a
    # zero-dimensional expected moduli space.
    zero = (0,) * 22
    assert is_characteristic(k3, zero)
    assert expected_dim_abelian(k3, zero) == 0
    assert c2_spinor_bundle(k3, zero, +1) == 0
    assert c2_spinor_bundle(k3, zero, -1) == 24
    assert spin_sp1_admissible(k3, -4)
    assert not spin_sp1_admissible(k3, 2)


def _dense_blowup(k: int) -> ManifoldTopology:
    """P2#k(-P2), diag(1, -1, ..., -1), in a fixed dense basis: 3(k + 1)
    seeded basis changes e_i -> e_i + s e_j (s = +-1), each applied to the
    form as a row and column operation and to w2 by the inverse change."""
    n = k + 1
    q = [[(1 if i == 0 else -1) if i == j else 0 for j in range(n)] for i in range(n)]
    w2 = [1] * n
    rng = random.Random(f"dense-blowup:{k}")
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        q[i] = [x + s * y for x, y in zip(q[i], q[j])]
        for row in q:
            row[i] += s * row[j]
        w2[j] = (w2[j] + w2[i]) % 2
    return ManifoldTopology(
        name=f"P2#{k}-P2 dense", b1=0, bplus=1, bminus=k, euler=3 + k,
        signature=1 - k, intersection_form=q, w2=w2,
    )


@pytest.mark.parametrize("k", [21, 39])
def test_validate_dense_blowups_at_benchmark_rank(k):
    m = _dense_blowup(k)
    q = [list(row) for row in m.intersection_form]
    assert sum(1 for row in q for v in row if v) > len(q) ** 2 // 2
    assert validate_topology(m) == []
    assert inertia(q) == (1, k, 0)
    q[0][1] += 1
    q[1][0] += 1
    bad = ManifoldTopology(
        name=m.name, b1=0, bplus=1, bminus=k, euler=m.euler,
        signature=m.signature, intersection_form=q, w2=m.w2,
    )
    assert any("not unimodular" in v for v in validate_topology(bad))


def test_validate_symmetric_form_needs_no_separate_determinant(monkeypatch):
    def no_determinant(q):
        raise AssertionError("determinant called on a symmetric form")

    monkeypatch.setattr("swcalc.topology.determinant", no_determinant)
    assert validate_topology(_dense_blowup(21)) == []


def test_construction_rejects_malformed_shapes(t2xs2):
    with pytest.raises(ValueError):
        ManifoldTopology(
            name="bad", b1=0, bplus=1, bminus=0, euler=3, signature=1,
            intersection_form=((1, 0),), w2=(1,),
        )
    with pytest.raises(ValueError):
        ManifoldTopology(
            name="bad", b1=0, bplus=1, bminus=0, euler=3, signature=1,
            intersection_form=((1,),), w2=(2,),
        )
    with pytest.raises(ValueError):
        ManifoldTopology(
            name="bad", b1=0, bplus=1, bminus=0, euler=3, signature=1,
            intersection_form=((1,),), w2=(1,), tors2_order=0,
        )
    with pytest.raises(ValueError, match="w2 has length 2, expected b2 = 1"):
        ManifoldTopology(
            name="bad", b1=0, bplus=1, bminus=0, euler=3, signature=1,
            intersection_form=((1,),), w2=(1, 0),
        )
    # A dense cup tensor needs b1 planes of b1 rows of length b2 and
    # integer cells; entries need in-range, distinct indices.
    dense = (((0, 0), (1, 0)), ((-1, 0), (0, 0)))
    for cup in (dense[:1], (dense[0], ((-1,), (0, 0)))):
        with pytest.raises(ValueError, match="must have shape b1 x b1 x b2"):
            dataclasses.replace(t2xs2, triple_cup=cup)
    with pytest.raises(DomainError, match="triple cup entry must be an integer"):
        dataclasses.replace(t2xs2, triple_cup=(dense[0], ((Fraction(-1, 2), 0), (0, 0))))
    for cup, message in [
        (((1, 2, 3, 1),), r"triple cup index \(1,2,3\) out of range"),
        (((1, 2, 1, 1), (1, 2, 1, 0)), r"duplicate triple cup entry for \(1,2,1\)"),
        (((1, 2),), r"triple cup entry must be \(i, j, k, value\), got \(1, 2\)"),
        # The dense-tensor probe reads no entry that is not a sequence.
        ((5,), r"triple cup entry must be \(i, j, k, value\), got 5"),
        (((1, 2, 1, 1), 5), r"triple cup entry must be \(i, j, k, value\), got 5"),
    ]:
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(t2xs2, triple_cup=cup)
    from_dense = dataclasses.replace(t2xs2, triple_cup=dense)
    assert from_dense == t2xs2
    assert from_dense.triple_cup == t2xs2.triple_cup == ((1, 2, 1, 1), (2, 1, 1, -1))
    assert hash(from_dense) == hash(t2xs2)


@pytest.mark.parametrize(
    "entries, message",
    [
        ([(3, 1, 1, 1)], r"triple cup index \(3,1,1\) out of range"),
        ([(1, 2, 1, 1), (1, 2, 3, 1)], r"triple cup index \(1,2,3\) out of range"),
        ([(1, 1, 2, 1)], r"triple cup entry \(1,1,2\) must vanish by antisymmetry"),
        ([(1, 2, 1, 1), (1, 2, 1, 2)], r"duplicate triple cup entry for \(1,2,1\)"),
        # The mirror (2, 1, 1, -1) of the first entry is already filled in.
        ([(1, 2, 1, 1), (2, 1, 1, -1)], r"duplicate triple cup entry for \(2,1,1\)"),
        # A diagonal entry outside the index range is a range error.
        ([(5, 5, 1, 1)], r"triple cup index \(5,5,1\) out of range"),
        ([(1,)], r"triple cup entry must be \(i, j, k, value\), got \(1,\)"),
        # Zero entries still fill their mirrors, so the pair is a repeat.
        ([(1, 2, 1, 0), (2, 1, 1, 0)], r"duplicate triple cup entry for \(2,1,1\)"),
        # An entry that is not iterable.
        ([5], r"triple cup entry must be \(i, j, k, value\), got 5"),
        ([(1, 2, 1, 1), None], r"triple cup entry must be \(i, j, k, value\), got None"),
    ],
)
def test_cup_entries_name_their_single_fault(entries, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        triple_cup_from_entries(2, 2, entries)


def test_cup_entries_fill_mirrors_and_drop_zeros():
    entries = [(2, 1, 2, 3), (1, 1, 1, 0), (1, 2, 1, 0)]
    assert triple_cup_from_entries(2, 2, entries) == ((1, 2, 2, -3), (2, 1, 2, 3))
