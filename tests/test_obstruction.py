import random

import pytest

from multinv.errors import CapExceeded, GeneratorMismatch
from multinv.groups import GLattice, close
from multinv.intlinalg import IntMatrix
from multinv.obstruction import (
    INCONCLUSIVE,
    OBSTRUCTED,
    TRIVIALLY_CM,
    check_necessary_conditions,
    copies_verdict,
    direct_sum_copies,
    effective_reduction,
    rationally_isomorphic,
)
from multinv.reflections import moved_rank

from helpers import conjugated_lattice, cycle, random_unimodular, transposition

NEG3 = GLattice(3, [-IntMatrix.identity(3)], "neg3")
C4 = GLattice(3, [IntMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, -1]])], "c4")
C6 = GLattice(3, [IntMatrix.from_rows([[0, 0, -1], [-1, 0, 0], [0, -1, 0]])], "c6")


def sym_u_lattice(n):
    return GLattice(n, [transposition(0, 1, n), cycle(list(range(n)), n)], f"sym{n}_u{n}")


def root_lattice_action(n):
    """S_n acting on the rank n-1 sum-zero sublattice of U_n."""
    basis = IntMatrix.from_rows(
        [[1 if j == i else (-1 if j == i + 1 else 0) for j in range(n)] for i in range(n - 1)]
    )
    gens = []
    for p in [transposition(0, 1, n), cycle(list(range(n)), n)]:
        rows = []
        for i in range(n - 1):
            image = p.apply([basis.entry(i, j) for j in range(n)])
            coeffs = _in_basis(image, n)
            rows.append(coeffs)
        gens.append(IntMatrix.from_rows(rows).transpose())
    return GLattice(n - 1, gens, f"root_a{n - 1}")


def _in_basis(vec, n):
    # coordinates of a sum-zero vector in the standard root basis
    coeffs = []
    acc = 0
    for i in range(n - 1):
        acc += vec[i]
        coeffs.append(acc)
    return coeffs


class TestEffectiveReduction:
    def test_trivial_action(self):
        lat = GLattice(2, [IntMatrix.identity(2)], "t")
        red = effective_reduction(lat)
        assert red.rank == 0

    def test_s3_reduces_to_rank_2(self):
        red = effective_reduction(sym_u_lattice(3))
        assert red.rank == 2
        # the reduced action is rationally isomorphic to the root action
        assert rationally_isomorphic(red, root_lattice_action(3))

    def test_already_effective(self):
        assert effective_reduction(NEG3) is NEG3

    def test_idempotent(self):
        red = effective_reduction(sym_u_lattice(4))
        assert effective_reduction(red) is red


class TestRationalIsomorphism:
    def test_self(self):
        lat = sym_u_lattice(3)
        assert rationally_isomorphic(lat, lat)

    def test_u3_vs_trivial_plus_root(self):
        u3 = sym_u_lattice(3)
        root = root_lattice_action(3)
        padded = GLattice(
            3,
            [
                IntMatrix.from_rows(
                    [[1, 0, 0]] + [[0] + list(g.row(i)) for i in range(2)]
                )
                for g in root.generators
            ],
            "trivial+root_a2",
        )
        assert rationally_isomorphic(u3, padded)

    def test_dimension_mismatch(self):
        u3 = sym_u_lattice(3)
        double = GLattice(
            6, list(direct_sum_copies(u3, 2).generators), "u3+u3"
        )
        assert not rationally_isomorphic(u3, double)

    def test_inconsistent_pairing(self):
        # order 2 paired with order 3 closes to inconsistent group orders
        a = GLattice(2, [transposition(0, 1, 2)], "a")
        b = GLattice(3, [cycle([0, 1, 2], 3)], "b")
        with pytest.raises(GeneratorMismatch):
            rationally_isomorphic(a, b)

    def test_cap_overflow_is_cap_exceeded(self):
        # infinite unipotent pair: the paired closure must report the cap
        shear = GLattice(2, [IntMatrix.from_rows([[1, 1], [0, 1]])], "shear")
        with pytest.raises(CapExceeded):
            rationally_isomorphic(shear, shear, cap=20)


class TestDirectSumCopies:
    def test_single_copy(self):
        lat = sym_u_lattice(3)
        assert direct_sum_copies(lat, 1) is lat

    def test_moved_rank_scales(self):
        lat = GLattice(2, [transposition(0, 1, 2)], "swap")
        tripled = direct_sum_copies(lat, 3)
        assert tripled.rank == 6
        assert moved_rank(tripled.generators[0]) == 3

    def test_no_bireflections_in_three_copies(self):
        tripled = direct_sum_copies(sym_u_lattice(3), 3)
        g = close(tripled)
        assert all(
            g.moved_rank(i) >= 3 for i in range(g.order) if i != g.identity_index
        )


class TestVerdicts:
    def test_neg3_obstructed(self):
        rep = check_necessary_conditions(NEG3)
        assert rep.verdict == OBSTRUCTED
        assert not rep.condition_a
        top = rep.classes[0]
        assert top.order == 2
        assert top.bireflection_order == 1
        assert top.abelianization == (2,)
        assert top.witness == (0, 0, 0)

    def test_c4_obstructed(self):
        rep = check_necessary_conditions(C4)
        assert rep.verdict == OBSTRUCTED
        top = rep.classes[0]
        assert top.order == 4
        assert top.bireflection_order == 2
        assert top.abelianization == (4,)
        assert top.bireflection_image == (2,)

    def test_c6_obstructed(self):
        rep = check_necessary_conditions(C6)
        assert rep.verdict == OBSTRUCTED
        top = rep.classes[0]
        assert top.order == 6
        assert top.bireflection_order == 3

    def test_c6_cube_is_neg_identity(self):
        g = C6.generators[0]
        assert g * g * g == -IntMatrix.identity(3)

    def test_s3_inconclusive(self):
        rep = check_necessary_conditions(sym_u_lattice(3))
        assert rep.verdict == INCONCLUSIVE
        assert rep.condition_a and rep.condition_b

    def test_trivial_action(self):
        rep = check_necessary_conditions(GLattice(2, [IntMatrix.identity(2)], "t"))
        assert rep.verdict == TRIVIALLY_CM
        assert rep.reduction.trivial_action

    def test_rank_2_special_case(self):
        rep = check_necessary_conditions(GLattice(2, [-IntMatrix.identity(2)], "neg2"))
        assert rep.verdict == TRIVIALLY_CM
        assert rep.reduction.rank_at_most_2


class TestCopies:
    def test_s3_three_copies(self):
        assert copies_verdict(sym_u_lattice(3), 3).verdict == OBSTRUCTED

    def test_neg2_three_copies(self):
        assert copies_verdict(GLattice(2, [-IntMatrix.identity(2)], "neg2"), 3).verdict == OBSTRUCTED

    def test_trivial_three_copies(self):
        rep = copies_verdict(GLattice(2, [IntMatrix.identity(2)], "t"), 3)
        assert rep.verdict == TRIVIALLY_CM


def test_verdict_invariant_under_rational_isomorphism():
    u3 = sym_u_lattice(3)
    root = root_lattice_action(3)
    padded = GLattice(
        3,
        [
            IntMatrix.from_rows([[1, 0, 0]] + [[0] + list(g.row(i)) for i in range(2)])
            for g in root.generators
        ],
        "trivial+root_a2",
    )
    r1 = check_necessary_conditions(u3)
    r2 = check_necessary_conditions(padded)
    assert r1.verdict == r2.verdict
    assert [c.order for c in r1.classes] == [c.order for c in r2.classes]


def test_verdict_invariant_under_base_change():
    rng = random.Random(31)
    for lat in [NEG3, C4, C6, sym_u_lattice(3)]:
        base = check_necessary_conditions(lat)
        for _ in range(5):
            t = random_unimodular(lat.rank, rng)
            rep = check_necessary_conditions(conjugated_lattice(lat, t))
            assert rep.verdict == base.verdict
            assert [c.order for c in rep.classes] == [c.order for c in base.classes]
            assert [c.abelianization for c in rep.classes] == [
                c.abelianization for c in base.classes
            ]


def test_verdict_logic_consistent_across_builtins():
    from multinv.catalog import DEFAULT_BUILTINS, builtin

    for name in DEFAULT_BUILTINS:
        rep = check_necessary_conditions(builtin(name))
        special = rep.reduction.trivial_action or rep.reduction.rank_at_most_2
        if special:
            assert rep.verdict == TRIVIALLY_CM, name
        elif not (rep.condition_a and rep.condition_b):
            assert rep.verdict == OBSTRUCTED, name
        else:
            assert rep.verdict == INCONCLUSIVE, name
        assert rep.group_order >= 1
