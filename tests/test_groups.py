import math
import random
from itertools import product

import pytest

from multinv.errors import CapExceeded
from multinv.groups import (
    GLattice,
    abelian_invariants,
    abelianization,
    are_conjugate_subgroups,
    close,
    commutator_subgroup,
    element_order_histogram,
    full_subgroup,
    intersect_subgroups,
    is_perfect,
    subgroup_generated,
    trivial_subgroup,
)
from multinv.catalog import builtin
from multinv.errors import InvalidGenerator
from multinv.intlinalg import IntMatrix, snf
from multinv.isotropy import enumerate_isotropy_groups

from helpers import diag, transposition, cycle
from oracles import sympy_abelianization

C4 = IntMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, -1]])  # order 4, rank 3


def s3_group():
    lat = GLattice(3, [transposition(0, 1, 3), cycle([0, 1, 2], 3)], "s3")
    return close(lat)


class TestClose:
    def test_neg_identity(self):
        g = close(GLattice(3, [-IntMatrix.identity(3)]))
        assert g.order == 2

    def test_order4_matrix(self):
        g = close(GLattice(3, [C4]))
        assert g.order == 4

    def test_s3(self):
        assert s3_group().order == 6

    def test_cap(self):
        shear = IntMatrix.from_rows([[1, 1], [0, 1]])  # infinite order
        with pytest.raises(CapExceeded):
            close(GLattice(2, [shear]), cap=100)

    def test_rejects_singular_generator(self):
        with pytest.raises(InvalidGenerator):
            GLattice(2, [IntMatrix.from_rows([[2, 0], [0, 1]])])

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidGenerator):
            GLattice(3, [IntMatrix.identity(2)])


class TestSubgroups:
    def test_empty_seed(self):
        g = s3_group()
        assert subgroup_generated(g, []).order == 1

    def test_three_cycle(self):
        g = s3_group()
        rot = g.index_of(cycle([0, 1, 2], 3))
        assert subgroup_generated(g, [rot]).order == 3

    def test_square_of_order4(self):
        g = close(GLattice(3, [C4]))
        sq = g.index_of(C4 * C4)
        assert subgroup_generated(g, [sq]).order == 2

    def test_intersections(self):
        g = s3_group()
        h = subgroup_generated(g, [g.index_of(transposition(0, 1, 3))])
        k = subgroup_generated(g, [g.index_of(cycle([0, 1, 2], 3))])
        assert intersect_subgroups(h, h) == h
        assert intersect_subgroups(h, trivial_subgroup(g)).is_trivial()
        assert intersect_subgroups(h, k).is_trivial()


class TestCommutators:
    def test_abelian(self):
        g = close(GLattice(3, [C4]))
        assert commutator_subgroup(full_subgroup(g)).is_trivial()

    def test_s3(self):
        g = s3_group()
        k = commutator_subgroup(full_subgroup(g))
        assert k.order == 3
        # normality under conjugation by all of s3
        for x in range(g.order):
            assert all(g.conj(x, i) in k for i in k.indices)

    def test_perfect_flag(self):
        g = s3_group()
        assert not is_perfect(full_subgroup(g))
        assert is_perfect(trivial_subgroup(g))


class TestAbelianization:
    def test_cyclic4(self):
        g = close(GLattice(3, [C4]))
        assert abelianization(full_subgroup(g)) == (4,)

    def test_s3(self):
        assert abelianization(full_subgroup(s3_group())) == (2,)

    def test_klein(self):
        g = close(GLattice(2, [diag(-1, 1), diag(1, -1)]))
        assert abelianization(full_subgroup(g)) == (2, 2)

    def test_perfect_is_empty(self):
        g = s3_group()
        assert abelianization(trivial_subgroup(g)) == ()


def test_abelian_invariants_match_smith_factors():
    """Element orders of Z/n_1 x ... x Z/n_k against the Smith form of
    diag(n_1, ..., n_k), for k <= 3 and every n_i <= 8."""
    assert abelian_invariants([1]) == ()
    for k in range(1, 4):
        for ns in product(range(1, 9), repeat=k):
            orders = [
                math.lcm(*(n // math.gcd(a, n) for a, n in zip(element, ns)))
                for element in product(*(range(n) for n in ns))
            ]
            smith = tuple(abs(d) for d in snf(diag(*ns)).invariant_factors() if abs(d) > 1)
            assert abelian_invariants(orders) == smith, ns


@pytest.mark.parametrize("name", ["sym5_u5", "alt5_u5", "root_a4", "diag_sl4", "signed_root_s5"])
def test_abelianization_matches_sympy_on_catalog_classes(name):
    for cl in enumerate_isotropy_groups(close(builtin(name))).classes:
        assert abelianization(cl.subgroup) == sympy_abelianization(cl.subgroup), (name, cl.order)


class TestHistogram:
    def test_neg_identity(self):
        g = close(GLattice(2, [-IntMatrix.identity(2)]))
        assert element_order_histogram(g) == {1: 1, 2: 1}

    def test_s3(self):
        assert element_order_histogram(s3_group()) == {1: 1, 2: 3, 3: 2}


class TestConjugacy:
    def test_self(self):
        g = s3_group()
        h = subgroup_generated(g, [g.index_of(transposition(0, 1, 3))])
        assert are_conjugate_subgroups(g, h, h)

    def test_transpositions_conjugate(self):
        g = s3_group()
        h1 = subgroup_generated(g, [g.index_of(transposition(0, 1, 3))])
        h2 = subgroup_generated(g, [g.index_of(transposition(0, 2, 3))])
        assert are_conjugate_subgroups(g, h1, h2)

    def test_different_orders(self):
        g = s3_group()
        h1 = subgroup_generated(g, [g.index_of(transposition(0, 1, 3))])
        h2 = subgroup_generated(g, [g.index_of(cycle([0, 1, 2], 3))])
        assert not are_conjugate_subgroups(g, h1, h2)


def test_closure_idempotent():
    g = s3_group()
    seen = {m.entries for m in g.elements}
    for a in g.elements:
        for b in g.elements:
            assert (a * b).entries in seen


def test_lagrange_and_element_orders_random():
    rng = random.Random(2024)
    g = close(GLattice(4, [transposition(0, 1, 4), cycle([0, 1, 2, 3], 4)], "s4"))
    for _ in range(1000):
        seed = rng.sample(range(g.order), rng.randint(0, 3))
        h = subgroup_generated(g, seed)
        assert g.order % h.order == 0
        i = rng.randrange(g.order)
        assert g.order % g.element_order(i) == 0
        assert abs(g.element(i).det()) == 1


def test_abelianization_index_formula_random():
    rng = random.Random(99)
    g = close(GLattice(4, [transposition(0, 1, 4), cycle([0, 1, 2, 3], 4)], "s4"))
    for _ in range(50):
        seed = rng.sample(range(g.order), rng.randint(1, 2))
        h = subgroup_generated(g, seed)
        k = commutator_subgroup(h)
        factors = abelianization(h)
        assert math.prod(factors) == h.order // k.order


def test_cap_boundary_is_inclusive():
    neg = GLattice(2, [-IntMatrix.identity(2)], "neg2")
    assert close(neg, cap=2).order == 2
    with pytest.raises(CapExceeded):
        close(neg, cap=1)
