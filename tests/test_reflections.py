import random

import pytest
from sympy import isprime, primerange

from multinv.catalog import DEFAULT_BUILTINS, builtin
from multinv.groups import (
    GLattice,
    Subgroup,
    close,
    commutator_subgroup,
    subgroup_generated,
)
from multinv.intlinalg import IntMatrix
from multinv.isotropy import enumerate_isotropy_groups, fixed_lattice
from multinv.obstruction import check_necessary_conditions, effective_reduction
from multinv.reflections import bireflection_subgroup

from helpers import cycle, transposition
from oracles import difference_rank, index_of, moved_rank, moved_rank_subgroup

C4 = IntMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, -1]])


def sym_u_lattice(n):
    return GLattice(n, [transposition(0, 1, n), cycle(list(range(n)), n)], f"s{n}")


def sym_u(n):
    return close(sym_u_lattice(n))


def rows_by_order(lat):
    """Condition rows of the report, keyed by isotropy order (distinct in
    the groups used here)."""
    rows = check_necessary_conditions(lat).classes
    by_order = {row.order: row for row in rows}
    assert len(by_order) == len(rows)
    return by_order


class TestMovedRank:
    def test_identity(self):
        assert moved_rank(IntMatrix.identity(4)) == 0

    def test_transpositions_are_reflections(self):
        for n in range(3, 7):
            for i in range(n):
                for j in range(i + 1, n):
                    assert moved_rank(transposition(i, j, n)) == 1

    def test_three_cycles_are_bireflections(self):
        for n in range(3, 7):
            assert moved_rank(cycle([0, 1, 2], n)) == 2


class TestMovedRankSubgroup:
    def test_trivial(self):
        g = sym_u(3)
        assert moved_rank_subgroup(Subgroup(g, [g.identity_index])) == 0

    def test_neg_identity(self):
        g = close(GLattice(3, [-IntMatrix.identity(3)]))
        assert moved_rank_subgroup(Subgroup(g, range(g.order))) == 3

    def test_square_of_c4(self):
        g = close(GLattice(3, [C4]))
        h = subgroup_generated(g, [index_of(g, C4 * C4)])
        assert moved_rank_subgroup(h) == 2


class TestXk:
    """Membership in X_k: the subgroup moves a sublattice of rank <= k."""

    def test_trivial_in_all(self):
        g = sym_u(3)
        for k in range(4):
            assert moved_rank_subgroup(Subgroup(g, [g.identity_index])) <= k

    def test_reflection_subgroup(self):
        g = sym_u(3)
        h = subgroup_generated(g, [index_of(g, transposition(0, 1, 3))])
        assert moved_rank_subgroup(h) <= 1

    def test_neg_identity_not_x2(self):
        g = close(GLattice(3, [-IntMatrix.identity(3)]))
        assert not moved_rank_subgroup(Subgroup(g, range(g.order))) <= 2


class TestBireflectionSubgroup:
    def test_s3_generated_by_reflections(self):
        g = sym_u(3)
        assert bireflection_subgroup(Subgroup(g, range(g.order))).order == 6

    def test_neg_identity_trivial(self):
        g = close(GLattice(3, [-IntMatrix.identity(3)]))
        assert bireflection_subgroup(Subgroup(g, range(g.order))).is_trivial()

    def test_c4_gives_square(self):
        g = close(GLattice(3, [C4]))
        m = bireflection_subgroup(Subgroup(g, range(g.order)))
        assert m.order == 2
        assert index_of(g, C4 * C4) in m


class TestPerfectModBireflections:
    def test_trivial(self):
        assert rows_by_order(sym_u_lattice(3))[1].perfect_mod_bireflections

    def test_c4_fails(self):
        assert not rows_by_order(GLattice(3, [C4]))[4].perfect_mod_bireflections

    def test_s3_holds(self):
        assert rows_by_order(sym_u_lattice(3))[6].perfect_mod_bireflections

    def test_rows_match_bireflections_plus_commutators(self):
        # H is perfect mod bireflections exactly when the subgroup generated
        # by its bireflections and its commutators is all of H
        for name in DEFAULT_BUILTINS:
            lat = builtin(name)
            g = close(effective_reduction(lat))
            classes = enumerate_isotropy_groups(g).classes
            rows = check_necessary_conditions(lat).classes
            assert [row.order for row in rows] == [cl.order for cl in classes], name
            for cl, row in zip(classes, rows):
                h = cl.subgroup
                seeds = set(bireflection_subgroup(h).indices) | set(commutator_subgroup(h).indices)
                expected = subgroup_generated(g, seeds).order == h.order
                assert row.perfect_mod_bireflections == expected, (name, h.order)


@pytest.mark.parametrize("name", [*DEFAULT_BUILTINS, "alt6_u6", "root_a5", "sym7_u7"])
def test_moved_rank_mod_p_is_the_integer_moved_rank(name):
    """moved_rank reads the rank of g - I over F_p; by Maschke it is the
    rank over Z for every element, at p = 2 (alt3_u3, odd order) as at
    p = 11 (sym7_u7, order 5040)."""
    g = close(builtin(name))
    assert isprime(g.prime) and g.order % g.prime and all(g.order % q == 0 for q in primerange(g.prime))
    for i in range(g.order):
        assert g.moved_rank(i) == moved_rank(g.element(i)), (name, i)


def test_prime_of_named_groups():
    assert [close(builtin(name)).prime for name in ("alt3_u3", "sym3_u3", "icosian", "sym7_u7")] == [2, 5, 7, 11]


def test_moved_rank_conjugation_invariant_random():
    rng = random.Random(7)
    g = sym_u(4)
    for _ in range(1000):
        i = rng.randrange(g.order)
        h = rng.randrange(g.order)
        assert g.moved_rank(i) == g.moved_rank(g.conj(h, i))


def test_rank_sum_equality_random():
    rng = random.Random(8)
    g = sym_u(4)
    n = g.lattice.rank
    for _ in range(200):
        seed = rng.sample(range(g.order), rng.randint(0, 2))
        h = subgroup_generated(g, seed)
        moved = difference_rank(h.matrices())
        assert fixed_lattice(h).rows == n - moved
        assert moved_rank_subgroup(h) == moved


def test_bireflection_subgroup_normal_and_scan_order_free():
    rng = random.Random(9)
    g = sym_u(4)
    for _ in range(20):
        seed = rng.sample(range(g.order), 2)
        h = subgroup_generated(g, seed)
        m = bireflection_subgroup(h)
        for x in h.indices:
            assert all(g.conj(x, i) in m for i in m.indices)
        # generator scan order cannot matter: regenerate from shuffled seeds
        seeds = [i for i in h.indices if g.moved_rank(i) <= 2]
        rng.shuffle(seeds)
        assert subgroup_generated(g, seeds) == m


def test_xk_monotone_and_subgroup_closed():
    rng = random.Random(10)
    g = sym_u(4)
    for _ in range(100):
        h = subgroup_generated(g, rng.sample(range(g.order), 2))
        # X_k is closed under subgroups: a subgroup moves no more than h
        k = moved_rank_subgroup(h)
        sub = subgroup_generated(g, rng.sample(h.indices, min(2, h.order)))
        assert moved_rank_subgroup(sub) <= k
