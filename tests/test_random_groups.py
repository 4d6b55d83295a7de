"""Randomized cross-validation on arbitrary small finite groups.

Signed permutation matrices always generate finite groups, so random
subsets of them are safe fuzz inputs for the whole pipeline; random
unimodular conjugation then destroys all coordinate niceness.
"""

import random

from multinv.groups import (
    Subgroup,
    close,
    schreier_sims_order,
    subgroup_generated,
)
from multinv.intlinalg import IntMatrix
from multinv.isotropy import enumerate_isotropy_groups, fixed_lattice, witness_vector
from multinv.obstruction import (
    INCONCLUSIVE,
    OBSTRUCTED,
    TRIVIALLY_CM,
    check_necessary_conditions,
)

from helpers import conjugated_lattice, random_signed_perm_lattice, random_unimodular
from oracles import (
    are_conjugate_subgroups,
    catalog_summary,
    check_closure,
    check_permutation_closure,
    class_for,
    closure_catalog,
    difference_rank,
    isotropy_group_of,
    moved_rank_subgroup,
    stabilizer_census,
    unimodular_inverse,
)


def test_census_equality_on_random_signed_groups():
    rng = random.Random(0xF00D)
    done = 0
    while done < 10:
        lat = random_signed_perm_lattice(3, rng)
        group = close(lat)
        assert schreier_sims_order(lat) == group.order
        if group.order > 24:
            continue
        done += 1
        check_closure(group, IntMatrix.identity(3))
        catalog = enumerate_isotropy_groups(group)
        reps = []
        for stab in stabilizer_census(group):
            h = Subgroup(group, stab)
            if not any(are_conjugate_subgroups(group, h, r) for r in reps):
                reps.append(h)
        assert len(reps) == len(catalog.classes)
        for h in reps:
            class_for(catalog, h)


def test_catalog_complete_on_conjugated_random_groups():
    rng = random.Random(0xBF01)
    for _ in range(12):
        n = rng.choice([2, 3, 4])
        lat = random_signed_perm_lattice(n, rng)
        t = random_unimodular(n, rng)
        skewed = conjugated_lattice(lat, t)
        group = close(skewed)
        assert schreier_sims_order(skewed) == group.order
        check_closure(group, unimodular_inverse(t))
        catalog = enumerate_isotropy_groups(group)
        # every stabilizer of a random vector appears in the catalog
        for _ in range(30):
            m = tuple(rng.randint(-6, 6) for _ in range(n))
            h = isotropy_group_of(group, m)
            assert class_for(catalog, h).order == h.order
        # every witness realizes its class exactly
        for cl in catalog.classes:
            w = witness_vector(group, cl.subgroup)
            assert isotropy_group_of(group, w) == cl.subgroup


def test_verdict_logic_on_random_groups():
    rng = random.Random(0xCAFE)
    for _ in range(25):
        n = rng.choice([3, 4])
        lat = random_signed_perm_lattice(n, rng)
        rep = check_necessary_conditions(lat)
        special = rep.reduction.trivial_action or rep.reduction.rank_at_most_2
        if special:
            assert rep.verdict == TRIVIALLY_CM
        elif not (rep.condition_a and rep.condition_b):
            assert rep.verdict == OBSTRUCTED
        else:
            assert rep.verdict == INCONCLUSIVE
        # conjugation cannot change the verdict or the class data
        t = random_unimodular(n, rng)
        group = close(lat)
        check_closure(group, t)
        assert schreier_sims_order(lat) == group.order
        rep2 = check_necessary_conditions(conjugated_lattice(lat, t))
        assert rep2.verdict == rep.verdict
        assert [c.order for c in rep2.classes] == [c.order for c in rep.classes]


def test_rank_sum_on_random_groups():
    rng = random.Random(0xD1CE)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        lat = random_signed_perm_lattice(n, rng)
        group = close(lat)
        assert schreier_sims_order(lat) == group.order
        check_closure(group, IntMatrix.identity(n))
        seed = rng.sample(range(group.order), min(group.order, rng.randint(0, 2)))
        h = subgroup_generated(group, seed)
        moved = difference_rank(h.matrices())
        assert fixed_lattice(h).rows == n - moved
        assert moved_rank_subgroup(h) == moved


def _sweep_lattices():
    """200 groups of rank 2 to 4 and 20 of rank 5, every other one
    conjugated out of its signed coordinates."""
    rng = random.Random(0x5EED)
    for k in range(220):
        n = rng.choice([2, 3, 4]) if k < 200 else 5
        lat = random_signed_perm_lattice(n, rng)
        if k % 2:
            lat = conjugated_lattice(lat, random_unimodular(n, rng))
        yield k, lat


def test_catalog_equals_the_closure_sweep_on_random_groups():
    """The catalog explored up to conjugacy equals the one swept from the
    whole meet closure: classes, order, representatives, fixed spaces and
    orbit index."""
    for k, lat in _sweep_lattices():
        group = close(lat)
        assert catalog_summary(enumerate_isotropy_groups(group)) == catalog_summary(closure_catalog(group)), k


def test_the_permutation_closure_is_the_matrix_closure_on_random_groups():
    on_permutations = [k for k, lat in _sweep_lattices() if check_permutation_closure(lat)]
    # every group in signed coordinates, whose X has at most 2n points
    assert set(range(0, 220, 2)) <= set(on_permutations)


def test_schreier_sims_order_on_random_groups():
    for k, lat in _sweep_lattices():
        assert schreier_sims_order(lat) == close(lat).order, k
