"""Randomized cross-validation on arbitrary small finite groups.

Signed permutation matrices always generate finite groups, so random
subsets of them are safe fuzz inputs for the whole pipeline; random
unimodular conjugation then destroys all coordinate niceness.
"""

import random

from multinv.groups import (
    GLattice,
    Subgroup,
    are_conjugate_subgroups,
    close,
    subgroup_generated,
)
from multinv.intlinalg import IntMatrix, unimodular_inverse
from multinv.isotropy import enumerate_isotropy_groups, fixed_lattice, isotropy_group_of, witness_vector
from multinv.obstruction import (
    INCONCLUSIVE,
    OBSTRUCTED,
    TRIVIALLY_CM,
    check_necessary_conditions,
)
from multinv.reflections import moved_rank_subgroup

from helpers import conjugated_lattice, random_unimodular
from oracles import catalog_summary, check_closure, closure_catalog, difference_rank, stabilizer_census


def random_signed_perm(n, rng):
    image = list(range(n))
    rng.shuffle(image)
    ent = [0] * (n * n)
    for j, i in enumerate(image):
        ent[i * n + j] = rng.choice([-1, 1])
    return IntMatrix(n, n, ent)


def random_signed_perm_lattice(n, rng, max_gens=2):
    gens = [random_signed_perm(n, rng) for _ in range(rng.randint(1, max_gens))]
    return GLattice(n, gens, "fuzz")


def test_census_equality_on_random_signed_groups():
    rng = random.Random(0xF00D)
    done = 0
    while done < 10:
        lat = random_signed_perm_lattice(3, rng)
        group = close(lat)
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
            catalog.class_for(h)


def test_catalog_complete_on_conjugated_random_groups():
    rng = random.Random(0xBF01)
    for _ in range(12):
        n = rng.choice([2, 3, 4])
        lat = random_signed_perm_lattice(n, rng)
        t = random_unimodular(n, rng)
        skewed = conjugated_lattice(lat, t)
        group = close(skewed)
        check_closure(group, unimodular_inverse(t))
        catalog = enumerate_isotropy_groups(group)
        # every stabilizer of a random vector appears in the catalog
        for _ in range(30):
            m = tuple(rng.randint(-6, 6) for _ in range(n))
            h = isotropy_group_of(group, m)
            assert catalog.class_for(h).order == h.order
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
        check_closure(close(lat), t)
        rep2 = check_necessary_conditions(conjugated_lattice(lat, t))
        assert rep2.verdict == rep.verdict
        assert [c.order for c in rep2.classes] == [c.order for c in rep.classes]


def test_rank_sum_on_random_groups():
    rng = random.Random(0xD1CE)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        group = close(random_signed_perm_lattice(n, rng))
        check_closure(group, IntMatrix.identity(n))
        seed = rng.sample(range(group.order), min(group.order, rng.randint(0, 2)))
        h = subgroup_generated(group, seed)
        moved = difference_rank(h.matrices())
        assert fixed_lattice(h).rows == n - moved
        assert moved_rank_subgroup(h) == moved


def test_catalog_equals_the_closure_sweep_on_random_groups():
    """The catalog explored up to conjugacy equals the one swept from the
    whole meet closure: classes, order, representatives, fixed spaces and
    orbit index, on 200 groups of rank 2 to 4 and 20 of rank 5, every
    other one conjugated out of its signed coordinates."""
    rng = random.Random(0x5EED)
    for k in range(220):
        n = rng.choice([2, 3, 4]) if k < 200 else 5
        lat = random_signed_perm_lattice(n, rng)
        if k % 2:
            lat = conjugated_lattice(lat, random_unimodular(n, rng))
        group = close(lat)
        assert catalog_summary(enumerate_isotropy_groups(group)) == catalog_summary(closure_catalog(group)), k
