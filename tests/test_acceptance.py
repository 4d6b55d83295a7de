"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is exact (integer arithmetic) except the stated wall-clock
budgets, which are asserted with time.monotonic.
"""

import random
import time
from contextlib import contextmanager

from multinv.catalog import DEFAULT_BUILTINS, builtin
from multinv.groups import (
    GLattice,
    Subgroup,
    are_conjugate_subgroups,
    close,
    element_order_histogram,
    full_subgroup,
    is_perfect,
    subgroup_generated,
)
from multinv.intlinalg import IntMatrix, hnf, rank, snf
from multinv.isotropy import (
    enumerate_isotropy_groups,
    fixed_lattice,
    is_fixed_point_free,
    recognize_binary_icosahedral,
)
from multinv.obstruction import (
    INCONCLUSIVE,
    OBSTRUCTED,
    check_necessary_conditions,
    copies_verdict,
    rationally_isomorphic,
)
from multinv.orbit_algebra import (
    LaurentElement,
    act,
    alternating_d,
    elementary_symmetric,
    orbit_sum,
    verify_free_decomposition,
)
from multinv.reflections import moved_rank, moved_rank_subgroup

from helpers import conjugated_lattice, cycle, random_unimodular, transposition
from oracles import difference_rank, sl2_f5_histogram_oracle, stabilizer_census


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_rank3_counterexamples():
    with criterion(1, "rank-3 counterexamples are obstructed"):
        start = time.monotonic()
        expectations = {
            "rank3_order2": (2, 1, (2,)),
            "rank3_order4": (4, 2, (4,)),
            "rank3_order6": (6, 3, (6,)),
        }
        for name, (order, m_order, ab) in expectations.items():
            report = check_necessary_conditions(builtin(name))
            assert report.verdict == OBSTRUCTED, name
            top = report.classes[0]
            assert top.order == order
            assert top.bireflection_order == m_order
            assert top.abelianization == ab
        assert time.monotonic() - start < 1.0


def test_criterion_2_reflection_ranks_and_symmetric_verdicts():
    with criterion(2, "reflection ranks on U_n; S_n and A_n inconclusive"):
        for n in range(3, 7):
            for i in range(n):
                for j in range(i + 1, n):
                    assert moved_rank(transposition(i, j, n)) == 1
            for k in range(2, n):
                assert moved_rank(cycle([0, 1, k], n)) == 2
        for n in range(3, 6):
            assert check_necessary_conditions(builtin(f"sym{n}_u{n}")).verdict == INCONCLUSIVE
            assert check_necessary_conditions(builtin(f"alt{n}_u{n}")).verdict == INCONCLUSIVE
        start = time.monotonic()
        assert check_necessary_conditions(builtin("sym6_u6")).verdict == INCONCLUSIVE
        assert check_necessary_conditions(builtin("alt6_u6")).verdict == INCONCLUSIVE
        assert time.monotonic() - start < 5.0


def test_criterion_3_abelian_decomposition():
    with criterion(3, "sign-lattice free decomposition at bound 4"):
        start = time.monotonic()
        for n in (2, 3):
            group = close(builtin(f"diag_sl{n}"))
            xi = [
                orbit_sum(group, tuple(1 if j == i else 0 for j in range(n)))
                for i in range(n)
            ]
            eta = orbit_sum(group, (1,) * n)
            ok = verify_free_decomposition(
                group, xi, [LaurentElement.one(n), eta], 4
            )
            assert ok.ok, n
            bad = verify_free_decomposition(group, xi, [LaurentElement.one(n)], 4)
            assert not bad.ok
            assert bad.failure.kind == "unreachable"
            assert bad.failure.witness_orbit == (1,) * n  # the missing eta
        assert time.monotonic() - start < 10.0


def test_criterion_4_alternating_polynomial_invariants():
    with criterion(4, "A_3 polynomial invariants per-degree ranks"):
        start = time.monotonic()
        d = alternating_d(3)
        rot = cycle([0, 1, 2], 3)
        swap = transposition(0, 1, 3)
        assert act(rot, d) == d
        assert act(swap, d) != d

        s = [elementary_symmetric(3, k) for k in (1, 2, 3)]

        def monomials_in_s(total):
            out = []
            for a in range(total + 1):
                for b in range((total - a) // 2 + 1):
                    rest = total - a - 2 * b
                    if rest >= 0 and rest % 3 == 0:
                        out.append((a, b, rest // 3))
            return out

        def expand(powers):
            e = LaurentElement.one(3)
            for gen, p in zip(s, powers):
                for _ in range(p):
                    e = e * gen
            return e

        def orbit_count(degree):
            seen = set()
            count = 0
            for a in range(degree + 1):
                for b in range(degree - a + 1):
                    mono = (a, b, degree - a - b)
                    if mono in seen:
                        continue
                    count += 1
                    r = mono
                    for _ in range(3):
                        r = (r[2], r[0], r[1])
                        seen.add(r)
            return count

        for degree in range(9):
            elems = [expand(p) for p in monomials_in_s(degree)]
            if degree >= 3:
                elems += [d * expand(p) for p in monomials_in_s(degree - 3)]
            monos = sorted({m for e in elems for m in e.terms})
            index = {m: j for j, m in enumerate(monos)}
            rows = []
            for e in elems:
                row = [0] * len(monos)
                for m, c in e.terms.items():
                    row[index[m]] = c
                rows.append(row)
            matrix = IntMatrix.from_rows(rows, len(monos)) if rows else IntMatrix(0, 0, ())
            assert rank(matrix) == orbit_count(degree), degree
        assert time.monotonic() - start < 30.0


def test_criterion_5_icosian_lattice():
    with criterion(5, "icosian rank-8 fixed-point-free action"):
        start = time.monotonic()
        lattice = builtin("icosian")
        group = close(lattice)
        assert group.order == 120
        full = full_subgroup(group)
        assert is_perfect(full)
        assert is_fixed_point_free(group)
        assert lattice.rank == 8 and lattice.rank % 8 == 0
        assert recognize_binary_icosahedral(full)
        assert element_order_histogram(group) == sl2_f5_histogram_oracle()
        catalog = enumerate_isotropy_groups(group)
        assert [cl.order for cl in catalog.classes] == [120, 1]
        report = check_necessary_conditions(lattice)
        assert report.condition_a is True
        assert report.condition_b is False
        assert report.verdict == OBSTRUCTED
        assert time.monotonic() - start < 30.0


def test_criterion_6_copies_over_catalog():
    with criterion(6, "3 and 4 copies obstructed for every nontrivial builtin"):
        start = time.monotonic()
        for name in DEFAULT_BUILTINS:
            lattice = builtin(name)
            for r in (3, 4):
                report = copies_verdict(lattice, r)  # TheoremViolation guard inside
                assert report.verdict == OBSTRUCTED, (name, r)
        assert time.monotonic() - start < 60.0


def _random_matrix(rng, max_dim=6, lo=-5, hi=5):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return IntMatrix(r, c, [rng.randint(lo, hi) for _ in range(r * c)])


def test_criterion_7_property_suites():
    with criterion(7, "randomized property suites and census oracle"):
        rng = random.Random(0xACCE97)
        # SNF/HNF contracts, 1000 cases
        for _ in range(1000):
            a = _random_matrix(rng)
            dec = snf(a)
            assert dec.u * a * dec.v == dec.s
            assert abs(dec.u.det()) == 1 and abs(dec.v.det()) == 1
            diag = dec.diagonal()
            for x, y in zip(diag, diag[1:]):
                assert (y == 0) or (x != 0 and y % x == 0)
            h, u = hnf(a)
            assert u * a == h and abs(u.det()) == 1

        # Lagrange, conjugation invariance, rank sum on S4, 1000 cases
        s4 = close(GLattice(4, [transposition(0, 1, 4), cycle([0, 1, 2, 3], 4)], "s4"))
        for _ in range(1000):
            seed = rng.sample(range(s4.order), rng.randint(0, 2))
            h = subgroup_generated(s4, seed)
            assert s4.order % h.order == 0
            i, g = rng.randrange(s4.order), rng.randrange(s4.order)
            assert s4.moved_rank(i) == s4.moved_rank(s4.conj(g, i))
            moved = difference_rank(h.matrices())
            assert fixed_lattice(h).rows == 4 - moved
            assert moved_rank_subgroup(h) == moved

        # catalog equals the brute-force stabilizer census
        for name in DEFAULT_BUILTINS:
            lattice = builtin(name)
            group = close(lattice)
            if lattice.rank > 4 or group.order > 48:
                continue
            catalog = enumerate_isotropy_groups(group)
            reps = []
            for stab in stabilizer_census(group):
                h = Subgroup(group, stab)
                if not any(are_conjugate_subgroups(group, h, r) for r in reps):
                    reps.append(h)
            assert len(reps) == len(catalog.classes), name
            for h in reps:
                catalog.class_for(h)  # raises KeyError if unmatched

        # verdict invariance under 20 random unimodular base changes
        for name in DEFAULT_BUILTINS:
            lattice = builtin(name)
            base = check_necessary_conditions(lattice)
            for _ in range(20):
                t = random_unimodular(lattice.rank, rng)
                rep = check_necessary_conditions(conjugated_lattice(lattice, t))
                assert rep.verdict == base.verdict, name
                assert [c.order for c in rep.classes] == [c.order for c in base.classes]
                assert [c.abelianization for c in rep.classes] == [
                    c.abelianization for c in base.classes
                ]


def test_criterion_8_rational_invariance():
    with criterion(8, "U_3 rationally isomorphic to trivial + root lattice"):
        u3 = builtin("sym3_u3")
        root = builtin("root_a2")
        padded = GLattice(
            3,
            [
                IntMatrix.from_rows([[1, 0, 0]] + [[0] + list(g.row(i)) for i in range(2)])
                for g in root.generators
            ],
            "trivial+root_a2",
        )
        assert close(u3).order == close(padded).order == 6
        assert rationally_isomorphic(u3, padded)
        r1 = check_necessary_conditions(u3)
        r2 = check_necessary_conditions(padded)
        assert r1.verdict == r2.verdict == INCONCLUSIVE
