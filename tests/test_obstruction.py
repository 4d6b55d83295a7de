import random
from pathlib import Path

import pytest

from multinv import groups, obstruction
from multinv.catalog import DEFAULT_BUILTINS, builtin, parse_group_definition
from multinv.errors import CapExceeded, InfiniteGroup, TheoremViolation
from multinv.groups import GLattice, block_diagonal, close
from multinv.intlinalg import IntMatrix, common_fixed_lattice
from multinv.obstruction import (
    INCONCLUSIVE,
    OBSTRUCTED,
    TRIVIALLY_CM,
    check_necessary_conditions,
    copies_verdict,
    direct_sum_copies,
    effective_reduction,
)

from helpers import conjugated_lattice, cycle, random_unimodular, transposition
from oracles import (
    GeneratorMismatch,
    check_infinite_pair,
    materialized_copies_report,
    moved_rank,
    rationally_isomorphic,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
CONJ = ("conj_root_a3", "conj_sym4_u4", "conj_signed_root_s5", "conj_alt6_u6")

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
        lat = GLattice(2, [IntMatrix.identity(2)] * 2, "t")
        red = effective_reduction(lat)
        assert red.rank == 0
        assert red.generators == (IntMatrix(0, 0, ()),) * 2

    def test_s3_reduces_to_rank_2(self):
        red = effective_reduction(sym_u_lattice(3))
        assert red.rank == 2
        # the reduced action is rationally isomorphic to the root action
        assert rationally_isomorphic(red, root_lattice_action(3))

    def test_sign_block_reduces_to_an_involution_of_trace_minus_two(self):
        # diag(-1, -1, 1) fixes span(e3); the quotient action is conjugate to -I
        red = effective_reduction(GLattice(3, [IntMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])], "s"))
        (q,) = red.generators
        assert red.rank == q.rows == 2
        assert not q.is_identity() and (q * q).is_identity()
        assert q.entry(0, 0) + q.entry(1, 1) == -2

    def test_already_effective(self):
        assert effective_reduction(NEG3) is NEG3

    def test_idempotent(self):
        red = effective_reduction(sym_u_lattice(4))
        assert effective_reduction(red) is red

    def test_refuses_a_transform_that_does_not_complete_the_fixed_part(self, monkeypatch):
        # the identity pair puts e_1 where (1, 1, 1) belongs, and the transposition moves e_1
        ident = IntMatrix.identity(3)
        monkeypatch.setattr(obstruction, "quotient_transform", lambda fixed: (ident, ident))
        with pytest.raises(TheoremViolation, match="a generator does not fix L\\^G pointwise"):
            effective_reduction(builtin("sym3_u3"))


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

    def test_infinite_pairing_is_refused_before_the_cap(self):
        shear = GLattice(2, [IntMatrix.from_rows([[1, 1], [0, 1]])], "shear")
        neg = GLattice(2, [-IntMatrix.identity(2)], "neg")
        for l1, l2 in ((shear, shear), (neg, shear), (shear, neg)):
            with pytest.raises(InfiniteGroup) as exc:
                rationally_isomorphic(l1, l2)
            check_infinite_pair(exc.value)
            assert exc.value.first.rows == 4


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

    def test_refuses_a_lift_through_a_transform_that_is_not_the_fixed_parts(self):
        # two copies of sym3_u3's reduced lattice, lifted through the
        # identity's columns past f = 2, which drop the first copy's first two
        # coordinates instead of (1, 1, 1) in each copy: the trivial class's
        # two reduced rows keep rank 3 instead of 4
        lat = builtin("sym3_u3")
        _, section = obstruction._coordinates(common_fixed_lattice(lat.generators, 3))
        past_2 = IntMatrix(6, 4, (int(j == i - 2) for i in range(6) for j in range(4)))
        lift = obstruction._lift_to_copies(section, past_2, 2)
        with pytest.raises(TheoremViolation, match="a lifted fixed lattice's rank differs from its copies'"):
            lift(IntMatrix.identity(2))

    def test_refuses_three_copies_that_are_not_obstructed(self, monkeypatch):
        # every element counted as a bireflection of the sum leaves each row
        # perfect modulo bireflections, so condition A holds
        monkeypatch.setattr(obstruction, "bireflection_subgroup", lambda h, copies=1: h)
        with pytest.raises(TheoremViolation, match="3 copies of a nontrivial action must be obstructed, got Inconclusive"):
            copies_verdict(builtin("sym3_u3"), 3)


def _copies_base(name):
    if "+" in name:
        # the base beside a fixed part of rank k
        stem, k = name.split("+")
        base, k = _copies_base(stem), int(k)
        return GLattice(base.rank + k, [block_diagonal([g, IntMatrix.identity(k)]) for g in base.generators], name)
    if name.startswith("conj_") or name == "trivial3":
        return parse_group_definition((GOLDEN / f"{name}.json").read_bytes()).lattice
    if name == "neg1":
        return GLattice(1, [-IntMatrix.identity(1)], name)
    if name.endswith("~conj"):
        # the bases of the benchmark's copies, off their plain coordinates
        base = builtin(name.removesuffix("~conj"))
        return conjugated_lattice(base, random_unimodular(base.rank, random.Random(base.rank)))
    return builtin(name)


LIFT_CASES = [
    (name, r)
    for name in ("sym3_u3", "sym4_u4", "alt4_u4", "alt5_u5", "sym5_u5", "root_a3", "diag_sl4",
                 "signed_root_s5", "icosian", "rank3_order6", "rank3_order6+1", "rank3_order6+2")
    for r in (1, 2, 3)
] + [("icosian~conj", 2), ("icosian~conj", 3), ("signed_root_s5~conj", 3), ("alt5_u5~conj", 3)]
LIFT_CASES += [(name, r) for name in CONJ for r in (1, 2, 3)]
# effective rank 0 (the trivial action on rank 3) and 1 ({±1} alone, and
# beside a fixed part of rank 1)
LIFT_CASES += [(name, r) for name in ("trivial3", "neg1", "neg1+1") for r in (1, 2, 3)]


@pytest.mark.parametrize("name, r", LIFT_CASES)
def test_copies_lift_the_base_catalog(name, r, monkeypatch):
    """The report and catalog lifted from the base equal those of the sum's
    own group, reduced and catalogued at rank r n: the same class
    subgroups, fixed spaces, orbit index and rows, witnesses included."""
    lat = _copies_base(name)
    catalogs = []
    real = obstruction.enumerate_isotropy_groups

    def recorded(G, reduction=None, lift=None):
        catalogs.append(real(G, reduction, lift))
        return catalogs[-1]

    monkeypatch.setattr(obstruction, "enumerate_isotropy_groups", recorded)
    report = copies_verdict(lat, r)
    expected, catalog = materialized_copies_report(lat, r)
    assert report == expected
    (lifted,) = catalogs
    assert [cl.subgroup.indices for cl in lifted.classes] == [cl.subgroup.indices for cl in catalog.classes]
    assert [cl.fixed_space for cl in lifted.classes] == [cl.fixed_space for cl in catalog.classes]
    assert lifted._orbit_index.keys() == catalog._orbit_index.keys()


@pytest.mark.parametrize("name", DEFAULT_BUILTINS + CONJ)
def test_one_copy_is_the_lattice(name):
    """With r = 1 the base swept at its own rank and projected away from
    its fixed part gives the report of the reduce-then-sweep path: the
    effective reduction's group, catalogued at rank n - rank L^G."""
    lat = _copies_base(name)
    assert copies_verdict(lat, 1) == materialized_copies_report(lat, 1)[0]


@pytest.mark.parametrize("name, calls", [("sym7_u7", 0), ("rank3_order6+1", 0)])
def test_the_reduced_witness_group_is_built_lazily(name, calls, monkeypatch):
    """No group on the effective reduction is built: the input's group
    scans the reduced witness.  sym7_u7 has a fixed part but passes
    condition A; the padded rank3_order6 fails A on the whole group,
    whose witness is 0.  Either way the input's group is the only one."""
    built = []
    real = groups.FiniteMatrixGroup.__init__

    def recorded(G, lattice, *args):
        built.append(lattice.rank)
        real(G, lattice, *args)

    monkeypatch.setattr(groups.FiniteMatrixGroup, "__init__", recorded)
    lat = _copies_base(name)
    report = check_necessary_conditions(lat)
    assert report.reduction.fixed_rank > 0
    assert report.condition_a == (name == "sym7_u7")
    assert built == [lat.rank] + [report.reduction.effective_rank] * calls


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
