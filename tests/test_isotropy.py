import io
import random
from pathlib import Path

import pytest

from multinv.catalog import DEFAULT_BUILTINS, builtin, parse_group_definition
from multinv import cli, groups, intlinalg, isotropy, obstruction
from multinv.errors import NotIsotropy, TheoremViolation
from multinv.groups import (
    GLattice,
    Subgroup,
    are_conjugate_subgroups,
    block_diagonal,
    close,
    full_subgroup,
    induced_group,
    intersect_subgroups,
    subgroup_generated,
    trivial_subgroup,
)
from multinv.intlinalg import IntMatrix, common_fixed_lattice, hnf_basis
from multinv.obstruction import _lift_to_copies, direct_sum_copies
from multinv.isotropy import (
    check_fpf_constraints,
    enumerate_isotropy_groups,
    fixed_lattice,
    is_fixed_point_free,
    isotropy_group_of,
    minimal_nontrivial_isotropy,
    recognize_binary_icosahedral,
    witness_vector,
)

from helpers import cycle, diag, transposition
from oracles import (
    catalog_summary,
    closure_catalog,
    integer_meet_closure,
    minimal_classes_oracle,
    stabilizer_census,
)

C4 = IntMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, -1]])


def sym_u(n):
    return close(GLattice(n, [transposition(0, 1, n), cycle(list(range(n)), n)], f"s{n}"))


def neg_identity(n):
    return close(GLattice(n, [-IntMatrix.identity(n)], f"neg{n}"))


class TestFixedLattice:
    def test_trivial_subgroup(self):
        g = sym_u(3)
        assert fixed_lattice(trivial_subgroup(g)) == IntMatrix.identity(3)

    def test_transposition(self):
        g = sym_u(3)
        h = subgroup_generated(g, [g.index_of(transposition(0, 1, 3))])
        assert fixed_lattice(h) == IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]])

    def test_neg_identity(self):
        g = neg_identity(2)
        assert fixed_lattice(full_subgroup(g)).rows == 0


class TestIsotropyGroupOf:
    def test_origin(self):
        g = sym_u(3)
        assert isotropy_group_of(g, (0, 0, 0)).is_full()

    def test_two_equal_coordinates(self):
        g = sym_u(3)
        h = isotropy_group_of(g, (1, 1, 0))
        assert h.order == 2
        assert g.index_of(transposition(0, 1, 3)) in h

    def test_distinct_coordinates(self):
        g = sym_u(3)
        assert isotropy_group_of(g, (1, 2, 3)).is_trivial()


class TestCatalog:
    def test_neg_identity(self):
        cat = enumerate_isotropy_groups(neg_identity(2))
        assert [cl.order for cl in cat.classes] == [2, 1]
        assert witness_vector(cat.group, cat.classes[0].subgroup) == (0, 0)

    def test_s3(self):
        g = sym_u(3)
        cat = enumerate_isotropy_groups(g)
        assert [cl.order for cl in cat.classes] == [6, 2, 1]

    def test_every_class_matches_its_witness(self):
        g = sym_u(3)
        cat = enumerate_isotropy_groups(g)
        for cl in cat.classes:
            m = witness_vector(g, cl.subgroup)
            assert isotropy_group_of(g, m) == cl.subgroup

    def test_closed_under_intersection_up_to_conjugacy(self):
        g = sym_u(4)
        cat = enumerate_isotropy_groups(g)
        for a in cat.classes:
            for b in cat.classes:
                meet = intersect_subgroups(a.subgroup, b.subgroup)
                cat.class_for(meet)  # raises if no class is conjugate


class TestWitness:
    def test_full_group(self):
        g = sym_u(3)
        assert witness_vector(g, full_subgroup(g)) == (0, 0, 0)

    def test_transposition_shape(self):
        g = sym_u(3)
        h = subgroup_generated(g, [g.index_of(transposition(0, 1, 3))])
        m = witness_vector(g, h)
        assert m[0] == m[1] != m[2]
        assert m == (0, 0, 1)  # deterministic scan order

    def test_trivial_scan_order(self):
        g = sym_u(3)
        assert witness_vector(g, trivial_subgroup(g)) == (0, 1, 2)

    def test_rejects_non_isotropy(self):
        g = sym_u(3)
        rot = subgroup_generated(g, [g.index_of(cycle([0, 1, 2], 3))])
        with pytest.raises(NotIsotropy):
            witness_vector(g, rot)

    def test_rejects_non_isotropy_with_a_given_basis(self):
        g = sym_u(3)
        rot = subgroup_generated(g, [g.index_of(cycle([0, 1, 2], 3))])
        with pytest.raises(NotIsotropy):
            witness_vector(g, rot, fixed_lattice(rot))
        # the basis of a class, given with a proper subgroup of the class
        with pytest.raises(NotIsotropy):
            witness_vector(g, trivial_subgroup(g), fixed_lattice(full_subgroup(g)))

    def test_reads_a_subgroup_of_a_group_on_the_same_table(self):
        """A subgroup of G names the elements of every group built on G's
        table, such as G on two copies of its lattice."""
        g = sym_u(3)
        image = induced_group(g, direct_sum_copies(g.lattice, 2))
        h = subgroup_generated(g, [g.index_of(transposition(0, 1, 3))])
        m = witness_vector(image, h)
        assert m == witness_vector(image, Subgroup(image, h.indices)) == (0, 0, 0, 0, 0, 1)
        assert isotropy_group_of(image, m).indices == h.indices

    def test_rejects_a_subgroup_of_a_group_with_another_table(self):
        g = sym_u(3)
        # the same matrices closed a second time still make another table
        for h in (full_subgroup(sym_u(3)), trivial_subgroup(neg_identity(3))):
            with pytest.raises(ValueError, match="another Cayley table"):
                witness_vector(g, h)


@pytest.mark.parametrize(
    "argv",
    [["witness", "builtin:sym4_u4"], ["witness", "builtin:signed_root_s5"], ["analyze", "builtin:rank3_order6"],
     ["copies", "builtin:alt5_u5", "--r", "3"], ["copies", "builtin:signed_root_s5", "--r", "3"]],
)
def test_witnesses_scan_the_class_bases(argv, monkeypatch):
    """Every witness the CLI prints is scanned over its class's
    ``fixed_space``, so no witness computes an integer kernel; a basis
    computed afresh from the subgroup gives the same vector."""
    inside, kernels, fresh = [], [], []
    kernel = intlinalg.kernel_lattice

    def counted_kernel(a):
        kernels.append(bool(inside))
        return kernel(a)

    def recorded_witness(G, h, basis=None):
        assert basis is not None
        inside.append(h)
        try:
            m = witness_vector(G, h, basis)
        finally:
            inside.pop()
        before = len(kernels)
        assert witness_vector(G, h) == m
        fresh.append(len(kernels) - before)
        return m

    monkeypatch.setattr(intlinalg, "kernel_lattice", counted_kernel)
    module = cli if argv[0] == "witness" else obstruction
    monkeypatch.setattr(module, "witness_vector", recorded_witness)
    assert cli.run(argv, io.StringIO()) == 0
    assert kernels.count(True) == 0
    assert sum(fresh) > 0  # the counter sees the kernels a fresh basis costs


class TestMinimalNontrivial:
    def test_s3(self):
        g = sym_u(3)
        (h,) = minimal_nontrivial_isotropy(g)
        assert h.order == 2

    def test_neg_identity(self):
        g = neg_identity(2)
        (h,) = minimal_nontrivial_isotropy(g)
        assert h.is_full()

    def test_trivial_group(self):
        g = close(GLattice(2, [], "triv"))
        assert minimal_nontrivial_isotropy(g) == []


class TestFixedPointFree:
    def test_neg_identity(self):
        assert is_fixed_point_free(neg_identity(2))

    def test_s3_not(self):
        assert not is_fixed_point_free(sym_u(3))


class TestRecognizeBinaryIcosahedral:
    def test_s5_permutations_rejected(self):
        g = sym_u(5)
        assert not recognize_binary_icosahedral(full_subgroup(g))

    def test_wrong_order_rejected(self):
        g = sym_u(4)
        assert not recognize_binary_icosahedral(full_subgroup(g))


class TestFpfConstraints:
    def test_neg_identity_not_applicable(self):
        rep = check_fpf_constraints(neg_identity(2))
        assert not rep.perfect_fpf_applicable
        assert not rep.minimal_perfect_applicable

    def test_s3_not_applicable(self):
        rep = check_fpf_constraints(sym_u(3))
        assert not rep.perfect_fpf_applicable
        assert not rep.minimal_perfect_applicable


# -- properties -----------------------------------------------------------


def test_isotropy_equivariance_random():
    rng = random.Random(11)
    g = sym_u(4)
    for _ in range(300):
        m = tuple(rng.randint(-3, 3) for _ in range(4))
        i = rng.randrange(g.order)
        left = isotropy_group_of(g, g.element(i).apply(m))
        right = Subgroup(g, (g.conj(i, j) for j in isotropy_group_of(g, m).indices))
        assert left == right


def test_fixed_lattice_contains_witness_random():
    rng = random.Random(12)
    g = sym_u(4)
    for _ in range(200):
        m = tuple(rng.randint(-3, 3) for _ in range(4))
        h = isotropy_group_of(g, m)
        basis = fixed_lattice(h)
        stacked = IntMatrix.from_rows(basis.row_lists() + [list(m)], 4)
        from multinv.intlinalg import rank

        assert rank(stacked) == basis.rows  # m lies in the span


def test_catalog_matches_census_small_groups():
    lattices = [
        GLattice(2, [-IntMatrix.identity(2)], "neg2"),
        GLattice(3, [C4], "c4"),
        GLattice(3, [transposition(0, 1, 3), cycle([0, 1, 2], 3)], "s3"),
        GLattice(2, [diag(-1, 1), diag(1, -1)], "klein"),
    ]
    for lat in lattices:
        g = close(lat)
        cat = enumerate_isotropy_groups(g)
        census = stabilizer_census(g)
        # census stabilizers, up to conjugacy, are exactly the catalog
        reps = []
        for stab in census:
            h = Subgroup(g, stab)
            if not any(are_conjugate_subgroups(g, h, r) for r in reps):
                reps.append(h)
        assert len(reps) == len(cat.classes)
        for h in reps:
            cat.class_for(h)


class TestFpfConstraintsIcosian:
    def test_icosian_both_assertions_pass(self):
        group = close(builtin("icosian"))
        rep = check_fpf_constraints(group)
        assert rep.perfect_fpf_applicable
        assert rep.binary_icosahedral is True
        assert rep.rank_multiple_of_8 is True
        assert rep.minimal_perfect_applicable
        assert rep.min_moved_rank == 8


def test_catalog_complete_for_random_stabilizers():
    """Completeness contract: the stabilizer of any lattice vector is
    conjugate to a catalog class."""
    from multinv.catalog import DEFAULT_BUILTINS

    rng = random.Random(77)
    for name in DEFAULT_BUILTINS:
        lat = builtin(name)
        g = close(lat)
        cat = enumerate_isotropy_groups(g)
        for _ in range(50):
            m = tuple(rng.randint(-5, 5) for _ in range(lat.rank))
            h = isotropy_group_of(g, m)
            cl = cat.class_for(h)
            assert cl.order == h.order


def test_class_for_rejects_non_isotropy_subgroup():
    g = sym_u(3)
    cat = enumerate_isotropy_groups(g)
    rot = subgroup_generated(g, [g.index_of(cycle([0, 1, 2], 3))])
    with pytest.raises(KeyError):
        cat.class_for(rot)


def test_class_for_rejects_subgroup_of_another_group():
    cat = enumerate_isotropy_groups(close(builtin("sym3_u3")))
    with pytest.raises(ValueError):
        cat.class_for(full_subgroup(close(builtin("root_a2"))))


@pytest.mark.parametrize("name", ["root_a3", "sym4_u4", "signed_root_s5", "alt6_u6"])
def test_every_conjugate_of_every_class_conjugated_basis(name):
    """Outside plain coordinates, every conjugate g h g^-1 of a class is
    found under that class, and is the stabilizer of its own witness."""
    golden = Path(__file__).resolve().parent / "golden"
    g = close(parse_group_definition((golden / f"conj_{name}.json").read_bytes()).lattice)
    cat = enumerate_isotropy_groups(g)
    for cl in cat.classes:
        conjugates = {
            tuple(sorted(g.conj(x, i) for i in cl.subgroup.indices)) for x in range(g.order)
        }
        for indices in conjugates:
            h = Subgroup(g, indices)
            assert cat.class_for(h) is cl
            assert isotropy_group_of(g, witness_vector(g, h)) == h


GOLDEN = Path(__file__).resolve().parent / "golden"


def _group(name):
    if name.endswith(".json"):
        return close(parse_group_definition((GOLDEN / name).read_text()).lattice)
    return close(builtin(name))


@pytest.mark.parametrize(
    "name", ["rank3_order2", "sym4_u4", "diag_sl4", "signed_root_s5", "alt6_u6", "conj_root_a3.json",
             "conj_alt6_u6.json"],
)
def test_closure_matches_integer_meet_closure(name):
    """The spaces the catalog keys mod p are the integer meet closure: the
    conjugates of the class representatives' fixed spaces, one per orbit
    member of the sweep."""
    G = _group(name)
    catalog = enumerate_isotropy_groups(G)
    conjugates = {
        hnf_basis(cl.fixed_space * G.element(g).transpose()) for cl in catalog.classes for g in range(G.order)
    }
    expected = integer_meet_closure(G)
    assert conjugates == expected
    assert len(catalog._orbit_index) == len(expected)


@pytest.mark.parametrize("name, spaces", [("alt6_u6", 188), ("conj_alt6_u6.json", 188), ("sym6_u6", 203)])
def test_one_integer_kernel_per_orbit(name, spaces, monkeypatch):
    """Meets, dedupe and orbits run on the keys mod p.  Each orbit pays one
    integer fixed lattice, its root's; the other members' bases are the
    root's moved by generators.  The whole lattice, fixed by the trivial
    class, needs no kernel."""
    G = _group(name)
    lattices, kernels = [], []
    fixed, kernel = isotropy.common_fixed_lattice, intlinalg.kernel_lattice

    def counted_fixed(mats, n):
        lattices.append(mats)
        return fixed(mats, n)

    def counted_kernel(a):
        kernels.append(a)
        return kernel(a)

    monkeypatch.setattr(isotropy, "common_fixed_lattice", counted_fixed)
    monkeypatch.setattr(intlinalg, "kernel_lattice", counted_kernel)
    catalog = enumerate_isotropy_groups(G)
    assert len(catalog._orbit_index) == spaces
    assert len(lattices) == len(catalog.classes)
    assert len(kernels) == len(catalog.classes) - 1


@pytest.mark.parametrize(
    "name", ["sym5_u5", "alt5_u5", "root_a4", "signed_root_s5", "diag_sl4", "icosian", "alt6_u6",
             "conj_alt6_u6.json"],
)
def test_minimal_classes_match_brute_force(name):
    """The minimal nontrivial classes read off the orbit index are those a
    search over G for conjugates inside finds."""
    G = _group(name)
    classes = [cl.subgroup.indices for cl in enumerate_isotropy_groups(G).classes]
    expected = minimal_classes_oracle(G, classes)
    assert expected
    assert [h.indices for h in minimal_nontrivial_isotropy(G)] == expected


def test_a_prime_dividing_the_order_is_caught():
    """Over F_2, -I - I vanishes, so -I's key claims the whole lattice as
    fixed; its integer fixed lattice is 0, and the rank guard fires."""
    G = close(builtin("rank3_order2"))
    assert G.prime == 3
    G.prime = 2
    with pytest.raises(TheoremViolation):
        enumerate_isotropy_groups(G)


# -- the catalog up to conjugacy against the whole closure ------------------


# the default builtins and the larger members of each builtin family up to
# order 5040; the diagonal family, abelian of order 2^(n-1), stops at rank 8,
# where sweeping its whole closure takes a fifth of a second
UP_TO_5040 = DEFAULT_BUILTINS + (
    "sym5_u5", "sym6_u6", "sym7_u7", "alt5_u5", "alt6_u6", "alt7_u7", "root_a4", "root_a5", "root_a6",
    "diag_sl5", "diag_sl6", "diag_sl7", "diag_sl8",
)
CONJ_GOLDENS = ("conj_root_a3.json", "conj_sym4_u4.json", "conj_signed_root_s5.json", "conj_alt6_u6.json")


@pytest.mark.parametrize("name", UP_TO_5040 + CONJ_GOLDENS)
def test_catalog_equals_the_closure_sweep(name):
    """Exploring the closure one class at a time gives the catalog that
    sweeping the whole closure gives: the same classes in the same order,
    the same representatives and fixed spaces, and the same orbit index."""
    G = _group(name)
    assert catalog_summary(enumerate_isotropy_groups(G)) == catalog_summary(closure_catalog(G))


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("name", ["sym3_u3", "root_a3", "alt5_u5", "signed_root_s5", "icosian", "conj_sym4_u4.json",
                                  "conj_alt6_u6.json"])
def test_copies_lift_equals_the_closure_sweep(name, r):
    """The same holds for the catalog lifted to the r-fold sum, whose
    representatives are the members with the least lifted basis."""
    G = _group(name)
    n = G.lattice.rank
    lift = _lift_to_copies(block_diagonal([common_fixed_lattice(G.lattice.generators, n)] * r), r)
    assert catalog_summary(enumerate_isotropy_groups(G, lift)) == catalog_summary(closure_catalog(G, lift))


@pytest.mark.parametrize("name, most", [("alt7_u7", 5000), ("sym7_u7", 4240), ("diag_sl8", 6000)])
def test_meets_per_catalog(name, most, monkeypatch):
    """One meet per class representative and orbit of its stabilizer on
    the irreducible prime-power keys: a meet is an echelon form over F_p
    extending a nonempty one.  Sweeping the whole closure made 51,567
    meets on alt7_u7, 4,219 on sym7_u7 and 2,414 on diag_sl8.  Meeting
    every prime-power key, not only the irreducible ones, made 28,344 on
    diag_sl8: an abelian G_c fixes every key, so no orbit saves a meet."""
    G = _group(name)
    meets = []
    rref_mod = intlinalg.rref_mod

    def counted(rows, p, base=()):
        meets.append(bool(base))
        return rref_mod(rows, p, base)

    for module in (intlinalg, groups, isotropy):
        monkeypatch.setattr(module, "rref_mod", counted)
    enumerate_isotropy_groups(G)
    assert 0 < meets.count(True) <= most


def _corrupted(monkeypatch, meets, corrupt):
    """Routes the sweep's meets (echelon forms extending a nonempty one)
    or its key moves (the others) through ``corrupt``, given the list of
    the true keys so far."""
    keys = []
    rref_mod = intlinalg.rref_mod

    def corrupted(rows, p, base=()):
        key = rref_mod(rows, p, base)
        if bool(base) != meets:
            return key
        keys.append(key)
        return corrupt(keys)

    monkeypatch.setattr(isotropy, "rref_mod", corrupted)


def test_a_key_reached_with_two_stabilizers_raises(monkeypatch):
    """Every moved key is replaced by the first, so that key is reached
    again with another member's stabilizer."""
    _corrupted(monkeypatch, False, lambda keys: keys[0])
    with pytest.raises(TheoremViolation, match="a closure key reached with two stabilizers"):
        enumerate_isotropy_groups(_group("sym4_u4"))


def test_a_stabilizer_reached_with_two_keys_raises(monkeypatch):
    """Every meet returns its rows in reverse order: the same space, but
    not its canonical key.  A meet that lands on a space already known
    looks new, and its stabilizer is recorded with the canonical key."""
    _corrupted(monkeypatch, True, lambda keys: keys[-1][::-1])
    with pytest.raises(TheoremViolation, match="a stabilizer reached with two closure keys"):
        enumerate_isotropy_groups(_group("sym4_u4"))
