import io
import json
import random
from pathlib import Path

import pytest

from multinv.catalog import DEFAULT_BUILTINS, builtin, parse_group_definition
from multinv import cli, groups, intlinalg, isotropy, obstruction
from multinv.errors import NotIsotropy, TheoremViolation
from multinv.groups import (
    GLattice,
    Subgroup,
    block_diagonal,
    close,
    subgroup_generated,
)
from multinv.intlinalg import IntMatrix, common_fixed_lattice, hnf_basis
from multinv.obstruction import _coordinates, _lift_to_copies, direct_sum_copies
from multinv.isotropy import (
    check_fpf_constraints,
    enumerate_isotropy_groups,
    fixed_lattice,
    is_fixed_point_free,
    minimal_nontrivial_isotropy,
    recognize_binary_icosahedral,
    witness_vector,
)

from helpers import cycle, diag, random_signed_perm_lattice, transposition
from oracles import (
    are_conjugate_subgroups,
    catalog_summary,
    class_for,
    closure_catalog,
    diagonal_group,
    fixes_quotient_vectors,
    index_of,
    integer_meet_closure,
    intersect_subgroups,
    isotropy_group_of,
    materialized_copies_report,
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
        assert fixed_lattice(Subgroup(g, [g.identity_index])) == IntMatrix.identity(3)

    def test_transposition(self):
        g = sym_u(3)
        h = subgroup_generated(g, [index_of(g, transposition(0, 1, 3))])
        assert fixed_lattice(h) == IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]])

    def test_neg_identity(self):
        g = neg_identity(2)
        assert fixed_lattice(Subgroup(g, range(g.order))).rows == 0


class TestIsotropyGroupOf:
    def test_origin(self):
        g = sym_u(3)
        assert isotropy_group_of(g, (0, 0, 0)).is_full()

    def test_two_equal_coordinates(self):
        g = sym_u(3)
        h = isotropy_group_of(g, (1, 1, 0))
        assert h.order == 2
        assert index_of(g, transposition(0, 1, 3)) in h

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
                class_for(cat, meet)  # raises if no class is conjugate


class TestWitness:
    def test_full_group(self):
        g = sym_u(3)
        assert witness_vector(g, Subgroup(g, range(g.order))) == (0, 0, 0)

    def test_transposition_shape(self):
        g = sym_u(3)
        h = subgroup_generated(g, [index_of(g, transposition(0, 1, 3))])
        m = witness_vector(g, h)
        assert m[0] == m[1] != m[2]
        assert m == (0, 0, 1)  # deterministic scan order

    def test_trivial_scan_order(self):
        g = sym_u(3)
        assert witness_vector(g, Subgroup(g, [g.identity_index])) == (0, 1, 2)

    def test_rejects_non_isotropy(self):
        g = sym_u(3)
        rot = subgroup_generated(g, [index_of(g, cycle([0, 1, 2], 3))])
        with pytest.raises(NotIsotropy):
            witness_vector(g, rot)

    def test_rejects_non_isotropy_with_a_given_basis(self):
        g = sym_u(3)
        rot = subgroup_generated(g, [index_of(g, cycle([0, 1, 2], 3))])
        with pytest.raises(NotIsotropy):
            witness_vector(g, rot, fixed_lattice(rot))
        # the basis of a class, given with a proper subgroup of the class
        with pytest.raises(NotIsotropy):
            witness_vector(g, Subgroup(g, [g.identity_index]), fixed_lattice(Subgroup(g, range(g.order))))

    @pytest.mark.parametrize("r", [2, 3])
    def test_scans_a_sum_block_by_block(self, r):
        """A basis of r n columns lies in the r-fold sum: G applied block
        by block gives the witness that the sum's own group, every element
        placed r times along the diagonal, gives for the same basis."""
        rng = random.Random(0x5EED + r)
        lattices = [builtin(name) for name in ("sym3_u3", "alt5_u5", "signed_root_s5")]
        lattices += [random_signed_perm_lattice(rng.randint(2, 4), rng) for _ in range(50)]
        for lat in lattices:
            G = close(lat)
            D = diagonal_group(G, direct_sum_copies(lat, r))
            for cl in enumerate_isotropy_groups(G).classes:
                basis = block_diagonal([cl.fixed_space] * r)
                m = witness_vector(G, cl.subgroup, basis)
                assert m == witness_vector(D, Subgroup(D, cl.subgroup.indices), basis), (lat.name, cl.order)
                assert isotropy_group_of(D, m).indices == cl.subgroup.indices

    def test_rejects_a_subgroup_of_a_group_with_another_table(self):
        g = sym_u(3)
        # the same matrices closed a second time still make another group
        again, neg = sym_u(3), neg_identity(3)
        for h in (Subgroup(again, range(again.order)), Subgroup(neg, [neg.identity_index])):
            with pytest.raises(ValueError, match="subgroup of another group"):
                witness_vector(g, h)
        # the sum's group on G's table is another group too
        image = diagonal_group(g, direct_sum_copies(g.lattice, 2))
        with pytest.raises(ValueError, match="subgroup of another group"):
            witness_vector(image, Subgroup(g, range(g.order)))
        # a basis whose width is not a multiple of the rank
        for cols in (0, 2, 4, 7):
            with pytest.raises(ValueError, match="not a multiple of the lattice rank"):
                witness_vector(g, Subgroup(g, [g.identity_index]), IntMatrix.identity(cols))


@pytest.mark.parametrize(
    "argv",
    [["witness", "builtin:sym4_u4"], ["witness", "builtin:signed_root_s5"], ["analyze", "builtin:rank3_order6"],
     ["copies", "builtin:alt5_u5", "--r", "3"], ["copies", "builtin:signed_root_s5", "--r", "3"]],
)
def test_witnesses_scan_the_class_bases(argv, monkeypatch):
    """Every witness the CLI prints is scanned over its class's
    ``fixed_space``, or for ``copies`` over its preimage in the sum, so no
    witness computes an integer kernel.  A basis computed afresh from the
    subgroup gives the same vector, and the sum's witness is the one the
    sum's own group, materialized at rank r n, gives."""
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
        if argv[0] != "copies":
            before = len(kernels)
            assert witness_vector(G, h) == m
            fresh.append(len(kernels) - before)
        return m

    monkeypatch.setattr(intlinalg, "kernel_lattice", counted_kernel)
    module = cli if argv[0] == "witness" else obstruction
    monkeypatch.setattr(module, "witness_vector", recorded_witness)
    out = io.StringIO()
    assert cli.run([*argv, "--format", "json"], out) == 0
    assert kernels.count(True) == 0
    if argv[0] == "copies":
        (printed,) = [c["witness"] for c in json.loads(out.getvalue())["isotropy_classes"] if "witness" in c]
        monkeypatch.undo()
        expected, _ = materialized_copies_report(builtin(argv[1].removeprefix("builtin:")), int(argv[3]))
        (witness,) = [row.witness for row in expected.classes if row.witness is not None]
        assert tuple(printed) == witness
    else:
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
        assert not recognize_binary_icosahedral(Subgroup(g, range(g.order)))

    def test_wrong_order_rejected(self):
        g = sym_u(4)
        assert not recognize_binary_icosahedral(Subgroup(g, range(g.order)))


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
            class_for(cat, h)


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
            cl = class_for(cat, h)
            assert cl.order == h.order


def test_class_for_rejects_non_isotropy_subgroup():
    g = sym_u(3)
    cat = enumerate_isotropy_groups(g)
    rot = subgroup_generated(g, [index_of(g, cycle([0, 1, 2], 3))])
    with pytest.raises(KeyError):
        class_for(cat, rot)


def test_class_for_rejects_subgroup_of_another_group():
    cat = enumerate_isotropy_groups(close(builtin("sym3_u3")))
    with pytest.raises(ValueError):
        other = close(builtin("root_a2"))
        class_for(cat, Subgroup(other, range(other.order)))


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
            assert class_for(cat, h) is cl
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


@pytest.mark.parametrize(
    "name, prime, match",
    [
        ("rank3_order2", 2, "a nonidentity element reduces to the identity mod p"),
        ("root_a2", 3, "a fixed lattice's rank differs from its dimension mod p"),
    ],
    ids=["rank3_order2", "root_a2"],
)
def test_a_prime_dividing_the_order_is_caught(name, prime, match):
    """A key computed modulo a prime that divides the group's order can
    claim too much.  Over F_2, -I - I vanishes, so -I reduces to the
    identity.  Over F_3, the 3-cycle's x^2 + x + 1 is (x - 1)^2, so its key
    claims a line fixed although its integer fixed lattice is 0, and the
    rank guard fires."""
    G = close(builtin(name))
    assert G.prime != prime
    G.prime = prime
    with pytest.raises(TheoremViolation, match=match):
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


@pytest.mark.parametrize(
    "name", DEFAULT_BUILTINS + ("sym5_u5", "alt5_u5", "root_a4", "diag_sl5") + CONJ_GOLDENS,
)
def test_moved_ranks_decide_fixed_points_on_the_quotient(name):
    """A nonidentity element of a nontrivial isotropy group H fixes a
    nonzero vector of L / L^H exactly when it moves less than L^H's
    complement, the test the minimal-class guard makes; checked against
    the determinant of the induced matrix on minimal and non-minimal
    classes alike."""
    G = _group(name)
    n = G.lattice.rank
    for cl in enumerate_isotropy_groups(G).nontrivial_classes():
        others = [i for i in cl.subgroup.indices if i != G.identity_index]
        expected = fixes_quotient_vectors(G, others, cl.fixed_space)
        assert [G.moved_rank(i) < n - cl.fixed_rank for i in others] == expected


def test_quotient_guard_fires_on_a_non_minimal_class():
    """S3 on U3 fixes the rank-1 all-ones line, and its transpositions fix
    rank 2, so they fix vectors of the quotient."""
    G = close(builtin("sym3_u3"))
    (whole,) = [cl for cl in enumerate_isotropy_groups(G).classes if cl.order == 6]
    assert whole.fixed_rank == 1
    with pytest.raises(TheoremViolation, match="not fixed-point-free on the quotient"):
        isotropy._verify_quotient_fixed_point_free(G, whole)


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
    representatives are the members with the least lifted basis.  With no
    fixed part the Smith transform is the identity, and each class's
    lifted basis is the block copy diag(B, ..., B) of its base basis B."""
    G = _group(name)
    base_fixed = common_fixed_lattice(G.lattice.generators, G.lattice.rank)
    fixed = block_diagonal([base_fixed] * r)
    f = fixed.rows
    base_project, base_section = _coordinates(base_fixed)
    lift = _lift_to_copies(base_section, _coordinates(fixed)[0], r)
    catalog = enumerate_isotropy_groups(G, (base_project, base_section), lift)
    # the whole closure is swept in L, so its bases are projected to L / L^G first
    expected = closure_catalog(G, lambda basis: lift(hnf_basis(basis * base_project)))
    assert catalog_summary(catalog) == catalog_summary(expected)
    assert (f == 0) == (name in ("root_a3", "signed_root_s5", "icosian"))
    if f == 0:
        for cl in catalog.classes:
            assert cl.fixed_space == block_diagonal([fixed_lattice(cl.subgroup)] * r)


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


@pytest.mark.parametrize("name", ["sym5_u5", "signed_root_s5"])
def test_a_cyclic_fixed_space_never_swept_raises(monkeypatch, name):
    """Every prime-power key is called reducible, so no meet is taken and
    the fixed space of an element whose order has two primes, which is
    such a meet, is never reached."""
    monkeypatch.setattr(isotropy, "_spanned", lambda key, others, p: True)
    with pytest.raises(TheoremViolation, match="a cyclic fixed space was never swept"):
        enumerate_isotropy_groups(_group(name))


def test_a_witness_scan_with_no_candidates_raises(monkeypatch):
    """Every shell of the scan comes out empty, so no box up to the proven
    side |G| holds a candidate."""
    G = _group("sym4_u4")
    monkeypatch.setattr(isotropy, "_shell", lambda s, k: iter(()))
    with pytest.raises(TheoremViolation, match="witness scan exhausted its proven bound"):
        witness_vector(G, Subgroup(G, [G.identity_index]))


def test_an_orbit_swept_twice_raises(monkeypatch):
    """The sweep yields its first orbit a second time, so each of its
    stabilizers is indexed twice."""
    orbits = isotropy.isotropy_orbits

    def twice(G, coordinates=None):
        swept = orbits(G, coordinates)
        first = next(swept)
        yield first
        yield first
        yield from swept

    monkeypatch.setattr(isotropy, "isotropy_orbits", twice)
    with pytest.raises(TheoremViolation, match="meet-closure produced a duplicate stabilizer"):
        enumerate_isotropy_groups(_group("sym4_u4"))


def test_a_class_that_fixes_the_whole_lattice_raises(monkeypatch):
    """A catalog whose one class is the whole of S3 with all of L for its
    fixed space: the class is minimal, and the guard refuses it."""
    G = _group("sym3_u3")
    whole = isotropy.IsotropyClass(Subgroup(G, range(G.order)), IntMatrix.identity(3))
    monkeypatch.setattr(isotropy, "enumerate_isotropy_groups", lambda G: isotropy.IsotropyCatalog(G, (whole,)))
    with pytest.raises(TheoremViolation, match="nontrivial isotropy group fixes the whole lattice"):
        minimal_nontrivial_isotropy(G)


def test_a_perfect_fixed_point_free_group_not_recognized_raises(monkeypatch):
    """The icosian group acts fixed-point-freely and is perfect; against a
    corrupted SL(2, F_5) histogram it is not recognized."""
    G = _group("icosian")
    monkeypatch.setattr(isotropy, "SL2_F5_ORDER_HISTOGRAM", {})
    with pytest.raises(TheoremViolation, match="perfect fixed-point-free action is not binary icosahedral on rank 8k"):
        check_fpf_constraints(G)


def test_perfect_minimal_classes_that_move_little_raise(monkeypatch):
    """S3's minimal classes are its transpositions, which move rank 1;
    with every subgroup taken for perfect, the rank-8 bound refuses them."""
    G = _group("sym3_u3")
    monkeypatch.setattr(isotropy, "is_perfect", lambda h: True)
    with pytest.raises(TheoremViolation, match="all minimal isotropy groups perfect, yet some subgroup moves rank < 8"):
        check_fpf_constraints(G)


def _orbit_minima(perms, size):
    """The least point of each orbit, by merging each point with its
    images until nothing changes."""
    least = list(range(size))
    changed = True
    while changed:
        changed = False
        for s in perms:
            for x in range(size):
                low = min(least[x], least[s[x]])
                if least[x] != low or least[s[x]] != low:
                    least[x] = least[s[x]] = low
                    changed = True
    return sorted(set(least))


def _sparse_permutation(size, rng):
    """A cycle on a random third of the points, so that several orbits
    survive a few of them."""
    image, moved = list(range(size)), rng.sample(range(size), size // 3)
    for a, b in zip(moved, moved[1:] + moved[:1]):
        image[a] = b
    return image


@pytest.mark.parametrize("size, count", [(0, 0), (5, 0), (6, "identity"), (12, 2), (25, 3), (40, 3), (30, "fixed")])
@pytest.mark.parametrize("seed", range(4))
def test_least_orbit_points_partition_the_points(size, count, seed, monkeypatch):
    """Only orbits of more than one point are walked."""
    rng = random.Random(seed)
    if count == "identity":
        perms = [list(range(size))]
    elif count == "fixed":
        # three cycles on the odd points; every even point is fixed by all
        odd = [_sparse_permutation(size // 2, rng) for _ in range(3)]
        perms = [[x if x % 2 == 0 else 2 * s[x // 2] + 1 for x in range(size)] for s in odd]
    else:
        perms = [_sparse_permutation(size, rng) for _ in range(count)]
    walks = []
    breadth_first = isotropy._breadth_first
    monkeypatch.setattr(isotropy, "_breadth_first", lambda *args: walks.append(args[0]) or breadth_first(*args))
    reps = isotropy._least_orbit_points(perms, size)
    assert reps == _orbit_minima(perms, size)
    fixed = [x for x in range(size) if all(s[x] == x for s in perms)]
    assert len(walks) == len(reps) - len(fixed)
    if count == "fixed":
        assert set(range(0, size, 2)) <= set(fixed)


@pytest.mark.parametrize("name", ["sym7_u7", "root_a5", "icosian", "conj_root_a3.json", "identity generator"])
def test_conjugation_tables_are_conjugates(name):
    """Each generator's table, filled along the BFS tree, is x -> g x g^-1."""
    if name == "identity generator":
        G = close(GLattice(3, [C4, IntMatrix.identity(3), C4]))
    else:
        G = _group(name)
    tables = isotropy._conjugation_tables(G)
    assert sorted(tables) == list(G.generator_indices)
    for g, table in tables.items():
        assert type(table) is list
        assert table == [G.conj(g, i) for i in range(G.order)], g
