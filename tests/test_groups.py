import io
import math
import random
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multinv import cli, groups, intlinalg, isotropy, obstruction
from multinv.errors import CapExceeded, InfiniteGroup, InfiniteOrderElement
from multinv.groups import (
    DEFAULT_CAP,
    GLattice,
    Subgroup,
    abelian_invariants,
    block_diagonal,
    close,
    commutator_subgroup,
    element_order_histogram,
    is_perfect,
    schreier_sims_order,
    subgroup_generated,
)
from multinv.catalog import DEFAULT_BUILTINS, builtin, parse_group_definition
from multinv.errors import InvalidGenerator, TheoremViolation
from multinv.intlinalg import IntMatrix, common_fixed_lattice, snf
from multinv.isotropy import enumerate_isotropy_groups, witness_vector
from multinv.obstruction import direct_sum_copies, effective_reduction
from multinv.packed import unpack
from multinv.reflections import bireflection_subgroup

from helpers import (
    abelianization,
    conjugated_lattice,
    counted_builds,
    cycle,
    diag,
    elements,
    random_signed_perm,
    random_signed_perm_lattice,
    random_unimodular,
    transposition,
    unipotent,
)
from corpus_digest import corpus
from oracles import (
    are_conjugate_subgroups,
    check_closure,
    check_infinite_pair,
    check_permutation_closure,
    class_for,
    commutator_seed,
    diagonal_group,
    difference_rank,
    echelon_fixed_key,
    index_of,
    induced_group,
    intersect_subgroups,
    isotropy_group_of,
    subgroup_oracle,
    sympy_abelianization,
    unimodular_inverse,
)

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
        rot = index_of(g, cycle([0, 1, 2], 3))
        assert subgroup_generated(g, [rot]).order == 3

    def test_square_of_order4(self):
        g = close(GLattice(3, [C4]))
        sq = index_of(g, C4 * C4)
        assert subgroup_generated(g, [sq]).order == 2

    def test_intersections(self):
        g = s3_group()
        h = subgroup_generated(g, [index_of(g, transposition(0, 1, 3))])
        k = subgroup_generated(g, [index_of(g, cycle([0, 1, 2], 3))])
        assert intersect_subgroups(h, h) == h
        assert intersect_subgroups(h, Subgroup(g, [g.identity_index])).is_trivial()
        assert intersect_subgroups(h, k).is_trivial()


class TestCommutators:
    def test_abelian(self):
        g = close(GLattice(3, [C4]))
        assert commutator_subgroup(Subgroup(g, range(g.order))).is_trivial()

    def test_s3(self):
        g = s3_group()
        k = commutator_subgroup(Subgroup(g, range(g.order)))
        assert k.order == 3
        # normality under conjugation by all of s3
        for x in range(g.order):
            assert all(g.conj(x, i) in k for i in k.indices)

    def test_perfect_flag(self):
        g = s3_group()
        assert not is_perfect(Subgroup(g, range(g.order)))
        assert is_perfect(Subgroup(g, [g.identity_index]))


class TestAbelianization:
    def test_cyclic4(self):
        g = close(GLattice(3, [C4]))
        assert abelianization(Subgroup(g, range(g.order))) == (4,)

    def test_s3(self):
        g = s3_group()
        assert abelianization(Subgroup(g, range(g.order))) == (2,)

    def test_klein(self):
        g = close(GLattice(2, [diag(-1, 1), diag(1, -1)]))
        assert abelianization(Subgroup(g, range(g.order))) == (2, 2)

    def test_perfect_is_empty(self):
        g = s3_group()
        assert abelianization(Subgroup(g, [g.identity_index])) == ()


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
        h = subgroup_generated(g, [index_of(g, transposition(0, 1, 3))])
        assert are_conjugate_subgroups(g, h, h)

    def test_transpositions_conjugate(self):
        g = s3_group()
        h1 = subgroup_generated(g, [index_of(g, transposition(0, 1, 3))])
        h2 = subgroup_generated(g, [index_of(g, transposition(0, 2, 3))])
        assert are_conjugate_subgroups(g, h1, h2)

    def test_different_orders(self):
        g = s3_group()
        h1 = subgroup_generated(g, [index_of(g, transposition(0, 1, 3))])
        h2 = subgroup_generated(g, [index_of(g, cycle([0, 1, 2], 3))])
        assert not are_conjugate_subgroups(g, h1, h2)


def test_closure_idempotent():
    g = s3_group()
    mats = elements(g)
    seen = {m.entries for m in mats}
    for a in mats:
        for b in mats:
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
    s3 = GLattice(3, [transposition(0, 1, 3), cycle([0, 1, 2], 3), IntMatrix.identity(3)])
    assert close(s3, cap=6).order == 6
    with pytest.raises(CapExceeded) as exc:
        close(s3, cap=5)
    assert exc.value.cap == 5
    assert type(exc.value) is CapExceeded  # a finite group is never called infinite
    with pytest.raises(CapExceeded):
        close(s3, cap=0)
    # every group holds its identity, on X (rank 3) as on packed matrices
    # (rank 65 skips the walk)
    for n in (3, 65):
        assert close(GLattice(n, []), cap=1).order == 1
        with pytest.raises(CapExceeded):
            close(GLattice(n, []), cap=0)


# -- infinite groups are refused at the first mod-3 collision -------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
SHEAR = GLattice(2, [IntMatrix.from_rows([[1, 1], [0, 1]])], "shear")


def _mixed_unipotent(n):
    return conjugated_lattice(unipotent(n), random_unimodular(n, random.Random(n)))


@pytest.mark.parametrize("n", [2, 8, 24, "shear"])
def test_infinite_group_refused_within_nine_elements(n):
    lat = SHEAR if n == "shear" else _mixed_unipotent(n)
    # a plain CapExceeded here would mean a tenth element was reached first
    with pytest.raises(InfiniteGroup) as exc:
        close(lat, cap=9)
    check_infinite_pair(exc.value)
    assert exc.value.cap == 9
    assert "infinite" in str(exc.value) and "cap of 9 elements" in str(exc.value)


def test_infinite_group_refused_at_the_default_cap():
    with pytest.raises(InfiniteGroup) as exc:
        close(_mixed_unipotent(8))
    check_infinite_pair(exc.value)
    assert exc.value.cap == DEFAULT_CAP
    assert isinstance(exc.value, CapExceeded)


@pytest.mark.parametrize("n", [60, 120])
def test_dense_infinite_order_generator_refused_by_its_trace(n):
    """A dense generator of infinite order meets no mod-3 twin for a long
    time; the first element with |tr g| > n proves the group infinite."""
    g = random_unimodular(n, random.Random(0), ops=6 * n)
    start = time.perf_counter()
    with pytest.raises(InfiniteOrderElement) as exc:
        close(GLattice(n, [g]))
    assert time.perf_counter() - start < 5
    element = exc.value.element
    assert abs(sum(element.entry(i, i) for i in range(n))) > n
    # one generator: the closure walks its powers, and the first with a large trace is refused
    power = g
    for _ in range(100):
        if power == element:
            break
        assert abs(sum(power.entry(i, i) for i in range(n))) <= n
        power = g * power
    assert power == element
    assert exc.value.cap == DEFAULT_CAP and "trace" in str(exc.value)


def _finite_lattice(name):
    if name == "icosian^3":
        return direct_sum_copies(builtin("icosian"), 3)
    if name.startswith("conj_"):
        return parse_group_definition((GOLDEN / f"{name}.json").read_bytes()).lattice
    return builtin(name)


@pytest.mark.parametrize(
    "name",
    DEFAULT_BUILTINS
    + ("sym7_u7", "sym6_u6", "alt6_u6", "root_a5", "diag_sl6")
    + ("conj_root_a3", "conj_sym4_u4", "conj_signed_root_s5", "icosian^3"),
)
def test_close_matches_naive_closure(name):
    lat = _finite_lattice(name)
    check_closure(close(lat), random_unimodular(lat.rank, random.Random(lat.rank)))


# -- packed matrices: wide entries widen the fields ----------------------------


def _wide(name):
    """The builtin in a basis U = (I + 2^40 E_12)(I + (2^40 + 1) E_21),
    unimodular with entries near 2^40 and 2^80, so that the conjugated
    elements have entries far past what 32-bit fields hold."""
    lat = builtin(name)
    n = lat.rank
    a, b = 2**40, 2**40 + 1
    upper = IntMatrix(n, n, (int(i == j) + a * ((i, j) == (0, 1)) for i in range(n) for j in range(n)))
    lower = IntMatrix(n, n, (int(i == j) + b * ((i, j) == (1, 0)) for i in range(n) for j in range(n)))
    return conjugated_lattice(lat, upper * lower)


@pytest.mark.parametrize("name", ["sym4_u4", "icosian"])
def test_wide_entries_widen_the_fields_and_keep_the_closure(name, monkeypatch):
    lat = _wide(name)
    assert max(abs(e) for g in lat.generators for e in g.entries) > 2**70
    widths = []

    def recorded(lattice, cap, width):
        widths.append(width)
        return packed_closure(lattice, cap, width)

    packed_closure = groups._packed_closure
    monkeypatch.setattr(groups, "_packed_closure", recorded)
    monkeypatch.setattr(groups, "PERMUTATION_BUDGET", 0)
    G = close(lat)
    # each field width that proved too narrow was walked again at twice it
    assert widths[0] == 32 and widths == [32 * 2**k for k in range(len(widths))] and len(widths) > 2
    assert G._width == widths[-1]
    monkeypatch.undo()
    check_closure(G, random_unimodular(lat.rank, random.Random(lat.rank)))


# -- the order from the permutation action on the unit vectors' orbits ----------


@pytest.mark.parametrize(
    "name", DEFAULT_BUILTINS + ("sym7_u7", "sym8_u8") + tuple(sorted(p.stem for p in GOLDEN.glob("conj_*.json")))
)
def test_schreier_sims_order_is_the_closure_order(name):
    lat = _finite_lattice(name)
    assert schreier_sims_order(lat) == close(lat).order


def test_the_order_bounds_itself_by_its_argument():
    # 10! = 3628800: the first lower bound past 1000 is returned in its place
    bounded = schreier_sims_order(builtin("sym10_u10"), 1000)
    assert 1000 < bounded < math.factorial(10)
    assert schreier_sims_order(builtin("sym10_u10")) == math.factorial(10)


def _schreier_sims_calls(monkeypatch):
    """Records the bound and the result of every call of schreier_sims_order."""
    calls = []

    def counted(lattice, bound=math.inf):
        calls.append((bound, order(lattice, bound)))
        return calls[-1][1]

    order = groups.schreier_sims_order
    monkeypatch.setattr(groups, "schreier_sims_order", counted)
    return calls


def _is_element_walk(starts, n):
    """Whether a ``_breadth_first`` call lists group elements: it starts
    at the identity alone, as a permutation of X or as matrix entries
    packed in one int; the unit-vector walk starts at e_1, ..., e_n."""
    return starts == [bytes(range(n))] or (len(starts) == 1 and type(starts[0]) is int)


def _order_calls(monkeypatch, n):
    """Records the bound and the result of every order computation, with
    the number of elements the rank-n closure had built when it was
    asked."""
    calls, built = [], [1]

    def counted(perms, degree, bound):
        calls.append((bound, order(perms, degree, bound), built[0]))
        return calls[-1][1]

    def counting(starts, products, admit):
        if not _is_element_walk(starts, n):
            return breadth_first(starts, products, admit)

        def admitted(y, j):
            built[0] = j + 1
            admit(y, j)

        return breadth_first(starts, products, admitted)

    order, breadth_first = groups._permutation_group_order, groups._breadth_first
    monkeypatch.setattr(groups, "_permutation_group_order", counted)
    monkeypatch.setattr(groups, "_breadth_first", counting)
    return calls


def _mixed(lat):
    """lat in the basis T T^t, T the upper-triangular matrix of ones: X
    outgrows PERMUTATION_BUDGET, so close enumerates matrices."""
    n = lat.rank
    t = IntMatrix(n, n, (int(j >= i) for i in range(n) for j in range(n)))
    return conjugated_lattice(lat, t * t.transpose())


@pytest.mark.parametrize(
    "name, calls",
    [
        ("sym6_u6", [(720, 1)]),
        ("alt7_u7", [(2520, 1)]),
        ("sym7_u7", [(5040, 1)]),
        ("alt7_u7~mixed", [(2520, 2048)]),
        ("sym6_u6~mixed", []),
    ],
)
def test_close_computes_the_order_once_past_the_threshold(name, calls, monkeypatch):
    """In coordinates X has 6 or 7 points, and the order comes before the
    second element.  Mixed, X has 180 or 294 points, and the matrix
    closure asks at ORDER_CHECK_AT, which 720 < 2048 < 2520 separates."""
    lat = _mixed(builtin(name.removesuffix("~mixed"))) if name.endswith("~mixed") else builtin(name)
    recorded = _order_calls(monkeypatch, lat.rank)
    close(lat, cap=10**5)
    assert recorded == [(10**5, order, built) for order, built in calls]


def test_an_order_above_the_cap_is_refused_before_the_second_element(monkeypatch):
    def enumerated(starts, products, admit):
        if _is_element_walk(starts, 8):
            raise AssertionError("an element past the identity was built")
        return breadth_first(starts, products, admit)

    breadth_first = groups._breadth_first
    monkeypatch.setattr(groups, "_breadth_first", enumerated)
    with pytest.raises(CapExceeded) as exc:
        close(builtin("sym8_u8"), cap=20000)
    assert type(exc.value) is CapExceeded
    assert str(exc.value) == "group closure exceeded the cap of 20000 elements"


@pytest.mark.parametrize(
    "name",
    DEFAULT_BUILTINS
    + ("sym7_u7",)
    + tuple(sorted(p.stem for p in GOLDEN.glob("conj_*.json")))
    + ("rank 0", "rank 1", "identity generator", "identity only"),
)
def test_the_permutation_closure_is_the_matrix_closure(name, monkeypatch):
    special = {
        "rank 0": GLattice(0, [IntMatrix(0, 0, ())]),
        "rank 1": GLattice(1, [IntMatrix(1, 1, (-1,))]),
        "identity generator": GLattice(3, [C4, IntMatrix.identity(3), C4]),
        "identity only": GLattice(3, [IntMatrix.identity(3)]),
    }
    lat = special[name] if name in special else _finite_lattice(name)
    large = {"icosian": 720, "conj_alt6_u6": 120, "conj_signed_root_s5": 300}
    if name in large:
        assert not check_permutation_closure(lat)
        # the most points a byte can index
        monkeypatch.setattr(groups, "PERMUTATION_BUDGET", 256)
    assert check_permutation_closure(lat) == (large.get(name, 0) <= 256)


def test_an_orbit_past_the_budget_leaves_the_closure_unchanged(monkeypatch):
    expected = close(builtin("sym7_u7"))
    monkeypatch.setattr(groups, "PERMUTATION_BUDGET", 1)
    monkeypatch.setattr(groups, "ORBIT_BUDGET", 1)
    assert schreier_sims_order(builtin("sym7_u7")) is None
    G = close(builtin("sym7_u7"))
    assert elements(G) == elements(expected) and G.left == expected.left
    assert list(G._parent) == list(expected._parent) and list(G._letter) == list(expected._letter)


def test_the_unit_orbits_stop_at_their_budget():
    """sym4_u4 in the basis T T^t has |X| = 36: the walk returns X, with
    e_1, ..., e_4 first, at a budget of 36, and gives up at 35."""
    lat = _mixed(builtin("sym4_u4"))
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    points, perms = groups._unit_orbits(lat, 36)
    assert len(points) == len(set(points)) == 36 and points[:4] == units
    assert set(points) == {g.apply(e) for g in elements(close(lat)) for e in units}
    assert [type(p) for p in perms] == [tuple, tuple]
    for g, perm in zip(lat.generators, perms):
        assert [points[j] for j in perm] == [g.apply(x) for x in points]
    assert groups._unit_orbits(lat, 35) is None


def test_a_walk_from_several_starts_keeps_them_first():
    """Residues mod 11 under x -> 2x and x -> x + 5, from 7, 3 and 9 in
    that order; a start's parent and letter are 0."""
    maps = [lambda x: 2 * x % 11, lambda x: (x + 5) % 11]
    admitted = []
    found, left, parents, letters = groups._breadth_first([7, 3, 9], maps, lambda y, j: admitted.append(j))
    assert found[:3] == [7, 3, 9] and sorted(found) == list(range(11))
    assert [[found[j] for j in row] for row in left] == [list(map(f, found)) for f in maps]
    assert list(parents[:3]) == list(letters[:3]) == [0, 0, 0]
    assert all(found[x] == maps[k](found[parents[x]]) for x, k in enumerate(letters) if x >= 3)
    assert admitted == list(range(3, 11))


@pytest.mark.parametrize("n", [2, 8, 24, "shear"])
def test_an_infinite_group_past_the_threshold_keeps_its_refusal(n, monkeypatch):
    """With the order computed at the second element, the orbit walk meets
    an infinite orbit and gives up; the mod-3 refusal is the one reached
    without it, with the same pair."""
    lat = SHEAR if n == "shear" else _mixed_unipotent(n)
    assert groups._unit_orbits(lat, groups.PERMUTATION_BUDGET) is None
    with pytest.raises(InfiniteGroup) as plain:
        close(lat)
    recorded = _schreier_sims_calls(monkeypatch)
    monkeypatch.setattr(groups, "ORDER_CHECK_AT", 2)
    with pytest.raises(InfiniteGroup) as checked:
        close(lat)
    assert recorded == [(DEFAULT_CAP, None)]
    assert str(checked.value) == str(plain.value)
    assert (checked.value.first, checked.value.second) == (plain.value.first, plain.value.second)


def test_a_closure_that_disagrees_with_the_order_raises(monkeypatch):
    """On permutations, and on matrices with a budget of 0."""
    order = groups._permutation_group_order
    monkeypatch.setattr(groups, "_permutation_group_order", lambda perms, degree, bound: order(perms, degree, bound) + 1)
    for budget in (groups.PERMUTATION_BUDGET, 0):
        monkeypatch.setattr(groups, "PERMUTATION_BUDGET", budget)
        with pytest.raises(TheoremViolation, match="closure built 5040 elements, but the group's order is 5041"):
            close(builtin("sym7_u7"))


def test_powers_that_never_reach_the_identity_raise(monkeypatch):
    G = close(builtin("sym3_u3"))
    monkeypatch.setattr(G, "identity_index", -1)  # no index is the identity
    with pytest.raises(TheoremViolation, match="an element's powers never reach the identity"):
        G.element_order(1)


# -- elements on demand: compact forms, one matrix each when read ---------------


def test_sym8_u8_closes_in_under_half_its_eager_memory():
    """The compact elements, table and words of an order-40,320 group:
    building all 40,320 matrices eagerly held 31.5 MB."""
    tracemalloc.start()
    try:
        G = close(builtin("sym8_u8"))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.order == 40320
    assert held < 15.75e6, held


def test_mixed_sym7_u7_closes_on_packed_matrices_in_little_memory():
    """X has 294 points in the basis T T^t, so the 5,040 elements are
    closed by matrix products; with entry tuples the group held 3.34 MB,
    at a traced peak of 3.96 MB."""
    lat = _mixed(builtin("sym7_u7"))
    assert groups._unit_orbits(lat, groups.PERMUTATION_BUDGET) is None
    tracemalloc.start()
    try:
        G = close(lat)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.order == 5040 and G._points is None
    assert held < 2.5e6, held
    assert peak <= 3.96e6, peak


@pytest.mark.parametrize("budget", [groups.PERMUTATION_BUDGET, 0])
def test_an_element_matrix_is_built_once(budget, monkeypatch):
    """On permutations and on matrices; the matrix path holds each element
    as one packed int and unpacks it only to build its matrix."""
    monkeypatch.setattr(groups, "PERMUTATION_BUDGET", budget)
    G = close(builtin("root_a3"))
    built = counted_builds(monkeypatch)
    for i in range(G.order):
        assert G.element(i) is G.element(i)
        if budget == 0:
            assert type(G._compact[i]) is int
            assert G.element(i).entries == unpack(G._compact[i], 9, G._width)
    assert len(built) == G.order


def test_analyze_sym7_u7_builds_few_element_matrices(monkeypatch):
    """The catalog keys every element off its compact form, so the
    analysis reads only a few generators' and generating sets' matrices."""
    built = counted_builds(monkeypatch)
    assert cli.run(["analyze", "builtin:sym7_u7"], io.StringIO()) == 0
    assert 0 < len(built) <= 60, len(built)


MONOMIAL = (
    tuple(f"{family}{n}_u{n}" for family in ("sym", "alt") for n in range(3, 8))
    + tuple(f"diag_sl{n}" for n in range(2, 9))
    + ("rank3_order2", "rank3_order4", "rank3_order6")
)


def _check_cycle_keys(G):
    """G is monomial, and every element's key read off its signed cycles,
    cached or not, is the echelon form of g - I."""
    assert G._signed is not None
    for i in range(G.order):
        expected = echelon_fixed_key(G, i)
        assert G._cycle_key(G._compact[i]) == expected, i
        assert G.fixed_key(i) == expected, i


@pytest.mark.parametrize("name", MONOMIAL)
def test_cycle_keys_are_the_echelon_forms(name):
    """alt3_u3 has odd order, so it is keyed over F_2, where every cycle's
    signs multiply to 1."""
    G = close(builtin(name))
    assert (G.prime == 2) == (name == "alt3_u3")
    _check_cycle_keys(G)


def test_cycle_keys_of_random_and_rank_1_monomial_groups():
    """The trivial group on rank 0, {±1} on rank 1, random signed
    permutation groups of rank 1 to 5, and the plain half of the seeded
    corpus."""
    rng = random.Random(44)
    lattices = [GLattice(0, [IntMatrix(0, 0, ())]), GLattice(1, [IntMatrix(1, 1, (-1,))])]
    lattices += [random_signed_perm_lattice(n, rng, 3) for n in range(1, 6) for _ in range(3)]
    lattices += [lat for lat in corpus().values() if not lat.name.endswith("~conj")]
    for lat in lattices:
        _check_cycle_keys(close(lat))


@pytest.mark.parametrize("name", ["root_a5", "icosian", "sym4_u4~mixed", "conj_alt6_u6"])
def test_groups_off_signed_permutations_are_not_monomial(name):
    """These groups' points of X are not all signed unit vectors, so their
    keys stay echelon forms."""
    if name.endswith("~mixed"):
        lat = _mixed(builtin(name.removesuffix("~mixed")))
    elif name.startswith("conj_"):
        lat = parse_group_definition((GOLDEN / f"{name}.json").read_bytes()).lattice
    else:
        lat = builtin(name)
    G = close(lat)
    assert G._signed is None
    assert [G.fixed_key(i) for i in range(G.order)] == [echelon_fixed_key(G, i) for i in range(G.order)]


# -- the action on vectors ---------------------------------------------------------


def _check_action(G, vectors):
    """``action`` lists g m in index order, as every element's matrix does."""
    act = G.action()
    for m in vectors:
        assert act(m) == [G.element(i).apply(m) for i in range(G.order)], m


def _window(n, rng):
    """All of [-2, 2]^n up to rank 4, 200 seeded draws from it above."""
    if n <= 4:
        return list(product(range(-2, 3), repeat=n))
    return [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(200)]


def _check_index_action(lat, rng, monkeypatch):
    """A monomial group acts by index, building no element matrix."""
    G = close(lat)
    assert G._signed is not None
    built = counted_builds(monkeypatch)
    G.action()
    assert built == []
    monkeypatch.undo()
    _check_action(G, _window(lat.rank, rng))


@pytest.mark.parametrize(
    "name", [name for name in DEFAULT_BUILTINS if not name.startswith(("root_", "signed_", "icosian"))]
    + ["diag_sl5", "alt5_u5"],
)
def test_the_index_action_is_the_matrix_action(name, monkeypatch):
    """Every monomial builtin, and the rank-5 groups of the orbit presets."""
    _check_index_action(builtin(name), random.Random(5), monkeypatch)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("family", ["diag_sl{n}", "alt{n}_u{n}"])
def test_the_index_action_on_signed_permutation_conjugates(family, n, monkeypatch):
    """The orbit presets' groups in two seeded signed-permutation bases."""
    rng = random.Random(n)
    for _ in range(2):
        lat = conjugated_lattice(builtin(family.format(n=n)), random_signed_perm(n, rng))
        _check_index_action(lat, rng, monkeypatch)


def test_the_index_action_on_random_and_small_rank_groups(monkeypatch):
    """Rank 0, {±1} and the trivial group on rank 1, where one index is a
    slice, and random signed permutation groups of rank 1 to 5."""
    rng = random.Random(47)
    lattices = [GLattice(0, [IntMatrix(0, 0, ())]), GLattice(1, [IntMatrix(1, 1, (-1,))]), GLattice(1, [])]
    lattices += [random_signed_perm_lattice(n, rng, 3) for n in range(1, 6) for _ in range(3)]
    for lat in lattices:
        _check_index_action(lat, rng, monkeypatch)


@pytest.mark.parametrize("name", ["root_a5", "icosian", "conj_sym4_u4"])
def test_groups_off_signed_permutations_act_by_matrices(name, monkeypatch):
    G = close(_finite_lattice(name))
    assert G._signed is None
    built = counted_builds(monkeypatch)
    G.action()
    assert len(built) == G.order
    monkeypatch.undo()
    _check_action(G, _window(G.lattice.rank, random.Random(5)))


def test_analyze_sym7_u7_makes_one_hermite_form_per_member(monkeypatch):
    """sym7_u7 is monomial, so no fixed key is an echelon form, and its
    catalog is swept in L / L^G, so a member costs at most one Hermite form
    and the one copy of ``analyze`` lifts nothing."""
    calls = {"rref_mod": 0, "hnf_basis": 0}
    rref_mod, hnf_basis = intlinalg.rref_mod, intlinalg.hnf_basis

    def counted_rref(rows, p, base=()):
        calls["rref_mod"] += 1
        return rref_mod(rows, p, base)

    def counted_hnf(a):
        calls["hnf_basis"] += 1
        return hnf_basis(a)

    catalogs = []
    real = obstruction.enumerate_isotropy_groups

    def recorded(*args):
        catalogs.append(real(*args))
        return catalogs[-1]

    monkeypatch.setattr(obstruction, "enumerate_isotropy_groups", recorded)
    monkeypatch.setattr(groups, "rref_mod", counted_rref)
    for module in (intlinalg, isotropy, obstruction):
        monkeypatch.setattr(module, "hnf_basis", counted_hnf)
    assert cli.run(["analyze", "builtin:sym7_u7"], io.StringIO()) == 0
    (catalog,) = catalogs
    assert calls["rref_mod"] == 0
    assert 0 < calls["hnf_basis"] <= len(catalog._orbit_index)


# -- the Cayley-table kernel against matrix arithmetic -------------------------


def _kernel_lattice(name):
    if name == "root_a3~conj":
        # a base change that takes the elements off signed permutation matrices
        lat = conjugated_lattice(builtin("root_a3"), random_unimodular(3, random.Random(3)))
        assert max(abs(e) for g in lat.generators for e in g.entries) > 1
        return lat
    if name == "icosian^2":
        return direct_sum_copies(builtin("icosian"), 2)
    return builtin(name)


@pytest.fixture(scope="module", params=["sym4_u4", "root_a3~conj", "icosian", "icosian^2"])
def kernel_group(request):
    return close(_kernel_lattice(request.param))


def _sample_pairs(G, rng):
    if G.order**2 <= 5000:
        return list(product(range(G.order), repeat=2))
    return [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(1000)]


def check_products(G, pairs):
    mats = elements(G)
    inverses = {}
    for i, j in pairs:
        product_ = mats[i] * mats[j]
        assert G.mul(i, j) == index_of(G, product_), (i, j)
        if i not in inverses:
            inverses[i] = unimodular_inverse(mats[i])
        assert G.conj(i, j) == index_of(G, product_ * inverses[i]), (i, j)


def check_inverses_and_orders(G):
    ident = IntMatrix.identity(G.lattice.rank)
    for i, m in enumerate(elements(G)):
        assert G.inv(i) == index_of(G, unimodular_inverse(m)), i
        power, order = m, 1
        while power != ident:
            power, order = power * m, order + 1
        assert G.element_order(i) == order, i


def check_table(G):
    gens = list(dict.fromkeys(G.lattice.generators))
    assert len(G.left) == len(gens)
    for row, g in zip(G.left, gens):
        assert list(row) == [index_of(G, g * m) for m in elements(G)]


def check_stabilizer_masks(catalog, vectors):
    """Each vector's stabilizer, found by applying every element, is in the
    catalog's orbit index: the catalog's stabilizers and their conjugates
    against the brute-force reference."""
    for v in vectors:
        h = isotropy_group_of(catalog.group, v)
        assert class_for(catalog, h).order == h.order, v


def test_kernel_products_match_matrix_products(kernel_group):
    G = kernel_group
    check_products(G, _sample_pairs(G, random.Random(7)))


def test_kernel_inverses_and_orders_match_matrices(kernel_group):
    G = kernel_group
    check_inverses_and_orders(G)


def test_table_entries_are_left_products(kernel_group):
    G = kernel_group
    check_table(G)
    assert G.generator_indices == tuple(sorted({index_of(G, g) for g in G.lattice.generators}))


@pytest.fixture(scope="module")
def kernel_catalog(kernel_group):
    return enumerate_isotropy_groups(kernel_group)


def test_stabilizer_mask_on_zero_vector_and_witnesses(kernel_catalog):
    G = kernel_catalog.group
    vectors = [(0,) * G.lattice.rank] + [witness_vector(G, cl.subgroup) for cl in kernel_catalog.classes]
    check_stabilizer_masks(kernel_catalog, vectors)


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_stabilizer_mask_on_drawn_vectors(kernel_catalog, data):
    """Raw small vectors (mostly free orbits) and integer combinations of the
    fixed-space basis of a drawn element (nontrivial stabilizers)."""
    G = kernel_catalog.group
    n = G.lattice.rank
    if data.draw(st.booleans()):
        v = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    else:
        basis = common_fixed_lattice([G.element(data.draw(st.integers(0, G.order - 1)))], n)
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=basis.rows, max_size=basis.rows))
        v = [sum(c * basis.entry(r, j) for r, c in enumerate(coeffs)) for j in range(n)]
    check_stabilizer_masks(kernel_catalog, [tuple(v)])


class TestKernelEdgeCases:
    def check_all(self, G):
        check_products(G, list(product(range(G.order), repeat=2)))
        check_inverses_and_orders(G)
        check_table(G)
        vectors = list(product(range(-1, 2), repeat=G.lattice.rank))
        check_stabilizer_masks(enumerate_isotropy_groups(G), vectors)

    def test_no_generators(self):
        G = close(GLattice(3, []))
        assert G.order == 1 and G.left == () and G.generator_indices == ()
        self.check_all(G)

    def test_duplicate_generators_share_a_row(self):
        G = close(GLattice(3, [C4, C4, C4 * C4 * C4, C4]))
        assert G.order == 4 and len(G.left) == 2
        self.check_all(G)

    def test_identity_generator(self):
        ident = IntMatrix.identity(3)
        G = close(GLattice(3, [ident, transposition(0, 1, 3), cycle([0, 1, 2], 3), ident]))
        assert G.order == 6 and len(G.left) == 3
        assert list(G.left[0]) == list(range(G.order))
        assert G.identity_index in G.generator_indices
        self.check_all(G)


def _sum_base(name):
    if name == "sym4_u4+repeated":
        # one generator given twice, the identity once more
        gens = builtin("sym4_u4").generators
        return GLattice(4, [gens[0], *gens, gens[0], IntMatrix.identity(4)], name)
    return _finite_lattice(name)


@pytest.mark.parametrize(
    "name",
    ["sym5_u5", "alt5_u5", "sym4_u4", "root_a3~conj+fixed"]
    + [f"{base}^{r}" for base in ("sym4_u4", "alt5_u5", "icosian", "conj_signed_root_s5", "sym4_u4+repeated")
       for r in (2, 3)],
)
def test_induced_group_matches_a_second_closure(name):
    """A group carried along the first closure's BFS tree, to the reduced
    lattice or diagonally to r copies of its lattice, is the group a fresh
    closure of that lattice enumerates, table included."""
    if "^" in name:
        base_name, r = name.split("^")
        base = _sum_base(base_name)
        lat = direct_sum_copies(base, int(r))
        G = diagonal_group(close(base), lat)
    else:
        if name == "root_a3~conj+fixed":
            # a fixed coordinate added, then mixed in by a base change
            base = _kernel_lattice("root_a3~conj")
            padded = GLattice(4, [IntMatrix.from_rows([list(g.row(i)) + [0] for i in range(3)] + [[0, 0, 0, 1]])
                                  for g in base.generators])
            base = conjugated_lattice(padded, random_unimodular(4, random.Random(11)))
        else:
            base = builtin(name)
        lat = effective_reduction(base)
        assert lat is not base
        G = induced_group(close(base), lat)
    H = close(lat)
    assert elements(G) == elements(H)
    assert G.left == H.left
    assert G.identity_index == H.identity_index and G.generator_indices == H.generator_indices
    check_products(G, _sample_pairs(G, random.Random(1)))


def test_diagonal_group_rejects_a_lattice_that_is_not_the_sum():
    base = builtin("sym4_u4")
    G = close(base)
    twisted = GLattice(8, [block_diagonal([g, g.transpose()]) for g in base.generators])
    with pytest.raises(ValueError):
        diagonal_group(G, twisted)
    with pytest.raises(ValueError):
        diagonal_group(G, direct_sum_copies(GLattice(4, base.generators[:1]), 2))
    with pytest.raises(ValueError):
        diagonal_group(close(GLattice(2, [])), GLattice(5, []))


def test_induced_group_rejects_an_unfaithful_image():
    G = close(GLattice(3, [C4]))
    with pytest.raises(TheoremViolation):
        induced_group(G, GLattice(1, [IntMatrix.from_rows([[-1]])]))


# -- generated subgroups against closure by matrix products ----------------------


def check_subgroup_functions(G, h):
    """commutator_subgroup, bireflection_subgroup and generating_set on h,
    each against subgroup_oracle."""
    assert set(commutator_subgroup(h).indices) == subgroup_oracle(G, commutator_seed(G, h.indices))
    bireflections = [i for i in h.indices if difference_rank([G.element(i)]) <= 2]
    assert set(bireflection_subgroup(h).indices) == subgroup_oracle(G, bireflections)
    gens = h.generating_set()
    assert subgroup_oracle(G, gens) == set(h.indices)
    for j, g in enumerate(gens):
        assert g not in subgroup_oracle(G, gens[:j]), (gens, j)


@pytest.fixture(scope="module", params=["sym5_u5", "alt5_u5", "signed_root_s5", "icosian", "conj_alt6_u6"])
def oracle_group(request):
    return close(_finite_lattice(request.param))


def test_subgroup_functions_match_the_oracle_on_catalog_classes(oracle_group):
    G = oracle_group
    for cl in enumerate_isotropy_groups(G).classes:
        h = cl.subgroup
        assert subgroup_generated(G, h.indices) == h
        check_subgroup_functions(G, h)


def test_subgroup_functions_match_the_oracle_on_random_seeds(oracle_group):
    G = oracle_group
    rng = random.Random(G.order)
    for _ in range(6):
        seed = rng.sample(range(G.order), rng.randint(1, 3))
        h = subgroup_generated(G, seed)
        assert set(h.indices) == subgroup_oracle(G, seed), seed
        check_subgroup_functions(G, h)
