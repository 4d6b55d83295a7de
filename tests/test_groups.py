import math
import random
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multinv.errors import CapExceeded, InfiniteGroup, InfiniteOrderElement
from multinv.groups import (
    DEFAULT_CAP,
    GLattice,
    abelian_invariants,
    abelianization,
    are_conjugate_subgroups,
    block_diagonal,
    close,
    commutator_subgroup,
    element_order_histogram,
    full_subgroup,
    intersect_subgroups,
    is_perfect,
    subgroup_generated,
    trivial_subgroup,
)
from multinv.catalog import DEFAULT_BUILTINS, builtin, parse_group_definition
from multinv.errors import InvalidGenerator, TheoremViolation
from multinv.intlinalg import IntMatrix, common_fixed_lattice, snf, unimodular_inverse
from multinv.isotropy import enumerate_isotropy_groups, isotropy_group_of, witness_vector
from multinv.obstruction import direct_sum_copies, effective_reduction
from multinv.reflections import bireflection_subgroup

from helpers import conjugated_lattice, diag, random_unimodular, transposition, cycle, unipotent
from oracles import (
    check_closure,
    check_infinite_pair,
    commutator_seed,
    diagonal_group,
    difference_rank,
    induced_group,
    subgroup_oracle,
    sympy_abelianization,
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
    s3 = GLattice(3, [transposition(0, 1, 3), cycle([0, 1, 2], 3), IntMatrix.identity(3)])
    assert close(s3, cap=6).order == 6
    with pytest.raises(CapExceeded) as exc:
        close(s3, cap=5)
    assert exc.value.cap == 5
    assert type(exc.value) is CapExceeded  # a finite group is never called infinite
    with pytest.raises(CapExceeded):
        close(s3, cap=0)


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
    mats = G.elements
    inverses = {}
    for i, j in pairs:
        product_ = mats[i] * mats[j]
        assert G.mul(i, j) == G.index_of(product_), (i, j)
        if i not in inverses:
            inverses[i] = unimodular_inverse(mats[i])
        assert G.conj(i, j) == G.index_of(product_ * inverses[i]), (i, j)


def check_inverses_and_orders(G):
    ident = IntMatrix.identity(G.lattice.rank)
    for i, m in enumerate(G.elements):
        assert G.inv(i) == G.index_of(unimodular_inverse(m)), i
        power, order = m, 1
        while power != ident:
            power, order = power * m, order + 1
        assert G.element_order(i) == order, i


def check_table(G):
    gens = list(dict.fromkeys(G.lattice.generators))
    assert len(G.left) == len(gens)
    for row, g in zip(G.left, gens):
        assert list(row) == [G.index_of(g * m) for m in G.elements]


def check_stabilizer_masks(catalog, vectors):
    """Each vector's stabilizer, found by applying every element, is in the
    catalog's orbit index: the catalog's stabilizers and their conjugates
    against the brute-force reference."""
    for v in vectors:
        h = isotropy_group_of(catalog.group, v)
        assert catalog.class_for(h).order == h.order, v


def test_kernel_products_match_matrix_products(kernel_group):
    G = kernel_group
    check_products(G, _sample_pairs(G, random.Random(7)))


def test_kernel_inverses_and_orders_match_matrices(kernel_group):
    G = kernel_group
    check_inverses_and_orders(G)


def test_table_entries_are_left_products(kernel_group):
    G = kernel_group
    check_table(G)
    assert G.generator_indices == tuple(sorted({G.index_of(g) for g in G.lattice.generators}))


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
    assert G.elements == H.elements
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
