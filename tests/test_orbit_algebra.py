import random
from dataclasses import replace
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from multinv import orbit_algebra
from multinv.cli import _orbit_preset
from multinv.errors import NotInvariant, TheoremViolation
from multinv.groups import GLattice, close
from multinv.intlinalg import IntMatrix, rank
from multinv.orbit_algebra import (
    LaurentElement,
    act,
    alternating_d,
    elementary_symmetric,
    express_in_orbit_basis,
    is_invariant,
    orbit_sum,
    verify_free_decomposition,
)

from helpers import counted_builds, cycle, diag, transposition
from oracles import check_certificate, dense_free_decomposition, orbit_product, orbit_representative, product_value


def neg_group(n):
    return close(GLattice(n, [-IntMatrix.identity(n)], f"neg{n}"))


def diag_sl(n):
    gens = []
    for i in range(n - 1):
        vals = [1] * n
        vals[i] = vals[i + 1] = -1
        gens.append(diag(*vals))
    return close(GLattice(n, gens, f"diag_sl{n}"))


def sym_u(n):
    return close(GLattice(n, [transposition(0, 1, n), cycle(list(range(n)), n)], f"s{n}"))


def xi(g, i):
    n = g.lattice.rank
    return orbit_sum(g, tuple(1 if j == i else 0 for j in range(n)))


class TestOrbitSum:
    def test_zero_vector(self):
        g = neg_group(2)
        assert orbit_sum(g, (0, 0)) == LaurentElement.one(2)

    def test_xi(self):
        g = neg_group(2)
        assert xi(g, 0) == LaurentElement(2, {(1, 0): 1, (-1, 0): 1})

    def test_s3_basis_orbit(self):
        g = sym_u(3)
        assert orbit_sum(g, (1, 0, 0)) == elementary_symmetric(3, 1)

    def test_orbit_size_divides_group_order(self):
        rng = random.Random(41)
        g = sym_u(4)
        for _ in range(200):
            m = tuple(rng.randint(-3, 3) for _ in range(4))
            s = orbit_sum(g, m)
            assert all(c == 1 for c in s.terms.values())
            assert g.order % len(s.terms) == 0


class TestMultiply:
    def test_unit(self):
        g = neg_group(2)
        a = xi(g, 0)
        assert a * LaurentElement.one(2) == a

    def test_xi_squared(self):
        g = neg_group(2)
        prod = xi(g, 0) * xi(g, 0)
        assert prod == orbit_sum(g, (2, 0)) + 2 * LaurentElement.one(2)

    def test_xi1_xi2(self):
        g = neg_group(2)
        prod = xi(g, 0) * xi(g, 1)
        eta = orbit_sum(g, (1, 1))
        eta_prime = orbit_sum(g, (1, -1))
        assert prod == eta + eta_prime

    def test_commutative_associative_distributive_random(self):
        rng = random.Random(42)

        def rand_elem():
            return LaurentElement(
                2,
                {
                    (rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                    for _ in range(rng.randint(0, 4))
                },
            )

        for _ in range(300):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestInvariance:
    def test_constants(self):
        g = sym_u(3)
        assert is_invariant(g, LaurentElement.one(3))

    def test_orbit_sums_invariant(self):
        rng = random.Random(43)
        g = sym_u(3)
        for _ in range(100):
            m = tuple(rng.randint(-2, 2) for _ in range(3))
            assert is_invariant(g, orbit_sum(g, m))

    def test_monomial_not_invariant(self):
        g = sym_u(3)
        assert not is_invariant(g, LaurentElement.monomial((1, 0, 0)))

    def test_product_of_invariants_invariant(self):
        rng = random.Random(44)
        g = diag_sl(3)
        for _ in range(50):
            a = orbit_sum(g, tuple(rng.randint(-1, 1) for _ in range(3)))
            b = orbit_sum(g, tuple(rng.randint(-1, 1) for _ in range(3)))
            assert is_invariant(g, a * b)


class TestExpress:
    def test_single_orbit_sum(self):
        g = neg_group(2)
        assert express_in_orbit_basis(g, orbit_sum(g, (1, 1))) == {(1, 1): 1}

    def test_xi1_xi2_coordinates(self):
        g = neg_group(2)
        prod = xi(g, 0) * xi(g, 1)
        assert express_in_orbit_basis(g, prod) == {(1, 1): 1, (1, -1): 1}

    def test_zero(self):
        g = neg_group(2)
        assert express_in_orbit_basis(g, LaurentElement.zero(2)) == {}

    def test_rejects_non_invariant(self):
        g = neg_group(2)
        with pytest.raises(NotInvariant):
            express_in_orbit_basis(g, LaurentElement.monomial((1, 0)))

    def test_round_trip_random(self):
        rng = random.Random(45)
        g = sym_u(3)
        for _ in range(100):
            coeffs = {
                orbit_representative(g, tuple(rng.randint(-2, 2) for _ in range(3))): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 3))
            }
            elem = LaurentElement.zero(3)
            for rep, c in coeffs.items():
                elem = elem + c * orbit_sum(g, rep)
            expressed = express_in_orbit_basis(g, elem)
            assert expressed == {r: c for r, c in coeffs.items() if c}


def assert_relation_vanishes(relation, algebra, module):
    """A relation is a nonzero combination of products that sums to zero."""
    assert relation and all(c for c, _ in relation)
    n = module[0].rank
    total = LaurentElement.zero(n)
    for c, term in relation:
        total = total + product_value(algebra, module, term) * c
    assert total.is_zero()


class TestFreeDecomposition:
    def test_sign_lattice_rank2(self):
        g = diag_sl(2)
        gens = [xi(g, 0), xi(g, 1)]
        module = [LaurentElement.one(2), orbit_sum(g, (1, 1))]
        result = verify_free_decomposition(g, gens, module, 4)
        assert result.ok
        assert result.certificate.interior_bound == 3
        assert result.certificate.covered

    def test_sign_lattice_rank3(self):
        g = diag_sl(3)
        gens = [xi(g, i) for i in range(3)]
        module = [LaurentElement.one(3), orbit_sum(g, (1, 1, 1))]
        result = verify_free_decomposition(g, gens, module, 4)
        assert result.ok

    def test_missing_module_generator(self):
        g = diag_sl(2)
        gens = [xi(g, 0), xi(g, 1)]
        result = verify_free_decomposition(g, gens, [LaurentElement.one(2)], 4)
        assert not result.ok
        assert result.failure.kind == "unreachable"
        assert result.failure.witness_orbit == (1, 1)

    def test_trivial_group_full_laurent(self):
        g = close(GLattice(1, [], "trivial1"))
        gens = [LaurentElement.monomial((1,)), LaurentElement.monomial((-1,))]
        result = verify_free_decomposition(g, gens, [LaurentElement.one(1)], 2)
        assert result.ok

    def test_duplicate_generators_collapse(self):
        g = neg_group(1)
        a = xi(g, 0)
        result = verify_free_decomposition(g, [a, a], [LaurentElement.one(1)], 3)
        assert result.ok  # duplicated generators collapse by value dedup

    def test_detects_relation(self):
        # constant module generators 1 and 2 give a Z-relation among products
        g = neg_group(1)
        a = xi(g, 0)
        two = LaurentElement(1, {(0,): 2})
        result = verify_free_decomposition(g, [a], [LaurentElement.one(1), two], 3)
        assert not result.ok
        assert result.failure.kind == "relation"
        assert_relation_vanishes(result.failure.relation, [a], [LaurentElement.one(1), two])

    @pytest.mark.parametrize("with_algebra", [True, False])
    def test_zero_module_generator_is_a_relation(self, with_algebra):
        g = neg_group(1)
        algebra = [xi(g, 0)] if with_algebra else []
        module = [LaurentElement.one(1), LaurentElement.zero(1)]
        result = verify_free_decomposition(g, algebra, module, 3)
        assert not result.ok
        assert result.failure.kind == "relation"
        assert_relation_vanishes(result.failure.relation, algebra, module)

    def test_rejects_non_invariant_generator(self):
        g = diag_sl(2)
        with pytest.raises(NotInvariant):
            verify_free_decomposition(
                g, [LaurentElement.monomial((1, 0))], [LaurentElement.one(2)], 3
            )

    def test_non_integer_orbit_coordinate_is_a_theorem_violation(self, monkeypatch):
        # past the entry check, x * 1 has coefficient 1/2 on the orbit {x, x^-1}
        monkeypatch.setattr(orbit_algebra, "is_invariant", lambda G, a: True)
        g = neg_group(1)
        with pytest.raises(TheoremViolation, match=r"orbit coordinate 1/2 at \(-?1,\) is not an integer"):
            verify_free_decomposition(g, [LaurentElement.monomial((1,))], [LaurentElement.one(1)], 3)


class TestAlternatingD:
    def test_n2_is_x1(self):
        assert alternating_d(2) == LaurentElement.monomial((1, 0))

    def test_n3_invariant_under_three_cycle(self):
        d = alternating_d(3)
        rot = cycle([0, 1, 2], 3)
        assert act(rot, d) == d

    def test_n3_not_invariant_under_transposition(self):
        d = alternating_d(3)
        swap = transposition(0, 1, 3)
        assert act(swap, d) != d

    def test_n3_integer_coefficients(self):
        d = alternating_d(3)
        assert all(isinstance(c, int) for c in d.terms.values())
        assert not d.is_zero()


class TestRender:
    def test_zero(self):
        assert LaurentElement.zero(2).render() == "0"

    def test_ordering_and_signs(self):
        e = LaurentElement(2, {(1, 1): 1, (-1, -1): 1})
        assert e.render() == "x^(1,1) + x^(-1,-1)"
        f = LaurentElement(1, {(0,): -2, (1,): 3})
        assert f.render() == "3*x^(1) - 2"


def test_alt3_polynomial_slice_ranks():
    """Per-degree rank of span(s-monomials plus d * s-monomials) matches the
    independent count of three-cycle orbits of degree-k monomials."""
    s = [elementary_symmetric(3, k) for k in (1, 2, 3)]
    d = alternating_d(3)

    def monomials_in_s(total):
        out = []
        for a in range(total + 1):
            for b in range((total - a) // 2 + 1):
                rest = total - a - 2 * b
                if rest % 3 == 0:
                    out.append((a, b, rest // 3))
        return out

    def expand(powers):
        e = LaurentElement.one(3)
        for gen, p in zip(s, powers):
            for _ in range(p):
                e = e * gen
        return e

    def orbit_count(degree):
        # oracle: orbits of degree-k monomials under cyclic rotation
        seen = set()
        count = 0
        for a in range(degree + 1):
            for b in range(degree - a + 1):
                c = degree - a - b
                mono = (a, b, c)
                if mono in seen:
                    continue
                count += 1
                rot = mono
                for _ in range(3):
                    rot = (rot[2], rot[0], rot[1])
                    seen.add(rot)
        return count

    for degree in range(0, 9):
        slice_elems = [expand(p) for p in monomials_in_s(degree)]
        slice_elems += [d * expand(p) for p in monomials_in_s(degree - 3)] if degree >= 3 else []
        monos = sorted({m for e in slice_elems for m in e.terms})
        colidx = {m: j for j, m in enumerate(monos)}
        rows = []
        for e in slice_elems:
            row = [0] * len(monos)
            for m, c in e.terms.items():
                row[colidx[m]] = c
            rows.append(row)
        matrix = IntMatrix.from_rows(rows, len(monos)) if rows else IntMatrix(0, 0, ())
        assert rank(matrix) == orbit_count(degree)


def test_torsion_in_product_span_detected():
    # products are independent but span only even multiples of odd powers
    g = close(GLattice(1, [], "trivial1"))
    x_sq = LaurentElement.monomial((2,))
    two_x = LaurentElement(1, {(1,): 2})
    result = verify_free_decomposition(g, [x_sq], [LaurentElement.one(1), two_x], 4)
    assert not result.ok
    assert result.failure.kind == "torsion"
    assert result.failure.witness_orbit == (3,)


def test_sign_lattice_decomposition_robust_to_bound():
    g = diag_sl(2)
    gens = [xi(g, 0), xi(g, 1)]
    module = [LaurentElement.one(2), orbit_sum(g, (1, 1))]
    for bound in (2, 3, 5, 6):
        result = verify_free_decomposition(g, gens, module, bound)
        assert result.ok, bound
        assert result.certificate.interior_bound == bound - 1


def test_alternating_laurent_decomposition():
    """The alternating invariants of the full Laurent ring split over the
    symmetric functions with the top one inverted."""
    g = close(GLattice(3, [cycle([0, 1, 2], 3)], "a3"))
    s = [elementary_symmetric(3, k) for k in (1, 2, 3)]
    s3_inv = LaurentElement.monomial((-1, -1, -1))
    d = alternating_d(3)
    result = verify_free_decomposition(
        g, s + [s3_inv], [LaurentElement.one(3), d], 4
    )
    assert result.ok
    assert len(result.certificate.covered) == 45
    missing = verify_free_decomposition(g, s + [s3_inv], [LaurentElement.one(3)], 4)
    assert not missing.ok
    assert missing.failure.kind == "unreachable"


# the text-golden presets, and both presets at rank 4, bound 4
ORBIT_PRESETS = [
    ("diag_sl", 2, 4), ("diag_sl", 3, 3), ("alt_laurent", 3, 3), ("diag_sl", 4, 4), ("alt_laurent", 4, 4),
]


@pytest.mark.parametrize("preset,rank_,bound", ORBIT_PRESETS)
def test_certificate_rechecks_by_laurent_arithmetic(preset, rank_, bound):
    g, algebra, module = _orbit_preset(preset, rank_)
    result = verify_free_decomposition(g, algebra, module, bound)
    assert result.ok
    check_certificate(g, algebra, module, result.certificate)


def test_certificate_check_rejects_a_wrong_expression():
    g, algebra, module = _orbit_preset("diag_sl", 2)
    cert = verify_free_decomposition(g, algebra, module, 4).certificate
    rep, combo = max(cert.expressions.items(), key=lambda item: len(item[1]))
    (pos, c), *rest = combo
    bad = replace(cert, expressions={**cert.expressions, rep: ((pos, c + 1), *rest)})
    with pytest.raises(AssertionError):
        check_certificate(g, algebra, module, bad)


# -- against the dense enumeration --------------------------------------------


def moved_preset(preset, rank_, seed):
    """The CLI's preset moved by a seeded signed permutation p: the group
    p G p^-1 with every generator x -> x^(p m) applied to the invariants."""
    rng = random.Random(seed)
    perm = list(range(rank_))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(rank_)]
    p = IntMatrix(rank_, rank_, (signs[i] if perm[i] == j else 0 for i in range(rank_) for j in range(rank_)))
    g, algebra, module = _orbit_preset(preset, rank_)
    moved = close(GLattice(rank_, [p * h * p.transpose() for h in g.lattice.generators], f"{preset}~{seed}"))
    return moved, [act(p, a) for a in algebra], [act(p, h) for h in module]


# the module generators as given, and three ways to break the decomposition
MODULE_VARIANTS = {
    "ok": lambda algebra, module: module,
    "unreachable": lambda algebra, module: module[:1],
    "torsion": lambda algebra, module: [module[0], module[1] * 2],
    "relation": lambda algebra, module: [*module, module[1] * algebra[0] + module[0]],
}


@pytest.mark.parametrize("variant", sorted(MODULE_VARIANTS))
@pytest.mark.parametrize("preset,rank_,bound,seed", [
    ("diag_sl", 3, 4, 1), ("diag_sl", 4, 4, 2), ("alt_laurent", 3, 4, 3), ("alt_laurent", 4, 4, 4),
])
def test_orbit_coordinates_match_dense_products(preset, rank_, bound, seed, variant):
    g, algebra, module = moved_preset(preset, rank_, seed)
    module = MODULE_VARIANTS[variant](algebra, module)
    result = verify_free_decomposition(g, algebra, module, bound)
    assert result == dense_free_decomposition(g, algebra, module, bound)
    assert (result.failure.kind if result.failure else "ok") == variant


def small_inputs():
    neg1, trivial = neg_group(1), close(GLattice(1, [], "trivial1"))
    g2 = diag_sl(2)
    return {
        "unreachable": (g2, [xi(g2, 0), xi(g2, 1)], [LaurentElement.one(2)], 4),
        "relation": (neg1, [xi(neg1, 0)], [LaurentElement.one(1), LaurentElement(1, {(0,): 2})], 3),
        "zero_module": (neg1, [xi(neg1, 0)], [LaurentElement.one(1), LaurentElement.zero(1)], 3),
        "torsion": (trivial, [LaurentElement.monomial((2,))], [LaurentElement.one(1), LaurentElement(1, {(1,): 2})], 4),
        "duplicates": (neg1, [xi(neg1, 0), xi(neg1, 0)], [LaurentElement.one(1)], 3),
    }


@pytest.mark.parametrize("case", ["unreachable", "relation", "zero_module", "torsion", "duplicates"])
def test_small_inputs_match_dense_products(case):
    g, algebra, module, bound = small_inputs()[case]
    assert verify_free_decomposition(g, algebra, module, bound) == dense_free_decomposition(g, algebra, module, bound)


# -- Newton boxes ------------------------------------------------------------------


def laurent_elements(rank_):
    exps = st.tuples(*[st.integers(-3, 3)] * rank_)
    coeffs = st.integers(-4, 4).filter(bool)
    return st.dictionaries(exps, coeffs, min_size=1, max_size=6).map(lambda t: LaurentElement(rank_, t))


def box_sum(a, b):
    (alo, ahi), (blo, bhi) = a.newton_box(), b.newton_box()
    return tuple(map(add, alo, blo)), tuple(map(add, ahi, bhi))


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(laurent_elements(n), laurent_elements(n))))
def test_box_of_product_is_sum_of_boxes(pair):
    a, b = pair
    assert (a * b).newton_box() == box_sum(a, b)


@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=50, deadline=None, database=None)
@given(data=st.data())
def test_box_of_alternating_d_products(n, data):
    d = alternating_d(n)
    other = data.draw(st.one_of(laurent_elements(n), st.just(d)))
    assert (d * other).newton_box() == box_sum(d, other)


def test_box_of_zero_and_width():
    assert LaurentElement.zero(2).newton_box() is None
    e = LaurentElement(2, {(3, -1): 2, (-2, 0): -1})
    assert e.newton_box() == ((-2, -1), (3, 0))
    assert e.support_width() == 3


def test_one_verification_builds_each_element_matrix_at_most_once(monkeypatch):
    """On a group whose matrices no orbit sum has read yet.  alt_laurent's
    group acts by index, so only the invariance check reads matrices, the
    generators'; reading orbits by matrices built all 12."""
    group, algebra, module = _orbit_preset("alt_laurent", 4)
    G = close(group.lattice)
    built = counted_builds(monkeypatch)
    assert verify_free_decomposition(G, algebra, module, 4).ok
    assert 0 < len(built) == len(G.generator_indices) < G.order, len(built)


def test_products_read_their_orbits_off_the_product_tables(monkeypatch):
    """diag_sl at rank 4, bound 4 makes 5,370 orbit lookups: one for each
    table entry and each of its generator's terms, for the module
    generators' terms and for the interior scan.  Looking up every term of
    every product, as before the tables, made 30,873."""
    group, algebra, module = _orbit_preset("diag_sl", 4)
    calls = []
    memo = orbit_algebra._memo_orbit
    monkeypatch.setattr(orbit_algebra, "_memo_orbit", lambda *args: calls.append(None) or memo(*args))
    assert verify_free_decomposition(group, algebra, module, 4).ok
    assert len(calls) <= 6000, len(calls)


@pytest.mark.parametrize("preset,rank_,seed", [
    ("diag_sl", 3, 1), ("diag_sl", 4, 2), ("alt_laurent", 3, 3), ("alt_laurent", 4, 4),
])
def test_products_by_table_match_the_reference_product(preset, rank_, seed):
    """Seeded combinations of orbit sums times each algebra generator, with
    one product table per generator shared by every draw, against the
    term-by-term product over the matrices' orbits."""
    g, algebra, module = moved_preset(preset, rank_, seed)
    rng = random.Random(seed)
    images, orbits, tables = g.action(), {}, [{} for _ in algebra]
    for _ in range(30):
        f = {orbit_representative(g, [rng.randint(-2, 2) for _ in range(rank_)]): rng.randint(1, 3) for _ in range(4)}
        for a, table in zip(algebra, tables):
            assert orbit_algebra._times(images, f, list(a.terms.items()), table, orbits) == orbit_product(g, f, a)
    for a, table in zip(algebra, tables):
        assert table and all(len(pairs) <= len(a.terms) for pairs in table.values())
