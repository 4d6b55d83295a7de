import random

import pytest

from multinv.errors import NotInvariant
from multinv.groups import GLattice, close
from multinv.intlinalg import IntMatrix, rank
from multinv.orbit_algebra import (
    LaurentElement,
    act,
    alternating_d,
    elementary_symmetric,
    express_in_orbit_basis,
    is_invariant,
    orbit_representative,
    orbit_sum,
    verify_free_decomposition,
)

from helpers import cycle, diag, transposition


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
        assert result.failure.relation

    def test_rejects_non_invariant_generator(self):
        g = diag_sl(2)
        with pytest.raises(NotInvariant):
            verify_free_decomposition(
                g, [LaurentElement.monomial((1, 0))], [LaurentElement.one(2)], 3
            )


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
