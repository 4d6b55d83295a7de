import hashlib
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, ZZ, Matrix
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors, smith_normal_form

from multinv.groups import GLattice, block_diagonal
from multinv.obstruction import effective_reduction
from multinv.intlinalg import (
    IntMatrix,
    hnf,
    hnf_basis,
    kernel_lattice,
    lattice_quotient_invariants,
    quotient_transform,
    rank,
    rref_mod,
    snf,
    solve_echelon,
    sparse_echelon,
    unimodular_inverse,
)

from helpers import random_unimodular


def M(rows):
    return IntMatrix.from_rows(rows)


def random_matrix(rng, max_dim=6, lo=-5, hi=5):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return IntMatrix(r, c, [rng.randint(lo, hi) for _ in range(r * c)])


def is_hermite(h):
    """Echelon, positive pivots, entries above each pivot in [0, pivot)."""
    last = -1
    for i in range(h.rows):
        row = h.row(i)
        nz = [j for j, v in enumerate(row) if v]
        if not nz:
            if any(h.row(k) != (0,) * h.cols for k in range(i, h.rows)):
                return False
            break
        j = nz[0]
        if j <= last:
            return False
        last = j
        pivot = row[j]
        if pivot <= 0:
            return False
        for k in range(i):
            if not 0 <= h.entry(k, j) < pivot:
                return False
    return True


def sym(rows, cols):
    return Matrix(len(rows), cols, [x for row in rows for x in row])


def sympy_span(rows, cols):
    """sympy's Hermite form of the row span; its convention differs from
    ``hnf``'s, so it is compared only with other sympy forms."""
    return hermite_normal_form(sym(rows, cols).T)


class TestHnf:
    def test_identity(self):
        h, u = hnf(IntMatrix.identity(3))
        assert h == IntMatrix.identity(3)
        assert u == IntMatrix.identity(3)

    def test_already_echelon(self):
        a = M([[2, 0], [0, 3]])
        h, u = hnf(a)
        assert h == a
        assert u == IntMatrix.identity(2)

    def test_row_swap(self):
        a = M([[0, 1], [1, 0]])
        h, u = hnf(a)
        assert h == IntMatrix.identity(2)
        assert u == M([[0, 1], [1, 0]])
        assert u * a == h


class TestSnf:
    def test_zero(self):
        dec = snf(IntMatrix.zeros(2, 2))
        assert dec.s == IntMatrix.zeros(2, 2)

    def test_diag_2_3(self):
        # oracle: invariant factors of diag(a, b) are gcd and lcm
        a, b = 2, 3
        expect = (math.gcd(a, b), a * b // math.gcd(a, b))
        dec = snf(M([[a, 0], [0, b]]))
        assert dec.diagonal() == expect == (1, 6)

    def test_diag_4_6(self):
        a, b = 4, 6
        expect = (math.gcd(a, b), a * b // math.gcd(a, b))
        dec = snf(M([[a, 0], [0, b]]))
        assert dec.diagonal() == expect == (2, 12)

    def test_identity_600_within_budget(self):
        # the divisibility sweep once tested every entry of the block at every
        # stage, also against a unit corner: 12.2 s
        a = IntMatrix.identity(600)
        start = time.perf_counter()
        dec = snf(a)
        assert time.perf_counter() - start < 1
        assert dec.u == dec.s == dec.v == a


class TestRank:
    def test_zero(self):
        assert rank(IntMatrix.zeros(3, 3)) == 0

    def test_identity(self):
        assert rank(IntMatrix.identity(4)) == 4

    def test_dependent_rows(self):
        assert rank(M([[1, 2], [2, 4]])) == 1


class TestKernel:
    def test_identity_has_no_kernel(self):
        k = kernel_lattice(IntMatrix.identity(2))
        assert k.rows == 0

    def test_zero_map(self):
        k = kernel_lattice(IntMatrix.zeros(1, 3))
        assert k.rows == 3
        assert k == IntMatrix.identity(3)

    def test_single_equation(self):
        k = kernel_lattice(M([[1, -1, 0]]))
        assert k == M([[1, 1, 0], [0, 0, 1]])


class TestQuotientInvariants:
    def test_finite_quotient(self):
        q = lattice_quotient_invariants(2, M([[2, 0], [0, 3]]))
        assert q.factors == (1, 6)
        assert q.free_rank == 0

    def test_empty_sub(self):
        q = lattice_quotient_invariants(3, IntMatrix(0, 3, ()))
        assert q.factors == ()
        assert q.free_rank == 3

    def test_saturated_line(self):
        q = lattice_quotient_invariants(2, M([[1, 0]]))
        assert q.factors == (1,)
        assert q.free_rank == 1


class TestUnimodularInverse:
    def test_round_trip(self):
        a = M([[2, 1], [1, 1]])
        inv = unimodular_inverse(a)
        assert (a * inv).is_identity()
        assert (inv * a).is_identity()

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            unimodular_inverse(M([[2, 0], [0, 1]]))


class TestInducedOnQuotient:
    """The induced action modulo a fixed sub-lattice: completed by
    quotient_transform and read off in obstruction.effective_reduction."""

    def test_empty_sub_is_identity_op(self):
        # the completion of an empty sub-lattice is the identity change of basis
        assert quotient_transform(IntMatrix(0, 2, ())).is_identity()
        g = M([[0, -1], [1, 0]])  # order 4, fixes no nonzero vector
        assert list(effective_reduction(GLattice(2, [g], "r")).generators) == [g]

    def test_whole_lattice_leaves_rank_zero(self):
        red = effective_reduction(GLattice(3, [IntMatrix.identity(3)] * 2, "t"))
        assert red.rank == 0
        assert list(red.generators) == [IntMatrix(0, 0, ())] * 2


# -- randomized property suites (fixed seed) ---------------------------


def test_snf_contract_random():
    rng = random.Random(0xA11CE)
    for _ in range(1000):
        a = random_matrix(rng)
        dec = snf(a)
        assert dec.u * a * dec.v == dec.s
        assert abs(dec.u.det()) == 1
        assert abs(dec.v.det()) == 1
        diag = dec.diagonal()
        assert all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            if y:
                assert x != 0 and y % x == 0
            # trailing zeros allowed after nonzero entries only
        assert all(
            dec.s.entry(i, j) == 0
            for i in range(dec.s.rows)
            for j in range(dec.s.cols)
            if i != j
        )


def _snf_transform_inputs():
    """A fixed seeded set of 500 matrices: 400 with entries from a small
    set of units, zeros and primes, and 100 saturated Hermite bases (the
    kernels of random relations, the whole lattice among them) placed 1-3
    times along a diagonal, like the fixed parts of r-fold sums."""
    rng = random.Random(0x5A17)
    values = (0, 1, -1, 2, -2, 3, 5, -7, 12)
    out = []
    for _ in range(400):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        out.append(IntMatrix(r, c, [rng.choice(values) for _ in range(r * c)]))
    for _ in range(100):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        basis = kernel_lattice(IntMatrix(k, n, [rng.choice(values) for _ in range(k * n)]))
        out.append(block_diagonal([basis] * rng.randint(1, 3)))
    return out


# SHA-256 of every (u, s, v) that snf returns on _snf_transform_inputs();
# the goldens see v only through witness coordinates
SNF_TRANSFORM_DIGEST = "0b66644fa675148181253a9ab184adaa0e474561850b00253e017aaa436ad82d"


def test_snf_transforms_are_unchanged():
    h = hashlib.sha256()
    for a in _snf_transform_inputs():
        dec = snf(a)
        h.update(repr((a.rows, a.cols, dec.u.entries, dec.s.entries, dec.v.entries)).encode())
    assert h.hexdigest() == SNF_TRANSFORM_DIGEST


def test_hnf_contract_random():
    rng = random.Random(0xBEEF)
    for _ in range(1000):
        a = random_matrix(rng)
        h, u = hnf(a)
        assert u * a == h
        assert abs(u.det()) == 1
        assert is_hermite(h)


def test_rank_properties_random():
    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        a = random_matrix(rng)
        assert rank(a) == rank(a.transpose())
        # rank equals the number of nonzero Smith diagonal entries
        assert rank(a) == len(snf(a).invariant_factors())
        bc = rng.randint(0, 4)
        b = IntMatrix(a.cols, bc, [rng.randint(-5, 5) for _ in range(a.cols * bc)])
        assert rank(a * b) <= min(rank(a), rank(b))


def test_kernel_properties_random():
    rng = random.Random(0xFEED)
    zero_like = 0
    for _ in range(1000):
        a = random_matrix(rng)
        k = kernel_lattice(a)
        for i in range(k.rows):
            assert a.apply(k.row(i)) == (0,) * a.rows
        assert k.rows + rank(a) == a.cols
        zero_like += k.rows == 0
    assert 0 < zero_like < 1000  # the sample hit both regimes


def test_kernel_saturation_random():
    # Stacking m*v (v in the span) onto the kernel basis must keep all
    # invariant factors equal to 1: pure sublattice.
    rng = random.Random(0xDEAD)
    for _ in range(300):
        a = random_matrix(rng, max_dim=5)
        k = kernel_lattice(a)
        if k.rows == 0:
            continue
        coeffs = [rng.randint(-3, 3) for _ in range(k.rows)]
        m = rng.randint(1, 4)
        v = [m * sum(c * k.entry(i, j) for i, c in enumerate(coeffs)) for j in range(k.cols)]
        stacked = IntMatrix.from_rows(k.row_lists() + [v], k.cols)
        assert set(snf(stacked).invariant_factors()) <= {1}


def test_hnf_basis_canonical_for_equal_spans():
    rng = random.Random(0x5EED)
    for _ in range(300):
        a = random_matrix(rng, max_dim=4)
        if a.rows == 0:
            continue
        basis = hnf_basis(a)
        # shuffle rows and add random row-multiples: same span, same basis
        rows = a.row_lists()
        rng.shuffle(rows)
        if len(rows) > 1:
            i, j = rng.sample(range(len(rows)), 2)
            c = rng.randint(-2, 2)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        assert hnf_basis(IntMatrix.from_rows(rows, a.cols)) == basis


def test_snf_contract_large_entries():
    # entry growth stresses the arbitrary-precision path
    rng = random.Random(0xB16)
    for _ in range(150):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        a = IntMatrix(r, c, [rng.randint(-50, 50) for _ in range(r * c)])
        dec = snf(a)
        assert dec.u * a * dec.v == dec.s
        assert abs(dec.u.det()) == 1 and abs(dec.v.det()) == 1
        diag = dec.diagonal()
        for x, y in zip(diag, diag[1:]):
            assert (y == 0) or (x != 0 and y % x == 0)


def test_snf_matches_sympy_smith_normal_form():
    # an independent Smith form: sympy's, over ZZ; the mixed cases are
    # P D Q with a planted divisibility chain D and large-entry mixing
    rng = random.Random(0x5A17)
    for trial in range(240):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 3 == 0:
            a = IntMatrix(r, c, [rng.randint(-5, 5) for _ in range(r * c)])
        elif trial % 3 == 1:
            a = IntMatrix(r, c, [rng.randint(-10**12, 10**12) for _ in range(r * c)])
        else:
            d, chain = IntMatrix.zeros(r, c).row_lists(), 1
            for i in range(rng.randint(0, min(r, c))):
                chain *= rng.choice([1, 1, 2, 3, 6, 10**9 + 7])
                d[i][i] = chain
            p = random_unimodular(r, rng, ops=4 * r)
            q = random_unimodular(c, rng, ops=4 * c)
            a = p * IntMatrix.from_rows(d, c) * q
        expected = smith_normal_form(Matrix(a.row_lists()), domain=ZZ)
        s = snf(a).s
        assert s.row_lists() == [[abs(x) for x in row] for row in expected.tolist()], a.row_lists()


def test_hermite_rank_and_kernel_match_sympy():
    # sympy is the oracle; three regimes: small entries with a planted
    # dependent row, entries in +-10^12, and P D Q with a divisibility chain
    rng = random.Random(0x4E2F)
    for trial in range(600):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        if trial % 3 == 0:
            rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
            if r > 1:
                i = rng.randrange(r)
                coeffs = [rng.randint(-3, 3) for _ in range(r)]
                coeffs[i] = 0
                rows[i] = [sum(k * row[j] for k, row in zip(coeffs, rows)) for j in range(c)]
            a = IntMatrix.from_rows(rows, c)
        elif trial % 3 == 1:
            a = IntMatrix(r, c, [rng.randint(-10**12, 10**12) for _ in range(r * c)])
        else:
            d, chain = IntMatrix.zeros(r, c).row_lists(), 1
            for i in range(rng.randint(0, min(r, c))):
                chain *= rng.choice([1, 1, 2, 3, 6, 10**9 + 7])
                d[i][i] = chain
            p = random_unimodular(r, rng, ops=4 * r)
            q = random_unimodular(c, rng, ops=4 * c)
            a = p * IntMatrix.from_rows(d, c) * q
        sa = sym(a.row_lists(), c)
        h, u = hnf(a)
        assert u * a == h
        assert abs(sym(u.row_lists(), r).det()) == 1
        assert is_hermite(h)
        basis = hnf_basis(a)
        assert sympy_span(basis.row_lists(), c) == sympy_span(a.row_lists(), c)
        assert rank(a) == sa.rank()
        k = kernel_lattice(a)
        assert k.rows == c - sa.rank()
        assert all(a.apply(k.row(i)) == (0,) * r for i in range(k.rows))
        if k.rows:
            assert set(invariant_factors(sym(k.row_lists(), c))) == {1}


def test_rectangular_extremes():
    for a in (IntMatrix(1, 6, [3, 0, -2, 5, 0, 1]), IntMatrix(6, 1, [2, 4, 6, 0, -8, 10]),
              IntMatrix(0, 4, ()), IntMatrix(4, 0, ())):
        h, u = hnf(a)
        assert u * a == h
        dec = snf(a)
        assert dec.u * a * dec.v == dec.s
        assert kernel_lattice(a).rows + rank(a) == a.cols


def test_quotient_invariants_rejects_wrong_width():
    with pytest.raises(ValueError):
        lattice_quotient_invariants(3, M([[1, 0]]))


def test_det_matches_invariant_factor_product():
    # two independent exact routes to the determinant magnitude
    rng = random.Random(123)
    for _ in range(300):
        n = rng.randint(0, 6)
        a = IntMatrix(n, n, [rng.randint(-30, 30) for _ in range(n * n)])
        factors = snf(a).invariant_factors()
        expect = math.prod(factors) if len(factors) == n else 0
        assert abs(a.det()) == expect


# -- sparse echelon form with certificates ------------------------------------------

WIDTH = 5
entries = st.one_of(st.just(0), st.integers(-6, 6))
vectors = st.lists(entries, min_size=WIDTH, max_size=WIDTH)


def sparse(v):
    return {j: x for j, x in enumerate(v) if x}


def combine(rows, combo):
    """Dense sum of coeff * rows[label] over the combination."""
    out = [0] * WIDTH
    for label, c in combo.items():
        for j, x in rows[label].items():
            out[j] += c * x
    return out


@settings(max_examples=300, deadline=None, database=None)
@given(dense=st.lists(vectors, max_size=6), target=vectors)
def test_sparse_echelon_certifies_rows_and_solutions(dense, target):
    rows = {f"r{i}": sparse(v) for i, v in enumerate(dense)}
    pivots, relations = sparse_echelon(rows)
    r = sym(dense, WIDTH).rank()
    assert len(pivots) == r
    assert len(relations) == len(dense) - r
    for relation in relations:
        assert relation and combine(rows, relation) == [0] * WIDTH
    basis = []
    for c, (row, combo) in pivots.items():
        assert min(row) == c and row[c] > 0
        dense_row = [row.get(j, 0) for j in range(WIDTH)]
        assert combine(rows, combo) == dense_row
        basis.append(dense_row)
    assert sympy_span(basis, WIDTH) == sympy_span(dense, WIDTH)
    # pivot combinations and relations together are a unimodular transform,
    # so the relations span every relation among the rows
    labels = list(rows)
    combos = [combo for _, combo in pivots.values()] + relations
    assert abs(sym([[k.get(label, 0) for label in labels] for k in combos], len(dense)).det()) == 1
    coeffs = solve_echelon(pivots, sparse(target))
    inside = sympy_span(dense + [target], WIDTH) == sympy_span(dense, WIDTH)
    assert (coeffs is not None) == inside
    if coeffs is not None:
        assert combine(rows, coeffs) == target


def test_sparse_echelon_gcd_step_keeps_the_lattice():
    # neither leading entry divides the other: the pivot becomes gcd(2, 3)
    rows = {"a": {0: 2, 1: 1}, "b": {0: 3}}
    pivots, relations = sparse_echelon(rows)
    assert relations == []
    assert sorted((c, row[c]) for c, (row, _) in pivots.items()) == [(0, 1), (1, 3)]
    assert solve_echelon(pivots, {1: 1}) is None
    assert combine(rows, solve_echelon(pivots, {0: 1, 1: 2})) == [1, 2, 0, 0, 0]
    # a third row in the span reduces to zero and leaves its relation
    rows["c"] = {0: 5, 1: 1}
    pivots, relations = sparse_echelon(rows)
    assert len(pivots) == 2 and len(relations) == 1
    assert combine(rows, relations[0]) == [0] * WIDTH


def sympy_rref_mod(rows, p):
    if not rows:
        return ()
    form, pivots = DomainMatrix.from_list(rows, GF(p)).rref()
    return tuple(tuple(int(x) % p for x in row) for row in form.to_list()[: len(pivots)])


@st.composite
def rows_mod_p(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.integers(1, 6))
    vec = st.lists(st.integers(-30, 30), min_size=n, max_size=n)
    return p, draw(st.lists(vec, max_size=6)), draw(st.lists(vec, max_size=4))


@settings(max_examples=300, deadline=None, database=None)
@given(case=rows_mod_p(), data=st.data())
def test_rref_mod_is_the_canonical_form_over_f_p(case, data):
    p, rows, more = case
    form = rref_mod(rows, p)
    assert tuple(map(tuple, form)) == sympy_rref_mod(rows, p)
    # row order, unit scalings (shifted by p) and added combinations leave
    # the span alone
    same = []
    for r in data.draw(st.permutations(rows)):
        c = data.draw(st.integers(1, p - 1)) + p * data.draw(st.integers(-1, 1))
        same.append([c * x for x in r])
    for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        same.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(rows[0]))])
    assert rref_mod(same, p) == form
    # a base extended by more rows is the form of the stacked rows
    extended = rref_mod(more, p, form)
    assert extended == rref_mod(rows + more, p)
    assert (extended is form) == (len(extended) == len(form))
