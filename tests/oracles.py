"""Independent brute-force oracles used only by tests.

These never call back into the code paths they check: the stabilizer
census scans lattice vectors directly with numpy integer arithmetic, the
difference-lattice rank is plain integer elimination, the SL(2, F_5)
histogram is computed from scratch over the finite field, abelian
invariants come from sympy's permutation groups, orbit-verify
certificates are re-multiplied with plain Laurent arithmetic, the
orbit-verify enumeration is redone with every product multiplied out
as a Laurent polynomial before it is read in orbit coordinates, orbits
are read off every element's matrix, never off ``action``'s index maps,
a product in orbit coordinates is redone term by term from the formula
its product tables cache, group closures are redone breadth-first with
plain ``IntMatrix`` products, a
closure on the unit vectors' orbits is redone by ``close``'s own matrix
products, the isotropy catalog's meet closure is redone with one integer
kernel per pair of spaces, the catalog itself is redone from its whole meet closure
over F_p, swept space by space, minimal isotropy classes are found by conjugating
matrices, the action induced on a quotient L / W is the lower-right
block of each element in a completed basis whose inverse is read off a
Hermite form (the reference for ``effective_reduction``, which reads it
off the pair the catalog is swept in), fixed points on a quotient
L / L^H are read off the determinant of that induced matrix, generated
subgroups are closed by numpy matrix products looked up by value, and
the ``copies`` report is redone on the r-fold sum itself, its group
materialized, carried to the reference reduction along the base's BFS
tree with plain ``IntMatrix`` products, and catalogued at rank r n.

The brute-force references below the imports have no caller in the
library: an element's index by linear search, stabilizers by applying every element, subgroup meets and
conjugacy by scanning index sets, the canonical orbit member, a
definition file's lattice, the integer rank of g - I (the reference for
the rank over F_p that ``FiniteMatrixGroup.moved_rank`` reads), a
subgroup's moved rank from its fixed lattice, a subgroup's catalog class
looked up in the orbit index, and rational isomorphism by traces over
the closure of paired generators.  ``unimodular_inverse``, read off a
Hermite form (the reference for the v^-1 that ``snf`` builds with v), is
imported from ``helpers``, which needs no test dependency.
"""

from collections import Counter, deque
from itertools import product as iter_product
from operator import add, mul
from unittest import mock

import numpy as np
from sympy import primefactors
from sympy.combinatorics import Permutation, PermutationGroup

from multinv import groups
from multinv.errors import TheoremViolation
from multinv.catalog import parse_group_definition
from multinv.groups import DEFAULT_CAP, FiniteMatrixGroup, GLattice, Subgroup, block_diagonal, close
from multinv.packed import pack
from multinv.intlinalg import (
    IntMatrix,
    common_fixed_lattice,
    hnf_basis,
    kernel_lattice,
    quotient_transform,
    rank,
    rref_mod,
    solve_echelon,
    sparse_echelon,
)
from multinv.isotropy import (
    IsotropyCatalog,
    IsotropyClass,
    _annihilated,
    _checked_basis,
    _pivot_mask,
    enumerate_isotropy_groups,
    fixed_lattice,
    witness_vector,
)
from multinv.obstruction import _decide, direct_sum_copies
from multinv.orbit_algebra import (
    DecompositionCertificate,
    DecompositionFailure,
    DecompositionResult,
    LaurentElement,
    ProductTerm,
)

from helpers import elements, unimodular_inverse


def index_of(G, m):
    """Index of the matrix m among G's elements."""
    mats = elements(G)
    if m not in mats:
        raise KeyError("matrix is not a group element")
    return mats.index(m)


def isotropy_group_of(G, m):
    """Exact pointwise stabilizer of the lattice vector m.

    Applies every element's matrix on purpose: this is the brute-force
    reference for the stabilizers the isotropy catalog reads off its keys,
    and shares no code with them.
    """
    m = tuple(m)
    return Subgroup(G, (i for i in range(G.order) if G.element(i).apply(m) == m))


def intersect_subgroups(h1, h2):
    if h1.parent is not h2.parent:
        raise ValueError("subgroups of different parents")
    return Subgroup(h1.parent, set(h1.indices) & set(h2.indices))


def subgroup_invariant_key(h):
    """Cheap conjugation-invariant fingerprint used to bucket subgroups."""
    orders = Counter(h.parent.element_order(i) for i in h.indices)
    moved = Counter(h.parent.moved_rank(i) for i in h.indices)
    return (h.order, tuple(sorted(orders.items())), tuple(sorted(moved.items())))


def are_conjugate_subgroups(G, h1, h2):
    """Brute-force test for g with g h1 g^-1 = h2."""
    if h1.parent is not G or h2.parent is not G:
        raise ValueError("subgroups do not belong to the given group")
    if h1.indices == h2.indices:
        return True
    if subgroup_invariant_key(h1) != subgroup_invariant_key(h2):
        return False
    # equal orders: a conjugate inside h2 is all of h2
    return any(all(G.conj(g, i) in h2 for i in h1.indices) for g in range(G.order))


def matrix_orbit(G, m, orbits=None):
    """The orbit of m, greatest member first, applying every element's
    matrix; memoized in ``orbits`` for every member when given."""
    orbit = None if orbits is None else orbits.get(m)
    if orbit is None:
        orbit = sorted({G.element(i).apply(m) for i in range(G.order)}, reverse=True)
        if orbits is not None:
            orbits.update(dict.fromkeys(orbit, orbit))
    return orbit


def orbit_representative(G, m):
    """Canonical (lexicographically greatest) member of the orbit of m."""
    return matrix_orbit(G, tuple(m))[0]


def orbit_coordinates(G, a, orbits):
    """The coefficients of the invariant a on the orbit sums, keyed by
    representative in the order a's terms first reach them; asserts that a
    is constant on each orbit."""
    out = {}
    for exp, c in a.terms.items():
        orbit = matrix_orbit(G, exp, orbits)
        assert all(a.terms.get(e) == c for e in orbit), exp
        out[orbit[0]] = c
    return out


def orbit_product(G, f, a):
    """Orbit coordinates of f * a for f in orbit coordinates and the
    invariant a, term by term from the formula of the ``orbit_algebra``
    docstring, with every orbit read off the matrices: the reference for
    ``orbit_algebra._times`` and its product tables.  A sum that |O(r)|
    does not divide raises the library's ``TheoremViolation``."""
    orbits = {}
    acc = {}
    for rep, c in f.items():
        size = len(matrix_orbit(G, rep, orbits))
        for e, a_e in a.terms.items():
            r = matrix_orbit(G, tuple(map(add, rep, e)), orbits)[0]
            acc[r] = acc.get(r, 0) + c * size * a_e
    out = {}
    for r, total in acc.items():
        q, rem = divmod(total, len(orbits[r]))
        if rem:
            raise TheoremViolation(f"orbit coordinate {total}/{len(orbits[r])} at {r} is not an integer")
        if q:
            out[r] = q
    return out


def parse_group_file(data):
    """The lattice of a group definition file."""
    return parse_group_definition(data).lattice


def moved_rank(g):
    """rank(g - I) over the integers."""
    return rank(g - IntMatrix.identity(g.rows))


def echelon_fixed_key(G, i):
    """The reduced echelon form over F_p, p = ``G.prime``, of g - I for
    element i, by ``rref_mod`` of its matrix: the reference for the keys
    ``FiniteMatrixGroup.fixed_key`` reads off a monomial group's signed
    cycles."""
    g = G.element(i)
    return rref_mod(([g.entry(r, j) - (j == r) for j in range(g.cols)] for r in range(g.rows)), G.prime)


def moved_rank_subgroup(h):
    """Rank of the difference lattice of h, the complement of its fixed
    lattice's rank."""
    return h.parent.lattice.rank - fixed_lattice(h).rows


def class_for(catalog, h):
    """The class of h, a subgroup of the catalog's group; raises KeyError
    when h is not an isotropy group."""
    if h.parent is not catalog.group:
        raise ValueError("subgroup of a different group")
    cl = catalog._orbit_index.get(h.indices)
    if cl is None:
        raise KeyError("subgroup is not conjugate to any catalog class")
    return cl


class GeneratorMismatch(ValueError):
    """Paired generator lists do not close to compatible groups."""


def rationally_isomorphic(l1, l2, cap=DEFAULT_CAP):
    """Trace equality over the paired closure.

    Generator i of the first lattice is matched with generator i of the
    second; the group of block-diagonal pairs is closed (raising
    CapExceeded past the cap) and traces compared on every pair.
    Rational representations of a finite group are determined by their
    characters, so trace equality decides rational isomorphism.
    """
    if len(l1.generators) != len(l2.generators):
        raise GeneratorMismatch("generator lists have different lengths")
    n1, n = l1.rank, l1.rank + l2.rank
    pairs = close(GLattice(n, [block_diagonal([a, b]) for a, b in zip(l1.generators, l2.generators)]), cap)
    # the top n1 rows hold the first block, the other rows the second
    mats = elements(pairs)
    firsts = {m.entries[: n1 * n] for m in mats}
    seconds = {m.entries[n1 * n :] for m in mats}
    if len(firsts) != pairs.order or len(seconds) != pairs.order:
        raise GeneratorMismatch("paired generator words close to groups of different orders")
    return all(
        sum(m.entry(i, i) for i in range(n1)) == sum(m.entry(i, i) for i in range(n1, n))
        for m in mats
    )


def stabilizer_census(group):
    """Distinct pointwise stabilizers over all m with entries in
    [-|G|, |G|]^n, as frozensets of element indices.

    Vectorized over chunks of the box; bounded entries keep every product
    far inside int64, so the arithmetic is exact.
    """
    n = group.lattice.rank
    order = group.order
    assert order <= 62, "bitmask packing assumes the order fits in int64"
    bound = order
    mats = [np.array(g.row_lists(), dtype=np.int64) for g in elements(group)]
    assert all(np.abs(m).max() <= 2**20 for m in mats)
    rest = np.array(
        np.meshgrid(*[np.arange(-bound, bound + 1)] * (n - 1), indexing="ij")
    ).reshape(n - 1, -1).T if n > 1 else np.zeros((1, 0), dtype=np.int64)
    weights = np.array([1 << i for i in range(order)], dtype=np.int64)
    masks = set()
    for x0 in range(-bound, bound + 1):
        chunk = np.empty((rest.shape[0], n), dtype=np.int64)
        chunk[:, 0] = x0
        if n > 1:
            chunk[:, 1:] = rest
        hits = np.empty((chunk.shape[0], order), dtype=np.int64)
        for i, m in enumerate(mats):
            hits[:, i] = (chunk @ m.T == chunk).all(axis=1)
        masks.update(int(v) for v in np.unique(hits @ weights))
    out = set()
    for mask in masks:
        out.add(frozenset(i for i in range(order) if mask >> i & 1))
    return out


def difference_rank(mats):
    """Rank of the horizontal stack of the matrices g - I, i.e. of the
    lattice spanned by all differences g(m) - m, by fraction-free
    elimination on the distinct columns."""
    cols = set()
    for g in mats:
        rows = g.row_lists()
        n = len(rows)
        for j in range(n):
            cols.add(tuple(rows[i][j] - (i == j) for i in range(n)))
    basis = {}  # pivot position -> vector vanishing at every earlier pivot
    for v in cols:
        for p, b in basis.items():
            if v[p]:
                v = tuple(b[p] * x - v[p] * y for x, y in zip(v, b))
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            basis[p] = v
    return len(basis)


def sl2_f5_histogram_oracle():
    """Order histogram of SL(2, F_5) by plain modular arithmetic."""
    p = 5
    hist = Counter()
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p != 1:
                        continue
                    x = (a, b, c, d)
                    y = x
                    o = 1
                    while y != (1, 0, 0, 1):
                        e, f, g, h = y
                        y = (
                            (e * a + f * c) % p,
                            (e * b + f * d) % p,
                            (g * a + h * c) % p,
                            (g * b + h * d) % p,
                        )
                        o += 1
                    hist[o] += 1
    return dict(sorted(hist.items()))


def sympy_abelianization(h):
    """Invariant factors (ascending chain) of the abelianization of h, by
    sympy on the permutation action of h on the orbit of the vectors ±e_i.

    The orbit spans the lattice, so the action is faithful.  sympy returns
    prime powers; the j-th largest invariant factor is the product of the
    j-th largest power of each prime.
    """
    n = h.parent.lattice.rank
    units = [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    mats = h.matrices()
    points = sorted({g.apply(v) for g in mats for v in units})
    pos = {v: i for i, v in enumerate(points)}
    perms = [Permutation([pos[g.apply(v)] for v in points]) for g in mats]
    by_prime = {}
    for q in PermutationGroup(perms).abelian_invariants():
        by_prime.setdefault(primefactors(q)[0], []).append(q)
    factors = []
    for powers in by_prime.values():
        for j, q in enumerate(sorted(powers, reverse=True)):
            if j == len(factors):
                factors.append(1)
            factors[j] *= q
    return tuple(reversed(factors))


def product_value(algebra_gens, module_gens, term):
    """The product a word names: module_gens[j] * prod(algebra_gens[i] ** e_i),
    multiplied out factor by factor."""
    value = module_gens[term.module_index]
    for gen, e in zip(algebra_gens, term.exponents):
        for _ in range(e):
            value = value * gen
    return value


def check_certificate(G, algebra_gens, module_gens, cert):
    """Re-check an orbit-verify certificate without the elimination.

    Every product is rebuilt from its word and must lie in the window;
    the covered representatives must be exactly the lexicographically
    greatest orbit members of the interior window; and each expression,
    summed over the rebuilt products, must equal the orbit sum of its
    representative, taken over the group's matrices directly.
    """
    n = G.lattice.rank
    values = [product_value(algebra_gens, module_gens, t) for t in cert.products]
    for t, v in zip(cert.products, values):
        assert all(abs(x) <= cert.bound for exp in v.terms for x in exp), t
    interior = range(-cert.interior_bound, cert.interior_bound + 1)
    mats = elements(G)
    reps = {v for v in iter_product(interior, repeat=n) if v == max(g.apply(v) for g in mats)}
    assert set(cert.covered) == reps
    assert set(cert.expressions) == reps
    for rep, combo in cert.expressions.items():
        total = LaurentElement.zero(n)
        for pos, c in combo:
            total = total + values[pos] * c
        assert total == LaurentElement(n, {g.apply(rep): 1 for g in mats}), rep


def dense_free_decomposition(G, algebra_gens, module_gens, bound):
    """``verify_free_decomposition`` on valid input, with every product
    multiplied out as a Laurent polynomial, deduplicated by value, and only
    then read in orbit coordinates off the matrices' orbits.  The
    enumeration order, the elimination and the interior scan follow the
    library's, so the two results must be equal."""
    n = G.lattice.rank
    width = max(g.support_width() for g in algebra_gens + module_gens)
    interior = bound - width
    zero_word = (0,) * len(algebra_gens)

    def relation_failure(relation):
        return DecompositionResult(False, failure=DecompositionFailure(kind="relation", relation=relation))

    gen_boxes = [a.newton_box() for a in algebra_gens]
    products = []
    seen = set()
    visited = set()
    queue = deque()
    for j, h in enumerate(module_gens):
        term = ProductTerm(j, zero_word)
        if h.is_zero():
            return relation_failure(((1, term),))
        if h.support_width() <= bound and h not in seen:
            seen.add(h)
            products.append((term, h))
            queue.append((term, h, h.newton_box()))
    while queue:
        term, value, (lo, hi) = queue.popleft()
        for i, (gen, (gen_lo, gen_hi)) in enumerate(zip(algebra_gens, gen_boxes)):
            exps = list(term.exponents)
            exps[i] += 1
            key = (term.module_index, tuple(exps))
            if key in visited:
                continue
            visited.add(key)
            new_lo = tuple(map(add, lo, gen_lo))
            new_hi = tuple(map(add, hi, gen_hi))
            if min(new_lo) < -bound or max(new_hi) > bound:
                continue
            new = value * gen
            if new in seen:
                continue
            seen.add(new)
            word = ProductTerm(*key)
            products.append((word, new))
            queue.append((word, new, (new_lo, new_hi)))

    orbits = {}
    expansions = [orbit_coordinates(G, p, orbits) for _, p in products]
    reps = sorted({r for e in expansions for r in e}, reverse=True)
    col = {r: j for j, r in enumerate(reps)}
    rows = [{col[r]: c for r, c in e.items()} for e in expansions]
    order = sorted(range(len(rows)), key=lambda i: min(rows[i]))
    pivots, relations = sparse_echelon({i: rows[i] for i in order})
    if relations:
        return relation_failure(tuple((c, products[i][0]) for i, c in sorted(relations[0].items())))
    bad = next((c for c in sorted(pivots) if pivots[c][0][c] != 1), None)
    if bad is not None:
        return DecompositionResult(False, failure=DecompositionFailure(kind="torsion", witness_orbit=reps[bad]))

    covered = []
    expressions = {}
    shells = (
        v
        for s in range(interior + 1)
        for v in iter_product(range(s, -s - 1, -1), repeat=n)
        if s == 0 or max(map(abs, v)) == s
    )
    for v in shells:
        if matrix_orbit(G, v, orbits)[0] != v:
            continue
        combo = solve_echelon(pivots, {col[v]: 1}) if v in col else None
        if combo is None:
            return DecompositionResult(False, failure=DecompositionFailure(kind="unreachable", witness_orbit=v))
        covered.append(v)
        expressions[v] = tuple(sorted(combo.items()))
    certificate = DecompositionCertificate(
        bound=bound,
        interior_bound=interior,
        products=tuple(term for term, _ in products),
        covered=tuple(covered),
        expressions=expressions,
    )
    return DecompositionResult(True, certificate=certificate)


def naive_closure(lattice):
    """Breadth-first closure with ``IntMatrix.__mul__``: the identity, then
    g x for every element x in the order found and every distinct
    generator g in the lattice's order; with each element's BFS parent and
    letter (the identity's are 0)."""
    gens = list(dict.fromkeys(lattice.generators))
    found = [IntMatrix.identity(lattice.rank)]
    seen = set(found)
    parents, letters = [0], [0]
    for x, m in enumerate(found):
        for k, g in enumerate(gens):
            y = g * m
            if y not in seen:
                seen.add(y)
                found.append(y)
                parents.append(x)
                letters.append(k)
    return gens, found, parents, letters


def check_closure(G, conjugator):
    """G, as ``close`` enumerated it, and the matrix closure of its lattice
    (``PERMUTATION_BUDGET`` = 0), against :func:`naive_closure`: the same
    elements in the same BFS order, the same BFS parents and letters, and
    every table entry a matrix product; and ``induced_group`` through the
    lattice conjugated by ``conjugator`` gives the conjugated elements in
    that BFS order."""
    gens, found, parents, letters = naive_closure(G.lattice)
    with mock.patch.object(groups, "PERMUTATION_BUDGET", 0):
        H = close(G.lattice)
    for K in (G, H):
        assert elements(K) == found
        assert (list(K._parent), list(K._letter)) == (parents, letters)
        for k, g in enumerate(gens):
            assert all(K.element(K.left[k][x]) == g * found[x] for x in range(K.order)), k
    u, u_inv = conjugator, unimodular_inverse(conjugator)
    image = GLattice(G.lattice.rank, [u * g * u_inv for g in G.lattice.generators])
    H = induced_group(G, image)
    assert elements(H) == [u * x * u_inv for x in found]


def check_permutation_closure(lattice):
    """``close`` against itself with ``PERMUTATION_BUDGET`` = 0, which
    forces matrix products: the same elements, table, BFS parents and
    letters.  Returns whether the first closure ran on permutations."""
    G = close(lattice)
    with mock.patch.object(groups, "PERMUTATION_BUDGET", 0):
        H = close(lattice)
    assert elements(G) == elements(H) and G.left == H.left
    assert list(G._parent) == list(H._parent) and list(G._letter) == list(H._letter)
    return groups._unit_orbits(lattice, groups.PERMUTATION_BUDGET) is not None


def check_infinite_pair(exc):
    """Re-check an ``InfiniteGroup`` proof from its two matrices alone:
    distinct over Z, equal mod 3 (a finite group injects into GL_n(Z/3))."""
    a, b = exc.first, exc.second
    assert (a.rows, a.cols) == (b.rows, b.cols)
    assert a != b
    assert all((x - y) % 3 == 0 for x, y in zip(a.entries, b.entries))


def integer_meet_closure(G):
    """The fixed lattices of all isotropy groups of G, as saturated Hermite
    bases, in integer arithmetic alone: each element's fixed lattice, then
    closure under intersection, one kernel per pair of a new cyclic space
    b = Fix(g) and a space c closed so far (c ∧ b is spanned by K B_c, for
    K the kernel of (g - I) B_c^T)."""
    n = G.lattice.rank
    ident = IntMatrix.identity(n)
    cyclic = {}
    for i in range(G.order):
        cyclic.setdefault(common_fixed_lattice([G.element(i)], n), i)
    closure = set()
    for b, i in sorted(cyclic.items(), key=lambda t: (-t[0].rows, t[0].entries)):
        if b in closure:
            continue
        moved = G.element(i) - ident
        meets = [hnf_basis(kernel_lattice(moved * c.transpose()) * c) for c in closure]
        closure.add(b)
        closure.update(meets)
    return closure


def closure_catalog(G, lift=None):
    """The isotropy catalog from the whole meet closure over F_p: every
    cyclic key met with every key closed so far, one key at a time, then
    the closure swept in key order, one stabilizer scan and one fixed
    lattice per orbit, every member's key moved by every generator.  The
    classes, representatives and orbit index are chosen as
    ``enumerate_isotropy_groups`` chooses them."""
    n, p = G.lattice.rank, G.prime
    cyclic = {}
    for i in range(G.order):
        cyclic.setdefault(G.fixed_key(i), []).append(i)
    closure = {()}
    for bkey in sorted(cyclic, key=lambda k: (len(k), k)):
        if bkey not in closure:
            closure.update([rref_mod(bkey, p, ckey) for ckey in closure])
    candidates = [(_pivot_mask(ck), ck, members) for ck, members in cyclic.items()]
    gens = [
        (G.element(G.inv(g)).transpose(), G.element(g).transpose(), [G.conj(g, i) for i in range(G.order)])
        for g in G.generator_indices
    ]
    classes, orbit_index, seen = [], {}, set()
    for key in sorted(closure):
        if key in seen:
            continue
        pivots, fixed = _pivot_mask(key), _annihilated(key, n)
        root = tuple(sorted(
            i for ck_pivots, ck, members in candidates
            if ck_pivots | pivots == pivots and not any(sum(map(mul, row, w)) % p for row in ck for w in fixed)
            for i in members
        ))
        seen.add(key)
        orbit = [(key, root, _checked_basis(fixed_lattice(Subgroup(G, root)), key, n))]
        for space, indices, basis in orbit:
            for inv_t, t, conj in gens:
                image = rref_mod((inv_t.apply(r) for r in space), p)
                if image not in seen:
                    assert image in closure, "a generator moves a closure space out of the closure"
                    seen.add(image)
                    members = tuple(sorted(conj[i] for i in indices))
                    orbit.append((image, members, _checked_basis(hnf_basis(basis * t), image, n)))
        members = [(indices, basis if lift is None else lift(basis)) for _, indices, basis in orbit]
        indices, basis = min(members, key=lambda member: member[1].entries)
        cl = IsotropyClass(Subgroup(G, indices), basis)
        classes.append(cl)
        for indices, _ in members:
            assert indices not in orbit_index, "duplicate stabilizer"
            orbit_index[indices] = cl
    classes.sort(key=lambda cl: (-cl.order, cl.fixed_space.entries))
    return IsotropyCatalog(G, tuple(classes), orbit_index)


def catalog_summary(catalog):
    """A catalog's classes in order, each as its representative's indices
    and fixed space, and its orbit index as member tuple -> class position."""
    at = {id(cl): k for k, cl in enumerate(catalog.classes)}
    return (
        [(cl.subgroup.indices, cl.fixed_space) for cl in catalog.classes],
        {members: at[id(cl)] for members, cl in catalog._orbit_index.items()},
    )


def minimal_classes_oracle(G, classes):
    """The minimal ones among the nontrivial isotropy classes given by their
    representatives' index tuples: those with no conjugate of a smaller
    nontrivial class inside, searched over every g in G with matrix
    products g h g^-1 looked up by value."""
    mats = elements(G)
    index = {m: i for i, m in enumerate(mats)}
    inverses = [unimodular_inverse(g) for g in mats]
    nontrivial = [frozenset(h) for h in classes if len(h) > 1]

    def conjugate_inside(small, big):
        return any(
            all(index[g * mats[i] * g_inv] in big for i in small)
            for g, g_inv in zip(mats, inverses)
        )

    return [
        tuple(sorted(h)) for h in nontrivial
        if not any(len(o) < len(h) and conjugate_inside(o, h) for o in nontrivial)
    ]


def induced_actions(mats, fixed_space):
    """The matrices that ``mats`` induce on L / W, for W the saturated
    lattice with basis ``fixed_space``, which each of them fixes
    pointwise: the lower-right block of v^T g v^-T, for v the Smith
    transform of W's basis, in the basis of L that the rows of v^-1 give,
    whose first k rows span W.  v^-1 is read off a Hermite form, not
    taken from ``snf``.  Raises ``ValueError`` unless the first k columns
    of each v^T g v^-T are the identity's, that is unless g fixes those
    rows."""
    n, k = fixed_space.cols, fixed_space.rows
    v, _ = quotient_transform(fixed_space)
    vt, pt = v.transpose(), unimodular_inverse(v).transpose()
    out = []
    for g in mats:
        gt = vt * g * pt
        if any(gt.entry(a, b) != (a == b) for a in range(n) for b in range(k)):
            raise ValueError("an element does not fix the sub-lattice pointwise")
        out.append(IntMatrix(n - k, n - k, [gt.entry(a, b) for a in range(k, n) for b in range(k, n)]))
    return out


def reference_reduction(lat):
    """The effective reduction L / L^G by the block formula of
    ``induced_actions``, generator by generator, named as
    ``effective_reduction`` names it; ``lat`` itself when L^G = 0."""
    fixed = common_fixed_lattice(lat.generators, lat.rank)
    if not fixed.rows:
        return lat
    return GLattice(lat.rank - fixed.rows, induced_actions(lat.generators, fixed), lat.name + "/effective")


def fixes_quotient_vectors(G, indices, fixed_space):
    """For each element index, whether the element fixes a nonzero vector
    of L / W, for W the saturated lattice with basis ``fixed_space``, which
    the elements fix pointwise: det(q - I) = 0 for q the induced matrix
    (``induced_actions``)."""
    ident = IntMatrix.identity(fixed_space.cols - fixed_space.rows)
    return [(q - ident).det() == 0 for q in induced_actions([G.element(i) for i in indices], fixed_space)]


def _by_value(G):
    """G's elements as int64 arrays, and each element's index keyed by its
    entries; products of group elements stay group elements, so their
    entries stay as small as the elements' own."""
    n = G.lattice.rank
    mats = np.array([g.row_lists() for g in elements(G)], dtype=np.int64).reshape(G.order, n, n)
    assert np.abs(mats).max() <= 2**20, "entries too large for exact int64 products"
    return mats, {g.entries: i for i, g in enumerate(elements(G))}


def _lookup(index, products):
    return [index[tuple(m.ravel().tolist())] for m in products]


def subgroup_oracle(G, seed):
    """Indices of the subgroup of G the seed indices generate: the found
    elements, from the identity on, multiplied on the right by each seed
    element kept so far until nothing new appears, every product a matrix
    product looked up by value.  A seed element already found is not kept."""
    mats, index = _by_value(G)
    found = {index[IntMatrix.identity(G.lattice.rank).entries]}
    kept = []
    for s in sorted(set(seed)):
        if s in found:
            continue
        kept.append(s)
        frontier = sorted(found)
        while frontier:
            new = set()
            for g in kept:
                new.update(_lookup(index, mats[frontier] @ mats[g]))
            frontier = sorted(new - found)
            found.update(frontier)
    return frozenset(found)


def commutator_seed(G, indices):
    """Indices of every x^-1 y^-1 x y for x, y among the given indices, by
    matrix products looked up by value."""
    mats, index = _by_value(G)
    indices = list(indices)
    own = mats[indices]
    inverses = np.array([unimodular_inverse(G.element(i)).row_lists() for i in indices], dtype=np.int64)
    inverses = inverses.reshape(own.shape)
    seed = set()
    for x, x_inv in zip(own, inverses):
        seed.update(_lookup(index, (x_inv @ inverses) @ (x @ own)))
    return seed


def induced_group(G, lattice):
    """G acting through ``lattice``, whose generators are the images of G's
    generators, position by position, under a faithful representation.

    A faithful image has the same Cayley graph, so the table, the words
    and the BFS tree carry over: each element's matrix is its letter's
    generator times its parent's matrix, one ``IntMatrix`` product per
    element and no second closure.  Raises ``TheoremViolation`` if two
    elements share an image.
    """
    if len(lattice.generators) != len(G.lattice.generators):
        raise ValueError("generator lists have different lengths")
    first = {}  # one table row per distinct generator, at its first position
    for p, g in enumerate(G.lattice.generators):
        first.setdefault(g, p)
    gens = [lattice.generators[p] for p in first.values()]
    images = [IntMatrix.identity(lattice.rank)] * G.order
    for x in range(1, G.order):
        images[x] = gens[G._letter[x]] * images[G._parent[x]]
    if len(set(images)) != G.order:
        raise TheoremViolation("the representation is not faithful")
    return _packed_group(lattice, [m.entries for m in images], G)


def diagonal_group(G, lattice):
    """G acting on the r-fold direct sum of its lattice through
    x -> diag(x, ..., x); ``lattice`` is that sum, whose generators are
    the diagonal images of G's generators, position by position.

    The map is faithful, so the table, the words and the BFS tree carry
    over, and each element is its matrix placed r times along the
    diagonal.  Raises ``ValueError`` if ``lattice`` is not that sum.
    """
    n = G.lattice.rank
    r = lattice.rank // max(n, 1)
    images = tuple(block_diagonal([g] * r) for g in G.lattice.generators)
    if lattice.rank != r * n or lattice.generators != images:
        raise ValueError("the lattice is not a diagonal sum of the group's lattice")
    images = [block_diagonal([x] * r).entries for x in elements(G)]
    return _packed_group(lattice, images, G)


def _packed_group(lattice, images, G):
    """The group on ``lattice`` whose elements have the entry tuples
    ``images``, in G's BFS order, with G's table and BFS tree; the entries
    are packed as ``close`` packs them, at the least of its field widths
    32, 64, 128, ... bits that holds them."""
    width = 32
    while any(abs(e) >= 1 << width - 1 for x in images for e in x):
        width *= 2
    packed = [pack(x, width) for x in images]
    return FiniteMatrixGroup(lattice, packed, G.left, G._parent, G._letter, width=width)


def materialized_copies_report(lat, r):
    """The ``copies`` report of the r-fold sum and its catalog, from its own
    group: the diagonal lift of the closed base, reduced and catalogued at
    rank r n, its condition rows read with its own moved ranks."""
    total = direct_sum_copies(lat, r)
    G = diagonal_group(close(lat), total)
    reduced = reference_reduction(total)
    if reduced is not total:
        G = induced_group(G, reduced)
    catalog = enumerate_isotropy_groups(G)
    report = _decide(total.name, total.rank, total.rank - reduced.rank, catalog, 1,
                     lambda cl: witness_vector(G, cl.subgroup, cl.fixed_space))
    return report, catalog
