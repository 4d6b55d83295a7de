"""Independent brute-force oracles used only by tests.

These never call back into the code paths they check: the stabilizer
census scans lattice vectors directly with numpy integer arithmetic, the
difference-lattice rank is plain integer elimination, the SL(2, F_5)
histogram is computed from scratch over the finite field, abelian
invariants come from sympy's permutation groups, orbit-verify
certificates are re-multiplied with plain Laurent arithmetic, the
orbit-verify enumeration is redone with every product multiplied out
as a Laurent polynomial before it is read in orbit coordinates, group
closures are redone breadth-first with plain ``IntMatrix`` products, the
isotropy catalog's meet closure is redone with one integer kernel per
pair of spaces, the catalog itself is redone from its whole meet closure
over F_p, swept space by space, minimal isotropy classes are found by conjugating
matrices, generated subgroups are closed by numpy matrix products
looked up by value, and the ``copies`` report is redone on the r-fold sum
itself, its group materialized, reduced and catalogued at rank r n.
"""

from collections import Counter, deque
from itertools import product as iter_product
from operator import add, mul

import numpy as np
from sympy import primefactors
from sympy.combinatorics import Permutation, PermutationGroup

from multinv.groups import FiniteMatrixGroup, GLattice, Subgroup, block_diagonal, close, induced_group
from multinv.intlinalg import (
    IntMatrix,
    common_fixed_lattice,
    hnf_basis,
    kernel_lattice,
    rref_mod,
    solve_echelon,
    sparse_echelon,
    unimodular_inverse,
)
from multinv.isotropy import (
    IsotropyCatalog,
    IsotropyClass,
    _annihilated,
    _checked_basis,
    _pivot_mask,
    enumerate_isotropy_groups,
    fixed_lattice,
)
from multinv.obstruction import _decide, direct_sum_copies, effective_reduction
from multinv.orbit_algebra import (
    DecompositionCertificate,
    DecompositionFailure,
    DecompositionResult,
    LaurentElement,
    ProductTerm,
    express_in_orbit_basis,
    orbit_of,
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
    mats = [np.array(g.row_lists(), dtype=np.int64) for g in group.elements]
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
    reps = {v for v in iter_product(interior, repeat=n) if v == max(g.apply(v) for g in G.elements)}
    assert set(cert.covered) == reps
    assert set(cert.expressions) == reps
    for rep, combo in cert.expressions.items():
        total = LaurentElement.zero(n)
        for pos, c in combo:
            total = total + values[pos] * c
        assert total == LaurentElement(n, {g.apply(rep): 1 for g in G.elements}), rep


def dense_free_decomposition(G, algebra_gens, module_gens, bound):
    """``verify_free_decomposition`` on valid input, with every product
    multiplied out as a Laurent polynomial, deduplicated by value, and only
    then read in orbit coordinates by ``express_in_orbit_basis``.  The
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
    expansions = [express_in_orbit_basis(G, p, orbits) for _, p in products]
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
        if v not in orbits:
            orbit = orbit_of(G, v)
            orbits.update(dict.fromkeys(orbit, orbit))
        if orbits[v][0] != v:
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
    generator g in the lattice's order."""
    gens = list(dict.fromkeys(lattice.generators))
    found = [IntMatrix.identity(lattice.rank)]
    seen = set(found)
    for x in found:
        for g in gens:
            y = g * x
            if y not in seen:
                seen.add(y)
                found.append(y)
    return gens, found


def check_closure(G, conjugator):
    """G, as ``close`` enumerated it, against :func:`naive_closure`: the
    same elements in the same BFS order, with every table entry a matrix
    product; and ``induced_group`` through the lattice conjugated by
    ``conjugator`` gives the conjugated elements in that BFS order."""
    gens, found = naive_closure(G.lattice)
    assert list(G.elements) == found
    for k, g in enumerate(gens):
        assert all(G.elements[G.left[k][x]] == g * G.elements[x] for x in range(G.order)), k
    u, u_inv = conjugator, unimodular_inverse(conjugator)
    image = GLattice(G.lattice.rank, [u * g * u_inv for g in G.lattice.generators])
    H = induced_group(G, image)
    assert list(H.elements) == [u * x * u_inv for x in found]


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
    index = {m: i for i, m in enumerate(G.elements)}
    inverses = [unimodular_inverse(g) for g in G.elements]
    nontrivial = [frozenset(h) for h in classes if len(h) > 1]

    def conjugate_inside(small, big):
        return any(
            all(index[g * G.elements[i] * g_inv] in big for i in small)
            for g, g_inv in zip(G.elements, inverses)
        )

    return [
        tuple(sorted(h)) for h in nontrivial
        if not any(len(o) < len(h) and conjugate_inside(o, h) for o in nontrivial)
    ]


def _by_value(G):
    """G's elements as int64 arrays, and each element's index keyed by its
    entries; products of group elements stay group elements, so their
    entries stay as small as the elements' own."""
    n = G.lattice.rank
    mats = np.array([g.row_lists() for g in G.elements], dtype=np.int64).reshape(G.order, n, n)
    assert np.abs(mats).max() <= 2**20, "entries too large for exact int64 products"
    return mats, {g.entries: i for i, g in enumerate(G.elements)}


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
    inverses = np.array([unimodular_inverse(G.elements[i]).row_lists() for i in indices], dtype=np.int64)
    inverses = inverses.reshape(own.shape)
    seed = set()
    for x, x_inv in zip(own, inverses):
        seed.update(_lookup(index, (x_inv @ inverses) @ (x @ own)))
    return seed


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
    elements = [block_diagonal([x] * r) for x in G.elements]
    return FiniteMatrixGroup(lattice, elements, G.left, G._parent, G._letter)


def materialized_copies_report(lat, r):
    """The ``copies`` report of the r-fold sum and its catalog, from its own
    group: the diagonal lift of the closed base, reduced and catalogued at
    rank r n, its condition rows read with its own moved ranks."""
    total = direct_sum_copies(lat, r)
    G = diagonal_group(close(lat), total)
    reduced = effective_reduction(total)
    if reduced is not total:
        G = induced_group(G, reduced)
    catalog = enumerate_isotropy_groups(G)
    return _decide(total.name, total.rank, total.rank - reduced.rank, catalog, 1, lambda: G), catalog
