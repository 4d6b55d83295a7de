"""Finite subgroups of GL_n(Z): closure, subgroups, commutators, abelian invariants.

A :class:`FiniteMatrixGroup` lists its elements in the BFS order of its
closure, in the compact form the closure built, and builds a matrix only
when one is read.  Elements are referred to by index; the indices depend
on the generator list, and no output does.  Subgroups are index sets into
their parent, never independent groups; that keeps intersection and
conjugation cheap and gives one source of truth for element identity.

Element arithmetic on indices multiplies no matrices.  :func:`close`
enumerates the group breadth-first from the identity under left
multiplication by the distinct generators g_k, and keeps what that costs
anyway: the left Cayley table ``left[k][x] = index(g_k x)``, one ``array``
row per generator, and the BFS tree, which gives every element a word in
the generators (an ``array`` of 16-bit letters).  A product i j starts at
j and follows i's word through the table, so it costs one lookup per
letter of the word.  Inverses and orders come from one walk along an
element's powers, and a conjugate is two products.  The table does not
depend on the rank, only on the order and the number of generators.  This
is the Schreier-vector bookkeeping of Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, ch. 4.  The enumeration is one
instance of the orbit algorithm of their ch. 4.1, :func:`_breadth_first`,
which lists the orbits of any starting points under any product maps;
it also lists X below, the isotropy catalog's orbits on fixed-space keys
and the icosian group's quaternions.

Subgroups are closed by cosets, as in Dimino's algorithm (Butler,
*Fundamental Algorithms for Permutation Groups*, LNCS 559): given K =
<gens>, :func:`_extend` builds <gens, g> from whole right cosets K y, a
coset representative r and a generator s giving the coset of r s when r s
is new.  Each new element costs one product and K is never visited again;
greedy generating sets and normal closures take one step per kept
generator.

A finite group's order is known before it is listed.  G permutes X, the
union of the orbits of the unit vectors e_1, ..., e_n, faithfully, so
:func:`_permutation_group_order` gets |G| from the generators'
permutations of X by Schreier-Sims (Sims 1970; Seress, *Permutation Group
Algorithms*).  When X has at most ``PERMUTATION_BUDGET`` = 64 points, as
it has for every ``DEFAULT_BUILTINS`` group but ``icosian``, :func:`close`
knows the order before it builds a second element, then enumerates G on
X: an element is the indices in X of its columns, and a product is one
lookup per column.  ``sym7_u7`` (|X| = 7) closes in about 7 ms, against
about 80 ms by matrix products.  A larger X keeps the matrix closure on
:mod:`packed` matrices, which asks for the order once it has built
``ORDER_CHECK_AT`` elements: a conjugated ``icosian`` closes in about
4 ms, against 15 ms with tuples of entries.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain
from math import gcd, inf, prod
from operator import itemgetter, methodcaller
from typing import Callable, Iterable, Sequence

from .errors import CapExceeded, InfiniteGroup, InfiniteOrderElement, InvalidGenerator, TheoremViolation
from .intlinalg import IntMatrix, rref_mod
from .packed import left_product, pack, unpack

DEFAULT_CAP = 10**6
# the matrix closure computes the order once it has built this many
# elements.  On a conjugated input X can have hundreds of points (540 for
# root_a5, of order 720), and the order then costs about 90 ms against
# 10 ms to close the group, so no group of order up to 720 pays for it
ORDER_CHECK_AT = 2048
# the most points of X that schreier_sims_order walks before it gives up;
# its transversals hold two permutations of X per point.  Walking 960
# points of a conjugated icosian takes about 20 ms
ORBIT_BUDGET = 1024
# the most points of X on which close enumerates G by permutations, at
# most 256, since a point's index is a byte; n > 64 skips the walk.  A walk
# that gives up here costs about a millisecond on the benchmark's
# conjugated inputs (|X| = 180 to 960)
PERMUTATION_BUDGET = 64


@dataclass(frozen=True)
class GLattice:
    """A rank-n lattice together with unimodular generator matrices."""

    rank: int
    generators: tuple[IntMatrix, ...]
    name: str = ""

    def __init__(self, rank: int, generators: Iterable[IntMatrix], name: str = ""):
        generators = tuple(generators)
        for pos, g in enumerate(generators):
            if g.rows != rank or g.cols != rank:
                raise InvalidGenerator(
                    f"generator {pos} is {g.rows}x{g.cols}, expected {rank}x{rank}"
                )
            if abs(g.det()) != 1:
                raise InvalidGenerator(f"generator {pos} has determinant {g.det()}, not ±1")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "name", name)


class FiniteMatrixGroup:
    """Fully enumerated finite matrix group with its left Cayley table.

    Elements are in BFS order: the identity at index 0, every element
    after its BFS parent.  ``left[k][x]`` is the index of g_k x, where g_k
    is the k-th distinct generator in the lattice's order (duplicates share
    a row; an identity generator has the identity row).  The BFS tree of
    the closure gives each element x other than the identity a parent p and
    a letter k with x = g_k p, so x's word k_1, ..., k_d reads
    x = g_{k_d} ... g_{k_1}.  ``mul(i, j)`` starts at j and follows i's
    word through the table: one lookup per letter.  The longest words on
    the benchmark groups have 25 letters, on sym7_u7 (16.7 on average).

    Element x is kept as :func:`close` built it, the bytes of its columns'
    indices in X or its entries packed in one int; ``element(x)`` builds
    its matrix on first read.  ``close(builtin("sym8_u8"))`` holds 8.7 MB
    under ``tracemalloc``, against 31.5 MB with every matrix built.

    ``prime`` is the least prime p that does not divide the order, so by
    Maschke every subgroup's fixed lattice reduces mod p to its fixed space
    over F_p, of the same dimension.  ``fixed_key(i)`` is that space's
    annihilator for one element, in canonical form: it keys the isotropy
    catalog's fixed spaces and gives ``moved_rank`` without an integer
    kernel.  When every point of X is a signed unit vector, as for the
    sym, alt and diag_sl builtins, each element is a signed permutation,
    and its key is read off its signed cycles without elimination: the
    keys of all 40,320 elements of sym8_u8 take 0.24 s, against 0.70 s by
    echelon forms (cyclic groups' shared keys included, on a shared 2-CPU
    host).  On such a group ``action()`` moves a vector by index: each
    element is one ``itemgetter`` over m + (-m), and no matrix is built.

    Immutable after construction; the action and the per-element caches
    (matrices, inverses, orders, fixed keys) fill in lazily but never
    change values.
    """

    def __init__(self, lattice: GLattice, compact: Sequence, left: Sequence[Sequence[int]],
                 parents: Sequence[int], letters: Sequence[int], points: Sequence | None = None, width: int = 0):
        """Keeps :func:`close`'s arrays; ``points`` is X, or None for ints of ``width``-bit fields."""
        n = len(compact)
        self.lattice = lattice
        self.order = n
        self._compact = compact
        self._points = points
        self._width = width
        self._matrices = [None] * n
        self.left = tuple(left)
        self._parent = parents
        self._letter = letters
        self.identity_index = 0
        words = [array("H")] * n
        for x in range(1, n):
            words[x] = words[parents[x]] + letters[x : x + 1]
        self._words = tuple(words)
        self.generator_indices = tuple(sorted({row[0] for row in self.left}))
        self._inverses = array("i", [-1]) * n
        self._orders = array("i", bytes(4 * n))
        self.prime = _least_prime_not_dividing(n)
        self._fixed_keys: dict[int, tuple] = {}
        # X is monomial when each of its points x is s e_i, so s = sum(x); then the axes i and signs s
        self._signed = None
        if points is not None and all(sum(map(abs, x)) == 1 for x in points):
            self._signed = tuple(x.index(sum(x)) for x in points), tuple(map(sum, points))
        self._action = None

    def action(self) -> Callable[[tuple], list[tuple]]:
        """The map m -> [g m for every element g], in index order, built on
        first read.  On a signed group element x is one ``itemgetter`` over
        m + (-m): g e_b = s e_c puts entry b of m, or of -m when s = -1, at
        c.  Any other group applies its matrices."""
        if self._action is None:
            if self._signed is None:
                applies = [self.element(i).apply for i in range(self.order)]
                self._action = lambda m: [apply(m) for apply in applies]
            else:
                (axes, signs), n = self._signed, self.lattice.rank
                gets = []
                for x in self._compact:
                    at = [0] * n
                    for b, p in enumerate(x):
                        at[axes[p]] = b if signs[p] > 0 else b + n
                    # one index would give a scalar, not a tuple: ranks 0 and 1 slice
                    gets.append(itemgetter(*at) if n > 1 else itemgetter(slice(n and at[0], n and at[0] + 1)))

                def act(m):
                    v = m + tuple([-a for a in m])
                    return [get(v) for get in gets]

                self._action = act
        return self._action

    def element(self, i: int) -> IntMatrix:
        """Element i's matrix, built on first read."""
        g = self._matrices[i]
        if g is None:
            n = self.lattice.rank
            g = self._matrices[i] = IntMatrix(n, n, chain.from_iterable(self._rows(i)))
        return g

    def _rows(self, i: int) -> Iterable:
        """Element i's rows, read off its compact form: the one reader of
        both forms."""
        n, x = self.lattice.rank, self._compact[i]
        if self._points is None:
            x = unpack(x, n * n, self._width)
            return [x[r * n : r * n + n] for r in range(n)]
        return zip(*map(self._points.__getitem__, x))

    def mul(self, i: int, j: int) -> int:
        """Index of x_i x_j: follow i's word through the table from j."""
        left = self.left
        for k in self._words[i]:
            j = left[k][j]
        return j

    def inv(self, i: int) -> int:
        if self._inverses[i] < 0:
            self._powers(i)
        return self._inverses[i]

    def conj(self, g: int, i: int) -> int:
        """Index of g x g^-1."""
        return self.mul(self.mul(g, i), self.inv(g))

    def element_order(self, i: int) -> int:
        if not self._orders[i]:
            self._powers(i)
        return self._orders[i]

    def _powers(self, i: int) -> list[int]:
        """i, i^2, ..., i^o = identity; caches the order and the inverse of
        every power on the way (i^k has order o / gcd(k, o), inverse i^(o-k))."""
        powers = [i]
        while powers[-1] != self.identity_index:
            if len(powers) == self.order:
                raise TheoremViolation("an element's powers never reach the identity")
            powers.append(self.mul(i, powers[-1]))
        o = len(powers)
        for k, j in enumerate(powers, 1):
            self._orders[j] = o // gcd(k, o)
            self._inverses[j] = powers[o - k - 1]
        return powers

    def moved_rank(self, i: int) -> int:
        """rank(g - I), the complement of the fixed lattice's rank."""
        return len(self.fixed_key(i))

    def fixed_key(self, i: int) -> tuple[bytes, ...]:
        """Reduced echelon form of g - I over F_p, p = ``prime``: the
        annihilator of the fixed space of g mod p, whose dimension is the
        fixed lattice's rank because p does not divide the order of g.

        Every generator g^k (gcd(k, ord g) = 1) of the cyclic group of g
        fixes the same space, so one form is cached for all of them.
        """
        key = self._fixed_keys.get(i)
        if key is None:
            if self._signed is not None:
                key = self._cycle_key(self._compact[i])
            else:
                rows = ([a - (j == r) for j, a in enumerate(row)] for r, row in enumerate(self._rows(i)))
                key = rref_mod(rows, self.prime)
            powers = self._powers(i)
            for k, j in enumerate(powers, 1):
                if gcd(k, len(powers)) == 1:
                    self._fixed_keys[j] = key
        return key

    def _cycle_key(self, x: bytes) -> tuple[bytes, ...]:
        """``fixed_key`` of a signed permutation x, which maps e_b to s e_c
        for c and s the axis and sign of its point x[b].  A fixed vector w
        has w_c = s w_b, so on a cycle of b -> c it is a multiple of one
        sign vector when the cycle's signs multiply to 1 (always, over F_2),
        and 0 otherwise.  The annihilator then has the rows
        e_b - (w_b / w_top) e_top for the members b below the cycle's
        largest, top, or else every e_b; sorted by b, that is the reduced
        echelon form."""
        axes, signs = self._signed
        n, p = self.lattice.rank, self.prime
        rows: list = [None] * n
        seen = bytearray(n)
        for a in range(n):
            if seen[a]:
                continue
            cycle, w, b = [], 1, a
            while not seen[b]:
                seen[b] = 1
                cycle.append((b, w))
                w *= signs[x[b]]
                b = axes[x[b]]
            top, w_top = max(cycle)
            line = w > 0 or p == 2
            for b, w_b in cycle:
                if b != top or not line:
                    row = bytearray(n)
                    row[b] = 1
                    if line:
                        row[top] = -w_b * w_top % p
                    rows[b] = bytes(row)
        return tuple(row for row in rows if row is not None)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        name = self.lattice.name or "group"
        return f"<FiniteMatrixGroup {name}: order {self.order}, rank {self.lattice.rank}>"


def _least_prime_not_dividing(n: int) -> int:
    p = 2
    while n % p == 0 or any(p % q == 0 for q in range(2, p)):
        p += 1
    return p


def _table_rows(generators: Sequence[IntMatrix]) -> list[int]:
    """Position of the first occurrence of each distinct generator: one
    table row each, in the lattice's order."""
    first: dict[IntMatrix, int] = {}
    for p, g in enumerate(generators):
        first.setdefault(g, p)
    return list(first.values())


def close(lattice: GLattice, cap: int = DEFAULT_CAP) -> FiniteMatrixGroup:
    """Enumerate the group generated by the lattice's matrices.

    Breadth-first closure under left multiplication by the distinct
    generators; every product g_k x becomes the table entry left[k][x],
    and the first product to reach an element fixes its BFS parent and
    letter.

    The closure first walks X, the union of the orbits of e_1, ..., e_n.
    If X closes within ``PERMUTATION_BUDGET`` points, G permutes it and is
    finite.  Its order then comes from :func:`_permutation_group_order`
    before any element is built, and an order above the cap raises
    ``CapExceeded(cap)``.  Otherwise each element is held as the indices
    in X of its columns g e_1, ..., g e_n, one byte each, and g_k x maps
    each byte through g_k's permutation of X with ``bytes.translate``.
    Equal matrices have equal columns, so the BFS, its table, parents and
    letters are those of the matrix products below; the group keeps them.

    Past the budget, as on every infinite group, :func:`_packed_closure`
    multiplies matrices, and the closure stops at the first proof that
    the group is infinite.  By Minkowski, the kernel of
    GL_n(Z) -> GL_n(Z/3) is torsion-free, so a finite group injects into
    its reduction mod 3; every new element is keyed by its entries mod 3,
    and two distinct elements with one key raise :class:`InfiniteGroup`,
    which carries them.  Otherwise raises :class:`CapExceeded` once more
    than ``cap`` elements appear, which converts an unreasonably large
    input into a clean error instead of a hang.  An element of finite
    order has roots of unity for eigenvalues, so its trace is at most n in
    absolute value; a new element past both tests with a larger trace
    raises :class:`InfiniteOrderElement`, which carries it.  Dense
    generators of infinite order meet no mod-3 twin for a long time, but
    their traces grow fast.  Both refusals are ``CapExceeded``, so callers
    need only catch the latter.  When this count first reaches
    ``ORDER_CHECK_AT`` elements, the order comes from
    :func:`schreier_sims_order`, bounded by ``cap``; an order above the
    cap raises ``CapExceeded(cap)`` at once, the outcome the whole closure
    would reach, since a finite group meets neither refusal.  When that
    walk passes ``ORBIT_BUDGET`` points, the closure goes on without it.

    On either path, a count that differs from a known order raises
    :class:`TheoremViolation`.  Every group holds its identity, so a cap
    below 1 raises ``CapExceeded(cap)`` before either path starts.
    """
    if cap < 1:
        raise CapExceeded(cap)
    n = lattice.rank
    walk = _unit_orbits(lattice, PERMUTATION_BUDGET)
    if walk is not None:
        (points, perms), width = walk, 0
        order = _permutation_group_order(perms, len(points), cap)
        if order > cap:
            raise CapExceeded(cap)
        # a byte indexes a point of X; x.translate(table) maps each byte of x
        # through a permutation padded to the 256 entries a table needs
        tables = [bytes(p).ljust(256, b"\0") for p in perms]
        found, left, parents, letters = _breadth_first(
            [bytes(range(n))], [methodcaller("translate", t) for t in tables], partial(_within_cap, cap)
        )
    else:
        points, width = None, 32
        while (closed := _packed_closure(lattice, cap, width)) is None:
            width *= 2
        found, left, parents, letters, order = closed
    if order is not None and order != len(found):
        raise TheoremViolation(f"closure built {len(found)} elements, but the group's order is {order}")
    return FiniteMatrixGroup(lattice, found, left, parents, letters, points, width)


def _packed_closure(lattice: GLattice, cap: int, width: int) -> tuple | None:
    """:func:`close`'s matrix path on :mod:`packed` elements of ``width``-bit
    fields: the walk's lists and the order if computed, or None once an
    element is too large.  A product g_k x has entries at most ``norm``, the
    largest row 1-norm of a generator, times x's largest, so no product of
    an element with entries below 2^(width - 1) / norm overflows a field."""
    n = lattice.rank
    gens = [lattice.generators[p] for p in _table_rows(lattice.generators)]
    norm = max((sum(map(abs, g.row(i))) for g in gens for i in range(n)), default=1)
    if (limit := -(-(1 << width - 1) // norm)) <= 1:
        return None
    identity = IntMatrix.identity(n).entries
    found, residues, order = [pack(identity, width)], {_mod3(identity): 0}, None

    def admit(y: int, j: int) -> None:
        nonlocal order
        entries = unpack(y, n * n, width)
        twin = residues.setdefault(_mod3(entries), j)
        if twin != j:
            raise InfiniteGroup(cap, IntMatrix(n, n, unpack(found[twin], n * n, width)), IntMatrix(n, n, entries))
        _within_cap(cap, y, j)
        if abs(sum(entries[:: n + 1])) > n:
            raise InfiniteOrderElement(cap, IntMatrix(n, n, entries))
        if max(entries) >= limit or min(entries) <= -limit:
            raise OverflowError
        if j + 1 == ORDER_CHECK_AT:
            order = schreier_sims_order(lattice, cap)
            if order is not None and order > cap:
                raise CapExceeded(cap)

    try:
        return *_breadth_first(found, [left_product(g, width) for g in gens], admit), order
    except OverflowError:
        return None


def _breadth_first(found: list, products: Sequence[Callable], admit: Callable) -> tuple:
    """Every point reachable from the starts under the product maps, in
    BFS order with the starts first (the orbit algorithm of Holt, Eick and
    O'Brien, ch. 4.1), appended to ``found``, the list of starts; with the
    table ``left[k][x]``, the index of ``products[k]`` applied to point x,
    and each later point's BFS parent and letter (a start's are 0).  From the identity under the generators'
    products, these are the elements, left Cayley table and BFS tree of
    :class:`FiniteMatrixGroup`.  ``admit(y, j)`` sees each new point y and
    its index j first, and may refuse it by raising."""
    index = {x: j for j, x in enumerate(found)}
    left = [array("i") for _ in products]
    parents, letters = array("i", [0]) * len(found), array("H", [0]) * len(found)
    # found grows while it is walked, so this visits it in BFS order
    for x, entries in enumerate(found):
        for k, product in enumerate(products):
            y = product(entries)
            j = index.get(y)
            if j is None:
                j = len(found)
                admit(y, j)
                index[y] = j
                found.append(y)
                parents.append(x)
                letters.append(k)
            left[k].append(j)
    return found, left, parents, letters


def _within_cap(cap: int, y: Sequence[int], j: int) -> None:
    if j >= cap:
        raise CapExceeded(cap)


def _unit_orbits(lattice: GLattice, budget: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]] | None:
    """X, the union of the orbits of the unit vectors e_1, ..., e_n, with
    e_1, ..., e_n first, and each distinct generator's permutation of it
    (a point's index to its image's); None once X has more than ``budget``
    points.  An infinite group has an infinite orbit, so that is where the
    walk ends on one."""
    n = lattice.rank
    if n > budget:
        return None
    applies = [lattice.generators[p].apply for p in _table_rows(lattice.generators)]
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    try:
        points, images, _, _ = _breadth_first(units, applies, partial(_within_cap, budget))
    except CapExceeded:
        return None
    return points, [tuple(image) for image in images]


def schreier_sims_order(lattice: GLattice, bound: float = inf) -> int | None:
    """|G| from G's permutations of X, the union of the orbits of the unit
    vectors e_1, ..., e_n, without listing G.

    X spans the lattice, so G acts on it faithfully, and a deterministic
    Schreier-Sims run on the generators' permutations of X gives |G|
    (Sims 1970; Holt, Eick and O'Brien, ch. 4.4).  Returns None once X
    has more than ``ORBIT_BUDGET`` points.  At every step the product of
    the basic orbit lengths is at most |G|; once it passes ``bound`` it is
    returned in place of the order.
    """
    walk = _unit_orbits(lattice, ORBIT_BUDGET)
    if walk is None:
        return None
    points, perms = walk
    return _permutation_group_order(perms, len(points), bound)


def _permutation_group_order(perms: Sequence[tuple[int, ...]], degree: int, bound: float) -> int:
    """Order of the group the permutations of range(degree) generate, by
    the deterministic Schreier-Sims algorithm; stops early once the
    product of the basic orbit lengths passes ``bound``.

    A permutation p maps x to p[x].  Level i of the stabilizer chain has a
    base point b, strong generators that fix the earlier base points, and
    a transversal: for each point x of b's orbit, a pair (u, u^-1) with
    u[b] = x.  Each generator, then each Schreier generator
    u_x s u_{s[x]}^-1 of a level, is sifted through the levels below it,
    and a residue other than the identity joins the strong generators of
    the levels it passed.  Transversals only grow and strong generators
    are only appended, so a Schreier generator that once sifted to the
    identity stays proven and is never sifted again.
    """
    identity = tuple(range(degree))
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    transversals: list[dict[int, tuple[tuple[int, ...], tuple[int, ...]]]] = []
    sifted: list[set[tuple[int, int]]] = []

    def sift(h, i):
        while i < len(base) and (pair := transversals[i].get(h[base[i]])):
            h = tuple(map(pair[1].__getitem__, h))
            i += 1
        return h, i

    def add(h, first, last):
        """h joins levels first..last, and a new level if it fixes every
        base point; True once the orbit lengths pass the bound."""
        if last == len(base):
            b = next(x for x, y in enumerate(h) if x != y)
            base.append(b)
            strong.append([])
            transversals.append({b: (identity, identity)})
            sifted.append(set())
        for level in range(first, last + 1):
            strong[level].append(h)
            t = transversals[level]
            orbit = list(t)
            for x in orbit:
                u = t[x][0]
                for s in strong[level]:
                    if s[x] not in t:
                        w = tuple(map(s.__getitem__, u))
                        w_inv = [0] * degree
                        for y, z in enumerate(w):
                            w_inv[z] = y
                        t[s[x]] = (w, tuple(w_inv))
                        orbit.append(s[x])
        return prod(map(len, transversals)) > bound

    def residue(i):
        t = transversals[i]
        for x, (u, _) in t.items():
            for k, s in enumerate(strong[i]):
                if (x, k) not in sifted[i]:
                    sifted[i].add((x, k))
                    h, j = sift(tuple(map(t[s[x]][1].__getitem__, map(s.__getitem__, u))), i + 1)
                    if h != identity:
                        return h, j
        return None

    for g in perms:
        h, j = sift(g, 0)
        if h != identity and add(h, 0, j):
            return prod(map(len, transversals))
    i = len(base) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        if add(h, i + 1, j):
            break
        i = j
    return prod(map(len, transversals))


def _mod3(entries: tuple[int, ...]) -> bytes:
    """Entries reduced mod 3 (to 0, 1, 2, negative ones too), one to a byte."""
    return bytes(map((3).__rmod__, entries))


def block_diagonal(blocks: Sequence[IntMatrix]) -> IntMatrix:
    """Blocks placed along the diagonal; they need not be square."""
    cols = sum(b.cols for b in blocks)
    entries: list[int] = []
    before = 0
    for b in blocks:
        pad, after = [0] * before, [0] * (cols - before - b.cols)
        for i in range(b.rows):
            entries += pad
            entries += b.row(i)
            entries += after
        before += b.cols
    return IntMatrix(sum(b.rows for b in blocks), cols, entries)


class Subgroup:
    """A subgroup of an enumerated group, stored as a sorted index set."""

    __slots__ = ("parent", "indices", "_indexset", "_gens")

    def __init__(self, parent: FiniteMatrixGroup, indices: Iterable[int]):
        self.parent = parent
        self.indices = tuple(sorted(set(indices)))
        self._indexset = frozenset(self.indices)
        self._gens: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self._indexset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.indices == other.indices
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.indices))

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_full(self) -> bool:
        return self.order == self.parent.order

    def matrices(self) -> list[IntMatrix]:
        return [self.parent.element(i) for i in self.indices]

    def generating_set(self) -> tuple[int, ...]:
        """A small generating set, greedy over index order (internal: it varies with the generators)."""
        if self._gens is None:
            self._gens = tuple(_greedy_generators(self.parent, self.indices)[0])
        return self._gens

    def __repr__(self) -> str:
        return f"<Subgroup order {self.order} of order-{self.parent.order} group>"


def _greedy_generators(G: FiniteMatrixGroup, seed: Sequence[int]) -> tuple[list[int], set[int]]:
    """Walk the sorted seed, keeping each element not yet generated; returns
    the kept generators and the subgroup they generate.  Each kept element
    costs one :func:`_extend`, so the walk makes one product per element of
    the result, one per coset representative and generator of each step,
    and one membership test per seed element."""
    gens: list[int] = []
    closed = {G.identity_index}
    for i in seed:
        if i not in closed:
            closed = _extend(G, closed, gens, i)
            gens.append(i)
    return gens, closed


def _extend(G: FiniteMatrixGroup, closed: set[int], gens: Sequence[int], g: int) -> set[int]:
    """<gens, g> from closed = <gens>, as a union of whole right cosets of
    closed (see the module docstring)."""
    gens = [*gens, g]
    result = set(closed)
    reps = [G.identity_index]
    for r in reps:
        for s in gens:
            y = G.mul(r, s)
            if y not in result:
                result.update([G.mul(k, y) for k in closed])
                reps.append(y)
    return result


def subgroup_generated(G: FiniteMatrixGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the seed indices."""
    return Subgroup(G, _greedy_generators(G, sorted(set(seed)))[1])


def commutator_subgroup(h: Subgroup) -> Subgroup:
    """Normal closure in h of the commutators of a generating set.  Each
    queued element not yet in K extends K and queues its conjugates by h's
    generators; once they all lie in K, K is normal in h."""
    G = h.parent
    gens = h.generating_set()
    queue = [G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b)) for a in gens for b in gens]
    kept: list[int] = []
    k = {G.identity_index}
    for c in queue:
        if c not in k:
            k = _extend(G, k, kept, c)
            kept.append(c)
            queue.extend(G.conj(g, c) for g in gens)
    return Subgroup(G, k)


def is_perfect(h: Subgroup) -> bool:
    return commutator_subgroup(h).order == h.order


def coset_orders(h: Subgroup, k: Subgroup) -> tuple[list[int], dict[int, int]]:
    """Orders of the cosets of k in h, with the coset map h -> h/k.

    The order of the coset xk is the least t with x^t in k; k must be
    normal in h (not checked).  Coset ids follow the index order of h.
    """
    G = h.parent
    coset_of: dict[int, int] = {}
    orders: list[int] = []
    for x in h.indices:
        if x in coset_of:
            continue
        for j in k.indices:
            coset_of[G.mul(x, j)] = len(orders)
        t, y = 1, x
        while y not in k:
            y = G.mul(y, x)
            t += 1
        orders.append(t)
    return orders, coset_of


def abelian_invariants(orders: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors (ascending chain) of the finite abelian group whose
    elements have the given orders.

    If the p-part is a product of cyclic groups of orders p^e_i, the
    elements of order dividing p^e number p^(sum of min(e, e_i)).  From
    e - 1 to e that exponent grows by #{i : e_i >= e}, which fixes every
    e_i; the j-th largest invariant factor collects the j-th largest e_i
    of each prime.
    """
    orders = list(orders)
    factors: list[int] = []  # largest first
    for p in _prime_divisors(len(orders)):
        at_least = []  # at_least[e - 1] = #{i : e_i >= e}
        below, q = 1, p
        while (count := sum(1 for o in orders if q % o == 0)) > below:
            at_least.append(_log(count // below, p))
            below, q = count, q * p
        for j in range(at_least[0]):
            if j == len(factors):
                factors.append(1)
            factors[j] *= p ** sum(1 for c in at_least if c > j)
    return tuple(reversed(factors))


def _prime_divisors(n: int):
    p = 2
    while p * p <= n:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        yield n


def _log(x: int, p: int) -> int:
    """The exponent e with x = p^e."""
    e = 0
    while x > 1:
        x //= p
        e += 1
    return e


def element_order_histogram(g: FiniteMatrixGroup | Subgroup) -> dict[int, int]:
    """Counts of elements by multiplicative order; values sum to the order."""
    if isinstance(g, Subgroup):
        parent, indices = g.parent, g.indices
    else:
        parent, indices = g, range(g.order)
    hist = Counter(parent.element_order(i) for i in indices)
    return dict(sorted(hist.items()))
