"""Finite subgroups of GL_n(Z): closure, subgroups, commutators, abelianization.

A :class:`FiniteMatrixGroup` is a fully enumerated element list in the BFS
order of its closure, so elements are referred to by index everywhere; the
indices depend on the generator list, and no output does.  Subgroups are
index sets into their parent, never independent groups; that keeps
intersection and conjugation cheap and gives one source of truth for
element identity.

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
*Handbook of Computational Group Theory*, ch. 4.

Subgroups are closed by cosets, as in Dimino's algorithm (Butler,
*Fundamental Algorithms for Permutation Groups*, LNCS 559): given K =
<gens>, :func:`_extend` builds <gens, g> from whole right cosets K y, a
coset representative r and a generator s giving the coset of r s when r s
is new.  Each new element costs one product and K is never visited again;
greedy generating sets and normal closures take one step per kept
generator.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from math import gcd
from operator import add
from typing import Iterable, Sequence

from .errors import CapExceeded, InfiniteGroup, InfiniteOrderElement, InvalidGenerator, TheoremViolation
from .intlinalg import IntMatrix, rref_mod

DEFAULT_CAP = 10**6


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

    ``elements`` is in BFS order: the identity at index 0, every element
    after its BFS parent.  ``left[k][x]`` is the index of g_k x, where g_k
    is the k-th distinct generator in the lattice's order (duplicates share
    a row; an identity generator has the identity row).  The BFS tree of
    the closure gives each element x other than the identity a parent p and
    a letter k with x = g_k p, so x's word k_1, ..., k_d reads
    x = g_{k_d} ... g_{k_1}.  ``mul(i, j)`` starts at j and follows i's
    word through the table: one lookup per letter.  The longest words on
    the benchmark groups have 25 letters on sym7_u7 (16.7 on average), 18
    on sym6_u6 and root_a5, 12 on signed_root_s5, 10 on icosian and its
    direct sums, and at most 6 on every other builtin.
    Memory is 4 bytes per table entry plus one small array per word.

    ``prime`` is the least prime p that does not divide the order, so by
    Maschke every subgroup's fixed lattice reduces mod p to its fixed space
    over F_p, of the same dimension.  ``fixed_key(i)`` is that space's
    annihilator for one element, in canonical form: it keys the isotropy
    catalog's fixed spaces and gives ``moved_rank`` without an integer
    kernel.

    Immutable after construction; per-element caches (inverses, orders,
    fixed keys) fill in lazily but never change values.
    """

    def __init__(self, lattice: GLattice, elements: Sequence[IntMatrix], left: Sequence[Sequence[int]],
                 parents: Sequence[int], letters: Sequence[int]):
        """Keeps :func:`close`'s arrays as they are."""
        n = len(elements)
        self.lattice = lattice
        self.elements = tuple(elements)
        self.order = n
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

    def element(self, i: int) -> IntMatrix:
        return self.elements[i]

    def index_of(self, m: IntMatrix) -> int:
        if m not in self.elements:
            raise KeyError("matrix is not a group element")
        return self.elements.index(m)

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
            g = self.elements[i]
            key = rref_mod(
                ([a - (j == r) for j, a in enumerate(g.row(r))] for r in range(g.rows)), self.prime
            )
            powers = self._powers(i)
            for k, j in enumerate(powers, 1):
                if gcd(k, len(powers)) == 1:
                    self._fixed_keys[j] = key
        return key

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

    Stops at the first proof that the group is infinite.  By Minkowski,
    the kernel of GL_n(Z) -> GL_n(Z/3) is torsion-free, so a finite group
    injects into its reduction mod 3; every new element is keyed by its
    entries mod 3, and two distinct elements with one key raise
    :class:`InfiniteGroup`, which carries them.  Otherwise raises
    :class:`CapExceeded` once more than ``cap`` elements appear, which
    converts an unreasonably large input into a clean error instead of a
    hang.  An element of finite order has roots of unity for eigenvalues,
    so its trace is at most n in absolute value; a new element past both
    tests with a larger trace raises :class:`InfiniteOrderElement`, which
    carries it.  Dense generators of infinite order meet no mod-3 twin
    for a long time, but their traces grow fast.  Both refusals are
    ``CapExceeded``, so callers need only catch the latter.
    """
    n = lattice.rank
    gens = [_sparse_rows(lattice.generators[p]) for p in _table_rows(lattice.generators)]
    # elements are held as entry tuples, the dictionary's own keys, until
    # the group is known to be finite
    found = [IntMatrix.identity(n).entries]
    index = {found[0]: 0}
    residues = {_mod3(found[0]): 0}
    left = [array("i") for _ in gens]
    parents, letters = array("i", [0]), array("H", [0])
    # found grows while it is walked, so this visits it in BFS order
    for x, entries in enumerate(found):
        for k, rows in enumerate(gens):
            y = _left_product(rows, entries, n)
            j = index.get(y)
            if j is None:
                j = len(found)
                twin = residues.setdefault(_mod3(y), j)
                if twin != j:
                    raise InfiniteGroup(cap, IntMatrix(n, n, found[twin]), IntMatrix(n, n, y))
                if j >= cap:
                    raise CapExceeded(cap)
                if abs(sum(y[:: n + 1])) > n:
                    raise InfiniteOrderElement(cap, IntMatrix(n, n, y))
                index[y] = j
                found.append(y)
                parents.append(x)
                letters.append(k)
            left[k].append(j)
    elements = [IntMatrix(n, n, entries) for entries in found]
    return FiniteMatrixGroup(lattice, elements, left, parents, letters)


def _mod3(entries: tuple[int, ...]) -> bytes:
    """Entries reduced mod 3 (to 0, 1, 2, negative ones too), one to a byte."""
    return bytes(map((3).__rmod__, entries))


def _sparse_rows(g: IntMatrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """g's rows as the (offset, coefficient) pairs of their nonzero entries;
    the offset of column t is where row t of an n-column right factor
    starts in its entries."""
    n = g.cols
    return tuple(tuple((t * n, a) for t, a in enumerate(g.row(i)) if a) for i in range(g.rows))


def _left_product(rows, x: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Entries of g x, from g's sparse rows and the entries of x (n columns).

    Row i of g x is the combination of x's rows that row i of g names,
    summed through lazy ``map`` chains: a signed-permutation generator
    costs one slice per row, and no product makes an ``IntMatrix``.
    """
    out: list[int] = []
    for row in rows:
        acc = None
        for o, a in row:
            seg = x[o : o + n] if a == 1 else map(a.__mul__, x[o : o + n])
            acc = seg if acc is None else map(add, acc, seg)
        out += acc
    return tuple(out)


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


def full_subgroup(G: FiniteMatrixGroup) -> Subgroup:
    return Subgroup(G, range(G.order))


def trivial_subgroup(G: FiniteMatrixGroup) -> Subgroup:
    return Subgroup(G, [G.identity_index])


def subgroup_generated(G: FiniteMatrixGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the seed indices."""
    return Subgroup(G, _greedy_generators(G, sorted(set(seed)))[1])


def intersect_subgroups(h1: Subgroup, h2: Subgroup) -> Subgroup:
    if h1.parent is not h2.parent:
        raise ValueError("subgroups of different parents")
    return Subgroup(h1.parent, h1._indexset & h2._indexset)


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


def abelianization(h: Subgroup) -> tuple[int, ...]:
    """Invariant factors of h modulo its commutator subgroup."""
    orders, _ = coset_orders(h, commutator_subgroup(h))
    return abelian_invariants(orders)


def element_order_histogram(g: FiniteMatrixGroup | Subgroup) -> dict[int, int]:
    """Counts of elements by multiplicative order; values sum to the order."""
    if isinstance(g, Subgroup):
        parent, indices = g.parent, g.indices
    else:
        parent, indices = g, range(g.order)
    hist = Counter(parent.element_order(i) for i in indices)
    return dict(sorted(hist.items()))


def subgroup_invariant_key(h: Subgroup) -> tuple:
    """Cheap conjugation-invariant fingerprint used to bucket subgroups."""
    orders = Counter(h.parent.element_order(i) for i in h.indices)
    moved = Counter(h.parent.moved_rank(i) for i in h.indices)
    return (h.order, tuple(sorted(orders.items())), tuple(sorted(moved.items())))


def are_conjugate_subgroups(G: FiniteMatrixGroup, h1: Subgroup, h2: Subgroup) -> bool:
    """Brute-force test for g with g h1 g^-1 = h2."""
    if h1.parent is not G or h2.parent is not G:
        raise ValueError("subgroups do not belong to the given group")
    if h1.indices == h2.indices:
        return True
    if subgroup_invariant_key(h1) != subgroup_invariant_key(h2):
        return False
    # equal orders: a conjugate inside h2 is all of h2
    target = h2._indexset
    return any(all(G.conj(g, i) in target for i in h1.indices) for g in range(G.order))
