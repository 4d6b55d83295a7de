"""Finite subgroups of GL_n(Z): closure, subgroups, commutators, abelianization.

A :class:`FiniteMatrixGroup` is a fully enumerated element list in a fixed
canonical order (lexicographic on matrix entries), so elements are referred
to by index everywhere.  Subgroups are index sets into their parent, never
independent groups; that keeps intersection and conjugation cheap and gives
one source of truth for element identity.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapExceeded, InvalidGenerator
from .intlinalg import IntMatrix, common_fixed_lattice, unimodular_inverse

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
    """Fully enumerated finite matrix group.

    Immutable after construction; per-element caches (inverses, orders,
    fixed spaces) fill in lazily but never change values.
    """

    def __init__(self, lattice: GLattice, elements: Sequence[IntMatrix]):
        self.lattice = lattice
        self.elements = tuple(sorted(elements, key=lambda m: m.entries))
        self.order = len(self.elements)
        self._index = {m.entries: i for i, m in enumerate(self.elements)}
        self.identity_index = self._index[IntMatrix.identity(lattice.rank).entries]
        self.generator_indices = tuple(
            sorted({self._index[g.entries] for g in lattice.generators})
        )
        self._inverses: dict[int, int] = {}
        self._orders: dict[int, int] = {}
        self._fixed_spaces: dict[int, IntMatrix] = {}

    def element(self, i: int) -> IntMatrix:
        return self.elements[i]

    def index_of(self, m: IntMatrix) -> int:
        try:
            return self._index[m.entries]
        except KeyError:
            raise KeyError("matrix is not a group element") from None

    def mul(self, i: int, j: int) -> int:
        return self._index[(self.elements[i] * self.elements[j]).entries]

    def inv(self, i: int) -> int:
        j = self._inverses.get(i)
        if j is None:
            j = self._index[unimodular_inverse(self.elements[i]).entries]
            self._inverses[i] = j
            self._inverses[j] = i
        return j

    def conj(self, g: int, i: int) -> int:
        """Index of g x g^-1."""
        m = self.elements[g] * self.elements[i] * self.elements[self.inv(g)]
        return self._index[m.entries]

    def element_order(self, i: int) -> int:
        o = self._orders.get(i)
        if o is None:
            o = 1
            j = i
            while j != self.identity_index:
                j = self.mul(j, i)
                o += 1
            self._orders[i] = o
        return o

    def moved_rank(self, i: int) -> int:
        """rank(g - I), the complement of the fixed lattice's rank."""
        return self.lattice.rank - self.cyclic_fixed_space(i).rows

    def cyclic_fixed_space(self, i: int) -> IntMatrix:
        """Saturated Hermite basis of the fixed lattice of element i."""
        b = self._fixed_spaces.get(i)
        if b is None:
            b = common_fixed_lattice([self.elements[i]], self.lattice.rank)
            self._fixed_spaces[i] = b
        return b

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        name = self.lattice.name or "group"
        return f"<FiniteMatrixGroup {name}: order {self.order}, rank {self.lattice.rank}>"


def close(lattice: GLattice, cap: int = DEFAULT_CAP) -> FiniteMatrixGroup:
    """Enumerate the group generated by the lattice's matrices.

    Breadth-first closure under right multiplication by the generators.
    Raises :class:`CapExceeded` once more than ``cap`` elements appear,
    which converts an infinite (or unreasonably large) input into a clean
    error instead of a hang.
    """
    ident = IntMatrix.identity(lattice.rank)
    gens = []
    seen_gens = set()
    for g in lattice.generators:
        if g.entries not in seen_gens:
            seen_gens.add(g.entries)
            gens.append(g)
    elements = {ident.entries: ident}
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = x * g
            if y.entries not in elements:
                elements[y.entries] = y
                if len(elements) > cap:
                    raise CapExceeded(cap)
                queue.append(y)
    return FiniteMatrixGroup(lattice, list(elements.values()))


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
        """A small deterministic generating set (greedy over canonical order)."""
        if self._gens is None:
            self._gens = tuple(_greedy_generators(self.parent, self.indices)[0])
        return self._gens

    def __repr__(self) -> str:
        return f"<Subgroup order {self.order} of order-{self.parent.order} group>"


def _greedy_generators(G: FiniteMatrixGroup, seed: Sequence[int]) -> tuple[list[int], set[int]]:
    """Walk the sorted seed, keeping each element not yet generated; returns
    the kept generators and the subgroup they generate.  Closure work stays
    near |result| * #gens."""
    gens: list[int] = []
    closed = {G.identity_index}
    for i in seed:
        if i not in closed:
            gens.append(i)
            closed = _bfs_closure(G, gens)
    return gens, closed


def _bfs_closure(G: FiniteMatrixGroup, gens: Sequence[int]) -> set[int]:
    seen = {G.identity_index}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for g in gens:
            y = G.mul(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


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
    """Normal closure in h of the commutators of a generating set."""
    G = h.parent
    gens = h.generating_set()
    seeds = set()
    for a in gens:
        ia = G.inv(a)
        for b in gens:
            c = G.mul(G.mul(ia, G.inv(b)), G.mul(a, b))
            seeds.add(c)
    seeds.discard(G.identity_index)
    k = subgroup_generated(G, seeds)
    while True:
        new = set()
        for g in gens:
            for s in k.generating_set():
                c = G.conj(g, s)
                if c not in k:
                    new.add(c)
        if not new:
            return k
        k = subgroup_generated(G, set(k.indices) | new)


def is_perfect(h: Subgroup) -> bool:
    return commutator_subgroup(h).order == h.order


def _coset_decomposition(h: Subgroup, k: Subgroup):
    """Cosets of k in h: returns (reps, coset_of) with canonical reps."""
    G = h.parent
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for i in h.indices:
        if i in coset_of:
            continue
        members = sorted(G.mul(i, j) for j in k.indices)
        cid = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = cid
    return reps, coset_of


class _TableGroup:
    """A tiny finite group given by its Cayley table (used for quotients)."""

    def __init__(self, table: list[list[int]]):
        self.table = table
        self.size = len(table)
        self.identity = next(
            e for e in range(self.size) if all(table[e][x] == x for x in range(self.size))
        )

    def order_of(self, x: int) -> int:
        o = 1
        y = x
        while y != self.identity:
            y = self.table[y][x]
            o += 1
        return o

    def subgroup_closure(self, seed: Iterable[int]) -> set[int]:
        seen = {self.identity}
        queue = deque(seen)
        seed = list(set(seed) | seen)
        while queue:
            x = queue.popleft()
            for s in seed:
                y = self.table[x][s]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    def subgroup_table(self, members: Iterable[int]) -> "_TableGroup":
        """The subgroup on the given members as a table group of its own."""
        members = sorted(members)
        pos = {m: i for i, m in enumerate(members)}
        return _TableGroup([[pos[self.table[a][b]] for b in members] for a in members])

    def quotient_by_cyclic(self, x: int) -> "_TableGroup":
        sub = self.subgroup_closure([x])
        coset_of: dict[int, int] = {}
        reps: list[int] = []
        for i in range(self.size):
            if i in coset_of:
                continue
            members = sorted(self.table[i][s] for s in sub)
            cid = len(reps)
            reps.append(members[0])
            for m in members:
                coset_of[m] = cid
        table = [[coset_of[self.table[a][b]] for b in reps] for a in reps]
        return _TableGroup(table)

    def invariant_factors(self) -> tuple[int, ...]:
        """Invariant factors of an abelian table group, ascending chain.

        Repeatedly splits off a cyclic factor of maximal order; for a
        finite abelian group such a factor is always a direct summand.
        """
        factors: list[int] = []
        g = self
        while g.size > 1:
            x = max(range(g.size), key=lambda i: (g.order_of(i), -i))
            factors.append(g.order_of(x))
            g = g.quotient_by_cyclic(x)
        factors.reverse()
        return tuple(factors)


def quotient_table_group(h: Subgroup, k: Subgroup) -> tuple[_TableGroup, dict[int, int]]:
    """The quotient h/k as a table group, with the coset map h -> h/k.

    k must be normal in h (not checked beyond the table being well
    defined for coset representatives).
    """
    G = h.parent
    reps, coset_of = _coset_decomposition(h, k)
    table = [[coset_of[G.mul(a, b)] for b in reps] for a in reps]
    return _TableGroup(table), coset_of


def abelianization(h: Subgroup) -> tuple[int, ...]:
    """Invariant factors of h modulo its commutator subgroup."""
    k = commutator_subgroup(h)
    q, _ = quotient_table_group(h, k)
    return q.invariant_factors()


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
    # equal orders: a conjugate inside h2 is all of h2
    return subgroup_invariant_key(h1) == subgroup_invariant_key(h2) and has_conjugate_inside(G, h1, h2)


def has_conjugate_inside(G: FiniteMatrixGroup, h1: Subgroup, h2: Subgroup) -> bool:
    """True when some conjugate of h1 is contained in h2."""
    if h2.order % h1.order:
        return False
    target = h2._indexset
    for g in range(G.order):
        if all(G.conj(g, i) in target for i in h1.indices):
            return True
    return False
