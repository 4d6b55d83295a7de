"""Fixed lattices, isotropy groups, and the fixed-point-free constraints.

The catalog of isotropy groups is built without scanning lattice vectors:

1. Collect the fixed space of every single element.
2. Close that family under intersection.  Every fixed lattice of every
   isotropy group is such an intersection, and conversely the pointwise
   stabilizer of any space in the closure is an isotropy group, so the
   closure is exactly the family of isotropy fixed spaces.  The closure
   is G-stable, so it is explored up to conjugacy.
3. Sweep the closure by conjugation orbits.  G permutes the closure, and
   the stabilizer of gW is g G_W g^-1, so each orbit costs one pointwise
   stabilizer, read off the keys of step 1, and one fixed lattice; the
   other members' stabilizers and bases follow through the generators.
   The orbits are the conjugacy classes of isotropy groups.

Steps 1 and 2 work over F_p, for p = ``G.prime`` the least prime not
dividing |G|.  For a subgroup H, the averaging idempotent e = (1/|H|) sum h
has p-integral entries, so Z_(p)^n splits as im e + ker e, with im e the
fixed vectors; reducing mod p gives Maschke's splitting over F_p.  Hence
the saturated fixed lattice Fix_Z(H) reduces to Fix_p(H), and its rank is
dim Fix_p(H).  That reduction tells fixed lattices apart: if Fix_p(H1) =
Fix_p(H2), then H = <H1, H2> has Fix_p(H) = Fix_p(H1) as well, so
Fix_Z(H) is a saturated sublattice of Fix_Z(H1) of the same rank, hence
equal to it, and likewise to Fix_Z(H2).  A fixed space is therefore keyed
by the canonical echelon form over F_p of its annihilator: the row space
of g - I for one element (``FiniteMatrixGroup.fixed_key``), and for a
meet the sum of the two annihilators (``intlinalg.rref_mod``).

Step 2 explores the closure one conjugation orbit at a time, never space
by space; the orbits are found and swept (step 3) as the exploration
reaches them.  Four facts make that enough.

- Prime-power keys suffice.  Fix(g) is the meet of the fixed spaces of
  g's prime-power parts, which are powers of g, so the meets of the
  fixed spaces of the elements of prime-power order are the whole
  closure.  The exploration starts at the whole lattice, key (), whose
  meet with each prime-power key b is b itself, so every such key's
  orbit is swept before any meet is computed.
- Irreducible keys suffice after that.  A prime-power key b is reducible
  when the cyclic spaces strictly above it meet to b: they are the
  fixed spaces of the elements of G_b with another key, so b is
  reducible exactly when their keys span key(b).  Each of those spaces
  is a meet of prime-power spaces above b, so by descending dimension a
  reducible key is a meet of irreducible ones, and these alone generate
  the closure.  Conjugation keeps a key irreducible.
- One meet per orbit of G_c.  G permutes the closure and
  g (c ∧ b) = gc ∧ gb.  A space of the closure below a prime-power key
  is c' ∧ b, for c' a meet of fewer irreducible keys and b irreducible.
  Some g moves c' to its orbit's representative c, and some h in G_c
  moves gb to the chosen point b' of its G_c-orbit; as hc = c,
  hg (c' ∧ b) = c ∧ b'.  So each representative c meets one b per
  G_c-orbit of irreducible keys.  It skips the b of G_c's own elements,
  for then c ∧ b = c.  A meet whose key is not yet known starts a new
  orbit, whose representative joins the queue.
- G_c's orbits on keys.  x Fix(g) = Fix(x g x^-1), so conjugation
  permutes the irreducible keys.  Each generator letter's permutation is
  read off the conjugation tables of step 3; an element's is composed
  along the BFS tree from its parent's, and G_c's orbits are walked by
  ``groups._breadth_first`` under the permutations of G_c's generators,
  so no key costs a product.

Steps 1 and 2 do no integer arithmetic.

Step 3 reads stabilizers off the keys.  An element g lies in G_W exactly
when key(W) contains g's key.  If it does, Fix_p(g) contains Fix_p(G_W),
so H = <G_W, g> has Fix_p(H) = Fix_p(G_W); by the argument above Fix_Z(H)
is a saturated sublattice of W of the same rank, hence W, and g fixes W.
So G_W collects the elements of every cyclic key that key(W) contains.
The test is that the rows of g's key vanish on a basis of the space
key(W) annihilates, which is read off the echelon form.  The orbit of W
is walked through the generators.  The image gW has stabilizer
g G_W g^-1, one table lookup per element, and a closure space and its
stabilizer determine each other: W is the fixed space of G_W, so two
spaces with one stabilizer are one space.  So gW is a new member exactly
when its sorted stabilizer is new, and only then is its key moved: the
annihilator of gW is the annihilator of W times g^-1, so key(gW) is the
echelon form of the rows of key(W) times g^-1.  An orbit moves one key
per member, not one per member and generator.  A key reached with two
stabilizers, or a stabilizer with two keys, raises ``TheoremViolation``.
Integer arithmetic is one fixed lattice per orbit, W = Fix_Z(G_W) at the
orbit's first key, and one Hermite form per member.  The bases are
given in the coordinates of a pair (P, S) for the effective reduction
L / L^G, which ``obstruction`` reports: x P holds the reduced
coordinates of x, and the rows of S are preimages in L of the
quotient's basis, so S P = I (``obstruction._coordinates`` makes the
pair from the Smith transform that completes L^G).  A saturated W
contains L^G, and its image in L / L^G is saturated, with basis the
Hermite form of W P.  G acts there through x -> x S g^T P: S lifts a
reduced vector to L, g^T moves it, and P projects it back, which is
well defined because g fixes L^G.  So each other member's basis is the
Hermite form of B S g^T P, for B the basis of the member it was reached
from; g W stays saturated because g is unimodular.  The default pair
(I, I) keeps the bases in L.  Keys and stabilizers stay in L either
way.  Each integer basis is checked against its key's dimension, less
rank L^G, under a ``TheoremViolation`` guard.  Reporting in L / L^G
this way makes the Hermite form of each member once, where projecting
the bases of L afterwards made it twice: one ``analyze_orders``
benchmark pass at seed 1 makes 2,410 ``hnf_basis`` calls, one per
catalog member, against 4,618 (H. Cohen, *A Course in Computational
Algebraic Number Theory*, §2.4, for the Hermite form).  The sweep
(:func:`isotropy_orbits`) hands out each orbit's members as pairs
(sorted element indices, Hermite basis) and keeps only their keys and
stabilizers once the orbit is done.  The catalog lets the member with
the least basis represent the class; a caller that reports the fixed
lattices in yet other coordinates, the r-fold sum of ``copies``, passes
a ``lift`` for the bases, and the least lifted basis represents the
class instead.  The whole closure is explored, and the orbit index
lists every member.  References: Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, ch. 4.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cache
from itertools import product as iter_product
from operator import mul

from .errors import NotIsotropy, TheoremViolation
from .groups import (
    FiniteMatrixGroup,
    Subgroup,
    _breadth_first,
    _prime_divisors,
    element_order_histogram,
    is_perfect,
)
from .intlinalg import IntMatrix, common_fixed_lattice, hnf_basis, rref_mod


def fixed_lattice(h: Subgroup) -> IntMatrix:
    """Saturated Hermite basis of the common fixed lattice of h, from a
    generating set; the full element list is not needed."""
    G = h.parent
    return common_fixed_lattice([G.element(i) for i in h.generating_set()], G.lattice.rank)


# -- catalog construction ------------------------------------------------


@dataclass
class IsotropyClass:
    """One conjugacy class of isotropy groups, with its fixed space."""

    subgroup: Subgroup
    fixed_space: IntMatrix  # saturated Hermite basis of the fixed lattice

    @property
    def order(self) -> int:
        return self.subgroup.order

    @property
    def fixed_rank(self) -> int:
        return self.fixed_space.rows


@dataclass
class IsotropyCatalog:
    """Isotropy groups of a group action, one representative per
    conjugacy class, sorted by descending order."""

    group: FiniteMatrixGroup
    classes: tuple[IsotropyClass, ...]
    _orbit_index: dict[tuple[int, ...], IsotropyClass] = field(default_factory=dict)  # sorted members -> class

    def nontrivial_classes(self) -> list[IsotropyClass]:
        return [cl for cl in self.classes if cl.order > 1]


def enumerate_isotropy_groups(
    G: FiniteMatrixGroup,
    coordinates: tuple[IntMatrix, IntMatrix] | None = None,
    lift: Callable[[IntMatrix], IntMatrix] | None = None,
) -> IsotropyCatalog:
    """The catalog of G's isotropy groups, from one sweep of :func:`isotropy_orbits`.

    The fixed spaces are Hermite bases in the coordinates of the pair
    ``coordinates`` = (P, S) that :func:`isotropy_orbits` describes, each
    made by one Hermite form: of their images in L / L^G for the pair of
    the effective reduction, and in L for the default (I, I).  ``lift``,
    when given, maps each member's Hermite basis to the Hermite basis the
    catalog reports instead, as the fixed lattice of the same subgroup
    acting on another lattice (``obstruction.copies_verdict`` lifts to the
    r-fold sum).  The member with the least reported basis represents its
    class, and the classes are sorted by descending order, then by that
    basis.
    """
    classes: list[IsotropyClass] = []
    orbit_index: dict[tuple[int, ...], IsotropyClass] = {}
    for root, orbit in isotropy_orbits(G, coordinates):
        if lift is not None:
            orbit = [(members, lift(basis)) for members, basis in orbit]
        indices, basis = min(orbit, key=lambda member: member[1].entries)
        # the root's Subgroup already caches the generating set the condition rows reuse
        cl = IsotropyClass(root if indices is root.indices else Subgroup(G, indices), basis)
        classes.append(cl)
        for members, _ in orbit:
            if members in orbit_index:
                # two closure spaces cannot stabilize to the same group: the
                # fixed space of the stabilizer recovers the space
                raise TheoremViolation("meet-closure produced a duplicate stabilizer")
            orbit_index[members] = cl
    classes.sort(key=lambda cl: (-cl.order, cl.fixed_space.entries))
    return IsotropyCatalog(G, tuple(classes), orbit_index)


def isotropy_orbits(
    G: FiniteMatrixGroup, coordinates: tuple[IntMatrix, IntMatrix] | None = None
) -> Iterator[tuple[Subgroup, list[tuple[tuple[int, ...], IntMatrix]]]]:
    """Steps 1-3 of the module docstring: yields each conjugation orbit of
    isotropy groups as its root's stabilizer and the list of its members,
    each a pair (sorted element indices, saturated Hermite basis of the
    fixed lattice); the root comes first.

    ``coordinates`` is a pair (P, S) for the effective reduction L / L^G
    of G's lattice, f the rank of L^G: P is the n x (n - f) matrix for
    which x P holds the coordinates of x in L / L^G, and S the
    (n - f) x n matrix whose rows are preimages in L of the quotient's
    basis (``obstruction._coordinates``).  The bases are those of the
    fixed lattices' images in L / L^G: the root's is the Hermite form of
    its fixed lattice times P, and a generator g moves each member's by
    S g^T P.  The default is the identity pair, which keeps the bases in
    L.  Keys and stabilizers stay in L either way."""
    n = G.lattice.rank
    p = G.prime
    project, section = coordinates or (IntMatrix.identity(n),) * 2

    # 1. distinct cyclic fixed spaces by key, each with the elements whose key it
    # is, and the keys of elements of prime-power order, each with the first
    cyclic: dict[tuple, list[int]] = {}
    prime_power: dict[tuple, int] = {}
    for i in range(G.order):
        key = G.fixed_key(i)
        if not key and i != G.identity_index:
            # impossible when p does not divide |G|: the kernel of GL_n(Z) -> GL_n(F_p)
            # is torsion-free for odd p, and for p = 2 (|G| odd) holds only involutions
            raise TheoremViolation("a nonidentity element reduces to the identity mod p")
        cyclic.setdefault(key, []).append(i)
        if _is_prime_power(G.element_order(i)):
            prime_power.setdefault(key, i)

    conj_by = _conjugation_tables(G)
    # x S g^T P is the image under g of the reduced vector x: S lifts it to L, P projects back
    gens = [(G.element(G.inv(g)).transpose(), section * G.element(g).transpose() * project, conj_by[g])
            for g in G.generator_indices]

    # 3. the sweep of one orbit: one stabilizer and one fixed lattice.  g fixes W
    # exactly when g's key vanishes on the space key(W) annihilates; the image of
    # W under a generator g is keyed by key(W) g^-1, has the basis B S g^T P, and is
    # stabilized by the conjugate of W's stabilizer by g.  A space and its
    # stabilizer determine each other, so the conjugated stabilizer tells
    # whether the image is a new member.
    candidates = [(_pivot_mask(ck), ck, members) for ck, members in cyclic.items()]
    stabilizers: dict[tuple, tuple[int, ...]] = {}  # key -> sorted stabilizer
    spaces: dict[tuple[int, ...], tuple] = {}  # sorted stabilizer -> key

    def record(key: tuple, members: tuple[int, ...]) -> None:
        if stabilizers.setdefault(key, members) != members:
            raise TheoremViolation("a closure key reached with two stabilizers")
        if spaces.setdefault(members, key) != key:
            raise TheoremViolation("a stabilizer reached with two closure keys")

    def sweep(key: tuple) -> tuple[Subgroup, list[tuple[tuple[int, ...], IntMatrix]]]:
        pivots, fixed = _pivot_mask(key), _annihilated(key, n)
        # a contained row leads at a pivot of key(W); filtering on that first
        # measured 1.4-3x faster on sym7_u7 and alt7_u7 than testing every key
        root = Subgroup(G, [
            i for ck_pivots, ck, members in candidates
            if ck_pivots | pivots == pivots and not any(sum(map(mul, row, w)) % p for row in ck for w in fixed)
            for i in members
        ])
        record(key, root.indices)
        orbit = [(key, root.indices, _checked_basis(hnf_basis(fixed_lattice(root) * project), key, project.cols))]
        for space, indices, basis in orbit:
            for inv_t, t, conj in gens:
                members = tuple(sorted([conj[i] for i in indices]))
                if members not in spaces:
                    image = rref_mod((inv_t.apply(r) for r in space), p)
                    record(image, members)
                    orbit.append((image, members, _checked_basis(hnf_basis(basis * t), image, project.cols)))
        return root, [(indices, basis) for _, indices, basis in orbit]

    # 2. the whole lattice, then its meets with the prime-power keys, which are
    # the keys themselves; a key's stabilizer tells whether it is irreducible
    root, orbit = sweep(())
    yield root, orbit
    queue: list[tuple[tuple, Subgroup]] = []
    irreducible: set[tuple] = set()
    for key in prime_power:
        if key not in stabilizers:
            root, orbit = sweep(key)
            queue.append((key, root))
            yield root, orbit
            if not _spanned(key, dict.fromkeys(map(G.fixed_key, root.indices)), p):
                irreducible.update(spaces[indices] for indices, _ in orbit)

    # G permutes the irreducible keys by conjugation, x Fix(g) = Fix(x g x^-1):
    # one permutation per generator letter, read off the tables, composed
    # along the BFS tree, x = g_k y for k and y the letter and parent of x
    meetable = [(key, i) for key, i in prime_power.items() if key in irreducible]
    number = {key: b for b, (key, _) in enumerate(meetable)}
    by_letter = [[number[G.fixed_key(conj_by[row[0]][i])] for _, i in meetable] for row in G.left]
    perms = {G.identity_index: list(range(len(meetable)))}

    def perm(x: int) -> list[int]:
        path, y = [], x
        while y not in perms:
            path.append(y)
            y = G._parent[y]
        for y in reversed(path):
            letter = by_letter[G._letter[y]]
            perms[y] = [letter[b] for b in perms[G._parent[y]]]
        return perms[x]

    # c ∧ hb = h (c ∧ b) for h in G_c, so c meets one key per G_c-orbit, and
    # none of G_c's own, since then c ∧ b = c
    for ckey, stabilizer in queue:
        for b in _least_orbit_points([perm(x) for x in stabilizer.generating_set()], len(meetable)):
            bkey, i = meetable[b]
            if i not in stabilizer:
                meet = rref_mod(bkey, p, ckey)
                if meet not in stabilizers:
                    root, orbit = sweep(meet)
                    queue.append((meet, root))
                    yield root, orbit
    # every cyclic key is the meet of prime-power keys, so the sweep reached it
    if not stabilizers.keys() >= cyclic.keys():
        raise TheoremViolation("a cyclic fixed space was never swept")


def _conjugation_tables(G: FiniteMatrixGroup) -> dict[int, list[int]]:
    """x -> g x g^-1 for each generator g, as lists, so the orbit index
    shares their int objects.  One right-multiplication table per
    generator, right[x] = x g^-1, is filled along the BFS tree:
    right[identity] = g^-1, and x = g_k y gives right[x] = g_k right[y].
    Then g_k x g_k^-1 = right[g_k x], one lookup per entry."""
    left, parent, letter = G.left, G._parent, G._letter
    tables: dict[int, list[int]] = {}
    for row in left:
        if row[0] not in tables:
            right = [G.inv(row[0])] * G.order
            for x in range(1, G.order):
                right[x] = left[letter[x]][right[parent[x]]]
            tables[row[0]] = [right[y] for y in row]
    return tables


def _spanned(key: tuple[bytes, ...], others, p: int) -> bool:
    """Whether the reduced echelon forms ``others`` other than ``key``
    itself, all inside key's row space, span it."""
    span: tuple[bytes, ...] = ()
    for other in others:
        if other != key:
            span = rref_mod(other, p, span)
            if len(span) == len(key):
                return True
    return False


def _least_orbit_points(perms: list[list[int]], size: int) -> list[int]:
    """The least point of each orbit of the group the permutations of
    range(size) generate, each orbit walked by ``_breadth_first``; a point
    every permutation fixes is its own orbit, and needs no walk."""
    products = [s.__getitem__ for s in perms]
    reps: list[int] = []
    seen = bytearray(size)
    for b in range(size):
        if not seen[b]:
            reps.append(b)
            if any(s[b] != b for s in perms):
                for x in _breadth_first([b], products, _admit_any)[0]:
                    seen[x] = 1
    return reps


def _admit_any(y: int, j: int) -> None:
    """Admits every point of an orbit."""


@cache
def _is_prime_power(order: int) -> bool:
    """order has exactly one prime divisor."""
    return len(list(_prime_divisors(order))) == 1


def _annihilated(key: tuple[bytes, ...], n: int) -> list[list[int]]:
    """A basis of the space over F_p that the reduced echelon form ``key``
    annihilates: for each free column f, e_f minus column f of ``key``
    placed at the pivot columns."""
    at = {row.index(1): row for row in key}
    return [[-at[j][f] if j in at else int(j == f) for j in range(n)] for f in range(n) if f not in at]


def _pivot_mask(key: tuple[bytes, ...]) -> int:
    """Bitmask of the pivot columns of a reduced echelon form mod p."""
    return sum(1 << row.index(1) for row in key)


def _checked_basis(basis: IntMatrix, key: tuple, n: int) -> IntMatrix:
    """The saturated basis of a fixed lattice in coordinates of rank n, once
    its rank is seen to be the dimension of the fixed space over F_p that
    ``key`` annihilates, less the rank of L that the coordinates drop: n is
    rank L, or rank L - rank L^G in the coordinates of L / L^G."""
    if basis.rows != n - len(key):
        raise TheoremViolation("a fixed lattice's rank differs from its dimension mod p")
    return basis


# -- witnesses ------------------------------------------------------------


def _shell(s: int, k: int):
    """Tuples in [0, s]^k with maximum exactly s, in lexicographic order."""
    for c in iter_product(range(s + 1), repeat=k):
        if max(c, default=0) == s:
            yield c


def witness_vector(G: FiniteMatrixGroup, h: Subgroup, basis: IntMatrix | None = None) -> tuple[int, ...]:
    """Integer vector m with stabilizer exactly h, a subgroup of G.

    Scans integer combinations of the saturated Hermite basis of h's fixed
    lattice over coefficient boxes [0, s]^k of growing side s,
    lexicographically inside each shell.  ``basis`` is that basis when the
    caller holds it, as an isotropy class does in its ``fixed_space`` (a
    Hermite basis is canonical); otherwise it is computed from h.  A
    witness must only avoid at most |G| proper subspaces of the fixed
    space, and a box of side exceeding that count cannot be covered by
    them, so the scan terminates by side |G| at the latest.  Rejectors are
    tried by their moved ranks, likeliest fixers first; the order never
    changes which candidate wins.  When h is the whole group, nothing
    rejects a candidate, and the first one, 0, is the witness.

    The basis may have r n columns for n = rank L and any r >= 1: it then
    lies in the r-fold sum L^r, on which G acts through x -> diag(x, ..., x),
    and each element is applied block by block, so no matrix of rank r n
    is built.  Raises ``ValueError`` if h is not a subgroup of G itself or
    the basis width is not a multiple of n.
    """
    if h.parent is not G:
        raise ValueError("subgroup of another group")
    if basis is None:
        basis = fixed_lattice(h)
    n, k, width = G.lattice.rank, basis.rows, basis.cols
    if width % (n or 1) or bool(width) != bool(n):
        raise ValueError("basis width is not a multiple of the lattice rank")
    cuts = range(0, width, n or 1)
    rows = [basis.row(r) for r in range(k)]
    others = sorted((i for i in range(G.order) if i not in h), key=lambda i: (G.moved_rank(i), i))
    other_mats = [G.element(i) for i in others]
    # isotropy precondition: h must be the exact stabilizer of its fixed space
    for g in other_mats:
        if all(g.apply(row[a : a + n]) == row[a : a + n] for row in rows for a in cuts):
            raise NotIsotropy("subgroup is not the full stabilizer of its fixed lattice")
    for s in range(0, G.order + 1):
        for c in _shell(s, k):
            m = tuple(sum(c[r] * rows[r][j] for r in range(k)) for j in range(width))
            blocks = [m[a : a + n] for a in cuts]
            for g in other_mats:
                for b in blocks:
                    if g.apply(b) != b:
                        break
                else:
                    break  # g fixes every block of m
            else:
                return m
    raise TheoremViolation("witness scan exhausted its proven bound")


def minimal_nontrivial_isotropy(G: FiniteMatrixGroup) -> list[Subgroup]:
    """Minimal nontrivial isotropy classes, each verified to act
    fixed-point-freely on the quotient by its fixed lattice."""
    return [cl.subgroup for cl in _minimal_classes(enumerate_isotropy_groups(G))]


def _minimal_classes(catalog: IsotropyCatalog) -> list[IsotropyClass]:
    """Nontrivial classes with no nontrivial conjugate of another class
    inside them; the orbit index holds every conjugate of every class."""
    minimal: list[IsotropyClass] = []
    for cl in catalog.nontrivial_classes():
        members = frozenset(cl.subgroup.indices)
        if not any(1 < len(m) < len(members) and members.issuperset(m) for m in catalog._orbit_index):
            minimal.append(cl)
    for cl in minimal:
        _verify_quotient_fixed_point_free(catalog.group, cl)
    return minimal


def _verify_quotient_fixed_point_free(G: FiniteMatrixGroup, cl: IsotropyClass) -> None:
    n = G.lattice.rank
    if cl.fixed_rank == n:
        raise TheoremViolation("nontrivial isotropy group fixes the whole lattice")
    # g in H has finite order, so it fixes a vector of L / L^H exactly when it
    # fixes a preimage w: g w = w + u with u in L^H gives g^k w = w + k u, so
    # u = 0.  L^H is saturated and g fixes it, so g fixes more exactly when
    # rank Fix(g) > rank L^H.
    if any(G.moved_rank(i) < n - cl.fixed_rank for i in cl.subgroup.indices if i != G.identity_index):
        raise TheoremViolation(
            "minimal nontrivial isotropy group is not fixed-point-free on the quotient"
        )


# -- fixed-point-free recognition ------------------------------------------


def is_fixed_point_free(G: FiniteMatrixGroup) -> bool:
    """No nonidentity element fixes a nonzero vector: each moves the whole lattice."""
    n = G.lattice.rank
    return all(G.moved_rank(i) == n for i in range(G.order) if i != G.identity_index)


# element-order histogram of SL(2, F_5)
SL2_F5_ORDER_HISTOGRAM = {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}


def recognize_binary_icosahedral(h: Subgroup) -> bool:
    """Order 120, perfect, and the order histogram of SL(2, F_5)."""
    if h.order != 120:
        return False
    if element_order_histogram(h) != SL2_F5_ORDER_HISTOGRAM:
        return False
    return is_perfect(h)


@dataclass(frozen=True)
class FpfConstraintReport:
    """Outcome of the structural constraints on fixed-point-free actions."""

    perfect_fpf_applicable: bool
    binary_icosahedral: bool | None
    rank_multiple_of_8: bool | None
    minimal_perfect_applicable: bool
    min_moved_rank: int | None  # min over nontrivial isotropy classes


def check_fpf_constraints(G: FiniteMatrixGroup) -> FpfConstraintReport:
    """Verify the proved constraints; a failure raises TheoremViolation.

    If the group is nontrivial, perfect, and fixed-point-free, it must be
    the binary icosahedral group and the rank a multiple of 8.  If all
    minimal nontrivial isotropy groups are perfect, every nontrivial
    subgroup in the catalog must move a sublattice of rank at least 8.
    """
    full = Subgroup(G, range(G.order))
    n = G.lattice.rank

    fpf_case = G.order > 1 and is_fixed_point_free(G) and is_perfect(full)
    icosahedral = None
    rank_mult8 = None
    if fpf_case:
        icosahedral = recognize_binary_icosahedral(full)
        rank_mult8 = n % 8 == 0
        if not (icosahedral and rank_mult8):
            raise TheoremViolation(
                "perfect fixed-point-free action is not binary icosahedral on rank 8k"
            )

    catalog = enumerate_isotropy_groups(G)
    minimal = _minimal_classes(catalog)
    minimal_case = bool(minimal) and all(is_perfect(cl.subgroup) for cl in minimal)
    min_moved = None
    if minimal_case:
        min_moved = min(n - cl.fixed_rank for cl in catalog.nontrivial_classes())
        if min_moved < 8:
            raise TheoremViolation(
                "all minimal isotropy groups perfect, yet some subgroup moves rank < 8"
            )
    return FpfConstraintReport(fpf_case, icosahedral, rank_mult8, minimal_case, min_moved)
