"""Fixed lattices, isotropy groups, and the fixed-point-free constraints.

The catalog of isotropy groups is built without scanning lattice vectors:

1. Collect the fixed space of every single element (a saturated kernel).
2. Close that family under intersection.  Every fixed lattice of every
   isotropy group is such an intersection, and conversely the pointwise
   stabilizer of any space in the closure is an isotropy group, so the
   closure is exactly the family of isotropy fixed spaces.
3. For each space take the pointwise stabilizer, the meet of its basis
   vectors' stabilizers (each read off the vector's orbit by
   ``FiniteMatrixGroup.stabilizer_mask``), and deduplicate up to
   conjugacy.

Step 2 adds the cyclic spaces one at a time, largest rank first.  The
meet closure of a closed family C and one more space b is C together with
every c ∧ b for c in C, so each space not yet in the closure is met once
with every space closed so far, and a space already there costs nothing.
Rational spans are identified with their saturated integer lattices
throughout, so every rank statement is a statement about saturated
kernels.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import product as iter_product

from .errors import NotIsotropy, TheoremViolation
from .groups import (
    FiniteMatrixGroup,
    Subgroup,
    are_conjugate_subgroups,
    element_order_histogram,
    has_conjugate_inside,
    is_perfect,
)
from .intlinalg import IntMatrix, common_fixed_lattice, induced_on_quotient, kernel_lattice


def fixed_lattice(h: Subgroup) -> IntMatrix:
    """Saturated Hermite basis of the common fixed lattice of h, from a
    generating set; the full element list is not needed."""
    G = h.parent
    return common_fixed_lattice([G.element(i) for i in h.generating_set()], G.lattice.rank)


def isotropy_group_of(G: FiniteMatrixGroup, m) -> Subgroup:
    """Exact pointwise stabilizer of the lattice vector m.

    Applies every element's matrix on purpose: this is the brute-force
    reference for ``FiniteMatrixGroup.stabilizer_mask``, the orbit scan the
    catalog uses, and shares no code with it.
    """
    m = tuple(m)
    return Subgroup(G, (i for i in range(G.order) if G.element(i).apply(m) == m))


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
    _orbit_index: dict[int, int] = field(default_factory=dict)  # member mask -> class

    def class_for(self, h: Subgroup) -> IsotropyClass:
        mask = 0
        for i in h.indices:
            mask |= 1 << i
        if mask in self._orbit_index:
            return self.classes[self._orbit_index[mask]]
        for cl in self.classes:
            if cl.order == h.order and are_conjugate_subgroups(self.group, h, cl.subgroup):
                return cl
        raise KeyError("subgroup is not conjugate to any catalog class")

    def nontrivial_classes(self) -> list[IsotropyClass]:
        return [cl for cl in self.classes if cl.order > 1]


def _space_key(basis: IntMatrix) -> tuple:
    return (basis.rows, basis.entries)


def _intersect_spaces(comp_a: IntMatrix, comp_b: IntMatrix, n: int) -> IntMatrix:
    """Intersection of two saturated spaces given by complement bases.

    A saturated space W equals the kernel of its complement basis, so the
    meet is the kernel of the stacked complements.
    """
    return kernel_lattice(IntMatrix.vstack([comp_a, comp_b], cols=n))


def enumerate_isotropy_groups(G: FiniteMatrixGroup) -> IsotropyCatalog:
    n = G.lattice.rank
    full_mask = (1 << G.order) - 1

    # 1. distinct cyclic fixed spaces
    initial: dict[tuple, IntMatrix] = {}
    for i in range(G.order):
        b = G.cyclic_fixed_space(i)
        initial.setdefault(_space_key(b), b)
    bases = sorted(initial.values(), key=lambda b: (-b.rows, b.entries))

    # 2. meet closure, one cyclic space at a time
    closure: dict[tuple, tuple[IntMatrix, IntMatrix]] = {}  # key -> (basis, complement)
    for b in bases:
        key = _space_key(b)
        if key in closure:
            continue
        comp_b = kernel_lattice(b)
        meets = [_intersect_spaces(comp, comp_b, n) for _basis, comp in closure.values()]
        closure[key] = (b, comp_b)
        for basis in meets:
            key = _space_key(basis)
            if key not in closure:
                closure[key] = (basis, kernel_lattice(basis))

    # 3. pointwise stabilizers via cached per-vector stabilizer bitmasks
    stab_cache: dict[tuple[int, ...], int] = {}

    def stab_mask(vec: tuple[int, ...]) -> int:
        m = stab_cache.get(vec)
        if m is None:
            m = stab_cache[vec] = G.stabilizer_mask(vec)
        return m

    subgroups: dict[int, IntMatrix] = {}
    for basis, _comp in closure.values():
        mask = full_mask
        for r in range(basis.rows):
            mask &= stab_mask(basis.row(r))
            if mask == 1 << G.identity_index:
                break
        if mask in subgroups:
            # two closure spaces cannot stabilize to the same group: the
            # fixed space of the stabilizer recovers the space
            raise TheoremViolation("meet-closure produced a duplicate stabilizer")
        subgroups[mask] = basis

    # 4. conjugacy classes: when a new class appears, sweep out its whole
    # conjugation orbit by generator BFS on bitmasks; later subgroups
    # dedupe by a single dictionary lookup
    items = sorted(
        ((mask.bit_count(), mask, basis) for mask, basis in subgroups.items()),
        key=lambda t: (-t[0], t[2].entries),
    )
    # conjugation by each generator, tabulated once as a permutation
    conj_by = [array("i", [G.conj(g, i) for i in range(G.order)]) for g in G.generator_indices]
    classes: list[IsotropyClass] = []
    orbit_index: dict[int, int] = {}
    for order_, mask, basis in items:
        if mask in orbit_index:
            continue
        indices = tuple(i for i in range(G.order) if mask >> i & 1)
        h = Subgroup(G, indices)
        ci = len(classes)
        classes.append(IsotropyClass(h, basis))
        orbit_index[mask] = ci
        queue = deque([indices])
        while queue:
            cur = queue.popleft()
            for perm in conj_by:
                conj_indices = tuple(sorted(perm[i] for i in cur))
                m = 0
                for i in conj_indices:
                    m |= 1 << i
                if m not in orbit_index:
                    # the closure is conjugation-invariant, and so is the
                    # family of its stabilizers
                    if m not in subgroups:
                        raise TheoremViolation("a conjugate of an isotropy group is not one")
                    orbit_index[m] = ci
                    queue.append(conj_indices)

    return IsotropyCatalog(G, tuple(classes), orbit_index)


# -- witnesses ------------------------------------------------------------


def _shell(s: int, k: int):
    """Tuples in [0, s]^k with maximum exactly s, in lexicographic order."""
    if k == 0:
        if s == 0:
            yield ()
        return
    for c in iter_product(range(s + 1), repeat=k):
        if max(c) == s:
            yield c


def witness_vector(G: FiniteMatrixGroup, h: Subgroup) -> tuple[int, ...]:
    """Integer vector m with stabilizer exactly h."""
    return _witness_scan(G, h, fixed_lattice(h))


def _witness_scan(G: FiniteMatrixGroup, h: Subgroup, basis: IntMatrix) -> tuple[int, ...]:
    """Witness for h, given the saturated basis of its fixed lattice.

    Scans integer combinations of the basis over coefficient boxes
    [0, s]^k of growing side s, lexicographically inside each shell.
    A witness must only avoid at most |G| proper subspaces of the fixed
    space, and a box of side exceeding that count cannot be covered by
    them, so the scan terminates by side |G| at the latest.
    """
    k = basis.rows
    # candidate rejectors, likeliest fixers first
    others = sorted(
        (i for i in range(G.order) if i not in h),
        key=lambda i: (G.moved_rank(i), i),
    )
    if not others and k == 0:
        # h is the whole group with zero fixed space
        return (0,) * G.lattice.rank
    other_mats = [G.element(i) for i in others]
    # isotropy precondition: h must be the exact stabilizer of its fixed space
    for g in other_mats:
        if all(g.apply(basis.row(r)) == basis.row(r) for r in range(k)):
            raise NotIsotropy("subgroup is not the full stabilizer of its fixed lattice")
    rows = [basis.row(r) for r in range(k)]
    n = G.lattice.rank
    for s in range(0, G.order + 1):
        for c in _shell(s, k):
            m = tuple(sum(c[r] * rows[r][j] for r in range(k)) for j in range(n))
            if all(g.apply(m) != m for g in other_mats):
                return m
    raise TheoremViolation("witness scan exhausted its proven bound")


def minimal_nontrivial_isotropy(G: FiniteMatrixGroup) -> list[Subgroup]:
    """Minimal nontrivial isotropy classes, each verified to act
    fixed-point-freely on the quotient by its fixed lattice."""
    return [cl.subgroup for cl in _minimal_classes(enumerate_isotropy_groups(G))]


def _minimal_classes(catalog: IsotropyCatalog) -> list[IsotropyClass]:
    G = catalog.group
    nontrivial = catalog.nontrivial_classes()
    minimal: list[IsotropyClass] = []
    for cl in nontrivial:
        if any(
            other is not cl
            and other.order < cl.order
            and has_conjugate_inside(G, other.subgroup, cl.subgroup)
            for other in nontrivial
        ):
            continue
        minimal.append(cl)
    for cl in minimal:
        _verify_quotient_fixed_point_free(G, cl)
    return minimal


def _verify_quotient_fixed_point_free(G: FiniteMatrixGroup, cl: IsotropyClass) -> None:
    n = G.lattice.rank
    if cl.fixed_rank == n:
        raise TheoremViolation("nontrivial isotropy group fixes the whole lattice")
    mats = [G.element(i) for i in cl.subgroup.indices if i != G.identity_index]
    induced = induced_on_quotient(cl.fixed_space, mats)
    ident = IntMatrix.identity(n - cl.fixed_rank)
    for q in induced:
        if q == ident or (q - ident).det() == 0:
            raise TheoremViolation(
                "minimal nontrivial isotropy group is not fixed-point-free on the quotient"
            )


# -- fixed-point-free recognition ------------------------------------------


def is_fixed_point_free(G: FiniteMatrixGroup) -> bool:
    """No nonidentity element fixes a nonzero vector: det(g - I) != 0."""
    n = G.lattice.rank
    ident = IntMatrix.identity(n)
    return all(
        (G.element(i) - ident).det() != 0
        for i in range(G.order)
        if i != G.identity_index
    )


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
