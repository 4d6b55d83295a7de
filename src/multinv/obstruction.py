"""Decision procedure for the Cohen-Macaulay obstruction.

Two necessary conditions for the integral multiplicative invariant ring of
a nontrivial action to be Cohen-Macaulay:

  A. every isotropy group, modulo the subgroup its bireflections generate,
     is perfect;
  B. some isotropy group is non-perfect.

If either fails the verdict is Obstructed: the invariant ring over the
integers is provably not Cohen-Macaulay, and the same follows over every
Cohen-Macaulay base ring.  If both hold the verdict is Inconclusive; the
conditions are necessary, never sufficient.  Two special cases are decided
outright: a trivial action (invariants are the whole Laurent algebra) and
an input lattice of rank at most 2 (normal rings of Krull dimension at
most 2 are always Cohen-Macaulay).

Both conditions are invariant under passing to the effective lattice
L / L^G: the isotropy groups and all moved ranks are unchanged, and the
report records the reduction.

analyze is the one-copy case of the r-fold direct sum L^r that
:func:`copies_verdict` decides.  The sum is never closed, swept or keyed
at rank r n: everything in its report but the witness is a lift of the
base's.  The map x -> diag(x, ..., x) is faithful and sends the
generators of L to those of L^r, so both groups have one Cayley graph:
closing L gives the same BFS order and table, stops at the cap at the
same element, and meets the first two elements that agree mod 3 at the
same step (two elements agree mod 3 exactly when their diagonal images
do), and so the first element whose trace exceeds the rank (the trace
of diag(x, ..., x) is r tr x).  Three facts carry the rest over.

1. For H <= G, Fix_{L^r}(H) = Fix_L(H)^r, and L and L^r have the same
   isotropy groups.  The stabilizer of (m_1, ..., m_r) is the pointwise
   stabilizer of their span W, which is the stabilizer of one vector of
   W: a generic vector avoids the finitely many proper sublattices
   W ∩ Fix(g).  Conversely G_m = G_{(m, 0, ..., 0)}.  So the base's
   catalog, its orbits and its conjugacy classes are the sum's, and each
   fixed lattice of the sum is the block copy of the base's.
2. (L^r)^G = (L^G)^r, so the effective reduction of the sum is the sum
   of the reductions.  In coordinates, let W ⊇ (L^r)^G be a saturated
   fixed lattice Fix(H).  Its image in L^r / (L^r)^G is saturated: if
   k y lies in W + (L^r)^G = W, so does y.  Taking H-invariants is exact
   over Q (Maschke), so the quotient's fixed lattice of H has rank
   rank W - rank (L^r)^G, the image's rank; a saturated sublattice of the
   same rank is all of it.  Hence the sum's reduced fixed lattice of H is
   the Hermite form of the last r n - rank (L^r)^G columns of B v, for B
   a basis of W and v the Smith transform that completes (L^r)^G
   (``intlinalg.quotient_transform``).  That fixed part is the block
   copy of L^G's, so it needs no kernel at rank r n.
3. g is a bireflection of the sum exactly when r rank(g - I) <= 2; for
   r >= 3 only the identity is.

The condition rows read subgroups on the base's Cayley table, so their
commutator subgroups, cosets and abelian invariants are the base's.  Only
the witness scan runs at rank r n: a vector (m_1, ..., m_r) can have
stabilizer H although no m_i does, so the sum's witness is not a lift.
Its group is built on the base's table, and only once a class other than
the whole group fails condition A: the whole group's witness is 0, which
no element rejects.  With r = 1 and L^G = 0 it is the base's group
itself.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from .errors import GeneratorMismatch, TheoremViolation
from .groups import (
    DEFAULT_CAP,
    FiniteMatrixGroup,
    GLattice,
    abelian_invariants,
    block_diagonal,
    close,
    commutator_subgroup,
    coset_orders,
    induced_group,
)
from .intlinalg import IntMatrix, common_fixed_lattice, hnf_basis, induced_on_quotient, quotient_transform
from .isotropy import IsotropyCatalog, IsotropyClass, enumerate_isotropy_groups, witness_vector
from .reflections import bireflection_subgroup


OBSTRUCTED = "Obstructed"
INCONCLUSIVE = "Inconclusive"
TRIVIALLY_CM = "TriviallyCM"

_STATEMENTS = {
    OBSTRUCTED: (
        "a necessary condition fails: the integral multiplicative invariant ring "
        "is not Cohen-Macaulay, hence neither is the invariant ring over any "
        "Cohen-Macaulay base ring"
    ),
    INCONCLUSIVE: (
        "the necessary conditions hold; they are not sufficient, so "
        "Cohen-Macaulay status is not decided"
    ),
    TRIVIALLY_CM: (
        "the invariant ring is Cohen-Macaulay over every Cohen-Macaulay base: "
        "trivial actions give the full Laurent algebra, and normal rings of "
        "Krull dimension at most 2 are always Cohen-Macaulay"
    ),
}


@dataclass(frozen=True)
class ReductionInfo:
    original_rank: int
    fixed_rank: int
    effective_rank: int
    trivial_action: bool
    rank_at_most_2: bool


@dataclass(frozen=True)
class IsotropyConditionRow:
    """Condition data for one conjugacy class of isotropy groups."""

    order: int
    moved_rank: int
    bireflection_order: int
    abelianization: tuple[int, ...]
    bireflection_image: tuple[int, ...]  # image of M(H) in the abelianization
    perfect: bool
    perfect_mod_bireflections: bool
    generated_by_bireflections: bool
    witness: tuple[int, ...] | None  # filled for condition-A failures


@dataclass(frozen=True)
class ObstructionReport:
    description: str
    original_rank: int
    group_order: int
    reduction: ReductionInfo
    classes: tuple[IsotropyConditionRow, ...]
    condition_a: bool
    condition_b: bool
    verdict: str

    @property
    def statement(self) -> str:
        return _STATEMENTS[self.verdict]


def effective_reduction(lat: GLattice) -> GLattice:
    """The induced action on L / L^G; unchanged when already effective.

    Generators that induce the identity are kept (dropping them would
    change the declared generator pairing); the closed group is the same
    either way because the induced action of the closure is faithful.  A
    trivial action reduces to rank 0, with 0x0 generators.
    """
    fixed = common_fixed_lattice(lat.generators, lat.rank)
    if fixed.rows == 0:
        return lat
    if fixed.rows == lat.rank:
        induced = [IntMatrix.zeros(0, 0)] * len(lat.generators)
    else:
        induced = induced_on_quotient(fixed, list(lat.generators))
    return GLattice(lat.rank - fixed.rows, induced, lat.name + "/effective")


def direct_sum_copies(lat: GLattice, r: int) -> GLattice:
    """Block-diagonal action on r copies of the lattice."""
    if r < 1:
        raise ValueError("copy count must be at least 1")
    if r == 1:
        return lat
    return GLattice(lat.rank * r, [block_diagonal([g] * r) for g in lat.generators], _sum_name(lat, r))


def _sum_name(lat: GLattice, r: int) -> str:
    if r == 1:
        return lat.name
    return f"{lat.name}^{r}" if lat.name else f"sum^{r}"


def rationally_isomorphic(l1: GLattice, l2: GLattice, cap: int = DEFAULT_CAP) -> bool:
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
    firsts = {m.entries[: n1 * n] for m in pairs.elements}
    seconds = {m.entries[n1 * n :] for m in pairs.elements}
    if len(firsts) != pairs.order or len(seconds) != pairs.order:
        raise GeneratorMismatch(
            "paired generator words close to groups of different orders"
        )
    return all(
        sum(m.entry(i, i) for i in range(n1)) == sum(m.entry(i, i) for i in range(n1, n))
        for m in pairs.elements
    )


def _condition_row(cl: IsotropyClass, effective_rank: int, copies: int) -> IsotropyConditionRow:
    """The row of one class, without its witness; the class's group acts
    on ``copies`` copies of its lattice, whose effective reduction has
    ``effective_rank`` and holds the class's fixed space."""
    subgroup = cl.subgroup
    m = bireflection_subgroup(subgroup, copies)
    k = commutator_subgroup(subgroup)
    orders, coset_of = coset_orders(subgroup, k)
    # the image of M in H / K is a subgroup; H = M K exactly when it is all of H / K
    image = {coset_of[i] for i in m.indices}
    perfect_mod = len(image) == len(orders)
    return IsotropyConditionRow(
        order=subgroup.order,
        moved_rank=effective_rank - cl.fixed_rank,
        bireflection_order=m.order,
        abelianization=abelian_invariants(orders),
        bireflection_image=abelian_invariants(orders[c] for c in image),
        perfect=k.order == subgroup.order,
        perfect_mod_bireflections=perfect_mod,
        generated_by_bireflections=m.order == subgroup.order,
        witness=None,
    )


def check_necessary_conditions(lat: GLattice, cap: int = DEFAULT_CAP) -> ObstructionReport:
    """Run the full pipeline and emit the three-valued verdict: the
    one-copy case of :func:`copies_verdict`.

    Obstructed claims only the stated implication (the invariant ring is
    not Cohen-Macaulay); the converse is never claimed, which is why the
    conditions holding yields Inconclusive rather than a positive answer.
    """
    return copies_verdict(lat, 1, cap)


def _decide(name: str, rank: int, fixed_rank: int, catalog: IsotropyCatalog, copies: int,
            witness_group: Callable[[], FiniteMatrixGroup]) -> ObstructionReport:
    """Condition rows and verdict for a lattice of ``rank`` with a fixed
    part of ``fixed_rank``, on which the catalog's group acts through
    ``copies`` copies of its own lattice.  The catalog's fixed spaces are
    in the coordinates of the effective reduction, and ``witness_group()``
    is the group acting there on the catalog group's table, asked for only
    when a class other than the whole group fails condition A.
    """
    effective_rank = rank - fixed_rank
    trivial_action = effective_rank == 0
    rank_le2 = rank <= 2
    rows = [_condition_row(cl, effective_rank, copies) for cl in catalog.classes]
    for at, row in enumerate(rows):
        if not row.perfect_mod_bireflections:
            # cite only the first failing class
            cl = catalog.classes[at]
            rows[at] = replace(row, witness=witness_vector(witness_group, cl.subgroup, cl.fixed_space))
            break
    rows = tuple(rows)
    condition_a = all(r.perfect_mod_bireflections for r in rows)
    condition_b = trivial_action or any(not r.perfect for r in rows)
    if trivial_action or rank_le2:
        verdict = TRIVIALLY_CM
    elif not condition_a or not condition_b:
        verdict = OBSTRUCTED
    else:
        verdict = INCONCLUSIVE
    return ObstructionReport(
        description=name or f"rank-{rank} lattice",
        original_rank=rank,
        group_order=catalog.group.order,
        reduction=ReductionInfo(rank, fixed_rank, effective_rank, trivial_action, rank_le2),
        classes=rows,
        condition_a=condition_a,
        condition_b=condition_b,
        verdict=verdict,
    )


def copies_verdict(lat: GLattice, r: int, cap: int = DEFAULT_CAP) -> ObstructionReport:
    """Verdict for the r-fold direct sum, with the proved guarantee that
    three or more copies of a nontrivial action are always obstructed.

    Only the base lattice is closed, and its catalog is swept at its own
    rank n (module docstring).  The sum's group has the base's Cayley
    graph, and L and L^r have the same isotropy groups, with
    Fix_{L^r}(H) = Fix_L(H)^r.  Each member's fixed lattice is lifted to
    the sum's reduced coordinates: the block copy of its basis when
    L^G = 0, otherwise the Hermite form of the last columns of that copy
    times the Smith transform of (L^r)^G = (L^G)^r, which is exact because
    a saturated fixed lattice containing the fixed part maps onto the
    quotient's fixed lattice.  The least lifted basis represents each
    class.  The rows run on the base's subgroups, and the sum's
    bireflections are the elements with r rank(g - I) <= 2.  The sum's
    element matrices are built only for a witness scan that has an element
    to reject, and never when the sum is the input itself (r = 1 and
    L^G = 0).
    """
    if r < 1:
        raise ValueError("copy count must be at least 1")
    G = close(lat, cap)
    n = lat.rank
    fixed = block_diagonal([common_fixed_lattice(lat.generators, n)] * r)  # (L^r)^G = (L^G)^r
    lift = None if r == 1 and not fixed.rows else _lift_to_copies(fixed, r)

    def sum_group() -> FiniteMatrixGroup:
        if lift is None:
            return G  # the sum is the input itself
        gens = [block_diagonal([g] * r) for g in lat.generators]
        if fixed.rows:
            gens = induced_on_quotient(fixed, gens)
        return induced_group(G, GLattice(r * n - fixed.rows, gens, _sum_name(lat, r)))

    catalog = enumerate_isotropy_groups(G, lift)
    report = _decide(_sum_name(lat, r), r * n, fixed.rows, catalog, r, sum_group)
    if r >= 3 and not report.reduction.trivial_action and report.verdict != OBSTRUCTED:
        raise TheoremViolation(
            f"{r} copies of a nontrivial action must be obstructed, got {report.verdict}"
        )
    return report


def _lift_to_copies(fixed: IntMatrix, r: int) -> Callable[[IntMatrix], IntMatrix]:
    """The map from the Hermite basis B of a base fixed lattice to the
    Hermite basis of the same subgroup's fixed lattice on the r-fold sum,
    in the coordinates of the sum's effective reduction; ``fixed`` is the
    basis of the sum's fixed part."""
    if not fixed.rows:
        return lambda basis: block_diagonal([basis] * r)  # already in Hermite form
    if fixed.rows == fixed.cols:
        return lambda basis: IntMatrix(0, 0, ())  # a trivial action reduces to rank 0
    total, f = fixed.cols, fixed.rows
    n = total // r
    v = quotient_transform(fixed)
    # diag(B, ..., B) v stacks the products B v_i, for v_i the i-th block of n rows
    blocks = [
        IntMatrix(n, total - f, [v.entry(i * n + a, j) for a in range(n) for j in range(f, total)])
        for i in range(r)
    ]

    def lift(basis: IntMatrix) -> IntMatrix:
        lifted = hnf_basis(IntMatrix.vstack([basis * w for w in blocks], cols=total - f))
        if lifted.rows != r * basis.rows - f:
            raise TheoremViolation("a lifted fixed lattice's rank differs from its copies' less the fixed part")
        return lifted

    return lift
