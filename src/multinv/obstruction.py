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
L / L^G: the isotropy groups and all moved ranks are unchanged, so the
pipeline analyzes the reduced action and records the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GeneratorMismatch, TheoremViolation
from .groups import (
    DEFAULT_CAP,
    FiniteMatrixGroup,
    GLattice,
    abelian_invariants,
    close,
    commutator_subgroup,
    coset_orders,
    induced_group,
)
from .intlinalg import IntMatrix, common_fixed_lattice, induced_on_quotient
from .isotropy import IsotropyClass, enumerate_isotropy_groups, witness_vector
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
    gens = [_block_diagonal([g] * r) for g in lat.generators]
    return GLattice(lat.rank * r, gens, f"{lat.name}^{r}" if lat.name else f"sum^{r}")


def _block_diagonal(blocks: list[IntMatrix]) -> IntMatrix:
    """Square blocks placed along the diagonal."""
    n = sum(b.rows for b in blocks)
    big = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i in range(b.rows):
            big[offset + i][offset : offset + b.rows] = b.row(i)
        offset += b.rows
    return IntMatrix.from_rows(big, n)


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
    pairs = close(GLattice(n, [_block_diagonal([a, b]) for a, b in zip(l1.generators, l2.generators)]), cap)
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


def _condition_row(G: FiniteMatrixGroup, cl: IsotropyClass, need_witness: bool) -> IsotropyConditionRow:
    subgroup = cl.subgroup
    m = bireflection_subgroup(subgroup)
    k = commutator_subgroup(subgroup)
    orders, coset_of = coset_orders(subgroup, k)
    # the image of M in H / K is a subgroup; H = M K exactly when it is all of H / K
    image = {coset_of[i] for i in m.indices}
    perfect_mod = len(image) == len(orders)
    witness = None
    if need_witness and not perfect_mod:
        witness = witness_vector(G, subgroup)
    return IsotropyConditionRow(
        order=subgroup.order,
        moved_rank=G.lattice.rank - cl.fixed_rank,
        bireflection_order=m.order,
        abelianization=abelian_invariants(orders),
        bireflection_image=abelian_invariants(orders[c] for c in image),
        perfect=k.order == subgroup.order,
        perfect_mod_bireflections=perfect_mod,
        generated_by_bireflections=m.order == subgroup.order,
        witness=witness,
    )


def check_necessary_conditions(lat: GLattice, cap: int = DEFAULT_CAP) -> ObstructionReport:
    """Run the full pipeline and emit the three-valued verdict.

    Obstructed claims only the stated implication (the invariant ring is
    not Cohen-Macaulay); the converse is never claimed, which is why the
    conditions holding yields Inconclusive rather than a positive answer.
    """
    # close the input before reducing: an infinite group must surface as
    # CapExceeded, and reduction can quotient away infinite unipotent parts
    G = close(lat, cap)
    reduced = effective_reduction(lat)
    fixed_rank = lat.rank - reduced.rank
    trivial_action = reduced.rank == 0
    rank_le2 = lat.rank <= 2
    if reduced is not lat:
        G = induced_group(G, reduced)  # rebinding frees the original group before the catalog
    catalog = enumerate_isotropy_groups(G)
    rows = []
    witness_pending = True
    for cl in catalog.classes:
        row = _condition_row(G, cl, need_witness=witness_pending)
        if not row.perfect_mod_bireflections:
            witness_pending = False  # cite only the first failing class
        rows.append(row)
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
        description=lat.name or f"rank-{lat.rank} lattice",
        original_rank=lat.rank,
        group_order=G.order,
        reduction=ReductionInfo(lat.rank, fixed_rank, reduced.rank, trivial_action, rank_le2),
        classes=rows,
        condition_a=condition_a,
        condition_b=condition_b,
        verdict=verdict,
    )


def copies_verdict(lat: GLattice, r: int, cap: int = DEFAULT_CAP) -> ObstructionReport:
    """Verdict for the r-fold direct sum, with the proved guarantee that
    three or more copies of a nontrivial action are always obstructed."""
    report = check_necessary_conditions(direct_sum_copies(lat, r), cap)
    if r >= 3 and not report.reduction.trivial_action and report.verdict != OBSTRUCTED:
        raise TheoremViolation(
            f"{r} copies of a nontrivial action must be obstructed, got {report.verdict}"
        )
    return report
