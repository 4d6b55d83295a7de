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
at rank r n: everything in its report but the witness is read off the
base's catalog.  The map x -> diag(x, ..., x) is faithful and sends the
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
   the Hermite form of B P, for B a basis of W and P the last
   r n - rank (L^r)^G columns of the Smith transform v that completes
   (L^r)^G (``intlinalg.quotient_transform``): x P holds the reduced
   coordinates of x.  That fixed part is the block copy of L^G's, so it
   needs no kernel at rank r n.  With L^G = 0, v is the identity and
   B P is diag(B, ..., B), already in Hermite form.  The base's catalog
   is swept in the coordinates of L / L^G (``isotropy`` module
   docstring), so at r = 1 its bases are the report's, with no second
   Hermite form.  For r >= 2 a reduced basis B' has the preimages B' S_L
   in L, for S_L the rows of the base's v^-1 past rank L^G, and P kills
   (L^G)^r, so the sum's basis is the Hermite form of the stacked
   B' (S_L p_i), for p_i the i-th block of n rows of P; each S_L p_i is
   made once.
3. g is a bireflection of the sum exactly when r rank(g - I) <= 2; for
   r >= 3 only the identity is.

The condition rows read subgroups on the base's Cayley table, so their
commutator subgroups, cosets and abelian invariants are the base's.  Only
the witness scan runs at rank r n: a vector (m_1, ..., m_r) can have
stabilizer H although no m_i does, so the sum's witness is not a lift.
It is scanned in L^r with the base's matrices, one block of n
coordinates at a time, and no group on the sum is built.  An element g
fixes a vector of L^r / (L^r)^G exactly when it fixes a preimage w: if
g w = w + u with u in (L^r)^G, then g^k w = w + k u, and g has finite
order, so u = 0.  So the scan runs over B S, for B the class's reduced
basis and S the rows of v^-1 past the fixed part, which give a preimage
of each reduced vector; ``snf`` builds v^-1 with v, so nothing is
inverted here.  c B S and c B have one stabilizer, the coefficients c
come in the same order, and the reported witness is c B = (c B S) P.
With L^G = 0, S and P are identities and the scan runs on B itself.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from .errors import TheoremViolation
from .groups import (
    DEFAULT_CAP,
    GLattice,
    abelian_invariants,
    block_diagonal,
    close,
    commutator_subgroup,
    coset_orders,
)
from .intlinalg import IntMatrix, common_fixed_lattice, hnf_basis, quotient_transform
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

    The saturated basis of L^G is completed to a unimodular basis of L by
    its Smith transform, which :func:`intlinalg.quotient_transform` returns
    with its inverse.  In the completed coordinates each generator is
    block upper triangular with an identity block on L^G, and the
    lower-right block is the induced action.  Generators that induce the
    identity are kept (dropping them would change the declared generator
    pairing); the closed group is the same either way because the induced
    action of the closure is faithful.  A trivial action reduces to rank
    0, with 0x0 generators.
    """
    n = lat.rank
    fixed = common_fixed_lattice(lat.generators, n)
    k = fixed.rows
    if not k:
        return lat
    v, v_inv = quotient_transform(fixed)
    pt = v_inv.transpose()  # columns 0..k-1 span L^G
    vt = v.transpose()  # the inverse of pt
    q = n - k
    induced = []
    for g in lat.generators:
        gt = vt * g * pt
        if any(gt.entry(i, j) != (i == j) for i in range(n) for j in range(k)):
            raise TheoremViolation("a generator does not fix L^G pointwise")
        induced.append(IntMatrix(q, q, (gt.entry(k + i, k + j) for i in range(q) for j in range(q))))
    return GLattice(q, induced, lat.name + "/effective")


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
            witness: Callable[[IsotropyClass], tuple[int, ...]]) -> ObstructionReport:
    """Condition rows and verdict for a lattice of ``rank`` with a fixed
    part of ``fixed_rank``, on which the catalog's group acts through
    ``copies`` copies of its own lattice.  The catalog's fixed spaces are
    in the coordinates of the effective reduction, and ``witness`` gives
    a vector there whose stabilizer is a class's group; it is asked only
    for the first class that fails condition A.
    """
    effective_rank = rank - fixed_rank
    trivial_action = effective_rank == 0
    rank_le2 = rank <= 2
    rows = [_condition_row(cl, effective_rank, copies) for cl in catalog.classes]
    for at, row in enumerate(rows):
        if not row.perfect_mod_bireflections:
            # cite only the first failing class
            rows[at] = replace(row, witness=witness(catalog.classes[at]))
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
    rank n, with its bases in the coordinates of L / L^G, moved by the
    generators that :func:`effective_reduction` induces (module
    docstring).  The sum's group has the base's Cayley graph, and L and
    L^r have the same isotropy groups, with Fix_{L^r}(H) = Fix_L(H)^r.
    At r = 1 the catalog's bases are the report's.  For r >= 2 each
    member's basis is lifted to the sum's reduced coordinates: the
    Hermite form of the block copy of its preimage in L times the last
    columns of the Smith transform of (L^r)^G = (L^G)^r, which is exact
    because a saturated fixed lattice containing the fixed part maps onto
    the quotient's fixed lattice.  The least lifted basis represents each
    class.  The rows run on the base's subgroups, and the sum's
    bireflections are the elements with r rank(g - I) <= 2.  The witness
    of the first class failing condition A is scanned over preimages in
    L^r of its reduced basis, with the base's matrices block by block: an
    element fixes a vector of the quotient exactly when it fixes a
    preimage, since it has finite order.  The rows of the transform's
    inverse past the fixed part give the preimages, and the transform's
    last columns carry the witness back to reduced coordinates.
    """
    if r < 1:
        raise ValueError("copy count must be at least 1")
    G = close(lat, cap)
    n = lat.rank
    base_fixed = common_fixed_lattice(lat.generators, n)
    fixed = block_diagonal([base_fixed] * r)  # (L^r)^G = (L^G)^r
    total, f = r * n, fixed.rows
    project, section = _coordinates(fixed)
    reduction = preimages = None
    if base_fixed.rows:
        # the base's catalog is swept in the coordinates of L / L^G, which at r = 1 are the sum's
        base_project, preimages = (project, section) if r == 1 else _coordinates(base_fixed)
        reduction = (base_project, effective_reduction(lat))
    lift = None if r == 1 else _lift_to_copies(preimages, project, r)

    def witness(cl: IsotropyClass) -> tuple[int, ...]:
        m = witness_vector(G, cl.subgroup, cl.fixed_space * section)
        return (IntMatrix(1, total, m) * project).entries

    catalog = enumerate_isotropy_groups(G, reduction, lift)
    report = _decide(_sum_name(lat, r), total, f, catalog, r, witness)
    if r >= 3 and not report.reduction.trivial_action and report.verdict != OBSTRUCTED:
        raise TheoremViolation(
            f"{r} copies of a nontrivial action must be obstructed, got {report.verdict}"
        )
    return report


def _coordinates(fixed: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """The pair (P, S) for a saturated basis of k rows of a sublattice F of
    Z^m: x P holds the coordinates of x in Z^m / F, and the rows of S are
    preimages of that quotient's basis, so S P = I.  P is the columns past
    k of the Smith transform v that completes F, and S the rows past k of
    v^-1."""
    m, k = fixed.cols, fixed.rows
    v, v_inv = quotient_transform(fixed)
    project = IntMatrix(m, m - k, (x for i in range(m) for x in v.row(i)[k:]))
    return project, IntMatrix(m - k, m, v_inv.entries[k * m :])


def _lift_to_copies(section: IntMatrix | None, project: IntMatrix, r: int) -> Callable[[IntMatrix], IntMatrix]:
    """The map from the Hermite basis B of a base fixed lattice's image in
    L / L^G to the Hermite basis of the same subgroup's fixed lattice on
    the r-fold sum, in the coordinates of the sum's effective reduction.
    ``section`` holds preimages in L of the base's reduced basis, or is
    None when L^G = 0 and B lies in L; ``project`` is the r n x (r n - f)
    map to the sum's coordinates, the columns past f of the Smith transform
    of the sum's fixed part."""
    total, reduced = project.rows, project.cols
    n = total // r
    # diag(B, ..., B) project stacks the products B p_i, for p_i the i-th block of n rows
    blocks = [IntMatrix(n, reduced, project.entries[i * n * reduced : (i + 1) * n * reduced]) for i in range(r)]
    if section is not None:
        # B S spans the base's fixed lattice up to vectors of L^G, which every p_i kills
        blocks = [section * p for p in blocks]

    def lift(basis: IntMatrix) -> IntMatrix:
        lifted = hnf_basis(IntMatrix.vstack([basis * q for q in blocks], cols=reduced))
        if lifted.rows != r * basis.rows:
            raise TheoremViolation("a lifted fixed lattice's rank differs from its copies' less the fixed part")
        return lifted

    return lift
