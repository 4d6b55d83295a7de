"""Moved ranks of group elements and subgroups.

The moved rank of g is the rank of g - I, i.e. the rank of the sublattice
of differences g(m) - m.  Elements of moved rank 1 are reflections, rank 2
bireflections.  For a subgroup the moved rank is the rank of the combined
difference lattice, which always complements the fixed lattice:
moved_rank_subgroup(H) + rank(fixed lattice of H) = rank L.  That equality
is also the height of the ideal the subgroup generates in the Laurent
algebra, so no prime-ideal machinery is needed here.
"""

from __future__ import annotations

from .intlinalg import IntMatrix, rank
from .groups import Subgroup, subgroup_generated
from .isotropy import fixed_lattice


def moved_rank(g: IntMatrix) -> int:
    """rank(g - I)."""
    if g.rows != g.cols:
        raise ValueError("group elements are square matrices")
    return rank(g - IntMatrix.identity(g.rows))


def moved_rank_subgroup(h: Subgroup) -> int:
    """Rank of the difference lattice of h, the complement of its fixed
    lattice's rank."""
    return h.parent.lattice.rank - fixed_lattice(h).rows


def bireflection_subgroup(h: Subgroup) -> Subgroup:
    """Subgroup generated by all bireflections of h.

    Scans every element of h, not just generators: the bireflection set
    of a subgroup is not determined by a generating set.
    """
    seeds = [i for i in h.indices if h.parent.moved_rank(i) <= 2]
    return subgroup_generated(h.parent, seeds)
