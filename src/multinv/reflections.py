"""Bireflection subgroups.

The moved rank of g is the rank of g - I, i.e. the rank of the sublattice
of differences g(m) - m (``FiniteMatrixGroup.moved_rank``).  Elements of
moved rank 1 are reflections, rank 2 bireflections.
"""

from __future__ import annotations

from .groups import Subgroup, subgroup_generated


def bireflection_subgroup(h: Subgroup, copies: int = 1) -> Subgroup:
    """Subgroup generated by all bireflections of h, acting on ``copies``
    copies of its parent's lattice, where g moves rank copies * rank(g - I).

    Scans every element of h, not just generators: the bireflection set
    of a subgroup is not determined by a generating set.
    """
    seeds = [i for i in h.indices if copies * h.parent.moved_rank(i) <= 2]
    return subgroup_generated(h.parent, seeds)
