"""Independent brute-force oracles used only by tests.

These never call back into the code paths they check: the stabilizer
census scans lattice vectors directly with numpy integer arithmetic, the
difference-lattice rank is plain integer elimination, and
the SL(2, F_5) histogram is computed from scratch over the finite field.
"""

from collections import Counter

import numpy as np


def stabilizer_census(group):
    """Distinct pointwise stabilizers over all m with entries in
    [-|G|, |G|]^n, as frozensets of element indices.

    Vectorized over chunks of the box; bounded entries keep every product
    far inside int64, so the arithmetic is exact.
    """
    n = group.lattice.rank
    order = group.order
    assert order <= 62, "bitmask packing assumes the order fits in int64"
    bound = order
    mats = [np.array(g.row_lists(), dtype=np.int64) for g in group.elements]
    assert all(np.abs(m).max() <= 2**20 for m in mats)
    rest = np.array(
        np.meshgrid(*[np.arange(-bound, bound + 1)] * (n - 1), indexing="ij")
    ).reshape(n - 1, -1).T if n > 1 else np.zeros((1, 0), dtype=np.int64)
    weights = np.array([1 << i for i in range(order)], dtype=np.int64)
    masks = set()
    for x0 in range(-bound, bound + 1):
        chunk = np.empty((rest.shape[0], n), dtype=np.int64)
        chunk[:, 0] = x0
        if n > 1:
            chunk[:, 1:] = rest
        hits = np.empty((chunk.shape[0], order), dtype=np.int64)
        for i, m in enumerate(mats):
            hits[:, i] = (chunk @ m.T == chunk).all(axis=1)
        masks.update(int(v) for v in np.unique(hits @ weights))
    out = set()
    for mask in masks:
        out.add(frozenset(i for i in range(order) if mask >> i & 1))
    return out


def difference_rank(mats):
    """Rank of the horizontal stack of the matrices g - I, i.e. of the
    lattice spanned by all differences g(m) - m, by fraction-free
    elimination on the distinct columns."""
    cols = set()
    for g in mats:
        rows = g.row_lists()
        n = len(rows)
        for j in range(n):
            cols.add(tuple(rows[i][j] - (i == j) for i in range(n)))
    basis = {}  # pivot position -> vector vanishing at every earlier pivot
    for v in cols:
        for p, b in basis.items():
            if v[p]:
                v = tuple(b[p] * x - v[p] * y for x, y in zip(v, b))
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            basis[p] = v
    return len(basis)


def sl2_f5_histogram_oracle():
    """Order histogram of SL(2, F_5) by plain modular arithmetic."""
    p = 5
    hist = Counter()
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p != 1:
                        continue
                    x = (a, b, c, d)
                    y = x
                    o = 1
                    while y != (1, 0, 0, 1):
                        e, f, g, h = y
                        y = (
                            (e * a + f * c) % p,
                            (e * b + f * d) % p,
                            (g * a + h * c) % p,
                            (g * b + h * d) % p,
                        )
                        o += 1
                    hist[o] += 1
    return dict(sorted(hist.items()))
