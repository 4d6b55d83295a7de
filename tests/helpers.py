"""Shared constructors and small oracles for the test suite."""

import random

from multinv.groups import abelian_invariants, commutator_subgroup, coset_orders
from multinv.intlinalg import IntMatrix, hnf


def elements(G):
    """G's element matrices in BFS order, each read through ``G.element``."""
    return [G.element(i) for i in range(G.order)]


def abelianization(h):
    """Invariant factors of h modulo its commutator subgroup, composed of
    the library's parts as ``obstruction._condition_row`` composes them."""
    return abelian_invariants(coset_orders(h, commutator_subgroup(h))[0])


def perm_matrix(image, n=None):
    """Column-action permutation matrix: e_j -> e_image[j] (0-based map)."""
    n = n or len(image)
    full = list(image) + [j for j in range(len(image), n)]
    ent = [0] * (n * n)
    for j, i in enumerate(full):
        ent[i * n + j] = 1
    return IntMatrix(n, n, ent)


def transposition(i, j, n):
    image = list(range(n))
    image[i], image[j] = j, i
    return perm_matrix(image)


def cycle(indices, n):
    image = list(range(n))
    for a, b in zip(indices, indices[1:]):
        image[a] = b
    image[indices[-1]] = indices[0]
    return perm_matrix(image)


def unipotent(n):
    """An infinite group: a shear plus the n-cycle permuting coordinates."""
    from multinv.groups import GLattice

    shear = IntMatrix(n, n, (1 if i == j or (i, j) == (0, 1) else 0 for i in range(n) for j in range(n)))
    return GLattice(n, [shear, cycle(list(range(n)), n)], f"unipotent{n}")


def diag(*values):
    n = len(values)
    return IntMatrix(n, n, (values[i] if i == j else 0 for i in range(n) for j in range(n)))


def random_unimodular(n, rng: random.Random, ops=None):
    """Product of elementary matrices with small coefficients."""
    m = IntMatrix.identity(n).row_lists()
    for _ in range(ops if ops is not None else 3 * n):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    t = IntMatrix.from_rows(m)
    assert abs(t.det()) == 1
    return t


def unimodular_inverse(a):
    """Exact inverse of a unimodular integer matrix.

    The Hermite form of a unimodular matrix is the identity, so the left
    transform is the inverse.
    """
    h, u = hnf(a)
    if not h.is_identity():
        raise ValueError("matrix is not unimodular")
    return u


def conjugated_lattice(lat, t):
    """Base change of every generator by the unimodular matrix t."""
    from multinv.groups import GLattice

    tinv = unimodular_inverse(t)
    return GLattice(lat.rank, [t * g * tinv for g in lat.generators], lat.name + "~conj")


def random_signed_perm(n, rng):
    image = list(range(n))
    rng.shuffle(image)
    ent = [0] * (n * n)
    for j, i in enumerate(image):
        ent[i * n + j] = rng.choice([-1, 1])
    return IntMatrix(n, n, ent)


def random_signed_perm_lattice(n, rng, max_gens=2):
    """A lattice on 1 to ``max_gens`` random signed permutation matrices:
    such matrices always generate a finite group."""
    from multinv.groups import GLattice

    gens = [random_signed_perm(n, rng) for _ in range(rng.randint(1, max_gens))]
    return GLattice(n, gens, "fuzz")


def counted_builds(monkeypatch):
    """A list that grows by one for each element matrix a group builds
    while the patch holds: ``groups.IntMatrix`` becomes a subclass that
    counts its instances."""
    from multinv import groups

    built = []

    class Counted(IntMatrix):
        def __init__(self, *args):
            built.append(None)
            super().__init__(*args)

    monkeypatch.setattr(groups, "IntMatrix", Counted)
    return built
