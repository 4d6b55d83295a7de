"""Shared constructors and small oracles for the test suite."""

import random

from multinv.intlinalg import IntMatrix, unimodular_inverse


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


def conjugated_lattice(lat, t):
    """Base change of every generator by the unimodular matrix t."""
    from multinv.groups import GLattice

    tinv = unimodular_inverse(t)
    return GLattice(lat.rank, [t * g * tinv for g in lat.generators], lat.name + "~conj")
