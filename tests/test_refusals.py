"""The closure's refusals of infinite groups, pinned: the exception type,
its message, and a digest of the matrices it carries.

Each refusal is a proof anyone can re-check, and the closure must reach
the same one whatever way it holds its elements, so these values were
recorded once and every representation of the matrix closure must meet
them unchanged.
"""

import hashlib
import json
import random

import pytest

from multinv.catalog import parse_group_definition, serialize_group_definition
from multinv.errors import InfiniteGroup, InfiniteOrderElement
from multinv.groups import DEFAULT_CAP, GLattice, close
from multinv.intlinalg import IntMatrix

from helpers import random_unimodular
from oracles import check_infinite_pair

INFINITE = "group is infinite (two distinct elements agree mod 3), so its closure would exceed the cap of {} elements"
TRACE = (
    "group is infinite (an element's trace exceeds its rank in absolute value), "
    "so its closure would exceed the cap of {} elements"
)


def _digest(*matrices):
    """SHA-256 of the matrices' rows, as JSON, first 16 hex digits."""
    text = json.dumps([m.row_lists() for m in matrices])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- the benchmark's rejected definition files, rebuilt here ------------------


def _signed_permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return IntMatrix(n, n, (signs[i] if perm[i] == j else 0 for i in range(n) for j in range(n)))


def _unipotent(n):
    """A shear plus the n-cycle e_j -> e_(j+1)."""
    shear = IntMatrix(n, n, (1 if i == j or (i, j) == (0, 1) else 0 for i in range(n) for j in range(n)))
    cycle = IntMatrix(n, n, (1 if i == (j + 1) % n else 0 for i in range(n) for j in range(n)))
    return GLattice(n, [shear, cycle], f"unipotent{n}")


REJECT_CAPS = {2: 30000, 8: 50000, 24: 2500}

# (seed, rank) -> digest of the refused pair
REJECT_PAIRS = {
    (0, 2): "76ea8d73ef18d4fb",
    (0, 8): "63cd31ba05092230",
    (0, 24): "1698a6d47a68faf7",
    (1, 2): "937f46dc04e34d38",
    (1, 8): "9963f14e4d3ce005",
    (1, 24): "c2b66431ba573f95",
    (2, 2): "a74b94d3d6bd2424",
    (2, 8): "4abff5efcbb04a39",
    (2, 24): "632f93ad6b3e953e",
}


def _reject_files(seed, tmp_path):
    """unipotent{2,8,24} conjugated by seeded signed permutations, one
    random stream for all three, written and parsed back."""
    rng = random.Random(seed)
    lattices = {}
    for n in REJECT_CAPS:
        p = _signed_permutation(n, rng)
        lat = _unipotent(n)
        lat = GLattice(n, [p * g * p.transpose() for g in lat.generators], lat.name)
        path = tmp_path / f"unipotent{n}.json"
        path.write_text(serialize_group_definition(lat))
        lattices[n] = parse_group_definition(path.read_text()).lattice
    return lattices


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_rejected_unipotent_files_keep_their_refusals(seed, tmp_path):
    for n, lat in _reject_files(seed, tmp_path).items():
        cap = REJECT_CAPS[n]
        with pytest.raises(InfiniteGroup) as exc:
            close(lat, cap)
        assert type(exc.value) is InfiniteGroup
        assert str(exc.value) == INFINITE.format(cap) and exc.value.cap == cap
        check_infinite_pair(exc.value)
        assert _digest(exc.value.first, exc.value.second) == REJECT_PAIRS[seed, n], n


# -- a dense generator of infinite order, refused by its trace ----------------


@pytest.mark.parametrize("n, digest, trace", [(60, "eb8586b197de3b6a", 138), (120, "6c6c414bf1476058", 712)])
def test_dense_generators_keep_their_trace_refusals(n, digest, trace):
    g = random_unimodular(n, random.Random(0), ops=6 * n)
    with pytest.raises(InfiniteOrderElement) as exc:
        close(GLattice(n, [g]))
    assert type(exc.value) is InfiniteOrderElement
    assert str(exc.value) == TRACE.format(DEFAULT_CAP) and exc.value.cap == DEFAULT_CAP
    element = exc.value.element
    assert sum(element.entry(i, i) for i in range(n)) == trace
    assert _digest(element) == digest


def test_a_shear_meets_its_mod3_twin_at_its_cube():
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(InfiniteGroup) as exc:
        close(GLattice(2, [shear]))
    assert type(exc.value) is InfiniteGroup
    assert str(exc.value) == INFINITE.format(DEFAULT_CAP)
    assert exc.value.first == IntMatrix.identity(2)
    assert exc.value.second == IntMatrix.from_rows([[1, 3], [0, 1]])
