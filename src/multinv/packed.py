"""Square integer matrices packed one to a Python int.

Entry k of a matrix, plus a bias of 2^(w - 1), sits in bits [k w, (k + 1) w)
of one int, for a field width w that is a multiple of 8; entries must lie
in [-2^(w - 1), 2^(w - 1)).  Row i of an n x n matrix is then the int of
bits [i n w, (i + 1) n w), and one big-int multiply-add combines whole
rows: this is Kronecker substitution (D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic
Comput. 44 (2009)).  :func:`left_product` needs no field to overflow; the
caller picks a width that leaves room, as :func:`multinv.groups.close`
does from its generators' row norms.

At w = 32 an 8 x 8 matrix takes 300 bytes, against 552 for its entry
tuple (more when its entries are not small ints), and its product with a
dense 8 x 8 generator takes 8-16 us, against about 25 us on tuples
(Python 3.11, shared 2-CPU host).
"""

from __future__ import annotations

from struct import unpack as _words
from typing import Callable, Sequence

from .intlinalg import IntMatrix


def pack(entries: Sequence[int], width: int) -> int:
    """The entries, row-major, in one int of ``width``-bit fields."""
    bias, size = 1 << width - 1, width // 8
    return int.from_bytes(b"".join(e.to_bytes(size, "little") for e in map(bias.__add__, entries)), "little")


def unpack(x: int, count: int, width: int) -> tuple[int, ...]:
    """The first ``count`` entries :func:`pack` put in x."""
    bias, size = 1 << width - 1, width // 8
    data = x.to_bytes(count * size, "little")
    if size in (4, 8):
        fields = _words(f"<{count}{'I' if size == 4 else 'Q'}", data)
    else:
        fields = [int.from_bytes(data[k : k + size], "little") for k in range(0, len(data), size)]
    # a list first: tuple() sizes a tuple from a list, but grows one from a map
    return tuple([v - bias for v in fields])


def left_product(g: IntMatrix, width: int) -> Callable[[int], int]:
    """x -> g x on packed n x n matrices, for which no field overflows.
    Row i of g x, one int of n fields, sums x's rows times the nonzero
    entries of row i of g, plus the biases that sum leaves out; a row of a
    signed permutation matrix costs one term."""
    n, span = g.rows, g.rows * width
    mask, zero = (1 << span) - 1, pack([0] * n, width)
    shifts = range(0, n * span, span)
    plan = [(s, (1 - sum(g.row(i))) * zero, [(t, a) for t, a in enumerate(g.row(i)) if a]) for i, s in enumerate(shifts)]

    def product(x: int) -> int:
        rows = [(x >> s) & mask for s in shifts]
        y = 0
        for s, c, terms in plan:
            for t, a in terms:
                c += a * rows[t]
            y |= c << s
        return y

    return product
