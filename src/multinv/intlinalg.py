"""Exact integer matrix arithmetic and lattice algorithms.

Everything runs on Python's arbitrary-precision integers; no floating
point is used anywhere.  Matrices are immutable values, all functions are
pure, so concurrent use needs no locking.

Normal forms follow the usual conventions:

* ``hnf`` returns a row Hermite normal form: echelon shape, positive
  pivots, entries above each pivot reduced into ``[0, pivot)``.
* ``snf`` returns a Smith decomposition ``U A V = S`` with nonnegative
  diagonal and the divisibility chain ``d_i | d_{i+1}``.

Returned lattice bases are always in Hermite form, so equal sublattices
compare equal entry-by-entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


class IntMatrix:
    """Dense integer matrix; entries stored row-major in one flat tuple."""

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(entries)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self.entries = data
        self._hash = None

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(rows_data: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows_data = [list(r) for r in rows_data]
        if rows_data:
            width = len(rows_data[0])
            if any(len(r) != width for r in rows_data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("declared column count does not match rows")
            cols = width
        elif cols is None:
            cols = 0
        flat = [e for r in rows_data for e in r]
        return IntMatrix(len(rows_data), cols, flat)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, (1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def vstack(mats: Sequence["IntMatrix"], cols: int | None = None) -> "IntMatrix":
        if not mats:
            if cols is None:
                raise ValueError("vstack of nothing needs an explicit column count")
            return IntMatrix(0, cols, ())
        width = mats[0].cols
        if any(m.cols != width for m in mats):
            raise ValueError("column counts differ")
        flat = []
        for m in mats:
            flat.extend(m.entries)
        return IntMatrix(sum(m.rows for m in mats), width, flat)

    @staticmethod
    def hstack(mats: Sequence["IntMatrix"]) -> "IntMatrix":
        if not mats:
            raise ValueError("hstack of nothing")
        height = mats[0].rows
        if any(m.rows != height for m in mats):
            raise ValueError("row counts differ")
        flat = []
        for i in range(height):
            for m in mats:
                flat.extend(m.row(i))
        return IntMatrix(height, sum(m.cols for m in mats), flat)

    # -- access --------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        c = self.cols
        return self.entries[i * c : (i + 1) * c]

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        n, k, m = self.rows, self.cols, other.cols
        out = [0] * (n * m)
        oent = other.entries
        for i in range(n):
            base = i * k
            obase = i * m
            for t in range(k):
                a = self.entries[base + t]
                if a:
                    rb = t * m
                    if a == 1:
                        for j in range(m):
                            out[obase + j] += oent[rb + j]
                    else:
                        for j in range(m):
                            out[obase + j] += a * oent[rb + j]
        return IntMatrix(n, m, out)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")
        return IntMatrix(self.rows, self.cols, (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")
        return IntMatrix(self.rows, self.cols, (a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, (-a for a in self.entries))

    def transpose(self) -> "IntMatrix":
        r, c = self.rows, self.cols
        return IntMatrix(c, r, (self.entries[i * c + j] for j in range(c) for i in range(r)))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        c = self.cols
        ent = self.entries
        out = []
        for i in range(self.rows):
            base = i * c
            s = 0
            for j in range(c):
                a = ent[base + j]
                if a:
                    s += a * vec[j]
            out.append(s)
        return tuple(out)

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum(self.entry(i, i) for i in range(self.rows))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.row_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = m[k][k]
            for i in range(k + 1, n):
                row_i = m[i]
                row_k = m[k]
                fac = row_i[k]
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j] - fac * row_k[j]) // prev
                row_i[k] = 0
            prev = pivot
        return sign * m[n - 1][n - 1]

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        n = self.rows
        return all(self.entries[i * n + j] == (1 if i == j else 0) for i in range(n) for j in range(n))

    # -- value semantics ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.entries))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"IntMatrix({self.row_lists()!r})"


# -- echelon engine -----------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g = gcd(a, b) > 0 (for a, b not both 0)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _combine_rows(m, r1, r2, a11, a12, a21, a22):
    """Rows (r1, r2) <- (a11 r1 + a12 r2, a21 r1 + a22 r2)."""
    row1, row2 = m[r1], m[r2]
    m[r1] = [a11 * p + a12 * q for p, q in zip(row1, row2)]
    m[r2] = [a21 * p + a22 * q for p, q in zip(row1, row2)]


def _echelon(h: list[list[int]], want_u: bool):
    """In-place row Hermite reduction.

    Returns ``(u_rows, pivots)`` where ``pivots`` lists ``(row, col)`` of
    the echelon pivots and ``u_rows`` tracks the left transform (or is
    None when not requested).  Each sub-pivot entry is cleared by one
    extended-gcd two-row transform, never by repeated remaindering:
    iterated Euclidean passes contaminate whole rows each round and make
    intermediate entries grow exponentially on unlucky dense inputs.
    """
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)] if want_u else None
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        best = -1
        best_abs = 0
        for i in range(r, rows):
            v = h[i][c]
            if v and (best == -1 or abs(v) < best_abs):
                best = i
                best_abs = abs(v)
        if best == -1:
            continue
        if best != r:
            h[r], h[best] = h[best], h[r]
            if want_u:
                u[r], u[best] = u[best], u[r]
        for i in range(r + 1, rows):
            b = h[i][c]
            if not b:
                continue
            a = h[r][c]
            if b % a == 0:
                q = b // a
                hr, hi = h[r], h[i]
                for j in range(c, cols):
                    hi[j] -= q * hr[j]
                if want_u:
                    ur, ui = u[r], u[i]
                    for j in range(rows):
                        ui[j] -= q * ur[j]
            else:
                g, x, y = _xgcd(a, b)
                _combine_rows(h, r, i, x, y, -(b // g), a // g)
                if want_u:
                    _combine_rows(u, r, i, x, y, -(b // g), a // g)
        if h[r][c] < 0:
            h[r] = [-v for v in h[r]]
            if want_u:
                u[r] = [-v for v in u[r]]
        pivot = h[r][c]
        for i in range(r):
            q = h[i][c] // pivot
            if q:
                hr, hi = h[r], h[i]
                for j in range(cols):
                    hi[j] -= q * hr[j]
                if want_u:
                    ur, ui = u[r], u[i]
                    for j in range(rows):
                        ui[j] -= q * ur[j]
        pivots.append((r, c))
        r += 1
    return u, pivots


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: returns ``(h, u)`` with ``u`` unimodular
    and ``u * a = h``."""
    h = a.row_lists()
    u, _ = _echelon(h, want_u=True)
    return IntMatrix.from_rows(h, a.cols), IntMatrix.from_rows(u, a.rows)


def hnf_basis(a: IntMatrix) -> IntMatrix:
    """Hermite form with zero rows dropped: a canonical basis of the row
    span of ``a``."""
    h = a.row_lists()
    _, pivots = _echelon(h, want_u=False)
    return IntMatrix.from_rows(h[: len(pivots)], a.cols)


def rank(a: IntMatrix) -> int:
    """Rank over the integers (equivalently over the rationals)."""
    h = a.row_lists()
    _, pivots = _echelon(h, want_u=False)
    return len(pivots)


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form ``u * a * v = s`` with unimodular ``u``, ``v``."""

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        k = min(self.s.rows, self.s.cols)
        return tuple(self.s.entry(i, i) for i in range(k))

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal() if d != 0)


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms.

    Per stage, the smallest nonzero entry of the working block moves to
    the corner, then the corner row and column are cleared by one
    extended-gcd transform per entry.  Row clearing can re-dirty the
    column; the corner then strictly divides its old value, so the
    alternation ends after at most log(corner) rounds.  A divisibility
    sweep (add an offending row to the corner row and re-clear) repairs
    the chain before the corner is frozen.  Intermediate entries still
    overflow fixed-width integers readily, which is why everything is a
    Python int.
    """
    s = a.row_lists()
    rows, cols = a.rows, a.cols
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, k, q):  # row_i -= q * row_k
        si, sk = s[i], s[k]
        for j in range(cols):
            si[j] -= q * sk[j]
        ui, uk = u[i], u[k]
        for j in range(rows):
            ui[j] -= q * uk[j]

    def combine_cols(j1, j2, a11, a12, a21, a22):
        for m in (s, v):
            for row in m:
                p, q = row[j1], row[j2]
                row[j1] = a11 * p + a12 * q
                row[j2] = a21 * p + a22 * q

    def swap_cols(j1, j2):
        for m in (s, v):
            for row in m:
                row[j1], row[j2] = row[j2], row[j1]

    t = 0
    while t < min(rows, cols):
        dirty = True
        while dirty:
            dirty = False
            # move the smallest nonzero entry of the block to the corner
            bi = bj = -1
            babs = 0
            for i in range(t, rows):
                si = s[i]
                for j in range(t, cols):
                    val = si[j]
                    if val and (bi == -1 or abs(val) < babs):
                        bi, bj, babs = i, j, abs(val)
            if bi == -1:
                break
            if bi != t:
                s[t], s[bi] = s[bi], s[t]
                u[t], u[bi] = u[bi], u[t]
            if bj != t:
                swap_cols(t, bj)
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
            # clear column t, one transform per entry
            for i in range(t + 1, rows):
                b = s[i][t]
                if not b:
                    continue
                pivot = s[t][t]
                if b % pivot == 0:
                    row_op(i, t, b // pivot)
                else:
                    g, x, y = _xgcd(pivot, b)
                    _combine_rows(s, t, i, x, y, -(b // g), pivot // g)
                    _combine_rows(u, t, i, x, y, -(b // g), pivot // g)
            # clear row t; this can re-dirty the column, shrinking the corner
            for j in range(t + 1, cols):
                b = s[t][j]
                if not b:
                    continue
                pivot = s[t][t]
                if b % pivot == 0:
                    q = b // pivot
                    combine_cols(j, t, 1, -q, 0, 1)
                else:
                    g, x, y = _xgcd(pivot, b)
                    combine_cols(t, j, x, y, -(b // g), pivot // g)
                    dirty = True  # column t regained entries from column j
            if dirty:
                continue
            if any(s[i][t] for i in range(t + 1, rows)):
                dirty = True
                continue
            # divisibility sweep over the untouched block
            pivot = s[t][t]
            for i in range(t + 1, rows):
                si = s[i]
                if any(si[j] % pivot for j in range(t + 1, cols)):
                    row_op(t, i, -1)  # pull the offending row into row t
                    dirty = True
                    break
        t += 1

    return SmithDecomposition(
        IntMatrix.from_rows(u, rows), IntMatrix.from_rows(s, cols), IntMatrix.from_rows(v, cols)
    )


def kernel_lattice(a: IntMatrix) -> IntMatrix:
    """Basis (as rows, Hermite form) of ``{v : a @ v = 0}``.

    The kernel of an integer matrix is automatically saturated: if a
    multiple of ``v`` is killed by ``a`` then so is ``v``.  The basis is
    read off the left transform of the Hermite form of the transpose:
    rows of ``u`` facing zero rows of ``h`` span the kernel exactly.
    """
    m = a.transpose().row_lists()  # cols(a) x rows(a)
    u, pivots = _echelon(m, want_u=True)
    r = len(pivots)
    kernel_rows = u[r:]
    basis = [list(row) for row in kernel_rows]
    _, piv2 = _echelon(basis, want_u=False)
    return IntMatrix.from_rows(basis[: len(piv2)], a.cols)


def common_fixed_lattice(mats: Sequence[IntMatrix], n: int) -> IntMatrix:
    """Saturated Hermite basis of the vectors fixed by every matrix in
    ``mats``: the kernel of the stacked ``g - I``.  With no matrices this
    is the whole of ``Z^n``."""
    ident = IntMatrix.identity(n)
    return kernel_lattice(IntMatrix.vstack([g - ident for g in mats], cols=n))


def solve_echelon(h_rows: Sequence[Sequence[int]], pivots: Sequence[tuple[int, int]], target: Sequence[int]):
    """Integer c with ``sum c[r] * h_rows[r] = target`` by back-substitution
    through the ``(row, col)`` pivots of an echelon form, or None when the
    target is outside the row lattice."""
    coeffs = [0] * len(h_rows)
    t = list(target)
    for r, c in pivots:
        val = t[c]
        if val == 0:
            continue
        pivot = h_rows[r][c]
        if val % pivot:
            return None
        q = val // pivot
        coeffs[r] = q
        row = h_rows[r]
        for j in range(len(t)):
            if row[j]:
                t[j] -= q * row[j]
    if any(t):
        return None
    return coeffs


class QuotientInvariants(NamedTuple):
    """Structure of an ambient lattice modulo a row span."""

    factors: tuple[int, ...]  # nonzero Smith diagonal entries, ascending chain
    free_rank: int


def lattice_quotient_invariants(ambient_rank: int, sub_basis: IntMatrix) -> QuotientInvariants:
    """Invariant factors of ``Z^ambient / rowspan(sub_basis)``."""
    if sub_basis.rows and sub_basis.cols != ambient_rank:
        raise ValueError("sub-basis rows do not live in the ambient lattice")
    if sub_basis.rows == 0:
        return QuotientInvariants((), ambient_rank)
    dec = snf(sub_basis)
    factors = dec.invariant_factors()
    return QuotientInvariants(factors, ambient_rank - len(factors))


def unimodular_inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix.

    The Hermite form of a unimodular matrix is the identity, so the left
    transform is the inverse.
    """
    h, u = hnf(a)
    if not h.is_identity():
        raise ValueError("matrix is not unimodular")
    return u


def induced_on_quotient(sub_basis: IntMatrix, mats: Sequence[IntMatrix]) -> list[IntMatrix]:
    """Matrices of the induced action on ``Z^n / rowspan(sub_basis)``.

    ``sub_basis`` must be a saturated basis whose span is fixed pointwise
    by every matrix in ``mats``.  The basis is completed to a unimodular
    basis of the ambient lattice via the Smith transforms; in the
    completed coordinates each matrix is block upper triangular with an
    identity block on the fixed part, and the lower-right block is the
    quotient action.
    """
    n = sub_basis.cols if sub_basis.rows else (mats[0].rows if mats else 0)
    k = sub_basis.rows
    if k == 0:
        return list(mats)
    dec = snf(sub_basis)
    if dec.invariant_factors() != (1,) * k:
        raise ValueError("sub-basis is not saturated")
    p = unimodular_inverse(dec.v)  # rows 0..k-1 of p span the sub-lattice
    pt = p.transpose()
    vt = dec.v.transpose()  # equals inverse(p transpose)
    out = []
    for g in mats:
        gt = vt * g * pt
        for i in range(n):
            for j in range(k):
                expected = 1 if i == j else 0
                if gt.entry(i, j) != expected:
                    raise ValueError("matrix does not fix the sub-lattice pointwise")
        q = n - k
        out.append(IntMatrix(q, q, (gt.entry(k + i, k + j) for i in range(q) for j in range(q))))
    return out
